//! The shared refutation store: a concurrent transposition table over
//! the exact search's uncovered [`ChordSet`]s, reused across budget
//! probes, parallel workers, and (via the service layer) whole requests.
//!
//! Distinct search prefixes frequently reach the *same* residual state —
//! two tiles placed in either order, or different tile pairs covering the
//! same chords — and restricted-cover instances share that structure
//! across subproblems aggressively (Manthey, *On Approximating Restricted
//! Cycle Covers*). The store exploits it: when a node's subtree has been
//! exhausted without finding a covering, the node's uncovered set is
//! recorded together with the **slack** it was refuted under — `rem =
//! budget − used`, "no covering of this state exists within `rem`
//! tiles". Any later node reaching the same uncovered set with
//! equal-or-less slack is pruned: its subtree is a sub-search of one
//! already proved empty.
//!
//! # Why `rem`, not `used`
//!
//! Earlier revisions stored the tiles-*used* count and pruned when
//! `entry.used ≤ used`. Within one budget probe the two rules are
//! interchangeable (`entry.used ≤ used ⟺ budget − entry.used ≥ budget −
//! used`), but `used` is only meaningful relative to the probe's budget,
//! so the table had to be rebuilt for every probe. `rem` makes each
//! entry a budget-free statement about the state itself, which is what
//! lets one store serve three concentric sharing rings:
//!
//! 1. **Cross-budget**: a `FindOptimal` deepening sweep threads one
//!    store through its probes; a refutation recorded at budget `k`
//!    ("no covering within `rem` tiles") prunes identically at `k ± 1`
//!    wherever the new probe's slack is `≤ rem`.
//! 2. **Cross-worker**: the parallel frontier's workers share one
//!    store; a subtree one worker exhausts prunes its mirror images in
//!    every other worker's prefix.
//! 3. **Cross-request**: the service keys stores by tile universe and
//!    threads them through a batch's coalesced traffic — entries carry
//!    no spec state (unit demands mean the uncovered set *is* the
//!    subproblem), so any same-universe request may reuse them.
//!
//! Soundness: an entry `(state, rem)` is written only after the search
//! exhaustively explored the node (under the sound dominance, bound,
//! and orbit reductions) and found no covering within `rem` further
//! tiles. The statement quantifies over tile subsets of the universe
//! only — not the spec, the budget, or the symmetry mode of the search
//! that recorded it — so a later visit with slack `≤ rem` may prune
//! regardless of which probe, worker, or request wrote the entry.
//! Aborted subtrees (node/deadline/cancel limits) record nothing.
//! Entries are never shared across *universes*: the store carries a
//! fingerprint of the universe it was built for and attachment is
//! refused on mismatch.
//!
//! Under [`crate::bnb::SymmetryMode::Full`] the search keys the store by
//! the **canonical** residual state — the lexicographically smallest
//! dihedral image of the uncovered set under the spec-preserving
//! subgroup. Two prefixes whose residual states are mirror images then
//! share one entry: this is the ROADMAP's canonical-prefix test, applied
//! where it is sound (a completion of a state maps element-wise to a
//! completion of every state in its orbit, so "orbit exhausted" proofs
//! transfer; a naive lexicographic test on the prefix *multiset* itself
//! would not be sound here, because prefix reachability under the
//! chord-priority branch rule is not orbit-invariant).
//!
//! # Mechanics
//!
//! States are keyed *exactly*: the residual state's words (`≤ 128` chord
//! slots, i.e. every `n ≤ 16` — far beyond what exact search finishes)
//! are the key, so a hash collision can never cause a false prune and
//! certificates stay exact. Unit-demand searches key by the uncovered
//! [`crate::bitset::ChordSet`]'s words (1 bit per chord); λ-fold
//! searches key by the packed residual [`crate::bitset::LaneSet`]'s
//! words (2 bits per chord, residual multiplicities `≤ 3`); the
//! zero-slack partition kernel keys by the same packed lane words but
//! under a **waste-slack** `rem` (unused cycle length remaining, not
//! tiles remaining). The encodings can collide bit for bit over the
//! same universe — and lane and partition entries share raw words by
//! construction — so every slot carries its **lane width** (`bits`:
//! 1 = unit, 2 = λ-fold tile slack, 3 = partition waste slack) and a
//! probe only matches entries of its own width — a service-shared store
//! may hold all kinds side by side. A Zobrist hash — one 64-bit key
//! per (chord slot, multiplicity level `1..=3`), generated
//! deterministically by the vendored xoshiro256** generator (the
//! level-1 keys come first, so unit hashes are unchanged from earlier
//! revisions), XOR-folded incrementally as residual demand is
//! covered/uncovered — picks the shard (top bits) and the slot within
//! it (low bits). Each
//! shard is an independently locked open-addressing table probing an
//! eight-slot window per hash, doubling while under its share of the
//! byte budget; with the window full, a colliding insert keeps
//! whichever entries have the *larger* `rem` (the stronger pruners).
//! Lost entries only lose pruning, never correctness.
//!
//! Lock traffic is one uncontended `Mutex` acquisition per probe or
//! record. Acquisitions first `try_lock` and only fall back to a
//! blocking lock — counted in [`MemoStore::contention`] — when another
//! worker holds the shard, so the single-threaded search pays one
//! atomic compare-exchange per table access and the contention counter
//! is deterministically zero.
//!
//! Every searcher that attaches to the store draws a *generation* tag;
//! entries remember the generation that recorded (or last strengthened)
//! them, so a searcher can tell hits on its own work from hits on
//! another probe's, worker's, or request's — the `shared_hits`
//! statistic CI gates on.

use crate::TileUniverse;
use rand::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Bytes one [`MemoStore`] slot occupies (key + rem + generation).
const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// Smallest slot count a shard starts from (and the floor its byte
/// budget is clamped to).
const MIN_SLOTS: usize = 1 << 10;

/// Shard count: a power of two small enough that the per-shard byte
/// floor stays negligible and large enough that a few workers rarely
/// collide on one lock.
const SHARDS: usize = 16;

/// The deterministic seed of the Zobrist key stream. Fixed so node
/// counts are reproducible run to run and machine to machine.
const ZOBRIST_SEED: u64 = 0xC0DE_C0FF_EE15_5EED;

/// Whether the memo machinery is engaged for a search, and how much
/// memory it may claim. Defaults to enabled with a 32 MiB budget —
/// budgeted like the service layer's universe cache, and overridable
/// from the CLI (`--no-memo` / `--memo-mb`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoConfig {
    /// Whether the memo (and, under `SymmetryMode::Full`, canonical
    /// residual-state keying) runs at all. Disabled, the search
    /// reproduces its memo-free node counts bit for bit.
    pub enabled: bool,
    /// Byte budget for the table (clamped to at least one minimal
    /// table); each shard doubles up to its share of the budget, then
    /// falls back to keep-the-stronger replacement.
    pub budget_bytes: usize,
}

/// Default memo byte budget: 32 MiB (~1.3M resident states).
pub const DEFAULT_MEMO_BYTES: usize = 32 << 20;

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            enabled: true,
            budget_bytes: DEFAULT_MEMO_BYTES,
        }
    }
}

impl MemoConfig {
    /// The memo switched off entirely — the historical search.
    pub fn disabled() -> Self {
        MemoConfig {
            enabled: false,
            budget_bytes: 0,
        }
    }
}

/// Words of one state key: four words hold either a unit uncovered set
/// (`≤ 128` chords, upper two words zero) or a packed 2-bit residual
/// lane vector (`≤ 128` chords × 2 bits).
pub(crate) const KEY_WORDS: usize = 4;

/// One table slot: the exact residual state (up to [`KEY_WORDS`] words
/// of the uncovered set or residual lane vector), its lane width, the
/// largest slack the state was refuted under, and the generation that
/// recorded it. `rem == u32::MAX` marks an empty slot (real slacks are
/// bounded by the search budget).
#[derive(Clone, Copy)]
struct Slot {
    key: [u64; KEY_WORDS],
    rem: u32,
    gen: u32,
    /// Lane-width/semantics tag of `key` (1 = unit bitset, 2 = λ-fold
    /// lanes under tile slack, 3 = λ-fold lanes under waste slack).
    bits: u8,
}

const EMPTY: u32 = u32::MAX;

/// One independently locked segment of the store.
struct Shard {
    slots: Vec<Slot>,
    /// `slots.len() - 1` (the table is a power of two).
    mask: usize,
    /// Occupied slot count.
    len: usize,
    /// Largest slot count this shard's byte share allows.
    cap_slots: usize,
}

/// The shared refutation store. See the module docs for the pruning
/// rule, its soundness, and the three sharing rings.
pub struct MemoStore {
    shards: Vec<Mutex<Shard>>,
    /// Zobrist keys per (priority chord, multiplicity level): the first
    /// `num_chords` entries are the level-1 keys (the unit search's
    /// whole stream), followed by the level-2 and level-3 blocks the
    /// λ-fold lane search folds in per residual unit.
    zobrist: Vec<u64>,
    /// Next generation tag to hand out (see [`MemoStore::attach`]).
    next_gen: AtomicU32,
    /// Blocking shard-lock acquisitions (zero unless workers collide).
    contention: AtomicU64,
    /// Total occupied slots across shards.
    len: AtomicU64,
    /// Universe fingerprint — entries are meaningless outside it.
    n: u32,
    num_chords: u32,
    num_tiles: u32,
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoStore")
            .field("n", &self.n)
            .field("num_chords", &self.num_chords)
            .field("num_tiles", &self.num_tiles)
            .field("len", &self.len())
            .finish()
    }
}

impl MemoStore {
    /// A store for `u`'s residual states under the given byte budget.
    /// Returns `None` when the state cannot be keyed exactly
    /// (`num_chords > 128`, i.e. `n ≥ 17`). This is a known limit, not a
    /// bound on exact search: ρ(17) certifies on the default route and the
    /// partition route certifies ρ(18), both with the memo off and nothing
    /// in the answer saying so. Wider keys are ROADMAP open item 3.
    pub fn new(u: &TileUniverse, budget_bytes: usize) -> Option<MemoStore> {
        let num_chords = u.num_chords();
        if num_chords > 128 {
            return None;
        }
        let budget_slots = (budget_bytes / SLOT_BYTES / SHARDS).max(MIN_SLOTS);
        // Floor to a power of two so `hash & mask` indexes uniformly.
        let cap_slots = 1usize << (usize::BITS - 1 - budget_slots.leading_zeros());
        let start = MIN_SLOTS.min(cap_slots);
        let mut rng = StdRng::seed_from_u64(ZOBRIST_SEED);
        // Level-1 keys first: the prefix of the seeded stream is exactly
        // the historical per-chord key set, so unit-search hashes (and
        // hence node counts) are bit-identical to earlier revisions.
        let zobrist: Vec<u64> = (0..3 * num_chords).map(|_| rng.next_u64()).collect();
        let shards = (0..SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    slots: vec![
                        Slot {
                            key: [0; KEY_WORDS],
                            rem: EMPTY,
                            gen: 0,
                            bits: 0,
                        };
                        start
                    ],
                    mask: start - 1,
                    len: 0,
                    cap_slots,
                })
            })
            .collect();
        Some(MemoStore {
            shards,
            zobrist,
            next_gen: AtomicU32::new(1),
            contention: AtomicU64::new(0),
            len: AtomicU64::new(0),
            n: u.ring().n(),
            num_chords,
            num_tiles: u.len() as u32,
        })
    }

    /// Whether `u` is the universe this store was built for. Entries
    /// are statements about one universe's tiles and chord priorities;
    /// an incompatible store must be treated as absent.
    pub fn compatible(&self, u: &TileUniverse) -> bool {
        self.n == u.ring().n()
            && self.num_chords == u.num_chords()
            && self.num_tiles == u.len() as u32
    }

    /// Registers a searcher (one budget probe, parallel worker, or
    /// request) and returns its generation tag. Hits on entries with a
    /// different tag are cross-searcher reuse (`shared_hits`).
    pub(crate) fn attach(&self) -> u32 {
        self.next_gen.fetch_add(1, Ordering::Relaxed)
    }

    /// The Zobrist key of priority chord `c` — XOR it into a running
    /// hash whenever `c` enters or leaves the uncovered set (the unit
    /// search's key; identical to level 1 of [`MemoStore::chord_level_key`]).
    #[inline]
    pub(crate) fn chord_key(&self, c: u32) -> u64 {
        self.zobrist[c as usize]
    }

    /// The Zobrist key of (priority chord `c`, multiplicity level `v`),
    /// `v ∈ 1..=3` — the λ-fold lane search XORs it into its running
    /// hash whenever chord `c`'s residual demand crosses `v` (a hash of
    /// residual vector `r` is `⊕_c ⊕_{v=1..=r(c)} key(c, v)`).
    #[inline]
    pub(crate) fn chord_level_key(&self, c: u32, v: u32) -> u64 {
        debug_assert!((1..=3).contains(&v), "lane levels are 1..=3");
        self.zobrist[((v - 1) * self.num_chords + c) as usize]
    }

    /// Occupied entries (the `memo_entries` statistic).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the store holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking shard-lock acquisitions so far — deterministically zero
    /// for single-threaded searches, and a contention health signal for
    /// shared-store deployments.
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// How many consecutive slots one hash may land in (a small
    /// associativity window: collisions displace far less pruning than a
    /// direct-mapped table would).
    const WAYS: usize = 8;

    /// Locks the shard `hash` selects, counting blocking acquisitions.
    fn lock_shard(&self, hash: u64) -> std::sync::MutexGuard<'_, Shard> {
        let shard = &self.shards[(hash >> 60) as usize & (SHARDS - 1)];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("poison-free")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => unreachable!("poison-free"),
        }
    }

    /// Whether a recorded state equal to `key` (at lane width `bits`)
    /// was refuted under slack `≥ slack` — i.e. whether a node (or
    /// candidate child) with `slack` tiles of headroom is dominated and
    /// may be pruned. Returns the recording generation on a hit so the
    /// caller can classify the hit as its own or shared.
    #[inline]
    pub(crate) fn dominated(
        &self,
        hash: u64,
        key: [u64; KEY_WORDS],
        bits: u8,
        slack: u32,
    ) -> Option<u32> {
        let shard = self.lock_shard(hash);
        let base = hash as usize;
        for i in 0..Self::WAYS {
            let slot = &shard.slots[(base + i) & shard.mask];
            if slot.rem != EMPTY && slot.bits == bits && slot.key == key {
                return (slot.rem >= slack).then_some(slot.gen);
            }
        }
        None
    }

    /// Records that the state `key` (at lane width `bits`) was exhausted
    /// with `rem` tiles of slack by searcher `gen`. Keeps the larger
    /// slack on key match (tagging the entry with its strengthener);
    /// with the window full at capacity, evicts the weakest resident
    /// (smallest rem) if the newcomer prunes more.
    pub(crate) fn record(&self, hash: u64, key: [u64; KEY_WORDS], bits: u8, rem: u32, gen: u32) {
        debug_assert_ne!(rem, EMPTY);
        let mut shard = self.lock_shard(hash);
        if shard.len * 4 > shard.slots.len() * 3 && shard.slots.len() < shard.cap_slots {
            self.grow(&mut shard);
        }
        let base = hash as usize;
        let mut weakest = 0usize;
        let mut weakest_rem = EMPTY;
        for i in 0..Self::WAYS {
            let idx = (base + i) & shard.mask;
            let slot = shard.slots[idx];
            if slot.rem == EMPTY {
                shard.len += 1;
                shard.slots[idx] = Slot { key, rem, gen, bits };
                self.len.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if slot.bits == bits && slot.key == key {
                if rem > slot.rem {
                    shard.slots[idx] = Slot { key, rem, gen, bits };
                }
                return;
            }
            if slot.rem <= weakest_rem {
                weakest_rem = slot.rem;
                weakest = idx;
            }
        }
        if rem > weakest_rem {
            shard.slots[weakest] = Slot { key, rem, gen, bits };
        }
    }

    /// Doubles a shard, re-seating every entry under the wider mask.
    fn grow(&self, shard: &mut Shard) {
        let prev_len = shard.len;
        let new_len = shard.slots.len() * 2;
        let old = std::mem::replace(
            &mut shard.slots,
            vec![
                Slot {
                    key: [0; KEY_WORDS],
                    rem: EMPTY,
                    gen: 0,
                    bits: 0,
                };
                new_len
            ],
        );
        shard.mask = new_len - 1;
        shard.len = 0;
        for moved in old {
            if moved.rem != EMPTY {
                let hash = self.hash_of_state(moved.key, moved.bits);
                // Re-seat inline (the shard lock is already held).
                let base = hash as usize;
                let mut weakest = 0usize;
                let mut weakest_rem = EMPTY;
                let mut seated = false;
                for i in 0..Self::WAYS {
                    let idx = (base + i) & shard.mask;
                    let slot = shard.slots[idx];
                    if slot.rem == EMPTY {
                        shard.len += 1;
                        shard.slots[idx] = moved;
                        seated = true;
                        break;
                    }
                    if slot.rem <= weakest_rem {
                        weakest_rem = slot.rem;
                        weakest = idx;
                    }
                }
                if !seated && moved.rem > weakest_rem {
                    shard.slots[weakest] = moved;
                }
            }
        }
        let lost = prev_len.saturating_sub(shard.len);
        if lost > 0 {
            self.len.fetch_sub(lost as u64, Ordering::Relaxed);
        }
    }

    /// The Zobrist hash of an explicit state at the given lane width
    /// (used on rehash and by the canonicalization path, which builds
    /// keys it has no running hash for). Unit keys (`bits == 1`) hash
    /// each set chord's level-1 key; lane keys (`bits == 2` tile-slack,
    /// `bits == 3` waste-slack — same packed encoding, distinct match
    /// domains) fold in one level key per residual unit of every chord.
    pub(crate) fn hash_of_state(&self, key: [u64; KEY_WORDS], bits: u8) -> u64 {
        let mut hash = 0u64;
        match bits {
            1 => {
                for (wi, w) in key.iter().enumerate() {
                    let mut bits = *w;
                    while bits != 0 {
                        let c = (wi as u32) * 64 + bits.trailing_zeros();
                        hash ^= self.zobrist[c as usize];
                        bits &= bits - 1;
                    }
                }
            }
            2 | 3 => {
                for (wi, w) in key.iter().enumerate() {
                    let mut lanes = *w;
                    while lanes != 0 {
                        let p = lanes.trailing_zeros() & !1;
                        let c = (wi as u32) * 32 + p / 2;
                        let r = (w >> p) & 0b11;
                        for v in 1..=r as u32 {
                            hash ^= self.chord_level_key(c, v);
                        }
                        lanes &= !(0b11 << p);
                    }
                }
            }
            other => unreachable!("unknown lane width {other}"),
        }
        hash
    }

    /// [`MemoStore::hash_of_state`] for a unit (1-bit) key.
    #[cfg(test)]
    pub(crate) fn hash_of_key(&self, key: [u64; KEY_WORDS]) -> u64 {
        self.hash_of_state(key, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TileUniverse;
    use cyclecover_ring::Ring;

    fn universe(n: u32) -> TileUniverse {
        TileUniverse::new(Ring::new(n), n as usize)
    }

    #[test]
    fn dominated_only_with_equal_or_less_slack() {
        let memo = MemoStore::new(&universe(12), 1 << 20).expect("n=12 fits");
        let gen = memo.attach();
        let key = [0b1011, 0b1, 0, 0];
        let hash = memo.hash_of_key(key);
        assert!(memo.dominated(hash, key, 1, 5).is_none());
        memo.record(hash, key, 1, 5, gen);
        assert!(
            memo.dominated(hash, key, 1, 5).is_some(),
            "equal slack prunes"
        );
        assert!(
            memo.dominated(hash, key, 1, 4).is_some(),
            "less slack prunes"
        );
        assert!(
            memo.dominated(hash, key, 1, 6).is_none(),
            "more slack explores"
        );
        memo.record(hash, key, 1, 7, gen);
        assert!(
            memo.dominated(hash, key, 1, 7).is_some(),
            "record keeps the maximum slack"
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn hits_carry_the_recording_generation() {
        let memo = MemoStore::new(&universe(10), 1 << 20).expect("fits");
        let g1 = memo.attach();
        let g2 = memo.attach();
        assert_ne!(g1, g2, "every searcher draws a fresh generation");
        let key = [0b110, 0, 0, 0];
        let hash = memo.hash_of_key(key);
        memo.record(hash, key, 1, 3, g1);
        assert_eq!(
            memo.dominated(hash, key, 1, 2),
            Some(g1),
            "the hit names who recorded it"
        );
        // A strengthening write re-tags the entry with its improver.
        memo.record(hash, key, 1, 6, g2);
        assert_eq!(memo.dominated(hash, key, 1, 4), Some(g2));
        // A weaker write leaves owner and strength alone.
        memo.record(hash, key, 1, 1, g1);
        assert_eq!(memo.dominated(hash, key, 1, 6), Some(g2));
    }

    #[test]
    fn distinct_keys_never_alias() {
        // Exact keys: even a forced hash-slot collision cannot prune the
        // wrong state.
        let memo = MemoStore::new(&universe(10), 0).expect("floor budget");
        let gen = memo.attach();
        let a = [0x1u64, 0, 0, 0];
        let b = [0x2u64, 0, 0, 0];
        memo.record(memo.hash_of_key(a), a, 1, 2, gen);
        assert!(memo.dominated(memo.hash_of_key(b), b, 1, 1).is_none());
    }

    #[test]
    fn lane_widths_never_alias() {
        // A unit uncovered set and a λ-fold residual lane vector can
        // produce the same raw words over the same universe; the lane
        // width discriminant must keep them apart in a shared store.
        let memo = MemoStore::new(&universe(10), 1 << 20).unwrap();
        let gen = memo.attach();
        let key = [0b0101_0101u64, 0, 0, 0];
        memo.record(memo.hash_of_state(key, 1), key, 1, 4, gen);
        assert!(
            memo.dominated(memo.hash_of_state(key, 2), key, 2, 1).is_none(),
            "a unit entry must never prune a lane state"
        );
        memo.record(memo.hash_of_state(key, 2), key, 2, 6, gen);
        assert!(memo.dominated(memo.hash_of_state(key, 2), key, 2, 6).is_some());
        assert!(
            memo.dominated(memo.hash_of_state(key, 1), key, 1, 6).is_none(),
            "the lane write must not strengthen the unit entry"
        );
        assert!(memo.dominated(memo.hash_of_state(key, 1), key, 1, 4).is_some());
        assert_eq!(memo.len(), 2, "the two widths occupy distinct slots");
        // Width 3 (partition waste slack) shares the lane encoding —
        // identical raw words AND identical hash — but must match only
        // its own entries: its `rem` is measured in unused cycle
        // length, not tiles, so cross-width pruning would be unsound.
        assert_eq!(
            memo.hash_of_state(key, 3),
            memo.hash_of_state(key, 2),
            "widths 2 and 3 share the packed-lane hash"
        );
        assert!(
            memo.dominated(memo.hash_of_state(key, 3), key, 3, 1).is_none(),
            "a tile-slack entry must never prune a waste-slack state"
        );
        memo.record(memo.hash_of_state(key, 3), key, 3, 9, gen);
        assert!(memo.dominated(memo.hash_of_state(key, 3), key, 3, 9).is_some());
        assert!(
            memo.dominated(memo.hash_of_state(key, 2), key, 2, 7).is_none(),
            "the waste-slack write must not strengthen the tile-slack entry"
        );
        assert_eq!(memo.len(), 3, "all three widths occupy distinct slots");
    }

    #[test]
    fn grows_and_survives_rehash() {
        let u = universe(16);
        let memo = MemoStore::new(&u, 8 << 20).expect("fits");
        let gen = memo.attach();
        let mut rng = StdRng::seed_from_u64(7);
        // Keys must only use real chord bits (n = 16 has 120 chords).
        let hi_mask = (1u64 << (u.num_chords() - 64)) - 1;
        let keys: Vec<[u64; KEY_WORDS]> = (0..40_000)
            .map(|_| [rng.next_u64(), rng.next_u64() & hi_mask, 0, 0])
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            memo.record(memo.hash_of_key(k), k, 1, (i % 17) as u32, gen);
        }
        assert!(
            memo.len() > (SHARDS * MIN_SLOTS) as u64 * 3 / 4,
            "shards grew past their seed size (len = {})",
            memo.len()
        );
        let survived = keys
            .iter()
            .enumerate()
            .filter(|&(i, &k)| {
                memo.dominated(memo.hash_of_key(k), k, 1, (i % 17) as u32)
                    .is_some()
            })
            .count();
        // Collisions may evict a few entries (pruning loss, never a
        // correctness issue); the overwhelming majority must survive.
        assert!(
            survived * 100 >= keys.len() * 90,
            "only {survived}/{} entries survived the rehashes",
            keys.len()
        );
    }

    #[test]
    fn lane_entries_survive_rehash() {
        let u = universe(12);
        let memo = MemoStore::new(&u, 8 << 20).expect("fits");
        let gen = memo.attach();
        let mut rng = StdRng::seed_from_u64(11);
        // Residual lane vectors over n = 12's 66 chords: 132 lane bits
        // across words 0..3 (word 2 uses its low 4 bits).
        let keys: Vec<[u64; KEY_WORDS]> = (0..30_000)
            .map(|_| [rng.next_u64(), rng.next_u64(), rng.next_u64() & 0xF, 0])
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            memo.record(memo.hash_of_state(k, 2), k, 2, (i % 13) as u32, gen);
        }
        let survived = keys
            .iter()
            .enumerate()
            .filter(|&(i, &k)| {
                memo.dominated(memo.hash_of_state(k, 2), k, 2, (i % 13) as u32)
                    .is_some()
            })
            .count();
        assert!(
            survived * 100 >= keys.len() * 90,
            "only {survived}/{} lane entries survived the rehashes",
            keys.len()
        );
    }

    #[test]
    fn zobrist_stream_is_deterministic() {
        let a = MemoStore::new(&universe(11), 1 << 20).unwrap();
        let b = MemoStore::new(&universe(11), 1 << 20).unwrap();
        for c in 0..a.num_chords {
            assert_eq!(a.chord_key(c), b.chord_key(c));
            for v in 1..=3 {
                assert_eq!(a.chord_level_key(c, v), b.chord_level_key(c, v));
            }
        }
        assert_eq!(
            a.chord_key(3),
            a.chord_level_key(3, 1),
            "level 1 is the historical per-chord stream"
        );
    }

    #[test]
    fn incompatible_universes_are_refused() {
        let memo = MemoStore::new(&universe(10), 1 << 20).unwrap();
        assert!(memo.compatible(&universe(10)));
        assert!(!memo.compatible(&universe(9)), "different ring");
        assert!(
            !memo.compatible(&TileUniverse::new(Ring::new(10), 3)),
            "same ring, different tile set"
        );
    }

    #[test]
    fn single_threaded_access_never_contends() {
        let memo = MemoStore::new(&universe(10), 1 << 20).unwrap();
        let gen = memo.attach();
        for i in 0..1_000u64 {
            // n = 10 has 45 chords: keep keys inside the chord range.
            let key = [(i * 0x9E37_79B9) & ((1u64 << 45) - 1), 0, 0, 0];
            memo.record(memo.hash_of_key(key), key, 1, (i % 5) as u32, gen);
            memo.dominated(memo.hash_of_key(key), key, 1, 1);
        }
        assert_eq!(memo.contention(), 0);
    }
}
