//! The shared refutation store: a concurrent transposition table over
//! the exact search's residual states (packed
//! [`LaneSet`](crate::bitset::LaneSet)s; at 1 bit, the uncovered
//! [`ChordSet`](crate::bitset::ChordSet)'s words), reused across budget
//! probes and (via the service layer) whole requests, which the
//! service's workers may search at once.
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
//! lets one store serve two concentric sharing rings:
//!
//! 1. **Cross-budget**: a `FindOptimal` deepening sweep threads one
//!    store through its probes; a refutation recorded at budget `k`
//!    ("no covering within `rem` tiles") prunes identically at `k ± 1`
//!    wherever the new probe's slack is `≤ rem`.
//! 2. **Cross-request**: the service keys stores by tile universe and
//!    threads them through a batch's coalesced traffic — entries carry
//!    no spec state (unit demands mean the uncovered set *is* the
//!    subproblem), so any same-universe request may reuse them, also
//!    while another worker searches against the same store.
//!
//! Soundness: an entry `(state, rem)` is written only after the search
//! exhaustively explored the node (under the sound dominance, bound,
//! and orbit reductions) and found no covering within `rem` further
//! tiles. The statement quantifies over tile subsets of the universe
//! only — not the spec, the budget, or the symmetry mode of the search
//! that recorded it — so a later visit with slack `≤ rem` may prune
//! regardless of which probe or request wrote the entry.
//! Aborted subtrees (node/deadline/cancel limits) record nothing.
//! Entries are never shared across *universes*: the store carries a
//! fingerprint of the universe it was built for and attachment is
//! refused on mismatch.
//!
//! Under [`crate::bnb::SymmetryMode::Full`] the unit search (1-bit lanes)
//! keys the store by the **canonical** residual state — the
//! lexicographically smallest dihedral image of the uncovered set under
//! the spec-preserving subgroup. Two prefixes whose residual states are mirror images then
//! share one entry: this is the ROADMAP's canonical-prefix test, applied
//! where it is sound (a completion of a state maps element-wise to a
//! completion of every state in its orbit, so "orbit exhausted" proofs
//! transfer; a naive lexicographic test on the prefix *multiset* itself
//! would not be sound here, because prefix reachability under the
//! chord-priority branch rule is not orbit-invariant).
//!
//! # Mechanics
//!
//! States are keyed *exactly*: the residual state's words are the key,
//! so a hash collision can never cause a false prune and certificates
//! stay exact. A key holds [`KEY_WORDS`] = 4 words, 256 bits, of packed
//! residual lanes: 1 bit per chord for unit demands (the uncovered set),
//! 2 bits per chord for residual multiplicities `≤ 3`, 4 bits per chord
//! for multiplicities `4..=15`. [`MemoStore::new`] refuses universes of
//! more than 128 chords, so 1- and 2-bit keys always fit (every
//! `n ≤ 16`); a 4-bit key fits only up to **64 chords** (complete
//! `n ≤ 11`). Wider 4-bit states search memo-free, as every `n ≥ 17`
//! search and every 16-bit lane search (multiplicities `16..=65,535`)
//! does. Widening [`KEY_WORDS`] would grow every slot of every store, so
//! it stays at 4. The partition kernel keys by the same packed lane
//! words but under a **waste-slack** `rem` (unused cycle length
//! remaining, not tiles remaining). The encodings can collide bit for
//! bit over the same universe — a unit and a λ = 2 state, or a λ = 2 and
//! a λ = 4 state, can have equal words while meaning different
//! residuals, and lane and partition entries share raw words by
//! construction — so every entry carries a **width tag** (`bits`): the
//! lane width (1, 2 or 4) under tile slack, with bit 7 set under waste
//! slack (129, 130, 132; [`width_tag`]), and a probe only matches
//! entries of its own tag — a service-shared store may hold all kinds
//! side by side. Width tags never leave the process. A Zobrist hash — one
//! 64-bit key per (chord slot, multiplicity level), generated
//! deterministically by the vendored xoshiro256** generator (the level-1
//! keys come first, so unit hashes are unchanged from earlier
//! revisions), XOR-folded incrementally as residual demand is
//! covered/uncovered — picks the shard (top bits) and the slot within it
//! (low bits). A store draws the keys of levels `1..=3` when it is
//! built; the keys of levels `4..=15` continue the same stream and are
//! drawn only when the first 4-bit searcher asks for them, so 1- and
//! 2-bit stores never pay for them. Each
//! shard is an independently locked open-addressing table probing an
//! eight-slot window per hash, doubling while under its share of the
//! byte budget; with the window full, a colliding insert keeps
//! whichever entries have the *larger* `rem` (the stronger pruners).
//! Lost entries only lose pruning, never correctness.
//!
//! A shard keeps its entries in two parallel arrays: 40-byte slots
//! (key, `rem`, generation) and one 8-byte **tag** per slot, which packs
//! the shard epoch the slot was written in (24 bits), its width tag
//! (8 bits) and its hash's low 32 bits. A probe compares the window's
//! eight tags, 64 contiguous bytes, and reads a slot's key only where the
//! tag matches, so a miss costs one or two cache lines instead of the
//! six or seven a window of whole slots spans. The tag is a filter, not
//! the match: equal keys of one width have equal hashes, so every entry
//! a key comparison would match passes its tag, and the key still
//! decides. A shard that doubles re-seats each entry from its tag's hash
//! bits, without recomputing a Zobrist hash; 32 bits index every shard
//! up to [`MAX_SLOTS`]. Slot and tag together are the 48 bytes the byte
//! budget counts per entry.
//!
//! A store's slot table does not depend on its universe, so each thread
//! recycles one. Every tag carries its shard's **epoch**, and a slot
//! whose tag holds another epoch reads as empty. Dropping a
//! store retires its shards into the dropping thread's **spare**: a
//! shard that grew is truncated back to its seed size and shrunk, its
//! epoch is bumped (only a wrap past 24 bits refills the tags) and lock
//! poison is cleared. [`MemoStore::new`] takes the spare when there is one and
//! resets it in O(1), so a small request no longer pays to fill
//! 0.75 MiB of slots before its first node. A recycled store is
//! indistinguishable from a freshly allocated one — same seed size, same
//! cap, empty, same Zobrist keys — so node counts do not depend on which
//! one a search gets. One spare per thread holds the one table a
//! per-request store held anyway.
//!
//! Lock traffic is one uncontended `Mutex` acquisition per probe or
//! record. Acquisitions first `try_lock` and only fall back to a
//! blocking lock — counted in [`MemoStore::contention`] — when another
//! worker's search holds the shard, so a search alone on its store pays
//! one atomic compare-exchange per table access and the contention
//! counter is deterministically zero.
//!
//! Every searcher that attaches to the store draws a *generation* tag;
//! entries remember the generation that recorded (or last strengthened)
//! them, so a searcher can tell hits on its own work from hits on
//! another probe's or request's — the `shared_hits` statistic CI gates
//! on.

use crate::bitset::LaneSet;
use crate::TileUniverse;
use rand::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Bytes one [`MemoStore`] entry occupies: its slot (key + rem +
/// generation) and its tag (epoch + width + hash bits).
const SLOT_BYTES: usize = std::mem::size_of::<Slot>() + std::mem::size_of::<u64>();

/// Slot count every shard starts from (and the floor its byte budget is
/// clamped to); a retired shard is cut back to it.
const MIN_SLOTS: usize = 1 << 10;

/// The most slots a shard grows to, whatever its byte share: a tag's 32
/// hash bits must cover the slot mask for a doubling shard to re-seat
/// its entries where probes look for them. (16 shards of this size
/// would take 1.5 TiB.)
const MAX_SLOTS: usize = 1 << 31;

/// Shard count: a power of two small enough that the per-shard byte
/// floor stays negligible and large enough that a few workers rarely
/// collide on one lock.
const SHARDS: usize = 16;

/// The deterministic seed of the Zobrist key stream. Fixed so node
/// counts are reproducible run to run and machine to machine.
const ZOBRIST_SEED: u64 = 0xC0DE_C0FF_EE15_5EED;

/// Default memo byte budget: 32 MiB (~1.3M resident states), budgeted
/// like the service layer's universe cache. A request overrides it with
/// `SolveRequest::with_memo_budget_bytes` (the CLI's `--memo-mb`) and
/// switches the memo off with `SolveRequest::with_memo` (`--no-memo`).
pub const DEFAULT_MEMO_BYTES: usize = 32 << 20;

/// Words of one state key: four words hold a packed 1-bit residual lane
/// vector, the uncovered set (`≤ 128` chords, upper two words zero), a
/// 2-bit one (`≤ 128` chords × 2 bits) or a 4-bit one (`≤ 64` chords × 4
/// bits).
pub(crate) const KEY_WORDS: usize = 4;

/// The width tag of a memo key (see the module docs): a lane vector's
/// bits per chord under tile slack (1, 2, 4, or 16, which no store
/// keys), with [`WASTE_SLACK`] set under waste slack. Distinct kinds of
/// key get distinct tags.
pub(crate) const fn width_tag(lane_bits: u32, waste_slack: bool) -> u8 {
    lane_bits as u8 | if waste_slack { WASTE_SLACK } else { 0 }
}

/// The width-tag flag of waste-slack keys (the partition kernel's).
const WASTE_SLACK: u8 = 1 << 7;

/// `count` keys of the deterministic Zobrist stream.
fn zobrist_keys(count: u32) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(ZOBRIST_SEED);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// One lane width's Zobrist keys: [`LevelKeys::get`] gives the key of
/// (priority chord `c`, multiplicity level `v`). A lane search XORs it
/// into its running hash whenever chord `c`'s residual demand crosses
/// `v`, so the hash of residual vector `r` is
/// `⊕_c ⊕_{v=1..=r(c)} key(c, v)`.
#[derive(Clone, Copy)]
pub(crate) struct LevelKeys<'a> {
    /// Level-major: the keys of level `v` are
    /// `keys[(v − 1)·num_chords ..][..num_chords]`.
    keys: &'a [u64],
    num_chords: u32,
}

impl LevelKeys<'_> {
    #[inline]
    pub(crate) fn get(self, c: u32, v: u32) -> u64 {
        debug_assert!(v >= 1, "levels start at 1");
        self.keys[((v - 1) * self.num_chords + c) as usize]
    }
}

/// One table slot: the exact residual state (up to [`KEY_WORDS`] words
/// of the packed residual lane vector), the largest slack the state was
/// refuted under, and the generation that recorded it. Its epoch, width
/// tag and hash bits live in the parallel tag array ([`tag`]).
#[derive(Clone, Copy)]
struct Slot {
    key: [u64; KEY_WORDS],
    rem: u32,
    gen: u32,
}

/// A slot's contents before anything is written to it; only the tag says
/// whether a slot is occupied.
const VACANT: Slot = Slot {
    key: [0; KEY_WORDS],
    rem: 0,
    gen: 0,
};

/// Bits of a shard epoch, the top bits of a tag.
const EPOCH_BITS: u32 = 24;

/// The tag of an entry written in shard epoch `epoch` with width tag
/// `bits` and hash `hash`: the epoch in the top 24 bits, the width tag in
/// the next 8, the hash's low 32 bits below. Epochs start at 1, so the
/// all-zero tag of a fresh or refilled table is vacant in every epoch.
#[inline]
fn tag(epoch: u32, bits: u8, hash: u64) -> u64 {
    (epoch as u64) << 40 | (bits as u64) << 32 | (hash & 0xFFFF_FFFF)
}

/// One independently locked segment of the store.
struct Shard {
    slots: Vec<Slot>,
    /// `tags[i]` is the [`tag`] of `slots[i]`.
    tags: Vec<u64>,
    /// `slots.len() - 1` (the table is a power of two).
    mask: usize,
    /// Occupied slot count.
    len: usize,
    /// Largest slot count this shard's byte share allows.
    cap_slots: usize,
    /// The epoch occupied slots carry; never 0, and below `2^24`.
    epoch: u32,
}

impl Shard {
    /// An empty seed-size shard.
    fn fresh() -> Shard {
        Shard {
            slots: vec![VACANT; MIN_SLOTS],
            tags: vec![0; MIN_SLOTS],
            mask: MIN_SLOTS - 1,
            len: 0,
            cap_slots: MIN_SLOTS,
            epoch: 1,
        }
    }

    /// Whether a slot tagged `tag` holds an entry of this shard's current
    /// epoch.
    #[inline]
    fn occupied(&self, tag: u64) -> bool {
        (tag >> 40) as u32 == self.epoch
    }

    /// Writes `slot` under `tag` at `idx`.
    #[inline]
    fn put(&mut self, idx: usize, tag: u64, slot: Slot) {
        self.tags[idx] = tag;
        self.slots[idx] = slot;
    }

    /// Seats `slot` under `tag` in place of the weakest resident (the last
    /// of the smallest `rem`) of the full window at `base`, if it prunes
    /// more.
    fn evict_weakest(&mut self, base: usize, tag: u64, slot: Slot) {
        let mut weakest = 0usize;
        let mut weakest_rem = u32::MAX;
        for i in 0..MemoStore::WAYS {
            let idx = (base + i) & self.mask;
            if self.slots[idx].rem <= weakest_rem {
                weakest_rem = self.slots[idx].rem;
                weakest = idx;
            }
        }
        if slot.rem > weakest_rem {
            self.put(weakest, tag, slot);
        }
    }

    /// Empties the shard for reuse without touching its slots: cuts a
    /// grown table back to the seed size and moves to the next epoch.
    /// Only an epoch wrap refills the tags, so stale stamps can never come
    /// back.
    fn retire(&mut self) {
        if self.slots.len() > MIN_SLOTS {
            self.slots.truncate(MIN_SLOTS);
            self.slots.shrink_to_fit();
            self.tags.truncate(MIN_SLOTS);
            self.tags.shrink_to_fit();
            self.mask = MIN_SLOTS - 1;
        }
        self.len = 0;
        self.epoch = (self.epoch + 1) & ((1 << EPOCH_BITS) - 1);
        if self.epoch == 0 {
            self.tags.fill(0);
            self.epoch = 1;
        }
    }
}

thread_local! {
    /// The retired shards of the last store this thread dropped, for
    /// the next [`MemoStore::new`] on this thread to take.
    static SPARE: Cell<Option<Vec<Mutex<Shard>>>> = const { Cell::new(None) };
}

/// The shared refutation store. See the module docs for the pruning
/// rule, its soundness, and the two sharing rings.
pub struct MemoStore {
    shards: Vec<Mutex<Shard>>,
    /// Zobrist keys per (priority chord, multiplicity level): the first
    /// `num_chords` entries are the level-1 keys (all a 1-bit lane search
    /// reads), followed by the level-2 and level-3 blocks the 2-bit lane
    /// search folds in per residual unit.
    zobrist: Vec<u64>,
    /// The keys of levels `1..=15` for 4-bit lanes — the same stream
    /// drawn further, so its first three levels are `zobrist` — drawn
    /// when the first 4-bit searcher asks ([`MemoStore::level_keys`]).
    wide_zobrist: OnceLock<Vec<u64>>,
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
    /// in the answer saying so. Wider keys are ROADMAP open item 5.
    ///
    /// The slot table is this thread's spare (the retired shards of the
    /// last store the thread dropped) when it has one, and a freshly
    /// allocated one otherwise; either way the store starts empty at the
    /// seed size of 1,024 slots per shard, so the two are
    /// indistinguishable to a search.
    pub fn new(u: &TileUniverse, budget_bytes: usize) -> Option<MemoStore> {
        let num_chords = u.num_chords();
        if num_chords > 128 {
            return None;
        }
        let budget_slots = (budget_bytes / SLOT_BYTES / SHARDS).clamp(MIN_SLOTS, MAX_SLOTS);
        // Floor to a power of two so `hash & mask` indexes uniformly.
        let cap_slots = 1usize << (usize::BITS - 1 - budget_slots.leading_zeros());
        // Level-1 keys first: the prefix of the seeded stream is exactly
        // the historical per-chord key set, so unit-search hashes (and
        // hence node counts) are bit-identical to earlier revisions.
        let zobrist = zobrist_keys(3 * num_chords);
        let mut shards = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_else(|| (0..SHARDS).map(|_| Mutex::new(Shard::fresh())).collect());
        for shard in &mut shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .cap_slots = cap_slots;
        }
        Some(MemoStore {
            shards,
            zobrist,
            wide_zobrist: OnceLock::new(),
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

    /// Registers a searcher (one budget probe) and returns its
    /// generation tag. Hits on entries with a
    /// different tag are cross-searcher reuse (`shared_hits`).
    pub(crate) fn attach(&self) -> u32 {
        self.next_gen.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether a state with width tag `bits` fits a key over this
    /// store's universe: always for 1- and 2-bit keys, up to 64 chords
    /// for 4-bit keys, never for 16-bit keys (the store draws no Zobrist
    /// levels above 15). A searcher whose states do not fit runs
    /// memo-free.
    pub(crate) fn keys_fit(&self, bits: u8) -> bool {
        match (bits & !WASTE_SLACK) as u32 {
            lane_bits @ (1 | 2 | 4) => self.num_chords * lane_bits <= 64 * KEY_WORDS as u32,
            _ => false,
        }
    }

    /// The Zobrist keys of `lane_bits`-wide lanes: level 1 for 1-bit and
    /// levels `1..=3` for 2-bit lanes (the keys drawn at construction),
    /// `1..=15` for 4-bit lanes (drawn on the first call).
    pub(crate) fn level_keys(&self, lane_bits: u32) -> LevelKeys<'_> {
        let keys = if lane_bits <= 2 {
            &self.zobrist
        } else {
            self.wide_zobrist
                .get_or_init(|| zobrist_keys(LaneSet::<4>::MAX * self.num_chords))
        };
        LevelKeys {
            keys,
            num_chords: self.num_chords,
        }
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
    /// caller can classify the hit as its own or shared. Reads a slot
    /// only where its tag matches.
    #[inline]
    pub(crate) fn dominated(
        &self,
        hash: u64,
        key: [u64; KEY_WORDS],
        bits: u8,
        slack: u32,
    ) -> Option<u32> {
        let shard = self.lock_shard(hash);
        let want = tag(shard.epoch, bits, hash);
        let base = hash as usize;
        for i in 0..Self::WAYS {
            let idx = (base + i) & shard.mask;
            if shard.tags[idx] == want {
                let slot = &shard.slots[idx];
                if slot.key == key {
                    return (slot.rem >= slack).then_some(slot.gen);
                }
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
        let mut shard = self.lock_shard(hash);
        if shard.len * 4 > shard.slots.len() * 3 && shard.slots.len() < shard.cap_slots {
            self.grow(&mut shard);
        }
        let want = tag(shard.epoch, bits, hash);
        let entry = Slot { key, rem, gen };
        let base = hash as usize;
        for i in 0..Self::WAYS {
            let idx = (base + i) & shard.mask;
            let t = shard.tags[idx];
            if !shard.occupied(t) {
                shard.len += 1;
                shard.put(idx, want, entry);
                self.len.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if t == want && shard.slots[idx].key == key {
                if rem > shard.slots[idx].rem {
                    shard.slots[idx] = entry;
                }
                return;
            }
        }
        shard.evict_weakest(base, want, entry);
    }

    /// Doubles a shard, re-seating every entry under the wider mask from
    /// the hash bits its tag holds.
    fn grow(&self, shard: &mut Shard) {
        let prev_len = shard.len;
        let new_len = shard.slots.len() * 2;
        let old_slots = std::mem::replace(&mut shard.slots, vec![VACANT; new_len]);
        let old_tags = std::mem::replace(&mut shard.tags, vec![0; new_len]);
        shard.mask = new_len - 1;
        shard.len = 0;
        for (moved_tag, moved) in old_tags.into_iter().zip(old_slots) {
            if !shard.occupied(moved_tag) {
                continue;
            }
            let base = moved_tag as u32 as usize;
            let free = (0..Self::WAYS)
                .map(|i| (base + i) & shard.mask)
                .find(|&idx| !shard.occupied(shard.tags[idx]));
            match free {
                Some(idx) => {
                    shard.len += 1;
                    shard.put(idx, moved_tag, moved);
                }
                None => shard.evict_weakest(base, moved_tag, moved),
            }
        }
        let lost = prev_len.saturating_sub(shard.len);
        if lost > 0 {
            self.len.fetch_sub(lost as u64, Ordering::Relaxed);
        }
    }
}

impl Drop for MemoStore {
    /// Retires the shards into this thread's spare (see the module
    /// docs). Never panics: a store can be dropped while a search's
    /// panic unwinds. During thread teardown the shards are freed.
    fn drop(&mut self) {
        let mut shards = std::mem::take(&mut self.shards);
        for shard in &mut shards {
            // A poisoned shard is safe to reuse: `retire` discards every
            // entry, and `slots.len() == tags.len() == mask + 1` holds at
            // every step of `record` and `grow`.
            shard.clear_poison();
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .retire();
        }
        let _ = SPARE.try_with(move |spare| spare.set(Some(shards)));
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

    impl MemoStore {
        /// The Zobrist hash of an explicit state with width tag `bits`:
        /// one level key per residual unit of every chord, the hash the
        /// search cores maintain incrementally. The tile- and waste-slack
        /// tags of one width share the packed encoding and its hash, but
        /// are distinct match domains.
        pub(crate) fn hash_of_state(&self, key: [u64; KEY_WORDS], bits: u8) -> u64 {
            match bits & !WASTE_SLACK {
                1 => self.lane_hash::<1>(key),
                2 => self.lane_hash::<2>(key),
                4 => self.lane_hash::<4>(key),
                other => unreachable!("unknown width tag {other}"),
            }
        }

        /// The Zobrist hash of a packed vector of `B`-bit lanes.
        fn lane_hash<const B: u32>(&self, key: [u64; KEY_WORDS]) -> u64 {
            let levels = self.level_keys(B);
            let lane_max = LaneSet::<B>::MAX as u64;
            let mut hash = 0u64;
            for (wi, w) in key.iter().enumerate() {
                let mut lanes = *w;
                while lanes != 0 {
                    let p = lanes.trailing_zeros() / B * B;
                    let c = (wi as u32) * LaneSet::<B>::PER_WORD + p / B;
                    for v in 1..=(w >> p & lane_max) as u32 {
                        hash ^= levels.get(c, v);
                    }
                    lanes &= !(lane_max << p);
                }
            }
            hash
        }
    }

    #[test]
    fn dominated_only_with_equal_or_less_slack() {
        let memo = MemoStore::new(&universe(12), 1 << 20).expect("n=12 fits");
        let gen = memo.attach();
        let key = [0b1011, 0b1, 0, 0];
        let hash = memo.hash_of_state(key, 1);
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
        let hash = memo.hash_of_state(key, 1);
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
        memo.record(memo.hash_of_state(a, 1), a, 1, 2, gen);
        assert!(memo.dominated(memo.hash_of_state(b, 1), b, 1, 1).is_none());
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
            memo.dominated(memo.hash_of_state(key, 2), key, 2, 1)
                .is_none(),
            "a unit entry must never prune a lane state"
        );
        memo.record(memo.hash_of_state(key, 2), key, 2, 6, gen);
        assert!(memo
            .dominated(memo.hash_of_state(key, 2), key, 2, 6)
            .is_some());
        assert!(
            memo.dominated(memo.hash_of_state(key, 1), key, 1, 6)
                .is_none(),
            "the lane write must not strengthen the unit entry"
        );
        assert!(memo
            .dominated(memo.hash_of_state(key, 1), key, 1, 4)
            .is_some());
        assert_eq!(memo.len(), 2, "the two widths occupy distinct slots");
        // The 2-bit waste-slack tag (the partition kernel's) shares the
        // lane encoding — identical raw words AND identical hash — but
        // must match only its own entries: its `rem` is measured in
        // unused cycle length, not tiles, so cross-width pruning would be
        // unsound.
        let waste2 = width_tag(2, true);
        assert_eq!(
            memo.hash_of_state(key, waste2),
            memo.hash_of_state(key, 2),
            "both 2-bit tags share the packed-lane hash"
        );
        assert!(
            memo.dominated(memo.hash_of_state(key, waste2), key, waste2, 1)
                .is_none(),
            "a tile-slack entry must never prune a waste-slack state"
        );
        memo.record(memo.hash_of_state(key, waste2), key, waste2, 9, gen);
        assert!(memo
            .dominated(memo.hash_of_state(key, waste2), key, waste2, 9)
            .is_some());
        assert!(
            memo.dominated(memo.hash_of_state(key, 2), key, 2, 7)
                .is_none(),
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
            memo.record(memo.hash_of_state(k, 1), k, 1, (i % 17) as u32, gen);
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
                memo.dominated(memo.hash_of_state(k, 1), k, 1, (i % 17) as u32)
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
        assert!(
            a.wide_zobrist.get().is_none(),
            "4-bit keys are drawn on demand"
        );
        for c in 0..a.num_chords {
            assert_eq!(a.level_keys(1).get(c, 1), b.level_keys(1).get(c, 1));
            for v in 1..=3 {
                assert_eq!(a.level_keys(2).get(c, v), b.level_keys(2).get(c, v));
                assert_eq!(
                    a.level_keys(4).get(c, v),
                    a.level_keys(2).get(c, v),
                    "the 4-bit stream extends the 2-bit one"
                );
            }
            for v in 4..=15 {
                assert_eq!(a.level_keys(4).get(c, v), b.level_keys(4).get(c, v));
            }
        }
        assert_eq!(
            a.level_keys(1).get(3, 1),
            a.level_keys(2).get(3, 1),
            "level 1 is the historical per-chord stream"
        );
        let all: std::collections::HashSet<u64> = (0..a.num_chords)
            .flat_map(|c| (1..=15).map(move |v| (c, v)))
            .map(|(c, v)| a.level_keys(4).get(c, v))
            .collect();
        assert_eq!(
            all.len() as u32,
            15 * a.num_chords,
            "every level key differs"
        );
    }

    /// A λ = 2 state and a λ = 4 state can pack to the same words — here
    /// residual 1 in lane 0 at 4 bits is residual 1 in lane 0 at 2 bits,
    /// and residual 5 in lane 0 at 4 bits reads as residuals 1 and 1 in
    /// lanes 0 and 1 at 2 bits — yet mean different residuals. A store
    /// holding the 2-bit entries must never prune the 4-bit states, and
    /// the waste-slack tags stay apart from the tile-slack ones.
    #[test]
    fn two_bit_entries_never_prune_four_bit_states() {
        let u = universe(8);
        let memo = MemoStore::new(&u, 1 << 20).unwrap();
        let gen = memo.attach();
        let (tile2, waste2) = (width_tag(2, false), width_tag(2, true));
        let (tile4, waste4) = (width_tag(4, false), width_tag(4, true));
        let tags: std::collections::HashSet<u8> = [1, 2, 4, 16]
            .into_iter()
            .flat_map(|bits| [width_tag(bits, false), width_tag(bits, true)])
            .collect();
        assert_eq!(tags.len(), 8, "every kind of key has its own tag");
        assert_eq!((tile2, tile4), (2, 4), "tile-slack tags are lane widths");
        // n = 8 has 28 chords: every key below is a valid state at both
        // widths.
        let keys = [
            [0b1u64, 0, 0, 0],
            [0b101, 0, 0, 0],
            [0x0012_3456_789A_BCDE, 0, 0, 0],
        ];
        for key in keys {
            for bits in [tile2, waste2] {
                memo.record(memo.hash_of_state(key, bits), key, bits, 9, gen);
            }
        }
        for key in keys {
            for bits in [tile4, waste4] {
                assert!(
                    memo.dominated(memo.hash_of_state(key, bits), key, bits, 0)
                        .is_none(),
                    "a narrower entry pruned a 4-bit state {key:?} (tag {bits})"
                );
            }
            memo.record(memo.hash_of_state(key, tile4), key, tile4, 3, gen);
            assert!(memo
                .dominated(memo.hash_of_state(key, tile4), key, tile4, 3)
                .is_some());
            assert!(
                memo.dominated(memo.hash_of_state(key, waste4), key, waste4, 0)
                    .is_none(),
                "a tile-slack entry pruned a waste-slack state"
            );
            assert!(
                memo.dominated(memo.hash_of_state(key, tile2), key, tile2, 9)
                    .is_some(),
                "the 4-bit write left the 2-bit entry as it was"
            );
        }
        assert_eq!(memo.len(), 9, "every key at three tags");
    }

    /// 4-bit keys fit four words only up to 64 chords: complete `n ≤ 11`.
    #[test]
    fn four_bit_keys_fit_up_to_64_chords() {
        for (n, fits) in [(11, true), (12, false), (16, false)] {
            let memo = MemoStore::new(&universe(n), 1 << 20).unwrap();
            for bits in [1, 2]
                .map(|b| [width_tag(b, false), width_tag(b, true)])
                .concat()
            {
                assert!(memo.keys_fit(bits), "n = {n}, tag {bits}");
            }
            assert_eq!(memo.keys_fit(4), fits, "n = {n}");
            assert_eq!(memo.keys_fit(width_tag(4, true)), fits, "n = {n}");
        }
        let restricted = TileUniverse::new(Ring::new(12), 4);
        assert!(!MemoStore::new(&restricted, 1 << 20).unwrap().keys_fit(4));
    }

    /// A 16-bit searcher never gets a store: the store draws Zobrist
    /// keys for levels up to 15 only, so no universe fits its keys, not
    /// even one of three chords.
    #[test]
    fn sixteen_bit_searchers_never_get_a_store() {
        for n in 3..=11 {
            let memo = MemoStore::new(&universe(n), 1 << 20).unwrap();
            assert!(memo.keys_fit(width_tag(4, false)), "n = {n}");
            for waste_slack in [false, true] {
                let tag = width_tag(16, waste_slack);
                assert!(!memo.keys_fit(tag), "n = {n}, tag {tag}");
            }
        }
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
            memo.record(memo.hash_of_state(key, 1), key, 1, (i % 5) as u32, gen);
            memo.dominated(memo.hash_of_state(key, 1), key, 1, 1);
        }
        assert_eq!(memo.contention(), 0);
    }

    /// Runs `f` on a thread of its own, so it starts with no spare and
    /// leaves none behind for other tests.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("the scenario passed");
    }

    /// Random 1-bit states and 2-bit states under tile and waste slack
    /// that fit n = 10's 45 chords (1 bit: 45 bits; 2 bits: 90 bits over
    /// words 0 and 1).
    fn n10_states(seed: u64, count: usize) -> Vec<([u64; KEY_WORDS], u8)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| match i % 3 {
                0 => ([rng.next_u64() & ((1 << 45) - 1), 0, 0, 0], 1),
                w => (
                    [rng.next_u64(), rng.next_u64() & ((1 << 26) - 1), 0, 0],
                    width_tag(2, w == 2),
                ),
            })
            .collect()
    }

    /// Records `states` with varying slack, then asks about each at
    /// three slacks: the store's whole observable behaviour on them.
    fn exercise(memo: &MemoStore, states: &[([u64; KEY_WORDS], u8)]) -> (Vec<Option<u32>>, u64) {
        let gen = memo.attach();
        for (i, &(key, bits)) in states.iter().enumerate() {
            let hash = memo.hash_of_state(key, bits);
            memo.record(hash, key, bits, (i % 7) as u32, gen);
        }
        let answers = states
            .iter()
            .flat_map(|&(key, bits)| {
                let hash = memo.hash_of_state(key, bits);
                (0..3).map(move |slack| memo.dominated(hash, key, bits, slack * 3))
            })
            .collect();
        (answers, memo.len())
    }

    fn slot_table(memo: &MemoStore, shard: usize) -> *const Slot {
        memo.shards[shard].lock().unwrap().slots.as_ptr()
    }

    fn assert_seed_size(memo: &MemoStore, cap_slots: usize) {
        for shard in &memo.shards {
            let shard = shard.lock().unwrap();
            assert_eq!(shard.slots.len(), MIN_SLOTS);
            assert_eq!(shard.slots.capacity(), MIN_SLOTS, "a grown table is shrunk");
            assert_eq!(shard.tags.len(), MIN_SLOTS);
            assert_eq!(shard.tags.capacity(), MIN_SLOTS, "grown tags are shrunk");
            assert_eq!(shard.mask, MIN_SLOTS - 1);
            assert_eq!(shard.len, 0);
            assert_eq!(shard.cap_slots, cap_slots);
        }
    }

    #[test]
    fn recycled_store_is_indistinguishable_from_a_fresh_one() {
        on_fresh_thread(|| {
            let first = MemoStore::new(&universe(12), 1 << 20).unwrap();
            let gen = first.attach();
            let old: Vec<_> = (0..300u64)
                .map(|i| {
                    let bits = [1, 2, width_tag(2, true)][i as usize % 3];
                    let key = [i * 0x9E37_79B9 + 1, i, 0, 0];
                    let hash = first.hash_of_state(key, bits);
                    first.record(hash, key, bits, 9, gen);
                    (hash, key, bits)
                })
                .collect();
            assert!(!first.is_empty());
            let table = slot_table(&first, 0);
            drop(first);

            // Another universe and budget on the same thread.
            let recycled = MemoStore::new(&universe(10), 4 << 20).unwrap();
            assert_eq!(slot_table(&recycled, 0), table, "the spare was taken");
            assert_eq!(recycled.len(), 0);
            let fresh = MemoStore::new(&universe(10), 4 << 20).unwrap();
            assert_ne!(slot_table(&fresh, 0), table, "the spare is taken once");
            assert_seed_size(&recycled, fresh.shards[0].lock().unwrap().cap_slots);
            assert_eq!(recycled.zobrist, fresh.zobrist);
            for shard in &recycled.shards {
                let shard = shard.lock().unwrap();
                assert!(shard.tags.iter().all(|&t| !shard.occupied(t)));
            }
            for &(hash, key, bits) in &old {
                // The old entries still sit in the slots they were
                // written to, under a stale epoch.
                assert!(recycled.dominated(hash, key, bits, 0).is_none());
            }
            let states = n10_states(5, 3_000);
            assert_eq!(exercise(&recycled, &states), exercise(&fresh, &states));
        });
    }

    #[test]
    fn grown_shards_come_back_at_the_seed_size() {
        on_fresh_thread(|| {
            let u = universe(16);
            let grown = MemoStore::new(&u, 8 << 20).unwrap();
            let gen = grown.attach();
            let mut rng = StdRng::seed_from_u64(3);
            let hi_mask = (1u64 << (u.num_chords() - 64)) - 1;
            for i in 0..20_000u32 {
                let key = [rng.next_u64(), rng.next_u64() & hi_mask, 0, 0];
                grown.record(grown.hash_of_state(key, 1), key, 1, i % 11, gen);
            }
            assert!(
                grown
                    .shards
                    .iter()
                    .all(|s| s.lock().unwrap().slots.len() > MIN_SLOTS),
                "every shard grew"
            );
            drop(grown);
            let recycled = MemoStore::new(&universe(10), 1 << 20).unwrap();
            let fresh = MemoStore::new(&universe(10), 1 << 20).unwrap();
            assert_seed_size(&recycled, fresh.shards[0].lock().unwrap().cap_slots);
            let states = n10_states(6, 3_000);
            assert_eq!(exercise(&recycled, &states), exercise(&fresh, &states));
        });
    }

    #[test]
    fn an_epoch_wrap_refills_the_slots() {
        on_fresh_thread(|| {
            let states = n10_states(8, 600);
            let first = MemoStore::new(&universe(10), 1 << 20).unwrap();
            assert!(exercise(&first, &states).1 > 0);
            // The hook: jump to the last 24-bit epoch without touching the
            // tags, so the drop's bump wraps. Without the refill, the
            // entries stamped with epoch 1 above would come back to life.
            for shard in &first.shards {
                shard.lock().unwrap().epoch = (1 << EPOCH_BITS) - 1;
            }
            drop(first);
            let recycled = MemoStore::new(&universe(10), 1 << 20).unwrap();
            for shard in &recycled.shards {
                let shard = shard.lock().unwrap();
                assert_eq!(shard.epoch, 1);
                assert!(shard.tags.iter().all(|&t| t == 0), "every tag refilled");
            }
            let fresh = MemoStore::new(&universe(10), 1 << 20).unwrap();
            assert_eq!(exercise(&recycled, &states), exercise(&fresh, &states));
        });
    }

    #[test]
    fn a_store_dropped_with_a_poisoned_lock_is_reused() {
        on_fresh_thread(|| {
            let first = MemoStore::new(&universe(10), 1 << 20).unwrap();
            let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = first.shards[3].lock().unwrap();
                panic!("a search panicked while holding shard 3");
            }));
            assert!(poisoned.is_err() && first.shards[3].is_poisoned());
            let table = slot_table(&first, 0);
            drop(first);
            let recycled = MemoStore::new(&universe(10), 1 << 20).unwrap();
            assert_eq!(slot_table(&recycled, 0), table);
            assert!(recycled.shards.iter().all(|s| !s.is_poisoned()));
            let fresh = MemoStore::new(&universe(10), 1 << 20).unwrap();
            let states = n10_states(9, 3_000);
            assert_eq!(exercise(&recycled, &states), exercise(&fresh, &states));
        });
    }

    /// A shard that doubles re-seats its entries from the hash bits in
    /// their tags. Every state a seed-size shard held before it grew
    /// answers `dominated` afterwards, under its rehash, with its slack
    /// and generation, from the window the rehash picks; and the tags
    /// hold the rehash's bits. Slot and tag stay the 48 bytes the byte
    /// budget counts per entry.
    #[test]
    fn a_grown_shard_answers_every_state_it_held() {
        assert_eq!(std::mem::size_of::<Slot>(), 40);
        assert_eq!(SLOT_BYTES, 48);
        on_fresh_thread(|| {
            let u = universe(16);
            let memo = MemoStore::new(&u, 8 << 20).unwrap();
            let gen = memo.attach();
            let mut rng = StdRng::seed_from_u64(23);
            // n = 16 has 120 chords: 1-bit keys span words 0 and 1, 2-bit
            // keys words 0..=3 with 48 bits of word 3.
            let hi1 = (1u64 << (u.num_chords() - 64)) - 1;
            let hi2 = (1u64 << (2 * u.num_chords() - 192)) - 1;
            let shard_of = |hash: u64| (hash >> 60) as usize & (SHARDS - 1);
            let mut grown = 0;
            for i in 0..60_000u32 {
                let (key, bits) = match i % 3 {
                    0 => ([rng.next_u64(), rng.next_u64() & hi1, 0, 0], 1),
                    w => (
                        [
                            rng.next_u64(),
                            rng.next_u64(),
                            rng.next_u64(),
                            rng.next_u64() & hi2,
                        ],
                        width_tag(2, w == 2),
                    ),
                };
                let hash = memo.hash_of_state(key, bits);
                if shard_of(hash) != 0 {
                    continue;
                }
                let held: Vec<(u64, Slot)> = {
                    let shard = memo.shards[0].lock().unwrap();
                    if shard.len * 4 <= shard.slots.len() * 3 {
                        Vec::new()
                    } else {
                        shard
                            .tags
                            .iter()
                            .zip(&shard.slots)
                            .filter(|&(&t, _)| shard.occupied(t))
                            .map(|(&t, &s)| (t, s))
                            .collect()
                    }
                };
                memo.record(hash, key, bits, i % 13, gen);
                if held.is_empty() {
                    continue;
                }
                grown += 1;
                let shard = memo.shards[0].lock().unwrap();
                assert_eq!(shard.slots.len(), MIN_SLOTS << grown);
                assert_eq!(shard.tags.len(), shard.slots.len());
                let mask = shard.mask;
                drop(shard);
                for (t, slot) in held {
                    let width = (t >> 32) as u8;
                    let rehash = memo.hash_of_state(slot.key, width);
                    assert_eq!(rehash as u32, t as u32, "the tag holds the hash's low bits");
                    let shard = memo.shards[0].lock().unwrap();
                    let seat = (0..MemoStore::WAYS)
                        .map(|i| (rehash as usize + i) & mask)
                        .find(|&idx| shard.tags[idx] == t && shard.slots[idx].key == slot.key);
                    assert!(seat.is_some(), "re-seated in its rehash's window");
                    drop(shard);
                    assert_eq!(
                        memo.dominated(rehash, slot.key, width, slot.rem),
                        Some(slot.gen)
                    );
                }
                if grown == 2 {
                    return;
                }
            }
            panic!("shard 0 grew {grown} times");
        });
    }
}
