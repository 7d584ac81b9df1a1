//! The search contract and the frame-based cores.
//!
//! Every exact budget probe — cover the spec with at most `budget`
//! tiles, or prove that no such covering exists — runs on one of two
//! search cores over one residual representation ([`LaneResidual`]),
//! picked by the one route rule (`crate::bnb::route`): [`LaneCore`],
//! which spends tile slack, or, for a non-unit spec whose waste slack is
//! in `[0, n)`, `crate::dlx::PartitionCore`, which spends waste slack. A
//! probe is one sequential search from the root ([`probe`]), and it
//! answers one `(Outcome, Stats)` pair: the verdict, with the limit that
//! stopped an inconclusive search, and the counters in the solver's one
//! [`Stats`] type. Each probe's node counts are the same on every run,
//! which is what the CI node-count gates pin.
//!
//! The two cores share the per-node machinery, so each piece of it
//! exists once:
//!
//! * **Explicit stack, depth-indexed arenas** ([`run_frames`]). Recursion
//!   becomes a loop over per-depth [`Frame`]s whose candidate buffers
//!   are reused by every node at that depth; dominance masks live in one
//!   flat [`DomArena`] grown to the longest candidate list seen. After
//!   warm-up no search node allocates.
//! * **One node protocol** ([`enter`]): satisfied, then the limits
//!   ([`Governor`]), the prefix bounds, the depth cap ([`MAX_DEPTH`]),
//!   the memo, and candidate staging
//!   ([`Stack::stage`]: scoring over the words a tile's mask spans, the
//!   partition kernel's waste filter, a sort of packed `u64` keys,
//!   dominance, orbit filtering). Candidates that cover no live chord
//!   besides the branch chord can only be overdrawn or dominated, so
//!   staging counts them instead of scoring, sorting and filtering them,
//!   and the partition kernel offers only the candidates whose static
//!   waste fits its slack.
//! * **Incremental bound ingredients** ([`Demand`]). Residual distance,
//!   the uncovered-diameter count, and per-vertex residual degrees (with
//!   the odd-degree population the parity/T-join bound needs) are
//!   maintained on place/unplace — O(changed chords) per node — so the
//!   vertex-degree bound is an `n`-entry scan and
//!   [`parity_join_bound_from_odd`] runs in constant time at every
//!   depth. (A per-tile useful-load array was measured too: updating
//!   every affected tile per placement cost ~2× what recomputing loads
//!   at scoring time does, so scoring recomputes.) The diameter-slack
//!   bound keeps, per diameter chord, a zero-waste witness tile and the
//!   floors earlier scans found over supersets of the live set
//!   ([`DiameterFloors`]), so most evaluations scan no tiles.
//! * **Residual-state dominance memo** (see [`crate::memo`]): nodes whose
//!   residual state was already exhausted with an equal-or-better slack
//!   are pruned, both at node entry and, one level earlier, as candidate
//!   children before they are placed.
//!
//! [`LaneResidual`] holds per-chord residual demand in packed lanes,
//! plus its support set ([`ChordSet`]), which branching, scoring,
//! dominance and the diameter-slack dual consume. The lane width is a
//! const parameter of the residual, its tables and both cores: 1-bit
//! lanes serve unit demands (their words are the uncovered set's), 2-bit
//! lanes demands ≤ 3, 4-bit lanes demands `4..=15` and 16-bit lanes
//! demands `16..=65,535`, from one source. Each width keys the memo under
//! its own width tags; 4-bit states only up to 64 chords (see
//! [`crate::memo`]), and wider 4-bit searches and every 16-bit search run
//! memo-free. What differs per core is the slack it spends and a few
//! hooks ([`FrameCore`]); on 1-bit lanes under [`SymmetryMode::Full`]
//! with the memo on, [`LaneCore`] keys the memo canonically and filters
//! siblings setwise.
//!
//! With the memo off, [`LaneCore`] on 1-bit lanes reproduces the unit
//! node counts of the recursive search it replaced;
//! `tests/kernel_proptests.rs` keeps them as data.

use crate::api::{CancelToken, Exhaustion, Stats};
use crate::bitset::{ChordSet, LaneSet};
use crate::bnb::{resolve_symmetry, CoverSpec, Outcome, RunLimits, SymmetryMode};
use crate::lower_bound::{parity_join_bound_from_odd, DiameterFloors};
use crate::memo::{width_tag, MemoStore, KEY_WORDS};
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use std::time::Instant;

/// A residual state's memo entry: `(hash, key, slack)`.
pub(crate) type MemoEntry = (u64, [u64; KEY_WORDS], u32);

// ---------------------------------------------------------------------------
// The limits
// ---------------------------------------------------------------------------

/// One searcher's side of its [`RunLimits`]: the node budget checked at
/// every node, and cancellation and the deadline every 4096 nodes.
pub(crate) struct Governor<'a> {
    lim: &'a RunLimits,
    /// Which limit stopped the search, once one has.
    stop_cause: Option<Exhaustion>,
}

impl<'a> Governor<'a> {
    pub(crate) fn new(lim: &'a RunLimits) -> Self {
        Governor {
            lim,
            stop_cause: None,
        }
    }

    /// Checks the node numbered `nodes` against the limits; `true` = stop
    /// the search. A cancelled token stops it with the token's reason, so
    /// a service shutting down reads as [`Exhaustion::Shutdown`].
    #[inline]
    pub(crate) fn exhausted(&mut self, nodes: u64) -> bool {
        let lim = self.lim;
        let cause = if nodes > lim.max_nodes {
            Exhaustion::NodeBudget
        } else if !nodes.is_multiple_of(4096) {
            return false;
        } else if let Some(reason) = lim.cancel.as_ref().and_then(CancelToken::cancel_reason) {
            reason.as_exhaustion()
        } else if lim.deadline.is_some_and(|d| Instant::now() >= d) {
            Exhaustion::Deadline
        } else {
            return false;
        };
        self.stop_cause = Some(cause);
        true
    }

    /// Stops the search with `cause`, a limit the search checks itself.
    fn stop(&mut self, cause: Exhaustion) {
        self.stop_cause = Some(cause);
    }

    /// The probe's answer: the placed `chosen` tiles when the search
    /// `found` a covering, else the limit that stopped it, else
    /// exhaustive. The stats count one budget tried.
    pub(crate) fn settle(&self, found: bool, chosen: Vec<u32>, stats: Stats) -> (Outcome, Stats) {
        let outcome = if found {
            Outcome::Feasible(chosen)
        } else {
            self.stop_cause
                .map_or(Outcome::Infeasible, Outcome::Exhausted)
        };
        let stats = Stats {
            budgets_tried: 1,
            ..stats
        };
        (outcome, stats)
    }
}

// ---------------------------------------------------------------------------
// The frame-based machinery
// ---------------------------------------------------------------------------

/// Per-depth iteration state: the node's filtered candidates, the cursor
/// into them, and the memo entry the node records if it exhausts.
/// Buffers are reused by every node at this depth.
#[derive(Default)]
struct Frame {
    /// Scoring buffer of packed sort keys ([`stage_key`]).
    scored: Vec<u64>,
    /// Candidates surviving every filter, in search order.
    cands: Vec<u32>,
    /// Next unexplored candidate.
    cursor: usize,
    /// The node's residual state, recorded if the node exhausts (`None`
    /// with the memo off).
    entry: Option<MemoEntry>,
}

/// What entering a node found.
enum Enter {
    /// Demand satisfied — the placed prefix is a covering.
    Solved,
    /// A resource limit tripped; the whole search stops.
    Abort,
    /// Bound- or memo-pruned; backtrack.
    Dead,
    /// Candidates are staged in the depth's frame.
    Ready,
}

/// A staged candidate's sort key: `(u16::MAX − cov) << 48 | waste << 32
/// | tile`, where `cov` counts the live chords tile `t` covers and
/// `waste` is its exact waste increment. Ascending keys order candidates
/// by coverage (descending), then waste, then tile: over a tile-ascending
/// candidate list, the stable `(Reverse(cov), waste)` order, and a total
/// order over a list in any order (the partition kernel's prefix is
/// ordered by static waste).
#[inline]
fn stage_key(t: u32, cov: u32, waste: u32) -> u64 {
    debug_assert!(cov <= u16::MAX as u32 && waste <= u16::MAX as u32);
    ((u16::MAX as u32 - cov) as u64) << 48 | (waste as u64) << 32 | t as u64
}

/// Dominance-filter arena: one slot of `stride` words per kept candidate
/// of the node being filtered, in one flat word arena grown to the
/// longest candidate list seen. Staging hands it only the candidates
/// covering at least two live chords, 13–134 a node on average over the
/// certify-unit instances, far fewer than a chord's full candidate list.
struct DomArena {
    words: Vec<u64>,
    /// Words per slot: the universe's chord-set width.
    stride: usize,
}

impl DomArena {
    fn new(u: &TileUniverse) -> Self {
        DomArena {
            words: Vec::new(),
            stride: u.num_chords().div_ceil(64) as usize,
        }
    }

    /// Appends the tiles of the sorted `scored` keys ([`stage_key`]) to
    /// `cands`, dropping each
    /// whose live coverage (its tile mask ∩ `live`) is a subset of an
    /// earlier candidate's — sorting put dominators first, so ties keep
    /// the first occurrence. Returns how many were dropped.
    ///
    /// Only kept candidates hold a slot, and each candidate is tested
    /// against those alone: by transitivity an earlier dropped dominator
    /// has a kept one of its own, so the verdicts are the pairwise ones.
    /// A slot holds zeros outside its tile's word span
    /// ([`TileUniverse::tile_mask_span`]), so each subset test reads only
    /// that span.
    ///
    /// Sound under multiplicities too: replacing a dominated tile with its
    /// dominator in any covering multiset yields a covering of the same
    /// size.
    fn filter(
        &mut self,
        u: &TileUniverse,
        live: &ChordSet,
        scored: &[u64],
        cands: &mut Vec<u32>,
    ) -> u64 {
        if scored.len() < 2 {
            cands.extend(scored.iter().map(|&k| k as u32));
            return 0;
        }
        let stride = self.stride;
        if self.words.len() < scored.len() * stride {
            self.words.resize(scored.len() * stride, 0);
        }
        let mut kept = 0;
        for t in scored.iter().map(|&k| k as u32) {
            let (earlier, rest) = self.words.split_at_mut(kept * stride);
            let slot = &mut rest[..stride];
            for ((w, a), b) in slot
                .iter_mut()
                .zip(u.tile_mask(t).words())
                .zip(live.words())
            {
                *w = a & b;
            }
            let (lo, hi) = u.tile_mask_span(t);
            let mine = &slot[lo as usize..hi as usize];
            if !earlier.chunks_exact(stride).any(|prior| {
                mine.iter()
                    .zip(&prior[lo as usize..hi as usize])
                    .all(|(a, b)| a & !b == 0)
            }) {
                cands.push(t);
                kept += 1;
            }
        }
        (scored.len() - kept) as u64
    }
}

/// Dihedral orbit reduction: the effective mode and group, the `Full`
/// mode's pointwise prefix stabilizers, and the sibling filter.
///
/// Soundness of the filter: a kept candidate `t` and a skipped sibling
/// `h·t` (with `h` fixing the spec, every placed tile — pointwise, or as
/// a multiset under canonical keys — and the branch chord) head subtrees
/// that are mirror images, so `h` maps any covering through `h·t` to one
/// of equal size through `t`.
struct Orbits<'a> {
    /// The effective mode (`Off` without tables or spec symmetry).
    mode: SymmetryMode,
    tables: Option<&'a DihedralTables>,
    /// The subgroup preserving the spec's demand (bitmask).
    spec_group: u64,
    /// `Full`: the pointwise stabilizer of each prefix inside the spec
    /// group, one AND per placement (seeded with the spec group).
    stab: Vec<u64>,
    /// Stamps over tile indices backing the per-branch "already kept a
    /// candidate of this orbit" test (lazily sized).
    seen: Vec<u64>,
    stamp: u64,
}

impl<'a> Orbits<'a> {
    fn new(u: &'a TileUniverse, spec: &CoverSpec, requested: SymmetryMode) -> Self {
        let (mode, tables, spec_group) = resolve_symmetry(u, spec, requested);
        Orbits {
            mode,
            tables,
            spec_group,
            stab: if mode == SymmetryMode::Full {
                vec![spec_group]
            } else {
                Vec::new()
            },
            seen: Vec::new(),
            stamp: 0,
        }
    }

    fn pointwise(&self) -> u64 {
        *self.stab.last().expect("stab stack seeded")
    }

    fn push(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let stab = self.tables.expect("tables exist in Full mode").tile_stab(t);
            self.stab.push(self.pointwise() & stab);
        }
    }

    fn pop(&mut self) {
        if self.mode == SymmetryMode::Full {
            self.stab.pop();
        }
    }

    /// Drops, in place, each candidate that a group element fixing the
    /// branch chord maps onto an already-kept candidate. `Root` filters
    /// the empty prefix under the spec group; `Full` filters every depth
    /// under the pointwise prefix stabilizer, or under `setwise` when the
    /// lane core's canonical machinery supplies one (its extra elements'
    /// prunes count as `canon_pruned`).
    fn filter(
        &mut self,
        depth: usize,
        branch: u32,
        setwise: Option<u64>,
        cands: &mut Vec<u32>,
        stats: &mut Stats,
    ) {
        let Some(sym) = self.tables else { return };
        let pointwise = match self.mode {
            SymmetryMode::Off => return,
            SymmetryMode::Root if depth > 0 => return,
            SymmetryMode::Root => self.spec_group,
            SymmetryMode::Full => self.pointwise(),
        };
        let filter = setwise.unwrap_or(pointwise) & sym.chord_stab(branch);
        if depth == 0 {
            stats.sym_factor = stats.sym_factor.max(filter.count_ones());
        }
        if filter & !1 == 0 {
            // Identity only: every orbit is a singleton.
            return;
        }
        if self.seen.len() < sym.num_tiles() as usize {
            self.seen.resize(sym.num_tiles() as usize, 0);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let pw_filter = pointwise & sym.chord_stab(branch);
        let seen = &mut self.seen;
        cands.retain(|&t| {
            let mut elements = filter & !1;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && seen[image as usize] == stamp {
                    if pw_filter >> g & 1 == 1 {
                        stats.sym_pruned += 1;
                    } else {
                        stats.canon_pruned += 1;
                    }
                    return false;
                }
            }
            seen[t as usize] = stamp;
            true
        });
    }
}

/// What is left of the demand, as the bounds read it: the chords with
/// residual demand (the *live* set — uncovered chords, or the λ-fold
/// support), and the incrementally maintained bound ingredients, all
/// weighted by residual multiplicity: demanded distance, demanded
/// diameter units, per-vertex residual degree, and the number of odd
/// degrees (`|T|` of the parity bound). `floors` keeps what the
/// diameter-slack bound's scans found at earlier nodes, which answers
/// most of its evaluations without a scan.
pub(crate) struct Demand {
    pub(crate) live: ChordSet,
    pub(crate) rem_dist: u64,
    rem_diam: u64,
    deg: Vec<u32>,
    odd: u64,
    floors: DiameterFloors,
}

impl Demand {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self {
        let m = u.num_chords();
        let diam = u.diam_chords();
        let mut d = Demand {
            live: ChordSet::empty(m),
            rem_dist: 0,
            rem_diam: 0,
            deg: vec![0; u.ring().n() as usize],
            odd: 0,
            floors: DiameterFloors::new(u),
        };
        for pri in 0..m {
            let need = spec.demand[u.dense_of_pri(pri) as usize];
            if need > 0 {
                d.live.insert(pri);
                d.rem_dist += need as u64 * u.dist_of_pri(pri) as u64;
                if pri < diam {
                    d.rem_diam += need as u64;
                }
                let (a, b) = u.chord_ends_of_pri(pri);
                d.deg[a as usize] += need;
                d.deg[b as usize] += need;
            }
        }
        d.odd = d.deg.iter().filter(|&&x| x & 1 == 1).count() as u64;
        d
    }

    /// Takes one unit of chord `c`'s demand out of the ingredients
    /// (`cover`), or puts it back, and returns the chord's distance. The
    /// live set is the caller's.
    #[inline]
    fn step(&mut self, u: &TileUniverse, c: u32, cover: bool) -> u64 {
        let dist = u.dist_of_pri(c) as u64;
        let diam = (c < u.diam_chords()) as u64;
        if cover {
            self.rem_dist -= dist;
            self.rem_diam -= diam;
        } else {
            self.rem_dist += dist;
            self.rem_diam += diam;
        }
        let (a, b) = u.chord_ends_of_pri(c);
        for v in [a, b] {
            let dv = &mut self.deg[v as usize];
            // One unit flips the degree's parity either way.
            if *dv & 1 == 1 {
                self.odd -= 1;
            } else {
                self.odd += 1;
            }
            if cover {
                *dv -= 1;
            } else {
                *dv += 1;
            }
        }
        dist
    }

    /// The cheap bound: capacity `⌈rem_dist/n⌉`, demanded diameter units
    /// (a cycle carries at most one diameter), and vertex degree (a cycle
    /// visits a vertex at most once, so covers at most two of its
    /// residual units).
    fn remaining_lb(&self, n: u32) -> u64 {
        let mut lb = self.rem_dist.div_ceil(n as u64).max(self.rem_diam);
        for &d in &self.deg {
            lb = lb.max((d as u64).div_ceil(2));
        }
        lb
    }

    /// The strong bound: the parity/T-join term first — constant-time
    /// from the odd-degree count, and alone it settles the
    /// capacity-tight even refutations — then the pricier diameter-slack
    /// dual over the live set, only if the node is still alive. The dual
    /// is valid under multiplicities because every live chord carries at
    /// least one unit of demand. The unit and lane cores branch on
    /// diameter chords first, so their live sets lose the diameters
    /// early; the partition kernel's MRV branching leaves them live deep
    /// into the tree (about one diameter evaluation per node at n = 18 and
    /// 22), which is where the witnesses and ancestor floors save the
    /// scans.
    fn strong_lb(&mut self, u: &TileUniverse, stop_above: u64) -> u64 {
        let parity = parity_join_bound_from_odd(u.ring().n(), self.rem_dist, self.odd);
        if parity > stop_above {
            return parity;
        }
        let dual = self.floors.bound(u, &self.live, self.rem_dist, stop_above);
        dual.max(parity)
    }
}

/// The state every frame-based core shares around its residual: the
/// explicit stack, the statistics and limits, the orbit filter, and the
/// memo handle.
pub(crate) struct Stack<'a> {
    pub(crate) u: &'a TileUniverse,
    budget: u32,
    /// The placed tiles, bottom first.
    chosen: Vec<u32>,
    frames: Vec<Frame>,
    dom: DomArena,
    /// Staging scratch, one word per 64 chords: the live set without the
    /// branch chord.
    rest: Vec<u64>,
    stats: Stats,
    gov: Governor<'a>,
    /// Whether the strong prefix bound is consulted (the requested
    /// symmetry was not `Off`, whatever the tables allow).
    strong: bool,
    orbits: Orbits<'a>,
    /// The (possibly shared) refutation store this searcher probes and
    /// feeds; `None` = memo off, and the search then reproduces its
    /// memo-free node counts bit for bit.
    store: Option<&'a MemoStore>,
    /// The store's key width tag for this core's residual states.
    width: u8,
    /// This searcher's generation in the store — hits on entries with
    /// another tag count as `shared_hits`.
    gen: u32,
}

impl<'a> Stack<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        width: u8,
    ) -> Self {
        assert_eq!(
            spec.demand.len(),
            u.num_chords() as usize,
            "spec size mismatch"
        );
        let orbits = Orbits::new(u, spec, requested);
        // A store built for another universe would prune on meaningless
        // key matches — treat it as absent — and one whose keys this
        // core's states do not fit cannot key them exactly.
        let store = store.filter(|s| s.compatible(u) && s.keys_fit(width));
        Stack {
            u,
            budget,
            chosen: Vec::new(),
            frames: Vec::new(),
            dom: DomArena::new(u),
            rest: vec![0; u.num_chords().div_ceil(64) as usize],
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            gov,
            strong: requested != SymmetryMode::Off,
            orbits,
            store,
            width,
            gen: store.map_or(0, |s| s.attach()),
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.chosen.len()
    }

    /// Records tile `t` as placed (after the residual took it).
    pub(crate) fn push(&mut self, t: u32) {
        self.orbits.push(t);
        self.chosen.push(t);
    }

    /// Pops the top placement, for the residual to revert.
    pub(crate) fn pop(&mut self) -> u32 {
        self.orbits.pop();
        self.chosen.pop().expect("unplace without place")
    }

    /// The memo slack of a budget-keyed state: tiles left at this depth.
    fn tiles_left(&self) -> u32 {
        self.budget - self.depth() as u32
    }

    /// The prefix bound test over the residual `d`.
    pub(crate) fn refutes(&self, d: &mut Demand) -> bool {
        let used = self.depth() as u64;
        let budget = self.budget as u64;
        used + d.remaining_lb(self.u.ring().n()) > budget
            || (self.strong && d.strong_lb(self.u, budget - used) > budget - used)
    }

    /// Whether the store already refuted this residual state with at
    /// least `slack` to spare (counting the hit).
    fn memo_hit(&mut self, hash: u64, key: [u64; KEY_WORDS], slack: u32) -> bool {
        let Some(owner) = self
            .store
            .and_then(|s| s.dominated(hash, key, self.width, slack))
        else {
            return false;
        };
        self.stats.memo_hits += 1;
        if owner != self.gen {
            self.stats.shared_hits += 1;
        }
        true
    }

    /// Stages the current node's children into its frame: scores
    /// `branch`'s candidates against the `live` chords over the words
    /// each tile's mask spans, drops those whose waste exceeds
    /// `max_waste`, sorts by coverage (descending), waste, then tile
    /// ([`stage_key`]), dominance-filters, and orbit-filters (under
    /// `setwise` when given). `entry` is the memo entry the node records
    /// if it exhausts.
    ///
    /// `offered` is `branch`'s candidate list, or a subset of it holding
    /// every candidate whose static waste fits `max_waste` (the partition
    /// kernel's affordable prefix), in any order. The candidates left out
    /// are counted as overdrawn without being scored: a tile's exact waste
    /// increment is at least its static waste.
    ///
    /// Every candidate passes through the live branch chord, so one that
    /// covers no other live chord has live coverage `{branch}` and waste
    /// `n − dist(branch)`, shared by all such *single* candidates. They
    /// are counted, not scored: all are overdrawn together, or all are
    /// dominated by any candidate covering more (whose larger useful load
    /// keeps it within the waste budget whenever they are), or, alone,
    /// the lowest-numbered survives and dominates the rest. That is the
    /// outcome the sort and the dominance filter would reach.
    pub(crate) fn stage(
        &mut self,
        live: &ChordSet,
        branch: u32,
        offered: &[u32],
        max_waste: u64,
        setwise: Option<u64>,
        entry: Option<MemoEntry>,
    ) {
        debug_assert!(live.contains(branch), "the branch chord is live");
        let depth = self.depth();
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Frame::default);
        }
        let u = self.u;
        let n = u.ring().n();
        // The buffers leave the frame while the loop fills them, so their
        // headers stay in registers instead of being reloaded after every
        // push through the frame reference.
        let mut scored = std::mem::take(&mut self.frames[depth].scored);
        let mut cands = std::mem::take(&mut self.frames[depth].cands);
        scored.clear();
        cands.clear();
        let rest = &mut self.rest;
        rest.copy_from_slice(live.words());
        rest[(branch / 64) as usize] &= !(1u64 << (branch % 64));
        let bdist = u.dist_of_pri(branch);
        let mut overdrawn = 0;
        let mut singles = 0;
        let mut first_single = u32::MAX;
        for &t in offered {
            let (lo, hi) = u.tile_mask_span(t);
            let (lo, hi) = (lo as usize, hi as usize);
            let mut cov = 0u32;
            let mut useful = 0u32;
            for (wi, (a, b)) in u.tile_mask(t).words()[lo..hi]
                .iter()
                .zip(&rest[lo..hi])
                .enumerate()
            {
                let mut w = a & b;
                cov += w.count_ones();
                while w != 0 {
                    useful += u.dist_of_pri(((lo + wi) * 64) as u32 + w.trailing_zeros());
                    w &= w - 1;
                }
            }
            if cov == 0 {
                first_single = first_single.min(t);
                singles += 1;
                continue;
            }
            let waste = n - (useful + bdist).min(n);
            if waste as u64 > max_waste {
                overdrawn += 1;
                continue;
            }
            scored.push(stage_key(t, cov + 1, waste));
        }
        if singles > 0 {
            let waste = n - bdist.min(n);
            if waste as u64 > max_waste {
                overdrawn += singles;
            } else if scored.is_empty() {
                scored.push(stage_key(first_single, 1, waste));
                self.stats.dominated += singles - 1;
            } else {
                self.stats.dominated += singles;
            }
        }
        // A child that would overdraw the waste budget is the capacity
        // prune it would hit as a node, applied without spawning one.
        let unscored = u.candidates_pri(branch).len() - offered.len();
        self.stats.pruned += overdrawn + unscored as u64;
        scored.sort_unstable();
        self.stats.dominated += self.dom.filter(u, live, &scored, &mut cands);
        self.orbits
            .filter(depth, branch, setwise, &mut cands, &mut self.stats);
        self.frames[depth] = Frame {
            scored,
            cands,
            cursor: 0,
            entry,
        };
    }

    /// Settles the search (`found` is what the search returned),
    /// stamping the store's resident entry count — a shared store
    /// reports its total population, not this searcher's contribution.
    fn finish(&mut self, found: bool) -> (Outcome, Stats) {
        self.stats.memo_entries = self.store.map_or(0, |s| s.len());
        self.gov
            .settle(found, std::mem::take(&mut self.chosen), self.stats)
    }
}

/// The per-core hooks of the frame-based node protocol.
pub(crate) trait FrameCore<'a> {
    /// The state shared with the other frame-based cores.
    fn stack(&mut self) -> &mut Stack<'a>;

    /// Whether the placed prefix meets every demand.
    fn satisfied(&self) -> bool;

    /// Places tile `t` on top of the prefix.
    fn place(&mut self, t: u32);

    /// Reverts the most recent placement.
    fn unplace(&mut self);

    /// Whether the prefix bounds (the cheap capacity/diameter/degree
    /// trio, then the strong bound when symmetry is on) refute every
    /// completion within the budget. Mutable so the strong bound can
    /// keep its diameter witnesses up to date.
    fn refuted(&mut self) -> bool;

    /// The current residual state's memo key and hash, and whether the
    /// key is the raw state (not a canonical image). Called with a store.
    fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool);

    /// The current node's slack in the memo's domain.
    fn memo_rem(&self) -> u32;

    /// Candidate `t`'s child state — key, hash and slack — for the
    /// candidate-level store probe, or `None` when the core cannot
    /// pre-probe.
    fn child_state(&self, store: &MemoStore, t: u32) -> Option<MemoEntry>;

    /// Chooses the branch chord and stages the node's children.
    fn stage(&mut self, entry: Option<MemoEntry>);

    /// Whether children probe the store at entry instead of being
    /// pre-probed (canonical keys need the placed state).
    fn probes_at_entry(&self) -> bool {
        false
    }
}

/// The most tiles a core places on one path: a node this deep that
/// survives its bounds stops the probe with [`Exhaustion::EngineLimit`]
/// instead of branching. It bounds the per-depth frame memory. At n = 5
/// this certifies λ ≤ 1,365 (a 4,095-tile witness); a unit search places
/// at most one tile per demanded request, so only a spec of more than
/// 4,096 requests can reach it.
const MAX_DEPTH: usize = 4096;

/// Enters the node at the current prefix: satisfied, then the limits,
/// the prefix bounds, the depth cap, the memo, and candidate staging.
/// `check_memo` is false when the node was already probed as a candidate
/// child; its entry is still staged so the node can be recorded on
/// exhaust.
///
/// The depth cap comes after the bounds, so a root refutation runs at
/// any budget, and it aborts the probe rather than killing the node: a
/// dead child would let its parent record a refutation never proved.
#[inline]
fn enter<'a, C: FrameCore<'a>>(c: &mut C, check_memo: bool) -> Enter {
    if c.satisfied() {
        return Enter::Solved;
    }
    let s = c.stack();
    s.stats.nodes += 1;
    if s.gov.exhausted(s.stats.nodes) {
        return Enter::Abort;
    }
    if c.refuted() {
        c.stack().stats.pruned += 1;
        return Enter::Dead;
    }
    let s = c.stack();
    if s.depth() >= MAX_DEPTH {
        s.gov.stop(Exhaustion::EngineLimit);
        return Enter::Abort;
    }
    let mut entry = None;
    if c.stack().store.is_some() {
        let (key, hash, raw) = c.memo_state();
        let rem = c.memo_rem();
        if (check_memo || c.probes_at_entry()) && c.stack().memo_hit(hash, key, rem) {
            if !raw {
                c.stack().stats.canon_pruned += 1;
            }
            return Enter::Dead;
        }
        entry = Some((hash, key, rem));
    }
    c.stage(entry);
    Enter::Ready
}

/// The candidate-level store probe: `true` (a counted memo hit) when
/// placing `t` reaches a state already refuted with at least the child's
/// slack, so the child is skipped without being placed or counted as a
/// node. A child that would be a covering is never probed.
#[inline]
fn skip<'a, C: FrameCore<'a>>(c: &mut C, t: u32) -> bool {
    let Some(store) = c.stack().store else {
        return false;
    };
    match c.child_state(store, t) {
        Some((hash, key, rem)) => key != [0; KEY_WORDS] && c.stack().memo_hit(hash, key, rem),
        None => false,
    }
}

/// One sequential search of a frame-based core from the root: the
/// budget probe.
pub(crate) fn probe<'a>(mut c: impl FrameCore<'a>) -> (Outcome, Stats) {
    let found = run_frames(&mut c);
    c.stack().finish(found)
}

/// Drives a frame-based core from the root to a conclusion. `true` =
/// covering found; `false` = tree exhausted or a limit hit.
fn run_frames<'a, C: FrameCore<'a>>(c: &mut C) -> bool {
    let mut entering = true;
    // Only the root needs the node-entry store probe: deeper nodes were
    // already probed as candidate children.
    let mut check_memo = true;
    loop {
        if entering {
            match enter(c, check_memo) {
                Enter::Solved => return true,
                Enter::Abort => return false,
                Enter::Dead => {
                    if c.stack().depth() == 0 {
                        return false;
                    }
                    c.unplace();
                    entering = false;
                    continue;
                }
                Enter::Ready => {}
            }
        }
        let s = c.stack();
        let depth = s.depth();
        let f = &mut s.frames[depth];
        if let Some(&t) = f.cands.get(f.cursor) {
            f.cursor += 1;
            entering = !skip(c, t);
            if entering {
                c.place(t);
                check_memo = c.probes_at_entry();
            }
        } else {
            if let Some((hash, key, rem)) = f.entry {
                let store = s.store.expect("a memo entry implies a store");
                store.record(hash, key, s.width, rem, s.gen);
            }
            if depth == 0 {
                return false;
            }
            c.unplace();
            entering = false;
        }
    }
}

// ---------------------------------------------------------------------------
// The lane residual and the lane core
// ---------------------------------------------------------------------------

/// Per-tile lane-space masks: each tile's chord set re-expressed with one
/// [`LaneSet::LOW`] bit per chord in the `B`-bit-lane layout of
/// [`LaneSet`], plus the lane-word span the mask occupies. Built once per
/// probe, so a placement is a handful of masked word subtracts.
///
/// A 1-bit lane mask is the tile's chord mask itself, so `LaneTables<1>`
/// holds no masks: [`LaneTables::mask`] and [`LaneTables::span`] read
/// [`TileUniverse::tile_mask`] and [`TileUniverse::tile_mask_span`], and a
/// unit probe builds nothing per tile.
pub(crate) struct LaneTables<const B: u32> {
    lane_words: usize,
    /// `masks[t * lane_words .. (t + 1) * lane_words]` = tile `t`'s mask
    /// (empty at 1 bit).
    masks: Vec<u64>,
    /// Lane-word span of each tile's mask (`lo..hi`; empty at 1 bit).
    spans: Vec<(u32, u32)>,
}

impl<const B: u32> LaneTables<B> {
    pub(crate) fn build(u: &TileUniverse) -> Self {
        let per_word = LaneSet::<B>::PER_WORD;
        let lane_words = u.num_chords().div_ceil(per_word) as usize;
        let nt = if B == 1 { 0 } else { u.len() };
        let mut masks = vec![0u64; nt * lane_words];
        let mut spans = vec![(0u32, 0u32); nt];
        for (t, span) in spans.iter_mut().enumerate() {
            let base = t * lane_words;
            let mut lo = lane_words as u32;
            let mut hi = 0u32;
            for &c in u.tile_chords(t as u32) {
                let w = c / per_word;
                masks[base + w as usize] |= 1u64 << (B * (c % per_word));
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
            *span = if lo < hi { (lo, hi) } else { (0, 0) };
        }
        LaneTables {
            lane_words,
            masks,
            spans,
        }
    }

    #[inline]
    fn mask<'s>(&'s self, u: &'s TileUniverse, t: u32) -> &'s [u64] {
        if B == 1 {
            return u.tile_mask(t).words();
        }
        let base = t as usize * self.lane_words;
        &self.masks[base..base + self.lane_words]
    }

    #[inline]
    fn span(&self, u: &TileUniverse, t: u32) -> (usize, usize) {
        let (lo, hi) = if B == 1 {
            u.tile_mask_span(t)
        } else {
            self.spans[t as usize]
        };
        (lo as usize, hi as usize)
    }
}

/// The residual state both cores search over: per-chord residual demand
/// in packed `B`-bit lanes (1-bit lanes for unit demands, 2-bit lanes for
/// demands ≤ 3, 4-bit lanes for demands ≤ 15, 16-bit lanes for demands
/// ≤ 65,535), the support set and bound ingredients ([`Demand`]), an
/// incremental level-Zobrist hash, and per-depth undo masks. A 1-bit lane
/// is a chord bit, so at 1 bit the lane vector is the support set itself,
/// the uncovered chords, and the residual keeps no second copy
/// ([`LaneResidual::words`]).
///
/// Memo keys are the packed lane words. The stack only keeps a store
/// whose keys the state fits ([`MemoStore::keys_fit`]: every store at 1
/// and 2 bits, up to 64 chords at 4 bits, none at 16 bits), so every key
/// is exact.
pub(crate) struct LaneResidual<'a, const B: u32> {
    u: &'a TileUniverse,
    tables: &'a LaneTables<B>,
    /// The stack's store, whose `B`-bit level keys the hash folds in.
    store: Option<&'a MemoStore>,
    /// The packed lanes; empty at 1 bit.
    lanes: LaneSet<B>,
    /// The support (chords with residual > 0) and bound ingredients.
    pub(crate) d: Demand,
    /// `⊕_c ⊕_{v=1..=r(c)} key(c, v)` over the residual vector `r`.
    hash: u64,
    /// `undo[d]`: per lane word, the [`LaneSet::LOW`] decrement mask the
    /// placement at depth `d` applied.
    undo: Vec<Vec<u64>>,
}

impl<'a, const B: u32> LaneResidual<'a, B> {
    /// The residual of `spec`, hashed for the stack's store.
    pub(crate) fn new(s: &Stack<'a>, spec: &CoverSpec, tables: &'a LaneTables<B>) -> Self {
        let u = s.u;
        let d = Demand::new(u, spec);
        let mut lanes = LaneSet::zero(if B == 1 { 0 } else { u.num_chords() });
        let need = |c: u32| spec.demand[u.dense_of_pri(c) as usize];
        if B > 1 {
            for c in d.live.iter() {
                lanes.set(c, need(c));
            }
        }
        let hash = s.store.map_or(0, |st| {
            let keys = st.level_keys(B);
            d.live.iter().fold(0, |mut h, c| {
                for v in 1..=need(c) {
                    h ^= keys.get(c, v);
                }
                h
            })
        });
        LaneResidual {
            u,
            tables,
            store: s.store,
            lanes,
            d,
            hash,
            undo: Vec::new(),
        }
    }

    /// The packed lane words: at 1 bit, the support set's own words.
    #[inline]
    fn words(&self) -> &[u64] {
        if B == 1 {
            self.d.live.words()
        } else {
            self.lanes.words()
        }
    }

    /// The residual in lane word `w` of the lane whose low bit is bit `p`,
    /// a lane known to be nonzero: always 1 at 1 bit.
    #[inline]
    fn level(w: u64, p: u32) -> u32 {
        if B == 1 {
            1
        } else {
            (w >> p) as u32 & LaneSet::<B>::MAX
        }
    }

    /// Places tile `t` at `depth`: one saturating masked subtract per lane
    /// word, then per decremented chord the bound ingredients, support
    /// retirement when its residual hits zero, and the hash. At 1 bit the
    /// subtract is `r & !mask` on the support set's own word, and every
    /// decremented lane held 1. Returns the distance the placement newly
    /// covered.
    // Forced inline, like `unplace`: left to the compiler, every
    // certify-unit instance read 1–5 % slower over three benchmark pairs
    // on a 2-core host, with the same node counts.
    #[inline(always)]
    pub(crate) fn place(&mut self, t: u32, depth: usize) -> u64 {
        if self.undo.len() == depth {
            self.undo.push(vec![0u64; self.tables.lane_words]);
        }
        let (lo, hi) = self.tables.span(self.u, t);
        let mask = self.tables.mask(self.u, t);
        let keys = self.store.map(|st| st.level_keys(B));
        let mut useful = 0u64;
        for (w, &tile_word) in mask.iter().enumerate().take(hi).skip(lo) {
            let before = self.words()[w];
            let sub = if B == 1 {
                let sub = before & tile_word;
                self.d.live.set_word(w, before & !sub);
                sub
            } else {
                self.lanes.place_word(w, tile_word)
            };
            self.undo[depth][w] = sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LaneSet::<B>::PER_WORD + p / B;
                let old = Self::level(before, p);
                useful += self.d.step(self.u, c, true);
                if B > 1 && old == 1 {
                    self.d.live.remove(c);
                }
                if let Some(keys) = keys {
                    self.hash ^= keys.get(c, old);
                }
                m &= m - 1;
            }
        }
        useful
    }

    /// Reverts the placement of `t` at `depth`; returns the distance it
    /// had covered.
    #[inline(always)]
    pub(crate) fn unplace(&mut self, t: u32, depth: usize) -> u64 {
        let (lo, hi) = self.tables.span(self.u, t);
        let keys = self.store.map(|st| st.level_keys(B));
        let mut useful = 0u64;
        for w in lo..hi {
            let sub = self.undo[depth][w];
            if sub == 0 {
                continue;
            }
            let after = self.words()[w] + sub;
            if B == 1 {
                self.d.live.set_word(w, after);
            } else {
                self.lanes.unplace_word(w, sub);
            }
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LaneSet::<B>::PER_WORD + p / B;
                // The restored value equals what `place` decremented from.
                let val = Self::level(after, p);
                useful += self.d.step(self.u, c, false);
                if B > 1 && val == 1 {
                    self.d.live.insert(c);
                }
                if let Some(keys) = keys {
                    self.hash ^= keys.get(c, val);
                }
                m &= m - 1;
            }
        }
        useful
    }

    /// The memo key and hash of the residual vector: the packed lane
    /// words, zero-padded to the store's key width.
    #[inline]
    pub(crate) fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        let words = self.words();
        debug_assert!(
            words.len() <= KEY_WORDS,
            "the stack keeps only a store the state fits"
        );
        // Built at the full key length, not by `copy_from_slice`: this
        // runs on every candidate pre-probe, where a call to `memcpy` is
        // measurable.
        let key: [u64; KEY_WORDS] = std::array::from_fn(|i| words.get(i).copied().unwrap_or(0));
        (key, self.hash, true)
    }

    /// The key and hash of the state placing `t` would reach, and, when
    /// `USEFUL` (only the partition kernel reads it), the distance it
    /// would newly cover: [`LaneResidual::place`] simulated over a copy of
    /// the lane words.
    #[inline]
    pub(crate) fn child<const USEFUL: bool>(
        &self,
        store: &MemoStore,
        t: u32,
    ) -> ([u64; KEY_WORDS], u64, u64) {
        let keys = store.level_keys(B);
        let (mut key, mut h, _) = self.memo_state();
        let mut useful = 0u64;
        let (lo, hi) = self.tables.span(self.u, t);
        let mask = self.tables.mask(self.u, t);
        for (w, kw) in key.iter_mut().enumerate().take(hi).skip(lo) {
            let r = *kw;
            let sub = LaneSet::<B>::nonzero(r) & mask[w];
            *kw = r - sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LaneSet::<B>::PER_WORD + p / B;
                if USEFUL {
                    useful += self.u.dist_of_pri(c) as u64;
                }
                h ^= keys.get(c, Self::level(r, p));
                m &= m - 1;
            }
        }
        (key, h, useful)
    }
}

/// The tile-slack search over a [`LaneResidual`], for every demand up to
/// 65,535: 1-bit lanes for unit demands, 2-bit lanes up to demand 3,
/// 4-bit lanes up to 15 and 16-bit lanes beyond. Branching, scoring and
/// dominance read the support set (coverage counts *chords* with live
/// residual); every bound scales by λ through the residual-weighted
/// ingredients. A tile may be placed repeatedly at successive depths
/// while its branch chord's residual drains. With the memo off its unit
/// node counts are those of the recursive search it replaced;
/// `tests/kernel_proptests.rs` keeps them as data.
///
/// **Canonical keys.** On 1-bit lanes, with a store and effective
/// [`SymmetryMode::Full`], the core keys the memo by the *canonical*
/// (lexicographically smallest) dihedral image of the uncovered set and
/// hands the shared orbit filter the **setwise** prefix stabilizer instead
/// of the pointwise one — the canonical-prefix reduction, in the two
/// places it is sound. Canonical keys need the placed state, so children
/// then probe the store at entry instead of being pre-probed. Everywhere
/// else keys are raw and filtering is pointwise: a multiplicity vector is
/// not a set.
pub(crate) struct LaneCore<'a, const B: u32> {
    s: Stack<'a>,
    r: LaneResidual<'a, B>,
    /// Key the memo canonically and filter setwise (see the type docs).
    canon: bool,
    /// Canonical mode: the placed tile multiset, kept sorted for the
    /// setwise stabilizer test.
    placed_sorted: Vec<u32>,
    /// The sorted images of `placed_sorted` under one group element.
    images: Vec<u32>,
}

impl<'a, const B: u32> LaneCore<'a, B> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        tables: &'a LaneTables<B>,
    ) -> Self {
        debug_assert!(
            spec.max_demand() <= LaneSet::<B>::MAX,
            "demands fit {B}-bit lanes"
        );
        let s = Stack::new(u, spec, budget, gov, requested, store, width_tag(B, false));
        let r = LaneResidual::new(&s, spec, tables);
        let canon = B == 1 && s.store.is_some() && s.orbits.mode == SymmetryMode::Full;
        LaneCore {
            s,
            r,
            canon,
            placed_sorted: Vec::new(),
            images: Vec::new(),
        }
    }

    /// The canonical memo key: the lexicographically smallest dihedral
    /// image of the uncovered set under the spec group, with its hash and
    /// whether it is the raw key. Kept out of line: inlined, the
    /// benchmark's unit instances read 1–5 % slower over three pairs on
    /// a 2-core host, with the same node counts.
    #[inline(never)]
    fn canonical_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        let (raw, hash, _) = self.r.memo_state();
        let keys = self
            .s
            .store
            .expect("canonical mode implies a store")
            .level_keys(1);
        let sym = self.s.orbits.tables.expect("canonical mode implies tables");
        let mut best = raw;
        let mut best_hash = hash;
        let mut elements = self.s.orbits.spec_group & !1;
        while elements != 0 {
            let g = elements.trailing_zeros();
            elements &= elements - 1;
            let mut img = [0u64; KEY_WORDS];
            let mut h = 0u64;
            for c in self.r.d.live.iter() {
                let ic = sym.chord_image(g, c);
                img[(ic / 64) as usize] |= 1u64 << (ic % 64);
                h ^= keys.get(ic, 1);
            }
            if img < best {
                best = img;
                best_hash = h;
            }
        }
        (best, best_hash, best == raw)
    }

    /// The setwise stabilizer of the placed tile multiset inside the
    /// spec group: every pointwise element, plus each element mapping the
    /// multiset onto itself (tested against the sorted placement list —
    /// at most `2n` sorts of a ≤-budget-length vector per node).
    fn setwise_stab(&mut self) -> u64 {
        let o = &self.s.orbits;
        let sym = o.tables.expect("canonical mode implies tables");
        let mut stab = o.pointwise();
        let mut rest = o.spec_group & !stab;
        while rest != 0 {
            let g = rest.trailing_zeros();
            rest &= rest - 1;
            self.images.clear();
            self.images
                .extend(self.placed_sorted.iter().map(|&t| sym.tile_image(g, t)));
            self.images.sort_unstable();
            if self.images == self.placed_sorted {
                stab |= 1u64 << g;
            }
        }
        stab
    }
}

impl<'a, const B: u32> FrameCore<'a> for LaneCore<'a, B> {
    fn stack(&mut self) -> &mut Stack<'a> {
        &mut self.s
    }

    fn satisfied(&self) -> bool {
        self.r.d.live.is_empty()
    }

    fn place(&mut self, t: u32) {
        if self.canon {
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            self.placed_sorted.insert(pos, t);
        }
        self.r.place(t, self.s.depth());
        self.s.push(t);
    }

    fn unplace(&mut self) {
        let t = self.s.pop();
        self.r.unplace(t, self.s.depth());
        if self.canon {
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            debug_assert_eq!(self.placed_sorted.get(pos), Some(&t));
            self.placed_sorted.remove(pos);
        }
    }

    fn refuted(&mut self) -> bool {
        self.s.refutes(&mut self.r.d)
    }

    /// The packed lane words, or (canonical mode) the lexicographically
    /// smallest dihedral image of the uncovered set.
    fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        if self.canon {
            self.canonical_state()
        } else {
            self.r.memo_state()
        }
    }

    fn memo_rem(&self) -> u32 {
        self.s.tiles_left()
    }

    /// Canonical keys need the placed state, so canonical mode never
    /// pre-probes.
    fn child_state(&self, store: &MemoStore, t: u32) -> Option<MemoEntry> {
        if self.canon {
            return None;
        }
        let (key, hash, _) = self.r.child::<false>(store, t);
        Some((hash, key, self.s.tiles_left().saturating_sub(1)))
    }

    /// Branches on the highest-priority support chord.
    fn stage(&mut self, entry: Option<MemoEntry>) {
        let branch = self
            .r
            .d
            .live
            .first_set()
            .expect("unsatisfied demand exists");
        // The setwise upgrade is part of the canonical machinery: with
        // the memo off, `Full` filters by the pointwise stabilizer alone,
        // so the memo-off node counts stay those kept as data.
        let setwise = self.canon.then(|| self.setwise_stab());
        let cands = self.s.u.candidates_pri(branch);
        self.s
            .stage(&self.r.d.live, branch, cands, u64::MAX, setwise, entry);
    }

    fn probes_at_entry(&self) -> bool {
        self.canon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::RunLimits;
    use cyclecover_ring::Ring;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The plain definition of a node's candidate list before the orbit
    /// filter: score every candidate of `branch` against `live`, drop the
    /// overdrawn ones (counted as pruned), stable-sort by coverage
    /// (descending) then waste, and drop each candidate whose live
    /// coverage is a subset of an earlier one's (counted as dominated).
    fn plain_stage(
        u: &TileUniverse,
        live: &ChordSet,
        branch: u32,
        max_waste: u64,
    ) -> (Vec<u32>, u64, u64) {
        let n = u.ring().n();
        let mut scored = Vec::new();
        let mut pruned = 0;
        for &t in u.candidates_pri(branch) {
            let mut mask = ChordSet::empty(u.num_chords());
            u.tile_mask(t).intersection_into(live, &mut mask);
            let useful: u32 = mask.iter().map(|c| u.dist_of_pri(c)).sum();
            let waste = n - useful.min(n);
            if waste as u64 > max_waste {
                pruned += 1;
            } else {
                scored.push((t, mask.count(), waste, mask));
            }
        }
        scored.sort_by_key(|s| (std::cmp::Reverse(s.1), s.2));
        let mut kept = Vec::new();
        let mut dominated = 0;
        for (i, (t, _, _, mask)) in scored.iter().enumerate() {
            if scored[..i].iter().any(|prior| mask.is_subset_of(&prior.3)) {
                dominated += 1;
            } else {
                kept.push(*t);
            }
        }
        (kept, pruned, dominated)
    }

    /// `Stack::stage` (with its single-coverage shortcut) against
    /// [`plain_stage`] followed by the orbit filter, on random live sets,
    /// branch chords, waste budgets and placed prefixes: the same ordered
    /// list and the same counter increments. A third of the live sets
    /// leave the branch chord as the only chord its candidates can cover,
    /// and the finite waste budgets straddle that single candidate waste
    /// `n − dist(branch)`, so the shortcut's overdrawn, dominated and
    /// sole-survivor outcomes all occur. Half the finite budgets offer
    /// only the partition kernel's input, the candidates whose static
    /// waste fits, in `(static waste, tile)` order.
    #[test]
    fn stage_matches_plain_scoring_sort_and_dominance() {
        let mut rng = StdRng::seed_from_u64(17);
        let lim = RunLimits::nodes_only(u64::MAX);
        let (mut singles_only, mut overdrawn_singles, mut prefixes) = (0, 0, 0);
        for (n, max_len, rounds) in [
            (8, 8, 300),
            (10, 10, 300),
            (12, 12, 150),
            (14, 4, 300),
            (17, 4, 300),
        ] {
            let u = TileUniverse::new(Ring::new(n), max_len);
            let m = u.num_chords();
            let spec = CoverSpec::complete(n);
            for round in 0..rounds {
                let mode = [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full][round % 3];
                let mut fast = Stack::new(&u, &spec, 64, Governor::new(&lim), mode, None, 1);
                let mut plain = Stack::new(&u, &spec, 64, Governor::new(&lim), mode, None, 1);
                for _ in 0..rng.gen_range(0..3u32) {
                    let t = rng.gen_range(0..u.len() as u32);
                    fast.push(t);
                    plain.push(t);
                }
                let density = rng.gen_range(1..=9u32);
                let mut live = ChordSet::empty(m);
                for c in 0..m {
                    if rng.gen_range(0..10u32) < density {
                        live.insert(c);
                    }
                }
                let branch = rng.gen_range(0..m);
                if rng.gen_range(0..3u32) == 0 {
                    for &t in u.candidates_pri(branch) {
                        live.subtract(u.tile_mask(t));
                    }
                    singles_only += 1;
                }
                live.insert(branch);
                let single_waste = (n - u.dist_of_pri(branch)) as u64;
                let max_waste = match rng.gen_range(0..3u32) {
                    0 => u64::MAX,
                    1 => single_waste - 1,
                    _ => rng.gen_range(0..n as u64),
                };
                overdrawn_singles += (max_waste < single_waste) as u32;
                let mut offered = u.candidates_pri(branch).to_vec();
                if max_waste != u64::MAX && rng.gen_range(0..2u32) == 0 {
                    offered.retain(|&t| u.tile_waste(t) as u64 <= max_waste);
                    offered.sort_by_key(|&t| (u.tile_waste(t), t));
                    prefixes += 1;
                }

                fast.stage(&live, branch, &offered, max_waste, None, None);
                let (mut expected, pruned, dominated) = plain_stage(&u, &live, branch, max_waste);
                let depth = plain.depth();
                plain
                    .orbits
                    .filter(depth, branch, None, &mut expected, &mut plain.stats);
                let ctx = format!("n = {n}, round {round}");
                assert_eq!(fast.frames[fast.depth()].cands, expected, "{ctx}");
                assert_eq!(fast.stats.pruned, pruned, "{ctx}");
                assert_eq!(fast.stats.dominated, dominated, "{ctx}");
                assert_eq!(fast.stats.sym_pruned, plain.stats.sym_pruned, "{ctx}");
                assert_eq!(fast.stats.canon_pruned, plain.stats.canon_pruned, "{ctx}");
                assert_eq!(fast.stats.sym_factor, plain.stats.sym_factor, "{ctx}");
            }
        }
        assert!(singles_only > 0 && overdrawn_singles > 0 && prefixes > 0);
    }

    /// Random place/unplace walks over a residual on `B`-bit lanes
    /// (λ = 1 on 1-bit lanes is the unit spec): at every step the running
    /// hash equals the store's rehash of the packed key (the path a
    /// growing shard takes), and each candidate's simulated child state
    /// equals the state placing it reaches.
    fn walk_lane_hashes<const B: u32>(n: u32, lambda: u32, seed: u64) {
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let spec = CoverSpec::lambda_fold(n, lambda);
        let store = MemoStore::new(&u, 1 << 20).unwrap();
        let tag = width_tag(B, false);
        assert!(store.keys_fit(tag), "n = {n} keys fit at {B} bits");
        let lim = RunLimits::nodes_only(u64::MAX);
        let s = Stack::new(
            &u,
            &spec,
            64,
            Governor::new(&lim),
            SymmetryMode::Off,
            Some(&store),
            tag,
        );
        let tables = LaneTables::<B>::build(&u);
        let mut r = LaneResidual::new(&s, &spec, &tables);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut placed = Vec::new();
        for step in 0..600 {
            let ctx = format!("{B}-bit lanes, n = {n}, λ = {lambda}, step {step}");
            let (key, hash, raw) = r.memo_state();
            assert!(raw);
            assert_eq!(store.hash_of_state(key, tag), hash, "{ctx}");
            if placed.is_empty() || (placed.len() < 40 && rng.gen_range(0..3u32) > 0) {
                let t = rng.gen_range(0..u.len() as u32);
                let (child_key, child_hash, useful) = r.child::<true>(&store, t);
                assert_eq!(r.place(t, placed.len()), useful, "{ctx}");
                placed.push(t);
                let (key, hash, _) = r.memo_state();
                assert_eq!((child_key, child_hash), (key, hash), "{ctx}");
            } else {
                let t = placed.pop().unwrap();
                r.unplace(t, placed.len());
            }
        }
        while let Some(t) = placed.pop() {
            r.unplace(t, placed.len());
        }
        let fresh = LaneResidual::new(&s, &spec, &tables);
        assert_eq!(r.memo_state(), fresh.memo_state(), "the walk unwound");
    }

    #[test]
    fn running_lane_hash_matches_the_rehash() {
        walk_lane_hashes::<1>(10, 1, 5);
        walk_lane_hashes::<1>(12, 1, 6);
        walk_lane_hashes::<2>(12, 3, 1);
        walk_lane_hashes::<4>(7, 4, 2);
        walk_lane_hashes::<4>(9, 9, 3);
        walk_lane_hashes::<4>(11, 15, 4);
    }

    /// The arena against the plain definition: a candidate is dropped
    /// when its live coverage is a subset of an earlier candidate's. One
    /// arena serves lists of every length over 1-, 2- and 3-word chord
    /// sets, so slots left over from longer lists, and tiles whose word
    /// spans differ from their neighbours', are both exercised.
    #[test]
    fn dom_arena_matches_pairwise_subset_filter() {
        let mut rng = StdRng::seed_from_u64(14);
        for (n, max_len) in [(8, 8), (12, 4), (14, 4), (17, 4)] {
            let u = TileUniverse::new(Ring::new(n), max_len);
            let m = u.num_chords();
            let mut arena = DomArena::new(&u);
            let mut cands = Vec::new();
            for _ in 0..400 {
                let density = rng.gen_range(1..=9u32);
                let mut live = ChordSet::empty(m);
                for c in 0..m {
                    if rng.gen_range(0..10u32) < density {
                        live.insert(c);
                    }
                }
                let scored: Vec<u64> = (0..rng.gen_range(0..40usize))
                    .map(|_| rng.gen_range(0..u.len() as u32))
                    .filter(|&t| u.tile_mask(t).intersects(&live))
                    .map(u64::from)
                    .collect();
                cands.clear();
                let dropped = arena.filter(&u, &live, &scored, &mut cands);

                let mut masks: Vec<ChordSet> = Vec::new();
                let mut expected = Vec::new();
                for t in scored.iter().map(|&k| k as u32) {
                    let mut mask = ChordSet::empty(m);
                    u.tile_mask(t).intersection_into(&live, &mut mask);
                    if !masks.iter().any(|prior| mask.is_subset_of(prior)) {
                        expected.push(t);
                    }
                    masks.push(mask);
                }
                assert_eq!(cands, expected, "n = {n}");
                assert_eq!(dropped as usize, scored.len() - expected.len(), "n = {n}");
            }
        }
    }
}
