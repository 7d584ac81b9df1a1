//! Branch & bound minimum DRC covering: the search vocabulary, the one
//! route rule, and the recursive reference search.
//!
//! Exact search over a [`TileUniverse`]: find a covering of the demanded
//! requests by at most `budget` tiles, or prove none exists. Iterated over
//! increasing budgets this computes `ρ(n)` exactly — the optimality
//! certificates `certify_optimal` tabulates (E4) — and, with a
//! [`CoverSpec`], the λ-fold and partial-instance variants.
//!
//! Search design:
//! * branch on the unsatisfied chord with the highest priority (diameter
//!   chords first, then by decreasing distance) — these are the scarcest
//!   resources (a DRC cycle can carry at most one diameter);
//! * candidates at a branch are the tiles covering that chord, ordered by
//!   how many still-unsatisfied chords they cover (ties: less wasted
//!   capacity); candidates covering nothing new are skipped outright;
//! * prune with `used + max(⌈remaining_dist / n⌉, remaining_diameters,
//!   max_v ⌈uncovered_degree(v)/2⌉) > budget` — the capacity, diameter and
//!   vertex-degree lower bounds restricted to the unsatisfied demand (the
//!   multiplicity reference kernel skips the vertex bound);
//! * optional node limit for bounded experiments.
//!
//! # Routes
//!
//! One rule picks the search context of every budget probe, and the
//! probe runs as one sequential search on it (the waste slack is
//! `budget·n − λ·Σd(e)`):
//!
//! | spec | waste slack | search context |
//! |------|-------------|----------------|
//! | unit demands | any | the iterative bitset core |
//! | demands ≤ 15 | in `[0, n)` | the slack-budgeted partition kernel ([`crate::dlx`]) |
//! | demands ≤ 15 | otherwise | the lane core |
//! | demands > 15 | any | the recursive multiplicity kernel |
//!
//! The lane core and the partition kernel pack residual demand into
//! 2-bit lanes when every demand is ≤ 3 and into 4-bit lanes up to 15.
//!
//! The partition route is recorded in [`Stats::partition_probes`]. Unit
//! probes never take it: their memo-off node counts are pinned bit for
//! bit to the recursive reference. A negative slack (budget below
//! capacity) stays on the lane core, whose root bound refutes in one
//! node.
//!
//! The iterative cores (in `crate::search_core` and [`crate::dlx`]) run
//! an explicit stack over reused arenas with incrementally maintained
//! bound ingredients and the optional **residual-state dominance memo**
//! ([`MemoStore`], [`DEFAULT_MEMO_BYTES`] unless the request sets a
//! budget), which prunes nodes reaching an
//! already-exhausted residual state with an equal-or-worse budget. The
//! unit core keeps its coverage bookkeeping in word-packed [`ChordSet`]s
//! in the universe's *priority* chord order: placing a tile is two
//! AND/ANDNOT word sweeps, scoring a candidate an intersection-popcount,
//! and selecting the branch chord `trailing_zeros` on the uncovered set.
//! The universe precomputes each tile's chord bitmask, load, and
//! diameter count once ([`TileUniverse::tile_mask`] and friends), so
//! search nodes never touch ring arithmetic.
//!
//! Every core applies **dominance pruning** at every node but the
//! multiplicity kernel: a candidate whose useful-coverage mask is a
//! subset of an earlier sibling's is skipped — replacing it by the
//! dominator in any covering yields a covering of the same size, so
//! completeness is preserved while sibling subtrees that only permute
//! coverage are cut. Dominance at full depth is the decisive pruning
//! rule: the ρ(10) witness search needs 13.4M nodes with it vs 225M
//! without.
//!
//! Every probe answers `(Outcome, Stats)`: the verdict, carrying the
//! limit that stopped an inconclusive search, and the counters in the
//! solver's one [`Stats`] type, which a deepening sweep sums probe by
//! probe into its [`crate::api::Solution`].
//!
//! # The recursive reference
//!
//! The recursive search here is kept as the differential reference
//! ([`budget_search_reference`]): on unit specs its bitset kernel is what
//! the iterative core reproduces *to the node* with the memo off, and its
//! multiplicity kernel (plain per-chord counters, still driven by the
//! precomputed chord index lists) serves demands above 15 and the frozen
//! `legacy` engine.
//!
//! # Symmetry reduction
//!
//! Under [`SymmetryMode::Root`] (the engine default) the root branch only
//! explores one candidate per orbit of the branch chord's dihedral
//! stabilizer (order 4 at the priority diameter chord of an even complete
//! instance), and prefix bounds are strengthened by the greedy dual
//! [`diameter_slack_bound`]; [`SymmetryMode::Full`] extends the orbit
//! filtering to every depth under the incrementally maintained pointwise
//! stabilizer of the placed prefix. [`SymmetryMode::Off`] reproduces the
//! pre-symmetry search node for node — `bench_snapshot` uses it to track
//! the reduction factor.

use crate::api::{CancelToken, Exhaustion, Stats};
use crate::bitset::{ChordSet, LaneSet};
use crate::dlx::PartitionCore;
use crate::lower_bound::{
    combinatorial_lower_bound, diameter_slack_bound, parity_join_bound, weighted_demand_bound,
};
pub use crate::memo::{MemoStore, DEFAULT_MEMO_BYTES};
use crate::search_core::{self, Governor, IterCore, LaneCore, LaneTables};
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use cyclecover_graph::Edge;
use std::time::Instant;

/// How much dihedral symmetry reduction a search applies. `C_n`'s
/// automorphism group is the full dihedral group `D_n`, and a complete (or
/// λ-fold) demand spec is invariant under all `2n` elements — so without
/// reduction the search explores up to `2n` mirror images of every prefix.
///
/// * [`SymmetryMode::Off`] — the exact PR-1 baseline search, bit for bit:
///   no orbit filtering *and* no [`diameter_slack_bound`] strengthening.
///   `bench_snapshot` runs this mode to reproduce historical node counts
///   (BENCH_1.json) unchanged.
/// * [`SymmetryMode::Root`] — the default for exact engines: the root
///   branch explores one candidate per orbit of the stabilizer of the
///   branch chord inside the spec-preserving subgroup (order 4 at the
///   priority diameter chord of an even complete instance), and prefix
///   bounds include the diameter-slack dual ascent.
/// * [`SymmetryMode::Full`] — additionally filters every deeper branch by
///   the pointwise stabilizer of the already-placed prefix, maintained
///   incrementally as a subgroup bitmask (`stab(P ∪ {t}) = stab(P) ∩
///   stab(t)`, one AND per placement). The stabilizer usually collapses
///   to the identity within a tile or two, after which the check is a
///   single word test per node — root-plus-depth-1 reduction in practice,
///   at every depth in principle.
///
/// Soundness of the filter: a kept candidate `t` and a skipped sibling
/// `h·t` (with `h` fixing the spec, every placed tile, and the branch
/// chord) head subtrees that are exact mirror images — `h` maps any
/// covering extending the prefix through `h·t` to one of equal size
/// through `t`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SymmetryMode {
    /// No symmetry reduction, no strengthened bound (the measured
    /// pre-symmetry baseline).
    Off,
    /// Orbit-representative filtering at the root branch only, plus the
    /// diameter-slack prefix bound.
    #[default]
    Root,
    /// Prefix-stabilizer orbit filtering at every depth, plus the
    /// diameter-slack prefix bound.
    Full,
}

/// Externally-imposed resource limits on one budgeted search: a node
/// budget, an optional wall-clock deadline, and an optional shared
/// cancellation flag. Built by the [`crate::api`] engines from a
/// [`crate::api::SolveRequest`]; the forced-route entries below fill in
/// node-budget-only limits.
#[derive(Clone, Default)]
pub(crate) struct RunLimits {
    /// Maximum search-tree nodes to expand (`u64::MAX` = unlimited).
    pub max_nodes: u64,
    /// Absolute wall-clock instant after which the search aborts
    /// (checked every 4096 expanded nodes).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation (checked every 4096 expanded nodes).
    pub cancel: Option<CancelToken>,
}

impl RunLimits {
    /// Node-budget-only limits.
    pub(crate) fn nodes_only(max_nodes: u64) -> Self {
        RunLimits {
            max_nodes,
            deadline: None,
            cancel: None,
        }
    }
}

/// What must be covered: per-request multiplicities.
#[derive(Clone, Debug)]
pub struct CoverSpec {
    /// `demand[e.dense_index(n)]` = how many times request `e` must be
    /// covered (0 = don't care).
    pub demand: Vec<u32>,
}

impl CoverSpec {
    /// The standard spec: every request of `K_n` once.
    pub fn complete(n: u32) -> Self {
        CoverSpec {
            demand: vec![1; n as usize * (n as usize - 1) / 2],
        }
    }

    /// λ-fold: every request `lambda` times.
    pub fn lambda_fold(n: u32, lambda: u32) -> Self {
        CoverSpec {
            demand: vec![lambda; n as usize * (n as usize - 1) / 2],
        }
    }

    /// Cover exactly the given requests once (a partial instance).
    pub fn subset(n: u32, requests: &[Edge]) -> Self {
        let mut demand = vec![0; n as usize * (n as usize - 1) / 2];
        for e in requests {
            demand[e.dense_index(n as usize)] = 1;
        }
        CoverSpec { demand }
    }

    /// Total residual demand weighted by request distance, divided by the
    /// per-cycle capacity `n` — the capacity bound for this spec. Delegates
    /// to [`weighted_demand_bound`], the single home of the
    /// sum-of-distances logic.
    pub fn capacity_lower_bound(&self, ring: cyclecover_ring::Ring) -> u64 {
        weighted_demand_bound(ring, &self.demand)
    }

    /// Whether every demand is ≤ 1 (the bitset kernel applies).
    pub fn is_unit(&self) -> bool {
        self.demand.iter().all(|&d| d <= 1)
    }

    /// The largest per-request multiplicity. ≤ 1 means the unit bitset
    /// machinery applies; ≤ 3 fits the packed 2-bit lanes and ≤ 15 the
    /// 4-bit lanes of the lane and partition cores; larger demands fall
    /// back to the recursive multiplicity kernel.
    pub fn max_demand(&self) -> u32 {
        self.demand.iter().copied().max().unwrap_or(0)
    }
}

/// Result of a bounded covering search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A covering within budget was found (tile indices into the universe).
    Feasible(Vec<u32>),
    /// Exhaustively proved: no covering within the budget exists.
    Infeasible,
    /// A limit stopped the search first — no conclusion.
    Exhausted(Exhaustion),
}

/// Coverage bookkeeping strategy: all chord indices are in the universe's
/// *priority* space.
trait Kernel {
    /// Builds the kernel's initial state for `spec`.
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self;

    /// Whether every demand is satisfied.
    fn satisfied(&self) -> bool;

    /// Records tile `t` as placed.
    fn place(&mut self, u: &TileUniverse, t: u32);

    /// Reverts the most recent [`Kernel::place`] (LIFO).
    fn unplace(&mut self, u: &TileUniverse, t: u32);

    /// `(units of unsatisfied demand tile t would cover, wasted capacity)`.
    fn new_coverage(&self, u: &TileUniverse, t: u32) -> (u32, u32);

    /// Writes tile `t`'s useful-coverage mask into `out` and returns
    /// `true`, or returns `false` if the kernel cannot express it (then
    /// dominance pruning is skipped).
    fn useful_mask(&self, u: &TileUniverse, t: u32, out: &mut ChordSet) -> bool;

    /// Highest-priority unsatisfied chord (priority index).
    fn branch_chord(&self) -> Option<u32>;

    /// Lower bound on additional tiles needed for the unsatisfied demand.
    fn remaining_lb(&self, u: &TileUniverse) -> u64;

    /// A stronger (and costlier) bound, consulted only at nodes that
    /// survive [`Kernel::remaining_lb`] and only when the search runs with
    /// [`SymmetryMode::Root`]/[`SymmetryMode::Full`]; may return early
    /// once the bound exceeds `stop_above`. Kernels without one return 0.
    fn strong_lb(&mut self, _u: &TileUniverse, _stop_above: u64) -> u64 {
        0
    }

    /// Whether nodes at `depth` placed tiles score/sort/dominance-filter
    /// their candidates; otherwise the static universe order is used. With
    /// word-ops scoring this pays at every depth (measured: the ρ(10)
    /// witness search drops from 225M to 13.4M nodes); the legacy kernel
    /// keeps the original depth-4 cutoff as the faithful pre-bitset
    /// reference.
    fn sorts_at(depth: usize) -> bool;

    /// Whether sorted nodes drop candidates covering nothing new. Sound
    /// for any kernel (a covering using such a tile stays a covering
    /// without it), but the legacy kernel keeps them — the seed explored
    /// them, and the legacy path is the measured "before".
    const PRUNE_ZERO_COVERAGE: bool;
}

/// Word-packed kernel for unit demands: the uncovered set is one bitset,
/// place/unplace are word sweeps with a LIFO undo stack of "newly covered"
/// masks.
struct BitsetKernel {
    /// Still-unsatisfied chords (priority space).
    uncovered: ChordSet,
    /// `undo[0..depth]`: per placed tile, the chords it newly covered.
    undo: Vec<ChordSet>,
    depth: usize,
    rem_dist: u64,
    rem_diam: u64,
    /// The diameter-slack bound's per-diameter witness tiles.
    witness: Vec<u32>,
}

impl Kernel for BitsetKernel {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        debug_assert!(spec.is_unit(), "bitset kernel requires unit demands");
        let mut uncovered = ChordSet::empty(m);
        let mut rem_dist = 0u64;
        let mut rem_diam = 0u64;
        for dense in 0..m {
            if spec.demand[dense as usize] > 0 {
                let pri = u.pri_of_dense(dense);
                uncovered.insert(pri);
                rem_dist += u.dist_of_pri(pri) as u64;
                rem_diam += (pri < u.diam_chords()) as u64;
            }
        }
        BitsetKernel {
            uncovered,
            undo: Vec::new(),
            depth: 0,
            rem_dist,
            rem_diam,
            witness: vec![u32::MAX; u.diam_chords() as usize],
        }
    }

    #[inline]
    fn satisfied(&self) -> bool {
        self.uncovered.is_empty()
    }

    fn place(&mut self, u: &TileUniverse, t: u32) {
        if self.undo.len() == self.depth {
            self.undo.push(ChordSet::empty(self.uncovered.len()));
        }
        let newly = &mut self.undo[self.depth];
        u.tile_mask(t).intersection_into(&self.uncovered, newly);
        self.uncovered.subtract(newly);
        let diam = u.diam_chords();
        for i in newly.iter() {
            self.rem_dist -= u.dist_of_pri(i) as u64;
            self.rem_diam -= (i < diam) as u64;
        }
        self.depth += 1;
    }

    fn unplace(&mut self, u: &TileUniverse, _t: u32) {
        debug_assert!(self.depth > 0, "unplace without place");
        self.depth -= 1;
        let newly = &self.undo[self.depth];
        let diam = u.diam_chords();
        for i in newly.iter() {
            self.rem_dist += u.dist_of_pri(i) as u64;
            self.rem_diam += (i < diam) as u64;
        }
        self.uncovered.union_with(newly);
    }

    #[inline]
    fn new_coverage(&self, u: &TileUniverse, t: u32) -> (u32, u32) {
        let n = u.ring().n();
        let mut cov = 0u32;
        let mut useful = 0u32;
        for (wi, (a, b)) in u
            .tile_mask(t)
            .words()
            .iter()
            .zip(self.uncovered.words())
            .enumerate()
        {
            let mut w = a & b;
            cov += w.count_ones();
            while w != 0 {
                let i = (wi as u32) * 64 + w.trailing_zeros();
                useful += u.dist_of_pri(i);
                w &= w - 1;
            }
        }
        (cov, n - useful.min(n))
    }

    #[inline]
    fn useful_mask(&self, u: &TileUniverse, t: u32, out: &mut ChordSet) -> bool {
        u.tile_mask(t).intersection_into(&self.uncovered, out);
        true
    }

    #[inline]
    fn branch_chord(&self) -> Option<u32> {
        self.uncovered.first_set()
    }

    fn sorts_at(_depth: usize) -> bool {
        true
    }

    const PRUNE_ZERO_COVERAGE: bool = true;

    fn remaining_lb(&self, u: &TileUniverse) -> u64 {
        let n = u.ring().n();
        let mut lb = self.rem_dist.div_ceil(n as u64).max(self.rem_diam);
        // Vertex-degree bound: a cycle visits a vertex at most once, so any
        // tile covers at most 2 uncovered chords incident to it — the
        // unsatisfied demand at any single vertex needs ⌈deg/2⌉ more tiles.
        for v in 0..n {
            let deg = u.vertex_mask(v).intersection_count(&self.uncovered) as u64;
            lb = lb.max(deg.div_ceil(2));
        }
        lb
    }

    fn strong_lb(&mut self, u: &TileUniverse, stop_above: u64) -> u64 {
        // Cheap parity (T-join) term first — it alone settles the
        // capacity-tight even refutations — then the pricier
        // diameter-slack dual ascent only if the node is still alive.
        let parity = parity_join_bound(u, &self.uncovered, self.rem_dist);
        if parity > stop_above {
            return parity;
        }
        let witness = &mut self.witness;
        diameter_slack_bound(u, &self.uncovered, self.rem_dist, stop_above, witness).max(parity)
    }
}

/// Multiplicity kernel for λ-fold specs (demand > 1): per-chord counters,
/// driven by the universe's precomputed chord index lists.
struct MultiKernel {
    /// priority index → cover multiplicity so far.
    covered: Vec<u32>,
    /// priority index → required multiplicity.
    demand: Vec<u32>,
    /// Number of (chord, multiplicity) units still unsatisfied.
    unsatisfied: u64,
    rem_dist: u64,
    rem_diam: u64,
}

impl Kernel for MultiKernel {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        let mut demand = vec![0u32; m as usize];
        let mut unsatisfied = 0u64;
        let mut rem_dist = 0u64;
        let mut rem_diam = 0u64;
        for pri in 0..m {
            let need = spec.demand[u.dense_of_pri(pri) as usize];
            demand[pri as usize] = need;
            unsatisfied += need as u64;
            rem_dist += need as u64 * u.dist_of_pri(pri) as u64;
            if pri < u.diam_chords() {
                rem_diam += need as u64;
            }
        }
        MultiKernel {
            covered: vec![0; m as usize],
            demand,
            unsatisfied,
            rem_dist,
            rem_diam,
        }
    }

    #[inline]
    fn satisfied(&self) -> bool {
        self.unsatisfied == 0
    }

    fn place(&mut self, u: &TileUniverse, t: u32) {
        let diam = u.diam_chords();
        for &i in u.tile_chords(t) {
            let i = i as usize;
            if self.covered[i] < self.demand[i] {
                self.unsatisfied -= 1;
                self.rem_dist -= u.dist_of_pri(i as u32) as u64;
                self.rem_diam -= ((i as u32) < diam) as u64;
            }
            self.covered[i] += 1;
        }
    }

    fn unplace(&mut self, u: &TileUniverse, t: u32) {
        let diam = u.diam_chords();
        for &i in u.tile_chords(t) {
            let i = i as usize;
            self.covered[i] -= 1;
            if self.covered[i] < self.demand[i] {
                self.unsatisfied += 1;
                self.rem_dist += u.dist_of_pri(i as u32) as u64;
                self.rem_diam += ((i as u32) < diam) as u64;
            }
        }
    }

    #[inline]
    fn new_coverage(&self, u: &TileUniverse, t: u32) -> (u32, u32) {
        let n = u.ring().n();
        let mut cov = 0u32;
        let mut useful = 0u32;
        for &i in u.tile_chords(t) {
            if self.covered[i as usize] < self.demand[i as usize] {
                cov += 1;
                useful += u.dist_of_pri(i);
            }
        }
        (cov, n - useful.min(n))
    }

    fn useful_mask(&self, _u: &TileUniverse, _t: u32, _out: &mut ChordSet) -> bool {
        // Dominance by chord subset is not sound under multiplicities (two
        // placements of the same tile differ), so the multi kernel opts out.
        false
    }

    #[inline]
    fn branch_chord(&self) -> Option<u32> {
        (0..self.covered.len() as u32).find(|&i| self.covered[i as usize] < self.demand[i as usize])
    }

    fn sorts_at(depth: usize) -> bool {
        depth <= 4
    }

    const PRUNE_ZERO_COVERAGE: bool = false;

    #[inline]
    fn remaining_lb(&self, u: &TileUniverse) -> u64 {
        // Capacity and diameter bounds only — this is the pre-bitset
        // reference path, kept algorithmically identical to the seed.
        self.rem_dist
            .div_ceil(u.ring().n() as u64)
            .max(self.rem_diam)
    }
}

struct SearchCtx<'a, K: Kernel> {
    u: &'a TileUniverse,
    kernel: K,
    budget: u32,
    stats: Stats,
    chosen: Vec<u32>,
    /// The node budget, cancellation and the deadline — the frame
    /// cores' checks, in the same order.
    gov: Governor<'a>,
    /// Scratch masks reused across dominance passes (index = candidate
    /// position within the current node).
    dom_scratch: Vec<ChordSet>,
    /// Dihedral reduction level (degraded to `Off` when the tables are
    /// unavailable or the spec has no symmetry).
    mode: SymmetryMode,
    /// Whether the strong (diameter-slack) prefix bound is consulted —
    /// the requested mode was not `Off`, independent of table
    /// availability.
    strong: bool,
    /// The dihedral tables, when `mode != Off`.
    sym: Option<&'a DihedralTables>,
    /// Subgroup preserving the spec's initial demand (bitmask).
    spec_group: u64,
    /// `Full` mode: `stab_stack[d]` = pointwise stabilizer of the first
    /// `d` placed tiles intersected with `spec_group` (seeded with
    /// `spec_group` at depth 0).
    stab_stack: Vec<u64>,
    /// Stamp array over tile indices backing the per-branch "already kept
    /// a candidate of this orbit" test (lazily sized).
    sym_seen: Vec<u64>,
    sym_stamp: u64,
}

/// Resolves a *requested* symmetry level into the effective one: `Off`
/// when the tables are unavailable (`2n > 64`) or the spec-preserving
/// subgroup is only the identity; otherwise the requested mode with the
/// tables and the subgroup mask. Shared by the recursive context and
/// the iterative cores — the differential node-count gate relies on them
/// degrading identically.
pub(crate) fn resolve_symmetry<'a>(
    u: &'a TileUniverse,
    spec: &CoverSpec,
    requested: SymmetryMode,
) -> (SymmetryMode, Option<&'a DihedralTables>, u64) {
    if requested == SymmetryMode::Off {
        return (SymmetryMode::Off, None, 0);
    }
    match u.dihedral() {
        Some(tables) => {
            let group = tables.demand_preserving(|pri| spec.demand[u.dense_of_pri(pri) as usize]);
            if group & !1 == 0 {
                // Only the identity: nothing to reduce by.
                (SymmetryMode::Off, None, 0)
            } else {
                (requested, Some(tables), group)
            }
        }
        None => (SymmetryMode::Off, None, 0),
    }
}

/// The most tiles [`SearchCtx::dfs`] places on one path: a node this
/// deep that survives its bounds stops the probe with
/// [`Exhaustion::EngineLimit`] instead of branching. The recursion takes
/// one stack frame per placed tile, and 4,096 of them fit in a 2 MiB
/// thread stack, the default for a spawned thread. At n = 5 this
/// certifies λ ≤ 1,365 (a 4,095-tile witness).
const MAX_DEPTH: usize = 4096;

impl<'a, K: Kernel> SearchCtx<'a, K> {
    fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
    ) -> Self {
        let strong = requested != SymmetryMode::Off;
        let (mode, sym, spec_group) = resolve_symmetry(u, spec, requested);
        SearchCtx {
            u,
            kernel: K::new(u, spec),
            budget,
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            chosen: Vec::new(),
            gov,
            // Sized once from the longest candidate list any branch chord
            // can present — no node ever allocates a scratch mask
            // mid-search (the old growth loop built full-width empty
            // `ChordSet`s from inside `sorted_candidates`).
            dom_scratch: (0..u.max_candidates())
                .map(|_| ChordSet::empty(u.num_chords()))
                .collect(),
            mode,
            strong,
            sym,
            spec_group,
            stab_stack: if mode == SymmetryMode::Full {
                vec![spec_group]
            } else {
                Vec::new()
            },
            sym_seen: Vec::new(),
            sym_stamp: 0,
        }
    }

    #[inline]
    fn place(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let top = *self.stab_stack.last().expect("stab stack seeded");
            let stab = self.sym.expect("tables exist in Full mode").tile_stab(t);
            self.stab_stack.push(top & stab);
        }
        self.kernel.place(self.u, t);
        self.chosen.push(t);
    }

    #[inline]
    fn unplace(&mut self, t: u32) {
        debug_assert_eq!(self.chosen.last(), Some(&t));
        self.chosen.pop();
        self.kernel.unplace(self.u, t);
        if self.mode == SymmetryMode::Full {
            self.stab_stack.pop();
        }
    }

    /// Drops candidates whose subtree mirrors an earlier sibling's: a
    /// candidate is skipped when some symmetry `h` — preserving the spec,
    /// every placed tile, and the branch chord — maps it onto an
    /// already-kept candidate. `Root` mode applies this at the empty
    /// prefix only; `Full` mode at every node, under the incrementally
    /// maintained prefix stabilizer.
    fn filter_symmetric(&mut self, branch: u32, cands: Vec<u32>) -> Vec<u32> {
        let Some(sym) = self.sym else { return cands };
        let group = match self.mode {
            SymmetryMode::Off => return cands,
            SymmetryMode::Root => {
                if !self.chosen.is_empty() {
                    return cands;
                }
                self.spec_group
            }
            SymmetryMode::Full => *self.stab_stack.last().expect("stab stack seeded"),
        };
        let filter = group & sym.chord_stab(branch);
        if self.chosen.is_empty() {
            self.stats.sym_factor = self.stats.sym_factor.max(filter.count_ones());
        }
        if filter & !1 == 0 {
            // Identity only: every orbit is a singleton.
            return cands;
        }
        if self.sym_seen.len() < sym.num_tiles() as usize {
            self.sym_seen.resize(sym.num_tiles() as usize, 0);
        }
        self.sym_stamp += 1;
        let stamp = self.sym_stamp;
        let mut kept = Vec::with_capacity(cands.len());
        for t in cands {
            let mut elements = filter & !1;
            let mut mirrored = false;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && self.sym_seen[image as usize] == stamp {
                    mirrored = true;
                    break;
                }
            }
            if mirrored {
                self.stats.sym_pruned += 1;
            } else {
                self.sym_seen[t as usize] = stamp;
                kept.push(t);
            }
        }
        kept
    }

    /// Scored, sorted, dominance-filtered candidates for the branch chord.
    /// Candidates covering nothing new are dropped (a covering using one
    /// stays a covering without it, so completeness is preserved).
    fn sorted_candidates(&mut self, branch: u32) -> Vec<u32> {
        let cands = self.u.candidates_pri(branch);
        let mut scored: Vec<(u32, u32, u32)> = Vec::with_capacity(cands.len());
        for &t in cands {
            let (cov, waste) = self.kernel.new_coverage(self.u, t);
            if cov > 0 || !K::PRUNE_ZERO_COVERAGE {
                scored.push((t, cov, waste));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));

        // Dominance: drop a candidate whose useful coverage is a subset of
        // an earlier one's. Sorting put higher coverage first, so any
        // strict dominator precedes the dominated candidate; for equal
        // masks the first occurrence survives. Transitivity makes
        // comparing against dropped earlier candidates safe.
        let c = scored.len();
        debug_assert!(
            c <= self.dom_scratch.len(),
            "scratch arena pre-sized from max_candidates"
        );
        let mut masks_ok = c > 1;
        if masks_ok {
            for (slot, &(t, _, _)) in scored.iter().enumerate() {
                if !self
                    .kernel
                    .useful_mask(self.u, t, &mut self.dom_scratch[slot])
                {
                    masks_ok = false;
                    break;
                }
            }
        }
        let cands: Vec<u32> = if masks_ok {
            let mut keep = vec![true; c];
            for (i, keep_i) in keep.iter_mut().enumerate().skip(1) {
                let (earlier, rest) = self.dom_scratch.split_at(i);
                let mask_i = &rest[0];
                if earlier.iter().any(|prior| mask_i.is_subset_of(prior)) {
                    *keep_i = false;
                    self.stats.dominated += 1;
                }
            }
            scored
                .into_iter()
                .zip(keep)
                .filter_map(|((t, _, _), k)| k.then_some(t))
                .collect()
        } else {
            scored.into_iter().map(|(t, _, _)| t).collect()
        };
        self.filter_symmetric(branch, cands)
    }

    fn dfs(&mut self) -> bool {
        if self.kernel.satisfied() {
            return true;
        }
        self.stats.nodes += 1;
        if self.gov.exhausted(self.stats.nodes) {
            return false;
        }
        let used = self.chosen.len() as u64;
        if used + self.kernel.remaining_lb(self.u) > self.budget as u64 {
            self.stats.pruned += 1;
            return false;
        }
        if self.strong {
            let slack = self.budget as u64 - used;
            if self.kernel.strong_lb(self.u, slack) > slack {
                self.stats.pruned += 1;
                return false;
            }
        }
        if self.chosen.len() >= MAX_DEPTH {
            self.gov.stop(Exhaustion::EngineLimit);
            return false;
        }
        let branch = self
            .kernel
            .branch_chord()
            .expect("unsatisfied demand exists");
        if K::sorts_at(self.chosen.len()) {
            for t in self.sorted_candidates(branch) {
                self.place(t);
                if self.dfs() {
                    return true;
                }
                self.unplace(t);
                if self.gov.stopped() {
                    return false;
                }
            }
        } else if self.mode == SymmetryMode::Full {
            // `Full` keeps its every-depth filtering promise on the
            // non-sorting (multiplicity) path too: materialize the useful
            // candidates in universe order and run them through the
            // orbit filter. Only reachable with a nontrivial spec group,
            // so the extra Vec is never paid by `Off`/`Root` here.
            let u = self.u;
            let cands: Vec<u32> = u
                .candidates_pri(branch)
                .iter()
                .copied()
                .filter(|&t| self.kernel.new_coverage(u, t).0 > 0)
                .collect();
            for t in self.filter_symmetric(branch, cands) {
                self.place(t);
                if self.dfs() {
                    return true;
                }
                self.unplace(t);
                if self.gov.stopped() {
                    return false;
                }
            }
        } else {
            // The candidate slice borrows the universe (a copied `&'a`
            // reference), not `self`, so `self` stays free for mutation.
            let u = self.u;
            for &t in u.candidates_pri(branch) {
                if self.kernel.new_coverage(u, t).0 == 0 {
                    continue;
                }
                self.place(t);
                if self.dfs() {
                    return true;
                }
                self.unplace(t);
                if self.gov.stopped() {
                    return false;
                }
            }
        }
        false
    }

    /// One sequential search from the root: the budget probe.
    fn probe(mut self) -> (Outcome, Stats) {
        let found = self.dfs();
        self.gov.settle(found, self.chosen, self.stats)
    }
}

/// `λ·Σd(e)`: the total demanded distance of a spec — what the waste
/// slack `budget·n − λ·Σd(e)` is measured against.
pub(crate) fn demanded_distance(u: &TileUniverse, spec: &CoverSpec) -> u64 {
    (0..u.num_chords())
        .map(|d| spec.demand[d as usize] as u64 * u.dist_of_pri(u.pri_of_dense(d)) as u64)
        .sum()
}

/// The search context a budget probe runs on (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Unit demands: the iterative bitset core.
    Unit,
    /// Demands ≤ 15: the word-parallel lane core.
    Lanes,
    /// Demands ≤ 15 with waste slack in `[0, n)`: the slack-budgeted
    /// partition kernel.
    Partition,
    /// Demands > 15: the recursive multiplicity kernel.
    Multi,
}

/// The one dispatch rule: which search context serves `budget` on `spec`.
pub(crate) fn route(u: &TileUniverse, spec: &CoverSpec, budget: u32) -> Route {
    if spec.is_unit() {
        return Route::Unit;
    }
    if spec.max_demand() > LaneSet::<4>::MAX {
        return Route::Multi;
    }
    let n = u.ring().n() as u64;
    let cap = budget as u64 * n;
    let demanded = demanded_distance(u, spec);
    if cap >= demanded && cap - demanded < n {
        Route::Partition
    } else {
        Route::Lanes
    }
}

/// Budgeted search under full [`RunLimits`]: the engine-facing entry
/// point. The probe runs on the context [`route`] picks. `store` is the
/// refutation memo every memo-backed core probes and feeds — pass the
/// same store across probes or requests to reuse recorded refutations,
/// or `None` for the memo-free search; the recursive kernel ignores it.
pub(crate) fn budget_search(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    search_route(route(u, spec, budget), u, spec, budget, lim, sym, store)
}

/// [`budget_search`] on a given route. Partition-route probes are
/// recorded in [`Stats::partition_probes`]. The lane routes run on 2-bit
/// lanes when every demand is ≤ 3 and on 4-bit lanes otherwise.
///
/// # Panics
/// Panics if a lane route meets a demand above 15.
pub(crate) fn search_route(
    route: Route,
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    let g = Governor::new(lim);
    match route {
        Route::Unit => search_core::probe(IterCore::new(u, spec, budget, g, sym, store)),
        Route::Lanes | Route::Partition => {
            let demand = spec.max_demand();
            assert!(demand <= LaneSet::<4>::MAX, "lane routes take demands ≤ 15");
            let partition = route == Route::Partition;
            if demand <= LaneSet::<2>::MAX {
                lane_probe::<2>(partition, u, spec, budget, g, sym, store)
            } else {
                wide_lane_probe(partition, u, spec, budget, g, sym, store)
            }
        }
        Route::Multi => SearchCtx::<MultiKernel>::new(u, spec, budget, g, sym).probe(),
    }
}

/// [`lane_probe`] on 4-bit lanes, kept out of line: inlined, its two
/// search loops joined the unit and 2-bit loops in [`search_route`], and
/// certify-unit and the λ ≤ 3 certify-lambda instances read 2–4 % slower
/// with the same node counts.
#[inline(never)]
fn wide_lane_probe(
    partition: bool,
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    g: Governor<'_>,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    lane_probe::<4>(partition, u, spec, budget, g, sym, store)
}

/// One probe on `B`-bit lanes: the partition kernel when `partition`,
/// else the lane core.
fn lane_probe<const B: u32>(
    partition: bool,
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    g: Governor<'_>,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    let lanes = LaneTables::<B>::build(u);
    if partition {
        let core = PartitionCore::new(u, spec, budget, g, sym, store, &lanes);
        let (outcome, stats) = search_core::probe(core);
        let stats = Stats {
            partition_probes: 1,
            ..stats
        };
        (outcome, stats)
    } else {
        search_core::probe(LaneCore::new(u, spec, budget, g, sym, store, &lanes))
    }
}

/// The **recursive** search, kept callable as the differential
/// reference for the iterative cores: unit-demand specs on the recursive
/// bitset kernel, other specs on the multiplicity kernel — never the
/// memo, never the setwise/canonical machinery. With the memo off the
/// iterative unit core must agree with this function on verdicts,
/// optima, *and exact node counts* (`tests/kernel_proptests.rs` pins it).
pub fn budget_search_reference(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    sym: SymmetryMode,
) -> (Outcome, Stats) {
    let lim = RunLimits::nodes_only(max_nodes);
    let gov = Governor::new(&lim);
    if spec.is_unit() {
        SearchCtx::<BitsetKernel>::new(u, spec, budget, gov, sym).probe()
    } else {
        SearchCtx::<MultiKernel>::new(u, spec, budget, gov, sym).probe()
    }
}

/// `budget_search` forced onto the word-parallel **lane core** for a
/// λ ≤ 15 spec, bypassing the low-slack partition route — the
/// branch-and-bound counterpart the partition kernel is measured
/// against (benches gate partition witness rows strictly under it;
/// differential tests pin verdicts and optima to it).
///
/// # Panics
/// Panics if a demand exceeds 15 (the lane core's widest lanes).
pub fn budget_search_packed(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    let lim = RunLimits::nodes_only(max_nodes);
    search_route(Route::Lanes, u, spec, budget, &lim, sym, store)
}

/// `budget_search` forced onto the **slack-budgeted partition
/// kernel** ([`crate::dlx`]) regardless of the instance's slack — the
/// direct entry benches and differential tests use to measure the
/// partition route on any λ ≤ 15 spec (the route rule only picks it when
/// slack < n).
///
/// # Panics
/// Panics if a demand exceeds 15 (the kernel's widest lanes).
pub fn budget_search_partition(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    let lim = RunLimits::nodes_only(max_nodes);
    search_route(Route::Partition, u, spec, budget, &lim, sym, store)
}

/// [`budget_search`] forced onto the multiplicity (`Vec<u32>`) kernel —
/// the pre-bitset reference path behind the `legacy` engine. Always runs
/// [`SymmetryMode::Off`] without the memo: this path *is* the measured
/// "before".
pub(crate) fn budget_search_legacy(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
) -> (Outcome, Stats) {
    search_route(Route::Multi, u, spec, budget, lim, SymmetryMode::Off, None)
}

/// The deepening start budget for a spec: the combinatorial bound for the
/// complete instance, the capacity bound otherwise — `None` when that
/// bound exceeds the largest budget a `u32` counts.
pub(crate) fn deepening_start(u: &TileUniverse, spec: &CoverSpec) -> Option<u32> {
    let n = u.ring().n();
    let mut base = spec.capacity_lower_bound(u.ring());
    if spec.demand == CoverSpec::complete(n).demand {
        base = base.max(combinatorial_lower_bound(n));
    }
    u32::try_from(base).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::rho_formula;
    use cyclecover_graph::EdgeMultiset;
    use cyclecover_ring::{Ring, Tile};

    /// [`budget_search`] pinned to [`SymmetryMode::Off`] with the memo
    /// disabled — the historical search, bit for bit.
    fn budget_search_off(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        lim: &RunLimits,
    ) -> (Outcome, Stats) {
        budget_search(u, spec, budget, lim, SymmetryMode::Off, None)
    }

    /// Optimal covering by iterative deepening from [`deepening_start`],
    /// each probe run by `run`; `None` if the node limit was hit first.
    fn solve_optimal_spec_with(
        u: &TileUniverse,
        spec: &CoverSpec,
        run: impl Fn(&TileUniverse, &CoverSpec, u32, &RunLimits) -> (Outcome, Stats),
        max_nodes: u64,
    ) -> Option<(Vec<Tile>, u32, Stats)> {
        let lim = RunLimits::nodes_only(max_nodes);
        let mut budget = deepening_start(u, spec).expect("the bound fits a budget");
        let mut total = Stats::default();
        loop {
            let (outcome, stats) = run(u, spec, budget, &lim);
            total.absorb(stats);
            match outcome {
                Outcome::Feasible(idx) => {
                    let tiles = idx.into_iter().map(|i| u.tile(i).clone()).collect();
                    return Some((tiles, budget, total));
                }
                Outcome::Infeasible => budget += 1,
                Outcome::Exhausted(_) => return None,
            }
        }
    }

    fn within(u: &TileUniverse, spec: &CoverSpec, budget: u32, max_nodes: u64) -> (Outcome, Stats) {
        budget_search_off(u, spec, budget, &RunLimits::nodes_only(max_nodes))
    }

    fn within_sym(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
        sym: SymmetryMode,
    ) -> (Outcome, Stats) {
        let lim = RunLimits::nodes_only(max_nodes);
        budget_search(u, spec, budget, &lim, sym, None)
    }

    fn within_memo(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
        sym: SymmetryMode,
    ) -> (Outcome, Stats) {
        let store = MemoStore::new(u, DEFAULT_MEMO_BYTES);
        let lim = RunLimits::nodes_only(max_nodes);
        budget_search(u, spec, budget, &lim, sym, store.as_ref())
    }

    fn within_legacy(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
    ) -> (Outcome, Stats) {
        budget_search_legacy(u, spec, budget, &RunLimits::nodes_only(max_nodes))
    }

    fn optimal_spec(
        u: &TileUniverse,
        spec: &CoverSpec,
        max_nodes: u64,
    ) -> Option<(Vec<Tile>, u32, Stats)> {
        solve_optimal_spec_with(u, spec, budget_search_off, max_nodes)
    }

    fn optimal(u: &TileUniverse, max_nodes: u64) -> Option<(Vec<Tile>, u32, Stats)> {
        optimal_spec(u, &CoverSpec::complete(u.ring().n()), max_nodes)
    }

    fn infeasible(u: &TileUniverse, budget: u32, max_nodes: u64) -> Option<bool> {
        match within(u, &CoverSpec::complete(u.ring().n()), budget, max_nodes).0 {
            Outcome::Infeasible => Some(true),
            Outcome::Feasible(_) => Some(false),
            Outcome::Exhausted(_) => None,
        }
    }

    fn assert_valid_cover(u: &TileUniverse, tiles: &[Tile], lambda: u32) {
        let ring = u.ring();
        let n = ring.n() as usize;
        let mut cover = EdgeMultiset::new(n);
        for t in tiles {
            for c in t.chords(ring) {
                cover.insert(c.to_edge());
            }
        }
        assert!(cover.covers_complete(lambda), "not a {lambda}-covering");
    }

    #[test]
    fn optimal_k4_matches_paper_example() {
        let u = TileUniverse::new(Ring::new(4), 4);
        let (tiles, opt, _) = optimal(&u, 1_000_000).expect("solved");
        assert_eq!(opt, 3, "rho(4) = 3 per the paper's example");
        assert_valid_cover(&u, &tiles, 1);
    }

    #[test]
    fn optimal_small_odd_matches_theorem1() {
        for n in [3u32, 5, 7, 9] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let (tiles, opt, _) = optimal(&u, 50_000_000).expect("solved");
            assert_eq!(opt as u64, rho_formula(n), "rho({n})");
            assert_valid_cover(&u, &tiles, 1);
        }
    }

    #[test]
    fn optimal_small_even_matches_theorem2() {
        for n in [6u32, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let (tiles, opt, _) = optimal(&u, 50_000_000).expect("solved");
            assert_eq!(opt as u64, rho_formula(n), "rho({n})");
            assert_valid_cover(&u, &tiles, 1);
        }
    }

    /// The `+1` of Theorem 2 for even `p`: n = 8 (p = 4) — capacity bound
    /// says 8, the paper says 9; certify 8 is infeasible.
    #[test]
    fn n8_infeasible_at_capacity_bound() {
        let u = TileUniverse::new(Ring::new(8), 8);
        assert_eq!(infeasible(&u, 8, 50_000_000), Some(true));
        assert_eq!(infeasible(&u, 9, 50_000_000), Some(false));
    }

    /// λ-fold: rho_2(6) — the capacity bound is 9 (vs 2·rho(6) = 10);
    /// the solver settles what copy-concatenation cannot.
    #[test]
    fn lambda_fold_small() {
        let n = 6u32;
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let spec = CoverSpec::lambda_fold(n, 2);
        let (tiles, opt, _) = optimal_spec(&u, &spec, 200_000_000).expect("solved");
        assert_valid_cover(&u, &tiles, 2);
        assert!(opt >= spec.capacity_lower_bound(Ring::new(n)) as u32);
        assert!(opt <= 2 * rho_formula(n) as u32);
    }

    /// Subset spec: cover only a star's edges (plus whatever tiles bring).
    #[test]
    fn subset_spec_star() {
        let n = 7u32;
        let u = TileUniverse::new(Ring::new(n), 4);
        let star: Vec<Edge> = (1..n).map(|v| Edge::new(0, v)).collect();
        let spec = CoverSpec::subset(n, &star);
        let (tiles, opt, _) = optimal_spec(&u, &spec, 100_000_000).expect("solved");
        // Each tile uses at most 2 chords at vertex 0: >= ceil(6/2) = 3.
        assert!(opt >= 3, "opt={opt}");
        let ring = Ring::new(n);
        let mut cov = EdgeMultiset::new(n as usize);
        for t in &tiles {
            for c in t.chords(ring) {
                cov.insert(c.to_edge());
            }
        }
        for e in &star {
            assert!(cov.count(*e) >= 1);
        }
    }

    #[test]
    fn node_limit_reports_inconclusive() {
        // n = 8 at budget 8: the capacity bound allows it (8 = ⌈p²/2⌉), so
        // infeasibility needs real search — a 10-node limit must trip.
        let u = TileUniverse::new(Ring::new(8), 8);
        let (outcome, stats) = within(&u, &CoverSpec::complete(8), 8, 10);
        assert_eq!(outcome, Outcome::Exhausted(Exhaustion::NodeBudget));
        assert!(stats.nodes >= 10);
    }

    /// Restricting tiles to C3/C4 with shortest-path gaps must not change
    /// the odd optimum (Theorem 1's coverings have that shape).
    #[test]
    fn restricted_universe_still_optimal_for_odd() {
        let n = 7u32;
        let ring = Ring::new(n);
        let u = TileUniverse::with_max_gap(ring, 4, n / 2);
        let (tiles, opt, _) = optimal(&u, 10_000_000).expect("solved");
        assert_eq!(opt as u64, rho_formula(n));
        assert_valid_cover(&u, &tiles, 1);
        assert!(tiles.iter().all(|t| t.len() <= 4));
    }

    /// The bitset kernel and the legacy multiplicity kernel must reach the
    /// same verdict at every budget around the optimum.
    #[test]
    fn bitset_and_legacy_verdicts_agree() {
        for n in [5u32, 6, 7, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let rho = rho_formula(n) as u32;
            for budget in [rho - 1, rho, rho + 1] {
                let (fast, _) = within(&u, &spec, budget, 200_000_000);
                let (slow, _) = within_legacy(&u, &spec, budget, 200_000_000);
                let fast_ok = matches!(fast, Outcome::Feasible(_));
                let slow_ok = matches!(slow, Outcome::Feasible(_));
                assert_eq!(fast_ok, slow_ok, "n={n} budget={budget}");
                if fast_ok {
                    if let Outcome::Feasible(idx) = &fast {
                        let tiles: Vec<Tile> = idx.iter().map(|&i| u.tile(i).clone()).collect();
                        assert_valid_cover(&u, &tiles, 1);
                    }
                } else {
                    assert_eq!(fast, Outcome::Infeasible, "n={n} budget={budget}");
                    assert_eq!(slow, Outcome::Infeasible, "n={n} budget={budget}");
                }
            }
        }
    }

    /// Dominance pruning must fire on real instances (it is the point of
    /// the candidate masks) and never flip a verdict — the agreement test
    /// above covers verdicts; this one pins the pruning being active.
    #[test]
    fn dominance_fires_on_even_instances() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let (outcome, stats) = within(&u, &CoverSpec::complete(8), 8, 50_000_000);
        assert_eq!(outcome, Outcome::Infeasible);
        assert!(stats.dominated > 0, "dominance never fired: {stats:?}");
    }

    /// All three symmetry modes reach identical verdicts around the
    /// optimum; the reduced modes never expand more nodes than `Off` on
    /// the hard even refutations.
    #[test]
    fn symmetry_modes_agree_on_verdicts() {
        for n in [6u32, 7, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let rho = rho_formula(n) as u32;
            for budget in [rho - 1, rho] {
                let (off, off_stats) = within(&u, &spec, budget, 200_000_000);
                for sym in [SymmetryMode::Root, SymmetryMode::Full] {
                    let (got, stats) = within_sym(&u, &spec, budget, 200_000_000, sym);
                    assert_eq!(
                        matches!(got, Outcome::Feasible(_)),
                        matches!(off, Outcome::Feasible(_)),
                        "n={n} budget={budget} {sym:?}"
                    );
                    if let Outcome::Feasible(idx) = &got {
                        let tiles: Vec<Tile> = idx.iter().map(|&i| u.tile(i).clone()).collect();
                        assert_valid_cover(&u, &tiles, 1);
                        assert_eq!(idx.len() as u32, budget.min(rho), "n={n} {sym:?}");
                    }
                    if budget == rho - 1 && n == 8 {
                        assert!(
                            stats.nodes <= off_stats.nodes,
                            "n={n} {sym:?}: {} > {} nodes",
                            stats.nodes,
                            off_stats.nodes
                        );
                    }
                }
            }
        }
    }

    /// The capacity-tight even refutations collapse to one-node proofs
    /// under the parity (T-join) bound: every vertex of `K_8` (and
    /// `K_12`) has odd degree while the budget leaves zero slack.
    #[test]
    fn parity_bound_refutes_tight_even_budgets_at_the_root() {
        for (n, tight) in [(8u32, 8u32), (12, 18)] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let (off, off_stats) = within(&u, &spec, tight, 200_000);
            let (root, root_stats) = within_sym(&u, &spec, tight, 200_000, SymmetryMode::Root);
            assert_eq!(root, Outcome::Infeasible, "n={n}");
            assert_eq!(root_stats.nodes, 1, "n={n}: parity prunes the root");
            if n == 8 {
                // Off needs the full 97,465-node exhaustive proof; the
                // 200k cap is enough for it but pins the contrast.
                assert_eq!(off, Outcome::Infeasible);
                assert_eq!(off_stats.nodes, 97_465, "BENCH_1 baseline drifted");
            } else {
                // n = 12: off exceeds any reasonable cap (> 30M nodes).
                assert_eq!(off, Outcome::Exhausted(Exhaustion::NodeBudget));
            }
        }
    }

    /// The orbit filter itself fires where a real branch survives the
    /// bounds: the n = 8 budget-9 witness search reduces its root by the
    /// diameter-chord stabilizer (order 4) and skips mirrored candidates.
    #[test]
    fn symmetry_root_filters_witness_search() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        let (off, off_stats) = within(&u, &spec, 9, 50_000_000);
        let (root, root_stats) = within_sym(&u, &spec, 9, 50_000_000, SymmetryMode::Root);
        assert!(matches!(off, Outcome::Feasible(_)));
        assert!(matches!(root, Outcome::Feasible(_)));
        assert_eq!(off_stats.sym_factor, 1);
        assert_eq!(off_stats.sym_pruned, 0);
        assert_eq!(root_stats.sym_factor, 4, "diameter-chord stabilizer");
        assert!(root_stats.sym_pruned > 0, "{root_stats:?}");
        assert!(
            root_stats.nodes <= off_stats.nodes,
            "{} vs {}",
            root_stats.nodes,
            off_stats.nodes
        );
    }

    /// The residual-state memo prunes a real refutation without changing
    /// its verdict: the n = 8 budget-8 proof (97,465 nodes memo-off,
    /// bit-exact with BENCH_1) completes in strictly fewer nodes with
    /// the memo on, reporting its hits and resident entries.
    #[test]
    fn memo_prunes_the_even_refutation() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        let (plain, plain_stats) = within_sym(&u, &spec, 8, 50_000_000, SymmetryMode::Off);
        let (memoed, memo_stats) = within_memo(&u, &spec, 8, 50_000_000, SymmetryMode::Off);
        assert_eq!(plain, Outcome::Infeasible);
        assert_eq!(memoed, Outcome::Infeasible, "memo flipped a verdict");
        assert_eq!(plain_stats.nodes, 97_465, "BENCH_1 baseline drifted");
        assert_eq!(plain_stats.memo_hits, 0);
        assert_eq!(plain_stats.memo_entries, 0);
        assert!(
            memo_stats.nodes < plain_stats.nodes,
            "memo never pruned: {memo_stats:?}"
        );
        assert!(memo_stats.memo_hits > 0, "{memo_stats:?}");
        assert!(memo_stats.memo_entries > 0, "{memo_stats:?}");
    }

    /// Canonical residual-state keying engages under `Full`: the ρ(10)
    /// witness search with the memo on prunes nodes whose uncovered set
    /// matched only after dihedral canonicalization (`canon_pruned`),
    /// lands under the `Root` memo node count, and still finds a valid
    /// covering. This is the ROADMAP's setwise/canonical-prefix open
    /// item doing real work on the workspace's hardest row.
    #[test]
    fn canonical_memo_cuts_the_rho10_witness() {
        let u = TileUniverse::new(Ring::new(10), 10);
        let spec = CoverSpec::complete(10);
        let (root, root_stats) = within_memo(&u, &spec, 13, 50_000_000, SymmetryMode::Root);
        let (full, full_stats) = within_memo(&u, &spec, 13, 50_000_000, SymmetryMode::Full);
        assert!(matches!(root, Outcome::Feasible(_)));
        let Outcome::Feasible(idx) = &full else {
            panic!("full+memo lost the witness: {full_stats:?}");
        };
        let tiles: Vec<Tile> = idx.iter().map(|&i| u.tile(i).clone()).collect();
        assert_valid_cover(&u, &tiles, 1);
        assert!(
            root_stats.nodes <= 400_000,
            "rho(10) acceptance ceiling: {root_stats:?}"
        );
        assert!(full_stats.canon_pruned > 0, "{full_stats:?}");
        assert!(
            full_stats.nodes < root_stats.nodes,
            "canonical keys under Full should out-prune Root: {} vs {}",
            full_stats.nodes,
            root_stats.nodes
        );
    }

    /// A tiny memo budget degrades pruning power, never correctness:
    /// the verdict holds at any table size, and the resident entry count
    /// respects the floor-sized table.
    #[test]
    fn memo_budget_only_trades_pruning() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        let lim = RunLimits::nodes_only(50_000_000);
        let store = MemoStore::new(&u, 0);
        let (o, s) = budget_search(&u, &spec, 8, &lim, SymmetryMode::Off, store.as_ref());
        assert_eq!(o, Outcome::Infeasible);
        assert!(s.nodes <= 97_465, "worse than memo-free: {s:?}");
        assert!(s.memo_entries > 0, "{s:?}");
    }

    /// Asymmetric (subset) specs degrade gracefully: the spec-preserving
    /// subgroup collapses, no filtering happens, verdicts are unchanged.
    #[test]
    fn symmetry_degrades_on_asymmetric_specs() {
        let n = 7u32;
        let u = TileUniverse::new(Ring::new(n), 4);
        let requests: Vec<Edge> = vec![Edge::new(0, 2), Edge::new(1, 4), Edge::new(2, 6)];
        let spec = CoverSpec::subset(n, &requests);
        for budget in 1..=3u32 {
            let (off, _) = within(&u, &spec, budget, 10_000_000);
            let (root, stats) = within_sym(&u, &spec, budget, 10_000_000, SymmetryMode::Root);
            assert_eq!(
                matches!(off, Outcome::Feasible(_)),
                matches!(root, Outcome::Feasible(_)),
                "budget={budget}"
            );
            assert_eq!(stats.sym_pruned, 0, "nothing to filter by");
        }
    }

    /// λ-fold specs stay fully symmetric: the multiplicity kernel accepts
    /// orbit filtering — including `Full`'s every-depth filtering on the
    /// non-sorting deep path (λ-fold searches exceed the depth-4 sorting
    /// cutoff) — and agrees with the unreduced search.
    #[test]
    fn symmetry_applies_to_lambda_fold() {
        let n = 6u32;
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let spec = CoverSpec::lambda_fold(n, 2);
        let lb = spec.capacity_lower_bound(Ring::new(n)) as u32;
        for budget in [lb - 1, lb] {
            let (off, _) = within(&u, &spec, budget, 200_000_000);
            for sym in [SymmetryMode::Root, SymmetryMode::Full] {
                let (got, _) = within_sym(&u, &spec, budget, 200_000_000, sym);
                assert_eq!(
                    matches!(off, Outcome::Feasible(_)),
                    matches!(got, Outcome::Feasible(_)),
                    "budget={budget} {sym:?}"
                );
            }
        }
    }
}
