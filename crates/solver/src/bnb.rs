//! Branch & bound minimum DRC covering: the search vocabulary and the
//! one route rule.
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
//!   vertex-degree lower bounds restricted to the unsatisfied demand;
//! * optional node limit for bounded experiments.
//!
//! # Routes
//!
//! One rule picks the search core of every budget probe, and the probe
//! runs as one sequential search on it (the waste slack is
//! `budget·n − λ·Σd(e)`):
//!
//! | spec | waste slack | search core |
//! |------|-------------|-------------|
//! | unit demands | any | the iterative bitset core |
//! | demands ≤ 65,535 | in `[0, n)` | the slack-budgeted partition kernel ([`crate::dlx`]) |
//! | demands ≤ 65,535 | otherwise | the lane core |
//!
//! The lane core and the partition kernel pack residual demand into
//! 2-bit lanes when every demand is ≤ 3, into 4-bit lanes up to 15 and
//! into 16-bit lanes up to 65,535. A larger demand answers
//! [`Exhaustion::EngineLimit`] at the engine boundary without a probe.
//!
//! The partition route is recorded in [`Stats::partition_probes`]. Unit
//! probes never take it: their memo-off node counts are pinned bit for
//! bit to the historical search. A negative slack (budget below
//! capacity) stays on the lane core, whose root bound refutes in one
//! node.
//!
//! The cores (in `crate::search_core` and [`crate::dlx`]) run an
//! explicit stack over reused arenas with incrementally maintained
//! bound ingredients and the optional **residual-state dominance memo**
//! ([`MemoStore`], [`DEFAULT_MEMO_BYTES`] unless the request sets a
//! budget), which prunes nodes reaching an already-exhausted residual
//! state with an equal-or-worse budget. The unit core keeps its coverage
//! bookkeeping in word-packed [`ChordSet`](crate::bitset::ChordSet)s in
//! the universe's *priority* chord order: placing a tile is two
//! AND/ANDNOT word sweeps, scoring a candidate an intersection-popcount,
//! and selecting the branch chord `trailing_zeros` on the uncovered set.
//! The universe precomputes each tile's chord bitmask, load, and
//! diameter count once ([`TileUniverse::tile_mask`] and friends), so
//! search nodes never touch ring arithmetic.
//!
//! Every core applies **dominance pruning** at every node: a candidate
//! whose useful-coverage mask is a subset of an earlier sibling's is
//! skipped — replacing it by the dominator in any covering yields a
//! covering of the same size, so completeness is preserved while sibling
//! subtrees that only permute coverage are cut. Dominance at full depth
//! is the decisive pruning rule: the ρ(10) witness search needs 13.4M
//! nodes with it vs 225M without.
//!
//! Every probe answers `(Outcome, Stats)`: the verdict, carrying the
//! limit that stopped an inconclusive search, and the counters in the
//! solver's one [`Stats`] type, which a deepening sweep sums probe by
//! probe into its [`crate::api::Solution`].
//!
//! # Symmetry reduction
//!
//! Under [`SymmetryMode::Root`] (the engine default) the root branch only
//! explores one candidate per orbit of the branch chord's dihedral
//! stabilizer (order 4 at the priority diameter chord of an even complete
//! instance), and prefix bounds are strengthened by the greedy dual
//! [`diameter_slack_bound`](crate::lower_bound::diameter_slack_bound);
//! [`SymmetryMode::Full`] extends the orbit filtering to every depth
//! under the incrementally maintained pointwise stabilizer of the placed
//! prefix. [`SymmetryMode::Off`] reproduces the
//! pre-symmetry search node for node — `bench_snapshot` uses it to track
//! the reduction factor.

use crate::api::{CancelToken, Exhaustion, Stats};
use crate::bitset::LaneSet;
use crate::dlx::PartitionCore;
use crate::lower_bound::{combinatorial_lower_bound, weighted_demand_bound};
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
///   no orbit filtering *and* no
///   [`diameter_slack_bound`](crate::lower_bound::diameter_slack_bound)
///   strengthening.
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
    /// machinery applies; ≤ 3 fits the packed 2-bit lanes, ≤ 15 the 4-bit
    /// and ≤ 65,535 the 16-bit lanes of the lane and partition
    /// cores; a larger demand is beyond every core.
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

/// Resolves a *requested* symmetry level into the effective one: `Off`
/// when the tables are unavailable (`2n > 64`) or the spec-preserving
/// subgroup is only the identity; otherwise the requested mode with the
/// tables and the subgroup mask. The frame cores' orbit filter and the
/// unit core's canonical memo keys both read it.
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

/// `λ·Σd(e)`: the total demanded distance of a spec — what the waste
/// slack `budget·n − λ·Σd(e)` is measured against.
pub(crate) fn demanded_distance(u: &TileUniverse, spec: &CoverSpec) -> u64 {
    (0..u.num_chords())
        .map(|d| spec.demand[d as usize] as u64 * u.dist_of_pri(u.pri_of_dense(d)) as u64)
        .sum()
}

/// The largest demand any search core takes: what a 16-bit lane holds.
/// The engines answer a spec demanding more with
/// [`Exhaustion::EngineLimit`] before any probe.
pub(crate) const MAX_DEMAND: u32 = LaneSet::<16>::MAX;

/// The search core a budget probe runs on (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Unit demands: the iterative bitset core.
    Unit,
    /// Other demands: the word-parallel lane core.
    Lanes,
    /// Other demands with waste slack in `[0, n)`: the slack-budgeted
    /// partition kernel.
    Partition,
}

/// The one dispatch rule: which search core serves `budget` on `spec`.
pub(crate) fn route(u: &TileUniverse, spec: &CoverSpec, budget: u32) -> Route {
    if spec.is_unit() {
        return Route::Unit;
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
/// point. The probe runs on the core [`route`] picks. `store` is the
/// refutation memo the cores probe and feed — pass the same store across
/// probes or requests to reuse recorded refutations, or `None` for the
/// memo-free search; 16-bit lane states run memo-free either way.
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
/// lanes when every demand is ≤ 3, on 4-bit lanes up to 15 and on 16-bit
/// lanes beyond.
///
/// # Panics
/// Panics if a lane route meets a demand above 65,535.
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
            assert!(
                demand <= MAX_DEMAND,
                "lane routes take demands ≤ {MAX_DEMAND}"
            );
            let partition = route == Route::Partition;
            if demand <= LaneSet::<2>::MAX {
                lane_probe::<2>(partition, u, spec, budget, g, sym, store)
            } else {
                wide_lane_probe(partition, u, spec, budget, g, sym, store)
            }
        }
    }
}

/// [`lane_probe`] on 4-bit lanes up to demand 15 and on 16-bit lanes
/// beyond, kept out of line: inlined, its search loops joined the unit
/// and 2-bit loops in [`search_route`], and certify-unit and the λ ≤ 3
/// certify-lambda instances read 2–4 % slower with the same node counts.
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
    if spec.max_demand() <= LaneSet::<4>::MAX {
        lane_probe::<4>(partition, u, spec, budget, g, sym, store)
    } else {
        lane_probe::<16>(partition, u, spec, budget, g, sym, store)
    }
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

/// `budget_search` forced onto the word-parallel **lane core**,
/// bypassing the low-slack partition route — the
/// branch-and-bound counterpart the partition kernel is measured
/// against (benches gate partition witness rows strictly under it;
/// differential tests pin verdicts and optima to it).
///
/// # Panics
/// Panics if a demand exceeds 65,535 (the lane core's widest lanes).
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
/// partition route on any spec (the route rule only picks it when
/// slack < n).
///
/// # Panics
/// Panics if a demand exceeds 65,535 (the kernel's widest lanes).
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

    /// Dominance pruning must fire on real instances (it is the point of
    /// the candidate masks) and never flip a verdict — the oracle
    /// differentials cover verdicts; this one pins the pruning being
    /// active.
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

    /// λ-fold specs stay fully symmetric: the lane cores accept orbit
    /// filtering — including `Full`'s every-depth filtering — and agree
    /// with the unreduced search.
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
