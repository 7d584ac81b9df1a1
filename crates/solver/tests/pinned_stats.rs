//! Whole-search statistics, pinned. Every counter a search reports —
//! nodes, bound prunes, dominance drops, orbit prunes, canonical prunes,
//! memo hits and the store's population — follows from the exact child
//! lists and bound verdicts at every node, so a change to how a node
//! stages its children or evaluates its bounds that keeps the search
//! tree the same keeps every row here ±0. The sweep counters (shared
//! hits, the symmetry factor, partition probes, budgets tried and
//! attempts) follow from how the probes of a request add up. Rows cover
//! every core the route rule serves: the lane core on 1-bit lanes (memo
//! off, root symmetry, canonical keys), the partition kernel on 1-bit
//! lanes on a restricted universe, at λ = 2, on 4-bit lanes at λ = 4 and
//! on 16-bit lanes at λ = 16, the lane core on 2- and 4-bit lanes, and a
//! λ = 3 sweep whose probes change route.

use cyclecover_ring::Ring;
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::TileUniverse;

/// `(size, nodes, pruned, dominated, sym_pruned, canon_pruned,
/// memo_hits, memo_entries)`.
type Search = (Option<usize>, u64, u64, u64, u64, u64, u64, u64);

/// `(shared_hits, sym_factor, partition_probes, budgets_tried,
/// attempts)`.
type Sweep = (u64, u32, u64, u32, u32);

/// Every counter of a solve's `Stats` (all but the engine name and the
/// wall time), beside the covering size.
type Row = (Search, Sweep);

fn solve(engine: &str, problem: &Problem, request: SolveRequest) -> Row {
    let sol = engine_by_name(engine)
        .expect("engine registered")
        .solve(problem, &request);
    let s = sol.stats();
    (
        (
            sol.size(),
            s.nodes,
            s.pruned,
            s.dominated,
            s.sym_pruned,
            s.canon_pruned,
            s.memo_hits,
            s.memo_entries,
        ),
        (
            s.shared_hits,
            s.sym_factor,
            s.partition_probes,
            s.budgets_tried,
            s.attempts,
        ),
    )
}

#[test]
fn n8_refutation_without_memo_or_symmetry() {
    let row = solve(
        "bitset",
        &Problem::complete(8),
        SolveRequest::within_budget(8)
            .with_symmetry(SymmetryMode::Off)
            .with_memo(false),
    );
    assert_eq!(
        row,
        ((None, 97_465, 79_421, 223_780, 0, 0, 0, 0), (0, 1, 0, 1, 1))
    );
}

#[test]
fn rho_10_under_root_symmetry() {
    let row = solve(
        "bitset",
        &Problem::complete(10),
        SolveRequest::find_optimal(),
    );
    assert_eq!(
        row,
        (
            (Some(13), 230_819, 194_444, 1_170_923, 21, 0, 20_036, 34_102),
            (0, 4, 0, 1, 1)
        )
    );
}

#[test]
fn rho_10_with_canonical_keys() {
    let row = solve(
        "bitset",
        &Problem::complete(10),
        SolveRequest::find_optimal().with_symmetry(SymmetryMode::Full),
    );
    assert_eq!(
        row,
        (
            (
                Some(13),
                223_812,
                172_797,
                1_019_288,
                21,
                18_543,
                19_047,
                29_781
            ),
            (0, 4, 0, 1, 1)
        )
    );
}

#[test]
fn rho_12_on_the_default_route() {
    let row = solve(
        "bitset",
        &Problem::complete(12),
        SolveRequest::find_optimal(),
    );
    assert_eq!(
        row,
        (
            (Some(19), 53_416, 43_693, 963_862, 43, 0, 6_037, 9_593),
            (0, 4, 0, 2, 1)
        )
    );
}

#[test]
fn partition_engine_on_the_restricted_n14_universe() {
    let u = TileUniverse::with_max_gap(Ring::new(14), 4, 7);
    let problem = Problem::new(u, CoverSpec::complete(14));
    let request = SolveRequest::find_optimal().with_symmetry(SymmetryMode::Full);
    let row = solve("partition", &problem, request);
    assert_eq!(
        row,
        (
            (Some(25), 1_142, 5_875, 977, 12, 0, 1, 179),
            (0, 2, 1, 1, 1)
        )
    );
}

#[test]
fn rho_2_of_8_through_the_partition_route() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(8, 2),
        SolveRequest::find_optimal(),
    );
    assert_eq!(
        row,
        (
            (Some(16), 16_919, 260_585, 0, 9, 0, 10_860, 15_272),
            (0, 4, 1, 1, 1)
        )
    );
}

#[test]
fn lambda_2_of_8_within_17_on_the_lane_core() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(8, 2),
        SolveRequest::within_budget(17),
    );
    assert_eq!(
        row,
        (
            (Some(17), 3_075, 2_047, 14_799, 9, 0, 549, 1_011),
            (0, 4, 0, 1, 1)
        )
    );
}

/// ρ₂(8) = 16 and ρ₃(6) = 14 sit at the capacity bound: the decisive
/// probe's waste slack is below `n`, so the route rule hands it to the
/// partition kernel.
#[test]
fn capacity_tight_lambda_probes_take_the_partition_route() {
    for (n, lambda, opt) in [(8u32, 2u32, 16usize), (6, 3, 14)] {
        let sol = engine_by_name("bitset").expect("engine registered").solve(
            &Problem::lambda_fold(n, lambda),
            &SolveRequest::find_optimal(),
        );
        assert!(
            matches!(sol.optimality(), Optimality::Optimal { .. }),
            "rho_{lambda}({n}): {:?}",
            sol.optimality()
        );
        assert_eq!(sol.size(), Some(opt), "rho_{lambda}({n})");
        assert_eq!(sol.stats().partition_probes, 1, "rho_{lambda}({n})");
    }
}

/// ρ₄(6) = 18 sits at the capacity bound `⌈4·27/6⌉` with zero waste
/// slack, so its one probe runs on the partition kernel over 4-bit lanes,
/// memo and dominance included. On the recursive kernel, which served
/// demands above 3 before the lanes widened, it took 4,296,928 nodes.
#[test]
fn rho_4_of_6_through_the_partition_route() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(6, 4),
        SolveRequest::find_optimal(),
    );
    assert_eq!(
        row,
        (
            (Some(18), 3_733, 16_361, 0, 4, 0, 3_849, 3_410),
            (0, 4, 1, 1, 1)
        )
    );
}

/// Budget 19 on the 4-fold cover of K_6 leaves waste slack n, so the
/// probe runs on the lane core over 4-bit lanes.
#[test]
fn lambda_4_of_6_within_19_on_the_lane_core() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(6, 4),
        SolveRequest::within_budget(19),
    );
    assert_eq!(
        row,
        (
            (Some(19), 38_099, 22_968, 55_324, 4, 0, 21_357, 14_461),
            (0, 4, 0, 1, 1)
        )
    );
}

/// Demands above 15 run on 16-bit lanes, memo-free. ρ₁₆(5) = 48 sits at
/// the capacity bound with zero waste slack, so its one probe takes the
/// partition route. (The name dates from the recursive kernel that
/// served λ > 15 before and took 107 nodes here.)
#[test]
fn rho_16_of_5_on_the_recursive_kernel() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(5, 16),
        SolveRequest::find_optimal(),
    );
    assert_eq!(row, ((Some(48), 48, 112, 0, 1, 0, 0, 0), (0, 2, 1, 1, 1)));
}

/// The ρ₁₆(6) witness search on the partition route over 16-bit lanes,
/// capped at 100,000 nodes, stops on the node one past the cap. (The
/// name dates from the recursive kernel that served λ > 15 before.)
#[test]
fn rho_16_of_6_capped_on_the_recursive_kernel() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(6, 16),
        SolveRequest::find_optimal().with_max_nodes(100_000),
    );
    assert_eq!(
        row,
        ((None, 100_001, 385_568, 0, 4, 0, 0, 0), (0, 4, 1, 1, 1))
    );
}

/// ρ₃(8)'s deepening sweep, capped at 300,000 nodes: the capacity-tight
/// first probe takes the partition route and refutes, the next budget
/// leaves slack `n` and runs on the lane core until the cap. The row is
/// the sum of two probes on two cores.
#[test]
fn lambda_3_of_8_sweep_changes_route() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(8, 3),
        SolveRequest::find_optimal().with_max_nodes(300_000),
    );
    assert_eq!(
        row,
        (
            (None, 300_001, 226_520, 942_665, 9, 0, 79_890, 67_893),
            (0, 4, 1, 2, 1)
        )
    );
}

/// The C ≤ 4 universe of `n` (cycles of at most four vertices, arcs of at
/// most `n/2`) under the complete spec: the partition route's instances.
fn short_c4(n: u32) -> Problem {
    let u = TileUniverse::with_max_gap(Ring::new(n), 4, n / 2);
    Problem::new(u, CoverSpec::complete(n))
}

/// ρ(18) on the partition kernel over the C ≤ 4 universe. MRV branching
/// leaves diameter chords live deep into the tree, so nearly every node
/// evaluates the diameter-slack bound.
#[test]
fn partition_engine_on_the_restricted_n18_universe() {
    let request = SolveRequest::find_optimal().with_symmetry(SymmetryMode::Full);
    let row = solve("partition", &short_c4(18), request);
    assert_eq!(
        row,
        (
            (Some(41), 38_476, 292_852, 31_061, 20, 0, 0, 0),
            (0, 2, 1, 1, 1)
        )
    );
}

/// The n = 22 C ≤ 4 search on the partition kernel, capped at 20,000
/// nodes: the diameter-slack scans at their widest.
#[test]
fn partition_engine_on_the_restricted_n22_universe_capped() {
    let request = SolveRequest::find_optimal()
        .with_symmetry(SymmetryMode::Full)
        .with_max_nodes(20_000);
    let row = solve("partition", &short_c4(22), request);
    assert_eq!(
        row,
        (
            (None, 20_001, 106_747, 26_793, 30, 0, 0, 0),
            (0, 2, 1, 1, 1)
        )
    );
}

/// The λ = 2, n = 10 witness search, capped at 100,000 nodes: its
/// capacity-tight first probe takes the partition route over 2-bit lanes
/// and fills a memo far past its seed size, so the row pins every shard
/// growth and eviction along the way.
#[test]
fn lambda_2_of_10_capped_on_the_partition_route() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(10, 2),
        SolveRequest::find_optimal().with_max_nodes(100_000),
    );
    assert_eq!(
        row,
        (
            (None, 100_001, 3_663_281, 0, 21, 0, 47_065, 91_240),
            (0, 4, 1, 1, 1)
        )
    );
}
