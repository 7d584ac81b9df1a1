//! Whole-search statistics, pinned. Every counter a search reports —
//! nodes, bound prunes, dominance drops, orbit prunes, canonical prunes,
//! memo hits and the store's population — follows from the exact child
//! lists and bound verdicts at every node, so a change to how a node
//! stages its children or evaluates its bounds that keeps the search
//! tree the same keeps every row here ±0. One row per core the
//! sequential route rule serves below λ = 4: the unit core, the
//! partition kernel on a restricted universe and at λ = 2, and the lane
//! core.

use cyclecover_ring::Ring;
use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::TileUniverse;

/// `(size, nodes, pruned, dominated, sym_pruned, canon_pruned,
/// memo_hits, memo_entries)`.
type Row = (Option<usize>, u64, u64, u64, u64, u64, u64, u64);

fn solve(engine: &str, problem: &Problem, request: SolveRequest) -> Row {
    let sol = engine_by_name(engine)
        .expect("engine registered")
        .solve(problem, &request);
    let s = sol.stats();
    (
        sol.size(),
        s.nodes,
        s.pruned,
        s.dominated,
        s.sym_pruned,
        s.canon_pruned,
        s.memo_hits,
        s.memo_entries,
    )
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
        (Some(19), 53_416, 43_693, 963_862, 43, 0, 6_037, 9_593)
    );
}

#[test]
fn partition_engine_on_the_restricted_n14_universe() {
    let u = TileUniverse::with_max_gap(Ring::new(14), 4, 7);
    let problem = Problem::new(u, CoverSpec::complete(14));
    let request = SolveRequest::find_optimal().with_symmetry(SymmetryMode::Full);
    let row = solve("partition", &problem, request);
    assert_eq!(row, (Some(25), 1_142, 5_875, 977, 12, 0, 1, 179));
}

#[test]
fn rho_2_of_8_through_the_partition_route() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(8, 2),
        SolveRequest::find_optimal(),
    );
    assert_eq!(row, (Some(16), 16_919, 260_585, 0, 9, 0, 10_860, 15_272));
}

#[test]
fn lambda_2_of_8_within_17_on_the_lane_core() {
    let row = solve(
        "bitset",
        &Problem::lambda_fold(8, 2),
        SolveRequest::within_budget(17),
    );
    assert_eq!(row, (Some(17), 3_075, 2_047, 14_799, 9, 0, 549, 1_011));
}
