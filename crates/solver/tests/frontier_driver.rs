//! The lane-core row of the former frontier-driver tests. The
//! frontier-parallel driver is gone and every budget probe runs one
//! sequential search, so the row now checks where the route rule sends a
//! probe whose waste slack is `n`; the search's counters on the same
//! instance are pinned in `pinned_stats.rs`
//! (`lambda_2_of_8_within_17_on_the_lane_core`).

use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest};

/// Budget 17 on the double cover of `K_8` leaves waste slack `n`, so the
/// probe stays on the lane core and never reaches the partition kernel.
#[test]
fn lane_core_serves_a_slack_n_probe() {
    let sol = engine_by_name("bitset")
        .expect("bitset engine registered")
        .solve(
            &Problem::lambda_fold(8, 2),
            &SolveRequest::within_budget(17),
        );
    assert_eq!(*sol.optimality(), Optimality::Feasible);
    assert_eq!(sol.size(), Some(17));
    let s = sol.stats();
    assert_eq!(s.partition_probes, 0, "{s:?}");
    assert_eq!(s.sym_factor, 4, "{s:?}");
}
