//! The frontier-parallel driver at one thread, pinned. With
//! `ExecPolicy::Parallel { threads: 1, prefix_depth: 3 }` the pool drains
//! the frontier in FIFO order on the calling thread, so a probe's
//! statistics are deterministic: the breadth-first expansion, then each
//! worker in turn against the request's one refutation store. One row
//! per route the driver serves — the unit core (memo off and on, root
//! and full symmetry), the lane core, the recursive multiplicity kernel,
//! and the partition kernel, which parallel λ ≤ 3 probes take under the
//! same route rule as sequential ones.

use cyclecover_solver::api::{
    engine_by_name, ExecPolicy, Optimality, Problem, SolveRequest, SymmetryMode,
};

/// The statistics one row pins.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    size: Option<usize>,
    nodes: u64,
    pruned: u64,
    dominated: u64,
    sym_pruned: u64,
    canon_pruned: u64,
    memo_hits: u64,
    memo_entries: u64,
    sym_factor: u32,
    partition_probes: u64,
}

/// Solves `request` with the `bitset` engine on the one-thread frontier.
fn one_thread(problem: &Problem, request: SolveRequest) -> (Optimality, Pinned) {
    let request = request.with_policy(ExecPolicy::Parallel {
        threads: 1,
        prefix_depth: 3,
    });
    let sol = engine_by_name("bitset")
        .expect("bitset engine registered")
        .solve(problem, &request);
    let s = sol.stats();
    let pinned = Pinned {
        size: sol.size(),
        nodes: s.nodes,
        pruned: s.pruned,
        dominated: s.dominated,
        sym_pruned: s.sym_pruned,
        canon_pruned: s.canon_pruned,
        memo_hits: s.memo_hits,
        memo_entries: s.memo_entries,
        sym_factor: s.sym_factor,
        partition_probes: s.partition_probes,
    };
    (*sol.optimality(), pinned)
}

fn is_optimal(o: &Optimality) -> bool {
    matches!(o, Optimality::Optimal { .. })
}

#[test]
fn unit_core_without_memo_reproduces_the_n8_refutation() {
    let (verdict, got) = one_thread(
        &Problem::complete(8),
        SolveRequest::within_budget(8)
            .with_symmetry(SymmetryMode::Off)
            .with_memo(false),
    );
    assert_eq!(verdict, Optimality::Infeasible);
    assert_eq!(
        got,
        Pinned {
            size: None,
            nodes: 97_465,
            pruned: 79_421,
            dominated: 223_780,
            sym_pruned: 0,
            canon_pruned: 0,
            memo_hits: 0,
            memo_entries: 0,
            sym_factor: 1,
            partition_probes: 0,
        }
    );
}

#[test]
fn unit_core_certifies_rho_10_under_root_symmetry() {
    let (verdict, got) = one_thread(&Problem::complete(10), SolveRequest::find_optimal());
    assert!(is_optimal(&verdict), "{verdict:?}");
    assert_eq!(
        got,
        Pinned {
            size: Some(13),
            nodes: 230_819,
            pruned: 194_444,
            dominated: 1_170_923,
            sym_pruned: 21,
            canon_pruned: 0,
            memo_hits: 20_036,
            memo_entries: 34_102,
            sym_factor: 4,
            partition_probes: 0,
        }
    );
}

#[test]
fn unit_core_certifies_rho_10_with_canonical_keys() {
    let (verdict, got) = one_thread(
        &Problem::complete(10),
        SolveRequest::find_optimal().with_symmetry(SymmetryMode::Full),
    );
    assert!(is_optimal(&verdict), "{verdict:?}");
    assert_eq!(
        got,
        Pinned {
            size: Some(13),
            nodes: 223_812,
            pruned: 172_797,
            dominated: 1_019_288,
            sym_pruned: 21,
            canon_pruned: 18_543,
            memo_hits: 19_047,
            memo_entries: 29_781,
            sym_factor: 4,
            partition_probes: 0,
        }
    );
}

/// Budget 17 on the double cover of `K_8` leaves waste slack `n`, so the
/// probe stays on the lane core.
#[test]
fn lane_core_serves_a_slack_n_probe() {
    let (verdict, got) = one_thread(&Problem::lambda_fold(8, 2), SolveRequest::within_budget(17));
    assert_eq!(verdict, Optimality::Feasible);
    assert_eq!(
        got,
        Pinned {
            size: Some(17),
            nodes: 180,
            pruned: 88,
            dominated: 1_287,
            sym_pruned: 9,
            canon_pruned: 0,
            memo_hits: 20,
            memo_entries: 74,
            sym_factor: 4,
            partition_probes: 0,
        }
    );
}

/// Demands above 3 run the recursive multiplicity kernel's workers.
#[test]
fn recursive_core_certifies_rho_4_of_5() {
    let (verdict, got) = one_thread(
        &Problem::lambda_fold(5, 4),
        SolveRequest::find_optimal().with_symmetry(SymmetryMode::Off),
    );
    assert!(is_optimal(&verdict), "{verdict:?}");
    assert_eq!(
        got,
        Pinned {
            size: Some(12),
            nodes: 26,
            pruned: 12,
            dominated: 0,
            sym_pruned: 0,
            canon_pruned: 0,
            memo_hits: 0,
            memo_entries: 0,
            sym_factor: 1,
            partition_probes: 0,
        }
    );
}

/// ρ₂(8) = 16 and ρ₃(6) = 14 sit at the capacity bound: the decisive
/// probe's waste slack is below `n`, so the parallel probe takes the
/// partition route exactly as the sequential one does.
#[test]
fn capacity_tight_lambda_probes_take_the_partition_route() {
    for (n, lambda, opt) in [(8u32, 2u32, 16usize), (6, 3, 14)] {
        let (verdict, got) = one_thread(
            &Problem::lambda_fold(n, lambda),
            SolveRequest::find_optimal(),
        );
        assert!(is_optimal(&verdict), "rho_{lambda}({n}): {verdict:?}");
        assert_eq!(got.size, Some(opt), "rho_{lambda}({n})");
        assert_eq!(got.partition_probes, 1, "rho_{lambda}({n}): {got:?}");
    }
}
