//! The shared refutation store's contract, at the engine boundary:
//! sharing a [`MemoStore`] across budgets, probes, and requests is a
//! pure accelerator. It must never flip a verdict, never expand more
//! nodes than a cold search, and its reuse must be *visible* — the
//! `shared_hits` counter is what CI gates on, so these tests pin it
//! above zero everywhere the design promises cross-searcher traffic.

use cyclecover_graph::{Edge, EdgeMultiset};
use cyclecover_ring::Ring;
use cyclecover_solver::api::{
    engine_by_name, Engine, Optimality, Problem, SolveRequest, SymmetryMode,
};
use cyclecover_solver::bnb::{MemoStore, DEFAULT_MEMO_BYTES};
use cyclecover_solver::lower_bound::rho_formula;
use proptest::prelude::*;
use std::sync::Arc;

/// Asserts `tiles` covers every request of `K_n` at least once (the
/// DRC-level checks are the kernel's own invariants; coverage is the
/// part a bad prune would break).
fn assert_covers_complete(n: u32, tiles: &[cyclecover_ring::Tile]) {
    let ring = Ring::new(n);
    let mut cov = EdgeMultiset::new(n as usize);
    for t in tiles {
        for c in t.chords(ring) {
            cov.insert(c.to_edge());
        }
    }
    for u in 0..n {
        for v in (u + 1)..n {
            assert!(
                cov.count(Edge::new(u, v)) >= 1,
                "request ({u},{v}) uncovered"
            );
        }
    }
}

fn bitset() -> &'static dyn Engine {
    engine_by_name("bitset").expect("bitset engine registered")
}

fn shared_store(problem: &Problem) -> Arc<MemoStore> {
    Arc::new(MemoStore::new(problem.universe(), DEFAULT_MEMO_BYTES).expect("store fits"))
}

/// The ρ(10) certification is the heaviest default workload, and the
/// request-wide store is what pins it under the pre-sharing baseline
/// (252,472 nodes, BENCH_5): the whole request feeds one store instead
/// of one private table per probe. A second certification against that
/// same store then answers almost entirely from recorded refutations —
/// the cross-request ring of the same mechanism, visible as
/// `shared_hits`.
#[test]
fn rho_10_certification_beats_the_private_memo_baseline_and_warms_the_store() {
    let problem = Problem::complete(10);
    let store = shared_store(&problem);
    let cold = bitset().solve(
        &problem,
        &SolveRequest::find_optimal().with_memo_store(Arc::clone(&store)),
    );
    assert!(
        matches!(cold.optimality(), Optimality::Optimal { .. }),
        "ρ(10) must certify: {:?}",
        cold.optimality()
    );
    assert_eq!(cold.size(), Some(13));
    assert!(
        cold.stats().nodes < 252_472,
        "the request-wide store must beat the per-probe-private baseline \
         (got {} nodes)",
        cold.stats().nodes
    );
    let warm = bitset().solve(
        &problem,
        &SolveRequest::find_optimal().with_memo_store(Arc::clone(&store)),
    );
    assert_eq!(warm.size(), Some(13));
    assert!(
        warm.stats().shared_hits > 0,
        "the warm certification must answer from the first one's refutations"
    );
    assert!(
        warm.stats().nodes * 100 < cold.stats().nodes,
        "warm ρ(10) should be orders of magnitude cheaper: {} vs {}",
        warm.stats().nodes,
        cold.stats().nodes
    );
}

/// Cross-request reuse: a second identical certification against the
/// store the first one fed answers from recorded refutations — same
/// verdict, a small fraction of the work, and the reuse visible.
#[test]
fn warm_store_repeat_agrees_and_is_nearly_free() {
    let problem = Problem::complete(8);
    let store = shared_store(&problem);
    let request = SolveRequest::find_optimal()
        .with_symmetry(SymmetryMode::Off)
        .with_memo_store(Arc::clone(&store));
    let cold = bitset().solve(&problem, &request);
    let warm = bitset().solve(&problem, &request);
    // The verdicts must agree; the embedded proofs legitimately differ
    // (the warm refutation needs far fewer nodes, and says so).
    assert!(matches!(cold.optimality(), Optimality::Optimal { .. }));
    assert!(matches!(warm.optimality(), Optimality::Optimal { .. }));
    assert_eq!(cold.size(), warm.size());
    assert_eq!(warm.size(), Some(rho_formula(8) as usize));
    assert!(warm.stats().shared_hits > 0, "warm run must hit the store");
    assert!(
        warm.stats().nodes * 10 < cold.stats().nodes,
        "warm repeat should be at least 10x cheaper: {} vs {}",
        warm.stats().nodes,
        cold.stats().nodes
    );
}

/// Cross-budget reuse between *requests*: refutations recorded while
/// refuting ρ−1 accelerate a later full certification over the same
/// store, because the sweep's own ρ−1 probe finds them already there.
#[test]
fn refutation_at_one_budget_accelerates_the_full_certification() {
    let n = 8;
    let rho = rho_formula(n) as u32;
    let problem = Problem::complete(n);
    let store = shared_store(&problem);
    let refute = bitset().solve(
        &problem,
        &SolveRequest::within_budget(rho - 1)
            .with_symmetry(SymmetryMode::Off)
            .with_memo_store(Arc::clone(&store)),
    );
    assert!(matches!(refute.optimality(), Optimality::Infeasible));
    let cold = bitset().solve(
        &problem,
        &SolveRequest::find_optimal().with_symmetry(SymmetryMode::Off),
    );
    let warm = bitset().solve(
        &problem,
        &SolveRequest::find_optimal()
            .with_symmetry(SymmetryMode::Off)
            .with_memo_store(Arc::clone(&store)),
    );
    assert!(matches!(cold.optimality(), Optimality::Optimal { .. }));
    assert!(matches!(warm.optimality(), Optimality::Optimal { .. }));
    assert_eq!(cold.size(), warm.size());
    assert!(warm.stats().shared_hits > 0);
    assert!(
        warm.stats().nodes < cold.stats().nodes,
        "a warm ρ−1 refutation must shrink the sweep: {} vs {}",
        warm.stats().nodes,
        cold.stats().nodes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cross-budget soundness contract, differentially: populate a
    /// store at budget k = ρ−1 (the refutation frontier), reuse it at
    /// k−1, k, or k+1, and compare against a cold default search. The
    /// re-normalized entries may only *prune* — identical verdict,
    /// no more nodes than cold, and any witness still validates.
    #[test]
    fn cross_budget_sharing_never_flips_a_verdict(
        n in 4u32..=10,
        sym_kind in 0u8..3,
        delta_kind in 0u8..3,
    ) {
        let delta = delta_kind as i32 - 1;
        let sym = match sym_kind {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let rho = rho_formula(n) as u32;
        let k0 = rho - 1;
        let k1 = ((k0 as i32 + delta).max(1)) as u32;
        let problem = Problem::complete(n);
        let store = shared_store(&problem);
        let populate = bitset().solve(
            &problem,
            &SolveRequest::within_budget(k0)
                .with_symmetry(sym)
                .with_memo_store(Arc::clone(&store)),
        );
        prop_assert!(
            matches!(populate.optimality(), Optimality::Infeasible),
            "ρ−1 must refute at n={}: {:?}", n, populate.optimality()
        );
        let cold = bitset().solve(
            &problem,
            &SolveRequest::within_budget(k1).with_symmetry(sym),
        );
        let warm = bitset().solve(
            &problem,
            &SolveRequest::within_budget(k1)
                .with_symmetry(sym)
                .with_memo_store(Arc::clone(&store)),
        );
        prop_assert_eq!(
            std::mem::discriminant(cold.optimality()),
            std::mem::discriminant(warm.optimality()),
            "sharing flipped n={} k0={} k1={} {:?}: {:?} vs {:?}",
            n, k0, k1, sym, cold.optimality(), warm.optimality()
        );
        prop_assert!(
            warm.stats().nodes <= cold.stats().nodes,
            "sharing expanded MORE nodes at n={} k1={} {:?}: {} vs {}",
            n, k1, sym, warm.stats().nodes, cold.stats().nodes
        );
        if let Some(tiles) = warm.covering() {
            assert_covers_complete(n, tiles);
        }
    }
}
