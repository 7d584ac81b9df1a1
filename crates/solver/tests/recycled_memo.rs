//! A recycled memo table answers like a fresh one, at the engine
//! boundary. A thread keeps the slot table of the last store it dropped
//! and hands it to its next private store (see `memo.rs`), so a request's
//! counts must not depend on what the thread solved before it: the ρ(10)
//! certification reports the same counters on a fresh thread and after
//! the table grew and served a λ-fold solve and a ρ(12) solve.

use cyclecover_solver::api::{
    engine_by_name, Optimality, Problem, SolveRequest, Stats, SymmetryMode,
};

/// Every counter the memo can move.
fn counts(s: &Stats) -> [(&'static str, u64); 6] {
    [
        ("nodes", s.nodes),
        ("pruned", s.pruned),
        ("dominated", s.dominated),
        ("memo_hits", s.memo_hits),
        ("memo_entries", s.memo_entries),
        ("shared_hits", s.shared_hits),
    ]
}

#[test]
fn rho_10_counts_do_not_depend_on_what_the_thread_solved_before() {
    std::thread::spawn(|| {
        let bitset = engine_by_name("bitset").expect("bitset engine registered");
        let rho10 = || {
            bitset.solve(
                &Problem::complete(10),
                &SolveRequest::find_optimal()
                    .with_symmetry(SymmetryMode::Root)
                    .with_memo(true),
            )
        };
        let fresh = rho10();
        assert_eq!(fresh.size(), Some(13));
        assert_eq!(fresh.stats().nodes, 230_819);
        assert_eq!(fresh.stats().shared_hits, 0);
        // More entries than 16 seed-size shards hold below their growth
        // threshold (16 × 768): the table every later solve on this
        // thread gets was grown and then cut back.
        assert!(fresh.stats().memo_entries > 16 * 768);

        // 2-bit entries under tile and waste slack, then 1-bit (unit)
        // entries over another universe.
        let lambda = bitset.solve(&Problem::lambda_fold(8, 2), &SolveRequest::find_optimal());
        assert!(matches!(lambda.optimality(), Optimality::Optimal { .. }));
        assert!(lambda.stats().memo_entries > 0);
        let rho12 = bitset.solve(&Problem::complete(12), &SolveRequest::find_optimal());
        assert_eq!(rho12.size(), Some(19));
        assert!(rho12.stats().memo_entries > 0);

        let recycled = rho10();
        assert_eq!(recycled.size(), Some(13));
        assert_eq!(counts(recycled.stats()), counts(fresh.stats()));
    })
    .join()
    .expect("the counts agree");
}
