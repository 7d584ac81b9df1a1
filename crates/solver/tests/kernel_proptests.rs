//! Differential property tests through the engine boundary: the bitset
//! coverage kernel (engine `bitset`) must be observationally identical to
//! the legacy multiplicity kernel (engine `legacy`) — same
//! feasible/infeasible verdicts, same optimum — on every instance shape
//! the solver supports (`n ≤ 9`, complete and random subset specs, full
//! and restricted universes).

use cyclecover_graph::{Edge, EdgeMultiset};
use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::{budget_search_reference, CoverSpec, Outcome};
use cyclecover_solver::TileUniverse;
use proptest::prelude::*;

const MAX_NODES: u64 = 200_000_000;

/// Asserts the chosen tiles satisfy the spec's demands.
fn assert_meets_spec(n: u32, tiles: &[Tile], spec: &CoverSpec) {
    let ring = Ring::new(n);
    let mut cov = EdgeMultiset::new(n as usize);
    for t in tiles {
        for c in t.chords(ring) {
            cov.insert(c.to_edge());
        }
    }
    for (d, &need) in spec.demand.iter().enumerate() {
        let e = Edge::from_dense_index(d, n as usize);
        assert!(
            cov.count(e) >= need,
            "request {e} covered {} < demand {need}",
            cov.count(e)
        );
    }
}

/// Optimum through one engine by probing every budget from 0 upward —
/// deliberately NOT `FindOptimal`, whose deepening starts at the lower
/// bound the engines share. Probing from 0 keeps this suite independent
/// of the bound: if the bound ever overshot the true optimum, these
/// probes would find the smaller covering `FindOptimal` misses.
fn optimum_via(engine: &str, problem: &Problem) -> (u32, Vec<Tile>) {
    let engine = engine_by_name(engine).expect("registered engine");
    for budget in 0..=64u32 {
        let sol = engine.solve(
            problem,
            &SolveRequest::within_budget(budget).with_max_nodes(MAX_NODES),
        );
        match sol.optimality() {
            Optimality::Feasible => {
                let tiles = sol.covering().expect("feasible carries covering").to_vec();
                return (budget, tiles);
            }
            Optimality::Infeasible => continue,
            other => panic!("inconclusive at budget {budget}: {other:?}"),
        }
    }
    panic!("no covering within 64 tiles — universe too restricted?");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Complete specs: identical optimum and valid witnesses on both
    /// kernels, across full (`max_len = n`) and C3/C4 universes.
    #[test]
    fn complete_spec_kernels_agree(n in 5u32..=9, full in any::<bool>()) {
        let ring = Ring::new(n);
        let max_len = if full { n as usize } else { 4 };
        let make = || Problem::new(TileUniverse::new(ring, max_len), CoverSpec::complete(n));
        let problem = make();
        let (fast_opt, fast_tiles) = optimum_via("bitset", &problem);
        let (slow_opt, slow_tiles) = optimum_via("legacy", &problem);
        prop_assert_eq!(fast_opt, slow_opt, "n={} max_len={}", n, max_len);
        assert_meets_spec(n, &fast_tiles, problem.spec());
        assert_meets_spec(n, &slow_tiles, problem.spec());
    }

    /// Random subset specs: same optimum on both kernels, and the bitset
    /// witness covers the demanded requests.
    #[test]
    fn subset_spec_kernels_agree(
        n in 5u32..=9,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000), 1..10),
    ) {
        let ring = Ring::new(n);
        let requests: Vec<Edge> = picks
            .iter()
            .filter_map(|&(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| Edge::new(a, b))
            })
            .collect();
        prop_assume!(!requests.is_empty());
        let spec = CoverSpec::subset(n, &requests);
        let problem = Problem::new(TileUniverse::new(ring, 4), spec);
        let (fast_opt, fast_tiles) = optimum_via("bitset", &problem);
        let (slow_opt, _) = optimum_via("legacy", &problem);
        prop_assert_eq!(fast_opt, slow_opt, "n={} requests={:?}", n, requests);
        assert_meets_spec(n, &fast_tiles, problem.spec());
    }

    /// The iterative core (engine path, memo off) must agree with the
    /// PR-3 recursive reference **to the node** on random subset specs,
    /// for every symmetry mode, at the decisive budgets — verdicts,
    /// optima, and exact node counts. This is the differential gate that
    /// keeps the allocation-free rewrite honest.
    #[test]
    fn iterative_core_matches_recursive_reference(
        n in 5u32..=10,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000), 1..12),
    ) {
        let ring = Ring::new(n);
        let requests: Vec<Edge> = picks
            .iter()
            .filter_map(|&(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| Edge::new(a, b))
            })
            .collect();
        prop_assume!(!requests.is_empty());
        let spec = CoverSpec::subset(n, &requests);
        let problem = Problem::new(TileUniverse::new(ring, 4), spec.clone());
        let (opt, _) = optimum_via("bitset", &problem);
        let engine = engine_by_name("bitset").unwrap();
        for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
            for budget in [opt.saturating_sub(1), opt, opt + 1] {
                let (ref_outcome, ref_stats) = budget_search_reference(
                    problem.universe(), &spec, budget, u64::MAX, sym,
                );
                let sol = engine.solve(
                    &problem,
                    &SolveRequest::within_budget(budget)
                        .with_symmetry(sym)
                        .with_memo(false)
                        .with_max_nodes(MAX_NODES),
                );
                let ref_feasible = matches!(ref_outcome, Outcome::Feasible(_));
                let iter_feasible = matches!(sol.optimality(), Optimality::Feasible);
                prop_assert_eq!(
                    ref_feasible, iter_feasible,
                    "verdict drift: n={} budget={} {:?}", n, budget, sym
                );
                prop_assert_eq!(
                    ref_stats.nodes, sol.stats().nodes,
                    "node-count drift: n={} budget={} {:?}", n, budget, sym
                );
                prop_assert_eq!(
                    ref_stats.dominated, sol.stats().dominated,
                    "dominance drift: n={} budget={} {:?}", n, budget, sym
                );
                prop_assert_eq!(
                    ref_stats.sym_pruned,
                    sol.stats().sym_pruned + sol.stats().canon_pruned,
                    "orbit-filter drift: n={} budget={} {:?}", n, budget, sym
                );
            }
        }
    }

    /// Memo soundness: with the memo on (and canonical keying under
    /// `Full`), a search may only get *faster* — it must never report
    /// `Infeasible` on a budget the memo-free search satisfies, and the
    /// optimum must match exactly.
    #[test]
    fn memo_never_flips_a_verdict(
        n in 5u32..=9,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000), 1..12),
        sym_kind in 0u8..3,
    ) {
        let ring = Ring::new(n);
        let requests: Vec<Edge> = picks
            .iter()
            .filter_map(|&(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| Edge::new(a, b))
            })
            .collect();
        prop_assume!(!requests.is_empty());
        let sym = match sym_kind {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let spec = CoverSpec::subset(n, &requests);
        let problem = Problem::new(TileUniverse::new(ring, n as usize), spec);
        let engine = engine_by_name("bitset").unwrap();
        let (opt, tiles) = optimum_via("bitset", &problem);
        assert_meets_spec(n, &tiles, problem.spec());
        for budget in [opt.saturating_sub(1), opt] {
            let plain = engine.solve(
                &problem,
                &SolveRequest::within_budget(budget)
                    .with_symmetry(sym)
                    .with_memo(false)
                    .with_max_nodes(MAX_NODES),
            );
            let memoed = engine.solve(
                &problem,
                &SolveRequest::within_budget(budget)
                    .with_symmetry(sym)
                    .with_max_nodes(MAX_NODES),
            );
            prop_assert_eq!(
                matches!(plain.optimality(), Optimality::Feasible),
                matches!(memoed.optimality(), Optimality::Feasible),
                "memo flipped n={} budget={} {:?}: {:?} vs {:?}",
                n, budget, sym, plain.optimality(), memoed.optimality()
            );
            prop_assert!(
                memoed.stats().nodes <= plain.stats().nodes,
                "memo expanded MORE nodes: n={} budget={} {:?}", n, budget, sym
            );
            if let Some(found) = memoed.covering() {
                assert_meets_spec(n, found, problem.spec());
            }
        }
    }

    /// λ-fold specs route through the lane cores (2-bit lanes for λ ≤ 3,
    /// 4-bit lanes beyond) and must produce coverings meeting every
    /// multiplicity (the dispatch seam itself).
    #[test]
    fn lambda_specs_still_solved(n in 5u32..=7, lambda in 2u32..=5) {
        let ring = Ring::new(n);
        let spec = CoverSpec::lambda_fold(n, lambda);
        prop_assert!(!spec.is_unit());
        let problem = Problem::new(TileUniverse::new(ring, 4), spec);
        let (opt, tiles) = optimum_via("bitset", &problem);
        assert_meets_spec(n, &tiles, problem.spec());
        prop_assert!(opt as u64 >= problem.spec().capacity_lower_bound(ring));
    }
}
