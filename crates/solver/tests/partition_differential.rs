//! Differential property tests pinning the slack-budgeted partition
//! kernel (`bnb::budget_search_partition`, the PR-10 exact-cover route)
//! to the test-only exact oracle (`tests/oracle`). On random specs with
//! demands in `0..=3`, probed at the capacity budget (waste slack in
//! `[0, n)` — the dispatch's own trigger zone) and one above it, the
//! partition kernel must reproduce verdicts and optima exactly, return
//! witnesses meeting every multiplicity, and stay sound under every
//! symmetry mode × memo combination — including a shared store reused
//! with the word-parallel lane core (`bnb::budget_search_packed`, which
//! bypasses the low-slack dispatch), which exercises the width-2/width-3
//! memo aliasing guard in anger.

mod oracle;

use cyclecover_graph::{Edge, EdgeMultiset};
use cyclecover_ring::Ring;
use cyclecover_solver::api::SymmetryMode;
use cyclecover_solver::bnb::{
    budget_search_packed, budget_search_partition, CoverSpec, MemoStore, Outcome,
};
use cyclecover_solver::TileUniverse;
use proptest::prelude::*;

const MAX_NODES: u64 = 200_000_000;

/// Asserts the chosen tile indices meet every request's multiplicity.
fn assert_meets_spec(u: &TileUniverse, tiles: &[u32], spec: &CoverSpec) {
    let ring = u.ring();
    let n = ring.n();
    let mut cov = EdgeMultiset::new(n as usize);
    for &i in tiles {
        for c in u.tile(i).chords(ring) {
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

/// A random multiplicity spec with demands in `0..=3` and at least one
/// demand ≥ 1. Unlike the λ-differential generator this one keeps pure
/// unit specs too: the partition kernel serves demands `1..=3`
/// uniformly.
fn sparse_spec(n: u32, picks: &[(u32, u32, u32)]) -> Option<CoverSpec> {
    let mut demand = vec![0u32; n as usize * (n as usize - 1) / 2];
    for &(a, b, mult) in picks {
        let (a, b) = (a % n, b % n);
        if a != b {
            let d = Edge::new(a, b).dense_index(n as usize);
            demand[d] = demand[d].max(1 + mult % 3);
        }
    }
    demand
        .iter()
        .any(|&d| d >= 1)
        .then_some(CoverSpec { demand })
}

/// The budget at which the waste slack `budget·n − λ·Σd(e)` first lands
/// in `[0, n)` — the capacity bound, i.e. exactly the low-slack zone the
/// sequential dispatch reroutes to the partition kernel.
fn capacity_budget(u: &TileUniverse, spec: &CoverSpec) -> u32 {
    let n = u.ring().n() as u64;
    let wsum: u64 = (0..u.num_chords())
        .map(|d| spec.demand[d as usize] as u64 * u.dist_of_pri(u.pri_of_dense(d)) as u64)
        .sum();
    wsum.div_ceil(n) as u32
}

/// Reference verdict: the oracle's.
fn reference(u: &TileUniverse, spec: &CoverSpec, budget: u32) -> Outcome {
    match oracle::covering_within(u, spec, budget) {
        Some(tiles) => Outcome::Feasible(tiles),
        None => Outcome::Infeasible,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random demands `0..=3` at the capacity budget and one above:
    /// every symmetry mode × memo combination of the partition kernel
    /// agrees with the oracle's verdict, and every witness it returns
    /// meets the full multiplicity spec.
    #[test]
    fn partition_matches_the_bnb_cores_on_low_slack_specs(
        n in 5u32..=8,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..10),
    ) {
        let spec = sparse_spec(n, &picks);
        prop_assume!(spec.is_some());
        let spec = spec.unwrap();
        let u = TileUniverse::new(Ring::new(n), 4);
        let cap = capacity_budget(&u, &spec);
        for budget in [cap, cap + 1] {
            let want = match reference(&u, &spec, budget) {
                Outcome::Feasible(tiles) => {
                    assert_meets_spec(&u, &tiles, &spec);
                    true
                }
                Outcome::Infeasible => false,
                Outcome::Exhausted(_) => panic!("reference hit the node cap"),
            };
            for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
                for memo in [false, true] {
                    let store = memo.then(|| MemoStore::new(&u, 1 << 20).unwrap());
                    let (got, stats) = budget_search_partition(
                        &u, &spec, budget, MAX_NODES, sym, store.as_ref(),
                    );
                    prop_assert_eq!(stats.partition_probes, 1);
                    match got {
                        Outcome::Feasible(tiles) => {
                            prop_assert!(
                                want,
                                "partition found a covering the oracle refuted: \
                                 n={} budget={} {:?} memo={}", n, budget, sym, memo
                            );
                            assert_meets_spec(&u, &tiles, &spec);
                        }
                        Outcome::Infeasible => prop_assert!(
                            !want,
                            "partition refuted a feasible budget: \
                             n={} budget={} {:?} memo={}", n, budget, sym, memo
                        ),
                        Outcome::Exhausted(_) => panic!("partition hit the node cap"),
                    }
                }
            }
        }
    }

    /// Optimum agreement: probing every budget upward from the capacity
    /// budget, the partition kernel's first feasible budget equals the
    /// oracle's optimum — the kernel neither loses solutions (incomplete
    /// search) nor invents them (unsound waste accounting).
    #[test]
    fn partition_optimum_matches_the_reference(
        n in 5u32..=8,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..8),
        sym_kind in 0u8..3,
    ) {
        let spec = sparse_spec(n, &picks);
        prop_assume!(spec.is_some());
        let spec = spec.unwrap();
        let sym = match sym_kind {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let u = TileUniverse::new(Ring::new(n), 4);
        let store = MemoStore::new(&u, 1 << 20).unwrap();
        let mut part_opt = None;
        for budget in capacity_budget(&u, &spec)..=64 {
            if let (Outcome::Feasible(tiles), _) = budget_search_partition(
                &u, &spec, budget, MAX_NODES, sym, Some(&store),
            ) {
                assert_meets_spec(&u, &tiles, &spec);
                part_opt = Some(budget);
                break;
            }
        }
        let (ref_opt, _) = oracle::optimum(&u, &spec, 64);
        prop_assert_eq!(part_opt, Some(ref_opt), "optimum drift: n={} {:?}", n, sym);
    }

    /// Sharing one store across the lane core (width-2 entries, tile
    /// slack) and the partition kernel (width-3 entries, waste slack)
    /// must not corrupt either: verdicts match the memo-free runs on
    /// both kernels afterwards.
    #[test]
    fn shared_store_never_leaks_across_kernel_widths(
        n in 5u32..=7,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..8),
    ) {
        let spec = sparse_spec(n, &picks);
        prop_assume!(spec.as_ref().is_some_and(|s| s.max_demand() >= 2));
        let spec = spec.unwrap();
        let u = TileUniverse::new(Ring::new(n), 4);
        let cap = capacity_budget(&u, &spec);
        let store = MemoStore::new(&u, 1 << 20).unwrap();
        for budget in [cap, cap + 1] {
            let (lanes, _) = budget_search_packed(
                &u, &spec, budget, MAX_NODES, SymmetryMode::Off, Some(&store),
            );
            let (part, _) = budget_search_partition(
                &u, &spec, budget, MAX_NODES, SymmetryMode::Off, Some(&store),
            );
            let bare = reference(&u, &spec, budget);
            prop_assert_eq!(
                matches!(lanes, Outcome::Feasible(_)),
                matches!(&bare, Outcome::Feasible(_)),
                "shared store flipped the lane verdict: n={} budget={}", n, budget
            );
            prop_assert_eq!(
                matches!(part, Outcome::Feasible(_)),
                matches!(&bare, Outcome::Feasible(_)),
                "shared store flipped the partition verdict: n={} budget={}", n, budget
            );
        }
    }
}

/// The paper's λ-fold rows, deterministically: the partition kernel
/// reproduces every measured optimum (refutes `opt − 1`, witnesses
/// `opt`) on full double- and triple-cover specs, under `Full` symmetry
/// with the memo on — the exact configuration the benches measure.
#[test]
fn full_lambda_rows_agree_through_the_partition_kernel() {
    for (n, lambda, opt) in [
        (5u32, 2u32, 6u32),
        (6, 2, 9),
        (7, 2, 12),
        (5, 3, 9),
        (6, 3, 14),
    ] {
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let spec = CoverSpec::lambda_fold(n, lambda);
        let store = MemoStore::new(&u, 4 << 20).unwrap();
        let (below, _) = budget_search_partition(
            &u,
            &spec,
            opt - 1,
            MAX_NODES,
            SymmetryMode::Full,
            Some(&store),
        );
        assert_eq!(below, Outcome::Infeasible, "ρ_{lambda}({n}) > {}", opt - 1);
        let (at, _) =
            budget_search_partition(&u, &spec, opt, MAX_NODES, SymmetryMode::Full, Some(&store));
        match at {
            Outcome::Feasible(tiles) => assert_meets_spec(&u, &tiles, &spec),
            other => panic!("ρ_{lambda}({n}) = {opt} witness missing: {other:?}"),
        }
    }
}
