//! Differential property tests pinning the packed λ-fold lane kernels to
//! the test-only exact oracle (`tests/oracle`) through the engine
//! boundary: engine `bitset` (which dispatches demands in `2..=3` to
//! 2-bit lanes, demands in `4..=15` to 4-bit lanes and larger demands to
//! 16-bit lanes, on the lane core or the partition kernel) must agree
//! with the oracle on verdicts and optima for arbitrary λ ≤ 6 and
//! λ = 16..=18 specs — every symmetry mode, memo off — and turning the
//! memo on must never flip a verdict nor expand more nodes.

mod oracle;

use cyclecover_graph::{Edge, EdgeMultiset};
use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::TileUniverse;
use proptest::prelude::*;

const MAX_NODES: u64 = 200_000_000;

/// Asserts the chosen tiles meet every request's multiplicity.
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

/// A random multiplicity spec with demands in `0..=3` (and at least one
/// demand ≥ 2, so 2-bit lanes — not the unit spec's 1-bit lanes — serve it),
/// or, from `base` 4, in `{0} ∪ 4..=6`, which the 4-bit lanes serve, or,
/// from `base` 16, in `{0} ∪ 16..=18`, which the 16-bit lanes serve.
fn sparse_spec(n: u32, picks: &[(u32, u32, u32)], base: u32) -> Option<CoverSpec> {
    let mut demand = vec![0u32; n as usize * (n as usize - 1) / 2];
    for &(a, b, mult) in picks {
        let (a, b) = (a % n, b % n);
        if a != b {
            let d = Edge::new(a, b).dense_index(n as usize);
            demand[d] = demand[d].max(base + mult % 3);
        }
    }
    demand
        .iter()
        .any(|&d| d >= 2)
        .then_some(CoverSpec { demand })
}

/// Optimum through one engine by probing every budget from 0 upward —
/// bound-independent, exactly as the unit-demand differential suite
/// does it.
fn optimum_via(engine: &str, problem: &Problem) -> (u32, Vec<Tile>) {
    optimum_within(engine, problem, MAX_NODES)
        .unwrap_or_else(|budget| panic!("inconclusive at budget {budget}"))
}

/// [`optimum_via`] with `max_nodes` per probe: `Err` names the first
/// budget a probe left inconclusive.
fn optimum_within(
    engine: &str,
    problem: &Problem,
    max_nodes: u64,
) -> Result<(u32, Vec<Tile>), u32> {
    let engine = engine_by_name(engine).expect("registered engine");
    for budget in 0..=64u32 {
        let sol = engine.solve(
            problem,
            &SolveRequest::within_budget(budget).with_max_nodes(max_nodes),
        );
        match sol.optimality() {
            Optimality::Feasible => {
                let tiles = sol.covering().expect("feasible carries covering").to_vec();
                return Ok((budget, tiles));
            }
            Optimality::Infeasible => continue,
            _ => return Err(budget),
        }
    }
    panic!("no covering within 64 tiles — universe too restricted?");
}

/// The oracle's optimum and covering, as tiles.
fn oracle_optimum(problem: &Problem) -> (u32, Vec<Tile>) {
    let u = problem.universe();
    let (opt, idx) = oracle::optimum(u, problem.spec(), 64);
    (opt, idx.iter().map(|&i| u.tile(i).clone()).collect())
}

/// The oracle's verdict on `budget`.
fn oracle_feasible(problem: &Problem, budget: u32) -> bool {
    oracle::covering_within(problem.universe(), problem.spec(), budget).is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary λ ≤ 3 specs: the packed kernel and the oracle agree on
    /// the optimum; both witnesses meet the multiplicities; and at the
    /// decisive budgets the packed kernel's verdict matches the oracle's
    /// under every symmetry mode (symmetry must not change *what* is
    /// provable).
    #[test]
    fn packed_matches_legacy_on_sparse_specs(
        n in 5u32..=8,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..10),
    ) {
        let spec = sparse_spec(n, &picks, 1);
        prop_assume!(spec.is_some());
        let spec = spec.unwrap();
        let problem = Problem::new(TileUniverse::new(Ring::new(n), 4), spec.clone());
        let (fast_opt, fast_tiles) = optimum_via("bitset", &problem);
        // The oracle prunes by two bounds only, so deep optima make it
        // slow, not wrong. Keep the sampled instances where it answers
        // quickly.
        prop_assume!(fast_opt <= 6);
        let (slow_opt, slow_tiles) = oracle_optimum(&problem);
        prop_assert_eq!(fast_opt, slow_opt, "optimum drift: n={}", n);
        assert_meets_spec(n, &fast_tiles, problem.spec());
        assert_meets_spec(n, &slow_tiles, problem.spec());

        let bitset = engine_by_name("bitset").unwrap();
        for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
            for budget in [fast_opt.saturating_sub(1), fast_opt] {
                let fast = bitset.solve(
                    &problem,
                    &SolveRequest::within_budget(budget)
                        .with_symmetry(sym)
                        .with_memo(false)
                        .with_max_nodes(MAX_NODES),
                );
                let fast_feasible = matches!(fast.optimality(), Optimality::Feasible);
                let slow_feasible = oracle_feasible(&problem, budget);
                prop_assert_eq!(
                    fast_feasible, slow_feasible,
                    "verdict drift: n={} budget={} {:?}", n, budget, sym
                );
                if let Some(tiles) = fast.covering() {
                    assert_meets_spec(n, tiles, problem.spec());
                }
            }
        }
    }

    /// Memo soundness on the lane core: with the memo on, a λ-fold
    /// search may only get *faster* — same verdict, and never more
    /// nodes (lane keys are always raw, so the memo-on tree is a
    /// node-for-node subset of the memo-off tree).
    #[test]
    fn lambda_memo_never_flips_nor_expands(
        n in 5u32..=8,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..10),
        sym_kind in 0u8..3,
    ) {
        let spec = sparse_spec(n, &picks, 1);
        prop_assume!(spec.is_some());
        let spec = spec.unwrap();
        let sym = match sym_kind {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let problem = Problem::new(TileUniverse::new(Ring::new(n), 4), spec);
        let (opt, _) = optimum_via("bitset", &problem);
        let engine = engine_by_name("bitset").unwrap();
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
                "memo flipped the verdict: n={} budget={} {:?}", n, budget, sym
            );
            prop_assert!(
                memoed.stats().nodes <= plain.stats().nodes,
                "memo expanded more nodes ({} > {}): n={} budget={} {:?}",
                memoed.stats().nodes, plain.stats().nodes, n, budget, sym
            );
            if let Some(tiles) = memoed.covering() {
                assert_meets_spec(n, tiles, problem.spec());
            }
        }
    }

    /// Arbitrary specs with demands in `4..=6`, on the 4-bit lanes, and
    /// with the same picks in `16..=18`, on the 16-bit lanes: the optimum
    /// agrees with the oracle's, and at the decisive budgets every
    /// symmetry mode with the memo on and off gives the oracle's verdict.
    /// A 4-bit draw must be answered in full (an inconclusive probe
    /// fails the test); only an optimum past 8, deep for the oracle,
    /// skips it.
    #[test]
    fn wide_lanes_match_legacy_on_sparse_specs(
        n in 5u32..=7,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..6),
    ) {
        let mut checked = false;
        for base in [4, 16] {
            let spec = sparse_spec(n, &picks, base);
            prop_assume!(spec.is_some());
            let problem = Problem::new(TileUniverse::new(Ring::new(n), 4), spec.unwrap());
            // A 16-bit draw is skipped when a probe stays inconclusive at
            // 1M nodes or the optimum passes 20: crossing pairs, which no
            // cycle serves together, push the optimum far past the largest
            // demand, and the cores' bounds do not see that.
            let fast = if base == 4 {
                Ok(optimum_via("bitset", &problem))
            } else {
                optimum_within("bitset", &problem, 1_000_000)
            };
            match fast {
                Ok((fast_opt, fast_tiles)) if fast_opt <= base + 4 => {
                    let (slow_opt, _) = oracle_optimum(&problem);
                    prop_assert_eq!(fast_opt, slow_opt, "optimum drift: n={} base={}", n, base);
                    assert_meets_spec(n, &fast_tiles, problem.spec());
                    assert_decisive_verdicts(&problem, fast_opt, true);
                    checked = true;
                }
                _ => {}
            }
        }
        prop_assume!(checked);
    }
}

/// At `opt − 1` and `opt`, engine `bitset` under every symmetry mode,
/// memo on and off, gives the oracle's verdict; every witness meets the
/// spec. Where the witness search at `opt` is out of reach of a
/// memo-free search (`reference_finishes` false), it runs with the memo
/// on only, against the verdict the optimum implies.
fn assert_decisive_verdicts(problem: &Problem, opt: u32, reference_finishes: bool) {
    let n = problem.ring().n();
    let bitset = engine_by_name("bitset").unwrap();
    for budget in [opt.saturating_sub(1), opt] {
        let reachable = budget < opt || reference_finishes;
        let expected = if reachable {
            oracle_feasible(problem, budget)
        } else {
            true
        };
        assert_eq!(expected, budget >= opt, "n={n} budget={budget}");
        let memo_modes: &[bool] = if reachable { &[false, true] } else { &[true] };
        for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
            for &memo in memo_modes {
                let fast = bitset.solve(
                    problem,
                    &SolveRequest::within_budget(budget)
                        .with_symmetry(sym)
                        .with_memo(memo)
                        .with_max_nodes(MAX_NODES),
                );
                let ctx = format!("n={n} budget={budget} {sym:?} memo={memo}");
                match fast.optimality() {
                    Optimality::Feasible => assert!(expected, "verdict drift: {ctx}"),
                    Optimality::Infeasible => assert!(!expected, "verdict drift: {ctx}"),
                    other => panic!("inconclusive: {ctx}: {other:?}"),
                }
                if let Some(tiles) = fast.covering() {
                    assert_meets_spec(n, tiles, problem.spec());
                }
            }
        }
    }
}

/// The paper's own shape — full λ-fold specs — pinned deterministically:
/// the packed kernel's and the oracle's optima agree on every small
/// double/triple cover, and both witnesses meet the multiplicities.
#[test]
fn full_lambda_rows_agree() {
    for (n, lambda, max_len) in [(5u32, 2u32, 5usize), (6, 2, 6), (5, 3, 5), (7, 2, 4)] {
        let problem = Problem::new(
            TileUniverse::new(Ring::new(n), max_len),
            CoverSpec::lambda_fold(n, lambda),
        );
        let (fast_opt, fast_tiles) = optimum_via("bitset", &problem);
        let (slow_opt, slow_tiles) = oracle_optimum(&problem);
        assert_eq!(fast_opt, slow_opt, "n={n} λ={lambda}");
        assert_meets_spec(n, &fast_tiles, problem.spec());
        assert_meets_spec(n, &slow_tiles, problem.spec());
    }
}

/// Full λ-fold covers for λ = 4..=6, n = 5..=7, on the 4-bit lanes, and
/// one C ≤ 4 universe: the optimum sits at the scaled capacity bound,
/// the lane cores refute one below it under every mode, as the oracle
/// does, and at it they agree with the oracle wherever a memo-free
/// search finishes. At n = 6, λ = 5 and 6 a memo-free search does not
/// find the witness within 50M nodes, so there the decisive witness
/// search runs with the memo on only and is checked by its λ-fold
/// coverage.
#[test]
fn wide_lambda_rows_agree() {
    for (n, lambda, max_len) in [
        (5u32, 4u32, 5usize),
        (5, 5, 5),
        (5, 6, 5),
        (6, 4, 6),
        (6, 5, 6),
        (6, 6, 6),
        (7, 4, 7),
        (7, 5, 7),
        (7, 6, 7),
        (7, 4, 4),
    ] {
        let problem = Problem::new(
            TileUniverse::new(Ring::new(n), max_len),
            CoverSpec::lambda_fold(n, lambda),
        );
        let (opt, tiles) = optimum_via("bitset", &problem);
        let bound = problem.spec().capacity_lower_bound(Ring::new(n)) as u32;
        assert_eq!(opt, bound, "n={n} λ={lambda} max_len={max_len}");
        assert_meets_spec(n, &tiles, problem.spec());
        assert_decisive_verdicts(&problem, opt, !(n == 6 && lambda >= 5));
    }
}

/// The acceptance-criteria rows: every small λ-fold optimum sits *at*
/// the capacity bound (measured: ρ₂(5) = 6, ρ₂(6) = 9, ρ₂(7) = 12,
/// ρ₃(5) = 9, ρ₃(6) = 14), so the packed kernel refutes `opt − 1` at
/// the root in one node and the whole certification cost is the witness
/// search — where it must be strictly cheaper than the retired recursive
/// multiplicity search, whose witness node counts (BENCH_9.json, and
/// `bench_snapshot`'s λ-fold gate) are frozen here as data.
#[test]
fn packed_beats_legacy_on_double_cover_nodes() {
    let bitset = engine_by_name("bitset").unwrap();
    // (n, λ, optimum, the recursive search's witness nodes): double- and
    // triple-cover rows where the witness search does real work.
    for (n, lambda, opt, legacy_nodes) in [
        (6u32, 2u32, 9u32, 287u64),
        (6, 3, 14, 448_611),
        (7, 2, 12, 51),
    ] {
        let problem = Problem::new(
            TileUniverse::new(Ring::new(n), n as usize),
            CoverSpec::lambda_fold(n, lambda),
        );
        let below = bitset.solve(
            &problem,
            &SolveRequest::prove_infeasible(opt - 1)
                .with_symmetry(SymmetryMode::Full)
                .with_max_nodes(MAX_NODES),
        );
        assert!(
            matches!(below.optimality(), Optimality::Infeasible),
            "ρ_{lambda}({n}) sits at the capacity bound"
        );
        let fast = bitset.solve(
            &problem,
            &SolveRequest::within_budget(opt)
                .with_symmetry(SymmetryMode::Full)
                .with_max_nodes(MAX_NODES),
        );
        assert!(matches!(fast.optimality(), Optimality::Feasible));
        assert!(
            fast.stats().nodes < legacy_nodes,
            "n={n} λ={lambda}: packed {} nodes vs legacy {legacy_nodes} nodes",
            fast.stats().nodes,
        );
    }
}
