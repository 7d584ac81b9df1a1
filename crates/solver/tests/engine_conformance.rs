//! Engine conformance suite: every registered engine, on every small
//! instance it claims to support, must return coverings that validate,
//! agree with the other exact engines on the optimum, and reach the same
//! infeasibility verdicts — the contract the [`cyclecover_solver::api`]
//! boundary promises to callers regardless of which engine answers.

use cyclecover_graph::{Edge, EdgeMultiset};
use cyclecover_ring::{symmetry as ring_symmetry, Ring};
use cyclecover_solver::api::{
    engine_by_name, engines, CancelToken, Objective, Optimality, Problem, SolveRequest,
    SymmetryMode,
};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::lower_bound::rho_formula;
use cyclecover_solver::TileUniverse;
use proptest::prelude::*;
use std::time::Duration;

const NS: std::ops::RangeInclusive<u32> = 4..=8;
const EXACT: [&str; 3] = ["bitset", "dlx", "partition"];

/// The multiset of edges `tiles` covers.
fn coverage_of(n: u32, tiles: &[cyclecover_ring::Tile]) -> EdgeMultiset {
    let ring = Ring::new(n);
    let mut cov = EdgeMultiset::new(n as usize);
    for t in tiles {
        for c in t.chords(ring) {
            cov.insert(c.to_edge());
        }
    }
    cov
}

/// Asserts `tiles` covers every request of `K_n` at least once.
fn assert_covers_complete(n: u32, tiles: &[cyclecover_ring::Tile]) {
    let cov = coverage_of(n, tiles);
    for u in 0..n {
        for v in (u + 1)..n {
            assert!(
                cov.count(Edge::new(u, v)) >= 1,
                "request ({u},{v}) uncovered"
            );
        }
    }
}

/// Every supporting engine returns a *valid* covering for `FindOptimal`,
/// and every exact engine lands exactly on `ρ(n)` with an `Optimal`
/// certificate (heuristics must be `Feasible` and no smaller than ρ).
#[test]
fn all_engines_return_valid_coverings_and_exact_engines_agree() {
    for n in NS {
        let problem = Problem::complete(n);
        let request = SolveRequest::find_optimal().with_max_nodes(200_000_000);
        let rho = rho_formula(n);
        for engine in engines() {
            if !engine.supports(&problem, &request) {
                continue;
            }
            let sol = engine.solve(&problem, &request);
            let name = engine.name();
            let tiles = sol
                .covering()
                .unwrap_or_else(|| panic!("{name} n={n}: no covering: {:?}", sol.optimality()));
            assert_covers_complete(n, tiles);
            if EXACT.contains(&name) {
                assert!(
                    matches!(sol.optimality(), Optimality::Optimal { .. }),
                    "{name} n={n}: {:?}",
                    sol.optimality()
                );
                assert_eq!(tiles.len() as u64, rho, "{name} n={n}");
            } else {
                assert_eq!(*sol.optimality(), Optimality::Feasible, "{name} n={n}");
                assert!(tiles.len() as u64 >= rho, "{name} n={n} beat rho?!");
            }
        }
    }
}

/// `ProveInfeasible(ρ(n) − 1)` verdicts match across the exact engines
/// (bitset, partition, and DLX where it applies): all must
/// return `Infeasible`, and at `ρ(n)` all must refute with a witness.
#[test]
fn infeasibility_verdicts_match_across_exact_engines() {
    for n in NS {
        let problem = Problem::complete(n);
        let rho = rho_formula(n) as u32;
        for name in EXACT {
            let engine = engine_by_name(name).expect("registered engine");
            let below = SolveRequest::prove_infeasible(rho - 1).with_max_nodes(200_000_000);
            if !engine.supports(&problem, &below) {
                continue;
            }
            let sol = engine.solve(&problem, &below);
            assert_eq!(
                *sol.optimality(),
                Optimality::Infeasible,
                "{name} n={n} at rho-1"
            );
            let at = engine.solve(
                &problem,
                &SolveRequest::prove_infeasible(rho).with_max_nodes(200_000_000),
            );
            assert_eq!(
                *at.optimality(),
                Optimality::Feasible,
                "{name} n={n} at rho"
            );
            assert_covers_complete(n, at.covering().expect("refutation witness"));
        }
    }
}

/// λ-fold conformance: on every small double/triple cover, each engine
/// either solves it exactly or honestly declines. Every supporting
/// engine must land on the measured optimum ρ_λ(n) with an `Optimal`
/// certificate and a witness that re-validates through
/// `EdgeMultiset::covers_complete(λ)`; engines out of scope (the
/// heuristics always; DLX on nonzero-slack rows like ρ₃(6)) must say so
/// via `supports`, never answer wrong.
#[test]
fn exact_engines_agree_on_lambda_fold_optima() {
    // (n, λ, ρ_λ(n)) over the full tile universe — every one sits at
    // the scaled capacity bound ⌈λ·Σd(e)/n⌉ (see the λ-fold table test
    // in tests/paper_claims.rs for the bound-side pinning).
    for (n, lambda, expected) in [
        (5u32, 2u32, 6usize),
        (6, 2, 9),
        (7, 2, 12),
        (5, 3, 9),
        (6, 3, 14),
    ] {
        let problem = Problem::lambda_fold(n, lambda);
        let request = SolveRequest::find_optimal().with_max_nodes(200_000_000);
        for engine in engines() {
            let name = engine.name();
            if !engine.supports(&problem, &request) {
                assert!(
                    matches!(name, "dlx" | "greedy" | "greedy-improve" | "anneal"),
                    "{name} must support λ-fold specs"
                );
                continue;
            }
            assert!(EXACT.contains(&name), "unexpected λ-fold engine {name}");
            let sol = engine.solve(&problem, &request);
            assert!(
                matches!(sol.optimality(), Optimality::Optimal { .. }),
                "{name} n={n} λ={lambda}: {:?}",
                sol.optimality()
            );
            let tiles = sol.covering().expect("optimal carries covering");
            assert_eq!(tiles.len(), expected, "{name}: ρ_{lambda}({n})");
            assert!(
                coverage_of(n, tiles).covers_complete(lambda),
                "{name} n={n}: witness misses λ = {lambda} coverage"
            );
            // The decisive refutation below the optimum.
            let below = engine.solve(
                &problem,
                &SolveRequest::prove_infeasible(expected as u32 - 1).with_max_nodes(200_000_000),
            );
            assert_eq!(
                *below.optimality(),
                Optimality::Infeasible,
                "{name} n={n} λ={lambda} at ρ_λ − 1"
            );
        }
    }
}

/// The DLX engine's declared scope: zero-slack specs — `λ·Σd(e)` must
/// divide evenly by `n`, demands at most 3. That admits every odd
/// complete instance (Theorem 1's partitions) *and* the even ones whose
/// total distance happens to divide — `n = 4, 8` yes, `n = 6` no
/// (`Σd = 27`, `27 mod 6 = 3`) — plus zero-slack λ-fold rows like
/// ρ₂(7), while ρ₃(6) (slack 3) stays out of scope.
#[test]
fn dlx_scope_is_zero_slack() {
    let dlx = engine_by_name("dlx").unwrap();
    let req = SolveRequest::find_optimal();
    for n in [3u32, 5, 7, 9] {
        assert!(dlx.supports(&Problem::complete(n), &req), "odd n = {n}");
    }
    assert!(
        dlx.supports(&Problem::complete(4), &req),
        "Σd(4) = 8 divides"
    );
    assert!(
        dlx.supports(&Problem::complete(8), &req),
        "Σd(8) = 64 divides"
    );
    assert!(!dlx.supports(&Problem::complete(6), &req), "27 mod 6 = 3");
    assert!(
        dlx.supports(&Problem::lambda_fold(7, 2), &req),
        "2·84 mod 7 = 0"
    );
    assert!(
        dlx.supports(&Problem::lambda_fold(6, 2), &req),
        "2·27 mod 6 = 0"
    );
    assert!(
        !dlx.supports(&Problem::lambda_fold(6, 3), &req),
        "3·27 mod 6 = 3"
    );
}

/// The partition engine's declared scope: any spec with demands in
/// `1..=65,535`, slack notwithstanding — it is the explicit entry to the
/// slack-budgeted kernel (the frontier probes use it to force the
/// partition route on slack-`n` instances the auto-dispatch skips).
#[test]
fn partition_scope_is_any_packed_demand() {
    let partition = engine_by_name("partition").unwrap();
    let req = SolveRequest::find_optimal();
    for n in 4u32..=9 {
        assert!(partition.supports(&Problem::complete(n), &req), "n = {n}");
    }
    assert!(partition.supports(&Problem::lambda_fold(6, 2), &req));
    assert!(partition.supports(&Problem::lambda_fold(6, 3), &req));
    assert!(partition.supports(&Problem::lambda_fold(5, 65_535), &req));
    assert!(!partition.supports(&Problem::lambda_fold(5, 65_536), &req));
}

/// Heuristics refuse to "prove" anything.
#[test]
fn heuristics_do_not_claim_proofs() {
    for name in ["greedy", "greedy-improve", "anneal"] {
        let engine = engine_by_name(name).unwrap();
        let problem = Problem::complete(7);
        assert!(
            !engine.supports(&problem, &SolveRequest::prove_infeasible(5)),
            "{name} claims to prove infeasibility"
        );
    }
}

/// `SymmetryMode::Off` and the reduced modes agree on `ρ(n)` and on the
/// `ProveInfeasible(ρ(n) − 1)` verdicts for every `n ≤ 10` over the full
/// tile universe — the orbit filtering and the strengthened bound must
/// never change an answer, only the node count. (The `n = 10` `Off` run
/// is the suite's heavyweight: the unreduced 13.45M-node BENCH_1 witness
/// search.)
#[test]
fn symmetry_modes_agree_on_rho_up_to_n10() {
    for n in 4..=10u32 {
        let problem = Problem::complete(n);
        let rho = rho_formula(n) as u32;
        let engine = engine_by_name("bitset").unwrap();
        for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
            let optimal = engine.solve(
                &problem,
                &SolveRequest::find_optimal()
                    .with_symmetry(sym)
                    .with_max_nodes(200_000_000),
            );
            assert!(
                matches!(optimal.optimality(), Optimality::Optimal { .. }),
                "n={n} {sym:?}: {:?}",
                optimal.optimality()
            );
            assert_eq!(optimal.size(), Some(rho as usize), "n={n} {sym:?}");
            assert_covers_complete(n, optimal.covering().unwrap());
            let below = engine.solve(
                &problem,
                &SolveRequest::prove_infeasible(rho - 1)
                    .with_symmetry(sym)
                    .with_max_nodes(200_000_000),
            );
            assert_eq!(
                *below.optimality(),
                Optimality::Infeasible,
                "n={n} {sym:?} at rho-1"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dihedral action correctness, property-tested across ring sizes and
    /// universe restrictions: every group element maps tiles to valid
    /// universe tiles with identical load/waste/diameter metadata, the
    /// canonical images are orbit invariants agreeing with the ring
    /// crate's reference `canonical_tile`, and the orbits partition the
    /// universe.
    #[test]
    fn dihedral_action_is_correct(
        n in 5u32..=11,
        max_len in 3usize..=5,
        restrict_gap in any::<bool>(),
    ) {
        let ring = Ring::new(n);
        let max_gap = if restrict_gap { ring.diameter().max(2) } else { n };
        let u = TileUniverse::with_max_gap(ring, max_len.min(n as usize), max_gap);
        let d = u.dihedral().expect("2n <= 64 for n <= 11");
        prop_assert_eq!(d.order(), 2 * n);
        let t_count = u.len() as u32;
        let mut orbit_sum = 0u64;
        for t in 0..t_count {
            let tile = u.tile(t);
            // Canonical image: a valid universe tile with identical
            // metadata, idempotent, and an orbit invariant.
            let canon = d.canonical_tile(t);
            prop_assert_eq!(d.canonical_tile(canon), canon, "idempotent");
            prop_assert_eq!(u.tile_load(canon), u.tile_load(t));
            prop_assert_eq!(u.tile_waste(canon), u.tile_waste(t));
            prop_assert_eq!(u.tile_diam_count(canon), u.tile_diam_count(t));
            prop_assert_eq!(u.tile(canon).len(), tile.len());
            // The ring crate's reference canonicalization lands in the
            // same orbit class.
            let ref_canon = ring_symmetry::canonical_tile(ring, tile);
            let ref_idx = u.index_of(&ref_canon).expect("closed under D_n");
            prop_assert_eq!(d.canonical_tile(ref_idx), canon, "reference orbit agrees");
            // Orbit size divides 2n and matches the reference count; sum
            // over representatives partitions the universe.
            if d.is_orbit_rep(t) {
                let orbit: std::collections::BTreeSet<u32> =
                    (0..d.order()).map(|g| d.tile_image(g, t)).collect();
                prop_assert_eq!(
                    orbit.len(),
                    ring_symmetry::orbit_size(ring, tile),
                    "orbit size matches reference"
                );
                prop_assert_eq!(2 * n as usize % orbit.len(), 0);
                orbit_sum += orbit.len() as u64;
            }
        }
        prop_assert_eq!(orbit_sum, t_count as u64, "orbits partition the universe");
    }

    /// Off/Root equivalence on randomized partial instances: symmetry
    /// reduction may not flip any within-budget verdict, even when the
    /// spec itself is asymmetric.
    #[test]
    fn symmetry_modes_agree_on_random_subsets(
        n in 6u32..=9,
        seed in any::<u64>(),
    ) {
        let ring = Ring::new(n);
        let m = n as usize * (n as usize - 1) / 2;
        // Deterministic pseudo-random subset of requests from the seed.
        let mut state = seed | 1;
        let mut requests = Vec::new();
        for dense in 0..m {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 60 < 8 {
                requests.push(Edge::from_dense_index(dense, n as usize));
            }
        }
        if requests.is_empty() {
            requests.push(Edge::new(0, n / 2));
        }
        let problem = Problem::new(
            TileUniverse::new(ring, n as usize),
            CoverSpec::subset(n, &requests),
        );
        let engine = engine_by_name("bitset").unwrap();
        let mut verdicts = Vec::new();
        for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
            let sol = engine.solve(
                &problem,
                &SolveRequest::find_optimal()
                    .with_symmetry(sym)
                    .with_max_nodes(50_000_000),
            );
            let size = sol.size();
            prop_assert!(size.is_some(), "{sym:?}: {:?}", sol.optimality());
            verdicts.push(size.unwrap());
        }
        prop_assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "optimum differs across modes: {verdicts:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Request-builder round-trip: every combination of objective,
    /// limits, and symmetry reads back exactly as it was written.
    #[test]
    fn request_builder_round_trips(
        kind in 0u8..3,
        budget in 0u32..64,
        max_nodes in 1u64..=u64::MAX,
        deadline_on in any::<bool>(),
        deadline_raw in 0u64..100_000,
        sym_kind in 0u8..3,
    ) {
        let objective = match kind {
            0 => Objective::FindOptimal,
            1 => Objective::WithinBudget(budget),
            _ => Objective::ProveInfeasible(budget),
        };
        let symmetry = match sym_kind {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let deadline_ms = deadline_on.then_some(deadline_raw);
        let token = CancelToken::new();
        // The default is Root — the reduced search is opt-out.
        prop_assert_eq!(SolveRequest::new(objective).symmetry(), SymmetryMode::Root);
        let mut request = SolveRequest::new(objective)
            .with_max_nodes(max_nodes)
            .with_cancel_token(token.clone())
            .with_symmetry(symmetry);
        if let Some(ms) = deadline_ms {
            request = request.with_deadline(Duration::from_millis(ms));
        }
        prop_assert_eq!(request.objective(), objective);
        prop_assert_eq!(request.max_nodes(), max_nodes);
        prop_assert_eq!(request.deadline(), deadline_ms.map(Duration::from_millis));
        prop_assert_eq!(request.symmetry(), symmetry);
        // The token is shared, not copied: cancelling the caller's clone
        // must be visible through the request's handle.
        prop_assert!(!request.cancel_token().is_cancelled());
        token.cancel();
        prop_assert!(request.cancel_token().is_cancelled());
    }

    /// The convenience constructors agree with `new`.
    #[test]
    fn request_shorthands_match_new(budget in 0u32..64) {
        prop_assert_eq!(
            SolveRequest::find_optimal().objective(),
            Objective::FindOptimal
        );
        prop_assert_eq!(
            SolveRequest::within_budget(budget).objective(),
            Objective::WithinBudget(budget)
        );
        prop_assert_eq!(
            SolveRequest::prove_infeasible(budget).objective(),
            Objective::ProveInfeasible(budget)
        );
    }
}
