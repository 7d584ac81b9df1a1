//! Integration tests pinning the paper's claims across crates: the two
//! theorems, the worked example, and the survivability promise.

use cyclecover::core::{construct_optimal, construct_with_status, rho, Optimality};
use cyclecover::net::{audit_all_failures, WdmNetwork};
use cyclecover::solver::lower_bound::{capacity_lower_bound, rho_formula};

#[test]
fn theorem1_all_odd_n_up_to_151() {
    for p in 1u32..=75 {
        let n = 2 * p + 1;
        let cover = construct_optimal(n);
        assert_eq!(cover.len() as u64, (p as u64) * (p as u64 + 1) / 2, "n={n}");
        cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        // Theorem 1 composition.
        let stats = cover.stats();
        assert_eq!(stats.c3 as u64, p as u64, "n={n}");
        assert_eq!(stats.c4 as u64, (p as u64) * (p as u64 - 1) / 2, "n={n}");
        assert!(cover.is_exact_decomposition(1), "n={n}");
    }
}

#[test]
fn theorem2_all_even_n_up_to_150_except_documented_gap() {
    for p in 3u32..=75 {
        let n = 2 * p;
        let (cover, status) = construct_with_status(n);
        cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        let formula = (p as u64 * p as u64 + 1).div_ceil(2);
        assert_eq!(rho(n), formula, "n={n}");
        match status {
            Optimality::Optimal => {
                assert_eq!(cover.len() as u64, formula, "n={n}");
                assert!(n % 8 != 0 || n == 8, "unexpected optimal class n={n}");
            }
            Optimality::Excess(x) => {
                assert!(n % 8 == 0 && n >= 16, "unexpected gap at n={n}");
                assert_eq!(cover.len() as u64, formula + x as u64, "n={n}");
            }
        }
    }
}

#[test]
fn rho_exceeds_capacity_bound_exactly_for_even_p() {
    for n in 6u32..=200 {
        let diff = rho_formula(n) - capacity_lower_bound(n);
        let p = n / 2;
        if n % 2 == 0 && p % 2 == 0 && n > 4 {
            assert_eq!(diff, 1, "n={n}: Theorem 2's +1 refinement");
        } else {
            assert_eq!(diff, 0, "n={n}: capacity bound tight");
        }
    }
}

#[test]
fn survivability_holds_for_every_construction() {
    for n in [5u32, 8, 9, 12, 16, 21, 26] {
        let net = WdmNetwork::from_covering(&construct_optimal(n));
        let audit = audit_all_failures(&net);
        assert!(audit.fully_survivable, "n={n}");
        assert_eq!(
            audit.total_reroutes,
            n as usize * net.subnetworks().len(),
            "n={n}: one reroute per (failure, subnetwork)"
        );
    }
}

/// The λ-fold extension table (the note's closing "other communication
/// instances such as λK_n"), pinned by the exact solver: every small
/// ρ_λ(n) sits exactly at the scaled capacity bound ⌈λ·Σd(e)/n⌉ —
/// including the even-n rows where the unit optimum does NOT (Theorem
/// 2's +1 parity refinement). Doubling the demand dissolves the parity
/// obstruction: for even n, ρ₂(n) < 2·ρ(n), so a double cover is
/// strictly cheaper than two copies of an optimal unit cover, while for
/// odd n copy-concatenation is tight (Theorem 1's partitions double
/// into partitions). The λ = 4..6 rows run on the 4-bit lanes and the
/// λ = 16..20 rows on the 16-bit lanes; every witness is checked to
/// cover each pair λ times.
#[test]
fn lambda_fold_optima_sit_at_the_scaled_capacity_bound() {
    use cyclecover::core::lambda;
    use cyclecover::solver::api::{engine_by_name, Optimality as O, Problem, SolveRequest};

    let bitset = engine_by_name("bitset").expect("registered engine");
    for (n, lam) in [
        (5u32, 2u32),
        (5, 3),
        (6, 2),
        (6, 3),
        (7, 2),
        (6, 4),
        (6, 5),
        (6, 6),
        (7, 4),
        (4, 20),
        (5, 16),
        (7, 17),
        (9, 16),
        (9, 20),
    ] {
        let sol = bitset.solve(
            &Problem::lambda_fold(n, lam),
            &SolveRequest::find_optimal().with_max_nodes(200_000_000),
        );
        assert!(
            matches!(sol.optimality(), O::Optimal { .. }),
            "n={n} λ={lam}: {:?}",
            sol.optimality()
        );
        let covering = cyclecover::core::DrcCovering::from_tiles(
            cyclecover::ring::Ring::new(n),
            sol.covering().unwrap().to_vec(),
        );
        assert!(
            covering.coverage().covers_complete(lam),
            "n={n}: the witness covers some pair fewer than λ = {lam} times"
        );
        let opt = sol.size().unwrap() as u64;
        assert_eq!(
            opt,
            lambda::capacity_lower_bound(n, lam),
            "n={n} λ={lam}: optimum off the scaled capacity bound"
        );
        let copies = lambda::upper_bound(n, lam);
        if n % 2 == 1 {
            assert_eq!(opt, copies, "odd n: copy-concatenation is tight");
        } else {
            assert!(opt < copies, "even n={n} λ={lam}: {opt} !< {copies}");
        }
    }
}

/// The n = 8 double cover closes the even-n capacity gap the unit case
/// cannot: ρ(8) = 9 = capacity + 1 (Theorem 2's parity refinement),
/// but ρ₂(8) = 16 = 2·capacity exactly — the witness found by the
/// packed λ-fold kernel on the C ≤ 4 universe meets the
/// universe-independent scaled capacity bound, so two-fold covering
/// saves two cycles over doubling the optimal unit cover (16 < 18).
#[test]
fn double_cover_at_n8_dissolves_the_parity_gap() {
    use cyclecover::core::lambda;
    use cyclecover::ring::Ring;
    use cyclecover::solver::api::{
        engine_by_name, Optimality as O, Problem, SolveRequest, SymmetryMode,
    };
    use cyclecover::solver::bnb::CoverSpec;
    use cyclecover::solver::TileUniverse;

    assert_eq!(cyclecover::core::rho(8), 9, "unit: capacity 8 + parity 1");
    assert_eq!(lambda::capacity_lower_bound(8, 2), 16);
    // Witness search on the short-cycle universe (C3/C4 tiles only —
    // enough: the capacity bound doesn't care which universe met it).
    let sol = engine_by_name("bitset").unwrap().solve(
        &Problem::new(
            TileUniverse::new(Ring::new(8), 4),
            CoverSpec::lambda_fold(8, 2),
        ),
        &SolveRequest::within_budget(16)
            .with_symmetry(SymmetryMode::Full)
            .with_max_nodes(50_000_000),
    );
    assert!(
        matches!(sol.optimality(), O::Feasible),
        "{:?}",
        sol.optimality()
    );
    assert_eq!(sol.size(), Some(16), "ρ₂(8) = 16 < 2·ρ(8) = 18");
}

#[test]
fn paper_worked_example_end_to_end() {
    use cyclecover::graph::CycleSubgraph;
    use cyclecover::ring::{routing, Ring};

    let ring = Ring::new(4);
    // Bad covering rejected…
    assert!(!routing::is_drc_routable(
        ring,
        &CycleSubgraph::new(vec![0, 2, 3, 1])
    ));
    // …good covering = what construct_optimal(4) returns.
    let cover = construct_optimal(4);
    assert_eq!(cover.len(), 3);
    let stats = cover.stats();
    assert_eq!((stats.c3, stats.c4), (2, 1));
}
