//! E1 — Theorem 1 table: `ρ(2p+1) = p(p+1)/2` with `p` C3 + `p(p−1)/2` C4.
//!
//! For each odd `n` the paper's claim is regenerated: formula vs the size
//! of the constructed covering (independently validated), its C3/C4
//! composition, the capacity lower bound, and for small `n` the exact
//! optimum from branch & bound.

use cyclecover_bench::{header, row};
use cyclecover_core::{construct_optimal, odd, rho};
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest};
use cyclecover_solver::lower_bound::capacity_lower_bound;

fn main() {
    println!("E1 — Theorem 1 (odd n): rho(n) = p(p+1)/2, composition p C3 + p(p-1)/2 C4");
    println!();
    let widths = [5, 4, 8, 8, 8, 6, 6, 7, 9, 7];
    header(
        &[
            "n", "p", "formula", "built", "cap.LB", "C3", "C4", "exact?", "solver", "valid",
        ],
        &widths,
    );
    let mut all_ok = true;
    for p in 1u32..=100 {
        let n = 2 * p + 1;
        let cover = construct_optimal(n);
        let stats = cover.stats();
        let valid = cover.validate().is_ok();
        let exact = cover.is_exact_decomposition(1);
        let (want_c3, want_c4) = odd::expected_composition(n);
        let solver_opt = if n <= 11 {
            let sol = engine_by_name("bitset").expect("registered").solve(
                &Problem::complete(n),
                &SolveRequest::find_optimal().with_max_nodes(100_000_000),
            );
            match sol.optimality() {
                Optimality::Optimal { .. } => sol.size().expect("covering").to_string(),
                _ => "limit".into(),
            }
        } else {
            "-".into()
        };
        let ok = valid
            && exact
            && cover.len() as u64 == rho(n)
            && stats.c3 as u64 == want_c3
            && stats.c4 as u64 == want_c4;
        all_ok &= ok;
        // Print a window of rows plus every 10th, to keep output readable.
        if n <= 31 || p % 10 == 0 {
            println!(
                "{}",
                row(
                    &[
                        n.to_string(),
                        p.to_string(),
                        rho(n).to_string(),
                        cover.len().to_string(),
                        capacity_lower_bound(n).to_string(),
                        stats.c3.to_string(),
                        stats.c4.to_string(),
                        if exact { "yes" } else { "NO" }.into(),
                        solver_opt,
                        if ok { "ok" } else { "FAIL" }.into(),
                    ],
                    &widths,
                )
            );
        }
    }
    println!();
    println!(
        "Checked all odd n in 3..=201: {}",
        if all_ok {
            "every row matches Theorem 1 exactly"
        } else {
            "MISMATCH FOUND"
        }
    );
    assert!(all_ok);
}
