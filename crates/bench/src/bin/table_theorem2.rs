//! E2 — Theorem 2 table: `ρ(2p) = ⌈(p²+1)/2⌉` for `p ≥ 3`.
//!
//! Regenerates the even-n claim: formula vs constructed size (validated),
//! composition, capacity bound, the `+1` parity refinement, and the
//! solver cross-check for small `n`. The paper's claimed composition
//! (`4 C3 + (2q²−3) C4` for `n = 4q`, `2 C3 + (2q²+2q−1) C4` for
//! `n = 4q+2`) is printed next to ours — our constructions achieve the
//! same optimal *count* with a different C3/C4 split (the note omits its
//! construction, so only the count is checkable). For `n ≡ 0 (mod 8)`,
//! `n ≥ 16`, the library returns `ρ(n)+excess` coverings (documented
//! reproduction gap) — the `status` column reports it honestly.

use cyclecover_bench::{header, row};
use cyclecover_core::{construct_with_status, rho, Optimality};
use cyclecover_solver::api::{
    engine_by_name, Optimality as SolveOptimality, Problem, SolveRequest,
};
use cyclecover_solver::lower_bound::capacity_lower_bound;

fn paper_composition(n: u32) -> (u64, u64) {
    // Theorem 2's stated composition.
    if n.is_multiple_of(4) {
        let q = (n / 4) as u64;
        (4, 2 * q * q - 3)
    } else {
        let q = ((n - 2) / 4) as u64;
        (2, 2 * q * q + 2 * q - 1)
    }
}

fn main() {
    println!("E2 — Theorem 2 (even n): rho(n) = ceil((p^2+1)/2), p = n/2 >= 3");
    println!();
    let widths = [5, 4, 8, 8, 8, 10, 12, 9, 8];
    header(
        &[
            "n",
            "p",
            "formula",
            "built",
            "cap.LB",
            "ours",
            "paper-comp",
            "solver",
            "status",
        ],
        &widths,
    );
    let mut optimal_rows = 0;
    let mut excess_rows = 0;
    for p in 3u32..=100 {
        let n = 2 * p;
        let (cover, status) = construct_with_status(n);
        let stats = cover.stats();
        cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        let (pc3, pc4) = paper_composition(n);
        // The bitset kernel certifies n = 10 in seconds now; include it.
        let solver_opt = if n <= 10 {
            let sol = engine_by_name("bitset").expect("registered").solve(
                &Problem::complete(n),
                &SolveRequest::find_optimal().with_max_nodes(300_000_000),
            );
            match sol.optimality() {
                SolveOptimality::Optimal { .. } => sol.size().expect("covering").to_string(),
                _ => "limit".into(),
            }
        } else {
            "-".into()
        };
        let status_str = match status {
            Optimality::Optimal => {
                assert_eq!(cover.len() as u64, rho(n), "n={n}");
                optimal_rows += 1;
                "= rho".to_string()
            }
            Optimality::Excess(x) => {
                assert_eq!(cover.len() as u64, rho(n) + x as u64, "n={n}");
                excess_rows += 1;
                format!("rho+{x}")
            }
        };
        if n <= 40 || p % 10 == 0 {
            println!(
                "{}",
                row(
                    &[
                        n.to_string(),
                        p.to_string(),
                        rho(n).to_string(),
                        cover.len().to_string(),
                        capacity_lower_bound(n).to_string(),
                        format!("{}+{}+{}", stats.c3, stats.c4, stats.longer),
                        format!("{pc3}C3+{pc4}C4"),
                        solver_opt,
                        status_str,
                    ],
                    &widths,
                )
            );
        }
    }
    println!();
    println!("(ours column = C3+C4+longer counts; the paper's optimum is matched in count");
    println!(" whenever status is '= rho'; composition differs since the note's own");
    println!(" construction was never published.)");
    println!();
    println!(
        "rows at optimum: {optimal_rows}; rows with documented excess (n = 0 mod 8, n >= 16): {excess_rows}"
    );
    println!(
        "parity refinement check: rho(n) - capacity = {}",
        (3..=100u32)
            .map(|p| rho(2 * p) - capacity_lower_bound(2 * p))
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .chunks(25)
            .map(|c| c.join(""))
            .collect::<Vec<_>>()
            .join(" ")
    );
}
