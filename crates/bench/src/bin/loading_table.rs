//! E13 — the ring loading baseline (unprotected routing).
//!
//! The paper's planning split: routing, then resource allocation. This
//! table solves the classical ring loading problem on the all-to-all
//! instance — the minimum per-link capacity of an unprotected design —
//! with the three solvers (shortest-arc, local search, exact B&B) and
//! the capacity lower bound, certifying optimality where the exact
//! search completes.

use cyclecover_bench::{header, row};
use cyclecover_ring::loading::{
    all_to_all_demands, loading_lower_bound, local_search_loading, optimal_loading,
    shortest_loading,
};
use cyclecover_ring::Ring;

fn main() {
    println!("E13 — ring loading (min max link load) for all-to-all demands on C_n");
    println!();
    let widths = [5, 9, 7, 9, 10, 7];
    header(
        &["n", "demands", "LB", "shortest", "localsrch", "exact"],
        &widths,
    );
    for n in [4u32, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14] {
        let ring = Ring::new(n);
        let demands = all_to_all_demands(ring);
        let lb = loading_lower_bound(ring, &demands);
        let s = shortest_loading(ring, &demands);
        let ls = local_search_loading(ring, &demands);
        // The exact tree grows ~2^demands; past n = 10 the certificate
        // costs more than it teaches (local search is already at the LB
        // or within 2 of it) — report "-" honestly instead of burning CPU.
        let exact = if n <= 10 {
            optimal_loading(ring, &demands, 100_000_000)
        } else {
            None
        };
        let exact_str = match &exact {
            Some(o) => o.max_load.to_string(),
            None if n <= 10 => "budget".to_string(),
            None => "-".to_string(),
        };
        if let Some(o) = &exact {
            assert!(
                o.max_load <= ls.max_load && ls.max_load <= s.max_load,
                "n={n}"
            );
            assert!(o.max_load >= lb, "n={n}");
        }
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    demands.len().to_string(),
                    lb.to_string(),
                    s.max_load.to_string(),
                    ls.max_load.to_string(),
                    exact_str,
                ],
                &widths
            )
        );
    }
    println!();
    println!("shortest-arc routing is optimal on odd rings (strict shortest arcs,");
    println!("symmetric load); even rings route diameters to balance.");
}
