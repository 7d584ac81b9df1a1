//! E11 — protection vs restoration capacity (the paper's introduction).
//!
//! For each ring size: the wavelengths pre-assigned by cycle-covering
//! protection (`2ρ(n)`), the per-link capacity of the bare working
//! routing, the minimum pooled capacity for full single-failure
//! restoration, and the premium protection pays for instantaneous
//! switching. Also cross-checks the optimal ring-loading baseline.

use cyclecover_bench::{header, row};
use cyclecover_net::compare_schemes;
use cyclecover_ring::loading::{
    all_to_all_demands, loading_lower_bound, local_search_loading, shortest_loading,
};
use cyclecover_ring::Ring;

fn main() {
    println!("E11 — survivability schemes on C_n (all-to-all): capacity accounting");
    println!();
    let widths = [5, 11, 9, 8, 8, 12, 7];
    header(
        &[
            "n",
            "protection",
            "working",
            "loadLB",
            "loadLS",
            "restoration",
            "ratio",
        ],
        &widths,
    );
    for n in [6u32, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48] {
        let cmp = compare_schemes(n);
        let ring = Ring::new(n);
        let demands = all_to_all_demands(ring);
        let ls = local_search_loading(ring, &demands);
        let lb = loading_lower_bound(ring, &demands);
        // Consistency: the working capacity equals the shortest loading.
        assert_eq!(
            cmp.working_capacity,
            shortest_loading(ring, &demands).max_load
        );
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    cmp.protection_wavelengths.to_string(),
                    cmp.working_capacity.to_string(),
                    lb.to_string(),
                    ls.max_load.to_string(),
                    cmp.restoration_capacity.to_string(),
                    format!("{:.2}", cmp.protection_over_restoration),
                ],
                &widths
            )
        );
    }
    println!();
    println!("protection = 2*rho(n) wavelength pairs; restoration = min pooled capacity");
    println!("for full recovery of any single link failure; ratio = protection/restoration.");
}
