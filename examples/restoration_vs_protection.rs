//! Protection vs restoration — the trade the paper's introduction frames.
//!
//! Cycle-covering *protection* pre-assigns a spare wavelength per
//! subnetwork: instant recovery, double capacity. *Restoration* shares a
//! pooled capacity and reroutes on demand: slower, cheaper. This example
//! sweeps ring sizes and prints the capacity premium protection pays for
//! its switching speed.
//!
//! ```sh
//! cargo run --example restoration_vs_protection
//! ```

use cyclecover::net::{compare_schemes, RestorationNetwork};
use cyclecover::ring::Ring;

fn main() {
    println!(
        "{:>4} {:>12} {:>10} {:>12} {:>8}",
        "n", "protection", "working", "restoration", "ratio"
    );
    println!("{}", "-".repeat(52));
    for n in [6u32, 8, 10, 12, 16, 20, 24, 32] {
        let cmp = compare_schemes(n);
        println!(
            "{:>4} {:>12} {:>10} {:>12} {:>8.2}",
            n,
            cmp.protection_wavelengths,
            cmp.working_capacity,
            cmp.restoration_capacity,
            cmp.protection_over_restoration
        );
    }

    // Under-provisioned restoration blocks demands; show the cliff.
    let n = 16u32;
    let probe = RestorationNetwork::all_to_all(Ring::new(n), u32::MAX);
    let full = probe.min_full_restoration_capacity();
    println!("\nC_{n}: blocking vs provisioned capacity (full restoration at {full}):");
    for cap in (full.saturating_sub(4))..=full {
        let net = RestorationNetwork::all_to_all(Ring::new(n), cap);
        let worst_blocked = (0..n)
            .map(|e| net.restore_failure(e).blocked)
            .max()
            .unwrap_or(0);
        println!("  capacity {cap:>3}: worst-case blocked demands = {worst_blocked}");
    }
}
