//! Quickstart: build an optimal survivable covering for a 13-node optical
//! ring and inspect it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cyclecover::core::{construct_optimal, rho};

fn main() {
    let n = 13;

    // The paper's Theorem 1: rho(13) = p(p+1)/2 with p = 6.
    println!(
        "minimum number of protected subnetworks rho({n}) = {}",
        rho(n)
    );

    // Build the covering: every request of K_13 lies in some cycle, and
    // every cycle routes edge-disjointly on the ring C_13.
    let covering = construct_optimal(n);
    assert_eq!(covering.len() as u64, rho(n));
    covering.validate().expect("construction is always valid");

    let stats = covering.stats();
    println!(
        "covering: {} cycles = {} triangles + {} quadrilaterals",
        stats.cycles, stats.c3, stats.c4
    );
    println!(
        "exact partition: {} (odd n: every request covered exactly once)",
        covering.is_exact_decomposition(1)
    );

    println!("\nthe cycles (vertices in ring order):");
    for (i, tile) in covering.tiles().iter().enumerate() {
        println!(
            "  #{i:2}: {:?} gaps {:?}",
            tile.vertices(),
            tile.gaps(covering.ring())
        );
    }
}
