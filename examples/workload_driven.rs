//! General logical graphs — covering realistic (non-all-to-all) traffic.
//!
//! The paper closes by naming "more general logical graphs" as the next
//! instance class. This example generates four workload shapes on a
//! 16-node ring, covers each with DRC cycles, and compares cost against
//! the all-to-all optimum `ρ(16)`.
//!
//! ```sh
//! cargo run --example workload_driven
//! ```

use cyclecover::core::{general, rho};
use cyclecover::ring::Ring;
use cyclecover::workload;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let n = 16usize;
    let ring = Ring::new(n as u32);
    let mut rng = StdRng::seed_from_u64(2001);

    let instances: Vec<(&str, cyclecover::graph::Graph)> = vec![
        ("all-to-all", workload::all_to_all(n)),
        ("uniform p=0.3", workload::uniform_random(n, 0.3, &mut rng)),
        ("permutation", workload::permutation(n, &mut rng)),
        (
            "hotspot 2 hubs",
            workload::hotspot(n, 2, 0.9, 0.05, &mut rng),
        ),
        ("locality d<=3", workload::locality(n, 3)),
    ];

    println!(
        "{:>16} {:>9} {:>8} {:>9} {:>8}",
        "workload", "requests", "cycles", "phantoms", "util%"
    );
    println!("{}", "-".repeat(56));
    for (name, inst) in &instances {
        let Some(got) = general::greedy_cover(ring, inst, 4) else {
            println!("{name:>16}: no requests");
            continue;
        };
        let covered = inst.edge_count();
        // Utilization: instance edges per chord-slot provisioned.
        let slots: usize = got.covering.tiles().iter().map(|t| t.len()).sum();
        println!(
            "{:>16} {:>9} {:>8} {:>9} {:>7.0}%",
            name,
            covered,
            got.covering.len(),
            got.phantom_edges.len(),
            100.0 * covered as f64 / slots as f64
        );
        assert!(general::covers_instance(&got.covering, inst));
    }
    println!("\nall-to-all optimum rho(16) = {} cycles", rho(16));
}
