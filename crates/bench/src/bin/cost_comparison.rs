//! E7 — cost-model comparison: the paper's objective vs. refs \[3,4\].
//!
//! The paper minimizes the *number of subnetworks*; Eilam–Moran–Zaks \[3\]
//! and Gerstel–Lin–Sasaki \[4\] minimize total ADM count (Σ cycle sizes).
//! This table evaluates our optimal covering and the pure-triangle
//! covering under: cycle count, wavelength count, total ADMs, and the
//! blended cost model — showing the trade-off the paper's §2 discusses
//! (triangles have fewer ADMs per cycle but need ~33% more cycles).

use cyclecover_bench::{header, row};
use cyclecover_core::{construct_optimal, DrcCovering};
use cyclecover_design::greedy_triangle_cover;
use cyclecover_net::{CostModel, WdmNetwork};
use cyclecover_ring::{Ring, Tile};

fn triangle_covering(n: u32) -> DrcCovering {
    let ring = Ring::new(n);
    let tiles = greedy_triangle_cover(n as usize)
        .into_iter()
        .map(|t| Tile::from_vertices(ring, t.to_vec()))
        .collect();
    let c = DrcCovering::from_tiles(ring, tiles);
    c.validate().expect("triangle covering valid");
    c
}

fn main() {
    println!("E7 — cost comparison: ours (min cycles) vs triangle covering (refs [6,7])");
    println!();
    let widths = [5, 10, 10, 10, 10, 12, 12];
    header(
        &[
            "n", "cycles", "cyclesT", "ADMs", "ADMsT", "blended", "blendedT",
        ],
        &widths,
    );
    for n in [8u32, 12, 16, 20, 30, 40, 50, 70, 100] {
        let ours = WdmNetwork::from_covering(&construct_optimal(n));
        let tris = WdmNetwork::from_covering(&triangle_covering(n));
        let blended = CostModel::blended();
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    ours.subnetworks().len().to_string(),
                    tris.subnetworks().len().to_string(),
                    ours.total_adms().to_string(),
                    tris.total_adms().to_string(),
                    format!("{:.0}", blended.evaluate(&ours)),
                    format!("{:.0}", blended.evaluate(&tris)),
                ],
                &widths,
            )
        );
    }
    println!();
    println!("reading: 'cycles' favors ours by ~4/3 (the paper's objective on rings);");
    println!("ADM counts are close (C4s carry 4 requests on 4 ADMs vs C3s' 3-for-3), so");
    println!("the blended model follows the wavelength term — minimizing cycle count wins,");
    println!("which is the paper's §2 argument for rho(n) as THE ring design objective.");
}
