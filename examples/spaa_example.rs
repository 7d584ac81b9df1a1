//! The paper's worked example as library usage: `G = C_4`, `I = K_4`.
//!
//! Shows how the DRC is checked and why the "obvious" two-C4 covering
//! fails while the C4+2×C3 covering works.
//!
//! ```sh
//! cargo run --example spaa_example
//! ```

use cyclecover::core::DrcCovering;
use cyclecover::graph::CycleSubgraph;
use cyclecover::ring::{routing, Ring};

fn main() {
    let ring = Ring::new(4);

    // Covering A: (1,2,3,4,1) and (1,3,4,2,1) in the paper's 1-based labels.
    let straight = CycleSubgraph::new(vec![0, 1, 2, 3]);
    let crossed = CycleSubgraph::new(vec![0, 2, 3, 1]);

    println!(
        "cycle (1,2,3,4): routable = {}",
        routing::is_drc_routable(ring, &straight)
    );
    println!(
        "cycle (1,3,4,2): routable = {}",
        routing::is_drc_routable(ring, &crossed)
    );
    println!("  -> requests (1,3) and (2,4) both need two of C4's four links;");
    println!("     no edge-disjoint assignment exists (the oracle proves it).");

    match DrcCovering::from_cycles(ring, &[straight.clone(), crossed]) {
        Err(e) => println!("covering A rejected: {e}"),
        Ok(_) => unreachable!("the paper (and our oracle) say this cannot happen"),
    }

    // Covering B: the C4 plus triangles (1,2,4) and (1,3,4).
    let t1 = CycleSubgraph::new(vec![0, 1, 3]);
    let t2 = CycleSubgraph::new(vec![0, 2, 3]);
    let cover = DrcCovering::from_cycles(ring, &[straight, t1, t2]).expect("valid");
    cover.validate().expect("covers all of K4");
    println!(
        "covering B accepted: {} cycles covering all {} requests — rho(4) = 3.",
        cover.len(),
        cover.coverage().support_size()
    );
}
