//! Tori — structured coverings and wavelength reuse.
//!
//! On the ring, every covering cycle winds the whole ring, so cycles
//! can never share a wavelength. On a torus the picture changes: a
//! covering cycle occupies one row and two columns, footprints can be
//! disjoint, and wavelength assignment becomes conflict-graph coloring
//! — this example quantifies the reuse.
//!
//! ```sh
//! cargo run --example torus_wdm
//! ```

use cyclecover::color::{clique_lower_bound, conflict_graph, dsatur, verify_coloring};
use cyclecover::graph::builders;
use cyclecover::topo::{mesh_cover, protect, GridTopology};

fn main() {
    let torus = GridTopology::torus(4, 5);
    let n = torus.vertex_count();
    println!(
        "physical topology: 4x5 torus, {n} switches, {} links",
        torus.graph().edge_count()
    );

    // Structured covering: lifted ring coverings along rows/columns +
    // one crossed quad per combinatorial rectangle for the mixed traffic.
    let cover = mesh_cover::cover_torus(&torus);
    let inst = builders::complete(n);
    cover.validate(torus.graph(), &inst).expect("covers K_20");
    let stats = cover.stats(torus.graph());
    println!(
        "covering: {} cycles ({} C3, {} C4, {} longer), max link share {}",
        stats.cycles, stats.c3, stats.c4, stats.longer, stats.max_edge_load
    );

    // Wavelength assignment = coloring the conflict graph of footprints.
    let conflicts = conflict_graph(&cover.footprints());
    let coloring = dsatur(&conflicts);
    assert!(verify_coloring(&conflicts, &coloring));
    println!(
        "wavelengths: {} pairs via DSATUR (clique lower bound {}), vs {} pairs on a ring (no reuse)",
        coloring.count,
        clique_lower_bound(&conflicts),
        cover.len()
    );
    let reuse = cover.len() as f64 / coloring.count as f64;
    println!("wavelength reuse factor: {reuse:.2}x");

    // And the protection story still holds.
    let audit = protect::audit_link_failures(torus.graph(), &cover);
    println!(
        "failure audit: fully survivable = {}, worst detour = {} hops",
        audit.fully_survivable, audit.worst_detour
    );
    assert!(audit.fully_survivable);
}
