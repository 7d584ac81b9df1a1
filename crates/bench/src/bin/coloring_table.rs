//! E12 — wavelength assignment by conflict-graph coloring.
//!
//! The paper defers wavelength allocation to "the last phase of the
//! network design"; this table executes that phase. On the ring the
//! conflict graph of a winding covering is complete (no reuse — the
//! assignment is trivially `2ρ(n)` wavelengths); on tori the structured
//! coverings have partial footprints and coloring wins back a constant
//! factor. Heuristics are certified against the exact branch-and-bound
//! chromatic number on the smaller instances.

use cyclecover_bench::{header, row};
use cyclecover_color::{
    clique_lower_bound, conflict_graph, dsatur, exact_chromatic, greedy_coloring,
    largest_first_order, smallest_last_order, verify_coloring,
};
use cyclecover_topo::{mesh_cover, GridTopology};

fn main() {
    println!("E12 — wavelength assignment: coloring covering conflict graphs");
    println!();

    // Ring: complete conflict graph, no reuse (structural check).
    println!("ring coverings (winding cycles => complete conflict graph => no reuse):");
    let widths0 = [5, 8, 10, 7];
    header(&["n", "cycles", "conflicts", "colors"], &widths0);
    for n in [8u32, 12, 16] {
        let covering = cyclecover_core::construct_optimal(n);
        // Footprints on the ring: every winding tile uses all n edges.
        let footprints: Vec<Vec<u32>> = covering.tiles().iter().map(|_| (0..n).collect()).collect();
        let g = conflict_graph(&footprints);
        let k = covering.len();
        assert_eq!(g.edge_count(), k * (k - 1) / 2, "complete conflict graph");
        let c = dsatur(&g);
        assert_eq!(c.count as usize, k, "no reuse possible on the ring");
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    k.to_string(),
                    g.edge_count().to_string(),
                    c.count.to_string()
                ],
                &widths0
            )
        );
    }

    println!();
    println!("torus coverings (partial footprints => real coloring problem):");
    let widths = [7, 8, 7, 7, 7, 7, 7, 8];
    header(
        &[
            "torus", "cycles", "cliqLB", "LF", "SL", "DSAT", "exact", "reuse",
        ],
        &widths,
    );
    for (r, c) in [(3u32, 3u32), (3, 4), (4, 4), (3, 5), (4, 5)] {
        let topo = GridTopology::torus(r, c);
        let covering = mesh_cover::cover_torus(&topo);
        let g = conflict_graph(&covering.footprints());
        let lf = greedy_coloring(&g, &largest_first_order(&g));
        let sl = greedy_coloring(&g, &smallest_last_order(&g));
        let ds = dsatur(&g);
        for (name, col) in [("LF", &lf), ("SL", &sl), ("DSATUR", &ds)] {
            assert!(verify_coloring(&g, col), "{name} invalid on {r}x{c}");
        }
        let clique = clique_lower_bound(&g);
        // Exact is exponential; run it where the gap needs certifying.
        let exact = if g.vertex_count() <= 40 || ds.count == clique {
            exact_chromatic(&g).count.to_string()
        } else {
            "-".to_string()
        };
        println!(
            "{}",
            row(
                &[
                    format!("{r}x{c}"),
                    covering.len().to_string(),
                    clique.to_string(),
                    lf.count.to_string(),
                    sl.count.to_string(),
                    ds.count.to_string(),
                    exact,
                    format!("{:.2}x", covering.len() as f64 / ds.count as f64),
                ],
                &widths
            )
        );
    }
    println!();
    println!("reuse = cycles / wavelengths; the ring rows pin the no-reuse baseline.");
}
