//! E9 — torus coverings: the paper's "tori" future-work direction.
//!
//! For each `R × C` torus: the structured construction's size (lifted
//! ring coverings + crossed quads), the generalized capacity and degree
//! lower bounds, full validation against `K_{RC}`, the survivability
//! audit, and the wavelength count after conflict-graph coloring
//! (where the torus — unlike the ring — permits reuse).

use cyclecover_bench::{header, row};
use cyclecover_color::{clique_lower_bound, conflict_graph, dsatur};
use cyclecover_graph::builders;
use cyclecover_topo::{cover, mesh_cover, protect, GridTopology};

fn main() {
    println!("E9 — DRC coverings of K_n on R x C tori (structured construction vs lower bounds)");
    println!();
    let widths = [7, 5, 8, 9, 8, 7, 7, 7, 6, 7, 7];
    header(
        &[
            "torus", "n", "cycles", "triAbla", "greedy", "capLB", "degLB", "valid", "surv",
            "waves", "cliqLB",
        ],
        &widths,
    );
    let mut all_ok = true;
    for (r, c) in [
        (3u32, 3u32),
        (3, 4),
        (4, 4),
        (3, 5),
        (4, 5),
        (5, 5),
        (4, 6),
        (5, 6),
        (6, 6),
    ] {
        let topo = GridTopology::torus(r, c);
        let n = topo.vertex_count();
        let inst = builders::complete(n);
        let covering = mesh_cover::cover_torus(&topo);
        let ablation = mesh_cover::cover_torus_triangles(&topo);
        let valid = covering.validate(topo.graph(), &inst).is_ok()
            && ablation.validate(topo.graph(), &inst).is_ok();
        // Parallel audit on the big shapes, sequential result identical.
        let audit = protect::audit_link_failures_parallel(topo.graph(), &covering, 4);
        let conflicts = conflict_graph(&covering.footprints());
        let coloring = dsatur(&conflicts);
        // Search-based covering: enumerate oracle-routable C3/C4 within
        // distance 3 and set-cover greedily (small shapes only — the
        // candidate space grows with the ball size cubed).
        let greedy = if n <= 16 {
            // Candidate cycles must be able to span any request: use the
            // torus diameter as the locality radius.
            let diameter = (r / 2 + c / 2) as usize;
            let cands = cyclecover_topo::search::enumerate_routable_cycles(
                topo.graph(),
                diameter,
                4,
                500_000,
            );
            match cyclecover_topo::search::greedy_cover_graph(topo.graph(), &inst, &cands) {
                Some(gc) => {
                    assert!(gc.validate(topo.graph(), &inst).is_ok());
                    gc.len().to_string()
                }
                None => "uncov".to_string(),
            }
        } else {
            "-".to_string()
        };
        all_ok &= valid && audit.fully_survivable && ablation.len() > covering.len();
        println!(
            "{}",
            row(
                &[
                    format!("{r}x{c}"),
                    n.to_string(),
                    covering.len().to_string(),
                    ablation.len().to_string(),
                    greedy,
                    cover::capacity_lower_bound(topo.graph(), &inst).to_string(),
                    cover::degree_lower_bound(&inst).to_string(),
                    valid.to_string(),
                    audit.fully_survivable.to_string(),
                    coloring.count.to_string(),
                    clique_lower_bound(&conflicts).to_string(),
                ],
                &widths
            )
        );
    }
    println!();
    println!(
        "grid (no wraparound) comparison — crossed quads infeasible, corner triangles instead:"
    );
    let widths2 = [7, 5, 12, 13, 7];
    header(
        &["grid", "n", "grid cycles", "torus cycles", "valid"],
        &widths2,
    );
    for (r, c) in [(3u32, 3u32), (3, 4), (4, 4), (4, 5)] {
        let grid = GridTopology::grid(r, c);
        let torus = GridTopology::torus(r, c);
        let n = grid.vertex_count();
        let inst = builders::complete(n);
        let gc = mesh_cover::cover_grid(&grid);
        let tc = mesh_cover::cover_torus(&torus);
        let valid = gc.validate(grid.graph(), &inst).is_ok();
        all_ok &= valid;
        println!(
            "{}",
            row(
                &[
                    format!("{r}x{c}"),
                    n.to_string(),
                    gc.len().to_string(),
                    tc.len().to_string(),
                    valid.to_string(),
                ],
                &widths2
            )
        );
    }
    println!();
    println!("all checks passed: {all_ok}");
    assert!(all_ok);
}
