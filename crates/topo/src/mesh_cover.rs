//! Structured DRC cycle coverings of `K_{R·C}` on grids and tori.
//!
//! The ring theorems of the paper do not transfer directly to meshes —
//! no exact `ρ` is known there (the note merely announces the
//! investigation). This module contributes *constructive upper bounds*
//! with machine-verified routings, in the same spirit as the paper's
//! constructions, plus the matching capacity lower bounds for calibration
//! (experiment E9: the `table_torus` bench binary tabulates both).
//!
//! ## Torus construction ([`cover_torus`])
//!
//! Split the requests of `K_{R·C}` into three classes:
//!
//! * **intra-row** — both endpoints in row `r`: the row is a ring `C_C`,
//!   so *lift* the paper-optimal ring covering of `K_C` onto it
//!   (`ρ(C)` cycles per row; routings are the tile arcs, which partition
//!   the row's edges — DRC holds within each lifted cycle verbatim);
//! * **intra-column** — dually, `ρ(R)` lifted cycles per column;
//! * **mixed** — endpoints differing in both coordinates. The two
//!   diagonals of each combinatorial rectangle `{r1,r2} × {c1,c2}` are
//!   covered together by one **crossed quad**
//!   `(r1,c1) → (r2,c2) → (r1,c2) → (r2,c1) →` routed so that row `r1`,
//!   column `c1` and column `c2` are each wound exactly once in the
//!   increasing direction — four pairwise edge-disjoint paths on any
//!   torus, with no case analysis (this is where wraparound is
//!   essential; the crossed quad is *infeasible* on a grid).
//!
//! Total: `R·ρ(C) + C·ρ(R) + R(R−1)/2 · C(C−1)/2` cycles.
//!
//! ## Grid construction ([`cover_grid`])
//!
//! Grids have no wraparound, and rows/columns are *paths*, on which no
//! cycle routes at all (the tree impossibility theorem in
//! `cyclecover-core::path`). Every covering cycle must therefore span at
//! least two rows or two columns:
//!
//! * **intra-row** requests are covered by **perimeter quads**: rows are
//!   paired `(0,1), (2,3), …` and the quad
//!   `(r,c1) → (r,c2) → (r',c2) → (r',c1) →` (routed around the
//!   rectangle perimeter) covers the same column-pair request in both
//!   rows at once;
//! * **intra-column** requests dually, with column pairing;
//! * **mixed** requests by **corner triangles**: the diagonal of a
//!   rectangle plus one corner, the diagonal request routed around the
//!   opposite two sides (one triangle per diagonal, two per rectangle).
//!
//! Both constructions return [`GraphCovering`]s whose every routing has
//! been built explicitly; callers (and tests) re-verify with
//! [`GraphCovering::validate`].

use crate::cover::{routing_from_vertex_paths, GraphCovering};
use crate::grid::GridTopology;
use cyclecover_graph::CycleSubgraph;
use cyclecover_ring::Ring;

/// Lifts the paper-optimal covering of `K_len` over `C_len` onto a
/// concrete ring of `len` vertices embedded in a larger graph.
///
/// `embed(i)` maps ring position `i` to the host vertex. The lifted
/// cycles' routings follow the tile arcs, so they are edge-disjoint
/// within the embedded ring provided the embedding walks real host edges
/// (the caller guarantees that; [`GraphCovering::validate`] re-checks).
fn lift_ring_covering(
    host: &mut GraphCovering,
    g: &cyclecover_graph::Graph,
    len: u32,
    embed: impl Fn(u32) -> u32,
) {
    let ring = Ring::new(len);
    let covering = cyclecover_core::construct_optimal(len);
    for tile in covering.tiles() {
        let verts: Vec<u32> = tile.vertices().iter().map(|&i| embed(i)).collect();
        let paths: Vec<Vec<u32>> = tile
            .arcs(ring)
            .iter()
            .map(|arc| arc.walk(ring).into_iter().map(&embed).collect())
            .collect();
        let routing = routing_from_vertex_paths(g, &paths);
        host.push(g, CycleSubgraph::new(verts), routing)
            .expect("lifted ring tile must route");
    }
}

/// Covers `K_{R·C}` on the torus `topo` (see module docs). The returned
/// covering validates against the complete instance.
///
/// # Panics
/// Panics if `topo` is not a torus.
pub fn cover_torus(topo: &GridTopology) -> GraphCovering {
    assert!(topo.wraps(), "cover_torus needs a torus; use cover_grid");
    let (rows, cols) = (topo.rows(), topo.cols());
    let g = topo.graph();
    let mut cover = GraphCovering::new();

    // Intra-row: lift the optimal K_cols covering onto each row ring.
    for r in 0..rows {
        lift_ring_covering(&mut cover, g, cols, |i| topo.vertex(r, i));
    }
    // Intra-column: lift the optimal K_rows covering onto each column ring.
    for c in 0..cols {
        lift_ring_covering(&mut cover, g, rows, |i| topo.vertex(i, c));
    }
    // Mixed: one crossed quad per combinatorial rectangle.
    for r1 in 0..rows {
        for r2 in (r1 + 1)..rows {
            for c1 in 0..cols {
                for c2 in (c1 + 1)..cols {
                    cover
                        .push(
                            g,
                            crossed_quad_cycle(topo, r1, r2, c1, c2),
                            crossed_quad_routing(topo, r1, r2, c1, c2),
                        )
                        .expect("crossed quad routes on any torus");
                }
            }
        }
    }
    cover
}

/// The crossed quad's logical cycle: `(r1,c1), (r2,c2), (r1,c2), (r2,c1)`
/// — its four cycle edges are the rectangle's two diagonals (the mixed
/// requests) and two column requests.
fn crossed_quad_cycle(topo: &GridTopology, r1: u32, r2: u32, c1: u32, c2: u32) -> CycleSubgraph {
    CycleSubgraph::new(vec![
        topo.vertex(r1, c1),
        topo.vertex(r2, c2),
        topo.vertex(r1, c2),
        topo.vertex(r2, c1),
    ])
}

/// The crossed quad's routing: row `r1` and both columns wound exactly
/// once in the increasing direction.
///
/// * `(r1,c1) → (r2,c2)`: forward along row `r1` to `c2`, then forward
///   down column `c2` to `r2`;
/// * `(r2,c2) → (r1,c2)`: forward along column `c2` (the rest of it);
/// * `(r1,c2) → (r2,c1)`: forward along row `r1` back to `c1` (the rest
///   of the row), then forward down column `c1` to `r2`;
/// * `(r2,c1) → (r1,c1)`: forward along column `c1` (the rest of it).
fn crossed_quad_routing(
    topo: &GridTopology,
    r1: u32,
    r2: u32,
    c1: u32,
    c2: u32,
) -> crate::drc::CycleRouting {
    let mut p1 = topo.row_walk_fwd(r1, c1, c2);
    p1.extend_from_slice(&topo.col_walk_fwd(c2, r1, r2)[1..]);
    let p2 = topo.col_walk_fwd(c2, r2, r1);
    let mut p3 = topo.row_walk_fwd(r1, c2, c1);
    p3.extend_from_slice(&topo.col_walk_fwd(c1, r1, r2)[1..]);
    let p4 = topo.col_walk_fwd(c1, r2, r1);
    routing_from_vertex_paths(topo.graph(), &[p1, p2, p3, p4])
}

/// Covers `K_{R·C}` on the (non-wrapping) grid `topo` (see module docs).
/// The returned covering validates against the complete instance.
///
/// # Panics
/// Panics if `topo` wraps, or if either dimension is < 2 (a `1 × C` grid
/// is a path, on which no cycle covering exists — the impossibility
/// theorem of `cyclecover-core::path`).
pub fn cover_grid(topo: &GridTopology) -> GraphCovering {
    assert!(!topo.wraps(), "cover_grid needs a grid; use cover_torus");
    let (rows, cols) = (topo.rows(), topo.cols());
    assert!(
        rows >= 2 && cols >= 2,
        "a {rows}x{cols} grid is a path; no cycle covering exists"
    );
    let mut cover = GraphCovering::new();

    // Intra-row requests: perimeter quads over paired rows.
    for pair in 0..rows / 2 {
        let (r1, r2) = (2 * pair, 2 * pair + 1);
        push_all_perimeter_quads_for_rows(&mut cover, topo, r1, r2);
    }
    if rows % 2 == 1 && rows > 1 {
        // Odd row count: the last row pairs with its neighbor (its
        // neighbor's requests get covered twice — harmless overlap).
        push_all_perimeter_quads_for_rows(&mut cover, topo, rows - 2, rows - 1);
    }
    // Intra-column requests: perimeter quads over paired columns.
    for pair in 0..cols / 2 {
        let (c1, c2) = (2 * pair, 2 * pair + 1);
        push_all_perimeter_quads_for_cols(&mut cover, topo, c1, c2);
    }
    if cols % 2 == 1 && cols > 1 {
        push_all_perimeter_quads_for_cols(&mut cover, topo, cols - 2, cols - 1);
    }
    // Mixed requests: two corner triangles per rectangle.
    for r1 in 0..rows {
        for r2 in (r1 + 1)..rows {
            for c1 in 0..cols {
                for c2 in (c1 + 1)..cols {
                    push_corner_triangles(&mut cover, topo, r1, r2, c1, c2);
                }
            }
        }
    }
    cover
}

/// For the fixed row pair `(r1, r2)`, pushes one perimeter quad per
/// column pair — covering every intra-row request of both rows.
fn push_all_perimeter_quads_for_rows(
    cover: &mut GraphCovering,
    topo: &GridTopology,
    r1: u32,
    r2: u32,
) {
    let g = topo.graph();
    for c1 in 0..topo.cols() {
        for c2 in (c1 + 1)..topo.cols() {
            let cycle = CycleSubgraph::new(vec![
                topo.vertex(r1, c1),
                topo.vertex(r1, c2),
                topo.vertex(r2, c2),
                topo.vertex(r2, c1),
            ]);
            let paths = vec![
                topo.row_path(r1, c1, c2, false),
                topo.col_path(c2, r1, r2, false),
                topo.row_path(r2, c2, c1, false),
                topo.col_path(c1, r2, r1, false),
            ];
            let routing = routing_from_vertex_paths(g, &paths);
            cover
                .push(g, cycle, routing)
                .expect("perimeter quad routes on any grid");
        }
    }
}

/// For the fixed column pair `(c1, c2)`, pushes one perimeter quad per
/// row pair — covering every intra-column request of both columns.
fn push_all_perimeter_quads_for_cols(
    cover: &mut GraphCovering,
    topo: &GridTopology,
    c1: u32,
    c2: u32,
) {
    let g = topo.graph();
    for r1 in 0..topo.rows() {
        for r2 in (r1 + 1)..topo.rows() {
            let cycle = CycleSubgraph::new(vec![
                topo.vertex(r1, c1),
                topo.vertex(r2, c1),
                topo.vertex(r2, c2),
                topo.vertex(r1, c2),
            ]);
            let paths = vec![
                topo.col_path(c1, r1, r2, false),
                topo.row_path(r2, c1, c2, false),
                topo.col_path(c2, r2, r1, false),
                topo.row_path(r1, c2, c1, false),
            ];
            let routing = routing_from_vertex_paths(g, &paths);
            cover
                .push(g, cycle, routing)
                .expect("perimeter quad routes on any grid");
        }
    }
}

/// The two corner triangles of rectangle `{r1,r2} × {c1,c2}`, each
/// covering one diagonal (mixed) request; the diagonal is routed around
/// the two rectangle sides its triangle does not use.
fn push_corner_triangles(
    cover: &mut GraphCovering,
    topo: &GridTopology,
    r1: u32,
    r2: u32,
    c1: u32,
    c2: u32,
) {
    let g = topo.graph();
    // Diagonal (r1,c1)–(r2,c2), corner (r1,c2).
    {
        let a = topo.vertex(r1, c1);
        let x = topo.vertex(r1, c2);
        let b = topo.vertex(r2, c2);
        let cycle = CycleSubgraph::new(vec![a, x, b]);
        let mut back = topo.row_path(r2, c2, c1, false);
        back.extend_from_slice(&topo.col_path(c1, r2, r1, false)[1..]);
        let paths = vec![
            topo.row_path(r1, c1, c2, false),
            topo.col_path(c2, r1, r2, false),
            back,
        ];
        let routing = routing_from_vertex_paths(g, &paths);
        cover
            .push(g, cycle, routing)
            .expect("corner triangle routes on any grid");
    }
    // Diagonal (r1,c2)–(r2,c1), corner (r1,c1).
    {
        let a = topo.vertex(r1, c2);
        let y = topo.vertex(r1, c1);
        let b = topo.vertex(r2, c1);
        let cycle = CycleSubgraph::new(vec![a, y, b]);
        let mut back = topo.row_path(r2, c1, c2, false);
        back.extend_from_slice(&topo.col_path(c2, r2, r1, false)[1..]);
        let paths = vec![
            topo.row_path(r1, c2, c1, false),
            topo.col_path(c1, r1, r2, false),
            back,
        ];
        let routing = routing_from_vertex_paths(g, &paths);
        cover
            .push(g, cycle, routing)
            .expect("corner triangle routes on any grid");
    }
}

/// Ablation baseline: the torus covering with **corner triangles**
/// instead of crossed quads — two cycles per combinatorial rectangle
/// (one per diagonal) rather than one. Same row/column lifts. Exists to
/// measure what the crossed-quad gadget is worth (experiment E9); the
/// structured [`cover_torus`] strictly beats it:
/// `R(R−1)/2 · C(C−1)/2` extra cycles.
pub fn cover_torus_triangles(topo: &GridTopology) -> GraphCovering {
    assert!(topo.wraps(), "torus ablation needs a torus");
    let (rows, cols) = (topo.rows(), topo.cols());
    let g = topo.graph();
    let mut cover = GraphCovering::new();
    for r in 0..rows {
        lift_ring_covering(&mut cover, g, cols, |i| topo.vertex(r, i));
    }
    for c in 0..cols {
        lift_ring_covering(&mut cover, g, rows, |i| topo.vertex(i, c));
    }
    for r1 in 0..rows {
        for r2 in (r1 + 1)..rows {
            for c1 in 0..cols {
                for c2 in (c1 + 1)..cols {
                    push_corner_triangles(&mut cover, topo, r1, r2, c1, c2);
                }
            }
        }
    }
    cover
}

/// Number of cycles the torus construction produces:
/// `R·ρ(C) + C·ρ(R) + R(R−1)/2 · C(C−1)/2` — the workspace's constructive
/// upper bound on the torus covering number. (For `n ≡ 0 mod 8` ring
/// factors the lifted covering carries the documented `+1` excess per
/// ring; this formula counts the *actual* construction.)
pub fn torus_construction_size(rows: u64, cols: u64) -> u64 {
    let rho_r = cyclecover_core::construct_optimal(rows as u32).len() as u64;
    let rho_c = cyclecover_core::construct_optimal(cols as u32).len() as u64;
    rows * rho_c + cols * rho_r + rows * (rows - 1) / 2 * (cols * (cols - 1) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{capacity_lower_bound, lower_bound};
    use cyclecover_graph::builders;

    #[test]
    fn torus_covering_validates() {
        for (r, c) in [(3u32, 3u32), (3, 4), (4, 4), (3, 5), (5, 4)] {
            let topo = GridTopology::torus(r, c);
            let cover = cover_torus(&topo);
            let inst = builders::complete(topo.vertex_count());
            cover
                .validate(topo.graph(), &inst)
                .unwrap_or_else(|e| panic!("{r}x{c} torus: {e}"));
            assert_eq!(
                cover.len() as u64,
                torus_construction_size(r as u64, c as u64),
                "{r}x{c}"
            );
        }
    }

    #[test]
    fn grid_covering_validates() {
        for (r, c) in [(2u32, 2u32), (2, 3), (3, 3), (3, 4), (4, 5), (2, 6)] {
            let topo = GridTopology::grid(r, c);
            let cover = cover_grid(&topo);
            let inst = builders::complete(topo.vertex_count());
            cover
                .validate(topo.graph(), &inst)
                .unwrap_or_else(|e| panic!("{r}x{c} grid: {e}"));
        }
    }

    #[test]
    fn torus_beats_grid_on_same_shape() {
        // Wraparound enables crossed quads (1 cycle per rectangle instead
        // of 2 triangles) and ring rows; the torus covering is smaller.
        for (r, c) in [(3u32, 4u32), (4, 4), (4, 5)] {
            let t = cover_torus(&GridTopology::torus(r, c)).len();
            let g = cover_grid(&GridTopology::grid(r, c)).len();
            assert!(t < g, "{r}x{c}: torus {t} vs grid {g}");
        }
    }

    #[test]
    fn coverings_respect_lower_bounds() {
        let topo = GridTopology::torus(4, 4);
        let inst = builders::complete(16);
        let cover = cover_torus(&topo);
        let lb = lower_bound(topo.graph(), &inst);
        assert!(lb >= 1);
        assert!(
            (cover.len() as u64) >= lb,
            "construction {} below lower bound {lb}?!",
            cover.len()
        );
    }

    #[test]
    fn torus_upper_bound_within_factor_of_lower_bound() {
        // Calibration: the construction should be within a modest constant
        // factor of the capacity bound (it is ~4–6x at small sizes; record
        // the shape, not the exact constant).
        for (r, c) in [(4u32, 4u32), (5, 5)] {
            let topo = GridTopology::torus(r, c);
            let inst = builders::complete(topo.vertex_count());
            let ub = cover_torus(&topo).len() as u64;
            let lb = capacity_lower_bound(topo.graph(), &inst).max(1);
            assert!(ub <= 12 * lb, "{r}x{c}: ub {ub} vs lb {lb}");
        }
    }

    #[test]
    fn triangle_ablation_validates_and_loses() {
        for (r, c) in [(3u32, 3u32), (3, 4), (4, 4)] {
            let topo = GridTopology::torus(r, c);
            let naive = cover_torus_triangles(&topo);
            let structured = cover_torus(&topo);
            let inst = builders::complete(topo.vertex_count());
            naive
                .validate(topo.graph(), &inst)
                .unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
            let rects = (r as usize * (r as usize - 1) / 2) * (c as usize * (c as usize - 1) / 2);
            assert_eq!(
                naive.len(),
                structured.len() + rects,
                "{r}x{c}: quad gadget saves exactly one cycle per rectangle"
            );
        }
    }

    #[test]
    fn crossed_quad_is_infeasible_on_grid() {
        // The torus-only gadget: on a grid the crossed quad cannot route
        // (its two diagonals + two column requests exceed the rectangle's
        // edge budget without wraparound). Verified via the exact oracle.
        use crate::drc::{route_cycle, RouteOutcome, DEFAULT_BUDGET};
        let topo = GridTopology::grid(2, 2);
        let cyc = crossed_quad_cycle(&topo, 0, 1, 0, 1);
        match route_cycle(topo.graph(), &cyc, 4, DEFAULT_BUDGET) {
            RouteOutcome::Infeasible => {}
            other => panic!("crossed quad on 2x2 grid: {other:?}"),
        }
    }

    #[test]
    fn crossed_quad_loads_are_tight() {
        // Winds row r1 + col c1 + col c2 exactly once: load = C + 2R.
        let topo = GridTopology::torus(5, 7);
        let routing = crossed_quad_routing(&topo, 1, 3, 2, 6);
        assert_eq!(routing.total_load() as u32, 7 + 2 * 5);
    }

    #[test]
    fn grid_covering_covers_each_class() {
        let topo = GridTopology::grid(3, 3);
        let cover = cover_grid(&topo);
        let cov = cover.coverage(9);
        // A row request, a column request, a mixed request.
        use cyclecover_graph::Edge;
        assert!(cov.count(Edge::new(topo.vertex(0, 0), topo.vertex(0, 2))) >= 1);
        assert!(cov.count(Edge::new(topo.vertex(0, 1), topo.vertex(2, 1))) >= 1);
        assert!(cov.count(Edge::new(topo.vertex(0, 0), topo.vertex(2, 2))) >= 1);
    }
}
