//! Grid and torus physical topologies.
//!
//! The paper closes by naming "grids or tori" as the next topologies to
//! investigate. This module models both with one type, [`GridTopology`]:
//! an `R × C` mesh whose rows and columns are paths (grid) or rings
//! (torus, `wrap = true`). Vertices are indexed row-major
//! (`v = r·C + c`), edges are generated rows-first then columns — the
//! fixed generation order gives every edge a predictable index, which the
//! structured constructions of [`crate::mesh_cover`] exploit.

use cyclecover_graph::{Graph, Vertex};

/// An `R × C` grid (or torus) topology.
#[derive(Clone, Debug)]
pub struct GridTopology {
    rows: u32,
    cols: u32,
    wrap: bool,
    graph: Graph,
}

impl GridTopology {
    /// Builds an `rows × cols` mesh. With `wrap`, rows and columns close
    /// into rings (a torus).
    ///
    /// # Panics
    /// Panics if a dimension is 0, or if `wrap` is set with a dimension
    /// `< 3` (wrapping a 2-path would create parallel edges, and a
    /// 1-ring a self-loop; neither is a meaningful optical topology).
    pub fn new(rows: u32, cols: u32, wrap: bool) -> Self {
        assert!(rows >= 1 && cols >= 1, "degenerate mesh {rows}x{cols}");
        if wrap {
            assert!(
                rows >= 3 && cols >= 3,
                "torus dimensions must be >= 3, got {rows}x{cols}"
            );
        }
        let n = (rows * cols) as usize;
        let mut graph = Graph::with_capacity(n, 2 * n);
        // Row edges first: (r, c) — (r, c+1), wrapping last to first.
        for r in 0..rows {
            for c in 0..cols.saturating_sub(1) {
                graph.add_edge(r * cols + c, r * cols + c + 1);
            }
            if wrap {
                graph.add_edge(r * cols + cols - 1, r * cols);
            }
        }
        // Then column edges: (r, c) — (r+1, c).
        for c in 0..cols {
            for r in 0..rows.saturating_sub(1) {
                graph.add_edge(r * cols + c, (r + 1) * cols + c);
            }
            if wrap {
                graph.add_edge((rows - 1) * cols + c, c);
            }
        }
        GridTopology {
            rows,
            cols,
            wrap,
            graph,
        }
    }

    /// A torus (`wrap = true`) — the paper's "tori".
    pub fn torus(rows: u32, cols: u32) -> Self {
        GridTopology::new(rows, cols, true)
    }

    /// A flat grid (`wrap = false`) — the paper's "grids".
    pub fn grid(rows: u32, cols: u32) -> Self {
        GridTopology::new(rows, cols, false)
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Whether rows/columns wrap (torus).
    pub fn wraps(&self) -> bool {
        self.wrap
    }

    /// Total vertex count `R · C`.
    pub fn vertex_count(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    /// The underlying physical graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Vertex id of `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn vertex(&self, r: u32, c: u32) -> Vertex {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        r * self.cols + c
    }

    /// Coordinates `(r, c)` of a vertex id.
    pub fn coords(&self, v: Vertex) -> (u32, u32) {
        assert!(
            (v as usize) < self.vertex_count(),
            "vertex {v} out of range"
        );
        (v / self.cols, v % self.cols)
    }

    /// Distance along the row dimension between columns `c1` and `c2`.
    pub fn col_distance(&self, c1: u32, c2: u32) -> u32 {
        let d = c1.abs_diff(c2);
        if self.wrap {
            d.min(self.cols - d)
        } else {
            d
        }
    }

    /// Distance along the column dimension between rows `r1` and `r2`.
    pub fn row_distance(&self, r1: u32, r2: u32) -> u32 {
        let d = r1.abs_diff(r2);
        if self.wrap {
            d.min(self.rows - d)
        } else {
            d
        }
    }

    /// Graph distance between two vertices (Manhattan, wrapped per
    /// dimension on the torus).
    pub fn distance(&self, a: Vertex, b: Vertex) -> u32 {
        let (ra, ca) = self.coords(a);
        let (rb, cb) = self.coords(b);
        self.row_distance(ra, rb) + self.col_distance(ca, cb)
    }

    /// The vertex path along row `r` from column `c1` to column `c2`.
    /// On the torus, `long_way` selects the complementary direction
    /// (needed by the crossed-quad routings of [`crate::mesh_cover`]);
    /// on a grid `long_way` must be `false`.
    ///
    /// The path includes both endpoints; `c1 == c2` yields a single
    /// vertex (an empty path).
    pub fn row_path(&self, r: u32, c1: u32, c2: u32, long_way: bool) -> Vec<Vertex> {
        assert!(!long_way || self.wrap, "long-way routing needs a torus");
        self.dim_path(c1, c2, self.cols, long_way, |c| self.vertex(r, c))
    }

    /// The vertex path along column `c` from row `r1` to row `r2`; see
    /// [`GridTopology::row_path`].
    pub fn col_path(&self, c: u32, r1: u32, r2: u32, long_way: bool) -> Vec<Vertex> {
        assert!(!long_way || self.wrap, "long-way routing needs a torus");
        self.dim_path(r1, r2, self.rows, long_way, |r| self.vertex(r, c))
    }

    /// Shared 1-D path walker: from `x1` to `x2` over `len` positions,
    /// taking the shorter direction unless `long_way` (ties: increasing
    /// direction is "short").
    fn dim_path(
        &self,
        x1: u32,
        x2: u32,
        len: u32,
        long_way: bool,
        to_vertex: impl Fn(u32) -> Vertex,
    ) -> Vec<Vertex> {
        if x1 == x2 {
            return vec![to_vertex(x1)];
        }
        if !self.wrap {
            let step: i64 = if x2 > x1 { 1 } else { -1 };
            let mut out = Vec::with_capacity(x1.abs_diff(x2) as usize + 1);
            let mut x = x1 as i64;
            loop {
                out.push(to_vertex(x as u32));
                if x as u32 == x2 {
                    return out;
                }
                x += step;
            }
        }
        // Torus: pick direction by distance (increasing wins ties), then
        // invert for the long way.
        let fwd = (x2 + len - x1) % len; // steps going +1
        let go_forward = (fwd <= len - fwd) ^ long_way;
        let steps = if go_forward { fwd } else { len - fwd };
        let mut out = Vec::with_capacity(steps as usize + 1);
        let mut x = x1;
        out.push(to_vertex(x));
        for _ in 0..steps {
            x = if go_forward {
                (x + 1) % len
            } else {
                (x + len - 1) % len
            };
            out.push(to_vertex(x));
        }
        out
    }

    /// The vertex path along row `r` from `c1` to `c2` walking strictly in
    /// the increasing-column direction (wrapping on the torus). The
    /// crossed-quad routings of [`crate::mesh_cover`] wind each
    /// dimension-ring exactly once, which needs direction-exact walks —
    /// shortest-way walks would collide on distance ties.
    ///
    /// # Panics
    /// Panics on a grid if the forward walk would cross the seam
    /// (`c2 < c1`).
    pub fn row_walk_fwd(&self, r: u32, c1: u32, c2: u32) -> Vec<Vertex> {
        assert!(
            self.wrap || c2 >= c1,
            "forward row walk {c1}→{c2} crosses the seam of a grid"
        );
        let steps = (c2 + self.cols - c1) % self.cols;
        let mut out = Vec::with_capacity(steps as usize + 1);
        let mut c = c1;
        out.push(self.vertex(r, c));
        for _ in 0..steps {
            c = (c + 1) % self.cols;
            out.push(self.vertex(r, c));
        }
        out
    }

    /// The vertex path along column `c` from `r1` to `r2` walking strictly
    /// in the increasing-row direction; see [`GridTopology::row_walk_fwd`].
    ///
    /// # Panics
    /// Panics on a grid if the forward walk would cross the seam.
    pub fn col_walk_fwd(&self, c: u32, r1: u32, r2: u32) -> Vec<Vertex> {
        assert!(
            self.wrap || r2 >= r1,
            "forward column walk {r1}→{r2} crosses the seam of a grid"
        );
        let steps = (r2 + self.rows - r1) % self.rows;
        let mut out = Vec::with_capacity(steps as usize + 1);
        let mut r = r1;
        out.push(self.vertex(r, c));
        for _ in 0..steps {
            r = (r + 1) % self.rows;
            out.push(self.vertex(r, c));
        }
        out
    }

    /// Sum of pairwise distances over all vertex pairs (the numerator of
    /// the capacity lower bound).
    pub fn total_pair_distance(&self) -> u64 {
        let n = self.vertex_count() as u32;
        let mut total = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                total += self.distance(a, b) as u64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_graph::connectivity::edge_connectivity;
    use cyclecover_graph::{bfs_distances, is_connected};

    #[test]
    fn grid_edge_count() {
        let g = GridTopology::grid(3, 4);
        // rows: 3 * 3 = 9; cols: 4 * 2 = 8.
        assert_eq!(g.graph().edge_count(), 17);
        assert_eq!(g.vertex_count(), 12);
        assert!(is_connected(g.graph()));
    }

    #[test]
    fn torus_edge_count_and_regularity() {
        let t = GridTopology::torus(3, 5);
        assert_eq!(t.graph().edge_count(), 30); // 2 * R * C
        for v in 0..15u32 {
            assert_eq!(t.graph().degree(v), 4, "torus is 4-regular");
        }
        assert_eq!(edge_connectivity(t.graph()), 4);
    }

    #[test]
    fn grid_connectivity_is_two() {
        let g = GridTopology::grid(3, 3);
        assert_eq!(edge_connectivity(g.graph()), 2);
    }

    #[test]
    fn coords_roundtrip() {
        let t = GridTopology::torus(4, 7);
        for v in 0..28u32 {
            let (r, c) = t.coords(v);
            assert_eq!(t.vertex(r, c), v);
        }
    }

    #[test]
    fn manhattan_distance_matches_bfs() {
        for topo in [
            GridTopology::grid(3, 5),
            GridTopology::torus(4, 5),
            GridTopology::torus(3, 3),
        ] {
            let n = topo.vertex_count() as u32;
            for a in 0..n {
                let bfs = bfs_distances(topo.graph(), a);
                for b in 0..n {
                    assert_eq!(
                        topo.distance(a, b) as usize,
                        bfs[b as usize],
                        "a={a} b={b} wrap={}",
                        topo.wraps()
                    );
                }
            }
        }
    }

    #[test]
    fn row_path_short_and_long_are_complementary() {
        let t = GridTopology::torus(3, 7);
        let short = t.row_path(1, 2, 5, false);
        let long = t.row_path(1, 2, 5, true);
        assert_eq!(*short.first().unwrap(), t.vertex(1, 2));
        assert_eq!(*short.last().unwrap(), t.vertex(1, 5));
        assert_eq!(*long.first().unwrap(), t.vertex(1, 2));
        assert_eq!(*long.last().unwrap(), t.vertex(1, 5));
        // Interiors are disjoint and lengths sum to the full ring.
        assert_eq!(short.len() - 1 + long.len() - 1, 7);
        let interior = |p: &[Vertex]| p[1..p.len() - 1].to_vec();
        for v in interior(&short) {
            assert!(!interior(&long).contains(&v));
        }
    }

    #[test]
    fn grid_path_is_monotone() {
        let g = GridTopology::grid(2, 6);
        let p = g.row_path(0, 4, 1, false);
        assert_eq!(p, vec![4, 3, 2, 1]);
        let q = g.col_path(3, 0, 1, false);
        assert_eq!(q, vec![g.vertex(0, 3), g.vertex(1, 3)]);
    }

    #[test]
    fn degenerate_single_vertex_path() {
        let t = GridTopology::torus(3, 3);
        assert_eq!(t.row_path(2, 1, 1, false), vec![t.vertex(2, 1)]);
    }

    #[test]
    #[should_panic(expected = "long-way routing needs a torus")]
    fn long_way_on_grid_panics() {
        GridTopology::grid(3, 3).row_path(0, 0, 2, true);
    }

    #[test]
    #[should_panic(expected = "torus dimensions must be >= 3")]
    fn small_torus_rejected() {
        GridTopology::torus(2, 5);
    }

    #[test]
    fn paths_walk_real_edges() {
        for topo in [GridTopology::grid(4, 5), GridTopology::torus(4, 5)] {
            for (a, b, long) in [(0u32, 3u32, false), (1, 4, false)] {
                let p = topo.row_path(2, a, b, long && topo.wraps());
                for w in p.windows(2) {
                    assert!(topo.graph().has_edge(w[0], w[1]), "hop {w:?}");
                }
                let q = topo.col_path(2, 0, 3, false);
                for w in q.windows(2) {
                    assert!(topo.graph().has_edge(w[0], w[1]), "hop {w:?}");
                }
            }
        }
    }

    #[test]
    fn total_pair_distance_small_case() {
        // 1x? is a degenerate mesh but still valid as a path graph.
        let g = GridTopology::grid(1, 3);
        // pairs: (0,1)=1, (0,2)=2, (1,2)=1 → 4.
        assert_eq!(g.total_pair_distance(), 4);
    }
}
