//! Undirected multigraph with flat adjacency storage.

use crate::{Edge, Vertex};
use std::fmt;

/// An undirected multigraph on the dense vertex set `0..n`.
///
/// Parallel edges are allowed (needed for `λK_n` logical graphs); self-loops
/// are not (a request from a node to itself consumes no network capacity).
///
/// Storage is a flat edge list plus per-vertex adjacency lists of edge
/// indices, which keeps iteration allocation-free and cache-friendly.
#[derive(Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// `adj[v]` lists indices into `edges` of the edges incident to `v`.
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Creates an edgeless graph with room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Graph {
            n,
            edges: Vec::with_capacity(m),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges (with multiplicity).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the edge `{u, v}` (a parallel copy if it already exists) and
    /// returns its index.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> u32 {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        let e = Edge::new(u, v);
        let idx = self.edges.len() as u32;
        self.edges.push(e);
        self.adj[u as usize].push(idx);
        self.adj[v as usize].push(idx);
        idx
    }

    /// The edge with internal index `idx`.
    #[inline]
    pub fn edge(&self, idx: u32) -> Edge {
        self.edges[idx as usize]
    }

    /// All edges, in insertion order (with multiplicity).
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Degree of `v` (parallel edges counted with multiplicity).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterator over the neighbors of `v` (with multiplicity).
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.adj[v as usize]
            .iter()
            .map(move |&i| self.edges[i as usize].other(v))
    }

    /// Iterator over `(edge index, neighbor)` pairs at `v`.
    pub fn incident_edges(&self, v: Vertex) -> impl Iterator<Item = (u32, Vertex)> + '_ {
        self.adj[v as usize]
            .iter()
            .map(move |&i| (i, self.edges[i as usize].other(v)))
    }

    /// Multiplicity of edge `{u, v}`.
    pub fn edge_multiplicity(&self, u: Vertex, v: Vertex) -> usize {
        if u == v || (u as usize) >= self.n || (v as usize) >= self.n {
            return 0;
        }
        let e = Edge::new(u, v);
        // Scan the smaller adjacency list.
        let w = if self.degree(u) <= self.degree(v) {
            u
        } else {
            v
        };
        self.adj[w as usize]
            .iter()
            .filter(|&&i| self.edges[i as usize] == e)
            .count()
    }

    /// Whether `{u, v}` is present at least once.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_multiplicity(u, v) > 0
    }

    /// True iff no edge appears more than once (the graph is simple).
    ///
    /// Linear time via a neighbor stamp array: for each vertex, mark the
    /// opposite endpoints of its incident edges; a repeated mark is a
    /// parallel edge. `O(n + m)` with one `O(n)` scratch allocation —
    /// no copy of the edge list, no sort.
    pub fn is_simple(&self) -> bool {
        let mut stamp = vec![u32::MAX; self.n];
        for v in 0..self.n {
            for &i in &self.adj[v] {
                let w = self.edges[i as usize].other(v as Vertex) as usize;
                if stamp[w] == v as u32 {
                    return false;
                }
                stamp[w] = v as u32;
            }
        }
        true
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.adj[v].len()).max().unwrap_or(0)
    }

    /// Minimum degree.
    pub fn min_degree(&self) -> usize {
        (0..self.n).map(|v| self.adj[v].len()).min().unwrap_or(0)
    }

    /// True iff every vertex has even degree (necessary for an Euler tour,
    /// and for a graph to decompose into cycles).
    pub fn all_degrees_even(&self) -> bool {
        (0..self.n).all(|v| self.adj[v].len().is_multiple_of(2))
    }

    /// GraphViz DOT rendering (small graphs; debugging and docs).
    pub fn to_dot(&self, name: &str) -> String {
        use fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "graph {name} {{");
        for v in 0..self.n {
            let _ = writeln!(s, "  {v};");
        }
        for e in &self.edges {
            let _ = writeln!(s, "  {} -- {};", e.u(), e.v());
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(0, 2));
        assert!(g.is_simple());
        assert!(g.all_degrees_even());
        let mut nb: Vec<_> = g.neighbors(0).collect();
        nb.sort_unstable();
        assert_eq!(nb, vec![1, 3]);
    }

    #[test]
    fn multigraph_multiplicity() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        assert_eq!(g.edge_multiplicity(0, 1), 2);
        assert_eq!(g.edge_multiplicity(1, 2), 1);
        assert_eq!(g.edge_multiplicity(0, 2), 0);
        assert!(!g.is_simple());
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert!(g.all_degrees_even());
    }

    #[test]
    fn dot_output_contains_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 2);
        let dot = g.to_dot("g");
        assert!(dot.contains("0 -- 2;"));
        assert!(dot.starts_with("graph g {"));
    }
}
