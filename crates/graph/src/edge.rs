//! Normalized undirected edges and edge multisets.

use crate::Vertex;
use std::fmt;

/// An undirected edge: an unordered pair of distinct vertices, stored
/// normalized with `u() < v()`.
///
/// In the paper's terminology an edge of the logical graph is a *(symmetric)
/// request*: a demand for one unit of (bidirectional) traffic between two
/// optical switches.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: Vertex,
    v: Vertex,
}

impl Edge {
    /// Creates the edge `{a, b}`, normalizing endpoint order.
    ///
    /// # Panics
    /// Panics if `a == b` (self-loops never occur in this problem domain:
    /// a request from a node to itself needs no capacity).
    #[inline]
    pub fn new(a: Vertex, b: Vertex) -> Self {
        assert_ne!(a, b, "self-loop edge ({a},{a}) is not allowed");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// Smaller endpoint.
    #[inline]
    pub fn u(&self) -> Vertex {
        self.u
    }

    /// Larger endpoint.
    #[inline]
    pub fn v(&self) -> Vertex {
        self.v
    }

    /// Both endpoints as a `(small, large)` tuple.
    #[inline]
    pub fn endpoints(&self) -> (Vertex, Vertex) {
        (self.u, self.v)
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: Vertex) -> Vertex {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("vertex {x} is not an endpoint of {self:?}")
        }
    }

    /// Dense index of this edge among all edges of `K_n` listed in
    /// lexicographic order, i.e. `{0,1}, {0,2}, …, {0,n−1}, {1,2}, …`.
    ///
    /// Used to address flat covering-count arrays without hashing.
    #[inline]
    pub fn dense_index(&self, n: usize) -> usize {
        let (u, v) = (self.u as usize, self.v as usize);
        debug_assert!(v < n, "edge endpoint {v} out of range for n={n}");
        // Sum of row lengths above row u: Σ_{i<u}(n−1−i) = u(2n−u−1)/2, then offset.
        u * (2 * n - u - 1) / 2 + (v - u - 1)
    }

    /// Inverse of [`Edge::dense_index`].
    pub fn from_dense_index(idx: usize, n: usize) -> Self {
        let mut u = 0usize;
        let mut idx = idx;
        loop {
            let row = n - 1 - u;
            if idx < row {
                return Edge::new(u as Vertex, (u + 1 + idx) as Vertex);
            }
            idx -= row;
            u += 1;
            assert!(u < n, "dense index out of range for n={n}");
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{}}}", self.u, self.v)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{}}}", self.u, self.v)
    }
}

/// A multiset of edges over the vertex set `0..n`, stored as a flat count
/// array indexed by [`Edge::dense_index`].
///
/// This is the bookkeeping structure for coverings: `counts[e]` is the number
/// of covering cycles that contain request `e`. A *covering* requires every
/// count ≥ 1; a *partition* requires every count = 1.
#[derive(Clone, PartialEq, Eq)]
pub struct EdgeMultiset {
    n: usize,
    counts: Vec<u32>,
}

impl EdgeMultiset {
    /// Empty multiset over vertex set `0..n`.
    pub fn new(n: usize) -> Self {
        let m = if n < 2 { 0 } else { n * (n - 1) / 2 };
        EdgeMultiset {
            n,
            counts: vec![0; m],
        }
    }

    /// Number of vertices of the underlying vertex set.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Adds one occurrence of `e`; returns the new count.
    #[inline]
    pub fn insert(&mut self, e: Edge) -> u32 {
        let i = e.dense_index(self.n);
        self.counts[i] += 1;
        self.counts[i]
    }

    /// Removes one occurrence of `e`; returns the new count.
    ///
    /// # Panics
    /// Panics if the count was already zero.
    #[inline]
    pub fn remove(&mut self, e: Edge) -> u32 {
        let i = e.dense_index(self.n);
        assert!(self.counts[i] > 0, "removing absent edge {e}");
        self.counts[i] -= 1;
        self.counts[i]
    }

    /// Multiplicity of `e`.
    #[inline]
    pub fn count(&self, e: Edge) -> u32 {
        self.counts[e.dense_index(self.n)]
    }

    /// Total number of edge occurrences (with multiplicity).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Number of distinct edges present at least once.
    pub fn support_size(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// True iff every edge of `K_n` has multiplicity ≥ `lambda`.
    pub fn covers_complete(&self, lambda: u32) -> bool {
        self.counts.iter().all(|&c| c >= lambda)
    }

    /// True iff every edge of `K_n` has multiplicity exactly `lambda`
    /// (an exact `λ`-fold decomposition).
    pub fn is_exact(&self, lambda: u32) -> bool {
        self.counts.iter().all(|&c| c == lambda)
    }

    /// Edges covered more than `lambda` times, with their excess.
    pub fn overcovered(&self, lambda: u32) -> Vec<(Edge, u32)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > lambda)
            .map(|(i, &c)| (Edge::from_dense_index(i, self.n), c - lambda))
            .collect()
    }

    /// Edges covered fewer than `lambda` times, with their deficiency.
    pub fn undercovered(&self, lambda: u32) -> Vec<(Edge, u32)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < lambda)
            .map(|(i, &c)| (Edge::from_dense_index(i, self.n), lambda - c))
            .collect()
    }

    /// Iterator over `(edge, count)` pairs with positive count.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, u32)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (Edge::from_dense_index(i, self.n), c))
    }
}

impl fmt::Debug for EdgeMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalizes() {
        let e = Edge::new(5, 2);
        assert_eq!(e.endpoints(), (2, 5));
        assert_eq!(Edge::new(2, 5), e);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_loop() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(1, 7);
        assert_eq!(e.other(1), 7);
        assert_eq!(e.other(7), 1);
    }

    #[test]
    fn dense_index_roundtrip_k7() {
        let n = 7;
        let mut seen = vec![false; n * (n - 1) / 2];
        for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                let e = Edge::new(u, v);
                let i = e.dense_index(n);
                assert!(!seen[i], "index collision at {e}");
                seen[i] = true;
                assert_eq!(Edge::from_dense_index(i, n), e);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn dense_index_is_lexicographic() {
        assert_eq!(Edge::new(0, 1).dense_index(5), 0);
        assert_eq!(Edge::new(0, 4).dense_index(5), 3);
        assert_eq!(Edge::new(1, 2).dense_index(5), 4);
        assert_eq!(Edge::new(3, 4).dense_index(5), 9);
    }

    #[test]
    fn multiset_insert_remove_count() {
        let mut m = EdgeMultiset::new(6);
        let e = Edge::new(0, 3);
        assert_eq!(m.count(e), 0);
        assert_eq!(m.insert(e), 1);
        assert_eq!(m.insert(e), 2);
        assert_eq!(m.remove(e), 1);
        assert_eq!(m.count(e), 1);
        assert_eq!(m.total(), 1);
        assert_eq!(m.support_size(), 1);
    }

    #[test]
    #[should_panic(expected = "removing absent edge")]
    fn multiset_remove_absent_panics() {
        let mut m = EdgeMultiset::new(4);
        m.remove(Edge::new(0, 1));
    }

    #[test]
    fn multiset_cover_predicates() {
        let n = 4;
        let mut m = EdgeMultiset::new(n);
        for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                m.insert(Edge::new(u, v));
            }
        }
        assert!(m.covers_complete(1));
        assert!(m.is_exact(1));
        m.insert(Edge::new(0, 1));
        assert!(m.covers_complete(1));
        assert!(!m.is_exact(1));
        assert_eq!(m.overcovered(1), vec![(Edge::new(0, 1), 1)]);
        assert_eq!(m.undercovered(2).len(), 5);
    }

    #[test]
    fn multiset_tiny_vertex_sets() {
        let m0 = EdgeMultiset::new(0);
        let m1 = EdgeMultiset::new(1);
        assert!(m0.covers_complete(1));
        assert!(m1.covers_complete(1));
        assert_eq!(m0.total(), 0);
        assert_eq!(m1.support_size(), 0);
    }
}
