//! Ordered simple cycles — the subnetworks `I_k` of the paper.

use crate::{Edge, Vertex};
use std::fmt;

/// A simple cycle given by its vertices in cyclic order.
///
/// `CycleSubgraph([v0, v1, …, v_{k−1}])` is the cycle with edges
/// `{v0,v1}, {v1,v2}, …, {v_{k−1},v0}`. Vertices must be distinct and `k ≥ 3`.
///
/// Two `CycleSubgraph`s are equal iff they denote the same cyclic sequence up
/// to rotation and reflection; [`CycleSubgraph::canonical`] picks the unique
/// representative (smallest vertex first, smaller second vertex among the two
/// traversal directions).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CycleSubgraph {
    verts: Vec<Vertex>,
}

impl CycleSubgraph {
    /// Builds a cycle from vertices in cyclic order, canonicalizing the
    /// representation.
    ///
    /// # Panics
    /// Panics if `verts.len() < 3` or vertices repeat.
    pub fn new(verts: Vec<Vertex>) -> Self {
        assert!(
            verts.len() >= 3,
            "cycle needs >= 3 vertices, got {}",
            verts.len()
        );
        let mut sorted = verts.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "cycle has repeated vertices: {verts:?}"
        );
        let mut c = CycleSubgraph { verts };
        c.canonicalize();
        c
    }

    /// The canonical representative of this cycle (already applied by
    /// [`CycleSubgraph::new`], exposed for clarity in tests).
    pub fn canonical(&self) -> &[Vertex] {
        &self.verts
    }

    fn canonicalize(&mut self) {
        let k = self.verts.len();
        // Rotate the minimum vertex to front.
        let (min_pos, _) = self
            .verts
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
            .expect("non-empty");
        self.verts.rotate_left(min_pos);
        // Choose direction: successor must not exceed predecessor.
        if self.verts[1] > self.verts[k - 1] {
            self.verts[1..].reverse();
        }
    }

    /// Number of vertices (= number of edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Always false (cycles have ≥ 3 vertices); included for clippy's sake.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Vertices in (canonical) cyclic order.
    #[inline]
    pub fn vertices(&self) -> &[Vertex] {
        &self.verts
    }

    /// Iterator over the `k` edges of the cycle.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let k = self.verts.len();
        (0..k).map(move |i| Edge::new(self.verts[i], self.verts[(i + 1) % k]))
    }

    /// Whether `v` lies on the cycle.
    pub fn contains(&self, v: Vertex) -> bool {
        self.verts.contains(&v)
    }

    /// The two cycle-neighbors of `v`.
    ///
    /// # Panics
    /// Panics if `v` is not on the cycle.
    pub fn neighbors_of(&self, v: Vertex) -> (Vertex, Vertex) {
        let k = self.verts.len();
        let i = self
            .verts
            .iter()
            .position(|&x| x == v)
            .unwrap_or_else(|| panic!("vertex {v} not on cycle {self:?}"));
        (self.verts[(i + k - 1) % k], self.verts[(i + 1) % k])
    }

    /// Walks the cycle from `from` to `to` *not* using the edge
    /// `{from, via_neighbor}` — i.e. goes the other way around. Returns the
    /// vertex sequence including both endpoints.
    ///
    /// This is the paper's protection mechanism: when the link carrying the
    /// path of request `{from, to}` fails, traffic is rerouted "through the
    /// remaining part of the cycle".
    pub fn detour(&self, from: Vertex, to: Vertex, via_neighbor: Vertex) -> Vec<Vertex> {
        let k = self.verts.len();
        let i = self
            .verts
            .iter()
            .position(|&x| x == from)
            .expect("from on cycle");
        // Decide direction: the neighbor we must avoid.
        let fwd = self.verts[(i + 1) % k];
        let step_back = fwd == via_neighbor;
        let mut out = Vec::with_capacity(k);
        let mut pos = i;
        loop {
            out.push(self.verts[pos]);
            if self.verts[pos] == to {
                return out;
            }
            pos = if step_back {
                (pos + k - 1) % k
            } else {
                (pos + 1) % k
            };
            assert!(out.len() <= k, "detour did not reach {to}");
        }
    }
}

impl fmt::Debug for CycleSubgraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycle(")?;
        for (i, v) in self.verts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for CycleSubgraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_rotation_and_reflection_invariant() {
        let a = CycleSubgraph::new(vec![2, 5, 9, 4]);
        let b = CycleSubgraph::new(vec![9, 4, 2, 5]);
        let c = CycleSubgraph::new(vec![4, 9, 5, 2]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.vertices()[0], 2);
        assert!(a.vertices()[1] <= *a.vertices().last().unwrap());
    }

    #[test]
    fn distinct_cycles_differ() {
        // (1,3,4,2) is the paper's crossing quad on K4 — distinct from (1,2,3,4).
        let straight = CycleSubgraph::new(vec![1, 2, 3, 4]);
        let crossed = CycleSubgraph::new(vec![1, 3, 4, 2]);
        assert_ne!(straight, crossed);
    }

    #[test]
    fn edges_of_triangle() {
        let t = CycleSubgraph::new(vec![7, 1, 4]);
        let mut es: Vec<Edge> = t.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![Edge::new(1, 4), Edge::new(1, 7), Edge::new(4, 7)]);
    }

    #[test]
    #[should_panic(expected = "repeated vertices")]
    fn rejects_repeats() {
        let _ = CycleSubgraph::new(vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = ">= 3 vertices")]
    fn rejects_short() {
        let _ = CycleSubgraph::new(vec![1, 2]);
    }

    #[test]
    fn neighbors_and_detour() {
        let c = CycleSubgraph::new(vec![0, 1, 2, 3, 4]);
        let (a, b) = c.neighbors_of(0);
        assert_eq!((a.min(b), a.max(b)), (1, 4));
        // Reroute request {0,1} avoiding direct edge: 0 -> 4 -> 3 -> 2 -> 1.
        let d = c.detour(0, 1, 1);
        assert_eq!(d, vec![0, 4, 3, 2, 1]);
        // Other direction.
        let d2 = c.detour(0, 4, 4);
        assert_eq!(d2, vec![0, 1, 2, 3, 4]);
    }
}
