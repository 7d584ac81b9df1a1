//! Directed clockwise arcs on the ring.

use crate::Ring;
use std::fmt;

/// A directed arc of the ring: starting at vertex `start` and walking
/// `len ≥ 1` ring edges clockwise (in the direction of increasing vertex
/// numbers), ending at `start + len mod n`.
///
/// An arc *covers* the ring edges `e_start, e_{start+1}, …, e_{start+len−1}`
/// (indices mod `n`). Arcs are the unit of capacity allocation: a routed
/// request occupies exactly the edges of its arc on one wavelength.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingArc {
    start: u32,
    len: u32,
}

impl RingArc {
    /// Arc from `start` spanning `len` clockwise ring edges.
    ///
    /// # Panics
    /// Panics if `len == 0` or `len > n` or `start ≥ n`.
    pub fn new(ring: Ring, start: u32, len: u32) -> Self {
        assert!(start < ring.n(), "arc start {start} out of range");
        assert!(
            len >= 1 && len <= ring.n(),
            "arc length {len} out of range 1..={}",
            ring.n()
        );
        RingArc { start, len }
    }

    /// Starting vertex.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Number of ring edges covered.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Arcs always cover ≥ 1 edge.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ending vertex `start + len mod n`.
    #[inline]
    pub fn end(&self, ring: Ring) -> u32 {
        ring.add(self.start, self.len % ring.n())
    }

    /// Iterator over covered ring-edge indices.
    pub fn edges(&self, ring: Ring) -> impl Iterator<Item = u32> {
        let n = ring.n();
        let start = self.start;
        (0..self.len).map(move |i| {
            let e = start + i;
            if e >= n {
                e - n
            } else {
                e
            }
        })
    }

    /// Whether this arc covers ring edge `e`.
    pub fn covers_edge(&self, ring: Ring, e: u32) -> bool {
        ring.sub(e, self.start) < self.len
    }

    /// Whether two arcs share a ring edge.
    pub fn overlaps(&self, ring: Ring, other: &RingArc) -> bool {
        // The cheaper direction: iterate the shorter arc.
        let (a, b) = if self.len <= other.len {
            (self, other)
        } else {
            (other, self)
        };
        a.edges(ring).any(|e| b.covers_edge(ring, e))
    }

    /// Vertex sequence along the arc, endpoints included (`len + 1` entries).
    pub fn walk(&self, ring: Ring) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len as usize + 1);
        let mut v = self.start;
        out.push(v);
        for _ in 0..self.len {
            v = ring.add(v, 1);
            out.push(v);
        }
        out
    }

    /// The complementary arc: from this arc's end, clockwise back to its
    /// start, covering exactly the ring edges this arc does not.
    pub fn complement(&self, ring: Ring) -> RingArc {
        assert!(self.len < ring.n(), "full-ring arc has an empty complement");
        RingArc {
            start: self.end(ring),
            len: ring.n() - self.len,
        }
    }
}

impl fmt::Debug for RingArc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Arc({}→+{})", self.start, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> Ring {
        Ring::new(n)
    }

    #[test]
    fn arc_edges_wrap() {
        let a = RingArc::new(r(6), 4, 3);
        let es: Vec<u32> = a.edges(r(6)).collect();
        assert_eq!(es, vec![4, 5, 0]);
        assert_eq!(a.end(r(6)), 1);
        assert_eq!(a.walk(r(6)), vec![4, 5, 0, 1]);
    }

    #[test]
    fn covers_edge_matches_iteration() {
        let ring = r(10);
        for start in 0..10 {
            for len in 1..=10 {
                let a = RingArc::new(ring, start, len);
                let covered: Vec<u32> = a.edges(ring).collect();
                for e in 0..10 {
                    assert_eq!(
                        a.covers_edge(ring, e),
                        covered.contains(&e),
                        "{a:?} edge {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_detection() {
        let ring = r(8);
        let a = RingArc::new(ring, 0, 3); // edges 0,1,2
        let b = RingArc::new(ring, 3, 2); // edges 3,4
        let c = RingArc::new(ring, 2, 2); // edges 2,3
        assert!(!a.overlaps(ring, &b));
        assert!(a.overlaps(ring, &c));
        assert!(b.overlaps(ring, &c));
        assert!(a.overlaps(ring, &a));
    }

    #[test]
    fn complement_partitions_ring() {
        let ring = r(9);
        let a = RingArc::new(ring, 7, 4);
        let c = a.complement(ring);
        assert_eq!(c.start(), 2);
        assert_eq!(c.len(), 5);
        assert!(!a.overlaps(ring, &c));
        let mut all: Vec<u32> = a.edges(ring).chain(c.edges(ring)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_length_rejected() {
        let _ = RingArc::new(r(5), 0, 0);
    }

    #[test]
    fn full_ring_arc() {
        let ring = r(5);
        let a = RingArc::new(ring, 2, 5);
        assert_eq!(a.edges(ring).count(), 5);
        assert_eq!(a.end(ring), 2);
    }
}
