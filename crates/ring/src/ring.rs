//! The ring `C_n` and its modular arithmetic.

use cyclecover_graph::{builders, Graph, Vertex};
use std::fmt;

/// The physical ring topology `C_n`.
///
/// A lightweight value type: it only stores `n` and provides the modular
/// geometry every other type needs. Vertices are `0..n`; ring edge `e_i`
/// joins `i` and `i+1 mod n` and is identified by index `i`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ring {
    n: u32,
}

impl Ring {
    /// The largest ring size a parsed document may name: five times the
    /// largest ring the repository tabulates (n = 200), and far below
    /// sizes whose per-ring tables no longer fit in memory.
    pub const MAX_N: u32 = 1024;

    /// Ring on `n ≥ 3` vertices.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn new(n: u32) -> Self {
        assert!(n >= 3, "ring C_n needs n >= 3, got {n}");
        Ring { n }
    }

    /// The ring a document asks for: `n` must lie in `3..=`[`Ring::MAX_N`],
    /// and the error names that range. Every parser of a ring size goes
    /// through here, so an oversized ring is a parse error instead of an
    /// allocation the process cannot survive.
    pub fn try_new(n: u64) -> Result<Ring, String> {
        if (3..=u64::from(Ring::MAX_N)).contains(&n) {
            Ok(Ring { n: n as u32 })
        } else {
            Err(format!(
                "ring size n = {n} out of range 3..={}",
                Ring::MAX_N
            ))
        }
    }

    /// Number of vertices (= number of ring edges).
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `x mod n` for possibly-large `x`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u32 {
        (x % self.n as u64) as u32
    }

    /// `a + b mod n` for vertices `a, b < n`.
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        let s = a + b;
        if s >= self.n {
            s - self.n
        } else {
            s
        }
    }

    /// `a − b mod n` for vertices `a, b < n`.
    #[inline]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        if a >= b {
            a - b
        } else {
            a + self.n - b
        }
    }

    /// Clockwise gap from `a` to `b`: the length of the arc `a → b` in the
    /// direction of increasing vertex numbers. Zero iff `a == b`.
    #[inline]
    pub fn cw_gap(&self, a: u32, b: u32) -> u32 {
        self.sub(b, a)
    }

    /// Ring distance `min(cw_gap, ccw_gap)` — the length of a shortest path
    /// between `a` and `b` along the ring.
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        let d = self.cw_gap(a, b);
        d.min(self.n - d)
    }

    /// Maximum possible distance, `⌊n/2⌋` (the *diameter*).
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.n / 2
    }

    /// Whether distance class `d` is a diameter class with non-unique
    /// shortest paths (`n` even and `d = n/2`).
    #[inline]
    pub fn is_diameter_class(&self, d: u32) -> bool {
        self.n.is_multiple_of(2) && d == self.n / 2
    }

    /// Number of distinct chords (unordered vertex pairs) at distance `d`.
    ///
    /// `n` per class except the diameter class of an even ring, which has
    /// `n/2`.
    pub fn chords_in_class(&self, d: u32) -> u32 {
        assert!(
            d >= 1 && d <= self.diameter(),
            "distance class {d} out of range"
        );
        if self.is_diameter_class(d) {
            self.n / 2
        } else {
            self.n
        }
    }

    /// Sum of ring distances over all unordered vertex pairs of `K_n`.
    ///
    /// This is the total shortest-path load of the all-to-all instance and
    /// the numerator of the paper's capacity lower bound:
    /// `ρ(n) ≥ ⌈Σ dist / n⌉` (each DRC cycle uses ≤ n ring edges).
    pub fn total_pair_distance(&self) -> u64 {
        let n = self.n as u64;
        if n % 2 == 1 {
            // n = 2p+1: each class d ∈ 1..=p has n chords: n·p(p+1)/2.
            let p = (n - 1) / 2;
            n * p * (p + 1) / 2
        } else {
            // n = 2p: classes 1..p−1 have n chords, the diameter class has p.
            let p = n / 2;
            n * p * (p - 1) / 2 + p * p
        }
    }

    /// The ring as an explicit [`Graph`] (`C_n`).
    pub fn to_graph(&self) -> Graph {
        builders::cycle(self.n as usize)
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> {
        0..self.n
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C_{}", self.n)
    }
}

impl fmt::Display for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C_{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_accepts_exactly_the_documented_range() {
        assert_eq!(Ring::try_new(3).unwrap().n(), 3);
        assert_eq!(Ring::try_new(1024).unwrap().n(), Ring::MAX_N);
        for bad in [0, 2, 1025, 4_000_000_000, u64::MAX] {
            let err = Ring::try_new(bad).unwrap_err();
            assert!(err.contains("3..=1024"), "{bad}: {err}");
        }
    }

    #[test]
    fn modular_helpers() {
        let r = Ring::new(7);
        assert_eq!(r.add(5, 4), 2);
        assert_eq!(r.sub(2, 5), 4);
        assert_eq!(r.cw_gap(5, 2), 4);
        assert_eq!(r.cw_gap(2, 5), 3);
        assert_eq!(r.reduce(23), 2);
    }

    #[test]
    fn distances_odd_even() {
        let r7 = Ring::new(7);
        assert_eq!(r7.distance(0, 3), 3);
        assert_eq!(r7.distance(0, 4), 3);
        assert_eq!(r7.diameter(), 3);
        assert!(!r7.is_diameter_class(3));

        let r8 = Ring::new(8);
        assert_eq!(r8.distance(1, 5), 4);
        assert!(r8.is_diameter_class(4));
        assert_eq!(r8.chords_in_class(4), 4);
        assert_eq!(r8.chords_in_class(3), 8);
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn too_small() {
        let _ = Ring::new(2);
    }

    #[test]
    fn total_pair_distance_matches_bruteforce() {
        for n in 3u32..=40 {
            let r = Ring::new(n);
            let mut brute = 0u64;
            for u in 0..n {
                for v in (u + 1)..n {
                    brute += r.distance(u, v) as u64;
                }
            }
            assert_eq!(r.total_pair_distance(), brute, "n={n}");
        }
    }

    #[test]
    fn ring_graph_shape() {
        let g = Ring::new(9).to_graph();
        assert_eq!(g.vertex_count(), 9);
        assert_eq!(g.edge_count(), 9);
    }
}
