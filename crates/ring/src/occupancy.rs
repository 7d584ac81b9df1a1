//! Ring-edge occupancy sets: the hot inner-loop structure of routing checks
//! and solvers.

use crate::{Ring, RingArc};

/// A set of occupied ring edges with O(len) arc placement and removal.
///
/// Two representations, chosen at construction (per the perf guide: avoid
/// heap traffic on the hot path):
/// * `n ≤ 128` — a single `u128` bitmask (all solver workloads live here);
/// * larger rings — a `Vec<u64>` bitset.
#[derive(Clone, PartialEq, Eq)]
pub enum ArcOccupancy {
    /// Bitmask fast path for `n ≤ 128`.
    Small {
        /// Occupied-edge bitmask; bit `i` = ring edge `e_i`.
        mask: u128,
        /// Ring size.
        n: u32,
    },
    /// Bitset for large rings.
    Large {
        /// 64-bit words of the occupied-edge bitset.
        words: Vec<u64>,
        /// Ring size.
        n: u32,
    },
}

impl ArcOccupancy {
    /// Empty occupancy over the edges of `ring`.
    pub fn new(ring: Ring) -> Self {
        let n = ring.n();
        if n <= 128 {
            ArcOccupancy::Small { mask: 0, n }
        } else {
            ArcOccupancy::Large {
                words: vec![0; (n as usize).div_ceil(64)],
                n,
            }
        }
    }

    /// Ring size.
    #[inline]
    pub fn n(&self) -> u32 {
        match self {
            ArcOccupancy::Small { n, .. } | ArcOccupancy::Large { n, .. } => *n,
        }
    }

    /// Number of occupied edges.
    pub fn occupied(&self) -> u32 {
        match self {
            ArcOccupancy::Small { mask, .. } => mask.count_ones(),
            ArcOccupancy::Large { words, .. } => words.iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// Whether ring edge `e` is occupied.
    #[inline]
    pub fn is_occupied(&self, e: u32) -> bool {
        match self {
            ArcOccupancy::Small { mask, .. } => mask >> e & 1 == 1,
            ArcOccupancy::Large { words, .. } => words[e as usize / 64] >> (e % 64) & 1 == 1,
        }
    }

    /// Bitmask of an arc on a small ring.
    fn small_arc_mask(n: u32, arc: &RingArc) -> u128 {
        let len = arc.len();
        let start = arc.start();
        if len == n {
            if n == 128 {
                return u128::MAX;
            }
            return (1u128 << n) - 1;
        }
        let base = (1u128 << len) - 1; // len < n <= 128
        let rot = base << start;
        let wrap = if start + len > n {
            base >> (n - start)
        } else {
            0
        };
        (rot | wrap)
            & if n == 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            }
    }

    /// Attempts to place `arc`; returns `false` (leaving the set unchanged)
    /// if any of its edges is already occupied.
    pub fn try_place(&mut self, ring: Ring, arc: &RingArc) -> bool {
        match self {
            ArcOccupancy::Small { mask, n } => {
                let am = Self::small_arc_mask(*n, arc);
                if *mask & am != 0 {
                    return false;
                }
                *mask |= am;
                true
            }
            ArcOccupancy::Large { words, .. } => {
                if arc
                    .edges(ring)
                    .any(|e| words[e as usize / 64] >> (e % 64) & 1 == 1)
                {
                    return false;
                }
                for e in arc.edges(ring) {
                    words[e as usize / 64] |= 1 << (e % 64);
                }
                true
            }
        }
    }

    /// Removes a previously placed arc.
    ///
    /// # Panics
    /// Debug-asserts that the arc's edges were occupied.
    pub fn remove(&mut self, ring: Ring, arc: &RingArc) {
        match self {
            ArcOccupancy::Small { mask, n } => {
                let am = Self::small_arc_mask(*n, arc);
                debug_assert_eq!(*mask & am, am, "removing unplaced arc {arc:?}");
                *mask &= !am;
            }
            ArcOccupancy::Large { words, .. } => {
                for e in arc.edges(ring) {
                    debug_assert!(
                        words[e as usize / 64] >> (e % 64) & 1 == 1,
                        "removing unplaced arc {arc:?}"
                    );
                    words[e as usize / 64] &= !(1 << (e % 64));
                }
            }
        }
    }

    /// Clears all occupancy.
    pub fn clear(&mut self) {
        match self {
            ArcOccupancy::Small { mask, .. } => *mask = 0,
            ArcOccupancy::Large { words, .. } => words.iter_mut().for_each(|w| *w = 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_place_remove_roundtrip() {
        let ring = Ring::new(10);
        let mut occ = ArcOccupancy::new(ring);
        let a = RingArc::new(ring, 8, 4); // edges 8,9,0,1
        assert!(occ.try_place(ring, &a));
        assert_eq!(occ.occupied(), 4);
        assert!(occ.is_occupied(9) && occ.is_occupied(0));
        assert!(!occ.is_occupied(2));
        // Overlapping placement fails atomically.
        let b = RingArc::new(ring, 1, 2);
        assert!(!occ.try_place(ring, &b));
        assert_eq!(occ.occupied(), 4);
        // Disjoint placement succeeds.
        let c = RingArc::new(ring, 2, 6);
        assert!(occ.try_place(ring, &c));
        assert_eq!(occ.occupied(), 10);
        occ.remove(ring, &a);
        assert_eq!(occ.occupied(), 6);
        assert!(!occ.is_occupied(8));
    }

    #[test]
    fn large_ring_matches_small_semantics() {
        // Same scenario on n=200 (Vec path) and n=100 (mask path), shifted.
        let small = Ring::new(100);
        let large = Ring::new(200);
        let mut so = ArcOccupancy::new(small);
        let mut lo = ArcOccupancy::new(large);
        for (ring, occ) in [(small, &mut so), (large, &mut lo)] {
            let a = RingArc::new(ring, ring.n() - 3, 7);
            assert!(occ.try_place(ring, &a));
            assert!(!occ.try_place(ring, &RingArc::new(ring, 0, 1)));
            assert_eq!(occ.occupied(), 7);
            occ.remove(ring, &a);
            assert_eq!(occ.occupied(), 0);
        }
    }

    #[test]
    fn full_ring_masks() {
        for n in [3u32, 64, 127, 128] {
            let ring = Ring::new(n);
            let mut occ = ArcOccupancy::new(ring);
            let a = RingArc::new(ring, 1 % n, n);
            assert!(occ.try_place(ring, &a));
            assert_eq!(occ.occupied(), n);
            for e in 0..n {
                assert!(occ.is_occupied(e));
            }
            occ.clear();
            assert_eq!(occ.occupied(), 0);
        }
    }

    #[test]
    fn boundary_128_vs_129() {
        assert!(matches!(
            ArcOccupancy::new(Ring::new(128)),
            ArcOccupancy::Small { .. }
        ));
        assert!(matches!(
            ArcOccupancy::new(Ring::new(129)),
            ArcOccupancy::Large { .. }
        ));
    }
}
