//! Winding tiles: the canonical geometry of DRC-routable cycles.

use crate::{Chord, Ring, RingArc};
use cyclecover_graph::CycleSubgraph;
use std::fmt;

/// A *winding tile*: a set `S` of `k ≥ 3` ring vertices, interpreted as the
/// cycle that visits the vertices of `S` in ring order.
///
/// Its *chords* are the ring-consecutive pairs of `S` and its *arcs* are the
/// gaps between consecutive vertices; the arcs partition the ring edges
/// (they "wind once"), so routing each chord along its gap arc is always
/// edge-disjoint: **every tile is a DRC-routable cycle**, and by the winding
/// lemma (see `routing`), every DRC-routable cycle is a tile.
///
/// Stored as the sorted vertex list; the gap sequence `g_i = v_{i+1} − v_i`
/// (cyclically, mod `n`) always sums to exactly `n`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    verts: Vec<u32>,
}

impl Tile {
    /// Builds a tile from a vertex set (any order; sorted internally).
    ///
    /// # Panics
    /// Panics if fewer than 3 vertices, repeats, or out of range.
    pub fn from_vertices(ring: Ring, mut verts: Vec<u32>) -> Self {
        assert!(verts.len() >= 3, "tile needs >= 3 vertices");
        assert!(
            verts.len() <= ring.n() as usize,
            "more vertices than ring positions"
        );
        verts.sort_unstable();
        assert!(
            verts.windows(2).all(|w| w[0] != w[1]),
            "tile has repeated vertices: {verts:?}"
        );
        assert!(
            *verts.last().unwrap() < ring.n(),
            "tile vertex out of range"
        );
        Tile { verts }
    }

    /// Builds a tile from a start vertex and a clockwise gap sequence.
    ///
    /// `from_gaps(ring, s, [g1, g2, g3])` is the tile
    /// `{s, s+g1, s+g1+g2}` — the gaps must be ≥ 1 and sum to exactly `n`
    /// (wind once).
    ///
    /// # Panics
    /// Panics if any gap is 0 or the gaps don't sum to `n`.
    pub fn from_gaps(ring: Ring, start: u32, gaps: &[u32]) -> Self {
        assert!(gaps.len() >= 3, "tile needs >= 3 gaps");
        assert!(gaps.iter().all(|&g| g >= 1), "gaps must be >= 1: {gaps:?}");
        let total: u64 = gaps.iter().map(|&g| g as u64).sum();
        assert_eq!(
            total,
            ring.n() as u64,
            "gaps {gaps:?} must sum to n={} (wind once)",
            ring.n()
        );
        let mut verts = Vec::with_capacity(gaps.len());
        let mut v = start % ring.n();
        for &g in gaps {
            verts.push(v);
            v = ring.add(v, g);
        }
        Tile::from_vertices(ring, verts)
    }

    /// Number of vertices (= chords = arcs).
    #[inline]
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Tiles always have ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Vertices in increasing ring order.
    #[inline]
    pub fn vertices(&self) -> &[u32] {
        &self.verts
    }

    /// Clockwise gap sequence starting at the smallest vertex; sums to `n`.
    pub fn gaps(&self, ring: Ring) -> Vec<u32> {
        let k = self.verts.len();
        (0..k)
            .map(|i| ring.cw_gap(self.verts[i], self.verts[(i + 1) % k]))
            .collect()
    }

    /// The `k` chords (ring-consecutive pairs).
    pub fn chords(&self, ring: Ring) -> Vec<Chord> {
        let k = self.verts.len();
        (0..k)
            .map(|i| Chord::new(ring, self.verts[i], self.verts[(i + 1) % k]))
            .collect()
    }

    /// The chords as raw `(u, v)` endpoint pairs with `u < v`, without
    /// allocating or constructing [`Chord`] values — the cheap iterator the
    /// solver uses when precomputing per-tile metadata. Pairs come in the
    /// same order as [`Tile::chords`].
    pub fn chord_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let k = self.verts.len();
        (0..k).map(move |i| {
            let a = self.verts[i];
            let b = self.verts[(i + 1) % k];
            (a.min(b), a.max(b))
        })
    }

    /// The `k` routing arcs: `arcs()[i]` routes `chords()[i]` clockwise from
    /// `vertices()[i]`. Together they cover every ring edge exactly once.
    pub fn arcs(&self, ring: Ring) -> Vec<RingArc> {
        let k = self.verts.len();
        (0..k)
            .map(|i| {
                RingArc::new(
                    ring,
                    self.verts[i],
                    ring.cw_gap(self.verts[i], self.verts[(i + 1) % k]),
                )
            })
            .collect()
    }

    /// The tile as an ordered logical cycle (`I_k` of the paper).
    pub fn to_cycle(&self) -> CycleSubgraph {
        CycleSubgraph::new(self.verts.clone())
    }

    /// Sum of the *shortest-path* lengths of the tile's chords. Equals `n`
    /// iff every chord's gap arc is a shortest path (always true when every
    /// gap is ≤ ⌊n/2⌋); in general the tile "wastes" `n − shortest_load`
    /// capacity.
    pub fn shortest_load(&self, ring: Ring) -> u32 {
        self.chords(ring).iter().map(|c| c.distance(ring)).sum()
    }

    /// Largest gap (longest arc any chord is routed over).
    pub fn max_gap(&self, ring: Ring) -> u32 {
        self.gaps(ring).into_iter().max().expect("non-empty")
    }
}

impl fmt::Debug for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tile{:?}", self.verts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_sum_to_n_and_roundtrip() {
        let ring = Ring::new(11);
        let t = Tile::from_vertices(ring, vec![9, 2, 5]);
        assert_eq!(t.vertices(), &[2, 5, 9]);
        assert_eq!(t.gaps(ring), vec![3, 4, 4]);
        let t2 = Tile::from_gaps(ring, 2, &[3, 4, 4]);
        assert_eq!(t, t2);
        // from_gaps at a rotated start yields the same tile.
        let t3 = Tile::from_gaps(ring, 5, &[4, 4, 3]);
        assert_eq!(t, t3);
    }

    #[test]
    fn arcs_tile_the_ring() {
        let ring = Ring::new(10);
        let t = Tile::from_gaps(ring, 7, &[2, 3, 1, 4]);
        let arcs = t.arcs(ring);
        let mut covered: Vec<u32> = arcs.iter().flat_map(|a| a.edges(ring)).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chords_match_cycle_edges() {
        let ring = Ring::new(8);
        let t = Tile::from_vertices(ring, vec![1, 4, 6, 7]);
        let cyc = t.to_cycle();
        let mut from_tile: Vec<_> = t.chords(ring).iter().map(|c| c.to_edge()).collect();
        let mut from_cycle: Vec<_> = cyc.edges().collect();
        from_tile.sort_unstable();
        from_cycle.sort_unstable();
        assert_eq!(from_tile, from_cycle);
    }

    #[test]
    fn chord_pairs_match_chords() {
        let ring = Ring::new(11);
        for verts in [vec![0, 4, 7], vec![1, 2, 8, 10], vec![0, 3, 5, 6, 9]] {
            let t = Tile::from_vertices(ring, verts);
            let from_chords: Vec<(u32, u32)> =
                t.chords(ring).iter().map(|c| (c.u(), c.v())).collect();
            let from_pairs: Vec<(u32, u32)> = t.chord_pairs().collect();
            assert_eq!(from_chords, from_pairs);
        }
    }

    #[test]
    fn shortest_load_detects_long_routing() {
        let ring = Ring::new(10);
        // Gap 6 routes a distance-4 chord the long way: load 4+... gaps 6,2,2
        // route chords of distances 4,2,2 → shortest_load 8 < 10.
        let t = Tile::from_gaps(ring, 0, &[6, 2, 2]);
        assert_eq!(t.shortest_load(ring), 8);
        assert_eq!(t.max_gap(ring), 6);
        // All-short tile: load = n.
        let t2 = Tile::from_gaps(ring, 0, &[3, 3, 4]);
        assert_eq!(t2.shortest_load(ring), 10);
    }

    #[test]
    #[should_panic(expected = "sum to n")]
    fn rejects_non_winding_gaps() {
        let _ = Tile::from_gaps(Ring::new(9), 0, &[2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn rejects_duplicate_vertices() {
        let _ = Tile::from_vertices(Ring::new(9), vec![1, 1, 3]);
    }
}
