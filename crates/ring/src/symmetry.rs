//! Dihedral symmetries of the ring and their action on tiles.
//!
//! The ring `C_n` has automorphism group `D_n` (rotations + reflections);
//! the DRC structure is invariant under it, so tiles, coverings and
//! solver searches can all be normalized modulo `D_n`. Used for
//! deduplication (the constructions' identified quad pairs), canonical
//! fingerprints in tests, and symmetry-breaking in exhaustive search.

use crate::{Ring, Tile};

/// Rotates a tile by `r` positions (vertex `v ↦ v + r mod n`).
pub fn rotate_tile(ring: Ring, tile: &Tile, r: u32) -> Tile {
    Tile::from_vertices(
        ring,
        tile.vertices()
            .iter()
            .map(|&v| ring.add(v, r % ring.n()))
            .collect(),
    )
}

/// Reflects a tile through vertex 0 (vertex `v ↦ −v mod n`).
pub fn reflect_tile(ring: Ring, tile: &Tile) -> Tile {
    Tile::from_vertices(
        ring,
        tile.vertices().iter().map(|&v| ring.sub(0, v)).collect(),
    )
}

/// The canonical representative of the tile's dihedral orbit: the
/// lexicographically smallest vertex list over all `2n` symmetries.
pub fn canonical_tile(ring: Ring, tile: &Tile) -> Tile {
    let mut best = tile.clone();
    for reflected in [false, true] {
        let base = if reflected {
            reflect_tile(ring, tile)
        } else {
            tile.clone()
        };
        for r in 0..ring.n() {
            let cand = rotate_tile(ring, &base, r);
            if cand.vertices() < best.vertices() {
                best = cand;
            }
        }
    }
    best
}

/// Size of the tile's orbit under the dihedral group (divides `2n`).
pub fn orbit_size(ring: Ring, tile: &Tile) -> usize {
    let mut orbit = std::collections::BTreeSet::new();
    for reflected in [false, true] {
        let base = if reflected {
            reflect_tile(ring, tile)
        } else {
            tile.clone()
        };
        for r in 0..ring.n() {
            orbit.insert(rotate_tile(ring, &base, r));
        }
    }
    orbit.len()
}

/// Rotates every tile of a covering — coverings of `K_n` map to coverings
/// of `K_n` (the whole problem is `D_n`-invariant).
pub fn rotate_tiles(ring: Ring, tiles: &[Tile], r: u32) -> Vec<Tile> {
    tiles.iter().map(|t| rotate_tile(ring, t, r)).collect()
}

/// Groups tiles into dihedral orbit classes; returns (canonical form,
/// multiplicity) pairs sorted by canonical form.
pub fn orbit_census(ring: Ring, tiles: &[Tile]) -> Vec<(Tile, usize)> {
    let mut counts: std::collections::BTreeMap<Tile, usize> = Default::default();
    for t in tiles {
        *counts.entry(canonical_tile(ring, t)).or_default() += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_preserves_gap_multiset() {
        let ring = Ring::new(11);
        let t = Tile::from_gaps(ring, 2, &[3, 4, 4]);
        for r in 0..11 {
            let rt = rotate_tile(ring, &t, r);
            let mut a = t.gaps(ring);
            let mut b = rt.gaps(ring);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "r={r}");
        }
    }

    #[test]
    fn reflection_is_involution() {
        let ring = Ring::new(9);
        let t = Tile::from_vertices(ring, vec![1, 4, 6, 7]);
        assert_eq!(reflect_tile(ring, &reflect_tile(ring, &t)), t);
    }

    #[test]
    fn canonical_is_orbit_invariant() {
        let ring = Ring::new(10);
        let t = Tile::from_vertices(ring, vec![0, 3, 5, 9]);
        let canon = canonical_tile(ring, &t);
        for r in 0..10 {
            let rt = rotate_tile(ring, &t, r);
            assert_eq!(canonical_tile(ring, &rt), canon);
            let rf = reflect_tile(ring, &rt);
            assert_eq!(canonical_tile(ring, &rf), canon);
        }
        // Canonical starts at vertex 0 by minimality.
        assert_eq!(canon.vertices()[0], 0);
    }

    #[test]
    fn orbit_sizes_divide_group_order() {
        let ring = Ring::new(12);
        for t in [
            Tile::from_vertices(ring, vec![0, 4, 8]),    // high symmetry
            Tile::from_vertices(ring, vec![0, 1, 2]),    // reflective symmetry
            Tile::from_vertices(ring, vec![0, 1, 3, 7]), // low symmetry
            Tile::from_vertices(ring, vec![0, 3, 6, 9]), // square
        ] {
            let s = orbit_size(ring, &t);
            assert_eq!(24 % s, 0, "orbit {s} must divide 2n = 24 for {t:?}");
        }
        // The equilateral triangle on C_12 has orbit exactly n/3 * ... = 4.
        let tri = Tile::from_vertices(ring, vec![0, 4, 8]);
        assert_eq!(orbit_size(ring, &tri), 4);
        // The square {0,3,6,9}: orbit 3.
        let sq = Tile::from_vertices(ring, vec![0, 3, 6, 9]);
        assert_eq!(orbit_size(ring, &sq), 3);
    }

    #[test]
    fn census_counts_orbits() {
        let ring = Ring::new(8);
        let tiles = vec![
            Tile::from_vertices(ring, vec![0, 1, 2]),
            Tile::from_vertices(ring, vec![3, 4, 5]), // same orbit
            Tile::from_vertices(ring, vec![0, 2, 4]), // different orbit
        ];
        let census = orbit_census(ring, &tiles);
        assert_eq!(census.len(), 2);
        let total: usize = census.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 3);
    }
}
