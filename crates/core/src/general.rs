//! Covering *general* logical graphs over a ring (the paper's "more
//! general logical graphs" extension).
//!
//! When the instance `I` is not the complete graph, the securization
//! problem becomes: cover the edges of `I` by DRC-routable cycles,
//! minimizing the cycle count. Two wrinkles appear:
//!
//! * an edge of `I` may not lie on any cycle *within* `I` (e.g. a bridge),
//!   so covering cycles are allowed to use *phantom* requests — chords not
//!   in `I` whose capacity is reserved purely to close the protection
//!   cycle. Phantom chords are wasted capacity, reported by
//!   [`GeneralCover::phantom_edges`].
//! * optimality is no longer given by a formula; we provide a greedy
//!   heuristic ([`greedy_cover`]) plus exact small-`n` search through
//!   `cyclecover-solver` (a request's `requests` list on the wire).
//!
//! The heuristic is the classical set-cover greedy over the winding-tile
//! universe, scoring tiles by *instance* edges newly covered and breaking
//! ties toward fewer phantom chords.

use crate::DrcCovering;
use cyclecover_graph::{Edge, Graph};
use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::TileUniverse;

/// Result of covering a general instance.
pub struct GeneralCover {
    /// The covering itself (cycles may include phantom chords).
    pub covering: DrcCovering,
    /// Chords used by cycles that are not edges of the instance.
    pub phantom_edges: Vec<Edge>,
}

/// Greedily covers the edges of the instance graph `inst` (vertices must
/// be `0..n` of the ring) by DRC cycles of length ≤ `max_len`.
///
/// Returns `None` if `inst` has no edges (nothing to cover — an empty
/// covering would be ambiguous, so the degenerate case is explicit).
///
/// # Panics
/// Panics if the instance has more vertices than the ring.
pub fn greedy_cover(ring: Ring, inst: &Graph, max_len: usize) -> Option<GeneralCover> {
    assert!(
        inst.vertex_count() <= ring.n() as usize,
        "instance has {} vertices but ring only {}",
        inst.vertex_count(),
        ring.n()
    );
    if inst.edge_count() == 0 {
        return None;
    }
    let n = ring.n() as usize;
    let universe = TileUniverse::new(ring, max_len);

    let mut want = vec![false; n * (n - 1) / 2];
    let mut remaining = 0usize;
    for e in inst.edges() {
        let i = e.dense_index(n);
        if !want[i] {
            want[i] = true;
            remaining += 1;
        }
    }

    // Precompute tile chord indices.
    let tile_chords: Vec<Vec<u32>> = universe
        .tiles()
        .iter()
        .map(|t| {
            t.chords(ring)
                .iter()
                .map(|c| c.to_edge().dense_index(n) as u32)
                .collect()
        })
        .collect();

    let mut covered = vec![false; n * (n - 1) / 2];
    let mut chosen: Vec<Tile> = Vec::new();
    while remaining > 0 {
        let mut best: Option<(usize, usize, usize)> = None; // (idx, gain, phantom)
        for (i, chords) in tile_chords.iter().enumerate() {
            let mut gain = 0;
            let mut phantom = 0;
            for &c in chords {
                let c = c as usize;
                if want[c] && !covered[c] {
                    gain += 1;
                } else if !want[c] {
                    phantom += 1;
                }
            }
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, bg, bp)) => gain > bg || (gain == bg && phantom < bp),
            };
            if better {
                best = Some((i, gain, phantom));
            }
        }
        let (i, gain, _) = best.expect("an uncovered instance edge always lies in a triangle");
        for &c in &tile_chords[i] {
            covered[c as usize] = true;
        }
        remaining -= gain;
        chosen.push(universe.tiles()[i].clone());
    }

    let mut phantom_edges = Vec::new();
    let mut seen = vec![false; n * (n - 1) / 2];
    for t in &chosen {
        for c in t.chords(ring) {
            let i = c.to_edge().dense_index(n);
            if !want[i] && !seen[i] {
                seen[i] = true;
                phantom_edges.push(c.to_edge());
            }
        }
    }
    Some(GeneralCover {
        covering: DrcCovering::from_tiles(ring, chosen),
        phantom_edges,
    })
}

/// Checks that `cover` covers every edge of `inst`.
pub fn covers_instance(cover: &DrcCovering, inst: &Graph) -> bool {
    let m = cover.coverage();
    inst.edges().iter().all(|e| m.count(*e) >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_graph::builders;

    #[test]
    fn covers_complete_instance_like_kn() {
        let ring = Ring::new(9);
        let inst = builders::complete(9);
        let got = greedy_cover(ring, &inst, 4).expect("non-empty");
        assert!(covers_instance(&got.covering, &inst));
        assert!(got.phantom_edges.is_empty(), "K_n needs no phantom chords");
        // Greedy is within 2x of the optimum on K_9.
        assert!(got.covering.len() as u64 <= 2 * crate::rho(9));
    }

    #[test]
    fn covers_ring_instance_cheaply() {
        // Instance = the ring itself: n requests, each tile covers <= its
        // length of them; the single Hamiltonian tile covers all.
        let ring = Ring::new(8);
        let inst = builders::cycle(8);
        let got = greedy_cover(ring, &inst, 8).expect("non-empty");
        assert!(covers_instance(&got.covering, &inst));
        assert_eq!(got.covering.len(), 1, "C_n is itself one DRC cycle");
    }

    #[test]
    fn star_instance_needs_phantoms() {
        // A star at vertex 0 has no cycles: phantom chords are required.
        let mut inst = Graph::new(6);
        for v in 1..6 {
            inst.add_edge(0, v);
        }
        let ring = Ring::new(6);
        let got = greedy_cover(ring, &inst, 4).expect("non-empty");
        assert!(covers_instance(&got.covering, &inst));
        assert!(
            !got.phantom_edges.is_empty(),
            "covering a star must reserve phantom capacity"
        );
    }

    #[test]
    fn empty_instance_is_none() {
        let ring = Ring::new(5);
        let inst = Graph::new(5);
        assert!(greedy_cover(ring, &inst, 4).is_none());
    }

    #[test]
    fn random_instances_covered() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for n in [7u32, 10, 13] {
            let ring = Ring::new(n);
            let mut inst = Graph::new(n as usize);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.4) {
                        inst.add_edge(u, v);
                    }
                }
            }
            if inst.edge_count() == 0 {
                continue;
            }
            let got = greedy_cover(ring, &inst, 4).expect("non-empty");
            assert!(covers_instance(&got.covering, &inst), "n={n}");
            got.covering.validate().ok(); // validate() checks K_n coverage; not required here
        }
    }
}
