//! DRC routing: the exhaustive oracle and the winding-lemma fast path.
//!
//! The paper's Disjoint Routing Constraint (DRC): a covering subgraph `I_k`
//! is admissible iff its requests can be assigned pairwise edge-disjoint
//! paths on the physical ring. For a cycle `I_k = (v_0, v_1, …, v_{k−1})`
//! each request `{v_i, v_{i+1}}` has exactly two candidate paths (the two
//! arcs), so DRC feasibility is a search over `2^k` assignments —
//! implemented exactly in [`route_order`] / [`route_cycle`].
//!
//! The *winding lemma* (derived for this reproduction) collapses the
//! search: a cycle is DRC-routable iff its cyclic vertex order agrees with
//! the ring order in one of the two directions, i.e. iff the sum of
//! clockwise gaps along the cycle is `n` (winds once clockwise) or
//! `(k−1)·n` (the reverse orientation winds once). The consecutive arcs then
//! tile the ring and give the routing — [`winding_routing_order`], O(k).
//!
//! *Proof.* If the order agrees, the clockwise arcs `v_i → v_{i+1}` have
//! lengths summing to `n`, so they tile the ring and are edge-disjoint.
//! Conversely, follow pairwise edge-disjoint arcs around the cycle: a
//! closed walk whose signed length is `w·n` for a winding number `w`.
//! Disjoint arcs have total length at most `n`, so `|w| ≤ 1`. A walk with
//! `w = 0` crosses every ring edge it uses equally often in both
//! directions, so it uses that edge twice — impossible for disjoint arcs.
//! So `|w| = 1`: the signed lengths sum to `±n` while their absolute
//! values sum to at most `n`, hence every arc runs the same way and the
//! walk goes round the ring once, visiting the vertices in ring order.
//!
//! `tests` cross-validate the two on *every* cycle of length 3–5 of rings
//! `n ≤ 9`, and property tests in `cyclecover-core` extend the evidence; the
//! equivalence is also `debug_assert`ed whenever the fast path is consulted.

use crate::{ArcOccupancy, Chord, Ring, RingArc};
use cyclecover_graph::CycleSubgraph;

/// A DRC routing: one arc per cycle edge, pairwise edge-disjoint.
///
/// `arcs[i]` carries the request between `v_i` and `v_{i+1 mod k}` of the
/// vertex order the routing was computed for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrcRouting {
    /// One arc per cycle edge, in cycle order.
    pub arcs: Vec<RingArc>,
}

impl DrcRouting {
    /// Total number of ring edges used (≤ n for a valid routing).
    pub fn load(&self) -> u32 {
        self.arcs.iter().map(RingArc::len).sum()
    }

    /// Validates pairwise edge-disjointness.
    pub fn is_edge_disjoint(&self, ring: Ring) -> bool {
        let mut occ = ArcOccupancy::new(ring);
        self.arcs.iter().all(|a| occ.try_place(ring, a))
    }
}

fn chords_of_order(ring: Ring, verts: &[u32]) -> Vec<Chord> {
    let k = verts.len();
    assert!(k >= 3, "cycle needs >= 3 vertices");
    (0..k)
        .map(|i| Chord::new(ring, verts[i], verts[(i + 1) % k]))
        .collect()
}

/// Exhaustive DRC oracle on an explicit cyclic vertex order: finds an
/// edge-disjoint arc assignment or proves none exists, by depth-first search
/// over the `2^k` choices with occupancy pruning.
///
/// Ground truth — O(2^k) worst case, for validation and small instances.
/// Production paths use [`winding_routing_order`].
pub fn route_order(ring: Ring, verts: &[u32]) -> Option<DrcRouting> {
    let chords = chords_of_order(ring, verts);
    let mut occ = ArcOccupancy::new(ring);
    let mut chosen: Vec<RingArc> = Vec::with_capacity(chords.len());

    fn dfs(
        ring: Ring,
        chords: &[Chord],
        i: usize,
        occ: &mut ArcOccupancy,
        chosen: &mut Vec<RingArc>,
    ) -> bool {
        if i == chords.len() {
            return true;
        }
        for arc in chords[i].arcs(ring) {
            if occ.try_place(ring, &arc) {
                chosen.push(arc);
                if dfs(ring, chords, i + 1, occ, chosen) {
                    return true;
                }
                chosen.pop();
                occ.remove(ring, &arc);
            }
        }
        false
    }

    if dfs(ring, &chords, 0, &mut occ, &mut chosen) {
        Some(DrcRouting { arcs: chosen })
    } else {
        None
    }
}

/// [`route_order`] on a canonical [`CycleSubgraph`].
pub fn route_cycle(ring: Ring, cycle: &CycleSubgraph) -> Option<DrcRouting> {
    route_order(ring, cycle.vertices())
}

/// Direction in which a cycle order winds around the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Winding {
    /// The given order follows increasing ring positions (winds once cw).
    Clockwise,
    /// The reverse order winds once (the given order is "backwards").
    ///
    /// Note [`CycleSubgraph`] canonicalization always orients cycles
    /// clockwise, so this variant only appears for raw vertex orders.
    Counterclockwise,
}

/// Winding fast path on an explicit cyclic order: O(k) check + routing.
///
/// Returns the winding direction and the tiling routing if the cycle winds
/// once in either direction; `None` otherwise — which by the winding lemma
/// means the cycle violates the DRC.
pub fn winding_routing_order(ring: Ring, verts: &[u32]) -> Option<(Winding, DrcRouting)> {
    let k = verts.len();
    assert!(k >= 3, "cycle needs >= 3 vertices");
    let n = ring.n() as u64;
    let total: u64 = (0..k)
        .map(|i| ring.cw_gap(verts[i], verts[(i + 1) % k]) as u64)
        .sum();
    debug_assert_eq!(total % n, 0, "gap sum must be a multiple of n");
    let winds = total / n;
    if winds == 1 {
        let arcs = (0..k)
            .map(|i| RingArc::new(ring, verts[i], ring.cw_gap(verts[i], verts[(i + 1) % k])))
            .collect();
        Some((Winding::Clockwise, DrcRouting { arcs }))
    } else if winds == (k as u64) - 1 {
        // Reverse orientation winds once: route each chord from its far end.
        let arcs = (0..k)
            .map(|i| {
                let a = verts[(i + 1) % k];
                let b = verts[i];
                RingArc::new(ring, a, ring.cw_gap(a, b))
            })
            .collect();
        Some((Winding::Counterclockwise, DrcRouting { arcs }))
    } else {
        None
    }
}

/// [`winding_routing_order`] on a canonical [`CycleSubgraph`].
pub fn winding_routing(ring: Ring, cycle: &CycleSubgraph) -> Option<(Winding, DrcRouting)> {
    winding_routing_order(ring, cycle.vertices())
}

/// Whether the cycle satisfies the DRC (fast path; equals the oracle by the
/// winding lemma, `debug_assert`ed here and cross-validated by the tests).
pub fn is_drc_routable(ring: Ring, cycle: &CycleSubgraph) -> bool {
    let fast = winding_routing(ring, cycle).is_some();
    debug_assert_eq!(
        fast,
        route_cycle(ring, cycle).is_some(),
        "winding lemma violated for {cycle:?} on {ring:?}"
    );
    fast
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example, verbatim: `G = C_4`, `I = K_4` (paper
    /// vertices 1..4 map to 0..3 here).
    ///
    /// * Covering A: the two C4s `(1,2,3,4)` and `(1,3,4,2)` — the second
    ///   has no edge-disjoint routing (requests `(1,3)` and `(2,4)` cannot
    ///   avoid each other).
    /// * Covering B: the C4 `(1,2,3,4)` and the two C3s `(1,2,4)`, `(1,3,4)`
    ///   — every cycle routable.
    #[test]
    fn paper_example_k4_on_c4() {
        let ring = Ring::new(4);
        let straight = CycleSubgraph::new(vec![0, 1, 2, 3]);
        let crossed = CycleSubgraph::new(vec![0, 2, 3, 1]);
        let t1 = CycleSubgraph::new(vec![0, 1, 3]);
        let t2 = CycleSubgraph::new(vec![0, 2, 3]);

        assert!(route_cycle(ring, &straight).is_some());
        assert!(
            route_cycle(ring, &crossed).is_none(),
            "crossed C4 must fail DRC"
        );
        assert!(route_cycle(ring, &t1).is_some());
        assert!(route_cycle(ring, &t2).is_some());

        assert!(is_drc_routable(ring, &straight));
        assert!(!is_drc_routable(ring, &crossed));
        assert!(is_drc_routable(ring, &t1));
        assert!(is_drc_routable(ring, &t2));
    }

    #[test]
    fn routings_are_edge_disjoint_and_tile() {
        let ring = Ring::new(9);
        let cyc = CycleSubgraph::new(vec![0, 2, 5, 8]);
        let (w, routing) = winding_routing(ring, &cyc).expect("winding");
        assert_eq!(w, Winding::Clockwise);
        assert!(routing.is_edge_disjoint(ring));
        assert_eq!(routing.load(), 9);
        let oracle = route_cycle(ring, &cyc).expect("oracle agrees");
        assert!(oracle.is_edge_disjoint(ring));
    }

    #[test]
    fn counterclockwise_raw_order_routes() {
        let ring = Ring::new(8);
        // Raw order (0,5,3,1): gaps 5,6,6,7 sum 24 = 3n = (k−1)n → reverse
        // winds once.
        let (w, routing) = winding_routing_order(ring, &[0, 5, 3, 1]).expect("routable");
        assert_eq!(w, Winding::Counterclockwise);
        assert!(routing.is_edge_disjoint(ring));
        assert_eq!(routing.load(), 8);
        // arcs[0] must route chord {0,5}.
        let a = routing.arcs[0];
        assert_eq!(a.start(), 5);
        assert_eq!(a.end(ring), 0);
    }

    /// Exhaustive cross-validation of the winding lemma: for every ring
    /// `n ∈ 4..=9` and every cyclic order of 3..=5 distinct vertices, the
    /// oracle and the fast path agree.
    #[test]
    fn winding_lemma_exhaustive_small() {
        let mut checked = 0u64;
        for n in 4u32..=9 {
            let ring = Ring::new(n);
            for k in 3usize..=5.min(n as usize) {
                let mut tuple: Vec<u32> = Vec::with_capacity(k);
                enumerate_orders(n, k, &mut tuple, &mut |order| {
                    let oracle = route_order(ring, order).is_some();
                    let fast = winding_routing_order(ring, order).is_some();
                    assert_eq!(oracle, fast, "n={n} order={order:?}");
                    checked += 1;
                });
            }
        }
        assert_eq!(checked, 32_502, "exhaustive sweep size changed: {checked}");
    }

    /// Any routing the oracle returns is edge-disjoint with load ≤ n.
    #[test]
    fn oracle_routings_valid() {
        let ring = Ring::new(7);
        for a in 1..7u32 {
            for b in (a + 1)..7u32 {
                let cyc = CycleSubgraph::new(vec![0, a, b]);
                let r = route_cycle(ring, &cyc).expect("triangles always route");
                assert!(r.is_edge_disjoint(ring));
                assert!(r.load() <= 7);
            }
        }
    }

    /// All triangles are DRC-routable on any ring (3 points on a circle are
    /// always in circular order).
    #[test]
    fn triangles_always_route() {
        for n in 4u32..=12 {
            let ring = Ring::new(n);
            for a in 1..n {
                for b in (a + 1)..n {
                    let cyc = CycleSubgraph::new(vec![0, a, b]);
                    assert!(is_drc_routable(ring, &cyc), "triangle (0,{a},{b}) on C_{n}");
                }
            }
        }
    }

    /// Enumerates all ordered tuples of `k` distinct vertices of `0..n`.
    fn enumerate_orders(n: u32, k: usize, tuple: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        if tuple.len() == k {
            f(tuple);
            return;
        }
        for v in 0..n {
            if !tuple.contains(&v) {
                tuple.push(v);
                enumerate_orders(n, k, tuple, f);
                tuple.pop();
            }
        }
    }
}
