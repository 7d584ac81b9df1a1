//! Path (and tree) physical topologies — a sharp negative result.
//!
//! The paper's closing section proposes studying "other network
//! topologies, for example, trees of rings, grids or tori". The simplest
//! candidate beyond the ring — a bus/path topology `P_n` — admits a clean
//! impossibility theorem that explains *why* rings are the atomic unit of
//! cycle-based protection:
//!
//! > **Theorem (no DRC cycles on trees).** On a tree topology (in
//! > particular a path), no cycle `I_k` (k ≥ 3) admits an edge-disjoint
//! > routing: each request has a *unique* route, the tree path between its
//! > endpoints; walking around the cycle crosses every tree edge an even
//! > number of times, so if the routes were edge-disjoint every tree edge
//! > would be used 0 times — impossible since consecutive cycle vertices
//! > are distinct. ∎
//!
//! Consequently any survivable design on tree-like topologies must either
//! add physical edges to close rings ("trees of *rings*" — exactly the
//! next topology the paper names) or abandon cycle protection. This module
//! provides the machinery making the theorem executable:
//! [`route_cycle_on_path`] (the exhaustive analogue of the ring oracle —
//! trivial here because routes are unique) and tests confirming
//! infeasibility for every small cycle, plus the crossing-parity helper
//! [`crossing_count`] used in the proof.

use cyclecover_graph::CycleSubgraph;

/// Number of times the cycle's closed walk crosses the path edge between
/// positions `e` and `e+1` (i.e. how many consecutive cycle pairs have
/// endpoints on opposite sides of the cut). Always even, by the handshake
/// over the cut.
pub fn crossing_count(cycle: &CycleSubgraph, e: u32) -> usize {
    let verts = cycle.vertices();
    let k = verts.len();
    (0..k)
        .filter(|&i| {
            let a = verts[i];
            let b = verts[(i + 1) % k];
            (a <= e) != (b <= e)
        })
        .count()
}

/// Attempts to route the cycle's requests edge-disjointly on the path
/// `P_n` (vertices `0..n`, edges `{i, i+1}`). Routes are unique (the
/// interval between the endpoints), so this just checks pairwise
/// disjointness. By the theorem above it always returns `false` — kept as
/// an executable oracle so tests *demonstrate* rather than assume the
/// impossibility.
pub fn route_cycle_on_path(n: u32, cycle: &CycleSubgraph) -> bool {
    let verts = cycle.vertices();
    let k = verts.len();
    let mut used = vec![false; n.saturating_sub(1) as usize];
    for i in 0..k {
        let a = verts[i].min(verts[(i + 1) % k]);
        let b = verts[i].max(verts[(i + 1) % k]);
        for e in a..b {
            if used[e as usize] {
                return false;
            }
            used[e as usize] = true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive: no triangle or quad on P_n (n ≤ 8) is routable.
    #[test]
    fn no_cycle_routes_on_a_path() {
        for n in 3u32..=8 {
            for a in 0..n {
                for b in (a + 1)..n {
                    for c in (b + 1)..n {
                        let t = CycleSubgraph::new(vec![a, b, c]);
                        assert!(
                            !route_cycle_on_path(n, &t),
                            "triangle {t:?} routed on P_{n}?!"
                        );
                        for d in (c + 1)..n {
                            for order in [[a, b, c, d], [a, c, b, d], [a, b, d, c]] {
                                let q = CycleSubgraph::new(order.to_vec());
                                assert!(!route_cycle_on_path(n, &q), "quad {q:?} on P_{n}?!");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The proof's parity invariant: every cut is crossed an even number
    /// of times, and some cut is crossed ≥ 2 times.
    #[test]
    fn crossing_parity_invariant() {
        for n in 4u32..=9 {
            for a in 0..n {
                for b in (a + 1)..n {
                    for c in (b + 1)..n {
                        let t = CycleSubgraph::new(vec![a, b, c]);
                        let mut some_positive = false;
                        for e in 0..n - 1 {
                            let x = crossing_count(&t, e);
                            assert_eq!(x % 2, 0, "odd crossing at cut {e} for {t:?}");
                            some_positive |= x >= 2;
                        }
                        assert!(some_positive, "cycle must cross some cut");
                    }
                }
            }
        }
    }
}
