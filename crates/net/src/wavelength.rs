//! Wavelength assignment: protected cycles vs. unprotected routing.
//!
//! Two accounting regimes on the same ring:
//!
//! * **Protected (the paper's scheme):** each covering cycle owns a
//!   working + spare wavelength pair. Winding cycles occupy *every* ring
//!   edge, so no two subnetworks can share a wavelength — the conflict
//!   graph is complete and the assignment `cycle i ↦ pair i` is optimal:
//!   exactly `2·ρ(n)` wavelengths ([`protected_wavelengths`]).
//! * **Unprotected baseline:** route each request on its shortest arc and
//!   color arcs so same-wavelength arcs are edge-disjoint (circular-arc
//!   coloring). The max link load `L = ⌈Σdist/n⌉` lower-bounds the count;
//!   first-fit ([`first_fit_assignment`]) gets close in practice.
//!
//! Comparing the two makes the paper's premise quantitative: survivable
//! design via cycle coverings costs ~2× the wavelengths of unprotected
//! routing — "half of the capacity for the demands … the other half" as
//! spare — in exchange for instant single-failure recovery.

use cyclecover_graph::Edge;
use cyclecover_ring::{ArcOccupancy, Chord, Ring, RingArc};

/// Shortest-arc routing of the full `K_n` instance: one arc per request
/// (ties at diameters broken clockwise-from-smaller-endpoint).
pub fn route_all_shortest(ring: Ring) -> Vec<(Edge, RingArc)> {
    let n = ring.n();
    let mut out = Vec::with_capacity((n as usize * (n as usize - 1)) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            let c = Chord::new(ring, u, v);
            out.push((Edge::new(u, v), c.shortest_arc(ring)));
        }
    }
    out
}

/// Maximum number of routed arcs crossing any single ring edge — the
/// clique-style lower bound on the unprotected wavelength count.
pub fn max_link_load(ring: Ring, routing: &[(Edge, RingArc)]) -> u32 {
    let n = ring.n();
    let mut load = vec![0u32; n as usize];
    for (_, arc) in routing {
        for e in arc.edges(ring) {
            load[e as usize] += 1;
        }
    }
    load.into_iter().max().unwrap_or(0)
}

/// First-fit circular-arc coloring: assigns each arc the smallest
/// wavelength on which it fits edge-disjointly. Returns per-request
/// wavelength indices and the number of wavelengths used.
///
/// Arcs are processed longest-first (a strong heuristic for circular-arc
/// graphs); the result is within a small factor of [`max_link_load`].
pub fn first_fit_assignment(ring: Ring, routing: &[(Edge, RingArc)]) -> (Vec<u32>, usize) {
    let mut order: Vec<usize> = (0..routing.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(routing[i].1.len()));
    let mut layers: Vec<ArcOccupancy> = Vec::new();
    let mut assignment = vec![0u32; routing.len()];
    for i in order {
        let arc = routing[i].1;
        let mut placed = false;
        for (w, layer) in layers.iter_mut().enumerate() {
            if layer.try_place(ring, &arc) {
                assignment[i] = w as u32;
                placed = true;
                break;
            }
        }
        if !placed {
            let mut layer = ArcOccupancy::new(ring);
            assert!(layer.try_place(ring, &arc));
            assignment[i] = layers.len() as u32;
            layers.push(layer);
        }
    }
    let used = layers.len();
    (assignment, used)
}

/// Wavelengths needed by the paper's protected scheme for a covering of
/// `cycles` winding cycles: exactly `2 · cycles` (complete conflict graph
/// — every winding cycle uses every ring edge).
pub fn protected_wavelengths(cycles: usize) -> usize {
    2 * cycles
}

/// The protection premium: protected / unprotected wavelength counts for
/// the all-to-all instance on `C_n` (using first-fit for the baseline).
pub fn protection_premium(ring: Ring, cycles: usize) -> f64 {
    let routing = route_all_shortest(ring);
    let (_, unprotected) = first_fit_assignment(ring, &routing);
    protected_wavelengths(cycles) as f64 / unprotected as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_solver::lower_bound::capacity_lower_bound;

    #[test]
    fn shortest_routing_loads_match_capacity_bound() {
        for n in [7u32, 8, 11, 16] {
            let ring = Ring::new(n);
            let routing = route_all_shortest(ring);
            let load = max_link_load(ring, &routing);
            // Total load = Σ dist; max ≥ average = capacity bound.
            assert!(load as u64 >= capacity_lower_bound(n), "n={n}");
            // Shortest routing is balanced on symmetric instances: max is
            // within 1.5x of average.
            assert!(
                (load as f64) <= 1.5 * capacity_lower_bound(n) as f64 + 2.0,
                "n={n}: load {load}"
            );
        }
    }

    #[test]
    fn first_fit_is_valid_and_bounded() {
        for n in [6u32, 9, 12, 15, 20] {
            let ring = Ring::new(n);
            let routing = route_all_shortest(ring);
            let (assignment, used) = first_fit_assignment(ring, &routing);
            // Validity: same-wavelength arcs are pairwise disjoint.
            for w in 0..used as u32 {
                let mut occ = ArcOccupancy::new(ring);
                for (i, (_, arc)) in routing.iter().enumerate() {
                    if assignment[i] == w {
                        assert!(occ.try_place(ring, arc), "n={n} λ={w}");
                    }
                }
            }
            let lb = max_link_load(ring, &routing) as usize;
            assert!(used >= lb, "n={n}");
            assert!(
                used <= 2 * lb + 2,
                "n={n}: first-fit used {used} vs LB {lb}"
            );
        }
    }

    #[test]
    fn protection_costs_about_twice() {
        for n in [9u32, 13, 14] {
            let ring = Ring::new(n);
            let cycles = cyclecover_core::rho(n) as usize;
            let premium = protection_premium(ring, cycles);
            assert!(
                (1.5..=2.6).contains(&premium),
                "n={n}: protection premium {premium} should be ≈ 2"
            );
        }
    }
}
