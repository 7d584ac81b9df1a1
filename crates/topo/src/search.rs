//! Search-based coverings on arbitrary graphs: enumerate small
//! DRC-routable cycles with the exact oracle, then set-cover greedily.
//!
//! The structured constructions of [`crate::mesh_cover`] are closed-form
//! but not optimal; this module provides the *search* counterweight —
//! the analogue of `cyclecover-solver`'s tile universe off the ring:
//!
//! * [`enumerate_routable_cycles`] — all triangles and quadrilaterals
//!   (both cyclic orders per quad) over vertex subsets of bounded
//!   diameter, each *proved* routable by the oracle, with its witness
//!   routing retained;
//! * [`greedy_cover_graph`] — classical set-cover greedy over those
//!   candidates (gain = newly covered instance edges; ties broken
//!   toward lighter routings).
//!
//! On small tori the greedy beats the structured construction by
//! 20–40% (experiment E9), at enumeration cost — exactly the
//! construction-vs-search trade the paper's ring theorems resolve so
//! elegantly *on* the ring, left open off it.

use crate::cover::GraphCovering;
use crate::drc::{route_cycle, CycleRouting, RouteOutcome};
use cyclecover_graph::{bfs_distances, CycleSubgraph, Graph, Vertex};

/// A candidate: a cycle plus its oracle-witnessed routing.
pub struct Candidate {
    /// The logical cycle.
    pub cycle: CycleSubgraph,
    /// A verified edge-disjoint routing.
    pub routing: CycleRouting,
}

/// Enumerates DRC-routable triangles and quadrilaterals whose vertices
/// lie pairwise within graph distance `max_dist` of each other, routed
/// with `slack` extra hops per request. Quads are tried in all three
/// cyclic orders (different orders have different request sets).
///
/// Candidate count is `O(n · Δ_d³)` where `Δ_d` is the `max_dist`-ball
/// size — locality keeps enumeration tractable on meshes.
pub fn enumerate_routable_cycles(
    g: &Graph,
    max_dist: usize,
    slack: u32,
    budget_per_cycle: u64,
) -> Vec<Candidate> {
    let n = g.vertex_count();
    // Distance-bounded neighbor lists (one BFS per vertex).
    let near: Vec<Vec<Vertex>> = (0..n as Vertex)
        .map(|v| {
            let d = bfs_distances(g, v);
            (0..n as Vertex)
                .filter(|&w| w > v && d[w as usize] <= max_dist)
                .collect()
        })
        .collect();
    let within = |a: Vertex, b: Vertex| -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        near[lo as usize].binary_search(&hi).is_ok()
    };

    let mut out = Vec::new();
    let try_push = |verts: Vec<Vertex>, out: &mut Vec<Candidate>| {
        let cycle = CycleSubgraph::new(verts);
        // Dedup: quads in different orders canonicalize differently, but
        // the same order reached twice canonicalizes identically — the
        // enumeration below never revisits an ordered choice, and
        // distinct cyclic orders are distinct cycles, so no set needed.
        if let RouteOutcome::Routed(routing) = route_cycle(g, &cycle, slack, budget_per_cycle) {
            out.push(Candidate { cycle, routing });
        }
    };

    for a in 0..n as Vertex {
        let nbrs = &near[a as usize];
        for (i, &b) in nbrs.iter().enumerate() {
            for (j, &c) in nbrs.iter().enumerate().skip(i + 1) {
                if !within(b, c) {
                    continue;
                }
                try_push(vec![a, b, c], &mut out);
                for &d in nbrs.iter().skip(j + 1) {
                    if !(within(b, d) && within(c, d)) {
                        continue;
                    }
                    // Three cyclic orders of {a,b,c,d}.
                    try_push(vec![a, b, c, d], &mut out);
                    try_push(vec![a, c, b, d], &mut out);
                    try_push(vec![a, b, d, c], &mut out);
                }
            }
        }
    }
    out
}

/// Set-cover greedy over `candidates`: repeatedly take the candidate
/// covering the most uncovered edges of `inst` (ties: smaller routing
/// load), until everything is covered. Returns `None` if the candidates
/// cannot cover `inst` (some instance edge on no candidate).
pub fn greedy_cover_graph(
    g: &Graph,
    inst: &Graph,
    candidates: &[Candidate],
) -> Option<GraphCovering> {
    let n = g.vertex_count();
    let dense = |u: Vertex, v: Vertex| cyclecover_graph::Edge::new(u, v).dense_index(n);
    let mut want = vec![false; n * (n - 1) / 2];
    let mut remaining = 0usize;
    for e in inst.edges() {
        let i = dense(e.u(), e.v());
        if !want[i] {
            want[i] = true;
            remaining += 1;
        }
    }
    let per_candidate: Vec<Vec<usize>> = candidates
        .iter()
        .map(|c| c.cycle.edges().map(|e| dense(e.u(), e.v())).collect())
        .collect();

    let mut covered = vec![false; n * (n - 1) / 2];
    let mut cover = GraphCovering::new();
    while remaining > 0 {
        let mut best: Option<(usize, usize, usize)> = None; // (idx, gain, load)
        for (i, chords) in per_candidate.iter().enumerate() {
            let gain = chords.iter().filter(|&&c| want[c] && !covered[c]).count();
            if gain == 0 {
                continue;
            }
            let load = candidates[i].routing.total_load();
            let better = match best {
                None => true,
                Some((_, bg, bl)) => gain > bg || (gain == bg && load < bl),
            };
            if better {
                best = Some((i, gain, load));
            }
        }
        let (i, gain, _) = best?;
        for &c in &per_candidate[i] {
            if want[c] && !covered[c] {
                covered[c] = true;
            }
        }
        remaining -= gain;
        cover
            .push(
                g,
                candidates[i].cycle.clone(),
                candidates[i].routing.clone(),
            )
            .expect("candidate routings are oracle-verified");
    }
    Some(cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridTopology;
    use crate::mesh_cover;
    use crate::protect;
    use cyclecover_graph::builders;

    #[test]
    fn enumeration_on_ring_matches_tile_count() {
        // On C_n every DRC triangle/quad is a winding tile; the solver
        // crate counts them independently.
        let n = 7u32;
        let g = builders::cycle(n as usize);
        let cands = enumerate_routable_cycles(&g, n as usize, n, 100_000);
        let universe = cyclecover_solver::TileUniverse::new(cyclecover_ring::Ring::new(n), 4);
        assert_eq!(cands.len(), universe.len(), "C3+C4 tiles on C_{n}");
    }

    #[test]
    fn greedy_covers_small_torus_and_beats_structured() {
        let topo = GridTopology::torus(3, 3);
        let inst = builders::complete(9);
        let cands = enumerate_routable_cycles(topo.graph(), 4, 4, 200_000);
        assert!(!cands.is_empty());
        let greedy = greedy_cover_graph(topo.graph(), &inst, &cands).expect("coverable");
        greedy.validate(topo.graph(), &inst).expect("valid");
        let structured = mesh_cover::cover_torus(&topo).len();
        assert!(
            greedy.len() <= structured,
            "greedy {} vs structured {structured}",
            greedy.len()
        );
        // And it still survives everything.
        assert!(protect::audit_link_failures(topo.graph(), &greedy).fully_survivable);
    }

    #[test]
    fn greedy_none_when_candidates_insufficient() {
        // Distance-0 candidates cannot exist; coverage must fail.
        let topo = GridTopology::torus(3, 3);
        let inst = builders::complete(9);
        let cands = enumerate_routable_cycles(topo.graph(), 1, 0, 10_000);
        // With slack 0 and distance ≤ 1, quads on a 3x3 torus may exist
        // (unit squares) but cannot cover the distance-2 requests.
        if let Some(c) = greedy_cover_graph(topo.graph(), &inst, &cands) {
            panic!("covered K_9 with unit squares?! {} cycles", c.len());
        }
    }

    #[test]
    fn candidates_have_verified_routings() {
        let topo = GridTopology::grid(3, 3);
        let cands = enumerate_routable_cycles(topo.graph(), 3, 3, 100_000);
        for c in &cands {
            assert!(crate::drc::verify_routing(
                topo.graph(),
                &c.cycle,
                &c.routing
            ));
        }
        // A grid has no routable cycles within rows (path theorem), but
        // plenty of rectangles.
        assert!(!cands.is_empty());
    }
}
