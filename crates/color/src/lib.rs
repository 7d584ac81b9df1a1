//! # cyclecover-color
//!
//! Graph coloring for **wavelength assignment** — the "last phase of the
//! network design" the paper defers ("Here we do not consider the
//! allocation of wavelengths to the request (that is done later…)").
//!
//! On the ring every covering cycle winds the whole ring, so no two
//! subnetworks can share a wavelength and assignment is trivial
//! (`cycle i ↦ wavelength pair i`, see `cyclecover-net::wavelength`).
//! On the extension topologies this changes completely: a covering cycle
//! on a torus occupies only a few rows/columns, two cycles with disjoint
//! physical footprints can reuse a wavelength, and minimizing wavelengths
//! becomes graph coloring of the **conflict graph** (cycles adjacent iff
//! their routings share a physical link) — the objective of the paper's
//! reference \[4\] (Gerstel–Lin–Sasaki). This crate provides the coloring
//! machinery:
//!
//! * [`greedy_coloring`] — sequential greedy in a caller-chosen order;
//! * [`largest_first_order`] / [`smallest_last_order`] — classic orders
//!   (smallest-last is optimal on chordal graphs and never worse than
//!   `1 + max core degree`);
//! * [`dsatur`] — Brélaz's saturation-degree heuristic;
//! * [`exact_chromatic`] — exact branch-and-bound (small graphs), used
//!   to certify the heuristics in tests and experiments;
//! * [`verify_coloring`] / [`clique_lower_bound`] — validation and a
//!   cheap lower bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conflict;

pub use conflict::conflict_graph;

use cyclecover_graph::Graph;

/// A proper vertex coloring: `colors[v]` ∈ `0..count`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    /// Color per vertex.
    pub colors: Vec<u32>,
    /// Number of colors used.
    pub count: u32,
}

/// Checks that no edge is monochromatic and colors are dense `0..count`.
pub fn verify_coloring(g: &Graph, c: &Coloring) -> bool {
    if c.colors.len() != g.vertex_count() {
        return false;
    }
    if g.edges()
        .iter()
        .any(|e| c.colors[e.u() as usize] == c.colors[e.v() as usize])
    {
        return false;
    }
    let max = c.colors.iter().copied().max().map_or(0, |m| m + 1);
    max == c.count && (g.vertex_count() == 0) == (c.count == 0)
}

/// Sequential greedy coloring in the given vertex order: each vertex
/// takes the smallest color absent from its already-colored neighbors.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..n`.
pub fn greedy_coloring(g: &Graph, order: &[u32]) -> Coloring {
    let n = g.vertex_count();
    assert_eq!(order.len(), n, "order must cover all vertices");
    let mut seen = vec![false; n];
    for &v in order {
        assert!(!seen[v as usize], "duplicate vertex {v} in order");
        seen[v as usize] = true;
    }
    let mut colors = vec![u32::MAX; n];
    let mut forbidden = vec![u32::MAX; n.max(1)]; // stamp array: forbidden[c] == v means color c blocked for v
    let mut count = 0;
    for (stamp, &v) in order.iter().enumerate() {
        for w in g.neighbors(v) {
            let cw = colors[w as usize];
            if cw != u32::MAX {
                forbidden[cw as usize] = stamp as u32;
            }
        }
        let mut c = 0u32;
        while forbidden[c as usize] == stamp as u32 {
            c += 1;
        }
        colors[v as usize] = c;
        count = count.max(c + 1);
    }
    Coloring { colors, count }
}

/// Vertices by decreasing degree (Welsh–Powell order).
pub fn largest_first_order(g: &Graph) -> Vec<u32> {
    let mut order: Vec<u32> = (0..g.vertex_count() as u32).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    order
}

/// Smallest-last order: repeatedly remove a minimum-degree vertex; color
/// in reverse removal order. Greedy on this order uses at most
/// `1 + degeneracy(g)` colors.
pub fn smallest_last_order(g: &Graph) -> Vec<u32> {
    let n = g.vertex_count();
    let mut deg: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n as u32)
            .filter(|&v| !removed[v as usize])
            .min_by_key(|&v| deg[v as usize])
            .expect("vertices remain");
        removed[v as usize] = true;
        order.push(v);
        for w in g.neighbors(v) {
            if !removed[w as usize] {
                deg[w as usize] -= 1;
            }
        }
    }
    order.reverse();
    order
}

/// DSATUR (Brélaz): repeatedly color the vertex with the most distinctly
/// colored neighbors (ties: higher degree), taking the smallest feasible
/// color. Exact on bipartite graphs, strong on the sparse conflict
/// graphs wavelength assignment produces.
pub fn dsatur(g: &Graph) -> Coloring {
    let n = g.vertex_count();
    let mut colors = vec![u32::MAX; n];
    let mut count = 0u32;
    // Saturation sets as bitmasks for ≤ 64 colors, Vec<bool> beyond; the
    // workspace's conflict graphs use far fewer than 64 wavelengths, so
    // the fast path is effectively always taken.
    let mut sat: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); n];
    for _ in 0..n {
        let v = (0..n as u32)
            .filter(|&v| colors[v as usize] == u32::MAX)
            .max_by_key(|&v| (sat[v as usize].len(), g.degree(v)))
            .expect("uncolored vertices remain");
        let mut c = 0u32;
        while sat[v as usize].contains(&c) {
            c += 1;
        }
        colors[v as usize] = c;
        count = count.max(c + 1);
        for w in g.neighbors(v) {
            if colors[w as usize] == u32::MAX {
                sat[w as usize].insert(c);
            }
        }
    }
    Coloring { colors, count }
}

/// A maximal-clique lower bound on the chromatic number, grown greedily
/// from each vertex in decreasing-degree order (cheap, surprisingly
/// tight on interval-like conflict graphs).
pub fn clique_lower_bound(g: &Graph) -> u32 {
    let n = g.vertex_count();
    if n == 0 {
        return 0;
    }
    let mut best = 1u32;
    for &seed in largest_first_order(g).iter().take(32) {
        let mut clique = vec![seed];
        for v in largest_first_order(g) {
            if v != seed && clique.iter().all(|&u| g.has_edge(u, v)) {
                clique.push(v);
            }
        }
        best = best.max(clique.len() as u32);
    }
    best
}

/// Exact chromatic number by branch and bound over color classes,
/// seeded with the DSATUR upper bound and the clique lower bound.
/// Exponential worst case — intended for graphs of ≤ ~40 vertices
/// (certification of heuristics in tests/experiments).
///
/// Returns the coloring and its (optimal) count.
pub fn exact_chromatic(g: &Graph) -> Coloring {
    let n = g.vertex_count();
    if n == 0 {
        return Coloring {
            colors: Vec::new(),
            count: 0,
        };
    }
    let ub = dsatur(g);
    let lb = clique_lower_bound(g);
    if ub.count == lb {
        return ub;
    }
    // Try successively smaller targets until infeasible.
    let mut best = ub;
    while best.count > lb {
        let target = best.count - 1;
        match try_color(g, target) {
            Some(c) => best = c,
            None => break,
        }
    }
    best
}

/// Backtracking k-coloring; vertices in smallest-last order, symmetry
/// broken by only allowing a vertex to open color `c` if colors `< c`
/// are all open already.
fn try_color(g: &Graph, k: u32) -> Option<Coloring> {
    let order = smallest_last_order(g);
    let n = g.vertex_count();
    let mut colors = vec![u32::MAX; n];
    fn go(g: &Graph, order: &[u32], pos: usize, k: u32, used: u32, colors: &mut Vec<u32>) -> bool {
        if pos == order.len() {
            return true;
        }
        let v = order[pos];
        let cap = (used + 1).min(k); // symmetry breaking
        for c in 0..cap {
            if g.neighbors(v).any(|w| colors[w as usize] == c) {
                continue;
            }
            colors[v as usize] = c;
            if go(g, order, pos + 1, k, used.max(c + 1), colors) {
                return true;
            }
            colors[v as usize] = u32::MAX;
        }
        false
    }
    if go(g, &order, 0, k, 0, &mut colors) {
        let count = colors.iter().copied().max().map_or(0, |m| m + 1);
        Some(Coloring { colors, count })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_graph::builders;

    fn check_all(g: &Graph, chromatic: u32) {
        let lf = greedy_coloring(g, &largest_first_order(g));
        let sl = greedy_coloring(g, &smallest_last_order(g));
        let ds = dsatur(g);
        let ex = exact_chromatic(g);
        for (name, c) in [("lf", &lf), ("sl", &sl), ("dsatur", &ds), ("exact", &ex)] {
            assert!(verify_coloring(g, c), "{name} invalid");
            assert!(c.count >= chromatic, "{name} below chromatic");
        }
        assert_eq!(ex.count, chromatic, "exact must hit the chromatic number");
        assert!(clique_lower_bound(g) <= chromatic);
    }

    #[test]
    fn complete_graphs() {
        for n in [1usize, 2, 3, 5, 7] {
            check_all(&builders::complete(n), n as u32);
        }
    }

    #[test]
    fn cycles_even_odd() {
        check_all(&builders::cycle(6), 2);
        check_all(&builders::cycle(7), 3);
        check_all(&builders::cycle(4), 2);
        check_all(&builders::cycle(3), 3);
    }

    #[test]
    fn paths_and_empty() {
        check_all(&builders::path(6), 2);
        check_all(&Graph::new(5), 1);
        check_all(&Graph::new(0), 0);
    }

    #[test]
    fn petersen_graph_is_3_chromatic() {
        // Outer C5 (0–4), inner pentagram (5–9), spokes.
        let mut g = Graph::new(10);
        for i in 0..5u32 {
            g.add_edge(i, (i + 1) % 5);
            g.add_edge(5 + i, 5 + (i + 2) % 5);
            g.add_edge(i, 5 + i);
        }
        check_all(&g, 3);
    }

    #[test]
    fn wheel_graphs() {
        // W_6 (even cycle + hub): chromatic 4? C5 + hub = 4; C6 + hub = 3… wait:
        // odd wheel (odd rim) needs 4, even rim needs 3.
        for (rim, chi) in [(5u32, 4u32), (6, 3)] {
            let mut g = Graph::new(rim as usize + 1);
            for i in 0..rim {
                g.add_edge(i, (i + 1) % rim);
                g.add_edge(i, rim);
            }
            check_all(&g, chi);
        }
    }

    #[test]
    fn greedy_respects_any_order() {
        let g = builders::complete(6);
        let order: Vec<u32> = (0..6).rev().collect();
        let c = greedy_coloring(&g, &order);
        assert!(verify_coloring(&g, &c));
        assert_eq!(c.count, 6);
    }

    #[test]
    #[should_panic(expected = "duplicate vertex")]
    fn greedy_rejects_bad_order() {
        let g = builders::path(3);
        greedy_coloring(&g, &[0, 0, 2]);
    }

    #[test]
    fn random_graphs_heuristics_vs_exact() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(4..12);
            let mut g = Graph::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.35) {
                        g.add_edge(u, v);
                    }
                }
            }
            let ex = exact_chromatic(&g);
            assert!(verify_coloring(&g, &ex));
            let ds = dsatur(&g);
            assert!(ds.count >= ex.count);
            assert!(
                ds.count <= ex.count + 2,
                "DSATUR should be near-optimal here"
            );
        }
    }

    #[test]
    fn smallest_last_bounds_degeneracy() {
        // A tree has degeneracy 1: smallest-last greedy uses ≤ 2 colors.
        let mut g = Graph::new(7);
        for v in 1..7u32 {
            g.add_edge(v / 2, v); // binary tree shape... parent(v)=v/2
        }
        let c = greedy_coloring(&g, &smallest_last_order(&g));
        assert!(verify_coloring(&g, &c));
        assert!(c.count <= 2);
    }
}
