//! Euler tours and cycle decompositions (Veblen's theorem, executable).
//!
//! Substrate fact the covering problem leans on: a graph decomposes into
//! edge-disjoint cycles iff every vertex has even degree. `K_n` for odd
//! `n` is even-regular, which is why Theorem 1's coverings can be exact
//! *partitions* into cycles; for even `n` the odd degree forces overlap —
//! the structural root of Theorem 2's `+1`-flavored slack. This module
//! makes both directions executable: [`euler_circuit`] (Hierholzer) and
//! [`cycle_decomposition`] (peel cycles greedily).

use crate::{Graph, Vertex};

/// Finds an Euler circuit of the (connected, even-degree) graph: a closed
/// walk using every edge exactly once. Returns the vertex sequence (first
/// = last omitted), or `None` if degrees are odd or the edges are not in
/// one component.
pub fn euler_circuit(g: &Graph) -> Option<Vec<Vertex>> {
    if g.edge_count() == 0 {
        return None;
    }
    if !g.all_degrees_even() {
        return None;
    }
    // Connectivity over non-isolated vertices.
    let comp = crate::connected_components(g);
    let mut active_comp = None;
    for (v, &cv) in comp.iter().enumerate() {
        if g.degree(v as Vertex) > 0 {
            match active_comp {
                None => active_comp = Some(cv),
                Some(c) if c == cv => {}
                _ => return None,
            }
        }
    }

    // Hierholzer with explicit stack and per-vertex adjacency cursors.
    let start = (0..g.vertex_count() as Vertex).find(|&v| g.degree(v) > 0)?;
    let mut used = vec![false; g.edge_count()];
    let mut cursor = vec![0usize; g.vertex_count()];
    let adj: Vec<Vec<(u32, Vertex)>> = (0..g.vertex_count() as Vertex)
        .map(|v| g.incident_edges(v).collect())
        .collect();
    let mut stack = vec![start];
    let mut circuit = Vec::with_capacity(g.edge_count());
    while let Some(&v) = stack.last() {
        let vu = v as usize;
        let mut advanced = false;
        while cursor[vu] < adj[vu].len() {
            let (eidx, w) = adj[vu][cursor[vu]];
            cursor[vu] += 1;
            if !used[eidx as usize] {
                used[eidx as usize] = true;
                stack.push(w);
                advanced = true;
                break;
            }
        }
        if !advanced {
            circuit.push(v);
            stack.pop();
        }
    }
    circuit.pop(); // drop duplicated start
    if circuit.len() == g.edge_count() {
        circuit.reverse();
        Some(circuit)
    } else {
        None
    }
}

/// Decomposes an even-degree graph into edge-disjoint simple cycles
/// (Veblen's theorem). Returns `None` if some degree is odd.
///
/// Each cycle is returned as its vertex sequence in cycle order.
pub fn cycle_decomposition(g: &Graph) -> Option<Vec<Vec<Vertex>>> {
    if !g.all_degrees_even() {
        return None;
    }
    let mut used = vec![false; g.edge_count()];
    let adj: Vec<Vec<(u32, Vertex)>> = (0..g.vertex_count() as Vertex)
        .map(|v| g.incident_edges(v).collect())
        .collect();
    let mut remaining = g.edge_count();
    let mut cycles = Vec::new();
    let mut cursor = vec![0usize; g.vertex_count()];
    while remaining > 0 {
        // Find a vertex with an unused edge.
        let start = (0..g.vertex_count())
            .find(|&v| adj[v].iter().any(|&(e, _)| !used[e as usize]))
            .expect("edges remain") as Vertex;
        // Walk until we return to a visited vertex => extract the cycle.
        let mut walk: Vec<(Vertex, Option<u32>)> = vec![(start, None)];
        let mut on_walk = vec![usize::MAX; g.vertex_count()];
        on_walk[start as usize] = 0;
        loop {
            let (v, _) = *walk.last().expect("non-empty");
            let vu = v as usize;
            // Find next unused edge from v (cursor may need reset since
            // edges get used across iterations).
            cursor[vu] = 0;
            let mut next = None;
            while cursor[vu] < adj[vu].len() {
                let (e, w) = adj[vu][cursor[vu]];
                cursor[vu] += 1;
                if !used[e as usize] {
                    next = Some((e, w));
                    break;
                }
            }
            let (e, w) = next.expect("even degrees guarantee a way out");
            used[e as usize] = true;
            remaining -= 1;
            if on_walk[w as usize] != usize::MAX {
                // Close the cycle from first occurrence of w.
                let at = on_walk[w as usize];
                let mut cyc: Vec<Vertex> = walk[at..].iter().map(|&(x, _)| x).collect();
                // Un-use edges before `at` (they stay for later cycles)…
                for &(_, eidx) in &walk[1..=at] {
                    if let Some(eidx) = eidx {
                        used[eidx as usize] = false;
                        remaining += 1;
                    }
                }
                // …but the edges in the cycle stay used.
                if cyc.len() < 2 {
                    // degenerate (multi-edge 2-cycle) — record as-is for
                    // multigraphs
                    cyc.push(w);
                }
                for (x, _) in walk.drain(..) {
                    on_walk[x as usize] = usize::MAX;
                }
                cycles.push(cyc);
                break;
            }
            on_walk[w as usize] = walk.len();
            walk.push((w, Some(e)));
        }
    }
    Some(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::Edge;

    #[test]
    fn euler_circuit_of_ring() {
        let g = builders::cycle(7);
        let tour = euler_circuit(&g).expect("ring is Eulerian");
        assert_eq!(tour.len(), 7);
    }

    #[test]
    fn euler_circuit_of_k5() {
        let g = builders::complete(5);
        let tour = euler_circuit(&g).expect("K5 is Eulerian");
        assert_eq!(tour.len(), 10);
        // Every edge used exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..tour.len() {
            let e = Edge::new(tour[i], tour[(i + 1) % tour.len()]);
            assert!(seen.insert(e), "edge {e} repeated");
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn no_euler_for_odd_degrees() {
        let g = builders::complete(4); // 3-regular
        assert!(euler_circuit(&g).is_none());
        assert!(cycle_decomposition(&g).is_none());
    }

    #[test]
    fn decomposition_covers_k7_exactly() {
        let g = builders::complete(7);
        let cycles = cycle_decomposition(&g).expect("even degrees");
        let mut count = std::collections::BTreeMap::new();
        for c in &cycles {
            assert!(c.len() >= 3);
            for i in 0..c.len() {
                let e = Edge::new(c[i], c[(i + 1) % c.len()]);
                *count.entry(e).or_insert(0) += 1;
            }
        }
        assert_eq!(count.len(), 21);
        assert!(
            count.values().all(|&c| c == 1),
            "decomposition must partition"
        );
    }

    #[test]
    fn decomposition_of_disconnected_even_graph() {
        let mut g = Graph::new(7);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)] {
            g.add_edge(a, b);
        }
        let cycles = cycle_decomposition(&g).expect("two disjoint cycles");
        assert_eq!(cycles.len(), 2);
    }
}
