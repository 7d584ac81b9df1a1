//! Builders for the graph families the paper works with.
//!
//! * the physical topology: the ring `C_n` ([`cycle`]);
//! * the logical all-to-all instance: `K_n` ([`complete`]) and the λ-fold
//!   variant `λK_n` ([`lambda_complete`]) mentioned in the paper's extension
//!   section;
//! * circulants `C_n(d_1, …, d_k)`, the natural generalization containing
//!   both (`C_n = C_n(1)`, `K_n = C_n(1..⌊n/2⌋)`);
//! * paths `P_n`, used by the path-topology variant in `cyclecover-core`.

use crate::{Graph, Vertex};

/// The complete graph `K_n`: every pair of distinct vertices joined once.
///
/// This is the paper's logical graph for the *total exchange* (All-to-All)
/// instance.
pub fn complete(n: usize) -> Graph {
    lambda_complete(n, 1)
}

/// The λ-fold complete multigraph `λK_n`: every pair joined `lambda` times.
pub fn lambda_complete(n: usize, lambda: u32) -> Graph {
    let m = if n < 2 {
        0
    } else {
        n * (n - 1) / 2 * lambda as usize
    };
    let mut g = Graph::with_capacity(n, m);
    for _ in 0..lambda {
        for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// The cycle (ring) `C_n` with edges `{i, i+1 mod n}`.
///
/// This is the paper's physical topology.
///
/// # Panics
/// Panics if `n < 3`: a ring needs at least three nodes (with two nodes the
/// "ring" would be a doubled edge and survivability degenerates).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle C_n needs n >= 3, got {n}");
    let mut g = Graph::with_capacity(n, n);
    for i in 0..n {
        g.add_edge(i as Vertex, ((i + 1) % n) as Vertex);
    }
    g
}

/// The path `P_n` with edges `{i, i+1}`, `i < n−1`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    for i in 0..n.saturating_sub(1) {
        g.add_edge(i as Vertex, (i + 1) as Vertex);
    }
    g
}

/// The circulant graph `C_n(D)`: vertex `i` joined to `i ± d (mod n)` for
/// each `d ∈ D`.
///
/// Each chord length `d` with `0 < d < n/2` contributes `n` edges; `d = n/2`
/// (even `n`) contributes the `n/2` diameters. Duplicate or out-of-range
/// chord lengths panic.
pub fn circulant(n: usize, chords: &[usize]) -> Graph {
    let mut seen = vec![false; n / 2 + 1];
    let mut g = Graph::new(n);
    for &d in chords {
        assert!(
            d >= 1 && d <= n / 2,
            "chord length {d} out of range for n={n}"
        );
        assert!(!seen[d], "duplicate chord length {d}");
        seen[d] = true;
        if d < n - d {
            for i in 0..n {
                g.add_edge(i as Vertex, ((i + d) % n) as Vertex);
            }
        } else {
            // d == n/2: diameters, each counted once.
            for i in 0..n / 2 {
                g.add_edge(i as Vertex, ((i + d) % n) as Vertex);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_counts() {
        for n in 0..12 {
            let g = complete(n);
            assert_eq!(g.vertex_count(), n);
            assert_eq!(g.edge_count(), if n < 2 { 0 } else { n * (n - 1) / 2 });
            assert!(g.is_simple());
            if n >= 2 {
                assert_eq!(g.min_degree(), n - 1);
                assert_eq!(g.max_degree(), n - 1);
            }
        }
    }

    #[test]
    fn lambda_complete_multiplicity() {
        let g = lambda_complete(5, 3);
        assert_eq!(g.edge_count(), 30);
        assert_eq!(g.edge_multiplicity(1, 4), 3);
        assert_eq!(g.degree(0), 12);
    }

    #[test]
    fn cycle_structure() {
        let g = cycle(7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.all_degrees_even());
        assert!(g.has_edge(6, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn cycle_too_small() {
        let _ = cycle(2);
    }

    #[test]
    fn path_structure() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(0).edge_count(), 0);
    }

    #[test]
    fn circulant_equals_complete() {
        // K_7 = C_7(1,2,3); K_8 = C_8(1,2,3,4) with 4 = diameter class.
        let chords: Vec<usize> = (1..=3).collect();
        let g = circulant(7, &chords);
        assert_eq!(g.edge_count(), 21);
        assert!(g.is_simple());
        let chords: Vec<usize> = (1..=4).collect();
        let g = circulant(8, &chords);
        assert_eq!(g.edge_count(), 28);
        assert!(g.is_simple());
    }

    #[test]
    fn circulant_ring_is_cycle() {
        let g = circulant(9, &[1]);
        assert_eq!(g.edge_count(), 9);
        assert!(g.has_edge(8, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate chord")]
    fn circulant_rejects_duplicates() {
        let _ = circulant(9, &[2, 2]);
    }
}
