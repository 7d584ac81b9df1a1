//! # cyclecover-workload
//!
//! Traffic-instance generators. The paper analyzes the all-to-all
//! instance (`I = K_n`) and closes by naming "more general logical
//! graphs" as open; the general-instance machinery needs realistic
//! demand structure to exercise it (`tests/extensions_proptests.rs`,
//! `bench_service`, `bench_daemon` and the repository benchmark). Every
//! generator returns a simple logical [`Graph`] on `0..n` whose edges
//! are the (symmetric) requests, matching the paper's symmetric-demand
//! model.
//!
//! Generators are deterministic given the caller-supplied RNG, so
//! experiments are reproducible by seed.
//!
//! * [`all_to_all`] — the paper's `K_n`;
//! * [`uniform_random`] — Erdős–Rényi demands, `G(n, p)`;
//! * [`permutation`] — each node talks to exactly one partner (the
//!   classic "permutation traffic" of interconnection-network studies);
//! * [`hotspot`] — a few servers attract most demands (client–server);
//! * [`gravity`] — demand probability ∝ node-weight product, the
//!   standard telecom traffic-matrix model;
//! * [`locality`] — requests only between ring-nearby nodes (metro
//!   traffic with distance falloff).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cyclecover_graph::{builders, Graph};
use rand::seq::SliceRandom;
use rand::Rng;

/// The paper's all-to-all instance, `K_n`.
pub fn all_to_all(n: usize) -> Graph {
    builders::complete(n)
}

/// Each possible request appears independently with probability `p`.
///
/// # Panics
/// Panics unless `0.0 ≤ p ≤ 1.0`.
pub fn uniform_random(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    let mut g = Graph::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Permutation traffic: a uniformly random perfect matching on the
/// nodes (for odd `n`, one node stays silent). Every node has degree
/// ≤ 1 — the sparsest nontrivial instance, a stress test for phantom
/// chords in the general-instance coverings.
pub fn permutation(n: usize, rng: &mut impl Rng) -> Graph {
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    nodes.shuffle(rng);
    let mut g = Graph::new(n);
    for pair in nodes.chunks_exact(2) {
        g.add_edge(pair[0], pair[1]);
    }
    g
}

/// Hotspot traffic: the first `hubs` nodes are servers. Each
/// client–server pair gets a request with probability `p_hub`; each
/// client–client pair with the (much smaller) background probability
/// `p_bg`. Server–server pairs always communicate (backbone sync).
///
/// # Panics
/// Panics if `hubs > n` or a probability is out of range.
pub fn hotspot(n: usize, hubs: usize, p_hub: f64, p_bg: f64, rng: &mut impl Rng) -> Graph {
    assert!(hubs <= n, "more hubs ({hubs}) than nodes ({n})");
    assert!((0.0..=1.0).contains(&p_hub) && (0.0..=1.0).contains(&p_bg));
    let mut g = Graph::new(n);
    let h = hubs as u32;
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let p = match (u < h, v < h) {
                (true, true) => 1.0,
                (true, false) | (false, true) => p_hub,
                (false, false) => p_bg,
            };
            if p >= 1.0 || (p > 0.0 && rng.gen_bool(p)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Gravity model: node `v` has weight `weights[v]`; request `{u, v}`
/// appears with probability `min(1, scale · w_u · w_v / (Σw)²)`.
///
/// # Panics
/// Panics if `weights.len() != n`, any weight is negative, or all are 0.
pub fn gravity(n: usize, weights: &[f64], scale: f64, rng: &mut impl Rng) -> Graph {
    assert_eq!(weights.len(), n, "need one weight per node");
    assert!(weights.iter().all(|&w| w >= 0.0), "negative weight");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "all weights zero");
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (scale * weights[u] * weights[v] / (total * total)).min(1.0);
            if p > 0.0 && rng.gen_bool(p) {
                g.add_edge(u as u32, v as u32);
            }
        }
    }
    g
}

/// Locality traffic on a ring of `n` nodes: every pair at ring distance
/// ≤ `max_dist` communicates (deterministic).
///
/// # Panics
/// Panics if `max_dist` is 0.
pub fn locality(n: usize, max_dist: u32) -> Graph {
    assert!(max_dist >= 1, "max_dist must be positive");
    let mut g = Graph::new(n);
    let nn = n as u32;
    for u in 0..nn {
        for v in (u + 1)..nn {
            let d = (v - u).min(nn - (v - u));
            if d <= max_dist {
                g.add_edge(u, v);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2001)
    }

    #[test]
    fn all_to_all_is_complete() {
        let g = all_to_all(8);
        assert_eq!(g.edge_count(), 28);
        assert!(g.is_simple());
    }

    #[test]
    fn uniform_edge_count_concentrates() {
        let g = uniform_random(40, 0.5, &mut rng());
        let m = g.edge_count() as f64;
        let expected = 0.5 * (40.0 * 39.0 / 2.0);
        assert!((m - expected).abs() < 120.0, "m={m} vs expected {expected}");
        assert!(g.is_simple());
        assert_eq!(uniform_random(10, 0.0, &mut rng()).edge_count(), 0);
        assert_eq!(uniform_random(10, 1.0, &mut rng()).edge_count(), 45);
    }

    #[test]
    fn permutation_is_a_matching() {
        for n in [6usize, 7, 12] {
            let g = permutation(n, &mut rng());
            assert_eq!(g.edge_count(), n / 2);
            for v in 0..n as u32 {
                assert!(g.degree(v) <= 1, "node {v} over-matched");
            }
        }
    }

    #[test]
    fn permutation_is_random() {
        let a = permutation(20, &mut StdRng::seed_from_u64(1));
        let b = permutation(20, &mut StdRng::seed_from_u64(2));
        assert_ne!(
            a.edges().to_vec(),
            b.edges().to_vec(),
            "different seeds should give different matchings"
        );
    }

    #[test]
    fn hotspot_servers_dominate() {
        let g = hotspot(30, 3, 0.8, 0.02, &mut rng());
        let hub_deg: usize = (0..3u32).map(|v| g.degree(v)).sum();
        let client_deg: usize = (3..30u32).map(|v| g.degree(v)).sum();
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(1, 2));
        // Average hub degree far exceeds average client degree.
        assert!(hub_deg as f64 / 3.0 > 3.0 * client_deg as f64 / 27.0);
    }

    #[test]
    fn gravity_respects_weights() {
        let mut w = vec![1.0; 20];
        w[0] = 50.0;
        w[1] = 50.0;
        let g = gravity(20, &w, 250.0, &mut rng());
        assert!(
            g.degree(0) + g.degree(1) >= g.degree(5) + g.degree(6),
            "heavy nodes should attract demand"
        );
        assert!(g.is_simple());
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn gravity_rejects_zero_weights() {
        gravity(3, &[0.0, 0.0, 0.0], 1.0, &mut rng());
    }

    #[test]
    fn locality_counts() {
        // n=8, max_dist=2: classes d=1 (8 pairs) + d=2 (8 pairs) = 16.
        let g = locality(8, 2);
        assert_eq!(g.edge_count(), 16);
        assert!(g.is_simple());
        // Diameter class counted once: n=8, max_dist=4 → 8+8+8+4 = 28 = K8.
        let full = locality(8, 4);
        assert_eq!(full.edge_count(), 28);
        assert!(full.is_simple());
        // Odd n: no diameter halving. n=7, d≤3 → 7+7+7 = 21 = K7.
        assert_eq!(locality(7, 3).edge_count(), 21);
        // max_dist beyond diameter saturates.
        assert_eq!(locality(7, 30).edge_count(), 21);
    }
}
