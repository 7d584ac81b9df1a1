//! 4-cycle coverings of `K_n` — the paper's reference \[2\].
//!
//! "The covering by `C_k`, `k > 3`, has been considered in \[2\], where in
//! particular, the minimum number of 4-cycles required to cover `K_n` is
//! determined" (Bermond's thèse d'État, 1975). This module rebuilds the
//! executable substance of that reference:
//!
//! * [`four_cycle_decomposition`] — an exact `C4`-decomposition of
//!   `K_n` for `n ≡ 1 (mod 8)` (the classical rotational construction;
//!   a decomposition exists *only* for this residue), of size
//!   `n(n−1)/8`;
//! * [`greedy_four_cycle_cover`] — a verified covering for every
//!   `n ≥ 4` (optimal at decomposition orders);
//! * [`four_cycle_cover_lower_bound`] — the capacity bound
//!   `⌈n(n−1)/8⌉` (each quad has 4 edges);
//! * [`verify_quad_cover`] — validation.
//!
//! Like triangles, *some* 4-cycles are DRC-routable on the ring (the
//! winding ones) and some are not — which is exactly the distinction the
//! paper's worked `K_4/C_4` example makes.

use cyclecover_graph::{Edge, EdgeMultiset, Vertex};

/// A 4-cycle as an ordered vertex quadruple `(a, b, c, d)` — edges
/// `{a,b}, {b,c}, {c,d}, {d,a}`.
pub type Quad = [Vertex; 4];

/// The capacity lower bound on 4-cycle coverings of `K_n`:
/// `⌈n(n−1)/8⌉` (a quad covers 4 of the `n(n−1)/2` edges).
pub fn four_cycle_cover_lower_bound(n: u64) -> u64 {
    assert!(n >= 4);
    (n * (n - 1) / 2).div_ceil(4)
}

/// An exact `C4`-decomposition of `K_n` for `n ≡ 1 (mod 8)`: every edge
/// in exactly one quad; `n(n−1)/8` quads — meeting
/// [`four_cycle_cover_lower_bound`] with equality.
///
/// Rotational construction over `Z_n` with `n = 8k+1`: the difference
/// classes `1..=4k` are partitioned into `k` quadruples
/// `(i, 4k+1−i, k+i, 3k+1−i)`, each with equal pair-sums
/// `s = 4k+1`; the base cycle `(0, i, s, 3k+1−i)` has exactly those four
/// edge differences, so developing it through all `n` rotations covers
/// each of the four classes exactly once.
///
/// # Panics
/// Panics if `n % 8 != 1` or `n < 9`.
pub fn four_cycle_decomposition(n: usize) -> Vec<Quad> {
    assert!(
        n >= 9 && n % 8 == 1,
        "C4 decomposition of K_n needs n ≡ 1 (mod 8), got {n}"
    );
    let k = n / 8;
    let nn = n as u32;
    let s = (4 * k + 1) as u32;
    let mut quads = Vec::with_capacity(k * n);
    for i in 1..=k as u32 {
        let base = [0u32, i, s, (3 * k as u32 + 1) - i];
        for r in 0..nn {
            quads.push([
                (base[0] + r) % nn,
                (base[1] + r) % nn,
                (base[2] + r) % nn,
                (base[3] + r) % nn,
            ]);
        }
    }
    quads
}

/// Greedy 4-cycle covering of `K_n` (`n ≥ 4`): scan edges
/// lexicographically; close each uncovered edge `{u, v}` into the quad
/// `(u, v, w, x)` absorbing the most other uncovered edges.
pub fn greedy_four_cycle_cover(n: usize) -> Vec<Quad> {
    assert!(n >= 4, "need n >= 4 for 4-cycles, got {n}");
    let mut cov = EdgeMultiset::new(n);
    let mut quads = Vec::new();
    let fresh =
        |cov: &EdgeMultiset, a: Vertex, b: Vertex| u32::from(cov.count(Edge::new(a, b)) == 0);
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            if cov.count(Edge::new(u, v)) > 0 {
                continue;
            }
            // Quad (u, v, w, x): edges {u,v},{v,w},{w,x},{x,u}.
            let mut best: Option<(Vertex, Vertex)> = None;
            let mut best_gain = 0u32;
            for w in 0..n as Vertex {
                if w == u || w == v {
                    continue;
                }
                for x in 0..n as Vertex {
                    if x == u || x == v || x == w {
                        continue;
                    }
                    let gain = fresh(&cov, v, w) + fresh(&cov, w, x) + fresh(&cov, x, u);
                    if best.is_none() || gain > best_gain {
                        best = Some((w, x));
                        best_gain = gain;
                    }
                }
            }
            let (w, x) = best.expect("n >= 4 guarantees a quad");
            for e in [(u, v), (v, w), (w, x), (x, u)] {
                cov.insert(Edge::new(e.0, e.1));
            }
            quads.push([u, v, w, x]);
        }
    }
    quads
}

/// Validates that `quads` covers every edge of `K_n` at least `lambda`
/// times (and that each quad is a genuine 4-cycle: distinct vertices);
/// returns the coverage multiset for inspection.
pub fn verify_quad_cover(n: usize, quads: &[Quad], lambda: u32) -> Option<EdgeMultiset> {
    let mut cov = EdgeMultiset::new(n);
    for q in quads {
        let mut sorted = *q;
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        for i in 0..4 {
            cov.insert(Edge::new(q[i], q[(i + 1) % 4]));
        }
    }
    if cov.covers_complete(lambda) {
        Some(cov)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_is_exact_for_all_small_orders() {
        for n in [9usize, 17, 25, 33, 41] {
            let quads = four_cycle_decomposition(n);
            assert_eq!(quads.len() as u64, (n as u64) * (n as u64 - 1) / 8, "n={n}");
            let cov = verify_quad_cover(n, &quads, 1).unwrap_or_else(|| panic!("n={n} invalid"));
            assert!(cov.is_exact(1), "n={n}: not a decomposition");
            assert_eq!(
                quads.len() as u64,
                four_cycle_cover_lower_bound(n as u64),
                "n={n}: decomposition must meet the capacity bound"
            );
        }
    }

    #[test]
    #[should_panic(expected = "n ≡ 1 (mod 8)")]
    fn decomposition_rejects_bad_residue() {
        four_cycle_decomposition(12);
    }

    #[test]
    fn greedy_covers_every_order() {
        for n in 4usize..=20 {
            let quads = greedy_four_cycle_cover(n);
            assert!(
                verify_quad_cover(n, &quads, 1).is_some(),
                "n={n}: greedy cover invalid"
            );
            let lb = four_cycle_cover_lower_bound(n as u64);
            assert!(quads.len() as u64 >= lb, "n={n}");
            assert!(
                quads.len() as u64 <= 2 * lb + 2,
                "n={n}: greedy used {} vs LB {lb}",
                quads.len()
            );
        }
    }

    #[test]
    fn greedy_matches_decomposition_size_at_sts_orders() {
        // At n ≡ 1 (mod 8) the optimum is the capacity bound; greedy
        // should stay within ~25% of it.
        let n = 17usize;
        let greedy = greedy_four_cycle_cover(n).len() as f64;
        let opt = four_cycle_cover_lower_bound(n as u64) as f64;
        assert!(greedy <= 1.4 * opt, "greedy {greedy} vs opt {opt}");
    }

    #[test]
    fn verify_rejects_degenerate_quads() {
        assert!(verify_quad_cover(5, &[[0, 1, 0, 2]], 1).is_none());
    }

    #[test]
    fn lambda_fold_verification() {
        // Doubling a decomposition gives an exact 2-fold covering.
        let mut quads = four_cycle_decomposition(9);
        quads.extend(four_cycle_decomposition(9));
        let cov = verify_quad_cover(9, &quads, 2).expect("2-fold");
        assert!(cov.is_exact(2));
    }
}
