//! # cyclecover-design
//!
//! Classical covering-design substrate — the literature the paper builds
//! on (its references \[2\] Bermond, \[6\] Mills–Mullin, \[7\] Stanton–Rogers):
//! coverings of `K_n` by small cycles *without* the routing constraint.
//!
//! Why this matters for the reproduction: a triangle is DRC-routable on
//! *any* ring (three points on a circle are always in circular order), so
//! every triangle covering of `K_n` is automatically a DRC covering — the
//! pre-existing design-theory machinery is the natural baseline the
//! paper's mixed C3/C4 constructions are measured against
//! (`tests/construction_vs_solver.rs`). The minimum triangle covering has
//! `C(n,3,2) = ⌈n/3 · ⌈(n−1)/2⌉⌉` triangles (Mills–Mullin / Stanton–Rogers,
//! with the single exception `n = 5` needing one more), about `n²/6`
//! versus the paper's `ρ(n) ≈ n²/8` — the DRC-aware mix wins by ~4/3.
//!
//! Provided here:
//! * [`triangle_covering_number`] — the exact `C(n,3,2)` formula;
//! * [`bose_steiner_triple_system`] — Bose's classical construction of a
//!   Steiner triple system (an exact triangle *decomposition*) for
//!   `n ≡ 3 (mod 6)`;
//! * [`greedy_triangle_cover`] — a constructive covering for every `n ≥ 3`
//!   (optimal when an STS exists and we are in its residue class; within a
//!   small factor otherwise);
//! * λ-fold Schönheim bounds ([`schonheim_bound`]).
//!
//! ```
//! use cyclecover_design::{bose_steiner_triple_system, triangle_covering_number,
//!                         verify_triple_cover};
//!
//! let sts = bose_steiner_triple_system(9);
//! assert_eq!(sts.len() as u64, triangle_covering_number(9));   // STS is optimal
//! assert!(verify_triple_cover(9, &sts, 1).unwrap().is_exact(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packing;

use cyclecover_graph::{Edge, EdgeMultiset, Vertex};

/// The minimum number of triangles needed to cover all edges of `K_n`
/// (`n ≥ 3`): `⌈n/3 · ⌈(n−1)/2⌉⌉`, except `C(5,3,2) = 4`.
///
/// References [6, 7] of the paper.
pub fn triangle_covering_number(n: u64) -> u64 {
    assert!(n >= 3);
    if n == 5 {
        return 4;
    }
    // ⌈ n * ⌈(n−1)/2⌉ / 3 ⌉
    (n * (n - 1).div_ceil(2)).div_ceil(3)
}

/// The Schönheim lower bound for λ-fold triple coverings
/// `C_λ(n, 3, 2) ≥ ⌈n/3 · ⌈λ(n−1)/2⌉⌉`.
pub fn schonheim_bound(n: u64, lambda: u64) -> u64 {
    assert!(n >= 3 && lambda >= 1);
    (n * (lambda * (n - 1)).div_ceil(2)).div_ceil(3)
}

/// Bose's construction of a Steiner triple system of order `n ≡ 3 (mod 6)`:
/// a set of `n(n−1)/6` triangles covering every edge of `K_n` exactly once.
///
/// Vertices are `(i, k) ∈ Z_t × Z_3` encoded as `3i + k`, where `t = n/3`
/// (odd). Triples:
/// * `{(i,0), (i,1), (i,2)}` for each `i`;
/// * `{(i,k), (j,k), (⌈(i+j)/2⌉ mod t, k+1)}` for `i < j`, each `k`,
///   where the "half" uses the unique solution of `2x ≡ i+j (mod t)`.
///
/// # Panics
/// Panics if `n % 6 != 3`.
pub fn bose_steiner_triple_system(n: usize) -> Vec<[Vertex; 3]> {
    assert!(
        n >= 3 && n % 6 == 3,
        "Bose construction needs n ≡ 3 (mod 6), got {n}"
    );
    let t = n / 3; // odd
    let half = |x: usize| -> usize {
        // unique solution of 2y ≡ x (mod t), t odd
        if x.is_multiple_of(2) {
            x / 2
        } else {
            (x + t) / 2
        }
    };
    let enc = |i: usize, k: usize| -> Vertex { (3 * i + k) as Vertex };
    let mut triples = Vec::with_capacity(n * (n - 1) / 6);
    for i in 0..t {
        triples.push([enc(i, 0), enc(i, 1), enc(i, 2)]);
    }
    for i in 0..t {
        for j in (i + 1)..t {
            let m = half((i + j) % t);
            for k in 0..3 {
                triples.push([enc(i, k), enc(j, k), enc(m, (k + 1) % 3)]);
            }
        }
    }
    triples
}

/// Solves Heffter's difference problem for order `t` by backtracking:
/// partition `{1, …, 3t}` into `t` triples `(a, b, c)` with `a + b = c` or
/// `a + b + c = 6t + 1`. A solution yields a *cyclic* Steiner triple
/// system of order `6t+1` via [`cyclic_steiner_triple_system`].
///
/// Solutions exist for every `t ≥ 1` (Peltesohn 1939); the search is
/// instantaneous for the orders a covering library meets in practice.
pub fn heffter_difference_triples(t: usize) -> Option<Vec<[u32; 3]>> {
    let m = 3 * t;
    let v = 6 * t + 1;
    let mut used = vec![false; m + 1];
    let mut triples = Vec::with_capacity(t);
    fn rec(used: &mut Vec<bool>, triples: &mut Vec<[u32; 3]>, m: usize, v: usize) -> bool {
        // first unused difference
        let a = match (1..=m).find(|&x| !used[x]) {
            None => return true,
            Some(a) => a,
        };
        used[a] = true;
        for b in (a + 1)..=m {
            if used[b] {
                continue;
            }
            for c in [a + b, v - a - b] {
                if c > b && c <= m && !used[c] && c != b {
                    used[b] = true;
                    used[c] = true;
                    triples.push([a as u32, b as u32, c as u32]);
                    if rec(used, triples, m, v) {
                        return true;
                    }
                    triples.pop();
                    used[b] = false;
                    used[c] = false;
                }
            }
        }
        used[a] = false;
        false
    }
    if rec(&mut used, &mut triples, m, v) {
        Some(triples)
    } else {
        None
    }
}

/// A *cyclic* Steiner triple system of order `n ≡ 1 (mod 6)`: base blocks
/// `{0, a, a+b}` (one per Heffter difference triple) developed through all
/// `n` rotations. Complements [`bose_steiner_triple_system`] (which covers
/// `n ≡ 3 (mod 6)`), so optimal triangle decompositions are constructible
/// for every admissible STS order.
///
/// # Panics
/// Panics if `n % 6 != 1` or `n < 7`.
pub fn cyclic_steiner_triple_system(n: usize) -> Vec<[Vertex; 3]> {
    assert!(
        n >= 7 && n % 6 == 1,
        "cyclic STS needs n ≡ 1 (mod 6), n ≥ 7, got {n}"
    );
    let t = n / 6;
    let triples =
        heffter_difference_triples(t).expect("Heffter solutions exist for every t (Peltesohn)");
    let mut blocks = Vec::with_capacity(n * t);
    for &[a, b, _c] in &triples {
        for r in 0..n as u32 {
            let x = r;
            let y = (r + a) % n as u32;
            let z = (r + a + b) % n as u32;
            let mut blk = [x, y, z];
            blk.sort_unstable();
            blocks.push(blk);
        }
    }
    blocks
}

/// A greedy triangle covering of `K_n`: scans edges lexicographically and
/// closes each uncovered edge `{u,v}` with the third vertex `w` maximizing
/// the number of other uncovered edges absorbed.
///
/// Always returns a valid covering; for `n ≡ 3 (mod 6)` prefer
/// [`bose_steiner_triple_system`] (exact optimum).
pub fn greedy_triangle_cover(n: usize) -> Vec<[Vertex; 3]> {
    assert!(n >= 3);
    let mut cov = EdgeMultiset::new(n);
    let mut triangles = Vec::new();
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            if cov.count(Edge::new(u, v)) > 0 {
                continue;
            }
            // pick w covering most uncovered edges among {u,w}, {v,w}
            let mut best = None;
            let mut best_gain = -1i32;
            for w in 0..n as Vertex {
                if w == u || w == v {
                    continue;
                }
                let gain = i32::from(cov.count(Edge::new(u, w)) == 0)
                    + i32::from(cov.count(Edge::new(v, w)) == 0);
                if gain > best_gain {
                    best_gain = gain;
                    best = Some(w);
                }
            }
            let w = best.expect("n >= 3");
            cov.insert(Edge::new(u, v));
            cov.insert(Edge::new(u, w));
            cov.insert(Edge::new(v, w));
            let mut t = [u, v, w];
            t.sort_unstable();
            triangles.push(t);
        }
    }
    triangles
}

/// Validates that `triples` covers every edge of `K_n` at least `lambda`
/// times; returns the coverage multiset for further inspection.
pub fn verify_triple_cover(n: usize, triples: &[[Vertex; 3]], lambda: u32) -> Option<EdgeMultiset> {
    let mut cov = EdgeMultiset::new(n);
    for t in triples {
        cov.insert(Edge::new(t[0], t[1]));
        cov.insert(Edge::new(t[0], t[2]));
        cov.insert(Edge::new(t[1], t[2]));
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
    fn covering_number_formula() {
        assert_eq!(triangle_covering_number(3), 1);
        assert_eq!(triangle_covering_number(4), 3);
        assert_eq!(triangle_covering_number(5), 4);
        assert_eq!(triangle_covering_number(6), 6);
        assert_eq!(triangle_covering_number(7), 7);
        assert_eq!(triangle_covering_number(9), 12);
        assert_eq!(triangle_covering_number(13), 26);
    }

    #[test]
    fn schonheim_reduces_to_covering_number() {
        for n in [7u64, 9, 13, 15] {
            assert_eq!(schonheim_bound(n, 1), triangle_covering_number(n));
        }
    }

    #[test]
    fn bose_is_exact_decomposition() {
        for n in [9usize, 15, 21, 33, 45] {
            let triples = bose_steiner_triple_system(n);
            assert_eq!(triples.len(), n * (n - 1) / 6, "triple count at n={n}");
            let cov = verify_triple_cover(n, &triples, 1).expect("covers");
            assert!(
                cov.is_exact(1),
                "n={n}: STS must cover each edge exactly once"
            );
        }
    }

    #[test]
    #[should_panic(expected = "n ≡ 3 (mod 6)")]
    fn bose_rejects_wrong_residue() {
        let _ = bose_steiner_triple_system(13);
    }

    #[test]
    fn heffter_triples_exist_and_partition() {
        for t in 1usize..=12 {
            let triples = heffter_difference_triples(t).expect("Peltesohn");
            assert_eq!(triples.len(), t);
            let mut seen = vec![false; 3 * t + 1];
            for &[a, b, c] in &triples {
                for d in [a, b, c] {
                    assert!(!seen[d as usize], "t={t}: difference {d} reused");
                    seen[d as usize] = true;
                }
                let v = (6 * t + 1) as u32;
                assert!(a + b == c || a + b + c == v, "t={t}: bad triple");
            }
            assert!(seen[1..].iter().all(|&x| x), "t={t}: not a partition");
        }
    }

    #[test]
    fn cyclic_sts_is_exact_decomposition() {
        for n in [7usize, 13, 19, 25, 31, 37, 43] {
            let blocks = cyclic_steiner_triple_system(n);
            assert_eq!(blocks.len(), n * (n - 1) / 6, "block count at n={n}");
            let cov = verify_triple_cover(n, &blocks, 1).expect("covers");
            assert!(cov.is_exact(1), "n={n}: cyclic STS must be exact");
        }
    }

    #[test]
    #[should_panic(expected = "n ≡ 1 (mod 6)")]
    fn cyclic_sts_rejects_wrong_residue() {
        let _ = cyclic_steiner_triple_system(9);
    }

    #[test]
    fn greedy_always_covers_and_is_close() {
        for n in 3usize..=30 {
            let triples = greedy_triangle_cover(n);
            assert!(verify_triple_cover(n, &triples, 1).is_some(), "n={n}");
            let opt = triangle_covering_number(n as u64);
            assert!(
                (triples.len() as u64) <= opt + opt / 2 + 2,
                "n={n}: greedy {} vs optimal {opt}",
                triples.len()
            );
        }
    }

    /// Greedy matches the exact optimum on STS orders small enough to eyeball.
    #[test]
    fn greedy_matches_bose_count_on_n9() {
        let greedy = greedy_triangle_cover(9);
        assert!(greedy.len() >= 12);
        assert!(
            greedy.len() <= 14,
            "greedy on K9 should be near 12, got {}",
            greedy.len()
        );
    }
}
