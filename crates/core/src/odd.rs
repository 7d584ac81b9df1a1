//! Theorem 1: the closed-form optimal DRC-covering for odd `n = 2p+1`.
//!
//! The paper states `ρ(2p+1) = p(p+1)/2` with a covering of `p` C3 and
//! `p(p−1)/2` C4 — proof omitted. This module contains the constructive
//! proof derived for this reproduction.
//!
//! ## Derivation
//!
//! **Rigidity.** The capacity bound gives `ρ ≥ ⌈Σ dist / n⌉ = p(p+1)/2`.
//! For a covering *meeting* the bound every inequality is tight: every cycle
//! uses all `n` ring edges, every request is routed on its (unique, `n` odd)
//! shortest path, and no request is covered twice. Consequently every cycle
//! is a winding tile all of whose gaps are ≤ `p`, and the covering is an
//! exact *partition* of `E(K_n)`: equivalently, writing the chord of
//! distance `d` starting at ring position `v` as the *interval* `(v, d)`,
//! the tiles must use every interval `(v, d)`, `v ∈ Z_n`, `d ∈ 1..=p`,
//! **exactly once**.
//!
//! **Construction.** All arithmetic is mod `n = 2p+1`. We take:
//!
//! * triangles `T(d)`, `d ∈ 1..=p`, with gap sequence `(p, d, p+1−d)`
//!   starting at offset `t(d) = p·(d−1)`;
//! * formal quads `Q(d,e)`, `(d,e) ∈ [1..p] × [1..p−1]`, with gap sequence
//!   `(d, e, p+1−d, p−e)` starting at offset `s(d,e) = p·(d+e)`.
//!
//! Rotating `Q(d,e)` by two positions yields the gap sequence of
//! `Q(p+1−d, p−e)` at offset `s(d,e)+d+e`; one checks
//! `s(p+1−d, p−e) = s(d,e)+d+e (mod n)` holds for the formula above, so the
//! formal quads collapse **in pairs** onto `p(p−1)/2` distinct tiles (the
//! pairing `(d,e) ↔ (p+1−d, p−e)` is fixed-point-free because `2d = p+1`
//! and `2e = p` cannot both hold).
//!
//! **Exactness.** Fix a distance class `c ≤ p−1` and write `u = p+1 = 2⁻¹`,
//! noting `p ≡ −u (mod n)`. The class-`c` intervals used are:
//! first-slots `s(c,e) = p·c + p·e` (`e ∈ 1..p−1`), second-slots
//! `s(d,c)+d = p·c + (p+1)d` (`d ∈ 1..p`), and the two triangle slots
//! `t(c)+p` and `t(p+1−c)−c`. The quad slots are
//! `pc + u·{−(p−1)..−1}` and `pc + u·{1..p}`, i.e. `pc + u·x` for
//! `x ∈ {−(p−1), …, p} ∖ {0}` — `2p−1` distinct values whose complement in
//! `Z_n` is `{pc, pc − up}`; the two triangle slots equal exactly these two
//! values. Class `p` is checked the same way: multiplying the used offsets
//! by `p⁻¹` yields `{0..2p−1}` from triangles and quads plus
//! `p⁻¹(p+1) ≡ 2p` from `t(1)+p+1`, covering `Z_n`. Hence every interval is
//! used exactly once, so the tiles partition `E(K_n)` and the covering is
//! optimal. ∎
//!
//! The module tests machine-check every claim for all odd `n ≤ 301` (and
//! the crate's property tests push further).

use crate::DrcCovering;
use cyclecover_ring::{Ring, Tile};

/// Builds the Theorem-1 covering of `K_n` over `C_n` for odd `n ≥ 3`:
/// exactly `p` triangles and `p(p−1)/2` quads forming an exact partition of
/// `E(K_n)`, where `p = (n−1)/2`.
///
/// Runs in `O(n²)` time — linear in the output size.
///
/// # Panics
/// Panics if `n` is even or `< 3`.
pub fn construct(n: u32) -> DrcCovering {
    assert!(
        n >= 3 && n % 2 == 1,
        "odd construction needs odd n >= 3, got {n}"
    );
    let ring = Ring::new(n);
    let p = (n - 1) / 2;
    let mut tiles = Vec::with_capacity((p as usize * (p as usize + 1)) / 2);

    // Triangles T(d): gaps (p, d, p+1−d) at offset t(d) = p(d−1).
    for d in 1..=p {
        let t = ring.reduce(p as u64 * (d as u64 - 1));
        tiles.push(Tile::from_gaps(ring, t, &[p, d, p + 1 - d]));
    }

    // Quads Q(d,e): gaps (d, e, p+1−d, p−e) at offset s = p(d+e); generate
    // one representative per identified pair {(d,e), (p+1−d, p−e)}.
    for d in 1..=p {
        for e in 1..p {
            // Representative: the lexicographically smaller of the pair.
            let partner = (p + 1 - d, p - e);
            if (d, e) > partner {
                continue;
            }
            let s = ring.reduce(p as u64 * (d as u64 + e as u64));
            tiles.push(Tile::from_gaps(ring, s, &[d, e, p + 1 - d, p - e]));
        }
    }

    DrcCovering::from_tiles(ring, tiles)
}

/// Expected cycle counts for odd `n = 2p+1` per Theorem 1:
/// `(p C3, p(p−1)/2 C4)`.
pub fn expected_composition(n: u32) -> (u64, u64) {
    assert!(n % 2 == 1);
    let p = ((n - 1) / 2) as u64;
    (p, p * (p - 1) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_solver::lower_bound::rho_formula;

    /// The full Theorem-1 verification: for every odd n ≤ 301 the
    /// construction has exactly rho(n) cycles with the paper's composition,
    /// covers K_n, and is an exact partition.
    #[test]
    fn theorem1_verified_up_to_301() {
        for p in 1u32..=150 {
            let n = 2 * p + 1;
            let cover = construct(n);
            assert_eq!(cover.len() as u64, rho_formula(n), "count at n={n}");
            cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert!(cover.is_exact_decomposition(1), "n={n} not a partition");
            let stats = cover.stats();
            let (c3, c4) = expected_composition(n);
            assert_eq!(stats.c3 as u64, c3, "C3 count at n={n}");
            assert_eq!(stats.c4 as u64, c4, "C4 count at n={n}");
            assert_eq!(stats.longer, 0);
            assert_eq!(stats.overlapped_requests, 0);
        }
    }

    /// Every gap of every tile is ≤ p: all requests ride shortest paths
    /// (the rigidity property the optimality argument needs).
    #[test]
    fn all_shortest_path_routing() {
        for n in [7u32, 15, 29, 61] {
            let ring = Ring::new(n);
            let p = (n - 1) / 2;
            for t in construct(n).tiles() {
                assert!(t.max_gap(ring) <= p, "n={n}, tile {t:?}");
                assert_eq!(t.shortest_load(ring), n, "n={n}: tile must be fully loaded");
            }
        }
    }

    /// n=3: one triangle; n=5: a quad and two triangles partitioning K5.
    #[test]
    fn tiny_cases() {
        let c3 = construct(3);
        assert_eq!(c3.len(), 1);
        assert_eq!(c3.tiles()[0].vertices(), &[0, 1, 2]);

        let c5 = construct(5);
        assert_eq!(c5.len(), 3);
        assert!(c5.is_exact_decomposition(1));
        let stats = c5.stats();
        assert_eq!((stats.c3, stats.c4), (2, 1));
    }

    /// The identified-pair dedup is exact: generating all formal quads
    /// yields each tile exactly twice.
    #[test]
    fn formal_quads_pair_up() {
        for n in [9u32, 13, 21] {
            let ring = Ring::new(n);
            let p = (n - 1) / 2;
            let mut all = Vec::new();
            for d in 1..=p {
                for e in 1..p {
                    let s = ring.reduce(p as u64 * (d as u64 + e as u64));
                    all.push(Tile::from_gaps(ring, s, &[d, e, p + 1 - d, p - e]));
                }
            }
            all.sort();
            assert_eq!(all.len() % 2, 0);
            for pair in all.chunks(2) {
                assert_eq!(pair[0], pair[1], "n={n}: formal quads must pair up");
            }
            all.dedup();
            assert_eq!(all.len() as u64, (p as u64) * (p as u64 - 1) / 2);
        }
    }

    #[test]
    #[should_panic(expected = "odd construction")]
    fn rejects_even() {
        let _ = construct(8);
    }

    /// Interval exactness, checked directly: every (position, distance)
    /// interval is used exactly once across all tiles.
    #[test]
    fn interval_exactness_direct() {
        for n in [11u32, 19, 31] {
            let ring = Ring::new(n);
            let p = (n - 1) / 2;
            let mut used = vec![0u32; (n * p) as usize];
            for t in construct(n).tiles() {
                for a in t.arcs(ring) {
                    assert!(a.len() <= p);
                    used[((a.len() - 1) * n + a.start()) as usize] += 1;
                }
            }
            assert!(
                used.iter().all(|&c| c == 1),
                "n={n}: interval multiplicity != 1"
            );
        }
    }
}
