//! Theorem 2: optimal DRC-coverings for even `n = 2p`, `p ≥ 3`.
//!
//! The paper states `ρ(2p) = ⌈(p²+1)/2⌉` — proof and construction omitted.
//! This module contains the constructions derived for this reproduction,
//! organised by the residue of `n` mod 8 (equivalently the parity of `p`
//! and of `q = p/2`). All of them share the **parity-split** skeleton:
//!
//! * *Within-parity* requests (even distance) live on the two sub-rings of
//!   even / odd positions, each isomorphic to `K_p` over `C_p` with all
//!   gaps doubled: cover them with two *lifted* copies of an optimal
//!   covering of `K_p` (recursively).
//! * *Cross-parity* requests (odd distance) are covered by explicit
//!   algebraic quad families.
//!
//! ## `n ≡ 2 (mod 4)` (`p` odd) — fully closed form
//!
//! Cross quads `Q(a,b)` with gap sequence `(a, p+1−a, b, p−1−b)` at offset
//! `−(a+b) mod n`, for odd `a ∈ [3, p]`, odd `b ∈ [1, p−2]`. A residue
//! computation (mod 2 × mod p) shows these cover every odd-distance class
//! except a *residual* of exactly `2p−1` requests:
//! a star at vertex `p`, the `(p−1)/2` "path" requests `{w, w+1}` with
//! even `w ≥ p+1`, and `(p−1)/2` diameters `{v, v+p}` with odd `v`. The
//! residual is finished by exactly `(p+1)/2` closed-form tiles:
//!
//! * `R = {1, 2, p, p+1}`,
//! * hexagons `H(u) = {u, u+1, p, p+u−2, p+u−1, p+u}` for odd `u ∈ [3, p−2]`,
//! * `Z = {0, p, 2p−2, 2p−1}`.
//!
//! Every tile carries at most one diameter (a DRC cycle cannot carry two),
//! and the star/path/diameter chords distribute perfectly. Total:
//! `2·ρ(p) + (p−1)²/4 + (p+1)/2 = ⌈(p²+1)/2⌉` — machine-verified for every
//! applicable `n ≤ ~400` by the tests and property tests.
//!
//! ## `n ≡ 4 (mod 8)` (`p ≡ 2 (mod 4)`) — fully closed form
//!
//! Cross quads `Q(a,b)` with gaps `(a, p−a, b, p−b)` at offset `−(a+b)`,
//! over all odd `a, b ∈ [1, p−1]`: exactly `q²` quads (`q = p/2`) covering
//! every cross request exactly once, no residual. Total
//! `2·ρ(p) + q² = 2q² + 1 = ⌈(p²+1)/2⌉` (using `q` odd here).
//!
//! ## `n ≡ 0 (mod 8)` (`q` even) — solver-assisted
//!
//! Here the split pays both halves' `+1` parity penalties and lands at
//! `ρ(n)+1`. The natural slack-transfer repairs inside the split cannot
//! close the gap: a pentagon chain always loses a strictly nested cross
//! chord, and no short path on `C_p` carries total distance ≥ `p`. For
//! `n = 8` we ship the covering found and certified optimal by the exact
//! branch-and-bound solver. For larger `n ≡ 0 (mod 8)` the library
//! returns the parity-split covering of size `ρ(n)+1` and reports the
//! status honestly via [`Optimality`] — mirroring the note itself, which
//! asserts Theorem 2 without constructions.
//!
//! The gap is this construction's, not Theorem 2's: the solver's
//! partition kernel certifies `ρ(16) = 33` in 43 nodes on the C ≤ 4
//! shortest-gap universe (the n = 16 `partition` row of `BENCH_10.json`).
//! That witness is not shipped here, so the shipped construction stays at
//! `ρ(n)+1`: [`construct`]`(16)` returns 34 cycles. `tests/paper_claims.rs`
//! pins the gap (`Excess` exactly at `n ≡ 0 (mod 8)`, `n ≥ 16`), and the
//! E2 table (`table_theorem2`) reports it.

use crate::{odd, small, DrcCovering};
use cyclecover_ring::{Ring, Tile};

/// Whether a returned covering is certified minimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Optimality {
    /// Size equals `ρ(n)` (matches the capacity/parity lower bound).
    Optimal,
    /// Size equals `ρ(n) + excess`: the optimum exists by Theorem 2 but no
    /// constructive witness is implemented for this `n`
    /// (`n ≡ 0 (mod 8)`, `n ≥ 16`; the excess is 1 there and compounds
    /// through the parity-split recursion for `n ≡ 0 (mod 16)`).
    Excess(u32),
}

/// Builds a DRC covering of `K_n` over `C_n` for even `n ≥ 8`; size is
/// exactly `ρ(n)` whenever `n ≢ 0 (mod 8)` or `n = 8`.
///
/// # Panics
/// Panics if `n` is odd or `< 8`.
pub fn construct(n: u32) -> DrcCovering {
    construct_with_status(n).0
}

/// As [`construct`], also reporting the optimality status.
pub fn construct_with_status(n: u32) -> (DrcCovering, Optimality) {
    assert!(
        n >= 8 && n.is_multiple_of(2),
        "even construction needs even n >= 8, got {n}"
    );
    let p = n / 2;
    if p % 2 == 1 {
        (construct_2mod4(n), Optimality::Optimal)
    } else if p % 4 == 2 {
        (construct_4mod8(n), Optimality::Optimal)
    } else {
        construct_0mod8(n)
    }
}

/// Builds the inner covering of `K_p` for the parity split.
fn inner_cover(p: u32) -> DrcCovering {
    if p <= 6 {
        small::construct(p)
    } else if p % 2 == 1 {
        odd::construct(p)
    } else {
        construct(p)
    }
}

/// Lifts a covering of `C_p` onto the even (`parity = 0`) or odd
/// (`parity = 1`) positions of `C_2p`. Winding tiles stay winding: every
/// gap doubles, and the lifted arcs tile the big ring.
fn lift(inner: &DrcCovering, big: Ring, parity: u32) -> Vec<Tile> {
    inner
        .tiles()
        .iter()
        .map(|t| Tile::from_vertices(big, t.vertices().iter().map(|&v| 2 * v + parity).collect()))
        .collect()
}

/// `n ≡ 2 (mod 4)`: closed-form construction (see module docs).
fn construct_2mod4(n: u32) -> DrcCovering {
    let p = n / 2;
    debug_assert!(p % 2 == 1 && p >= 5);
    let big = Ring::new(n);
    let inner = inner_cover(p);
    let mut tiles = lift(&inner, big, 0);
    tiles.extend(lift(&inner, big, 1));

    // Cross family: Q(a,b) = gaps (a, p+1−a, b, p−1−b) at −(a+b).
    let mut a = 3;
    while a <= p {
        let mut b = 1;
        while b <= p - 2 {
            let s = (2 * n - a - b) % n;
            tiles.push(Tile::from_gaps(big, s, &[a, p + 1 - a, b, p - 1 - b]));
            b += 2;
        }
        a += 2;
    }

    // Residual: R, H(u), Z.
    tiles.push(Tile::from_vertices(big, vec![1, 2, p, p + 1]));
    let mut u = 3;
    while u <= p - 2 {
        tiles.push(Tile::from_vertices(
            big,
            vec![u, u + 1, p, p + u - 2, p + u - 1, p + u],
        ));
        u += 2;
    }
    tiles.push(Tile::from_vertices(big, vec![0, p, 2 * p - 2, 2 * p - 1]));

    DrcCovering::from_tiles(big, tiles)
}

/// `n ≡ 4 (mod 8)`: closed-form construction (see module docs).
fn construct_4mod8(n: u32) -> DrcCovering {
    let p = n / 2;
    debug_assert!(p % 4 == 2);
    let big = Ring::new(n);
    let inner = inner_cover(p);
    let mut tiles = lift(&inner, big, 0);
    tiles.extend(lift(&inner, big, 1));

    // Cross family: Q(a,b) = gaps (a, p−a, b, p−b) at −(a+b), odd a,b.
    let mut a = 1;
    while a < p {
        let mut b = 1;
        while b < p {
            let s = (2 * n - a - b) % n;
            tiles.push(Tile::from_gaps(big, s, &[a, p - a, b, p - b]));
            b += 2;
        }
        a += 2;
    }

    DrcCovering::from_tiles(big, tiles)
}

/// `n ≡ 0 (mod 8)`: solver-found table for `n = 8`, parity-split `+1`
/// fallback beyond.
fn construct_0mod8(n: u32) -> (DrcCovering, Optimality) {
    if n == 8 {
        // Optimal 9-cycle covering found by the exact branch & bound solver
        // (cyclecover-solver) and certified by the infeasibility proof at
        // budget 8. Re-verified by this crate's tests.
        let big = Ring::new(8);
        let tiles = [
            vec![0, 1, 2, 3, 4],
            vec![1, 5, 6, 7],
            vec![0, 2, 6],
            vec![0, 3, 7],
            vec![0, 1, 3, 5],
            vec![1, 4, 6],
            vec![2, 5, 7],
            vec![3, 4, 5, 6],
            vec![0, 1, 2, 4, 7],
        ]
        .into_iter()
        .map(|v| Tile::from_vertices(big, v))
        .collect();
        return (DrcCovering::from_tiles(big, tiles), Optimality::Optimal);
    }
    // Fallback: parity split (size ρ(n) + 1, compounding recursively).
    let p = n / 2;
    let big = Ring::new(n);
    let inner = inner_cover(p);
    let mut tiles = lift(&inner, big, 0);
    tiles.extend(lift(&inner, big, 1));
    let mut a = 1;
    while a < p {
        let mut b = 1;
        while b < p {
            let s = (2 * n - a - b) % n;
            tiles.push(Tile::from_gaps(big, s, &[a, p - a, b, p - b]));
            b += 2;
        }
        a += 2;
    }
    let rho = cyclecover_solver::lower_bound::rho_formula(n);
    let excess = (tiles.len() as u64 - rho) as u32;
    (
        DrcCovering::from_tiles(big, tiles),
        Optimality::Excess(excess),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_solver::lower_bound::rho_formula;

    #[test]
    fn theorem2_2mod4_verified() {
        for p in [5u32, 7, 9, 11, 13, 21, 35, 51, 99] {
            let n = 2 * p;
            let cover = construct(n);
            assert_eq!(cover.len() as u64, rho_formula(n), "count at n={n}");
            cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn theorem2_4mod8_verified() {
        for p in [6u32, 10, 14, 22, 26, 50, 102] {
            let n = 2 * p;
            let cover = construct(n);
            assert_eq!(cover.len() as u64, rho_formula(n), "count at n={n}");
            cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn n8_table_is_valid_and_optimal() {
        let (cover, status) = construct_with_status(8);
        assert_eq!(status, Optimality::Optimal);
        assert_eq!(cover.len() as u64, rho_formula(8));
        cover.validate().expect("n=8 covering");
    }

    #[test]
    fn mod8_fallback_excess_is_reported_exactly() {
        for (n, want_excess) in [(16u32, 1u32), (24, 1), (32, 3), (40, 1), (64, 7)] {
            let (cover, status) = construct_with_status(n);
            cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            let rho = rho_formula(n);
            match status {
                Optimality::Optimal => panic!("n={n} unexpectedly optimal"),
                Optimality::Excess(x) => {
                    assert_eq!(x, want_excess, "n={n}");
                    assert_eq!(cover.len() as u64, rho + x as u64, "n={n}");
                }
            }
        }
    }

    /// Every cycle of every even construction carries at most one diameter
    /// (the structural invariant behind Theorem 2's counting).
    #[test]
    fn at_most_one_diameter_per_cycle() {
        for n in [10u32, 12, 14, 16, 20, 24] {
            let ring = Ring::new(n);
            let (cover, _) = construct_with_status(n);
            for t in cover.tiles() {
                let diams = t
                    .chords(ring)
                    .iter()
                    .filter(|c| ring.is_diameter_class(c.distance(ring)))
                    .count();
                assert!(diams <= 1, "n={n}, tile {t:?} has {diams} diameters");
            }
        }
    }
}
