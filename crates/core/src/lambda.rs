//! λ-fold instances: covering `λK_n` (the paper's first listed extension).
//!
//! The note closes: *"As an extension of this problem, we are now
//! investigating cases with other communication instances such as λK_n."*
//! This module provides the natural baseline the investigation starts
//! from:
//!
//! * `ρ_λ(n) ≤ λ·ρ(n)` — concatenate `λ` copies of the optimal simple
//!   covering ([`construct`]);
//! * `ρ_λ(n) ≥ ⌈λ·Σdist/n⌉` — the capacity bound scales linearly
//!   ([`capacity_lower_bound`]).
//!
//! For odd `n` the two meet (`Σdist/n` is an integer and the simple
//! covering is a partition routed on shortest paths), so
//! `ρ_λ(2p+1) = λ·p(p+1)/2` exactly. For even `n` and even `λ` the scaled
//! capacity bound is `λ·p²/2`, one *below* `λ·ρ(n)` per copy-pair — whether
//! coverings can exploit this is exactly the open question the paper
//! gestures at; `cyclecover solve <n> --lambda <λ>` probes it with the
//! exact solver on small `n`.

use crate::{construct_optimal, DrcCovering};
use cyclecover_ring::Ring;

/// Builds a DRC covering of `λK_n` (every request covered ≥ `λ` times)
/// with `λ ·ρ(n)`-ish cycles by repeating the optimal simple covering.
///
/// # Panics
/// Panics if `lambda == 0` or `n < 3`.
pub fn construct(n: u32, lambda: u32) -> DrcCovering {
    assert!(lambda >= 1, "lambda must be >= 1");
    let base = construct_optimal(n);
    let ring = base.ring();
    let mut tiles = Vec::with_capacity(base.len() * lambda as usize);
    for _ in 0..lambda {
        tiles.extend(base.tiles().iter().cloned());
    }
    DrcCovering::from_tiles(ring, tiles)
}

/// Capacity lower bound for `λK_n`: `⌈λ · Σ_{u<v} dist(u,v) / n⌉`.
pub fn capacity_lower_bound(n: u32, lambda: u32) -> u64 {
    let ring = Ring::new(n);
    (lambda as u64 * ring.total_pair_distance()).div_ceil(n as u64)
}

/// Upper bound from copy-concatenation: `λ · ρ(n)`.
pub fn upper_bound(n: u32, lambda: u32) -> u64 {
    lambda as u64 * crate::rho(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_coverings_cover_lambda_times() {
        for (n, lambda) in [(7u32, 2u32), (9, 3), (10, 2), (12, 4)] {
            let cover = construct(n, lambda);
            assert!(cover.coverage().covers_complete(lambda), "n={n} λ={lambda}");
            assert_eq!(cover.len() as u64, lambda as u64 * crate::rho(n) + bonus(n));
        }
    }

    fn bonus(_n: u32) -> u64 {
        0 // construct_optimal is exactly rho(n) on all tested n here
    }

    #[test]
    fn bounds_bracket() {
        for n in [5u32, 7, 9, 10, 12, 14] {
            for lambda in 1..=4 {
                let lb = capacity_lower_bound(n, lambda);
                let ub = upper_bound(n, lambda);
                assert!(lb <= ub, "n={n} λ={lambda}");
            }
        }
    }

    /// Odd n: bounds meet — the λ-fold problem is solved exactly.
    #[test]
    fn odd_n_tight() {
        for p in 1u64..=20 {
            let n = (2 * p + 1) as u32;
            for lambda in 1..=5u32 {
                assert_eq!(
                    capacity_lower_bound(n, lambda),
                    upper_bound(n, lambda),
                    "n={n} λ={lambda}"
                );
            }
        }
    }

    /// Even n, even λ: the scaled capacity bound dips below λ·ρ(n) —
    /// the open gap the paper's extension section points to.
    #[test]
    fn even_n_gap_exists() {
        for p in [3u64, 4, 5, 6] {
            let n = (2 * p) as u32;
            let gap = upper_bound(n, 2) as i64 - capacity_lower_bound(n, 2) as i64;
            assert!(gap >= 1, "n={n}: expected slack in λ=2 bounds");
        }
    }
}
