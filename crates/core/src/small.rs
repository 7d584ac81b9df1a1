//! Hand-verified optimal coverings for the smallest rings (`n ≤ 6`).
//!
//! * `n = 3, 5` — Theorem 1 applies; delegate to the odd construction.
//! * `n = 4` — the paper's worked example: `ρ(4) = 3`, one C4 + two C3
//!   (`(1,2,3,4)`, `(1,2,4)`, `(1,3,4)` in the paper's 1-based labels).
//! * `n = 6` — `ρ(6) = 5 = ⌈(3²+1)/2⌉` with the Theorem-2 composition
//!   `2 C3 + 3 C4`; the explicit covering below was derived by hand and
//!   is machine-verified in the tests.

use crate::{odd, DrcCovering};
use cyclecover_ring::{Ring, Tile};

/// Optimal covering for `3 ≤ n ≤ 6`.
///
/// # Panics
/// Panics for `n` outside `3..=6`.
pub fn construct(n: u32) -> DrcCovering {
    match n {
        3 | 5 => odd::construct(n),
        4 => {
            let ring = Ring::new(4);
            DrcCovering::from_tiles(
                ring,
                vec![
                    // The paper's covering, 0-based: (0,1,2,3), (0,1,3), (0,2,3).
                    Tile::from_vertices(ring, vec![0, 1, 2, 3]),
                    Tile::from_vertices(ring, vec![0, 1, 3]),
                    Tile::from_vertices(ring, vec![0, 2, 3]),
                ],
            )
        }
        6 => {
            let ring = Ring::new(6);
            DrcCovering::from_tiles(
                ring,
                vec![
                    // 2 C3 + 3 C4 (Theorem 2 composition for n = 4q+2, q=1).
                    Tile::from_vertices(ring, vec![0, 1, 3]),
                    Tile::from_vertices(ring, vec![1, 4, 5]),
                    Tile::from_vertices(ring, vec![2, 3, 4, 5]),
                    Tile::from_vertices(ring, vec![0, 2, 3, 5]),
                    Tile::from_vertices(ring, vec![0, 1, 2, 4]),
                ],
            )
        }
        _ => panic!("small-case table covers n in 3..=6, got {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_solver::lower_bound::rho_formula;

    #[test]
    fn all_small_cases_valid_and_optimal() {
        for n in 3u32..=6 {
            let cover = construct(n);
            assert_eq!(cover.len() as u64, rho_formula(n), "n={n}");
            cover.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn n6_matches_theorem2_composition() {
        let stats = construct(6).stats();
        assert_eq!(stats.c3, 2);
        assert_eq!(stats.c4, 3);
        // 2·3 + 3·4 = 18 chord slots over 15 requests: exactly p = 3
        // requests are doubled.
        assert_eq!(stats.overlapped_requests, 3);
    }

    #[test]
    fn n4_is_paper_example() {
        let stats = construct(4).stats();
        assert_eq!(stats.c3, 2);
        assert_eq!(stats.c4, 1);
    }
}
