//! # cyclecover-core
//!
//! The primary contribution of *A Note on Cycle Covering* (Bermond, Coudert,
//! Chacon & Tillerot, SPAA 2001), reproduced as a library: minimum
//! **DRC cycle coverings** of the all-to-all instance `K_n` over the ring
//! `C_n`, with constructions for every `n`, the `ρ(n)` formulas of
//! Theorems 1–2, verification machinery, and the extensions the paper
//! sketches: λ-fold instances and general logical graphs. No topology
//! beyond the ring is built: the trees of rings, paths, grids and tori
//! its closing paragraph announces are not.
//!
//! ## The problem
//!
//! Cover all `n(n−1)/2` requests of `K_n` by cycles (subnetworks), such that
//! each cycle's requests can be routed edge-disjointly on the physical ring
//! (the Disjoint Routing Constraint), minimizing the number of cycles. The
//! minimum is `ρ(n)`:
//!
//! * **Theorem 1** — `ρ(2p+1) = p(p+1)/2`, by `p` triangles and `p(p−1)/2`
//!   quadrilaterals ([`odd::construct`] builds them in closed form).
//! * **Theorem 2** — `ρ(2p) = ⌈(p²+1)/2⌉` for `p ≥ 3`
//!   ([`even::construct`] builds coverings of exactly this size).
//!
//! The paper omits all proofs; this crate re-derives constructive proofs
//! (documented in the module docs of [`odd`] and [`even`]) and verifies them
//! machine-checked: every covering is validated by [`DrcCovering::validate`]
//! and cross-checked against the exhaustive solvers of `cyclecover-solver`
//! for small `n`.
//!
//! ## Entry points
//!
//! ```
//! use cyclecover_core::{construct_optimal, rho};
//!
//! let covering = construct_optimal(13);
//! assert_eq!(covering.len() as u64, rho(13));
//! assert!(covering.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
mod covering;
pub mod even;
pub mod general;
pub mod lambda;
pub mod odd;
pub mod small;

pub use certificate::Certificate;
pub use covering::{CoverError, CoveringStats, DrcCovering};
pub use even::Optimality;

use cyclecover_ring::Ring;

/// The paper's optimum `ρ(n)`: minimum number of cycles in a DRC-covering
/// of `K_n` over `C_n`.
///
/// * odd `n = 2p+1`: `p(p+1)/2` (Theorem 1);
/// * even `n = 2p`, `p ≥ 3`: `⌈(p²+1)/2⌉` (Theorem 2);
/// * `ρ(3) = 1`, `ρ(4) = 3` (the paper's worked example), `ρ(5) = 3`.
pub fn rho(n: u32) -> u64 {
    cyclecover_solver::lower_bound::rho_formula(n)
}

/// Builds a DRC-covering of `K_n` over `C_n` for any `n ≥ 3` — of size
/// exactly [`rho`]`(n)` for every `n` except `n ≡ 0 (mod 8), n ≥ 16`,
/// where the covering has `ρ(n)+1` cycles (use [`construct_with_status`]
/// to observe the distinction; see `even` module docs).
///
/// Dispatches to the closed-form odd construction, the parity-split even
/// construction, or the small-case table. The result always passes
/// [`DrcCovering::validate`]; construction is deterministic.
pub fn construct_optimal(n: u32) -> DrcCovering {
    let (covering, status) = construct_with_status(n);
    debug_assert!(
        covering.validate().is_ok(),
        "construction invalid for n={n}"
    );
    match status {
        Optimality::Optimal => debug_assert_eq!(covering.len() as u64, rho(n)),
        Optimality::Excess(x) => debug_assert_eq!(covering.len() as u64, rho(n) + x as u64),
    }
    covering
}

/// As [`construct_optimal`], also reporting whether the covering is
/// certified minimum. The only inputs currently yielding
/// [`Optimality::Excess`] are `n ≡ 0 (mod 8)`, `n ≥ 16` — see the
/// [`even`] module docs for the documented reproduction gap.
pub fn construct_with_status(n: u32) -> (DrcCovering, Optimality) {
    assert!(n >= 3, "need n >= 3, got {n}");
    if n <= 6 {
        (small::construct(n), Optimality::Optimal)
    } else if n % 2 == 1 {
        (odd::construct(n), Optimality::Optimal)
    } else {
        even::construct_with_status(n)
    }
}

/// Convenience: the ring `C_n` used by all constructions.
pub fn ring(n: u32) -> Ring {
    Ring::new(n)
}
