//! Optimality certificates: the reproduction's verification story as a
//! first-class object.
//!
//! A [`Certificate`] bundles, for one ring size `n`: the constructed
//! covering, the independent validation verdict, the capacity lower bound,
//! the claimed `ρ(n)`, and the optimality status. The theorem tables
//! (`table_theorem1`, `table_theorem2`) report the same facts; tests
//! assert their internal consistency so a regression anywhere in the
//! stack (constructions, validation, bounds) surfaces as a broken
//! certificate.

use crate::{construct_with_status, rho, DrcCovering, Optimality};
use cyclecover_solver::lower_bound::{capacity_lower_bound, combinatorial_lower_bound};

/// A self-contained record of what was built and what was proved for one
/// ring size.
pub struct Certificate {
    /// Ring size.
    pub n: u32,
    /// The constructed covering (validated during establishment).
    pub covering: DrcCovering,
    /// The capacity lower bound `⌈Σdist/n⌉`.
    pub capacity_bound: u64,
    /// The best combinatorial lower bound implemented.
    pub combinatorial_bound: u64,
    /// The paper's claimed optimum.
    pub claimed_rho: u64,
    /// Whether the construction meets the claim.
    pub status: Optimality,
}

impl Certificate {
    /// Builds and verifies the certificate for `n ≥ 3`.
    ///
    /// # Panics
    /// Panics if any internal consistency check fails — a certificate that
    /// cannot be established is a bug by definition.
    pub fn establish(n: u32) -> Self {
        let (covering, status) = construct_with_status(n);
        covering
            .validate()
            .unwrap_or_else(|e| panic!("certificate {n}: invalid covering: {e}"));
        let claimed_rho = rho(n);
        let capacity_bound = capacity_lower_bound(n);
        let combinatorial_bound = combinatorial_lower_bound(n);
        assert!(
            capacity_bound <= claimed_rho,
            "bound exceeds claim at n={n}"
        );
        match status {
            Optimality::Optimal => {
                assert_eq!(covering.len() as u64, claimed_rho, "size mismatch at n={n}")
            }
            Optimality::Excess(x) => assert_eq!(
                covering.len() as u64,
                claimed_rho + x as u64,
                "excess mismatch at n={n}"
            ),
        }
        Certificate {
            n,
            covering,
            capacity_bound,
            combinatorial_bound,
            claimed_rho,
            status,
        }
    }

    /// Whether the claim is matched by the construction *and* pinched by
    /// the capacity bound (a complete optimality proof without search).
    pub fn proven_by_counting(&self) -> bool {
        matches!(self.status, Optimality::Optimal) && self.capacity_bound == self.claimed_rho
    }

    /// Whether the claim is matched but the proof needs the parity
    /// refinement (`capacity + 1`), certified by exhaustive search on
    /// small `n` (experiment E4).
    pub fn needs_parity_refinement(&self) -> bool {
        matches!(self.status, Optimality::Optimal) && self.capacity_bound + 1 == self.claimed_rho
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let verdict = match self.status {
            Optimality::Optimal if self.proven_by_counting() => "OPTIMAL (counting proof)",
            Optimality::Optimal => "OPTIMAL (parity refinement)",
            Optimality::Excess(_) => "upper bound only (documented gap)",
        };
        format!(
            "n={}: built {} cycles, rho {}, capacity LB {} — {verdict}",
            self.n,
            self.covering.len(),
            self.claimed_rho,
            self.capacity_bound
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificates_establish_across_classes() {
        for n in [3u32, 4, 7, 8, 10, 12, 16, 25, 26, 28] {
            let c = Certificate::establish(n);
            assert_eq!(c.n, n);
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn odd_certificates_are_counting_proofs() {
        for n in [5u32, 9, 15, 33, 101] {
            assert!(Certificate::establish(n).proven_by_counting(), "n={n}");
        }
    }

    #[test]
    fn even_p_even_certificates_need_refinement() {
        // n = 8: optimal, capacity + 1.
        let c = Certificate::establish(8);
        assert!(c.needs_parity_refinement());
        assert!(!c.proven_by_counting());
        // n = 12 (p = 6 even): same shape.
        let c = Certificate::establish(12);
        assert!(c.needs_parity_refinement());
    }

    #[test]
    fn even_p_odd_certificates_are_counting_proofs() {
        for n in [10u32, 14, 18, 22] {
            assert!(Certificate::establish(n).proven_by_counting(), "n={n}");
        }
    }

    #[test]
    fn gap_certificates_report_upper_bound_only() {
        let c = Certificate::establish(24);
        assert!(matches!(c.status, Optimality::Excess(1)));
        assert!(c.summary().contains("documented gap"));
    }
}
