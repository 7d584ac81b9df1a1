//! Availability analysis — what protection actually buys.
//!
//! The paper motivates cycle coverings with survivability, but never
//! quantifies the reliability gain. This module does, with the standard
//! telecom steady-state model: each fiber link fails independently with
//! unavailability `u = MTTR / (MTBF + MTTR)`, and a demand is *up* when
//! its traffic is deliverable. Exact analysis by failure-state
//! enumeration, truncated at double failures (triple-failure mass is
//! `O(u³)` — beyond the ~1e-9 resolution this model is used at, and the
//! truncation's residual is reported, not hidden):
//!
//! * **unprotected** — a demand dies with any link of its (shortest-arc)
//!   working path;
//! * **cycle-protected** — a demand survives every single failure (the
//!   paper's guarantee, which `cyclecover audit <n>` checks link by
//!   link); it dies only when a *pair* of failures hits both its working
//!   arc and its protection arc.
//!
//! [`availability_comparison`] reports mean demand unavailability under
//! both schemes and the improvement factor — "how many nines" the
//! covering adds (`cyclecover avail <n>` prints it).

use crate::WdmNetwork;
use cyclecover_ring::{Chord, Ring};

/// Steady-state per-link unavailability parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Mean time between failures (hours).
    pub mtbf_hours: f64,
    /// Mean time to repair (hours).
    pub mttr_hours: f64,
}

impl LinkModel {
    /// Typical long-haul fiber numbers: cuts every ~4 months, 12 h fix.
    pub fn typical_fiber() -> Self {
        LinkModel {
            mtbf_hours: 4.0 * 30.0 * 24.0,
            mttr_hours: 12.0,
        }
    }

    /// Steady-state probability the link is down.
    pub fn unavailability(&self) -> f64 {
        self.mttr_hours / (self.mtbf_hours + self.mttr_hours)
    }
}

/// Availability figures for one scheme.
#[derive(Clone, Copy, Debug)]
pub struct SchemeAvailability {
    /// Mean demand unavailability (probability a given demand is down).
    pub mean_unavailability: f64,
    /// Worst single demand unavailability.
    pub worst_unavailability: f64,
}

impl SchemeAvailability {
    /// "Number of nines" of the mean availability.
    pub fn nines(&self) -> f64 {
        -self.mean_unavailability.log10()
    }
}

/// Head-to-head availability of unprotected vs cycle-protected designs.
#[derive(Clone, Debug)]
pub struct AvailabilityComparison {
    /// Per-link unavailability used.
    pub link_unavailability: f64,
    /// Unprotected shortest-arc routing.
    pub unprotected: SchemeAvailability,
    /// The covering-based protection of `net`.
    pub protected: SchemeAvailability,
    /// Mean improvement factor (unprotected / protected unavailability).
    pub improvement: f64,
    /// Upper bound on probability mass ignored by the double-failure
    /// truncation (`C(n,3) u³`) — the analysis' honest error bar.
    pub truncation_residual: f64,
}

/// Exact-to-second-order availability analysis of `net` under `model`.
///
/// For every demand the working path is its subnetwork's assigned arc;
/// the protection path is the complement arc. Unprotected baseline: the
/// same demand routed on its shortest arc with no spare.
pub fn availability_comparison(net: &WdmNetwork, model: LinkModel) -> AvailabilityComparison {
    let ring: Ring = net.ring();
    let n = ring.n();
    let u = model.unavailability();

    // Enumerate demands with (working, protection) edge sets.
    let mut protected_pairs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut unprotected_paths: Vec<Vec<u32>> = Vec::new();
    for s in net.subnetworks() {
        for (i, d) in s.demands.iter().enumerate() {
            let work: Vec<u32> = s.arcs[i].edges(ring).collect();
            let prot: Vec<u32> = s.arcs[i].complement(ring).edges(ring).collect();
            protected_pairs.push((work, prot));
            let chord = Chord::new(ring, d.u(), d.v());
            unprotected_paths.push(chord.shortest_arc(ring).edges(ring).collect());
        }
    }

    // Unprotected: P(down) = P(any working link down) ≈ exact closed form
    // (independent links): 1 − (1−u)^len.
    let unprot = summarize(
        unprotected_paths
            .iter()
            .map(|p| 1.0 - (1.0 - u).powi(p.len() as i32)),
    );

    // Protected: up unless (some working link down) AND (some protection
    // link down). Working and protection arcs are edge-disjoint, so
    // P(down) = [1 − (1−u)^w] · [1 − (1−u)^p] exactly (independence),
    // which is Θ(u²) — the single-failure immunity the paper promises.
    let prot = summarize(protected_pairs.iter().map(|(w, p)| {
        (1.0 - (1.0 - u).powi(w.len() as i32)) * (1.0 - (1.0 - u).powi(p.len() as i32))
    }));

    let choose3 = (n as f64) * ((n - 1) as f64) * ((n - 2) as f64) / 6.0;
    AvailabilityComparison {
        link_unavailability: u,
        unprotected: unprot,
        protected: prot,
        improvement: unprot.mean_unavailability / prot.mean_unavailability,
        truncation_residual: choose3 * u * u * u,
    }
}

fn summarize(per_demand: impl Iterator<Item = f64>) -> SchemeAvailability {
    let mut total = 0.0;
    let mut worst: f64 = 0.0;
    let mut count = 0usize;
    for p in per_demand {
        total += p;
        worst = worst.max(p);
        count += 1;
    }
    SchemeAvailability {
        mean_unavailability: total / count.max(1) as f64,
        worst_unavailability: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_core::construct_optimal;

    fn net(n: u32) -> WdmNetwork {
        WdmNetwork::from_covering(&construct_optimal(n))
    }

    #[test]
    fn protection_improves_availability_by_orders_of_magnitude() {
        let cmp = availability_comparison(&net(12), LinkModel::typical_fiber());
        // Unprotected demand ~ u·len_short; protected ~ u²·w·p with
        // w + p = n — the gain is ≈ len_short / (w·p·u), an order of
        // magnitude-plus for typical fiber at metro sizes.
        assert!(
            cmp.improvement > 20.0,
            "improvement only {}",
            cmp.improvement
        );
        assert!(cmp.protected.nines() > cmp.unprotected.nines() + 1.0);
        assert!(cmp.protected.mean_unavailability > 0.0);
    }

    #[test]
    fn unavailability_orderings() {
        for n in [7u32, 10, 15] {
            let cmp = availability_comparison(&net(n), LinkModel::typical_fiber());
            assert!(cmp.protected.mean_unavailability < cmp.unprotected.mean_unavailability);
            assert!(cmp.protected.worst_unavailability >= cmp.protected.mean_unavailability);
            assert!(cmp.unprotected.worst_unavailability >= cmp.unprotected.mean_unavailability);
            assert!(
                cmp.truncation_residual < cmp.protected.mean_unavailability,
                "n={n}: truncation must be below the signal"
            );
        }
    }

    #[test]
    fn perfect_links_mean_perfect_availability() {
        let model = LinkModel {
            mtbf_hours: 1e12,
            mttr_hours: 1e-9,
        };
        let cmp = availability_comparison(&net(8), model);
        assert!(cmp.unprotected.mean_unavailability < 1e-15);
        assert!(cmp.protected.mean_unavailability < 1e-24);
    }

    #[test]
    fn nines_are_monotone_in_link_quality() {
        let good = availability_comparison(
            &net(9),
            LinkModel {
                mtbf_hours: 10_000.0,
                mttr_hours: 1.0,
            },
        );
        let bad = availability_comparison(
            &net(9),
            LinkModel {
                mtbf_hours: 100.0,
                mttr_hours: 10.0,
            },
        );
        assert!(good.protected.nines() > bad.protected.nines());
        assert!(good.unprotected.nines() > bad.unprotected.nines());
    }

    #[test]
    fn longer_rings_are_less_available() {
        let m = LinkModel::typical_fiber();
        let small = availability_comparison(&net(7), m);
        let large = availability_comparison(&net(21), m);
        assert!(
            large.unprotected.mean_unavailability > small.unprotected.mean_unavailability,
            "more hops, more exposure"
        );
    }
}
