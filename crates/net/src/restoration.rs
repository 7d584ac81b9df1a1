//! Restoration — the paper's *other* survivability scheme — simulated
//! and compared against cycle-covering protection.
//!
//! From the paper's introduction: "Two survivability schemes can be
//! implemented: protection or restoration. Protection can be done by
//! using a pre-assigned capacity … restoration can be realized by using
//! any capacity available between nodes in order to find a transport
//! entity that can replace the failed one."
//!
//! On a ring, restoration is concrete: demands are routed on their
//! shortest arcs against a pooled per-link capacity; when a link fails,
//! every demand crossing it is rerouted the only other way — the
//! complement arc — *if the pool has room*. The scheme needs less
//! capacity than protection (which pre-assigns a full spare wavelength
//! per subnetwork) but recovery is not instantaneous and demands can
//! block under tight provisioning. [`compare_schemes`] quantifies the
//! trade for the all-to-all instance, making the paper's qualitative
//! discussion measurable (`cyclecover compare <n>` prints it).

use cyclecover_graph::Edge;
use cyclecover_ring::{Chord, Ring, RingArc};

/// An unprotected (restoration-based) WDM ring: demands with shortest-arc
/// working routes, pooled per-link capacity.
pub struct RestorationNetwork {
    ring: Ring,
    /// Demands with their working arcs.
    demands: Vec<(Edge, RingArc)>,
    /// Pooled capacity per ring edge, in wavelength-units.
    capacity: u32,
}

/// Outcome of restoring one link failure.
#[derive(Clone, Debug)]
pub struct RestorationReport {
    /// The failed ring edge.
    pub failed_edge: u32,
    /// Demands whose working arc crossed the failed link.
    pub affected: usize,
    /// Demands successfully rerouted within the capacity pool.
    pub restored: usize,
    /// Demands that could not fit (capacity exhausted somewhere on their
    /// complement arc).
    pub blocked: usize,
    /// Maximum link load after restoration, over surviving edges.
    pub max_post_load: u32,
}

impl RestorationNetwork {
    /// The all-to-all instance on `C_n`, shortest-arc routed, with the
    /// given per-link capacity pool.
    pub fn all_to_all(ring: Ring, capacity: u32) -> Self {
        let demands = (0..ring.n())
            .flat_map(|u| ((u + 1)..ring.n()).map(move |v| (u, v)))
            .map(|(u, v)| {
                let c = Chord::new(ring, u, v);
                (Edge::new(u, v), c.shortest_arc(ring))
            })
            .collect();
        RestorationNetwork {
            ring,
            demands,
            capacity,
        }
    }

    /// A custom demand set, shortest-arc routed.
    pub fn from_requests(ring: Ring, requests: &[Edge], capacity: u32) -> Self {
        let demands = requests
            .iter()
            .map(|e| {
                let c = Chord::new(ring, e.u(), e.v());
                (*e, c.shortest_arc(ring))
            })
            .collect();
        RestorationNetwork {
            ring,
            demands,
            capacity,
        }
    }

    /// The ring.
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The provisioned per-link capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of demands.
    pub fn demand_count(&self) -> usize {
        self.demands.len()
    }

    /// Pre-failure load per ring edge.
    pub fn working_load(&self) -> Vec<u32> {
        let mut load = vec![0u32; self.ring.n() as usize];
        for (_, arc) in &self.demands {
            for e in arc.edges(self.ring) {
                load[e as usize] += 1;
            }
        }
        load
    }

    /// The minimum capacity at which the *working* routing fits.
    pub fn min_working_capacity(&self) -> u32 {
        self.working_load().into_iter().max().unwrap_or(0)
    }

    /// Fails link `e` and restores affected demands greedily,
    /// longest-detour-first (fitting the hardest reroutes while slack is
    /// plentiful), against the pooled capacity.
    pub fn restore_failure(&self, e: u32) -> RestorationReport {
        let ring = self.ring;
        assert!(e < ring.n(), "ring edge {e} out of range");
        let mut load = self.working_load();
        // Remove affected demands' working load; collect their reroutes.
        let mut pending: Vec<RingArc> = Vec::new();
        for (_, arc) in &self.demands {
            if arc.covers_edge(ring, e) {
                for ee in arc.edges(ring) {
                    load[ee as usize] -= 1;
                }
                pending.push(arc.complement(ring));
            }
        }
        let affected = pending.len();
        pending.sort_by_key(|a| std::cmp::Reverse(a.len()));
        let mut restored = 0usize;
        for det in &pending {
            debug_assert!(!det.covers_edge(ring, e), "complement avoids the failure");
            let fits = det.edges(ring).all(|ee| load[ee as usize] < self.capacity);
            if fits {
                for ee in det.edges(ring) {
                    load[ee as usize] += 1;
                }
                restored += 1;
            }
        }
        let max_post_load = (0..ring.n())
            .filter(|&ee| ee != e)
            .map(|ee| load[ee as usize])
            .max()
            .unwrap_or(0);
        RestorationReport {
            failed_edge: e,
            affected,
            restored,
            blocked: affected - restored,
            max_post_load,
        }
    }

    /// The smallest per-link capacity guaranteeing full restoration of
    /// every single-link failure (found by auditing each failure with
    /// unlimited capacity and taking the worst post-restoration load).
    pub fn min_full_restoration_capacity(&self) -> u32 {
        let unlimited = RestorationNetwork {
            ring: self.ring,
            demands: self.demands.clone(),
            capacity: u32::MAX,
        };
        (0..self.ring.n())
            .map(|e| unlimited.restore_failure(e).max_post_load)
            .max()
            .unwrap_or(0)
    }
}

/// Head-to-head comparison of the two schemes of the paper's
/// introduction, on the all-to-all instance over `C_n`.
#[derive(Clone, Copy, Debug)]
pub struct SchemeComparison {
    /// Ring size.
    pub n: u32,
    /// Wavelengths pre-assigned by cycle-covering protection
    /// (`2 · ρ(n)` — working + spare per subnetwork).
    pub protection_wavelengths: u64,
    /// Per-link capacity needed by the bare working routing.
    pub working_capacity: u32,
    /// Per-link capacity needed for full single-failure restoration.
    pub restoration_capacity: u32,
    /// Capacity premium of protection over restoration.
    pub protection_over_restoration: f64,
}

/// Computes the comparison for `C_n`.
pub fn compare_schemes(n: u32) -> SchemeComparison {
    let ring = Ring::new(n);
    let net = RestorationNetwork::all_to_all(ring, u32::MAX);
    let protection_wavelengths = 2 * cyclecover_core::rho(n);
    let working_capacity = net.min_working_capacity();
    let restoration_capacity = net.min_full_restoration_capacity();
    SchemeComparison {
        n,
        protection_wavelengths,
        working_capacity,
        restoration_capacity,
        protection_over_restoration: protection_wavelengths as f64 / restoration_capacity as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_capacity_restores_everything() {
        for n in [6u32, 9, 12, 15] {
            let net = RestorationNetwork::all_to_all(Ring::new(n), u32::MAX);
            for e in 0..n {
                let r = net.restore_failure(e);
                assert_eq!(r.blocked, 0, "n={n} edge {e}");
                assert_eq!(r.restored, r.affected);
                assert!(r.affected > 0, "some demand always crosses each link");
            }
        }
    }

    #[test]
    fn zero_capacity_blocks_everything() {
        let net = RestorationNetwork::all_to_all(Ring::new(8), 0);
        let r = net.restore_failure(0);
        assert_eq!(r.restored, 0);
        assert_eq!(r.blocked, r.affected);
    }

    #[test]
    fn min_restoration_capacity_is_tight() {
        for n in [7u32, 8, 11] {
            let probe = RestorationNetwork::all_to_all(Ring::new(n), u32::MAX);
            let cap = probe.min_full_restoration_capacity();
            // At cap: everything restores.
            let at = RestorationNetwork::all_to_all(Ring::new(n), cap);
            for e in 0..n {
                assert_eq!(at.restore_failure(e).blocked, 0, "n={n} at cap");
            }
            // At cap − 1: some failure must block (tightness).
            let below = RestorationNetwork::all_to_all(Ring::new(n), cap - 1);
            assert!(
                (0..n).any(|e| below.restore_failure(e).blocked > 0),
                "n={n}: capacity {cap} not tight"
            );
        }
    }

    #[test]
    fn restoration_needs_more_than_working_but_less_than_double_plus_slack() {
        for n in [9u32, 12, 15, 20] {
            let net = RestorationNetwork::all_to_all(Ring::new(n), u32::MAX);
            let work = net.min_working_capacity();
            let rest = net.min_full_restoration_capacity();
            assert!(rest >= work, "n={n}");
            assert!(
                rest <= 3 * work,
                "n={n}: restoration capacity {rest} vs working {work}"
            );
        }
    }

    #[test]
    fn protection_premium_positive() {
        for n in [8u32, 13, 16, 21] {
            let cmp = compare_schemes(n);
            // Protection pre-assigns spare per subnetwork; restoration
            // shares — protection always costs more capacity.
            assert!(
                cmp.protection_wavelengths as f64 >= cmp.restoration_capacity as f64,
                "n={n}: {cmp:?}"
            );
            assert!(cmp.protection_over_restoration >= 1.0);
            assert!(cmp.working_capacity <= cmp.restoration_capacity);
        }
    }

    #[test]
    fn custom_demand_sets() {
        let ring = Ring::new(10);
        let reqs = [Edge::new(0, 5), Edge::new(2, 7), Edge::new(1, 2)];
        let net = RestorationNetwork::from_requests(ring, &reqs, u32::MAX);
        assert_eq!(net.demand_count(), 3);
        let load = net.working_load();
        let total: u32 = load.iter().sum();
        // 5 + 5 + 1 hops of shortest arcs.
        assert_eq!(total, 11);
        let cap = net.min_full_restoration_capacity();
        assert!(cap >= net.min_working_capacity());
    }
}
