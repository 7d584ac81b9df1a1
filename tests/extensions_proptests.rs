//! Property-based tests over the extension subsystems.
//!
//! Random workloads, random demand sets — the invariants that must hold
//! regardless of shape:
//!
//! * the ring-loading solver chain is monotone (optimal ≤ local ≤
//!   shortest, all ≥ the capacity bound) on arbitrary demand sets;
//! * text-format round-trips preserve coverings exactly;
//! * workload generators produce well-formed simple instances that the
//!   general-instance machinery covers.

use cyclecover::core::general;
use cyclecover::io::format;
use cyclecover::ring::loading;
use cyclecover::ring::Ring;
use cyclecover::workload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ring loading: solver chain monotone on random demand multisets.
    #[test]
    fn loading_chain_monotone(
        n in 5u32..12,
        picks in prop::collection::vec((0u32..100, 1u32..100), 1..12),
    ) {
        let ring = Ring::new(n);
        let demands: Vec<_> = picks
            .into_iter()
            .map(|(a, d)| {
                let u = a % n;
                let v = (u + 1 + d % (n - 1)) % n;
                cyclecover::graph::Edge::new(u, v)
            })
            .collect();
        let s = loading::shortest_loading(ring, &demands);
        let l = loading::local_search_loading(ring, &demands);
        let lb = loading::loading_lower_bound(ring, &demands);
        prop_assert!(l.max_load <= s.max_load);
        prop_assert!(s.max_load as u64 >= lb as u64);
        if let Some(o) = loading::optimal_loading(ring, &demands, 2_000_000) {
            prop_assert!(o.max_load <= l.max_load);
            prop_assert!(o.max_load >= lb);
        }
        // Load vectors account exactly for the arcs chosen.
        let total: u32 = l.load.iter().sum();
        let arcs_total: u32 = l.arcs.iter().map(|a| a.len()).sum();
        prop_assert_eq!(total, arcs_total);
    }

    /// Text format: serialize → parse → serialize is a fixpoint, for the
    /// constructed covering of any n.
    #[test]
    fn format_round_trip(n in 3u32..40) {
        let cover = cyclecover::core::construct_optimal(n);
        let text = format::to_text(&cover);
        let back = format::from_text(&text).expect("parses");
        prop_assert_eq!(back.len(), cover.len());
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(format::to_text(&back), text);
    }

    /// Workload generators emit simple instances on the right vertex set,
    /// and the ring machinery covers them.
    #[test]
    fn workloads_are_coverable(n in 6usize..14, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = Ring::new(n as u32);
        for inst in [
            workload::uniform_random(n, 0.4, &mut rng),
            workload::permutation(n, &mut rng),
            workload::hotspot(n, 2, 0.7, 0.1, &mut rng),
            workload::locality(n, 2),
        ] {
            prop_assert!(inst.is_simple());
            prop_assert!(inst.vertex_count() == n);
            if inst.edge_count() == 0 {
                continue;
            }
            let got = general::greedy_cover(ring, &inst, 4).expect("nonempty");
            prop_assert!(general::covers_instance(&got.covering, &inst));
        }
    }
}
