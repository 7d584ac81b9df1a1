//! Property tests for the extension-topology machinery.
//!
//! The load-bearing invariant is agreement between the *general-graph*
//! DRC oracle (bounded backtracking over edge-disjoint paths) and the
//! *ring-specific* winding characterization — two entirely independent
//! implementations that must give the same verdict on every cycle over
//! `C_n`.

use cyclecover_graph::{builders, CycleSubgraph};
use cyclecover_ring::{routing as ring_routing, Ring};
use cyclecover_topo::drc;
use proptest::prelude::*;

/// A strategy for a random cycle: distinct vertices of `0..n`, length
/// `3..=5`, in arbitrary order.
fn arb_cycle(n: u32) -> impl Strategy<Value = CycleSubgraph> {
    proptest::sample::subsequence((0..n).collect::<Vec<_>>(), 3..=5.min(n as usize))
        .prop_shuffle()
        .prop_map(CycleSubgraph::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two DRC implementations agree on every random cycle over C_n.
    #[test]
    fn graph_oracle_matches_winding_lemma(n in 5u32..12, cyc in (5u32..12).prop_flat_map(arb_cycle)) {
        prop_assume!(cyc.vertices().iter().all(|&v| v < n));
        let ring = Ring::new(n);
        let g = builders::cycle(n as usize);
        let winding = ring_routing::is_drc_routable(ring, &cyc);
        let oracle = drc::is_drc_routable(&g, &cyc, n);
        prop_assert_eq!(winding, oracle, "n={}, cycle={:?}", n, cyc);
    }

    /// When the oracle routes a cycle on the ring, the witness has the
    /// tiling property: total load == n (winding) — the structural claim
    /// of the winding lemma, recovered from the general machinery.
    #[test]
    fn ring_witnesses_tile_the_ring(n in 5u32..12, cyc in (5u32..12).prop_flat_map(arb_cycle)) {
        prop_assume!(cyc.vertices().iter().all(|&v| v < n));
        let g = builders::cycle(n as usize);
        if let Some(routing) = drc::route_cycle(&g, &cyc, n, drc::DEFAULT_BUDGET).routing() {
            prop_assert_eq!(routing.total_load() as u32, n);
            prop_assert!(drc::verify_routing(&g, &cyc, &routing));
        }
    }
}
