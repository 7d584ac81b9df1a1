//! Failure injection and protection audit on general topologies.
//!
//! The paper's protection mechanism, generalized: each covering cycle is
//! an independent subnetwork; when a link carrying one of its paths
//! fails, the affected demand is rerouted "via the remaining part of the
//! cycle" — here, the concatenation of the cycle's other paths, which is
//! edge-disjoint from the failed path by the DRC and therefore
//! automatically avoids the failed link.
//!
//! [`audit_link_failures`] *proves* that property exhaustively for a
//! given covering: every physical link is failed in turn, every affected
//! cycle's detour is materialized and re-verified hop by hop. Node
//! failures ([`audit_node_failure`]) are strictly harsher — a cycle
//! whose detour transits the failed node cannot protect against it; the
//! audit reports those demands honestly rather than claiming coverage
//! the scheme does not provide (the paper's model is link failure).

use crate::cover::GraphCovering;
use cyclecover_graph::{Graph, Vertex};

/// Outcome of failing one physical link.
#[derive(Clone, Debug)]
pub struct LinkFailureReport {
    /// The failed edge (index into the physical graph).
    pub edge: u32,
    /// Cycles with a path routed through the failed link.
    pub affected_cycles: usize,
    /// Demands successfully rerouted around their cycle.
    pub restored: usize,
    /// Longest detour, in hops.
    pub max_detour: usize,
}

/// Aggregate single-link-failure audit.
#[derive(Clone, Debug)]
pub struct LinkAudit {
    /// One report per physical edge.
    pub reports: Vec<LinkFailureReport>,
    /// True iff every affected demand was restored for every failure.
    pub fully_survivable: bool,
    /// Largest detour observed across all failures.
    pub worst_detour: usize,
    /// Largest number of simultaneously affected cycles at one failure
    /// (how "shared" the hottest link is).
    pub max_affected: usize,
}

/// Fails every physical link in turn and verifies per-cycle protection.
///
/// For each cycle the failed link hits (in path `i`), the detour is the
/// concatenation of the remaining paths (see
/// [`crate::drc::CycleRouting::protection_walk`]); the audit re-verifies
/// that the detour (a) connects the failed demand's endpoints, (b) walks
/// real edges, and (c) avoids the failed link *by edge index* — parallel
/// links are distinct failure domains.
pub fn audit_link_failures(g: &Graph, cover: &GraphCovering) -> LinkAudit {
    // Index: edge → (cycle, path) pairs that use it. One pass.
    let mut users: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.edge_count()];
    for (ci, rc) in cover.cycles().iter().enumerate() {
        for (pi, p) in rc.routing.paths.iter().enumerate() {
            for &ei in &p.edges {
                users[ei as usize].push((ci as u32, pi as u32));
            }
        }
    }

    let reports: Vec<LinkFailureReport> = (0..g.edge_count() as u32)
        .map(|ei| failure_report_for_edge(g, cover, &users, ei))
        .collect();
    LinkAudit {
        fully_survivable: reports.iter().all(|r| r.restored == r.affected_cycles),
        worst_detour: reports.iter().map(|r| r.max_detour).max().unwrap_or(0),
        max_affected: reports.iter().map(|r| r.affected_cycles).max().unwrap_or(0),
        reports,
    }
}

/// The detour for path `pi` of cycle `rc` is made of the other paths'
/// edges; check none of them is the failed index.
fn detour_avoids(rc: &crate::cover::RoutedCycle, pi: usize, failed: u32) -> bool {
    rc.routing
        .paths
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != pi)
        .all(|(_, p)| p.edges.iter().all(|&e| e != failed))
}

/// Parallel variant of [`audit_link_failures`]: the per-edge failure
/// simulations are independent, so the edge range is split across
/// `threads` scoped threads over disjoint chunks (no locks,
/// no shared mutation); partial results are merged in edge order, so
/// the report is bit-identical to the sequential audit (asserted by
/// tests). Use for the big sweeps of experiment E9 — at small sizes the
/// sequential audit wins on overhead.
pub fn audit_link_failures_parallel(g: &Graph, cover: &GraphCovering, threads: usize) -> LinkAudit {
    let threads = threads.max(1).min(g.edge_count().max(1));
    if threads <= 1 || g.edge_count() < 64 {
        return audit_link_failures(g, cover);
    }
    // Same user index as the sequential path, built once and shared
    // read-only across threads.
    let mut users: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.edge_count()];
    for (ci, rc) in cover.cycles().iter().enumerate() {
        for (pi, p) in rc.routing.paths.iter().enumerate() {
            for &ei in &p.edges {
                users[ei as usize].push((ci as u32, pi as u32));
            }
        }
    }
    let users = &users;
    let chunk = g.edge_count().div_ceil(threads);
    let mut partials: Vec<Vec<LinkFailureReport>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(g.edge_count());
                scope.spawn(move || {
                    (lo..hi)
                        .map(|ei| failure_report_for_edge(g, cover, users, ei as u32))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            partials.push(h.join().expect("audit worker panicked"));
        }
    });
    let reports: Vec<LinkFailureReport> = partials.into_iter().flatten().collect();
    let fully = reports.iter().all(|r| r.restored == r.affected_cycles);
    LinkAudit {
        fully_survivable: fully,
        worst_detour: reports.iter().map(|r| r.max_detour).max().unwrap_or(0),
        max_affected: reports.iter().map(|r| r.affected_cycles).max().unwrap_or(0),
        reports,
    }
}

/// The per-edge failure simulation shared by both audit drivers.
fn failure_report_for_edge(
    g: &Graph,
    cover: &GraphCovering,
    users: &[Vec<(u32, u32)>],
    ei: u32,
) -> LinkFailureReport {
    let mut restored = 0usize;
    let mut max_detour = 0usize;
    for &(ci, pi) in &users[ei as usize] {
        let rc = &cover.cycles()[ci as usize];
        let failed = &rc.routing.paths[pi as usize];
        let detour = rc.routing.protection_walk(pi as usize);
        let (from, to) = (
            *failed.vertices.first().expect("nonempty path"),
            *failed.vertices.last().expect("nonempty path"),
        );
        let ok = detour.first() == Some(&to)
            && detour.last() == Some(&from)
            && detour_avoids(rc, pi as usize, ei)
            && detour.windows(2).all(|w| g.has_edge(w[0], w[1]));
        if ok {
            restored += 1;
            max_detour = max_detour.max(detour.len().saturating_sub(1));
        }
    }
    LinkFailureReport {
        edge: ei,
        affected_cycles: users[ei as usize].len(),
        restored,
        max_detour,
    }
}

/// Outcome of failing one node.
#[derive(Clone, Debug)]
pub struct NodeFailureReport {
    /// The failed node.
    pub node: Vertex,
    /// Demands terminating at the node (unrecoverable by definition —
    /// the endpoint itself is gone; excluded from protection accounting).
    pub terminating: usize,
    /// Transit demands (node interior to their working path) whose
    /// detour avoids the node: restored.
    pub restored: usize,
    /// Transit demands whose detour *also* transits the node: the
    /// documented blind spot of single-cycle link protection.
    pub unprotected: usize,
}

/// Fails node `v`: every cycle path transiting `v` is broken; the demand
/// is restorable iff the cycle detour avoids `v` too.
pub fn audit_node_failure(g: &Graph, cover: &GraphCovering, v: Vertex) -> NodeFailureReport {
    assert!((v as usize) < g.vertex_count(), "node {v} out of range");
    let mut terminating = 0usize;
    let mut restored = 0usize;
    let mut unprotected = 0usize;
    for rc in cover.cycles() {
        for (pi, p) in rc.routing.paths.iter().enumerate() {
            let (from, to) = p.endpoints();
            if from == v || to == v {
                terminating += 1;
                continue;
            }
            if !p.vertices.contains(&v) {
                continue; // unaffected
            }
            let detour = rc.routing.protection_walk(pi);
            // Endpoints of the detour are the demand's endpoints (≠ v);
            // interior transit through v kills the protection path too.
            if detour[1..detour.len() - 1].contains(&v) {
                unprotected += 1;
            } else {
                restored += 1;
            }
        }
    }
    NodeFailureReport {
        node: v,
        terminating,
        restored,
        unprotected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc::{route_cycle, DEFAULT_BUDGET};
    use crate::tree_of_rings::TreeOfRings;
    use cyclecover_graph::{builders, CycleSubgraph};

    /// A tree of rings and its per-ring covering of `K_n`.
    fn covered_tree(t: TreeOfRings) -> (TreeOfRings, GraphCovering) {
        let inst = builders::complete(t.vertex_count());
        let cover = t.cover(&inst, 4);
        (t, cover)
    }

    #[test]
    fn ring_covering_fully_survivable() {
        let g = builders::cycle(4);
        let mut cover = GraphCovering::new();
        for verts in [vec![0u32, 1, 2, 3], vec![0, 1, 3], vec![0, 2, 3]] {
            let c = CycleSubgraph::new(verts);
            let r = route_cycle(&g, &c, 4, DEFAULT_BUDGET).routing().unwrap();
            cover.push(&g, c, r).unwrap();
        }
        let audit = audit_link_failures(&g, &cover);
        assert!(audit.fully_survivable);
        // Every winding cycle uses every ring edge: all 3 cycles affected
        // by any failure.
        assert_eq!(audit.max_affected, 3);
        assert!(audit
            .reports
            .iter()
            .all(|r| r.restored == r.affected_cycles));
    }

    #[test]
    fn tree_of_rings_fully_survivable() {
        let t = TreeOfRings::chain(3, 5);
        let inst = builders::complete(t.vertex_count());
        let cover = t.cover(&inst, 4);
        let audit = audit_link_failures(t.graph(), &cover);
        assert!(audit.fully_survivable);
    }

    #[test]
    fn detour_lengths_bounded_by_cycle_load() {
        let (t, cover) = covered_tree(TreeOfRings::chain(3, 5));
        let audit = audit_link_failures(t.graph(), &cover);
        // A detour is the rest of the cycle: ≤ total routing load.
        let max_load = cover
            .cycles()
            .iter()
            .map(|rc| rc.routing.total_load())
            .max()
            .unwrap();
        assert!(audit.worst_detour < max_load);
    }

    #[test]
    fn node_failure_on_ring_hub_exposes_blind_spot() {
        // On a plain ring covering, winding cycles transit every vertex;
        // a triangle's detour for a path through v may transit v again.
        // The audit must report such demands as unprotected, not restored.
        let g = builders::cycle(6);
        let mut cover = GraphCovering::new();
        let c = CycleSubgraph::new(vec![0, 2, 4]);
        let r = route_cycle(&g, &c, 6, DEFAULT_BUDGET).routing().unwrap();
        cover.push(&g, c, r).unwrap();
        // Fail vertex 1: it lies inside exactly one path (0→2). The
        // detour 2→4→0 avoids vertex 1 → restored.
        let rep = audit_node_failure(&g, &cover, 1);
        assert_eq!(rep.terminating, 0);
        assert_eq!(rep.restored, 1);
        assert_eq!(rep.unprotected, 0);
        // Fail vertex 0 (an endpoint of two paths): those terminate; the
        // third path (2→4) does not transit 0 → unaffected.
        let rep0 = audit_node_failure(&g, &cover, 0);
        assert_eq!(rep0.terminating, 2);
        assert_eq!(rep0.restored + rep0.unprotected, 0);
    }

    #[test]
    fn parallel_audit_matches_sequential() {
        let (t, cover) = covered_tree(TreeOfRings::star(6, 3, 5));
        let seq = audit_link_failures(t.graph(), &cover);
        for threads in [1usize, 2, 3, 7] {
            let par = audit_link_failures_parallel(t.graph(), &cover, threads);
            assert_eq!(par.fully_survivable, seq.fully_survivable);
            assert_eq!(par.worst_detour, seq.worst_detour);
            assert_eq!(par.max_affected, seq.max_affected);
            assert_eq!(par.reports.len(), seq.reports.len());
            for (a, b) in par.reports.iter().zip(&seq.reports) {
                assert_eq!(a.edge, b.edge);
                assert_eq!(a.affected_cycles, b.affected_cycles);
                assert_eq!(a.restored, b.restored);
                assert_eq!(a.max_detour, b.max_detour);
            }
        }
    }

    #[test]
    fn node_failure_counts_are_consistent() {
        let (t, cover) = covered_tree(TreeOfRings::chain(3, 5));
        for v in 0..t.vertex_count() as u32 {
            let rep = audit_node_failure(t.graph(), &cover, v);
            // Nothing negative, nothing impossible.
            let total_paths: usize = cover.cycles().iter().map(|rc| rc.routing.paths.len()).sum();
            assert!(rep.terminating + rep.restored + rep.unprotected <= total_paths);
        }
    }
}
