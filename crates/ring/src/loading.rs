//! The ring loading problem — the unprotected routing baseline.
//!
//! The paper splits optical-layer planning into a *routing problem* and
//! a *resource allocation problem*. For the covering constructions the
//! routing is forced (winding tiles), but the natural baseline — route
//! every demand individually, no protection — is the classical **ring
//! loading problem**: choose, per demand, one of its two arcs so that
//! the maximum link load is minimized. The optimum `L*` lower-bounds the
//! per-link capacity of *any* unprotected design and calibrates the
//! protection premium (`cyclecover loading <n>` prints it).
//!
//! Three solvers, strongest-first guarantees:
//!
//! * [`optimal_loading`] — exact branch & bound (demands longest-first,
//!   load-bound pruning); practical for the workspace's instance sizes;
//! * [`local_search_loading`] — single-flip hill climbing from the
//!   shortest-arc start (fast, near-optimal in practice);
//! * [`shortest_loading`] — all demands on shortest arcs (the classic
//!   2-approximation).

use crate::{Chord, Ring, RingArc};
use cyclecover_graph::Edge;

/// A complete arc assignment with its link-load profile.
#[derive(Clone, Debug)]
pub struct Loading {
    /// One arc per demand, parallel to the input.
    pub arcs: Vec<RingArc>,
    /// Load per ring edge.
    pub load: Vec<u32>,
    /// Maximum link load (the objective).
    pub max_load: u32,
}

impl Loading {
    fn from_arcs(ring: Ring, arcs: Vec<RingArc>) -> Self {
        let mut load = vec![0u32; ring.n() as usize];
        for a in &arcs {
            for e in a.edges(ring) {
                load[e as usize] += 1;
            }
        }
        let max_load = load.iter().copied().max().unwrap_or(0);
        Loading {
            arcs,
            load,
            max_load,
        }
    }
}

/// Routes every demand on its shortest arc (diameter ties clockwise).
pub fn shortest_loading(ring: Ring, demands: &[Edge]) -> Loading {
    let arcs = demands
        .iter()
        .map(|e| Chord::new(ring, e.u(), e.v()).shortest_arc(ring))
        .collect();
    Loading::from_arcs(ring, arcs)
}

/// Hill climbing from the shortest-arc start: repeatedly flip the single
/// demand that most reduces the maximum load (ties: largest secondary
/// improvement), until no flip helps. Deterministic.
pub fn local_search_loading(ring: Ring, demands: &[Edge]) -> Loading {
    let mut cur = shortest_loading(ring, demands);
    loop {
        let mut best: Option<(usize, u32, u64)> = None; // (idx, new_max, new_sq)
        for i in 0..cur.arcs.len() {
            let flipped = cur.arcs[i].complement(ring);
            // Apply flip to a scratch load vector.
            let mut load = cur.load.clone();
            for e in cur.arcs[i].edges(ring) {
                load[e as usize] -= 1;
            }
            for e in flipped.edges(ring) {
                load[e as usize] += 1;
            }
            let new_max = load.iter().copied().max().unwrap_or(0);
            // Secondary criterion — sum of squared loads — lets the search
            // walk across max-load plateaus toward balance.
            let new_sq: u64 = load.iter().map(|&l| (l as u64) * (l as u64)).sum();
            let cur_sq: u64 = cur.load.iter().map(|&l| (l as u64) * (l as u64)).sum();
            if new_max < cur.max_load || (new_max == cur.max_load && new_sq < cur_sq) {
                let better = match best {
                    None => true,
                    Some((_, bm, bs)) => new_max < bm || (new_max == bm && new_sq < bs),
                };
                if better {
                    best = Some((i, new_max, new_sq));
                }
            }
        }
        match best {
            Some((i, _, _)) => {
                let flipped = cur.arcs[i].complement(ring);
                for e in cur.arcs[i].edges(ring) {
                    cur.load[e as usize] -= 1;
                }
                for e in flipped.edges(ring) {
                    cur.load[e as usize] += 1;
                }
                cur.arcs[i] = flipped;
                cur.max_load = cur.load.iter().copied().max().unwrap_or(0);
            }
            None => return cur,
        }
    }
}

/// Exact minimum-max-load assignment by branch & bound. Demands are
/// ordered longest-first (their choices constrain the most); a branch is
/// pruned when its partial max load already reaches the incumbent. The
/// search is exhaustive — the result is the true optimum `L*` — but
/// exponential in the worst case; `node_budget` caps the search
/// (`None` is returned on exhaustion, never a wrong answer).
pub fn optimal_loading(ring: Ring, demands: &[Edge], node_budget: u64) -> Option<Loading> {
    let n = ring.n() as usize;
    let mut order: Vec<usize> = (0..demands.len()).collect();
    let chords: Vec<Chord> = demands
        .iter()
        .map(|e| Chord::new(ring, e.u(), e.v()))
        .collect();
    order.sort_by_key(|&i| std::cmp::Reverse(chords[i].distance(ring)));

    // Incumbent from local search (a strong upper bound shrinks the tree).
    let incumbent = local_search_loading(ring, demands);
    let mut best_max = incumbent.max_load;
    let mut best_arcs: Vec<RingArc> = incumbent.arcs.clone();

    struct Bb<'a> {
        ring: Ring,
        chords: &'a [Chord],
        order: &'a [usize],
        load: Vec<u32>,
        chosen: Vec<Option<RingArc>>,
        budget: u64,
        exhausted: bool,
    }
    impl Bb<'_> {
        fn place(&mut self, pos: usize, best_max: &mut u32, best_arcs: &mut Vec<RingArc>) {
            if self.budget == 0 {
                self.exhausted = true;
                return;
            }
            self.budget -= 1;
            if pos == self.order.len() {
                let cur = self.load.iter().copied().max().unwrap_or(0);
                if cur < *best_max {
                    *best_max = cur;
                    *best_arcs = self.chosen.iter().map(|a| a.unwrap()).collect();
                }
                return;
            }
            let i = self.order[pos];
            let c = self.chords[i];
            for arc in c.arcs(self.ring) {
                // Partial bound: max load if we commit this arc.
                let peak = arc
                    .edges(self.ring)
                    .map(|e| self.load[e as usize] + 1)
                    .max()
                    .unwrap_or(0)
                    .max(self.load.iter().copied().max().unwrap_or(0));
                if peak >= *best_max {
                    continue;
                }
                for e in arc.edges(self.ring) {
                    self.load[e as usize] += 1;
                }
                self.chosen[i] = Some(arc);
                self.place(pos + 1, best_max, best_arcs);
                self.chosen[i] = None;
                for e in arc.edges(self.ring) {
                    self.load[e as usize] -= 1;
                }
                if self.exhausted {
                    return;
                }
            }
        }
    }

    let mut bb = Bb {
        ring,
        chords: &chords,
        order: &order,
        load: vec![0u32; n],
        chosen: vec![None; demands.len()],
        budget: node_budget,
        exhausted: false,
    };
    bb.place(0, &mut best_max, &mut best_arcs);
    if bb.exhausted {
        return None;
    }
    Some(Loading::from_arcs(ring, best_arcs))
}

/// The trivial lower bound on `L*`: average load under *any* assignment
/// is at least `Σ dist / n` (each demand needs at least its shortest
/// distance in edge slots), so `L* ≥ ⌈Σ dist / n⌉`.
pub fn loading_lower_bound(ring: Ring, demands: &[Edge]) -> u32 {
    let total: u64 = demands
        .iter()
        .map(|e| Chord::new(ring, e.u(), e.v()).distance(ring) as u64)
        .sum();
    total.div_ceil(ring.n() as u64) as u32
}

/// All requests of `K_n`, the paper's instance.
pub fn all_to_all_demands(ring: Ring) -> Vec<Edge> {
    (0..ring.n())
        .flat_map(|u| ((u + 1)..ring.n()).map(move |v| Edge::new(u, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_chain_is_monotone() {
        // optimal ≤ local ≤ shortest, all ≥ lower bound.
        for n in [5u32, 6, 7, 8, 9] {
            let ring = Ring::new(n);
            let demands = all_to_all_demands(ring);
            let s = shortest_loading(ring, &demands);
            let l = local_search_loading(ring, &demands);
            let o = optimal_loading(ring, &demands, 50_000_000).expect("small instance");
            let lb = loading_lower_bound(ring, &demands);
            assert!(o.max_load <= l.max_load, "n={n}");
            assert!(l.max_load <= s.max_load, "n={n}");
            assert!(o.max_load as u64 >= lb as u64, "n={n}");
        }
    }

    #[test]
    fn all_to_all_shortest_is_already_optimal_on_odd_rings() {
        // Odd n: every demand has a strict shortest arc and the load is
        // perfectly symmetric — shortest = optimal.
        for n in [5u32, 7, 9] {
            let ring = Ring::new(n);
            let demands = all_to_all_demands(ring);
            let s = shortest_loading(ring, &demands);
            let o = optimal_loading(ring, &demands, 50_000_000).unwrap();
            assert_eq!(s.max_load, o.max_load, "n={n}");
        }
    }

    #[test]
    fn loads_account_every_hop() {
        let ring = Ring::new(8);
        let demands = all_to_all_demands(ring);
        let s = shortest_loading(ring, &demands);
        let total_hops: u32 = s.load.iter().sum();
        let expect: u32 = demands
            .iter()
            .map(|e| Chord::new(ring, e.u(), e.v()).distance(ring))
            .sum();
        assert_eq!(total_hops, expect);
    }

    #[test]
    fn single_demand_optimal_takes_shortest() {
        let ring = Ring::new(10);
        let demands = vec![Edge::new(0, 3)];
        let o = optimal_loading(ring, &demands, 1_000).unwrap();
        assert_eq!(o.max_load, 1);
        assert_eq!(o.arcs[0].len(), 3);
    }

    #[test]
    fn skewed_instance_beats_shortest() {
        // Demands piled on one side: shortest routing overloads the short
        // side; the optimum spreads to the far side.
        let ring = Ring::new(8);
        let demands = vec![
            Edge::new(0, 3),
            Edge::new(1, 3),
            Edge::new(2, 3),
            Edge::new(0, 2),
            Edge::new(1, 2),
            Edge::new(0, 1),
        ];
        let s = shortest_loading(ring, &demands);
        let o = optimal_loading(ring, &demands, 1_000_000).unwrap();
        assert!(o.max_load < s.max_load, "{} !< {}", o.max_load, s.max_load);
        let l = local_search_loading(ring, &demands);
        assert!(l.max_load <= s.max_load);
    }

    #[test]
    fn empty_demands() {
        let ring = Ring::new(5);
        let s = shortest_loading(ring, &[]);
        assert_eq!(s.max_load, 0);
        assert_eq!(loading_lower_bound(ring, &[]), 0);
        let o = optimal_loading(ring, &[], 10).unwrap();
        assert_eq!(o.max_load, 0);
    }

    #[test]
    fn tiny_budget_returns_none() {
        let ring = Ring::new(12);
        let demands = all_to_all_demands(ring);
        // Budget 1 cannot finish (needs > 1 node) — but local search
        // incumbent might already be optimal; exhaustion must yield None
        // regardless (no false certificates).
        assert!(optimal_loading(ring, &demands, 1).is_none());
    }
}
