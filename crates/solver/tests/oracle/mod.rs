//! A test-only exact oracle for budgeted coverings, sharing no bound,
//! order or filter with the search cores it checks.
//!
//! Depth-first search over residual demand: branch on the lowest dense
//! index request with demand left and try the tiles serving it in
//! universe order. Two bounds, computed here from ring distances, prune:
//! capacity (the residual demanded distance needs `⌈dist / n⌉` more
//! tiles) and diameters (a cycle carries at most one). The only other
//! rule is that tiles placed in a row on one branch request commute, so
//! a run takes them in non-decreasing universe order. The oracle uses no
//! `lower_bound` function, dominance rule, symmetry table, memo or chord
//! priority order of the solver, so a wrong bound in the cores cannot
//! pass here too.

use cyclecover_graph::Edge;
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::TileUniverse;

/// Nodes one oracle search may expand before the test gives up on it.
const MAX_NODES: u64 = 200_000_000;

struct Oracle {
    n: u64,
    /// Ring distance of each request (dense index).
    dist: Vec<u64>,
    /// Whether each request is a diameter.
    diameter: Vec<bool>,
    /// The requests each tile's chords serve.
    tiles: Vec<Vec<usize>>,
    /// The tiles serving each request, in universe order.
    serving: Vec<Vec<u32>>,
    /// Demand left per request.
    residual: Vec<u32>,
    rem_dist: u64,
    rem_diam: u64,
    /// The requests each placement took a unit from, placement by
    /// placement.
    undo: Vec<usize>,
    chosen: Vec<u32>,
    nodes: u64,
}

impl Oracle {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Oracle {
        let ring = u.ring();
        let n = ring.n() as usize;
        let m = n * (n - 1) / 2;
        assert_eq!(spec.demand.len(), m, "spec sized for K_{n}");
        let dist: Vec<u64> = (0..m)
            .map(|d| {
                let e = Edge::from_dense_index(d, n);
                ring.distance(e.u(), e.v()) as u64
            })
            .collect();
        let diameter: Vec<bool> = dist.iter().map(|&d| 2 * d == n as u64).collect();
        let tiles: Vec<Vec<usize>> = (0..u.len() as u32)
            .map(|t| {
                let chords = u.tile(t).chords(ring);
                chords.iter().map(|c| c.to_edge().dense_index(n)).collect()
            })
            .collect();
        let mut serving = vec![Vec::new(); m];
        for (t, requests) in tiles.iter().enumerate() {
            for &d in requests {
                serving[d].push(t as u32);
            }
        }
        let residual = spec.demand.clone();
        let units = residual.iter().map(|&r| r as u64);
        let rem_dist = units.clone().zip(&dist).map(|(r, d)| r * d).sum();
        let rem_diam = units
            .zip(&diameter)
            .filter(|(_, &x)| x)
            .map(|(r, _)| r)
            .sum();
        Oracle {
            n: n as u64,
            dist,
            diameter,
            tiles,
            serving,
            residual,
            rem_dist,
            rem_diam,
            undo: Vec::new(),
            chosen: Vec::new(),
            nodes: 0,
        }
    }

    /// Takes a unit of demand from every request tile `t` serves that
    /// still has some; returns how many it took.
    fn place(&mut self, t: u32) -> usize {
        let mut took = 0;
        for &d in &self.tiles[t as usize] {
            if self.residual[d] > 0 {
                self.residual[d] -= 1;
                self.rem_dist -= self.dist[d];
                self.rem_diam -= self.diameter[d] as u64;
                self.undo.push(d);
                took += 1;
            }
        }
        self.chosen.push(t);
        took
    }

    fn unplace(&mut self, took: usize) {
        self.chosen.pop();
        for _ in 0..took {
            let d = self.undo.pop().expect("placed units");
            self.residual[d] += 1;
            self.rem_dist += self.dist[d];
            self.rem_diam += self.diameter[d] as u64;
        }
    }

    /// Whether the placed prefix extends to a covering with at most
    /// `left` more tiles. `run` is the branch request and candidate
    /// position of the last placement.
    fn search(&mut self, left: u32, run: Option<(usize, usize)>) -> bool {
        if self.rem_dist == 0 {
            return true;
        }
        self.nodes += 1;
        assert!(self.nodes <= MAX_NODES, "the oracle hit its node cap");
        let left64 = left as u64;
        if self.rem_dist.div_ceil(self.n) > left64 || self.rem_diam > left64 {
            return false;
        }
        let branch = self
            .residual
            .iter()
            .position(|&r| r > 0)
            .expect("demand left");
        let start = match run {
            Some((request, pos)) if request == branch => pos,
            _ => 0,
        };
        for pos in start..self.serving[branch].len() {
            let took = self.place(self.serving[branch][pos]);
            if self.search(left - 1, Some((branch, pos))) {
                return true;
            }
            self.unplace(took);
        }
        false
    }
}

/// A covering of `spec` by at most `budget` tiles of `u` (tile indices),
/// or `None` when there is none.
///
/// # Panics
/// Panics when the search outgrows its node cap.
pub fn covering_within(u: &TileUniverse, spec: &CoverSpec, budget: u32) -> Option<Vec<u32>> {
    let mut oracle = Oracle::new(u, spec);
    oracle.search(budget, None).then_some(oracle.chosen)
}

/// The least budget with a covering, probing every budget from 0 up to
/// `max_budget`, and a covering of that size.
///
/// # Panics
/// Panics when no budget up to `max_budget` has a covering.
pub fn optimum(u: &TileUniverse, spec: &CoverSpec, max_budget: u32) -> (u32, Vec<u32>) {
    (0..=max_budget)
        .find_map(|budget| covering_within(u, spec, budget).map(|tiles| (budget, tiles)))
        .unwrap_or_else(|| panic!("no covering within {max_budget} tiles"))
}
