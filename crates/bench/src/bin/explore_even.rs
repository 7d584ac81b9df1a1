//! Exploration harness for the even-n construction (the parity split of
//! `cyclecover_core::even`).
//! Validates the parity-split + algebraic cross-family approach before it
//! is promoted into `cyclecover-core::even`.

use cyclecover_core::{construct_optimal, rho};
use cyclecover_ring::{Ring, Tile};

/// Lift a covering of C_p onto the even/odd positions of C_2p.
fn lift(tiles: &[Tile], small: Ring, big: Ring, parity: u32) -> Vec<Tile> {
    tiles
        .iter()
        .map(|t| {
            let verts: Vec<u32> = t.vertices().iter().map(|&v| 2 * v + parity).collect();
            let _ = small;
            Tile::from_vertices(big, verts)
        })
        .collect()
}

/// Cross-family for odd p: Q(a,b) = gaps (a, p+1−a, b, p−1−b) at s = −(a+b).
fn q_family_odd_p(big: Ring, p: u32) -> Vec<Tile> {
    let n = 2 * p;
    let mut tiles = Vec::new();
    let mut a = 3;
    while a <= p {
        let mut b = 1;
        while b <= p - 2 {
            let s = (2 * n - a - b) % n;
            tiles.push(Tile::from_gaps(big, s, &[a, p + 1 - a, b, p - 1 - b]));
            b += 2;
        }
        a += 2;
    }
    tiles
}

/// Cross-family for even p: Q(a,b) = gaps (a, p−a, b, p−b) at s = −(a+b).
fn q_family_even_p(big: Ring, p: u32) -> Vec<Tile> {
    let n = 2 * p;
    let mut tiles = Vec::new();
    let mut a = 1;
    while a < p {
        let mut b = 1;
        while b < p {
            let s = (2 * n - a - b) % n;
            tiles.push(Tile::from_gaps(big, s, &[a, p - a, b, p - b]));
            b += 2;
        }
        a += 2;
    }
    tiles
}

/// Returns uncovered chords as (u, v) pairs.
fn uncovered(big: Ring, tiles: &[Tile]) -> Vec<(u32, u32)> {
    let n = big.n() as usize;
    let mut cov = vec![false; n * (n - 1) / 2];
    for t in tiles {
        for c in t.chords(big) {
            cov[cyclecover_graph::Edge::new(c.u(), c.v()).dense_index(n)] = true;
        }
    }
    let mut out = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if !cov[cyclecover_graph::Edge::new(u, v).dense_index(n)] {
                out.push((u, v));
            }
        }
    }
    out
}

fn count_duplicates(tiles: &[Tile]) -> usize {
    let mut sorted = tiles.to_vec();
    sorted.sort();
    let before = sorted.len();
    sorted.dedup();
    before - sorted.len()
}

/// Residual DFS: cover `residual` chords with at most `budget` winding
/// tiles (3..=5 gaps), allowing at most `overlap_budget` non-residual
/// chords across all chosen tiles. Chains are built endpoint-to-endpoint.
struct ResidualSolver {
    ring: Ring,
    /// residual chord flags by (u,v) dense index
    residual: Vec<bool>,
    n: usize,
}

impl ResidualSolver {
    fn dense(&self, u: u32, v: u32) -> usize {
        cyclecover_graph::Edge::new(u, v).dense_index(self.n)
    }

    fn solve(
        &mut self,
        remaining: &mut Vec<bool>, // residual chords still uncovered (by dense idx)
        left: usize,
        budget: usize,
        overlap_budget: usize,
        chosen: &mut Vec<Tile>,
    ) -> bool {
        if left == 0 {
            return true;
        }
        if budget == 0 {
            return false;
        }
        // Need enough capacity: each tile covers <= 5 residual chords.
        if left > budget * 5 {
            return false;
        }
        // First uncovered residual chord.
        let first = (0..remaining.len()).find(|&i| remaining[i]).unwrap();
        let e = cyclecover_graph::Edge::from_dense_index(first, self.n);
        // Enumerate winding tiles through this chord: chains of gaps from u.
        // Chord {u,v} as first arc: orientation u->v (gap (v-u) mod n) or v->u.
        let n32 = self.ring.n();
        for (start, gap) in [
            (e.u(), self.ring.cw_gap(e.u(), e.v())),
            (e.v(), self.ring.cw_gap(e.v(), e.u())),
        ] {
            let mut gaps = vec![gap];
            if self.extend_chain(
                start,
                (start + gap) % n32,
                &mut gaps,
                remaining,
                left,
                budget,
                overlap_budget,
                chosen,
            ) {
                return true;
            }
        }
        false
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_chain(
        &mut self,
        start: u32,
        cur: u32,
        gaps: &mut Vec<u32>,
        remaining: &mut Vec<bool>,
        left: usize,
        budget: usize,
        overlap_budget: usize,
        chosen: &mut Vec<Tile>,
    ) -> bool {
        let n = self.ring.n();
        let used: u32 = gaps.iter().sum();
        if used > n {
            return false;
        }
        // Try closing the tile (back to start) if >= 3 gaps once closed.
        if gaps.len() >= 2 && used < n {
            let close = n - used;
            // closing chord cur -> start
            gaps.push(close);
            if gaps.len() >= 3 && gaps.len() <= 5 {
                // Evaluate tile: count residual coverage + overlap.
                let tile = Tile::from_gaps(self.ring, start, gaps);
                let mut newly = Vec::new();
                let mut overlap = 0usize;
                for c in tile.chords(self.ring) {
                    let i = self.dense(c.u(), c.v());
                    if remaining[i] {
                        newly.push(i);
                    } else {
                        overlap += 1;
                    }
                }
                // Deduplicate chords (a tile may repeat a chord? no — simple cycle)
                if !newly.is_empty() && overlap <= overlap_budget {
                    for &i in &newly {
                        remaining[i] = false;
                    }
                    chosen.push(tile);
                    if self.solve(
                        remaining,
                        left - newly.len(),
                        budget - 1,
                        overlap_budget - overlap,
                        chosen,
                    ) {
                        gaps.pop();
                        return true;
                    }
                    chosen.pop();
                    for &i in &newly {
                        remaining[i] = true;
                    }
                }
            }
            gaps.pop();
        }
        if gaps.len() == 5 {
            return false;
        }
        // Extend with another RESIDUAL chord from cur (cheap: scan all v).
        for v in 0..n {
            if v == cur {
                continue;
            }
            let g = self.ring.cw_gap(cur, v);
            if used + g >= n {
                continue;
            }
            // vertex v must not already be on the chain… approximate: the
            // winding property keeps vertices distinct automatically since
            // total gap < n and gaps > 0.
            let i = self.dense(cur, v);
            if !self.residual[i] || !remaining[i] {
                continue;
            }
            gaps.push(g);
            if self.extend_chain(
                start,
                v,
                gaps,
                remaining,
                left,
                budget,
                overlap_budget,
                chosen,
            ) {
                gaps.pop();
                return true;
            }
            gaps.pop();
        }
        false
    }
}

fn try_residual(
    big: Ring,
    residual: &[(u32, u32)],
    budget: usize,
    overlap_budget: usize,
) -> Option<Vec<Tile>> {
    let n = big.n() as usize;
    let mut flags = vec![false; n * (n - 1) / 2];
    for &(u, v) in residual {
        flags[cyclecover_graph::Edge::new(u, v).dense_index(n)] = true;
    }
    let mut solver = ResidualSolver {
        ring: big,
        residual: flags.clone(),
        n,
    };
    let mut remaining = flags;
    let mut chosen = Vec::new();
    let left = residual.len();
    if solver.solve(&mut remaining, left, budget, overlap_budget, &mut chosen) {
        Some(chosen)
    } else {
        None
    }
}

fn main() {
    // Case A: n ≡ 2 (mod 4), p odd.
    for p in [5u32, 7, 9, 11, 13, 15] {
        let n = 2 * p;
        let big = Ring::new(n);
        let small = Ring::new(p);
        let inner = construct_optimal(p);
        let mut tiles = lift(inner.tiles(), small, big, 0);
        tiles.extend(lift(inner.tiles(), small, big, 1));
        let within = tiles.len();
        let q = q_family_odd_p(big, p);
        let dups = count_duplicates(&q);
        tiles.extend(q);
        let res = uncovered(big, &tiles);
        let budget = p.div_ceil(2) as usize;
        let used_so_far = tiles.len();
        let target = rho(n) as usize;
        print!(
            "n={n:3} p={p:2}: within={within} qfam={} dups={dups} residual={} budget={budget} target={target} ",
            used_so_far - within,
            res.len()
        );
        match try_residual(big, &res, budget, 4) {
            Some(extra) => {
                tiles.extend(extra);
                let total = tiles.len();
                let still = uncovered(big, &tiles).len();
                println!(
                    "-> SOLVED total={total} (== target: {}) leftover={still}",
                    total == target
                );
            }
            None => println!("-> residual UNSOLVED"),
        }
    }

    // Case B: n ≡ 0 (mod 4), q odd → p ≡ 2 (mod 4).
    for p in [6u32, 10, 14, 18, 22] {
        let n = 2 * p;
        let big = Ring::new(n);
        let small = Ring::new(p);
        let inner = construct_optimal(p);
        let mut tiles = lift(inner.tiles(), small, big, 0);
        tiles.extend(lift(inner.tiles(), small, big, 1));
        let q = q_family_even_p(big, p);
        let dups = count_duplicates(&q);
        tiles.extend(q);
        let res = uncovered(big, &tiles);
        let target = rho(n) as usize;
        println!(
            "n={n:3} p={p:2}: total={} dups={dups} residual={} target={target} exact={}",
            tiles.len(),
            res.len(),
            tiles.len() == target && res.is_empty()
        );
    }
}
