//! Residual-solver v2 exploration: candidate-tile enumeration + budgeted
//! exact cover, for the p-odd cross residual.

use cyclecover_core::{construct_optimal, rho};
use cyclecover_graph::Edge;
use cyclecover_ring::{Ring, Tile};
use std::collections::BTreeSet;

fn lift(tiles: &[Tile], big: Ring, parity: u32) -> Vec<Tile> {
    tiles
        .iter()
        .map(|t| Tile::from_vertices(big, t.vertices().iter().map(|&v| 2 * v + parity).collect()))
        .collect()
}

fn q_family_odd_p(big: Ring, p: u32, include_one: bool) -> Vec<Tile> {
    let n = 2 * p;
    let mut tiles = Vec::new();
    let (a_lo, a_hi) = if include_one { (1, p - 2) } else { (3, p) };
    let mut a = a_lo;
    while a <= a_hi {
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

fn uncovered(big: Ring, tiles: &[Tile]) -> Vec<Edge> {
    let n = big.n() as usize;
    let mut cov = vec![false; n * (n - 1) / 2];
    for t in tiles {
        for c in t.chords(big) {
            cov[Edge::new(c.u(), c.v()).dense_index(n)] = true;
        }
    }
    (0..n * (n - 1) / 2)
        .filter(|&i| !cov[i])
        .map(|i| Edge::from_dense_index(i, n))
        .collect()
}

/// Enumerate candidate tiles: winding chains over residual chords with up
/// to `max_ov` free (non-residual) gaps, total length `3..=max_len`.
fn enumerate_candidates(
    ring: Ring,
    residual: &[Edge],
    max_len: usize,
    max_ov: usize,
) -> Vec<(Tile, Vec<usize>)> {
    let n = ring.n();
    let nn = n as usize;
    let mut is_res = vec![false; nn * (nn - 1) / 2];
    let mut res_id = vec![usize::MAX; nn * (nn - 1) / 2];
    for (k, e) in residual.iter().enumerate() {
        let i = e.dense_index(nn);
        is_res[i] = true;
        res_id[i] = k;
    }
    // adjacency: residual chords by endpoint
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nn];
    for e in residual {
        adj[e.u() as usize].push(e.v());
        adj[e.v() as usize].push(e.u());
    }

    let mut seen = BTreeSet::new();
    let mut out = Vec::new();

    // DFS over chains.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        ring: Ring,
        adj: &[Vec<u32>],
        is_res: &[Vec<bool>; 1],
        res_id: &[usize],
        start: u32,
        cur: u32,
        used: u32,
        gaps: &mut Vec<u32>,
        covered: &mut Vec<usize>,
        ov: usize,
        max_len: usize,
        max_ov: usize,
        seen: &mut BTreeSet<Vec<u32>>,
        out: &mut Vec<(Tile, Vec<usize>)>,
    ) {
        let n = ring.n();
        let nn = n as usize;
        // close the tile if possible
        if gaps.len() >= 2 && used < n && !covered.is_empty() {
            let close_gap = n - used;
            let i = Edge::new(cur.min(start), cur.max(start)).dense_index(nn);
            let close_res = is_res[0][i];
            let total_ov = ov + usize::from(!close_res);
            if gaps.len() + 1 >= 3 && total_ov <= max_ov {
                gaps.push(close_gap);
                let tile = Tile::from_gaps(ring, start, gaps);
                let key = tile.vertices().to_vec();
                if seen.insert(key) {
                    let mut cov = covered.clone();
                    if close_res {
                        cov.push(res_id[i]);
                    }
                    cov.sort_unstable();
                    cov.dedup();
                    out.push((tile, cov));
                }
                gaps.pop();
            }
        }
        if gaps.len() == max_len {
            return;
        }
        // extend via residual chords
        for &v in &adj[cur as usize] {
            if v == start {
                continue; // closing handled above
            }
            let g = ring.cw_gap(cur, v);
            if used + g >= n {
                continue;
            }
            let i = Edge::new(cur.min(v), cur.max(v)).dense_index(nn);
            let rid = res_id[i];
            if covered.contains(&rid) {
                continue;
            }
            gaps.push(g);
            covered.push(rid);
            dfs(
                ring,
                adj,
                is_res,
                res_id,
                start,
                v,
                used + g,
                gaps,
                covered,
                ov,
                max_len,
                max_ov,
                seen,
                out,
            );
            covered.pop();
            gaps.pop();
        }
        // extend via one free gap (any target vertex)
        if ov < max_ov && !covered.is_empty() {
            for v in 0..n {
                if v == cur || v == start {
                    continue;
                }
                let g = ring.cw_gap(cur, v);
                if used + g >= n {
                    continue;
                }
                gaps.push(g);
                dfs(
                    ring,
                    adj,
                    is_res,
                    res_id,
                    start,
                    v,
                    used + g,
                    gaps,
                    covered,
                    ov + 1,
                    max_len,
                    max_ov,
                    seen,
                    out,
                );
                gaps.pop();
            }
        }
    }

    let wrapped = [is_res];
    for e in residual {
        for (s, t) in [(e.u(), e.v()), (e.v(), e.u())] {
            let g = ring.cw_gap(s, t);
            let i = e.dense_index(nn);
            let mut gaps = vec![g];
            let mut covered = vec![res_id[i]];
            dfs(
                ring,
                &adj,
                &wrapped,
                &res_id,
                s,
                t,
                g,
                &mut gaps,
                &mut covered,
                0,
                max_len,
                max_ov,
                &mut seen,
                &mut out,
            );
        }
    }
    out
}

/// Budgeted exact cover over candidates. Returns chosen tiles.
fn cover_residual(
    ring: Ring,
    residual: &[Edge],
    candidates: &[(Tile, Vec<usize>)],
    budget: usize,
) -> Option<Vec<Tile>> {
    let r = residual.len();
    // candidate lists per residual chord
    let mut by_chord: Vec<Vec<u32>> = vec![Vec::new(); r];
    for (ci, (_, cov)) in candidates.iter().enumerate() {
        for &k in cov {
            by_chord[k].push(ci as u32);
        }
    }
    // diam flags (≤1 diameter per tile is implicit in tiles; but remaining
    // diam count lower-bounds tiles needed)
    let n = ring.n();
    let is_diam: Vec<bool> = residual
        .iter()
        .map(|e| ring.is_diameter_class(ring.distance(e.u(), e.v())))
        .collect();

    struct S<'a> {
        cands: &'a [(Tile, Vec<usize>)],
        by_chord: &'a [Vec<u32>],
        is_diam: &'a [bool],
        covered: Vec<bool>,
        left: usize,
        diams_left: usize,
        chosen: Vec<u32>,
        nodes: u64,
    }
    impl S<'_> {
        fn dfs(&mut self, budget: usize) -> bool {
            if self.left == 0 {
                return true;
            }
            self.nodes += 1;
            if self.nodes > 20_000_000 {
                return false;
            }
            if budget == 0 || self.left > budget * 6 || self.diams_left > budget {
                return false;
            }
            // MRV chord
            let Some((k, _)) = (0..self.covered.len())
                .filter(|&k| !self.covered[k])
                .map(|k| {
                    let live = self.by_chord[k]
                        .iter()
                        .filter(|&&c| self.cands[c as usize].1.iter().any(|&x| !self.covered[x]))
                        .count();
                    (k, live)
                })
                .min_by_key(|&(_, live)| live)
            else {
                return false;
            };
            let mut cands: Vec<u32> = self.by_chord[k].to_vec();
            cands.sort_by_key(|&c| {
                std::cmp::Reverse(
                    self.cands[c as usize]
                        .1
                        .iter()
                        .filter(|&&x| !self.covered[x])
                        .count(),
                )
            });
            for c in cands {
                let cov = &self.cands[c as usize].1;
                let newly: Vec<usize> = cov.iter().copied().filter(|&x| !self.covered[x]).collect();
                if newly.is_empty() {
                    continue;
                }
                for &x in &newly {
                    self.covered[x] = true;
                    self.left -= 1;
                    if self.is_diam[x] {
                        self.diams_left -= 1;
                    }
                }
                self.chosen.push(c);
                if self.dfs(budget - 1) {
                    return true;
                }
                self.chosen.pop();
                for &x in &newly {
                    self.covered[x] = false;
                    self.left += 1;
                    if self.is_diam[x] {
                        self.diams_left += 1;
                    }
                }
            }
            false
        }
    }
    let _ = n;
    let diams = is_diam.iter().filter(|&&d| d).count();
    let mut s = S {
        cands: candidates,
        by_chord: &by_chord,
        is_diam: &is_diam,
        covered: vec![false; r],
        left: r,
        diams_left: diams,
        chosen: Vec::new(),
        nodes: 0,
    };
    if s.dfs(budget) {
        Some(
            s.chosen
                .iter()
                .map(|&c| candidates[c as usize].0.clone())
                .collect(),
        )
    } else {
        None
    }
}

fn main() {
    for include_one in [false, true] {
        println!("== Q-family variant include_one={include_one} ==");
        for p in [5u32, 7, 9, 11, 13, 15, 17, 19, 21, 25] {
            let n = 2 * p;
            let big = Ring::new(n);
            let inner = construct_optimal(p);
            let mut tiles = lift(inner.tiles(), big, 0);
            tiles.extend(lift(inner.tiles(), big, 1));
            tiles.extend(q_family_odd_p(big, p, include_one));
            let res = uncovered(big, &tiles);
            let budget = p.div_ceil(2) as usize;
            let target = rho(n) as usize;
            let t0 = std::time::Instant::now();
            let cands = enumerate_candidates(big, &res, 6, 3);
            let t1 = t0.elapsed();
            match cover_residual(big, &res, &cands, budget) {
                Some(extra) => {
                    tiles.extend(extra);
                    let leftover = uncovered(big, &tiles).len();
                    println!(
                        "n={n:3}: residual={:3} cands={:6} ({t1:.0?}) -> SOLVED total={} target={target} ok={} leftover={leftover} [{:.0?}]",
                        res.len(), cands.len(), tiles.len(),
                        tiles.len() == target && leftover == 0,
                        t0.elapsed()
                    );
                }
                None => println!(
                    "n={n:3}: residual={:3} cands={:6} -> UNSOLVED [{:.0?}]",
                    res.len(),
                    cands.len(),
                    t0.elapsed()
                ),
            }
        }
    }
}
