//! Greedy set-cover baseline for DRC coverings.
//!
//! The classic `ln m`-approximation applied to our tile universe: repeatedly
//! pick the tile covering the most still-uncovered requests (ties broken by
//! less wasted ring capacity, then smaller index for determinism). Used as
//! the "what a straightforward engineer would ship" baseline against the
//! paper's optimal constructions (`tests/construction_vs_solver.rs`), and
//! as the seeding
//! stage of the `greedy`/`greedy-improve`/`anneal` engines in
//! [`crate::api`].
//!
//! Each pick runs on a **lazy-bucket max-coverage heap** instead of a full
//! `O(tiles)` rescan: coverage is submodular (a tile's useful coverage
//! only shrinks as others are placed), so every heap entry's stored score
//! is an upper bound on its true score. Popping the max and re-scoring it
//! is therefore sound — if the fresh score still matches, no other tile
//! can beat it; otherwise the entry is pushed back with the smaller score.
//! In practice most picks touch a handful of entries, making large-n
//! baseline generation near-linear instead of quadratic in the universe
//! size, while selecting the exact same tiles as the rescan did.

use crate::TileUniverse;
use cyclecover_graph::Edge;
use cyclecover_ring::Tile;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: a tile and its (possibly stale) useful-coverage score.
/// Ordering matches the original scan's selection rule — more coverage
/// first, then less waste, then smaller index.
#[derive(PartialEq, Eq)]
struct Entry {
    cov: u32,
    waste: u32,
    idx: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cov
            .cmp(&other.cov)
            .then_with(|| other.waste.cmp(&self.waste))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedily covers all requests of `K_n`; returns the chosen tiles.
///
/// Always succeeds (every chord is itself in some triangle tile).
pub fn greedy_cover(u: &TileUniverse) -> Vec<Tile> {
    // Runs on the universe's precomputed metadata: per-tile chord bitmasks
    // scored with an intersection popcount against the uncovered set.
    let mut uncovered = crate::bitset::ChordSet::full(u.num_chords());
    let mut chosen = Vec::new();

    // Seed with exact scores (everything is uncovered, so a tile's initial
    // coverage is just its chord count). Each tile has exactly one live
    // entry: a pop either selects it, drops it (score 0), or re-inserts it
    // once with its refreshed score.
    let mut heap: BinaryHeap<Entry> = (0..u.len() as u32)
        .map(|i| Entry {
            cov: u.tile_chords(i).len() as u32,
            waste: u.tile_waste(i),
            idx: i,
        })
        .collect();

    while !uncovered.is_empty() {
        let top = heap
            .pop()
            .expect("uncovered chords remain but no tile covers any");
        let cov = u.tile_mask(top.idx).intersection_count(&uncovered);
        if cov == 0 {
            // Dead tile: coverage never grows back, drop it for good.
            continue;
        }
        if cov == top.cov {
            // Fresh score confirmed maximal: every other entry stores an
            // upper bound on its true score, and all of those are <= this.
            uncovered.subtract(u.tile_mask(top.idx));
            chosen.push(u.tile(top.idx).clone());
        } else {
            heap.push(Entry { cov, ..top });
        }
    }
    chosen
}

/// Number of requests of `K_n` left uncovered by `tiles` (0 for a valid
/// covering) — a convenience audit used in tests and benches.
pub fn uncovered_count(u: &TileUniverse, tiles: &[Tile]) -> usize {
    let ring = u.ring();
    let n = ring.n() as usize;
    let mut covered = vec![false; n * (n - 1) / 2];
    for t in tiles {
        for c in t.chords(ring) {
            covered[c.to_edge().dense_index(n)] = true;
        }
    }
    let mut missing = 0;
    for uu in 0..n as u32 {
        for vv in (uu + 1)..n as u32 {
            if !covered[Edge::new(uu, vv).dense_index(n)] {
                missing += 1;
            }
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::{capacity_lower_bound, rho_formula};
    use cyclecover_ring::Ring;

    #[test]
    fn greedy_always_covers() {
        for n in 4u32..=12 {
            let u = TileUniverse::new(Ring::new(n), 4);
            let tiles = greedy_cover(&u);
            assert_eq!(uncovered_count(&u, &tiles), 0, "n={n}");
        }
    }

    #[test]
    fn greedy_at_least_lower_bound_and_not_absurd() {
        for n in 5u32..=12 {
            let u = TileUniverse::new(Ring::new(n), 4);
            let tiles = greedy_cover(&u);
            let lb = capacity_lower_bound(n);
            assert!(tiles.len() as u64 >= lb, "n={n}: greedy below LB?!");
            // Greedy shouldn't be worse than 2x optimal on these tiny cases.
            assert!(
                (tiles.len() as u64) <= 2 * rho_formula(n),
                "n={n}: greedy used {} vs rho {}",
                tiles.len(),
                rho_formula(n)
            );
        }
    }

    #[test]
    fn greedy_k4_uses_three_cycles() {
        // On K4/C4 even greedy finds the paper's optimum of 3 (any covering
        // needs >= ceil(10/4) = 3).
        let u = TileUniverse::new(Ring::new(4), 4);
        let tiles = greedy_cover(&u);
        assert_eq!(tiles.len(), 3);
    }
}
