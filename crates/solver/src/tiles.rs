//! Enumeration of winding tiles (= DRC-routable cycles) of a ring, with
//! the precomputed per-tile metadata the exact solver's hot path runs on.

use crate::bitset::ChordSet;
use cyclecover_graph::Edge;
use cyclecover_ring::{Ring, Tile};
use std::sync::OnceLock;

/// The universe of candidate covering cycles for exact search on `C_n`:
/// all winding tiles with size in `3..=max_len`, optionally restricted by a
/// maximum gap (arc length).
///
/// By the winding lemma every DRC-routable cycle *is* a tile (a vertex
/// subset in ring order), so enumerating subsets enumerates all admissible
/// covering cycles — there is no loss of generality for the exact solvers.
///
/// # Chord indexing
///
/// Chords have two index spaces:
///
/// * **dense** — [`Edge::dense_index`] order, the external convention used
///   by [`crate::bnb::CoverSpec`] and the rest of the workspace;
/// * **priority** — chords sorted by decreasing branch priority (diameter
///   chords first, then decreasing ring distance, ties by dense index).
///
/// All solver-internal metadata (tile chord lists, bitmasks, distance
/// table) lives in *priority* space, so "highest-priority unsatisfied
/// chord" is simply the first set bit of a [`ChordSet`]. Convert with
/// [`TileUniverse::pri_of_dense`] / [`TileUniverse::dense_of_pri`].
///
/// # Per-tile metadata
///
/// Construction precomputes, per tile: the chord index list (CSR-packed),
/// the chord bitmask, the total shortest-path load, the wasted ring
/// capacity, and the number of diameter-class chords. The branch & bound
/// touches only these tables — never the tile's vertex list — so a search
/// node costs a few word operations instead of per-chord ring arithmetic.
pub struct TileUniverse {
    ring: Ring,
    /// Strictly increasing in `Tile` order (lexicographic vertex lists,
    /// prefix first) — the enumeration order, which `index_of` searches.
    tiles: Vec<Tile>,
    /// `by_chord[edge.dense_index(n)]` lists indices of tiles having that
    /// chord (as a ring-consecutive pair, i.e. actually covering it).
    by_chord: Vec<Vec<u32>>,

    // ---- chord tables (priority space) ----
    /// dense index → priority index.
    pri_of_dense: Vec<u32>,
    /// priority index → dense index.
    dense_of_pri: Vec<u32>,
    /// priority index → ring distance of the chord.
    dist_of_pri: Vec<u32>,
    /// priority index → the chord's two ring vertices `(u, v)` with
    /// `u < v` — the endpoints whose uncovered degrees a placement
    /// changes (the iterative core's incremental parity bookkeeping).
    ends_of_pri: Vec<(u32, u32)>,
    /// Priority indices `< diam_chords` are exactly the diameter-class
    /// chords (0 for odd `n`).
    diam_chords: u32,
    /// Longest per-chord candidate list — the one-shot sizing bound for
    /// per-node candidate arenas (no search node can see more).
    max_candidates: u32,

    // ---- tile tables ----
    /// CSR offsets into `chord_idx`: tile `i` owns
    /// `chord_idx[chord_off[i]..chord_off[i+1]]`.
    chord_off: Vec<u32>,
    /// Concatenated per-tile chord lists (priority indices).
    chord_idx: Vec<u32>,
    /// Per-tile chord bitmask (priority space).
    masks: Vec<ChordSet>,
    /// Per-tile `(lo, hi)` word span of the mask: every set bit of
    /// `masks[i]` lies in words `lo..hi`. Candidate scoring and dominance
    /// subset tests touch only this span instead of the full width.
    mask_span: Vec<(u32, u32)>,
    /// Per-tile total shortest-path load `Σ dist(chord)`.
    load: Vec<u32>,
    /// Per-tile wasted ring capacity `n − min(load, n)`.
    waste: Vec<u32>,
    /// Per-tile number of diameter-class chords.
    diam_count: Vec<u32>,
    /// `vertex_masks[v]`: the chords incident to ring vertex `v`
    /// (priority space) — the support of the vertex-degree lower bound.
    vertex_masks: Vec<ChordSet>,

    /// Lazily-built dihedral action tables (`None` inside the cell when
    /// the group order `2n` exceeds the 64-bit subgroup masks).
    dihedral: OnceLock<Option<DihedralTables>>,
}

/// The action of the dihedral group `D_n = Aut(C_n)` on the universe,
/// precomputed as flat permutation tables so the exact search can do
/// symmetry reduction with plain array lookups and word operations.
///
/// Group elements are indexed `g ∈ 0..2n`: `g < n` is the rotation
/// `v ↦ v + g (mod n)`; `g = n + r` is the reflection-then-rotation
/// `v ↦ r − v (mod n)`. Element `0` is the identity. Subgroups are
/// represented as `u64` bitmasks over the element indices (hence the
/// `2n ≤ 64` limit — every ring this workspace searches exactly fits).
///
/// The tables are only valid for the universe they were built from: the
/// tile enumeration criteria (`max_len`, `max_gap`) are `D_n`-invariant,
/// so the universe is closed under the action and every image is again a
/// universe index.
pub struct DihedralTables {
    /// Group order `2n`.
    order: u32,
    /// Number of chord slots `m`.
    num_chords: u32,
    /// Number of tiles `T`.
    num_tiles: u32,
    /// `chord_perm[g · m + c]`: image of priority chord `c` under `g`.
    chord_perm: Vec<u32>,
    /// `tile_perm[g · T + t]`: image of tile `t` under `g`.
    tile_perm: Vec<u32>,
    /// `chord_stab[c]`: bitmask of elements fixing priority chord `c`.
    chord_stab: Vec<u64>,
    /// `tile_stab[t]`: bitmask of elements fixing tile `t`.
    tile_stab: Vec<u64>,
    /// `canon_tile[t]`: the smallest tile index in `t`'s orbit — the
    /// canonical image; `canon_tile[t] == t` marks orbit representatives.
    canon_tile: Vec<u32>,
}

impl DihedralTables {
    /// Builds the tables from the images of the two generators: the
    /// rotation `v ↦ v + 1` (element 1) and the reflection `v ↦ −v`
    /// (element `n`). Only those two rows are computed per chord and tile;
    /// every other row is a composition of them (see [`compose_rows`]).
    fn build(u: &TileUniverse) -> Option<DihedralTables> {
        let n = u.ring.n();
        let order = 2 * n;
        if order > 64 {
            return None;
        }
        let (nu, rows) = (n as usize, order as usize);
        let (m, t_count) = (u.num_chords() as usize, u.len());

        let mut chord_perm = vec![0u32; rows * m];
        let pri = |a: u32, b: u32| u.pri_of_dense(Edge::new(a, b).dense_index(nu) as u32);
        for c in 0..m {
            let (a, b) = u.chord_ends_of_pri(c as u32);
            chord_perm[c] = c as u32;
            chord_perm[m + c] = pri(u.ring.add(a, 1), u.ring.add(b, 1));
            chord_perm[nu * m + c] = pri(u.ring.sub(0, a), u.ring.sub(0, b));
        }
        compose_rows(&mut chord_perm, nu, m);

        // Tiles as n-bit vertex masks (n ≤ 32 here), sorted so that a
        // generator image is found by binary search.
        let full = u32::MAX >> (32 - n);
        let rotate = |mask: u32| (mask << 1 | mask >> (n - 1)) & full;
        let reflect = |mask: u32| rotate(mask.reverse_bits() >> (32 - n));
        let mut by_mask: Vec<(u32, u32)> = (0..t_count as u32)
            .map(|t| {
                let verts = u.tiles[t as usize].vertices();
                (verts.iter().fold(0u32, |mask, &v| mask | 1 << v), t)
            })
            .collect();
        by_mask.sort_unstable();
        let index_of_mask = |mask: u32| {
            let i = by_mask
                .binary_search_by_key(&mask, |&(m, _)| m)
                .expect("tile universe is closed under the dihedral action");
            by_mask[i].1
        };
        let mut tile_perm = vec![0u32; rows * t_count];
        for &(mask, t) in &by_mask {
            tile_perm[t as usize] = t;
            tile_perm[t_count + t as usize] = index_of_mask(rotate(mask));
            tile_perm[nu * t_count + t as usize] = index_of_mask(reflect(mask));
        }
        compose_rows(&mut tile_perm, nu, t_count);

        let mut canon_tile: Vec<u32> = (0..t_count as u32).collect();
        for g in 0..rows {
            for (canon, &img) in canon_tile.iter_mut().zip(&tile_perm[g * t_count..]) {
                *canon = (*canon).min(img);
            }
        }
        Some(DihedralTables {
            order,
            num_chords: m as u32,
            num_tiles: t_count as u32,
            chord_stab: stabilizers(&chord_perm, rows, m),
            tile_stab: stabilizers(&tile_perm, rows, t_count),
            chord_perm,
            tile_perm,
            canon_tile,
        })
    }

    /// Heap bytes of the tables for a group of order `order` acting on
    /// `num_chords` chords and `num_tiles` tiles: the two permutation
    /// tables, the two stabilizer arrays and the canonical-image array.
    fn heap_bytes(order: usize, num_chords: usize, num_tiles: usize) -> usize {
        use std::mem::size_of;
        (order * (num_chords + num_tiles) + num_tiles) * size_of::<u32>()
            + (num_chords + num_tiles) * size_of::<u64>()
    }

    /// Group order `2n`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Number of tiles the tables act on.
    #[inline]
    pub fn num_tiles(&self) -> u32 {
        self.num_tiles
    }

    /// Image of priority chord `c` under element `g`.
    #[inline]
    pub fn chord_image(&self, g: u32, c: u32) -> u32 {
        self.chord_perm[(g * self.num_chords + c) as usize]
    }

    /// Image of tile `t` under element `g`.
    #[inline]
    pub fn tile_image(&self, g: u32, t: u32) -> u32 {
        self.tile_perm[g as usize * self.num_tiles as usize + t as usize]
    }

    /// Subgroup mask of the elements fixing priority chord `c`.
    #[inline]
    pub fn chord_stab(&self, c: u32) -> u64 {
        self.chord_stab[c as usize]
    }

    /// Subgroup mask of the elements fixing tile `t`.
    #[inline]
    pub fn tile_stab(&self, t: u32) -> u64 {
        self.tile_stab[t as usize]
    }

    /// The canonical (smallest-index) image of tile `t`'s orbit.
    #[inline]
    pub fn canonical_tile(&self, t: u32) -> u32 {
        self.canon_tile[t as usize]
    }

    /// Whether tile `t` is its orbit's representative.
    #[inline]
    pub fn is_orbit_rep(&self, t: u32) -> bool {
        self.canon_tile[t as usize] == t
    }

    /// Iterator over the orbit representatives (canonical tiles).
    pub fn orbit_reps(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.num_tiles).filter(move |&t| self.is_orbit_rep(t))
    }

    /// Stabilizer mask of the highest-priority diameter chord (priority
    /// index 0), or `None` when the ring has no diameter class. This is
    /// the subgroup the root branch of an even complete instance is
    /// reduced by: order 4 (identity, the `n/2` rotation, and the two
    /// reflections through the chord's axis and its perpendicular).
    pub fn diameter_chord_stab(&self, u: &TileUniverse) -> Option<u64> {
        (u.diam_chords() > 0).then(|| self.chord_stab(0))
    }

    /// Subgroup mask of the elements preserving a demand level function
    /// over priority chords — the symmetry group of a search's initial
    /// state. For complete and λ-fold specs this is all of `D_n`.
    pub fn demand_preserving(&self, demand_of_pri: impl Fn(u32) -> u32) -> u64 {
        let mut mask = 0u64;
        'g: for g in 0..self.order {
            for c in 0..self.num_chords {
                if demand_of_pri(self.chord_image(g, c)) != demand_of_pri(c) {
                    continue 'g;
                }
            }
            mask |= 1 << g;
        }
        mask
    }
}

/// Completes a `g`-major table of `width` columns over `D_n` (element
/// indexing as in [`DihedralTables`]) from its rows `1` (rotation by one)
/// and `n` (the reflection `v ↦ −v`): row `g = row 1 ∘ row (g − 1)` for
/// `1 < g < n`, and row `n + r = row r ∘ row n`.
fn compose_rows(perm: &mut [u32], n: usize, width: usize) {
    for g in 2..n {
        let (done, rest) = perm.split_at_mut(g * width);
        let (rot, prev) = (&done[width..2 * width], &done[(g - 1) * width..]);
        for (img, &x) in rest[..width].iter_mut().zip(prev) {
            *img = rot[x as usize];
        }
    }
    let (rotations, reflections) = perm.split_at_mut(n * width);
    let (refl, rest) = reflections.split_at_mut(width);
    for r in 1..n {
        let rot_r = &rotations[r * width..(r + 1) * width];
        for (img, &x) in rest[(r - 1) * width..r * width].iter_mut().zip(&*refl) {
            *img = rot_r[x as usize];
        }
    }
}

/// `stab[x]`: bitmask of the rows `g ∈ 0..order` of a `g`-major table of
/// `width` columns that fix column `x`.
fn stabilizers(perm: &[u32], order: usize, width: usize) -> Vec<u64> {
    let mut stab = vec![0u64; width];
    for g in 0..order {
        for (x, (s, &img)) in stab.iter_mut().zip(&perm[g * width..]).enumerate() {
            *s |= ((img as usize == x) as u64) << g;
        }
    }
    stab
}

impl TileUniverse {
    /// Enumerates all tiles with `3 ≤ |S| ≤ max_len` vertices.
    ///
    /// For minimum-covering searches `max_len = n` is exact; the paper's
    /// constructions only ever need `max_len = 4`.
    pub fn new(ring: Ring, max_len: usize) -> Self {
        Self::with_max_gap(ring, max_len, ring.n())
    }

    /// As [`TileUniverse::new`] but only tiles whose gaps are all ≤
    /// `max_gap`. With `max_gap = ⌊n/2⌋` every chord is routed on a
    /// shortest path (no "wasted" capacity) — the shape of all odd-`n`
    /// optimal coverings.
    pub fn with_max_gap(ring: Ring, max_len: usize, max_gap: u32) -> Self {
        assert!(max_len >= 3, "tiles need >= 3 vertices");
        let n = ring.n();
        let mut tiles = Vec::new();
        // DFS over increasing vertex choices; prune when the remaining gap
        // back to the start would force a gap > max_gap… (cheap check at
        // close time only, gaps between chosen vertices checked on the fly).
        let mut current: Vec<u32> = Vec::with_capacity(max_len);
        fn rec(
            ring: Ring,
            max_len: usize,
            max_gap: u32,
            next_min: u32,
            current: &mut Vec<u32>,
            tiles: &mut Vec<Tile>,
        ) {
            let n = ring.n();
            if current.len() >= 3 {
                // Closing gap from last vertex back to first.
                let close = ring.cw_gap(*current.last().unwrap(), current[0]);
                if close <= max_gap {
                    tiles.push(Tile::from_vertices(ring, current.clone()));
                }
            }
            if current.len() == max_len {
                return;
            }
            for v in next_min..n {
                // Gap from previous chosen vertex.
                if let Some(&prev) = current.last() {
                    if ring.cw_gap(prev, v) > max_gap {
                        // gaps only grow as v grows
                        break;
                    }
                }
                current.push(v);
                rec(ring, max_len, max_gap, v + 1, current, tiles);
                current.pop();
            }
        }
        // First vertex ranges over all positions (subsets are sorted, so the
        // first vertex is the minimum).
        for v0 in 0..n {
            current.push(v0);
            rec(ring, max_len, max_gap, v0 + 1, &mut current, &mut tiles);
            current.pop();
        }

        let m = n as usize * (n as usize - 1) / 2;

        // Priority permutation: stable sort of dense indices by decreasing
        // distance puts diameter-class chords (maximal distance) first and
        // keeps ties in dense order — the exact branch order the original
        // per-node scan used, now implicit in bit position.
        let mut dense_by_priority: Vec<u32> = (0..m as u32).collect();
        let dense_dist: Vec<u32> = (0..m)
            .map(|i| {
                let e = Edge::from_dense_index(i, n as usize);
                ring.distance(e.u(), e.v())
            })
            .collect();
        dense_by_priority.sort_by_key(|&i| std::cmp::Reverse(dense_dist[i as usize]));
        let dense_of_pri = dense_by_priority;
        let mut pri_of_dense = vec![0u32; m];
        for (pri, &dense) in dense_of_pri.iter().enumerate() {
            pri_of_dense[dense as usize] = pri as u32;
        }
        let dist_of_pri: Vec<u32> = dense_of_pri
            .iter()
            .map(|&d| dense_dist[d as usize])
            .collect();
        let ends_of_pri: Vec<(u32, u32)> = dense_of_pri
            .iter()
            .map(|&d| {
                let e = Edge::from_dense_index(d as usize, n as usize);
                (e.u(), e.v())
            })
            .collect();
        let diam_chords = dist_of_pri
            .iter()
            .take_while(|&&d| ring.is_diameter_class(d))
            .count() as u32;

        let mut vertex_masks = vec![ChordSet::empty(m as u32); n as usize];
        for (dense, &pri) in pri_of_dense.iter().enumerate() {
            let e = Edge::from_dense_index(dense, n as usize);
            vertex_masks[e.u() as usize].insert(pri);
            vertex_masks[e.v() as usize].insert(pri);
        }

        // Per-tile metadata + per-chord candidate lists, one pass.
        let mut by_chord = vec![Vec::new(); m];
        let mut chord_off = Vec::with_capacity(tiles.len() + 1);
        let mut chord_idx = Vec::new();
        let mut masks = Vec::with_capacity(tiles.len());
        let mut mask_span = Vec::with_capacity(tiles.len());
        let mut load = Vec::with_capacity(tiles.len());
        let mut waste = Vec::with_capacity(tiles.len());
        let mut diam_count = Vec::with_capacity(tiles.len());
        chord_off.push(0u32);
        for (i, t) in tiles.iter().enumerate() {
            let mut mask = ChordSet::empty(m as u32);
            let mut tile_load = 0u32;
            let mut tile_diam = 0u32;
            for (u, v) in t.chord_pairs() {
                let dense = Edge::new(u, v).dense_index(n as usize);
                let pri = pri_of_dense[dense];
                by_chord[dense].push(i as u32);
                chord_idx.push(pri);
                mask.insert(pri);
                tile_load += dist_of_pri[pri as usize];
                tile_diam += (pri < diam_chords) as u32;
            }
            chord_off.push(chord_idx.len() as u32);
            let lo = mask
                .words()
                .iter()
                .position(|&w| w != 0)
                .unwrap_or(0) as u32;
            let hi = mask
                .words()
                .iter()
                .rposition(|&w| w != 0)
                .map(|p| p as u32 + 1)
                .unwrap_or(0);
            mask_span.push((lo, hi));
            masks.push(mask);
            load.push(tile_load);
            waste.push(n - tile_load.min(n));
            diam_count.push(tile_diam);
        }
        let max_candidates = by_chord.iter().map(|c| c.len() as u32).max().unwrap_or(0);

        TileUniverse {
            ring,
            tiles,
            by_chord,
            pri_of_dense,
            dense_of_pri,
            dist_of_pri,
            ends_of_pri,
            diam_chords,
            max_candidates,
            chord_off,
            chord_idx,
            masks,
            mask_span,
            load,
            waste,
            diam_count,
            vertex_masks,
            dihedral: OnceLock::new(),
        }
    }

    /// The dihedral action tables, built on first use (`None` for rings
    /// with `2n > 64`, where the `u64` subgroup masks don't fit — far
    /// beyond any instance the exact search can finish anyway).
    pub fn dihedral(&self) -> Option<&DihedralTables> {
        self.dihedral
            .get_or_init(|| DihedralTables::build(self))
            .as_ref()
    }

    /// The ring.
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// Approximate heap footprint of this universe in bytes — the figure
    /// a byte-budgeted universe cache charges per entry. Counts the
    /// dominant owned allocations (tile vertex lists, CSR chord tables,
    /// bitmasks, per-chord candidate lists) and, whenever `2n ≤ 64`, the
    /// dihedral tables at their exact size, built or not: a cache charges
    /// an entry once, on insertion, and the tables are built lazily later
    /// (for the full `n = 17` universe, 18.5 MiB against 25.7 MiB for the
    /// rest).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let m = self.pri_of_dense.len();
        let words_per_mask = m.div_ceil(64);
        let mask_bytes = size_of::<ChordSet>() + words_per_mask * 8;
        let mut bytes = size_of::<Self>();
        bytes += self
            .tiles
            .iter()
            .map(|t| size_of::<Tile>() + t.len() * size_of::<u32>())
            .sum::<usize>();
        bytes += self
            .by_chord
            .iter()
            .map(|c| size_of::<Vec<u32>>() + c.len() * size_of::<u32>())
            .sum::<usize>();
        bytes += (self.pri_of_dense.len() + self.dense_of_pri.len() + self.dist_of_pri.len())
            * size_of::<u32>();
        bytes += self.ends_of_pri.len() * size_of::<(u32, u32)>();
        bytes += (self.chord_off.len() + self.chord_idx.len()) * size_of::<u32>();
        bytes += self.masks.len() * (mask_bytes + size_of::<(u32, u32)>());
        bytes += (self.load.len() + self.waste.len() + self.diam_count.len()) * size_of::<u32>();
        bytes += self.vertex_masks.len() * mask_bytes;
        let order = 2 * self.ring.n() as usize;
        if order <= 64 {
            bytes += DihedralTables::heap_bytes(order, m, self.tiles.len());
        }
        bytes
    }

    /// All tiles.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Indices of tiles covering the given request.
    pub fn candidates(&self, e: Edge) -> &[u32] {
        &self.by_chord[e.dense_index(self.ring.n() as usize)]
    }

    /// Indices of tiles covering the chord with priority index `pri`.
    pub fn candidates_pri(&self, pri: u32) -> &[u32] {
        &self.by_chord[self.dense_of_pri[pri as usize] as usize]
    }

    /// The tile with index `i`.
    pub fn tile(&self, i: u32) -> &Tile {
        &self.tiles[i as usize]
    }

    /// The index of `tile` in this universe, if enumerated.
    pub fn index_of(&self, tile: &Tile) -> Option<u32> {
        self.tiles.binary_search(tile).ok().map(|i| i as u32)
    }

    /// Number of chord slots (`n(n−1)/2`).
    pub fn num_chords(&self) -> u32 {
        self.pri_of_dense.len() as u32
    }

    /// Dense chord index → priority index.
    pub fn pri_of_dense(&self, dense: u32) -> u32 {
        self.pri_of_dense[dense as usize]
    }

    /// Priority index → dense chord index.
    pub fn dense_of_pri(&self, pri: u32) -> u32 {
        self.dense_of_pri[pri as usize]
    }

    /// Ring distance of the chord with priority index `pri`.
    pub fn dist_of_pri(&self, pri: u32) -> u32 {
        self.dist_of_pri[pri as usize]
    }

    /// The two ring vertices `(u, v)` (with `u < v`) of the chord with
    /// priority index `pri`.
    #[inline]
    pub fn chord_ends_of_pri(&self, pri: u32) -> (u32, u32) {
        self.ends_of_pri[pri as usize]
    }

    /// Length of the longest per-chord candidate list — an upper bound on
    /// how many candidates any single search node can score (the
    /// recursive reference search sizes its dominance scratch from it).
    #[inline]
    pub fn max_candidates(&self) -> u32 {
        self.max_candidates
    }

    /// Number of diameter-class chords; priority indices `< diam_chords()`
    /// are exactly those chords.
    pub fn diam_chords(&self) -> u32 {
        self.diam_chords
    }

    /// Tile `i`'s chords as priority indices (precomputed, no ring math).
    #[inline]
    pub fn tile_chords(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.chord_idx[self.chord_off[i] as usize..self.chord_off[i + 1] as usize]
    }

    /// Tile `i`'s chord bitmask (priority space).
    #[inline]
    pub fn tile_mask(&self, i: u32) -> &ChordSet {
        &self.masks[i as usize]
    }

    /// The `(lo, hi)` word span of tile `i`'s mask: every set bit lies in
    /// words `lo..hi` of the priority chord space.
    #[inline]
    pub fn tile_mask_span(&self, i: u32) -> (u32, u32) {
        self.mask_span[i as usize]
    }

    /// Tile `i`'s total shortest-path load `Σ dist(chord)`.
    #[inline]
    pub fn tile_load(&self, i: u32) -> u32 {
        self.load[i as usize]
    }

    /// Tile `i`'s wasted ring capacity `n − min(load, n)`.
    #[inline]
    pub fn tile_waste(&self, i: u32) -> u32 {
        self.waste[i as usize]
    }

    /// Number of diameter-class chords of tile `i`.
    #[inline]
    pub fn tile_diam_count(&self, i: u32) -> u32 {
        self.diam_count[i as usize]
    }

    /// Chords incident to ring vertex `v`, as a priority-space mask.
    #[inline]
    pub fn vertex_mask(&self, v: u32) -> &ChordSet {
        &self.vertex_masks[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiles of size k on C_n are exactly the k-subsets: C(n,3) + C(n,4)
    /// for max_len = 4.
    #[test]
    fn tile_counts_are_binomials() {
        fn binom(n: u64, k: u64) -> u64 {
            let mut r = 1u64;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        }
        for n in [5u32, 6, 8, 9] {
            let u = TileUniverse::new(Ring::new(n), 4);
            assert_eq!(u.len() as u64, binom(n as u64, 3) + binom(n as u64, 4), "n={n}");
            let full = TileUniverse::new(Ring::new(n), n as usize);
            let expect: u64 = (3..=n as u64).map(|k| binom(n as u64, k)).sum();
            assert_eq!(full.len() as u64, expect, "n={n} full");
        }
    }

    #[test]
    fn max_gap_filters_long_arcs() {
        let ring = Ring::new(9);
        let u = TileUniverse::with_max_gap(ring, 4, 4);
        assert!(u.tiles().iter().all(|t| t.max_gap(ring) <= 4));
        // {0, 1, 2} has closing gap 7 > 4: excluded.
        assert!(!u
            .tiles()
            .iter()
            .any(|t| t.vertices() == [0, 1, 2]));
        // {0, 3, 6} has gaps 3,3,3: included.
        assert!(u.tiles().iter().any(|t| t.vertices() == [0, 3, 6]));
    }

    #[test]
    fn candidates_actually_cover() {
        let ring = Ring::new(7);
        let u = TileUniverse::new(ring, 4);
        for uu in 0..7u32 {
            for vv in (uu + 1)..7u32 {
                let e = Edge::new(uu, vv);
                let cands = u.candidates(e);
                assert!(!cands.is_empty());
                for &i in cands {
                    let covers = u
                        .tile(i)
                        .chords(ring)
                        .iter()
                        .any(|c| c.to_edge() == e);
                    assert!(covers, "tile {:?} listed for {e} but does not cover it", u.tile(i));
                }
            }
        }
    }

    /// A chord {u,v} is covered by a tile iff u,v are ring-consecutive in
    /// it; count candidates for a fixed chord on a small ring by brute force.
    #[test]
    fn candidate_counts_match_bruteforce() {
        let ring = Ring::new(6);
        let u = TileUniverse::new(ring, 4);
        let e = Edge::new(0, 2);
        let brute = u
            .tiles()
            .iter()
            .filter(|t| t.chords(ring).iter().any(|c| c.to_edge() == e))
            .count();
        assert_eq!(u.candidates(e).len(), brute);
    }

    #[test]
    fn priority_permutation_is_consistent() {
        for n in [7u32, 8, 12] {
            let ring = Ring::new(n);
            let u = TileUniverse::new(ring, 4);
            let m = u.num_chords();
            assert_eq!(m as usize, n as usize * (n as usize - 1) / 2);
            // Round trip and monotone-decreasing distance in priority order.
            for pri in 0..m {
                assert_eq!(u.pri_of_dense(u.dense_of_pri(pri)), pri, "n={n}");
                if pri > 0 {
                    assert!(
                        u.dist_of_pri(pri - 1) >= u.dist_of_pri(pri),
                        "n={n}: priority order must not increase distance"
                    );
                }
                let e = Edge::from_dense_index(u.dense_of_pri(pri) as usize, n as usize);
                assert_eq!(u.dist_of_pri(pri), ring.distance(e.u(), e.v()), "n={n}");
            }
            // The diameter prefix is exactly the diameter class.
            let expect_diam = if n % 2 == 0 { n / 2 } else { 0 };
            assert_eq!(u.diam_chords(), expect_diam, "n={n}");
            for pri in 0..m {
                assert_eq!(
                    pri < u.diam_chords(),
                    ring.is_diameter_class(u.dist_of_pri(pri)),
                    "n={n} pri={pri}"
                );
            }
        }
    }

    #[test]
    fn dihedral_tables_are_group_actions() {
        for n in [6u32, 7, 8] {
            let ring = Ring::new(n);
            let u = TileUniverse::new(ring, n as usize);
            let d = u.dihedral().expect("2n <= 64");
            assert_eq!(d.order(), 2 * n);
            let m = u.num_chords();
            let t_count = u.len() as u32;
            // Element 0 is the identity.
            for c in 0..m {
                assert_eq!(d.chord_image(0, c), c);
            }
            for t in 0..t_count {
                assert_eq!(d.tile_image(0, t), t);
            }
            for g in 0..d.order() {
                // Permutations (bijective) and distance-preserving.
                let mut seen_c = vec![false; m as usize];
                for c in 0..m {
                    let img = d.chord_image(g, c);
                    assert!(!seen_c[img as usize], "n={n} g={g}: chord collision");
                    seen_c[img as usize] = true;
                    assert_eq!(u.dist_of_pri(img), u.dist_of_pri(c), "n={n} g={g}");
                }
                let mut seen_t = vec![false; t_count as usize];
                for t in 0..t_count {
                    let img = d.tile_image(g, t);
                    assert!(!seen_t[img as usize], "n={n} g={g}: tile collision");
                    seen_t[img as usize] = true;
                    // Tile metadata is invariant under the action.
                    assert_eq!(u.tile_load(img), u.tile_load(t), "n={n} g={g} t={t}");
                    assert_eq!(u.tile_waste(img), u.tile_waste(t), "n={n} g={g} t={t}");
                    assert_eq!(
                        u.tile_diam_count(img),
                        u.tile_diam_count(t),
                        "n={n} g={g} t={t}"
                    );
                    // The tile's chord mask maps chord-wise.
                    let mut mapped: Vec<u32> =
                        u.tile_chords(t).iter().map(|&c| d.chord_image(g, c)).collect();
                    mapped.sort_unstable();
                    let img_chords: Vec<u32> = u.tile_mask(img).iter().collect();
                    assert_eq!(mapped, img_chords, "n={n} g={g} t={t}");
                }
            }
            // Stabilizer masks: bit g set iff g fixes the object.
            for t in (0..t_count).step_by(7) {
                for g in 0..d.order() {
                    assert_eq!(
                        d.tile_stab(t) >> g & 1 == 1,
                        d.tile_image(g, t) == t,
                        "n={n} t={t} g={g}"
                    );
                }
            }
            // Orbits partition the universe; canonical images are orbit
            // minima and idempotent.
            let mut orbit_total = 0usize;
            for rep in d.orbit_reps() {
                assert_eq!(d.canonical_tile(rep), rep);
                let orbit: std::collections::BTreeSet<u32> =
                    (0..d.order()).map(|g| d.tile_image(g, rep)).collect();
                assert!(orbit.iter().all(|&t| d.canonical_tile(t) == rep), "n={n}");
                assert_eq!(*orbit.iter().next().unwrap(), rep, "rep is the minimum");
                assert_eq!(2 * n as usize % orbit.len(), 0, "orbit divides |D_n|");
                orbit_total += orbit.len();
            }
            assert_eq!(orbit_total, t_count as usize, "orbits partition, n={n}");
            // Complete demand is preserved by the whole group; the
            // diameter-chord stabilizer has order 4 exactly for even n.
            let full = d.demand_preserving(|_| 1);
            assert_eq!(full.count_ones(), 2 * n, "n={n}");
            match d.diameter_chord_stab(&u) {
                Some(stab) => {
                    assert!(n.is_multiple_of(2));
                    assert_eq!(stab.count_ones(), 4, "n={n}");
                }
                None => assert!(!n.is_multiple_of(2)),
            }
        }
    }

    /// An asymmetric demand function shrinks the preserved subgroup: a
    /// single demanded chord is preserved exactly by its stabilizer.
    #[test]
    fn demand_preserving_respects_asymmetry() {
        let u = TileUniverse::new(Ring::new(8), 4);
        let d = u.dihedral().unwrap();
        for c in [0u32, 5, 17] {
            let mask = d.demand_preserving(|pri| (pri == c) as u32);
            assert_eq!(mask, d.chord_stab(c), "chord {c}");
        }
    }

    #[test]
    fn tile_metadata_matches_recomputation() {
        // `(n, max_len, max_gap)`: full-gap and gap-restricted shapes.
        for (n, max_len, max_gap) in [(6u32, 5, 6), (9, 5, 9), (12, 5, 12), (9, 4, 4), (12, 5, 6)] {
            let ring = Ring::new(n);
            let u = TileUniverse::with_max_gap(ring, max_len, max_gap);
            let shape = format!("n={n} max_gap={max_gap}");
            // `index_of` binary-searches the enumeration order.
            assert!(
                u.tiles().windows(2).all(|w| w[0] < w[1]),
                "{shape}: not sorted"
            );
            for i in 0..u.len() as u32 {
                let t = u.tile(i);
                // Chord list ↔ mask ↔ tile.chords agreement.
                let mut expect: Vec<u32> = t
                    .chords(ring)
                    .iter()
                    .map(|c| u.pri_of_dense(c.to_edge().dense_index(n as usize) as u32))
                    .collect();
                let mut got = u.tile_chords(i).to_vec();
                assert_eq!(got.len(), t.len(), "{shape} tile {i}");
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect, "{shape} tile {i}");
                assert_eq!(
                    u.tile_mask(i).iter().collect::<Vec<_>>(),
                    expect,
                    "{shape} tile {i} mask"
                );
                // Load / waste / diameter count.
                assert_eq!(u.tile_load(i), t.shortest_load(ring), "{shape} tile {i}");
                assert_eq!(
                    u.tile_waste(i),
                    n - t.shortest_load(ring).min(n),
                    "{shape} tile {i}"
                );
                let diam = t
                    .chords(ring)
                    .iter()
                    .filter(|c| ring.is_diameter_class(c.distance(ring)))
                    .count() as u32;
                assert_eq!(u.tile_diam_count(i), diam, "{shape} tile {i}");
                // Index lookup round-trips.
                assert_eq!(u.index_of(t), Some(i), "{shape} tile {i}");
            }
        }
        // A tile the gap bound excludes is not found.
        let ring = Ring::new(9);
        let u = TileUniverse::with_max_gap(ring, 4, 4);
        assert_eq!(u.index_of(&Tile::from_vertices(ring, vec![0, 1, 2])), None);
    }

    /// The tables agree with the ring crate's tile symmetries: element
    /// `g < n` is `rotate_tile(·, g)` and element `n + r` is
    /// `rotate_tile(reflect_tile(·), r)` — on full and C ≤ 4 shortest-gap
    /// universes, an empty one, and at `n = 32`, where the vertex mask is
    /// all of `u32`.
    #[test]
    fn dihedral_tables_match_ring_symmetry() {
        use cyclecover_ring::symmetry::{reflect_tile, rotate_tile};
        let mut universes: Vec<TileUniverse> = [3u32, 4, 7, 8, 11]
            .iter()
            .map(|&n| TileUniverse::new(Ring::new(n), n as usize))
            .collect();
        universes.extend(
            [8u32, 9, 14, 17]
                .iter()
                .map(|&n| TileUniverse::with_max_gap(Ring::new(n), 4, n / 2)),
        );
        universes.push(TileUniverse::with_max_gap(Ring::new(9), 3, 2));
        universes.push(TileUniverse::new(Ring::new(32), 3));
        assert!(universes[universes.len() - 2].is_empty());
        for u in &universes {
            let ring = u.ring();
            let n = ring.n();
            let d = u.dihedral().expect("2n <= 64");
            for g in 0..d.order() {
                let (r, reflected) = if g < n { (g, false) } else { (g - n, true) };
                for t in 0..u.len() as u32 {
                    let tile = u.tile(t);
                    let base = if reflected {
                        reflect_tile(ring, tile)
                    } else {
                        tile.clone()
                    };
                    let img = u
                        .index_of(&rotate_tile(ring, &base, r))
                        .expect("closed under D_n");
                    assert_eq!(d.tile_image(g, t), img, "n={n} g={g} t={t}");
                }
                // The vertex map those two functions apply, on chord ends.
                let map = |v: u32| ring.add(if reflected { ring.sub(0, v) } else { v }, r);
                for c in 0..u.num_chords() {
                    let (a, b) = u.chord_ends_of_pri(c);
                    let img = Edge::new(map(a), map(b)).dense_index(n as usize) as u32;
                    assert_eq!(
                        d.chord_image(g, c),
                        u.pri_of_dense(img),
                        "n={n} g={g} c={c}"
                    );
                }
            }
        }
        assert!(TileUniverse::new(Ring::new(33), 3).dihedral().is_none());
    }

    /// `approx_bytes` charges the dihedral tables at their built size,
    /// before they are built, whenever `2n ≤ 64`.
    #[test]
    fn approx_bytes_charges_the_dihedral_tables() {
        use std::mem::size_of;
        for u in [
            TileUniverse::new(Ring::new(9), 9),
            TileUniverse::with_max_gap(Ring::new(14), 4, 7),
            TileUniverse::new(Ring::new(32), 3),
        ] {
            let unbuilt = u.approx_bytes();
            let d = u.dihedral().expect("2n <= 64");
            assert_eq!(u.approx_bytes(), unbuilt, "charged before the build");
            let built = (d.chord_perm.len() + d.tile_perm.len() + d.canon_tile.len())
                * size_of::<u32>()
                + (d.chord_stab.len() + d.tile_stab.len()) * size_of::<u64>();
            let charged =
                DihedralTables::heap_bytes(d.order() as usize, u.num_chords() as usize, u.len());
            let n = u.ring().n();
            assert_eq!(charged, built, "n={n}");
            assert!(
                unbuilt >= charged + u.len() * size_of::<Tile>(),
                "n={n}: the charge covers the tables and the tile list"
            );
        }
    }
}
