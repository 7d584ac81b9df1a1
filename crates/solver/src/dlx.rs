//! Exact-cover machinery: the generic Dancing Links substrate and the
//! **slack-budgeted partition kernel** built in its image.
//!
//! Two layers live here:
//!
//! * [`ExactCover`] — classic Dancing Links (Knuth's Algorithm X): one
//!   arena of doubly-linked nodes in four directions, column headers
//!   with live counts, MRV column selection. Used by the design-theory
//!   baselines (`cyclecover-design`) and tests that need "find any
//!   exact decomposition".
//! * `PartitionCore` — the cycle-covering search re-posed as a
//!   *slack-budgeted exact cover*: columns are the priority chords
//!   (packed residual lanes, 1-bit for unit demands, 2-bit for demands
//!   ≤ 3, 4-bit for demands ≤ 15 and 16-bit for demands ≤ 65,535, the
//!   `crate::search_core::LaneResidual` it shares with the lane core),
//!   rows are the tiles, and one extra global resource — the **waste
//!   budget** `slack = budget·n − λ·Σd(e)` — absorbs every unit of cycle
//!   length not spent covering residual demand. The paper's capacity
//!   bound `⌈λ·Σd(e)/n⌉` (Theorem 1 / Proposition 1) says exactly that a
//!   `k`-tile covering wastes `k·n − λ·Σd(e)`; near-tight instances (the
//!   Theorem 1/2 rows, the n ≡ 0 (mod 8) probes) leave the search almost
//!   no slack, and this kernel exploits it:
//!
//!   * **MRV column selection.** Instead of branching on the
//!     highest-priority residual chord, each node branches on the
//!     support chord with the *fewest* candidates still affordable
//!     under the remaining slack (counted against each tile's static
//!     waste `n − load`, precomputed sorted per chord — a
//!     `partition_point` per support chord).
//!   * **Full-load propagation.** A candidate whose exact waste
//!     increment would overdraw the slack is dropped at scoring time —
//!     the same capacity argument that would prune it as a child node,
//!     applied without spawning the node. Once remaining slack falls
//!     below the cheapest positive tile waste, only full-load tiles
//!     survive and the candidate set collapses to the partition rows.
//!   * **Everything else is the shared frame machinery** of
//!     `crate::search_core`, where it is sound: subset-dominance
//!     filtering (after the waste filter: a dominator covers a superset
//!     of the dominated tile's live chords, so its waste increment is no
//!     larger and it survives the filter whenever the dominated tile
//!     does), pointwise dihedral orbit reduction, the capacity,
//!     diameter, vertex-degree and parity/T-join bounds, the in-kernel
//!     limit checks, the sequential probe, and the refutation memo —
//!     keyed by the packed residual lanes under a **waste-slack** `rem`
//!     (the lane width's tag with the waste-slack flag set in
//!     `crate::memo`; 16-bit lanes run memo-free): "no completion of this
//!     residual state wastes ≤ `rem`". Since a `k`-tile completion of
//!     a state `R` wastes exactly `k·n − Σ residual-dist(R)`, the
//!     statement is budget-free and monotone in `rem`, so the store's
//!     dominated/record rules apply unchanged.

use crate::bitset::LaneSet;
use crate::bnb::{CoverSpec, SymmetryMode};
use crate::memo::{width_tag, MemoStore, KEY_WORDS};
use crate::search_core::{FrameCore, Governor, LaneResidual, LaneTables, MemoEntry, Stack};
use crate::TileUniverse;

/// A (mutable) exact-cover problem instance.
///
/// Columns are the universe elements `0..num_cols`; rows are subsets added
/// via [`ExactCover::add_row`]. [`ExactCover::solve_first`] searches for a
/// set of rows covering every column exactly once.
pub struct ExactCover {
    /// left/right/up/down/column links per node; nodes 0..=num_cols are the
    /// root (0) and column headers (1..=num_cols).
    left: Vec<u32>,
    right: Vec<u32>,
    up: Vec<u32>,
    down: Vec<u32>,
    col: Vec<u32>,
    /// Live node count per column header index (1-based).
    size: Vec<u32>,
    /// Row id per node (u32::MAX for headers).
    row_of: Vec<u32>,
    num_rows: u32,
    /// First node index of each row (for reporting).
    row_start: Vec<u32>,
}

impl ExactCover {
    /// New instance over universe `0..num_cols`.
    pub fn new(num_cols: usize) -> Self {
        let h = num_cols + 1; // root + headers
        let mut ec = ExactCover {
            left: Vec::with_capacity(h),
            right: Vec::with_capacity(h),
            up: Vec::with_capacity(h),
            down: Vec::with_capacity(h),
            col: Vec::with_capacity(h),
            size: vec![0; h],
            row_of: Vec::with_capacity(h),
            num_rows: 0,
            row_start: Vec::new(),
        };
        for i in 0..h as u32 {
            ec.left.push(if i == 0 { h as u32 - 1 } else { i - 1 });
            ec.right.push(if i as usize == h - 1 { 0 } else { i + 1 });
            ec.up.push(i);
            ec.down.push(i);
            ec.col.push(i);
            ec.row_of.push(u32::MAX);
        }
        ec
    }

    /// Adds a row covering the given (distinct) columns; returns its row id.
    ///
    /// # Panics
    /// Panics if `cols` is empty or contains an out-of-range column.
    pub fn add_row(&mut self, cols: &[usize]) -> u32 {
        assert!(!cols.is_empty(), "empty row");
        let rid = self.num_rows;
        self.num_rows += 1;
        let first = self.left.len() as u32;
        self.row_start.push(first);
        for (k, &c) in cols.iter().enumerate() {
            assert!(c + 1 < self.size.len(), "column {c} out of range");
            let header = (c + 1) as u32;
            let node = self.left.len() as u32;
            // Vertical insertion just above the header (= column bottom).
            let above = self.up[header as usize];
            self.up.push(above);
            self.down.push(header);
            self.down[above as usize] = node;
            self.up[header as usize] = node;
            // Horizontal circular links within the row.
            if k == 0 {
                self.left.push(node);
                self.right.push(node);
            } else {
                let prev = node - 1;
                let head = first;
                self.left.push(prev);
                self.right.push(head);
                self.right[prev as usize] = node;
                self.left[head as usize] = node;
            }
            self.col.push(header);
            self.size[header as usize] += 1;
            self.row_of.push(rid);
        }
        rid
    }

    fn cover(&mut self, c: u32) {
        let (l, r) = (self.left[c as usize], self.right[c as usize]);
        self.right[l as usize] = r;
        self.left[r as usize] = l;
        let mut i = self.down[c as usize];
        while i != c {
            let mut j = self.right[i as usize];
            while j != i {
                let (u, d) = (self.up[j as usize], self.down[j as usize]);
                self.down[u as usize] = d;
                self.up[d as usize] = u;
                self.size[self.col[j as usize] as usize] -= 1;
                j = self.right[j as usize];
            }
            i = self.down[i as usize];
        }
    }

    fn uncover(&mut self, c: u32) {
        let mut i = self.up[c as usize];
        while i != c {
            let mut j = self.left[i as usize];
            while j != i {
                let (u, d) = (self.up[j as usize], self.down[j as usize]);
                self.down[u as usize] = j;
                self.up[d as usize] = j;
                self.size[self.col[j as usize] as usize] += 1;
                j = self.left[j as usize];
            }
            i = self.up[i as usize];
        }
        let (l, r) = (self.left[c as usize], self.right[c as usize]);
        self.right[l as usize] = c;
        self.left[r as usize] = c;
    }

    /// Smallest live column (MRV heuristic); `None` if all covered.
    fn choose_column(&self) -> Option<u32> {
        let mut best = None;
        let mut best_size = u32::MAX;
        let mut c = self.right[0];
        while c != 0 {
            let s = self.size[c as usize];
            if s < best_size {
                best_size = s;
                best = Some(c);
                if s == 0 {
                    break;
                }
            }
            c = self.right[c as usize];
        }
        best
    }

    /// Finds one exact cover; returns the selected row ids, or `None`.
    pub fn solve_first(&mut self) -> Option<Vec<u32>> {
        let mut stack = Vec::new();
        if self.search_first(&mut stack) {
            Some(stack)
        } else {
            None
        }
    }

    fn search_first(&mut self, stack: &mut Vec<u32>) -> bool {
        let c = match self.choose_column() {
            None => return true,
            Some(c) => c,
        };
        if self.size[c as usize] == 0 {
            return false;
        }
        self.cover(c);
        let mut r = self.down[c as usize];
        while r != c {
            stack.push(self.row_of[r as usize]);
            let mut j = self.right[r as usize];
            while j != r {
                self.cover(self.col[j as usize]);
                j = self.right[j as usize];
            }
            if self.search_first(stack) {
                return true;
            }
            let mut j = self.left[r as usize];
            while j != r {
                self.uncover(self.col[j as usize]);
                j = self.left[j as usize];
            }
            stack.pop();
            r = self.down[r as usize];
        }
        self.uncover(c);
        false
    }

    /// Counts exact covers up to `limit` (stops early once reached).
    pub fn count_solutions(&mut self, limit: u64) -> u64 {
        let mut count = 0;
        self.count_rec(limit, &mut count);
        count
    }

    fn count_rec(&mut self, limit: u64, count: &mut u64) {
        if *count >= limit {
            return;
        }
        let c = match self.choose_column() {
            None => {
                *count += 1;
                return;
            }
            Some(c) => c,
        };
        if self.size[c as usize] == 0 {
            return;
        }
        self.cover(c);
        let mut r = self.down[c as usize];
        while r != c {
            let mut j = self.right[r as usize];
            while j != r {
                self.cover(self.col[j as usize]);
                j = self.right[j as usize];
            }
            self.count_rec(limit, count);
            let mut j = self.left[r as usize];
            while j != r {
                self.uncover(self.col[j as usize]);
                j = self.left[j as usize];
            }
            r = self.down[r as usize];
        }
        self.uncover(c);
    }
}

// ---------------------------------------------------------------------------
// The slack-budgeted partition kernel
// ---------------------------------------------------------------------------

/// The slack-budgeted exact-cover search: the lane core's
/// [`LaneResidual`] and frame machinery, plus the three things that make
/// it a partition planner — the waste budget, the MRV branch choice, and
/// the waste filter. See the module docs for the formulation.
pub(crate) struct PartitionCore<'a, const B: u32> {
    s: Stack<'a>,
    r: LaneResidual<'a, B>,
    /// The root waste budget `budget·n − λ·Σd(e)` (clamped to 0 when the
    /// budget is below capacity — the root bound prune fires before the
    /// slack is ever consulted).
    slack: u64,
    /// Waste spent by the placed prefix: `Σ (n − useful(t))` over
    /// placements, where `useful` counts only newly decremented chords.
    /// Invariant: `placed·n = covered-dist + waste_used`, and the waste
    /// filter keeps `waste_used ≤ slack` at every node.
    waste_used: u64,
    /// Static tile wastes (`n − load`) of each chord's candidates,
    /// sorted ascending: `waste_sorted[waste_off[c]..waste_off[c+1]]`.
    /// A `partition_point` at the remaining slack counts how many
    /// candidates of chord `c` are still affordable (static waste lower
    /// bounds the exact increment, so the count never undercounts).
    waste_sorted: Vec<u32>,
    waste_off: Vec<u32>,
}

impl<'a, const B: u32> PartitionCore<'a, B> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        tables: &'a LaneTables<B>,
    ) -> Self {
        debug_assert!(
            spec.max_demand() <= LaneSet::<B>::MAX,
            "demands fit {B}-bit lanes"
        );
        let s = Stack::new(u, spec, budget, gov, requested, store, width_tag(B, true));
        let r = LaneResidual::new(&s, spec, tables);
        let slack = (budget as u64 * u.ring().n() as u64).saturating_sub(r.d.rem_dist);
        let mut waste_off = vec![0u32];
        let mut waste_sorted = Vec::new();
        for c in 0..u.num_chords() {
            let start = waste_sorted.len();
            waste_sorted.extend(u.candidates_pri(c).iter().map(|&t| u.tile_waste(t)));
            waste_sorted[start..].sort_unstable();
            waste_off.push(waste_sorted.len() as u32);
        }
        PartitionCore {
            s,
            r,
            slack,
            waste_used: 0,
            waste_sorted,
            waste_off,
        }
    }

    /// The waste the prefix may still spend.
    fn rem_slack(&self) -> u64 {
        self.slack - self.waste_used
    }

    /// Accounts a placement (or its reversal) that covered `useful`
    /// distance: a tile wastes the rest of its cycle length.
    fn waste(&self, useful: u64) -> u64 {
        let n = self.s.u.ring().n() as u64;
        debug_assert!(useful <= n, "a tile covers at most one cycle length");
        n - useful
    }
}

impl<'a, const B: u32> FrameCore<'a> for PartitionCore<'a, B> {
    fn stack(&mut self) -> &mut Stack<'a> {
        &mut self.s
    }

    fn satisfied(&self) -> bool {
        self.r.d.live.is_empty()
    }

    fn place(&mut self, t: u32) {
        let useful = self.r.place(t, self.s.depth());
        self.waste_used += self.waste(useful);
        self.s.push(t);
    }

    fn unplace(&mut self) {
        let t = self.s.pop();
        let useful = self.r.unplace(t, self.s.depth());
        self.waste_used -= self.waste(useful);
    }

    /// The lane core's bounds. The capacity term is the waste budget
    /// seen from the other side: `used + ⌈rem_dist/n⌉ > budget ⟺
    /// waste_used > slack − (future minimum waste)`.
    fn refuted(&mut self) -> bool {
        self.s.refutes(&mut self.r.d)
    }

    fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        self.r.memo_state()
    }

    /// Memo entries are keyed under the remaining *waste* slack (the
    /// waste-slack width tags; 16-bit lanes keep no entries).
    fn memo_rem(&self) -> u32 {
        self.rem_slack() as u32
    }

    /// The child's remaining waste budget. Candidates were filtered
    /// against the node's slack, so it never underflows.
    fn child_state(&self, store: &MemoStore, t: u32) -> Option<MemoEntry> {
        let (key, hash, useful) = self.r.child::<true>(store, t);
        Some((hash, key, (self.rem_slack() - self.waste(useful)) as u32))
    }

    /// MRV branch choice, then staging under the waste filter: the
    /// support chord with the fewest candidates affordable under the
    /// remaining slack (counted by `partition_point` over the chord's
    /// sorted static wastes; ties break toward the higher-priority
    /// chord, so a uniform count reproduces the priority branch rule),
    /// whose candidates are kept only if their exact waste increment
    /// fits the slack. With zero slack only full-load tiles survive —
    /// the exact-partition collapse. The waste filter runs before
    /// dominance, so dominance stays sound: a dominator's waste
    /// increment never exceeds its dominated tile's.
    fn stage(&mut self, entry: Option<MemoEntry>) {
        debug_assert!(
            self.waste_used <= self.slack,
            "the waste filter keeps every placement within the waste budget"
        );
        let rem_slack = self.rem_slack();
        let mut branch = 0u32;
        let mut best_count = usize::MAX;
        for c in self.r.d.live.iter() {
            let lo = self.waste_off[c as usize] as usize;
            let hi = self.waste_off[c as usize + 1] as usize;
            let count = self.waste_sorted[lo..hi].partition_point(|&w| w as u64 <= rem_slack);
            if count < best_count {
                best_count = count;
                branch = c;
                if count == 0 {
                    break;
                }
            }
        }
        self.s.stage(&self.r.d.live, branch, rem_slack, None, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Knuth's canonical 7-column example.
    #[test]
    fn knuth_example() {
        let mut ec = ExactCover::new(7);
        ec.add_row(&[2, 4, 5]); // row 0
        ec.add_row(&[0, 3, 6]); // row 1
        ec.add_row(&[1, 2, 5]); // row 2
        ec.add_row(&[0, 3]); // row 3
        ec.add_row(&[1, 6]); // row 4
        ec.add_row(&[3, 4, 6]); // row 5
        let mut sol = ec.solve_first().expect("has a solution");
        sol.sort_unstable();
        assert_eq!(sol, vec![0, 3, 4]);
    }

    #[test]
    fn infeasible_instance() {
        let mut ec = ExactCover::new(3);
        ec.add_row(&[0, 1]);
        ec.add_row(&[1, 2]);
        assert!(ec.solve_first().is_none());
        assert_eq!(ec.count_solutions(10), 0);
    }

    #[test]
    fn counts_all_perfect_matchings_of_k4() {
        // Universe = 4 vertices; rows = the 6 edges of K4. Perfect matchings
        // of K4 = 3.
        let mut ec = ExactCover::new(4);
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            ec.add_row(&[a, b]);
        }
        assert_eq!(ec.count_solutions(100), 3);
    }

    #[test]
    fn count_respects_limit() {
        let mut ec = ExactCover::new(2);
        for _ in 0..5 {
            ec.add_row(&[0]);
            ec.add_row(&[1]);
        }
        // 25 solutions total; limit cuts off.
        assert_eq!(ec.count_solutions(7), 7);
        // Structure must still be intact after a limited count: full count works.
        assert_eq!(ec.count_solutions(1000), 25);
    }

    /// Partition of the 6 edges of K4 into two triangles does not exist,
    /// but K4's edges partition into 3 perfect matchings — sanity check the
    /// engine on a graph-flavored instance (universe = edges).
    #[test]
    fn k4_edge_partition_into_triangles_infeasible() {
        // Columns = 6 edges of K4 (dense index), rows = 4 triangles.
        let mut ec = ExactCover::new(6);
        let idx = |u: usize, v: usize| -> usize {
            // dense index in K4
            [[0, 0, 1, 2], [0, 0, 3, 4], [1, 3, 0, 5], [2, 4, 5, 0]][u][v]
        };
        for (a, b, c) in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)] {
            ec.add_row(&[idx(a, b), idx(a, c), idx(b, c)]);
        }
        assert!(ec.solve_first().is_none());
    }

    // ---- the slack-budgeted partition kernel ----

    use crate::api::Stats;
    use crate::bnb::Outcome;
    use cyclecover_ring::Ring;

    fn universe(n: u32) -> TileUniverse {
        TileUniverse::new(Ring::new(n), n as usize)
    }

    fn run_partition(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        sym: SymmetryMode,
        store: Option<&MemoStore>,
    ) -> (Outcome, Stats) {
        crate::bnb::budget_search_partition(u, spec, budget, 50_000_000, sym, store)
    }

    fn assert_meets_spec(u: &TileUniverse, spec: &CoverSpec, tiles: &[u32]) {
        let mut covered = vec![0u32; spec.demand.len()];
        for &t in tiles {
            for &c in u.tile_chords(t) {
                covered[u.dense_of_pri(c) as usize] += 1;
            }
        }
        for (dense, (&got, &need)) in covered.iter().zip(&spec.demand).enumerate() {
            assert!(
                got >= need,
                "chord dense index {dense}: covered {got} < demanded {need}"
            );
        }
    }

    #[test]
    fn zero_slack_witnesses_are_exact_partitions() {
        // Odd complete rings are capacity-tight (Σd ≡ 0 mod n): the
        // kernel must return a witness at the capacity budget, and at
        // zero slack that witness is an exact partition of the demand.
        for n in [5u32, 7, 9] {
            let u = universe(n);
            let spec = CoverSpec::complete(n);
            let wsum: u64 = (0..u.num_chords()).map(|c| u.dist_of_pri(c) as u64).sum();
            assert_eq!(wsum % n as u64, 0, "odd complete rings have zero slack");
            let budget = (wsum / n as u64) as u32;
            let (o, s) = run_partition(&u, &spec, budget, SymmetryMode::Root, None);
            let Outcome::Feasible(tiles) = o else {
                panic!("n={n}: capacity witness not found: {o:?}");
            };
            assert_eq!(tiles.len() as u32, budget);
            assert_meets_spec(&u, &spec, &tiles);
            // Zero slack: every chord covered exactly once.
            let total: u64 = tiles.iter().map(|&t| u.tile_chords(t).len() as u64).sum();
            assert_eq!(total, u.num_chords() as u64, "partition, not a cover");
            assert_eq!(s.partition_probes, 1);
        }
    }

    #[test]
    fn parity_refutes_tight_even_budget_at_the_root() {
        // n = 8, budget 8 = capacity: Theorem 2's parity argument
        // refutes in one node through the in-kernel strong bound.
        let u = universe(8);
        let spec = CoverSpec::complete(8);
        let (o, s) = run_partition(&u, &spec, 8, SymmetryMode::Root, None);
        assert_eq!(o, Outcome::Infeasible);
        assert_eq!(s.nodes, 1, "parity bound fires at the root");
        // Budget 9 (slack n) is feasible: ρ(8) = 9.
        let (o9, _) = run_partition(&u, &spec, 9, SymmetryMode::Root, None);
        let Outcome::Feasible(tiles) = o9 else {
            panic!("rho(8) = 9 witness not found: {o9:?}");
        };
        assert_eq!(tiles.len(), 9);
        assert_meets_spec(&u, &spec, &tiles);
    }

    #[test]
    fn lambda_fold_verdicts_match_the_lane_core() {
        // ρ₂(6) = 9 (slack 0) and ρ₃(6) = 14 (slack 3): the partition
        // kernel must agree with the lane core on verdicts at the
        // optimum and one below, all symmetry modes, memo on and off.
        for (lambda, opt) in [(2u32, 9u32), (3, 14)] {
            let u = universe(6);
            let spec = CoverSpec::lambda_fold(6, lambda);
            for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
                for memo in [false, true] {
                    let store = memo.then(|| MemoStore::new(&u, 1 << 20).unwrap());
                    for budget in [opt - 1, opt] {
                        let (o, _) = run_partition(&u, &spec, budget, sym, store.as_ref());
                        if budget < opt {
                            assert_eq!(
                                o,
                                Outcome::Infeasible,
                                "lambda={lambda} budget={budget} sym={sym:?} memo={memo}"
                            );
                        } else {
                            let Outcome::Feasible(tiles) = o else {
                                panic!(
                                    "lambda={lambda} budget={budget} sym={sym:?} \
                                     memo={memo}: no witness: {o:?}"
                                );
                            };
                            assert!(tiles.len() as u32 <= budget);
                            assert_meets_spec(&u, &spec, &tiles);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn waste_accounting_bounds_every_witness() {
        // At budget = capacity + 1 the kernel may waste up to slack
        // units; the witness tile count must still respect the budget.
        let u = universe(7);
        let spec = CoverSpec::lambda_fold(7, 2);
        // 2·Σd = 84, capacity 12 (slack 0); probe 13 (slack 7).
        for budget in [12u32, 13] {
            let (o, _) = run_partition(&u, &spec, budget, SymmetryMode::Root, None);
            let Outcome::Feasible(tiles) = o else {
                panic!("budget {budget}: {o:?}");
            };
            assert!(tiles.len() as u32 <= budget);
            assert_meets_spec(&u, &spec, &tiles);
        }
    }
}
