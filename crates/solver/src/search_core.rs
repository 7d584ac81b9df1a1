//! The search contract, its two drivers, and the frame-based cores.
//!
//! Every exact budget probe — cover the spec with at most `budget`
//! tiles, or prove that no such covering exists — runs on one of four
//! search contexts, picked by the one route rule (`crate::bnb::route`):
//! [`IterCore`] for unit demands, [`LaneCore`] for demands ≤ 3,
//! `crate::dlx::PartitionCore` for demands ≤ 3 whose waste slack is
//! below `n`, and the recursive `bnb::SearchCtx<MultiKernel>` beyond.
//! All four implement [`SearchCore`], and one driver ([`drive`]) runs any
//! of them: sequentially ([`SearchCore::probe`]), or by expanding a
//! breadth-first frontier of prefixes and draining it on a rayon scope.
//! The drivers are generic over the context, so every instantiation is
//! monomorphized and no per-node path goes through `dyn`.
//!
//! The three frame-based cores share the per-node machinery, so each
//! piece of it exists once:
//!
//! * **Explicit stack, depth-indexed arenas** ([`run_frames`]). Recursion
//!   becomes a loop over per-depth [`Frame`]s whose candidate buffers
//!   are reused by every node at that depth; dominance masks live in one
//!   flat [`DomArena`] grown to the longest candidate list seen. After
//!   warm-up no search node allocates.
//! * **One node protocol** ([`enter`]): satisfied, then the limits
//!   ([`Governor`]), the prefix bounds, the memo, and candidate staging
//!   ([`Stack::stage`]: scoring over the words a tile's mask spans, the
//!   partition kernel's waste filter, dominance, orbit filtering).
//! * **Incremental bound ingredients** ([`Demand`]). Residual distance,
//!   the uncovered-diameter count, and per-vertex residual degrees (with
//!   the odd-degree population the parity/T-join bound needs) are
//!   maintained on place/unplace — O(changed chords) per node — so the
//!   vertex-degree bound is an `n`-entry scan and
//!   [`parity_join_bound_from_odd`] runs in constant time at every
//!   depth. (A per-tile useful-load array was measured too: updating
//!   every affected tile per placement cost ~2× what recomputing loads
//!   at scoring time does, so scoring recomputes.)
//! * **Residual-state dominance memo** (see [`crate::memo`]): nodes whose
//!   residual state was already exhausted with an equal-or-better slack
//!   are pruned, both at node entry and, one level earlier, as candidate
//!   children before they are placed.
//!
//! What differs per core is its residual representation. The unit core
//! keeps the uncovered [`ChordSet`]; under [`SymmetryMode::Full`] with
//! the memo on it keys the memo by the *canonical* (lexicographically
//! smallest) dihedral image of that set and hands the shared orbit
//! filter the **setwise** prefix stabilizer instead of the pointwise
//! one — the canonical-prefix reduction, in the two places it is sound.
//! The lane core and the partition kernel share one [`LaneResidual`]:
//! per-chord residual demand in packed 2-bit lanes, plus its support
//! set, which the unit machinery (branching, scoring, dominance, the
//! diameter-slack dual) consumes unchanged.
//!
//! With the memo off, [`IterCore`] reproduces the recursive bitset
//! reference (`bnb::budget_search_reference`) node for node: identical
//! branch order, candidate scoring, dominance and orbit filtering.

use crate::api::Exhaustion;
use crate::bitset::{ChordSet, LaneSet, LANES_PER_WORD, LANE_LOW};
use crate::bnb::{resolve_symmetry, CoverSpec, Outcome, RunLimits, Stats, SymmetryMode};
use crate::lower_bound::{diameter_slack_bound, parity_join_bound_from_odd};
use crate::memo::{MemoStore, KEY_WORDS};
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One budget probe's answer: the outcome, its statistics, and why an
/// inconclusive search stopped.
pub(crate) type Probe = (Outcome, Stats, Option<Exhaustion>);

/// A residual state's memo entry: `(hash, key, slack)`.
pub(crate) type MemoEntry = (u64, [u64; KEY_WORDS], u32);

// ---------------------------------------------------------------------------
// The search contract and its drivers
// ---------------------------------------------------------------------------

/// What the drivers need from a search context.
pub(crate) trait SearchCore {
    /// Whether the placed prefix meets every demand.
    fn satisfied(&self) -> bool;

    /// Places tile `t` on top of the prefix.
    fn place(&mut self, t: u32);

    /// Reverts the most recent placement.
    fn unplace(&mut self);

    /// Whether the prefix bounds (the cheap capacity/diameter/degree
    /// trio, then the strong bound when symmetry is on) refute every
    /// completion within the budget.
    fn refuted(&self) -> bool;

    /// The current node's branch candidates after every filter, in
    /// search order: the children a frontier expansion enqueues.
    fn children(&mut self) -> Vec<u32>;

    /// Searches from the current prefix, never retreating past it.
    /// `true` = a covering extending the prefix is now placed.
    fn run(&mut self) -> bool;

    /// The running statistics.
    fn stats(&mut self) -> &mut Stats;

    /// Settles the search: flushes a frontier worker's node count and
    /// reads the verdict (`found` is what [`SearchCore::run`] returned).
    fn finish(self, found: bool) -> Probe;

    /// One sequential search from the current prefix.
    fn probe(mut self) -> Probe
    where
        Self: Sized,
    {
        let found = self.run();
        self.finish(found)
    }
}

/// What the workers of one frontier-parallel probe share: the early-exit
/// flag a worker raises on finding a covering, and the probe-wide node
/// counter the node budget is enforced on.
#[derive(Default)]
pub(crate) struct Frontier {
    pub(crate) found: AtomicBool,
    pub(crate) nodes: AtomicU64,
}

/// One searcher's side of its [`RunLimits`]: the node budget checked at
/// every node, a frontier worker's early-exit flag and shared node
/// counter every 1024 nodes, and cancellation and the deadline every
/// 4096 nodes.
pub(crate) struct Governor<'a> {
    pub(crate) max_nodes: u64,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<&'a AtomicBool>,
    /// A frontier worker's shared state and the probe-wide node cap.
    pub(crate) frontier: Option<(&'a Frontier, u64)>,
    /// Local nodes already flushed into the frontier counter.
    synced: u64,
    /// Whether a limit stopped the search early.
    hit_limit: bool,
    /// Which one (`None` with `hit_limit`: another worker found a covering).
    stop_cause: Option<Exhaustion>,
}

impl<'a> Governor<'a> {
    /// A sequential searcher's limits.
    pub(crate) fn new(lim: &'a RunLimits) -> Self {
        Governor::with(lim, None)
    }

    /// A frontier worker's limits. The per-worker cap is lifted in favour
    /// of the shared counter, which every worker syncs each 1024 nodes,
    /// so total work overshoots the budget by at most `threads × 1024`
    /// nodes; the deadline and cancellation flag are inherited.
    fn worker(lim: &'a RunLimits, frontier: &'a Frontier) -> Self {
        Governor::with(lim, Some(frontier))
    }

    fn with(lim: &'a RunLimits, frontier: Option<&'a Frontier>) -> Self {
        Governor {
            max_nodes: if frontier.is_some() {
                u64::MAX
            } else {
                lim.max_nodes
            },
            deadline: lim.deadline,
            cancel: lim.cancel.as_ref().map(|c| c.flag()),
            frontier: frontier.map(|f| (f, lim.max_nodes)),
            synced: 0,
            hit_limit: false,
            stop_cause: None,
        }
    }

    /// Checks the node numbered `nodes` against the limits; `true` = stop
    /// the search.
    #[inline]
    fn exhausted(&mut self, nodes: u64) -> bool {
        let cause = if nodes > self.max_nodes {
            Some(Exhaustion::NodeBudget)
        } else if !nodes.is_multiple_of(1024) {
            return false;
        } else if self
            .frontier
            .is_some_and(|(f, _)| f.found.load(Ordering::Relaxed))
        {
            None
        } else if self.sync(nodes) {
            Some(Exhaustion::NodeBudget)
        } else if !nodes.is_multiple_of(4096) {
            return false;
        } else if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            Some(Exhaustion::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Exhaustion::Deadline)
        } else {
            return false;
        };
        self.hit_limit = true;
        self.stop_cause = cause;
        true
    }

    /// Flushes the unsynced node count into the frontier counter; `true`
    /// once the probe-wide budget is spent.
    fn sync(&mut self, nodes: u64) -> bool {
        let Some((frontier, cap)) = self.frontier else {
            return false;
        };
        let delta = nodes - self.synced;
        self.synced = nodes;
        frontier.nodes.fetch_add(delta, Ordering::Relaxed) + delta > cap
    }
}

/// Ranks stop causes when frontier workers disagree: an explicit
/// cancellation or deadline is more informative than "ran out of nodes".
fn rank(cause: Exhaustion) -> u8 {
    match cause {
        Exhaustion::EngineLimit => 1,
        Exhaustion::NodeBudget => 2,
        Exhaustion::Deadline => 3,
        Exhaustion::Cancelled => 4,
        Exhaustion::Shutdown => 5,
    }
}

/// How a probe spends its CPU: `None` = one sequential search;
/// `Some((threads, prefixes_per_thread))` = the frontier driver
/// (`threads = 0` uses the available parallelism).
pub(crate) type Parallelism = Option<(usize, usize)>;

/// Runs one probe on the context `make` builds from a [`Governor`]:
/// sequentially, or on the frontier driver. The frontier driver expands
/// the tree breadth-first into several independent prefixes per thread
/// (counting each expanded prefix as a node, as the sequential search
/// would), then drains them on a work-sharing rayon scope: a worker that
/// exhausts its subtree pulls the next pending prefix, every worker
/// watches the shared early-exit flag and node budget, and workers of a
/// memo-backed core share `store`, so refutations one records prune the
/// others (visible as `shared_hits`).
pub(crate) fn drive<'s, C: SearchCore>(
    frontier: &'s Frontier,
    lim: &'s RunLimits,
    par: Parallelism,
    store: Option<&MemoStore>,
    make: impl Fn(Governor<'s>) -> C + Sync,
) -> Probe {
    let Some((threads, prefix_per_thread)) = par else {
        return make(Governor::new(lim)).probe();
    };
    // `num_threads(0)` = available parallelism, as in rayon.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let mut root = make(Governor::new(lim));
    if root.satisfied() {
        return root.finish(true);
    }
    if root.refuted() {
        // Count the root node, as the sequential search does.
        let stats = Stats {
            nodes: 1,
            pruned: 1,
            sym_factor: 1,
            ..Stats::default()
        };
        return (Outcome::Infeasible, stats, None);
    }

    // Keep splitting the shallowest prefix until there are enough
    // independent tasks to keep every thread busy through subtree-size
    // imbalance.
    let target = pool.current_num_threads() * prefix_per_thread.max(1);
    let mut prefixes = VecDeque::from([Vec::new()]);
    while prefixes.len() < target {
        let Some(prefix) = prefixes.pop_front() else {
            break;
        };
        if let Some(cause) = lim.stop_requested() {
            return (Outcome::NodeLimit, root.finish(false).1, Some(cause));
        }
        for &t in &prefix {
            root.place(t);
        }
        if root.satisfied() {
            return root.finish(true);
        }
        root.stats().nodes += 1;
        if root.stats().nodes > lim.max_nodes {
            let stats = root.finish(false).1;
            return (Outcome::NodeLimit, stats, Some(Exhaustion::NodeBudget));
        }
        if root.refuted() {
            // The prefix dies here; nothing gets enqueued.
            root.stats().pruned += 1;
        } else {
            for t in root.children() {
                let mut child = prefix.clone();
                child.push(t);
                prefixes.push_back(child);
            }
        }
        for _ in &prefix {
            root.unplace();
        }
    }
    let (_, expanded, _) = root.finish(false);
    if prefixes.is_empty() {
        // Every prefix was pruned or expanded away: exhaustive.
        return (Outcome::Infeasible, expanded, None);
    }

    frontier.nodes.store(expanded.nodes, Ordering::Relaxed);
    // The merged statistics, a covering if any worker found one, and the
    // highest-ranked reason a worker stopped early.
    let merged = Mutex::new((expanded, None::<Vec<u32>>, None::<Exhaustion>));
    pool.scope(|scope| {
        for prefix in &prefixes {
            let (make, merged) = (&make, &merged);
            scope.spawn(move |_| {
                if frontier.found.load(Ordering::Relaxed) {
                    return;
                }
                let (outcome, stats, cause) =
                    if frontier.nodes.load(Ordering::Relaxed) >= lim.max_nodes {
                        let none = Stats::default();
                        (Outcome::NodeLimit, none, Some(Exhaustion::NodeBudget))
                    } else {
                        let mut core = make(Governor::worker(lim, frontier));
                        for &t in prefix {
                            core.place(t);
                        }
                        core.probe()
                    };
                let mut m = merged.lock().expect("poison-free");
                m.0.absorb(stats);
                match outcome {
                    Outcome::Feasible(tiles) => {
                        frontier.found.store(true, Ordering::Relaxed);
                        m.1 = Some(tiles);
                    }
                    Outcome::NodeLimit if !frontier.found.load(Ordering::Relaxed) => {
                        let cause = cause.unwrap_or(Exhaustion::NodeBudget);
                        m.2 = m.2.into_iter().chain([cause]).max_by_key(|&c| rank(c));
                    }
                    _ => {}
                }
            });
        }
    });

    let (mut stats, solution, stopped) = merged.into_inner().expect("poison-free");
    stats.nodes = frontier.nodes.load(Ordering::Relaxed);
    // One store serves every worker: report its population.
    stats.memo_entries = store.map_or(0, |s| s.len());
    match (solution, stopped) {
        (Some(tiles), _) => (Outcome::Feasible(tiles), stats, None),
        (None, Some(cause)) => (Outcome::NodeLimit, stats, Some(cause)),
        (None, None) => (Outcome::Infeasible, stats, None),
    }
}

// ---------------------------------------------------------------------------
// The frame-based machinery
// ---------------------------------------------------------------------------

/// Per-depth iteration state: the node's filtered candidates, the cursor
/// into them, and the memo entry the node records if it exhausts.
/// Buffers are reused by every node at this depth.
#[derive(Default)]
struct Frame {
    /// `(tile, newly covered chords, waste)` scoring buffer.
    scored: Vec<(u32, u32, u32)>,
    /// Candidates surviving every filter, in search order.
    cands: Vec<u32>,
    /// Next unexplored candidate.
    cursor: usize,
    /// The node's residual state, recorded if the node exhausts (`None`
    /// with the memo off).
    entry: Option<MemoEntry>,
}

/// What entering a node found.
enum Enter {
    /// Demand satisfied — the placed prefix is a covering.
    Solved,
    /// A resource limit tripped; the whole search stops.
    Abort,
    /// Bound- or memo-pruned; backtrack.
    Dead,
    /// Candidates are staged in the depth's frame.
    Ready,
}

/// Dominance-filter arena: one slot of `stride` words per candidate of
/// the node being filtered, in one flat word arena grown to the longest
/// candidate list seen. A node filters tens of candidates, far fewer than
/// [`TileUniverse::max_candidates`].
struct DomArena {
    words: Vec<u64>,
    /// Words per slot: the universe's chord-set width.
    stride: usize,
}

impl DomArena {
    fn new(u: &TileUniverse) -> Self {
        DomArena {
            words: Vec::new(),
            stride: u.num_chords().div_ceil(64) as usize,
        }
    }

    /// Appends the sorted `scored` candidates to `cands`, dropping each
    /// whose live coverage (its tile mask ∩ `live`) is a subset of an
    /// earlier candidate's — sorting put dominators first, so ties keep
    /// the first occurrence. Returns how many were dropped. A slot holds
    /// zeros outside its tile's word span
    /// ([`TileUniverse::tile_mask_span`]), so each subset test reads only
    /// that span.
    ///
    /// Sound under multiplicities too: replacing a dominated tile with its
    /// dominator in any covering multiset yields a covering of the same
    /// size.
    fn filter(
        &mut self,
        u: &TileUniverse,
        live: &ChordSet,
        scored: &[(u32, u32, u32)],
        cands: &mut Vec<u32>,
    ) -> u64 {
        if scored.len() < 2 {
            cands.extend(scored.iter().map(|&(t, _, _)| t));
            return 0;
        }
        let stride = self.stride;
        if self.words.len() < scored.len() * stride {
            self.words.resize(scored.len() * stride, 0);
        }
        for (slot, &(t, _, _)) in self.words.chunks_exact_mut(stride).zip(scored) {
            for ((w, a), b) in slot
                .iter_mut()
                .zip(u.tile_mask(t).words())
                .zip(live.words())
            {
                *w = a & b;
            }
        }
        let mut dominated = 0;
        for (i, &(t, _, _)) in scored.iter().enumerate() {
            let (lo, hi) = u.tile_mask_span(t);
            let (lo, hi) = (lo as usize, hi as usize);
            let (earlier, rest) = self.words.split_at(i * stride);
            let mine = &rest[lo..hi];
            if earlier
                .chunks_exact(stride)
                .any(|prior| mine.iter().zip(&prior[lo..hi]).all(|(a, b)| a & !b == 0))
            {
                dominated += 1;
            } else {
                cands.push(t);
            }
        }
        dominated
    }
}

/// Dihedral orbit reduction: the effective mode and group, the `Full`
/// mode's pointwise prefix stabilizers, and the sibling filter.
///
/// Soundness of the filter: a kept candidate `t` and a skipped sibling
/// `h·t` (with `h` fixing the spec, every placed tile — pointwise, or as
/// a multiset under canonical keys — and the branch chord) head subtrees
/// that are mirror images, so `h` maps any covering through `h·t` to one
/// of equal size through `t`.
struct Orbits<'a> {
    /// The effective mode (`Off` without tables or spec symmetry).
    mode: SymmetryMode,
    tables: Option<&'a DihedralTables>,
    /// The subgroup preserving the spec's demand (bitmask).
    spec_group: u64,
    /// `Full`: the pointwise stabilizer of each prefix inside the spec
    /// group, one AND per placement (seeded with the spec group).
    stab: Vec<u64>,
    /// Stamps over tile indices backing the per-branch "already kept a
    /// candidate of this orbit" test (lazily sized).
    seen: Vec<u64>,
    stamp: u64,
}

impl<'a> Orbits<'a> {
    fn new(u: &'a TileUniverse, spec: &CoverSpec, requested: SymmetryMode) -> Self {
        let (mode, tables, spec_group) = resolve_symmetry(u, spec, requested);
        Orbits {
            mode,
            tables,
            spec_group,
            stab: if mode == SymmetryMode::Full {
                vec![spec_group]
            } else {
                Vec::new()
            },
            seen: Vec::new(),
            stamp: 0,
        }
    }

    fn pointwise(&self) -> u64 {
        *self.stab.last().expect("stab stack seeded")
    }

    fn push(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let stab = self.tables.expect("tables exist in Full mode").tile_stab(t);
            self.stab.push(self.pointwise() & stab);
        }
    }

    fn pop(&mut self) {
        if self.mode == SymmetryMode::Full {
            self.stab.pop();
        }
    }

    /// Drops, in place, each candidate that a group element fixing the
    /// branch chord maps onto an already-kept candidate. `Root` filters
    /// the empty prefix under the spec group; `Full` filters every depth
    /// under the pointwise prefix stabilizer, or under `setwise` when the
    /// unit core's canonical machinery supplies one (its extra elements'
    /// prunes count as `canon_pruned`).
    fn filter(
        &mut self,
        depth: usize,
        branch: u32,
        setwise: Option<u64>,
        cands: &mut Vec<u32>,
        stats: &mut Stats,
    ) {
        let Some(sym) = self.tables else { return };
        let pointwise = match self.mode {
            SymmetryMode::Off => return,
            SymmetryMode::Root if depth > 0 => return,
            SymmetryMode::Root => self.spec_group,
            SymmetryMode::Full => self.pointwise(),
        };
        let filter = setwise.unwrap_or(pointwise) & sym.chord_stab(branch);
        if depth == 0 {
            stats.sym_factor = stats.sym_factor.max(filter.count_ones());
        }
        if filter & !1 == 0 {
            // Identity only: every orbit is a singleton.
            return;
        }
        if self.seen.len() < sym.num_tiles() as usize {
            self.seen.resize(sym.num_tiles() as usize, 0);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let pw_filter = pointwise & sym.chord_stab(branch);
        let seen = &mut self.seen;
        cands.retain(|&t| {
            let mut elements = filter & !1;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && seen[image as usize] == stamp {
                    if pw_filter >> g & 1 == 1 {
                        stats.sym_pruned += 1;
                    } else {
                        stats.canon_pruned += 1;
                    }
                    return false;
                }
            }
            seen[t as usize] = stamp;
            true
        });
    }
}

/// What is left of the demand, as the bounds read it: the chords with
/// residual demand (the *live* set — uncovered chords, or the λ-fold
/// support), and the incrementally maintained bound ingredients, all
/// weighted by residual multiplicity: demanded distance, demanded
/// diameter units, per-vertex residual degree, and the number of odd
/// degrees (`|T|` of the parity bound).
pub(crate) struct Demand {
    pub(crate) live: ChordSet,
    pub(crate) rem_dist: u64,
    rem_diam: u64,
    deg: Vec<u32>,
    odd: u64,
}

impl Demand {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self {
        let m = u.num_chords();
        let diam = u.diam_chords();
        let mut d = Demand {
            live: ChordSet::empty(m),
            rem_dist: 0,
            rem_diam: 0,
            deg: vec![0; u.ring().n() as usize],
            odd: 0,
        };
        for pri in 0..m {
            let need = spec.demand[u.dense_of_pri(pri) as usize];
            if need > 0 {
                d.live.insert(pri);
                d.rem_dist += need as u64 * u.dist_of_pri(pri) as u64;
                if pri < diam {
                    d.rem_diam += need as u64;
                }
                let (a, b) = u.chord_ends_of_pri(pri);
                d.deg[a as usize] += need;
                d.deg[b as usize] += need;
            }
        }
        d.odd = d.deg.iter().filter(|&&x| x & 1 == 1).count() as u64;
        d
    }

    /// Takes one unit of chord `c`'s demand out of the ingredients
    /// (`cover`), or puts it back, and returns the chord's distance. The
    /// live set is the caller's.
    #[inline]
    fn step(&mut self, u: &TileUniverse, c: u32, cover: bool) -> u64 {
        let dist = u.dist_of_pri(c) as u64;
        let diam = (c < u.diam_chords()) as u64;
        if cover {
            self.rem_dist -= dist;
            self.rem_diam -= diam;
        } else {
            self.rem_dist += dist;
            self.rem_diam += diam;
        }
        let (a, b) = u.chord_ends_of_pri(c);
        for v in [a, b] {
            let dv = &mut self.deg[v as usize];
            // One unit flips the degree's parity either way.
            if *dv & 1 == 1 {
                self.odd -= 1;
            } else {
                self.odd += 1;
            }
            if cover {
                *dv -= 1;
            } else {
                *dv += 1;
            }
        }
        dist
    }

    /// The cheap bound: capacity `⌈rem_dist/n⌉`, demanded diameter units
    /// (a cycle carries at most one diameter), and vertex degree (a cycle
    /// visits a vertex at most once, so covers at most two of its
    /// residual units).
    fn remaining_lb(&self, n: u32) -> u64 {
        let mut lb = self.rem_dist.div_ceil(n as u64).max(self.rem_diam);
        for &d in &self.deg {
            lb = lb.max((d as u64).div_ceil(2));
        }
        lb
    }

    /// The strong bound: the parity/T-join term first — constant-time
    /// from the odd-degree count, and alone it settles the
    /// capacity-tight even refutations — then the pricier diameter-slack
    /// dual over the live set, only if the node is still alive. The dual
    /// is valid under multiplicities because every live chord carries at
    /// least one unit of demand; deep in a witness search its loop body
    /// rarely runs, since diameter chords carry top branch priority.
    fn strong_lb(&self, u: &TileUniverse, stop_above: u64) -> u64 {
        let parity = parity_join_bound_from_odd(u.ring().n(), self.rem_dist, self.odd);
        if parity > stop_above {
            return parity;
        }
        diameter_slack_bound(u, &self.live, self.rem_dist, stop_above).max(parity)
    }
}

/// The state every frame-based core shares around its residual: the
/// explicit stack, the statistics and limits, the orbit filter, and the
/// memo handle.
pub(crate) struct Stack<'a> {
    pub(crate) u: &'a TileUniverse,
    budget: u32,
    /// The placed tiles, bottom first.
    chosen: Vec<u32>,
    frames: Vec<Frame>,
    dom: DomArena,
    pub(crate) stats: Stats,
    gov: Governor<'a>,
    /// Whether the strong prefix bound is consulted (the requested
    /// symmetry was not `Off`, whatever the tables allow).
    strong: bool,
    orbits: Orbits<'a>,
    /// The (possibly shared) refutation store this searcher probes and
    /// feeds; `None` = memo off, and the search then reproduces its
    /// memo-free node counts bit for bit.
    store: Option<&'a MemoStore>,
    /// The store's key width tag for this core's residual states.
    width: u8,
    /// This searcher's generation in the store — hits on entries with
    /// another tag count as `shared_hits`.
    gen: u32,
}

impl<'a> Stack<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        width: u8,
    ) -> Self {
        assert_eq!(
            spec.demand.len(),
            u.num_chords() as usize,
            "spec size mismatch"
        );
        let orbits = Orbits::new(u, spec, requested);
        // A store built for another universe would prune on meaningless
        // key matches — treat it as absent.
        let store = store.filter(|s| s.compatible(u));
        Stack {
            u,
            budget,
            chosen: Vec::new(),
            frames: Vec::new(),
            dom: DomArena::new(u),
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            gov,
            strong: requested != SymmetryMode::Off,
            orbits,
            store,
            width,
            gen: store.map_or(0, |s| s.attach()),
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.chosen.len()
    }

    /// Records tile `t` as placed (after the residual took it).
    pub(crate) fn push(&mut self, t: u32) {
        self.orbits.push(t);
        self.chosen.push(t);
    }

    /// Pops the top placement, for the residual to revert.
    pub(crate) fn pop(&mut self) -> u32 {
        self.orbits.pop();
        self.chosen.pop().expect("unplace without place")
    }

    /// The memo slack of a budget-keyed state: tiles left at this depth.
    fn tiles_left(&self) -> u32 {
        self.budget - self.depth() as u32
    }

    /// The prefix bound test over the residual `d`.
    pub(crate) fn refutes(&self, d: &Demand) -> bool {
        let used = self.depth() as u64;
        let budget = self.budget as u64;
        used + d.remaining_lb(self.u.ring().n()) > budget
            || (self.strong && d.strong_lb(self.u, budget - used) > budget - used)
    }

    /// Whether the store already refuted this residual state with at
    /// least `slack` to spare (counting the hit).
    fn memo_hit(&mut self, hash: u64, key: [u64; KEY_WORDS], slack: u32) -> bool {
        let Some(owner) = self
            .store
            .and_then(|s| s.dominated(hash, key, self.width, slack))
        else {
            return false;
        };
        self.stats.memo_hits += 1;
        if owner != self.gen {
            self.stats.shared_hits += 1;
        }
        true
    }

    /// Stages the current node's children into its frame: scores
    /// `branch`'s candidates against the `live` chords over the words
    /// each tile's mask spans, drops those covering nothing new and those
    /// whose waste exceeds `max_waste`, sorts by coverage (descending)
    /// then waste, dominance-filters, and orbit-filters (under `setwise`
    /// when given). `entry` is the memo entry the node records if it
    /// exhausts.
    pub(crate) fn stage(
        &mut self,
        live: &ChordSet,
        branch: u32,
        max_waste: u64,
        setwise: Option<u64>,
        entry: Option<MemoEntry>,
    ) {
        let depth = self.depth();
        // Frontier workers enter at their prefix depth, so the arena may
        // need to leap several levels at once.
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Frame::default);
        }
        let u = self.u;
        let n = u.ring().n();
        // The buffers leave the frame while the loop fills them, so their
        // headers stay in registers instead of being reloaded after every
        // push through the frame reference.
        let mut scored = std::mem::take(&mut self.frames[depth].scored);
        let mut cands = std::mem::take(&mut self.frames[depth].cands);
        scored.clear();
        cands.clear();
        let mut overdrawn = 0;
        for &t in u.candidates_pri(branch) {
            let (lo, hi) = u.tile_mask_span(t);
            let (lo, hi) = (lo as usize, hi as usize);
            let mut cov = 0u32;
            let mut useful = 0u32;
            for (wi, (a, b)) in u.tile_mask(t).words()[lo..hi]
                .iter()
                .zip(&live.words()[lo..hi])
                .enumerate()
            {
                let mut w = a & b;
                cov += w.count_ones();
                while w != 0 {
                    useful += u.dist_of_pri(((lo + wi) * 64) as u32 + w.trailing_zeros());
                    w &= w - 1;
                }
            }
            if cov == 0 {
                continue;
            }
            let waste = n - useful.min(n);
            if waste as u64 > max_waste {
                overdrawn += 1;
                continue;
            }
            scored.push((t, cov, waste));
        }
        // A child that would overdraw the waste budget is the capacity
        // prune it would hit as a node, applied without spawning one.
        self.stats.pruned += overdrawn;
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));
        self.stats.dominated += self.dom.filter(u, live, &scored, &mut cands);
        self.orbits
            .filter(depth, branch, setwise, &mut cands, &mut self.stats);
        self.frames[depth] = Frame {
            scored,
            cands,
            cursor: 0,
            entry,
        };
    }

    /// The staged children of the current node.
    pub(crate) fn children(&self) -> Vec<u32> {
        self.frames[self.depth()].cands.clone()
    }

    /// Settles the search (see [`SearchCore::finish`]), stamping the
    /// store's resident entry count — a shared store reports its total
    /// population, not this searcher's contribution.
    pub(crate) fn finish(mut self, found: bool) -> Probe {
        self.gov.sync(self.stats.nodes);
        self.stats.memo_entries = self.store.map_or(0, |s| s.len());
        if found {
            (Outcome::Feasible(self.chosen), self.stats, None)
        } else if self.gov.hit_limit {
            (Outcome::NodeLimit, self.stats, self.gov.stop_cause)
        } else {
            (Outcome::Infeasible, self.stats, None)
        }
    }
}

/// The per-core hooks of the frame-based node protocol.
pub(crate) trait FrameCore<'a>: SearchCore {
    /// The state shared with the other frame-based cores.
    fn stack(&mut self) -> &mut Stack<'a>;

    /// The current residual state's memo key and hash, and whether the
    /// key is the raw state (not a canonical image). Called with a store.
    fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool);

    /// The current node's slack in the memo's domain.
    fn memo_rem(&self) -> u32;

    /// Candidate `t`'s child state — key, hash and slack — for the
    /// candidate-level store probe, or `None` when the core cannot
    /// pre-probe.
    fn child_state(&self, store: &MemoStore, t: u32) -> Option<MemoEntry>;

    /// Chooses the branch chord and stages the node's children.
    fn stage(&mut self, entry: Option<MemoEntry>);

    /// Whether children probe the store at entry instead of being
    /// pre-probed (the unit core's canonical keys need the placed state).
    fn probes_at_entry(&self) -> bool {
        false
    }
}

/// Enters the node at the current prefix: satisfied, then the limits,
/// the prefix bounds, the memo, and candidate staging. `check_memo` is
/// false when the node was already probed as a candidate child; its
/// entry is still staged so the node can be recorded on exhaust.
#[inline]
fn enter<'a, C: FrameCore<'a>>(c: &mut C, check_memo: bool) -> Enter {
    if c.satisfied() {
        return Enter::Solved;
    }
    let s = c.stack();
    s.stats.nodes += 1;
    if s.gov.exhausted(s.stats.nodes) {
        return Enter::Abort;
    }
    if c.refuted() {
        c.stack().stats.pruned += 1;
        return Enter::Dead;
    }
    let mut entry = None;
    if c.stack().store.is_some() {
        let (key, hash, raw) = c.memo_state();
        let rem = c.memo_rem();
        if (check_memo || c.probes_at_entry()) && c.stack().memo_hit(hash, key, rem) {
            if !raw {
                c.stack().stats.canon_pruned += 1;
            }
            return Enter::Dead;
        }
        entry = Some((hash, key, rem));
    }
    c.stage(entry);
    Enter::Ready
}

/// The candidate-level store probe: `true` (a counted memo hit) when
/// placing `t` reaches a state already refuted with at least the child's
/// slack, so the child is skipped without being placed or counted as a
/// node. A child that would be a covering is never probed.
#[inline]
fn skip<'a, C: FrameCore<'a>>(c: &mut C, t: u32) -> bool {
    let Some(store) = c.stack().store else {
        return false;
    };
    match c.child_state(store, t) {
        Some((hash, key, rem)) => key != [0; KEY_WORDS] && c.stack().memo_hit(hash, key, rem),
        None => false,
    }
}

/// Drives a frame-based core to a conclusion from the current placement
/// depth (the root for a sequential probe, the assigned prefix for a
/// frontier worker, whose siblings belong to other workers). `true` =
/// covering found; `false` = subtree exhausted or a limit hit.
pub(crate) fn run_frames<'a, C: FrameCore<'a>>(c: &mut C) -> bool {
    let base = c.stack().depth();
    let mut entering = true;
    // Only the subtree root needs the node-entry store probe: deeper
    // nodes were already probed as candidate children.
    let mut check_memo = true;
    loop {
        if entering {
            match enter(c, check_memo) {
                Enter::Solved => return true,
                Enter::Abort => return false,
                Enter::Dead => {
                    if c.stack().depth() == base {
                        return false;
                    }
                    c.unplace();
                    entering = false;
                    continue;
                }
                Enter::Ready => {}
            }
        }
        let s = c.stack();
        let depth = s.depth();
        let f = &mut s.frames[depth];
        if let Some(&t) = f.cands.get(f.cursor) {
            f.cursor += 1;
            entering = !skip(c, t);
            if entering {
                c.place(t);
                check_memo = c.probes_at_entry();
            }
        } else {
            if let Some((hash, key, rem)) = f.entry {
                let store = s.store.expect("a memo entry implies a store");
                store.record(hash, key, s.width, rem, s.gen);
            }
            if depth == base {
                return false;
            }
            c.unplace();
            entering = false;
        }
    }
}

// ---------------------------------------------------------------------------
// The unit core
// ---------------------------------------------------------------------------

/// The iterative search for unit-demand specs: the uncovered chords as
/// one [`ChordSet`], placement as word sweeps with a per-depth undo set
/// of newly covered chords. Mirrors `bnb::SearchCtx<BitsetKernel>`
/// observably (same nodes, same order, same stats with the memo off).
pub(crate) struct IterCore<'a> {
    s: Stack<'a>,
    /// The uncovered chords and their bound ingredients.
    d: Demand,
    /// Incremental Zobrist hash of the uncovered set (0 with the memo off).
    hash: u64,
    /// `undo[d]`: chords newly covered by the tile placed at depth `d`.
    undo: Vec<ChordSet>,
    /// Key the memo by the canonical dihedral image of the uncovered set
    /// (`Full` mode with the memo on).
    canon: bool,
    /// Canonical mode: the placed tile multiset, kept sorted for the
    /// setwise stabilizer test.
    placed_sorted: Vec<u32>,
    /// The sorted images of `placed_sorted` under one group element.
    images: Vec<u32>,
}

impl<'a> IterCore<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
    ) -> Self {
        debug_assert!(spec.is_unit(), "iterative core requires unit demands");
        let s = Stack::new(u, spec, budget, gov, requested, store, 1);
        let d = Demand::new(u, spec);
        let hash = s
            .store
            .map_or(0, |st| d.live.iter().fold(0, |h, c| h ^ st.chord_key(c)));
        let canon = s.store.is_some() && s.orbits.mode == SymmetryMode::Full;
        IterCore {
            s,
            d,
            hash,
            undo: Vec::new(),
            canon,
            placed_sorted: Vec::new(),
            images: Vec::new(),
        }
    }

    /// The setwise stabilizer of the placed tile multiset inside the
    /// spec group: every pointwise element, plus each element mapping the
    /// multiset onto itself (tested against the sorted placement list —
    /// at most `2n` sorts of a ≤-budget-length vector per node).
    fn setwise_stab(&mut self) -> u64 {
        let o = &self.s.orbits;
        let sym = o.tables.expect("canonical mode implies tables");
        let mut stab = o.pointwise();
        let mut rest = o.spec_group & !stab;
        while rest != 0 {
            let g = rest.trailing_zeros();
            rest &= rest - 1;
            self.images.clear();
            self.images
                .extend(self.placed_sorted.iter().map(|&t| sym.tile_image(g, t)));
            self.images.sort_unstable();
            if self.images == self.placed_sorted {
                stab |= 1u64 << g;
            }
        }
        stab
    }

    /// The raw memo key of the uncovered set.
    fn raw_key(&self) -> [u64; KEY_WORDS] {
        let words = self.d.live.words();
        [words[0], words.get(1).copied().unwrap_or(0), 0, 0]
    }
}

impl SearchCore for IterCore<'_> {
    fn satisfied(&self) -> bool {
        self.d.live.is_empty()
    }

    /// Covers `t`'s new chords and updates every incremental ingredient
    /// in one sweep over them.
    fn place(&mut self, t: u32) {
        if self.canon {
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            self.placed_sorted.insert(pos, t);
        }
        let depth = self.s.depth();
        if self.undo.len() == depth {
            self.undo.push(ChordSet::empty(self.d.live.len()));
        }
        let newly = &mut self.undo[depth];
        self.s.u.tile_mask(t).intersection_into(&self.d.live, newly);
        self.d.live.subtract(newly);
        for c in newly.iter() {
            self.d.step(self.s.u, c, true);
            if let Some(store) = self.s.store {
                self.hash ^= store.chord_key(c);
            }
        }
        self.s.push(t);
    }

    fn unplace(&mut self) {
        let t = self.s.pop();
        let newly = &self.undo[self.s.depth()];
        for c in newly.iter() {
            self.d.step(self.s.u, c, false);
            if let Some(store) = self.s.store {
                self.hash ^= store.chord_key(c);
            }
        }
        self.d.live.union_with(newly);
        if self.canon {
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            debug_assert_eq!(self.placed_sorted.get(pos), Some(&t));
            self.placed_sorted.remove(pos);
        }
    }

    fn refuted(&self) -> bool {
        self.s.refutes(&self.d)
    }

    fn children(&mut self) -> Vec<u32> {
        self.stage(None);
        self.s.children()
    }

    fn run(&mut self) -> bool {
        run_frames(self)
    }

    fn stats(&mut self) -> &mut Stats {
        &mut self.s.stats
    }

    fn finish(self, found: bool) -> Probe {
        self.s.finish(found)
    }
}

impl<'a> FrameCore<'a> for IterCore<'a> {
    fn stack(&mut self) -> &mut Stack<'a> {
        &mut self.s
    }

    /// The raw uncovered words, or (canonical mode) the lexicographically
    /// smallest dihedral image of the uncovered set.
    fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        let raw = self.raw_key();
        if !self.canon {
            return (raw, self.hash, true);
        }
        let store = self.s.store.expect("canonical mode implies a store");
        let sym = self.s.orbits.tables.expect("canonical mode implies tables");
        let mut best = raw;
        let mut best_hash = self.hash;
        let mut elements = self.s.orbits.spec_group & !1;
        while elements != 0 {
            let g = elements.trailing_zeros();
            elements &= elements - 1;
            let mut img = [0u64; KEY_WORDS];
            let mut h = 0u64;
            for c in self.d.live.iter() {
                let ic = sym.chord_image(g, c);
                img[(ic / 64) as usize] |= 1u64 << (ic % 64);
                h ^= store.chord_key(ic);
            }
            if img < best {
                best = img;
                best_hash = h;
            }
        }
        (best, best_hash, best == raw)
    }

    fn memo_rem(&self) -> u32 {
        self.s.tiles_left()
    }

    /// Simulates the placement's word sweep over a copy of the key.
    /// Canonical keys need the placed state, so canonical mode never
    /// pre-probes.
    fn child_state(&self, store: &MemoStore, t: u32) -> Option<MemoEntry> {
        if self.canon {
            return None;
        }
        let mut key = self.raw_key();
        let mut h = self.hash;
        let (lo, hi) = self.s.u.tile_mask_span(t);
        let tmask = self.s.u.tile_mask(t).words();
        for w in lo as usize..hi as usize {
            let mut m = tmask[w] & key[w];
            key[w] &= !m;
            while m != 0 {
                h ^= store.chord_key(w as u32 * 64 + m.trailing_zeros());
                m &= m - 1;
            }
        }
        Some((h, key, self.s.tiles_left().saturating_sub(1)))
    }

    /// Branches on the highest-priority uncovered chord.
    fn stage(&mut self, entry: Option<MemoEntry>) {
        let branch = self.d.live.first_set().expect("unsatisfied demand exists");
        // The setwise upgrade is part of the canonical machinery: with
        // the memo off, `Full` filters exactly as the recursive reference
        // does, so the differential node-count gate stays exact.
        let setwise = self.canon.then(|| self.setwise_stab());
        self.s.stage(&self.d.live, branch, u64::MAX, setwise, entry);
    }

    fn probes_at_entry(&self) -> bool {
        self.canon
    }
}

// ---------------------------------------------------------------------------
// The λ-fold lane residual and the lane core
// ---------------------------------------------------------------------------

/// Per-tile lane-space masks: each tile's chord set re-expressed with one
/// [`LANE_LOW`] bit per chord in the 2-bit-lane layout of [`LaneSet`],
/// plus the lane-word span the mask occupies. Built once per probe and
/// shared by every frontier worker, so a λ-fold placement is a handful of
/// masked word subtracts.
pub(crate) struct LaneTables {
    lane_words: usize,
    /// `masks[t * lane_words .. (t + 1) * lane_words]` = tile `t`'s mask.
    masks: Vec<u64>,
    /// Lane-word span of each tile's mask (`lo..hi`).
    spans: Vec<(u32, u32)>,
}

impl LaneTables {
    pub(crate) fn build(u: &TileUniverse) -> Self {
        let lane_words = u.num_chords().div_ceil(LANES_PER_WORD) as usize;
        let nt = u.len();
        let mut masks = vec![0u64; nt * lane_words];
        let mut spans = vec![(0u32, 0u32); nt];
        for (t, span) in spans.iter_mut().enumerate() {
            let base = t * lane_words;
            let mut lo = lane_words as u32;
            let mut hi = 0u32;
            for &c in u.tile_chords(t as u32) {
                let w = c / LANES_PER_WORD;
                masks[base + w as usize] |= 1u64 << (2 * (c % LANES_PER_WORD));
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
            *span = if lo < hi { (lo, hi) } else { (0, 0) };
        }
        LaneTables {
            lane_words,
            masks,
            spans,
        }
    }

    #[inline]
    fn mask(&self, t: u32) -> &[u64] {
        let base = t as usize * self.lane_words;
        &self.masks[base..base + self.lane_words]
    }

    #[inline]
    fn span(&self, t: u32) -> (u32, u32) {
        self.spans[t as usize]
    }
}

/// The λ-fold residual state the lane core and the partition kernel
/// share: per-chord residual demand in packed 2-bit lanes (demands ≤ 3),
/// the support set and bound ingredients ([`Demand`]), an incremental
/// level-Zobrist hash, and per-depth undo masks.
///
/// Memo keys are the packed lane words — exact for every universe the
/// store accepts, since `compatible` caps chords at 128 = 4 lane words.
pub(crate) struct LaneResidual<'a> {
    u: &'a TileUniverse,
    tables: &'a LaneTables,
    store: Option<&'a MemoStore>,
    lanes: LaneSet,
    /// The support (chords with residual > 0) and bound ingredients.
    pub(crate) d: Demand,
    /// `⊕_c ⊕_{v=1..=r(c)} key(c, v)` over the residual vector `r`.
    hash: u64,
    /// `undo[d]`: per lane word, the [`LANE_LOW`] decrement mask the
    /// placement at depth `d` applied.
    undo: Vec<Vec<u64>>,
}

impl<'a> LaneResidual<'a> {
    /// The residual of `spec`, hashed for the stack's (compatible) store.
    pub(crate) fn new(s: &Stack<'a>, spec: &CoverSpec, tables: &'a LaneTables) -> Self {
        let u = s.u;
        let d = Demand::new(u, spec);
        let mut lanes = LaneSet::zero(u.num_chords());
        for c in d.live.iter() {
            lanes.set(c, spec.demand[u.dense_of_pri(c) as usize]);
        }
        let hash = s.store.map_or(0, |st| {
            d.live.iter().fold(0, |mut h, c| {
                for v in 1..=lanes.get(c) {
                    h ^= st.chord_level_key(c, v);
                }
                h
            })
        });
        LaneResidual {
            u,
            tables,
            store: s.store,
            lanes,
            d,
            hash,
            undo: Vec::new(),
        }
    }

    /// Places tile `t` at `depth`: one saturating masked subtract per lane
    /// word, then per decremented chord the bound ingredients, support
    /// retirement when its residual hits zero, and the hash. Returns the
    /// distance the placement newly covered.
    #[inline]
    pub(crate) fn place(&mut self, t: u32, depth: usize) -> u64 {
        if self.undo.len() == depth {
            self.undo.push(vec![0u64; self.tables.lane_words]);
        }
        let (lo, hi) = self.tables.span(t);
        let mut useful = 0u64;
        for w in lo as usize..hi as usize {
            let before = self.lanes.words()[w];
            let sub = self.lanes.place_word(w, self.tables.mask(t)[w]);
            self.undo[depth][w] = sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                let old = (before >> p & 0b11) as u32;
                useful += self.d.step(self.u, c, true);
                if old == 1 {
                    self.d.live.remove(c);
                }
                if let Some(store) = self.store {
                    self.hash ^= store.chord_level_key(c, old);
                }
                m &= m - 1;
            }
        }
        useful
    }

    /// Reverts the placement of `t` at `depth`; returns the distance it
    /// had covered.
    #[inline]
    pub(crate) fn unplace(&mut self, t: u32, depth: usize) -> u64 {
        let (lo, hi) = self.tables.span(t);
        let mut useful = 0u64;
        for w in lo as usize..hi as usize {
            let sub = self.undo[depth][w];
            if sub == 0 {
                continue;
            }
            self.lanes.unplace_word(w, sub);
            let after = self.lanes.words()[w];
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                // The restored value equals what `place` decremented from.
                let val = (after >> p & 0b11) as u32;
                useful += self.d.step(self.u, c, false);
                if val == 1 {
                    self.d.live.insert(c);
                }
                if let Some(store) = self.store {
                    self.hash ^= store.chord_level_key(c, val);
                }
                m &= m - 1;
            }
        }
        useful
    }

    /// The memo key and hash of the residual vector: the packed lane
    /// words, zero-padded to the store's key width.
    pub(crate) fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        let words = self.lanes.words();
        debug_assert!(
            words.len() <= KEY_WORDS,
            "store.compatible caps chords at 128"
        );
        let mut key = [0u64; KEY_WORDS];
        key[..words.len()].copy_from_slice(words);
        (key, self.hash, true)
    }

    /// The key and hash of the state placing `t` would reach, and the
    /// distance it would newly cover: [`LaneResidual::place`] simulated
    /// over a copy of the lane words.
    #[inline]
    pub(crate) fn child(&self, store: &MemoStore, t: u32) -> ([u64; KEY_WORDS], u64, u64) {
        let (mut key, mut h, _) = self.memo_state();
        let mut useful = 0u64;
        let (lo, hi) = self.tables.span(t);
        for (w, kw) in key
            .iter_mut()
            .enumerate()
            .take(hi as usize)
            .skip(lo as usize)
        {
            let r = *kw;
            let sub = (r | r >> 1) & self.tables.mask(t)[w] & LANE_LOW;
            *kw = r - sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                useful += self.u.dist_of_pri(c) as u64;
                h ^= store.chord_level_key(c, (r >> p & 0b11) as u32);
                m &= m - 1;
            }
        }
        (key, h, useful)
    }
}

/// The iterative λ-fold search over a [`LaneResidual`] — the unit core's
/// sibling for specs with demands in `2..=3`. Branching, scoring and
/// dominance read the support set (coverage counts *chords* with live
/// residual, as the legacy multiplicity kernel scores); every bound
/// scales by λ through the residual-weighted ingredients. Orbit filtering
/// is pointwise only and memo keys are always raw, so the candidate-level
/// pre-probe always applies. A tile may be placed repeatedly at
/// successive depths while its branch chord's residual drains.
pub(crate) struct LaneCore<'a> {
    s: Stack<'a>,
    r: LaneResidual<'a>,
}

impl<'a> LaneCore<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        gov: Governor<'a>,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        tables: &'a LaneTables,
    ) -> Self {
        debug_assert!(spec.max_demand() <= 3, "lane core requires demands ≤ 3");
        let s = Stack::new(u, spec, budget, gov, requested, store, 2);
        let r = LaneResidual::new(&s, spec, tables);
        LaneCore { s, r }
    }
}

impl SearchCore for LaneCore<'_> {
    fn satisfied(&self) -> bool {
        self.r.d.live.is_empty()
    }

    fn place(&mut self, t: u32) {
        self.r.place(t, self.s.depth());
        self.s.push(t);
    }

    fn unplace(&mut self) {
        let t = self.s.pop();
        self.r.unplace(t, self.s.depth());
    }

    fn refuted(&self) -> bool {
        self.s.refutes(&self.r.d)
    }

    fn children(&mut self) -> Vec<u32> {
        self.stage(None);
        self.s.children()
    }

    fn run(&mut self) -> bool {
        run_frames(self)
    }

    fn stats(&mut self) -> &mut Stats {
        &mut self.s.stats
    }

    fn finish(self, found: bool) -> Probe {
        self.s.finish(found)
    }
}

impl<'a> FrameCore<'a> for LaneCore<'a> {
    fn stack(&mut self) -> &mut Stack<'a> {
        &mut self.s
    }

    fn memo_state(&self) -> ([u64; KEY_WORDS], u64, bool) {
        self.r.memo_state()
    }

    fn memo_rem(&self) -> u32 {
        self.s.tiles_left()
    }

    fn child_state(&self, store: &MemoStore, t: u32) -> Option<MemoEntry> {
        let (key, hash, _) = self.r.child(store, t);
        Some((hash, key, self.s.tiles_left().saturating_sub(1)))
    }

    /// Branches on the highest-priority support chord.
    fn stage(&mut self, entry: Option<MemoEntry>) {
        let branch = self
            .r
            .d
            .live
            .first_set()
            .expect("unsatisfied demand exists");
        self.s.stage(&self.r.d.live, branch, u64::MAX, None, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_ring::Ring;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The arena against the plain definition: a candidate is dropped
    /// when its live coverage is a subset of an earlier candidate's. One
    /// arena serves lists of every length over 1-, 2- and 3-word chord
    /// sets, so slots left over from longer lists, and tiles whose word
    /// spans differ from their neighbours', are both exercised.
    #[test]
    fn dom_arena_matches_pairwise_subset_filter() {
        let mut rng = StdRng::seed_from_u64(14);
        for (n, max_len) in [(8, 8), (12, 4), (14, 4), (17, 4)] {
            let u = TileUniverse::new(Ring::new(n), max_len);
            let m = u.num_chords();
            let mut arena = DomArena::new(&u);
            let mut cands = Vec::new();
            for _ in 0..400 {
                let density = rng.gen_range(1..=9u32);
                let mut live = ChordSet::empty(m);
                for c in 0..m {
                    if rng.gen_range(0..10u32) < density {
                        live.insert(c);
                    }
                }
                let scored: Vec<(u32, u32, u32)> = (0..rng.gen_range(0..40usize))
                    .map(|_| rng.gen_range(0..u.len() as u32))
                    .filter(|&t| u.tile_mask(t).intersects(&live))
                    .map(|t| (t, 0, 0))
                    .collect();
                cands.clear();
                let dropped = arena.filter(&u, &live, &scored, &mut cands);

                let mut masks: Vec<ChordSet> = Vec::new();
                let mut expected = Vec::new();
                for &(t, _, _) in &scored {
                    let mut mask = ChordSet::empty(m);
                    u.tile_mask(t).intersection_into(&live, &mut mask);
                    if !masks.iter().any(|prior| mask.is_subset_of(prior)) {
                        expected.push(t);
                    }
                    masks.push(mask);
                }
                assert_eq!(cands, expected, "n = {n}");
                assert_eq!(dropped as usize, scored.len() - expected.len(), "n = {n}");
            }
        }
    }
}
