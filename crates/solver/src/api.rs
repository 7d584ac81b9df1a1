//! The unified solver surface: [`Problem`] + [`SolveRequest`] in,
//! [`Solution`] out, through any registered [`Engine`].
//!
//! Every experiment in the paper is an instance of one question — *cover
//! this demand spec on `C_n` within this budget, and certify it* — so the
//! whole solver stack sits behind a single typed request/response
//! boundary:
//!
//! * [`Problem`] — what to solve: the ring, a [`CoverSpec`], and the
//!   precomputed [`TileUniverse`] the search runs on;
//! * [`SolveRequest`] — what kind of answer is wanted (an [`Objective`]),
//!   under which resource limits (node budget, wall-clock deadline, a
//!   shareable [`CancelToken`]), and [`SymmetryMode`] (dihedral orbit
//!   reduction, default `Root`; certificates record the applied
//!   symmetry factor);
//! * [`Solution`] — the covering (if any), an [`Optimality`] certificate
//!   saying exactly what was proved, and unified [`Stats`].
//!
//! Engines are registered by name in [`engines`] / [`engine_by_name`] so
//! CLIs, benches, and services select them with a string:
//!
//! | name | substrate |
//! |------|-----------|
//! | `bitset` | branch & bound on the routed core |
//! | `dlx` | the partition kernel, restricted to zero-slack specs |
//! | `partition` | the slack-budgeted partition kernel, any spec with demands ≤ 65,535 |
//! | `greedy` | max-coverage greedy |
//! | `greedy-improve` | greedy + drop/merge local search |
//! | `anneal` | greedy + simulated annealing + local search |
//!
//! Every exact engine searches on the calling thread. Parallelism is
//! across requests: the solve service runs several at once
//! (`cyclecover serve --workers N`).
//!
//! ```
//! use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest};
//!
//! // Certify the paper's worked example, rho(4) = 3, end to end.
//! let problem = Problem::complete(4);
//! let engine = engine_by_name("bitset").unwrap();
//! let solution = engine.solve(&problem, &SolveRequest::find_optimal());
//! assert!(matches!(solution.optimality(), Optimality::Optimal { .. }));
//! assert_eq!(solution.covering().unwrap().len(), 3);
//! ```

use crate::anneal::{anneal_covering, AnnealParams};
pub use crate::bnb::SymmetryMode;
use crate::bnb::{self, CoverSpec, MemoStore, Outcome, RunLimits, DEFAULT_MEMO_BYTES};
use crate::greedy::greedy_cover;
use crate::improve::improve_covering;
use crate::TileUniverse;
use cyclecover_ring::{Ring, Tile};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Problem
// ---------------------------------------------------------------------------

/// A covering problem: the ring, the demand spec, and the precomputed tile
/// universe every engine searches over.
///
/// The universe is held behind an [`Arc`] so one `Problem` can be solved
/// repeatedly (and by several engines), and so *many* problems — distinct
/// specs over the same ring — can share one enumeration. Universe
/// construction is the expensive, spec-independent part of a solve; a
/// batch service caches universes by `(n, max_len, max_gap)` and builds
/// each problem with [`Problem::shared`].
pub struct Problem {
    universe: Arc<TileUniverse>,
    spec: CoverSpec,
}

impl Problem {
    /// A problem over an explicit (exclusively owned) universe and spec.
    ///
    /// # Panics
    /// Panics if the spec's demand vector is not sized for the universe's
    /// ring (`n(n−1)/2` entries).
    pub fn new(universe: TileUniverse, spec: CoverSpec) -> Self {
        Problem::shared(Arc::new(universe), spec)
    }

    /// A problem over a shared universe — the zero-copy path for callers
    /// (caches, services) that solve many specs over one enumeration.
    ///
    /// # Panics
    /// Panics if the spec's demand vector is not sized for the universe's
    /// ring (`n(n−1)/2` entries).
    pub fn shared(universe: Arc<TileUniverse>, spec: CoverSpec) -> Self {
        let n = universe.ring().n() as usize;
        assert_eq!(
            spec.demand.len(),
            n * (n - 1) / 2,
            "demand vector sized for K_{n}"
        );
        Problem { universe, spec }
    }

    /// The standard instance: cover every request of `K_n` once, over the
    /// full tile universe (`max_len = n`) — the `ρ(n)` workload.
    pub fn complete(n: u32) -> Self {
        Problem::new(
            TileUniverse::new(Ring::new(n), n as usize),
            CoverSpec::complete(n),
        )
    }

    /// The λ-fold instance over the full tile universe.
    pub fn lambda_fold(n: u32, lambda: u32) -> Self {
        Problem::new(
            TileUniverse::new(Ring::new(n), n as usize),
            CoverSpec::lambda_fold(n, lambda),
        )
    }

    /// The ring the problem lives on.
    pub fn ring(&self) -> Ring {
        self.universe.ring()
    }

    /// The tile universe.
    pub fn universe(&self) -> &TileUniverse {
        &self.universe
    }

    /// The shared handle to the tile universe (clone it to build further
    /// problems over the same enumeration without copying).
    pub fn universe_arc(&self) -> &Arc<TileUniverse> {
        &self.universe
    }

    /// The demand spec.
    pub fn spec(&self) -> &CoverSpec {
        &self.spec
    }

    /// Whether the spec demands every request of `K_n` exactly once.
    pub fn is_complete_unit(&self) -> bool {
        self.spec.demand.iter().all(|&d| d == 1)
    }
}

// ---------------------------------------------------------------------------
// SolveRequest
// ---------------------------------------------------------------------------

/// What kind of answer a [`SolveRequest`] asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Find a minimum covering and certify its optimality.
    FindOptimal,
    /// Find any covering using at most this many tiles.
    WithinBudget(u32),
    /// Prove that no covering with at most this many tiles exists.
    ProveInfeasible(u32),
}

/// Why a [`CancelToken`] was cancelled, so a stopped kernel can report
/// the motive on the wire instead of a generic "cancelled".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// Plain cooperative cancellation (superseded, no longer wanted).
    Explicit,
    /// The owning service is shutting down; in-flight work should stop
    /// and queued work will be reported unstarted.
    Shutdown,
}

impl CancelReason {
    /// The [`Exhaustion`] this cancellation reads as on the wire.
    pub fn as_exhaustion(self) -> Exhaustion {
        match self {
            CancelReason::Explicit => Exhaustion::Cancelled,
            CancelReason::Shutdown => Exhaustion::Shutdown,
        }
    }

    fn encode(self) -> u8 {
        match self {
            CancelReason::Explicit => 1,
            CancelReason::Shutdown => 2,
        }
    }

    fn decode(code: u8) -> Option<CancelReason> {
        match code {
            1 => Some(CancelReason::Explicit),
            2 => Some(CancelReason::Shutdown),
            _ => None,
        }
    }
}

/// A shareable cooperative-cancellation flag.
///
/// Clones share one flag: hand a clone to a request (or several), keep
/// one, and [`CancelToken::cancel`] stops every search holding it within
/// 4096 expanded nodes. A service hands a clone of its one token to
/// every job, so one cancellation stops them all.
///
/// Cancellation carries a [`CancelReason`], so the wire document can
/// distinguish a service shutdown from a plain cancel. A deadline is not
/// a cancellation: a kernel's own deadline check answers `deadline`.
///
/// ```
/// use cyclecover_solver::api::{CancelReason, CancelToken};
///
/// let service = CancelToken::new();
/// let job = service.clone();
/// assert!(!job.is_cancelled());
/// service.cancel_with(CancelReason::Shutdown); // drain: every job stops
/// assert!(job.is_cancelled());
/// assert_eq!(job.cancel_reason(), Some(CancelReason::Shutdown));
/// job.cancel(); // a token cancelled twice keeps its first reason
/// assert_eq!(service.cancel_reason(), Some(CancelReason::Shutdown));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    /// Encoded [`CancelReason`] (0 = not cancelled). Written once,
    /// before `flag` is raised, so any reader that observes the flag
    /// also observes a reason.
    reason: AtomicU8,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent, visible to all clones), with
    /// reason [`CancelReason::Explicit`].
    pub fn cancel(&self) {
        self.cancel_with(CancelReason::Explicit);
    }

    /// Like [`CancelToken::cancel`], with an explicit reason. A token
    /// cancelled twice keeps the first reason.
    pub fn cancel_with(&self, reason: CancelReason) {
        // First writer wins. The reason is published before the flag, so
        // `flag == true` implies a readable reason.
        let _ = self.inner.reason.compare_exchange(
            0,
            reason.encode(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
    }

    /// Why this token was cancelled (`None` while it is live).
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        // The reason is published before the flag, so a raised flag
        // guarantees a decodable value; default to Explicit defensively.
        Some(
            CancelReason::decode(self.inner.reason.load(Ordering::Relaxed))
                .unwrap_or(CancelReason::Explicit),
        )
    }
}

/// A builder-style solve request: objective, resource limits, symmetry
/// reduction level. All limits default to "unlimited";
/// symmetry defaults to [`SymmetryMode::Root`] (exact engines explore one
/// root candidate per dihedral orbit and use the strengthened prefix
/// bound — set [`SymmetryMode::Off`] to reproduce pre-symmetry node
/// counts bit for bit).
///
/// ```
/// use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest};
/// use std::time::Duration;
///
/// // Probe a budget under explicit limits: at most 100k nodes, 2 s wall.
/// let request = SolveRequest::within_budget(5)
///     .with_max_nodes(100_000)
///     .with_deadline(Duration::from_secs(2));
/// let solution = engine_by_name("bitset")
///     .unwrap()
///     .solve(&Problem::complete(6), &request);
/// assert_eq!(*solution.optimality(), Optimality::Feasible);
/// assert_eq!(solution.size(), Some(5)); // ρ(6) = 5
/// ```
#[derive(Clone, Debug)]
pub struct SolveRequest {
    objective: Objective,
    max_nodes: u64,
    deadline: Option<Duration>,
    cancel: CancelToken,
    symmetry: SymmetryMode,
    memo: bool,
    memo_bytes: usize,
    memo_store: Option<Arc<MemoStore>>,
    fallback: Vec<String>,
}

impl SolveRequest {
    /// A request with the given objective and default limits.
    pub fn new(objective: Objective) -> Self {
        SolveRequest {
            objective,
            max_nodes: u64::MAX,
            deadline: None,
            cancel: CancelToken::new(),
            symmetry: SymmetryMode::default(),
            memo: true,
            memo_bytes: DEFAULT_MEMO_BYTES,
            memo_store: None,
            fallback: Vec::new(),
        }
    }

    /// Shorthand for [`Objective::FindOptimal`].
    pub fn find_optimal() -> Self {
        Self::new(Objective::FindOptimal)
    }

    /// Shorthand for [`Objective::WithinBudget`].
    pub fn within_budget(budget: u32) -> Self {
        Self::new(Objective::WithinBudget(budget))
    }

    /// Shorthand for [`Objective::ProveInfeasible`].
    pub fn prove_infeasible(budget: u32) -> Self {
        Self::new(Objective::ProveInfeasible(budget))
    }

    /// Caps the number of search-tree nodes expanded by the whole
    /// request — for `FindOptimal`, across all deepening budgets.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets a wall-clock deadline, measured from the moment an engine
    /// starts solving; the search checks it every 4096 nodes.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Sets the dihedral symmetry reduction level for the exact engines
    /// (`bitset`, `partition`, `dlx`). The heuristic engines ignore it.
    ///
    /// ```
    /// use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest, SymmetryMode};
    ///
    /// // Off reproduces the pre-symmetry search; Root certifies the same
    /// // optimum while pruning mirror-image root branches.
    /// let engine = engine_by_name("bitset").unwrap();
    /// let problem = Problem::complete(6);
    /// let off = engine.solve(
    ///     &problem,
    ///     &SolveRequest::find_optimal().with_symmetry(SymmetryMode::Off),
    /// );
    /// let root = engine.solve(
    ///     &problem,
    ///     &SolveRequest::find_optimal().with_symmetry(SymmetryMode::Root),
    /// );
    /// assert_eq!(off.size(), root.size());
    /// assert!(root.stats().nodes <= off.stats().nodes);
    /// ```
    pub fn with_symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Enables or disables the residual-state dominance memo of the
    /// exact unit-demand search (default: enabled). With the memo *and*
    /// symmetry off, the search reproduces the pre-memo node counts bit
    /// for bit — the CI exactness gate runs that configuration.
    ///
    /// ```
    /// use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest};
    ///
    /// let engine = engine_by_name("bitset").unwrap();
    /// let problem = Problem::complete(8);
    /// let plain = engine.solve(
    ///     &problem,
    ///     &SolveRequest::prove_infeasible(8).with_memo(false),
    /// );
    /// let memoed = engine.solve(&problem, &SolveRequest::prove_infeasible(8));
    /// // Same verdict, never more nodes with the memo on.
    /// assert_eq!(plain.optimality(), memoed.optimality());
    /// assert!(memoed.stats().nodes <= plain.stats().nodes);
    /// ```
    pub fn with_memo(mut self, enabled: bool) -> Self {
        self.memo = enabled;
        self
    }

    /// Caps the memory the residual-state memo may claim, in bytes
    /// (default 32 MiB). The table stops growing at the budget and falls
    /// back to keep-the-stronger replacement — budgeted like the
    /// service layer's universe cache.
    pub fn with_memo_budget_bytes(mut self, bytes: usize) -> Self {
        self.memo_bytes = bytes;
        self
    }

    /// Attaches a **shared refutation store**: instead of building a
    /// private memo, the exact search probes and feeds `store`, reusing
    /// refutations recorded by earlier requests over the same tile
    /// universe (and contributing its own). A store built for a
    /// different universe is ignored — the search falls back to a
    /// private table — so attaching is always sound. Hits on entries
    /// another request recorded are reported as `shared_hits`.
    ///
    /// ```
    /// use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest};
    /// use cyclecover_solver::bnb::{MemoStore, DEFAULT_MEMO_BYTES};
    /// use std::sync::Arc;
    ///
    /// let engine = engine_by_name("bitset").unwrap();
    /// let problem = Problem::complete(10);
    /// let store = Arc::new(
    ///     MemoStore::new(problem.universe(), DEFAULT_MEMO_BYTES).unwrap(),
    /// );
    /// let cold = engine.solve(
    ///     &problem,
    ///     &SolveRequest::find_optimal().with_memo_store(store.clone()),
    /// );
    /// // The identical request again, against the warm store: same
    /// // verdict, far fewer nodes, and the reuse is visible in the stats.
    /// let warm = engine.solve(
    ///     &problem,
    ///     &SolveRequest::find_optimal().with_memo_store(store),
    /// );
    /// assert_eq!(cold.optimality(), warm.optimality());
    /// assert!(warm.stats().nodes < cold.stats().nodes);
    /// assert!(warm.stats().shared_hits > 0);
    /// ```
    pub fn with_memo_store(mut self, store: Arc<MemoStore>) -> Self {
        self.memo_store = Some(store);
        self
    }

    /// Sets the degradation ladder: engine names a scheduler may fall
    /// back to, in order, when the primary engine exhausts its budget or
    /// fails. Engines themselves ignore this — only a scheduling layer
    /// (the solve service) walks the chain, and any answer produced by a
    /// rung carries an honest [`Degradation`] record.
    pub fn with_fallback<I, S>(mut self, chain: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.fallback = chain.into_iter().map(Into::into).collect();
        self
    }

    /// The objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The node budget (`u64::MAX` = unlimited).
    pub fn max_nodes(&self) -> u64 {
        self.max_nodes
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The cancellation token (clone it to keep a cancel handle).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The symmetry reduction level.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// Whether the residual-state dominance memo is enabled.
    pub fn memo_enabled(&self) -> bool {
        self.memo
    }

    /// The memo's byte budget.
    pub fn memo_budget_bytes(&self) -> usize {
        self.memo_bytes
    }

    /// The attached shared refutation store, if any.
    pub fn memo_store(&self) -> Option<&Arc<MemoStore>> {
        self.memo_store.as_ref()
    }

    /// The degradation ladder (empty = no fallback).
    pub fn fallback(&self) -> &[String] {
        &self.fallback
    }

    /// The [`RunLimits`] this request imposes on a search starting `now`.
    fn run_limits(&self, start: Instant) -> RunLimits {
        RunLimits {
            max_nodes: self.max_nodes,
            deadline: self.deadline.map(|d| start + d),
            cancel: Some(self.cancel.clone()),
        }
    }

    /// The refutation store this request's exact search runs with: the
    /// attached shared store when one is set and fits `u`, a fresh
    /// private store otherwise, `None` with the memo off. One store
    /// serves the *whole* request — every deepening probe, which is the
    /// first sharing ring.
    fn build_store(&self, u: &TileUniverse) -> Option<Arc<MemoStore>> {
        if !self.memo {
            return None;
        }
        if let Some(shared) = &self.memo_store {
            if shared.compatible(u) {
                return Some(shared.clone());
            }
        }
        MemoStore::new(u, self.memo_bytes).map(Arc::new)
    }
}

// ---------------------------------------------------------------------------
// Solution
// ---------------------------------------------------------------------------

/// Why a search stopped without settling its objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhaustion {
    /// The node budget ran out.
    NodeBudget,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`CancelToken`] was cancelled by a service shutting down
    /// ([`CancelReason::Shutdown`]) — distinguished from a plain cancel
    /// so batch reports can separate drained-away work from superseded
    /// work.
    Shutdown,
    /// The engine's method has no further moves (a heuristic finished
    /// above the requested budget, DLX found no exact partition, an
    /// optimum sweep would pass the largest budget a `u32` counts, a
    /// demand exceeds what a search core takes, or a search reached the
    /// cores' depth cap).
    EngineLimit,
}

/// How a job failed terminally — no verdict, no covering, and no engine
/// answer to blame it on (see [`Optimality::Failed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The engine panicked; the panic was caught at the service's
    /// isolation boundary and the worker survived.
    Panic,
    /// An internal service failure (e.g. an injected or real universe
    /// construction failure) prevented the solve from ever starting.
    Internal,
}

/// An honest record that a weaker engine answered than the one asked
/// for: the service walked the request's fallback chain after the
/// primary engine gave out. Attached to the final [`Solution`] so a
/// degraded answer is never mistaken for the primary engine's verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Degradation {
    /// Engine the job originally requested.
    pub from: String,
    /// Engine that produced the answer actually returned.
    pub to: String,
    /// Why the primary engine was abandoned.
    pub reason: DegradeReason,
}

/// Why a degradation ladder descended past the primary engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The primary exhausted a resource limit without a verdict.
    Exhausted(Exhaustion),
    /// The primary panicked on every attempt it was given.
    Panicked,
}

/// How a [`Solution`] knows its covering size is a lower bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LowerBoundProof {
    /// The closed-form capacity/diameter bound already equals the
    /// covering size — no search was needed.
    CombinatorialBound {
        /// The bound's value.
        bound: u32,
    },
    /// An exhaustive search proved one-below-the-answer infeasible.
    ExhaustiveSearch {
        /// The budget proved infeasible (= optimum − 1).
        infeasible_budget: u32,
        /// Nodes the infeasibility proof expanded.
        nodes: u64,
        /// Order of the dihedral subgroup the proof's root branch was
        /// reduced by (1 = unreduced) — recorded so a symmetry-reduced
        /// refutation stays auditable: each explored root subtree stands
        /// for up to this many mirror images.
        symmetry_factor: u32,
    },
}

/// The certificate attached to a [`Solution`]: exactly what the engine
/// proved, never more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Optimality {
    /// The covering is a minimum: a matching lower bound was established.
    Optimal {
        /// How the matching lower bound was proved.
        lower_bound_proof: LowerBoundProof,
    },
    /// A covering meeting the objective was found; optimality unknown.
    Feasible,
    /// Exhaustively proved: no covering within the requested budget.
    Infeasible,
    /// The engine stopped before reaching a verdict.
    BudgetExhausted {
        /// Which limit stopped it.
        reason: Exhaustion,
    },
    /// The solve failed terminally — the engine panicked (caught at the
    /// service isolation boundary) or an internal failure prevented it
    /// from running. Unlike [`Optimality::BudgetExhausted`] this is not a
    /// resource verdict: retrying with a bigger budget will not help.
    Failed {
        /// What failed.
        kind: FailureKind,
    },
}

/// Unified per-solve statistics: what every search core counts into,
/// what a deepening sweep sums probe by probe, and what a [`Solution`]
/// reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Name of the engine that produced the solution.
    pub engine: &'static str,
    /// Search-tree nodes expanded (0 for non-search engines).
    pub nodes: u64,
    /// Nodes cut by the lower bounds.
    pub pruned: u64,
    /// Candidate branches skipped by dominance pruning.
    pub dominated: u64,
    /// Candidate branches skipped by dihedral orbit filtering (pointwise
    /// prefix stabilizer).
    pub sym_pruned: u64,
    /// Prunes owed to the canonical/setwise symmetry machinery of
    /// `SymmetryMode::Full` (canonical-state memo hits plus
    /// setwise-only sibling cuts).
    pub canon_pruned: u64,
    /// Nodes (and candidate children) pruned by the refutation store,
    /// including the canonical hits counted in `canon_pruned` and the
    /// cross-searcher hits in `shared_hits`.
    pub memo_hits: u64,
    /// The subset of `memo_hits` landing on refutations another
    /// searcher recorded: an earlier deepening probe or — with a shared
    /// store attached — another request.
    pub shared_hits: u64,
    /// Residual states resident in the refutation store at the end of
    /// the solve (a store shared across probes or requests reports its
    /// total population).
    pub memo_entries: u64,
    /// Budget probes served by the slack-budgeted partition kernel —
    /// the certificate's provenance record of the low-slack route
    /// (0 = every probe ran plain branch & bound).
    pub partition_probes: u64,
    /// Order of the symmetry subgroup the root branch was reduced by
    /// (1 = no reduction).
    pub sym_factor: u32,
    /// Budgets tried (> 1 only for iterative-deepening `FindOptimal`).
    pub budgets_tried: u32,
    /// Engine dispatches that produced this solution: 1 for a direct
    /// solve; a retrying/degrading scheduler counts every attempt across
    /// every ladder rung (0 for [`Solution::unstarted`]).
    pub attempts: u32,
    /// Wall-clock time spent inside the engine.
    pub wall: Duration,
}

impl Stats {
    /// Adds one budget probe's counters to a sweep's running total.
    pub(crate) fn absorb(&mut self, other: Stats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.dominated += other.dominated;
        self.sym_pruned += other.sym_pruned;
        self.canon_pruned += other.canon_pruned;
        self.memo_hits += other.memo_hits;
        self.shared_hits += other.shared_hits;
        // Deepening probes share one store, so later probes report a
        // superset of earlier probes' entries: the maximum is the
        // store's final population (and 0 + x = x keeps the memo-off
        // and single-probe cases exact).
        self.memo_entries = self.memo_entries.max(other.memo_entries);
        self.sym_factor = self.sym_factor.max(other.sym_factor);
        self.partition_probes += other.partition_probes;
        self.budgets_tried += other.budgets_tried;
    }
}

/// An engine's answer to a [`SolveRequest`].
#[derive(Clone, Debug)]
pub struct Solution {
    ring: Ring,
    covering: Option<Vec<Tile>>,
    optimality: Optimality,
    degraded: Option<Degradation>,
    cached: bool,
    stats: Stats,
}

impl Solution {
    /// The ring the problem was solved on (makes the solution
    /// self-contained for serialization).
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The covering, when one was found.
    pub fn covering(&self) -> Option<&[Tile]> {
        self.covering.as_deref()
    }

    /// The certificate.
    pub fn optimality(&self) -> &Optimality {
        &self.optimality
    }

    /// The degradation record, when a scheduler answered with a weaker
    /// engine than requested (`None` for a direct engine answer).
    pub fn degraded(&self) -> Option<&Degradation> {
        self.degraded.as_ref()
    }

    /// Whether this answer was served from a persisted certificate cache
    /// instead of a kernel run (`false` for every freshly-computed
    /// solution). Cached answers carry all-zero search statistics: no
    /// kernel expanded a single node to produce them.
    pub fn cached(&self) -> bool {
        self.cached
    }

    /// The unified statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Covering size, when one was found.
    pub fn size(&self) -> Option<usize> {
        self.covering.as_ref().map(Vec::len)
    }

    /// A solution for a request that was *never started*: no covering, a
    /// [`Optimality::BudgetExhausted`] verdict with the given reason, and
    /// all-zero stats attributed to `engine` (a scheduler rejecting an
    /// already-expired job reports itself, e.g. `"service"`, so the
    /// document stays honest about no kernel having run).
    pub fn unstarted(ring: Ring, reason: Exhaustion, engine: &'static str) -> Solution {
        Solution {
            ring,
            covering: None,
            optimality: Optimality::BudgetExhausted { reason },
            degraded: None,
            cached: false,
            stats: Stats {
                engine,
                sym_factor: 1,
                ..Stats::default()
            },
        }
    }

    /// A terminally-failed solution: [`Optimality::Failed`] with the
    /// given kind, attributed to `engine` (`"service"` when the failure
    /// was caught or raised at the scheduling layer). `attempts` records
    /// how many engine dispatches were burned before giving up.
    pub fn failed(ring: Ring, kind: FailureKind, engine: &'static str, attempts: u32) -> Solution {
        let mut sol = Solution::unstarted(ring, Exhaustion::EngineLimit, engine);
        sol.optimality = Optimality::Failed { kind };
        sol.stats.attempts = attempts;
        sol
    }

    /// Attaches a degradation record — schedulers call this on the
    /// answer a fallback engine produced, so the weaker provenance rides
    /// with the solution everywhere it is serialized.
    pub fn set_degradation(&mut self, degradation: Degradation) {
        self.degraded = Some(degradation);
    }

    /// Overrides the attempt count — schedulers call this so the final
    /// solution accounts for every dispatch (retries and ladder rungs)
    /// that led to it, not just the one that succeeded.
    pub fn set_attempts(&mut self, attempts: u32) {
        self.stats.attempts = attempts;
    }

    /// Reconstructs a solution from a persisted certificate: the caller
    /// (a certificate cache) supplies the verdict and covering it
    /// re-validated, and the answer is marked [`Solution::cached`] with
    /// all-zero statistics — no kernel ran, so none are claimed. The
    /// `engine` name records which engine originally produced the
    /// certificate, keeping provenance across the round trip.
    pub fn from_certificate(
        ring: Ring,
        covering: Option<Vec<Tile>>,
        optimality: Optimality,
        engine: &'static str,
    ) -> Solution {
        let mut sol = Solution::unstarted(ring, Exhaustion::EngineLimit, engine);
        sol.covering = covering;
        sol.optimality = optimality;
        sol.cached = true;
        sol
    }
}

// ---------------------------------------------------------------------------
// Engine trait + registry
// ---------------------------------------------------------------------------

/// A solver that can sit behind the request/response boundary.
///
/// Engines are `Sync` so one registry entry serves concurrent requests.
pub trait Engine: Sync {
    /// Registry name (stable; used by CLIs and benches for selection).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// Whether this engine can honor the request on this problem.
    /// [`Engine::solve`] on an unsupported pair is allowed to panic.
    fn supports(&self, problem: &Problem, request: &SolveRequest) -> bool;

    /// Solves the problem per the request.
    fn solve(&self, problem: &Problem, request: &SolveRequest) -> Solution;
}

/// All registered engines, exact first.
pub fn engines() -> &'static [&'static dyn Engine] {
    static ENGINES: [&dyn Engine; 6] = [
        &BitsetEngine,
        &PartitionEngine::DLX,
        &PartitionEngine::PARTITION,
        &HeuristicEngine::GREEDY,
        &HeuristicEngine::GREEDY_IMPROVE,
        &HeuristicEngine::ANNEAL,
    ];
    &ENGINES
}

/// Looks an engine up by registry name.
pub fn engine_by_name(name: &str) -> Option<&'static dyn Engine> {
    engines().iter().copied().find(|e| e.name() == name)
}

// ---------------------------------------------------------------------------
// Exact engines (branch & bound)
// ---------------------------------------------------------------------------

/// Drives one exact budgeted-search function through any [`Objective`]:
/// a single probe for `WithinBudget`/`ProveInfeasible`, iterative
/// deepening from the combinatorial bound for `FindOptimal`. `start` is
/// the engine's entry instant: `Stats::wall` and the request's deadline
/// both run from it, so set-up the engine did before the first probe
/// (building its refutation store) is charged and budgeted too. A spec
/// demanding a request more than 65,535 times, beyond every search
/// core's widest lanes, answers [`Exhaustion::EngineLimit`] here,
/// without a probe.
fn drive_exact(
    engine: &'static str,
    start: Instant,
    problem: &Problem,
    request: &SolveRequest,
    run: impl Fn(u32, &RunLimits) -> (Outcome, Stats),
) -> Solution {
    let base_lim = request.run_limits(start);
    let u = problem.universe();
    let tiles = |idx: Vec<u32>| Some(idx.iter().map(|&i| u.tile(i).clone()).collect());
    let mut total = Stats::default();
    // The node budget caps the whole request, not each deepening probe:
    // every probe gets only what the earlier probes left over (the
    // deadline is an absolute instant, so it is cumulative by nature).
    let mut probe = |budget: u32| {
        let lim = RunLimits {
            max_nodes: base_lim.max_nodes.saturating_sub(total.nodes),
            ..base_lim.clone()
        };
        let (o, s) = run(budget, &lim);
        total.absorb(s);
        (o, s)
    };

    let beyond_cores = problem.spec().max_demand() > bnb::MAX_DEMAND;
    let (covering, optimality) = match request.objective() {
        _ if beyond_cores => (
            None,
            Optimality::BudgetExhausted {
                reason: Exhaustion::EngineLimit,
            },
        ),
        Objective::WithinBudget(k) | Objective::ProveInfeasible(k) => match probe(k).0 {
            Outcome::Feasible(idx) => (tiles(idx), Optimality::Feasible),
            Outcome::Infeasible => (None, Optimality::Infeasible),
            Outcome::Exhausted(reason) => (None, Optimality::BudgetExhausted { reason }),
        },
        Objective::FindOptimal => {
            // A sweep past the largest budget a `u32` counts has no
            // further moves: it answers instead of truncating or wrapping.
            let beyond_budgets = Optimality::BudgetExhausted {
                reason: Exhaustion::EngineLimit,
            };
            match bnb::deepening_start(u, problem.spec()) {
                None => (None, beyond_budgets),
                Some(mut budget) => {
                    let mut proof = LowerBoundProof::CombinatorialBound { bound: budget };
                    loop {
                        match probe(budget) {
                            (Outcome::Feasible(idx), _) => {
                                let lower_bound_proof = proof;
                                break (tiles(idx), Optimality::Optimal { lower_bound_proof });
                            }
                            (Outcome::Infeasible, s) => {
                                proof = LowerBoundProof::ExhaustiveSearch {
                                    infeasible_budget: budget,
                                    nodes: s.nodes,
                                    symmetry_factor: s.sym_factor.max(1),
                                };
                                match budget.checked_add(1) {
                                    Some(next) => budget = next,
                                    None => break (None, beyond_budgets),
                                }
                            }
                            (Outcome::Exhausted(reason), _) => {
                                break (None, Optimality::BudgetExhausted { reason });
                            }
                        }
                    }
                }
            }
        }
    };

    Solution {
        ring: problem.ring(),
        covering,
        optimality,
        degraded: None,
        cached: false,
        stats: Stats {
            engine,
            sym_factor: total.sym_factor.max(1),
            attempts: 1,
            wall: start.elapsed(),
            ..total
        },
    }
}

/// The default exact engine (`"bitset"`): every budget probe runs on the
/// core the route rule picks — the bitset core for unit demands, the
/// partition kernel when a probe's waste slack `budget·n − λ·Σd(e)` is
/// in `[0, n)` (recorded in the certificate's `partition_probes` stat),
/// the lane core otherwise.
pub struct BitsetEngine;

impl Engine for BitsetEngine {
    fn name(&self) -> &'static str {
        "bitset"
    }

    fn description(&self) -> &'static str {
        "word-packed branch & bound (dominance pruning)"
    }

    fn supports(&self, _problem: &Problem, _request: &SolveRequest) -> bool {
        true
    }

    fn solve(&self, problem: &Problem, request: &SolveRequest) -> Solution {
        let start = Instant::now();
        // One store for the whole request: every deepening probe shares it.
        let store = request.build_store(problem.universe());
        drive_exact("bitset", start, problem, request, |budget, lim| {
            bnb::budget_search(
                problem.universe(),
                problem.spec(),
                budget,
                lim,
                request.symmetry(),
                store.as_deref(),
            )
        })
    }
}

/// The slack-budgeted partition planner as directly selectable engines
/// (`"partition"`, `"dlx"`): every probe runs on the partition kernel
/// ([`crate::dlx`]) — MRV column selection over the priority chords,
/// exact-waste candidate filtering against the budget's slack
/// `budget·n − λ·Σd(e)`, full-load collapse at zero slack — through the
/// same deepening driver as the branch-and-bound engines, so verdicts
/// carry identical certificates and the memo, symmetry, deadline, and
/// cancellation machinery all apply.
pub struct PartitionEngine {
    name: &'static str,
    description: &'static str,
    /// Whether only zero-slack specs (`λ·Σd(e) ≡ 0 mod n`) are supported.
    zero_slack: bool,
}

impl PartitionEngine {
    /// Any spec with demands in `1..=65,535`, at any budget. Most
    /// effective on capacity-tight instances (where the route rule picks
    /// this kernel automatically once slack < n); selectable explicitly
    /// to push *any* probe through the partition route, e.g. the n = 16
    /// frontier probes.
    pub const PARTITION: PartitionEngine = PartitionEngine {
        name: "partition",
        description: "slack-budgeted exact-cover kernel (MRV chords, waste budget = budget*n - lambda*total-dist)",
        zero_slack: false,
    };
    /// Zero-slack exact partition, the capacity-tightness specialist.
    /// When `λ·Σd(e) ≡ 0 (mod n)` the capacity budget `λ·Σd(e)/n` leaves
    /// **zero waste**: any covering at that budget is an exact partition
    /// of the demand into full-load tiles, which is precisely where the
    /// kernel collapses to Algorithm X (MRV over chords, only full-load
    /// rows survive the waste filter). Scope: odd complete rings
    /// (Theorem 1's partitions), *and* even rings and λ-fold specs whose
    /// demanded distance divides evenly (e.g. `n = 8` complete, where the
    /// parity bound refutes budget 8 in one node and budget 9 carries
    /// slack n; `ρ₂(6) = 9`; `ρ₂(8) = 16`). A complete exact engine on
    /// that domain: refutations are genuine exhaustive proofs.
    pub const DLX: PartitionEngine = PartitionEngine {
        name: "dlx",
        description:
            "exact partition at zero slack (lambda*total-dist divisible by n, demands <= 65535)",
        zero_slack: true,
    };
}

impl Engine for PartitionEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn supports(&self, problem: &Problem, _request: &SolveRequest) -> bool {
        let spec = problem.spec();
        (1..=bnb::MAX_DEMAND).contains(&spec.max_demand())
            && (!self.zero_slack
                || bnb::demanded_distance(problem.universe(), spec)
                    .is_multiple_of(problem.ring().n() as u64))
    }

    fn solve(&self, problem: &Problem, request: &SolveRequest) -> Solution {
        let start = Instant::now();
        let store = request.build_store(problem.universe());
        drive_exact(self.name, start, problem, request, |budget, lim| {
            bnb::search_route(
                bnb::Route::Partition,
                problem.universe(),
                problem.spec(),
                budget,
                lim,
                request.symmetry(),
                store.as_deref(),
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Heuristic engine
// ---------------------------------------------------------------------------

/// The composed heuristic pipeline (`"greedy"`, `"greedy-improve"`,
/// `"anneal"`): greedy max-coverage seeding, optionally annealed, then
/// polished by the drop/merge local search. Complete unit specs only —
/// heuristics produce feasible coverings (upper bounds), never proofs.
pub struct HeuristicEngine {
    name: &'static str,
    description: &'static str,
    anneal: bool,
    improve: bool,
}

impl HeuristicEngine {
    /// Plain greedy max-coverage.
    pub const GREEDY: HeuristicEngine = HeuristicEngine {
        name: "greedy",
        description: "max-coverage greedy (lazy-bucket heap)",
        anneal: false,
        improve: false,
    };
    /// Greedy + drop/merge local search.
    pub const GREEDY_IMPROVE: HeuristicEngine = HeuristicEngine {
        name: "greedy-improve",
        description: "greedy seeding polished by drop/merge local search",
        anneal: false,
        improve: true,
    };
    /// Greedy + simulated annealing + local search.
    pub const ANNEAL: HeuristicEngine = HeuristicEngine {
        name: "anneal",
        description: "greedy seeding, simulated annealing, drop/merge polish",
        anneal: true,
        improve: true,
    };
}

impl Engine for HeuristicEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn supports(&self, problem: &Problem, request: &SolveRequest) -> bool {
        problem.is_complete_unit() && !matches!(request.objective(), Objective::ProveInfeasible(_))
    }

    fn solve(&self, problem: &Problem, request: &SolveRequest) -> Solution {
        let start = Instant::now();
        let u = problem.universe();
        let mut tiles = greedy_cover(u);
        if self.anneal {
            tiles = anneal_covering(u, tiles, AnnealParams::default());
        }
        if self.improve {
            tiles = improve_covering(u, tiles);
        }
        let optimality = match request.objective() {
            Objective::WithinBudget(k) if tiles.len() as u64 > k as u64 => {
                Optimality::BudgetExhausted {
                    reason: Exhaustion::EngineLimit,
                }
            }
            _ => Optimality::Feasible,
        };
        let covering = (!matches!(optimality, Optimality::BudgetExhausted { .. })).then_some(tiles);
        Solution {
            ring: problem.ring(),
            covering,
            optimality,
            degraded: None,
            cached: false,
            stats: Stats {
                engine: self.name,
                sym_factor: 1,
                budgets_tried: 1,
                attempts: 1,
                wall: start.elapsed(),
                ..Stats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::rho_formula;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate engine names");
        for e in engines() {
            assert!(engine_by_name(e.name()).is_some(), "{}", e.name());
            assert!(!e.description().is_empty());
        }
        assert!(engine_by_name("no-such-engine").is_none());
    }

    #[test]
    fn find_optimal_certifies_k4() {
        let problem = Problem::complete(4);
        let sol = engine_by_name("bitset")
            .unwrap()
            .solve(&problem, &SolveRequest::find_optimal());
        assert_eq!(sol.size(), Some(3));
        let Optimality::Optimal { lower_bound_proof } = sol.optimality() else {
            panic!(
                "expected an optimality certificate, got {:?}",
                sol.optimality()
            );
        };
        // The capacity bound says only 2 — rho(4) = 3 needs the exhaustive
        // budget-2 refutation (the paper's worked example).
        assert!(
            matches!(
                lower_bound_proof,
                LowerBoundProof::ExhaustiveSearch {
                    infeasible_budget: 2,
                    ..
                }
            ),
            "{lower_bound_proof:?}"
        );
        assert_eq!(sol.stats().budgets_tried, 2);
    }

    #[test]
    fn find_optimal_search_proof_on_n8() {
        // rho(8) = 9 = capacity + 1: the deepening must record the
        // exhaustive budget-8 infeasibility proof.
        let problem = Problem::complete(8);
        let sol = engine_by_name("bitset")
            .unwrap()
            .solve(&problem, &SolveRequest::find_optimal());
        assert_eq!(sol.size(), Some(9));
        match sol.optimality() {
            Optimality::Optimal {
                lower_bound_proof:
                    LowerBoundProof::ExhaustiveSearch {
                        infeasible_budget,
                        nodes,
                        symmetry_factor,
                    },
            } => {
                assert_eq!(*infeasible_budget, 8);
                // Under the default SymmetryMode::Root the parity (T-join)
                // bound refutes the capacity-tight budget at the root: a
                // one-node proof, unreduced (factor 1).
                assert_eq!(*nodes, 1);
                assert_eq!(*symmetry_factor, 1);
            }
            other => panic!("expected a search proof, got {other:?}"),
        }
        assert_eq!(sol.stats().budgets_tried, 2);
        // The budget-9 witness search did get its root reduced by the
        // diameter-chord stabilizer of D_8 (order 4).
        assert_eq!(sol.stats().sym_factor, 4);
        assert!(sol.stats().sym_pruned > 0);
    }

    /// `SymmetryMode::Off` with the memo disabled must reproduce the
    /// historical search exactly — here pinned by the n = 8 refutation's
    /// node count from BENCH_1. With the memo on (the default), the same
    /// refutation must still hold, in strictly fewer nodes.
    #[test]
    fn symmetry_off_reproduces_baseline_node_counts() {
        let problem = Problem::complete(8);
        let sol = engine_by_name("bitset").unwrap().solve(
            &problem,
            &SolveRequest::prove_infeasible(8)
                .with_symmetry(SymmetryMode::Off)
                .with_memo(false),
        );
        assert_eq!(*sol.optimality(), Optimality::Infeasible);
        assert_eq!(sol.stats().nodes, 97_465, "BENCH_1 baseline drifted");
        assert_eq!(sol.stats().sym_factor, 1);
        assert_eq!(sol.stats().sym_pruned, 0);
        assert_eq!(sol.stats().memo_hits, 0);
        assert_eq!(sol.stats().memo_entries, 0);
        let memoed = engine_by_name("bitset").unwrap().solve(
            &problem,
            &SolveRequest::prove_infeasible(8).with_symmetry(SymmetryMode::Off),
        );
        assert_eq!(*memoed.optimality(), Optimality::Infeasible);
        assert!(
            memoed.stats().nodes < 97_465,
            "memo did not bite: {:?}",
            memoed.stats()
        );
        assert!(memoed.stats().memo_hits > 0);
        assert!(memoed.stats().memo_entries > 0);
    }

    /// All symmetry modes certify the same optimum through the engines.
    #[test]
    fn symmetry_modes_agree_through_engine() {
        for n in [6u32, 8] {
            let problem = Problem::complete(n);
            let mut sizes = Vec::new();
            for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
                let sol = engine_by_name("bitset")
                    .unwrap()
                    .solve(&problem, &SolveRequest::find_optimal().with_symmetry(sym));
                assert!(
                    matches!(sol.optimality(), Optimality::Optimal { .. }),
                    "n={n} {sym:?}"
                );
                sizes.push(sol.size().unwrap());
            }
            assert!(sizes.windows(2).all(|w| w[0] == w[1]), "n={n}: {sizes:?}");
        }
    }

    #[test]
    fn prove_infeasible_and_disprove() {
        let problem = Problem::complete(6);
        let rho = rho_formula(6) as u32;
        let engine = engine_by_name("bitset").unwrap();
        let below = engine.solve(&problem, &SolveRequest::prove_infeasible(rho - 1));
        assert_eq!(*below.optimality(), Optimality::Infeasible);
        assert!(below.covering().is_none());
        // A disproof: the budget is actually feasible.
        let at = engine.solve(&problem, &SolveRequest::prove_infeasible(rho));
        assert_eq!(*at.optimality(), Optimality::Feasible);
        assert_eq!(at.size(), Some(rho as usize));
    }

    #[test]
    fn find_optimal_node_budget_is_cumulative_across_deepening() {
        // n = 8: the budget-8 refutation costs exactly 97,465 nodes and
        // the budget-9 witness 9 more. A request cap of 97,470 leaves the
        // second probe only 5 nodes — the request must exhaust instead of
        // granting every deepening rung a fresh allowance.
        // Symmetry and memo off: the historical counts are the fixture.
        let problem = Problem::complete(8);
        let sol = engine_by_name("bitset").unwrap().solve(
            &problem,
            &SolveRequest::find_optimal()
                .with_symmetry(SymmetryMode::Off)
                .with_memo(false)
                .with_max_nodes(97_470),
        );
        assert_eq!(
            *sol.optimality(),
            Optimality::BudgetExhausted {
                reason: Exhaustion::NodeBudget
            }
        );
        assert!(
            sol.stats().nodes <= 97_480,
            "overspent the request cap: {:?}",
            sol.stats()
        );
        // A few nodes of headroom for the witness and the same request
        // completes, spending under the cap in total.
        let sol = engine_by_name("bitset").unwrap().solve(
            &problem,
            &SolveRequest::find_optimal()
                .with_symmetry(SymmetryMode::Off)
                .with_memo(false)
                .with_max_nodes(97_500),
        );
        assert_eq!(sol.size(), Some(9));
        assert!(sol.stats().nodes <= 97_500, "{:?}", sol.stats());
    }

    #[test]
    fn node_budget_reports_exhaustion() {
        // Symmetry off: the parity bound would otherwise settle this
        // refutation in one node, under any cap.
        let problem = Problem::complete(8);
        let sol = engine_by_name("bitset").unwrap().solve(
            &problem,
            &SolveRequest::within_budget(8)
                .with_symmetry(SymmetryMode::Off)
                .with_max_nodes(10),
        );
        assert_eq!(
            *sol.optimality(),
            Optimality::BudgetExhausted {
                reason: Exhaustion::NodeBudget
            }
        );
    }

    #[test]
    fn unstarted_solution_reports_zero_work() {
        let sol = Solution::unstarted(Ring::new(6), Exhaustion::Deadline, "service");
        assert!(sol.covering().is_none());
        assert_eq!(
            *sol.optimality(),
            Optimality::BudgetExhausted {
                reason: Exhaustion::Deadline
            }
        );
        assert_eq!(sol.stats().nodes, 0);
        assert_eq!(sol.stats().engine, "service");
    }

    #[test]
    fn shared_universe_problems_reuse_one_enumeration() {
        let universe = Arc::new(TileUniverse::new(Ring::new(6), 6));
        let complete = Problem::shared(universe.clone(), CoverSpec::complete(6));
        let pair = Problem::shared(
            universe.clone(),
            CoverSpec::subset(6, &[cyclecover_graph::Edge::new(0, 2)]),
        );
        assert!(Arc::ptr_eq(complete.universe_arc(), pair.universe_arc()));
        let engine = engine_by_name("bitset").unwrap();
        assert_eq!(
            engine
                .solve(&complete, &SolveRequest::find_optimal())
                .size(),
            Some(5)
        );
        assert_eq!(
            engine.solve(&pair, &SolveRequest::find_optimal()).size(),
            Some(1)
        );
    }

    /// Solves one instance per route with the stop `limit` applies and
    /// checks that the search answers `BudgetExhausted { reason }` within
    /// 8,192 nodes: the unit core, the lane core and the partition kernel
    /// on 2-bit and on 4-bit lanes, and the partition kernel on 16-bit
    /// lanes. Every instance needs far more nodes than that to finish.
    fn assert_stops_on_every_route(
        limit: impl Fn(SolveRequest) -> SolveRequest,
        reason: Exhaustion,
    ) {
        let unit = Problem::complete(8);
        // Budget 26 on the double cover of K_10 and budget 19 on the
        // 4-fold cover of K_6 leave waste slack n, so those probes stay on
        // the lane core.
        let lanes = Problem::lambda_fold(10, 2);
        let partition = Problem::lambda_fold(8, 2);
        let wide_lanes = Problem::lambda_fold(6, 4);
        let wide_partition = Problem::lambda_fold(6, 5);
        let sixteen_bit = Problem::lambda_fold(6, 16);
        let unit_off = SolveRequest::within_budget(8).with_symmetry(SymmetryMode::Off);
        let cases = [
            ("bitset", &unit, unit_off, 0),
            ("bitset", &lanes, SolveRequest::within_budget(26), 0),
            ("partition", &partition, SolveRequest::find_optimal(), 1),
            ("bitset", &wide_lanes, SolveRequest::within_budget(19), 0),
            ("bitset", &wide_partition, SolveRequest::find_optimal(), 1),
            ("bitset", &sixteen_bit, SolveRequest::find_optimal(), 1),
        ];
        for (engine, problem, request, partition_probes) in cases {
            let sol = engine_by_name(engine)
                .unwrap()
                .solve(problem, &limit(request));
            let ctx = format!("{engine}, n = {}: {:?}", problem.ring().n(), sol.stats());
            assert_eq!(
                *sol.optimality(),
                Optimality::BudgetExhausted { reason },
                "{ctx}"
            );
            assert!(sol.stats().nodes <= 8192, "stopped late: {ctx}");
            assert_eq!(sol.stats().partition_probes, partition_probes, "{ctx}");
        }
    }

    /// A pre-cancelled token stops the search on every route. (The name
    /// dates from when a parallel engine also ran this check.)
    #[test]
    fn cancel_token_stops_sequential_and_parallel() {
        let token = CancelToken::new();
        token.cancel();
        assert_stops_on_every_route(
            |request| request.with_cancel_token(token.clone()),
            Exhaustion::Cancelled,
        );
    }

    /// A service shutting down cancels its token with
    /// `CancelReason::Shutdown`; a job's clone of it stops the search on
    /// every route with that reason, not a plain `Cancelled`.
    #[test]
    fn shutdown_reason_stops_every_route() {
        let service = CancelToken::new();
        let job = service.clone();
        service.cancel_with(CancelReason::Shutdown);
        assert_stops_on_every_route(
            |request| request.with_cancel_token(job.clone()),
            Exhaustion::Shutdown,
        );
    }

    /// An already-expired deadline stops the search on every route. (The
    /// name dates from the frontier-parallel engine's workers, which once
    /// honored only node budgets.)
    #[test]
    fn deadline_stops_parallel_workers() {
        assert_stops_on_every_route(
            |request| request.with_deadline(Duration::ZERO),
            Exhaustion::Deadline,
        );
    }

    /// An optimum sweep never truncates or wraps its budget: a bound
    /// past `u32::MAX` answers `engine_limit` without a probe, and so
    /// does a demand no search core takes — here two diameters of K_6
    /// demanded `u32::MAX` times each, whose capacity bound is exactly
    /// `u32::MAX`.
    #[test]
    fn the_budget_sweep_stops_at_the_largest_u32_budget() {
        let engine = engine_by_name("bitset").unwrap();
        let beyond = engine.solve(
            &Problem::lambda_fold(5, 4_000_000_000),
            &SolveRequest::find_optimal().with_max_nodes(1_000),
        );
        let limit = Optimality::BudgetExhausted {
            reason: Exhaustion::EngineLimit,
        };
        assert_eq!(*beyond.optimality(), limit);
        assert_eq!((beyond.stats().nodes, beyond.stats().budgets_tried), (0, 0));
        let diameters = [
            cyclecover_graph::Edge::new(0, 3),
            cyclecover_graph::Edge::new(1, 4),
        ];
        let mut spec = CoverSpec::subset(6, &diameters);
        spec.demand.iter_mut().for_each(|d| *d *= u32::MAX);
        let last = engine.solve(
            &Problem::new(TileUniverse::new(Ring::new(6), 6), spec),
            &SolveRequest::find_optimal().with_max_nodes(1_000),
        );
        assert_eq!(*last.optimality(), limit);
        assert_eq!((last.stats().nodes, last.stats().budgets_tried), (0, 0));
    }

    /// One pair of K_6 demanded 65,535 times, the most a 16-bit lane
    /// holds, is refuted at budget 10 in one node on the lanes; demanded
    /// 65,536 times it is beyond every core and answers `engine_limit`
    /// without a node.
    #[test]
    fn demands_past_sixteen_bit_lanes_answer_engine_limit() {
        let engine = engine_by_name("bitset").unwrap();
        let pair = |lambda: u32| {
            let mut spec = CoverSpec::subset(6, &[cyclecover_graph::Edge::new(0, 1)]);
            spec.demand.iter_mut().for_each(|d| *d *= lambda);
            Problem::new(TileUniverse::new(Ring::new(6), 6), spec)
        };
        let widest = engine.solve(&pair(65_535), &SolveRequest::within_budget(10));
        assert_eq!(*widest.optimality(), Optimality::Infeasible);
        assert_eq!(widest.stats().nodes, 1);
        let beyond = engine.solve(&pair(65_536), &SolveRequest::within_budget(10));
        assert_eq!(
            *beyond.optimality(),
            Optimality::BudgetExhausted {
                reason: Exhaustion::EngineLimit
            }
        );
        assert_eq!(beyond.stats().nodes, 0);
    }

    /// The search cores stop at 4,096 placed tiles: the n = 5 λ = 1,365
    /// cover certifies at depth 4,095, and λ = 1,366 and λ = 20,000
    /// answer `engine_limit`. The cap dates from the recursive kernel
    /// that served λ > 15 and needed a stack frame per tile; the check
    /// still runs on a thread with a 2 MiB stack, as a daemon
    /// dispatcher's.
    #[test]
    fn the_recursive_kernel_stops_at_its_depth_cap() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let engine = engine_by_name("bitset").unwrap();
                let deepest = engine.solve(
                    &Problem::lambda_fold(5, 1_365),
                    &SolveRequest::find_optimal(),
                );
                assert_eq!(deepest.size(), Some(4_095));
                assert!(matches!(deepest.optimality(), Optimality::Optimal { .. }));
                for lambda in [1_366, 20_000] {
                    let capped = engine.solve(
                        &Problem::lambda_fold(5, lambda),
                        &SolveRequest::find_optimal(),
                    );
                    assert_eq!(
                        *capped.optimality(),
                        Optimality::BudgetExhausted {
                            reason: Exhaustion::EngineLimit
                        },
                        "λ = {lambda}"
                    );
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn dlx_partitions_odd_rings() {
        for n in [3u32, 5, 7, 9] {
            let problem = Problem::complete(n);
            let sol = engine_by_name("dlx")
                .unwrap()
                .solve(&problem, &SolveRequest::find_optimal());
            assert_eq!(sol.size(), Some(rho_formula(n) as usize), "n={n}");
            assert!(matches!(sol.optimality(), Optimality::Optimal { .. }));
        }
    }

    #[test]
    fn heuristics_report_feasible_not_optimal() {
        let problem = Problem::complete(9);
        for name in ["greedy", "greedy-improve", "anneal"] {
            let sol = engine_by_name(name)
                .unwrap()
                .solve(&problem, &SolveRequest::find_optimal());
            assert_eq!(*sol.optimality(), Optimality::Feasible, "{name}");
            assert!(sol.size().unwrap() as u64 >= rho_formula(9), "{name}");
        }
    }
}
