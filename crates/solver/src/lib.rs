//! # cyclecover-solver
//!
//! Exact and heuristic solvers for minimum DRC cycle coverings, behind a
//! single typed request/response boundary.
//!
//! ## The solver surface: [`api`]
//!
//! Every workload — certifying the paper's `ρ(n)` formulas, λ-fold and
//! partial instances, heuristic baselines — is one question: *cover this
//! demand spec on `C_n` within this budget, and certify the answer*. The
//! [`api`] module types that question end to end:
//!
//! * [`api::Problem`] — ring + [`bnb::CoverSpec`] + precomputed
//!   [`TileUniverse`];
//! * [`api::SolveRequest`] — objective (`FindOptimal` /
//!   `WithinBudget(k)` / `ProveInfeasible(k)`), resource limits (node
//!   budget, wall-clock deadline, shareable [`api::CancelToken`]), and a
//!   symmetry reduction level;
//! * [`api::Solution`] — the covering plus an [`api::Optimality`]
//!   certificate stating exactly what was proved, with unified stats;
//! * [`api::Engine`] — the trait every solver implements, with a
//!   name-keyed registry ([`api::engines`] / [`api::engine_by_name`]):
//!   `bitset`, `dlx`, `partition`, `greedy`, `greedy-improve`,
//!   `anneal`.
//!
//! ```
//! use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest};
//!
//! // Certify the paper's worked example: rho(4) = 3.
//! let problem = Problem::complete(4);
//! let engine = engine_by_name("bitset").unwrap();
//!
//! let optimal = engine.solve(&problem, &SolveRequest::find_optimal());
//! assert_eq!(optimal.size(), Some(3));
//! assert!(matches!(optimal.optimality(), Optimality::Optimal { .. }));
//!
//! let refuted = engine.solve(&problem, &SolveRequest::prove_infeasible(2));
//! assert!(matches!(refuted.optimality(), Optimality::Infeasible));
//! ```
//!
//! ## Substrate modules
//!
//! The engines are thin drivers over these primitives (all public — the
//! API layer composes, it does not hide):
//!
//! * [`TileUniverse`] — enumeration of all DRC-routable cycles (winding
//!   tiles) of a ring, with per-chord candidate indices and precomputed
//!   per-tile metadata (chord index lists, chord bitmasks, load, wasted
//!   capacity, diameter counts) in a branch-priority chord order, plus
//!   lazily-built dihedral action tables ([`DihedralTables`]: `D_n`
//!   permutations of chords and tiles, stabilizer bitmasks, orbit
//!   representatives) backing the [`bnb::SymmetryMode`] search reduction;
//! * [`bitset`] — [`bitset::ChordSet`], the word-packed chord sets the
//!   exact search's support sets and tile masks are, and
//!   [`bitset::LaneSet`], the packed residual lanes it searches over;
//! * [`lower_bound`] — the capacity lower bound
//!   `ρ(n) ≥ ⌈Σ dist(u,v) / n⌉` (and its arbitrary-demand form
//!   [`lower_bound::weighted_demand_bound`]), the diameter bound, and
//!   the search-state prefix bounds: the parity/T-join bound
//!   ([`lower_bound::parity_join_bound_from_odd`] — Theorem 2's `+1`
//!   derived at the root of capacity-tight even probes) and the
//!   diameter-slack greedy dual ([`lower_bound::diameter_slack_bound`]);
//! * [`bnb`] — the branch & bound searches and their one route rule:
//!   every demand up to 65,535 runs the iterative allocation-free
//!   packed-lane core (1-bit lanes for unit demands, 2-bit lanes up to 3,
//!   4-bit lanes up to 15, 16-bit lanes beyond; explicit search stack
//!   over reused arenas, incremental bound ingredients, and the
//!   residual-state dominance memo — Zobrist-keyed, byte-budgeted
//!   ([`bnb::DEFAULT_MEMO_BYTES`] unless a request sets its own), with
//!   canonical dihedral state keying of unit states under
//!   `SymmetryMode::Full`), each probe one sequential search with no
//!   recursion;
//! * [`dlx`] — the slack-budgeted exact-cover kernel behind the
//!   `partition` and `dlx` engines (MRV chord selection, exact-waste
//!   candidate filtering against the budget's slack
//!   `budget·n − λ·Σd(e)`, full-load collapse at zero slack), which the
//!   route rule picks for low-slack λ-fold probes; plus the generic
//!   Dancing-Links substrate (Knuth's Algorithm X) it grew out of;
//! * [`greedy`], [`improve`], [`anneal`] — the heuristic pipeline:
//!   lazy-bucket max-coverage greedy, drop/merge local search, simulated
//!   annealing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod api;
pub mod bitset;
pub mod bnb;
pub mod dlx;
pub mod greedy;
pub mod improve;
pub mod lower_bound;
mod memo;
mod search_core;
mod tiles;

pub use tiles::{DihedralTables, TileUniverse};
