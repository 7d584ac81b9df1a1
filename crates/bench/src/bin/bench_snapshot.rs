//! Fixed solver workload for tracking the perf trajectory across PRs.
//!
//! Certifies `ρ(n)` — prove `ρ(n) − 1` infeasible, find a `ρ(n)` covering
//! over the full tile universe — through the [`cyclecover_solver::api`]
//! engine registry, across the symmetry dimension (`Off`/`Root`/`Full`)
//! **and the residual-state memo dimension** (off/on), on engine
//! `bitset`. Writes `BENCH_10.json`
//! with node counts and memo hit counts per (n, λ, engine, symmetry,
//! memo) so both reduction levers — and the λ-fold lane kernel — are
//! tracked in-trajectory:
//!
//! * the `Off` + memo-off rows must reproduce BENCH_1.json *exactly*
//!   (±0 nodes) — the iterative core and the memo machinery are
//!   zero-cost when disabled;
//! * the `Root` + memo-on rows are the engine-default configuration; the
//!   ρ(10) witness row carries the shared-store PR's acceptance ceiling
//!   (≤ 235,000 nodes vs the 252,472 per-probe-private total of BENCH_5
//!   and the 770,227 memo-free of BENCH_3);
//! * the `shared` rows re-run a certification pair warm against one
//!   request-wide [`MemoStore`]: `--check` gates a `shared_hits` floor
//!   and that sharing never expands more nodes than the private row;
//! * the `n = 12` row certifies the budget-18 refutation: a one-node
//!   parity-bound proof under `Root`/`Full`, node-capped at 30M under
//!   `Off` + memo-off where it exhausts (the pre-symmetry state);
//! * the **λ-fold rows** certify ρ_λ(n) for the small double/triple
//!   covers on the packed lane kernel (`bitset`): every one sits at the
//!   scaled capacity bound, so the ρ_λ − 1 refutations are one-node root
//!   prunes and the recorded cost is the witness search. `--check`
//!   holds the packed counts under ceilings, and *strictly* under the
//!   witness counts of the retired recursive multiplicity search
//!   (`legacy`), which are frozen as data in [`LAMBDA_CHECKS`] (and in
//!   BENCH_9.json and BENCH_10.json);
//! * the **n = 16 probe rows** track the formerly-open n ≡ 0 (mod 8)
//!   construction gap, **closed by PR 10: ρ(16) = 33**. Budget-33
//!   witness searches on the C ≤ 4 shortest-gap universe, once on the
//!   branch-and-bound route and once through the slack-budgeted
//!   partition kernel. The b&b probe still exhausts its deterministic
//!   cap (`certified = false` is its expected verdict — the gap stood
//!   because this route needs > 2×10⁹ nodes), but the partition row
//!   **certifies the 33-cycle covering in exactly
//!   [`N16_PARTITION_WITNESS_NODES`] nodes**, and `--check` pins that
//!   count ±0: the row is the permanent CI witness of the discovery
//!   (see ROADMAP.md for the covering itself);
//! * the **partition-kernel rows** (PR 10) measure the slack-budgeted
//!   exact-cover route: λ-fold witness probes at the capacity budget
//!   have waste slack < n, so the sequential `bitset` dispatch already
//!   serves them from the partition kernel (the λ-fold ceilings above
//!   are partition-kernel counts); the ρ₂(8) = 16 pair on the C ≤ 4
//!   universe records the headline matchup — the partition route vs
//!   the lane core *forced* (`budget_search_packed`, the pre-PR-10
//!   3.7M-node figure) — and `--check` gates the partition witness
//!   strictly under the forced-lanes counterpart; the λ₂ n = 16 row
//!   probes the zero-slack budget-64 double cover (capacity `2·512/16`,
//!   no parity excess) under a deterministic cap, gated inconclusive —
//!   the certification is real but deep (ρ₂(16) = 64 in 256,461,523
//!   partition nodes, ~9 min; ROADMAP.md) so CI keeps the capped
//!   deterministic prefix instead.
//!
//! Usage: `cargo run --release -p cyclecover-bench --bin bench_snapshot`
//!
//! * `--max-n <k>`: stop the n ≤ 10 sweep earlier (the `off` ρ(10)
//!   witness dominates at 10)
//! * `--skip-n12`: drop the n = 12 certification rows
//! * `--quick`: regression subset only — n ∈ {8, 10}, engine `bitset`,
//!   `Off`/`Root` × memo off/on, plus the λ-fold rows and the n = 16
//!   probe (no n = 12)
//!
//! Only the full matrix (no `--quick`, `--skip-n12`, or `--max-n` below
//! 10) writes `BENCH_10.json`; a subset run prints its rows and leaves
//! the committed snapshot alone.
//! * `--check`: after running, fail unless the `Off` + memo-off rows
//!   match BENCH_1 exactly, the `Root` rows (memo off *and* on) stay
//!   within the recorded ceilings, the λ-fold rows stay under their
//!   packed ceilings and strictly under the frozen legacy counts, and
//!   the n = 16 rows hold their verdicts (b&b and λ₂ probes stay
//!   inconclusive, the partition row keeps certifying ρ(16) = 33 at
//!   its exact node count) — the CI node-count regression gate
//!   (`--quick --check`)

use cyclecover_ring::Ring;
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::{
    budget_search_packed, CoverSpec, MemoStore, Outcome, DEFAULT_MEMO_BYTES,
};
use cyclecover_solver::lower_bound::rho_formula;
use cyclecover_solver::TileUniverse;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Node cap for the n = 12 budget-18 refutation probe: the pre-symmetry
/// search exceeds this on one core (the old ROADMAP open item); the
/// reduced modes must finish far under it.
const N12_PROOF_CAP: u64 = 30_000_000;

/// `(n, symmetry, memo, exact, proof nodes, witness nodes)` baselines for
/// `--check`, engine `bitset`. `exact` rows are BENCH_1 reproductions
/// (±0); the rest are ceilings — exceeding either fails the gate. The
/// `(10, Root, memo-on)` witness ceiling of 400,000 nodes is the
/// ISSUE 5 acceptance criterion (BENCH_3 recorded 770,227 memo-free).
const CHECK_BASELINES: [(u32, SymmetryMode, bool, bool, u64, u64); 6] = [
    (8, SymmetryMode::Off, false, true, 97_465, 9),
    (8, SymmetryMode::Off, true, false, 97_465, 9),
    (8, SymmetryMode::Root, true, false, 1, 9),
    (10, SymmetryMode::Off, false, true, 1, 13_453_767),
    (10, SymmetryMode::Root, false, false, 1, 770_227),
    (10, SymmetryMode::Root, true, false, 1, 235_000),
];

/// `(n, symmetry, shared_hits floor, node ceiling)` gates for the
/// shared-store rows: the warm certification must actually answer from
/// the cold pass's refutations (floor — small, because a root-level
/// refutation hit ends the proof in one node), stay under a tiny
/// absolute node budget (ceiling — warm repeats are nearly free), and —
/// checked dynamically — expand no more nodes than the private memo-on
/// row of the same shape.
const SHARED_CHECKS: [(u32, SymmetryMode, u64, u64); 2] = [
    (8, SymmetryMode::Off, 1, 100),
    (10, SymmetryMode::Root, 1, 100),
];

/// `(n, λ, ρ_λ(n), legacy witness nodes, packed memo-on witness ceiling,
/// packed memo-off witness ceiling)` gates for the λ-fold rows. Every
/// optimum sits at the scaled capacity bound `⌈λ·Σd(e)/n⌉`, so the
/// ρ_λ − 1 refutations root-prune in exactly one node (gated ±0) and the
/// witness search carries the cost: the legacy column holds the witness
/// node counts of the retired recursive multiplicity search (`legacy`,
/// measured ±0 on every run until it was deleted), the fast rows run
/// under `Full` dihedral symmetry with recorded ceilings, and `--check`
/// additionally requires fast < legacy *strictly* on every row — the
/// λ-fold fast path must never regress behind the reference it retired.
/// The witness probes sit at waste slack < n, so the `bitset` dispatch
/// serves them from the slack-budgeted partition kernel — the ceilings
/// are re-measured partition-route counts (memo-on/off: 32/45, 12/12,
/// 1095/11784), far under the old lane-core figures.
const LAMBDA_CHECKS: [(u32, u32, u32, u64, u64, u64); 3] = [
    (6, 2, 9, 287, 50, 60),
    (7, 2, 12, 51, 20, 20),
    (6, 3, 14, 448_611, 1_500, 15_000),
];

/// Node cap for the n = 16 frontier probes (deterministic: the
/// sequential kernels expand a fixed prefix of the search tree).
const N16_PROBE_CAP: u64 = 2_000_000;

/// Exact witness node count for the `partition` budget-33 row — the
/// 33-cycle covering of K_16 that closed the n ≡ 0 (mod 8) construction
/// gap (ρ(16) = 33; the witness is recorded in ROADMAP.md). The
/// sequential partition kernel is deterministic, so this is a ±0 pin:
/// drifting means the kernel's search order changed, losing the witness
/// means the route regressed.
const N16_PARTITION_WITNESS_NODES: u64 = 43;

/// Ceiling for the ρ₂(8) = 16 witness through the partition route on
/// the C ≤ 4 universe — gated alongside the strict `< lanes-forced`
/// comparison (the forced lane core's measured figure is ~3.7M nodes).
const RHO2_8_PARTITION_CEILING: u64 = 1_000;

struct Row {
    n: u32,
    /// Covering multiplicity: 1 for the unit-cover sweep, ≥ 2 for the
    /// λ-fold lane-kernel rows.
    lambda: u32,
    /// The covering size being certified (ρ(n), ρ_λ(n), or the n = 16
    /// probe budget).
    opt: u32,
    engine: &'static str,
    symmetry: SymmetryMode,
    memo: bool,
    /// Whether the pair ran against a warm request-wide [`MemoStore`]
    /// (the shared-store rows) rather than a per-request-private memo.
    shared: bool,
    /// Hits on refutations recorded by *another* searcher generation —
    /// zero by construction on non-shared rows.
    shared_hits: u64,
    nodes_infeasible: u64,
    nodes_feasible: u64,
    memo_hits: u64,
    canon_pruned: u64,
    sym_factor: u32,
    wall_ms: f64,
    certified: bool,
    /// Whether an uncertified row is expected (the capped n = 12 `Off`
    /// probe) rather than a failure.
    may_exhaust: bool,
}

fn mode_name(sym: SymmetryMode) -> &'static str {
    match sym {
        SymmetryMode::Off => "off",
        SymmetryMode::Root => "root",
        SymmetryMode::Full => "full",
    }
}

/// Proves `rho − 1` infeasible (optionally node-capped) and finds a `rho`
/// covering through one engine at one symmetry level and memo setting.
fn certify(
    engine: &'static str,
    problem: &Problem,
    rho: u32,
    symmetry: SymmetryMode,
    memo: bool,
    proof_cap: u64,
) -> Row {
    let n = problem.ring().n();
    let eng = engine_by_name(engine).expect("registered engine");
    let t0 = Instant::now();
    let below = eng.solve(
        problem,
        &SolveRequest::prove_infeasible(rho - 1)
            .with_symmetry(symmetry)
            .with_memo(memo)
            .with_max_nodes(proof_cap),
    );
    let at = eng.solve(
        problem,
        &SolveRequest::within_budget(rho)
            .with_symmetry(symmetry)
            .with_memo(memo),
    );
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let certified = matches!(below.optimality(), Optimality::Infeasible)
        && matches!(at.optimality(), Optimality::Feasible);
    Row {
        n,
        lambda: 1,
        opt: rho,
        engine,
        symmetry,
        memo,
        shared: false,
        shared_hits: 0,
        nodes_infeasible: below.stats().nodes,
        nodes_feasible: at.stats().nodes,
        memo_hits: below.stats().memo_hits + at.stats().memo_hits,
        canon_pruned: below.stats().canon_pruned + at.stats().canon_pruned,
        sym_factor: below.stats().sym_factor.max(at.stats().sym_factor),
        wall_ms: wall,
        certified,
        may_exhaust: proof_cap < u64::MAX,
    }
}

/// The shared-store variant of [`certify`]: one request-wide
/// [`MemoStore`] is fed by a cold certification pair, then the *same*
/// pair runs warm against it — the recorded row. Its `shared_hits` are
/// the cross-request reuse a per-request-private memo cannot see, and
/// its node counts gate that reuse is a pure accelerator (never more
/// nodes than the private memo-on row of the same shape).
fn certify_shared(
    engine: &'static str,
    problem: &Problem,
    rho: u32,
    symmetry: SymmetryMode,
) -> Row {
    let n = problem.ring().n();
    let eng = engine_by_name(engine).expect("registered engine");
    let store =
        Arc::new(MemoStore::new(problem.universe(), DEFAULT_MEMO_BYTES).expect("store fits"));
    let below_req = SolveRequest::prove_infeasible(rho - 1)
        .with_symmetry(symmetry)
        .with_memo(true)
        .with_memo_store(Arc::clone(&store));
    let at_req = SolveRequest::within_budget(rho)
        .with_symmetry(symmetry)
        .with_memo(true)
        .with_memo_store(Arc::clone(&store));
    // Cold feed pass: populates the store, not recorded.
    let _ = eng.solve(problem, &below_req);
    let _ = eng.solve(problem, &at_req);
    // Warm pass: the row.
    let t0 = Instant::now();
    let below = eng.solve(problem, &below_req);
    let at = eng.solve(problem, &at_req);
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let certified = matches!(below.optimality(), Optimality::Infeasible)
        && matches!(at.optimality(), Optimality::Feasible);
    Row {
        n,
        lambda: 1,
        opt: rho,
        engine,
        symmetry,
        memo: true,
        shared: true,
        shared_hits: below.stats().shared_hits + at.stats().shared_hits,
        nodes_infeasible: below.stats().nodes,
        nodes_feasible: at.stats().nodes,
        memo_hits: below.stats().memo_hits + at.stats().memo_hits,
        canon_pruned: below.stats().canon_pruned + at.stats().canon_pruned,
        sym_factor: below.stats().sym_factor.max(at.stats().sym_factor),
        wall_ms: wall,
        certified,
        may_exhaust: false,
    }
}

/// λ-fold certification row through engine `bitset` over the full tile
/// universe: prove ρ_λ(n) − 1 infeasible, find a ρ_λ(n) covering. Every
/// recorded λ-fold optimum equals the scaled capacity bound, so the
/// refutation is a one-node root prune and the witness search is the
/// tracked quantity.
fn certify_lambda(n: u32, lambda: u32, opt: u32, symmetry: SymmetryMode, memo: bool) -> Row {
    let problem = Problem::lambda_fold(n, lambda);
    let mut row = certify("bitset", &problem, opt, symmetry, memo, u64::MAX);
    row.lambda = lambda;
    row
}

/// An n = 16 frontier probe over the C ≤ 4 universe under a
/// deterministic node cap, through a registry engine.
///
/// Historically these attacked the n ≡ 0 (mod 8) construction gap —
/// ρ(16) ∈ {33, 34}, the paper's best construction using 34 cycles.
/// **PR 10 closed the gap**: the slack-budgeted partition route finds a
/// 33-cycle covering of K_16 in a few dozen nodes (the `partition`
/// budget-33 row below, gated *certified* with an exact node pin — the
/// witness is in ROADMAP.md), so ρ(16) = 33 against Theorem 2's parity
/// lower bound. The `bitset` row is kept as a search-hardness tracker:
/// branch-and-bound still exhausts its cap without finding the
/// covering, and its gate pins that inconclusive verdict so any change
/// in the lane core's trajectory is surfaced. The λ₂ budget-64 probe
/// (zero-slack capacity `2·512/16 = 64`, no parity excess) records its
/// capped verdict the same way.
fn probe_n16(engine: &'static str, lambda: u32, opt: u32, cap: u64) -> Row {
    let spec = if lambda == 1 {
        CoverSpec::complete(16)
    } else {
        CoverSpec::lambda_fold(16, lambda)
    };
    // The C ≤ 4 *shortest-gap* universe (arcs ≤ the diameter 8, 1484
    // tiles) — the one the ρ(16) = 33 witness lives in.
    let problem = Problem::new(TileUniverse::with_max_gap(Ring::new(16), 4, 8), spec);
    let eng = engine_by_name(engine).expect("registered engine");
    let t0 = Instant::now();
    let below = eng.solve(
        &problem,
        &SolveRequest::prove_infeasible(opt - 1)
            .with_symmetry(SymmetryMode::Full)
            .with_memo(true),
    );
    let at = eng.solve(
        &problem,
        &SolveRequest::within_budget(opt)
            .with_symmetry(SymmetryMode::Full)
            .with_memo(true)
            .with_max_nodes(cap),
    );
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let certified = matches!(below.optimality(), Optimality::Infeasible)
        && matches!(at.optimality(), Optimality::Feasible);
    Row {
        n: 16,
        lambda,
        opt,
        engine,
        symmetry: SymmetryMode::Full,
        memo: true,
        shared: false,
        shared_hits: 0,
        nodes_infeasible: below.stats().nodes,
        nodes_feasible: at.stats().nodes,
        memo_hits: below.stats().memo_hits + at.stats().memo_hits,
        canon_pruned: below.stats().canon_pruned + at.stats().canon_pruned,
        sym_factor: below.stats().sym_factor.max(at.stats().sym_factor),
        wall_ms: wall,
        certified,
        may_exhaust: true,
    }
}

/// The ρ₂(8) = 16 instance on the C ≤ 4 universe — the PR-10 headline
/// matchup. The 15-refutation is a one-node capacity prune on both
/// routes; the witness search is where the routes diverge: the budget
/// sits at zero waste slack, so the partition kernel's MRV selection
/// and full-load collapse walk nearly straight to a double cover, while
/// the forced lane core (the pre-PR-10 dispatch) grinds through
/// millions of nodes. `--check` gates the partition witness under a
/// ceiling AND strictly below the forced-lanes counterpart row.
fn rho2_8_problem() -> Problem {
    Problem::new(
        TileUniverse::new(Ring::new(8), 4),
        CoverSpec::lambda_fold(8, 2),
    )
}

fn certify_rho2_8_partition() -> Row {
    let mut row = certify(
        "partition",
        &rho2_8_problem(),
        16,
        SymmetryMode::Full,
        true,
        u64::MAX,
    );
    row.lambda = 2;
    row
}

/// The branch-and-bound counterpart, with the low-slack dispatch
/// bypassed (`budget_search_packed` forces the lane core): the measured
/// "before" figure the partition row is gated strictly under.
fn certify_rho2_8_lanes_forced() -> Row {
    let u = TileUniverse::new(Ring::new(8), 4);
    let spec = CoverSpec::lambda_fold(8, 2);
    let t0 = Instant::now();
    let below_store = MemoStore::new(&u, DEFAULT_MEMO_BYTES).expect("n = 8 fits");
    let (below, below_stats) = budget_search_packed(
        &u,
        &spec,
        15,
        u64::MAX,
        SymmetryMode::Full,
        Some(&below_store),
    );
    let at_store = MemoStore::new(&u, DEFAULT_MEMO_BYTES).expect("n = 8 fits");
    let (at, at_stats) =
        budget_search_packed(&u, &spec, 16, u64::MAX, SymmetryMode::Full, Some(&at_store));
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    Row {
        n: 8,
        lambda: 2,
        opt: 16,
        engine: "lanes-forced",
        symmetry: SymmetryMode::Full,
        memo: true,
        shared: false,
        shared_hits: below_stats.shared_hits + at_stats.shared_hits,
        nodes_infeasible: below_stats.nodes,
        nodes_feasible: at_stats.nodes,
        memo_hits: below_stats.memo_hits + at_stats.memo_hits,
        canon_pruned: below_stats.canon_pruned + at_stats.canon_pruned,
        sym_factor: below_stats.sym_factor.max(at_stats.sym_factor),
        wall_ms: wall,
        certified: matches!(below, Outcome::Infeasible) && matches!(at, Outcome::Feasible(_)),
        may_exhaust: false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let skip_n12 = quick || args.iter().any(|a| a == "--skip-n12");
    let max_n: u32 = args
        .iter()
        .position(|a| a == "--max-n")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    let mut rows: Vec<Row> = Vec::new();
    let mut run = |row: Row| {
        println!(
            "n={:2} l={} {:15} {:5} memo={:6}  {:>10.1} ms  nodes {} + {}  hits {} ({} shared)  canon {}  x{}  certified={}",
            row.n,
            row.lambda,
            row.engine,
            mode_name(row.symmetry),
            if row.shared {
                "shared"
            } else if row.memo {
                "on"
            } else {
                "off"
            },
            row.wall_ms,
            row.nodes_infeasible,
            row.nodes_feasible,
            row.memo_hits,
            row.shared_hits,
            row.canon_pruned,
            row.sym_factor,
            row.certified
        );
        rows.push(row);
    };

    let ns: Vec<u32> = if quick {
        [8, 10].iter().copied().filter(|&n| n <= max_n).collect()
    } else {
        (6..=max_n).collect()
    };
    for &n in &ns {
        let rho = rho_formula(n) as u32;
        let problem = Problem::complete(n);
        for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
            if quick && sym == SymmetryMode::Full {
                continue;
            }
            for memo in [false, true] {
                run(certify("bitset", &problem, rho, sym, memo, u64::MAX));
            }
        }
    }

    // Shared-store rows, for the shapes whose searches do real memo work
    // (n = 8 with the dihedral reduction off, the ρ(10) engine default):
    // a warm certification pair over one request-wide store. Gated by
    // `--check` on a shared-hits floor and the private-row node ceiling.
    for (n, sym) in [(8u32, SymmetryMode::Off), (10u32, SymmetryMode::Root)] {
        if n <= max_n {
            let problem = Problem::complete(n);
            run(certify_shared(
                "bitset",
                &problem,
                rho_formula(n) as u32,
                sym,
            ));
        }
    }

    if !skip_n12 {
        // The n = 12 certification row: budget-18 refutation (Theorem 2's
        // +1 at p = 6) plus the 19-tile witness. Both `Off` probes are
        // capped at the 30M-node budget the old ROADMAP open item named —
        // without the parity bound the refutation exhausts the cap with
        // or without the memo — while the reduced modes must certify
        // (one-node parity proofs).
        let problem = Problem::complete(12);
        for (sym, memo) in [
            (SymmetryMode::Off, false),
            (SymmetryMode::Off, true),
            (SymmetryMode::Root, true),
            (SymmetryMode::Full, true),
        ] {
            let cap = if sym == SymmetryMode::Off {
                N12_PROOF_CAP
            } else {
                u64::MAX
            };
            run(certify("bitset", &problem, 19, sym, memo, cap));
        }
    }

    // λ-fold rows (in `--quick` too — they are a CI acceptance gate):
    // the packed lane kernel under `Full` symmetry at both memo
    // settings, gated against the frozen legacy counts.
    for (n, lambda, opt, _, _, _) in LAMBDA_CHECKS {
        for memo in [true, false] {
            run(certify_lambda(n, lambda, opt, SymmetryMode::Full, memo));
        }
    }

    // The PR-10 partition-kernel rows (all `--quick` rows — they carry
    // CI acceptance gates): the ρ₂(8) = 16 matchup on the C ≤ 4
    // universe (partition route vs the forced lane core), then the
    // n = 16 frontier probes — the branch-and-bound hardness tracker,
    // the partition budget-33 row that *closed* the construction gap
    // (gated certified, exact node pin), and the λ₂ budget-64 probe.
    run(certify_rho2_8_lanes_forced());
    run(certify_rho2_8_partition());
    run(probe_n16("bitset", 1, 33, N16_PROBE_CAP));
    run(probe_n16("partition", 1, 33, N16_PROBE_CAP));
    run(probe_n16("partition", 2, 64, N16_PROBE_CAP));

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"snapshot\": 10,\n");
    json.push_str(
        "  \"workload\": \"certify rho(n) over the full tile universe: prove rho-1 \
         infeasible, find a rho covering; symmetry dimension off/root/full x \
         residual-state memo off/on; lambda-fold rows certify rho_lambda(n) on \
         the packed lane kernel, gated under the frozen recursive reference's \
         witness counts (witness probes at the capacity budget route through \
         the slack-budgeted partition kernel); rho_2(8) pair on the C<=4 universe gates the \
         partition route strictly under the forced lane core; n=16 rows are \
         the capped budget-33 probes on the C<=4 universe (the partition row \
         certifies rho(16)=33, closing the mod-8 construction gap) plus the \
         capped zero-slack lambda_2 budget-64 probe\",\n",
    );
    let _ = writeln!(json, "  \"n12_proof_cap\": {N12_PROOF_CAP},");
    let _ = writeln!(json, "  \"n16_probe_cap\": {N16_PROBE_CAP},");
    json.push_str("  \"instances\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"lambda\": {}, \"rho\": {}, \"kernel\": \"{}\", \"symmetry\": \"{}\", \
             \"memo\": {}, \"shared\": {}, \"nodes_infeasible\": {}, \
             \"nodes_feasible\": {}, \
             \"memo_hits\": {}, \"shared_hits\": {}, \"canon_pruned\": {}, \"sym_factor\": {}, \
             \"wall_ms\": {:.1}, \"certified\": {}}}",
            r.n,
            r.lambda,
            r.opt,
            r.engine,
            mode_name(r.symmetry),
            r.memo,
            r.shared,
            r.nodes_infeasible,
            r.nodes_feasible,
            r.memo_hits,
            r.shared_hits,
            r.canon_pruned,
            r.sym_factor,
            r.wall_ms,
            r.certified
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // Only the full matrix owns the committed snapshot: writing a
    // `--quick`, `--skip-n12` or `--max-n` subset over it would truncate it.
    if !skip_n12 && max_n >= 10 {
        std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
        println!("\nwrote BENCH_10.json ({} instances)", rows.len());
    } else {
        println!(
            "\nsubset run ({} instances): BENCH_10.json not written",
            rows.len()
        );
    }

    // Every row certifies except, possibly, the node-capped n = 12
    // `Off` + memo-off probe (the documented pre-symmetry state).
    for r in &rows {
        assert!(
            r.certified || r.may_exhaust,
            "certification failed: n={} {} {} memo={}",
            r.n,
            r.engine,
            mode_name(r.symmetry),
            r.memo
        );
    }

    if check {
        let mut failures = Vec::new();
        for (n, sym, memo, exact, proof, witness) in CHECK_BASELINES {
            let Some(row) = rows.iter().find(|r| {
                r.n == n
                    && r.lambda == 1
                    && r.engine == "bitset"
                    && r.symmetry == sym
                    && r.memo == memo
                    && !r.shared
            }) else {
                failures.push(format!(
                    "missing row n={n} bitset {} memo={memo}",
                    mode_name(sym)
                ));
                continue;
            };
            let proof_bad = if exact {
                row.nodes_infeasible != proof
            } else {
                row.nodes_infeasible > proof
            };
            let witness_bad = if exact {
                row.nodes_feasible != witness
            } else {
                row.nodes_feasible > witness
            };
            if proof_bad || witness_bad {
                failures.push(format!(
                    "n={n} bitset {} memo={memo}: nodes {} + {} vs baseline {} + {} ({})",
                    mode_name(sym),
                    row.nodes_infeasible,
                    row.nodes_feasible,
                    proof,
                    witness,
                    if exact { "exact" } else { "ceiling" }
                ));
            }
        }
        // Shared-store gates: the warm pair must visibly reuse the cold
        // pass's refutations, and sharing may only *prune* — no more
        // nodes than the private memo-on row of the same shape.
        for (n, sym, floor, ceiling) in SHARED_CHECKS {
            let Some(shared) = rows
                .iter()
                .find(|r| r.n == n && r.engine == "bitset" && r.symmetry == sym && r.shared)
            else {
                failures.push(format!("missing shared row n={n} {}", mode_name(sym)));
                continue;
            };
            if shared.shared_hits < floor {
                failures.push(format!(
                    "n={n} {} shared: {} shared hits under the {floor} floor",
                    mode_name(sym),
                    shared.shared_hits
                ));
            }
            let warm_total = shared.nodes_infeasible + shared.nodes_feasible;
            if warm_total > ceiling {
                failures.push(format!(
                    "n={n} {} shared: {warm_total} warm nodes over the {ceiling} ceiling",
                    mode_name(sym)
                ));
            }
            if let Some(private) = rows.iter().find(|r| {
                r.n == n && r.engine == "bitset" && r.symmetry == sym && r.memo && !r.shared
            }) {
                let (s, p) = (
                    shared.nodes_infeasible + shared.nodes_feasible,
                    private.nodes_infeasible + private.nodes_feasible,
                );
                if s > p {
                    failures.push(format!(
                        "n={n} {} shared: {s} nodes exceed the private memo row's {p}",
                        mode_name(sym)
                    ));
                }
            }
        }
        // λ-fold gates: one-node refutations, packed ceilings, and the
        // strict packed < legacy win on every row against the frozen
        // legacy witness counts.
        for (n, lambda, _, legacy_wit, packed_on, packed_off) in LAMBDA_CHECKS {
            for (memo, ceiling) in [(true, packed_on), (false, packed_off)] {
                let Some(row) = rows.iter().find(|r| {
                    r.n == n && r.lambda == lambda && r.engine == "bitset" && r.memo == memo
                }) else {
                    failures.push(format!(
                        "missing row n={n} lambda={lambda} bitset memo={memo}"
                    ));
                    continue;
                };
                if row.nodes_infeasible != 1 || row.nodes_feasible > ceiling {
                    failures.push(format!(
                        "n={n} lambda={lambda} bitset memo={memo}: nodes {} + {} vs 1 + {ceiling} (ceiling)",
                        row.nodes_infeasible, row.nodes_feasible
                    ));
                }
                if row.nodes_feasible >= legacy_wit {
                    failures.push(format!(
                        "n={n} lambda={lambda} bitset memo={memo}: {} witness nodes not strictly \
                         under the legacy reference's {legacy_wit}",
                        row.nodes_feasible
                    ));
                }
            }
        }
        // The ρ₂(8) = 16 matchup: both routes certify with a one-node
        // refutation; the partition witness must stay under its ceiling
        // AND strictly below the forced lane core's count — the PR-10
        // acceptance criterion (the lane figure was the pre-partition
        // 3.7M-node headline).
        let lanes = rows.iter().find(|r| r.engine == "lanes-forced");
        let part8 = rows
            .iter()
            .find(|r| r.n == 8 && r.lambda == 2 && r.engine == "partition");
        match (lanes, part8) {
            (Some(lanes), Some(part)) => {
                for (label, row) in [("lanes-forced", lanes), ("partition", part)] {
                    if !row.certified || row.nodes_infeasible != 1 {
                        failures.push(format!(
                            "rho_2(8) {label}: certified={} refutation={} nodes \
                             (expected a certified pair with a one-node capacity prune)",
                            row.certified, row.nodes_infeasible
                        ));
                    }
                }
                if part.nodes_feasible > RHO2_8_PARTITION_CEILING {
                    failures.push(format!(
                        "rho_2(8) partition witness took {} nodes, over the {} ceiling",
                        part.nodes_feasible, RHO2_8_PARTITION_CEILING
                    ));
                }
                if part.nodes_feasible >= lanes.nodes_feasible {
                    failures.push(format!(
                        "rho_2(8) partition witness ({} nodes) not strictly under the \
                         forced lane core's {} nodes",
                        part.nodes_feasible, lanes.nodes_feasible
                    ));
                }
            }
            _ => failures.push("missing rho_2(8) partition/lanes-forced row".into()),
        }
        // The n = 16 rows. The `partition` budget-33 row CLOSED the
        // n ≡ 0 (mod 8) construction gap: it must certify ρ(16) = 33 —
        // a one-node parity refutation of 32 plus the witness at its
        // exact pinned node count (the sequential kernel is
        // deterministic). Losing the witness is a regression as loud as
        // a node-count drift. The `bitset` row tracks branch-and-bound
        // hardness: it must stay inconclusive at the cap (if the lane
        // core starts finding the covering, the hardness story changed —
        // surface it). The λ₂ budget-64 row likewise stays inconclusive
        // at the cap; a witness would pin ρ₂(16) = 64 and deserves a
        // ROADMAP entry, not a silent bench row.
        for (engine, lambda, expect_certified, expect_witness) in [
            ("bitset", 1u32, false, None),
            ("partition", 1, true, Some(N16_PARTITION_WITNESS_NODES)),
            ("partition", 2, false, None),
        ] {
            let Some(probe) = rows
                .iter()
                .find(|r| r.n == 16 && r.lambda == lambda && r.engine == engine)
            else {
                failures.push(format!("missing n=16 lambda={lambda} {engine} probe row"));
                continue;
            };
            if probe.certified != expect_certified {
                failures.push(format!(
                    "n=16 lambda={lambda} {engine} probe: certified={} (expected {}) — \
                     the frontier verdict changed; update ROADMAP.md and this gate",
                    probe.certified, expect_certified
                ));
            }
            if probe.nodes_infeasible != 1 {
                failures.push(format!(
                    "n=16 lambda={lambda} {engine} refutation took {} nodes (expected a \
                     one-node bound proof)",
                    probe.nodes_infeasible
                ));
            }
            if let Some(want) = expect_witness {
                if probe.nodes_feasible != want {
                    failures.push(format!(
                        "n=16 lambda={lambda} {engine} witness took {} nodes vs the \
                         pinned {want} (exact)",
                        probe.nodes_feasible
                    ));
                }
            }
        }
        assert!(
            failures.is_empty(),
            "node-count regression:\n  {}",
            failures.join("\n  ")
        );
        println!("check passed: node counts within recorded baselines");
    }
}
