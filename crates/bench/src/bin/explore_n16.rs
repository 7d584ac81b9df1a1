//! Probe the open n = 16 instance on restricted universes, through the
//! engine API (bounded `WithinBudget` requests).
//!
//! * default: the budget-33 unit probe (ρ(16) ∈ {33, 34}) on the
//!   C ≤ 4 / shortest-gap universe first, then C ≤ 5;
//! * `--lambda 2`: the double-cover probe at its capacity budget 64
//!   (`2·Σd(e)/16 = 64`, no parity excess — the bound is even), routed
//!   through the slack-budgeted partition kernel by default (zero waste
//!   slack: a budget-64 double cover is an exact partition);
//! * `--engine E`: force a registry engine (`partition`, `bitset`, …);
//! * `--budget K` / `--max-nodes N`: override the probed budget / cap.

use cyclecover_ring::Ring;
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::TileUniverse;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let lambda: u32 = flag("--lambda").map_or(1, |v| v.parse().expect("bad --lambda"));
    // λ = 1 probes budget 33 (capacity 32 + Theorem 2's parity +1);
    // λ = 2 probes the zero-slack capacity budget 64.
    let budget: u32 = flag("--budget").map_or(if lambda == 1 { 33 } else { 32 * lambda }, |v| {
        v.parse().expect("bad --budget")
    });
    let max_nodes: u64 =
        flag("--max-nodes").map_or(2_000_000_000, |v| v.parse().expect("bad --max-nodes"));
    // The unit probe defaults to the branch-and-bound engine (its 33
    // budget carries slack n, outside the auto-reroute zone); λ-fold
    // probes default to the partition kernel the zero-slack budget is
    // built for.
    let engine_name =
        flag("--engine").unwrap_or_else(|| if lambda == 1 { "bitset" } else { "partition" }.into());
    let engine =
        engine_by_name(&engine_name).unwrap_or_else(|| panic!("unknown engine '{engine_name}'"));
    // Restricted universe (C3/C4, shortest-gap) first. Runs the full
    // PR-8 configuration — dihedral symmetry + the residual-state memo —
    // so every node the cap buys is a reduced one.
    for (n, max_len, max_gap) in [(16u32, 4usize, 8u32), (16, 5, 16)] {
        let u = TileUniverse::with_max_gap(Ring::new(n), max_len, max_gap);
        let tiles = u.len();
        let spec = if lambda == 1 {
            CoverSpec::complete(n)
        } else {
            CoverSpec::lambda_fold(n, lambda)
        };
        let problem = Problem::new(u, spec);
        let t0 = std::time::Instant::now();
        let sol = engine.solve(
            &problem,
            &SolveRequest::within_budget(budget)
                .with_symmetry(SymmetryMode::Full)
                .with_memo(true)
                .with_max_nodes(max_nodes),
        );
        println!(
            "n={n} lambda={lambda} budget={budget} engine={engine_name} max_len={max_len} \
             max_gap={max_gap} tiles={tiles}: {} nodes={} partition_probes={} [{:.1?}]",
            match sol.optimality() {
                Optimality::Feasible => "FEASIBLE",
                Optimality::Infeasible => "infeasible",
                _ => "node-limit",
            },
            sol.stats().nodes,
            sol.stats().partition_probes,
            t0.elapsed()
        );
        if let Some(found) = sol.covering() {
            let ring = Ring::new(n);
            for t in found {
                println!("  {:?} gaps={:?}", t.vertices(), t.gaps(ring));
            }
            break;
        }
    }
}
