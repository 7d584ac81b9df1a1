//! B4 — exact solver scaling through the engine API: optimal covering
//! search, kernel comparison, and the Dancing Links exact-cover engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cyclecover_ring::Ring;
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::{dlx::ExactCover, greedy, TileUniverse};

fn bench_bnb_optimal(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/bnb_optimal");
    g.sample_size(10);
    let engine = engine_by_name("bitset").unwrap();
    for n in [6u32, 7, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let problem = Problem::complete(n);
            let request = SolveRequest::find_optimal().with_max_nodes(1_000_000_000);
            b.iter(|| {
                let sol = engine.solve(&problem, &request);
                assert!(matches!(sol.optimality(), Optimality::Optimal { .. }));
                sol.size()
            })
        });
    }
    g.finish();
}

/// The bitset engine on the infeasibility proof `ρ(n) − 1` over the
/// full universe, behind the engine boundary.
fn bench_kernel_comparison(c: &mut Criterion) {
    use cyclecover_solver::lower_bound::rho_formula;
    let mut g = c.benchmark_group("solver/kernel_infeasibility");
    g.sample_size(10);
    // Only even p makes the proof a real search (odd-n rho-1 is a 1-node
    // capacity prune); n = 8 is the smallest such instance.
    let n = 8u32;
    let problem = Problem::complete(n);
    let request = SolveRequest::prove_infeasible(rho_formula(n) as u32 - 1);
    let engine = engine_by_name("bitset").unwrap();
    g.bench_with_input(BenchmarkId::new("bitset", n), &n, |b, _| {
        b.iter(|| {
            let sol = engine.solve(&problem, &request);
            assert!(matches!(sol.optimality(), Optimality::Infeasible));
            sol.stats().nodes
        })
    });
    g.finish();
}

/// The iterative allocation-free core on the n = 8 budget-8 refutation
/// (`SymmetryMode::Off`, the 97,465-node tree), with its residual-state
/// memo off and on — the memo's node cut, measured side by side.
fn bench_iterative_memo(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/iterative_memo");
    g.sample_size(10);
    let problem = Problem::complete(8);
    let engine = engine_by_name("bitset").unwrap();
    for (label, memo) in [("iterative", false), ("iterative-memo", true)] {
        let request = SolveRequest::prove_infeasible(8)
            .with_symmetry(SymmetryMode::Off)
            .with_memo(memo);
        g.bench_function(label, |b| {
            b.iter(|| {
                let sol = engine.solve(&problem, &request);
                assert!(matches!(sol.optimality(), Optimality::Infeasible));
                sol.stats().nodes
            })
        });
    }
    g.finish();
}

/// The acceptance workload: certify `ρ(10)` (prove 12 infeasible, find a
/// 13-covering) on the bitset engine.
fn bench_rho10_certification(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/rho10_certify");
    g.sample_size(10);
    let problem = Problem::complete(10);
    let engine = engine_by_name("bitset").unwrap();
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let below = engine.solve(&problem, &SolveRequest::prove_infeasible(12));
            assert!(matches!(below.optimality(), Optimality::Infeasible));
            let at = engine.solve(&problem, &SolveRequest::within_budget(13));
            assert!(matches!(at.optimality(), Optimality::Feasible));
        })
    });
    g.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/greedy_cover");
    for n in [12u32, 20, 30] {
        let u = TileUniverse::new(Ring::new(n), 4);
        g.bench_with_input(BenchmarkId::from_parameter(n), &u, |b, u| {
            b.iter(|| greedy::greedy_cover(u).len())
        });
    }
    g.finish();
}

fn bench_dlx(c: &mut Criterion) {
    // Exact cover: all perfect matchings of K_{2m} (classic DLX stressor).
    let mut g = c.benchmark_group("solver/dlx_matchings");
    for m in [4usize, 5, 6] {
        let v = 2 * m;
        g.bench_with_input(BenchmarkId::from_parameter(v), &v, |b, &v| {
            b.iter(|| {
                let mut ec = ExactCover::new(v);
                for i in 0..v {
                    for j in (i + 1)..v {
                        ec.add_row(&[i, j]);
                    }
                }
                ec.count_solutions(1_000_000)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bnb_optimal,
    bench_kernel_comparison,
    bench_iterative_memo,
    bench_rho10_certification,
    bench_greedy,
    bench_dlx
);
criterion_main!(benches);
