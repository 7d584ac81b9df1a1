//! B7 — timing the extension subsystems: general-graph DRC oracle,
//! torus/tree coverings, conflict-graph coloring, ring loading.
//!
//! Complements B1–B6 (construction/checking/solving/network): these
//! groups calibrate the future-work machinery so the experiment tables
//! can state honest scaling claims (e.g., the torus construction is
//! linear in its output size; the DRC oracle is microseconds per quad).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use cyclecover_color::{conflict_graph, dsatur};
use cyclecover_graph::{builders, CycleSubgraph};
use cyclecover_ring::loading::{all_to_all_demands, local_search_loading};
use cyclecover_ring::Ring;
use cyclecover_topo::drc::{route_cycle, DEFAULT_BUDGET};
use cyclecover_topo::{mesh_cover, protect, GridTopology, TreeOfRings};

fn bench_drc_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("drc_oracle");
    for (r, cols) in [(4u32, 4u32), (6, 6), (8, 8)] {
        let topo = GridTopology::torus(r, cols);
        // A crossed quad's diagonal pair — the hardest small cycle.
        let cyc = CycleSubgraph::new(vec![
            topo.vertex(0, 0),
            topo.vertex(r - 1, cols - 1),
            topo.vertex(0, cols - 1),
            topo.vertex(r - 1, 0),
        ]);
        g.bench_with_input(
            BenchmarkId::new("torus_quad", format!("{r}x{cols}")),
            &(&topo, &cyc),
            |b, (topo, cyc)| {
                b.iter(|| {
                    let out =
                        route_cycle(black_box(topo.graph()), cyc, 2 * (r + cols), DEFAULT_BUDGET);
                    assert!(out.is_routed());
                })
            },
        );
    }
    g.finish();
}

fn bench_torus_cover(c: &mut Criterion) {
    let mut g = c.benchmark_group("torus_cover");
    g.sample_size(10);
    for (r, cols) in [(3u32, 4u32), (4, 5), (5, 6)] {
        let topo = GridTopology::torus(r, cols);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{r}x{cols}")),
            &topo,
            |b, topo| b.iter(|| mesh_cover::cover_torus(black_box(topo)).len()),
        );
    }
    g.finish();
}

fn bench_tree_cover(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_of_rings_cover");
    g.sample_size(10);
    for k in [2u32, 3, 4] {
        let t = TreeOfRings::chain(k, 6);
        let inst = builders::complete(t.vertex_count());
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("chain{k}x6")),
            &(&t, &inst),
            |b, (t, inst)| b.iter(|| t.cover(black_box(inst), 4).len()),
        );
    }
    g.finish();
}

fn bench_failure_audit(c: &mut Criterion) {
    let mut g = c.benchmark_group("topo_failure_audit");
    g.sample_size(10);
    let topo = GridTopology::torus(4, 5);
    let cover = mesh_cover::cover_torus(&topo);
    g.bench_function("torus_4x5_all_links", |b| {
        b.iter(|| {
            let audit = protect::audit_link_failures(black_box(topo.graph()), black_box(&cover));
            assert!(audit.fully_survivable);
        })
    });
    // Ablation: scoped-thread parallel sweep vs sequential, on a torus
    // big enough for the fan-out to matter.
    let big = GridTopology::torus(6, 8);
    let big_cover = mesh_cover::cover_torus(&big);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("torus_6x8_parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let audit = protect::audit_link_failures_parallel(
                        black_box(big.graph()),
                        black_box(&big_cover),
                        threads,
                    );
                    assert!(audit.fully_survivable);
                })
            },
        );
    }
    g.finish();
}

fn bench_coloring(c: &mut Criterion) {
    let mut g = c.benchmark_group("wavelength_coloring");
    for (r, cols) in [(3u32, 4u32), (4, 5), (5, 6)] {
        let topo = GridTopology::torus(r, cols);
        let cover = mesh_cover::cover_torus(&topo);
        let conflicts = conflict_graph(&cover.footprints());
        g.bench_with_input(
            BenchmarkId::new("dsatur", format!("{r}x{cols}")),
            &conflicts,
            |b, conflicts| b.iter(|| dsatur(black_box(conflicts)).count),
        );
    }
    g.finish();
}

fn bench_ring_loading(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_loading");
    for n in [12u32, 16, 24] {
        let ring = Ring::new(n);
        let demands = all_to_all_demands(ring);
        g.bench_with_input(
            BenchmarkId::new("local_search", n),
            &(ring, &demands),
            |b, (ring, demands)| {
                b.iter(|| local_search_loading(*ring, black_box(demands)).max_load)
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_drc_oracle,
    bench_torus_cover,
    bench_tree_cover,
    bench_failure_audit,
    bench_coloring,
    bench_ring_loading
);
criterion_main!(benches);
