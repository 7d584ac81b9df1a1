//! B3 — DRC checking throughput: winding fast path vs exhaustive oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cyclecover_graph::CycleSubgraph;
use cyclecover_ring::{routing, Ring};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

fn random_cycles(n: u32, k: usize, count: usize, seed: u64) -> Vec<CycleSubgraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut verts: Vec<u32> = (0..n).collect();
            verts.shuffle(&mut rng);
            verts.truncate(k);
            // Random order: half winding-ish (sorted), half shuffled.
            if rng.gen_bool(0.5) {
                verts.sort_unstable();
            }
            CycleSubgraph::new(verts)
        })
        .collect()
}

fn bench_winding_vs_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("drc_check");
    for (n, k) in [(32u32, 4usize), (64, 6), (128, 8)] {
        let ring = Ring::new(n);
        let cycles = random_cycles(n, k, 256, 7);
        g.bench_with_input(
            BenchmarkId::new("winding", format!("n{n}_k{k}")),
            &cycles,
            |b, cs| {
                b.iter(|| {
                    cs.iter()
                        .filter(|cy| routing::winding_routing(ring, cy).is_some())
                        .count()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("oracle", format!("n{n}_k{k}")),
            &cycles,
            |b, cs| {
                b.iter(|| {
                    cs.iter()
                        .filter(|cy| routing::route_cycle(ring, cy).is_some())
                        .count()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_winding_vs_oracle);
criterion_main!(benches);
