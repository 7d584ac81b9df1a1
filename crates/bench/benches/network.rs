//! B5/B6 — WDM network benches: build-out and failure-recovery sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cyclecover_core::construct_optimal;
use cyclecover_net::{audit_all_failures, WdmNetwork};

fn bench_network_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/build");
    for n in [50u32, 101, 150] {
        let cover = construct_optimal(n);
        g.throughput(Throughput::Elements(cover.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &cover, |b, cover| {
            b.iter(|| WdmNetwork::from_covering(cover).wavelength_count())
        });
    }
    g.finish();
}

fn bench_failure_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/failure_audit");
    g.sample_size(20);
    for n in [20u32, 40, 60] {
        let cover = construct_optimal(n);
        let net = WdmNetwork::from_covering(&cover);
        g.throughput(Throughput::Elements(
            n as u64 * net.subnetworks().len() as u64,
        ));
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| audit_all_failures(net).total_reroutes)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_network_build, bench_failure_sweep);
criterion_main!(benches);
