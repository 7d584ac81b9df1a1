//! Throughput snapshot of the batching solve service on a mixed,
//! workload-generated queue.
//!
//! Builds a reproducible (seeded) job queue mixing the shapes real
//! provisioning traffic has — repeated complete instances over a few
//! ring sizes, partial instances drawn from the `cyclecover-workload`
//! generators (uniform, locality, permutation demands), heuristic-engine
//! jobs, deadline-carrying jobs, and one already-expired job — then
//! drains it through [`SolveService`] and reports the service-level
//! numbers that matter for the "heavy traffic" north star: jobs/s,
//! universe-cache hit rate, coalescing rate, and per-engine node totals.
//!
//! Usage: `cargo run --release -p cyclecover-bench --bin bench_service
//! [-- --jobs N] [--workers N] [--cache-mb M] [--quick] [--json]
//! [--fault-plan plan.json]`
//!
//! Node counts and the hit/coalesce accounting are deterministic for a
//! given queue; wall-clock is hardware noise (see the ROADMAP bench
//! notes). `--json` prints the raw `cyclecover-batch-summary` document
//! instead of the table. `--fault-plan` installs a deterministic
//! fault-injection plan (see `docs/robustness.md`) so the resilience
//! columns — retries, degradations, failures per 1k jobs — exercise the
//! recovery paths; without it those columns measure the clean-path
//! overhead of the fault machinery, which must stay at zero.

use cyclecover_graph::Graph;
use cyclecover_io::json::SolveJob;
use cyclecover_service::{batch_summary_json, CertCache, FaultPlan, ServiceConfig, SolveService};
use cyclecover_solver::api::{Objective, SymmetryMode};
use cyclecover_solver::lower_bound::rho_formula;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn requests_of(g: &Graph) -> Vec<(u32, u32)> {
    g.edges().iter().map(|e| (e.u(), e.v())).collect()
}

/// The mixed queue: `count` jobs over rings `6..=max_n`, seeded.
fn build_queue(count: usize, max_n: u32, rng: &mut StdRng) -> Vec<SolveJob> {
    let mut jobs: Vec<SolveJob> = Vec::with_capacity(count);
    for i in 0..count {
        let n = rng.gen_range(6..=max_n);
        let mut job = SolveJob::new(format!("q{i}"), n);
        match i % 6 {
            // Complete certification — the ρ(n) workload.
            0 => {}
            // Feasibility probe just above the optimum, with a heuristic
            // fallback rung: unused on the clean path, the degradation
            // ladder's workload under a fault plan.
            1 => {
                job.objective = Objective::WithinBudget(rho_formula(n) as u32 + 1);
                job.fallback = vec!["greedy".to_string()];
            }
            // Heuristic upper bound (complete spec only).
            2 => job.engine = "greedy-improve".to_string(),
            // Partial instances from the workload generators.
            3 => {
                let g = cyclecover_workload::uniform_random(n as usize, 0.5, rng);
                let reqs = requests_of(&g);
                if !reqs.is_empty() {
                    job.requests = Some(reqs);
                }
            }
            4 => {
                let g = cyclecover_workload::locality(n as usize, 2);
                job.requests = Some(requests_of(&g));
            }
            _ => {
                let g = cyclecover_workload::permutation(n as usize, rng);
                let reqs = requests_of(&g);
                if !reqs.is_empty() {
                    job.requests = Some(reqs);
                }
                // A generous deadline: exercises the EDF path without
                // cutting anything short.
                job.deadline_ms = Some(60_000);
            }
        }
        // Every fourth job is an exact duplicate of an earlier one (new
        // id): the coalescing workload.
        if i % 4 == 3 && i > 0 {
            let mut dup = jobs[rng.gen_range(0..jobs.len())].clone();
            dup.id = format!("q{i}");
            job = dup;
        }
        jobs.push(job);
    }
    // One unmeetable deadline: the rejected-without-running path.
    let mut doomed = SolveJob::new("doomed", max_n);
    doomed.deadline_ms = Some(0);
    jobs.push(doomed);
    // A refutation/certification pair with the dihedral reduction off —
    // the one shape in this size range whose search does real memo work,
    // so the memo columns (and --shared-memo's cross-job reuse) measure
    // something: under a shared store the certification reuses the
    // refutation's entries.
    let mut refute = SolveJob::new("refute-off-8", 8);
    refute.objective = Objective::WithinBudget(rho_formula(8) as u32 - 1);
    refute.symmetry = Some(SymmetryMode::Off);
    jobs.push(refute);
    let mut certify = SolveJob::new("certify-off-8", 8);
    certify.symmetry = Some(SymmetryMode::Off);
    jobs.push(certify);
    jobs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = 60usize;
    let mut workers = 1usize;
    let mut cache_mb = 64usize;
    let mut as_json = false;
    let mut shared_memo = false;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jobs" => jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs N"),
            "--workers" => workers = it.next().and_then(|v| v.parse().ok()).expect("--workers N"),
            "--cache-mb" => {
                cache_mb = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cache-mb M")
            }
            "--quick" => jobs = 20,
            "--json" => as_json = true,
            "--shared-memo" => shared_memo = true,
            "--fault-plan" => {
                let path: &str = it.next().expect("--fault-plan plan.json");
                let text = std::fs::read_to_string(path).expect("readable fault plan");
                fault_plan = Some(FaultPlan::from_json(&text).expect("well-formed fault plan"));
            }
            other => panic!("unknown flag {other}"),
        }
    }
    let max_n = 9;
    let mut rng = StdRng::seed_from_u64(2001);
    let queue = build_queue(jobs, max_n, &mut rng);

    let mut service = SolveService::new(ServiceConfig {
        workers,
        cache_bytes: cache_mb << 20,
        backoff_base_ms: 0,
        shared_memo,
        ..ServiceConfig::default()
    });
    service.set_cert_cache(CertCache::new());
    let faulted = fault_plan.is_some();
    if let Some(plan) = fault_plan {
        service.set_fault_plan(plan);
    }
    for job in queue.clone() {
        service.submit(job).expect("generated jobs are admissible");
    }
    let report = service.drain();

    if as_json {
        print!("{}", batch_summary_json(&report));
        return;
    }

    // Replay pass: the identical queue against the now-warm certificate
    // cache — the repeat-traffic shape the persistent cache exists for.
    // Terminal complete-spec certificates answer with zero kernel nodes.
    for job in queue {
        service.submit(job).expect("replayed jobs are admissible");
    }
    let replay = service.drain();
    let st = &report.stats;
    println!("bench_service — mixed workload queue (seeded, n <= {max_n})");
    println!(
        "jobs: {} submitted, {} solved, {} coalesced, {} expired, {} errors",
        st.submitted, st.solved, st.coalesced, st.expired, st.errors
    );
    let wall = st.wall.as_secs_f64();
    println!(
        "throughput: {:.1} jobs/s ({:.1} ms total, {workers} worker(s))",
        st.solved as f64 / wall.max(1e-9),
        wall * 1e3
    );
    println!(
        "universe cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} KiB resident (budget {} MiB)",
        st.cache.hits,
        st.cache.misses,
        st.cache.hit_rate() * 100.0,
        st.cache.evictions,
        st.cache.bytes / 1024,
        cache_mb
    );
    println!(
        "queue wait: {:.3} ms mean over {} jobs",
        st.mean_queue_wait.as_secs_f64() * 1e3,
        report.jobs.len()
    );
    // Resilience columns, normalized per 1k jobs so runs of different
    // sizes compare: all-zero on a clean run (the fault machinery must
    // cost nothing when no plan is installed).
    let per_1k = |v: u64| v as f64 * 1000.0 / st.submitted.max(1) as f64;
    println!(
        "faults: {} injected | per 1k jobs: {:.1} retries, {:.1} degraded, {:.1} failed, {:.1} quarantined",
        st.faults_injected,
        per_1k(st.retries),
        per_1k(st.degraded as u64),
        per_1k(st.failed as u64),
        per_1k(st.quarantined as u64),
    );
    // Memo columns, same per-1k normalization: the cold pass shows the
    // refutation store's traffic ("shared" engages only under
    // --shared-memo); the replay pass shows the certificate cache
    // answering repeat traffic without the kernel.
    let rp = &replay.stats;
    let rp_1k = |v: u64| v as f64 * 1000.0 / rp.submitted.max(1) as f64;
    println!(
        "memo (cold pass), per 1k jobs: {:.1} memo hits, {:.1} shared hits, {:.1} cert-cache hits",
        per_1k(st.memo_hits),
        per_1k(st.shared_hits),
        per_1k(st.cert_cache_hits as u64),
    );
    println!(
        "memo (replay pass), per 1k jobs: {:.1} memo hits, {:.1} shared hits, {:.1} cert-cache hits",
        rp_1k(rp.memo_hits),
        rp_1k(rp.shared_hits),
        rp_1k(rp.cert_cache_hits as u64),
    );
    for e in &st.engines {
        println!(
            "engine {:16} {:4} solves, {:4} jobs served, {:10} nodes",
            e.name, e.solves, e.jobs, e.nodes
        );
    }
    // Sanity: the snapshot is only meaningful if the service-level
    // machinery actually engaged.
    assert!(st.cache.hits > 0, "no universe reuse in the mixed queue");
    assert!(st.coalesced > 0, "no coalescing in the mixed queue");
    assert_eq!(st.expired, 1, "the doomed job must expire");
    assert_eq!(st.errors, 0, "admission errors in the generated queue");
    assert_eq!(st.cert_cache_hits, 0, "a cold cache cannot hit");
    assert!(
        rp.cert_cache_hits > 0,
        "the replayed queue never hit the certificate cache"
    );
    if shared_memo {
        assert!(
            st.shared_hits > 0,
            "--shared-memo engaged no cross-job reuse"
        );
    } else {
        assert_eq!(
            st.shared_hits, 0,
            "sharing is opt-in; the default must not engage it"
        );
    }
    if faulted {
        assert!(
            st.faults_injected > 0,
            "a fault plan was installed but never fired"
        );
    } else {
        assert_eq!(st.faults_injected, 0, "clean run injected faults");
        assert_eq!(st.retries, 0, "clean run retried");
        assert_eq!(st.failed, 0, "clean run failed jobs");
    }
}
