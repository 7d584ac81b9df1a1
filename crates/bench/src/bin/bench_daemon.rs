//! Throughput snapshot of the always-on solve daemon over loopback TCP.
//!
//! Spins the daemon up in-process, streams a seeded mixed queue at it in
//! two waves over real sockets (so the second wave hits a warm universe
//! cache from the first), replays the first wave as a third (so repeat
//! traffic hits the certificate cache the first wave populated), then
//! drains it gracefully and reports the serving-level numbers: jobs/s
//! end to end, warm-cache hit rate, memo and cert-cache traffic per 1k
//! jobs, and the predicted-vs-actual node error of the admission cost
//! model. One malformed line and one predictively-unmeetable deadline
//! ride along so the reject paths are exercised on every run.
//!
//! Usage: `cargo run --release -p cyclecover-bench --bin bench_daemon
//! [-- --jobs N] [--workers N] [--quick] [--json]`
//!
//! Clean-path honesty is asserted, not just reported: every well-formed
//! generous-deadline job is answered (the predictor refuses only the
//! deliberately doomed one), and backpressure/overload counters are zero
//! at the default queue depth.

use cyclecover_io::json::{request_to_json, to_single_line, SolveJob};
use cyclecover_service::{CertCache, Daemon, DaemonConfig, DaemonStats};
use cyclecover_solver::api::Objective;
use cyclecover_solver::lower_bound::rho_formula;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

/// The seeded mixed queue: complete certifications, feasibility probes,
/// heuristic jobs, partial instances, and deadline-carrying jobs — the
/// same traffic shapes as `bench_service`, here serialized to wire
/// lines.
fn build_queue(count: usize, max_n: u32, rng: &mut StdRng) -> Vec<String> {
    let mut lines = Vec::with_capacity(count);
    for i in 0..count {
        let n = rng.gen_range(6..=max_n);
        let mut job = SolveJob::new(format!("d{i}"), n);
        match i % 5 {
            0 => {}
            1 => job.objective = Objective::WithinBudget(rho_formula(n) as u32 + 1),
            2 => job.engine = "greedy-improve".to_string(),
            3 => {
                let g = cyclecover_workload::locality(n as usize, 2);
                job.requests = Some(g.edges().iter().map(|e| (e.u(), e.v())).collect());
            }
            _ => job.deadline_ms = Some(60_000),
        }
        lines.push(to_single_line(&request_to_json(&job)));
    }
    lines
}

/// Streams `lines` over one connection, half-closes, and reads every
/// response line back. Returns (response lines, elapsed).
fn wave(addr: std::net::SocketAddr, lines: &[String]) -> (Vec<String>, Duration) {
    let started = Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut payload = lines.join("\n");
    payload.push('\n');
    stream.write_all(payload.as_bytes()).expect("stream jobs");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read responses");
    (
        text.lines().map(str::to_string).collect(),
        started.elapsed(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = 60usize;
    let mut workers = 1usize;
    let mut as_json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jobs" => jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs N"),
            "--workers" => workers = it.next().and_then(|v| v.parse().ok()).expect("--workers N"),
            "--quick" => jobs = 20,
            "--json" => as_json = true,
            other => panic!("unknown flag {other}"),
        }
    }
    let max_n = 9;
    let mut rng = StdRng::seed_from_u64(7001);
    let queue = build_queue(jobs, max_n, &mut rng);

    let mut daemon = Daemon::bind(
        "127.0.0.1:0".parse().unwrap(),
        DaemonConfig {
            workers,
            ..DaemonConfig::default()
        },
    )
    .expect("bind loopback");
    // An in-memory certificate cache (no save path): wave 3 replays wave
    // 1's lines, and the terminal complete-spec certificates among them
    // answer from the cache with zero kernel nodes. Cache-served answers
    // carry no prediction, so the admission model's exact
    // predicted-vs-actual accounting below is undisturbed.
    daemon.set_cert_cache(CertCache::new(), None);
    let addr = daemon.local_addr().expect("local addr");
    let server = std::thread::spawn(move || daemon.run());

    // Wave 1: the first half, plus one malformed line mid-stream.
    let mid = queue.len() / 2;
    let mut first: Vec<String> = queue[..mid].to_vec();
    first.insert(mid / 2, "{not even close to json".to_string());
    let (answers1, wall1) = wave(addr, &first);

    // Wave 2: the second half re-uses wave 1's universes (warm
    // generations), plus the deliberately doomed deadline: the committed
    // n = 10 root certification wall is ~100 ms, so 1 ms is refused at
    // admission by the predictor, never queued.
    let mut second: Vec<String> = queue[mid..].to_vec();
    let mut doomed = SolveJob::new("doomed", 10);
    doomed.deadline_ms = Some(1);
    second.push(to_single_line(&request_to_json(&doomed)));
    let (answers2, wall2) = wave(addr, &second);

    // Wave 3: replay wave 1's well-formed lines verbatim — the repeat
    // traffic the certificate cache exists for. Complete-spec terminal
    // certificates from wave 1 answer without touching the kernel.
    let (answers3, wall3) = wave(addr, &queue[..mid]);

    // Graceful drain; the final stats document is the daemon's answer.
    let (drain, _) = wave(
        addr,
        &[r#"{"format": "cyclecover-control", "version": 1, "op": "shutdown"}"#.to_string()],
    );
    let final_doc = drain.last().expect("final stats document");
    let reported = DaemonStats::from_json(final_doc).expect("final stats parse");
    let stats = server.join().expect("daemon thread");

    // Exactly one terminal document per line streamed, on both waves.
    let total_jobs = (jobs + mid) as u64;
    assert_eq!(answers1.len(), first.len(), "wave 1 answers");
    assert_eq!(answers2.len(), second.len(), "wave 2 answers");
    assert_eq!(answers3.len(), mid, "wave 3 answers");
    assert_eq!(stats.rejected_parse, 1, "the malformed line");
    assert_eq!(stats.rejected_predicted, 1, "only the doomed deadline");
    assert_eq!(
        stats.jobs_received, total_jobs,
        "all well-formed jobs admitted"
    );
    assert_eq!(
        stats.jobs_answered, total_jobs,
        "every admitted job answered"
    );
    assert_eq!(stats.unstarted, 0, "graceful drain left nothing behind");
    assert_eq!(
        stats.rejected_overload, 0,
        "clean run hit the global queue bound"
    );
    assert_eq!(stats.stalls, 0, "clean run tripped backpressure");
    assert_eq!(
        reported.jobs_answered, stats.jobs_answered,
        "wire stats agree"
    );
    assert!(
        stats.generations >= 3,
        "three waves, three generations minimum"
    );
    assert!(
        stats.warm_universe_hits > 0,
        "wave 2 never reused a universe"
    );
    assert!(
        stats.cert_cache_hits > 0,
        "wave 3's replayed certifications never hit the certificate cache"
    );
    assert!(
        stats.cert_cache_entries > 0,
        "wave 1 recorded no certificates"
    );
    assert_eq!(
        stats.shared_hits, 0,
        "sharing is opt-in; the daemon default is off"
    );

    let serving = (wall1 + wall2 + wall3).as_secs_f64();
    let jobs_per_s = stats.jobs_answered as f64 / serving.max(1e-9);
    let warm_rate = stats.warm_universe_hits as f64 / (stats.warm_universe_lookups.max(1)) as f64;
    // Signed relative node error of the admission model over the jobs it
    // was confident about (exact calibration points).
    let rel_err = if stats.actual_nodes > 0 {
        (stats.predicted_nodes as f64 - stats.actual_nodes as f64) / stats.actual_nodes as f64
    } else {
        0.0
    };

    // Memo and certificate-cache traffic, normalized per 1k answered
    // jobs so runs of different sizes compare.
    let per_1k = |v: u64| v as f64 * 1000.0 / stats.jobs_answered.max(1) as f64;

    if as_json {
        println!(
            "{{\"format\": \"cyclecover-bench-daemon\", \"version\": 1, \
             \"jobs\": {}, \"answered\": {}, \"jobs_per_s\": {:.1}, \
             \"warm_hit_rate\": {:.3}, \"predicted_jobs\": {}, \
             \"predicted_nodes\": {}, \"actual_nodes\": {}, \
             \"predicted_rel_err\": {:.4}, \"rejected_parse\": {}, \
             \"rejected_predicted\": {}, \"generations\": {}, \
             \"memo_hits_per_1k\": {:.1}, \"shared_hits_per_1k\": {:.1}, \
             \"cert_cache_hits_per_1k\": {:.1}, \"cert_cache_entries\": {}}}",
            total_jobs,
            stats.jobs_answered,
            jobs_per_s,
            warm_rate,
            stats.predicted_jobs,
            stats.predicted_nodes,
            stats.actual_nodes,
            rel_err,
            stats.rejected_parse,
            stats.rejected_predicted,
            stats.generations,
            per_1k(stats.memo_hits),
            per_1k(stats.shared_hits),
            per_1k(stats.cert_cache_hits),
            stats.cert_cache_entries,
        );
        return;
    }
    println!("bench_daemon — streamed mixed workload (seeded, n <= {max_n}, 3 waves)");
    println!(
        "jobs: {} streamed, {} answered, {} parse-rejected, {} predicted-unmeetable",
        total_jobs, stats.jobs_answered, stats.rejected_parse, stats.rejected_predicted
    );
    println!(
        "throughput: {:.1} jobs/s end-to-end over TCP ({:.1} ms serving wall, {workers} worker(s))",
        jobs_per_s,
        serving * 1e3
    );
    println!(
        "warm universe cache: {} hits / {} lookups across generations ({:.0}% warm)",
        stats.warm_universe_hits,
        stats.warm_universe_lookups,
        warm_rate * 100.0
    );
    println!(
        "admission model: {} jobs predicted, {} predicted vs {} actual nodes ({:+.1}% error)",
        stats.predicted_jobs,
        stats.predicted_nodes,
        stats.actual_nodes,
        rel_err * 100.0
    );
    println!(
        "memo, per 1k jobs: {:.1} memo hits, {:.1} shared hits, {:.1} cert-cache hits ({} certificates cached)",
        per_1k(stats.memo_hits),
        per_1k(stats.shared_hits),
        per_1k(stats.cert_cache_hits),
        stats.cert_cache_entries,
    );
    println!(
        "generations: {}, connections: {} accepted / {} closed, stalls: {}, overload: {}",
        stats.generations,
        stats.connections_accepted,
        stats.connections_closed,
        stats.stalls,
        stats.rejected_overload
    );
}
