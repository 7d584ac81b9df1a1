//! serve-mixed: seeded provisioning traffic through the daemon's layers.
//!
//! The system under test is the daemon's per-line work with
//! `DaemonConfig::default()` (one worker, queue depth 64), the built-in
//! cost model and an in-memory certificate cache: `Ingest::admit`, then
//! `SolveService::submit` and `drain` as one generation, then the answer
//! line (`solution_to_json_with_id` or `reject_json`). One client runs a
//! closed loop on its own thread: it hands over one request line, checks
//! the answer and sends the next. The TCP event loop and its 1 ms ticks
//! are left out: on a shared host their latency is the hypervisor's
//! (see `RATIONALE.md`).
//!
//! Set-up builds a fresh daemon state and has it answer the warm-up
//! burst (one exact request per complete shape, n = 6..12); it is
//! repeated `SETUP_REPS` times and the last state serves the timed phase.
//! Each request is timed by a [`host::Stopwatch`] and the run's times are
//! scaled by the host references, as in the certify workloads. A traced
//! run afterwards replays the same lines through the public layer calls
//! one at a time, timing each.

use crate::host;
use crate::layers::KernelTotals;
use crate::report::{Outcome, PER_LAYER};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use crate::RunConfig;
use cyclecover_core::lambda;
use cyclecover_graph::Edge;
use cyclecover_io::json::{
    covering_from_solution_json, request_from_json, request_to_json, solution_to_json_with_id,
    to_single_line, Json, SolveJob,
};
use cyclecover_ring::Ring;
use cyclecover_service::{
    reject_json, CertCache, CostModel, DaemonConfig, Ingest, IngestAction, ServiceConfig,
    SolveService, UniverseCache,
};
use cyclecover_solver::api::Objective;
use cyclecover_solver::lower_bound::rho_formula;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests a timed phase sends at least, so its p99 has at least ten
/// samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Requests per round; `wall_s` is the mean round.
const ROUND: usize = 100;
/// One malformed line and one refused deadline every this many requests.
const DELIBERATE_EVERY: u64 = 100;
/// Lines between two measurements of the host references.
const REFERENCE_EVERY: usize = 10;

/// What a request stands for in the seeded mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// A complete certification on n = 6..12.
    Certify,
    /// `within_budget` at ρ+1.
    ProbeUp,
    /// `prove_infeasible` at ρ−1.
    ProbeDown,
    /// The `greedy-improve` heuristic.
    Greedy,
    /// A partial instance from the workload generators.
    Partial,
    /// A λ = 2 cover on n ≤ 7.
    Lambda,
    /// A C ≤ 4 or C ≤ 5 shortest-gap universe, never warmed up.
    Restricted,
    /// An exact repeat of one of the last few requests, under a new id.
    Repeat,
}

/// The mix, as (class, weight out of 28): `bench_daemon`'s equal rotation
/// over certifications, ρ+1 probes, greedy and partial jobs, extended by
/// the ρ−1, λ = 2 and restricted classes at the same share each, with
/// exact repeats at one request in four.
const MIX: [(Class, u32); 8] = [
    (Class::Certify, 3),
    (Class::ProbeUp, 3),
    (Class::ProbeDown, 3),
    (Class::Greedy, 3),
    (Class::Partial, 3),
    (Class::Lambda, 3),
    (Class::Restricted, 3),
    (Class::Repeat, 7),
];

/// A line on the wire and what its answer must be.
#[derive(Clone)]
enum Line {
    /// A well-formed request: `may_exhaust` says whether a node-cap
    /// exhaustion is an acceptable answer.
    Job {
        class: Class,
        job: SolveJob,
        may_exhaust: bool,
    },
    /// A truncated document; must come back as a `parse` reject.
    Malformed,
    /// A deadline the cost model refuses; must come back as a
    /// `predicted_unmeetable` reject.
    Refused,
}

struct Request {
    id: String,
    line: Line,
    text: String,
}

/// Draws from a fixed multiset in a seeded order, one shuffled deck at a
/// time: every deck's worth of draws holds exactly the same items, so two
/// seeds differ in order and detail but not in how much of each kind of
/// work they send.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        Deck { items, next: 0 }
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.next == 0 {
            self.items.shuffle(rng);
        }
        let item = self.items[self.next];
        self.next = (self.next + 1) % self.items.len();
        item
    }
}

/// The node cap of every complete certification. The warm-up and the
/// timed phase send the same documents, so after the warm-up the
/// certificate cache answers them: the planner re-asking known answers.
const CERTIFY_CAP: u64 = 2_000_000;

fn certify_job(id: &str, n: u32) -> SolveJob {
    let mut job = SolveJob::new(id, n);
    job.max_nodes = Some(CERTIFY_CAP);
    job
}

/// The seeded request stream.
struct Stream {
    rng: StdRng,
    seq: u64,
    recent: VecDeque<Line>,
    classes: Deck<Class>,
    /// Ring sizes, one deck per class.
    ring_sizes: Vec<Deck<u32>>,
    partial_kinds: Deck<u32>,
    tile_lengths: Deck<u32>,
    deadlines: Deck<bool>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let classes = MIX
            .iter()
            .flat_map(|&(c, w)| std::iter::repeat_n(c, w as usize))
            .collect();
        let ring_sizes = MIX
            .iter()
            .map(|&(c, _)| {
                Deck::new(if c == Class::Lambda {
                    (5..=7).collect()
                } else {
                    (6..=12).collect()
                })
            })
            .collect();
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x5e12_7e5e),
            seq: 0,
            recent: VecDeque::new(),
            classes: Deck::new(classes),
            ring_sizes,
            partial_kinds: Deck::new(vec![0, 1, 2]),
            tile_lengths: Deck::new(vec![4, 5]),
            deadlines: Deck::new(vec![true, false, false, false, false]),
        }
    }

    /// The next line: a deliberate one at fixed intervals, otherwise a
    /// request drawn from the mix.
    fn next(&mut self) -> Request {
        let slot = self.seq % DELIBERATE_EVERY;
        self.seq += 1;
        let id = format!("r{}", self.seq);
        if slot == DELIBERATE_EVERY - 1 {
            // No node cap: the model only refuses uncapped jobs, and a
            // refused job never runs.
            let mut job = SolveJob::new(id.clone(), 10);
            job.deadline_ms = Some(1);
            let text = request_to_json(&job);
            return Request {
                id,
                line: Line::Refused,
                text,
            };
        }
        if slot == DELIBERATE_EVERY / 2 {
            let text = format!("{{\"format\": \"cyclecover-request\", \"id\": \"{id}\", \"n\": ");
            return Request {
                id,
                line: Line::Malformed,
                text,
            };
        }
        let class = self.classes.draw(&mut self.rng);
        let line = match class {
            Class::Repeat if !self.recent.is_empty() => {
                let k = self.rng.gen_range(0..self.recent.len());
                match self.recent[k].clone() {
                    Line::Job {
                        job, may_exhaust, ..
                    } => Line::Job {
                        class,
                        job: SolveJob {
                            id: id.clone(),
                            ..job
                        },
                        may_exhaust,
                    },
                    other => other,
                }
            }
            _ => self.fresh(&id, class),
        };
        self.recent.push_back(line.clone());
        if self.recent.len() > 8 {
            self.recent.pop_front();
        }
        let Line::Job { job, .. } = &line else {
            unreachable!("the mix draws only jobs")
        };
        let text = request_to_json(job);
        Request { id, line, text }
    }

    /// A new job of `class`. Every exact job carries a node cap; outside
    /// complete certifications the cap's low digits vary, so equal shapes
    /// stay distinct requests (repeats, not coincidences, are what the
    /// certificate cache should serve).
    fn fresh(&mut self, id: &str, class: Class) -> Line {
        let slot = MIX
            .iter()
            .position(|&(c, _)| c == class)
            .expect("class in the mix");
        let n = self.ring_sizes[slot].draw(&mut self.rng);
        let rng = &mut self.rng;
        let mut job = SolveJob::new(id, n);
        let cap = |rng: &mut StdRng, base: u64| Some(base + rng.gen_range(0..1000u64));
        let mut may_exhaust = false;
        match class {
            Class::Certify | Class::Repeat => job = certify_job(id, n),
            Class::ProbeUp => {
                job.objective = Objective::WithinBudget(rho_formula(n) as u32 + 1);
                job.max_nodes = cap(rng, 200_000);
            }
            Class::ProbeDown => {
                job.objective = Objective::ProveInfeasible(rho_formula(n) as u32 - 1);
                job.max_nodes = cap(rng, 200_000);
            }
            Class::Greedy => job.engine = "greedy-improve".to_string(),
            Class::Partial => {
                let kind = self.partial_kinds.draw(rng);
                let graph = loop {
                    let g = match kind {
                        0 => cyclecover_workload::uniform_random(n as usize, 0.3, rng),
                        1 => cyclecover_workload::locality(n as usize, rng.gen_range(1..=2)),
                        _ => cyclecover_workload::permutation(n as usize, rng),
                    };
                    if !g.edges().is_empty() {
                        break g;
                    }
                };
                job.requests = Some(graph.edges().iter().map(|e| (e.u(), e.v())).collect());
                job.max_nodes = cap(rng, 2_000);
                may_exhaust = true;
            }
            Class::Lambda => {
                job.lambda = 2;
                job.max_nodes = cap(rng, 200_000);
            }
            Class::Restricted => {
                job.max_len = self.tile_lengths.draw(rng);
                job.max_gap = n / 2;
                // Most n >= 10 requests here exhaust their cap. A small
                // cap keeps them serving-path requests (the universe-cache
                // miss is the point) rather than kernel-bound outliers
                // that would set the p99 and move it with the host's speed.
                job.max_nodes = Some(rng.gen_range(1_000..=3_000));
                may_exhaust = true;
            }
        }
        if job.engine != "greedy-improve" && self.deadlines.draw(rng) {
            job.deadline_ms = Some(60_000);
        }
        Line::Job {
            class,
            job,
            may_exhaust,
        }
    }
}

/// The warm-up burst: one exact request per complete shape, n = 6..12.
fn warm_up() -> Vec<Request> {
    (6..=12u32)
        .map(|n| {
            let id = format!("w{n}");
            let job = certify_job(&id, n);
            let text = request_to_json(&job);
            Request {
                id,
                line: Line::Job {
                    class: Class::Certify,
                    job,
                    may_exhaust: false,
                },
                text,
            }
        })
        .collect()
}

/// The daemon's work for each line, in process: the public calls its
/// event loop (admission) and its dispatcher (submit, drain, emission)
/// make, on the benchmark's thread, without the socket and the 1 ms
/// ticks between them. Every admitted line is a generation of its own,
/// as a closed loop's single lines are in the daemon.
struct Pipeline {
    ingest: Ingest,
    service: SolveService,
    counts: DaemonCounts,
}

/// What the daemon's stats document would count.
#[derive(Default)]
struct DaemonCounts {
    rejected_parse: u64,
    rejected_predicted: u64,
    generations: u64,
    answered: u64,
    warm_lookups: u64,
    warm_hits: u64,
    predicted_nodes: u64,
    actual_nodes: u64,
}

impl Pipeline {
    /// A fresh daemon's state: `DaemonConfig::default()`, the built-in
    /// cost model and an in-memory certificate cache.
    fn new() -> Self {
        let cfg = DaemonConfig::default();
        let model = CostModel::builtin().clone();
        let mut service = SolveService::new(ServiceConfig {
            workers: cfg.workers,
            cache_bytes: cfg.cache_bytes,
            ..ServiceConfig::default()
        });
        service.set_cost_model(model.clone());
        service.set_cert_cache(CertCache::new());
        Pipeline {
            ingest: Ingest::new(Some(model), cfg.queue_depth),
            service,
            counts: DaemonCounts::default(),
        }
    }

    /// The answer line the daemon would write for `line`.
    fn answer(&mut self, line: &str) -> String {
        let c = &mut self.counts;
        let job = match self.ingest.admit(line, 0) {
            IngestAction::Submit(job, _) => job,
            IngestAction::Reject {
                id,
                reason,
                detail,
                prediction,
            } => {
                match reason {
                    "parse" => c.rejected_parse += 1,
                    "predicted_unmeetable" => c.rejected_predicted += 1,
                    _ => {}
                }
                return reject_json(id.as_deref(), reason, &detail, prediction);
            }
            _ => return reject_json(None, "admission", "not a request", None),
        };
        if c.generations > 0 {
            c.warm_lookups += 1;
            c.warm_hits += u64::from(self.service.universe_resident(job.universe_key()));
        }
        let id = job.id.clone();
        if let Err(e) = self.service.submit(*job) {
            return reject_json(Some(&id), "admission", &e, None);
        }
        let report = self.service.drain();
        c.generations += 1;
        match report.jobs.first() {
            Some(r) => match (&r.error, &r.solution) {
                (None, Some(sol)) => {
                    c.answered += 1;
                    if let (Some(p), false) = (r.predicted, r.coalesced) {
                        c.predicted_nodes += p.nodes;
                        c.actual_nodes += sol.stats().nodes;
                    }
                    to_single_line(&solution_to_json_with_id(
                        sol,
                        &r.id,
                        r.predicted.map(|p| p.nodes),
                    ))
                }
                (Some(e), _) => reject_json(Some(&r.id), "admission", e, None),
                (None, None) => reject_json(Some(&r.id), "admission", "no solution", None),
            },
            None => reject_json(Some(&id), "admission", "no report", None),
        }
    }
}

/// Checks one answer against its request; `Ok(Some(true))` for a verdict,
/// `Ok(Some(false))` for an accepted exhaustion, `Ok(None)` for a
/// deliberate line answered as it must be.
fn check(req: &Request, answer: &str) -> Result<Option<bool>, String> {
    let doc = Json::parse(answer)?;
    let format = doc.get("format").and_then(Json::as_str);
    let reason = doc.get("reason").and_then(Json::as_str);
    let (class, job, may_exhaust) = match &req.line {
        Line::Malformed if format == Some("cyclecover-reject") && reason == Some("parse") => {
            return Ok(None)
        }
        Line::Refused
            if format == Some("cyclecover-reject") && reason == Some("predicted_unmeetable") =>
        {
            return Ok(None)
        }
        Line::Job {
            class,
            job,
            may_exhaust,
        } => (class, job, *may_exhaust),
        _ => return Err(format!("{}: wrong reject {answer}", req.id)),
    };
    if format != Some("cyclecover-solution") {
        return Err(format!("{} ({class:?}): not a solution: {answer}", req.id));
    }
    let opt = doc.get("optimality");
    let kind = opt.and_then(|o| o.get("kind")).and_then(Json::as_str);
    let n = job.n;
    let complete = job.requests.is_none();
    let full = job.max_len == n && job.max_gap == n;
    let optimum = match (complete, job.lambda) {
        (true, 1) => Some(rho_formula(n)),
        (true, lam) => Some(lambda::capacity_lower_bound(n, lam)),
        (false, _) => None,
    };
    let size = doc.get("size").and_then(Json::as_num).map(|s| s as u64);
    let verdict = match (job.objective, kind) {
        (_, Some("budget_exhausted")) if may_exhaust => {
            let why = opt.and_then(|o| o.get("reason")).and_then(Json::as_str);
            return if why == Some("node_budget") {
                Ok(Some(false))
            } else {
                Err(format!("{}: exhausted by {why:?}", req.id))
            };
        }
        (Objective::FindOptimal, Some("feasible")) if job.engine == "greedy-improve" => {
            size >= optimum
        }
        (Objective::FindOptimal, Some("optimal")) => match optimum {
            Some(best) if full => size == Some(best),
            Some(best) => size >= Some(best),
            None => size >= Some(job.spec().capacity_lower_bound(Ring::new(n))),
        },
        (Objective::WithinBudget(b), Some("feasible")) => size.is_some_and(|s| s <= u64::from(b)),
        (Objective::ProveInfeasible(b), Some("infeasible")) => {
            return match optimum {
                Some(best) if full && u64::from(b) >= best => {
                    Err(format!("{}: budget {b} refuted, optimum {best}", req.id))
                }
                _ => Ok(Some(true)),
            };
        }
        _ => false,
    };
    if !verdict {
        return Err(format!("{} ({class:?}): wrong answer {answer}", req.id));
    }
    let covering = covering_from_solution_json(answer).map_err(|e| format!("{}: {e}", req.id))?;
    let ring = Ring::new(n);
    if covering
        .tiles()
        .iter()
        .any(|t| t.len() > job.max_len as usize || t.gaps(ring).iter().any(|&g| g > job.max_gap))
    {
        return Err(format!("{}: covering leaves its universe", req.id));
    }
    let coverage = covering.coverage();
    let demand = job.spec().demand;
    let short = demand
        .iter()
        .enumerate()
        .any(|(i, &d)| coverage.count(Edge::from_dense_index(i, n as usize)) < d);
    if short {
        return Err(format!("{}: covering misses demand", req.id));
    }
    Ok(Some(job.engine != "greedy-improve"))
}

/// One request's client-side record. The answer is checked on arrival
/// and dropped (and the request text kept only for a traced run's
/// replay), so the client's memory barely grows with the run and does
/// not blur `peak_rss_mb`.
struct Sent {
    /// The request's class; `None` for a deliberate malformed or
    /// refused line.
    class: Option<Class>,
    /// Busy time from handing the line over to holding the answer.
    latency: Duration,
    /// The kernel time the answer reports (`stats.wall_ms`), if any.
    kernel_ms: Option<f64>,
}

/// Runs serve-mixed.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut exact = 0u64;
    let mut conclusive = 0u64;
    // Checks one answer; `timed` answers also count toward
    // `conclusive_frac`.
    let mut tally = |req: &Request, answer: &str, timed: bool, out: &mut Outcome| {
        let Line::Job { job, .. } = &req.line else {
            if let Err(e) = check(req, answer) {
                out.failed += 1;
                out.violation(e);
            }
            return;
        };
        out.attempted += 1;
        let counted = timed && job.engine != "greedy-improve";
        exact += u64::from(counted);
        match check(req, answer) {
            Ok(verdict) => conclusive += u64::from(verdict == Some(true) && counted),
            Err(e) => {
                out.failed += 1;
                out.violation(e);
            }
        }
    };

    // Set-up: a fresh daemon state answers the warm-up burst.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut pipeline = None;
    for rep in 0..SETUP_REPS {
        drop(pipeline.take());
        let t = Instant::now();
        let mut p = Pipeline::new();
        let answers: Vec<String> = warm_up().iter().map(|r| p.answer(&r.text)).collect();
        let end = Instant::now();
        setups.push((end - t).as_secs_f64());
        tracer.span("setup", None, 0, format!("rep {rep}"), t, end);
        for (req, answer) in warm_up().iter().zip(&answers) {
            tally(req, answer, false, &mut out);
        }
        pipeline = Some(p);
    }
    let mut pipeline = pipeline.expect("at least one set-up");

    // Timed phase: the closed loop.
    let mut stream = Stream::new(cfg.seed);
    let mut reference = host::Reference::new();
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let (mut malformed, mut refused) = (0u64, 0u64);
    let mut texts = Vec::new();
    let mut sent: Vec<Sent> = Vec::new();
    // Busy time of every round, and wall time of untraced and traced ones.
    let mut rounds = Vec::new();
    let (mut untraced_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let traced = tracer.enabled;
    let timed = Instant::now();
    let (mut round_busy, mut round_start) = (Duration::ZERO, Instant::now());
    let mut in_round = 0usize;
    let mut jobs = 0usize;
    while jobs < MIN_REQUESTS || timed.elapsed() < cfg.seconds {
        // A traced run alternates traced and untraced rounds, so it can
        // report its own tracing overhead.
        tracer.enabled = traced && rounds.len() % 2 == 0;
        if sent.len().is_multiple_of(REFERENCE_EVERY) {
            reference.measure();
        }
        let request = stream.next();
        let at = Instant::now();
        let busy = host::Stopwatch::start();
        let answer = pipeline.answer(&request.text);
        let busy = busy.elapsed();
        let answered = Instant::now();
        tally(&request, &answer, true, &mut out);
        response_bytes += answer.len();
        let seq = request.id.trim_start_matches('r').parse().unwrap_or(0);
        tracer.span("request", None, seq, class_tag(&request.line), at, answered);
        let class = match &request.line {
            Line::Job { class, .. } => Some(*class),
            Line::Malformed => {
                malformed += 1;
                None
            }
            Line::Refused => {
                refused += 1;
                None
            }
        };
        request_bytes += request.text.len();
        if class.is_some() {
            jobs += 1;
            in_round += 1;
        }
        if traced {
            texts.push(request.text);
        }
        round_busy += busy;
        sent.push(Sent {
            class,
            latency: busy,
            kernel_ms: answer_wall_ms(&answer),
        });
        if in_round >= ROUND {
            rounds.push(round_busy.as_secs_f64());
            if tracer.enabled {
                &mut traced_rounds
            } else {
                &mut untraced_rounds
            }
            .push(round_start.elapsed().as_secs_f64());
            (round_busy, round_start, in_round) = (Duration::ZERO, Instant::now(), 0);
        }
    }
    tracer.enabled = traced;
    let timed_s = timed.elapsed().as_secs_f64();

    let counts = &pipeline.counts;
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            out.failed += 1;
            out.violation(format!("daemon counted {got} {what}, expected {want}"));
        }
    };
    expect("parse rejects", counts.rejected_parse, malformed);
    expect("predicted rejects", counts.rejected_predicted, refused);

    // End-to-end metrics: busy times, scaled to the nominal host.
    let host_factor = reference.factor();
    let (search_ms, walk_ms) = reference.medians();
    let jobs_sent: Vec<&Sent> = sent.iter().filter(|s| s.class.is_some()).collect();
    let latencies: Vec<f64> = jobs_sent
        .iter()
        .map(|s| ms(s.latency) * host_factor)
        .collect();
    let class_latencies = |c: Class| -> Vec<f64> {
        jobs_sent
            .iter()
            .filter(|s| s.class == Some(c))
            .map(|s| ms(s.latency) * host_factor)
            .collect()
    };
    let class_typical: Vec<f64> = MIX
        .iter()
        .map(|&(c, _)| stats::mean(&class_latencies(c)))
        .filter(|&m| m > 0.0)
        .collect();
    out.set("setup_s", stats::median(&setups));
    out.set("wall_s", stats::mean(&rounds) * host_factor);
    out.set(
        "jobs_per_s",
        stats::ratio(jobs_sent.len() as f64, latencies.iter().sum::<f64>() / 1e3),
    );
    out.set("latency_p50_ms", stats::median(&latencies));
    out.set("latency_p99_ms", stats::quantile(&latencies, 0.99));
    out.set("instance_geomean_ms", stats::geomean(&class_typical));
    out.set(
        "conclusive_frac",
        stats::ratio(conclusive as f64, exact as f64),
    );
    out.set(
        "validated_frac",
        stats::ratio(
            (out.attempted - out.failed.min(out.attempted)) as f64,
            out.attempted as f64,
        ),
    );
    out.set(
        "trace.overhead_frac",
        stats::ratio(stats::mean(&traced_rounds), stats::mean(&untraced_rounds)) - 1.0,
    );
    out.set("host.search_us", search_ms * 1e3);
    out.set("host.walk_us", walk_ms * 1e3);

    // Daemon-level per-layer figures, from the pipeline's counts.
    let kernel_ms: Vec<f64> = jobs_sent.iter().filter_map(|s| s.kernel_ms).collect();
    let (cert_entries, cert_hits, _) = pipeline
        .service
        .cert_cache_stats()
        .expect("the pipeline installs a certificate cache");
    out.set("certs.hits", cert_hits as f64);
    out.set("certs.entries", cert_entries as f64);
    out.set("daemon.generations", counts.generations as f64);
    out.set(
        "daemon.jobs_per_generation",
        stats::ratio(counts.answered as f64, counts.generations as f64),
    );
    out.set(
        "daemon.warm_hit_frac",
        stats::ratio(counts.warm_hits as f64, counts.warm_lookups as f64),
    );
    out.set("daemon.rejected_parse", counts.rejected_parse as f64);
    out.set(
        "daemon.rejected_predicted",
        counts.rejected_predicted as f64,
    );
    // No admission queue and no socket outbox in process.
    out.set("daemon.rejected_overload", 0.0);
    out.set("daemon.stalls", 0.0);
    out.set(
        "daemon.predicted_rel_err",
        stats::ratio(
            counts.predicted_nodes as f64 - counts.actual_nodes as f64,
            counts.actual_nodes as f64,
        ),
    );
    out.set("daemon.kernel_ms_p50", stats::median(&kernel_ms));
    out.set("predict.rejects", counts.rejected_predicted as f64);
    out.set(
        "json.request_bytes",
        stats::ratio(request_bytes as f64, sent.len() as f64),
    );
    out.set(
        "json.response_bytes",
        stats::ratio(response_bytes as f64, sent.len() as f64),
    );

    if traced {
        replay(&sent, &texts, tracer, &mut out);
    }

    eprintln!(
        "{} set-ups, {} requests ({} jobs) over {:.1} s timed, {:.1} s total",
        SETUP_REPS,
        sent.len(),
        jobs_sent.len(),
        timed_s,
        started.elapsed().as_secs_f64()
    );
    eprintln!(
        "host references: search {:.1} us, walk {:.1} us; times scaled by {:.4}",
        search_ms * 1e3,
        walk_ms * 1e3,
        host_factor
    );
    eprintln!(
        "latency over {} samples ({} beyond p99): p50 {:.4} ms, p99 {:.4} ms",
        latencies.len(),
        latencies.len() / 100,
        stats::median(&latencies),
        stats::quantile(&latencies, 0.99)
    );
    for &(c, _) in &MIX {
        let v = class_latencies(c);
        eprintln!(
            "  {:<11} {:>6} requests  p50 {:>9.4} ms  p99 {:>9.4} ms",
            format!("{c:?}"),
            v.len(),
            stats::median(&v),
            stats::quantile(&v, 0.99)
        );
    }
    out
}

fn class_tag(line: &Line) -> String {
    match line {
        Line::Job { class, .. } => format!("{class:?}"),
        Line::Malformed => "Malformed".into(),
        Line::Refused => "Refused".into(),
    }
}

/// The kernel time an answer reports (`stats.wall_ms`).
fn answer_wall_ms(answer: &str) -> Option<f64> {
    Json::parse(answer)
        .ok()?
        .get("stats")?
        .get("wall_ms")?
        .as_num()
}

/// The traced replay: the same lines, in order, through the public layer
/// calls the daemon makes — parse, admission, prediction, universe
/// lookup, submit, one drain per request, emission — each timed and
/// recorded as a span under the request's id.
fn replay(sent: &[Sent], texts: &[String], tracer: &mut Tracer, out: &mut Outcome) {
    let model = CostModel::builtin().clone();
    let ingest = Ingest::new(Some(model.clone()), DaemonConfig::default().queue_depth);
    let mut service = SolveService::new(ServiceConfig::default());
    service.set_cost_model(model.clone());
    service.set_cert_cache(CertCache::new());
    let mut universes = UniverseCache::new(DaemonConfig::default().cache_bytes);
    // The pipeline answered the warm-up burst before the timed phase;
    // replay it untimed so both caches hold what the pipeline's held.
    for r in warm_up() {
        let job = request_from_json(&r.text).expect("warm-up documents parse");
        universes.get_or_build(job.universe_key());
        service.submit(job).expect("warm-up documents are accepted");
    }
    let warm_cache = service.drain().stats.cache;
    let (mut parse_us, mut admit_us, mut predict_us, mut emit_us) =
        (vec![], vec![], vec![], vec![]);
    let mut own_us = vec![0.0; sent.len()];
    let mut queue_wait_ms = Vec::new();
    let (mut drain, mut build) = (Duration::ZERO, Duration::ZERO);
    let (mut coalesced, mut retries) = (0u64, 0u64);
    let (mut tiles, mut bytes) = (0u64, 0usize);
    let mut kernel = KernelTotals::default();
    let mut last_cache = None;
    let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
    for (k, text) in texts.iter().enumerate() {
        let seq = k as u64;
        let t0 = Instant::now();
        let parsed = request_from_json(text);
        let t1 = Instant::now();
        let action = ingest.admit(text, 0);
        let t2 = Instant::now();
        tracer.span("json.parse", None, seq, "", t0, t1);
        tracer.span("daemon.admit", None, seq, "", t1, t2);
        parse_us.push(us(t0, t1));
        admit_us.push(us(t1, t2));
        own_us[k] += us(t1, t2);
        let (Ok(job), IngestAction::Submit(..)) = (parsed, action) else {
            continue;
        };
        let t0 = Instant::now();
        std::hint::black_box(model.predict(&job));
        let t1 = Instant::now();
        let (universe, hit) = universes.get_or_build(job.universe_key());
        let t2 = Instant::now();
        tracer.span("predict", None, seq, "", t0, t1);
        tracer.span(
            "cache.get_or_build",
            None,
            seq,
            if hit { "hit" } else { "miss" },
            t1,
            t2,
        );
        predict_us.push(us(t0, t1));
        build += t2 - t1;
        if !hit {
            tiles += universe.len() as u64;
            bytes += universe.approx_bytes();
        }
        let (lambda, memo) = (
            job.lambda,
            job.memo.unwrap_or(true) && job.engine != "greedy-improve",
        );
        let t0 = Instant::now();
        if service.submit(job).is_err() {
            continue;
        }
        let t1 = Instant::now();
        let report = service.drain();
        let t2 = Instant::now();
        tracer.span("service.submit", None, seq, "", t0, t1);
        tracer.span("service.drain", None, seq, "", t1, t2);
        drain += t2 - t1;
        coalesced += report.stats.coalesced as u64;
        retries += report.stats.retries;
        last_cache = Some(report.stats.cache);
        for r in &report.jobs {
            queue_wait_ms.push(ms(r.queue_wait));
            let Some(sol) = &r.solution else { continue };
            if !r.coalesced && !sol.cached() {
                kernel.absorb(lambda, memo, sol.stats(), sol.optimality());
            }
            let t0 = Instant::now();
            std::hint::black_box(solution_to_json_with_id(
                sol,
                &r.id,
                r.predicted.map(|p| p.nodes),
            ));
            let t1 = Instant::now();
            tracer.span("json.emit", None, seq, "", t0, t1);
            emit_us.push(us(t0, t1));
            own_us[k] += us(t0, t1);
        }
    }

    out.set("json.parse_us", stats::median(&parse_us));
    out.set("json.emit_us", stats::median(&emit_us));
    out.set("daemon.admit_us", stats::median(&admit_us));
    out.set("predict.us", stats::median(&predict_us));
    out.set("service.drain_ms", ms(drain));
    out.set(
        "service.overhead_ms",
        ms(drain.saturating_sub(kernel.solve_wall())),
    );
    out.set("service.queue_wait_ms", stats::median(&queue_wait_ms));
    out.set("service.coalesced", coalesced as f64);
    out.set("service.retries", retries as f64);
    // The service's counters are cumulative; count the timed lines only.
    let cache = last_cache.unwrap_or(warm_cache);
    let (hits, misses) = (
        cache.hits - warm_cache.hits,
        cache.misses - warm_cache.misses,
    );
    out.set(
        "cache.hit_frac",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("cache.misses", misses as f64);
    out.set(
        "cache.evictions",
        (cache.evictions - warm_cache.evictions) as f64,
    );
    out.set("cache.build_ms", ms(build));
    out.set("tiles.enumerate_ms", ms(build));
    out.set("tiles.lazy_ms", 0.0);
    out.set("tiles.count", tiles as f64);
    out.set("tiles.universe_mb", bytes as f64 / f64::from(1 << 20));
    kernel.write(1.0, out);
    let waits: Vec<f64> = sent
        .iter()
        .zip(&own_us)
        .filter(|(s, _)| s.class.is_some())
        .map(|(s, own)| ms(s.latency) - s.kernel_ms.unwrap_or(0.0) - own / 1e3)
        .collect();
    out.set("daemon.wait_ms_p50", stats::median(&waits));
}

/// Sets every serving-layer metric to 0 for workloads that never call
/// into the serving layers.
pub fn zero_serving_layers(out: &mut Outcome) {
    for m in PER_LAYER {
        if [
            "json.", "predict.", "service.", "cache.", "certs.", "daemon.",
        ]
        .iter()
        .any(|p| m.name.starts_with(p))
        {
            out.set(m.name, 0.0);
        }
    }
}
