//! # cyclecover-cli
//!
//! The `cyclecover` command-line tool: construct, validate, audit,
//! render, and tabulate DRC cycle coverings from a shell. The command
//! surface is the library's operator-facing façade — everything it does
//! goes through the same public APIs the examples and experiments use.
//!
//! ```text
//! cyclecover solve <n> [flags]    run a solver engine, emit a certificate
//! cyclecover serve --batch <jobs.jsonl>  run a batch through the solve service
//! cyclecover engines              list the registered solver engines
//! cyclecover rho <n>              minimum covering size ρ(n)
//! cyclecover construct <n>        emit the optimal covering (text format)
//! cyclecover validate <file>      re-validate a covering (text or JSON)
//! cyclecover audit <n>            run the full survivability audit on C_n
//! cyclecover svg <n>              render the covering of K_n as SVG
//! cyclecover compare <n>          protection vs restoration capacity
//! cyclecover table <odd|even> <max_n>   regenerate a theorem table
//! ```
//!
//! `solve` is the front door to the [`cyclecover_solver::api`]
//! request/engine surface: it builds a [`Problem`], a [`SolveRequest`]
//! from the flags, dispatches to the named engine, and prints either a
//! human summary or the JSON wire format (`--json`) that `validate`
//! accepts back.
//!
//! `serve` is the front door to the
//! [`cyclecover_service`] batch service: it reads one
//! `cyclecover-request` document per line (see `docs/wire-format.md`),
//! schedules them earliest-deadline-first over the engine registry with
//! the universe cache and request coalescing, prints the batch summary
//! JSON, and (with `--out`) writes each job's solution document where
//! `validate` can re-check it.
//!
//! The dispatch logic lives in [`run`] (pure: arguments in, output
//! string out) so the whole surface is unit-testable without spawning
//! processes; `main` is a 10-line shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cyclecover_core::{construct_with_status, rho, Optimality};
use cyclecover_io::{csv::Table, format, json, svg};
use cyclecover_net::{audit_all_failures, compare_schemes, WdmNetwork};
use cyclecover_service::{
    batch_summary_json_with_rejects, daemon_stats_json, CertCache, Daemon, DaemonConfig, FaultPlan,
    ServiceConfig, SolveService,
};
use cyclecover_solver::api::{
    engine_by_name, engines, LowerBoundProof, Optimality as SolveOptimality, Problem, SolveRequest,
    SymmetryMode,
};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::time::Duration;

/// Usage text.
pub const USAGE: &str = "\
cyclecover — survivable WDM ring design by DRC cycle covering
  (reproduction of Bermond, Coudert, Chacon & Tillerot, SPAA 2001)

USAGE:
  cyclecover solve <n> [--engine E] [--budget K] [--max-nodes N]
                       [--deadline MS] [--symmetry off|root|full]
                       [--lambda L] [--no-memo] [--memo-mb M] [--json]
                                     solve/certify the covering of K_n on C_n
                                     (default: find + certify the optimum;
                                      --budget K asks for any <= K covering;
                                      --symmetry sets the dihedral reduction
                                      of the exact search, default root;
                                      --lambda L asks for a λ-fold covering
                                      — every request covered L times, L=2
                                      is a cycle double cover — on the
                                      packed lane and partition kernels
                                      (4-bit lanes for L <= 15, 16-bit
                                      lanes up to 65535, engine_limit
                                      beyond); a search stops at 4,096
                                      placed cycles with engine_limit (at
                                      n = 5, L <= 1365 certifies); an L
                                      whose capacity bound exceeds a u32
                                      budget is refused;
                                      --no-memo disables the residual-state
                                      dominance memo, --memo-mb caps its
                                      memory like the service universe cache,
                                      M >= 1 MiB)
  cyclecover serve --batch <jobs.jsonl | -> [--workers N] [--cache-mb M]
                       [--out DIR] [--retries R] [--backoff-ms B]
                       [--fault-plan plan.json] [--shared-memo]
                       [--cert-cache FILE]
                                     run a batch of request documents (one
                                     JSON per line; see docs/wire-format.md;
                                     `--batch -` reads the queue from stdin)
                                     through the batching solve service:
                                     EDF scheduling, universe cache, request
                                     coalescing, panic isolation, retry with
                                     backoff, and per-request fallback
                                     ladders (see docs/robustness.md).
                                     Malformed lines are reported per-line
                                     in the summary, not fatal. Prints the
                                     batch summary JSON; --out writes
                                     per-job solution documents that
                                     `validate` accepts; --fault-plan
                                     injects deterministic faults for chaos
                                     testing; --shared-memo shares one
                                     refutation store across a generation's
                                     workers and jobs; --cert-cache loads/
                                     saves a persistent certificate cache
                                     (repeat identical requests answer with
                                     zero search nodes, re-validated on
                                     load — never trusted blindly)
  cyclecover serve --listen <ip:port> [--workers N] [--cache-mb M]
                       [--max-conns C] [--queue-depth Q]
                       [--shared-memo] [--cert-cache FILE]
                                     run the always-on solve daemon: accept
                                     connections, stream newline-delimited
                                     request documents in and solution/
                                     reject documents out, with predictive
                                     admission (docs/wire-format.md has the
                                     framing rules and every document).
                                     Prints `listening on <addr>` once
                                     bound (port 0 picks a free port), and
                                     the final cyclecover-daemon-stats
                                     document after a graceful drain
  cyclecover client --connect <ip:port> [--jobs FILE|-] [--stats]
                       [--shutdown]  stream a jobs file (or stdin) to a
                                     running daemon and print each response
                                     line; --stats appends a stats control,
                                     --shutdown asks the daemon to drain
                                     gracefully and prints its final stats
                                     (send it on a connection of its own:
                                     the drain would cancel jobs sent
                                     beside it, so --jobs with --shutdown
                                     is refused)
  cyclecover engines [--json]        list the registered solver engines
                                     (--json: machine-readable listing with
                                     per-objective capability probes)
  cyclecover rho <n>                 print the optimal covering size ρ(n)
  cyclecover construct <n>           emit a minimum covering in text format
  cyclecover validate <file>         re-validate a covering file (text or
                                     solution JSON from `solve --json`)
  cyclecover audit <n>               exhaustive single-link failure audit on C_n
  cyclecover svg <n>                 render the covering of K_n over C_n as SVG
  cyclecover compare <n>             protection vs restoration capacity on C_n
  cyclecover loading <n>             ring loading baseline (min max link load)
  cyclecover avail <n>               availability gain of protection on C_n
  cyclecover table <odd|even> <max>  regenerate Theorem 1/2 rows up to n = max

Ring sizes run 3..=1024; construct takes up to 8192 and rho any n >= 3.
";

/// Runs the `solve` subcommand: flags → [`SolveRequest`] → engine →
/// rendered [`cyclecover_solver::api::Solution`].
fn run_solve(args: &[String]) -> Result<String, String> {
    let n = parse_ring(args.first())?;
    let mut engine_name = "bitset".to_string();
    let mut budget: Option<u32> = None;
    let mut max_nodes: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut symmetry: Option<SymmetryMode> = None;
    let mut lambda = 1u32;
    let mut memo = true;
    let mut memo_mb: Option<u64> = None;
    let mut as_json = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--engine" => engine_name = value("an engine name")?,
            "--budget" => {
                budget = Some(
                    value("a tile budget")?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                )
            }
            "--max-nodes" => {
                max_nodes = Some(
                    value("a node count")?
                        .parse()
                        .map_err(|e| format!("bad --max-nodes: {e}"))?,
                )
            }
            "--deadline" => {
                deadline_ms = Some(
                    value("milliseconds")?
                        .parse()
                        .map_err(|e| format!("bad --deadline: {e}"))?,
                )
            }
            "--symmetry" => {
                symmetry = Some(match value("off|root|full")?.as_str() {
                    "off" => SymmetryMode::Off,
                    "root" => SymmetryMode::Root,
                    "full" => SymmetryMode::Full,
                    other => return Err(format!("bad --symmetry '{other}' (want off|root|full)")),
                })
            }
            "--lambda" => {
                lambda = value("a covering multiplicity")?
                    .parse()
                    .map_err(|e| format!("bad --lambda: {e}"))?;
                if lambda == 0 {
                    return Err("--lambda must be >= 1".into());
                }
            }
            "--no-memo" => memo = false,
            "--memo-mb" => {
                let mb = value("a size in MiB")?
                    .parse()
                    .map_err(|e| format!("bad --memo-mb: {e}"))?;
                memo_mb = Some(json::check_memo_mb(mb).map_err(|e| format!("bad --memo-mb: {e}"))?);
            }
            "--json" => as_json = true,
            other => return Err(format!("unknown solve flag '{other}'")),
        }
    }
    let mut request = match budget {
        Some(k) => SolveRequest::within_budget(k),
        None => SolveRequest::find_optimal(),
    };
    if let Some(nodes) = max_nodes {
        request = request.with_max_nodes(nodes);
    }
    if let Some(ms) = deadline_ms {
        request = request.with_deadline(Duration::from_millis(ms));
    }
    if let Some(sym) = symmetry {
        request = request.with_symmetry(sym);
    }
    request = request.with_memo(memo);
    if let Some(mb) = memo_mb {
        request = request.with_memo_budget_bytes((mb as usize) << 20);
    }
    let engine = engine_by_name(&engine_name).ok_or_else(|| {
        let names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
        format!(
            "unknown engine '{engine_name}' (have: {})",
            names.join(", ")
        )
    })?;
    let problem = if lambda > 1 {
        let ring = cyclecover_ring::Ring::new(n);
        cyclecover_solver::lower_bound::lambda_budget(ring, ring.total_pair_distance(), lambda)?;
        Problem::new(
            cyclecover_solver::TileUniverse::new(ring, n as usize),
            cyclecover_solver::bnb::CoverSpec::lambda_fold(n, lambda),
        )
    } else {
        Problem::complete(n)
    };
    if !engine.supports(&problem, &request) {
        return Err(format!(
            "engine '{engine_name}' does not support this problem/request"
        ));
    }
    let solution = engine.solve(&problem, &request);
    if as_json {
        return Ok(json::solution_to_json(&solution));
    }
    let mut out = String::new();
    if lambda > 1 {
        let _ = writeln!(out, "n = {n}, lambda = {lambda}, engine = {engine_name}");
    } else {
        let _ = writeln!(out, "n = {n}, engine = {engine_name}");
    }
    let rho_name = if lambda > 1 {
        format!("rho_{lambda}({n})")
    } else {
        format!("rho({n})")
    };
    match solution.optimality() {
        SolveOptimality::Optimal { lower_bound_proof } => {
            let _ = writeln!(
                out,
                "OPTIMAL: {} cycles ({rho_name} certified)",
                solution.size().expect("optimal solutions carry coverings")
            );
            match lower_bound_proof {
                LowerBoundProof::CombinatorialBound { bound } => {
                    let _ = writeln!(out, "lower bound: combinatorial bound = {bound}");
                }
                LowerBoundProof::ExhaustiveSearch {
                    infeasible_budget,
                    nodes,
                    symmetry_factor,
                } => {
                    let _ = writeln!(
                        out,
                        "lower bound: budget {infeasible_budget} proved infeasible \
                         ({nodes} nodes, symmetry x{symmetry_factor})"
                    );
                }
            }
        }
        SolveOptimality::Feasible => {
            let _ = writeln!(
                out,
                "FEASIBLE: {} cycles (optimality not established)",
                solution.size().expect("feasible solutions carry coverings")
            );
        }
        SolveOptimality::Infeasible => {
            let _ = writeln!(out, "INFEASIBLE: no covering within the requested budget");
        }
        SolveOptimality::BudgetExhausted { reason } => {
            let _ = writeln!(out, "INCONCLUSIVE: stopped by {reason:?}");
        }
        SolveOptimality::Failed { kind } => {
            let _ = writeln!(out, "FAILED: terminal {kind:?} failure");
        }
    }
    let st = solution.stats();
    let _ = writeln!(
        out,
        "stats: {} nodes, {} pruned, {} dominated, {} sym-pruned (x{}), \
         {} canon-pruned, memo {} hits / {} entries, {} budget(s), {:.1} ms",
        st.nodes,
        st.pruned,
        st.dominated,
        st.sym_pruned,
        st.sym_factor,
        st.canon_pruned,
        st.memo_hits,
        st.memo_entries,
        st.budgets_tried,
        st.wall.as_secs_f64() * 1e3
    );
    if st.partition_probes > 0 {
        let _ = writeln!(
            out,
            "route: partition kernel served {} of {} budget probe(s)",
            st.partition_probes, st.budgets_tried
        );
    }
    if let Some(tiles) = solution.covering() {
        for t in tiles {
            out.push_str("cycle");
            for v in t.vertices() {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
    }
    Ok(out)
}

/// Loads a persisted certificate cache for `serve --cert-cache`. A
/// missing file is an empty cache (first run creates it); an unreadable
/// or structurally-broken document is an error, but individually
/// tampered entries inside a well-formed document are dropped and
/// counted by the cache itself (see `docs/robustness.md`).
fn load_cert_cache(path: &str) -> Result<CertCache, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => CertCache::from_json(&text).map_err(|e| format!("{path}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(CertCache::new()),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    }
}

/// Runs the `serve` subcommand in one of two modes: `--batch` pushes a
/// `.jsonl` file (or stdin, with `-`) through [`SolveService`] and
/// returns the batch summary JSON; `--listen` runs the always-on
/// [`Daemon`] until a client asks it to drain, then returns the final
/// daemon-stats document. The listen path prints the bound address
/// eagerly (before blocking) so scripts can scrape the port.
fn run_serve(args: &[String]) -> Result<String, String> {
    let mut batch: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut workers = 1usize;
    let mut cache_mb = 64usize;
    let mut max_conns: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut out_dir: Option<String> = None;
    let mut fault_plan: Option<String> = None;
    let mut retries: Option<u32> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut shared_memo = false;
    let mut cert_cache_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--batch" => batch = Some(value("a jobs file")?),
            "--listen" => listen = Some(value("an ip:port address")?),
            "--workers" => {
                workers = value("a thread count")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--cache-mb" => {
                cache_mb = value("a size in MiB")?
                    .parse()
                    .map_err(|e| format!("bad --cache-mb: {e}"))?;
            }
            "--max-conns" => {
                max_conns = Some(
                    value("a connection limit")?
                        .parse()
                        .map_err(|e| format!("bad --max-conns: {e}"))?,
                )
            }
            "--queue-depth" => {
                let depth: usize = value("a queue depth")?
                    .parse()
                    .map_err(|e| format!("bad --queue-depth: {e}"))?;
                if depth == 0 {
                    return Err("--queue-depth must be >= 1".into());
                }
                queue_depth = Some(depth);
            }
            "--out" => out_dir = Some(value("a directory")?),
            "--shared-memo" => shared_memo = true,
            "--cert-cache" => cert_cache_path = Some(value("a cache file")?),
            "--fault-plan" => fault_plan = Some(value("a fault-plan JSON file")?),
            "--retries" => {
                retries = Some(
                    value("a retry count")?
                        .parse()
                        .map_err(|e| format!("bad --retries: {e}"))?,
                )
            }
            "--backoff-ms" => {
                backoff_ms = Some(
                    value("milliseconds")?
                        .parse()
                        .map_err(|e| format!("bad --backoff-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }
    if let Some(addr_spec) = listen {
        if batch.is_some() {
            return Err("--listen and --batch are separate modes; pick one".into());
        }
        for (set, flag) in [
            (out_dir.is_some(), "--out"),
            (fault_plan.is_some(), "--fault-plan"),
            (retries.is_some(), "--retries"),
            (backoff_ms.is_some(), "--backoff-ms"),
        ] {
            if set {
                return Err(format!("{flag} applies to --batch mode only"));
            }
        }
        let addr: std::net::SocketAddr = addr_spec
            .parse()
            .map_err(|e| format!("bad --listen address '{addr_spec}': {e}"))?;
        let mut config = DaemonConfig {
            workers,
            cache_bytes: cache_mb.saturating_mul(1 << 20),
            ..DaemonConfig::default()
        };
        if let Some(c) = max_conns {
            config.max_conns = c;
        }
        if let Some(q) = queue_depth {
            config.queue_depth = q;
        }
        let mut daemon =
            Daemon::bind(addr, config).map_err(|e| format!("cannot listen on {addr_spec}: {e}"))?;
        daemon.set_shared_memo(shared_memo);
        if let Some(path) = cert_cache_path {
            daemon.set_cert_cache(
                load_cert_cache(&path)?,
                Some(std::path::PathBuf::from(&path)),
            );
        }
        let bound = daemon
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        // Announce the port before blocking — `--listen 127.0.0.1:0`
        // binds an ephemeral port and scripts scrape this line.
        println!("listening on {bound}");
        let _ = std::io::stdout().flush();
        let stats = daemon.run();
        return Ok(format!("{}\n", daemon_stats_json(&stats)));
    }
    if max_conns.is_some() || queue_depth.is_some() {
        return Err("--max-conns/--queue-depth apply to --listen mode only".into());
    }
    let path = batch.ok_or("serve needs --batch <jobs.jsonl> or --listen <ip:port>")?;
    let text = if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let mut config = ServiceConfig {
        workers,
        cache_bytes: cache_mb.saturating_mul(1 << 20),
        shared_memo,
        ..ServiceConfig::default()
    };
    if let Some(r) = retries {
        config.max_attempts = r.saturating_add(1);
    }
    if let Some(ms) = backoff_ms {
        config.backoff_base_ms = ms;
    }
    let mut service = SolveService::new(config);
    if let Some(path) = &cert_cache_path {
        service.set_cert_cache(load_cert_cache(path)?);
    }
    if let Some(plan_path) = fault_plan {
        let plan_text = std::fs::read_to_string(&plan_path)
            .map_err(|e| format!("cannot read {plan_path}: {e}"))?;
        let plan = FaultPlan::from_json(&plan_text).map_err(|e| format!("{plan_path}: {e}"))?;
        service.set_fault_plan(plan);
    }
    // A malformed or unadmittable line rejects that line, not the batch:
    // rejects are reported per-line in the summary document.
    let mut rejects: Vec<(usize, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match json::request_from_json(line).and_then(|job| service.submit(job)) {
            Ok(_) => {}
            Err(e) => rejects.push((i + 1, e)),
        }
    }
    if service.queued() == 0 {
        let detail = rejects
            .first()
            .map(|(line, e)| format!(" (first reject at {path}:{line}: {e})"))
            .unwrap_or_default();
        return Err(format!("{path}: no request documents admitted{detail}"));
    }
    let report = service.drain();
    if let Some(path) = &cert_cache_path {
        if let Some(doc) = service.cert_cache_json() {
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for job in &report.jobs {
            if let Some(sol) = &job.solution {
                let file = format!("{dir}/{}.json", job.id);
                std::fs::write(&file, json::solution_to_json(sol))
                    .map_err(|e| format!("cannot write {file}: {e}"))?;
            }
        }
    }
    Ok(batch_summary_json_with_rejects(&report, &rejects))
}

/// Runs the `client` subcommand: stream a jobs file (or stdin) to a
/// running daemon over TCP, optionally append a `stats` control
/// document, or send a `stats`/`shutdown` control on a connection of its
/// own, half-close, and return every response line the daemon sends
/// back (the daemon closes the connection once every streamed job has
/// its terminal document). The daemon answers each non-blank, non-`#`
/// line with exactly one line, so a connection that closes with fewer
/// answers is an error. Jobs and a shutdown on one connection are
/// refused before connecting: the drain cancels the jobs before their
/// generation runs, so none of them would be solved.
fn run_client(args: &[String]) -> Result<String, String> {
    let mut connect: Option<String> = None;
    let mut jobs: Option<String> = None;
    let mut stats = false;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--connect" => connect = Some(value("an ip:port address")?),
            "--jobs" => jobs = Some(value("a jobs file")?),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown client flag '{other}'")),
        }
    }
    let addr = connect.ok_or("client needs --connect <ip:port>")?;
    if jobs.is_some() && shutdown {
        return Err(
            "--jobs and --shutdown cannot share a connection: the drain would \
                    answer every job unstarted; send --shutdown on a connection of its own"
                .into(),
        );
    }
    let mut payload = String::new();
    if let Some(path) = jobs {
        let text = if path == "-" {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            text
        } else {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        };
        payload.push_str(&text);
        if !payload.is_empty() && !payload.ends_with('\n') {
            payload.push('\n');
        }
    }
    if stats {
        payload
            .push_str("{\"format\": \"cyclecover-control\", \"version\": 1, \"op\": \"stats\"}\n");
    }
    if shutdown {
        payload.push_str(
            "{\"format\": \"cyclecover-control\", \"version\": 1, \"op\": \"shutdown\"}\n",
        );
    }
    if payload.is_empty() {
        return Err("client needs --jobs <file>, --stats, or --shutdown".into());
    }
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("socket: {e}"))?;
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    // Half-close: tells the daemon this stream is complete, so it can
    // close the connection once the last answer is flushed.
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("socket: {e}"))?;
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .map_err(|e| format!("reading responses from {addr}: {e}"))?;
    let sent = payload
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    let answered = out.lines().count();
    if answered < sent {
        let mut err = format!("connection closed after {answered} of {sent} answers");
        if answered > 0 {
            err.push_str(":\n");
            err.push_str(out.trim_end());
        }
        return Err(err);
    }
    Ok(out)
}

/// Renders the engine registry as the machine-readable
/// `cyclecover-engines` document: one entry per engine with
/// `supports()` probed for each objective on a representative problem.
fn engines_json() -> String {
    let problem = Problem::complete(8);
    let probes = [
        ("find_optimal", SolveRequest::find_optimal()),
        ("within_budget", SolveRequest::within_budget(9)),
        ("prove_infeasible", SolveRequest::prove_infeasible(8)),
    ];
    let mut out = String::new();
    out.push_str("{\n  \"format\": \"cyclecover-engines\",\n  \"version\": 1,\n  \"engines\": [\n");
    let all = engines();
    for (i, e) in all.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": {},", json::quote(e.name()));
        let _ = writeln!(
            out,
            "      \"description\": {},",
            json::quote(e.description())
        );
        let caps: Vec<String> = probes
            .iter()
            .map(|(name, req)| format!("\"{name}\": {}", e.supports(&problem, req)))
            .collect();
        let _ = writeln!(out, "      \"supports\": {{{}}}", caps.join(", "));
        let _ = writeln!(out, "    }}{}", if i + 1 < all.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Executes a command line (without the program name); returns the
/// output to print on success or an error message.
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("solve") => run_solve(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("client") => run_client(&args[1..]),
        Some("engines") => match args.get(1).map(String::as_str) {
            Some("--json") => Ok(engines_json()),
            Some(other) => Err(format!("unknown engines flag '{other}' (only --json)")),
            None => {
                let mut out = String::new();
                for e in engines() {
                    let _ = writeln!(out, "{:16} {}", e.name(), e.description());
                }
                Ok(out)
            }
        },
        Some("rho") => {
            let n = parse_n(args.get(1))?;
            Ok(format!("{}\n", rho(n)))
        }
        Some("construct") => {
            let n = parse_n(args.get(1))?;
            if n > CONSTRUCT_MAX_N {
                return Err(format!(
                    "ring size n = {n} out of range 3..={CONSTRUCT_MAX_N}"
                ));
            }
            let (cover, status) = construct_with_status(n);
            cover.validate().map_err(|e| format!("internal: {e}"))?;
            let mut out = format::to_text(&cover);
            if let Optimality::Excess(x) = status {
                let _ = writeln!(
                    out,
                    "# note: {x} cycle(s) above rho(n) = {} (documented n ≡ 0 mod 8 gap)",
                    rho(n)
                );
            }
            Ok(out)
        }
        Some("validate") => {
            let path = args.get(1).ok_or("validate needs a file path")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // Solution JSON (from `solve --json`) or the v1 text format.
            let cover = if text.trim_start().starts_with('{') {
                json::covering_from_solution_json(&text)?
            } else {
                format::from_text(&text).map_err(|e| e.to_string())?
            };
            match cover.validate() {
                Ok(()) => Ok(format!(
                    "OK: {} cycles cover K_{} over C_{} (rho = {})\n",
                    cover.len(),
                    cover.ring().n(),
                    cover.ring().n(),
                    rho(cover.ring().n())
                )),
                Err(e) => Err(format!("INVALID: {e}")),
            }
        }
        Some("audit") => {
            let n = parse_ring(args.get(1))?;
            let (cover, _) = construct_with_status(n);
            let net = WdmNetwork::from_covering(&cover);
            let audit = audit_all_failures(&net);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "ring C_{n}: {} subnetworks, {} wavelengths",
                audit.subnets,
                2 * audit.subnets
            );
            let _ = writeln!(out, "failures simulated: {n} (every link)");
            let _ = writeln!(out, "reroutes executed:  {}", audit.total_reroutes);
            let _ = writeln!(out, "fully survivable:   {}", audit.fully_survivable);
            let _ = writeln!(out, "max stretch:        {:.2}", audit.max_stretch);
            let _ = writeln!(out, "mean detour length: {:.2}", audit.mean_protection_len);
            if audit.fully_survivable {
                Ok(out)
            } else {
                Err(format!("{out}AUDIT FAILED"))
            }
        }
        Some("svg") => {
            let n = parse_ring(args.get(1))?;
            let (cover, _) = construct_with_status(n);
            Ok(svg::render_covering(&cover, &svg::SvgOptions::default()))
        }
        Some("compare") => {
            let n = parse_ring(args.get(1))?;
            let cmp = compare_schemes(n);
            let mut out = String::new();
            let _ = writeln!(out, "n = {n}");
            let _ = writeln!(
                out,
                "protection (2·rho(n)) wavelengths: {}",
                cmp.protection_wavelengths
            );
            let _ = writeln!(
                out,
                "working capacity (no failures):    {}",
                cmp.working_capacity
            );
            let _ = writeln!(
                out,
                "restoration capacity (any link):   {}",
                cmp.restoration_capacity
            );
            let _ = writeln!(
                out,
                "protection / restoration:          {:.2}",
                cmp.protection_over_restoration
            );
            Ok(out)
        }
        Some("loading") => {
            let n = parse_ring(args.get(1))?;
            use cyclecover_ring::loading as rl;
            use cyclecover_ring::Ring;
            let ring = Ring::new(n);
            let demands = rl::all_to_all_demands(ring);
            let s = rl::shortest_loading(ring, &demands);
            let ls = rl::local_search_loading(ring, &demands);
            let mut out = String::new();
            let _ = writeln!(out, "C_{n}, all-to-all ({} demands)", demands.len());
            let _ = writeln!(
                out,
                "capacity lower bound: {}",
                rl::loading_lower_bound(ring, &demands)
            );
            let _ = writeln!(out, "shortest-arc routing: {}", s.max_load);
            let _ = writeln!(out, "local search:         {}", ls.max_load);
            if n <= 10 {
                match rl::optimal_loading(ring, &demands, 100_000_000) {
                    Some(o) => {
                        let _ = writeln!(out, "exact optimum:        {}", o.max_load);
                    }
                    None => {
                        let _ = writeln!(out, "exact optimum:        (budget exhausted)");
                    }
                }
            }
            Ok(out)
        }
        Some("avail") => {
            let n = parse_ring(args.get(1))?;
            use cyclecover_net::{availability_comparison, LinkModel};
            let (cover, _) = construct_with_status(n);
            let net = WdmNetwork::from_covering(&cover);
            let cmp = availability_comparison(&net, LinkModel::typical_fiber());
            let mut out = String::new();
            let _ = writeln!(out, "C_{n}, typical fiber (MTBF 4 months, MTTR 12 h)");
            let _ = writeln!(
                out,
                "per-link unavailability:   {:.3e}",
                cmp.link_unavailability
            );
            let _ = writeln!(
                out,
                "unprotected demand:        {:.3e} mean ({:.2} nines)",
                cmp.unprotected.mean_unavailability,
                cmp.unprotected.nines()
            );
            let _ = writeln!(
                out,
                "cycle-protected demand:    {:.3e} mean ({:.2} nines)",
                cmp.protected.mean_unavailability,
                cmp.protected.nines()
            );
            let _ = writeln!(out, "improvement:               {:.0}x", cmp.improvement);
            Ok(out)
        }
        Some("table") => {
            let kind = args.get(1).map(String::as_str);
            let max = parse_ring(args.get(2))?;
            let mut t = Table::new(["n", "rho(n)", "constructed", "status"]);
            let range: Vec<u32> = match kind {
                Some("odd") => (3..=max).filter(|n| n % 2 == 1).collect(),
                Some("even") => (6..=max).filter(|n| n % 2 == 0).collect(),
                _ => return Err("table needs 'odd' or 'even' and a max n".into()),
            };
            for n in range {
                let (cover, status) = construct_with_status(n);
                cover.validate().map_err(|e| format!("n={n}: {e}"))?;
                t.push([
                    n.to_string(),
                    rho(n).to_string(),
                    cover.len().to_string(),
                    match status {
                        Optimality::Optimal => "optimal".to_string(),
                        Optimality::Excess(x) => format!("+{x}"),
                    },
                ]);
            }
            Ok(t.to_ascii())
        }
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

/// The largest ring `construct` builds. Its coverings grow as `n²`:
/// n = 4,096 takes 0.86 s and 201 MB at peak, n = 8,192 5.2 s and
/// 735 MB.
const CONSTRUCT_MAX_N: u32 = 8192;

/// Parses `<n>`: any ring size `n ≥ 3`. `rho`, a closed form, takes it
/// as is; `construct` checks it against [`CONSTRUCT_MAX_N`].
fn parse_n(arg: Option<&String>) -> Result<u32, String> {
    let s = arg.ok_or("missing <n> argument")?;
    let n: u32 = s.parse().map_err(|e| format!("bad n '{s}': {e}"))?;
    if n < 3 {
        return Err(format!("n must be >= 3, got {n}"));
    }
    Ok(n)
}

/// Parses the `<n>` of a command that searches or simulates the ring:
/// `3..=`[`Ring::MAX_N`](cyclecover_ring::Ring::MAX_N), with the
/// message every document parser gives
/// ([`Ring::try_new`](cyclecover_ring::Ring::try_new)).
fn parse_ring(arg: Option<&String>) -> Result<u32, String> {
    Ok(cyclecover_ring::Ring::try_new(parse_n(arg)?.into())?.n())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runv(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rho_command() {
        assert_eq!(runv(&["rho", "9"]).unwrap(), "10\n");
        assert_eq!(runv(&["rho", "13"]).unwrap(), "21\n");
    }

    #[test]
    fn solve_certifies_small_optimum() {
        let out = runv(&["solve", "6"]).unwrap();
        assert!(out.contains("OPTIMAL: 5 cycles"), "{out}");
        assert!(out.contains("lower bound"), "{out}");
        assert_eq!(out.matches("cycle ").count(), 5, "{out}");
    }

    #[test]
    fn solve_json_round_trips_through_validate() {
        let text = runv(&["solve", "6", "--json"]).unwrap();
        assert!(text.contains("\"cyclecover-solution\""), "{text}");
        let path = std::env::temp_dir().join("cyclecover_cli_test_solve6.json");
        std::fs::write(&path, &text).unwrap();
        let out = runv(&["validate", path.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("OK: 5 cycles"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_lambda_flag_certifies_double_cover_and_validates() {
        // ρ₂(6) = 9: the double cover sits exactly at the capacity bound
        // ⌈2·27/6⌉, so the optimum is certified by a combinatorial bound
        // and the human output names ρ₂ explicitly.
        let out = runv(&["solve", "6", "--lambda", "2"]).unwrap();
        assert!(out.contains("lambda = 2"), "{out}");
        assert!(
            out.contains("OPTIMAL: 9 cycles (rho_2(6) certified)"),
            "{out}"
        );
        assert_eq!(out.matches("cycle ").count(), 9, "{out}");
        // The λ-fold solution document passes `cyclecover validate`
        // (every request covered ≥ 2 ≥ 1 times).
        let text = runv(&["solve", "6", "--lambda", "2", "--json"]).unwrap();
        let path = std::env::temp_dir().join("cyclecover_cli_test_lambda6.json");
        std::fs::write(&path, &text).unwrap();
        let ok = runv(&["validate", path.to_str().unwrap()]).unwrap();
        assert!(ok.starts_with("OK: 9 cycles"), "{ok}");
        std::fs::remove_file(&path).ok();
        // Flag validation.
        let err = runv(&["solve", "6", "--lambda", "0"]).unwrap_err();
        assert!(err.contains("--lambda must be >= 1"), "{err}");
        let err = runv(&["solve", "6", "--lambda", "many"]).unwrap_err();
        assert!(err.contains("bad --lambda"), "{err}");
    }

    /// A multiplicity whose capacity bound does not fit a `u32` budget
    /// once sent the optimum sweep climbing through billions of
    /// root-pruned probes; now it is refused before any universe is
    /// built, with the request parser's message.
    #[test]
    fn solve_refuses_a_lambda_past_the_u32_budget() {
        let err = runv(&["solve", "5", "--lambda", "4000000000"]).unwrap_err();
        assert_eq!(
            err,
            "lambda = 4000000000 is too large: a covering needs at least 12000000000 cycles, \
             more than a u32 budget counts"
        );
        let line =
            r#"{"format": "cyclecover-request", "version": 1, "n": 5, "lambda": 4000000000}"#;
        assert_eq!(json::request_from_json(line).unwrap_err(), err);
    }

    #[test]
    fn solve_lambda_low_slack_probes_take_the_partition_route() {
        // ρ₂(8) = 16 sits exactly at the capacity bound (2·64/8), so the
        // first deepening probe has zero waste slack and the sequential
        // dispatch hands it to the partition kernel; the route is
        // visible provenance in both the human and JSON renderings.
        let out = runv(&["solve", "8", "--lambda", "2"]).unwrap();
        assert!(
            out.contains("OPTIMAL: 16 cycles (rho_2(8) certified)"),
            "{out}"
        );
        assert!(
            out.contains("route: partition kernel served 1 of 1 budget probe(s)"),
            "{out}"
        );
        let json = runv(&["solve", "8", "--lambda", "2", "--json"]).unwrap();
        assert!(json.contains("\"partition_probes\": 1"), "{json}");
        // A roomy budget keeps the λ-fold lane kernel in charge: no
        // probe reroutes, and the provenance says so.
        let out = runv(&["solve", "8", "--lambda", "2", "--budget", "20"]).unwrap();
        assert!(out.contains("FEASIBLE"), "{out}");
        assert!(!out.contains("route: partition"), "{out}");
        // The dedicated engines answer the same question explicitly.
        let out = runv(&["solve", "8", "--lambda", "2", "--engine", "partition"]).unwrap();
        assert!(out.contains("OPTIMAL: 16 cycles"), "{out}");
        let out = runv(&["solve", "8", "--lambda", "2", "--engine", "dlx"]).unwrap();
        assert!(out.contains("OPTIMAL: 16 cycles"), "{out}");
    }

    #[test]
    fn solve_budget_and_engines() {
        // An infeasible budget must say so.
        let out = runv(&["solve", "6", "--budget", "4"]).unwrap();
        assert!(out.contains("INFEASIBLE"), "{out}");
        // Heuristic engines answer FEASIBLE, never OPTIMAL.
        let out = runv(&["solve", "9", "--engine", "greedy-improve"]).unwrap();
        assert!(out.contains("FEASIBLE"), "{out}");
        // DLX partitions the odd case optimally.
        let out = runv(&["solve", "9", "--engine", "dlx"]).unwrap();
        assert!(out.contains("OPTIMAL: 10 cycles"), "{out}");
        // The registry listing names every engine, and no longer the
        // retired `legacy` reference search.
        let listing = runv(&["engines"]).unwrap();
        for name in ["bitset", "dlx", "partition", "greedy", "anneal"] {
            assert!(listing.contains(name), "{listing}");
        }
        assert!(!listing.contains("legacy"), "{listing}");
    }

    #[test]
    fn solve_symmetry_flag() {
        // Default (root): the parity bound turns the budget-8 refutation
        // into a one-node proof, and the witness search reports the
        // order-4 dihedral root reduction in the stats line.
        let out = runv(&["solve", "8"]).unwrap();
        assert!(out.contains("budget 8 proved infeasible (1 nodes"), "{out}");
        assert!(out.contains("sym-pruned (x4)"), "{out}");
        // Off + --no-memo reproduces the historical exhaustive proof bit
        // for bit.
        let out = runv(&["solve", "8", "--symmetry", "off", "--no-memo"]).unwrap();
        assert!(
            out.contains("budget 8 proved infeasible (97465 nodes, symmetry x1)"),
            "{out}"
        );
        assert!(out.contains("sym-pruned (x1)"), "{out}");
        assert!(out.contains("memo 0 hits / 0 entries"), "{out}");
        let out = runv(&["solve", "8", "--symmetry", "full"]).unwrap();
        assert!(out.contains("OPTIMAL: 9 cycles"), "{out}");
        // The JSON wire format carries the factor in the stats block.
        let json = runv(&["solve", "8", "--json"]).unwrap();
        assert!(json.contains("\"symmetry_factor\": 4"), "{json}");
        assert!(
            json.contains("\"symmetry_factor\": 1"),
            "proof block: {json}"
        );
        // Bad values are rejected helpfully.
        let err = runv(&["solve", "8", "--symmetry", "sideways"]).unwrap_err();
        assert!(err.contains("off|root|full"), "{err}");
    }

    #[test]
    fn solve_memo_flags() {
        // Memo on by default: the n = 8 off-mode refutation runs under
        // the historical 97,465 nodes and reports its hits, here with an
        // explicit 8 MiB table budget.
        let out = runv(&["solve", "8", "--symmetry", "off", "--memo-mb", "8"]).unwrap();
        assert!(out.contains("proved infeasible"), "{out}");
        assert!(!out.contains("(97465 nodes"), "memo never engaged: {out}");
        let json = runv(&["solve", "8", "--symmetry", "off", "--json"]).unwrap();
        assert!(json.contains("\"memo_hits\""), "{json}");
        assert!(json.contains("\"canon_pruned\""), "{json}");
        let err = runv(&["solve", "8", "--memo-mb", "lots"]).unwrap_err();
        assert!(err.contains("bad --memo-mb"), "{err}");
    }

    /// `--memo-mb` takes what the wire's `memo_mb` takes, with the wire's
    /// messages: 0 is refused, and so is 2^44, whose byte count once
    /// wrapped to 0 and ran on the smallest table.
    #[test]
    fn solve_memo_mb_follows_the_wire_rule() {
        let err = runv(&["solve", "6", "--memo-mb", "0"]).unwrap_err();
        assert!(err.contains("'memo_mb' must be >= 1"), "{err}");
        let err = runv(&["solve", "6", "--memo-mb", "17592186044416"]).unwrap_err();
        assert!(
            err.contains("'memo_mb' = 17592186044416 out of range"),
            "{err}"
        );
        let wire = |mb: &str| {
            json::request_from_json(&format!(
                r#"{{"format": "cyclecover-request", "version": 1, "n": 6, "memo_mb": {mb}}}"#
            ))
        };
        assert_eq!(wire("0").unwrap_err(), "'memo_mb' must be >= 1");
        assert_eq!(
            wire("17592186044416").unwrap_err(),
            "'memo_mb' = 17592186044416 out of range"
        );
        let top = json::MAX_MEMO_MB.to_string();
        assert!(runv(&["solve", "6", "--memo-mb", &top]).is_ok());
        assert_eq!(wire(&top).unwrap().memo_mb, Some(json::MAX_MEMO_MB));
    }

    #[test]
    fn solve_max_nodes_reports_inconclusive() {
        // Symmetry off: under the default root mode the parity bound
        // finishes this refutation in one node, under any cap.
        let out = runv(&[
            "solve",
            "8",
            "--budget",
            "8",
            "--max-nodes",
            "10",
            "--symmetry",
            "off",
        ])
        .unwrap();
        assert!(out.contains("INCONCLUSIVE"), "{out}");
        assert!(out.contains("NodeBudget"), "{out}");
    }

    #[test]
    fn solve_flag_errors_are_helpful() {
        assert!(runv(&["solve"]).unwrap_err().contains("missing <n>"));
        assert!(runv(&["solve", "6", "--engine", "nope"])
            .unwrap_err()
            .contains("unknown engine"));
        assert!(runv(&["solve", "6", "--budget"])
            .unwrap_err()
            .contains("needs"));
        assert!(runv(&["solve", "6", "--frobnicate"])
            .unwrap_err()
            .contains("unknown solve flag"));
        // ProveInfeasible is unsupported by heuristics; --budget on greedy
        // that can't be met reports engine exhaustion instead of lying.
        let out = runv(&["solve", "9", "--engine", "greedy", "--budget", "1"]).unwrap();
        assert!(out.contains("INCONCLUSIVE"), "{out}");
    }

    #[test]
    fn serve_runs_a_mixed_batch_end_to_end() {
        // Three distinct universe keys, one repeat (coalesces + cache
        // hit), one unmeetable deadline: the ISSUE acceptance scenario.
        let jobs = r#"# mixed smoke queue
{"format": "cyclecover-request", "version": 1, "id": "k6-a", "n": 6}
{"format": "cyclecover-request", "version": 1, "id": "k6-b", "n": 6}

{"format": "cyclecover-request", "version": 1, "id": "k6-probe", "n": 6, "objective": {"kind": "within_budget", "budget": 6}}
{"format": "cyclecover-request", "version": 1, "id": "k7-dlx", "n": 7, "engine": "dlx"}
{"format": "cyclecover-request", "version": 1, "id": "k8", "n": 8, "objective": {"kind": "within_budget", "budget": 9}}
{"format": "cyclecover-request", "version": 1, "id": "late", "n": 9, "deadline_ms": 0}
"#;
        let dir = std::env::temp_dir().join("cyclecover_cli_test_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let batch = dir.join("jobs.jsonl");
        std::fs::write(&batch, jobs).unwrap();
        let out = dir.join("out");
        let summary = runv(&[
            "serve",
            "--batch",
            batch.to_str().unwrap(),
            "--workers",
            "2",
            "--cache-mb",
            "16",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            summary.contains("\"cyclecover-batch-summary\""),
            "{summary}"
        );
        assert!(summary.contains("\"expired\": 1"), "{summary}");
        assert!(summary.contains("\"coalesced\": 1"), "{summary}");
        assert!(
            summary.contains("\"reason\": \"deadline\""),
            "expired job must report budget_exhausted/deadline: {summary}"
        );
        // Cache hits > 0: the k6 repeat shares one universe.
        assert!(!summary.contains("\"hits\": 0"), "{summary}");
        // Every emitted solution with a covering round-trips through
        // `validate`.
        let mut validated = 0;
        for id in ["k6-a", "k6-b", "k6-probe", "k7-dlx", "k8"] {
            let file = out.join(format!("{id}.json"));
            let ok = runv(&["validate", file.to_str().unwrap()]).unwrap();
            assert!(ok.starts_with("OK:"), "{id}: {ok}");
            validated += 1;
        }
        assert_eq!(validated, 5);
        // The expired job's document exists and carries no covering.
        let late = std::fs::read_to_string(out.join("late.json")).unwrap();
        assert!(late.contains("\"budget_exhausted\""), "{late}");
        assert!(late.contains("\"cycles\": null"), "{late}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_admits_and_solves_lambda_fold_requests() {
        // A λ-fold request document runs the batch service end to end:
        // admitted (predictive admission has no unit-table point for it),
        // solved on the packed lane kernel, and the emitted solution
        // document passes `cyclecover validate`.
        let jobs = r#"{"format": "cyclecover-request", "version": 1, "id": "double-6", "n": 6, "lambda": 2}
{"format": "cyclecover-request", "version": 1, "id": "unit-6", "n": 6}
"#;
        let dir = std::env::temp_dir().join("cyclecover_cli_test_serve_lambda");
        std::fs::create_dir_all(&dir).unwrap();
        let batch = dir.join("jobs.jsonl");
        std::fs::write(&batch, jobs).unwrap();
        let out = dir.join("out");
        let summary = runv(&[
            "serve",
            "--batch",
            batch.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(summary.contains("\"solved\": 2"), "{summary}");
        assert!(summary.contains("\"predicted_rejected\": 0"), "{summary}");
        let double = std::fs::read_to_string(out.join("double-6.json")).unwrap();
        assert!(double.contains("\"optimal\""), "{double}");
        assert!(double.contains("\"size\": 9"), "ρ₂(6) = 9: {double}");
        let ok = runv(&["validate", out.join("double-6.json").to_str().unwrap()]).unwrap();
        assert!(ok.starts_with("OK: 9 cycles"), "{ok}");
        let ok = runv(&["validate", out.join("unit-6.json").to_str().unwrap()]).unwrap();
        assert!(ok.starts_with("OK: 5 cycles"), "{ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_reports_malformed_lines_without_aborting_the_batch() {
        // Two good jobs around two bad lines: the batch still runs, the
        // summary names each reject by line number, and the good jobs
        // solve normally.
        let jobs = r#"{"format": "cyclecover-request", "version": 1, "id": "good-1", "n": 6}
{"format": "cyclecover-request", "version": 1, "n": 2}
this line is not json at all
{"format": "cyclecover-request", "version": 1, "id": "good-2", "n": 7}
"#;
        let dir = std::env::temp_dir().join("cyclecover_cli_test_rejects");
        std::fs::create_dir_all(&dir).unwrap();
        let batch = dir.join("jobs.jsonl");
        std::fs::write(&batch, jobs).unwrap();
        let summary = runv(&["serve", "--batch", batch.to_str().unwrap()]).unwrap();
        assert!(summary.contains("\"rejected\": 2"), "{summary}");
        assert!(summary.contains("\"line\": 2"), "{summary}");
        assert!(summary.contains("\"line\": 3"), "{summary}");
        assert!(summary.contains("\"id\": \"good-1\""), "{summary}");
        assert!(summary.contains("\"id\": \"good-2\""), "{summary}");
        assert!(summary.contains("\"solved\": 2"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_fault_plan_panics_are_terminal_failed_answers() {
        // A plan that panics job "boom" on every dispatch: with retries
        // exhausted it must surface as a terminal failed status while the
        // other job still solves — the worker survives the panic.
        let jobs = r#"{"format": "cyclecover-request", "version": 1, "id": "boom", "n": 6}
{"format": "cyclecover-request", "version": 1, "id": "fine", "n": 7}
"#;
        let plan = r#"{"format": "cyclecover-fault-plan", "version": 1, "seed": 7,
                       "faults": [{"job": "boom", "kind": "panic"}]}"#;
        let dir = std::env::temp_dir().join("cyclecover_cli_test_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let batch = dir.join("jobs.jsonl");
        let plan_path = dir.join("plan.json");
        std::fs::write(&batch, jobs).unwrap();
        std::fs::write(&plan_path, plan).unwrap();
        let summary = runv(&[
            "serve",
            "--batch",
            batch.to_str().unwrap(),
            "--fault-plan",
            plan_path.to_str().unwrap(),
            "--retries",
            "1",
            "--backoff-ms",
            "0",
        ])
        .unwrap();
        assert!(summary.contains("\"status\": \"failed\""), "{summary}");
        assert!(summary.contains("\"reason\": \"panic\""), "{summary}");
        assert!(summary.contains("\"failed\": 1"), "{summary}");
        assert!(summary.contains("\"solved\": 1"), "{summary}");
        assert!(summary.contains("\"faults_injected\": 2"), "{summary}");
        assert!(summary.contains("\"retries\": 1"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_listen_and_client_flag_errors_are_helpful() {
        assert!(runv(&["serve", "--listen", "nonsense"])
            .unwrap_err()
            .contains("bad --listen"));
        assert!(runv(&["serve", "--listen", "127.0.0.1:0", "--batch", "x"])
            .unwrap_err()
            .contains("separate modes"));
        assert!(runv(&["serve", "--batch", "x", "--queue-depth", "2"])
            .unwrap_err()
            .contains("--listen mode only"));
        assert!(
            runv(&["serve", "--listen", "127.0.0.1:0", "--retries", "1"])
                .unwrap_err()
                .contains("--batch mode only")
        );
        assert!(
            runv(&["serve", "--listen", "127.0.0.1:0", "--queue-depth", "0"])
                .unwrap_err()
                .contains(">= 1")
        );
        assert!(runv(&["client"]).unwrap_err().contains("--connect"));
        assert!(runv(&["client", "--connect", "127.0.0.1:1"])
            .unwrap_err()
            .contains("--jobs"));
        assert!(runv(&["client", "--frobnicate"])
            .unwrap_err()
            .contains("unknown client flag"));
    }

    #[test]
    fn client_streams_jobs_to_a_live_daemon_and_drains_it() {
        use cyclecover_service::{Daemon, DaemonConfig};
        let daemon = Daemon::bind("127.0.0.1:0".parse().unwrap(), DaemonConfig::default()).unwrap();
        let addr = daemon.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || daemon.run());

        let dir = std::env::temp_dir().join("cyclecover_cli_test_client");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.jsonl");
        std::fs::write(
            &jobs,
            concat!(
                r#"{"format": "cyclecover-request", "version": 1, "id": "c6", "n": 6}"#,
                "\n",
                r#"{"format": "cyclecover-request", "version": 1, "id": "c7", "n": 7}"#,
                "\n",
            ),
        )
        .unwrap();
        let out = runv(&[
            "client",
            "--connect",
            &addr,
            "--jobs",
            jobs.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        for needle in ["\"id\": \"c6\"", "\"id\": \"c7\""] {
            assert!(out.contains(needle), "{out}");
        }
        assert!(out.contains("\"cyclecover-solution\""), "{out}");

        // Live stats + graceful drain on a second connection: one live
        // daemon-stats document, then the final one from the drain.
        let out = runv(&["client", "--connect", &addr, "--stats", "--shutdown"]).unwrap();
        assert_eq!(
            out.matches("\"cyclecover-daemon-stats\"").count(),
            2,
            "{out}"
        );
        let stats = server.join().unwrap();
        assert_eq!(stats.jobs_received, 2);
        assert_eq!(stats.jobs_answered, 2);
        assert_eq!(stats.unstarted, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Jobs and a shutdown on one connection are refused before the
    /// client connects (no listener runs on port 1) or reads the jobs
    /// file; a stats control and a shutdown together stay legal.
    #[test]
    fn client_refuses_jobs_with_a_shutdown() {
        let err = runv(&[
            "client",
            "--connect",
            "127.0.0.1:1",
            "--jobs",
            "no-such-jobs-file.jsonl",
            "--shutdown",
        ])
        .unwrap_err();
        assert!(
            err.starts_with("--jobs and --shutdown cannot share a connection"),
            "{err}"
        );
        assert!(err.contains("a connection of its own"), "{err}");
        let err = runv(&[
            "client",
            "--connect",
            "127.0.0.1:1",
            "--stats",
            "--shutdown",
        ])
        .unwrap_err();
        assert!(err.starts_with("cannot connect to 127.0.0.1:1"), "{err}");
    }

    /// A daemon that dies mid-stream closes the connection early; the
    /// client counts the answers against the lines it sent and fails.
    #[test]
    fn client_fails_when_the_connection_closes_early() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut payload = String::new();
            conn.read_to_string(&mut payload).unwrap();
            payload
        });
        let dir = std::env::temp_dir().join("cyclecover_cli_test_client_eof");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.jsonl");
        std::fs::write(
            &jobs,
            concat!(
                "# a comment and a blank line are not answered\n",
                "\n",
                r#"{"format": "cyclecover-request", "version": 1, "n": 6}"#,
                "\n",
            ),
        )
        .unwrap();
        let err = runv(&[
            "client",
            "--connect",
            &addr,
            "--jobs",
            jobs.to_str().unwrap(),
            "--stats",
        ])
        .unwrap_err();
        assert!(
            err.starts_with("connection closed after 0 of 2 answers"),
            "{err}"
        );
        assert!(server.join().unwrap().contains("\"op\": \"stats\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engines_json_is_a_parseable_capability_listing() {
        let out = runv(&["engines", "--json"]).unwrap();
        let doc = cyclecover_io::json::Json::parse(&out).unwrap();
        assert_eq!(
            doc.get("format")
                .and_then(cyclecover_io::json::Json::as_str),
            Some("cyclecover-engines")
        );
        let listed = doc
            .get("engines")
            .and_then(cyclecover_io::json::Json::as_arr)
            .unwrap();
        assert_eq!(listed.len(), engines().len());
        // The exact engine proves infeasibility; the heuristics honestly
        // decline to.
        assert!(out.contains("\"prove_infeasible\": true"), "{out}");
        assert!(out.contains("\"prove_infeasible\": false"), "{out}");
        assert!(runv(&["engines", "--frobnicate"])
            .unwrap_err()
            .contains("only --json"));
    }

    #[test]
    fn serve_flag_errors_are_helpful() {
        assert!(runv(&["serve"]).unwrap_err().contains("--batch"));
        assert!(runv(&["serve", "--workers", "2"])
            .unwrap_err()
            .contains("--batch"));
        assert!(runv(&["serve", "--frobnicate"])
            .unwrap_err()
            .contains("unknown serve flag"));
        let dir = std::env::temp_dir();
        let empty = dir.join("cyclecover_cli_test_empty.jsonl");
        std::fs::write(&empty, "# nothing here\n\n").unwrap();
        let err = runv(&["serve", "--batch", empty.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("no request documents"), "{err}");
        std::fs::remove_file(&empty).ok();
        let bad = dir.join("cyclecover_cli_test_bad.jsonl");
        std::fs::write(
            &bad,
            "{\"format\": \"cyclecover-request\", \"version\": 1, \"n\": 2}\n",
        )
        .unwrap();
        let err = runv(&["serve", "--batch", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains(":1:"), "line number missing: {err}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn usage_covers_the_command_surface() {
        for needle in [
            "solve",
            "--symmetry",
            "--no-memo",
            "--memo-mb",
            "engines",
            "serve",
            "--batch",
            "--cache-mb",
            "--fault-plan",
            "--retries",
            "--backoff-ms",
            "--listen",
            "--max-conns",
            "--queue-depth",
            "client",
            "--connect",
            "--shutdown",
            "--stats",
            "--json",
        ] {
            assert!(USAGE.contains(needle), "USAGE missing {needle}");
        }
    }

    #[test]
    fn construct_emits_parseable_text() {
        let out = runv(&["construct", "11"]).unwrap();
        let cover = format::from_text(&out).unwrap();
        assert_eq!(cover.len() as u64, rho(11));
    }

    #[test]
    fn construct_marks_the_mod8_gap() {
        let out = runv(&["construct", "16"]).unwrap();
        assert!(out.contains("above rho(n)"), "gap note missing:\n{out}");
    }

    #[test]
    fn validate_round_trip_via_tempfile() {
        let text = runv(&["construct", "9"]).unwrap();
        let path = std::env::temp_dir().join("cyclecover_cli_test_k9.txt");
        std::fs::write(&path, &text).unwrap();
        let out = runv(&["validate", path.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("OK: 10 cycles"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_an_oversized_ring() {
        let text = runv(&["solve", "6", "--json"]).unwrap();
        let huge = text.replace("\"n\": 6", "\"n\": 4000000000");
        assert_ne!(text, huge);
        let path = std::env::temp_dir().join("cyclecover_cli_test_huge_ring.json");
        std::fs::write(&path, &huge).unwrap();
        let err = runv(&["validate", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("3..=1024"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_garbage() {
        let path = std::env::temp_dir().join("cyclecover_cli_test_bad.txt");
        std::fs::write(&path, "ring 4\ncycle 0 2 3 1\n").unwrap();
        let err = runv(&["validate", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("DRC"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn audit_is_survivable() {
        let out = runv(&["audit", "10"]).unwrap();
        assert!(out.contains("fully survivable:   true"), "{out}");
    }

    #[test]
    fn svg_output() {
        let out = runv(&["svg", "7"]).unwrap();
        assert!(out.starts_with("<svg"));
    }

    #[test]
    fn compare_output_sane() {
        let out = runv(&["compare", "12"]).unwrap();
        assert!(out.contains("protection / restoration"));
    }

    #[test]
    fn table_odd() {
        let out = runv(&["table", "odd", "11"]).unwrap();
        assert!(out.contains("rho(n)"));
        // rows for 3,5,7,9,11 + header + rule
        assert_eq!(out.lines().count(), 7, "{out}");
    }

    #[test]
    fn loading_command() {
        let out = runv(&["loading", "8"]).unwrap();
        assert!(out.contains("shortest-arc routing: 10"), "{out}");
        assert!(out.contains("exact optimum:        9"), "{out}");
    }

    #[test]
    fn avail_command() {
        let out = runv(&["avail", "10"]).unwrap();
        assert!(out.contains("improvement"), "{out}");
        assert!(out.contains("nines"), "{out}");
    }

    /// Ring sizes that would exhaust memory are errors naming the range,
    /// not aborts; the closed-form `rho` still answers any size.
    #[test]
    fn oversized_rings_are_errors() {
        let err = runv(&["solve", "4000000000", "--max-nodes", "10"]).unwrap_err();
        assert!(err.contains("out of range 3..=1024"), "{err}");
        for cmd in ["audit", "svg", "compare", "loading", "avail"] {
            let err = runv(&[cmd, "1025"]).unwrap_err();
            assert!(err.contains("out of range 3..=1024"), "{cmd}: {err}");
        }
        let err = runv(&["table", "odd", "1025"]).unwrap_err();
        assert!(err.contains("out of range 3..=1024"), "{err}");
        for n in ["4000000000", "8193"] {
            let err = runv(&["construct", n]).unwrap_err();
            assert!(err.contains("out of range 3..=8192"), "{n}: {err}");
        }
        assert!(runv(&["rho", "4000000000"]).is_ok());
    }

    #[test]
    fn errors_are_helpful() {
        assert!(runv(&["rho"]).unwrap_err().contains("missing <n>"));
        assert!(runv(&["rho", "two"]).unwrap_err().contains("bad n"));
        assert!(runv(&["rho", "2"]).unwrap_err().contains(">= 3"));
        assert!(runv(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(runv(&["table", "weird", "9"]).unwrap_err().contains("odd"));
        assert!(runv(&[]).unwrap().contains("USAGE"));
        assert!(runv(&["help"]).unwrap().contains("USAGE"));
    }
}
