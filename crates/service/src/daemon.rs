//! The always-on solve daemon: streaming JSONL serving over
//! [`SolveService`].
//!
//! ```text
//!             ┌───────────────────────── event-loop thread ──────────────┐
//!  clients ──▶│ accept → LineFramer → Ingest ──┬─ reject doc ──▶ outbox  │
//!             │     ▲ backpressure: reading    └─ admit ──▶ pending queue│
//!             │     │ pauses when a conn's     (bounded; overload reject │
//!             │     │ outbox is full            when full)               │
//!             └─────┼───────────────────────────────▲────────────────────┘
//!                   │ solution / reject docs        │ micro-batches
//!             ┌─────┴─────────────── dispatcher thread ──────────────────┐
//!             │ long-lived SolveService: EDF, coalescing, warm universe  │
//!             │ cache + quarantine across generations, cost-model audit  │
//!             └──────────────────────────────────────────────────────────┘
//! ```
//!
//! One TCP connection carries newline-delimited documents:
//! `cyclecover-request` and `cyclecover-control` in;
//! `cyclecover-solution` (with the streaming `id` field),
//! `cyclecover-reject`, and `cyclecover-daemon-stats` out — all single
//! lines. Framing, admission, and the stats document are specified in
//! `docs/wire-format.md`.
//!
//! **Backpressure** has two bounded queues. The *global* admission
//! queue (capacity [`DaemonConfig::queue_depth`]) refuses further jobs
//! with a wire-visible `overload` reject when full — the client learns
//! immediately and can resubmit. Each *connection's* response outbox
//! (same capacity) instead pauses reading that connection when full:
//! responses are never dropped, the peer's TCP window absorbs the
//! stall, and the `stalls` counter in the stats document records every
//! pause so CI can assert the mechanism engages.
//!
//! **Predictive admission** consults the committed calibration table
//! ([`CostModel`]) at ingest: a deadline the curves say cannot be met
//! (by ≥ [`SAFETY_FACTOR`]×) is refused with reason
//! `predicted_unmeetable` before it ever occupies a worker. The model
//! never rejects a job the table says is feasible — see
//! [`CostModel::unmeetable`] for the confidence rules.
//!
//! **Graceful drain**: a `{"op": "shutdown"}` control document closes
//! admission, cancels the service's token with
//! [`CancelReason::Shutdown`](cyclecover_solver::api::CancelReason) so
//! in-flight kernels stop within ~4096 nodes and report
//! `budget_exhausted`/`shutdown`, lets the dispatcher answer everything
//! still queued (unstarted groups are reported as such), flushes every
//! connection, answers the requester with a final
//! `cyclecover-daemon-stats` document, and returns. (Pure-std builds
//! cannot install a SIGTERM handler without `unsafe`; the control
//! document is the supported shutdown path and what
//! `cyclecover client --shutdown` sends.)

use crate::certs::CertCache;
use crate::predict::{CostModel, Prediction, SAFETY_FACTOR};
use crate::service::{ServiceConfig, SolveService};
use cyclecover_io::json::{
    quote as json_escape, request_from_json, solution_to_json_with_id, to_single_line, Json,
    SolveJob,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// One framed unit out of [`LineFramer::push`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramedLine {
    /// A complete line (without its newline; a trailing `\r` is
    /// stripped). Bytes are decoded lossily — a malformed UTF-8 line
    /// becomes a parse reject downstream, not a dead connection.
    Line(String),
    /// A complete line that exceeded the size bound. The line was
    /// discarded wholesale (`bytes` is its full length); framing
    /// resynchronizes at the next newline, so one hostile line costs
    /// one reject, not the connection.
    Oversized {
        /// Length of the discarded line, in bytes.
        bytes: usize,
    },
}

/// Incremental newline framing over arbitrary read chunks.
///
/// Feed it whatever the socket returns — partial lines, many documents
/// per read, split multi-byte sequences — and it yields each complete
/// line exactly once, in order, regardless of how the byte stream was
/// chunked (the framing proptests pin this). Lines longer than the
/// bound are dropped per-line with an [`FramedLine::Oversized`] marker.
#[derive(Debug)]
pub struct LineFramer {
    max_line: usize,
    buf: Vec<u8>,
    /// Inside an oversized line, discarding until the next newline.
    discarding: bool,
    dropped: usize,
}

impl LineFramer {
    /// A framer enforcing `max_line` bytes per line (newline excluded).
    pub fn new(max_line: usize) -> Self {
        LineFramer {
            max_line: max_line.max(1),
            buf: Vec::new(),
            discarding: false,
            dropped: 0,
        }
    }

    /// Consumes one read chunk; returns every line it completed.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<FramedLine> {
        let mut out = Vec::new();
        let mut rest = chunk;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let (seg, tail) = rest.split_at(pos);
                    rest = &tail[1..];
                    if self.discarding {
                        out.push(FramedLine::Oversized {
                            bytes: self.dropped + seg.len(),
                        });
                        self.discarding = false;
                        self.dropped = 0;
                    } else {
                        self.buf.extend_from_slice(seg);
                        if self.buf.len() > self.max_line {
                            out.push(FramedLine::Oversized {
                                bytes: self.buf.len(),
                            });
                        } else {
                            let mut line = std::mem::take(&mut self.buf);
                            if line.last() == Some(&b'\r') {
                                line.pop();
                            }
                            out.push(FramedLine::Line(
                                String::from_utf8_lossy(&line).into_owned(),
                            ));
                        }
                        self.buf.clear();
                    }
                }
                None => {
                    if self.discarding {
                        self.dropped += rest.len();
                    } else {
                        self.buf.extend_from_slice(rest);
                        if self.buf.len() > self.max_line {
                            self.discarding = true;
                            self.dropped = self.buf.len();
                            self.buf.clear();
                        }
                    }
                    rest = &[];
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Ingest admission
// ---------------------------------------------------------------------------

/// What the admission layer decided about one framed line.
#[derive(Debug)]
pub enum IngestAction {
    /// Nothing on the wire: a blank line or a `#` comment.
    Ignore,
    /// Admit the job into the next dispatch generation, with the
    /// model's audit prediction when it has one.
    Submit(Box<SolveJob>, Option<Prediction>),
    /// Refuse the line with a wire-visible `cyclecover-reject`.
    Reject {
        /// The request's id, when one could be recovered.
        id: Option<String>,
        /// Machine-readable reason: `parse`, `overload`, or
        /// `predicted_unmeetable` from this layer (`oversized` and
        /// `admission` are produced by the framing and dispatch layers).
        reason: &'static str,
        /// Human-readable detail.
        detail: String,
        /// The prediction behind a `predicted_unmeetable` refusal.
        prediction: Option<Prediction>,
    },
    /// `cyclecover-control` `op: "shutdown"` — begin the graceful drain.
    Shutdown,
    /// `cyclecover-control` `op: "stats"` — answer with a
    /// `cyclecover-daemon-stats` document.
    Stats,
}

/// The pure admission state machine: parses one line and decides,
/// given the current global queue occupancy. Holds no I/O, so the
/// framing proptests can drive it directly.
#[derive(Debug, Default)]
pub struct Ingest {
    model: Option<CostModel>,
    queue_depth: usize,
}

impl Ingest {
    /// Admission with the given cost model (predictive refusal off when
    /// `None`) and global queue bound.
    pub fn new(model: Option<CostModel>, queue_depth: usize) -> Self {
        Ingest {
            model,
            queue_depth: queue_depth.max(1),
        }
    }

    /// Decides one framed line; `queued` is the global admission
    /// queue's current occupancy.
    pub fn admit(&self, line: &str, queued: usize) -> IngestAction {
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            return IngestAction::Ignore;
        }
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => {
                return IngestAction::Reject {
                    id: None,
                    reason: "parse",
                    detail: e,
                    prediction: None,
                }
            }
        };
        let id_hint = || doc.get("id").and_then(Json::as_str).map(str::to_string);
        if doc.get("format").and_then(Json::as_str) == Some("cyclecover-control") {
            match doc.get("version").and_then(Json::as_num) {
                None | Some(1.0) => {}
                Some(v) => {
                    return IngestAction::Reject {
                        id: id_hint(),
                        reason: "parse",
                        detail: format!("unsupported control version {v}"),
                        prediction: None,
                    }
                }
            }
            return match doc.get("op").and_then(Json::as_str) {
                Some("shutdown") => IngestAction::Shutdown,
                Some("stats") => IngestAction::Stats,
                other => IngestAction::Reject {
                    id: id_hint(),
                    reason: "parse",
                    detail: format!("unknown control op {other:?} (want shutdown|stats)"),
                    prediction: None,
                },
            };
        }
        let job = match request_from_json(text) {
            Ok(job) => job,
            Err(e) => {
                return IngestAction::Reject {
                    id: id_hint(),
                    reason: "parse",
                    detail: e,
                    prediction: None,
                }
            }
        };
        if queued >= self.queue_depth {
            return IngestAction::Reject {
                id: Some(job.id).filter(|s| !s.is_empty()),
                reason: "overload",
                detail: format!("admission queue full ({queued} queued)"),
                prediction: None,
            };
        }
        if let (Some(model), Some(deadline_ms)) = (&self.model, job.deadline_ms) {
            if let Some(prediction) = model.unmeetable(&job, deadline_ms) {
                return IngestAction::Reject {
                    id: Some(job.id).filter(|s| !s.is_empty()),
                    reason: "predicted_unmeetable",
                    detail: format!(
                        "predicted {:.1} ms >= {SAFETY_FACTOR}x deadline {deadline_ms} ms",
                        prediction.wall_ms
                    ),
                    prediction: Some(prediction),
                };
            }
        }
        let prediction = self.model.as_ref().and_then(|m| m.predict(&job));
        IngestAction::Submit(Box::new(job), prediction)
    }
}

/// Serializes one `cyclecover-reject` v1 document (single line, no
/// trailing newline). The `predicted_*` fields are present exactly when
/// a cost-model prediction backed the refusal.
pub fn reject_json(
    id: Option<&str>,
    reason: &str,
    detail: &str,
    prediction: Option<Prediction>,
) -> String {
    let mut s = format!(
        "{{\"format\": \"cyclecover-reject\", \"version\": 1, \"id\": {}, \"reason\": {}, \"detail\": {}",
        id.map_or("null".to_string(), json_escape),
        json_escape(reason),
        json_escape(detail),
    );
    if let Some(p) = prediction {
        use std::fmt::Write as _;
        let _ = write!(
            s,
            ", \"predicted_nodes\": {}, \"predicted_wall_ms\": {:.3}",
            p.nodes, p.wall_ms
        );
    }
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// Daemon stats
// ---------------------------------------------------------------------------

/// Cumulative daemon counters — the payload of the
/// `cyclecover-daemon-stats` v1 document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DaemonStats {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections refused at accept (connection limit).
    pub connections_refused: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections closed (by either side).
    pub connections_closed: u64,
    /// Well-formed jobs admitted into the pending queue.
    pub jobs_received: u64,
    /// Terminal per-job documents emitted from dispatch (solutions,
    /// including expired/unstarted verdicts).
    pub jobs_answered: u64,
    /// Jobs reported unstarted by a graceful drain.
    pub unstarted: u64,
    /// Lines refused: malformed JSON / unknown document.
    pub rejected_parse: u64,
    /// Lines refused: over the per-line size bound.
    pub rejected_oversized: u64,
    /// Jobs refused: global admission queue full.
    pub rejected_overload: u64,
    /// Jobs refused at dispatch submit (duplicate id in a generation,
    /// unknown engine, unsupported engine/problem pair) or after a
    /// shutdown closed admission.
    pub rejected_admission: u64,
    /// Jobs refused by the cost model: predicted-unmeetable deadline.
    pub rejected_predicted: u64,
    /// Backpressure pauses: times a connection's reading was stopped
    /// because its response outbox was full.
    pub stalls: u64,
    /// Dispatch generations (micro-batches) drained.
    pub generations: u64,
    /// Universe keys looked up by generations after the first.
    pub warm_universe_lookups: u64,
    /// Of those, keys already resident from an earlier generation.
    pub warm_universe_hits: u64,
    /// Answered jobs that carried a model prediction.
    pub predicted_jobs: u64,
    /// Total predicted nodes over those jobs.
    pub predicted_nodes: u64,
    /// Total actual nodes over those jobs (compare with
    /// `predicted_nodes` to audit the calibration table).
    pub actual_nodes: u64,
    /// Refutation-store hits summed over every generation's kernel runs.
    pub memo_hits: u64,
    /// The subset of `memo_hits` landing on refutations another searcher
    /// recorded (cross-probe, cross-worker, or — with `--shared-memo` —
    /// cross-request).
    pub shared_hits: u64,
    /// Jobs answered from the persisted certificate cache with zero
    /// kernel nodes.
    pub cert_cache_hits: u64,
    /// Certificates currently held by the cache (0 without
    /// `--cert-cache`).
    pub cert_cache_entries: u64,
    /// Daemon uptime at the snapshot.
    pub wall: Duration,
}

impl DaemonStats {
    /// Parses a `cyclecover-daemon-stats` v1 document (the inverse of
    /// [`daemon_stats_json`]; the wire-format doc examples round-trip
    /// through this).
    pub fn from_json(text: &str) -> Result<DaemonStats, String> {
        let doc = Json::parse(text)?;
        match doc.get("format").and_then(Json::as_str) {
            Some("cyclecover-daemon-stats") => {}
            other => return Err(format!("bad stats format {other:?}")),
        }
        match doc.get("version").and_then(Json::as_num) {
            Some(1.0) => {}
            other => return Err(format!("unsupported stats version {other:?}")),
        }
        let num = |path: &[&str]| -> Result<u64, String> {
            let mut node = &doc;
            for key in path {
                node = node
                    .get(key)
                    .ok_or_else(|| format!("missing {}", path.join(".")))?;
            }
            node.as_num()
                .map(|v| v as u64)
                .ok_or_else(|| format!("{} is not a number", path.join(".")))
        };
        Ok(DaemonStats {
            connections_accepted: num(&["connections", "accepted"])?,
            connections_refused: num(&["connections", "refused"])?,
            connections_open: num(&["connections", "open"])?,
            connections_closed: num(&["connections", "closed"])?,
            jobs_received: num(&["jobs", "received"])?,
            jobs_answered: num(&["jobs", "answered"])?,
            unstarted: num(&["jobs", "unstarted"])?,
            rejected_parse: num(&["rejected", "parse"])?,
            rejected_oversized: num(&["rejected", "oversized"])?,
            rejected_overload: num(&["rejected", "overload"])?,
            rejected_admission: num(&["rejected", "admission"])?,
            rejected_predicted: num(&["rejected", "predicted_unmeetable"])?,
            stalls: num(&["backpressure", "stalls"])?,
            generations: num(&["generations"])?,
            warm_universe_lookups: num(&["warm_universe", "lookups"])?,
            warm_universe_hits: num(&["warm_universe", "hits"])?,
            predicted_jobs: num(&["predicted", "jobs"])?,
            predicted_nodes: num(&["predicted", "nodes"])?,
            actual_nodes: num(&["predicted", "actual_nodes"])?,
            memo_hits: num(&["memo", "hits"])?,
            shared_hits: num(&["memo", "shared_hits"])?,
            cert_cache_hits: num(&["memo", "cert_cache_hits"])?,
            cert_cache_entries: num(&["memo", "cert_cache_entries"])?,
            wall: Duration::from_secs_f64(
                doc.get("wall_ms")
                    .and_then(Json::as_num)
                    .ok_or("missing wall_ms")?
                    / 1e3,
            ),
        })
    }
}

/// Serializes the `cyclecover-daemon-stats` v1 document (single line,
/// no trailing newline).
pub fn daemon_stats_json(stats: &DaemonStats) -> String {
    format!(
        "{{\"format\": \"cyclecover-daemon-stats\", \"version\": 1, \
         \"connections\": {{\"accepted\": {}, \"refused\": {}, \"open\": {}, \"closed\": {}}}, \
         \"jobs\": {{\"received\": {}, \"answered\": {}, \"unstarted\": {}}}, \
         \"rejected\": {{\"parse\": {}, \"oversized\": {}, \"overload\": {}, \
         \"admission\": {}, \"predicted_unmeetable\": {}}}, \
         \"backpressure\": {{\"stalls\": {}}}, \
         \"generations\": {}, \
         \"warm_universe\": {{\"lookups\": {}, \"hits\": {}}}, \
         \"predicted\": {{\"jobs\": {}, \"nodes\": {}, \"actual_nodes\": {}}}, \
         \"memo\": {{\"hits\": {}, \"shared_hits\": {}, \"cert_cache_hits\": {}, \
         \"cert_cache_entries\": {}}}, \
         \"wall_ms\": {:.3}}}",
        stats.connections_accepted,
        stats.connections_refused,
        stats.connections_open,
        stats.connections_closed,
        stats.jobs_received,
        stats.jobs_answered,
        stats.unstarted,
        stats.rejected_parse,
        stats.rejected_oversized,
        stats.rejected_overload,
        stats.rejected_admission,
        stats.rejected_predicted,
        stats.stalls,
        stats.generations,
        stats.warm_universe_lookups,
        stats.warm_universe_hits,
        stats.predicted_jobs,
        stats.predicted_nodes,
        stats.actual_nodes,
        stats.memo_hits,
        stats.shared_hits,
        stats.cert_cache_hits,
        stats.cert_cache_entries,
        stats.wall.as_secs_f64() * 1e3,
    )
}

// ---------------------------------------------------------------------------
// The daemon proper
// ---------------------------------------------------------------------------

/// Daemon tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Worker threads per dispatch generation (forwarded to
    /// [`ServiceConfig::workers`]).
    pub workers: usize,
    /// Universe-cache byte budget (forwarded to
    /// [`ServiceConfig::cache_bytes`]); the cache lives as long as the
    /// daemon, so later generations start warm.
    pub cache_bytes: usize,
    /// Connection limit; further peers are answered with an `overload`
    /// reject and closed.
    pub max_conns: usize,
    /// Capacity of the global admission queue *and* of each
    /// connection's response outbox (the two backpressure bounds); 0
    /// reads as 1.
    pub queue_depth: usize,
}

impl Default for DaemonConfig {
    /// One worker, 64 MiB cache, 64 connections, depth-64 queues.
    fn default() -> Self {
        DaemonConfig {
            workers: 1,
            cache_bytes: 64 << 20,
            max_conns: 64,
            queue_depth: 64,
        }
    }
}

/// Per-line byte bound; longer lines are rejected per-line.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Event-loop tick and dispatcher micro-batch gather window.
const TICK: Duration = Duration::from_millis(1);

/// Shared state between the event loop and the dispatcher.
#[derive(Default)]
struct SharedState {
    /// Global admission queue: `(connection id, job)`.
    pending: VecDeque<(u64, SolveJob)>,
    /// Finished documents awaiting routing: `(connection id, line)`.
    responses: Vec<(u64, String)>,
    draining: bool,
    dispatcher_done: bool,
    stats: DaemonStats,
}

type Shared = Arc<(Mutex<SharedState>, Condvar)>;

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, SharedState> {
    shared.0.lock().expect("daemon state poisoned")
}

/// One live connection's event-loop state.
struct Conn {
    id: u64,
    stream: TcpStream,
    framer: LineFramer,
    /// Framed lines read but not yet admitted (left over when
    /// backpressure paused processing mid-burst).
    lines: VecDeque<FramedLine>,
    /// Response documents not yet handed to the socket.
    outbox: VecDeque<String>,
    /// Partially-written current line.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Jobs admitted from this connection whose terminal document has
    /// not been routed back yet. An EOF connection (a client that
    /// half-closed after streaming its jobs) is kept alive until this
    /// reaches zero — closing the write side must not drop answers.
    outstanding: u64,
    paused: bool,
    eof: bool,
    dead: bool,
}

impl Conn {
    /// Pushes buffered output to the socket until it would block.
    fn flush(&mut self) {
        loop {
            if self.wpos == self.wbuf.len() {
                match self.outbox.pop_front() {
                    Some(line) => {
                        self.wbuf = line.into_bytes();
                        self.wbuf.push(b'\n');
                        self.wpos = 0;
                    }
                    None => return,
                }
            }
            match (&self.stream).write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(k) => self.wpos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn flushed(&self) -> bool {
        self.outbox.is_empty() && self.wpos == self.wbuf.len()
    }
}

/// The always-on solve daemon. [`Daemon::bind`], then [`Daemon::run`]
/// (which blocks until a `shutdown` control document completes the
/// graceful drain) — the module docs describe the full lifecycle.
pub struct Daemon {
    config: DaemonConfig,
    listener: TcpListener,
    model: Option<CostModel>,
    shared_memo: bool,
    cert_cache: Option<CertCache>,
    cert_save_path: Option<PathBuf>,
}

impl Daemon {
    /// Binds the listening socket (predictive admission on, using the
    /// committed calibration table).
    pub fn bind(addr: SocketAddr, config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Daemon {
            config,
            listener,
            model: Some(CostModel::builtin().clone()),
            shared_memo: false,
            cert_cache: None,
            cert_save_path: None,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Replaces the cost model (`None` disables predictive admission).
    pub fn set_cost_model(&mut self, model: Option<CostModel>) {
        self.model = model;
    }

    /// Turns on cross-request refutation-store sharing
    /// ([`ServiceConfig::shared_memo`]) for the daemon's long-lived
    /// service. Off by default: sharing improves node counts, which
    /// breaks exact-reproduction gates on the calibrated cold baseline.
    pub fn set_shared_memo(&mut self, on: bool) {
        self.shared_memo = on;
    }

    /// Installs a certificate cache ([`CertCache`]) for the daemon's
    /// service; with `save_path` set, the grown cache is written back
    /// (whole-file, best-effort) after every dispatch generation, so
    /// certificates survive the process.
    pub fn set_cert_cache(&mut self, cache: CertCache, save_path: Option<PathBuf>) {
        self.cert_cache = Some(cache);
        self.cert_save_path = save_path;
    }

    /// Serves until a graceful drain completes; returns the final
    /// counters (the same snapshot the drain's stats document carries).
    pub fn run(mut self) -> DaemonStats {
        let started = Instant::now();
        // An outbox bound of 0 would pause every connection before it
        // reads a line; `Ingest::new` clamps the admission queue alike.
        // A connection limit of 0 would refuse every connection, the
        // `shutdown` control's too, so the daemon could only be killed.
        let cfg = DaemonConfig {
            queue_depth: self.config.queue_depth.max(1),
            max_conns: self.config.max_conns.max(1),
            ..self.config
        };
        let shared: Shared = Arc::new((Mutex::new(SharedState::default()), Condvar::new()));
        let ingest = Ingest::new(self.model.clone(), cfg.queue_depth);

        // The service outlives every connection: its universe cache and
        // quarantine are the cross-generation warm state. Built here so
        // the event loop can hold a cancel handle for the drain.
        let mut service = SolveService::new(ServiceConfig {
            workers: cfg.workers,
            cache_bytes: cfg.cache_bytes,
            shared_memo: self.shared_memo,
            ..ServiceConfig::default()
        });
        if let Some(model) = self.model.clone() {
            service.set_cost_model(model);
        }
        if let Some(cache) = self.cert_cache.take() {
            service.set_cert_cache(cache);
        }
        let cert_save = self.cert_save_path.take();
        let cancel = service.cancel_token().clone();

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatcher_loop(service, &shared, cert_save))
        };

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut draining = false;
        let mut drain_requester: Option<u64> = None;
        let mut final_stats_sent = false;
        let mut drain_flush_started: Option<Instant> = None;

        loop {
            // Every socket is non-blocking and polled once a tick:
            // `WouldBlock` says there is nothing to do yet.
            std::thread::sleep(TICK);

            if !draining {
                loop {
                    let accepted = self
                        .listener
                        .accept()
                        .and_then(|(stream, _)| stream.set_nonblocking(true).map(|()| stream));
                    match accepted {
                        Ok(stream) => {
                            if conns.len() >= cfg.max_conns {
                                // Refuse loudly: one reject line, then
                                // close. Best-effort — the peer may not
                                // read it.
                                let mut s = stream;
                                let doc = reject_json(
                                    None,
                                    "overload",
                                    &format!("connection limit {} reached", cfg.max_conns),
                                    None,
                                );
                                let _ = s.write(format!("{doc}\n").as_bytes());
                                lock(&shared).stats.connections_refused += 1;
                                continue;
                            }
                            let conn = Conn {
                                id: next_conn_id,
                                stream,
                                framer: LineFramer::new(MAX_LINE_BYTES),
                                lines: VecDeque::new(),
                                outbox: VecDeque::new(),
                                wbuf: Vec::new(),
                                wpos: 0,
                                outstanding: 0,
                                paused: false,
                                eof: false,
                                dead: false,
                            };
                            conns.insert(conn.id, conn);
                            next_conn_id += 1;
                            let mut sh = lock(&shared);
                            sh.stats.connections_accepted += 1;
                            sh.stats.connections_open += 1;
                        }
                        // `WouldBlock` when no peer is waiting.
                        Err(_) => break,
                    }
                }
            }

            // Route finished documents to their connections' outboxes.
            let (routed, dispatcher_done) = {
                let mut sh = lock(&shared);
                (std::mem::take(&mut sh.responses), sh.dispatcher_done)
            };
            for (conn_id, doc) in routed {
                // A vanished connection drops its responses — the peer
                // that would have read them is gone.
                if let Some(conn) = conns.get_mut(&conn_id) {
                    conn.outbox.push_back(doc);
                    conn.outstanding = conn.outstanding.saturating_sub(1);
                }
            }

            // Per-connection I/O.
            for conn in conns.values_mut() {
                conn.flush();
                if conn.dead {
                    continue;
                }
                // Backpressure: resume only when the outbox has drained
                // below the bound; count each engagement.
                if conn.outbox.len() >= cfg.queue_depth {
                    if !conn.paused {
                        conn.paused = true;
                        lock(&shared).stats.stalls += 1;
                    }
                } else {
                    conn.paused = false;
                }
                if conn.paused {
                    continue;
                }
                loop {
                    let mut stalled = false;
                    while let Some(framed) = conn.lines.pop_front() {
                        handle_line(framed, conn, &ingest, &shared, draining, started);
                        if !draining && lock(&shared).draining {
                            // A shutdown control arrived on this
                            // connection: close admission globally and
                            // cancel the in-flight batch gracefully.
                            draining = true;
                            drain_requester = Some(conn.id);
                            cancel.cancel_with(cyclecover_solver::api::CancelReason::Shutdown);
                            shared.1.notify_all();
                        }
                        if conn.outbox.len() >= cfg.queue_depth {
                            conn.paused = true;
                            lock(&shared).stats.stalls += 1;
                            stalled = true;
                            break;
                        }
                    }
                    if stalled || conn.eof || draining {
                        break;
                    }
                    let mut chunk = [0u8; 4096];
                    match (&conn.stream).read(&mut chunk) {
                        Ok(0) => {
                            conn.eof = true;
                        }
                        Ok(k) => {
                            conn.lines.extend(conn.framer.push(&chunk[..k]));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
            }

            // Reap connections: dead, or EOF with everything answered.
            let before = conns.len();
            conns.retain(|_, c| {
                !(c.dead || (c.eof && c.flushed() && c.lines.is_empty() && c.outstanding == 0))
            });
            let reaped = (before - conns.len()) as u64;
            if reaped > 0 {
                let mut sh = lock(&shared);
                sh.stats.connections_open = sh.stats.connections_open.saturating_sub(reaped);
                sh.stats.connections_closed += reaped;
            }

            // Graceful-drain epilogue: dispatcher finished, responses
            // routed — answer the requester with the final stats
            // document, flush everyone, and stop.
            if draining && dispatcher_done && lock(&shared).responses.is_empty() {
                if !final_stats_sent {
                    let doc = {
                        let mut sh = lock(&shared);
                        sh.stats.wall = started.elapsed();
                        daemon_stats_json(&sh.stats)
                    };
                    if let Some(req) = drain_requester {
                        if let Some(conn) = conns.get_mut(&req) {
                            conn.outbox.push_back(doc);
                        }
                    }
                    final_stats_sent = true;
                }
                for conn in conns.values_mut() {
                    conn.flush();
                }
                // A peer that stops reading must not pin the drain
                // forever: give stragglers a grace window, then leave.
                let since = *drain_flush_started.get_or_insert_with(Instant::now);
                if conns.values().all(|c| c.dead || c.flushed())
                    || since.elapsed() > Duration::from_secs(5)
                {
                    break;
                }
            }
        }

        let _ = dispatcher.join();
        let mut sh = lock(&shared);
        sh.stats.connections_closed += sh.stats.connections_open;
        sh.stats.connections_open = 0;
        sh.stats.wall = started.elapsed();
        sh.stats.clone()
    }
}

/// Event-loop handling of one framed line: admission, control, and the
/// reject paths. Pushes at most one response document.
fn handle_line(
    framed: FramedLine,
    conn: &mut Conn,
    ingest: &Ingest,
    shared: &Shared,
    draining: bool,
    started: Instant,
) {
    let line = match framed {
        FramedLine::Oversized { bytes } => {
            lock(shared).stats.rejected_oversized += 1;
            conn.outbox.push_back(reject_json(
                None,
                "oversized",
                &format!("line of {bytes} bytes exceeds the per-line bound"),
                None,
            ));
            return;
        }
        FramedLine::Line(line) => line,
    };
    let queued = lock(shared).pending.len();
    match ingest.admit(&line, queued) {
        IngestAction::Ignore => {}
        IngestAction::Submit(job, _prediction) => {
            if draining {
                lock(shared).stats.rejected_admission += 1;
                conn.outbox.push_back(reject_json(
                    Some(job.id.as_str()).filter(|s| !s.is_empty()),
                    "admission",
                    "daemon is draining",
                    None,
                ));
                return;
            }
            // `Ingest::admit` refused every line the queue has no room
            // for: only this thread pushes to `pending`.
            let mut sh = lock(shared);
            sh.stats.jobs_received += 1;
            sh.pending.push_back((conn.id, *job));
            drop(sh);
            conn.outstanding += 1;
            shared.1.notify_all();
        }
        IngestAction::Reject {
            id,
            reason,
            detail,
            prediction,
        } => {
            {
                let mut sh = lock(shared);
                match reason {
                    "overload" => sh.stats.rejected_overload += 1,
                    "predicted_unmeetable" => sh.stats.rejected_predicted += 1,
                    _ => sh.stats.rejected_parse += 1,
                }
            }
            conn.outbox
                .push_back(reject_json(id.as_deref(), reason, &detail, prediction));
        }
        IngestAction::Shutdown => {
            lock(shared).draining = true;
            // The event loop notices `draining` right after this line
            // and cancels the service's token; nothing else to do here.
        }
        IngestAction::Stats => {
            let doc = {
                let mut sh = lock(shared);
                sh.stats.wall = started.elapsed();
                daemon_stats_json(&sh.stats)
            };
            conn.outbox.push_back(doc);
        }
    }
}

/// The dispatcher: owns the long-lived [`SolveService`], drains the
/// admission queue in micro-batch generations, and routes one terminal
/// document per job back to its connection.
fn dispatcher_loop(mut service: SolveService, shared: &Shared, cert_save: Option<PathBuf>) {
    let mut generation: u64 = 0;
    loop {
        // Gather a generation: wait for work, then one tick more so a
        // burst lands in a single batch (coalescing and universe
        // sharing work across the whole generation).
        let batch: Vec<(u64, SolveJob)> = {
            let (mutex, cv) = &**shared;
            let mut sh = mutex.lock().expect("daemon state poisoned");
            loop {
                if !sh.pending.is_empty() {
                    break;
                }
                if sh.draining {
                    sh.dispatcher_done = true;
                    cv.notify_all();
                    return;
                }
                sh = cv.wait_timeout(sh, TICK).expect("daemon state poisoned").0;
            }
            drop(sh);
            std::thread::sleep(TICK);
            let mut sh = mutex.lock().expect("daemon state poisoned");
            sh.pending.drain(..).collect()
        };

        // Warm-start accounting, before the drain touches the cache:
        // generations after the first count how many of their distinct
        // ring shapes are already resident.
        let mut warm_lookups = 0u64;
        let mut warm_hits = 0u64;
        if generation > 0 {
            let mut seen = HashSet::new();
            for (_, job) in &batch {
                if seen.insert(job.universe_key()) {
                    warm_lookups += 1;
                    if service.universe_resident(job.universe_key()) {
                        warm_hits += 1;
                    }
                }
            }
        }

        let mut route: HashMap<String, u64> = HashMap::with_capacity(batch.len());
        let mut out: Vec<(u64, String)> = Vec::new();
        let mut admission_rejects = 0u64;
        for (conn_id, job) in batch {
            let id_hint = Some(job.id.clone()).filter(|s| !s.is_empty());
            match service.submit(job) {
                Ok(id) => {
                    route.insert(id, conn_id);
                }
                Err(e) => {
                    admission_rejects += 1;
                    out.push((
                        conn_id,
                        reject_json(id_hint.as_deref(), "admission", &e, None),
                    ));
                }
            }
        }
        let report = service.drain();
        generation += 1;

        let mut answered = 0u64;
        let mut unstarted = 0u64;
        let mut predicted_jobs = 0u64;
        let mut predicted_nodes = 0u64;
        let mut actual_nodes = 0u64;
        for r in &report.jobs {
            let Some(&conn_id) = route.get(&r.id) else {
                continue;
            };
            let doc = match (&r.error, &r.solution) {
                (Some(e), _) => {
                    admission_rejects += 1;
                    reject_json(Some(&r.id), "admission", e, None)
                }
                (None, Some(sol)) => {
                    answered += 1;
                    if r.unstarted {
                        unstarted += 1;
                    }
                    if let (Some(p), false) = (r.predicted, r.coalesced) {
                        predicted_jobs += 1;
                        predicted_nodes += p.nodes;
                        actual_nodes += sol.stats().nodes;
                    }
                    to_single_line(&solution_to_json_with_id(
                        sol,
                        &r.id,
                        r.predicted.map(|p| p.nodes),
                    ))
                }
                (None, None) => {
                    admission_rejects += 1;
                    reject_json(Some(&r.id), "admission", "no solution produced", None)
                }
            };
            out.push((conn_id, doc));
        }

        // Persist the grown certificate cache before publishing the
        // generation (whole-file, best-effort, outside the shared lock):
        // a crash after this point loses no certificates.
        if cert_save.is_some() {
            if let (Some(path), Some(doc)) = (cert_save.as_ref(), service.cert_cache_json()) {
                let _ = std::fs::write(path, doc);
            }
        }

        let (mutex, cv) = &**shared;
        let mut sh = mutex.lock().expect("daemon state poisoned");
        sh.responses.extend(out);
        sh.stats.generations += 1;
        sh.stats.jobs_answered += answered;
        sh.stats.unstarted += unstarted;
        sh.stats.rejected_admission += admission_rejects;
        sh.stats.warm_universe_lookups += warm_lookups;
        sh.stats.warm_universe_hits += warm_hits;
        sh.stats.predicted_jobs += predicted_jobs;
        sh.stats.predicted_nodes += predicted_nodes;
        sh.stats.actual_nodes += actual_nodes;
        sh.stats.memo_hits += report.stats.memo_hits;
        sh.stats.shared_hits += report.stats.shared_hits;
        sh.stats.cert_cache_hits += report.stats.cert_cache_hits as u64;
        if let Some((entries, _, _)) = service.cert_cache_stats() {
            sh.stats.cert_cache_entries = entries as u64;
        }
        cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_reassembles_split_lines() {
        let mut f = LineFramer::new(64);
        let mut got = Vec::new();
        for chunk in [&b"{\"a\": 1"[..], &b"}\n{\"b\""[..], &b": 2}\n"[..]] {
            got.extend(f.push(chunk));
        }
        assert_eq!(
            got,
            vec![
                FramedLine::Line("{\"a\": 1}".into()),
                FramedLine::Line("{\"b\": 2}".into()),
            ]
        );
    }

    #[test]
    fn framer_drops_oversized_lines_and_resyncs() {
        let mut f = LineFramer::new(8);
        let long = vec![b'x'; 30];
        let mut got = f.push(&long);
        got.extend(f.push(b"tail\nok\n"));
        assert_eq!(
            got,
            vec![
                FramedLine::Oversized { bytes: 34 },
                FramedLine::Line("ok".into())
            ]
        );
    }

    #[test]
    fn ingest_classifies_every_line_kind() {
        let ingest = Ingest::new(None, 2);
        assert!(matches!(ingest.admit("", 0), IngestAction::Ignore));
        assert!(matches!(ingest.admit("# comment", 0), IngestAction::Ignore));
        assert!(matches!(
            ingest.admit("{not json", 0),
            IngestAction::Reject {
                reason: "parse",
                ..
            }
        ));
        assert!(matches!(
            ingest.admit(
                r#"{"format": "cyclecover-control", "version": 1, "op": "shutdown"}"#,
                0
            ),
            IngestAction::Shutdown
        ));
        assert!(matches!(
            ingest.admit(r#"{"format": "cyclecover-control", "op": "stats"}"#, 0),
            IngestAction::Stats
        ));
        let req = r#"{"format": "cyclecover-request", "version": 1, "id": "a", "n": 6}"#;
        assert!(matches!(ingest.admit(req, 0), IngestAction::Submit(..)));
        assert!(matches!(
            ingest.admit(req, 2),
            IngestAction::Reject {
                reason: "overload",
                ..
            }
        ));
    }

    #[test]
    fn ingest_predictive_refusal_carries_the_prediction() {
        let model = CostModel::new(vec![crate::predict::CalibrationRow {
            n: 10,
            objective: "find_optimal".into(),
            symmetry: "root".into(),
            memo: true,
            nodes: 250_000,
            wall_ms: 80.0,
        }]);
        let ingest = Ingest::new(Some(model), 8);
        let doomed = r#"{"format": "cyclecover-request", "version": 1, "id": "d", "n": 10, "deadline_ms": 1}"#;
        match ingest.admit(doomed, 0) {
            IngestAction::Reject {
                reason: "predicted_unmeetable",
                prediction: Some(p),
                id,
                ..
            } => {
                assert_eq!(p.nodes, 250_000);
                assert_eq!(id.as_deref(), Some("d"));
            }
            other => panic!("expected predictive reject, got {other:?}"),
        }
        // The same job with a feasible deadline is admitted.
        let fine = r#"{"format": "cyclecover-request", "version": 1, "id": "d", "n": 10, "deadline_ms": 5000}"#;
        assert!(matches!(ingest.admit(fine, 0), IngestAction::Submit(..)));
    }

    #[test]
    fn stats_document_round_trips() {
        let stats = DaemonStats {
            connections_accepted: 3,
            connections_refused: 1,
            connections_open: 2,
            connections_closed: 1,
            jobs_received: 40,
            jobs_answered: 38,
            unstarted: 2,
            rejected_parse: 1,
            rejected_oversized: 1,
            rejected_overload: 2,
            rejected_admission: 1,
            rejected_predicted: 1,
            stalls: 4,
            generations: 5,
            warm_universe_lookups: 6,
            warm_universe_hits: 5,
            predicted_jobs: 30,
            predicted_nodes: 123_456,
            actual_nodes: 120_000,
            memo_hits: 2_000,
            shared_hits: 150,
            cert_cache_hits: 7,
            cert_cache_entries: 3,
            wall: Duration::from_millis(1500),
        };
        let doc = daemon_stats_json(&stats);
        assert!(!doc.contains('\n'));
        let back = DaemonStats::from_json(&doc).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn reject_document_shape() {
        let doc = reject_json(Some("j1"), "overload", "queue full", None);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("format").and_then(Json::as_str),
            Some("cyclecover-reject")
        );
        assert_eq!(
            parsed.get("reason").and_then(Json::as_str),
            Some("overload")
        );
        let predicted = reject_json(
            None,
            "predicted_unmeetable",
            "too slow",
            Some(Prediction {
                nodes: 99,
                wall_ms: 12.5,
                exact: true,
            }),
        );
        let parsed = Json::parse(&predicted).unwrap();
        assert_eq!(
            parsed.get("predicted_nodes").and_then(Json::as_num),
            Some(99.0)
        );
    }
}
