//! # cyclecover-service
//!
//! The batching solve service over the
//! [`cyclecover_solver::api`] engine registry — the subsystem that turns
//! the per-instance solver into something that serves *traffic*. The
//! paper's covering designs provision survivable WDM rings, so the real
//! workload is many `(n, spec, budget)` questions arriving together;
//! this crate accepts a queue of wire-format requests
//! ([`cyclecover_io::json::SolveJob`]) and answers all of them with:
//!
//! * a **universe cache** ([`UniverseCache`]): `TileUniverse`
//!   construction deduplicated by `(n, max_len, max_gap)` behind a
//!   byte-budgeted LRU — the expensive, spec-independent work is done
//!   once per ring shape per residency;
//! * **deadline-aware scheduling** ([`SolveService`]): earliest-deadline-
//!   first admission, per-job limits, already-expired jobs rejected
//!   without burning a single search node;
//! * **request coalescing**: wire-identical jobs are solved once and the
//!   answer fanned back out to every waiter;
//! * **one cancellation token per batch**, cloned into every kernel, so
//!   [`SolveService::cancel_all`] aborts the whole batch without
//!   disturbing anything else (and [`SolveService::shutdown`] drains it
//!   gracefully, reporting unstarted work as such);
//! * a **fault-tolerance layer**: every dispatch runs under
//!   `catch_unwind` (a panic is a terminal `failed` answer and the key is
//!   quarantined, never a dead worker), transient failures retry with
//!   deterministic seeded backoff, budget exhaustion walks the request's
//!   `fallback` engine ladder with an honest `Degraded` certificate, and
//!   a seeded [`FaultPlan`] injects all of the above deterministically
//!   for chaos tests (`docs/robustness.md` has the full model).
//!
//! The CLI front-end is `cyclecover serve --batch jobs.jsonl`; the wire
//! protocol is defined normatively in [`cyclecover_io::json`] and by
//! example in `docs/wire-format.md`.
//!
//! ```
//! use cyclecover_io::json::{request_from_json, SolveJob};
//! use cyclecover_service::{ServiceConfig, SolveService};
//!
//! let mut service = SolveService::new(ServiceConfig::default());
//! // Two identical jobs and a third sharing the ring shape: one
//! // universe build, one kernel run for the twins.
//! service.submit(SolveJob::new("a", 6)).unwrap();
//! service.submit(SolveJob::new("b", 6)).unwrap();
//! let from_wire = request_from_json(
//!     r#"{"format": "cyclecover-request", "version": 1, "n": 6,
//!         "objective": {"kind": "within_budget", "budget": 6}}"#,
//! )
//! .unwrap();
//! service.submit(from_wire).unwrap();
//!
//! let report = service.drain();
//! assert_eq!(report.stats.submitted, 3);
//! assert_eq!(report.stats.solved, 3);
//! assert_eq!(report.stats.coalesced, 1);         // "b" rode along with "a"
//! assert_eq!(report.stats.cache.misses, 1);      // one universe build…
//! assert!(report.stats.cache.hits >= 1);         // …then shared
//! assert_eq!(report.jobs[0].solution.as_ref().unwrap().size(), Some(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod certs;
mod daemon;
mod fault;
mod predict;
mod service;

pub use cache::{CacheStats, UniverseCache, UniverseKey};
pub use certs::CertCache;
pub use daemon::{
    daemon_stats_json, reject_json, Daemon, DaemonConfig, DaemonStats, FramedLine, Ingest,
    IngestAction, LineFramer,
};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use predict::{CalibrationRow, CostModel, Prediction, SAFETY_FACTOR};
pub use service::{
    batch_summary_json, batch_summary_json_with_rejects, BatchReport, BatchStats, EngineTotal,
    JobReport, ServiceConfig, SolveService,
};
