//! Deterministic fault injection for the solve service.
//!
//! A [`FaultPlan`] is a seeded, declarative list of faults to fire at
//! specific points of a batch: *panic on the Nth engine dispatch*,
//! *force this job's deadline to zero*, *stall the worker*, *fail the
//! Nth universe construction*. The service threads the plan through a
//! [`FaultInjector`] that every dispatch consults — compiled in always,
//! a guaranteed no-op with the empty plan — so CI chaos tests exercise
//! the exact production code paths, deterministically.
//!
//! # Wire format — `"format": "cyclecover-fault-plan"` (version 1)
//!
//! ```json
//! {"format": "cyclecover-fault-plan", "version": 1, "seed": 42,
//!  "faults": [
//!    {"on_solve": 3, "kind": "panic"},
//!    {"job": "poison", "kind": "panic"},
//!    {"on_solve": 7, "kind": "deadline"},
//!    {"on_solve": 9, "kind": "stall", "ms": 5},
//!    {"on_build": 1, "kind": "build_fail"}
//!  ]}
//! ```
//!
//! | field | meaning |
//! |-------|---------|
//! | `seed` | seeds the service's retry-backoff jitter for the run (optional; default 0) |
//! | `faults` | array of fault objects, each one trigger + one kind |
//!
//! Triggers (exactly one per fault):
//!
//! * `"on_solve": N` — fires on the Nth engine dispatch of the service's
//!   lifetime (1-based, counted across retries, ladder rungs, and
//!   drains). Fires once.
//! * `"job": "id"` — fires on *every* dispatch whose group primary has
//!   this job id: a poison instance, for exercising retry exhaustion and
//!   quarantine.
//! * `"on_build": N` — fires on the Nth universe-cache miss (1-based).
//!   Fires once.
//!
//! Kinds:
//!
//! * `"panic"` — the dispatch panics (caught at the service's isolation
//!   boundary).
//! * `"deadline"` — the dispatch runs with a zero deadline, so the
//!   engine genuinely returns `budget_exhausted`/`deadline` (the job's
//!   real deadline keeps its slack — the retry path recovers).
//! * `"stall", "ms": M` — the worker sleeps `M` ms before solving
//!   (deadline pressure without touching the request).
//! * `"build_fail"` — the universe construction "fails": the group is
//!   reported `failed`/`internal` without a kernel run.
//!
//! Counters are 1-based and global per service instance, so a plan is
//! deterministic whenever the dispatch order is (one worker, or
//! `job`-triggered faults only).

use cyclecover_io::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// What an injected fault does to the dispatch it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the engine dispatch.
    Panic,
    /// Run the dispatch with a zero deadline (forced exhaustion).
    Deadline,
    /// Sleep this many milliseconds before solving.
    Stall(u64),
    /// Fail the universe construction for the group.
    BuildFail,
}

/// When a fault fires.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Trigger {
    /// The Nth engine dispatch (1-based, global; fires once).
    OnSolve(u64),
    /// Every dispatch of the group whose primary job has this id.
    Job(String),
    /// The Nth universe construction (1-based, global; fires once).
    OnBuild(u64),
}

/// One fault: a trigger and what happens when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    trigger: Trigger,
    kind: FaultKind,
}

/// A seeded, declarative fault schedule (the module docs at the top of
/// `fault.rs` define the wire format).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seeds the service's retry-backoff jitter while this plan is
    /// installed.
    pub seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan can ever fire.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Parses a `cyclecover-fault-plan` document.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = Json::parse(text)?;
        match doc.get("format").and_then(Json::as_str) {
            Some("cyclecover-fault-plan") => {}
            other => return Err(format!("not a cyclecover-fault-plan document: {other:?}")),
        }
        match doc.get("version").and_then(Json::as_num) {
            Some(v) if (v - 1.0).abs() < f64::EPSILON => {}
            Some(v) => return Err(format!("unsupported fault-plan version {v}")),
            None => return Err("missing 'version'".into()),
        }
        let seed = match doc.get("seed") {
            None | Some(Json::Null) => 0,
            Some(v) => {
                let x = v.as_num().ok_or("'seed' must be a number")?;
                if x.fract() != 0.0 || x < 0.0 {
                    return Err(format!("'seed' = {x} must be a non-negative integer"));
                }
                x as u64
            }
        };
        let mut faults = Vec::new();
        if let Some(list) = doc.get("faults") {
            let list = list
                .as_arr()
                .ok_or("'faults' must be an array of fault objects")?;
            for (i, f) in list.iter().enumerate() {
                faults.push(parse_fault(f).map_err(|e| format!("fault {i}: {e}"))?);
            }
        }
        Ok(FaultPlan { seed, faults })
    }
}

fn parse_fault(f: &Json) -> Result<Fault, String> {
    let counter = |key: &str| -> Result<Option<u64>, String> {
        match f.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => {
                let x = v
                    .as_num()
                    .ok_or_else(|| format!("'{key}' must be a number"))?;
                if x.fract() != 0.0 || x < 1.0 {
                    return Err(format!(
                        "'{key}' = {x} must be a positive integer (1-based)"
                    ));
                }
                Ok(Some(x as u64))
            }
        }
    };
    let trigger = match (counter("on_solve")?, f.get("job"), counter("on_build")?) {
        (Some(n), None, None) => Trigger::OnSolve(n),
        (None, Some(id), None) => {
            let id = id.as_str().ok_or("'job' must be a job id string")?;
            if id.is_empty() {
                return Err("'job' must not be empty".into());
            }
            Trigger::Job(id.to_string())
        }
        (None, None, Some(n)) => Trigger::OnBuild(n),
        _ => return Err("want exactly one trigger: 'on_solve', 'job', or 'on_build'".into()),
    };
    let kind = match f.get("kind").and_then(Json::as_str) {
        Some("panic") => FaultKind::Panic,
        Some("deadline") => FaultKind::Deadline,
        Some("stall") => {
            let ms = match f.get("ms") {
                None | Some(Json::Null) => 1,
                Some(v) => {
                    let x = v.as_num().ok_or("'ms' must be a number")?;
                    if x.fract() != 0.0 || x < 0.0 {
                        return Err(format!("'ms' = {x} must be a non-negative integer"));
                    }
                    x as u64
                }
            };
            FaultKind::Stall(ms)
        }
        Some("build_fail") => FaultKind::BuildFail,
        other => {
            return Err(format!(
                "bad fault kind {other:?} (want panic|deadline|stall|build_fail)"
            ))
        }
    };
    if kind == FaultKind::BuildFail && !matches!(trigger, Trigger::OnBuild(_)) {
        return Err("'build_fail' needs an 'on_build' trigger".into());
    }
    if kind != FaultKind::BuildFail && matches!(trigger, Trigger::OnBuild(_)) {
        return Err("'on_build' only triggers 'build_fail'".into());
    }
    Ok(Fault { trigger, kind })
}

/// The hook the service consults at every dispatch and universe build.
/// With the empty plan both probes are a single branch — the fault
/// machinery is compiled in always and costs nothing when disabled.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    solves: AtomicU64,
    builds: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector driving the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            solves: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Called before every engine dispatch with the group primary's job
    /// id; returns the fault to apply, if any fires. Counts dispatches
    /// even when nothing fires (so `on_solve` indices stay meaningful
    /// across a mixed plan), but skips all bookkeeping on the empty plan.
    pub fn before_solve(&self, job_id: &str) -> Option<FaultKind> {
        if self.plan.is_empty() {
            return None;
        }
        let nth = self.solves.fetch_add(1, Ordering::SeqCst) + 1;
        let fired = self.plan.faults.iter().find_map(|f| match &f.trigger {
            Trigger::OnSolve(n) if *n == nth => Some(f.kind),
            Trigger::Job(id) if id == job_id => Some(f.kind),
            _ => None,
        });
        if fired.is_some() {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// Called before every universe construction (cache miss); `true`
    /// means the build must fail.
    pub fn before_build(&self) -> bool {
        if self.plan.is_empty() {
            return false;
        }
        let nth = self.builds.fetch_add(1, Ordering::SeqCst) + 1;
        let fired = self
            .plan
            .faults
            .iter()
            .any(|f| matches!(f.trigger, Trigger::OnBuild(n) if n == nth));
        if fired {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// Total faults fired over the injector's lifetime.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"{"format": "cyclecover-fault-plan", "version": 1, "seed": 42,
        "faults": [
          {"on_solve": 2, "kind": "panic"},
          {"job": "poison", "kind": "deadline"},
          {"on_solve": 4, "kind": "stall", "ms": 3},
          {"on_build": 1, "kind": "build_fail"}
        ]}"#;

    #[test]
    fn plan_parses_and_fires_deterministically() {
        let plan = FaultPlan::from_json(PLAN).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.len(), 4);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.before_solve("a"), None); // dispatch 1
        assert_eq!(inj.before_solve("a"), Some(FaultKind::Panic)); // 2
        assert_eq!(inj.before_solve("poison"), Some(FaultKind::Deadline)); // 3, by id
        assert_eq!(inj.before_solve("b"), Some(FaultKind::Stall(3))); // 4
        assert_eq!(inj.before_solve("b"), None); // 5
        assert!(inj.before_build());
        assert!(!inj.before_build());
        assert_eq!(inj.injected(), 4);
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..100 {
            assert_eq!(inj.before_solve("x"), None);
            assert!(!inj.before_build());
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn parser_rejects_malformed_plans() {
        for (bad, want) in [
            (
                r#"{"format": "cyclecover-request", "version": 1}"#,
                "not a cyclecover-fault-plan",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 2}"#,
                "version 2",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 1,
                 "faults": [{"kind": "panic"}]}"#,
                "exactly one trigger",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 1,
                 "faults": [{"on_solve": 1, "job": "x", "kind": "panic"}]}"#,
                "exactly one trigger",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 1,
                 "faults": [{"on_solve": 0, "kind": "panic"}]}"#,
                "positive integer",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 1,
                 "faults": [{"on_solve": 1, "kind": "levitate"}]}"#,
                "fault kind",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 1,
                 "faults": [{"on_solve": 1, "kind": "build_fail"}]}"#,
                "on_build",
            ),
            (
                r#"{"format": "cyclecover-fault-plan", "version": 1,
                 "faults": [{"on_build": 1, "kind": "panic"}]}"#,
                "on_build",
            ),
        ] {
            let err = FaultPlan::from_json(bad).unwrap_err();
            assert!(err.contains(want), "{bad}: {err}");
        }
    }
}
