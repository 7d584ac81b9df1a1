//! Predictive admission: calibrated cost curves over the exact search.
//!
//! The daemon (and any [`SolveService`](crate::SolveService) with a
//! model installed) consults a [`CostModel`] — a table of measured
//! `(n, objective, symmetry, memo) → (nodes, wall_ms)` points produced
//! by the `bench_calibrate` bin and committed as
//! `crates/service/calibration.json` — to refuse deadlines the curves
//! say cannot be met *at admission*, instead of discovering the miss
//! mid-solve. Two properties are load-bearing and pinned by tests:
//!
//! - **Honesty** ([`CostModel::unmeetable`] never over-rejects): a job
//!   is refused only when its deadline is at least
//!   [`SAFETY_FACTOR`]× shorter than the *measured* wall of its exact
//!   calibration point. Any job the table says is feasible
//!   (`deadline ≥ wall_ms`) is admitted; so is any job the model is not
//!   confident about — partial demand specs, heuristic engines,
//!   explicit `max_nodes` caps (which end a run *early*), and ring
//!   sizes that only extrapolation covers all return "admit".
//! - **Auditability**: every prediction the model makes is carried next
//!   to the job's actual node count in the batch summary and the
//!   daemon stats (`predicted_nodes` vs `nodes`), so drift between the
//!   committed table and the live engine is observable, not silent.
//!
//! Calibration points are measured on the `bitset` engine, and the
//! model predicts only jobs that name it.

use cyclecover_io::json::{Json, SolveJob};
use cyclecover_solver::api::{Objective, SymmetryMode};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Admission refuses a deadline only when the predicted wall exceeds it
/// by at least this factor — slack for hardware variance between the
/// calibration host and the serving host. 4× is far above the run-to-run
/// noise of the node-deterministic kernels, and still refuses the
/// pathological case (a millisecond deadline on a hundred-millisecond
/// certification) that predictive admission exists for.
pub const SAFETY_FACTOR: f64 = 4.0;

/// One measured calibration point.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationRow {
    /// Ring size.
    pub n: u32,
    /// Objective kind: `"find_optimal"`, `"within_budget"`, or
    /// `"prove_infeasible"` (budgets are the canonical sweep budgets:
    /// `ρ(n)+1` within, `ρ(n)` refuted).
    pub objective: String,
    /// Symmetry mode the point was measured under (`off|root|full`).
    pub symmetry: String,
    /// Whether the residual-state memo was enabled.
    pub memo: bool,
    /// Nodes the exact search expanded.
    pub nodes: u64,
    /// Measured wall, milliseconds.
    pub wall_ms: f64,
}

/// What the model believes a job will cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted search nodes.
    pub nodes: u64,
    /// Predicted wall, milliseconds.
    pub wall_ms: f64,
    /// `true` when an exact calibration point backed the prediction;
    /// `false` for log-linear extrapolation in `n`. Only exact
    /// predictions may reject at admission.
    pub exact: bool,
}

/// The calibrated cost model: lookup plus conservative extrapolation.
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    rows: Vec<CalibrationRow>,
}

/// The objective's table key, the budget when rejection must not use
/// the row (a calibrated `within_budget` point says nothing about an
/// arbitrary budget), and the symmetry key with the engine default
/// (`root`) applied.
fn job_keys(job: &SolveJob) -> (&'static str, bool, &'static str) {
    let (objective, budget_free) = match job.objective {
        Objective::FindOptimal => ("find_optimal", true),
        Objective::WithinBudget(_) => ("within_budget", false),
        Objective::ProveInfeasible(_) => ("prove_infeasible", false),
    };
    let symmetry = match job.symmetry {
        Some(SymmetryMode::Off) => "off",
        Some(SymmetryMode::Full) => "full",
        Some(SymmetryMode::Root) | None => "root",
    };
    (objective, budget_free, symmetry)
}

impl CostModel {
    /// A model over the given calibration points.
    pub fn new(rows: Vec<CalibrationRow>) -> Self {
        CostModel { rows }
    }

    /// The committed calibration table (`crates/service/calibration.json`,
    /// generated by `bench_calibrate`), parsed once.
    pub fn builtin() -> &'static CostModel {
        static BUILTIN: OnceLock<CostModel> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            CostModel::from_json(include_str!("../calibration.json"))
                .expect("committed calibration table parses")
        })
    }

    /// The calibration points, as loaded.
    pub fn rows(&self) -> &[CalibrationRow] {
        &self.rows
    }

    /// Parses a `cyclecover-calibration` v1 document.
    pub fn from_json(text: &str) -> Result<CostModel, String> {
        let doc = Json::parse(text)?;
        match doc.get("format").and_then(Json::as_str) {
            Some("cyclecover-calibration") => {}
            other => return Err(format!("bad calibration format {other:?}")),
        }
        match doc.get("version").and_then(Json::as_num) {
            Some(1.0) => {}
            other => return Err(format!("unsupported calibration version {other:?}")),
        }
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("calibration document without rows[]")?;
        let mut out = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let field = |key: &str| {
                row.get(key)
                    .ok_or_else(|| format!("row {i}: missing {key}"))
            };
            let num = |key: &str| {
                field(key)?
                    .as_num()
                    .ok_or_else(|| format!("row {i}: {key} is not a number"))
            };
            let objective = field("objective")?
                .as_str()
                .ok_or_else(|| format!("row {i}: objective is not a string"))?;
            if !matches!(
                objective,
                "find_optimal" | "within_budget" | "prove_infeasible"
            ) {
                return Err(format!("row {i}: unknown objective '{objective}'"));
            }
            let symmetry = field("symmetry")?
                .as_str()
                .ok_or_else(|| format!("row {i}: symmetry is not a string"))?;
            if !matches!(symmetry, "off" | "root" | "full") {
                return Err(format!("row {i}: unknown symmetry '{symmetry}'"));
            }
            out.push(CalibrationRow {
                n: num("n")? as u32,
                objective: objective.to_string(),
                symmetry: symmetry.to_string(),
                memo: match field("memo")? {
                    Json::Bool(b) => *b,
                    _ => return Err(format!("row {i}: memo is not a bool")),
                },
                nodes: num("nodes")? as u64,
                wall_ms: num("wall_ms")?,
            });
        }
        Ok(CostModel { rows: out })
    }

    /// Serializes as the `cyclecover-calibration` v1 document
    /// (round-trips through [`CostModel::from_json`]).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"format\": \"cyclecover-calibration\",\n  \"version\": 1,\n");
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"n\": {}, \"objective\": \"{}\", \"symmetry\": \"{}\", \
                 \"memo\": {}, \"nodes\": {}, \"wall_ms\": {:.3}}}",
                r.n, r.objective, r.symmetry, r.memo, r.nodes, r.wall_ms
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The model's cost estimate for `job`, or `None` when the model
    /// has nothing defensible to say: partial or λ-fold demand specs,
    /// engines other than the calibrated `bitset`, or ring sizes
    /// below every calibration point. The lookup keys on the job's wire
    /// `memo` knob (defaulting to on, the engine default), so a
    /// memo-off job is matched against memo-off calibration points.
    pub fn predict(&self, job: &SolveJob) -> Option<Prediction> {
        if job.requests.is_some() {
            return None;
        }
        // λ-fold specs run a different kernel (the packed lane core)
        // with its own cost curve; the unit-cover table says nothing
        // about them, so they are always admitted.
        if job.lambda > 1 {
            return None;
        }
        if job.engine != "bitset" {
            return None;
        }
        let memo = job.memo.unwrap_or(true);
        let (objective, _, symmetry) = job_keys(job);
        let curve = || {
            self.rows
                .iter()
                .filter(|r| r.objective == objective && r.symmetry == symmetry && r.memo == memo)
        };
        if let Some(row) = curve().find(|r| r.n == job.n) {
            return Some(Prediction {
                nodes: row.nodes,
                wall_ms: row.wall_ms,
                exact: true,
            });
        }
        // Log-linear extrapolation from the two largest calibrated
        // sizes below the job's: the exact search grows superlinearly,
        // so a straight line in log-space is a usable (and clearly
        // labelled non-exact) trend estimate.
        let mut below: Vec<&CalibrationRow> = curve().filter(|r| r.n < job.n).collect();
        below.sort_by_key(|r| r.n);
        let hi = below.pop()?;
        let lo = below.pop().unwrap_or(hi);
        let span = (hi.n - lo.n).max(1) as f64;
        let steps = f64::from(job.n - hi.n) / span;
        let grow = |a: f64, b: f64| {
            let ratio = (b.max(1e-9) / a.max(1e-9)).max(1.0);
            b * ratio.powf(steps)
        };
        Some(Prediction {
            nodes: grow(lo.nodes as f64, hi.nodes as f64).min(u64::MAX as f64 / 2.0) as u64,
            wall_ms: grow(lo.wall_ms, hi.wall_ms),
            exact: false,
        })
    }

    /// The admission verdict: `Some(prediction)` when the model is
    /// confident `job` cannot meet `deadline_ms` — refuse it now with a
    /// wire-visible reason instead of burning a worker to discover the
    /// same thing. `None` means admit.
    ///
    /// Confidence requires *all* of: an exact calibration point (no
    /// extrapolated rejection), a budget-free objective
    /// (`find_optimal`; a calibrated `within_budget` point says nothing
    /// about other budgets), no caller `max_nodes` cap (a cap ends the
    /// run early, possibly inside the deadline), and a measured wall at
    /// least [`SAFETY_FACTOR`]× the deadline.
    pub fn unmeetable(&self, job: &SolveJob, deadline_ms: u64) -> Option<Prediction> {
        let (_, budget_free, _) = job_keys(job);
        if !budget_free || job.max_nodes.is_some() {
            return None;
        }
        let prediction = self.predict(job)?;
        if prediction.exact && prediction.wall_ms > SAFETY_FACTOR * deadline_ms as f64 {
            Some(prediction)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        n: u32,
        objective: &str,
        symmetry: &str,
        memo: bool,
        nodes: u64,
        wall_ms: f64,
    ) -> CalibrationRow {
        CalibrationRow {
            n,
            objective: objective.to_string(),
            symmetry: symmetry.to_string(),
            memo,
            nodes,
            wall_ms,
        }
    }

    fn model() -> CostModel {
        CostModel::new(vec![
            row(8, "find_optimal", "root", true, 1_000, 2.0),
            row(10, "find_optimal", "root", true, 10_000, 20.0),
            row(10, "find_optimal", "off", true, 500_000, 900.0),
            row(10, "prove_infeasible", "root", true, 9_000, 18.0),
        ])
    }

    #[test]
    fn exact_lookup_and_admission() {
        let m = model();
        let job = SolveJob::new("j", 10);
        let p = m.predict(&job).unwrap();
        assert!(p.exact);
        assert_eq!(p.nodes, 10_000);
        // 20 ms predicted: a 1 ms deadline is refused, a 5 ms deadline
        // (= wall / SAFETY_FACTOR) is admitted — the boundary is strict.
        assert!(m.unmeetable(&job, 1).is_some());
        assert!(m.unmeetable(&job, 5).is_none());
        assert!(m.unmeetable(&job, 60_000).is_none());
    }

    #[test]
    fn honesty_feasible_points_always_admit() {
        let m = model();
        for r in m.rows() {
            if r.objective != "find_optimal" || !r.memo {
                continue;
            }
            let mut job = SolveJob::new("j", r.n);
            job.symmetry = Some(match r.symmetry.as_str() {
                "off" => SymmetryMode::Off,
                "full" => SymmetryMode::Full,
                _ => SymmetryMode::Root,
            });
            // The table itself says this wall is achievable.
            let feasible = r.wall_ms.ceil() as u64 + 1;
            assert!(
                m.unmeetable(&job, feasible).is_none(),
                "rejected a table-feasible job: n={} deadline={feasible}ms",
                r.n
            );
        }
    }

    #[test]
    fn unconfident_shapes_never_reject() {
        let m = model();
        // Partial spec: no prediction at all.
        let mut partial = SolveJob::new("p", 10);
        partial.requests = Some(vec![(0, 3)]);
        assert!(m.predict(&partial).is_none());
        // λ-fold spec: different kernel, different curve — no
        // prediction, so admission always says yes.
        let mut lambda = SolveJob::new("l", 10);
        lambda.lambda = 2;
        assert!(m.predict(&lambda).is_none());
        assert!(m.unmeetable(&lambda, 0).is_none());
        // Heuristic engine: not the calibrated family.
        let mut heur = SolveJob::new("h", 10);
        heur.engine = "greedy".to_string();
        assert!(m.predict(&heur).is_none());
        // Budgeted objective: predicted, never rejected.
        let mut budget = SolveJob::new("b", 10);
        budget.objective = Objective::ProveInfeasible(12);
        assert!(m.predict(&budget).is_some());
        assert!(m.unmeetable(&budget, 0).is_none());
        // max_nodes cap: run may end early, never rejected.
        let mut capped = SolveJob::new("c", 10);
        capped.max_nodes = Some(10);
        assert!(m.unmeetable(&capped, 0).is_none());
        // Extrapolated size: predicted (non-exact), never rejected.
        let big = SolveJob::new("x", 14);
        let p = m.predict(&big).unwrap();
        assert!(!p.exact);
        assert!(p.wall_ms > 20.0);
        assert!(m.unmeetable(&big, 0).is_none());
        // Below every calibrated point: nothing defensible.
        assert!(m.predict(&SolveJob::new("s", 6)).is_none());
    }

    #[test]
    fn json_round_trip() {
        let m = model();
        let back = CostModel::from_json(&m.to_json()).unwrap();
        assert_eq!(back.rows(), m.rows());
    }

    #[test]
    fn builtin_table_loads_and_covers_the_wire_defaults() {
        let m = CostModel::builtin();
        assert!(!m.rows().is_empty());
        // The daemon's admission path needs exact find_optimal points
        // under the wire-default symmetry for the small-ring workload.
        for n in [8u32, 10] {
            let job = SolveJob::new("probe", n);
            let p = m.predict(&job).expect("builtin covers small rings");
            assert!(p.exact, "n={n} should have an exact builtin point");
        }
    }
}
