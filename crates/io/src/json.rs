//! The JSON wire protocol: request and solution documents.
//!
//! This module is the normative definition of the two document kinds the
//! workspace speaks over the wire — what the batch solve service
//! (`cyclecover-service`, `cyclecover serve --batch`) consumes and what
//! every solver front-end emits. Worked examples live in
//! `docs/wire-format.md` at the repository root; an integration test
//! round-trips every example there through this parser.
//!
//! # Common rules
//!
//! * Documents are JSON objects. Every document carries a `"format"`
//!   discriminator string and an integer `"version"`.
//! * **Versioning**: a consumer MUST reject a document whose `version`
//!   exceeds the version it implements (currently `1` for both kinds),
//!   and MUST ignore object fields it does not recognize — additive
//!   fields are a compatible change, renames/removals/semantic changes
//!   require a version bump.
//! * Numbers are interchanged as JSON numbers; every field below is an
//!   unsigned integer unless stated otherwise. Parsing is std-only:
//!   [`Json`] is a minimal recursive-descent reader sufficient for this
//!   schema (and for any well-formed document without surrogate-pair
//!   escapes).
//!
//! # Request documents — `"format": "cyclecover-request"` (version 1)
//!
//! One solve job. Parsed by [`request_from_json`] into a [`SolveJob`],
//! emitted (single-line, suitable for `.jsonl` batch files) by
//! [`request_to_json`].
//!
//! | field | required | meaning |
//! |-------|----------|---------|
//! | `format` | yes | the string `"cyclecover-request"` |
//! | `version` | yes | `1` |
//! | `id` | no | job identifier: 1–64 chars from `[A-Za-z0-9._-]`; defaults to `""` (the service assigns `job-<seq>`) |
//! | `n` | yes | ring size, `3 ≤ n ≤ 1024` ([`Ring::MAX_N`]); any other size is rejected at parse time |
//! | `max_len` | no | max tile vertex count, `3 ≤ max_len ≤ n`; default `n` |
//! | `max_gap` | no | max ring gap between consecutive tile vertices, `1 ≤ max_gap ≤ n`; default `n` (unconstrained) |
//! | `requests` | no | array of `[u, v]` vertex pairs (`u ≠ v`, both `< n`): the demand is *exactly these requests, each `lambda` times*; absent or `null` = all of `K_n` |
//! | `lambda` | no | covering multiplicity `λ ≥ 1`: every request must be covered `λ` times; default `1` (the classical cover). Every λ up to `65,535` runs on the packed lane and partition kernels (2-bit lanes up to 3, 4-bit lanes up to 15, 16-bit lanes beyond, memo-free); a larger λ answers `engine_limit` without a search node. A λ whose capacity bound `⌈λ·Σd(e)/n⌉` exceeds `2³² − 1` cycles is refused |
//! | `engine` | no | engine registry name; default `"bitset"` (validated against the registry at admission, not parse, time) |
//! | `objective` | no | `{"kind": "find_optimal"}` (default), `{"kind": "within_budget", "budget": K}`, or `{"kind": "prove_infeasible", "budget": K}` |
//! | `max_nodes` | no | search-node budget for the whole request |
//! | `deadline_ms` | no | wall-clock deadline in milliseconds, **measured from batch start**: the scheduler admits the job only while `now < start + deadline_ms`, and an admitted job runs with the remaining slice; an expired job is reported `budget_exhausted`/`deadline` without running |
//! | `symmetry` | no | `"off"`, `"root"`, or `"full"`; absent = the engine default (`root` for exact engines) |
//! | `memo` | no | boolean: enable/disable the refutation-store memo; absent or `null` = the engine default (on for exact engines) |
//! | `memo_mb` | no | refutation-store byte budget in MiB (`≥ 1`); absent = the engine default (32 MiB) |
//! | `fallback` | no | array of engine registry names forming the degradation ladder: when the primary `engine` exhausts its budget (or fails), a scheduler may re-dispatch down this chain in order, and the answer carries an honest `degraded` record; absent or `null` = no fallback |
//!
//! `(n, max_len, max_gap)` is the **universe key**: jobs agreeing on it
//! share one precomputed [`TileUniverse`](cyclecover_solver::TileUniverse)
//! (the service caches these by key under a byte budget). Everything
//! *except* `id` and `deadline_ms` forms the **coalescing key**: identical
//! jobs are solved once and fanned back out to every waiter.
//!
//! # Solution documents — `"format": "cyclecover-solution"` (version 1)
//!
//! One engine answer. Emitted by [`solution_to_json`]; the covering is
//! independently re-validated on receipt by [`covering_from_solution_json`]
//! — the same trust boundary as the v1 text format, for machines instead
//! of humans.
//!
//! | field | meaning |
//! |-------|---------|
//! | `format` | the string `"cyclecover-solution"` |
//! | `version` | `1` |
//! | `n` | ring size the problem was solved on |
//! | `engine` | registry name of the engine that answered (`"service"` when a scheduler rejected the job unrun) |
//! | `cached` | boolean: `true` when the answer was served from a persisted certificate cache — no kernel ran and the stats are all-zero; `false` for every freshly-computed answer |
//! | `optimality` | the certificate object, below |
//! | `degraded` | `null` for a direct engine answer; otherwise `{"from": E1, "to": E2, "reason": R}` — a scheduler walked the request's `fallback` ladder and engine `E2` answered instead of the requested `E1`. `R` is `"panicked"` or one of the `budget_exhausted` reason strings (why `E1` was abandoned) |
//! | `size` | number of cycles, or `null` when no covering is carried |
//! | `cycles` | array of cycles (each an array of ring vertices), or `null` |
//! | `stats` | `{nodes, pruned, dominated, sym_pruned, canon_pruned, memo_hits, shared_hits, memo_entries, partition_probes, symmetry_factor, budgets_tried, attempts, wall_ms}`; `wall_ms` is a float; `attempts` counts engine dispatches (1 = direct solve, more under a retrying/degrading scheduler, 0 = never started); `shared_hits` is the subset of `memo_hits` landing on refutations another searcher recorded (an earlier deepening probe or, under a shared store, another request); `partition_probes` is the certificate's route provenance — how many budget probes ran on the slack-budgeted partition kernel rather than branch & bound (0 = none did) |
//!
//! `optimality.kind` is one of:
//!
//! * `"optimal"` — carries `proof`, either
//!   `{"kind": "combinatorial_bound", "bound": B}` or
//!   `{"kind": "exhaustive_search", "infeasible_budget": K, "nodes": N,
//!   "symmetry_factor": F}` (`F` = order of the dihedral subgroup the
//!   refutation's root branch was reduced by, `1` = unreduced — keeps
//!   symmetry-reduced certificates auditable);
//! * `"feasible"` — a covering meeting the objective, optimality unknown;
//! * `"infeasible"` — exhaustively proved impossible within the budget;
//! * `"budget_exhausted"` — carries `reason`: `"node_budget"`,
//!   `"deadline"`, `"cancelled"`, `"shutdown"` (cancelled by a service
//!   draining for shutdown), or `"engine_limit"`;
//! * `"failed"` — a terminal failure, not a resource verdict: carries
//!   `reason`, `"panic"` (the engine panicked; caught at the service's
//!   isolation boundary) or `"internal"` (a service-internal failure
//!   prevented the solve from starting). Retrying with a bigger budget
//!   will not help.
//!
//! `cycles` (and `size`) are `null` exactly when the verdict carries no
//! covering (`infeasible`, `budget_exhausted`, `failed`).
//!
//! **Limitation (v1, normative):** a solution document does not carry
//! the demand spec it answered, so [`covering_from_solution_json`]
//! re-validates each cycle against the ring's DRC rules but full
//! *coverage* validation ([`DrcCovering::validate`]) asserts the
//! complete-`K_n` spec. Answers to partial-instance requests
//! (`requests` set) therefore re-validate only at the DRC trust
//! boundary; receivers that need coverage checked against a partial
//! spec must keep the request document alongside. Carrying the spec in
//! the solution document is a planned v2 addition.
//!
//! # Certificate-cache documents — `"format": "cyclecover-certificate-cache"` (version 1)
//!
//! The service's persisted answer store (`serve --cert-cache FILE`): a
//! repeat wire-identical request is answered from here with zero kernel
//! nodes, marked `"cached": true`. Built and parsed by
//! `cyclecover_service::CertCache`; the shape is normative here because
//! it is a wire document like the other two.
//!
//! | field | required | meaning |
//! |-------|----------|---------|
//! | `format` | yes | the string `"cyclecover-certificate-cache"` |
//! | `version` | yes | `1` |
//! | `entries` | yes | array of `{"key": K, "solution": S}` objects |
//!
//! `K` is the request's **coalescing key**: its `cyclecover-request`
//! document re-serialized with `id` and `deadline_ms` blanked (the same
//! key the batch scheduler coalesces duplicate jobs under). `S` is the
//! single-line `cyclecover-solution` document originally emitted for
//! that request. Only terminal verdicts are persisted (`optimal`,
//! `infeasible`, never degraded); on load every entry is re-validated —
//! the key must re-parse as a request, the verdict must be cacheable,
//! and an `optimal` covering must re-pass the DRC and coverage checks
//! ([`certificate_from_solution_json`]) — and entries that fail are
//! dropped individually, never trusted. Caching is sound for
//! complete-`K_n` requests only (the v1 limitation above: a solution
//! document cannot be coverage-checked against a partial spec), so the
//! service records and serves cache entries only for jobs with
//! `requests` absent.
//!
//! A round trip:
//!
//! ```
//! use cyclecover_io::json;
//! use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest};
//!
//! let solution = engine_by_name("bitset")
//!     .unwrap()
//!     .solve(&Problem::complete(6), &SolveRequest::find_optimal());
//! let doc = json::solution_to_json(&solution);
//! let covering = json::covering_from_solution_json(&doc).unwrap();
//! assert_eq!(covering.len(), 5); // ρ(6), re-validated from the wire
//! ```

use cyclecover_core::DrcCovering;
use cyclecover_graph::{CycleSubgraph, Edge};
use cyclecover_ring::{routing, Ring, Tile};
use cyclecover_solver::api::{
    DegradeReason, Exhaustion, FailureKind, LowerBoundProof, Objective, Optimality, Solution,
    SolveRequest, SymmetryMode,
};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::lower_bound::lambda_budget;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Serializes a [`Solution`] to the JSON wire format.
pub fn solution_to_json(sol: &Solution) -> String {
    solution_json_inner(sol, None, None)
}

/// [`solution_to_json`] with the streaming correlation fields: `id`
/// echoes the request's id so responses on a shared connection can be
/// matched to their jobs, and `predicted_nodes` (when a cost model made
/// a prediction) sits next to `stats.nodes` so the calibration table is
/// auditable from the wire alone. Both are additive v1 fields —
/// consumers that don't know them ignore them (the compatibility rule
/// in the module docs), so a streamed document still validates through
/// [`covering_from_solution_json`].
pub fn solution_to_json_with_id(sol: &Solution, id: &str, predicted_nodes: Option<u64>) -> String {
    solution_json_inner(sol, Some(id), predicted_nodes)
}

/// Collapses a multi-line emitted document to a single line, for
/// newline-delimited (JSONL) streams. Safe textually: [`quote`] escapes
/// every control character, so raw newlines in emitted documents are
/// inter-token formatting only.
pub fn to_single_line(doc: &str) -> String {
    let parts: Vec<&str> = doc
        .lines()
        .map(str::trim_start)
        .filter(|l| !l.is_empty())
        .collect();
    parts.join(" ")
}

fn solution_json_inner(sol: &Solution, id: Option<&str>, predicted_nodes: Option<u64>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": \"cyclecover-solution\",");
    let _ = writeln!(s, "  \"version\": 1,");
    if let Some(id) = id {
        let _ = writeln!(s, "  \"id\": {},", quote(id));
    }
    if let Some(p) = predicted_nodes {
        let _ = writeln!(s, "  \"predicted_nodes\": {p},");
    }
    let _ = writeln!(s, "  \"n\": {},", sol.ring().n());
    let _ = writeln!(s, "  \"engine\": {},", quote(sol.stats().engine));
    let _ = writeln!(s, "  \"cached\": {},", sol.cached());
    let _ = writeln!(
        s,
        "  \"optimality\": {},",
        optimality_json(sol.optimality())
    );
    match sol.degraded() {
        Some(d) => {
            let reason = match d.reason {
                DegradeReason::Panicked => "panicked",
                DegradeReason::Exhausted(e) => exhaustion_str(&e),
            };
            let _ = writeln!(
                s,
                "  \"degraded\": {{\"from\": {}, \"to\": {}, \"reason\": \"{reason}\"}},",
                quote(&d.from),
                quote(&d.to)
            );
        }
        None => {
            let _ = writeln!(s, "  \"degraded\": null,");
        }
    }
    match sol.covering() {
        Some(tiles) => {
            let _ = writeln!(s, "  \"size\": {},", tiles.len());
            s.push_str("  \"cycles\": [");
            for (i, t) in tiles.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push('[');
                for (j, v) in t.vertices().iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{v}");
                }
                s.push(']');
            }
            s.push_str("],\n");
        }
        None => {
            let _ = writeln!(s, "  \"size\": null,");
            let _ = writeln!(s, "  \"cycles\": null,");
        }
    }
    let st = sol.stats();
    let _ = writeln!(
        s,
        "  \"stats\": {{\"nodes\": {}, \"pruned\": {}, \"dominated\": {}, \
         \"sym_pruned\": {}, \"canon_pruned\": {}, \"memo_hits\": {}, \
         \"shared_hits\": {}, \"memo_entries\": {}, \"partition_probes\": {}, \
         \"symmetry_factor\": {}, \
         \"budgets_tried\": {}, \"attempts\": {}, \"wall_ms\": {:.3}}}",
        st.nodes,
        st.pruned,
        st.dominated,
        st.sym_pruned,
        st.canon_pruned,
        st.memo_hits,
        st.shared_hits,
        st.memo_entries,
        st.partition_probes,
        st.sym_factor,
        st.budgets_tried,
        st.attempts,
        st.wall.as_secs_f64() * 1e3
    );
    s.push_str("}\n");
    s
}

fn optimality_json(o: &Optimality) -> String {
    match o {
        Optimality::Optimal { lower_bound_proof } => {
            let proof = match lower_bound_proof {
                LowerBoundProof::CombinatorialBound { bound } => {
                    format!("{{\"kind\": \"combinatorial_bound\", \"bound\": {bound}}}")
                }
                LowerBoundProof::ExhaustiveSearch {
                    infeasible_budget,
                    nodes,
                    symmetry_factor,
                } => format!(
                    "{{\"kind\": \"exhaustive_search\", \"infeasible_budget\": \
                     {infeasible_budget}, \"nodes\": {nodes}, \
                     \"symmetry_factor\": {symmetry_factor}}}"
                ),
            };
            format!("{{\"kind\": \"optimal\", \"proof\": {proof}}}")
        }
        Optimality::Feasible => "{\"kind\": \"feasible\"}".to_string(),
        Optimality::Infeasible => "{\"kind\": \"infeasible\"}".to_string(),
        Optimality::BudgetExhausted { reason } => {
            let reason = exhaustion_str(reason);
            format!("{{\"kind\": \"budget_exhausted\", \"reason\": \"{reason}\"}}")
        }
        Optimality::Failed { kind } => {
            let reason = match kind {
                FailureKind::Panic => "panic",
                FailureKind::Internal => "internal",
            };
            format!("{{\"kind\": \"failed\", \"reason\": \"{reason}\"}}")
        }
    }
}

/// The wire string for an [`Exhaustion`] reason — shared by the
/// certificate block and the `degraded` record.
pub fn exhaustion_str(reason: &Exhaustion) -> &'static str {
    match reason {
        Exhaustion::NodeBudget => "node_budget",
        Exhaustion::Deadline => "deadline",
        Exhaustion::Cancelled => "cancelled",
        Exhaustion::Shutdown => "shutdown",
        Exhaustion::EngineLimit => "engine_limit",
    }
}

/// Quotes a string as a JSON string literal (escaping quotes,
/// backslashes, and control characters) — the one escaper every
/// document emitter in the workspace shares.
pub fn quote(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value (the subset of JSON this workspace speaks: no
/// surrogate-pair escapes).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; exact for the magnitudes the
    /// wire format emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing garbage is an error). Arrays
    /// and objects may nest at most 64 deep; a deeper document is an
    /// error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}", pos = *pos))
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level; the documents of the wire format nest less than 10 deep.
const MAX_NESTING: usize = 64;

/// Parses the value at `pos`, inside `depth` enclosing containers.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|e| format!("invalid UTF-8: {e}"));
            }
            b'\\' => {
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        *pos += 4;
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
}

// ---------------------------------------------------------------------------
// Re-validation
// ---------------------------------------------------------------------------

/// Parses a solution document and rebuilds its covering as a validated
/// [`DrcCovering`] — the trust boundary for anything received over the
/// wire. Errors if the document is not a solution, carries no covering,
/// or any cycle fails the DRC checks.
pub fn covering_from_solution_json(text: &str) -> Result<DrcCovering, String> {
    let doc = Json::parse(text)?;
    match doc.get("format").and_then(Json::as_str) {
        Some("cyclecover-solution") => {}
        other => return Err(format!("not a cyclecover-solution document: {other:?}")),
    }
    let n_raw = doc
        .get("n")
        .and_then(Json::as_num)
        .ok_or("missing ring size 'n'")?;
    if n_raw.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&n_raw) {
        return Err(format!("ring size {n_raw} out of range"));
    }
    let ring = Ring::try_new(n_raw as u64)?;
    let n = ring.n();
    let cycles = match doc.get("cycles") {
        Some(Json::Arr(cycles)) => cycles,
        Some(Json::Null) => return Err("solution carries no covering".into()),
        _ => return Err("missing 'cycles' array".into()),
    };
    let mut tiles = Vec::with_capacity(cycles.len());
    for (i, cyc) in cycles.iter().enumerate() {
        let raw = cyc
            .as_arr()
            .ok_or_else(|| format!("cycle {i} is not an array"))?;
        let mut verts = Vec::with_capacity(raw.len());
        for v in raw {
            let x = v
                .as_num()
                .ok_or_else(|| format!("cycle {i}: non-numeric vertex"))?;
            if x.fract() != 0.0 || !(0.0..(ring.n() as f64)).contains(&x) {
                return Err(format!("cycle {i}: vertex {x} out of range for ring {n}"));
            }
            verts.push(x as u32);
        }
        if verts.len() < 3 {
            return Err(format!("cycle {i} needs >= 3 vertices"));
        }
        let mut sorted = verts.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("cycle {i} repeats a vertex"));
        }
        if routing::winding_routing(ring, &CycleSubgraph::new(verts.clone())).is_none() {
            return Err(format!("cycle {i} violates the DRC on ring {n}"));
        }
        tiles.push(Tile::from_vertices(ring, verts));
    }
    Ok(DrcCovering::from_tiles(ring, tiles))
}

/// A solution document re-validated far enough to be served as a cached
/// certificate: only terminal verdicts (`optimal`/`infeasible`) qualify,
/// and a carried covering has already passed the DRC trust boundary.
#[derive(Debug)]
pub struct ParsedCertificate {
    /// Ring size the certificate answers.
    pub n: u32,
    /// Registry name of the engine that originally produced it.
    pub engine: String,
    /// The verdict (`Optimal { .. }` or `Infeasible`, nothing else).
    pub optimality: Optimality,
    /// The re-validated covering, exactly when the verdict carries one.
    pub covering: Option<DrcCovering>,
}

/// Parses a solution document into a [`ParsedCertificate`] — the trust
/// boundary a persisted certificate cache re-crosses on every load.
/// Accepts only the two verdicts worth caching (`optimal`, `infeasible`);
/// an `optimal` entry must carry a covering, which is re-validated
/// through [`covering_from_solution_json`] (so a tampered cycle list is
/// rejected, not trusted); an `infeasible` entry must carry none.
pub fn certificate_from_solution_json(text: &str) -> Result<ParsedCertificate, String> {
    let doc = Json::parse(text)?;
    match doc.get("format").and_then(Json::as_str) {
        Some("cyclecover-solution") => {}
        other => return Err(format!("not a cyclecover-solution document: {other:?}")),
    }
    let n = opt_uint(&doc, "n", u64::MAX)?.ok_or("missing ring size 'n'")?;
    let n = Ring::try_new(n)?.n();
    let engine = doc
        .get("engine")
        .and_then(Json::as_str)
        .ok_or("missing 'engine'")?
        .to_string();
    if doc.get("degraded").is_some_and(|d| *d != Json::Null) {
        return Err("degraded answers are not cacheable certificates".into());
    }
    let opt = doc.get("optimality").ok_or("missing 'optimality'")?;
    let (optimality, covering) = match opt.get("kind").and_then(Json::as_str) {
        Some("optimal") => {
            let proof = opt.get("proof").ok_or("optimal verdict missing 'proof'")?;
            let lower_bound_proof = match proof.get("kind").and_then(Json::as_str) {
                Some("combinatorial_bound") => LowerBoundProof::CombinatorialBound {
                    bound: opt_uint(proof, "bound", u32::MAX as u64)?
                        .ok_or("combinatorial_bound proof missing 'bound'")?
                        as u32,
                },
                Some("exhaustive_search") => LowerBoundProof::ExhaustiveSearch {
                    infeasible_budget: opt_uint(proof, "infeasible_budget", u32::MAX as u64)?
                        .ok_or("exhaustive_search proof missing 'infeasible_budget'")?
                        as u32,
                    nodes: opt_uint(proof, "nodes", u64::MAX)?
                        .ok_or("exhaustive_search proof missing 'nodes'")?,
                    symmetry_factor: opt_uint(proof, "symmetry_factor", u32::MAX as u64)?
                        .ok_or("exhaustive_search proof missing 'symmetry_factor'")?
                        as u32,
                },
                other => return Err(format!("bad proof kind {other:?}")),
            };
            let covering = covering_from_solution_json(text)?;
            if covering.ring().n() != n {
                return Err("covering ring disagrees with 'n'".into());
            }
            let proof_bound = match lower_bound_proof {
                LowerBoundProof::CombinatorialBound { bound } => bound as usize,
                LowerBoundProof::ExhaustiveSearch {
                    infeasible_budget, ..
                } => infeasible_budget as usize + 1,
            };
            if covering.len() != proof_bound {
                return Err(format!(
                    "optimal covering of {} cycles disagrees with its lower-bound proof ({})",
                    covering.len(),
                    proof_bound
                ));
            }
            (Optimality::Optimal { lower_bound_proof }, Some(covering))
        }
        Some("infeasible") => {
            if doc.get("cycles").is_some_and(|c| *c != Json::Null) {
                return Err("infeasible verdict must not carry a covering".into());
            }
            (Optimality::Infeasible, None)
        }
        other => {
            return Err(format!(
                "verdict {other:?} is not a cacheable certificate (want optimal|infeasible)"
            ))
        }
    };
    Ok(ParsedCertificate {
        n,
        engine,
        optimality,
        covering,
    })
}

// ---------------------------------------------------------------------------
// Request documents
// ---------------------------------------------------------------------------

/// A parsed, validated `cyclecover-request` document: one solve job for
/// the batch service (see the [module docs](self) for the normative field
/// list and defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct SolveJob {
    /// Job identifier (`[A-Za-z0-9._-]{1,64}`, or empty = unnamed; the
    /// service assigns `job-<seq>` to unnamed jobs).
    pub id: String,
    /// Ring size (`≥ 3`).
    pub n: u32,
    /// Maximum tile vertex count (`3 ..= n`).
    pub max_len: u32,
    /// Maximum ring gap between consecutive tile vertices (`1 ..= n`;
    /// `n` = unconstrained).
    pub max_gap: u32,
    /// `None` = cover all of `K_n`; `Some(pairs)` = cover exactly
    /// these requests (normalized `u < v`, sorted, deduplicated).
    pub requests: Option<Vec<(u32, u32)>>,
    /// Covering multiplicity: every request must be covered `lambda`
    /// times (`≥ 1`; `1` = the classical cover, `2` = a cycle double
    /// cover).
    pub lambda: u32,
    /// Engine registry name (validated against the registry at admission).
    pub engine: String,
    /// What to solve for.
    pub objective: Objective,
    /// Search-node budget for the whole request.
    pub max_nodes: Option<u64>,
    /// Wall-clock deadline in milliseconds, measured from batch start.
    pub deadline_ms: Option<u64>,
    /// Dihedral symmetry reduction; `None` = the engine default.
    pub symmetry: Option<SymmetryMode>,
    /// Refutation-store toggle; `None` = the engine default (on for
    /// exact engines).
    pub memo: Option<bool>,
    /// Refutation-store byte budget in MiB; `None` = the engine default.
    pub memo_mb: Option<u64>,
    /// Degradation ladder: engine names a scheduler may fall back to, in
    /// order, when the primary engine exhausts its budget or fails.
    /// Empty = no fallback.
    pub fallback: Vec<String>,
}

impl SolveJob {
    /// A job with the given id and ring size and every other field at its
    /// documented default (full universe, complete spec, `bitset` engine,
    /// `FindOptimal`, no limits).
    pub fn new(id: impl Into<String>, n: u32) -> Self {
        SolveJob {
            id: id.into(),
            n,
            max_len: n,
            max_gap: n,
            requests: None,
            lambda: 1,
            engine: "bitset".to_string(),
            objective: Objective::FindOptimal,
            max_nodes: None,
            deadline_ms: None,
            symmetry: None,
            memo: None,
            memo_mb: None,
            fallback: Vec::new(),
        }
    }

    /// The universe cache key: jobs agreeing on `(n, max_len, max_gap)`
    /// search the same precomputed tile enumeration.
    pub fn universe_key(&self) -> (u32, u32, u32) {
        (self.n, self.max_len, self.max_gap)
    }

    /// The demand spec this job asks to cover: the requested pairs (or
    /// all of `K_n`), each `lambda` times.
    pub fn spec(&self) -> CoverSpec {
        let mut spec = match &self.requests {
            None => CoverSpec::complete(self.n),
            Some(pairs) => {
                let edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
                CoverSpec::subset(self.n, &edges)
            }
        };
        if self.lambda > 1 {
            for d in &mut spec.demand {
                *d *= self.lambda;
            }
        }
        spec
    }

    /// The [`SolveRequest`] this job describes — objective, node budget,
    /// and symmetry. The deadline is *not* attached here: `deadline_ms`
    /// is relative to batch start, so the scheduler converts it to the
    /// remaining slice (and attaches its cancellation token) at admission.
    pub fn to_solve_request(&self) -> SolveRequest {
        let mut request = match self.objective {
            Objective::FindOptimal => SolveRequest::find_optimal(),
            Objective::WithinBudget(k) => SolveRequest::within_budget(k),
            Objective::ProveInfeasible(k) => SolveRequest::prove_infeasible(k),
        };
        if let Some(nodes) = self.max_nodes {
            request = request.with_max_nodes(nodes);
        }
        if let Some(sym) = self.symmetry {
            request = request.with_symmetry(sym);
        }
        if let Some(memo) = self.memo {
            request = request.with_memo(memo);
        }
        if let Some(mb) = self.memo_mb {
            request = request.with_memo_budget_bytes((mb as usize) << 20);
        }
        if !self.fallback.is_empty() {
            request = request.with_fallback(self.fallback.iter().cloned());
        }
        request
    }
}

/// Serializes a [`SolveJob`] as a single-line `cyclecover-request`
/// document — the shape batch files (`.jsonl`, one request per line)
/// are made of. [`request_from_json`] parses it back; the pair round-trips.
pub fn request_to_json(job: &SolveJob) -> String {
    let mut s = String::new();
    s.push_str("{\"format\": \"cyclecover-request\", \"version\": 1");
    let _ = write!(s, ", \"id\": {}", quote(&job.id));
    let _ = write!(s, ", \"n\": {}", job.n);
    let _ = write!(s, ", \"max_len\": {}", job.max_len);
    let _ = write!(s, ", \"max_gap\": {}", job.max_gap);
    match &job.requests {
        None => s.push_str(", \"requests\": null"),
        Some(pairs) => {
            s.push_str(", \"requests\": [");
            for (i, (u, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{u}, {v}]");
            }
            s.push(']');
        }
    }
    // λ = 1 is the default and is omitted, keeping unit-cover documents
    // (and the coalescing/cert-cache keys derived from them) byte-stable
    // across the λ-fold addition.
    if job.lambda > 1 {
        let _ = write!(s, ", \"lambda\": {}", job.lambda);
    }
    let _ = write!(s, ", \"engine\": {}", quote(&job.engine));
    let objective = match job.objective {
        Objective::FindOptimal => "{\"kind\": \"find_optimal\"}".to_string(),
        Objective::WithinBudget(k) => {
            format!("{{\"kind\": \"within_budget\", \"budget\": {k}}}")
        }
        Objective::ProveInfeasible(k) => {
            format!("{{\"kind\": \"prove_infeasible\", \"budget\": {k}}}")
        }
    };
    let _ = write!(s, ", \"objective\": {objective}");
    match job.max_nodes {
        Some(nodes) => {
            let _ = write!(s, ", \"max_nodes\": {nodes}");
        }
        None => s.push_str(", \"max_nodes\": null"),
    }
    match job.deadline_ms {
        Some(ms) => {
            let _ = write!(s, ", \"deadline_ms\": {ms}");
        }
        None => s.push_str(", \"deadline_ms\": null"),
    }
    match job.symmetry {
        Some(SymmetryMode::Off) => s.push_str(", \"symmetry\": \"off\""),
        Some(SymmetryMode::Root) => s.push_str(", \"symmetry\": \"root\""),
        Some(SymmetryMode::Full) => s.push_str(", \"symmetry\": \"full\""),
        None => s.push_str(", \"symmetry\": null"),
    }
    match job.memo {
        Some(b) => {
            let _ = write!(s, ", \"memo\": {b}");
        }
        None => s.push_str(", \"memo\": null"),
    }
    match job.memo_mb {
        Some(mb) => {
            let _ = write!(s, ", \"memo_mb\": {mb}");
        }
        None => s.push_str(", \"memo_mb\": null"),
    }
    if job.fallback.is_empty() {
        s.push_str(", \"fallback\": null");
    } else {
        s.push_str(", \"fallback\": [");
        for (i, name) in job.fallback.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&quote(name));
        }
        s.push(']');
    }
    s.push('}');
    s
}

/// Reads an optional unsigned integer field: absent and `null` both mean
/// `None`; anything non-integral or out of `[0, max]` is an error.
fn opt_uint(doc: &Json, key: &str, max: u64) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let x = v
                .as_num()
                .ok_or_else(|| format!("'{key}' must be a number"))?;
            if x.fract() != 0.0 || !(0.0..=max as f64).contains(&x) {
                return Err(format!("'{key}' = {x} out of range"));
            }
            Ok(Some(x as u64))
        }
    }
}

/// Parses and validates a `cyclecover-request` document into a
/// [`SolveJob`]. Enforces every constraint in the [module docs](self)
/// (ranges, id charset, request pairs); unknown fields are ignored per
/// the compatibility rules. The engine *name* is accepted unchecked —
/// registry membership is an admission-time concern.
pub fn request_from_json(text: &str) -> Result<SolveJob, String> {
    let doc = Json::parse(text)?;
    match doc.get("format").and_then(Json::as_str) {
        Some("cyclecover-request") => {}
        other => return Err(format!("not a cyclecover-request document: {other:?}")),
    }
    match opt_uint(&doc, "version", u64::MAX)? {
        Some(1) => {}
        Some(v) => {
            return Err(format!(
                "unsupported request version {v} (this parser speaks 1)"
            ))
        }
        None => return Err("missing 'version'".into()),
    }
    let n = opt_uint(&doc, "n", u64::MAX)?.ok_or("missing ring size 'n'")?;
    let n = Ring::try_new(n)?.n();
    let mut job = SolveJob::new("", n);

    if let Some(id) = doc.get("id") {
        if let Some(id) = id.as_str() {
            if !id.is_empty() {
                if id.len() > 64
                    || !id
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
                {
                    return Err(format!(
                        "bad id {id:?}: want 1-64 chars from [A-Za-z0-9._-]"
                    ));
                }
                job.id = id.to_string();
            }
        } else if *id != Json::Null {
            return Err("'id' must be a string".into());
        }
    }
    if let Some(len) = opt_uint(&doc, "max_len", u32::MAX as u64)? {
        let len = len as u32;
        if !(3..=n).contains(&len) {
            return Err(format!("max_len = {len} out of range 3..={n}"));
        }
        job.max_len = len;
    }
    if let Some(gap) = opt_uint(&doc, "max_gap", u32::MAX as u64)? {
        let gap = gap as u32;
        if !(1..=n).contains(&gap) {
            return Err(format!("max_gap = {gap} out of range 1..={n}"));
        }
        job.max_gap = gap;
    }
    match doc.get("requests") {
        None | Some(Json::Null) => {}
        Some(Json::Arr(pairs)) => {
            let mut out = Vec::with_capacity(pairs.len());
            for (i, p) in pairs.iter().enumerate() {
                let p = p
                    .as_arr()
                    .ok_or_else(|| format!("request {i} is not a [u, v] pair"))?;
                if p.len() != 2 {
                    return Err(format!("request {i} is not a [u, v] pair"));
                }
                let mut uv = [0u32; 2];
                for (slot, v) in uv.iter_mut().zip(p) {
                    let x = v
                        .as_num()
                        .ok_or_else(|| format!("request {i}: non-numeric vertex"))?;
                    if x.fract() != 0.0 || !(0.0..n as f64).contains(&x) {
                        return Err(format!("request {i}: vertex {x} out of range for n = {n}"));
                    }
                    *slot = x as u32;
                }
                if uv[0] == uv[1] {
                    return Err(format!("request {i}: self-loop [{}, {}]", uv[0], uv[1]));
                }
                out.push((uv[0].min(uv[1]), uv[0].max(uv[1])));
            }
            out.sort_unstable();
            out.dedup();
            job.requests = Some(out);
        }
        Some(_) => return Err("'requests' must be an array of [u, v] pairs or null".into()),
    }
    if let Some(lambda) = opt_uint(&doc, "lambda", u32::MAX as u64)? {
        if lambda == 0 {
            return Err("'lambda' must be >= 1".into());
        }
        job.lambda = lambda as u32;
    }
    if job.lambda > 1 {
        let ring = Ring::new(n);
        let dist = match &job.requests {
            None => ring.total_pair_distance(),
            Some(pairs) => pairs.iter().map(|&(u, v)| ring.distance(u, v) as u64).sum(),
        };
        lambda_budget(ring, dist, job.lambda)?;
    }
    if let Some(engine) = doc.get("engine") {
        if let Some(engine) = engine.as_str() {
            if engine.is_empty() {
                return Err("'engine' must not be empty".into());
            }
            job.engine = engine.to_string();
        } else if *engine != Json::Null {
            return Err("'engine' must be a string".into());
        }
    }
    match doc.get("objective") {
        None | Some(Json::Null) => {}
        Some(obj) => {
            let budget =
                || -> Result<u32, String> {
                    Ok(opt_uint(obj, "budget", u32::MAX as u64)?
                        .ok_or("objective needs a 'budget'")? as u32)
                };
            job.objective = match obj.get("kind").and_then(Json::as_str) {
                Some("find_optimal") => Objective::FindOptimal,
                Some("within_budget") => Objective::WithinBudget(budget()?),
                Some("prove_infeasible") => Objective::ProveInfeasible(budget()?),
                other => {
                    return Err(format!(
                        "bad objective kind {other:?} (want find_optimal|within_budget|prove_infeasible)"
                    ))
                }
            };
        }
    }
    job.max_nodes = opt_uint(&doc, "max_nodes", u64::MAX)?;
    job.deadline_ms = opt_uint(&doc, "deadline_ms", u64::MAX)?;
    match doc.get("symmetry") {
        None | Some(Json::Null) => {}
        Some(sym) => {
            job.symmetry = Some(match sym.as_str() {
                Some("off") => SymmetryMode::Off,
                Some("root") => SymmetryMode::Root,
                Some("full") => SymmetryMode::Full,
                other => return Err(format!("bad symmetry {other:?} (want off|root|full)")),
            });
        }
    }
    match doc.get("memo") {
        None | Some(Json::Null) => {}
        Some(Json::Bool(b)) => job.memo = Some(*b),
        Some(_) => return Err("'memo' must be a boolean or null".into()),
    }
    if let Some(mb) = opt_uint(&doc, "memo_mb", u64::MAX >> 21)? {
        if mb == 0 {
            return Err("'memo_mb' must be >= 1".into());
        }
        job.memo_mb = Some(mb);
    }
    match doc.get("fallback") {
        None | Some(Json::Null) => {}
        Some(Json::Arr(names)) => {
            let mut chain = Vec::with_capacity(names.len());
            for (i, name) in names.iter().enumerate() {
                let name = name
                    .as_str()
                    .ok_or_else(|| format!("fallback {i} is not an engine name string"))?;
                if name.is_empty() {
                    return Err(format!("fallback {i} must not be empty"));
                }
                chain.push(name.to_string());
            }
            job.fallback = chain;
        }
        Some(_) => return Err("'fallback' must be an array of engine names or null".into()),
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest};

    fn solve(n: u32, req: &SolveRequest) -> Solution {
        engine_by_name("bitset")
            .unwrap()
            .solve(&Problem::complete(n), req)
    }

    #[test]
    fn optimal_solution_round_trips_and_validates() {
        let sol = solve(6, &SolveRequest::find_optimal());
        let text = solution_to_json(&sol);
        let doc = Json::parse(&text).expect("emitted JSON parses");
        assert_eq!(doc.get("n").and_then(Json::as_num), Some(6.0));
        assert_eq!(doc.get("engine").and_then(Json::as_str), Some("bitset"));
        assert_eq!(
            doc.get("optimality")
                .and_then(|o| o.get("kind"))
                .and_then(Json::as_str),
            Some("optimal")
        );
        let cover = covering_from_solution_json(&text).expect("covering validates");
        assert_eq!(cover.len(), sol.size().unwrap());
        assert!(cover.validate().is_ok());
    }

    #[test]
    fn certificate_block_carries_symmetry_factor() {
        // n = 8 needs the budget-8 refutation. Under the default
        // SymmetryMode::Root the parity bound proves it in one node
        // (factor 1 in the proof block), while the witness search's root
        // was reduced by the order-4 diameter-chord stabilizer of D_8
        // (factor 4 in the stats block). The document must carry both.
        let sol = solve(8, &SolveRequest::find_optimal());
        let text = solution_to_json(&sol);
        let doc = Json::parse(&text).expect("emitted JSON parses");
        let proof = doc
            .get("optimality")
            .and_then(|o| o.get("proof"))
            .expect("optimal certificate has a proof");
        assert_eq!(
            proof.get("kind").and_then(Json::as_str),
            Some("exhaustive_search")
        );
        assert_eq!(
            proof.get("nodes").and_then(Json::as_num),
            Some(1.0),
            "{text}"
        );
        assert_eq!(
            proof.get("symmetry_factor").and_then(Json::as_num),
            Some(1.0),
            "{text}"
        );
        let stats = doc.get("stats").expect("stats block");
        assert_eq!(
            stats.get("symmetry_factor").and_then(Json::as_num),
            Some(4.0)
        );
        assert!(stats.get("sym_pruned").and_then(Json::as_num).unwrap() > 0.0);
    }

    #[test]
    fn infeasible_solution_has_null_cycles() {
        let sol = solve(6, &SolveRequest::prove_infeasible(4));
        let text = solution_to_json(&sol);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("cycles"), Some(&Json::Null));
        assert_eq!(
            doc.get("optimality")
                .and_then(|o| o.get("kind"))
                .and_then(Json::as_str),
            Some("infeasible")
        );
        let err = covering_from_solution_json(&text).unwrap_err();
        assert!(err.contains("no covering"), "{err}");
    }

    #[test]
    fn parser_handles_the_value_zoo() {
        let doc = Json::parse(
            r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": [true, false]},
                "s": "q\"\\\nA"}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(1000.0)
        );
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"\\\nA"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, ]x",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{open}: {err}");
        }
    }

    #[test]
    fn nesting_limit_is_exact() {
        let arrays = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
        let objects = |k: usize| format!("{}1{}", "{\"a\":".repeat(k), "}".repeat(k));
        fn depth(v: &Json) -> usize {
            match v {
                Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
                _ => 0,
            }
        }
        for nest in [arrays, objects] {
            let at_limit = Json::parse(&nest(MAX_NESTING)).unwrap();
            assert_eq!(depth(&at_limit), MAX_NESTING);
            assert!(Json::parse(&nest(MAX_NESTING + 1)).is_err());
        }
        // Width is not depth: a long flat array stays one level deep.
        let flat = format!("[{}]", vec!["[]"; 10_000].join(","));
        assert_eq!(Json::parse(&flat).unwrap().as_arr().unwrap().len(), 10_000);
    }

    #[test]
    fn revalidation_rejects_fractional_ring_size() {
        let sol = solve(6, &SolveRequest::find_optimal());
        let tampered = solution_to_json(&sol).replace("\"n\": 6", "\"n\": 6.9");
        let err = covering_from_solution_json(&tampered).unwrap_err();
        assert!(err.contains("ring size"), "{err}");
    }

    /// The request, covering and certificate parsers share one ring-size
    /// bound: `Ring::MAX_N + 1` and 4·10⁹ are errors naming the range,
    /// `n = 3` still parses.
    #[test]
    fn every_document_bounds_its_ring_size() {
        let request =
            |n: u64| format!(r#"{{"format": "cyclecover-request", "version": 1, "n": {n}}}"#);
        let doc = solution_to_json(&solve(3, &SolveRequest::find_optimal()));
        let solution = |n: u64| doc.replace("\"n\": 3", &format!("\"n\": {n}"));
        for n in [u64::from(Ring::MAX_N) + 1, 4_000_000_000] {
            for err in [
                request_from_json(&request(n)).unwrap_err(),
                covering_from_solution_json(&solution(n)).unwrap_err(),
                certificate_from_solution_json(&solution(n)).unwrap_err(),
            ] {
                assert!(err.contains("3..=1024"), "n = {n}: {err}");
            }
        }
        assert_eq!(request_from_json(&request(3)).unwrap().n, 3);
        let covering = covering_from_solution_json(&solution(3)).unwrap();
        assert_eq!(covering.ring().n(), 3);
        assert_eq!(certificate_from_solution_json(&solution(3)).unwrap().n, 3);
    }

    #[test]
    fn request_round_trips_through_emit_and_parse() {
        let mut job = SolveJob::new("mixed-42", 10);
        job.max_len = 6;
        job.max_gap = 4;
        job.requests = Some(vec![(0, 3), (1, 5), (2, 7)]);
        job.engine = "partition".to_string();
        job.objective = Objective::WithinBudget(9);
        job.max_nodes = Some(1_000_000);
        job.deadline_ms = Some(250);
        job.symmetry = Some(SymmetryMode::Full);
        job.fallback = vec!["greedy-improve".to_string(), "greedy".to_string()];
        let text = request_to_json(&job);
        assert!(!text.contains('\n'), "requests must be single-line: {text}");
        assert_eq!(request_from_json(&text).unwrap(), job);
        // Defaults round-trip too — and the default λ = 1 is omitted
        // from the wire so pre-λ documents (and the coalescing keys and
        // cert-cache keys derived from them) stay byte-identical.
        let plain = SolveJob::new("", 6);
        let text = request_to_json(&plain);
        assert!(
            !text.contains("lambda"),
            "default λ must stay off the wire: {text}"
        );
        assert_eq!(request_from_json(&text).unwrap(), plain);
        // A λ-fold job emits and round-trips its multiplicity.
        let mut double = SolveJob::new("cdc", 6);
        double.lambda = 2;
        let text = request_to_json(&double);
        assert!(text.contains("\"lambda\": 2"), "{text}");
        assert_eq!(request_from_json(&text).unwrap(), double);
    }

    #[test]
    fn lambda_scales_the_demand_spec() {
        // Complete spec: every request demanded λ times.
        let job = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 6, "lambda": 2}"#,
        )
        .unwrap();
        assert_eq!(job.lambda, 2);
        assert!(!job.spec().is_unit());
        assert_eq!(job.spec().max_demand(), 2);
        assert!(job.spec().demand.iter().all(|&d| d == 2));
        // Partial spec: only the requested pairs, each λ times.
        let job = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 6, "lambda": 3,
                "requests": [[0, 2], [1, 4]]}"#,
        )
        .unwrap();
        let spec = job.spec();
        assert_eq!(spec.max_demand(), 3);
        assert_eq!(spec.demand.iter().sum::<u32>(), 6);
        // λ = 0 is rejected; λ = 1 is the explicit default.
        let err = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 6, "lambda": 0}"#,
        )
        .unwrap_err();
        assert!(err.contains("'lambda' must be >= 1"), "{err}");
        let job = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 6, "lambda": 1}"#,
        )
        .unwrap();
        assert_eq!(job, SolveJob::new("", 6));
    }

    /// The capacity bound of `K_5` is `⌈15·λ/5⌉ = 3λ`: λ = 1,431,655,765
    /// reaches `u32::MAX` exactly and parses, one more does not fit a
    /// budget and is refused. On a request subset only the listed pairs
    /// count.
    #[test]
    fn lambda_past_the_u32_budget_is_a_reject() {
        let line = |lambda: u64, requests: &str| {
            format!(
                r#"{{"format": "cyclecover-request", "version": 1, "n": 5,
                     "lambda": {lambda}{requests}}}"#
            )
        };
        let fits = request_from_json(&line(1_431_655_765, "")).unwrap();
        assert_eq!(fits.lambda, 1_431_655_765);
        let err = request_from_json(&line(1_431_655_766, "")).unwrap_err();
        assert!(
            err.contains("lambda = 1431655766 is too large") && err.contains("4294967298 cycles"),
            "{err}"
        );
        let err = request_from_json(&line(4_000_000_000, "")).unwrap_err();
        assert!(err.contains("12000000000 cycles"), "{err}");
        // One distance-1 pair: the bound is ⌈λ/5⌉, which fits.
        let one_pair = request_from_json(&line(4_000_000_000, r#", "requests": [[0, 1]]"#));
        assert_eq!(one_pair.unwrap().lambda, 4_000_000_000);
    }

    #[test]
    fn request_defaults_fill_in() {
        let job =
            request_from_json(r#"{"format": "cyclecover-request", "version": 1, "n": 8}"#).unwrap();
        assert_eq!(job, SolveJob::new("", 8));
        assert_eq!(job.universe_key(), (8, 8, 8));
        assert!(job.spec().is_unit());
        assert_eq!(job.to_solve_request().objective(), Objective::FindOptimal);
        // Unknown fields are ignored (compat rule)…
        let job = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 8,
                "some_future_field": {"x": 1}}"#,
        )
        .unwrap();
        assert_eq!(job.n, 8);
        // …but a future version is rejected.
        let err = request_from_json(r#"{"format": "cyclecover-request", "version": 2, "n": 8}"#)
            .unwrap_err();
        assert!(err.contains("version 2"), "{err}");
    }

    #[test]
    fn request_normalizes_and_validates_pairs() {
        let job = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 6,
                "requests": [[4, 1], [1, 4], [0, 2]]}"#,
        )
        .unwrap();
        assert_eq!(job.requests, Some(vec![(0, 2), (1, 4)]));
        assert!(!job.spec().is_unit() || job.spec().demand.iter().sum::<u32>() == 2);
        for (bad, want) in [
            (
                r#"{"format": "cyclecover-request", "version": 1}"#,
                "missing ring size",
            ),
            (
                r#"{"format": "cyclecover-solution", "version": 1, "n": 6}"#,
                "not a cyclecover-request",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 2}"#,
                "3..=1024",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "max_len": 2}"#,
                "max_len",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "max_gap": 0}"#,
                "max_gap",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "requests": [[1, 1]]}"#,
                "self-loop",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "requests": [[0, 6]]}"#,
                "out of range",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "id": "a/b"}"#,
                "bad id",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "objective": {"kind": "levitate"}}"#,
                "objective kind",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "objective": {"kind": "within_budget"}}"#,
                "budget",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "symmetry": "sideways"}"#,
                "symmetry",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "deadline_ms": -1}"#,
                "out of range",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "fallback": "greedy"}"#,
                "fallback",
            ),
            (
                r#"{"format": "cyclecover-request", "version": 1, "n": 6, "fallback": [""]}"#,
                "fallback 0",
            ),
        ] {
            let err = request_from_json(bad).unwrap_err();
            assert!(err.contains(want), "{bad}: {err}");
        }
    }

    #[test]
    fn request_solves_end_to_end() {
        // A parsed request document drives an engine directly.
        let job = request_from_json(
            r#"{"format": "cyclecover-request", "version": 1, "n": 6,
                "objective": {"kind": "prove_infeasible", "budget": 4},
                "symmetry": "off"}"#,
        )
        .unwrap();
        let problem = Problem::new(
            cyclecover_solver::TileUniverse::with_max_gap(
                Ring::new(job.n),
                job.max_len as usize,
                job.max_gap,
            ),
            job.spec(),
        );
        let sol = engine_by_name(&job.engine)
            .unwrap()
            .solve(&problem, &job.to_solve_request());
        assert_eq!(*sol.optimality(), Optimality::Infeasible);
    }

    #[test]
    fn failed_solution_emits_terminal_certificate() {
        use cyclecover_ring::Ring;
        let sol = Solution::failed(Ring::new(7), FailureKind::Panic, "service", 3);
        let text = solution_to_json(&sol);
        let doc = Json::parse(&text).expect("emitted JSON parses");
        let opt = doc.get("optimality").expect("certificate");
        assert_eq!(opt.get("kind").and_then(Json::as_str), Some("failed"));
        assert_eq!(opt.get("reason").and_then(Json::as_str), Some("panic"));
        assert_eq!(doc.get("cycles"), Some(&Json::Null));
        assert_eq!(doc.get("degraded"), Some(&Json::Null));
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("attempts"))
                .and_then(Json::as_num),
            Some(3.0)
        );
        let err = covering_from_solution_json(&text).unwrap_err();
        assert!(err.contains("no covering"), "{err}");
    }

    #[test]
    fn degraded_solution_carries_provenance() {
        use cyclecover_solver::api::Degradation;
        let mut sol = engine_by_name("greedy")
            .unwrap()
            .solve(&Problem::complete(6), &SolveRequest::find_optimal());
        sol.set_degradation(Degradation {
            from: "bitset".to_string(),
            to: "greedy".to_string(),
            reason: DegradeReason::Exhausted(Exhaustion::Deadline),
        });
        sol.set_attempts(2);
        let text = solution_to_json(&sol);
        let doc = Json::parse(&text).expect("emitted JSON parses");
        let deg = doc.get("degraded").expect("degraded block");
        assert_eq!(deg.get("from").and_then(Json::as_str), Some("bitset"));
        assert_eq!(deg.get("to").and_then(Json::as_str), Some("greedy"));
        assert_eq!(deg.get("reason").and_then(Json::as_str), Some("deadline"));
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("attempts"))
                .and_then(Json::as_num),
            Some(2.0)
        );
        // Degradation never weakens the trust boundary: the covering
        // still re-validates from the wire.
        let covering = covering_from_solution_json(&text).expect("covering validates");
        assert!(covering.validate().is_ok());
    }

    #[test]
    fn revalidation_rejects_tampered_coverings() {
        let sol = solve(5, &SolveRequest::find_optimal());
        let good = solution_to_json(&sol);
        // Remove one cycle: coverage breaks but the document stays valid
        // JSON — from_tiles accepts it, validate() must catch it. Here we
        // tamper harder: a non-DRC cycle must be rejected at parse time.
        let tampered = good.replace("\"cycles\": [[", "\"cycles\": [[0, 2, 4, 1], [[");
        match covering_from_solution_json(&tampered) {
            Err(e) => assert!(e.contains("DRC") || e.contains("expected"), "{e}"),
            Ok(c) => assert!(c.validate().is_err(), "tampered covering validated"),
        }
    }
}
