//! Calibration fitter for predictive admission.
//!
//! Measures the exact `bitset` engine's `(nodes, wall_ms)` cost at every
//! `(n, symmetry)` point the daemon's [`CostModel`] serves from, and
//! emits the `cyclecover-calibration` v1 document that is committed as
//! `crates/service/calibration.json`. Node counts are deterministic
//! (the same numbers `bench_snapshot --check` gates on); wall times are
//! the minimum of three runs, the standard robust estimator for "how
//! fast can this host actually do it".
//!
//! Usage: `cargo run --release -p cyclecover-bench --bin bench_calibrate
//! [-- --max-n N] [--out FILE] [--check]`
//!
//! `--out` writes the document (regenerate the committed table with
//! `--out crates/service/calibration.json`); without it the document
//! goes to stdout. `--check` re-measures every `find_optimal` point of
//! the *committed* table and fails if any node count drifted — the
//! predictor honesty guard: a table whose node column no longer matches
//! the engine must be regenerated, not trusted. Wall ratios are printed
//! but not gated (hardware differs between calibration and CI hosts;
//! admission already absorbs that with its safety factor).

use cyclecover_io::json::SolveJob;
use cyclecover_service::{CalibrationRow, CostModel, SAFETY_FACTOR};
use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest, SymmetryMode};

const MODES: [(SymmetryMode, &str); 3] = [
    (SymmetryMode::Root, "root"),
    (SymmetryMode::Off, "off"),
    (SymmetryMode::Full, "full"),
];

/// One calibration point: best-of-3 wall, node count asserted identical
/// across the runs (the search is deterministic — disagreement means
/// the measurement itself is broken).
fn measure(n: u32, symmetry: SymmetryMode, symmetry_name: &str) -> CalibrationRow {
    let engine = engine_by_name("bitset").expect("bitset engine registered");
    let problem = Problem::complete(n);
    let request = SolveRequest::find_optimal()
        .with_symmetry(symmetry)
        .with_memo(true);
    let mut nodes: Option<u64> = None;
    let mut wall_ms = f64::INFINITY;
    for _ in 0..3 {
        let solution = engine.solve(&problem, &request);
        let st = solution.stats();
        match nodes {
            None => nodes = Some(st.nodes),
            Some(prev) => assert_eq!(
                prev, st.nodes,
                "non-deterministic node count at n={n} symmetry={symmetry_name}"
            ),
        }
        wall_ms = wall_ms.min(st.wall.as_secs_f64() * 1e3);
    }
    CalibrationRow {
        n,
        objective: "find_optimal".to_string(),
        symmetry: symmetry_name.to_string(),
        memo: true,
        nodes: nodes.unwrap(),
        // Quantized to the document's microsecond-level precision so the
        // in-memory model equals its serialized form exactly.
        wall_ms: (wall_ms * 1e3).round() / 1e3,
    }
}

fn symmetry_of(name: &str) -> SymmetryMode {
    match name {
        "off" => SymmetryMode::Off,
        "full" => SymmetryMode::Full,
        _ => SymmetryMode::Root,
    }
}

/// `--check`: the committed table's node column must still match the
/// engine exactly.
fn check_committed(max_n: u32) -> bool {
    let committed = CostModel::builtin();
    let mut checked = 0usize;
    let mut drifted = 0usize;
    for row in committed.rows() {
        if row.objective != "find_optimal" || !row.memo || row.n > max_n {
            continue;
        }
        let measured = measure(row.n, symmetry_of(&row.symmetry), &row.symmetry);
        let ok = measured.nodes == row.nodes;
        println!(
            "n={:2} symmetry={:4}  nodes {:>9} (table {:>9}) {}  wall {:>9.3} ms (table {:>9.3}, x{:.2})",
            row.n,
            row.symmetry,
            measured.nodes,
            row.nodes,
            if ok { "ok   " } else { "DRIFT" },
            measured.wall_ms,
            row.wall_ms,
            measured.wall_ms / row.wall_ms.max(1e-9),
        );
        checked += 1;
        drifted += usize::from(!ok);
    }
    assert!(checked > 0, "committed table has no checkable points");
    // The admission path the daemon actually takes: the committed table
    // must carry exact wire-default points, and a table-feasible
    // deadline must never be refused.
    for row in committed.rows() {
        if row.objective != "find_optimal" || row.symmetry != "root" || row.n > max_n {
            continue;
        }
        let job = SolveJob::new("probe", row.n);
        let feasible = row.wall_ms.ceil() as u64 + 1;
        assert!(
            committed.unmeetable(&job, feasible).is_none(),
            "honesty violation: table-feasible n={} refused at {feasible} ms",
            row.n
        );
        assert!(
            committed
                .unmeetable(&job, ((row.wall_ms / SAFETY_FACTOR) * 0.25).floor() as u64)
                .is_some()
                || row.wall_ms < SAFETY_FACTOR,
            "n={}: a deadline far under wall/{SAFETY_FACTOR} must be refused",
            row.n
        );
    }
    println!("checked {checked} committed points, {drifted} drifted");
    drifted == 0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_n = 10u32;
    let mut out: Option<String> = None;
    let mut check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--max-n" => max_n = it.next().and_then(|v| v.parse().ok()).expect("--max-n N"),
            "--out" => out = Some(it.next().expect("--out FILE").clone()),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(max_n >= 8, "calibration needs at least the n<=8 points");

    if check {
        if !check_committed(max_n) {
            eprintln!("calibration drift: regenerate with bench_calibrate --out crates/service/calibration.json");
            std::process::exit(1);
        }
        return;
    }

    let mut rows = Vec::new();
    for (symmetry, name) in MODES {
        for n in 6..=max_n {
            let row = measure(n, symmetry, name);
            eprintln!(
                "measured n={:2} symmetry={:4}  {:>9} nodes  {:>9.3} ms",
                n, name, row.nodes, row.wall_ms
            );
            rows.push(row);
        }
    }
    let model = CostModel::new(rows);
    let text = model.to_json();
    // The emitted document must round-trip and serve the wire-default
    // admission path before anyone commits it.
    let back = CostModel::from_json(&text).expect("emitted document parses");
    assert_eq!(back.rows(), model.rows(), "round-trip drift");
    for n in [8u32, max_n] {
        assert!(
            back.predict(&SolveJob::new("probe", n))
                .is_some_and(|p| p.exact),
            "emitted table missing the exact n={n} wire-default point"
        );
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &text).expect("writable --out path");
            eprintln!("wrote {} rows to {path}", model.rows().len());
        }
        None => print!("{text}"),
    }
}
