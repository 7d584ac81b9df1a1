//! # cyclecover-bench
//!
//! The experiment harness for the reproduction. Seven binaries, each run
//! by a CI step: `table_theorem1`, `table_theorem2` and `certify_optimal`
//! regenerate and assert the paper's tables (experiments E1, E2 and E4);
//! `bench_snapshot`, `bench_calibrate`, `bench_service` and
//! `bench_daemon` gate node counts, the admission calibration and the
//! service paths. Criterion timing benches B1–B6 ride along. The
//! survivability, restoration, loading and availability figures (E6,
//! E11, E13, E14) are one `n` at a time through the CLI's `audit`,
//! `compare`, `loading` and `avail` subcommands.
//!
//! # `BENCH_*.json` provenance
//!
//! The `BENCH_<k>.json` files at the repository root are perf-trajectory
//! snapshots written by the `bench_snapshot` binary at the PR that
//! changed the solver, on the reference single-core container:
//!
//! * `BENCH_1.json` — PR 1 (bitset kernel): ρ(n ≤ 10) certification node
//!   counts, engines `bitset` vs `legacy`. These are the **exact** (±0)
//!   baselines the `SymmetryMode::Off` rows are gated against.
//! * `BENCH_3.json` — PR 3 (dihedral symmetry + stronger bounds): the
//!   same workload across the `off`/`root`/`full` symmetry dimension,
//!   plus the n = 12 certification rows.
//! * `BENCH_5.json` — PR 5 (iterative search core + residual-state
//!   memo): the symmetry dimension crossed with the memo off/on
//!   dimension, with per-row memo hit and canonical-prune counts. The
//!   `off` memo-off rows must still equal BENCH_1 ±0 (the iterative
//!   core's exactness gate) and the memo-on rows are the regression
//!   *ceilings* used by `bench_snapshot --quick --check`, the CI
//!   node-count gate — including the ρ(10) `root`+memo acceptance
//!   ceiling (≤ 400k witness nodes vs BENCH_3's 770,227).
//! * `BENCH_9.json` — PR 9 (λ-fold lane kernel): the unit sweep plus
//!   λ-fold rows certifying ρ_λ(n) on the packed 2-bit-lane kernel vs
//!   the recursive `legacy` reference (legacy witness counts then gated
//!   ±0, and since the recursive search was deleted kept as frozen data
//!   in `bench_snapshot`; packed under ceilings *and* strictly under
//!   legacy), and
//!   the capped n = 16 budget-33 construction-gap probe, which must
//!   stay inconclusive (a certified row would close the ρ(16) gap).
//!
//! Node counts are deterministic and machine-independent; the `wall_ms`
//! fields are hardware noise and never gated on. Service-level
//! throughput (cache hit rate, coalescing, jobs/s) is snapshotted by the
//! `bench_service` binary, which asserts its queue exercises the
//! machinery but writes no baseline file — wall-clock on the shared box
//! is too noisy to gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Renders a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (c, w) in cells.iter().zip(widths) {
        s.push_str(&format!("{c:>w$}  ", w = w));
    }
    s.trim_end().to_string()
}

/// Prints a header + underline for fixed-width columns.
pub fn header(names: &[&str], widths: &[usize]) {
    let cells: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    println!("{}", row(&cells, widths));
    let underline: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", row(&underline, widths));
}
