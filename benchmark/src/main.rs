//! The cyclecover benchmark: one command per (workload, seed) run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload certify-unit --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints progress and a per-instance table to stderr and, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric, or with `--trace 1` every
//! per-layer metric). Exits 1 when any output was wrong, 2 on bad usage.
//!
//! `--steady N` instead repeats every workload N times as child
//! processes, alternating workloads, and prints each end-to-end metric's
//! median, quartiles and max/min ratio.

mod certify;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod steady;
mod trace;

use std::time::Duration;

/// The workloads, in the order a steadiness run alternates them.
pub const WORKLOADS: &[&str] = &["certify-unit", "certify-lambda", "serve-mixed"];

/// What one run was asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         benchmark --steady <runs> [--seed <first>] [--seconds <s>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut traced = false;
    let mut steady_runs = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed wants an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds wants a positive number"))
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                }
            }
            "--steady" => {
                steady_runs = Some(
                    value()
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .unwrap_or_else(|| usage("--steady wants a run count of at least 2")),
                )
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if let Some(runs) = steady_runs {
        std::process::exit(steady::run(runs, seed, seconds));
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let cfg = RunConfig {
        seed,
        seconds: Duration::from_secs_f64(seconds),
    };
    host::pin_to_one_core();
    let mut tracer = trace::Tracer::new(traced);
    let mut outcome = match workload.as_str() {
        "certify-unit" => certify::run(certify::Ladder::Unit, &cfg, &mut tracer),
        "certify-lambda" => certify::run(certify::Ladder::Lambda, &cfg, &mut tracer),
        "serve-mixed" => serve::run(&cfg, &mut tracer),
        other => usage(&format!("unknown workload {other}")),
    };
    outcome.set("peak_rss_mb", stats::peak_rss_mb());
    for v in &outcome.violations {
        eprintln!("VIOLATION: {v}");
    }
    if traced {
        let path = trace::default_path(&workload, seed);
        match tracer.write(&path) {
            Ok(()) => eprintln!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        eprint!("{}", outcome.layer_report());
    }
    println!("{}", outcome.result_line(traced));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
