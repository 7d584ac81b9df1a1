//! Steadiness mode: the same workloads run again and again, each run its
//! own child process, with the spread of every end-to-end metric.

use crate::report::END_TO_END;
use crate::stats::{median, quartiles};
use crate::WORKLOADS;
use cyclecover_io::json::Json;
use std::process::{Command, Stdio};

/// Runs every workload `runs` times with seeds `first_seed..`, rotating
/// which workload goes first so slow drift of the machine spreads over
/// all of them. Prints one row per (workload, metric) and returns the
/// process exit code: 1 if any run failed or reported wrong output.
pub fn run(runs: usize, first_seed: u64, seconds: f64) -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut code = 0;
    for r in 0..runs {
        let seed = first_seed + r as u64;
        for k in 0..WORKLOADS.len() {
            let w = (r + k) % WORKLOADS.len();
            let output = Command::new(&exe)
                .args(["--workload", WORKLOADS[w], "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::null())
                .output()
                .expect("spawn a benchmark run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let correct = result.as_ref().and_then(|d| d.get("correct")?.as_bool());
            if !output.status.success() || correct != Some(true) {
                eprintln!(
                    "{} seed {seed}: run failed ({})",
                    WORKLOADS[w], output.status
                );
                code = 1;
                continue;
            }
            let metrics = result.as_ref().and_then(|d| d.get("metrics"));
            let mut line = format!("{} seed {seed}:", WORKLOADS[w]);
            for (m, def) in END_TO_END.iter().enumerate() {
                if let Some(v) = metrics.and_then(|ms| ms.get(def.name)?.get("value")?.as_num()) {
                    values[w][m].push(v);
                    line.push_str(&format!(" {}={v:.4}", def.name));
                }
            }
            eprintln!("{line}");
        }
    }
    println!(
        "{:<15} {:<20} {:>4} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "max/min"
    );
    for (w, per_metric) in values.iter().enumerate() {
        for (m, v) in per_metric.iter().enumerate() {
            if v.len() < 2 {
                continue;
            }
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            println!(
                "{:<15} {:<20} {:>4} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>8.4}",
                WORKLOADS[w],
                END_TO_END[m].name,
                v.len(),
                med,
                q1,
                q3,
                if med != 0.0 { (q3 - q1) / med } else { 0.0 },
                if min > 0.0 { max / min } else { 0.0 },
            );
        }
    }
    code
}
