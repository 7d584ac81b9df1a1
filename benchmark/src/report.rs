//! The metric catalogue and the one-line JSON result every run ends with.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "instance_geomean_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "conclusive_frac",
        unit: "frac",
    },
    EndToEnd {
        name: "validated_frac",
        unit: "frac",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
    },
];

/// A per-layer metric and the end-to-end figures it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

const TILES: &str = "setup_s, peak_rss_mb on certify-unit; flat on certify-lambda and every wall_s";
const API: &str =
    "wall_s, instance_geomean_ms on certify-unit, certify-lambda; flat on serve-mixed";
const DISPATCH: &str =
    "conclusive_frac, wall_s on certify-unit (capped default-route rows); flat on serve-mixed";
const UNIT_CORE: &str = "wall_s, instance_geomean_ms on certify-unit; flat on certify-lambda";
const LANES: &str = "wall_s, instance_geomean_ms on certify-lambda; flat on certify-unit";
const DLX: &str =
    "wall_s, instance_geomean_ms on certify-unit (C<=4 rows), certify-lambda; flat on serve-mixed";
const MULTI: &str = "wall_s, instance_geomean_ms on certify-lambda; flat on certify-unit";
const MEMO: &str =
    "api.nodes, hence wall_s, conclusive_frac on certify-unit, certify-lambda; flat on serve-mixed";
const JSON: &str = "jobs_per_s, latency_p50_ms on serve-mixed; flat on certify-*";
const PREDICT: &str = "latency_p50_ms, validated_frac on serve-mixed; flat on certify-*";
const SERVICE: &str = "jobs_per_s on serve-mixed; flat on certify-*";
const CACHE: &str = "latency_p99_ms on serve-mixed; flat on certify-*";
const CERTS: &str = "jobs_per_s, latency_p50_ms on serve-mixed; flat on certify-*";
const DAEMON: &str = "latency_p50_ms, jobs_per_s, validated_frac on serve-mixed; flat on certify-*";
const TRACE: &str = "the gap between traced and untraced end-to-end figures";
const HOST: &str = "nothing: the host's speed, by which every timed figure but setup_s is scaled";

macro_rules! layer {
    ($name:literal, $unit:literal, $layer:literal, $moves:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            layer: $layer,
            moves: $moves,
        }
    };
}

/// Every per-layer metric, printed by every traced run (0 where a
/// workload never calls into the layer).
pub const PER_LAYER: &[PerLayer] = &[
    layer!("tiles.enumerate_ms", "ms", "solver::tiles", TILES),
    layer!("tiles.lazy_ms", "ms", "solver::tiles", TILES),
    layer!("tiles.count", "count", "solver::tiles", TILES),
    layer!("tiles.universe_mb", "MiB", "solver::tiles", TILES),
    layer!("api.solve_ms", "ms", "solver::api", API),
    layer!("api.nodes", "count", "solver::api", API),
    layer!("api.pruned", "count", "solver::api", API),
    layer!("api.dominated", "count", "solver::api", API),
    layer!("api.sym_pruned", "count", "solver::api", API),
    layer!("api.canon_pruned", "count", "solver::api", API),
    layer!(
        "api.budgets_tried",
        "count",
        "solver::api dispatch",
        DISPATCH
    ),
    layer!(
        "api.partition_probes",
        "count",
        "solver::api dispatch",
        DISPATCH
    ),
    layer!(
        "api.wasted_node_frac",
        "frac",
        "solver::api dispatch",
        DISPATCH
    ),
    layer!(
        "search_core.unit.knodes_per_s",
        "knodes/s",
        "solver::search_core",
        UNIT_CORE
    ),
    layer!(
        "search_core.lanes.knodes_per_s",
        "knodes/s",
        "solver::search_core",
        LANES
    ),
    layer!("dlx.partition.knodes_per_s", "knodes/s", "solver::dlx", DLX),
    layer!("bnb.multi.knodes_per_s", "knodes/s", "solver::bnb", MULTI),
    layer!("memo.hits", "count", "solver::memo", MEMO),
    layer!("memo.entries", "count", "solver::memo", MEMO),
    layer!("memo.hits_per_knode", "1/knode", "solver::memo", MEMO),
    layer!("memo.shared_hits", "count", "solver::memo", MEMO),
    layer!("memo.silent_off", "count", "solver::memo", MEMO),
    layer!("json.parse_us", "us", "io::json", JSON),
    layer!("json.emit_us", "us", "io::json", JSON),
    layer!("json.request_bytes", "bytes", "io::json", JSON),
    layer!("json.response_bytes", "bytes", "io::json", JSON),
    layer!("predict.us", "us", "service::predict", PREDICT),
    layer!("predict.rejects", "count", "service::predict", PREDICT),
    layer!("service.drain_ms", "ms", "service::service", SERVICE),
    layer!("service.overhead_ms", "ms", "service::service", SERVICE),
    layer!("service.queue_wait_ms", "ms", "service::service", SERVICE),
    layer!("service.coalesced", "count", "service::service", SERVICE),
    layer!("service.retries", "count", "service::service", SERVICE),
    layer!("cache.hit_frac", "frac", "service::cache", CACHE),
    layer!("cache.misses", "count", "service::cache", CACHE),
    layer!("cache.evictions", "count", "service::cache", CACHE),
    layer!("cache.build_ms", "ms", "service::cache", CACHE),
    layer!("certs.hits", "count", "service::certs", CERTS),
    layer!("certs.entries", "count", "service::certs", CERTS),
    layer!("daemon.admit_us", "us", "service::daemon", DAEMON),
    layer!("daemon.generations", "count", "service::daemon", DAEMON),
    layer!(
        "daemon.jobs_per_generation",
        "count",
        "service::daemon",
        DAEMON
    ),
    layer!("daemon.warm_hit_frac", "frac", "service::daemon", DAEMON),
    layer!("daemon.rejected_parse", "count", "service::daemon", DAEMON),
    layer!(
        "daemon.rejected_predicted",
        "count",
        "service::daemon",
        DAEMON
    ),
    layer!(
        "daemon.rejected_overload",
        "count",
        "service::daemon",
        DAEMON
    ),
    layer!("daemon.stalls", "count", "service::daemon", DAEMON),
    layer!(
        "daemon.predicted_rel_err",
        "frac",
        "service::daemon",
        DAEMON
    ),
    layer!("daemon.kernel_ms_p50", "ms", "service::daemon", DAEMON),
    layer!("daemon.wait_ms_p50", "ms", "service::daemon", DAEMON),
    layer!("trace.overhead_frac", "frac", "benchmark tracing", TRACE),
    layer!("host.search_us", "us", "benchmark host reference", HOST),
    layer!("host.walk_us", "us", "benchmark host reference", HOST),
];

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (certify: solves) the run attempted.
    pub attempted: u64,
    /// Attempted requests without a validated answer.
    pub failed: u64,
    /// One line per correctness violation (printed to stderr).
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness violation.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Whether the run saw no violation.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The result line: every end-to-end metric untraced, every
    /// per-layer metric traced.
    ///
    /// # Panics
    /// Panics if the workload left a catalogued metric unset — a bug in
    /// the benchmark, not in the system under test.
    pub fn result_line(&self, traced: bool) -> String {
        let entries: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics: Vec<String> = entries
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or_else(|| {
                    panic!("workload left metric {name} unset");
                });
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The traced run's human-readable report: each per-layer metric next
    /// to the end-to-end figures it should move.
    pub fn layer_report(&self) -> String {
        let mut out = String::from("per-layer metrics (value, unit, layer, should move):\n");
        for m in PER_LAYER {
            let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<32} {:>14.3} {:<9} {:<22} {}\n",
                m.name, value, m.unit, m.layer, m.moves
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_io::json::Json;

    fn listed(doc: &Json, key: &str, field: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |names: Vec<&str>| names.into_iter().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            listed(&doc, "workloads", "name"),
            own(crate::WORKLOADS.to_vec())
        );
        assert_eq!(
            listed(&doc, "end_to_end", "name"),
            own(END_TO_END.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            listed(&doc, "end_to_end", "unit"),
            own(END_TO_END.iter().map(|m| m.unit).collect())
        );
        assert_eq!(
            listed(&doc, "per_layer", "name"),
            own(PER_LAYER.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            listed(&doc, "per_layer", "unit"),
            own(PER_LAYER.iter().map(|m| m.unit).collect())
        );
    }
}
