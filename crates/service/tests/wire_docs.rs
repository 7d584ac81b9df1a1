//! Deep round trips for the daemon-side examples in
//! `docs/wire-format.md` (the structural pass lives in
//! `crates/io/tests/wire_format_doc.rs`, below this layer): daemon-stats
//! examples must survive `from_json → daemon_stats_json → from_json`,
//! calibration examples must survive `from_json → to_json → from_json`,
//! control examples must classify through the real admission layer, and
//! the documented predictive reject must agree with the committed table.

use cyclecover_io::json::{Json, SolveJob};
use cyclecover_service::{
    daemon_stats_json, CertCache, CostModel, DaemonStats, Ingest, IngestAction,
};

const DOC: &str = include_str!("../../../docs/wire-format.md");

/// Extracts the contents of every ```json fence in the document.
fn json_blocks(doc: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        match (&mut current, line.trim_end()) {
            (None, "```json") => current = Some(String::new()),
            (Some(block), "```") => {
                blocks.push(std::mem::take(block));
                current = None;
            }
            (Some(block), text) => {
                block.push_str(text);
                block.push('\n');
            }
            (None, _) => {}
        }
    }
    assert!(current.is_none(), "unterminated ```json fence");
    blocks
}

fn blocks_of(format: &str) -> Vec<String> {
    json_blocks(DOC)
        .into_iter()
        .filter(|b| {
            Json::parse(b)
                .ok()
                .and_then(|d| d.get("format").and_then(Json::as_str).map(str::to_string))
                .as_deref()
                == Some(format)
        })
        .collect()
}

#[test]
fn daemon_stats_examples_round_trip() {
    let blocks = blocks_of("cyclecover-daemon-stats");
    assert!(!blocks.is_empty(), "no daemon-stats example in the doc");
    for block in blocks {
        let stats = DaemonStats::from_json(&block)
            .unwrap_or_else(|e| panic!("stats example rejected: {e}\n{block}"));
        let emitted = daemon_stats_json(&stats);
        assert!(
            !emitted.contains('\n'),
            "stats documents are single-line on the wire"
        );
        let back = DaemonStats::from_json(&emitted).expect("emitted stats parse");
        assert_eq!(back, stats, "round trip drifted for:\n{block}");
    }
}

#[test]
fn calibration_examples_round_trip() {
    let blocks = blocks_of("cyclecover-calibration");
    assert!(!blocks.is_empty(), "no calibration example in the doc");
    for block in blocks {
        let model = CostModel::from_json(&block)
            .unwrap_or_else(|e| panic!("calibration example rejected: {e}\n{block}"));
        assert!(!model.rows().is_empty());
        let back = CostModel::from_json(&model.to_json()).expect("emitted calibration parse");
        assert_eq!(
            back.rows(),
            model.rows(),
            "round trip drifted for:\n{block}"
        );
    }
}

#[test]
fn certificate_cache_examples_load_with_every_entry_accepted() {
    let blocks = blocks_of("cyclecover-certificate-cache");
    assert!(
        !blocks.is_empty(),
        "no certificate-cache example in the doc"
    );
    for block in blocks {
        let cache = CertCache::from_json(&block)
            .unwrap_or_else(|e| panic!("cache example rejected: {e}\n{block}"));
        // The documented example must survive the load-time
        // re-validation in full: no entry silently dropped.
        assert_eq!(
            cache.rejected_on_load(),
            0,
            "a documented cache entry failed re-validation:\n{block}"
        );
        assert!(!cache.is_empty(), "cache example carries no entries");
        let emitted = cache.to_json();
        assert!(
            !emitted.trim_end().contains('\n'),
            "cache documents are one line (plus a trailing newline in the file)"
        );
        let back = CertCache::from_json(&emitted).expect("emitted cache parse");
        assert_eq!(back.len(), cache.len(), "round trip drifted for:\n{block}");
        assert_eq!(back.rejected_on_load(), 0);
    }
}

#[test]
fn control_examples_classify_through_admission() {
    let blocks = blocks_of("cyclecover-control");
    let ingest = Ingest::new(None, 8);
    let (mut stats, mut shutdown) = (0usize, 0usize);
    for block in &blocks {
        match ingest.admit(block, 0) {
            IngestAction::Stats => stats += 1,
            IngestAction::Shutdown => shutdown += 1,
            other => panic!("control example misclassified as {other:?}:\n{block}"),
        }
    }
    assert!(stats >= 1, "the documented stats control went missing");
    assert!(
        shutdown >= 1,
        "the documented shutdown control went missing"
    );
}

#[test]
fn documented_predictive_reject_agrees_with_the_committed_table() {
    let blocks = blocks_of("cyclecover-reject");
    let predictive: Vec<&String> = blocks
        .iter()
        .filter(|b| b.contains("predicted_unmeetable"))
        .collect();
    assert!(!predictive.is_empty(), "no predictive reject example");
    for block in predictive {
        let doc = Json::parse(block).expect("example parses");
        let nodes = doc
            .get("predicted_nodes")
            .and_then(Json::as_num)
            .expect("evidence nodes") as u64;
        // The example narrates the doomed n=10 certification against a
        // 1 ms deadline; the committed table must actually refuse that
        // job and predict the same node count the doc claims.
        let mut job = SolveJob::new("doomed", 10);
        job.deadline_ms = Some(1);
        let prediction = CostModel::builtin()
            .unmeetable(&job, 1)
            .expect("the documented doomed job is refused by the committed table");
        assert!(prediction.exact, "rejection must come from an exact point");
        assert_eq!(
            prediction.nodes, nodes,
            "doc example's predicted_nodes drifted from the committed table"
        );
    }
}

#[test]
fn request_examples_pass_predictive_admission() {
    // Honesty at the documentation level: every request example in the
    // wire doc is admitted (Submit) by the real admission layer with the
    // committed model installed — none trips a predictive refusal.
    let blocks = blocks_of("cyclecover-request");
    assert!(
        blocks.len() >= 3,
        "documented request examples went missing"
    );
    let ingest = Ingest::new(Some(CostModel::builtin().clone()), 64);
    for block in &blocks {
        match ingest.admit(block, 0) {
            IngestAction::Submit(..) => {}
            other => panic!("request example not admitted ({other:?}):\n{block}"),
        }
    }
}
