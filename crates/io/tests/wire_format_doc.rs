//! Keeps `docs/wire-format.md` honest: every fenced ```json block in the
//! document must parse, and each document kind must survive the full
//! round trip its consumers apply (requests: parse → emit → parse to the
//! same job; solutions with coverings: DRC re-validation; solutions
//! without: the documented "no covering" rejection).

use cyclecover_io::json::{covering_from_solution_json, request_from_json, request_to_json, Json};

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

#[test]
fn every_example_parses_and_round_trips() {
    let blocks = json_blocks(DOC);
    assert!(
        blocks.len() >= 5,
        "expected the documented example set, found {}",
        blocks.len()
    );
    let mut requests = 0;
    let mut solutions_with_covering = 0;
    let mut solutions_without = 0;
    let mut streaming = 0;
    for block in &blocks {
        let doc = Json::parse(block).unwrap_or_else(|e| panic!("bad example: {e}\n{block}"));
        let version = doc.get("version").and_then(Json::as_num);
        match doc.get("format").and_then(Json::as_str) {
            Some("cyclecover-request") => {
                requests += 1;
                let job = request_from_json(block)
                    .unwrap_or_else(|e| panic!("request example rejected: {e}\n{block}"));
                // Emit → parse lands on the same job (the documented
                // round trip).
                let emitted = request_to_json(&job);
                assert_eq!(
                    request_from_json(&emitted).unwrap(),
                    job,
                    "round trip drifted for:\n{block}"
                );
            }
            Some("cyclecover-solution") => match doc.get("cycles") {
                Some(Json::Null) => {
                    solutions_without += 1;
                    let err = covering_from_solution_json(block).unwrap_err();
                    assert!(err.contains("no covering"), "{err}");
                }
                _ => {
                    solutions_with_covering += 1;
                    let covering = covering_from_solution_json(block)
                        .unwrap_or_else(|e| panic!("solution example rejected: {e}\n{block}"));
                    covering
                        .validate()
                        .unwrap_or_else(|e| panic!("example covering invalid: {e:?}\n{block}"));
                }
            },
            // Daemon-side documents: structural checks here (this crate
            // sits below the service layer); the deep round trips live
            // in `crates/service/tests/wire_docs.rs`.
            Some("cyclecover-reject") => {
                streaming += 1;
                assert_eq!(version, Some(1.0), "reject example version:\n{block}");
                let reason = doc.get("reason").and_then(Json::as_str).expect("reason");
                assert!(
                    [
                        "parse",
                        "oversized",
                        "overload",
                        "admission",
                        "predicted_unmeetable"
                    ]
                    .contains(&reason),
                    "undocumented reject reason {reason:?}"
                );
                assert!(doc.get("detail").and_then(Json::as_str).is_some());
                if reason == "predicted_unmeetable" {
                    assert!(
                        doc.get("predicted_nodes").and_then(Json::as_num).is_some(),
                        "predictive reject must carry its evidence:\n{block}"
                    );
                }
            }
            Some("cyclecover-control") => {
                streaming += 1;
                assert_eq!(version, Some(1.0), "control example version:\n{block}");
                let op = doc.get("op").and_then(Json::as_str).expect("op");
                assert!(["stats", "shutdown"].contains(&op), "unknown op {op:?}");
            }
            Some(
                "cyclecover-daemon-stats"
                | "cyclecover-calibration"
                | "cyclecover-certificate-cache"
                | "cyclecover-engines",
            ) => {
                streaming += 1;
                assert_eq!(version, Some(1.0), "streaming example version:\n{block}");
            }
            other => panic!("example with unknown format {other:?}:\n{block}"),
        }
    }
    assert!(requests >= 3, "documented request examples went missing");
    assert!(solutions_with_covering >= 1 && solutions_without >= 1);
    assert!(
        streaming >= 5,
        "daemon protocol examples went missing, found {streaming}"
    );
}
