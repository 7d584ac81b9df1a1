//! Property tests for the daemon's connection reader: however the TCP
//! layer fragments the byte stream, framing is invariant — every input
//! line surfaces exactly once, in order — and admission classifies each
//! framed line into exactly one action, so a client that streams k job
//! lines gets exactly k terminal documents back, never 0 and never 2.

use cyclecover_io::json::{request_to_json, to_single_line, SolveJob};
use cyclecover_service::{CostModel, FramedLine, Ingest, IngestAction, LineFramer};
use proptest::prelude::*;

/// One logical input line, by how admission must treat it.
#[derive(Clone, Debug, PartialEq)]
enum Line {
    /// Well-formed request document (→ exactly one `Submit`).
    Job { id: u32, n: u32 },
    /// Non-empty, non-comment, unparseable (→ exactly one `Reject`).
    Garbage(String),
    /// Blank or `#` comment (→ `Ignore`, no response document).
    Silent(String),
}

impl Line {
    fn render(&self) -> String {
        match self {
            Line::Job { id, n } => {
                to_single_line(&request_to_json(&SolveJob::new(format!("j{id}"), *n)))
            }
            Line::Garbage(s) | Line::Silent(s) => s.clone(),
        }
    }
}

/// (kind, salt, n) → a line; kinds weight jobs at ~40%.
fn make_line((kind, salt, n): (u8, u32, u32)) -> Line {
    match kind {
        0 | 1 => Line::Job { id: salt, n },
        2 => Line::Garbage(format!("!not json {salt} {{\"truncated\": ")),
        3 => Line::Silent(format!("# comment {salt}")),
        _ => Line::Silent(String::new()),
    }
}

fn lines_strategy() -> impl Strategy<Value = Vec<Line>> {
    prop::collection::vec((0u8..5, 0u32..1000, 6u32..=10).prop_map(make_line), 0..24)
}

/// Splits `bytes` at the (wrapped) cut points and feeds the fragments to
/// the framer, collecting everything it yields.
fn frame_in_fragments(framer: &mut LineFramer, bytes: &[u8], cuts: &[usize]) -> Vec<FramedLine> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|c| if bytes.is_empty() { 0 } else { c % bytes.len() })
        .collect();
    points.push(0);
    points.push(bytes.len());
    points.sort_unstable();
    let mut out = Vec::new();
    for pair in points.windows(2) {
        out.extend(framer.push(&bytes[pair[0]..pair[1]]));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Framing is split-invariant: any fragmentation of the same byte
    /// stream yields the same lines, in order, with CRLF tolerated.
    #[test]
    fn framing_is_invariant_under_arbitrary_chunk_splits(
        lines in lines_strategy(),
        cuts in prop::collection::vec(0usize..4096, 0..12),
        crlf in any::<bool>(),
    ) {
        let ending = if crlf { "\r\n" } else { "\n" };
        let mut bytes = Vec::new();
        for line in &lines {
            bytes.extend_from_slice(line.render().as_bytes());
            bytes.extend_from_slice(ending.as_bytes());
        }
        let mut framer = LineFramer::new(1 << 20);
        let framed = frame_in_fragments(&mut framer, &bytes, &cuts);
        prop_assert_eq!(framed.len(), lines.len());
        for (got, want) in framed.iter().zip(&lines) {
            match got {
                FramedLine::Line(text) => prop_assert_eq!(text, &want.render()),
                FramedLine::Oversized { .. } => prop_assert!(false, "no line is oversized here"),
            }
        }
    }

    /// Oversized lines are dropped wholesale — the framer resyncs at the
    /// next newline and the neighbours come through untouched.
    #[test]
    fn oversized_lines_drop_without_corrupting_neighbours(
        pad in 1usize..200,
        cuts in prop::collection::vec(0usize..512, 0..8),
    ) {
        let max = 32usize;
        let big = "x".repeat(max + pad);
        let stream = format!("before\n{big}\nafter\n");
        let mut framer = LineFramer::new(max);
        let framed = frame_in_fragments(&mut framer, stream.as_bytes(), &cuts);
        prop_assert_eq!(framed.len(), 3);
        prop_assert_eq!(&framed[0], &FramedLine::Line("before".to_string()));
        prop_assert!(matches!(framed[1], FramedLine::Oversized { .. }));
        prop_assert_eq!(&framed[2], &FramedLine::Line("after".to_string()));
    }

    /// Exactly one terminal response per job: across any fragmentation,
    /// admission produces one `Submit` per well-formed line, one
    /// `Reject` per malformed line, and silence only for blank/comment
    /// lines — the invariant behind "k job lines in, k documents out".
    #[test]
    fn admission_yields_exactly_one_action_per_line(
        lines in lines_strategy(),
        cuts in prop::collection::vec(0usize..4096, 0..12),
    ) {
        let mut bytes = Vec::new();
        for line in &lines {
            bytes.extend_from_slice(line.render().as_bytes());
            bytes.push(b'\n');
        }
        let mut framer = LineFramer::new(1 << 20);
        let framed = frame_in_fragments(&mut framer, &bytes, &cuts);
        let ingest = Ingest::new(Some(CostModel::builtin().clone()), usize::MAX);
        let (mut submits, mut rejects, mut ignores) = (0usize, 0usize, 0usize);
        for f in framed {
            match f {
                FramedLine::Line(text) => match ingest.admit(&text, 0) {
                    IngestAction::Submit(..) => submits += 1,
                    IngestAction::Reject { .. } => rejects += 1,
                    IngestAction::Ignore => ignores += 1,
                    other => prop_assert!(false, "unexpected action {other:?}"),
                },
                FramedLine::Oversized { .. } => prop_assert!(false, "no oversized lines here"),
            }
        }
        let jobs = lines.iter().filter(|l| matches!(l, Line::Job { .. })).count();
        let garbage = lines.iter().filter(|l| matches!(l, Line::Garbage(_))).count();
        let silent = lines.iter().filter(|l| matches!(l, Line::Silent(_))).count();
        prop_assert_eq!(submits, jobs, "one Submit per well-formed job line");
        prop_assert_eq!(rejects, garbage, "one Reject per malformed line");
        prop_assert_eq!(ignores, silent, "blank/comment lines answer nothing");
    }
}
