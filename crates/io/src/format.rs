//! A line-oriented text format for DRC coverings.
//!
//! A deployment needs to persist the design artifact (which cycles, on
//! which ring) and reload it for provisioning and audit. The format is
//! deliberately trivial — diffable, versionable, greppable:
//!
//! ```text
//! # cyclecover v1
//! ring 9
//! cycle 0 3 6
//! cycle 0 1 4 5
//! ```
//!
//! Blank lines and `#` comments are ignored. Cycle vertices are the
//! logical cycle in routing order; parsing re-validates every line
//! (range, arity, DRC-routability via the winding check), so a loaded
//! covering is as trustworthy as a constructed one.

use cyclecover_core::DrcCovering;
use cyclecover_graph::CycleSubgraph;
use cyclecover_ring::{routing, Ring, Tile};
use std::fmt::Write as _;

/// Parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for structural errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a covering to the v1 text format.
pub fn to_text(cover: &DrcCovering) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# cyclecover v1");
    let _ = writeln!(s, "ring {}", cover.ring().n());
    for tile in cover.tiles() {
        s.push_str("cycle");
        for v in tile.vertices() {
            let _ = write!(s, " {v}");
        }
        s.push('\n');
    }
    s
}

/// Parses the v1 text format back into a covering. Every cycle line is
/// checked: vertices in range, distinct, at least 3, and DRC-routable on
/// the declared ring.
pub fn from_text(text: &str) -> Result<DrcCovering, ParseError> {
    let mut ring: Option<Ring> = None;
    let mut tiles = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut words = trimmed.split_whitespace();
        match words.next() {
            Some("ring") => {
                if ring.is_some() {
                    return Err(ParseError {
                        line,
                        message: "duplicate ring declaration".into(),
                    });
                }
                let n: u64 = words
                    .next()
                    .ok_or_else(|| ParseError {
                        line,
                        message: "ring needs a size".into(),
                    })?
                    .parse()
                    .map_err(|e| ParseError {
                        line,
                        message: format!("bad ring size: {e}"),
                    })?;
                let r = Ring::try_new(n).map_err(|message| ParseError { line, message })?;
                if words.next().is_some() {
                    return Err(ParseError {
                        line,
                        message: "trailing tokens after ring size".into(),
                    });
                }
                ring = Some(r);
            }
            Some("cycle") => {
                let ring = ring.ok_or_else(|| ParseError {
                    line,
                    message: "cycle before ring declaration".into(),
                })?;
                let verts: Vec<u32> = words
                    .map(|w| {
                        w.parse().map_err(|e| ParseError {
                            line,
                            message: format!("bad vertex '{w}': {e}"),
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if verts.len() < 3 {
                    return Err(ParseError {
                        line,
                        message: format!("cycle needs >= 3 vertices, got {}", verts.len()),
                    });
                }
                let mut sorted = verts.clone();
                sorted.sort_unstable();
                if sorted.windows(2).any(|w| w[0] == w[1]) {
                    return Err(ParseError {
                        line,
                        message: "repeated vertex in cycle".into(),
                    });
                }
                if let Some(&v) = verts.iter().find(|&&v| v >= ring.n()) {
                    return Err(ParseError {
                        line,
                        message: format!("vertex {v} out of range for ring {}", ring.n()),
                    });
                }
                let cyc = CycleSubgraph::new(verts.clone());
                if routing::winding_routing(ring, &cyc).is_none() {
                    return Err(ParseError {
                        line,
                        message: "cycle violates the DRC on the declared ring".into(),
                    });
                }
                tiles.push(Tile::from_vertices(ring, verts));
            }
            Some(other) => {
                return Err(ParseError {
                    line,
                    message: format!("unknown directive '{other}'"),
                });
            }
            None => unreachable!("blank lines filtered above"),
        }
    }
    let ring = ring.ok_or(ParseError {
        line: 0,
        message: "missing ring declaration".into(),
    })?;
    Ok(DrcCovering::from_tiles(ring, tiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_core::construct_optimal;

    #[test]
    fn round_trips_constructed_coverings() {
        for n in [3u32, 5, 8, 9, 12, 13, 16, 21] {
            let cover = construct_optimal(n);
            let text = to_text(&cover);
            let back = from_text(&text).expect("round trip parses");
            assert_eq!(back.ring().n(), n);
            assert_eq!(back.len(), cover.len(), "n={n}");
            assert!(back.validate().is_ok(), "n={n}");
            // Idempotence: serialize again, identical text.
            assert_eq!(to_text(&back), text, "n={n}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\nring 5\n# mid\ncycle 0 1 2\n\n";
        let cover = from_text(text).unwrap();
        assert_eq!(cover.len(), 1);
    }

    fn err(text: &str) -> ParseError {
        from_text(text).unwrap_err()
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(err("").message.contains("missing ring"));
        assert!(err("cycle 0 1 2").message.contains("before ring"));
        assert!(err("ring").message.contains("needs a size"));
        for size in ["2", "1025", "4000000000"] {
            let message = err(&format!("ring {size}\ncycle 0 1 2")).message;
            assert!(message.contains("3..=1024"), "{size}: {message}");
        }
        assert!(err("ring five").message.contains("bad ring size"));
        assert!(err("ring 5 7").message.contains("trailing"));
        assert!(err("ring 5\nring 6").message.contains("duplicate"));
        assert!(err("ring 5\nwavelength 3")
            .message
            .contains("unknown directive"));
        assert!(err("ring 5\ncycle 0 1").message.contains(">= 3"));
        assert!(err("ring 5\ncycle 0 1 9").message.contains("out of range"));
        assert!(err("ring 5\ncycle 0 1 1").message.contains("repeated"));
        assert!(err("ring 5\ncycle 0 x 2").message.contains("bad vertex"));
    }

    #[test]
    fn rejects_non_drc_cycle() {
        // The paper's crossed quad on C4.
        let e = err("ring 4\ncycle 0 2 3 1");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("DRC"));
    }

    #[test]
    fn error_lines_are_accurate() {
        let e = err("# c\nring 6\n# c\ncycle 0 2 4\ncycle 0 2 1 3");
        assert_eq!(e.line, 5);
    }
}
