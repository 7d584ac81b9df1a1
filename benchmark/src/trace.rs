//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed call: `parent` links it to the span that caused it, and every
/// span of one request carries that request's id.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
    tag: String,
}

/// The span store of one run. While `enabled` is false, [`Tracer::span`]
/// records nothing, so the same code path can run traced and untraced.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    pub enabled: bool,
}

impl Tracer {
    /// An empty store, recording when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Records a finished span and returns its id (`None` while disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        tag: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
            tag: tag.into(),
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of span `id`, for a parent recorded before its
    /// children (a no-op for `None`).
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end = end;
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line (times in µs since the run
    /// began) to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {}, \"request\": {}, \"tag\": \"{}\"}}",
                s.name,
                us(s.start),
                us(s.end),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.tag,
            );
        }
        std::fs::write(path, out)
    }
}

/// Where a traced run leaves its spans: under the build directory the
/// benchmark was compiled into, which lies inside the checkout.
pub fn default_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    dir.join("benchmark-trace")
        .join(format!("{workload}-seed{seed}.jsonl"))
}
