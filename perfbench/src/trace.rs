//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span records one call into a layer's public function from the
//! benchmark's own code: name, the operation it belongs to, start and end
//! relative to the run's origin, and the span that caused it. Spans inside
//! the program (covering's graph build, cliques, lookahead) are not
//! available; per-stage times come from `BlockReport::stages` instead.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `ir.parse`.
    pub name: &'static str,
    /// Operation the span belongs to (spans of one operation share it).
    pub op: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the trace origin.
    pub start_ns: u64,
    /// End, in ns since the trace origin.
    pub end_ns: u64,
}

/// A span recorder: records nothing when tracing is off.
#[derive(Debug, Clone)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool, origin: Instant) -> Trace {
        Trace {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Record a span from `start` to `end`; returns its index (`None`
    /// when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Write the spans as JSON lines, one span per line, followed by
    /// `summary` (already a JSON object) as the last line.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write(&self, path: &Path, summary: &str) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str(summary);
        out.push('\n');
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
