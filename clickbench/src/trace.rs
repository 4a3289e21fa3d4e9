//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start and end (offsets from the tracer's origin),
//! the span that caused it and the query it belongs to. Spans stay in
//! memory for the whole run; per-layer metrics are computed from them and
//! they are written out once, after the run.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<SpanId>,
    pub query: u64,
    /// A side probe: timed beside the query path, never part of its sum.
    pub side: bool,
}

impl Span {
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, query: u64) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, start: now, end: now, parent, query, side: false });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Time `f` as a span on the query path.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        out
    }

    /// Time `f` as a side probe.
    pub fn side<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None, query);
        self.spans[id].side = true;
        let out = f();
        self.close(id);
        out
    }

    /// A child span whose duration the program reported (it ran in another
    /// process), placed at its parent's start.
    pub fn reported(&mut self, name: &'static str, parent: SpanId, len: Duration) {
        let (start, query) = (self.spans[parent].start, self.spans[parent].query);
        self.spans.push(Span {
            name,
            start,
            end: start + len,
            parent: Some(parent),
            query,
            side: false,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (Duration, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(sum, n), s| (sum + s.len(), n + 1))
    }

    /// Write every span as one JSON object per line, after `header`.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"query\":{},\"side\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.query,
                s.side
            )?;
        }
        out.flush()
    }
}
