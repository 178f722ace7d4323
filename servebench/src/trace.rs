//! In-memory spans recorded from the benchmark's own code (around its calls
//! into each layer), written out as JSON lines when the run ends.

use crate::stats::{self, SpanTimes};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One span: name, `[start, end)` in ns since the recorder's origin, its
/// parent's index, and the request id shared by one request's spans (0
/// for spans outside any request).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `client.send`.
    pub name: &'static str,
    /// Start (ns since the recorder origin).
    pub start: u64,
    /// End (ns since the recorder origin).
    pub end: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Request id, or 0.
    pub request: u64,
}

/// Span store for one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// ns since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// ns since the origin of `at`.
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; [`Recorder::close`] sets its end. Lets a parent
    /// span exist before the children that refer to it.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.push(Span { name, start: now, end: now, parent: None, request: 0 })
    }

    /// End the span opened as `span` now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.push(Span { name, start, end, parent, request: 0 }), out)
    }

    /// Median self time in µs per span name.
    pub fn self_time_medians_us(&self) -> BTreeMap<&'static str, f64> {
        let times: Vec<SpanTimes> = self
            .spans
            .iter()
            .map(|s| SpanTimes { start: s.start, end: s.end, parent: s.parent })
            .collect();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(stats::self_times(&times)) {
            by_name.entry(span.name).or_default().push(own as f64 / 1e3);
        }
        by_name.into_iter().map(|(name, v)| (name, stats::median(&v))).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}
