//! Traced mode: one span per layer call made by the benchmark, kept in
//! memory and written out when the run ends.
//!
//! A span has a name (`<layer>.<verb>`), a start and an end (nanoseconds
//! since the tracer was created), the span that caused it and a request id
//! shared by every span of one round. Spans whose duration the benchmark
//! cannot observe directly — the server-side store time of a wire call —
//! are derived from the store's own per-verb latency histogram and placed
//! at the end of their parent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::util::{json_number, json_object, json_string, Samples};

#[derive(Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    derived: bool,
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; a traced run starts with an untraced
    /// window that gives the tracing overhead.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span now; [`Tracer::close`] ends it. Children may name it as
    /// their parent in between.
    pub fn open(&mut self, name: &'static str, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, None, request)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.offset(Instant::now());
            self.spans[id.0].end_ns = end;
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent: parent.map(|p| p.0),
            request,
            derived: false,
        };
        self.spans.push(span);
        Some(SpanId(self.spans.len() - 1))
    }

    /// Records a child span of known duration that ends with its parent.
    pub fn record_derived(&mut self, name: &'static str, duration_ns: u64, parent: SpanId) {
        if !self.enabled {
            return;
        }
        let (end_ns, request) = {
            let p = &self.spans[parent.0];
            (p.end_ns, p.request)
        };
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            parent: Some(parent.0),
            request,
            derived: true,
        });
    }

    /// Per span name: count, total and self time (duration minus the time
    /// its children cover).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let stats = out.entry(span.name).or_default();
            stats.durations.push_ns(total);
            stats.total_ns += total;
            stats.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let line = json_object([
                ("id", i.to_string()),
                ("name", json_string(span.name)),
                ("start_ns", span.start_ns.to_string()),
                ("end_ns", span.end_ns.to_string()),
                (
                    "parent",
                    span.parent.map_or("null".to_owned(), |p| p.to_string()),
                ),
                ("request", span.request.to_string()),
                ("derived", span.derived.to_string()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[derive(Default)]
pub struct SpanStats {
    pub durations: Samples,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The record-line rendering of a summary: per span name its count,
/// median, total and self time in microseconds.
pub fn render_summary(summary: &BTreeMap<&'static str, SpanStats>) -> String {
    json_object(summary.iter().map(|(name, stats)| {
        (
            *name,
            json_object([
                ("count", stats.durations.len().to_string()),
                ("p50_us", json_number(stats.durations.p50_us())),
                ("total_us", json_number(stats.total_ns as f64 / 1e3)),
                ("self_us", json_number(stats.self_ns as f64 / 1e3)),
            ]),
        )
    }))
}
