//! In-memory spans recorded around the calls into each layer, written out as
//! JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The verification pass the span belongs to; `None` for set-up spans.
    pub pass: Option<usize>,
    /// The design (or set-up repetition) the span belongs to.
    pub key: String,
    pub start: Instant,
    pub end: Instant,
    /// Work counts of the layer, recorded at the same boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// The spans of one benchmark run, indexed by position.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id for use as a parent.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time per span name over the spans of `pass`: each span's
    /// duration minus the durations of its children (children of one span
    /// run one after another, so their intervals never overlap).
    pub fn self_times(&self, pass: usize) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.seconds();
            }
        }
        let mut times = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            if span.pass == Some(pass) {
                *times.entry(span.name).or_insert(0.0) += span.seconds() - children;
            }
        }
        times
    }

    /// Serializes every span as one JSON object per line; times are seconds
    /// since the start of the run.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"pass\":{},\"key\":\"{}\",\"start_s\":{},\"end_s\":{}",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.name,
                span.pass.map_or("null".to_string(), |p| p.to_string()),
                span.key,
                at(span.start),
                at(span.end),
            );
            for (name, value) in &span.counts {
                let _ = write!(out, ",\"{name}\":{value}");
            }
            out.push_str("}\n");
        }
        out
    }
}
