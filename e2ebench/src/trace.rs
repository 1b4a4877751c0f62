//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans nest through [`Tracer::span`]: the span open when another starts
//! is its parent. Nothing is written while the benchmark measures; the
//! spans are rendered as JSON lines (name, start, end, parent, workload,
//! seed) once it ends. A span's self time is its duration minus the part
//! of that interval its child spans cover.

use serde::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.encode`.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

/// Records spans for one workload and seed.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
    seed: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &str, seed: u64) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: workload.to_owned(),
            seed,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// tracer it is handed become children of this one. Returns `f`'s
    /// value and the span's index.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (value, id)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`, in milliseconds.
    pub fn self_ms(&self, id: usize) -> f64 {
        self_time_ns(&self.spans, id) as f64 / 1e6
    }

    /// Duration of span `id`, in milliseconds.
    pub fn total_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// The spans as JSON lines, one object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let fields = vec![
                ("id".to_owned(), Value::Uint(id as u64)),
                ("name".to_owned(), Value::Str(s.name.clone())),
                ("start_ns".to_owned(), Value::Uint(s.start_ns)),
                ("end_ns".to_owned(), Value::Uint(s.end_ns)),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                ),
                (
                    "self_ns".to_owned(),
                    Value::Uint(self_time_ns(&self.spans, id)),
                ),
                ("workload".to_owned(), Value::Str(self.workload.clone())),
                ("seed".to_owned(), Value::Uint(self.seed)),
            ];
            out.push_str(&serde_json::to_string(&Value::Object(fields)).expect("plain JSON"));
            out.push('\n');
        }
        out
    }
}

/// Self time of `spans[id]`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.end_ns.saturating_sub(parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 2), 8);
        assert_eq!(self_time_ns(&spans, 3), 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 90, 130, Some(0)),
            span("y", 120, 150, Some(0)),
            span("z", 190, 260, Some(0)),
        ];
        // Covered: 100..150 (x and y merged, x clipped) and 190..200.
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_through_closures() {
        let mut tracer = Tracer::new("unit", 7);
        let ((inner, _), outer) = tracer.span("outer", |t| t.span("inner", |_| 42));
        assert_eq!(inner, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(tracer.self_ms(outer) <= tracer.total_ms(outer));
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"workload\":\"unit\""), "{jsonl}");
        assert!(jsonl.contains("\"seed\":7"), "{jsonl}");
    }
}
