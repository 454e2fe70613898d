//! An in-memory span recorder for the benchmark's own calls.
//!
//! Spans are opened and closed around calls into the program's public
//! entry points; nothing inside the program is instrumented. A disabled
//! recorder reads no clock and stores nothing, so untraced runs pay
//! nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point the span wraps (`"run_search"`).
    pub name: &'static str,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span (`None` when the recorder is disabled).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span"]
pub struct SpanId(Option<usize>);

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans (all closed once the caller is done).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Concatenates the span lists of several recorders sharing one epoch,
/// renumbering parent links.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let offset = out.len();
        out.extend(part.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }
    out
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total: Duration,
    /// Sum of their self times: duration minus the time covered by
    /// child spans.
    pub self_time: Duration,
}

/// Totals per span name. Children of one span never overlap (each
/// recorder is single-threaded), so a span's self time is its duration
/// minus the sum of its children's.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_time) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += s.duration().saturating_sub(*children);
    }
    out
}

/// The spans as JSON lines: one object per span with its name, start
/// and end in microseconds from the run's epoch, parent index and
/// request id.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.open("outer", 7);
        t.span("inner", 7, || std::thread::sleep(Duration::from_millis(2)));
        t.close(outer);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let tot = totals(&spans);
        let outer = tot["outer"];
        let inner = tot["inner"];
        assert!(inner.total >= Duration::from_millis(2));
        assert_eq!(inner.self_time, inner.total);
        assert_eq!(outer.self_time, outer.total - inner.total);
        assert_eq!(to_json_lines(&spans).lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0);
        t.close(id);
        assert!(t.into_spans().is_empty());
    }
}
