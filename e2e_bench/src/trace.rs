//! Spans recorded by the benchmark around calls into each layer's public
//! functions. Held in memory, written as JSON when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, id}`; `parent` is the index
//! of the enclosing span in the file (or -1) and `id` is the frame or
//! block the call served. A layer's *self time* is its spans' duration
//! minus the part their child spans cover; [`Tracer::busy`] aggregates
//! both per name over every span, while only the first
//! [`MAX_WRITTEN_SPANS`] are kept for the file (a saturate phase makes
//! millions).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the span file; aggregates cover all spans.
pub const MAX_WRITTEN_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: i64,
    id: u64,
}

/// Per-name totals over every span recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

impl Busy {
    pub fn self_secs(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// Self time per span in `unit_ns` units (1e3 for µs), 0 when empty.
    pub fn self_per_span(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / unit_ns / self.count as f64
        }
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    /// Index this span will take in `spans`, or -1 once the file is full.
    slot: i64,
    child_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct SpanHandle(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    total_spans: u64,
    stack: Vec<Open>,
    busy: BTreeMap<&'static str, Busy>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            total_spans: 0,
            stack: Vec::new(),
            busy: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a file slot for a span about to be recorded.
    fn reserve(&mut self, name: &'static str, start: Instant, id: u64) -> i64 {
        self.total_spans += 1;
        if self.spans.len() >= MAX_WRITTEN_SPANS {
            return -1;
        }
        let parent = self.stack.last().map_or(-1, |o| o.slot);
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        (self.spans.len() - 1) as i64
    }

    fn close(&mut self, name: &'static str, slot: i64, dur_ns: u64, child_ns: u64, end: Instant) {
        if slot >= 0 {
            self.spans[slot as usize].end_ns = self.ns(end);
        }
        let b = self.busy.entry(name).or_default();
        b.count += 1;
        b.total_ns += dur_ns;
        b.self_ns += dur_ns.saturating_sub(child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
    }

    /// Opens a span that may enclose others.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanHandle {
        let start = Instant::now();
        let slot = self.reserve(name, start, id);
        self.stack.push(Open {
            name,
            start,
            slot,
            child_ns: 0,
        });
        SpanHandle(self.stack.len())
    }

    /// Closes the innermost open span, which must be `handle`'s.
    pub fn end(&mut self, handle: SpanHandle) {
        let end = Instant::now();
        assert_eq!(
            handle.0,
            self.stack.len(),
            "spans must close innermost first"
        );
        let open = self.stack.pop().expect("matching begin");
        let dur = end.saturating_duration_since(open.start).as_nanos() as u64;
        self.close(open.name, open.slot, dur, open.child_ns, end);
    }

    /// Records a finished leaf span `[start, end]` under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        let slot = self.reserve(name, start, id);
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        self.close(name, slot, dur, 0, end);
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), id);
        r
    }

    /// Totals of every span named `name` (zeros if none was recorded).
    pub fn busy(&self, name: &str) -> Busy {
        self.busy.get(name).copied().unwrap_or_default()
    }

    pub fn total_spans(&self) -> u64 {
        self.total_spans
    }

    /// Writes the span file: one JSON document with the per-name totals
    /// and the first [`MAX_WRITTEN_SPANS`] raw spans.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"total_spans\": {}, \"written_spans\": {},",
            self.total_spans,
            self.spans.len()
        )?;
        writeln!(out, "\"busy\": {{")?;
        for (i, (name, b)) in self.busy.iter().enumerate() {
            let comma = if i + 1 == self.busy.len() { "" } else { "," };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                b.count, b.total_ns, b.self_ns
            )?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(epoch);
        let outer = tr.begin("outer", 7);
        let t0 = Instant::now();
        tr.record("inner", t0, t0 + Duration::from_nanos(400), 7);
        tr.record("inner", t0, t0 + Duration::from_nanos(100), 7);
        tr.end(outer);
        let inner = tr.busy("inner");
        assert_eq!((inner.count, inner.total_ns, inner.self_ns), (2, 500, 500));
        let outer = tr.busy("outer");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.self_ns, outer.total_ns.saturating_sub(500));
        assert_eq!(tr.busy("absent"), Busy::default());
    }

    #[test]
    fn span_file_is_json_with_parents() {
        let mut tr = Tracer::new(Instant::now());
        let outer = tr.begin("outer", 1);
        tr.time("inner", 2, || ());
        tr.end(outer);
        let mut buf = Vec::new();
        tr.write_json(&mut buf).expect("write to vec");
        let doc = serde_json::parse_value_str(std::str::from_utf8(&buf).expect("utf8"))
            .expect("span file parses");
        let spans = doc
            .as_object()
            .expect("object")
            .get("spans")
            .expect("spans");
        let spans = spans.as_array().expect("array");
        assert_eq!(spans.len(), 2);
        let parent = |i: usize| {
            spans[i]
                .as_object()
                .and_then(|o| o.get("parent"))
                .cloned()
                .expect("parent")
        };
        assert_eq!(parent(0), serde_json::parse_value_str("-1").expect("int"));
        assert_eq!(parent(1), serde_json::parse_value_str("0").expect("int"));
    }
}
