//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when
//! it started (its parent). Spans stay in memory while the benchmark
//! runs and are written out once at the end, together with each name's
//! self time: its spans' durations minus the part their child spans
//! cover. A disabled tracer records nothing, so the same code path runs
//! with and without tracing and the difference is the overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, `crate.call`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to the start while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Renames an open or closed span — for calls whose layer is only
    /// known afterwards (a cache hit or a miss).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(id) = id.0 {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |acc, d| acc + d)
    }

    /// Duration of each span named `name`, seconds, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time per span name, seconds: each span's duration minus its
    /// direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans and self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_time_s\": {");
        for (i, (name, secs)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {secs}");
        }
        out.push_str("},\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut tr = Tracer::on();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let self_times = tr.self_times();
        assert!(self_times["inner"] >= 0.002);
        assert!(self_times["outer"] < tr.total("outer"));
        assert_eq!(tr.spans()[1].parent, Some(0));

        let mut off = Tracer::off();
        let id = off.open("x");
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
