//! Host-side span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public API in
//! a span: name, start, end, parent span and request id. Spans stay in
//! memory and are written out when the run ends. Self time (a span's
//! duration minus the time its child spans cover) is folded per name as
//! each span closes, so the per-layer totals cover every span even when
//! the stored span list is capped. With tracing off every call is a
//! branch and nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the output file; later spans still count in the
/// per-name totals.
const MAX_STORED_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    /// Index in `spans` (None once the store is full).
    stored: Option<usize>,
    child_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Guard(bool);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
    req: u64,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            req: 0,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Start a new request: spans opened from now on carry its id.
    pub fn request(&mut self) {
        if self.on {
            self.req += 1;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Guard {
        if !self.on {
            return Guard(false);
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().and_then(|o| o.stored);
        let stored = if self.spans.len() < MAX_STORED_SPANS {
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: self.req });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open { name, start_ns, stored, child_ns: 0 });
        Guard(true)
    }

    pub fn exit(&mut self, guard: Guard) {
        if !guard.0 {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.stored {
            self.spans[i].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Record a span measured elsewhere (e.g. on a helper thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(dur_ns);
        let parent = self.stack.last().and_then(|o| o.stored);
        if self.spans.len() < MAX_STORED_SPANS {
            self.spans.push(Span { name, start_ns, end_ns, parent, req: self.req });
        } else {
            self.dropped += 1;
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur_ns;
        t.self_ns += dur_ns;
    }

    /// Totals of every closed span called `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration in nanoseconds of the spans called `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.totals(name);
        crate::stats::ratio(t.total_ns as f64, t.count as f64)
    }

    /// Render the span log and the per-name totals as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"layers\": {");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let _ = write!(out, "\n  }},\n  \"dropped_spans\": {},\n  \"spans\": [", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let (o, i) = (t.totals("outer"), t.totals("inner"));
        assert_eq!(o.total_ns - o.self_ns, i.total_ns);
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let g = t.enter("x");
        t.exit(g);
        assert_eq!(t.totals("x").count, 0);
    }
}
