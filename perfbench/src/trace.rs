//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span holds a name, start and end (nanoseconds since the tracer's
//! epoch), the span that was open when it began, and the op it belongs to.
//! Spans stay in memory and are written out once, when the run ends. A
//! disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub pass: usize,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    pass: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    /// Turns recording on or off for the next pass.
    pub fn begin_pass(&mut self, pass: usize, enabled: bool) {
        self.pass = pass;
        self.enabled = enabled;
        self.op = 0;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded in one pass.
    pub fn span_count(&self, pass: usize) -> usize {
        self.spans.iter().filter(|s| s.pass == pass).count()
    }

    /// Sets the op id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in reverse order of entry");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let r = f();
        self.exit(span);
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Self time in milliseconds per span name for one pass: each span's
    /// duration minus the part its child spans cover.
    pub fn self_ms(&self, pass: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if s.pass == pass {
                let own = (s.end_ns - s.start_ns).saturating_sub(*child);
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// Every recorded span, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{},"pass":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op, s.pass
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new();
        t.begin_pass(0, false);
        t.time("off", || ());
        assert!(t.spans.is_empty());
        t.begin_pass(1, true);
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let own = t.self_ms(1);
        assert!(own["inner"] >= 5.0);
        assert!(own["outer"] < own["inner"]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
