//! Span tracing around calls into each layer, from the benchmark's side
//! of the public API.
//!
//! A span records a name, start, end, parent span and workload-iteration
//! id. Totals and self time (span time minus the time its child spans
//! cover) are aggregated per layer as spans close, so they are exact for
//! every iteration. Raw span records are kept in memory — every coarse
//! span, and per-event spans only from the first traced iteration, up
//! to `PER_EVENT_KEPT` of them, which bounds memory and the span file
//! on 200k-task iterations — and written out once, at exit.
//!
//! A disabled tracer records nothing: [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layers whose spans fire once per simulation event or per submitted
/// task: their raw records are kept only for the first traced iteration.
const PER_EVENT: [&str; 3] = ["engine", "service.step", "service.submit"];

/// Most per-event span records kept.
const PER_EVENT_KEPT: usize = 65_536;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Layer name.
    pub name: &'static str,
    /// Span id (unique within the process).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Workload iteration the span belongs to.
    pub iteration: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Per-layer totals of one iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child-span coverage), ns.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Frame {
    name: &'static str,
    id: u64,
    start: Instant,
    child_ns: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    iteration: u32,
    first_traced: Option<u32>,
    per_event_kept: usize,
    stack: Vec<Frame>,
    spans: Vec<SpanRecord>,
    current: BTreeMap<&'static str, LayerTotals>,
    history: Vec<BTreeMap<&'static str, LayerTotals>>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 0,
            iteration: 0,
            first_traced: None,
            per_event_kept: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            current: BTreeMap::new(),
            history: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between iterations.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Tag subsequent spans with workload iteration `iteration`.
    pub fn begin_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
        if self.enabled && self.first_traced.is_none() {
            self.first_traced = Some(iteration);
        }
    }

    /// Close the iteration's per-layer totals into the history (a no-op
    /// when nothing was recorded).
    pub fn end_iteration(&mut self) {
        debug_assert!(self.stack.is_empty(), "iteration ended inside a span");
        if !self.current.is_empty() {
            self.history.push(std::mem::take(&mut self.current));
        }
    }

    /// Open a span named `name`; must be matched by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.stack.push(Frame {
            name,
            id: self.next_id,
            start: Instant::now(),
            child_ns: 0,
        });
        self.next_id += 1;
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let frame = self.stack.pop().expect("close() without a matching open()");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let layer = self.current.entry(frame.name).or_default();
        layer.calls += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(frame.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let keep = if PER_EVENT.contains(&frame.name) {
            let first = Some(self.iteration) == self.first_traced;
            let keep = first && self.per_event_kept < PER_EVENT_KEPT;
            self.per_event_kept += usize::from(keep);
            keep
        } else {
            true
        };
        if keep {
            let start_ns = frame.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(SpanRecord {
                name: frame.name,
                id: frame.id,
                parent,
                iteration: self.iteration,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Per-layer totals of every traced iteration, in order.
    #[must_use]
    pub fn history(&self) -> &[BTreeMap<&'static str, LayerTotals>] {
        &self.history
    }

    /// Raw span records kept so far.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The kept spans as JSON lines, one object per span.
    #[must_use]
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"iteration\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.iteration, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true);
        t.begin_iteration(0);
        t.open("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        t.end_iteration();
        let layers = &t.history()[0];
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.calls, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_iteration(0);
        let v = t.span("x", || 41 + 1);
        t.end_iteration();
        assert_eq!(v, 42);
        assert!(t.history().is_empty());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn per_event_spans_kept_only_for_first_traced_iteration() {
        let mut t = Tracer::new(true);
        for it in 0..2 {
            t.begin_iteration(it);
            t.open("drive");
            t.span("engine", || ());
            t.close();
            t.end_iteration();
        }
        let engines = t.spans().iter().filter(|s| s.name == "engine").count();
        let drives = t.spans().iter().filter(|s| s.name == "drive").count();
        assert_eq!((engines, drives), (1, 2));
        assert_eq!(t.history()[1]["engine"].calls, 1);
    }
}
