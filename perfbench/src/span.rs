//! Outside-in layer spans.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public API: name, start, end and the enclosing span. Spans
//! stay in memory while the repetition runs and are written out once at
//! the end, so recording costs one `Instant::now()` and one `Vec` push
//! per boundary. A disabled tracer records nothing; untraced
//! repetitions, which produce every end-to-end number, use one.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded layer-boundary call.
struct Span {
    /// Layer boundary, e.g. `fleet.run_fleet` or `core.figs.table2`.
    name: Cow<'static, str>,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    start_ns: u64,
    /// Nanoseconds since the tracer was created; `start_ns` until closed.
    end_ns: u64,
}

/// Handle returned by [`Tracer::enter`] and consumed by [`Tracer::exit`].
#[must_use]
pub struct SpanGuard(Option<usize>);

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part of it covered by
    /// child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and nothing otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        if !self.enabled {
            return SpanGuard(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanGuard(Some(id))
    }

    /// Closes the span `guard` opened. Spans close innermost first.
    pub fn exit(&mut self, guard: SpanGuard) {
        let Some(id) = guard.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        let guard = self.enter(name);
        let out = f();
        self.exit(guard);
        out
    }

    /// Totals per span name, with self time computed from the union of
    /// each span's child intervals.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let duration = s.end_ns - s.start_ns;
            let entry = out.entry(s.name.to_string()).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - covered_ns(kids, s.start_ns, s.end_ns);
        }
        out
    }

    /// Writes every span as one JSON object per line, tagged with `run`.
    pub fn write_jsonl(&self, out: &mut impl Write, run: &str) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        let mut iv = vec![(5, 8), (0, 4), (2, 6)];
        assert_eq!(covered_ns(&mut iv, 0, 10), 8);
        let mut clipped = vec![(0, 20)];
        assert_eq!(covered_ns(&mut clipped, 5, 10), 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", || ());
        assert!(t.totals().is_empty());
    }
}
