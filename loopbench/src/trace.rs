//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans stay in memory while a run measures
//! and are written out when it ends; a disabled recorder only runs the
//! closure.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: name, start and end (ns since the recorder's
/// epoch), and the index of the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self::with_epoch(enabled, Instant::now())
    }

    /// A recorder sharing `epoch` with others, so spans recorded on
    /// several threads land on one time axis.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Self {
        Trace {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Like [`Trace::span`], also returning the span's wall time in ns
    /// (measured even when recording is off).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let t = Instant::now();
        let out = self.span(name, f);
        (out, t.elapsed().as_nanos() as f64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans (recorded on another thread), re-basing
    /// their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A span's duration minus the part of it its direct children
    /// cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns().saturating_sub(children)
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out
    }
}

/// Measured cost of recording one span, in ns (median of a batch of
/// empty spans) — the basis of the reported tracing overhead.
pub fn span_cost_ns() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut t = Trace::new(true);
        let n = 20_000u32;
        let start = Instant::now();
        for _ in 0..n {
            t.span("calibrate", |_| std::hint::black_box(()));
        }
        samples.push(start.elapsed().as_nanos() as f64 / f64::from(n));
    }
    crate::stats::median(&samples).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.self_ns(0) < spans[0].duration_ns());
        assert_eq!(t.self_ns(1), spans[1].duration_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let mut t = Trace::new(false);
        let (v, ns) = t.timed("x", |_| 7);
        assert_eq!(v, 7);
        assert!(ns >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Trace::new(true);
        a.span("a", |_| ());
        let mut b = Trace::with_epoch(true, a.epoch());
        b.span("b", |t| t.span("c", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.to_json_lines().lines().count() == 3);
    }
}
