//! Spans recorded from *outside* the library: the benchmark wraps each
//! call into a layer's public function, keeps the spans in memory, and
//! derives per-layer times (and the Chrome trace) from them at exit.
//! With tracing off [`Tracer::span`] is a plain call, so the untraced
//! run — where every end-to-end metric comes from — pays nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition this span belongs to (spans of one repetition
    /// share it).
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration.
    pub total_secs: f64,
    /// Summed duration minus the time covered by child spans.
    pub self_secs: f64,
}

/// The in-memory span recorder. Single-threaded by design: spans wrap
/// calls made by the benchmark's driving thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A recorder; `on = false` makes every method a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tags subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let ix = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the duration of its direct children (children
    /// of one parent never overlap: one thread records them).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_secs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_secs += s.secs();
            t.self_secs += s.secs() - covered;
        }
        out
    }

    /// Fraction of the spans named `name` that their children cover.
    pub fn child_cover(&self, name: &str) -> f64 {
        match self.totals().get(name) {
            Some(t) if t.total_secs > 0.0 => 1.0 - t.self_secs / t.total_secs,
            _ => 0.0,
        }
    }

    /// The span list as Chrome-trace ("Trace Event") complete events:
    /// microseconds, `args` carrying parent and repetition; `pid`
    /// tells workloads apart when several share one file.
    pub fn chrome_events(&self, pid: u64) -> Vec<Json> {
        let events = self.spans.iter().enumerate().map(|(ix, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Int(pid)),
                ("tid", Json::Int(1)),
                ("ts", Json::Num(s.start * 1e6)),
                ("dur", Json::Num(s.secs() * 1e6)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(ix as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::str("none"), |p| Json::Int(p as u64)),
                        ),
                        ("rep", Json::Int(u64::from(s.rep))),
                    ]),
                ),
            ])
        });
        events.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_parent_links_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_rep(3);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("inner", |_| ());
        });
        let totals = tr.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["outer"].count, 1);
        let outer = totals["outer"];
        assert!(outer.total_secs >= totals["inner"].total_secs);
        assert!((outer.self_secs - (outer.total_secs - totals["inner"].total_secs)).abs() < 1e-12);
        assert!(tr.child_cover("outer") > 0.5);
        assert_eq!(tr.durations("inner").len(), 2);
        let json = Json::Arr(tr.chrome_events(1)).to_string();
        assert!(json.contains("\"parent\": 0") && json.contains("\"rep\": 3"));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.totals().is_empty());
        assert!(tr.durations("x").is_empty());
    }
}
