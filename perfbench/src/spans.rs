//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the recorder's origin),
//! the span that caused it and the job it belongs to. Spans stay in
//! memory while the workload runs and are written out once at the end,
//! so recording them costs a clock read and a `Vec` push per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `netsim.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The job this span belongs to (0 for run-level spans).
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, job);
        let r = f();
        (r, self.close(id))
    }

    /// Every span named `name` (closed ones only).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns != 0)
    }

    /// Durations (s) of the spans named `name` whose parent is `parent`.
    pub fn durations_under(&self, name: &str, parent: SpanId) -> Vec<f64> {
        self.named(name)
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .collect()
    }

    /// Summed duration (s) of the spans named `name` under `parent`.
    pub fn total_under(&self, name: &str, parent: SpanId) -> f64 {
        self.durations_under(name, parent).iter().sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut spans = Spans::new();
        let root = spans.open("pass", None, 0);
        for job in 1..=3 {
            let ((), d) = spans.time("job", Some(root), job, || {
                std::hint::black_box((0..10_000u64).sum::<u64>());
            });
            assert!(d >= 0.0);
        }
        spans.close(root);
        assert_eq!(spans.durations_under("job", root).len(), 3);
        let total = spans.total_under("job", root);
        let outer = spans.named("pass").next().expect("closed").secs();
        assert!(total <= outer, "children {total} inside parent {outer}");
        let jsonl = spans.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"parent\":0"));
    }
}
