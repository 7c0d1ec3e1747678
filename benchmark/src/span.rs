//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public functions — name, start, end, the span that caused
//! it, and a trace id (the batch index) shared by all spans of one
//! batch. Spans stay in memory and are written out once, at exit.
//! Nothing here is compiled into the engine: spans inside the program
//! are a later change.

use crate::json::Json;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Shared by every span of one batch (the batch index).
    pub trace: u64,
}

impl Span {
    /// `end − start`, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn start() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &str, trace: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trace,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and anything still open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an interval measured by the caller as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &str, trace: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            trace,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.named(name).map(Span::duration_ns).sum();
        ns as f64 / 1e9
    }

    /// Per-span durations of the spans called `name`, in milliseconds.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Σ self time of the spans called `name`, in seconds: each
    /// span's duration minus the part of it its child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum();
        ns as f64 / 1e9
    }

    /// The span file: one array of `{name, start_ns, end_ns, parent,
    /// trace}` objects, `parent` being an index into the same array.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("trace", Json::Num(s.trace as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// [`Tracer::enter`] when a tracer is attached.
pub fn enter(tracer: &mut Option<&mut Tracer>, name: &str, trace: u64) -> Option<usize> {
    tracer.as_mut().map(|t| t.enter(name, trace))
}

/// [`Tracer::exit`] of what [`enter`] opened.
pub fn exit(tracer: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.exit(id);
    }
}

/// Runs `f`, returning its result and its wall time; with a tracer
/// attached the same interval is also recorded as span `name`.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    trace: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(name, trace, start, end);
    }
    (out, end.duration_since(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            trace: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("batch", 0, 100, None),
                span("apply", 10, 60, Some(0)),
                span("merge", 20, 45, Some(1)),
                span("query", 70, 90, Some(0)),
                span("batch", 100, 130, None),
            ],
            open: Vec::new(),
        };
        // batch#0: 100 − (50 + 20); batch#4: 30, no children.
        assert_eq!(t.self_s("batch"), 60e-9);
        // apply: 50 − 25; grandchildren are charged to their parent
        // only, never twice.
        assert_eq!(t.self_s("apply"), 25e-9);
        assert_eq!(t.self_s("merge"), 25e-9);
        assert_eq!(t.total_s("batch"), 130e-9);
        assert_eq!(t.each_ms("query"), vec![20e-6]);
    }

    #[test]
    fn enter_exit_nest_and_record_attaches_to_the_open_span() {
        let mut t = Tracer::start();
        let root = t.enter("batch", 7);
        let (value, _) = timed(&mut Some(&mut t), "apply", 7, || 41 + 1);
        assert_eq!(value, 42);
        let inner = t.enter("query", 7);
        t.exit(inner);
        t.exit(root);
        let (_, d) = timed(&mut None, "untraced", 0, || ());
        assert!(d < Duration::from_secs(1));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 7));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(t.self_s("batch") <= t.total_s("batch"));
    }

    #[test]
    fn span_file_round_trips_through_the_json_reader() {
        let mut t = Tracer::start();
        let root = t.enter("batch", 3);
        t.exit(root);
        let parsed = Json::parse(&t.to_json().render()).expect("valid JSON");
        let first = &parsed.as_arr().expect("array")[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("batch"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(first.get("trace").and_then(Json::as_f64), Some(3.0));
    }
}
