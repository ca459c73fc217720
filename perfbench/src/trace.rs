//! In-memory spans recorded around the harness's calls into each layer,
//! and the self-time arithmetic over them.
//!
//! Spans are kept per task while the traced run executes and merged at
//! the end, so recording never takes a lock. Nothing here reaches into
//! the program: a span covers one call the harness makes.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its trace.
    pub id: usize,
    /// The span this one was opened inside, if any.
    pub parent: Option<usize>,
    /// Scenario (or simulation point) index; `None` for run-level spans.
    pub scenario: Option<usize>,
    /// Ordinal of the thread that ran the span.
    pub worker: usize,
    /// What was called; the part before the first `.` names the layer.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span's call belongs to (`map` for `map.pbb`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small ordinal for the calling thread, assigned on first use.
fn worker_ordinal() -> usize {
    WORKER.with(|w| match w.get() {
        Some(id) => id,
        None => {
            let id = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
            w.set(Some(id));
            id
        }
    })
}

/// Records the spans of one task (one scenario, or one run-level step).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    scenario: Option<usize>,
    worker: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, scenario: Option<usize>) -> Self {
        Self { origin, scenario, worker: worker_ordinal(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            scenario: self.scenario,
            worker: self.worker,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, ids local to this tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-task span lists into one trace, renumbering ids (and
/// parents) so they index the result, and workers so they count from 0
/// in order of first appearance.
pub fn merge(tasks: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    let mut workers: Vec<usize> = Vec::new();
    for task in tasks {
        let offset = out.len();
        for mut span in task {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            span.worker = match workers.iter().position(|&w| w == span.worker) {
                Some(i) => i,
                None => {
                    workers.push(span.worker);
                    workers.len() - 1
                }
            };
            out.push(span);
        }
    }
    out
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its direct children's intervals (clipped to the span), so
/// overlapping children are not subtracted twice.
///
/// # Panics
///
/// Panics if a parent id does not index `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// The trace as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"scenario\":{},\"worker\":{},\"name\":\"{}\",\
\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.scenario),
            s.worker,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, scenario: Some(0), worker: 0, name: "x", start_ns, end_ns }
    }

    #[test]
    fn nested_children_count_once_at_each_level() {
        // 0 [0,100) > 1 [10,60) > 2 [20,40)
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 60), span(2, Some(1), 20, 40)];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_unioned() {
        // Children [10,50) and [30,70) cover [10,70): 60 of 100.
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 50), span(2, Some(0), 30, 70)];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in another adds nothing.
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 90), span(2, Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn adjacent_children_cover_their_joint_interval() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 50, 100), span(2, Some(0), 0, 50)];
        assert_eq!(self_times(&spans), vec![0, 50, 50]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 0, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_merge_renumbers() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, Some(3));
        let v = t.span("scenario", |t| t.span("map.nmap", |_| 7));
        assert_eq!(v, 7);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        assert_eq!(a[1].layer(), "map");
        assert!(a[0].start_ns <= a[1].start_ns && a[1].end_ns <= a[0].end_ns);
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].id, 3);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[3].worker, 0);
        let line = to_jsonl(&merged[..1]);
        assert!(line.starts_with("{\"id\":0,\"parent\":null,\"scenario\":3,\"worker\":0"));
    }
}
