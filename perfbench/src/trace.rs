//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's code around calls into the crates
//! under test, never inside them. Each span has a name, a start, an end, a
//! parent and the id of the request it belongs to. Spans stay in memory
//! and are written as JSONL when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer, starting at 1.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, such as `core.epgnn`.
    pub name: &'static str,
    /// Id shared by every span of one request (0 outside requests).
    pub req: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cheap-to-clone handle on one run's span store, or a no-op.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer({})", if self.0.is_some() { "on" } else { "off" })
    }
}

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self(Some(Arc::new(Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self(None)
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span whose parent and request are those of the innermost
    /// span open on this thread. The span closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard {
        let (parent, req) = OPEN.with(|open| {
            open.borrow()
                .last()
                .map_or((None, 0), |&(id, req)| (Some(id), req))
        });
        self.open(name, parent, req)
    }

    /// Records an already-finished interval, such as a query timed from
    /// its scheduled send. Returns the new span's id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let Some(inner) = &self.0 else { return 0 };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: inner.since_epoch(start),
            end_ns: inner.since_epoch(end),
        });
        id
    }

    fn open(&self, name: &'static str, parent: Option<u64>, req: u64) -> Guard {
        let Some(inner) = &self.0 else {
            return Guard(None);
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push((id, req)));
        Guard(Some(OpenSpan {
            inner: inner.clone(),
            id,
            parent,
            name,
            req,
            start: Instant::now(),
        }))
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.spans.lock().expect("span store lock").clone()
        })
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Inner {
    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }
}

struct OpenSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: u64,
    start: Instant,
}

/// Closes its span on drop.
pub struct Guard(Option<OpenSpan>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = Instant::now();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == open.id) {
                stack.remove(pos);
            }
        });
        open.inner.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            start_ns: open.inner.since_epoch(open.start),
            end_ns: open.inner.since_epoch(end),
        });
    }
}

/// Inclusive and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Account {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children. Children that overlap each other (work on
/// several threads under one parent) are counted once, and any part of a
/// child outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name accounts over `spans`.
pub fn accounts(spans: &[Span]) -> BTreeMap<&'static str, Account> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Account> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        let spans = [
            span(1, None, "a", 0, 100),
            span(2, Some(1), "b", 10, 40),
            span(3, Some(2), "c", 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 70);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 10);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(1, None, "batch", 0, 100),
            span(2, Some(1), "worker", 10, 60),
            span(3, Some(1), "worker", 30, 80),
            span(4, Some(1), "worker", 30, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30, "union of [10,80) covers 70 of 100");
        let acc = accounts(&spans);
        assert_eq!(acc["worker"].count, 3);
        assert_eq!(acc["worker"].total_ns, 50 + 50 + 10);
        assert_eq!(acc["worker"].self_ns, 110);
        assert_eq!(acc["batch"].self_ns, 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, None, "a", 50, 100),
            span(2, Some(1), "b", 0, 60),
            span(3, Some(1), "b", 90, 200),
            span(4, Some(1), "b", 200, 300),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn disjoint_children_and_a_leaf() {
        let spans = [
            span(1, None, "a", 0, 100),
            span(2, Some(1), "b", 0, 10),
            span(3, Some(1), "b", 90, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 80);
        assert_eq!(selfs[&2], 10);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        let tr = Tracer::on();
        {
            let _root = tr.span("probe");
            let _inner = tr.span("core.epgnn");
        }
        {
            let _after = tr.span("next");
        }
        let spans = tr.spans();
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, inner, next) = (find("probe"), find("core.epgnn"), find("next"));
        assert_eq!(inner.parent, Some(root.id));
        assert!(root.start_ns <= inner.start_ns && inner.end_ns <= root.end_ns);
        assert_eq!(next.parent, None, "closed spans leave the thread's stack");
    }

    #[test]
    fn recorded_spans_keep_their_request_and_parent() {
        let tr = Tracer::on();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_millis(3);
        let root = tr.record("query", None, 9, t0, t1);
        tr.record("wire.roundtrip", Some(root), 9, t0, t1);
        let spans = tr.spans();
        assert!(spans.iter().all(|s| s.req == 9));
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(self_times(&spans)[&root], 0);
        assert_eq!(spans[0].dur_ns(), 3_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        {
            let _g = tr.span("x");
        }
        assert!(tr.spans().is_empty());
        assert_eq!(tr.record("y", None, 1, Instant::now(), Instant::now()), 0);
    }
}
