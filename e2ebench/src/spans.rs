//! In-memory span recorder for the traced replay.
//!
//! Every span has a name, a start and end (nanoseconds since the recorder
//! was created), a parent (the innermost span open on the same thread when
//! it started) and the job it belongs to (inherited from the parent). Spans
//! are only appended to memory while the replay runs; [`Recorder::take`]
//! hands them out once it is over, and [`self_times`] derives each span's
//! self time (its duration minus its children's).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: Option<u32>,
}

impl SpanRecord {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    /// The open spans of this thread, innermost last: `(span id, job)`.
    static OPEN: RefCell<Vec<(u32, Option<u32>)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in this thread's innermost open span (and
    /// belonging to the same job).
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.open(name, None)
    }

    /// Opens a span for job `job`; used for the root span of each job.
    pub fn job_span(&self, name: &'static str, job: u32) -> Span<'_> {
        self.open(name, Some(job))
    }

    fn open(&self, name: &'static str, job: Option<u32>) -> Span<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, inherited) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let top = open.last().copied();
            let job = job.or(top.and_then(|(_, j)| j));
            open.push((id, job));
            (top.map(|(p, _)| p), job)
        });
        Span {
            recorder: self,
            id,
            name,
            parent,
            job: inherited,
            start_ns: self.now_ns(),
        }
    }

    /// Removes and returns every finished span, ordered by start time.
    pub fn take(&self) -> Vec<SpanRecord> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; it is recorded when dropped.
pub struct Span<'a> {
    recorder: &'a Recorder,
    id: u32,
    name: &'static str,
    parent: Option<u32>,
    job: Option<u32>,
    start_ns: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            let popped = open.borrow_mut().pop();
            debug_assert_eq!(popped.map(|(id, _)| id), Some(self.id), "spans close LIFO");
        });
        self.recorder
            .spans
            .lock()
            .expect("span buffer")
            .push(SpanRecord {
                id: self.id,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                parent: self.parent,
                job: self.job,
            });
    }
}

/// Self time in seconds of every span, keyed by span id: the span's
/// duration minus the durations of its direct children.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u32, f64> {
    let mut child_s: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.seconds();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.seconds() - child_s.get(&s.id).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

/// Per-name totals: `(count, total seconds, self seconds)`.
pub fn totals_by_name(spans: &[SpanRecord]) -> Vec<(&'static str, u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, (u64, f64, f64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.seconds();
        e.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_jobs_and_self_time() {
        let rec = Recorder::new();
        {
            let _job = rec.job_span("job", 7);
            {
                let _a = rec.span("a");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _b = rec.span("b");
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(a.parent, Some(job.id));
        assert_eq!(a.job, Some(7));
        assert_eq!(job.parent, None);
        let selfs = self_times(&spans);
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(job.id))
            .map(|s| s.seconds())
            .sum();
        assert!((selfs[&job.id] - (job.seconds() - children)).abs() < 1e-12);
        assert!(rec.take().is_empty());
    }
}
