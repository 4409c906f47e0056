//! In-memory spans recorded by the benchmark around its calls into the
//! library's layers.
//!
//! A span has a name (`<layer>.<operation>`), a start and an end, the
//! span that was open when it started, and the request it belongs to.
//! Counts (`ands_in`, `conflicts`, ...) attach to the innermost open
//! span, so ratios are measured where the work happens. Nothing is
//! written while a run measures: [`Tracer::take`] hands the spans over
//! at the end.
//!
//! A disabled tracer records nothing; [`Tracer::span`] then only calls
//! the closure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`, or `request` / `setup` for the roots.
    pub name: &'static str,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Request the span belongs to (its sequence number in the run).
    pub request: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Counts recorded while this span was the innermost open one.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// Sum of the counts recorded under `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The layer a span belongs to: the part of its name before the
    /// first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder shared by the workload code (and the timing wrappers,
/// which the library may hold across threads — hence the mutex).
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer, recording when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Switches recording on or off (between requests only).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no thread panics while recording a span")
    }

    fn open(&self, name: &'static str, request: Option<usize>) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        let request = request.or_else(|| parent.and_then(|p| inner.spans[p].request));
        inner.spans.push(Span {
            name,
            parent,
            request,
            start,
            end: start,
            counts: Vec::new(),
        });
        let id = inner.spans.len() - 1;
        inner.open.push(id);
        id
    }

    fn recorded<R>(&self, name: &'static str, request: Option<usize>, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let _open = Open {
            tracer: self,
            id: self.open(name, request),
        };
        f()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.recorded(name, None, f)
    }

    /// Runs request number `seq` inside a root `request` span.
    pub fn request<R>(&self, seq: usize, f: impl FnOnce() -> R) -> R {
        self.recorded("request", Some(seq), f)
    }

    /// Adds `value` under `name` to the innermost open span.
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        if let Some(&id) = inner.open.last() {
            inner.spans[id].counts.push((name, value));
        }
    }

    /// Everything recorded so far; the tracer is left empty.
    pub fn take(&self) -> Vec<Span> {
        let mut inner = self.lock();
        debug_assert!(inner.open.is_empty(), "no span is open at the end");
        std::mem::take(&mut inner.spans)
    }
}

/// Closes its span when dropped, also while a panic unwinds through it.
struct Open<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.tracer.epoch.elapsed().as_secs_f64();
        // A poisoned lock means a span was being recorded when a panic
        // struck; there is nothing left to close consistently.
        if let Ok(mut inner) = self.tracer.inner.lock() {
            inner.spans[self.id].end = end;
            // Spans nest, so this span is the innermost open one.
            inner.open.pop();
        }
    }
}

/// Self time of every span: its wall time minus the time its direct
/// children cover. Children of one span never overlap (the benchmark
/// calls layers one after the other on one thread).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_requests() {
        let t = Tracer::new(true);
        t.request(7, || {
            t.span("aig.rewrite", || t.count("ands_in", 10.0));
            t.span("sat.cec", || ());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == Some(7)));
        assert_eq!(spans[1].count("ands_in"), 10.0);
        assert_eq!(spans[1].layer(), "aig");
        let own = self_times(&spans);
        let children = spans[1].secs() + spans[2].secs();
        assert!((own[0] - (spans[0].secs() - children)).abs() < 1e-12);
    }

    #[test]
    fn a_panic_closes_the_spans_it_unwinds_through() {
        let t = Tracer::new(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.request(0, || t.span("attacks.sat", || panic!("solver bug")))
        }));
        assert!(caught.is_err());
        t.span("sat.cec", || ());
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, None, "the stack was unwound");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.request(0, || t.span("aig.balance", || 5));
        t.count("x", 1.0);
        assert_eq!(v, 5);
        assert!(t.take().is_empty());
    }
}
