//! Timing wrappers the benchmark puts between the library and the two
//! callbacks it calls back into: the search objective and the oracle.
//! Both forward every call unchanged, so results are identical to the
//! bare objects (the crate's tests check this).

use crate::trace::Tracer;
use almost_aig::Aig;
use almost_core::{Score, SearchObjective};
use almost_locking::{BatchOracle, Oracle};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`SearchObjective`] that records every batch it scores as an
/// `almost.search.score` span.
pub struct TimedObjective<'a> {
    inner: &'a dyn SearchObjective,
    tracer: &'a Tracer,
}

impl<'a> TimedObjective<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn SearchObjective, tracer: &'a Tracer) -> Self {
        TimedObjective { inner, tracer }
    }
}

impl SearchObjective for TimedObjective<'_> {
    fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score> {
        self.tracer.span("almost.search.score", || {
            self.tracer.count("candidates", candidates.len() as f64);
            self.inner.score_batch(candidates)
        })
    }
}

/// A [`BatchOracle`] that counts the patterns it serves and the time it
/// takes. Per-query spans would cost more than a query, so the totals
/// are read once per attack instead.
pub struct TimedOracle<'a> {
    inner: &'a dyn BatchOracle,
    nanos: Cell<u64>,
    patterns: Cell<usize>,
}

impl<'a> TimedOracle<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn BatchOracle) -> Self {
        TimedOracle {
            inner,
            nanos: Cell::new(0),
            patterns: Cell::new(0),
        }
    }

    /// Total time spent answering queries.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.get())
    }

    /// Patterns answered through this wrapper.
    pub fn patterns(&self) -> usize {
        self.patterns.get()
    }

    fn timed<R>(&self, patterns: usize, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.patterns.set(self.patterns.get() + patterns);
        out
    }
}

impl Oracle for TimedOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, pattern: &[bool]) -> Vec<bool> {
        self.timed(1, || self.inner.query(pattern))
    }

    fn queries_served(&self) -> usize {
        self.inner.queries_served()
    }
}

impl BatchOracle for TimedOracle<'_> {
    fn query_batch(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.timed(patterns.len(), || self.inner.query_batch(patterns))
    }

    fn query_words(&self, input_words: &[Vec<u64>], num_words: usize) -> Vec<Vec<u64>> {
        self.timed(num_words * 64, || {
            self.inner.query_words(input_words, num_words)
        })
    }
}
