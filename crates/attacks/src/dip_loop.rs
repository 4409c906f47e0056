//! The DIP loop shared by the SAT attack, AppSAT and Double DIP.
//!
//! [`DipLoop`] owns a [`KeyMiter`] of either shape and the oracle it
//! queries. It runs the query → constrain → log step, keeps the attack's
//! own oracle-query ledger, and on [`DipLoop::finish`] reconciles that
//! ledger and the iteration log against the oracle's served count.

use crate::report::{dip_log_consistent, DipIteration};
use almost_locking::BatchOracle;
use almost_sat::miter::{DipSearch, KeyMiter};

/// Why [`DipLoop::iterate`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DipExit {
    /// The miter proved that no further DIP exists.
    Settled,
    /// A query ran out of conflicts, or the miter holds its DIP budget of
    /// I/O constraints.
    OutOfBudget,
    /// The iteration log reached its hard cap.
    IterationCap,
}

/// One attack run's DIP-loop state.
pub(crate) struct DipLoop<'o> {
    pub(crate) miter: KeyMiter,
    oracle: &'o dyn BatchOracle,
    /// The oracle may have served other runs; report this run's delta.
    queries_at_start: usize,
    /// The attack's own oracle-query ledger.
    queries_issued: usize,
    iterations: Vec<DipIteration>,
}

impl<'o> DipLoop<'o> {
    /// Starts a loop over `miter`.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's arity differs from the miter's functional
    /// inputs.
    pub(crate) fn new(miter: KeyMiter, oracle: &'o dyn BatchOracle) -> Self {
        assert_eq!(
            miter.num_data_inputs(),
            oracle.num_inputs(),
            "oracle arity must match the locked circuit's functional inputs"
        );
        DipLoop {
            miter,
            oracle,
            queries_at_start: oracle.queries_served(),
            queries_issued: 0,
            iterations: Vec::new(),
        }
    }

    /// Finds, queries and constrains DIPs until the miter settles, a query
    /// exhausts `conflict_budget`, the miter holds `dip_budget` I/O
    /// constraints, or the log holds `max_iterations` entries.
    pub(crate) fn iterate(
        &mut self,
        max_iterations: usize,
        dip_budget: usize,
        conflict_budget: Option<u64>,
    ) -> DipExit {
        loop {
            if self.iterations.len() >= max_iterations {
                return DipExit::IterationCap;
            }
            if self.miter.num_constraints() >= dip_budget {
                return DipExit::OutOfBudget;
            }
            match self.miter.find_dip(conflict_budget) {
                DipSearch::Found(x) => {
                    let y = self.oracle.query(&x);
                    self.queries_issued += 1;
                    self.miter.constrain_io(&x, &y);
                    self.log(None);
                }
                DipSearch::Settled => return DipExit::Settled,
                DipSearch::OutOfBudget => return DipExit::OutOfBudget,
            }
        }
    }

    /// Answers a batch of validation queries, counted in the ledger.
    pub(crate) fn query_batch(&mut self, xs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.queries_issued += xs.len();
        self.oracle.query_batch(xs)
    }

    /// Logs an iteration at the current cumulative counts;
    /// `settlement_mismatches` is `Some` for a settlement round.
    pub(crate) fn log(&mut self, settlement_mismatches: Option<usize>) {
        self.iterations.push(DipIteration {
            dip_count: self.miter.num_constraints(),
            conflicts: self.miter.solver_stats().conflicts,
            oracle_queries: self.queries_issued,
            settlement_mismatches,
        });
    }

    /// Oracle queries this run consumed, by the oracle's count.
    pub(crate) fn oracle_queries(&self) -> usize {
        self.oracle.queries_served() - self.queries_at_start
    }

    /// Closes the loop and returns its iteration log, after checking (in
    /// debug builds) that the ledger matches the oracle's served count and
    /// the log reconciles with it.
    pub(crate) fn finish(self) -> Vec<DipIteration> {
        let served = self.oracle_queries();
        debug_assert_eq!(
            self.queries_issued, served,
            "attack ledger must match the oracle's served count"
        );
        debug_assert!(
            dip_log_consistent(&self.iterations, served),
            "DIP log reconciliation"
        );
        self.iterations
    }
}
