//! The oracle-guided SAT attack [Subramanyan et al., HOST'15] and its
//! AppSAT-style approximate variant.
//!
//! The attack repeatedly asks a key-conditioned miter
//! ([`almost_sat::KeyMiter`]) for a *distinguishing input pattern* — an
//! input on which two candidate keys disagree — queries the activated-IC
//! oracle for the correct output, and constrains both key copies to agree
//! with it. When no DIP remains, every key consistent with the collected
//! I/O pairs is functionally correct and one is decoded from the solver.
//!
//! This is the strongest classical baseline the locking literature measures
//! against: it defeats RLL outright (which is why the ALMOST paper's threat
//! model retreats to oracle-*less* attackers). Reproducing it lets the
//! workspace show both columns of the security picture — ML attacks pushed
//! to ~50% by synthesis tuning, SAT attack still recovering the exact key
//! whenever an oracle exists.
//!
//! The approximate mode trades the exactness proof for bounded effort, in
//! the spirit of AppSAT [Shamsi et al., HOST'17]: iteration and
//! per-query conflict budgets cap the solver work, and when a budget
//! trips, the current candidate key is *settled* and validated against
//! random oracle queries; disagreements are fed back as ordinary I/O
//! constraints. Every iteration is recorded, so reports can show the DIP
//! count trajectory.

use crate::report::{
    dip_log_consistent, score_oracle_run, AttackTarget, DipIteration, OracleAttackOutcome,
    OracleGuidedAttack,
};
use almost_aig::CompiledAig;
use almost_locking::BatchOracle;
use almost_sat::miter::{DipSearch, KeyMiter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Cap on counterexample constraints added per settlement round; each one
/// encodes two key-conditioned circuit residues into the solver.
const MAX_SETTLEMENT_CONSTRAINTS: usize = 8;

/// Effort limits for [`SatAttack`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatAttackMode {
    /// Run the DIP loop to UNSAT: the recovered key is provably correct.
    Exact,
    /// AppSAT-style approximation with explicit budgets.
    Approximate {
        /// Maximum DIP iterations before forcing settlement.
        iteration_budget: usize,
        /// Conflict budget per DIP query; an exhausted query triggers
        /// settlement instead of an exactness proof.
        conflict_budget: u64,
        /// Random oracle queries used to validate each settled candidate.
        settlement_queries: usize,
        /// Maximum settle-validate-refine rounds before accepting the
        /// candidate key as the approximate answer.
        settlement_rounds: usize,
    },
}

/// Configuration of the SAT attack.
#[derive(Clone, Copy, Debug)]
pub struct SatAttackConfig {
    /// Exact or approximate operation.
    pub mode: SatAttackMode,
    /// Hard safety cap on DIP iterations (guards against a buggy oracle
    /// feeding inconsistent answers forever).
    pub max_iterations: usize,
    /// Seed for the random validation queries of the approximate mode.
    pub seed: u64,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        SatAttackConfig {
            mode: SatAttackMode::Exact,
            max_iterations: 100_000,
            seed: 0x5A7,
        }
    }
}

impl SatAttackConfig {
    /// A reasonable approximate-mode preset: up to `iterations` DIPs,
    /// `conflicts` conflicts per query, 64 validation queries, 4 rounds.
    pub fn approximate(iterations: usize, conflicts: u64) -> Self {
        SatAttackConfig {
            mode: SatAttackMode::Approximate {
                iteration_budget: iterations,
                conflict_budget: conflicts,
                settlement_queries: 64,
                settlement_rounds: 4,
            },
            ..SatAttackConfig::default()
        }
    }
}

/// The oracle-guided SAT attack engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatAttack {
    config: SatAttackConfig,
}

impl SatAttack {
    /// An attack with the given configuration.
    pub fn new(config: SatAttackConfig) -> Self {
        SatAttack { config }
    }

    /// An exact attack (runs to the UNSAT proof).
    pub fn exact() -> Self {
        SatAttack::default()
    }

    /// Runs the DIP loop against `locked` (an AIG with key inputs at
    /// positions `key_start .. key_start + key_len`) using `oracle`.
    ///
    /// This is the engine entry point used by both the
    /// [`OracleGuidedAttack`] impl and direct callers (benches, examples).
    pub fn run(
        &self,
        locked: &almost_aig::Aig,
        key_start: usize,
        key_len: usize,
        oracle: &dyn BatchOracle,
    ) -> SatAttackRun {
        let started = Instant::now();
        let _span = almost_telemetry::span(almost_telemetry::Scope::Attack, || {
            format!("sat_attack k={key_len}")
        });
        // The oracle may have served other runs; report this run's delta.
        let queries_at_start = oracle.queries_served();
        let mut miter = KeyMiter::new(locked, key_start, key_len);
        assert_eq!(
            miter.num_data_inputs(),
            oracle.num_inputs(),
            "oracle arity must match the locked circuit's functional inputs"
        );
        let mut iterations: Vec<DipIteration> = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut settlement_rounds_used = 0usize;
        let mut proved_exact = false;
        let mut settled_candidate: Option<Vec<bool>> = None;
        // The attack's own oracle-query ledger; reconciled against the
        // oracle's served count before returning so per-iteration
        // accounting can never drift from the reported totals.
        let mut queries_issued = 0usize;

        let (conflict_budget, iteration_budget) = match self.config.mode {
            SatAttackMode::Exact => (None, usize::MAX),
            SatAttackMode::Approximate {
                iteration_budget,
                conflict_budget,
                ..
            } => (Some(conflict_budget), iteration_budget),
        };

        'outer: loop {
            if iterations.len() >= self.config.max_iterations {
                break;
            }
            let over_iteration_budget = miter.num_constraints() >= iteration_budget;
            let search = if over_iteration_budget {
                DipSearch::OutOfBudget
            } else {
                miter.find_dip(conflict_budget)
            };
            match search {
                DipSearch::Found(x) => {
                    let y = oracle.query(&x);
                    queries_issued += 1;
                    miter.constrain_io(&x, &y);
                    iterations.push(DipIteration {
                        dip_count: miter.num_constraints(),
                        conflicts: miter.solver_stats().conflicts,
                        oracle_queries: queries_issued,
                        settlement_mismatches: None,
                    });
                }
                DipSearch::Settled => {
                    proved_exact = true;
                    break;
                }
                DipSearch::OutOfBudget => {
                    // Approximate mode: settle a candidate and validate it
                    // with random queries; disagreements become ordinary
                    // I/O constraints.
                    let (queries, rounds) = match self.config.mode {
                        SatAttackMode::Approximate {
                            settlement_queries,
                            settlement_rounds,
                            ..
                        } => (settlement_queries, settlement_rounds),
                        SatAttackMode::Exact => {
                            unreachable!("exact mode never runs out of budget")
                        }
                    };
                    settlement_rounds_used += 1;
                    let candidate = match miter.settle_key() {
                        Some(k) => k,
                        None => break, // inconsistent oracle; report as-is
                    };
                    // Validate with one batched round of random queries —
                    // the oracle's batch path answers all of them in a
                    // handful of word-level sweeps — but cap the number of
                    // counterexamples re-encoded as constraints: each one
                    // adds two circuit residues to the solver, and an
                    // unbounded round can bury it (a half-wrong key fails
                    // ~half of all queries).
                    let xs: Vec<Vec<bool>> = (0..queries)
                        .map(|_| {
                            (0..miter.num_data_inputs())
                                .map(|_| rng.random::<bool>())
                                .collect()
                        })
                        .collect();
                    let ys = oracle.query_batch(&xs);
                    queries_issued += xs.len();
                    let got = eval_with_key_batch(locked, key_start, &candidate, &xs);
                    let mut mismatches = 0usize;
                    for ((x, y), g) in xs.iter().zip(&ys).zip(&got) {
                        if g != y {
                            mismatches += 1;
                            miter.constrain_io(x, y);
                            if mismatches >= MAX_SETTLEMENT_CONSTRAINTS {
                                break;
                            }
                        }
                    }
                    iterations.push(DipIteration {
                        dip_count: miter.num_constraints(),
                        conflicts: miter.solver_stats().conflicts,
                        oracle_queries: queries_issued,
                        settlement_mismatches: Some(mismatches),
                    });
                    if mismatches == 0 {
                        settled_candidate = Some(candidate);
                        break 'outer;
                    }
                    if settlement_rounds_used >= rounds {
                        break 'outer;
                    }
                }
            }
        }

        // A candidate that survived validation is the answer; otherwise
        // settle once against everything learnt so far.
        let recovered = settled_candidate
            .or_else(|| miter.settle_key())
            .unwrap_or_else(|| vec![false; key_len]);
        let run = SatAttackRun {
            recovered,
            proved_exact,
            iterations,
            oracle_queries: oracle.queries_served() - queries_at_start,
            runtime: started.elapsed(),
            solver: miter.solver_stats(),
            portfolio: miter.portfolio_stats(),
        };
        debug_assert_eq!(
            queries_issued, run.oracle_queries,
            "attack ledger must match the oracle's served count"
        );
        debug_assert!(run.accounting_consistent(), "DIP log reconciliation");
        run
    }
}

/// Raw result of [`SatAttack::run`] (unscored; no ground truth needed).
#[derive(Clone, Debug)]
pub struct SatAttackRun {
    /// The recovered key bits.
    pub recovered: Vec<bool>,
    /// True when the miter was proved UNSAT (exact recovery).
    pub proved_exact: bool,
    /// Per-iteration DIP log.
    pub iterations: Vec<DipIteration>,
    /// Oracle queries consumed.
    pub oracle_queries: usize,
    /// Wall-clock duration.
    pub runtime: std::time::Duration,
    /// Cumulative solver-effort counters of the attack's miter.
    pub solver: almost_sat::SolverStats,
    /// Portfolio racing counters (width 1 ⇒ zero races: the pinned
    /// serial reference ran). Telemetry-only — the CSV schema is
    /// unchanged so deterministic runs stay byte-identical.
    pub portfolio: almost_sat::PortfolioStats,
}

impl SatAttackRun {
    /// True when the per-iteration DIP log reconciles with the reported
    /// oracle query count — in *every* mode: an exact run has exactly one
    /// query per logged DIP iteration, an AppSAT run additionally
    /// reconciles each settlement round's validation queries and re-encoded
    /// mismatches (see [`dip_log_consistent`]).
    pub fn accounting_consistent(&self) -> bool {
        dip_log_consistent(&self.iterations, self.oracle_queries)
    }
}

/// Splices a candidate key into a functional input pattern at the locked
/// circuit's key-input offset.
fn splice_key(key_start: usize, key: &[bool], inputs: &[bool]) -> Vec<bool> {
    let mut full = Vec::with_capacity(inputs.len() + key.len());
    full.extend_from_slice(&inputs[..key_start]);
    full.extend_from_slice(key);
    full.extend_from_slice(&inputs[key_start..]);
    full
}

/// Evaluates the locked circuit under a candidate key on a batch of input
/// patterns: compiles the locked netlist once and runs every spliced
/// pattern through the word-level backend.
fn eval_with_key_batch(
    locked: &almost_aig::Aig,
    key_start: usize,
    key: &[bool],
    inputs: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let full: Vec<Vec<bool>> = inputs
        .iter()
        .map(|x| splice_key(key_start, key, x))
        .collect();
    CompiledAig::compile(locked).eval_batch(&full)
}

impl OracleGuidedAttack for SatAttack {
    fn name(&self) -> &'static str {
        match self.config.mode {
            SatAttackMode::Exact => "SAT",
            SatAttackMode::Approximate { .. } => "AppSAT",
        }
    }

    fn attack_with_oracle(
        &self,
        target: &AttackTarget,
        oracle: &dyn BatchOracle,
    ) -> OracleAttackOutcome {
        let locked = &target.deployed;
        let key_start = target.locked.key_input_start;
        let key_len = target.locked.key_size();
        let run = self.run(locked, key_start, key_len, oracle);
        score_oracle_run(
            self.name().to_string(),
            target,
            run.recovered,
            run.proved_exact,
            run.iterations,
            run.oracle_queries,
            run.runtime,
            run.solver,
            self.config.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{locked_oracle, locked_target};
    use almost_aig::Script;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{Oracle, Rll};
    use almost_sat::{check_equivalence, Equivalence};

    #[test]
    fn exact_attack_recovers_a_functionally_correct_key() {
        let (locked, oracle) = locked_oracle(&IscasBenchmark::C432.build(), &Rll::new(12), 1);
        let run = SatAttack::exact().run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        assert!(run.proved_exact, "exact mode must reach the UNSAT proof");
        let unlocked =
            almost_locking::apply_key(&locked.aig, locked.key_input_start, &run.recovered);
        assert_eq!(
            check_equivalence(oracle.design(), &unlocked),
            Equivalence::Equivalent,
            "recovered key must unlock the design"
        );
        assert!(run.oracle_queries >= run.iterations.len());
    }

    #[test]
    fn attack_works_through_the_trait_and_synthesis() {
        let (target, oracle) = locked_target(
            &IscasBenchmark::C432.build(),
            &Rll::new(10),
            Script::resyn2(),
            2,
        );
        let outcome = SatAttack::exact().attack_with_oracle(&target, &oracle);
        assert!(outcome.proved_exact);
        assert!(
            outcome.functionally_correct,
            "SAT attack defeats RLL even after synthesis"
        );
        assert!(!outcome.iterations.is_empty() || outcome.proved_exact);
    }

    #[test]
    fn approximate_mode_reports_per_iteration_dip_counts() {
        let (target, oracle) = locked_target(
            &IscasBenchmark::C432.build(),
            &Rll::new(12),
            Script::resyn2(),
            3,
        );
        let attack = SatAttack::new(SatAttackConfig::approximate(3, 50));
        let outcome = attack.attack_with_oracle(&target, &oracle);
        assert_eq!(outcome.attack, "AppSAT");
        let counts = outcome.dip_counts();
        assert!(!counts.is_empty(), "iteration log must not be empty");
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "DIP counts are cumulative"
        );
        // Settlement entries carry a mismatch count.
        assert!(
            outcome
                .iterations
                .iter()
                .any(|it| it.settlement_mismatches.is_some())
                || outcome.proved_exact,
            "a budgeted run either settles or finishes exactly"
        );
    }

    #[test]
    fn iteration_accounting_reconciles_in_exact_mode() {
        let (locked, oracle) = locked_oracle(&IscasBenchmark::C432.build(), &Rll::new(10), 5);
        let run = SatAttack::exact().run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        assert!(run.accounting_consistent());
        // Exact mode issues exactly one oracle query per logged iteration.
        assert_eq!(run.oracle_queries, run.iterations.len());
        assert_eq!(run.oracle_queries, oracle.queries_served());
        // A drifted log must be rejected (this is the regression the
        // audit exists to catch: a query issued but not logged).
        if let Some(mut drifted) = Some(run.clone()) {
            drifted.oracle_queries += 1;
            assert!(!drifted.accounting_consistent());
        }
    }

    #[test]
    fn iteration_accounting_reconciles_in_approximate_mode() {
        let (locked, oracle) = locked_oracle(&IscasBenchmark::C432.build(), &Rll::new(12), 6);
        let attack = SatAttack::new(SatAttackConfig::approximate(3, 50));
        let run = attack.run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        assert!(run.accounting_consistent());
        assert_eq!(run.oracle_queries, oracle.queries_served());
        // Settlement rounds issue validation queries beyond the DIP count;
        // the per-iteration cumulative column must absorb all of them.
        let logged = run.iterations.last().map_or(0, |it| it.oracle_queries);
        assert_eq!(logged, run.oracle_queries);
        // And the DIP ledger itself: one per DIP iteration plus exactly
        // the re-encoded mismatches of each settlement round.
        let expected_dips: usize = run
            .iterations
            .iter()
            .map(|it| it.settlement_mismatches.unwrap_or(1))
            .sum();
        assert_eq!(
            run.iterations.last().map_or(0, |it| it.dip_count),
            expected_dips
        );
    }

    #[test]
    fn eval_with_key_splices_at_the_key_offset() {
        let locked = crate::testutil::lock_with(&IscasBenchmark::C432.build(), &Rll::new(4), 4);
        let inputs = vec![true; locked.aig.num_inputs() - 4];
        let full = eval_with_key_batch(
            &locked.aig,
            locked.key_input_start,
            locked.key.bits(),
            std::slice::from_ref(&inputs),
        );
        let mut expect = inputs.clone();
        // Keys occupy positions key_input_start.. in the locked circuit.
        for (offset, &bit) in locked.key.bits().iter().enumerate() {
            expect.insert(locked.key_input_start + offset, bit);
        }
        let direct = locked.aig.eval(&expect);
        assert_eq!(full, vec![direct]);
    }
}
