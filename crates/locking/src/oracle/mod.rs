//! The activated-IC oracle of the oracle-guided threat model.
//!
//! Oracle-guided attacks (the SAT attack family) assume the attacker holds
//! a working, *activated* chip: a black box that maps functional inputs to
//! correct outputs, with the key baked in and invisible. [`Oracle`] models
//! that box; [`CircuitOracle`] is the standard instantiation — the locked
//! design specialised under the correct key via [`apply_key`], i.e. the
//! original function. Query counting is built in because oracle access is
//! the scarce resource the attack literature reports.
//!
//! ## Backends
//!
//! - [`CircuitOracle`] is the production backend: it lowers the design
//!   once through [`almost_aig::compile::CompiledAig`] into a flat
//!   instruction buffer and serves 64 patterns per `u64` word.
//!   Compilation cannot fail, so there is no fallback path.
//! - [`InterpretedOracle`] walks the [`Aig`] node vector per pattern via
//!   [`Aig::eval`] — slow, obviously correct, the differential reference
//!   `tests/oracle_parity.rs` pins the compiled backend against.
//!
//! [`BatchOracle`] extends [`Oracle`] with the batch and word-level
//! entry points; both backends implement it with identical
//! query-counter semantics, so reported query budgets stay comparable
//! across backends.

mod interpreted;

pub use interpreted::InterpretedOracle;

use crate::scheme::LockedCircuit;
use crate::specialize::apply_key;
use almost_aig::compile::{pack_patterns, unpack_output_words, CompiledAig};
use almost_aig::{Aig, CompileStats};
use std::cell::{Cell, RefCell};

/// A black-box activated chip: functional inputs in, correct outputs out.
pub trait Oracle {
    /// Number of functional inputs (key inputs do not exist here).
    fn num_inputs(&self) -> usize;

    /// Number of outputs.
    fn num_outputs(&self) -> usize;

    /// Evaluates the chip on one input pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != self.num_inputs()`.
    fn query(&self, pattern: &[bool]) -> Vec<bool>;

    /// Total number of input patterns served (a batch of `n` patterns
    /// counts `n`, so budgets are backend-independent).
    fn queries_served(&self) -> usize;
}

/// An [`Oracle`] that can answer many patterns per call.
///
/// The default methods route through [`Oracle::query`] pattern by
/// pattern — the reference semantics every backend must preserve: the
/// query counter advances by exactly the number of patterns answered
/// (64 per word on the word-level path), and outputs come back in
/// pattern order.
pub trait BatchOracle: Oracle {
    /// Evaluates a batch of patterns; returns one output vector per
    /// pattern, in order. An empty batch returns an empty vector and
    /// counts zero queries.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's length differs from
    /// [`Oracle::num_inputs`].
    fn query_batch(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        patterns.iter().map(|p| self.query(p)).collect()
    }

    /// Word-level fast path: `input_words[i][w]` carries 64 patterns in
    /// the bits of word `w` of input `i`; the result is indexed
    /// `[output][word]` the same way. Counts `num_words * 64` queries.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is not `num_inputs() x num_words`.
    fn query_words(&self, input_words: &[Vec<u64>], num_words: usize) -> Vec<Vec<u64>> {
        assert_eq!(input_words.len(), self.num_inputs(), "input word shape");
        let patterns = unpack_output_words(num_words * 64, input_words);
        let outputs = self.query_batch(&patterns);
        pack_patterns(self.num_outputs(), &outputs)
    }
}

/// An [`Oracle`] backed by a combinational circuit, serving queries from
/// a [`CompiledAig`] instruction buffer: the netlist is lowered once at
/// construction, then batches run 64 patterns per `u64` word with no
/// per-query allocation or node-graph traversal.
///
/// # Example
///
/// ```
/// use almost_circuits::IscasBenchmark;
/// use almost_locking::{CircuitOracle, LockingScheme, Oracle, Rll};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let design = IscasBenchmark::C432.build();
/// let mut rng = StdRng::seed_from_u64(3);
/// let locked = Rll::new(8).lock(&design, &mut rng).expect("lockable");
/// let oracle = CircuitOracle::from_locked(&locked);
/// let pattern = vec![false; oracle.num_inputs()];
/// assert_eq!(oracle.query(&pattern), design.eval(&pattern));
/// assert_eq!(oracle.queries_served(), 1);
/// ```
pub struct CircuitOracle {
    design: Aig,
    code: CompiledAig,
    scratch: RefCell<Vec<u64>>,
    queries: Cell<usize>,
}

impl CircuitOracle {
    /// Compiles an already-unlocked design, reporting the compile to the
    /// telemetry layer (when tracing) so harness traces show the one-shot
    /// setup cost next to the queries it amortises over.
    pub fn new(design: Aig) -> Self {
        let t0 = std::time::Instant::now();
        let code = CompiledAig::compile(&design);
        let stats = code.stats();
        let wall_us = t0.elapsed().as_micros() as u64;
        almost_telemetry::trace(|| almost_telemetry::EventKind::OracleCompile {
            ands: design.num_ands() as u64,
            instructions: stats.instructions as u64,
            registers: stats.registers as u64,
            dead_skipped: stats.dead_skipped as u64,
            wall_us,
        });
        CircuitOracle {
            scratch: RefCell::new(code.make_scratch()),
            design,
            code,
            queries: Cell::new(0),
        }
    }

    /// Builds the oracle an attacker faces: the locked circuit specialised
    /// under its correct key (the activated chip's function).
    pub fn from_locked(locked: &LockedCircuit) -> Self {
        Self::new(apply_key(
            &locked.aig,
            locked.key_input_start,
            locked.key.bits(),
        ))
    }

    /// The underlying design (ground truth; attack *scoring* only — an
    /// attacker never sees this netlist, only query responses).
    pub fn design(&self) -> &Aig {
        &self.design
    }

    /// What the compiler did (instruction count, dead nodes skipped…).
    pub fn compile_stats(&self) -> CompileStats {
        self.code.stats()
    }

    fn count(&self, n: usize) {
        self.queries.set(self.queries.get() + n);
    }
}

impl Oracle for CircuitOracle {
    fn num_inputs(&self) -> usize {
        self.design.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.design.num_outputs()
    }

    fn query(&self, pattern: &[bool]) -> Vec<bool> {
        self.count(1);
        self.code.eval_into(pattern, &mut self.scratch.borrow_mut())
    }

    fn queries_served(&self) -> usize {
        self.queries.get()
    }
}

impl BatchOracle for CircuitOracle {
    fn query_batch(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.count(patterns.len());
        self.code.eval_batch(patterns)
    }

    fn query_words(&self, input_words: &[Vec<u64>], num_words: usize) -> Vec<Vec<u64>> {
        self.count(num_words * 64);
        self.code.eval_words(input_words, num_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rll::Rll;
    use crate::scheme::LockingScheme;
    use almost_circuits::IscasBenchmark;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn oracle_answers_match_the_original_design() {
        let design = IscasBenchmark::C432.build();
        let mut rng = StdRng::seed_from_u64(17);
        let locked = Rll::new(16).lock(&design, &mut rng).expect("lockable");
        let oracle = CircuitOracle::from_locked(&locked);
        assert_eq!(oracle.num_inputs(), design.num_inputs());
        assert_eq!(oracle.num_outputs(), design.num_outputs());
        for i in 0..8u64 {
            let pattern: Vec<bool> = (0..design.num_inputs())
                .map(|b| (i.wrapping_mul(0x9E37_79B9) >> (b % 32)) & 1 != 0)
                .collect();
            assert_eq!(oracle.query(&pattern), design.eval(&pattern));
        }
        assert_eq!(oracle.queries_served(), 8);
    }

    #[test]
    fn query_counter_starts_at_zero() {
        let mut design = Aig::new();
        let a = design.add_input();
        design.add_output(a);
        let oracle = CircuitOracle::new(design);
        assert_eq!(oracle.queries_served(), 0);
        oracle.query(&[true]);
        oracle.query(&[false]);
        assert_eq!(oracle.queries_served(), 2);
    }

    #[test]
    fn both_backends_agree_with_identical_counters() {
        let design = IscasBenchmark::C432.build();
        let mut rng = StdRng::seed_from_u64(5);
        let locked = Rll::new(12).lock(&design, &mut rng).expect("lockable");
        let circuit = CircuitOracle::from_locked(&locked);
        let interpreted = InterpretedOracle::from_locked(&locked);
        let n = design.num_inputs();
        let patterns: Vec<Vec<bool>> = (0..70)
            .map(|_| (0..n).map(|_| rng.random()).collect())
            .collect();
        let want = interpreted.query_batch(&patterns);
        assert_eq!(circuit.query_batch(&patterns), want);
        for o in [
            &circuit as &dyn BatchOracle,
            &interpreted as &dyn BatchOracle,
        ] {
            assert_eq!(o.queries_served(), 70, "batch counts per pattern");
            assert!(o.query_batch(&[]).is_empty());
            assert_eq!(o.queries_served(), 70, "empty batch counts nothing");
        }
    }

    #[test]
    fn word_level_path_counts_sixty_four_per_word() {
        let design = IscasBenchmark::C432.build();
        let circuit = CircuitOracle::new(design.clone());
        let interpreted = InterpretedOracle::new(design.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let num_words = 3;
        let words: Vec<Vec<u64>> = (0..design.num_inputs())
            .map(|_| (0..num_words).map(|_| rng.random()).collect())
            .collect();
        assert_eq!(
            circuit.query_words(&words, num_words),
            interpreted.query_words(&words, num_words)
        );
        assert_eq!(circuit.queries_served(), 64 * num_words);
        assert_eq!(interpreted.queries_served(), 64 * num_words);
    }
}
