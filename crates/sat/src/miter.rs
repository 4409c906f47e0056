//! Key-conditioned miters for oracle-guided (SAT) attacks.
//!
//! The classic SAT attack on logic locking [Subramanyan et al., HOST'15]
//! works on a *key-conditioned miter*: two copies of the locked circuit
//! `C(x, k₁)` and `C(x, k₂)` share their functional inputs `x` but carry
//! independent key variables, and the solver searches for an assignment
//! where at least one output pair differs. Such an `x` is a
//! *distinguishing input pattern* (DIP): it witnesses that `k₁` and `k₂`
//! cannot both be correct. After querying the oracle (the activated chip)
//! for the true output `y = C*(x)`, the constraints `C(x, k₁) = y` and
//! `C(x, k₂) = y` are added and the search repeats. When the miter goes
//! UNSAT, *every* key consistent with the accumulated I/O pairs is
//! functionally correct, and one is extracted with [`KeyMiter::settle_key`].
//!
//! [`KeyMiter`] implements the circuit plumbing on the incremental CDCL
//! solver: the difference clause is guarded by an activation literal so the
//! same solver answers both the DIP query (assume the guard) and the key
//! settlement (release it), keeping every learnt clause across iterations.
//! I/O constraints are added as *input-restricted* circuit copies — the
//! functional inputs are constant-folded out of the AIG before encoding, so
//! each iteration only adds the key-dependent cone instead of a full
//! circuit copy.

use crate::cnf::{encode_with_inputs, encode_xor};
use crate::portfolio::{PortfolioSolver, PortfolioStats};
use crate::solver::{SatLit, SatResult, SatVar};
use almost_aig::{Aig, Lit, NodeKind};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Outcome of one DIP query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DipSearch {
    /// A distinguishing input pattern over the functional inputs (in input
    /// order, key positions excluded).
    Found(Vec<bool>),
    /// No DIP exists: all keys consistent with the added I/O constraints
    /// are functionally equivalent — the attack has converged.
    Settled,
    /// The conflict budget ran out before the query concluded
    /// (approximate/AppSAT mode only).
    OutOfBudget,
}

/// A key-conditioned miter over a locked circuit; see the
/// [module documentation](self).
///
/// # Example
///
/// ```
/// use almost_aig::Aig;
/// use almost_sat::miter::{DipSearch, KeyMiter};
///
/// // Locked circuit: f = a ⊕ k (key input last), correct key k = 0.
/// let mut locked = Aig::new();
/// let a = locked.add_input();
/// let k = locked.add_named_input("keyinput0");
/// let f = locked.xor(a, k);
/// locked.add_output(f);
///
/// let mut miter = KeyMiter::new(&locked, 1, 1);
/// match miter.find_dip(None) {
///     DipSearch::Found(x) => {
///         // Oracle: f = a, so y = x.
///         miter.constrain_io(&x, &x);
///     }
///     other => panic!("one DIP must exist, got {other:?}"),
/// }
/// assert_eq!(miter.find_dip(None), DipSearch::Settled);
/// assert_eq!(miter.settle_key(), Some(vec![false]));
/// ```
pub struct KeyMiter {
    solver: PortfolioSolver,
    locked: Aig,
    key_start: usize,
    key_len: usize,
    x_vars: Vec<SatVar>,
    key_a: Vec<SatVar>,
    key_b: Vec<SatVar>,
    /// Guard literal for the output-difference clause: assumed positive to
    /// search DIPs, negative to settle a key.
    act: SatLit,
    num_constraints: usize,
}

impl KeyMiter {
    /// Builds the miter for `locked`, whose key inputs occupy input
    /// positions `key_start .. key_start + key_len` (the
    /// `almost_locking::LockedCircuit` convention).
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs or the circuit
    /// has no outputs.
    pub fn new(locked: &Aig, key_start: usize, key_len: usize) -> Self {
        Self::build(locked, key_start, key_len, false)
    }

    /// Like [`KeyMiter::new`], but sweeps the locked circuit with
    /// [`fraig`](mod@almost_aig::fraig) before encoding. The sweep merges every
    /// internally equivalent node once, up front — both circuit copies
    /// (and every later input-restricted I/O copy) then encode the
    /// reduced network, shrinking the CNF the DIP loop iterates on. The
    /// interface (input order and names, output order) is preserved, so
    /// key positions are unaffected.
    ///
    /// Opt-in: on netlists with little internal redundancy the sweep is
    /// pure overhead, and attack-effort comparisons against published
    /// SAT-attack numbers should keep the plain construction.
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs or the circuit
    /// has no outputs.
    pub fn with_fraig_prepass(locked: &Aig, key_start: usize, key_len: usize) -> Self {
        Self::build(locked, key_start, key_len, true)
    }

    fn build(locked: &Aig, key_start: usize, key_len: usize, fraig: bool) -> Self {
        assert!(
            key_start + key_len <= locked.num_inputs(),
            "key range out of bounds"
        );
        let swept;
        let locked = if fraig {
            swept = almost_aig::fraig(locked);
            &swept
        } else {
            locked
        };
        assert!(locked.num_outputs() > 0, "miter needs outputs to compare");
        let mut solver = PortfolioSolver::new("key_miter");
        let num_data = locked.num_inputs() - key_len;
        let x_vars: Vec<SatVar> = (0..num_data).map(|_| solver.new_var()).collect();
        let key_a: Vec<SatVar> = (0..key_len).map(|_| solver.new_var()).collect();
        let key_b: Vec<SatVar> = (0..key_len).map(|_| solver.new_var()).collect();

        let inputs_a = splice_inputs(&x_vars, &key_a, key_start);
        let inputs_b = splice_inputs(&x_vars, &key_b, key_start);
        let no_overrides = HashMap::new();
        let cnf_a = encode_with_inputs(&mut solver, locked, &inputs_a, &no_overrides);
        let cnf_b = encode_with_inputs(&mut solver, locked, &inputs_b, &no_overrides);

        // Difference clause, guarded: act → (some output pair differs).
        let act = SatLit::positive(solver.new_var());
        let mut clause: Vec<SatLit> = vec![!act];
        for (&la, &lb) in cnf_a.output_lits.iter().zip(&cnf_b.output_lits) {
            clause.push(encode_xor(&mut solver, la, lb));
        }
        solver.add_clause(&clause);

        KeyMiter {
            solver,
            locked: locked.clone(),
            key_start,
            key_len,
            x_vars,
            key_a,
            key_b,
            act,
            num_constraints: 0,
        }
    }

    /// Searches for a distinguishing input pattern.
    ///
    /// With `max_conflicts = None` the query runs to completion; with a
    /// budget it may return [`DipSearch::OutOfBudget`].
    pub fn find_dip(&mut self, max_conflicts: Option<u64>) -> DipSearch {
        match self.solver.try_solve(&[self.act], max_conflicts) {
            Err(interrupt) => {
                let budget = max_conflicts.unwrap_or(0);
                almost_telemetry::trace(|| almost_telemetry::EventKind::BudgetExhausted {
                    engine: "key_miter",
                    budget,
                    conflicts: self.solver.stats().conflicts,
                    cause: interrupt.cause(),
                });
                DipSearch::OutOfBudget
            }
            Ok(SatResult::Unsat) => DipSearch::Settled,
            Ok(SatResult::Sat) => DipSearch::Found(
                self.x_vars
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Adds the oracle response `outputs = C*(inputs)` as a constraint on
    /// both key copies.
    ///
    /// The locked circuit is first specialised to the constant `inputs`
    /// (constant propagation through AIG construction), so only the
    /// key-dependent residue is Tseitin-encoded — typically a small
    /// fraction of the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` have the wrong arity.
    pub fn constrain_io(&mut self, inputs: &[bool], outputs: &[bool]) {
        assert_eq!(inputs.len(), self.x_vars.len(), "input arity mismatch");
        assert_eq!(
            outputs.len(),
            self.locked.num_outputs(),
            "output arity mismatch"
        );
        let residue = restrict_to_keys(&self.locked, self.key_start, self.key_len, inputs);
        let no_overrides = HashMap::new();
        for key_vars in [self.key_a.clone(), self.key_b.clone()] {
            let cnf = encode_with_inputs(&mut self.solver, &residue, &key_vars, &no_overrides);
            for (&lit, &want) in cnf.output_lits.iter().zip(outputs) {
                self.solver.add_clause(&[if want { lit } else { !lit }]);
            }
        }
        self.num_constraints += 1;
    }

    /// Extracts a key consistent with every added I/O constraint (the
    /// correct key once [`DipSearch::Settled`] has been observed; the best
    /// current candidate in approximate mode).
    ///
    /// Returns `None` only if the constraints are contradictory, which
    /// indicates an inconsistent oracle.
    pub fn settle_key(&mut self) -> Option<Vec<bool>> {
        match self.solver.try_solve(&[!self.act], None) {
            Err(interrupt) => {
                // Only an external cancellation can interrupt an
                // unlimited query; report it like a budget exhaustion and
                // yield no key.
                almost_telemetry::trace(|| almost_telemetry::EventKind::BudgetExhausted {
                    engine: "key_miter",
                    budget: 0,
                    conflicts: self.solver.stats().conflicts,
                    cause: interrupt.cause(),
                });
                None
            }
            Ok(SatResult::Unsat) => None,
            Ok(SatResult::Sat) => Some(
                self.key_a
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Number of I/O constraints added so far (= oracle queries consumed).
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Number of functional (non-key) inputs.
    pub fn num_data_inputs(&self) -> usize {
        self.x_vars.len()
    }

    /// Key width.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Cumulative solver-effort statistics.
    pub fn solver_stats(&self) -> crate::solver::SolverStats {
        self.solver.stats()
    }

    /// Solver size: (variables, clauses).
    pub fn solver_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Cumulative portfolio counters (races, wins, exchange volume).
    pub fn portfolio_stats(&self) -> PortfolioStats {
        self.solver.portfolio_stats()
    }

    /// Installs an external cancellation flag: raising it makes every
    /// subsequent query return [`DipSearch::OutOfBudget`] (reported with
    /// `cause: "cancelled"` in telemetry).
    pub fn set_stop_flag(&mut self, flag: Arc<AtomicBool>) {
        self.solver.set_stop_flag(flag);
    }
}

impl std::fmt::Debug for KeyMiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (vars, clauses) = self.solver_size();
        write!(
            f,
            "KeyMiter {{ key_len: {}, constraints: {}, vars: {vars}, clauses: {clauses} }}",
            self.key_len, self.num_constraints
        )
    }
}

/// Interleaves shared data variables and per-copy key variables into the
/// locked circuit's input order.
pub(crate) fn splice_inputs(
    x_vars: &[SatVar],
    key_vars: &[SatVar],
    key_start: usize,
) -> Vec<SatVar> {
    let mut inputs = Vec::with_capacity(x_vars.len() + key_vars.len());
    inputs.extend_from_slice(&x_vars[..key_start]);
    inputs.extend_from_slice(key_vars);
    inputs.extend_from_slice(&x_vars[key_start..]);
    inputs
}

/// Specialises `locked` under constant functional inputs, leaving exactly
/// the key inputs (in order) as the inputs of the returned AIG.
pub(crate) fn restrict_to_keys(
    locked: &Aig,
    key_start: usize,
    key_len: usize,
    data: &[bool],
) -> Aig {
    let mut new = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; locked.num_nodes()];
    let mut data_iter = data.iter();
    for i in 0..locked.num_inputs() {
        let var = locked.inputs()[i];
        map[var as usize] = if (key_start..key_start + key_len).contains(&i) {
            new.add_named_input(locked.input_name(i).to_string())
        } else {
            let &value = data_iter.next().expect("data arity checked by caller");
            if value {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        };
    }
    for v in locked.iter_vars() {
        if let NodeKind::And(a, b) = locked.node(v) {
            let fa = map[a.var() as usize].xor_complement(a.is_complement());
            let fb = map[b.var() as usize].xor_complement(b.is_complement());
            map[v as usize] = new.and(fa, fb);
        }
    }
    for (i, out) in locked.outputs().iter().enumerate() {
        let lit = map[out.var() as usize].xor_complement(out.is_complement());
        new.add_named_output(lit, locked.output_name(i).to_string());
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locks `aig`-style: y = (a ∧ b) ⊕ k₀, z = (a ∨ b) ⊕ ¬k₁ (an XNOR key
    /// gate). Correct key: k₀ = 0, k₁ = 1.
    fn two_bit_locked() -> (Aig, Aig) {
        let mut plain = Aig::new();
        let a = plain.add_input();
        let b = plain.add_input();
        let y = plain.and(a, b);
        let z = plain.or(a, b);
        plain.add_output(y);
        plain.add_output(z);

        let mut locked = Aig::new();
        let a = locked.add_input();
        let b = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let k1 = locked.add_named_input("keyinput1");
        let y = locked.and(a, b);
        let y = locked.xor(y, k0);
        let z = locked.or(a, b);
        let z = locked.xnor(z, k1);
        locked.add_output(y);
        locked.add_output(z);
        (plain, locked)
    }

    fn run_dip_loop(plain: &Aig, locked: &Aig, key_start: usize, key_len: usize) -> Vec<bool> {
        let mut miter = KeyMiter::new(locked, key_start, key_len);
        let mut iterations = 0;
        loop {
            match miter.find_dip(None) {
                DipSearch::Found(x) => {
                    let y = plain.eval(&x);
                    miter.constrain_io(&x, &y);
                }
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => unreachable!("no budget was set"),
            }
            iterations += 1;
            assert!(iterations <= 64, "DIP loop diverged");
        }
        miter.settle_key().expect("oracle-consistent constraints")
    }

    fn unlock(locked: &Aig, key_start: usize, key: &[bool]) -> Aig {
        // Local key specialisation (the locking crate is not a dependency).
        let mut new = Aig::new();
        let mut map: Vec<Lit> = vec![Lit::FALSE; locked.num_nodes()];
        for i in 0..locked.num_inputs() {
            let var = locked.inputs()[i];
            map[var as usize] = if (key_start..key_start + key.len()).contains(&i) {
                if key[i - key_start] {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            } else {
                new.add_input()
            };
        }
        for v in locked.iter_vars() {
            if let NodeKind::And(a, b) = locked.node(v) {
                let fa = map[a.var() as usize].xor_complement(a.is_complement());
                let fb = map[b.var() as usize].xor_complement(b.is_complement());
                map[v as usize] = new.and(fa, fb);
            }
        }
        for out in locked.outputs() {
            let lit = map[out.var() as usize].xor_complement(out.is_complement());
            new.add_output(lit);
        }
        new
    }

    #[test]
    fn dip_loop_recovers_the_exact_key() {
        let (plain, locked) = two_bit_locked();
        let key = run_dip_loop(&plain, &locked, 2, 2);
        assert_eq!(key, vec![false, true]);
    }

    #[test]
    fn recovered_key_is_functionally_correct() {
        let (plain, locked) = two_bit_locked();
        let key = run_dip_loop(&plain, &locked, 2, 2);
        let restored = unlock(&locked, 2, &key);
        assert_eq!(
            crate::equiv::check_equivalence(&plain, &restored),
            crate::equiv::Equivalence::Equivalent
        );
    }

    #[test]
    fn fraig_prepass_recovers_the_same_key() {
        // Pad the locked circuit with redundant structure the sweep can
        // merge; the pre-passed miter must still recover the exact key.
        let (plain, mut locked) = two_bit_locked();
        let a = Lit::positive(locked.inputs()[0]);
        let b = Lit::positive(locked.inputs()[1]);
        let ab = locked.and(a, b);
        let u = locked.or(b, ab); // ≡ b (absorption)
        let redundant = locked.and(a, u); // ≡ a ∧ b, duplicated cone
        let y = locked.outputs()[0];
        let t = locked.and(y, redundant);
        let s = locked.and(y, !redundant);
        let y2 = locked.or(s, t); // (y ∧ r) ∨ (y ∧ ¬r) ≡ y
        locked.set_output(0, y2);

        let mut miter = KeyMiter::with_fraig_prepass(&locked, 2, 2);
        let mut iterations = 0;
        loop {
            match miter.find_dip(None) {
                DipSearch::Found(x) => {
                    let y = plain.eval(&x);
                    miter.constrain_io(&x, &y);
                }
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => unreachable!("no budget was set"),
            }
            iterations += 1;
            assert!(iterations <= 64, "DIP loop diverged");
        }
        assert_eq!(miter.settle_key(), Some(vec![false, true]));
    }

    #[test]
    fn settled_without_constraints_when_keys_are_equivalent() {
        // f = a ∧ (k ∨ ¬k) = a: both key values are correct, so no DIP
        // exists at all and any settled key unlocks.
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k = locked.add_named_input("keyinput0");
        let t = locked.or(k, !k);
        let f = locked.and(a, t);
        locked.add_output(f);
        let mut miter = KeyMiter::new(&locked, 1, 1);
        assert_eq!(miter.find_dip(None), DipSearch::Settled);
        assert!(miter.settle_key().is_some());
    }

    #[test]
    fn budgeted_search_reports_exhaustion_without_corruption() {
        let (plain, locked) = two_bit_locked();
        let mut miter = KeyMiter::new(&locked, 2, 2);
        // A zero-conflict budget can only succeed if the first query needs
        // no conflicts at all; accept either outcome but require the miter
        // to stay usable and eventually converge.
        let mut budget_hits = 0;
        let mut iterations = 0;
        loop {
            match miter.find_dip(Some(1)) {
                DipSearch::Found(x) => miter.constrain_io(&x, &plain.eval(&x)),
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => {
                    budget_hits += 1;
                    match miter.find_dip(None) {
                        DipSearch::Found(x) => miter.constrain_io(&x, &plain.eval(&x)),
                        DipSearch::Settled => break,
                        DipSearch::OutOfBudget => unreachable!("unlimited retry"),
                    }
                }
            }
            iterations += 1;
            assert!(iterations <= 64, "DIP loop diverged");
        }
        let key = miter.settle_key().expect("consistent");
        assert_eq!(key, vec![false, true]);
        // budget_hits is instance-dependent; the point is the loop finished.
        let _ = budget_hits;
    }

    #[test]
    fn inconsistent_oracle_is_detected() {
        let (_plain, locked) = two_bit_locked();
        let mut miter = KeyMiter::new(&locked, 2, 2);
        // Claim contradictory outputs for the same input pattern.
        miter.constrain_io(&[true, true], &[true, true]);
        miter.constrain_io(&[true, true], &[false, false]);
        assert_eq!(miter.settle_key(), None);
    }

    #[test]
    fn restriction_folds_data_constants() {
        let (_plain, locked) = two_bit_locked();
        let residue = restrict_to_keys(&locked, 2, 2, &[true, false]);
        assert_eq!(residue.num_inputs(), 2);
        assert_eq!(residue.num_outputs(), 2);
        // a=1, b=0: y = 0 ⊕ k₀ = k₀; z = 1 ⊕ ¬k₁ = k₁.
        assert_eq!(residue.eval(&[false, true]), vec![false, true]);
        assert_eq!(residue.eval(&[true, false]), vec![true, false]);
        assert!(residue.num_ands() <= locked.num_ands());
    }
}
