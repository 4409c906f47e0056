//! Random-pattern equivalence checks and ternary simulation.
//!
//! Two-valued word simulation lives in [`crate::compile`]:
//! [`probably_equivalent`] compiles both graphs and compares their
//! outputs on shared random words. Ternary (`0`/`1`/`X`) simulation
//! backs the constant-candidate scan of the fraig engine.

use crate::aig::{Aig, NodeKind};
use crate::compile::CompiledAig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Compares two AIGs with the same interface on random patterns.
///
/// Returns `true` if no counterexample is found within `num_words * 64`
/// random patterns; this is a probabilistic check, not a proof (use
/// `almost-sat`'s CEC for proofs). The stimulus is
/// [`random_input_words`] with the given `seed`.
///
/// # Panics
///
/// Panics if the two AIGs have different input or output counts.
pub fn probably_equivalent(a: &Aig, b: &Aig, num_words: usize, seed: u64) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    let input_words = random_input_words(a.num_inputs(), num_words, seed);
    CompiledAig::compile(a).eval_words(&input_words, num_words)
        == CompiledAig::compile(b).eval_words(&input_words, num_words)
}

/// Uniformly random stimulus in the `[input][word]` layout
/// [`CompiledAig::eval_words`] and [`CompiledAig::register_popcounts`]
/// consume: `num_words` words per input, drawn input-major, then word,
/// from a generator seeded with `seed`. Every random-pattern sweep in
/// the workspace draws through here, so equal seeds mean equal stimulus.
pub fn random_input_words(num_inputs: usize, num_words: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_inputs)
        .map(|_| (0..num_words).map(|_| rng.random()).collect())
        .collect()
}

/// A three-valued logic value: `0`, `1`, or unknown (`X`).
///
/// Ternary simulation propagates controlling values through the AND/NOT
/// structure: `0 AND X = 0`, `1 AND X = X`. A node that settles to a
/// definite value with **every input at `X`** is structurally constant —
/// the cheap constant-detection pre-pass of the fraig engine
/// ([`fraig`](mod@crate::fraig)), which SAT-confirms each candidate before merging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Definitely 0.
    Zero,
    /// Definitely 1.
    One,
    /// Unknown.
    X,
}

impl Ternary {
    /// Three-valued AND: 0 dominates, X absorbs 1.
    #[inline]
    pub fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::Zero, _) | (_, Ternary::Zero) => Ternary::Zero,
            (Ternary::One, Ternary::One) => Ternary::One,
            _ => Ternary::X,
        }
    }

    /// Applies a complement flag (three-valued NOT when `complement`).
    #[inline]
    pub fn xor_complement(self, complement: bool) -> Ternary {
        if complement {
            !self
        } else {
            self
        }
    }
}

/// Three-valued NOT: X stays X.
impl std::ops::Not for Ternary {
    type Output = Ternary;

    #[inline]
    fn not(self) -> Ternary {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }
}

/// Ternary (X-valued) simulation of every node of `aig` under the given
/// input values; returns one [`Ternary`] per node, indexed by variable.
///
/// Any node that comes back definite is guaranteed to hold that value
/// for *every* completion of the `X` inputs. On a strashed AIG all-X
/// inputs never yield a definite AND (every fanin is a non-constant
/// `X`), so the interesting uses pin a subset of inputs: a node definite
/// to the *same* value under both cofactors of an input is a constant
/// (how the fraig pass seeds constant candidates — see
/// `fraig`), and observability analyses watch which
/// cones go definite as inputs are pinned.
///
/// # Panics
///
/// Panics if `inputs` does not have one value per primary input.
pub fn ternary_node_values(aig: &Aig, inputs: &[Ternary]) -> Vec<Ternary> {
    assert_eq!(inputs.len(), aig.num_inputs(), "one value per input");
    let mut values = vec![Ternary::Zero; aig.num_nodes()];
    for v in aig.iter_vars() {
        values[v as usize] = match aig.node(v) {
            NodeKind::Const0 => Ternary::Zero,
            NodeKind::Input(i) => inputs[i as usize],
            NodeKind::And(a, b) => {
                let va = values[a.var() as usize].xor_complement(a.is_complement());
                let vb = values[b.var() as usize].xor_complement(b.is_complement());
                va.and(vb)
            }
        };
    }
    values
}

/// Ternary simulation of the primary outputs (see [`ternary_node_values`]).
///
/// # Panics
///
/// Panics if `inputs` does not have one value per primary input.
pub fn ternary_eval(aig: &Aig, inputs: &[Ternary]) -> Vec<Ternary> {
    let values = ternary_node_values(aig, inputs);
    aig.outputs()
        .iter()
        .map(|o| values[o.var() as usize].xor_complement(o.is_complement()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.xor(a, b);
        aig.add_output(f);
        aig
    }

    #[test]
    fn probably_equivalent_accepts_identical() {
        let a = xor_aig();
        let b = a.clone();
        assert!(probably_equivalent(&a, &b, 4, 3));
    }

    #[test]
    fn probably_equivalent_rejects_different() {
        let a = xor_aig();
        let mut b = Aig::new();
        let x = b.add_input();
        let y = b.add_input();
        let f = b.and(x, y);
        b.add_output(f);
        assert!(!probably_equivalent(&a, &b, 4, 3));
    }

    #[test]
    fn ternary_case_split_finds_hidden_constant() {
        // g = (a & b) & !a == 0, built through two distinct AND nodes so
        // one-level strash simplification cannot see it. All-X ternary
        // simulation cannot either (every fanin stays X) — but pinning
        // `a` to each cofactor makes g definite-zero both ways, which is
        // exactly how the fraig pre-pass seeds constant candidates.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        let g = aig.and(ab, !a);
        aig.add_output(g);
        assert!(!g.is_const(), "strash must not fold the two-level identity");
        let all_x = ternary_node_values(&aig, &[Ternary::X, Ternary::X]);
        assert_eq!(
            all_x[g.var() as usize],
            Ternary::X,
            "all-X alone is blind here"
        );
        let lo = ternary_node_values(&aig, &[Ternary::Zero, Ternary::X]);
        let hi = ternary_node_values(&aig, &[Ternary::One, Ternary::X]);
        assert_eq!(lo[g.var() as usize], Ternary::Zero);
        assert_eq!(hi[g.var() as usize], Ternary::Zero);
        assert_eq!(
            ternary_eval(&aig, &[Ternary::Zero, Ternary::X]),
            vec![Ternary::Zero]
        );
    }

    #[test]
    fn ternary_matches_boolean_eval_on_definite_inputs() {
        let aig = xor_aig();
        for pat in 0..4u32 {
            let bools: Vec<bool> = (0..2).map(|i| pat >> i & 1 != 0).collect();
            let terns: Vec<Ternary> = bools
                .iter()
                .map(|&v| if v { Ternary::One } else { Ternary::Zero })
                .collect();
            let want: Vec<Ternary> = aig
                .eval(&bools)
                .into_iter()
                .map(|v| if v { Ternary::One } else { Ternary::Zero })
                .collect();
            assert_eq!(ternary_eval(&aig, &terns), want);
        }
    }

    #[test]
    fn ternary_x_propagates_only_where_observable() {
        // f = a & b: with a = 0, the X on b is blocked (f = 0); with
        // a = 1 it is observable (f = X).
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        assert_eq!(
            ternary_eval(&aig, &[Ternary::Zero, Ternary::X]),
            vec![Ternary::Zero]
        );
        assert_eq!(
            ternary_eval(&aig, &[Ternary::One, Ternary::X]),
            vec![Ternary::X]
        );
    }
}
