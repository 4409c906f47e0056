//! Windowed resubstitution (ABC `resub` / `resub -z`).
//!
//! For every node `n`, a reconvergence-driven window of at most 8 leaves is
//! computed. The exact truth tables (with respect to the window leaves) of
//! every node inside the window are derived in one topological sweep; a
//! *divisor* is a window node outside the MFFC of `n`. The pass replaces
//! `n` by:
//!
//! - **resub-0**: a single divisor equal (or complement-equal) to `n`, or
//! - **resub-1**: a one-gate combination `g(d1, d2)` with
//!   `g ∈ {AND, OR with any input phases, XOR}` of two divisors,
//!
//! whenever the replacement's cost is smaller than the MFFC it frees
//! (or equal, for the `-z` variant). Because divisor equality is checked on
//! *exact* window truth tables — both functions of the same leaves — every
//! accepted substitution is functionally sound by construction, no SAT call
//! needed.

use crate::aig::{Aig, Lit, Var};
use crate::mffc::{mffc_nodes, mffc_size};
use crate::passes::window::{reconvergence_cut, window_volume};
use crate::truth::Tt;
use std::collections::HashSet;

/// Maximum window width.
const MAX_LEAVES: usize = 8;
/// Maximum number of divisors considered per node.
const MAX_DIVISORS: usize = 48;

/// Resubstitutes nodes of the AIG; `zero_cost` enables `-z` semantics.
pub fn resub(aig: &Aig, zero_cost: bool) -> Aig {
    let mut refs = aig.fanout_counts();
    let mut new = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    // Window truth tables by node, valid for the current window only, and
    // the divisor list; both are reused across nodes.
    let mut tables: Vec<Tt> = vec![Tt::zero(0); aig.num_nodes()];
    let mut divisors: Vec<(Var, Tt)> = Vec::with_capacity(MAX_DIVISORS);
    for i in 0..aig.num_inputs() {
        map[aig.inputs()[i] as usize] = new.add_named_input(aig.input_name(i).to_string());
    }

    for v in aig.iter_ands() {
        let (a, b) = aig.and_fanins(v).expect("iterating ANDs");
        let fa = map[a.var() as usize].xor_complement(a.is_complement());
        let fb = map[b.var() as usize].xor_complement(b.is_complement());
        let default = new.and(fa, fb);
        map[v as usize] = default;

        let leaves = reconvergence_cut(aig, v, MAX_LEAVES);
        if leaves.len() < 2 {
            continue;
        }
        let leaf_set: HashSet<Var> = leaves.iter().copied().collect();
        let credit = mffc_size(aig, v, &leaf_set, &mut refs) as isize;
        if credit <= 0 {
            continue;
        }

        let volume = window_volume(aig, v, &leaves);
        let in_mffc: HashSet<Var> = mffc_nodes(aig, v, &leaf_set, &mut refs)
            .into_iter()
            .collect();
        window_tables(aig, &leaves, &volume, &mut tables);
        let target_tt = tables[v as usize];

        // Divisors: window nodes (and the leaves themselves) outside the
        // MFFC of v.
        divisors.clear();
        divisors.extend(leaves.iter().map(|&l| (l, tables[l as usize])));
        for &w in &volume {
            if w == v || in_mffc.contains(&w) {
                continue;
            }
            divisors.push((w, tables[w as usize]));
            if divisors.len() >= MAX_DIVISORS {
                break;
            }
        }

        // resub-0: a free replacement.
        let mut chosen: Option<(isize, Lit)> = None;
        for (d, tt) in &divisors {
            let dl = map[*d as usize];
            if tt == &target_tt {
                chosen = Some((credit, dl));
                break;
            }
            if tt.not() == target_tt {
                chosen = Some((credit, !dl));
                break;
            }
        }

        // resub-1: one new gate from two divisors.
        if chosen.is_none() && (credit >= 2 || zero_cost) {
            'outer: for i in 0..divisors.len() {
                for j in (i + 1)..divisors.len() {
                    let (d1, t1) = divisors[i];
                    let (d2, t2) = divisors[j];
                    if let Some(build) = match_gate(&t1, &t2, &target_tt) {
                        let l1 = map[d1 as usize];
                        let l2 = map[d2 as usize];
                        let cp = new.checkpoint();
                        let lit = build.construct(&mut new, l1, l2);
                        let added = (new.checkpoint() - cp) as isize;
                        let gain = credit - added;
                        if gain > 0 || (zero_cost && gain == 0 && lit != default) {
                            chosen = Some((gain, lit));
                            break 'outer;
                        }
                        new.rollback(cp);
                    }
                }
            }
        }

        if let Some((_, lit)) = chosen {
            map[v as usize] = lit;
        }
    }

    for (i, out) in aig.outputs().iter().enumerate() {
        let lit = map[out.var() as usize].xor_complement(out.is_complement());
        new.add_named_output(lit, aig.output_name(i).to_string());
    }
    new.compact()
}

/// Writes the truth table of every window node over the sorted `leaves`
/// into `tables` (indexed by node): leaf `i` is variable `i`, the constant
/// node is false, and each `volume` node, given in topological order, is
/// the AND of its fanins' tables.
fn window_tables(aig: &Aig, leaves: &[Var], volume: &[Var], tables: &mut [Tt]) {
    let nvars = leaves.len();
    tables[0] = Tt::zero(nvars);
    for (i, &l) in leaves.iter().enumerate() {
        tables[l as usize] = Tt::var(i, nvars);
    }
    let fanin = |tables: &[Tt], lit: Lit| {
        let t = tables[lit.var() as usize];
        if lit.is_complement() {
            t.not()
        } else {
            t
        }
    };
    for &w in volume {
        let (a, b) = aig.and_fanins(w).expect("window volume holds AND nodes");
        tables[w as usize] = fanin(tables, a).and(&fanin(tables, b));
    }
}

/// A two-divisor gate that realises the target function.
#[derive(Clone, Copy, Debug)]
enum GateMatch {
    And { c1: bool, c2: bool, cout: bool },
    Xor { cout: bool },
}

impl GateMatch {
    fn construct(self, aig: &mut Aig, l1: Lit, l2: Lit) -> Lit {
        match self {
            GateMatch::And { c1, c2, cout } => {
                let lit = aig.and(l1.xor_complement(c1), l2.xor_complement(c2));
                lit.xor_complement(cout)
            }
            GateMatch::Xor { cout } => {
                let lit = aig.xor(l1, l2);
                lit.xor_complement(cout)
            }
        }
    }
}

/// Finds a single-gate combination of `t1` and `t2` equal to `target`, if
/// any. AND with all phase combinations covers OR/NOR/NAND/ANDNOT via
/// De Morgan; XOR covers XNOR via the output phase.
fn match_gate(t1: &Tt, t2: &Tt, target: &Tt) -> Option<GateMatch> {
    let not_target = target.not();
    for c1 in [false, true] {
        for c2 in [false, true] {
            let a = if c1 { t1.not() } else { *t1 };
            let b = if c2 { t2.not() } else { *t2 };
            let g = a.and(&b);
            if g == *target {
                return Some(GateMatch::And {
                    c1,
                    c2,
                    cout: false,
                });
            }
            if g == not_target {
                return Some(GateMatch::And { c1, c2, cout: true });
            }
        }
    }
    let x = t1.xor(t2);
    if x == *target {
        return Some(GateMatch::Xor { cout: false });
    }
    if x == not_target {
        return Some(GateMatch::Xor { cout: true });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::random_aig;
    use crate::sim::probably_equivalent;

    #[test]
    fn resub_preserves_function() {
        for seed in 0..6 {
            let aig = random_aig(8, 80, seed + 500);
            let out = resub(&aig, false);
            assert!(
                probably_equivalent(&aig, &out, 16, seed),
                "seed {seed}: resub broke equivalence"
            );
        }
    }

    #[test]
    fn resub_z_preserves_function() {
        for seed in 0..4 {
            let aig = random_aig(8, 80, seed + 600);
            let out = resub(&aig, true);
            assert!(probably_equivalent(&aig, &out, 16, seed));
        }
    }

    #[test]
    fn resub_finds_existing_divisor() {
        // g = a&b exists; f rebuilt redundantly as (a&b&c) | (a&b&!c) == g.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let g = aig.and(a, b);
        let f1 = aig.and(g, c);
        let g2 = aig.and(a, b);
        let f2 = aig.and(g2, !c);
        let f = aig.or(f1, f2);
        aig.add_output(g);
        aig.add_output(f);
        let out = resub(&aig, false);
        assert!(probably_equivalent(&aig, &out, 8, 2));
        assert!(
            out.num_ands() <= 2,
            "f should collapse onto g: {} ANDs left",
            out.num_ands()
        );
    }

    #[test]
    fn match_gate_covers_basic_functions() {
        let t1 = Tt::var(0, 2);
        let t2 = Tt::var(1, 2);
        let and = t1.and(&t2);
        let or = t1.or(&t2);
        let xor = t1.xor(&t2);
        assert!(match_gate(&t1, &t2, &and).is_some());
        assert!(match_gate(&t1, &t2, &or).is_some());
        assert!(match_gate(&t1, &t2, &xor).is_some());
        assert!(match_gate(&t1, &t2, &and.not()).is_some());
        // A function not expressible by one gate of t1,t2.
        let only_t1 = t1;
        assert!(match_gate(&t1, &t2, &only_t1).is_none());
    }
}
