//! K-feasible cut enumeration.
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path from
//! the inputs to `n` passes through a leaf. Cuts of at most `k` leaves are
//! enumerated bottom-up by merging the fanin cut sets, with dominance
//! filtering and a per-node cap — the classical priority-cuts algorithm used
//! by ABC's rewriting and technology mapping.

use crate::aig::{Aig, NodeKind, Var};
use crate::truth::{Tt, MAX_VARS};

/// A single cut: a sorted set of leaf variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: Vec<Var>,
    signature: u64,
}

impl Cut {
    /// The trivial cut of a node: the node itself.
    pub fn trivial(var: Var) -> Self {
        Cut {
            leaves: vec![var],
            signature: 1 << (var % 64),
        }
    }

    fn from_sorted(leaves: Vec<Var>) -> Self {
        let signature = leaves.iter().fold(0u64, |s, &v| s | 1 << (v % 64));
        Cut { leaves, signature }
    }

    /// The sorted leaf variables.
    pub fn leaves(&self) -> &[Var] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// Merges two cuts; returns `None` if the union exceeds `k` leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        // Quick reject: distinct signature bits are a lower bound on the
        // union size (hash collisions only make the bound smaller).
        if (self.signature | other.signature).count_ones() as usize > k {
            return None;
        }
        let mut leaves = Vec::with_capacity(k + 1);
        let (mut i, mut j) = (0, 0);
        while i < self.leaves.len() || j < other.leaves.len() {
            let next = match (self.leaves.get(i), other.leaves.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a == b {
                        i += 1;
                        j += 1;
                        a
                    } else if a < b {
                        i += 1;
                        a
                    } else {
                        j += 1;
                        b
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!(),
            };
            if leaves.len() == k {
                return None;
            }
            leaves.push(next);
        }
        Some(Cut::from_sorted(leaves))
    }

    /// Returns true if `self`'s leaves are a subset of `other`'s (then
    /// `other` is dominated and can be discarded).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() {
            return false;
        }
        if self.signature & !other.signature != 0 {
            return false;
        }
        self.leaves
            .iter()
            .all(|l| other.leaves.binary_search(l).is_ok())
    }
}

/// Per-node cut sets for an entire AIG.
#[derive(Debug)]
pub struct CutSet {
    cuts: Vec<Vec<Cut>>,
    k: usize,
}

/// Configuration for cut enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CutConfig {
    /// Maximum leaves per cut.
    pub k: usize,
    /// Maximum cuts kept per node (the trivial cut does not count).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { k: 4, max_cuts: 8 }
    }
}

impl CutSet {
    /// Enumerates cuts for every node of `aig`.
    ///
    /// # Panics
    ///
    /// Panics if `config.k` is 0 or greater than [`MAX_VARS`] (8, the
    /// truth-table limit).
    pub fn compute(aig: &Aig, config: CutConfig) -> Self {
        assert!(
            config.k >= 1 && config.k <= MAX_VARS,
            "cut width must be in 1..={MAX_VARS}"
        );
        let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(aig.num_nodes());
        for v in aig.iter_vars() {
            let node_cuts = match aig.node(v) {
                NodeKind::Const0 | NodeKind::Input(_) => vec![Cut::trivial(v)],
                NodeKind::And(a, b) => {
                    let mut new_cuts: Vec<Cut> = Vec::new();
                    let ca = &cuts[a.var() as usize];
                    let cb = &cuts[b.var() as usize];
                    for x in ca {
                        for y in cb {
                            if let Some(m) = x.merge(y, config.k) {
                                if !new_cuts.iter().any(|c| c.dominates(&m)) {
                                    new_cuts.retain(|c| !m.dominates(c));
                                    new_cuts.push(m);
                                }
                            }
                        }
                    }
                    // Prefer smaller cuts when trimming to the cap.
                    new_cuts.sort_by_key(Cut::size);
                    new_cuts.truncate(config.max_cuts);
                    // The structural fanin cut must always survive: the
                    // technology mapper and rewriting rely on every node
                    // having at least one matchable cut.
                    let mut fanin_leaves = vec![a.var(), b.var()];
                    fanin_leaves.sort_unstable();
                    fanin_leaves.dedup();
                    let fanin_cut = Cut::from_sorted(fanin_leaves);
                    if !new_cuts.iter().any(|c| c == &fanin_cut) {
                        new_cuts.push(fanin_cut);
                    }
                    new_cuts.push(Cut::trivial(v));
                    new_cuts
                }
            };
            cuts.push(node_cuts);
        }
        CutSet { cuts, k: config.k }
    }

    /// The cuts of node `var` (the last entry is the trivial cut).
    pub fn cuts_of(&self, var: Var) -> &[Cut] {
        &self.cuts[var as usize]
    }

    /// The k used for enumeration.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Computes the truth table of `root` as a function of the cut leaves.
///
/// Leaf `i` of the cut becomes variable `i` of the table. All interior nodes
/// must be AND nodes.
///
/// # Panics
///
/// Panics if the cut has more than [`MAX_VARS`] leaves or does not cover
/// the cone of `root`.
pub fn cut_function(aig: &Aig, root: Var, cut: &Cut) -> Tt {
    let nvars = cut.size();
    // A linear memo: cut cones are a handful of nodes, so a scan beats
    // hashing. Lookups scan from the back, so a leaf shadows the constant
    // node and recently computed fanins are found first.
    let mut memo: Vec<(Var, Tt)> = Vec::with_capacity(nvars + 16);
    memo.push((0, Tt::zero(nvars)));
    for (i, &leaf) in cut.leaves().iter().enumerate() {
        memo.push((leaf, Tt::var(i, nvars)));
    }
    let lookup = |memo: &[(Var, Tt)], v: Var| memo.iter().rev().find(|e| e.0 == v).map(|e| e.1);
    let mut stack = vec![root];
    while let Some(&v) = stack.last() {
        if lookup(&memo, v).is_some() {
            stack.pop();
            continue;
        }
        let NodeKind::And(a, b) = aig.node(v) else {
            panic!("cut does not cover node {v}");
        };
        match (lookup(&memo, a.var()), lookup(&memo, b.var())) {
            (Some(ta), Some(tb)) => {
                let ta = if a.is_complement() { ta.not() } else { ta };
                let tb = if b.is_complement() { tb.not() } else { tb };
                memo.push((v, ta.and(&tb)));
                stack.pop();
            }
            (ta, tb) => {
                if tb.is_none() {
                    stack.push(b.var());
                }
                if ta.is_none() {
                    stack.push(a.var());
                }
            }
        }
    }
    lookup(&memo, root).expect("root was just computed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    #[test]
    fn merge_respects_limit() {
        let a = Cut::trivial(1);
        let b = Cut::trivial(2);
        let ab = a.merge(&b, 4).expect("fits");
        assert_eq!(ab.leaves(), &[1, 2]);
        let c = Cut::from_sorted(vec![3, 4, 5]);
        assert!(ab.merge(&c, 4).is_none());
        assert!(ab.merge(&c, 5).is_some());
    }

    #[test]
    fn dominance() {
        let small = Cut::from_sorted(vec![1, 2]);
        let big = Cut::from_sorted(vec![1, 2, 3]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small.clone()));
    }

    #[test]
    fn cut_enumeration_finds_mux_cut() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        aig.add_output(m);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let root_cuts = cuts.cuts_of(m.var());
        // Some cut must be exactly the three inputs.
        let want: Vec<Var> = {
            let mut v = vec![s.var(), t.var(), e.var()];
            v.sort_unstable();
            v
        };
        assert!(
            root_cuts.iter().any(|c| c.leaves() == want.as_slice()),
            "cuts: {root_cuts:?}"
        );
    }

    #[test]
    fn cut_function_matches_semantics() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        aig.add_output(m);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let want: Vec<Var> = {
            let mut v = vec![s.var(), t.var(), e.var()];
            v.sort_unstable();
            v
        };
        let cut = cuts
            .cuts_of(m.var())
            .iter()
            .find(|c| c.leaves() == want.as_slice())
            .expect("input cut exists")
            .clone();
        let tt = cut_function(&aig, m.var(), &cut);
        // Cut leaves are sorted by var; inputs were created in order s,t,e so
        // leaf order is (s,t,e) -> vars (0,1,2) of the table. cut_function
        // computes the function of the *node*, so complement through the
        // root literal's phase.
        for idx in 0..8usize {
            let vs = (idx & 1) != 0;
            let vt = (idx & 2) != 0;
            let ve = (idx & 4) != 0;
            let expect = (if vs { vt } else { ve }) ^ m.is_complement();
            assert_eq!(tt.get_bit(idx), expect, "idx={idx}");
        }
    }

    #[test]
    fn trivial_cut_function_is_projection() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let triv = cuts.cuts_of(f.var()).last().expect("has trivial").clone();
        assert_eq!(triv.leaves(), &[f.var()]);
        let tt = cut_function(&aig, f.var(), &triv);
        assert_eq!(tt, Tt::var(0, 1));
    }
}
