//! Property-based tests for the AIG substrate.

use almost_aig::cut::{cut_function, CutConfig, CutSet};
use almost_aig::isop::{isop, Cube, Resynth};
use almost_aig::npn::canonize;
use almost_aig::passes::{balance, reconvergence_cut};
use almost_aig::sim::probably_equivalent;
use almost_aig::{Aig, Lit, Pass, Tt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
    let mut guard = 0;
    while aig.num_ands() < num_ands && guard < 20 * num_ands {
        guard += 1;
        let a = pool[rng.random_range(0..pool.len())];
        let b = pool[rng.random_range(0..pool.len())];
        let lit = aig.and(
            a.xor_complement(rng.random()),
            b.xor_complement(rng.random()),
        );
        if !lit.is_const() {
            pool.push(lit);
        }
    }
    for i in 0..3.min(pool.len()) {
        let lit = pool[pool.len() - 1 - i];
        aig.add_output(lit);
    }
    aig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compact_preserves_function(seed in 0u64..100_000) {
        let aig = random_aig(6, 50, seed);
        let compacted = aig.compact();
        prop_assert!(compacted.num_ands() <= aig.num_ands());
        prop_assert!(probably_equivalent(&aig, &compacted, 8, seed));
    }

    #[test]
    fn balance_never_increases_depth(seed in 0u64..100_000) {
        let aig = random_aig(8, 60, seed);
        let out = balance(&aig);
        prop_assert!(out.depth() <= aig.depth());
        prop_assert!(probably_equivalent(&aig, &out, 8, seed ^ 1));
    }

    #[test]
    fn shannon_expansion_identity(bits in any::<u16>()) {
        // f = x & f|x=1  |  !x & f|x=0, for every variable.
        let f = Tt::from_u64(4, bits as u64);
        for v in 0..4 {
            let x = Tt::var(v, 4);
            let recomposed = x.and(&f.cofactor1(v)).or(&x.not().and(&f.cofactor0(v)));
            prop_assert_eq!(&recomposed, &f);
        }
    }

    #[test]
    fn isop_cover_equals_function(bits in any::<u16>()) {
        let f = Tt::from_u64(4, bits as u64);
        let cubes = isop(&f);
        let cover = cubes
            .iter()
            .fold(Tt::zero(4), |acc, c: &Cube| acc.or(&c.to_tt(4)));
        prop_assert_eq!(cover, f);
    }

    #[test]
    fn resynth_realises_function(bits in any::<u16>()) {
        let f = Tt::from_u64(4, bits as u64);
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..4).map(|_| aig.add_input()).collect();
        let root = Resynth::default().build(&mut aig, &f, &leaves);
        aig.add_output(root);
        for idx in 0..16usize {
            let ins: Vec<bool> = (0..4).map(|i| idx >> i & 1 != 0).collect();
            prop_assert_eq!(aig.eval(&ins)[0], f.get_bit(idx));
        }
    }

    #[test]
    fn npn_canonization_is_idempotent_and_consistent(bits in any::<u16>()) {
        let f = Tt::from_u64(4, bits as u64);
        let (canon, tr) = canonize(&f);
        prop_assert_eq!(&tr.apply(&f), &canon);
        let (canon2, _) = canonize(&canon);
        prop_assert_eq!(&canon2, &canon);
        // NPN classes are closed under output complement.
        let (canon_not, _) = canonize(&f.not());
        prop_assert_eq!(&canon_not, &canon);
    }

    #[test]
    fn cut_functions_agree_with_cone_simulation(seed in 0u64..100_000) {
        let aig = random_aig(5, 30, seed);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let mut checks = Vec::new();
        for v in aig.iter_ands().take(10) {
            for cut in cuts.cuts_of(v).iter().filter(|c| c.size() >= 2).take(3) {
                checks.push((v, cut.leaves().to_vec(), cut_function(&aig, v, cut)));
            }
        }
        // Reference: the node walk on a clone exposing every node as an
        // output, so internal node values become observable. On every
        // pattern, a node's value must equal tt(leaf values).
        let mut every_node = aig.clone();
        for v in aig.iter_vars() {
            every_node.add_output(Lit::positive(v));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..128 {
            let ins: Vec<bool> = (0..aig.num_inputs()).map(|_| rng.random()).collect();
            let all = every_node.eval(&ins);
            let value = &all[aig.num_outputs()..];
            for (v, leaves, tt) in &checks {
                let idx = leaves
                    .iter()
                    .enumerate()
                    .filter(|&(_, &leaf)| value[leaf as usize])
                    .fold(0usize, |idx, (i, _)| idx | 1 << i);
                prop_assert_eq!(tt.get_bit(idx), value[*v as usize]);
            }
        }
    }

    #[test]
    fn reconvergence_cut_is_a_real_cut(seed in 0u64..100_000) {
        // Every path from inputs to the root must pass through a leaf:
        // equivalently, the cut function over the leaves fully determines
        // the node, which cut_function verifies structurally (it panics on
        // uncovered nodes).
        let aig = random_aig(6, 40, seed);
        let Some(v) = aig.iter_ands().last() else {
            return Ok(());
        };
        let leaves = reconvergence_cut(&aig, v, 8);
        prop_assert!(leaves.len() <= 8);
        let mut cut = almost_aig::cut::Cut::trivial(leaves[0]);
        for &l in &leaves[1..] {
            cut = cut.merge(&almost_aig::cut::Cut::trivial(l), leaves.len()).expect("merges");
        }
        let tt = cut_function(&aig, v, &cut); // would panic if not a cut
        prop_assert!(tt.nvars() == leaves.len());
    }

    #[test]
    fn pass_pipelines_compose(seed in 0u64..100_000) {
        let aig = random_aig(7, 50, seed);
        let once = Pass::Rewrite.apply(&aig);
        let twice = Pass::Refactor.apply(&once);
        let thrice = Pass::Balance.apply(&twice);
        prop_assert!(probably_equivalent(&aig, &thrice, 8, seed ^ 2));
    }
}
