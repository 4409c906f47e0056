//! Differential test of the truth-table resynthesis builder against the
//! test-side reference in `reference/mod.rs`.
//!
//! `Resynth` keeps a winning Shannon probe instead of rolling it back and
//! rebuilding it, and memoises covers and pivots across calls. Both are
//! only sound because the probe it keeps is node-for-node the structure
//! the reference rebuilds. This test checks exactly that: on random 2-8
//! variable tables built over random leaves of random pre-populated
//! graphs, one `Resynth` reused across a sequence of builds returns the
//! reference's literal and leaves the reference's node list after every
//! build.

mod reference;

use almost_aig::isop::Resynth;
use almost_aig::{Aig, Lit, NodeKind, Tt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A graph over `num_inputs` inputs with up to `num_ands` random ANDs,
/// and the literals of all its nodes.
fn random_dest(rng: &mut StdRng, num_inputs: usize, num_ands: usize) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
    for _ in 0..num_ands {
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
    (aig, pool)
}

/// A random product of literals over `nvars` variables.
fn random_cube(rng: &mut StdRng, nvars: usize) -> Tt {
    let mut cube = Tt::one(nvars);
    for v in 0..nvars {
        match rng.random_range(0..3u32) {
            0 => cube = cube.and(&Tt::var(v, nvars)),
            1 => cube = cube.and(&Tt::var(v, nvars).not()),
            _ => {}
        }
    }
    cube
}

/// A random table over `nvars` variables: uniformly random bits (wide
/// covers), a sum of a few random cubes (narrow covers, where sharing
/// decides), or full parity flipped on one random cube (at 8 variables,
/// both covers exceed the SOP limit, so the committed Shannon fallback
/// runs).
fn random_table(rng: &mut StdRng, nvars: usize) -> Tt {
    match rng.random_range(0..3u32) {
        0 => {
            let words = (0..(1usize << nvars).div_ceil(64))
                .map(|_| rng.random::<u64>())
                .collect();
            Tt::from_words(nvars, words)
        }
        1 => (0..rng.random_range(1..6usize))
            .fold(Tt::zero(nvars), |acc, _| acc.or(&random_cube(rng, nvars))),
        _ => (0..nvars).fold(random_cube(rng, nvars), |acc, v| {
            acc.xor(&Tt::var(v, nvars))
        }),
    }
}

fn node_list(aig: &Aig) -> Vec<NodeKind> {
    (0..aig.num_nodes() as u32).map(|v| aig.node(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn resynth_matches_the_reference_builder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nvars = rng.random_range(2..9usize);
        let num_inputs = rng.random_range(nvars..nvars + 4);
        let num_ands = rng.random_range(0..40usize);
        let (mut expected, pool) = random_dest(&mut rng, num_inputs, num_ands);
        let mut actual = expected.clone();
        let mut resynth = Resynth::default();
        let mut tables: Vec<Tt> = Vec::new();
        for step in 0..rng.random_range(1..5usize) {
            // Revisit earlier tables (as is, complemented, or a cofactor)
            // so later builds hit the memo under a different `dest`.
            let tt = match (tables.len(), rng.random_range(0..4u32)) {
                (0, _) | (_, 0) => random_table(&mut rng, nvars),
                (n, 1) => tables[rng.random_range(0..n)],
                (n, 2) => tables[rng.random_range(0..n)].not(),
                (n, _) => tables[rng.random_range(0..n)].cofactor1(rng.random_range(0..nvars)),
            };
            let leaves: Vec<Lit> = (0..nvars)
                .map(|_| pool[rng.random_range(0..pool.len())].xor_complement(rng.random()))
                .collect();
            let want = reference::build_from_tt(&mut expected, &tt, &leaves);
            let got = resynth.build(&mut actual, &tt, &leaves);
            prop_assert_eq!(got, want, "step {}: root literal", step);
            prop_assert_eq!(node_list(&actual), node_list(&expected), "step {}: node list", step);
            tables.push(tt);
        }
    }
}
