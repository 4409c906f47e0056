//! Differential test for [`Tt`]: every operation is checked against a
//! plain `Vec<bool>` reference over 0..=8 variables. Equal functions
//! reached through different operation sequences must also compare and
//! hash equal, which pins the invariant that bits beyond `2^nvars` stay
//! zero.

use almost_aig::cut::{CutConfig, CutSet};
use almost_aig::{Aig, Tt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The reference table: entry `i` is the value on input assignment `i`.
type Bits = Vec<bool>;

fn random_bits(rng: &mut StdRng, nvars: usize) -> Bits {
    (0..1usize << nvars).map(|_| rng.random()).collect()
}

/// Builds a table bit by bit with `set_bit`.
fn from_bits(nvars: usize, bits: &[bool]) -> Tt {
    let mut tt = Tt::zero(nvars);
    for (i, &b) in bits.iter().enumerate() {
        tt.set_bit(i, b);
    }
    tt
}

/// Builds a table from packed words with `from_words`.
fn from_packed(nvars: usize, bits: &[bool]) -> Tt {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        words[i / 64] |= (b as u64) << (i % 64);
    }
    Tt::from_words(nvars, words)
}

fn bits_of(tt: &Tt) -> Bits {
    (0..tt.num_bits()).map(|i| tt.get_bit(i)).collect()
}

fn map_bits(n: usize, f: impl Fn(usize) -> bool) -> Bits {
    (0..n).map(f).collect()
}

fn hash_of(tt: &Tt) -> u64 {
    let mut h = DefaultHasher::new();
    tt.hash(&mut h);
    h.finish()
}

/// Equal as functions, so equal and equally hashed as values.
fn same(a: &Tt, b: &Tt) -> bool {
    a == b && hash_of(a) == hash_of(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_op_matches_the_bool_reference(nvars in 0usize..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << nvars;
        let fb = random_bits(&mut rng, nvars);
        let gb = random_bits(&mut rng, nvars);
        let f = from_bits(nvars, &fb);
        let g = from_bits(nvars, &gb);

        prop_assert_eq!(f.nvars(), nvars);
        prop_assert_eq!(f.num_bits(), n);
        prop_assert_eq!(f.words().len(), n.div_ceil(64));
        prop_assert!(same(&f, &from_packed(nvars, &fb)));
        prop_assert_eq!(bits_of(&f), fb.clone());
        prop_assert_eq!(f.count_ones() as usize, fb.iter().filter(|&&b| b).count());
        prop_assert_eq!(f.is_zero(), fb.iter().all(|&b| !b));
        prop_assert_eq!(f.is_one(), fb.iter().all(|&b| b));

        prop_assert_eq!(bits_of(&f.not()), map_bits(n, |i| !fb[i]));
        prop_assert_eq!(bits_of(&f.and(&g)), map_bits(n, |i| fb[i] && gb[i]));
        prop_assert_eq!(bits_of(&f.or(&g)), map_bits(n, |i| fb[i] || gb[i]));
        prop_assert_eq!(bits_of(&f.xor(&g)), map_bits(n, |i| fb[i] != gb[i]));

        let mut support = Vec::new();
        for v in 0..nvars {
            let bit = 1usize << v;
            prop_assert_eq!(bits_of(&f.cofactor0(v)), map_bits(n, |i| fb[i & !bit]));
            prop_assert_eq!(bits_of(&f.cofactor1(v)), map_bits(n, |i| fb[i | bit]));
            prop_assert_eq!(bits_of(&f.flip_var(v)), map_bits(n, |i| fb[i ^ bit]));
            let depends = (0..n).any(|i| fb[i] != fb[i ^ bit]);
            prop_assert_eq!(f.depends_on(v), depends);
            if depends {
                support.push(v);
            }
            prop_assert_eq!(bits_of(&Tt::var(v, nvars)), map_bits(n, |i| i & bit != 0));
        }
        prop_assert_eq!(f.support(), support);

        if nvars >= 1 {
            let a = rng.random_range(0..nvars);
            let b = rng.random_range(0..nvars);
            let swap = |i: usize| {
                let (ba, bb) = (i >> a & 1, i >> b & 1);
                i & !(1 << a) & !(1 << b) | ba << b | bb << a
            };
            prop_assert_eq!(bits_of(&f.swap_vars(a, b)), map_bits(n, |i| fb[swap(i)]));
        }

        // Output variable `k` takes the role of input variable `perm[k]`.
        let mut perm: Vec<usize> = (0..nvars).collect();
        for k in (1..nvars).rev() {
            perm.swap(k, rng.random_range(0..=k));
        }
        let source = |j: usize| {
            perm.iter()
                .enumerate()
                .fold(0usize, |idx, (k, &old)| idx | (j >> k & 1) << old)
        };
        prop_assert_eq!(bits_of(&f.permute(&perm)), map_bits(n, |j| fb[source(j)]));

        let wider = rng.random_range(nvars..9);
        prop_assert_eq!(
            bits_of(&f.extend_to(wider)),
            map_bits(1 << wider, |i| fb[i % n])
        );

        let i = rng.random_range(0..n);
        let mut h = f;
        h.set_bit(i, !fb[i]);
        prop_assert_eq!(h.get_bit(i), !fb[i]);
        h.set_bit(i, fb[i]);
        prop_assert!(same(&h, &f));
    }

    #[test]
    fn equal_functions_compare_and_hash_equal(nvars in 0usize..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = from_bits(nvars, &random_bits(&mut rng, nvars));
        let g = from_bits(nvars, &random_bits(&mut rng, nvars));

        prop_assert!(same(&f.not().not(), &f));
        prop_assert!(same(&f.and(&g), &g.and(&f)));
        prop_assert!(same(&f.xor(&g).xor(&g), &f));
        prop_assert!(same(&f.or(&g).not(), &f.not().and(&g.not())));
        prop_assert!(same(&f.and(&Tt::one(nvars)), &f));
        prop_assert!(same(&f.or(&f.not()), &Tt::one(nvars)));
        prop_assert!(same(&f.and(&f.not()), &Tt::zero(nvars)));
        prop_assert!(same(&Tt::zero(nvars).not(), &Tt::one(nvars)));
        prop_assert!(same(&f.extend_to(nvars), &f));
        for v in 0..nvars {
            let x = Tt::var(v, nvars);
            let shannon = x.and(&f.cofactor1(v)).or(&x.not().and(&f.cofactor0(v)));
            prop_assert!(same(&shannon, &f));
            prop_assert!(same(&f.flip_var(v).flip_var(v), &f));
            let w = rng.random_range(0..nvars);
            prop_assert!(same(&f.swap_vars(v, w).swap_vars(v, w), &f));
        }
        let wider = rng.random_range(nvars..9);
        let extended = f.extend_to(wider);
        prop_assert!(same(&extended, &from_bits(wider, &bits_of(&extended))));
        prop_assert!(same(&extended.not(), &f.not().extend_to(wider)));
    }
}

#[test]
#[should_panic(expected = "cut width")]
fn cut_enumeration_refuses_more_than_eight_leaves() {
    let _ = CutSet::compute(&Aig::new(), CutConfig { k: 9, max_cuts: 8 });
}
