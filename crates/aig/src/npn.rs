//! NPN canonisation of small truth tables.
//!
//! Two functions are NPN-equivalent if one can be obtained from the other by
//! Negating inputs, Permuting inputs, and/or Negating the output. Canonising
//! cut functions lets the rewriting pass and the technology mapper treat all
//! 65 536 four-variable functions as 222 classes.

use crate::truth::Tt;

/// A concrete NPN transformation: apply input negations (`input_flips`),
/// then the permutation (`perm[i]` = which original variable feeds new
/// position `i`), then optional output negation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Bitmask of inputs complemented before permutation.
    pub input_flips: u32,
    /// Permutation applied after flipping.
    pub perm: Vec<usize>,
    /// Whether the output is complemented.
    pub output_flip: bool,
}

impl NpnTransform {
    /// The identity transformation over `nvars` variables.
    pub fn identity(nvars: usize) -> Self {
        NpnTransform {
            input_flips: 0,
            perm: (0..nvars).collect(),
            output_flip: false,
        }
    }

    /// Applies this transformation to a truth table.
    pub fn apply(&self, tt: &Tt) -> Tt {
        let mut t = *tt;
        for v in 0..t.nvars() {
            if self.input_flips >> v & 1 != 0 {
                t = t.flip_var(v);
            }
        }
        t = t.permute(&self.perm);
        if self.output_flip {
            t = t.not();
        }
        t
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, remaining: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            let v = remaining.remove(i);
            prefix.push(v);
            rec(prefix, remaining, out);
            prefix.pop();
            remaining.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

/// Canonises a truth table of up to 4 variables under NPN equivalence by
/// exhaustive search (at most 2·16·24 = 768 transforms).
///
/// Returns the canonical representative (the minimum table under word
/// ordering) and a transformation such that `transform.apply(tt) ==
/// canonical`. Transforms are tried with input flips outermost, then
/// permutations, then the output phase, and the first minimum wins.
///
/// # Panics
///
/// Panics if `tt` has more than 4 variables.
pub fn canonize(tt: &Tt) -> (Tt, NpnTransform) {
    let n = tt.nvars();
    assert!(
        n <= 4,
        "exhaustive NPN canonisation is limited to 4 variables"
    );
    let perms = permutations(n);
    // Each permutation is applied once, to the unflipped table: flipping
    // input `v` and then permuting equals permuting and then flipping the
    // position `i` with `perm[i] == v`.
    let permuted: Vec<Tt> = perms.iter().map(|perm| tt.permute(perm)).collect();
    let mut best: Option<(Tt, u32, usize, bool)> = None;
    for flips in 0..(1u32 << n) {
        for (p, perm) in perms.iter().enumerate() {
            let mut t = permuted[p];
            for (i, &v) in perm.iter().enumerate() {
                if flips >> v & 1 != 0 {
                    t = t.flip_var(i);
                }
            }
            for out_flip in [false, true] {
                let cand = if out_flip { t.not() } else { t };
                if best.is_none_or(|(b, ..)| cand.words() < b.words()) {
                    best = Some((cand, flips, p, out_flip));
                }
            }
        }
    }
    let (canon, input_flips, p, output_flip) =
        best.expect("at least the identity transform exists");
    let transform = NpnTransform {
        input_flips,
        perm: perms[p].clone(),
        output_flip,
    };
    (canon, transform)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_roundtrip() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c.not());
        let (canon, tr) = canonize(&f);
        assert_eq!(tr.apply(&f), canon);
    }

    #[test]
    fn npn_equivalent_functions_share_canon() {
        let a = Tt::var(0, 2);
        let b = Tt::var(1, 2);
        // AND, NOR, a&!b, !a&b, NAND, OR ... all NPN-equivalent to AND2.
        let funcs = [
            a.and(&b),
            a.not().and(&b.not()),
            a.and(&b.not()),
            a.not().and(&b),
            a.and(&b).not(),
            a.or(&b),
        ];
        let canon0 = canonize(&funcs[0]).0;
        for f in &funcs[1..] {
            assert_eq!(canonize(f).0, canon0);
        }
        // XOR is in a different class.
        assert_ne!(canonize(&a.xor(&b)).0, canon0);
    }

    #[test]
    fn four_var_class_count_is_plausible() {
        // Count NPN classes over a sample of 4-var functions; the classic
        // result is 222 classes over all 65536 functions. A random sample
        // must never produce more canonical forms than inputs and every
        // canonical form must be a fixed point.
        let mut classes = std::collections::HashSet::new();
        let mut seed = 1u64;
        for _ in 0..64 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let f = Tt::from_u64(4, seed >> 32);
            let (canon, _) = canonize(&f);
            let (canon2, _) = canonize(&canon);
            assert_eq!(canon, canon2, "canonisation must be idempotent");
            classes.insert(canon.words().to_vec());
        }
        assert!(classes.len() <= 64);
        assert!(classes.len() > 5, "random sample spans several classes");
    }

    /// The number of distinct canonical forms over all `nvars`-variable
    /// functions.
    fn class_count(nvars: usize) -> usize {
        let classes: std::collections::HashSet<Tt> = (0..1u64 << (1 << nvars))
            .map(|bits| canonize(&Tt::from_u64(nvars, bits)).0)
            .collect();
        classes.len()
    }

    #[test]
    fn three_var_functions_fall_into_14_classes() {
        assert_eq!(class_count(3), 14);
    }

    #[test]
    fn four_var_functions_fall_into_222_classes() {
        if cfg!(debug_assertions) {
            eprintln!("skipping the exhaustive 4-variable count: debug build (run with --release)");
            return;
        }
        assert_eq!(class_count(4), 222);
    }

    #[test]
    fn identity_transform_is_noop() {
        let f = Tt::from_u64(3, 0x5A);
        let id = NpnTransform::identity(3);
        assert_eq!(id.apply(&f), f);
    }
}
