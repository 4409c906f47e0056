//! Truth tables over up to 8 variables, stored inline as four bit-parallel
//! `u64` words.
//!
//! Truth tables are the workhorse of cut-based synthesis: a cut's function is
//! computed by simulating the cone over the elementary variable tables, then
//! canonised ([NPN](crate::npn)), matched, or re-synthesised
//! ([ISOP](crate::isop)). Every caller stays within 8 variables (cuts are 4
//! wide, `refactor` and `resub` windows 8, library cells at most 4), so a
//! table is a fixed 256-bit value: [`Tt`] is `Copy` and no operation
//! allocates.

use std::fmt;

/// Maximum number of variables supported by [`Tt`].
pub const MAX_VARS: usize = 8;

/// Words backing every table: 2^8 bits.
const WORDS: usize = 1 << (MAX_VARS - 6);

const MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth table over `nvars` variables.
///
/// Bit `i` of the table is the function value for the input assignment whose
/// binary encoding is `i` (variable 0 is the least significant).
///
/// Bits beyond `2^nvars` (the high bits of a sub-6-variable word and the
/// words a small table does not use) are always zero, so the derived `Eq`
/// and `Hash` compare functions, not storage.
///
/// # Example
///
/// ```
/// use almost_aig::Tt;
/// let a = Tt::var(0, 2);
/// let b = Tt::var(1, 2);
/// let f = a.and(&b);
/// assert_eq!(f.count_ones(), 1);
/// assert!(f.get_bit(0b11));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tt {
    nvars: usize,
    words: [u64; WORDS],
}

fn words_for(nvars: usize) -> usize {
    if nvars <= 6 {
        1
    } else {
        1 << (nvars - 6)
    }
}

/// Mask selecting the valid bits of the (single) word of a small table.
fn small_mask(nvars: usize) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << nvars)) - 1
    }
}

impl Tt {
    /// The constant-false table over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 8` ([`MAX_VARS`]).
    pub fn zero(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        Tt {
            nvars,
            words: [0; WORDS],
        }
    }

    /// The constant-true table over `nvars` variables.
    pub fn one(nvars: usize) -> Self {
        let mut tt = Tt::zero(nvars);
        tt.used_mut().fill(u64::MAX);
        tt.mask();
        tt
    }

    /// The projection function for variable `var` over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars` or `nvars > 8`.
    pub fn var(var: usize, nvars: usize) -> Self {
        assert!(var < nvars, "variable {var} out of range for {nvars} vars");
        let mut tt = Tt::zero(nvars);
        if var < 6 {
            tt.used_mut().fill(MASKS[var]);
        } else {
            let stride = 1 << (var - 6);
            for (i, w) in tt.used_mut().iter_mut().enumerate() {
                if i & stride != 0 {
                    *w = u64::MAX;
                }
            }
        }
        tt.mask();
        tt
    }

    /// Builds a table from raw words.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 8` or `words.len()` does not match the word count
    /// for `nvars`.
    pub fn from_words(nvars: usize, words: Vec<u64>) -> Self {
        let mut tt = Tt::zero(nvars);
        assert_eq!(words.len(), words_for(nvars));
        tt.used_mut().copy_from_slice(&words);
        tt.mask();
        tt
    }

    /// Builds a ≤6-variable table from a single word.
    pub fn from_u64(nvars: usize, word: u64) -> Self {
        assert!(nvars <= 6);
        let mut tt = Tt::zero(nvars);
        tt.words[0] = word;
        tt.mask();
        tt
    }

    fn mask(&mut self) {
        self.words[0] &= small_mask(self.nvars);
    }

    fn used_mut(&mut self) -> &mut [u64] {
        let n = words_for(self.nvars);
        &mut self.words[..n]
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The underlying words (one per 64 input assignments, at least one).
    pub fn words(&self) -> &[u64] {
        &self.words[..words_for(self.nvars)]
    }

    /// For tables of ≤6 variables, the single backing word.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 6 variables.
    pub fn as_u64(&self) -> u64 {
        assert!(self.nvars <= 6);
        self.words[0]
    }

    /// Reads the function value for input assignment `index`.
    #[inline]
    pub fn get_bit(&self, index: usize) -> bool {
        (self.words[index >> 6] >> (index & 63)) & 1 != 0
    }

    /// Sets the function value for input assignment `index`.
    #[inline]
    pub fn set_bit(&mut self, index: usize, value: bool) {
        debug_assert!(index < self.num_bits(), "bit {index} out of range");
        if value {
            self.words[index >> 6] |= 1 << (index & 63);
        } else {
            self.words[index >> 6] &= !(1 << (index & 63));
        }
    }

    /// Number of input assignments (2^nvars).
    pub fn num_bits(&self) -> usize {
        1 << self.nvars
    }

    /// Number of minterms (assignments mapped to true).
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Returns true if the table is constant false.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words == [0; WORDS]
    }

    /// Returns true if the table is constant true.
    pub fn is_one(&self) -> bool {
        *self == Tt::one(self.nvars)
    }

    /// Bitwise complement.
    #[inline]
    pub fn not(&self) -> Tt {
        let mut out = *self;
        for w in out.used_mut() {
            *w = !*w;
        }
        out.mask();
        out
    }

    /// Bitwise AND with another table over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    #[inline]
    pub fn and(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    #[inline]
    pub fn or(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    #[inline]
    pub fn xor(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a ^ b)
    }

    /// Applies `op` word by word. Every operation used here maps two zero
    /// bits to zero, so bits beyond `2^nvars` stay zero without masking.
    #[inline]
    fn zip(&self, other: &Tt, op: impl Fn(u64, u64) -> u64) -> Tt {
        assert_eq!(self.nvars, other.nvars, "variable counts differ");
        Tt {
            nvars: self.nvars,
            words: std::array::from_fn(|i| op(self.words[i], other.words[i])),
        }
    }

    /// Positive cofactor: the function with `var` fixed to 1 (the result
    /// still ranges over the same variable set, with `var` redundant).
    #[inline]
    pub fn cofactor1(&self, var: usize) -> Tt {
        assert!(var < self.nvars);
        let mut out = *self;
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut out.words {
                let hi = *w & MASKS[var];
                *w = hi | (hi >> shift);
            }
        } else {
            let stride = 1 << (var - 6);
            for (i, w) in out.used_mut().iter_mut().enumerate() {
                if i & stride == 0 {
                    *w = self.words[i + stride];
                }
            }
        }
        out
    }

    /// Negative cofactor: the function with `var` fixed to 0.
    #[inline]
    pub fn cofactor0(&self, var: usize) -> Tt {
        assert!(var < self.nvars);
        let mut out = *self;
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut out.words {
                let lo = *w & !MASKS[var];
                *w = lo | (lo << shift);
            }
        } else {
            let stride = 1 << (var - 6);
            for (i, w) in out.used_mut().iter_mut().enumerate() {
                if i & stride != 0 {
                    *w = self.words[i - stride];
                }
            }
        }
        out
    }

    /// Returns true if the function depends on `var`.
    #[inline]
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.nvars);
        if var < 6 {
            // Compare each var = 0 bit with its var = 1 partner.
            let shift = 1usize << var;
            self.words
                .iter()
                .any(|&w| (w ^ (w >> shift)) & !MASKS[var] != 0)
        } else {
            let stride = 1 << (var - 6);
            let words = self.words();
            (0..words.len())
                .filter(|i| i & stride == 0)
                .any(|i| words[i] != words[i + stride])
        }
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nvars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Swaps two variables of the function.
    pub fn swap_vars(&self, a: usize, b: usize) -> Tt {
        if a == b {
            return *self;
        }
        let ta = Tt::var(a, self.nvars);
        let tb = Tt::var(b, self.nvars);
        // f' = (f with a=1,b=1 on a&b) | ... via cofactor recomposition.
        let f11 = self.cofactor1(a).cofactor1(b);
        let f10 = self.cofactor1(a).cofactor0(b);
        let f01 = self.cofactor0(a).cofactor1(b);
        let f00 = self.cofactor0(a).cofactor0(b);
        // After swapping, (a,b) plays the role of (b,a).
        let mut out = Tt::zero(self.nvars);
        out = out.or(&ta.and(&tb).and(&f11));
        out = out.or(&ta.and(&tb.not()).and(&f01));
        out = out.or(&ta.not().and(&tb).and(&f10));
        out = out.or(&ta.not().and(&tb.not()).and(&f00));
        out
    }

    /// Flips (complements) one input variable of the function.
    pub fn flip_var(&self, var: usize) -> Tt {
        assert!(var < self.nvars);
        let mut out = *self;
        if var < 6 {
            // Exchange every var = 0 bit with its var = 1 partner.
            let shift = 1usize << var;
            for w in &mut out.words {
                *w = (*w & MASKS[var]) >> shift | (*w & !MASKS[var]) << shift;
            }
        } else {
            let stride = 1 << (var - 6);
            for (i, w) in out.used_mut().iter_mut().enumerate() {
                *w = self.words[i ^ stride];
            }
        }
        out
    }

    /// Applies an input permutation: output variable `i` takes the role of
    /// input variable `perm[i]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn permute(&self, perm: &[usize]) -> Tt {
        assert_eq!(perm.len(), self.nvars);
        let mut out = Tt::zero(self.nvars);
        for idx in 0..self.num_bits() {
            if self.get_bit(idx) {
                let mut new_idx = 0usize;
                for (new_var, &old_var) in perm.iter().enumerate() {
                    if (idx >> old_var) & 1 != 0 {
                        new_idx |= 1 << new_var;
                    }
                }
                out.set_bit(new_idx, true);
            }
        }
        out
    }

    /// Extends the table to `nvars` variables (the new variables are
    /// redundant).
    ///
    /// # Panics
    ///
    /// Panics if `nvars` is smaller than the current variable count.
    pub fn extend_to(&self, nvars: usize) -> Tt {
        assert!(nvars >= self.nvars);
        if nvars == self.nvars {
            return *self;
        }
        let mut out = Tt::zero(nvars);
        let self_bits = self.num_bits();
        for idx in 0..out.num_bits() {
            if self.get_bit(idx % self_bits) {
                out.set_bit(idx, true);
            }
        }
        out
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt({}v,", self.nvars)?;
        for w in self.words().iter().rev() {
            write!(f, " {w:016x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementary_variables() {
        for nvars in 1..=8 {
            for v in 0..nvars {
                let tt = Tt::var(v, nvars);
                for idx in 0..tt.num_bits() {
                    assert_eq!(tt.get_bit(idx), (idx >> v) & 1 != 0, "v={v} idx={idx}");
                }
            }
        }
    }

    #[test]
    fn constants() {
        let z = Tt::zero(4);
        let o = Tt::one(4);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 16);
        assert_eq!(z.not(), o);
    }

    #[test]
    fn small_tables_stay_masked() {
        let o = Tt::one(2);
        assert_eq!(o.as_u64(), 0xF);
        let a = Tt::var(0, 1);
        assert_eq!(a.as_u64(), 0b10);
        assert_eq!(a.not().as_u64(), 0b01);
    }

    #[test]
    fn boolean_ops() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c.not());
        for idx in 0..8 {
            let (va, vb, vc) = (idx & 1 != 0, idx & 2 != 0, idx & 4 != 0);
            assert_eq!(f.get_bit(idx), (va && vb) || !vc);
        }
    }

    #[test]
    fn cofactors_small() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let f = a.xor(&b);
        assert_eq!(f.cofactor0(0), b);
        assert_eq!(f.cofactor1(0), b.not());
        assert!(!f.depends_on(2));
        assert_eq!(f.support(), vec![0, 1]);
    }

    #[test]
    fn cofactors_large() {
        // 8-variable table: f = x7 XOR x0.
        let a = Tt::var(0, 8);
        let h = Tt::var(7, 8);
        let f = a.xor(&h);
        assert_eq!(f.cofactor0(7), a);
        assert_eq!(f.cofactor1(7), a.not());
        assert_eq!(f.cofactor0(0), h);
        assert!(f.depends_on(7));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn swap_and_flip() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let f = a.and(&b.not());
        let g = f.swap_vars(0, 1);
        assert_eq!(g, b.and(&a.not()));
        let h = f.flip_var(1);
        assert_eq!(h, a.and(&b));
    }

    #[test]
    fn permute_matches_definition() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c);
        let perm = [1usize, 2, 0];
        let g = f.permute(&perm);
        // g(new_idx) = f(idx) where new_idx bit i = idx bit perm[i].
        for idx in 0..8usize {
            let mut new_idx = 0usize;
            for (new_var, &old_var) in perm.iter().enumerate() {
                if (idx >> old_var) & 1 != 0 {
                    new_idx |= 1 << new_var;
                }
            }
            assert_eq!(g.get_bit(new_idx), f.get_bit(idx), "idx={idx}");
        }
        // A swap expressed as a permutation equals swap_vars.
        let swap = f.permute(&[1, 0, 2]);
        assert_eq!(swap, f.swap_vars(0, 1));
    }

    #[test]
    #[should_panic(expected = "at most 8 variables")]
    fn nine_variables_are_refused() {
        let _ = Tt::zero(9);
    }

    #[test]
    #[should_panic(expected = "at most 8 variables")]
    fn nine_variable_words_are_refused() {
        let _ = Tt::from_words(9, vec![0; 8]);
    }

    #[test]
    fn extend_keeps_function() {
        let a = Tt::var(0, 2);
        let b = Tt::var(1, 2);
        let f = a.xor(&b);
        let g = f.extend_to(4);
        for idx in 0..16 {
            assert_eq!(g.get_bit(idx), f.get_bit(idx & 3));
        }
        assert!(!g.depends_on(2));
        assert!(!g.depends_on(3));
    }
}
