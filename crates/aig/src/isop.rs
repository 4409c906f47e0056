//! Irredundant sum-of-products extraction (Minato–Morreale ISOP) and
//! SOP-based AIG re-synthesis.
//!
//! Given a truth table, [`isop`] computes an irredundant cube cover, and
//! [`build_sop`] turns a cover back into AIG structure. [`Resynth`] is the
//! re-synthesis engine behind the `rewrite` and `refactor` passes: it
//! picks the cheapest of two SOP candidates and a Shannon decomposition by
//! probing each through the structural hash of the graph being built. It
//! probes each candidate once, keeps a winning Shannon probe instead of
//! rebuilding it, and memoises everything that depends on the truth table
//! alone for the lifetime of one pass call (see [`Resynth`]).

use crate::aig::{Aig, Lit};
use crate::fxhash::FxHashMap;
use crate::truth::Tt;

/// A product term over the variables of a truth table.
///
/// Bit `i` of `pos` means variable `i` appears positively; bit `i` of `neg`
/// means it appears negated. The two masks are disjoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    /// Positive-literal mask.
    pub pos: u32,
    /// Negative-literal mask.
    pub neg: u32,
}

impl Cube {
    /// The universal cube (no literals).
    pub const UNIVERSE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_literals(self) -> u32 {
        self.pos.count_ones() + self.neg.count_ones()
    }

    /// Evaluates the cube on an input assignment given as a bit vector.
    pub fn eval(self, assignment: u32) -> bool {
        (assignment & self.pos) == self.pos && (assignment & self.neg) == 0
    }

    /// The cube's characteristic function as a truth table.
    pub fn to_tt(self, nvars: usize) -> Tt {
        let mut t = Tt::one(nvars);
        for v in 0..nvars {
            if self.pos >> v & 1 != 0 {
                t = t.and(&Tt::var(v, nvars));
            } else if self.neg >> v & 1 != 0 {
                t = t.and(&Tt::var(v, nvars).not());
            }
        }
        t
    }
}

/// Computes an irredundant sum-of-products cover of `f` (no don't-cares).
///
/// Returns the list of cubes; ORing [`Cube::to_tt`] over them reproduces `f`
/// exactly (checked in tests and by `debug_assert!`).
pub fn isop(f: &Tt) -> Vec<Cube> {
    let mut cubes = Vec::new();
    isop_into(f, &mut cubes);
    cubes
}

/// Appends the cubes of [`isop`]`(f)` to `out`, in the same order.
fn isop_into(f: &Tt, out: &mut Vec<Cube>) {
    let cover = isop_rec(f, f, f.nvars(), out);
    debug_assert_eq!(&cover, f, "ISOP cover must equal the function");
}

/// Minato–Morreale recursion: appends the cubes of a cover F with
/// `lower ⊆ F ⊆ upper` to `out` and returns F.
fn isop_rec(lower: &Tt, upper: &Tt, top: usize, out: &mut Vec<Cube>) -> Tt {
    let nvars = lower.nvars();
    if lower.is_zero() {
        return Tt::zero(nvars);
    }
    if upper.is_one() {
        out.push(Cube::UNIVERSE);
        return Tt::one(nvars);
    }
    // Find the topmost variable either bound depends on.
    let Some(var) = (0..top)
        .rev()
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
    else {
        // Neither depends on remaining variables; lower is nonzero and
        // constant over them, so the universe cube is the cover.
        out.push(Cube::UNIVERSE);
        return Tt::one(nvars);
    };

    let l0 = lower.cofactor0(var);
    let l1 = lower.cofactor1(var);
    let u0 = upper.cofactor0(var);
    let u1 = upper.cofactor1(var);

    // Minterms that can only be covered in the var=0 branch.
    let start = out.len();
    let f0 = isop_rec(&l0.and(&u1.not()), &u0, var, out);
    for c in &mut out[start..] {
        c.neg |= 1 << var;
    }
    // Minterms that can only be covered in the var=1 branch.
    let mid = out.len();
    let f1 = isop_rec(&l1.and(&u0.not()), &u1, var, out);
    for c in &mut out[mid..] {
        c.pos |= 1 << var;
    }
    // Remaining minterms, coverable without the variable.
    let lnew = l0.and(&f0.not()).or(&l1.and(&f1.not()));
    let f2 = isop_rec(&lnew, &u0.and(&u1), var, out);

    let tv = Tt::var(var, nvars);
    f2.or(&tv.not().and(&f0)).or(&tv.and(&f1))
}

/// Builds an AIG structure computing the SOP `cubes` over the given leaf
/// literals and returns the root literal.
///
/// Construction goes through the structural hash of `dest`, so shared logic
/// is reused for free.
pub fn build_sop(dest: &mut Aig, cubes: &[Cube], leaves: &[Lit]) -> Lit {
    let mut terms = Vec::with_capacity(cubes.len());
    // A cube's literal masks are `u32`s, so it has at most 32 literals.
    let mut lits = [Lit::FALSE; 32];
    for cube in cubes {
        let mut n = 0;
        for (v, &leaf) in leaves.iter().enumerate() {
            if cube.pos >> v & 1 != 0 {
                lits[n] = leaf;
                n += 1;
            } else if cube.neg >> v & 1 != 0 {
                lits[n] = !leaf;
                n += 1;
            }
        }
        terms.push(dest.and_many(&lits[..n]));
    }
    dest.or_many(&terms)
}

/// Covers wider than this many cubes (in both polarities) are never built
/// as SOPs, which would explode (e.g. parity); such functions take a
/// committed Shannon decomposition instead.
const MAX_CUBES: usize = 96;

/// Shannon decomposition is probed as a third candidate only up to this
/// many variables, to bound the probing recursion.
const MAX_SHANNON_PROBE_VARS: usize = 5;

/// How [`Resynth::build`] realises one truth table. Depends on the table
/// alone, so it is computed once per distinct table and memoised.
#[derive(Clone, Copy, Debug)]
enum Plan {
    /// A constant function.
    Const(Lit),
    /// A single (possibly complemented) variable: `leaves[var]`, xor the
    /// flag.
    Leaf(usize, bool),
    /// Both covers exceed [`MAX_CUBES`]: commit a Shannon decomposition.
    Wide(Shannon),
    /// Probe the ISOP of the table and of its complement (cube ranges into
    /// [`Resynth::cubes`]) and, if set, a Shannon decomposition.
    Probe {
        pos: (u32, u32),
        neg: (u32, u32),
        shannon: Option<Shannon>,
    },
}

/// A Shannon decomposition: the pivot variable and the plan ids of the
/// cofactor tables (`var = 0` first).
#[derive(Clone, Copy, Debug)]
struct Shannon {
    var: usize,
    cofactors: [u32; 2],
}

/// Truth-table resynthesis context: builds an AIG computing a truth table
/// over given leaf literals, choosing the cheapest of three candidates
/// measured in AND nodes actually added to `dest`:
///
/// 1. the ISOP of `tt`;
/// 2. the ISOP of `!tt`, complemented;
/// 3. for functions of at most five variables, a Shannon decomposition on
///    the most binate variable, its cofactors built recursively the same
///    way.
///
/// Ties go to the earlier candidate. When both covers exceed 96 cubes,
/// the Shannon decomposition is committed without probing. This is the
/// re-synthesis engine behind the `rewrite` and `refactor` passes; each
/// pass call owns one context.
///
/// # Probe-once contract
///
/// Each candidate is *probed*: built into `dest` through its structural
/// hash, which is the only way to learn its cost under the sharing `dest`
/// already offers. A losing probe is undone with [`Aig::rollback`], which
/// restores the exact construction state. The candidates are probed in
/// the order above, and a probe that is known to win when it finishes is
/// kept: one that adds no node (nothing can be strictly cheaper), the
/// complemented cover when no Shannon candidate follows it, and Shannon,
/// which is probed last. Any other SOP winner is rebuilt (a cheap,
/// non-recursive build that reproduces the probe node for node). A
/// recursive Shannon subtree is therefore built once per probe of its
/// root, not once more for every level at which Shannon wins, which made
/// the cost grow as 4^depth instead of 2^depth. Callers follow the same
/// rule one level up: probe with [`Resynth::build`], keep the nodes if the
/// result is accepted, and roll back otherwise.
///
/// What depends on the table alone is computed once per distinct table
/// and memoised for the context's lifetime: the degenerate cases, both
/// covers, the Shannon pivot and the plans of its cofactors. Node costs
/// are never memoised: they depend on the sharing in `dest`.
///
/// # Example
///
/// ```
/// use almost_aig::isop::Resynth;
/// use almost_aig::{Aig, Lit, Tt};
/// let mut aig = Aig::new();
/// let leaves: Vec<Lit> = (0..3).map(|_| aig.add_input()).collect();
/// let maj = Tt::from_u64(3, 0b1110_1000);
/// let root = Resynth::default().build(&mut aig, &maj, &leaves);
/// aig.add_output(root);
/// assert_eq!(aig.eval(&[true, true, false]), vec![true]);
/// assert_eq!(aig.eval(&[false, false, true]), vec![false]);
/// ```
#[derive(Default)]
pub struct Resynth {
    /// Plan id of every table seen so far.
    ids: FxHashMap<Tt, u32>,
    plans: Vec<Plan>,
    /// Arena holding every memoised cover; plans index into it.
    cubes: Vec<Cube>,
}

impl Resynth {
    /// Builds an AIG computing `tt` over `leaves` into `dest` and returns
    /// its root literal. See the [type documentation](Resynth) for the
    /// candidates and the probe-once contract.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len() != tt.nvars()`.
    pub fn build(&mut self, dest: &mut Aig, tt: &Tt, leaves: &[Lit]) -> Lit {
        assert_eq!(leaves.len(), tt.nvars(), "leaf count must match variables");
        let id = self.plan_id(tt);
        self.build_plan(dest, id, leaves)
    }

    fn build_plan(&self, dest: &mut Aig, id: u32, leaves: &[Lit]) -> Lit {
        match self.plans[id as usize] {
            Plan::Const(lit) => lit,
            Plan::Leaf(v, complement) => leaves[v].xor_complement(complement),
            Plan::Wide(shannon) => self.build_shannon(dest, shannon, leaves),
            Plan::Probe { pos, neg, shannon } => {
                // A probe that wins is kept instead of being rebuilt, and
                // a probe that adds no node wins outright: every other
                // candidate has to be strictly cheaper.
                let cp = dest.checkpoint();
                let lit_pos = build_sop(dest, self.cover(pos), leaves);
                let cost_pos = dest.checkpoint() - cp;
                if cost_pos == 0 {
                    return lit_pos;
                }
                dest.rollback(cp);
                let lit_neg = !build_sop(dest, self.cover(neg), leaves);
                let cost_neg = dest.checkpoint() - cp;
                if cost_neg < cost_pos && (cost_neg == 0 || shannon.is_none()) {
                    return lit_neg;
                }
                dest.rollback(cp);
                if let Some(shannon) = shannon {
                    let lit = self.build_shannon(dest, shannon, leaves);
                    let cost = dest.checkpoint() - cp;
                    if cost < cost_pos && cost < cost_neg {
                        return lit;
                    }
                    dest.rollback(cp);
                }
                if cost_pos <= cost_neg {
                    build_sop(dest, self.cover(pos), leaves)
                } else {
                    !build_sop(dest, self.cover(neg), leaves)
                }
            }
        }
    }

    /// `leaves[var] ? f|var=1 : f|var=0`, cofactor 0 built first.
    fn build_shannon(&self, dest: &mut Aig, shannon: Shannon, leaves: &[Lit]) -> Lit {
        let [c0, c1] = shannon.cofactors;
        let l0 = self.build_plan(dest, c0, leaves);
        let l1 = self.build_plan(dest, c1, leaves);
        dest.mux(leaves[shannon.var], l1, l0)
    }

    fn cover(&self, (start, end): (u32, u32)) -> &[Cube] {
        &self.cubes[start as usize..end as usize]
    }

    /// The id of the memoised plan for `tt`, planned on first sight
    /// together with every cofactor its Shannon decomposition needs.
    fn plan_id(&mut self, tt: &Tt) -> u32 {
        if let Some(&id) = self.ids.get(tt) {
            return id;
        }
        let plan = self.make_plan(tt);
        let id = self.plans.len() as u32;
        self.plans.push(plan);
        self.ids.insert(*tt, id);
        id
    }

    fn make_plan(&mut self, tt: &Tt) -> Plan {
        let nvars = tt.nvars();
        if tt.is_zero() {
            return Plan::Const(Lit::FALSE);
        }
        if tt.is_one() {
            return Plan::Const(Lit::TRUE);
        }
        let not_tt = tt.not();
        for v in 0..nvars {
            let var = Tt::var(v, nvars);
            if &var == tt {
                return Plan::Leaf(v, false);
            }
            if var == not_tt {
                return Plan::Leaf(v, true);
            }
        }
        // Both covers go straight into the arena; a Wide plan drops them.
        let start = self.cubes.len();
        isop_into(tt, &mut self.cubes);
        let mid = self.cubes.len();
        isop_into(&not_tt, &mut self.cubes);
        let end = self.cubes.len();
        if (mid - start).min(end - mid) > MAX_CUBES {
            self.cubes.truncate(start);
            let var = most_binate_var(tt).expect("non-degenerate function has support");
            return Plan::Wide(self.shannon(tt, var));
        }
        let pos = (start as u32, mid as u32);
        let neg = (mid as u32, end as u32);
        let shannon = if nvars <= MAX_SHANNON_PROBE_VARS {
            most_binate_var(tt).map(|var| self.shannon(tt, var))
        } else {
            None
        };
        Plan::Probe { pos, neg, shannon }
    }

    fn shannon(&mut self, tt: &Tt, var: usize) -> Shannon {
        let c0 = self.plan_id(&tt.cofactor0(var));
        let c1 = self.plan_id(&tt.cofactor1(var));
        Shannon {
            var,
            cofactors: [c0, c1],
        }
    }
}

/// Picks the variable on which the function is "most binate" (both cofactors
/// differ most from each other), a good Shannon pivot.
fn most_binate_var(tt: &Tt) -> Option<usize> {
    let mut best = None;
    let mut best_score = 0u32;
    for v in 0..tt.nvars() {
        if !tt.depends_on(v) {
            continue;
        }
        let diff = tt.cofactor0(v).xor(&tt.cofactor1(v)).count_ones();
        if best.is_none() || diff > best_score {
            best = Some(v);
            best_score = diff;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_tt(cubes: &[Cube], nvars: usize) -> Tt {
        cubes
            .iter()
            .fold(Tt::zero(nvars), |acc, c| acc.or(&c.to_tt(nvars)))
    }

    #[test]
    fn isop_covers_exactly() {
        // Exhaustive over all 3-variable functions.
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let cubes = isop(&f);
            assert_eq!(cover_tt(&cubes, 3), f, "f={bits:02x}");
        }
    }

    #[test]
    fn isop_of_xor_has_expected_cubes() {
        let a = Tt::var(0, 2);
        let b = Tt::var(1, 2);
        let f = a.xor(&b);
        let cubes = isop(&f);
        assert_eq!(cubes.len(), 2);
        assert!(cubes.iter().all(|c| c.num_literals() == 2));
    }

    #[test]
    fn cube_eval() {
        let c = Cube {
            pos: 0b01,
            neg: 0b10,
        };
        assert!(c.eval(0b01));
        assert!(!c.eval(0b11));
        assert!(!c.eval(0b00));
    }

    #[test]
    fn resynth_is_functionally_correct() {
        // All 4-variable functions would be 65536 cases; sample a spread.
        let mut seed = 0x9E37_79B9_u64;
        for _ in 0..200 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = seed >> 48;
            let f = Tt::from_u64(4, bits);
            let mut aig = Aig::new();
            let leaves: Vec<Lit> = (0..4).map(|_| aig.add_input()).collect();
            let root = Resynth::default().build(&mut aig, &f, &leaves);
            aig.add_output(root);
            for idx in 0..16usize {
                let ins: Vec<bool> = (0..4).map(|i| idx >> i & 1 != 0).collect();
                assert_eq!(
                    aig.eval(&ins)[0],
                    f.get_bit(idx),
                    "bits={bits:04x} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn resynth_handles_degenerate_cases() {
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..3).map(|_| aig.add_input()).collect();
        let mut resynth = Resynth::default();
        assert_eq!(resynth.build(&mut aig, &Tt::zero(3), &leaves), Lit::FALSE);
        assert_eq!(resynth.build(&mut aig, &Tt::one(3), &leaves), Lit::TRUE);
        assert_eq!(resynth.build(&mut aig, &Tt::var(1, 3), &leaves), leaves[1]);
        assert_eq!(
            resynth.build(&mut aig, &Tt::var(2, 3).not(), &leaves),
            !leaves[2]
        );
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn resynth_builds_a_large_function() {
        // 8-variable parity: stresses the word-level truth tables.
        let mut f = Tt::zero(8);
        for v in 0..8 {
            f = f.xor(&Tt::var(v, 8));
        }
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..8).map(|_| aig.add_input()).collect();
        let root = Resynth::default().build(&mut aig, &f, &leaves);
        aig.add_output(root);
        for idx in [0usize, 1, 3, 7, 85, 170, 255, 128, 200] {
            let ins: Vec<bool> = (0..8).map(|i| idx >> i & 1 != 0).collect();
            let expect = (idx.count_ones() % 2) == 1;
            assert_eq!(aig.eval(&ins)[0], expect, "idx={idx}");
        }
    }
}
