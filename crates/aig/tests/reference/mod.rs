//! The reference truth-table resynthesis builder: the probe, roll back and
//! rebuild implementation that `Resynth` replaced, kept verbatim as a
//! differential oracle. It recomputes both covers and the Shannon pivot on
//! every call, rolls back every candidate including the winner, and
//! rebuilds the winner from scratch, so its Shannon probing is exponential
//! in cut width. `Resynth::build` must return the same literal and leave
//! the same node list in `dest` for every input.

use almost_aig::isop::{build_sop, isop};
use almost_aig::{Aig, Lit, Tt};

/// Builds an AIG computing the truth table `tt` over `leaves`, choosing the
/// cheaper of: ISOP of `tt`, ISOP of `!tt` (complemented), or top-variable
/// Shannon decomposition, measured in AND nodes actually added to `dest`.
///
/// Speculative candidates are constructed and rolled back via
/// [`Aig::checkpoint`]/[`Aig::rollback`], so only the winner remains.
///
/// # Panics
///
/// Panics if `leaves.len() != tt.nvars()`.
pub fn build_from_tt(dest: &mut Aig, tt: &Tt, leaves: &[Lit]) -> Lit {
    assert_eq!(leaves.len(), tt.nvars(), "leaf count must match variables");
    if tt.is_zero() {
        return Lit::FALSE;
    }
    if tt.is_one() {
        return Lit::TRUE;
    }
    // Single-variable function?
    for (v, &leaf) in leaves.iter().enumerate() {
        if &Tt::var(v, tt.nvars()) == tt {
            return leaf;
        }
        if &Tt::var(v, tt.nvars()).not() == tt {
            return !leaf;
        }
    }

    let cubes_pos = isop(tt);
    let cubes_neg = isop(&tt.not());

    // For covers that are too wide, SOP construction would explode (e.g.
    // parity); fall back to a committed Shannon decomposition instead.
    const MAX_CUBES: usize = 96;
    if cubes_pos.len().min(cubes_neg.len()) > MAX_CUBES {
        let v = most_binate_var(tt).expect("non-degenerate function has support");
        let l0 = build_from_tt(dest, &tt.cofactor0(v), leaves);
        let l1 = build_from_tt(dest, &tt.cofactor1(v), leaves);
        return dest.mux(leaves[v], l1, l0);
    }

    // Candidate 1: ISOP of tt.
    let cp = dest.checkpoint();
    build_sop(dest, &cubes_pos, leaves);
    let cost_pos = dest.checkpoint() - cp;
    dest.rollback(cp);

    // Candidate 2: complemented ISOP.
    build_sop(dest, &cubes_neg, leaves);
    let cost_neg = dest.checkpoint() - cp;
    dest.rollback(cp);

    // Candidate 3 (small functions only, to bound the probing recursion):
    // Shannon decomposition on the most binate variable.
    let shannon_var = if tt.nvars() <= 5 {
        most_binate_var(tt)
    } else {
        None
    };
    let cost_shannon = shannon_var.map(|v| {
        let l0 = build_from_tt(dest, &tt.cofactor0(v), leaves);
        let l1 = build_from_tt(dest, &tt.cofactor1(v), leaves);
        let _m = dest.mux(leaves[v], l1, l0);
        let cost = dest.checkpoint() - cp;
        dest.rollback(cp);
        cost
    });

    // Commit the cheapest candidate.
    let best = [Some(cost_pos), Some(cost_neg), cost_shannon]
        .iter()
        .flatten()
        .min()
        .copied()
        .expect("at least one candidate");

    if best == cost_pos {
        build_sop(dest, &cubes_pos, leaves)
    } else if best == cost_neg {
        !build_sop(dest, &cubes_neg, leaves)
    } else {
        let v = shannon_var.expect("shannon candidate was chosen");
        let l0 = build_from_tt(dest, &tt.cofactor0(v), leaves);
        let l1 = build_from_tt(dest, &tt.cofactor1(v), leaves);
        dest.mux(leaves[v], l1, l0)
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
