//! The SCOPE attack: synthesis-based constant-propagation key recovery
//! (Alaql et al., IEEE TVLSI 2021).
//!
//! SCOPE is *unsupervised*: for each key input it synthesises the netlist
//! twice — once with the bit hard-wired to 0, once to 1 — and compares
//! synthesis-report features (gate count, depth, literal counts). The
//! hypothesis whose constant "fits" the surrounding logic lets the
//! synthesiser simplify more; asymmetry in the reports reveals the bit.
//! Bits with symmetric reports stay unresolved (and count as incorrect in
//! the paper's accuracy metric, which is why SCOPE frequently scores below
//! 50%).

use crate::report::{AttackOutcome, AttackTarget, OracleLessAttack};
use almost_aig::sim::probably_equivalent;
use almost_aig::{Aig, Pass, Script};
use almost_locking::apply_key;

/// SCOPE configuration.
#[derive(Clone, Debug)]
pub struct ScopeConfig {
    /// The synthesis script used for the per-hypothesis re-synthesis runs.
    pub script: Script,
    /// If set, only this many key bits (evenly sampled) are attacked;
    /// accuracy is reported over the sampled bits. SCOPE synthesises twice
    /// per bit, so sampling keeps large-key runs affordable.
    pub max_bits: Option<usize>,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            // A light script keeps the 2-per-bit synthesis affordable.
            script: Script(vec![Pass::Balance, Pass::Rewrite, Pass::Refactor]),
            max_bits: None,
        }
    }
}

/// Evenly samples `take` bit offsets out of `total` (all of them when
/// `take >= total`).
pub(crate) fn sample_bits(total: usize, take: Option<usize>) -> Vec<usize> {
    match take {
        Some(k) if k < total && k > 0 => (0..k).map(|i| i * total / k).collect(),
        _ => (0..total).collect(),
    }
}

/// The SCOPE attack.
#[derive(Clone, Debug, Default)]
pub struct Scope {
    /// Attack configuration.
    pub config: ScopeConfig,
}

/// Synthesis-report features SCOPE compares between hypotheses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReportFeatures {
    /// AND-node count after synthesis.
    pub gates: f64,
    /// Logic depth after synthesis.
    pub depth: f64,
    /// Total fanin edge count (a literal-count proxy).
    pub literals: f64,
}

impl ReportFeatures {
    /// Extracts the features from a synthesised AIG.
    pub fn of(aig: &Aig) -> Self {
        ReportFeatures {
            gates: aig.num_ands() as f64,
            depth: aig.depth() as f64,
            literals: (2 * aig.num_ands()) as f64,
        }
    }

    /// A scalar complexity score (lower = more simplification achieved).
    pub fn complexity(&self) -> f64 {
        self.gates + 0.5 * self.depth + 0.1 * self.literals
    }
}

impl Scope {
    /// A SCOPE attacker with the given configuration.
    pub fn new(config: ScopeConfig) -> Self {
        Scope { config }
    }

    /// Decides one key bit from the two hypothesis syntheses; `None` when
    /// the reports are symmetric (unresolved).
    pub fn decide_bit(&self, deployed: &Aig, key_start: usize, bit_offset: usize) -> Option<bool> {
        let spec0 = specialise_single(deployed, key_start + bit_offset, false);
        let spec1 = specialise_single(deployed, key_start + bit_offset, true);
        // Dead-bit prefilter: when the two specialisations are (almost
        // surely) the same function, the bit cannot be decided — skip both
        // synthesis runs. A functionally dead bit previously produced
        // identical reports and tied to None; this short-circuits that.
        if probably_equivalent(&spec0, &spec1, DEAD_BIT_WORDS, DEAD_BIT_SEED) {
            return None;
        }
        let mut complexities = [0.0f64; 2];
        for (i, specialised) in [spec0, spec1].iter().enumerate() {
            let synthesised = self.config.script.apply(specialised);
            complexities[i] = ReportFeatures::of(&synthesised).complexity();
        }
        // The *correct* constant makes the key gate collapse into a plain
        // wire; the wrong constant leaves an inverter that can block
        // sharing. More simplification (lower complexity) => that constant
        // is the bit.
        if complexities[0] < complexities[1] {
            Some(false)
        } else if complexities[1] < complexities[0] {
            Some(true)
        } else {
            None
        }
    }
}

/// Hard-wires a single input (by absolute input position) to a constant,
/// keeping every other input.
fn specialise_single(aig: &Aig, input_pos: usize, value: bool) -> Aig {
    // apply_key with a 1-bit "key" at the given position.
    apply_key(aig, input_pos, &[value])
}

/// Words of random stimulus for the dead-bit prefilter (1024 patterns).
const DEAD_BIT_WORDS: usize = 16;
/// Stimulus seed for the dead-bit prefilter.
const DEAD_BIT_SEED: u64 = 0x5C09E;

impl OracleLessAttack for Scope {
    fn name(&self) -> &'static str {
        "SCOPE"
    }

    fn attack(&self, target: &AttackTarget) -> AttackOutcome {
        let key_start = target.locked.key_input_start;
        let key_size = target.locked.key_size();
        let bits = sample_bits(key_size, self.config.max_bits);
        let predicted: Vec<Option<bool>> = bits
            .iter()
            .map(|&k| self.decide_bit(&target.deployed, key_start, k))
            .collect();
        let truth: Vec<bool> = bits.iter().map(|&k| target.locked.key.bits()[k]).collect();
        AttackOutcome::score("SCOPE", predicted, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn report_features_track_size() {
        let small = IscasBenchmark::C432.build();
        let big = IscasBenchmark::C1355.build();
        assert!(ReportFeatures::of(&big).complexity() > ReportFeatures::of(&small).complexity());
    }

    #[test]
    fn scope_produces_a_full_prediction_vector() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(8).lock(&base, &mut rng).expect("lockable");
        let target = AttackTarget::new(locked, Script::new());
        let outcome = Scope::default().attack(&target);
        assert_eq!(outcome.predicted.len(), 8);
        assert!((0.0..=1.0).contains(&outcome.accuracy));
    }

    #[test]
    fn dead_key_bit_stays_unresolved_without_synthesis() {
        // An input that feeds nothing: both specialisations are the same
        // function, so the compiled prefilter must return None.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let _dead = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let scope = Scope::default();
        assert_eq!(scope.decide_bit(&aig, 2, 0), None);
        assert!(probably_equivalent(
            &specialise_single(&aig, 2, false),
            &specialise_single(&aig, 2, true),
            4,
            1
        ));
    }

    #[test]
    fn live_bits_are_not_prefiltered_away() {
        // XOR key gate: the two specialisations differ on every pattern.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let k = aig.add_input();
        let f = aig.xor(a, k);
        aig.add_output(f);
        assert!(!probably_equivalent(
            &specialise_single(&aig, 1, false),
            &specialise_single(&aig, 1, true),
            4,
            1
        ));
    }

    #[test]
    fn specialise_single_keeps_other_inputs() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.xor(a, b);
        aig.add_output(f);
        let spec = specialise_single(&aig, 1, true);
        assert_eq!(spec.num_inputs(), 1);
        assert_eq!(spec.eval(&[false]), vec![true]);
        assert_eq!(spec.eval(&[true]), vec![false]);
    }
}
