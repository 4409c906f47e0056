//! The three workloads and the layer calls they share.
//!
//! Every call into a layer's public functions goes through one of the
//! helpers here, inside a span named after the layer, so the traced run
//! can attribute the request's time.

pub mod key_recovery;
pub mod omla_attack;
pub mod secure_flow;

use crate::trace::Tracer;
use almost_aig::{Aig, Pass, Script};
use almost_attacks::Omla;
use almost_locking::{apply_key, LockedCircuit, LockingScheme};
use almost_ml::gin::GinClassifier;
use almost_ml::train::{train, TrainConfig};
use almost_netlist::{analyze, map_aig, CellLibrary, MapConfig};
use almost_sat::{check_equivalence, Equivalence};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A workload: a seeded request list, a set-up, and one request.
pub trait Workload {
    /// What the set-up builds (shared by every request).
    type Prepared;

    /// Number of distinct requests in the list.
    fn num_requests(&self) -> usize;

    /// One line per request, for the run header.
    fn describe(&self) -> Vec<String>;

    /// Builds everything the requests need.
    fn setup(&self, tracer: &Tracer) -> Result<Self::Prepared, String>;

    /// Runs request `index` of the list; never panics on a failed check.
    fn run(&self, prepared: &Self::Prepared, index: usize, tracer: &Tracer) -> Outcome;
}

/// Correct and total key bits of an oracle-less attack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bits {
    /// Bits predicted correctly.
    pub correct: usize,
    /// Bits predicted.
    pub total: usize,
}

impl Bits {
    /// Adds another attack's bits.
    pub fn add(&mut self, other: Bits) {
        self.correct += other.correct;
        self.total += other.total;
    }

    /// Accuracy in percent (`None` when nothing was predicted).
    pub fn pct(self) -> Option<f64> {
        (self.total > 0).then(|| 100.0 * self.correct as f64 / self.total as f64)
    }
}

/// What one request produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// OMLA on the deliverable (the non-`resyn2` deployment).
    pub deployed_bits: Bits,
    /// OMLA on the `resyn2` deployment.
    pub resyn2_bits: Bits,
    /// Mapped area of the deliverable over that of the `resyn2`
    /// deployment.
    pub area_ratio: Option<f64>,
    /// The request's deterministic outputs, rendered; a traced and an
    /// untraced execution of one request must agree on it.
    pub fingerprint: String,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// Span name of a synthesis pass.
pub(crate) fn pass_span(pass: Pass) -> &'static str {
    match pass {
        Pass::Rewrite => "aig.rewrite",
        Pass::RewriteZ => "aig.rewrite_z",
        Pass::Refactor => "aig.refactor",
        Pass::RefactorZ => "aig.refactor_z",
        Pass::Resub => "aig.resub",
        Pass::ResubZ => "aig.resub_z",
        Pass::Balance => "aig.balance",
        Pass::Fraig => "aig.fraig",
    }
}

/// Locks `design` with `scheme` under a generator seeded with `seed`.
pub(crate) fn lock(
    tracer: &Tracer,
    scheme: &dyn LockingScheme,
    design: &Aig,
    seed: u64,
) -> Result<LockedCircuit, String> {
    tracer.span("locking.lock", || {
        let mut rng = StdRng::seed_from_u64(seed);
        scheme
            .lock(design, &mut rng)
            .map_err(|e| format!("{} lock: {e}", scheme.name()))
    })
}

/// Deploys `aig` with `passes`, one `Pass::apply` (and one span) at a
/// time.
pub(crate) fn deploy(tracer: &Tracer, aig: &Aig, passes: &[Pass]) -> Aig {
    tracer.span("aig.deploy", || {
        let mut current = aig.clone();
        for &pass in passes {
            current = tracer.span(pass_span(pass), || {
                let next = pass.apply(&current);
                tracer.count("ands_in", current.num_ands() as f64);
                tracer.count("ands_out", next.num_ands() as f64);
                next
            });
        }
        current
    })
}

/// CEC of `deployed` under `key` against `original`.
pub(crate) fn key_unlocks(
    tracer: &Tracer,
    original: &Aig,
    deployed: &Aig,
    key_start: usize,
    key: &[bool],
) -> bool {
    let unlocked = tracer.span("locking.apply_key", || apply_key(deployed, key_start, key));
    tracer.span("sat.cec", || {
        check_equivalence(original, &unlocked) == Equivalence::Equivalent
    })
}

/// Maps `aig` without optimisation and returns its area.
pub(crate) fn mapped_area(tracer: &Tracer, aig: &Aig, library: &CellLibrary) -> f64 {
    let netlist = tracer.span("netlist.map", || {
        map_aig(aig, library, &MapConfig::no_opt())
    });
    tracer.span("netlist.analyze", || {
        analyze(&netlist, aig, library, 4, 0xA4EA).area
    })
}

/// OMLA against `locked` deployed as `deployed` with `recipe`, in the
/// steps of `Omla::attack`: training data, `ml::train`, prediction.
/// Returns the scored bits; a missing prediction is a failed check.
pub(crate) fn omla(
    tracer: &Tracer,
    attacker: &Omla,
    locked: &LockedCircuit,
    deployed: &Aig,
    recipe: &Script,
    outcome: &mut Outcome,
) -> (Bits, Vec<bool>) {
    tracer.span("attacks.omla", || {
        let cfg = &attacker.config;
        let data = tracer.span("attacks.omla.datagen", || {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            attacker.generate_training_data(deployed, recipe, &mut rng)
        });
        let model = tracer.span("ml.train", || {
            let mut model =
                GinClassifier::new(attacker.feature_width(), cfg.hidden, cfg.layers, cfg.seed);
            let stats = train(
                &mut model,
                &data,
                &TrainConfig {
                    epochs: cfg.epochs,
                    batch_size: cfg.batch_size,
                    learning_rate: cfg.learning_rate,
                    seed: cfg.seed ^ 0x5eed,
                },
            );
            tracer.count("epochs", stats.epoch_losses.len() as f64);
            tracer.count("tape_ops", stats.tape_ops as f64);
            tracer.count("tape_allocs", stats.tape_allocs as f64);
            model
        });
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let probs = tracer.span("attacks.omla.predict", || {
            attacker.predict_bits(&model, deployed, &positions)
        });
        let truth = locked.key.bits();
        if probs.len() != truth.len() {
            outcome.fail(format!(
                "OMLA predicted {} bits for a {}-bit key",
                probs.len(),
                truth.len()
            ));
        }
        let predicted: Vec<bool> = probs.iter().map(|&p| p >= 0.5).collect();
        let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
        (
            Bits {
                correct,
                total: truth.len(),
            },
            predicted,
        )
    })
}

/// Renders key bits as a 0/1 string.
pub(crate) fn bit_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}
