//! `secure_flow`: the defender's ALMOST flow (the paper's Fig. 3) on one
//! RLL-64-locked design per request.
//!
//! 1. Train M\* with `train_proxy(.., Adversarial, ..)`.
//! 2. Search for a recipe with `SearchEngine::anneal` from `resyn2`,
//!    scored by `ProxyAccuracyObjective` behind [`TimedObjective`] — the
//!    path `generate_secure_recipe` takes.
//! 3. Deploy the delivered recipe and `resyn2`, pass by pass.
//! 4. CEC the deliverable under the correct key against the original.
//! 5. Map and analyse both deployments.
//! 6. Run OMLA on both deployments.

use super::{bit_string, deploy, key_unlocks, lock, mapped_area, omla, Outcome, Workload};
use crate::config::{
    secure_flow_omla, secure_flow_proxy, secure_flow_sa, SECURE_FLOW_DESIGNS, SECURE_FLOW_KEY_BITS,
};
use crate::trace::Tracer;
use crate::wrap::TimedObjective;
use almost_aig::Aig;
use almost_attacks::Omla;
use almost_circuits::IscasBenchmark;
use almost_core::{
    train_proxy, EngineRun, EngineStats, ProxyAccuracyObjective, ProxyKind, ProxyModel, Recipe,
    SaConfig, SearchEngine,
};
use almost_locking::{LockedCircuit, Rll};
use almost_netlist::CellLibrary;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One request: a design and the seed of its lock.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// The design.
    pub design: IscasBenchmark,
    /// Seed of its RLL-64 lock.
    pub lock_seed: u64,
}

/// The `secure_flow` request list.
pub struct SecureFlow {
    /// Requests, in order.
    pub requests: Vec<Request>,
}

impl SecureFlow {
    /// Every design once, in an order and with locks drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC0_F10E);
        let mut designs = SECURE_FLOW_DESIGNS.to_vec();
        designs.shuffle(&mut rng);
        let requests = designs
            .into_iter()
            .map(|design| Request {
                design,
                lock_seed: rng.random::<u64>(),
            })
            .collect();
        SecureFlow { requests }
    }
}

/// A design and its lock.
pub struct Prepared {
    items: Vec<(Aig, LockedCircuit)>,
    library: CellLibrary,
}

/// Step 2 composed from the engine and the timing wrapper, exactly as
/// `generate_secure_recipe` composes it from the engine alone.
pub fn search(
    tracer: &Tracer,
    locked: &LockedCircuit,
    proxy: &ProxyModel,
    config: &SaConfig,
) -> (EngineRun, EngineStats) {
    let objective = ProxyAccuracyObjective { locked, proxy };
    let timed = TimedObjective::new(&objective, tracer);
    let mut engine = SearchEngine::new(locked.aig.clone(), &timed);
    let run = engine.anneal(Recipe::resyn2(), config);
    (run, engine.stats())
}

impl Workload for SecureFlow {
    type Prepared = Prepared;

    fn num_requests(&self) -> usize {
        self.requests.len()
    }

    fn describe(&self) -> Vec<String> {
        self.requests
            .iter()
            .map(|r| {
                format!(
                    "{} RLL-{SECURE_FLOW_KEY_BITS} lock_seed={}",
                    r.design, r.lock_seed
                )
            })
            .collect()
    }

    fn setup(&self, tracer: &Tracer) -> Result<Prepared, String> {
        let items = self
            .requests
            .iter()
            .map(|r| {
                let design = r.design.build();
                let locked = lock(
                    tracer,
                    &Rll::new(SECURE_FLOW_KEY_BITS),
                    &design,
                    r.lock_seed,
                )
                .map_err(|e| format!("{}: {e}", r.design))?;
                Ok((design, locked))
            })
            .collect::<Result<_, String>>()?;
        Ok(Prepared {
            items,
            library: CellLibrary::nangate45(),
        })
    }

    fn run(&self, prepared: &Prepared, index: usize, tracer: &Tracer) -> Outcome {
        let (design, locked) = &prepared.items[index];
        let mut out = Outcome::default();

        let proxy = tracer.span("almost.train_proxy", || {
            train_proxy(locked, ProxyKind::Adversarial, &secure_flow_proxy())
        });
        let (run, stats) = tracer.span("almost.search", || {
            let (run, stats) = search(tracer, locked, &proxy, &secure_flow_sa());
            tracer.count("candidates", stats.candidates as f64);
            tracer.count("trie_hits", stats.cache.hits as f64);
            tracer.count("trie_misses", stats.cache.misses as f64);
            (run, stats)
        });

        let deliverable = deploy(tracer, &locked.aig, run.best.passes());
        let reference = deploy(tracer, &locked.aig, Recipe::resyn2().passes());

        let unlocks = key_unlocks(
            tracer,
            design,
            &deliverable,
            locked.key_input_start,
            locked.key.bits(),
        );
        if !unlocks {
            out.fail(format!(
                "{}: deliverable `{}` under the correct key is not equivalent to the design",
                self.requests[index].design, run.best
            ));
        }

        let area = mapped_area(tracer, &deliverable, &prepared.library);
        let reference_area = mapped_area(tracer, &reference, &prepared.library);
        out.area_ratio = Some(area / reference_area);

        let attacker = Omla::new(secure_flow_omla());
        let (deployed_bits, deployed_guess) = omla(
            tracer,
            &attacker,
            locked,
            &deliverable,
            &run.best.as_script(),
            &mut out,
        );
        let (resyn2_bits, resyn2_guess) = omla(
            tracer,
            &attacker,
            locked,
            &reference,
            &Recipe::resyn2().as_script(),
            &mut out,
        );
        out.deployed_bits = deployed_bits;
        out.resyn2_bits = resyn2_bits;
        out.fingerprint = format!(
            "recipe={} proxy_acc={} misses={} cec={unlocks} area={area} ref_area={reference_area} \
             omla={} omla_resyn2={}",
            run.best,
            run.best_score.accuracy.unwrap_or(f64::NAN),
            stats.cache.misses,
            bit_string(&deployed_guess),
            bit_string(&resyn2_guess),
        );
        out
    }
}
