//! `omla_attack`: the oracle-less attacker at the paper's GIN shape.
//!
//! Set-up locks every design with RLL-64 and deploys it twice, with
//! `resyn2` and with a seeded random recipe; both deployments are mapped
//! so the random recipe's area can be compared with `resyn2`'s. One
//! request is one (design, deployment) pair: `Omla::generate_training_data`,
//! `ml::train`, `Omla::predict_bits`, then scoring.

use super::{bit_string, deploy, lock, mapped_area, omla, Outcome, Workload};
use crate::config::{omla_attack_config, OMLA_DESIGNS, OMLA_KEY_BITS};
use crate::trace::Tracer;
use almost_aig::{Aig, Script};
use almost_attacks::Omla;
use almost_circuits::IscasBenchmark;
use almost_core::{Recipe, RECIPE_LENGTH};
use almost_locking::{LockedCircuit, Rll};
use almost_netlist::CellLibrary;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One request: a design, its lock seed and how it is deployed.
#[derive(Clone, Debug)]
pub struct Request {
    /// The design.
    pub design: IscasBenchmark,
    /// Seed of its RLL-64 lock (shared by both deployments of a design).
    pub lock_seed: u64,
    /// The deployment recipe; `None` is `resyn2`.
    pub random_recipe: Option<Recipe>,
}

impl Request {
    fn recipe(&self) -> Recipe {
        self.random_recipe.clone().unwrap_or_else(Recipe::resyn2)
    }
}

/// The `omla_attack` request list.
pub struct OmlaAttack {
    /// Requests, in order.
    pub requests: Vec<Request>,
}

impl OmlaAttack {
    /// Every design under `resyn2` and under one random recipe, in an
    /// order and with locks and recipes drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0E1A_A77A);
        let mut requests = Vec::new();
        for design in OMLA_DESIGNS {
            let lock_seed = rng.random::<u64>();
            let random = Recipe::random(RECIPE_LENGTH, &mut rng);
            for random_recipe in [None, Some(random)] {
                requests.push(Request {
                    design,
                    lock_seed,
                    random_recipe,
                });
            }
        }
        requests.shuffle(&mut rng);
        OmlaAttack { requests }
    }
}

/// One deployed request.
pub struct Deployment {
    locked: LockedCircuit,
    deployed: Aig,
    recipe: Script,
    area_ratio: Option<f64>,
}

/// Every request's deployment.
pub struct Prepared {
    items: Vec<Deployment>,
}

impl Workload for OmlaAttack {
    type Prepared = Prepared;

    fn num_requests(&self) -> usize {
        self.requests.len()
    }

    fn describe(&self) -> Vec<String> {
        self.requests
            .iter()
            .map(|r| {
                format!(
                    "{} RLL-{OMLA_KEY_BITS} lock_seed={} recipe={}",
                    r.design,
                    r.lock_seed,
                    r.recipe()
                )
            })
            .collect()
    }

    fn setup(&self, tracer: &Tracer) -> Result<Prepared, String> {
        let library = CellLibrary::nangate45();
        // Each design is locked once and deployed with resyn2; its random
        // deployment shares the lock and is compared with that one.
        let mut bases: Vec<(IscasBenchmark, LockedCircuit, Aig, f64)> = Vec::new();
        for r in &self.requests {
            if bases.iter().any(|b| b.0 == r.design) {
                continue;
            }
            let locked = lock(
                tracer,
                &Rll::new(OMLA_KEY_BITS),
                &r.design.build(),
                r.lock_seed,
            )
            .map_err(|e| format!("{}: {e}", r.design))?;
            let reference = deploy(tracer, &locked.aig, Recipe::resyn2().passes());
            let area = mapped_area(tracer, &reference, &library);
            bases.push((r.design, locked, reference, area));
        }
        let mut items = Vec::with_capacity(self.requests.len());
        for r in &self.requests {
            let (_, locked, reference, reference_area) = bases
                .iter()
                .find(|b| b.0 == r.design)
                .ok_or_else(|| format!("{} was not locked", r.design))?;
            items.push(match &r.random_recipe {
                None => Deployment {
                    locked: locked.clone(),
                    deployed: reference.clone(),
                    recipe: Script::resyn2(),
                    area_ratio: None,
                },
                Some(recipe) => {
                    let deployed = deploy(tracer, &locked.aig, recipe.passes());
                    let area = mapped_area(tracer, &deployed, &library);
                    Deployment {
                        locked: locked.clone(),
                        deployed,
                        recipe: recipe.as_script(),
                        area_ratio: Some(area / reference_area),
                    }
                }
            });
        }
        Ok(Prepared { items })
    }

    fn run(&self, prepared: &Prepared, index: usize, tracer: &Tracer) -> Outcome {
        let item = &prepared.items[index];
        let mut out = Outcome::default();
        let attacker = Omla::new(omla_attack_config());
        let (bits, guess) = omla(
            tracer,
            &attacker,
            &item.locked,
            &item.deployed,
            &item.recipe,
            &mut out,
        );
        if self.requests[index].random_recipe.is_some() {
            out.deployed_bits = bits;
        } else {
            out.resyn2_bits = bits;
        }
        out.area_ratio = item.area_ratio;
        out.fingerprint = format!("omla={}", bit_string(&guess));
        out
    }
}
