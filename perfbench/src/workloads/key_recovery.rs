//! `key_recovery`: the oracle-guided attacker and CEC user.
//!
//! Set-up locks every catalogue target and deploys it with `resyn2`.
//! One request is one (design, scheme, attack) tuple run against a
//! `CircuitOracle` behind [`TimedOracle`]. Every recovered key is
//! CEC-checked against the original design.

use super::{key_unlocks, lock, Outcome, Workload};
use crate::config::{
    app_sat, double_dip, exact_sat, Attack, Scheme, KEY_RECOVERY_TARGETS, POINT_BITS,
    STACK_BASE_BITS,
};
use crate::trace::Tracer;
use crate::wrap::TimedOracle;
use almost_aig::Aig;
use almost_attacks::SatAttackRun;
use almost_core::Recipe;
use almost_locking::{AntiSat, CircuitOracle, LockedCircuit, LockingScheme, Rll, SarLock, Stacked};
use almost_sat::{PortfolioStats, SolverStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One request: an attack on one catalogue target.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Index into [`KEY_RECOVERY_TARGETS`].
    pub target: usize,
    /// The attack.
    pub attack: Attack,
}

/// The `key_recovery` request list.
pub struct KeyRecovery {
    /// Lock seed per catalogue target.
    pub lock_seeds: Vec<u64>,
    /// Requests, in order.
    pub requests: Vec<Request>,
}

impl KeyRecovery {
    /// Every (target, attack) pair of the catalogue, in an order and
    /// with locks drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E7_EC0);
        let lock_seeds = KEY_RECOVERY_TARGETS
            .iter()
            .map(|_| rng.random::<u64>())
            .collect();
        let mut requests: Vec<Request> = KEY_RECOVERY_TARGETS
            .iter()
            .enumerate()
            .flat_map(|(target, t)| {
                t.attacks
                    .iter()
                    .map(move |&attack| Request { target, attack })
            })
            .collect();
        requests.shuffle(&mut rng);
        KeyRecovery {
            lock_seeds,
            requests,
        }
    }
}

fn scheme(scheme: Scheme) -> Box<dyn LockingScheme> {
    match scheme {
        Scheme::Rll(k) => Box::new(Rll::new(k)),
        Scheme::SarLockRll => Box::new(Stacked::new(
            Rll::new(STACK_BASE_BITS),
            SarLock::new(POINT_BITS),
        )),
        Scheme::AntiSat => Box::new(AntiSat::new(POINT_BITS)),
    }
}

/// A locked, deployed target and the oracle facing its attackers.
pub struct Target {
    design: Aig,
    locked: LockedCircuit,
    deployed: Aig,
    oracle: CircuitOracle,
}

/// Every catalogue target.
pub struct Prepared {
    targets: Vec<Target>,
}

/// What an attack hands back to be checked.
struct Recovered {
    key: Vec<bool>,
    exact: bool,
    consistent: bool,
    queries: usize,
    dips: usize,
    solver: SolverStats,
    portfolio: PortfolioStats,
}

impl From<SatAttackRun> for Recovered {
    fn from(run: SatAttackRun) -> Self {
        Recovered {
            consistent: run.accounting_consistent(),
            exact: run.proved_exact,
            queries: run.oracle_queries,
            dips: run.iterations.len(),
            key: run.recovered,
            solver: run.solver,
            portfolio: run.portfolio,
        }
    }
}

impl Workload for KeyRecovery {
    type Prepared = Prepared;

    fn num_requests(&self) -> usize {
        self.requests.len()
    }

    fn describe(&self) -> Vec<String> {
        self.requests
            .iter()
            .map(|r| {
                let t = &KEY_RECOVERY_TARGETS[r.target];
                format!(
                    "{} {} lock_seed={} attack={}",
                    t.design,
                    t.scheme.label(),
                    self.lock_seeds[r.target],
                    r.attack.label()
                )
            })
            .collect()
    }

    fn setup(&self, tracer: &Tracer) -> Result<Prepared, String> {
        let targets = KEY_RECOVERY_TARGETS
            .iter()
            .zip(&self.lock_seeds)
            .map(|(t, &seed)| {
                let design = t.design.build();
                let locked = lock(tracer, scheme(t.scheme).as_ref(), &design, seed)
                    .map_err(|e| format!("{}: {e}", t.design))?;
                let deployed = super::deploy(tracer, &locked.aig, Recipe::resyn2().passes());
                let oracle = tracer.span("locking.oracle_build", || {
                    CircuitOracle::from_locked(&locked)
                });
                Ok(Target {
                    design,
                    locked,
                    deployed,
                    oracle,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Prepared { targets })
    }

    fn run(&self, prepared: &Prepared, index: usize, tracer: &Tracer) -> Outcome {
        let request = self.requests[index];
        let spec = &KEY_RECOVERY_TARGETS[request.target];
        let target = &prepared.targets[request.target];
        let locked = &target.locked;
        let (start, len) = (locked.key_input_start, locked.key_size());
        let oracle = TimedOracle::new(&target.oracle);
        let span = match request.attack {
            Attack::DoubleDip => "attacks.double_dip",
            Attack::ExactSat | Attack::AppSat => "attacks.sat",
        };
        let got = tracer.span(span, || {
            let got: Recovered = match request.attack {
                Attack::ExactSat => exact_sat()
                    .run(&target.deployed, start, len, &oracle)
                    .into(),
                Attack::AppSat => app_sat().run(&target.deployed, start, len, &oracle).into(),
                Attack::DoubleDip => {
                    let run = double_dip().run(&target.deployed, start, len, &oracle);
                    // Under a stacked lock Double-DIP targets the RLL
                    // base; the point-function overlay bits are taken
                    // from the ground truth. A settled 2-DIP loop proves
                    // a key only up to single-key flips, so the key is
                    // never exact.
                    let mut key = run.recovered.clone();
                    if spec.scheme == Scheme::SarLockRll {
                        key[STACK_BASE_BITS..]
                            .copy_from_slice(&locked.key.bits()[STACK_BASE_BITS..]);
                    }
                    Recovered {
                        consistent: run.accounting_consistent(),
                        exact: false,
                        queries: run.oracle_queries,
                        dips: run.dip_count(),
                        key,
                        solver: run.solver,
                        portfolio: run.portfolio,
                    }
                }
            };
            tracer.count("oracle_s", oracle.elapsed().as_secs_f64());
            tracer.count("patterns", oracle.patterns() as f64);
            tracer.count("dips", got.dips as f64);
            tracer.count("conflicts", got.solver.conflicts as f64);
            tracer.count("decisions", got.solver.decisions as f64);
            tracer.count("propagations", got.solver.propagations as f64);
            tracer.count("races", got.portfolio.races as f64);
            got
        });

        let mut out = Outcome::default();
        let what = format!(
            "{} {} {}",
            spec.design,
            spec.scheme.label(),
            request.attack.label()
        );
        if !got.consistent {
            out.fail(format!(
                "{what}: DIP log does not reconcile with the query count"
            ));
        }
        if oracle.patterns() != got.queries {
            out.fail(format!(
                "{what}: oracle served {} patterns, attack reports {}",
                oracle.patterns(),
                got.queries
            ));
        }
        let unlocks = key_unlocks(tracer, &target.design, &target.deployed, start, &got.key);
        // Every key is CEC-checked; a key the attack proved exact must
        // unlock the design, and the exact attack must prove its key.
        if request.attack == Attack::ExactSat && !got.exact {
            out.fail(format!("{what}: stopped before its UNSAT proof"));
        }
        if got.exact && !unlocks {
            out.fail(format!("{what}: proved key does not unlock the design"));
        }
        // Which key a race returns may differ between executions; the
        // verdict of the checks may not.
        out.fingerprint = format!("{what}: checks passed={}", out.failures.is_empty());
        out
    }
}
