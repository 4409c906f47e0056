//! Every knob of every workload, written out here.
//!
//! Nothing is derived from `almost_core::Scale` (which reads
//! `ALMOST_PROPOSALS`) or any other environment variable: the only
//! widths left to the library are its defaults (`almost_pool` and the
//! portfolio solver follow the machine's core count). The benchmark
//! refuses to start when any `ALMOST_*` variable is set, see
//! [`refuse_almost_env`].

use almost_attacks::subgraph::SubgraphConfig;
use almost_attacks::{DoubleDip, DoubleDipConfig, OmlaConfig, SatAttack, SatAttackConfig};
use almost_circuits::IscasBenchmark;
use almost_core::{ProxyConfig, SaConfig};

/// A run builds its set-up at least this many times; `setup_s` is the
/// median.
pub const SETUP_MIN_REPEATS: usize = 3;

/// ... and repeats it until this much set-up time has been measured ...
pub const SETUP_MIN_SECS: f64 = 1.0;

/// ... but at most this many times.
pub const SETUP_MAX_REPEATS: usize = 200;

/// Key bits of the RLL lock every `secure_flow` design carries.
pub const SECURE_FLOW_KEY_BITS: usize = 64;

/// The `secure_flow` designs (one request each, in seeded order).
pub const SECURE_FLOW_DESIGNS: [IscasBenchmark; 3] = [
    IscasBenchmark::C1908,
    IscasBenchmark::C2670,
    IscasBenchmark::C3540,
];

/// M\* training for `secure_flow`: one 64-bit relock of initial data,
/// two 10-epoch rounds with a one-step adversarial recipe search between
/// them.
pub fn secure_flow_proxy() -> ProxyConfig {
    ProxyConfig {
        initial_samples: 64,
        augment_samples: 32,
        epochs: 20,
        period: 10,
        relock_key_size: 64,
        hidden: 16,
        layers: 2,
        batch_size: 32,
        learning_rate: 5e-3,
        subgraph: SubgraphConfig {
            hops: 3,
            max_nodes: 32,
        },
        adversarial_sa: SaConfig {
            iterations: 1,
            seed: 0xAD5,
            ..SaConfig::default()
        },
        seed: 0x5EC0,
    }
}

/// The Eq.-1 recipe search of `secure_flow`: paper temperature schedule,
/// shortened to three steps of two proposals each.
pub fn secure_flow_sa() -> SaConfig {
    SaConfig {
        iterations: 3,
        initial_temperature: 120.0,
        acceptance: 1.8,
        final_temperature: 1.0,
        proposals: 2,
        seed: 0x5A5A,
    }
}

/// The OMLA attacker `secure_flow` runs on both deployments.
pub fn secure_flow_omla() -> OmlaConfig {
    OmlaConfig {
        hidden: 16,
        layers: 2,
        epochs: 30,
        batch_size: 32,
        learning_rate: 5e-3,
        relock_key_size: 64,
        training_samples: 64,
        subgraph: SubgraphConfig {
            hops: 3,
            max_nodes: 32,
        },
        functional_signatures: false,
        seed: 0x0E1A,
    }
}

/// Key bits of the RLL lock every `omla_attack` design carries.
pub const OMLA_KEY_BITS: usize = 64;

/// The `omla_attack` designs. Each is deployed twice: once with
/// `resyn2` and once with a seeded random recipe.
pub const OMLA_DESIGNS: [IscasBenchmark; 3] = [
    IscasBenchmark::C1355,
    IscasBenchmark::C1908,
    IscasBenchmark::C3540,
];

/// OMLA at the paper's GIN shape: hidden 32, 3 rounds, 350 epochs,
/// localities of at most 48 nodes, ~120 samples from 64-bit relocks.
pub fn omla_attack_config() -> OmlaConfig {
    OmlaConfig {
        hidden: 32,
        layers: 3,
        epochs: 350,
        batch_size: 32,
        learning_rate: 3e-3,
        relock_key_size: 64,
        training_samples: 120,
        subgraph: SubgraphConfig {
            hops: 3,
            max_nodes: 48,
        },
        functional_signatures: false,
        seed: 0xA77A,
    }
}

/// The locking schemes of `key_recovery`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Random logic locking with the given key width.
    Rll(usize),
    /// SARLock (k = 8) stacked over RLL (k = 8).
    SarLockRll,
    /// Anti-SAT with two 8-input blocks (16 key bits, 2^8 DIP floor).
    AntiSat,
}

/// Key bits of the RLL base under the stacked SARLock.
pub const STACK_BASE_BITS: usize = 8;

/// Point-function width of SARLock and Anti-SAT.
pub const POINT_BITS: usize = 8;

impl Scheme {
    /// Display label used in the request list.
    pub fn label(self) -> String {
        match self {
            Scheme::Rll(k) => format!("RLL-{k}"),
            Scheme::SarLockRll => format!("SARLock-{POINT_BITS}+RLL-{STACK_BASE_BITS}"),
            Scheme::AntiSat => format!("Anti-SAT-{POINT_BITS}"),
        }
    }
}

/// The oracle-guided attacks of `key_recovery`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    /// The exact DIP loop to its UNSAT proof.
    ExactSat,
    /// AppSAT: budgeted DIP loop with random-query settlement.
    AppSat,
    /// Double-DIP (recovers the base key of a stacked lock; Anti-SAT
    /// resists it).
    DoubleDip,
}

impl Attack {
    /// Display label used in the request list.
    pub fn label(self) -> &'static str {
        match self {
            Attack::ExactSat => "sat",
            Attack::AppSat => "appsat",
            Attack::DoubleDip => "double_dip",
        }
    }
}

/// Exact SAT attack with a DIP cap well above the 2^8 floor.
pub fn exact_sat() -> SatAttack {
    SatAttack::new(SatAttackConfig {
        max_iterations: 4096,
        ..SatAttackConfig::default()
    })
}

/// AppSAT: up to 64 DIPs, 2000 conflicts per query, 64 settlement
/// queries, 4 settlement rounds.
pub fn app_sat() -> SatAttack {
    SatAttack::new(SatAttackConfig::approximate(64, 2000))
}

/// Double-DIP with a 512-iteration cap and a 200k-conflict budget per
/// 2-DIP query.
pub fn double_dip() -> DoubleDip {
    DoubleDip::new(DoubleDipConfig {
        max_iterations: 512,
        conflict_budget: Some(200_000),
        ..DoubleDipConfig::default()
    })
}

/// One locked deployment of `key_recovery` and the attacks run on it.
pub struct KeyRecoveryTarget {
    /// The design.
    pub design: IscasBenchmark,
    /// Its lock.
    pub scheme: Scheme,
    /// Attacks run against the `resyn2` deployment, one request each.
    pub attacks: &'static [Attack],
}

/// The `key_recovery` catalogue: c432–c3540 under every scheme. Each
/// entry is locked and deployed once during set-up.
///
/// Most requests attack point-function locks, whose DIP count is forced
/// (2^8 for the exact attack; Double-DIP against Anti-SAT also always
/// needs 2^8 2-DIPs), so the median request is one of them whatever the
/// seed's lock keys. The RLL requests are light. Double-DIP against
/// SARLock+RLL settles on c1908 in 1–3 2-DIPs for every key tried; on
/// c880, c1355, c2670 or c3540 it needs anywhere from 1 to 256
/// depending on the key.
pub const KEY_RECOVERY_TARGETS: [KeyRecoveryTarget; 7] = [
    KeyRecoveryTarget {
        design: IscasBenchmark::C880,
        scheme: Scheme::Rll(32),
        attacks: &[Attack::ExactSat, Attack::AppSat],
    },
    KeyRecoveryTarget {
        design: IscasBenchmark::C3540,
        scheme: Scheme::Rll(64),
        attacks: &[Attack::ExactSat, Attack::AppSat],
    },
    KeyRecoveryTarget {
        design: IscasBenchmark::C1908,
        scheme: Scheme::SarLockRll,
        attacks: &[Attack::ExactSat, Attack::DoubleDip],
    },
    KeyRecoveryTarget {
        design: IscasBenchmark::C3540,
        scheme: Scheme::SarLockRll,
        attacks: &[Attack::ExactSat],
    },
    KeyRecoveryTarget {
        design: IscasBenchmark::C432,
        scheme: Scheme::AntiSat,
        attacks: &[Attack::ExactSat],
    },
    KeyRecoveryTarget {
        design: IscasBenchmark::C499,
        scheme: Scheme::AntiSat,
        attacks: &[Attack::ExactSat],
    },
    KeyRecoveryTarget {
        design: IscasBenchmark::C880,
        scheme: Scheme::AntiSat,
        attacks: &[Attack::ExactSat, Attack::DoubleDip],
    },
];

/// Returns the name of the first `ALMOST_*` environment variable, if
/// any is set. The benchmark pins every width and budget itself, so a
/// stray override would silently change what is measured.
pub fn refuse_almost_env() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("ALMOST_"))
}
