//! The batched search engine's determinism contract, end to end.
//!
//! Two pins, both against the real proxy-scoring stack (locked circuit,
//! trained GIN proxy, locality extraction):
//!
//! 1. **`proposals = 1` reproduces a golden trace bit-for-bit** — the
//!    best recipe, and per step the proposed recipe, objective `to_bits`,
//!    acceptance flag and best-so-far `to_bits` of
//!    [`generate_secure_recipe`]'s engine run, plus its accuracy series.
//!    The values were recorded from the serial one-proposal-per-step
//!    annealing loop (direct recipe application, per-graph GIN
//!    accuracy) when the engine still carried that loop as a reference,
//!    and the engine matched it bit-for-bit. Produced on Linux/glibc.
//! 2. **Any `proposals` is worker-count-invariant** — `K = 3` traces are
//!    bit-identical for `ALMOST_JOBS` ∈ {1, 2, 8}, on both the fused
//!    GIN objective and a cheap structural objective.
//!
//! One `#[test]` only: the test mutates the process-global `ALMOST_JOBS`
//! variable, so nothing may run concurrently with it.

use almost_repro::aig::Aig;
use almost_repro::almost::{
    generate_secure_recipe, train_proxy, ProxyConfig, ProxyKind, Recipe, SaConfig, Score,
    SearchEngine, SearchObjective,
};
use almost_repro::attacks::subgraph::SubgraphConfig;
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{LockedCircuit, LockingScheme, Rll};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Pin 1's best recipe (mnemonics).
const K1_GOLDEN_BEST: &str = "bwfbwWbFWb";

/// Pin 1's trace: `(recipe, objective, accepted, best-so-far)` per step,
/// each `f64` as `to_bits`.
const K1_GOLDEN_STEPS: [(&str, u64, bool, u64); 6] = [
    (
        "bwfbwWbgWb",
        0x3fb0_0000_0000_0000,
        true,
        0x3fb0_0000_0000_0000,
    ),
    (
        "bwfbbWbgWb",
        0x3fb0_0000_0000_0000,
        true,
        0x3fb0_0000_0000_0000,
    ),
    (
        "bwfbbwbgWb",
        0x3fb0_0000_0000_0000,
        true,
        0x3fb0_0000_0000_0000,
    ),
    (
        "bwfbbwbgWS",
        0x3fb0_0000_0000_0000,
        true,
        0x3fb0_0000_0000_0000,
    ),
    (
        "bwfbbwbWWS",
        0x3fb0_0000_0000_0000,
        true,
        0x3fb0_0000_0000_0000,
    ),
    (
        "bwfbbbbWWS",
        0x3fb0_0000_0000_0000,
        true,
        0x3fb0_0000_0000_0000,
    ),
];

/// Pin 1's proxy-accuracy series (initial recipe dropped), as `to_bits`.
const K1_GOLDEN_ACCURACY: [u64; 6] = [0x3fe2_0000_0000_0000; 6];

fn locked_c432() -> LockedCircuit {
    let mut rng = StdRng::seed_from_u64(3);
    Rll::new(16)
        .lock(&IscasBenchmark::C432.build(), &mut rng)
        .expect("lockable")
}

fn tiny_proxy(locked: &LockedCircuit) -> almost_repro::almost::ProxyModel {
    train_proxy(
        locked,
        ProxyKind::Resyn2,
        &ProxyConfig {
            initial_samples: 48,
            epochs: 10,
            period: 10,
            hidden: 8,
            subgraph: SubgraphConfig {
                hops: 2,
                max_nodes: 24,
            },
            ..ProxyConfig::default()
        },
    )
}

/// A cheap pure-structure objective for the worker-count sweep.
struct StructuralObjective;

impl SearchObjective for StructuralObjective {
    fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score> {
        candidates
            .iter()
            .map(|aig| Score::plain(aig.num_ands() as f64 + 0.25 * aig.depth() as f64))
            .collect()
    }
}

fn assert_traces_bitwise_equal(
    label: &str,
    got: &almost_repro::almost::SaTrace,
    want: &almost_repro::almost::SaTrace,
) {
    assert_eq!(
        got.iterations.len(),
        want.iterations.len(),
        "{label}: trace length"
    );
    for (i, (g, w)) in got.iterations.iter().zip(&want.iterations).enumerate() {
        assert_eq!(g.recipe, w.recipe, "{label}: recipe at {i}");
        assert_eq!(
            g.objective.to_bits(),
            w.objective.to_bits(),
            "{label}: objective at {i}"
        );
        assert_eq!(g.accepted, w.accepted, "{label}: acceptance at {i}");
        assert_eq!(
            g.best_objective.to_bits(),
            w.best_objective.to_bits(),
            "{label}: best-so-far at {i}"
        );
    }
}

#[test]
fn engine_traces_are_deterministic() {
    let locked = locked_c432();
    let proxy = tiny_proxy(&locked);

    // --- Pin 1: K = 1 on the real proxy objective reproduces the golden
    // trace bit-for-bit.
    std::env::set_var("ALMOST_JOBS", "1");
    let sa = SaConfig {
        iterations: 6,
        proposals: 1,
        seed: 0xD1,
        ..SaConfig::default()
    };
    let result = generate_secure_recipe(&locked, &proxy, &sa);
    let steps: Vec<(String, u64, bool, u64)> = result
        .trace
        .iterations
        .iter()
        .map(|it| {
            (
                it.recipe.to_string(),
                it.objective.to_bits(),
                it.accepted,
                it.best_objective.to_bits(),
            )
        })
        .collect();
    let accuracy: Vec<u64> = result.accuracy_series.iter().map(|a| a.to_bits()).collect();
    println!("K=1 best {}", result.recipe);
    for (recipe, objective, accepted, best) in &steps {
        println!("(\"{recipe}\", {objective:#018x}, {accepted}, {best:#018x}),");
    }
    println!("K=1 accuracy {accuracy:x?}");
    assert_eq!(
        result.recipe.to_string(),
        K1_GOLDEN_BEST,
        "K=1: best recipe"
    );
    let golden_steps: Vec<(String, u64, bool, u64)> = K1_GOLDEN_STEPS
        .iter()
        .map(|&(recipe, objective, accepted, best)| (recipe.to_string(), objective, accepted, best))
        .collect();
    assert_eq!(steps, golden_steps, "K=1: trace");
    assert_eq!(accuracy, K1_GOLDEN_ACCURACY, "K=1: accuracy series");

    // --- Pin 2: K = 3 worker-count invariance on the fused GIN
    // objective and on a structural objective.
    let sa_k3 = SaConfig {
        iterations: 4,
        proposals: 3,
        seed: 0xD2,
        ..SaConfig::default()
    };
    let mut proxy_runs = Vec::new();
    let mut structural_runs = Vec::new();
    for jobs in ["1", "2", "8"] {
        std::env::set_var("ALMOST_JOBS", jobs);
        proxy_runs.push(generate_secure_recipe(&locked, &proxy, &sa_k3));
        let objective = StructuralObjective;
        let mut engine = SearchEngine::new(locked.aig.clone(), &objective);
        structural_runs.push(engine.anneal(Recipe::resyn2(), &sa_k3));
    }
    std::env::remove_var("ALMOST_JOBS");
    assert_eq!(
        proxy_runs[0].trace.iterations.len(),
        sa_k3.iterations * sa_k3.proposals,
        "K>1 trace records every candidate"
    );
    for (run, jobs) in proxy_runs[1..].iter().zip(["2", "8"]) {
        assert_eq!(run.recipe, proxy_runs[0].recipe, "jobs={jobs}: best recipe");
        assert_traces_bitwise_equal(
            &format!("proxy K=3 jobs={jobs} vs jobs=1"),
            &run.trace,
            &proxy_runs[0].trace,
        );
        for (i, (got, want)) in run
            .accuracy_series
            .iter()
            .zip(&proxy_runs[0].accuracy_series)
            .enumerate()
        {
            assert_eq!(got.to_bits(), want.to_bits(), "jobs={jobs}: accuracy {i}");
        }
        // Cache behaviour is part of the contract: same hits/misses.
        assert_eq!(run.engine.cache, proxy_runs[0].engine.cache, "jobs={jobs}");
    }
    for (run, jobs) in structural_runs[1..].iter().zip(["2", "8"]) {
        assert_traces_bitwise_equal(
            &format!("structural K=3 jobs={jobs} vs jobs=1"),
            &run.trace,
            &structural_runs[0].trace,
        );
    }

    // The fused batch scorer and the serial scorer agree on the K=3
    // winner's deployment too (sanity link between pins 1 and 2).
    let deployed = proxy_runs[0].recipe.apply(&locked.aig);
    let graphs_acc = proxy.predict_accuracy(&locked, &deployed);
    assert_eq!(
        proxy_runs[0].accuracy.to_bits(),
        graphs_acc.to_bits(),
        "recorded best accuracy equals a fresh serial prediction"
    );
}
