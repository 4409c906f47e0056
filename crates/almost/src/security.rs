//! Security-aware synthesis: the SA search of Eq. 1.
//!
//! Minimises `|Acc(M, G(AIG, S)) − 0.5|` over recipes `S`, where the
//! accuracy evaluator `M` is a (proxy) attack model. The per-iteration
//! accuracy series is exactly what the paper's Fig. 4 plots.

use crate::engine::{EngineStats, ProxyAccuracyObjective, SearchEngine};
use crate::proxy::ProxyModel;
use crate::recipe::Recipe;
use crate::sa::{SaConfig, SaTrace};
use almost_locking::LockedCircuit;

/// Result of a security-aware recipe search.
#[derive(Clone, Debug)]
pub struct SecurityResult {
    /// The selected recipe (best `|acc − 0.5|` seen; the paper keeps the
    /// final recipe when 50% was not reached in budget — the best-seen is
    /// never worse than that).
    pub recipe: Recipe,
    /// Predicted attack accuracy of the selected recipe.
    pub accuracy: f64,
    /// Accuracy of every SA candidate, in proposal order (Fig. 4 series;
    /// `iterations × proposals` entries, the initial recipe excluded).
    pub accuracy_series: Vec<f64>,
    /// The raw SA trace (objectives are `|acc − 0.5|`).
    pub trace: SaTrace,
    /// Engine counters: synthesis-cache behaviour and candidate
    /// throughput.
    pub engine: EngineStats,
}

/// Runs the Eq. 1 search for `locked` using `proxy` as the accuracy
/// evaluator.
///
/// Runs on the batched [`SearchEngine`]: sibling proposals share
/// synthesis intermediates through the recipe trie, and each step's
/// proposal batch is scored through one batched GIN prediction
/// ([`ProxyModel::predict_accuracy_batch`]). `config.proposals` sets the
/// batch width; the trace is bit-identical for any `ALMOST_JOBS`.
pub fn generate_secure_recipe(
    locked: &LockedCircuit,
    proxy: &ProxyModel,
    config: &SaConfig,
) -> SecurityResult {
    let objective = ProxyAccuracyObjective { locked, proxy };
    let mut engine = SearchEngine::new(locked.aig.clone(), &objective);
    let run = engine.anneal(Recipe::resyn2(), config);
    let accuracy_series = run
        .scores
        .iter()
        .map(|s| s.accuracy.expect("proxy objective records accuracy"))
        .collect();
    SecurityResult {
        recipe: run.best,
        accuracy: run
            .best_score
            .accuracy
            .expect("proxy objective records accuracy"),
        accuracy_series,
        trace: run.trace,
        engine: engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::{train_proxy, ProxyConfig, ProxyKind};
    use almost_attacks::subgraph::SubgraphConfig;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn search_produces_a_recipe_and_series() {
        let mut rng = StdRng::seed_from_u64(3);
        let locked = Rll::new(16)
            .lock(&IscasBenchmark::C432.build(), &mut rng)
            .expect("lockable");
        let proxy_cfg = ProxyConfig {
            initial_samples: 48,
            epochs: 10,
            period: 10,
            hidden: 8,
            subgraph: SubgraphConfig {
                hops: 2,
                max_nodes: 24,
            },
            ..ProxyConfig::default()
        };
        let proxy = train_proxy(&locked, ProxyKind::Resyn2, &proxy_cfg);
        let sa = SaConfig {
            iterations: 6,
            seed: 4,
            ..SaConfig::default()
        };
        let result = generate_secure_recipe(&locked, &proxy, &sa);
        assert_eq!(result.recipe.len(), 10);
        assert_eq!(result.accuracy_series.len(), 6);
        assert!((0.0..=1.0).contains(&result.accuracy));
        assert_eq!(result.engine.candidates, 7, "initial + one per step");
        assert!(result.engine.cache.hits > 0, "proposals share prefixes");
        // The chosen recipe's |acc-0.5| must be <= the initial recipe's.
        let initial_acc = {
            let deployed = Recipe::resyn2().apply(&locked.aig);
            proxy.predict_accuracy(&locked, &deployed)
        };
        assert!(
            (result.accuracy - 0.5).abs() <= (initial_acc - 0.5).abs() + 1e-9,
            "search must not be worse than the baseline: {} vs {}",
            result.accuracy,
            initial_acc
        );
    }
}
