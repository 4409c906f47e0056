//! ALMOST: Adversarial Learning to Mitigate Oracle-less ML Attacks via
//! Synthesis Tuning (DAC 2023) — the paper's primary contribution.
//!
//! ALMOST is *security-aware logic synthesis*: keep the weakest locking
//! scheme (RLL) and search the synthesis-recipe space for recipes that
//! push oracle-less attack accuracy to ~50% (random guessing) while
//! leaving PPA essentially untouched. The two components:
//!
//! 1. **Recipe search** ([`security`], Eq. 1): simulated annealing
//!    ([`engine::SearchEngine::anneal`], configured by [`sa`]) over
//!    fixed-length recipes ([`recipe`], L = 10, seven ABC
//!    transformations) minimising `|acc − 0.5|`.
//! 2. **Adversarially trained proxy M\*** ([`proxy`], Algorithm 1): a GIN
//!    key-bit classifier that predicts attack accuracy for any recipe,
//!    trained with every-R-epochs adversarial recipe augmentation (the
//!    min–max objective of Eq. 6).
//!
//! Every search (security, PPA re-synthesis, joint, RL episodes, the
//! adversarial inner loop) runs on the unified batched engine in
//! [`engine`]: a recipe-trie synthesis cache sharing intermediates
//! across sibling proposals, pool-parallel candidate synthesis, and
//! batch-fused GIN scoring behind one [`engine::SearchObjective`] trait.
//!
//! [`pipeline::run_almost`] glues the full Fig.-3 flow together;
//! [`ppa_opt`] reproduces the attacker-re-synthesis study (Fig. 5);
//! [`config::Scale`] switches between laptop-quick and paper-scale
//! hyperparameters.
//!
//! # Example
//!
//! ```no_run
//! use almost_core::pipeline::{run_almost, AlmostConfig};
//! use almost_circuits::IscasBenchmark;
//!
//! let design = IscasBenchmark::C1355.build();
//! let outcome = run_almost(&design, &AlmostConfig::default()).expect("lockable");
//! println!("S_ALMOST = {}", outcome.recipe);
//! println!("predicted attack accuracy = {:.1}%", outcome.search.accuracy * 100.0);
//! ```

pub mod config;
pub mod engine;
pub mod multi_objective;
pub mod pipeline;
pub mod ppa_opt;
pub mod proxy;
pub mod recipe;
pub mod rl;
pub mod sa;
pub mod security;

pub use config::Scale;
pub use engine::{
    EngineRun, EngineStats, MappedPpaObjective, ProxyAccuracyObjective, Score, SearchEngine,
    SearchObjective, WeightedJointObjective,
};
pub use multi_objective::{joint_search, JointResult, JointWeights};
pub use pipeline::{run_almost, AlmostConfig, AlmostOutcome};
pub use ppa_opt::{resynthesis_search, PpaObjective, ResynthesisResult};
pub use proxy::{accuracy_on_random_set, train_proxy, ProxyConfig, ProxyKind, ProxyModel};
pub use recipe::{Recipe, RecipeTrie, TrieStats, RECIPE_LENGTH, TRIE_NODE_BUDGET};
pub use rl::{reinforce, RecipePolicy, ReinforceConfig, ReinforceResult};
pub use sa::{SaConfig, SaTrace};
pub use security::{generate_secure_recipe, SecurityResult};
