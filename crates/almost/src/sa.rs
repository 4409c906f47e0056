//! Simulated-annealing parameters and traces.
//!
//! The paper's black-box optimiser (§III-C): 100 iterations, initial
//! temperature 120, acceptance scaling 1.8, one-position mutation moves,
//! pick-best-seen fallback when the budget runs out before the objective
//! reaches its target. The annealer itself is
//! [`crate::engine::SearchEngine::anneal`]; this module holds its
//! configuration and the trace it records.

use crate::recipe::Recipe;

/// Annealer parameters (defaults follow §IV-C).
#[derive(Clone, Copy, Debug)]
pub struct SaConfig {
    /// Number of iterations (temperature steps).
    pub iterations: usize,
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Acceptance scaling factor applied to the objective delta.
    pub acceptance: f64,
    /// Final temperature of the geometric schedule.
    pub final_temperature: f64,
    /// Mutations proposed (and scored as one batch) per temperature
    /// step; must be at least 1. At 1 the search is the classic serial
    /// annealer: one candidate and one acceptance draw per step.
    pub proposals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 100,
            initial_temperature: 120.0,
            acceptance: 1.8,
            final_temperature: 1.0,
            proposals: 1,
            seed: 0x5A,
        }
    }
}

/// One annealing step's record.
#[derive(Clone, Debug)]
pub struct SaIteration {
    /// The candidate recipe proposed this step.
    pub recipe: Recipe,
    /// Its objective value (lower is better).
    pub objective: f64,
    /// Whether the move was accepted.
    pub accepted: bool,
    /// Best objective seen so far (after this step).
    pub best_objective: f64,
}

/// The annealing trajectory (drives the paper's Fig. 4/5 plots).
#[derive(Clone, Debug)]
pub struct SaTrace {
    /// Per-iteration records, in order.
    pub iterations: Vec<SaIteration>,
}

impl SaTrace {
    /// The per-iteration objective series.
    pub fn objectives(&self) -> Vec<f64> {
        self.iterations.iter().map(|i| i.objective).collect()
    }

    /// The per-iteration best-so-far series.
    pub fn best_series(&self) -> Vec<f64> {
        self.iterations.iter().map(|i| i.best_objective).collect()
    }
}
