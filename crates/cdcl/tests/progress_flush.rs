//! Traced `SolverProgress` deltas must account for every unit of solver
//! effort: heartbeats fire every 8192 conflicts, and each `solve*` call
//! flushes the remainder on exit, so the summed deltas of a query equal
//! the solver's own [`SolverStats`] exactly — both for a query that never
//! reaches a heartbeat and for one that crosses several.
//!
//! Telemetry is process-global, so this file holds a single test.

use almost_cdcl::{SatLit, SatResult, Solver, SolverStats};
use almost_telemetry::{Event, EventKind, Sink, SolverCounters};
use std::sync::{Arc, Mutex};

/// Collects the delta of every `SolverProgress` event.
struct DeltaSink(Arc<Mutex<Vec<SolverCounters>>>);

impl Sink for DeltaSink {
    fn record(&mut self, event: &Event) {
        if let EventKind::SolverProgress { delta, .. } = event.kind {
            self.0.lock().expect("delta lock").push(delta);
        }
    }

    fn finish(&mut self) {}
}

/// Pigeonhole principle: `holes + 1` pigeons into `holes` holes (UNSAT,
/// and exponentially hard for resolution as `holes` grows).
fn pigeonhole(holes: usize) -> Solver {
    let mut solver = Solver::new();
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| (p * holes + h) as u32;
    for _ in 0..pigeons * holes {
        solver.new_var();
    }
    for p in 0..pigeons {
        let clause: Vec<SatLit> = (0..holes).map(|h| SatLit::positive(var(p, h))).collect();
        solver.add_clause(&clause);
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                solver.add_clause(&[SatLit::new(var(p, h), true), SatLit::new(var(q, h), true)]);
            }
        }
    }
    solver
}

/// Runs `query` on `solver` under a capturing sink; returns the
/// heartbeat count, the summed deltas and the solver's final stats.
fn traced(
    mut solver: Solver,
    query: impl FnOnce(&mut Solver),
) -> (usize, SolverCounters, SolverStats) {
    let deltas = Arc::new(Mutex::new(Vec::new()));
    almost_telemetry::install(vec![Box::new(DeltaSink(deltas.clone()))], true);
    query(&mut solver);
    almost_telemetry::finish();
    let deltas = deltas.lock().expect("delta lock");
    let sum = deltas
        .iter()
        .fold(SolverCounters::default(), |acc, d| SolverCounters {
            decisions: acc.decisions + d.decisions,
            propagations: acc.propagations + d.propagations,
            conflicts: acc.conflicts + d.conflicts,
            restarts: acc.restarts + d.restarts,
        });
    (deltas.len(), sum, solver.stats())
}

fn assert_deltas_sum_to_stats(sum: SolverCounters, stats: SolverStats) {
    assert_eq!(sum.conflicts, stats.conflicts, "conflicts");
    assert_eq!(sum.propagations, stats.propagations, "propagations");
    assert_eq!(sum.restarts, stats.restarts, "restarts");
    assert_eq!(sum.decisions, stats.decisions, "decisions");
}

#[test]
fn progress_deltas_sum_to_solver_stats_below_and_above_the_heartbeat() {
    let (events, sum, stats) = traced(pigeonhole(4), |s| {
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    });
    assert!(
        stats.conflicts > 0 && stats.conflicts < 8192,
        "small query must stay under one heartbeat, took {} conflicts",
        stats.conflicts
    );
    assert_eq!(events, 1, "only the exit flush fires");
    assert_deltas_sum_to_stats(sum, stats);

    // The budget ends the query mid-interval: one heartbeat at 8192
    // conflicts, then the flush of the remaining 1808.
    let (events, sum, stats) = traced(pigeonhole(8), |s| {
        assert_eq!(
            s.solve_limited(&[], 10_000),
            None,
            "PHP(9, 8) outlasts the budget"
        );
    });
    assert_eq!(stats.conflicts, 10_000);
    assert_eq!(events, 2, "one heartbeat plus the exit flush");
    assert_deltas_sum_to_stats(sum, stats);
}
