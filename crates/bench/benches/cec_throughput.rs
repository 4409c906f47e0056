//! CEC throughput: fraig-first sweeping vs the legacy budgeted
//! monolithic miter, across ISCAS-profile benchmarks.
//!
//! Shape to reproduce: on structurally similar pairs (the common CEC
//! case — original vs. restructured, locked vs. key-programmed) the
//! fraig sweep decomposes the proof into many small input-to-output
//! queries and settles *unbudgeted*, while the monolithic miter either
//! burns its whole conflict budget for `None` (arithmetic circuits —
//! c6288) or pays far more for the same verdict. The CI perf-smoke job
//! pins a 5x floor on the c6288 pair (`tests/cec_envelope.rs`); this
//! harness records the actual margins.
//!
//! Each row checks a benchmark against a *redundified* copy of itself:
//! every 16th AND is wrapped in the absorption identity
//! `u -> (u & s) | (u & !s)`, which survives strash, so the sweep has to
//! prove every wrapper away with real SAT queries before the output
//! cones collapse.

use almost_aig::{Aig, Lit, NodeKind};
use almost_bench::{banner, pool, write_csv};
use almost_circuits::IscasBenchmark;
use almost_core::Scale;
use almost_sat::{check_equivalence, check_equivalence_limited, Equivalence};
use std::time::Instant;

/// Conflict budget for the legacy reference point (matches
/// `tests/cec_envelope.rs`).
const LEGACY_BUDGET: u64 = 20_000;

fn main() {
    almost_bench::observed("cec", run);
}

/// Functionally identical, structurally divergent copy: every
/// `stride`-th AND is wrapped in `u -> (u & s) | (u & !s)`.
fn redundify(aig: &Aig, stride: usize) -> Aig {
    let mut out = Aig::new();
    let inputs: Vec<Lit> = (0..aig.num_inputs()).map(|_| out.add_input()).collect();
    let select = inputs[0];
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for (i, &v) in aig.inputs().iter().enumerate() {
        map[v as usize] = inputs[i];
    }
    let mut ands = 0usize;
    for v in 0..aig.num_nodes() {
        if let NodeKind::And(fa, fb) = aig.node(v as u32) {
            let a = map[fa.var() as usize].xor_complement(fa.is_complement());
            let b = map[fb.var() as usize].xor_complement(fb.is_complement());
            let mut lit = out.and(a, b);
            ands += 1;
            if ands.is_multiple_of(stride) && !lit.is_const() {
                let then_arm = out.and(lit, select);
                let else_arm = out.and(lit, !select);
                lit = out.or(then_arm, else_arm);
            }
            map[v] = lit;
        }
    }
    for &o in aig.outputs() {
        out.add_output(map[o.var() as usize].xor_complement(o.is_complement()));
    }
    out
}

fn verdict_label(v: &Option<Equivalence>) -> &'static str {
    match v {
        None => "undecided",
        Some(Equivalence::Equivalent) => "equivalent",
        Some(Equivalence::Counterexample(_)) => "counterexample",
    }
}

fn run() {
    let scale = Scale::from_env();
    banner("CEC throughput: fraig-first sweep vs budgeted miter", scale);
    let benches = match scale {
        Scale::Quick => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C1355,
            IscasBenchmark::C6288,
        ],
        Scale::Paper => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
            IscasBenchmark::C1908,
            IscasBenchmark::C3540,
            IscasBenchmark::C6288,
        ],
    };

    println!(
        "{:<8} {:>6} {:>8} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "bench", "ands", "pair", "legacy", "fraig", "legacy_verdict", "fraig_verdict", "speedup"
    );
    let results = pool::map_indexed(benches, |_, bench| {
        let original = bench.build();
        let restructured = redundify(&original, 16);

        let started = Instant::now();
        let legacy = check_equivalence_limited(&original, &restructured, LEGACY_BUDGET);
        let legacy_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let verdict = check_equivalence(&original, &restructured);
        let fraig_secs = started.elapsed().as_secs_f64();
        assert_eq!(
            verdict,
            Equivalence::Equivalent,
            "{bench}: redundified pair must certify equivalent"
        );

        let fraig_verdict = verdict_label(&Some(verdict));

        let speedup = legacy_secs / fraig_secs.max(1e-12);
        let line = format!(
            "{:<8} {:>6} {:>8} {:>10.3}s {:>10.3}s {:>14} {:>14} {:>7.1}x",
            bench.name(),
            original.num_ands(),
            restructured.num_ands(),
            legacy_secs,
            fraig_secs,
            verdict_label(&legacy),
            fraig_verdict,
            speedup
        );
        let row = vec![
            bench.name().into(),
            original.num_ands().to_string(),
            restructured.num_ands().to_string(),
            LEGACY_BUDGET.to_string(),
            format!("{legacy_secs:.6}"),
            verdict_label(&legacy).into(),
            format!("{fraig_secs:.6}"),
            fraig_verdict.into(),
            format!("{speedup:.2}"),
        ];
        (line, row)
    });

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (line, row) in results {
        println!("{line}");
        rows.push(row);
    }

    write_csv(
        "cec_throughput.csv",
        "bench,ands,restructured_ands,legacy_budget,legacy_seconds,legacy_verdict,fraig_seconds,fraig_verdict,speedup",
        &rows,
    );
}
