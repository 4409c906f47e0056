//! Oracle backend throughput: patterns/second for the compiled
//! instruction-buffer evaluator vs the interpreted node walk, plus the
//! one-off compile cost, across ISCAS-profile benchmarks.
//!
//! Shape to reproduce: the compiled backend answers batched queries one
//! to two orders of magnitude faster than the walk (no enum dispatch, 64
//! patterns per instruction), which is what makes AppSAT-style
//! random-query settlement and signature sweeps cheap. The CI perf-smoke
//! job pins a 10x floor on c1355 (`tests/oracle_throughput.rs`); this
//! harness records the actual margins.

use almost_bench::{banner, pool, write_csv};
use almost_circuits::IscasBenchmark;
use almost_core::Scale;
use almost_locking::{BatchOracle, CircuitOracle, InterpretedOracle};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

fn main() {
    almost_bench::observed("oracle_throughput", run);
}

fn patterns_for(num_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..num_inputs).map(|_| rng.random()).collect())
        .collect()
}

fn run() {
    let scale = Scale::from_env();
    banner(
        "Oracle throughput: compiled batch evaluator vs node walk",
        scale,
    );
    let benches = match scale {
        Scale::Quick => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
        ],
        Scale::Paper => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
            IscasBenchmark::C1908,
            IscasBenchmark::C3540,
        ],
    };
    let num_patterns = match scale {
        Scale::Quick => 4096,
        Scale::Paper => 65_536,
    };

    println!(
        "{:<8} {:>6} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "bench", "ands", "patterns", "walk pat/s", "comp pat/s", "compile", "speedup"
    );
    let results = pool::map_indexed(benches, |_, bench| {
        let design = bench.build();
        let patterns = patterns_for(design.num_inputs(), num_patterns, 0xC1355);

        let walk = InterpretedOracle::new(design.clone());
        let started = Instant::now();
        let walk_answers = walk.query_batch(&patterns);
        let walk_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let compiled = CircuitOracle::new(design.clone());
        let compile_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let compiled_answers = compiled.query_batch(&patterns);
        let compiled_secs = started.elapsed().as_secs_f64();
        assert_eq!(walk_answers, compiled_answers, "backends must agree");

        let walk_rate = num_patterns as f64 / walk_secs.max(1e-12);
        let compiled_rate = num_patterns as f64 / compiled_secs.max(1e-12);
        let speedup = compiled_rate / walk_rate;
        let stats = compiled.compile_stats();
        let line = format!(
            "{:<8} {:>6} {:>8} {:>12.0} {:>12.0} {:>10.1}ms {:>7.1}x",
            bench.name(),
            design.num_ands(),
            num_patterns,
            walk_rate,
            compiled_rate,
            compile_secs * 1e3,
            speedup
        );
        let row = vec![
            bench.name().into(),
            design.num_ands().to_string(),
            stats.instructions.to_string(),
            num_patterns.to_string(),
            format!("{walk_secs:.6}"),
            format!("{compiled_secs:.6}"),
            format!("{compile_secs:.6}"),
            format!("{walk_rate:.0}"),
            format!("{compiled_rate:.0}"),
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
        "oracle_throughput.csv",
        "bench,ands,instructions,patterns,walk_seconds,compiled_seconds,compile_seconds,walk_patterns_per_sec,compiled_patterns_per_sec,speedup",
        &rows,
    );
}
