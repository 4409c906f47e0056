//! Release-mode throughput envelope for the compiled oracle backend.
//!
//! The instruction-buffer evaluator exists for one reason: batched oracle
//! queries (AppSAT settlement, signature sweeps, probe evaluation) must
//! not be bottlenecked by the enum-dispatching node walk. Two floors on
//! the XOR-dominated c1355 profile:
//!
//! - **Word-level fast path** (`query_words`, what Double-DIP probes and
//!   signature sweeps use): at least 10x the interpreted walk in
//!   patterns/second. The measured gap is far larger, so this only fails
//!   when the fast path stops being fast — a register-indirection
//!   regression or an accidental per-pattern loop.
//! - **Bool-batch convenience path** (`query_batch`, what AppSAT
//!   settlement uses): at least 3x. This path pays per-pattern `Vec`
//!   materialisation on both sides, so its ceiling is allocator-bound;
//!   the floor catches the fused pack/eval/unpack loop degenerating to
//!   scalar queries.
//!
//! Every timing is the best of three runs — a floor should compare the
//! backends' capabilities, not whichever run ate a scheduler hiccup.
//! Debug builds skip (the envelope is calibrated for `--release`).

use almost_repro::aig::compile::pack_patterns;
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{BatchOracle, CircuitOracle, InterpretedOracle};
use almost_repro::testutil::release_mode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

fn best_of_3<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let started = Instant::now();
    let mut result = run();
    let mut fastest = started.elapsed().as_secs_f64();
    for _ in 0..2 {
        let started = Instant::now();
        result = run();
        fastest = fastest.min(started.elapsed().as_secs_f64());
    }
    (fastest, result)
}

#[test]
fn compiled_oracle_is_at_least_ten_times_faster_on_c1355() {
    if !release_mode("compiled_oracle_is_at_least_ten_times_faster_on_c1355") {
        return;
    }
    let design = IscasBenchmark::C1355.build();
    let mut rng = StdRng::seed_from_u64(0xC1355);
    let num_patterns = 16_384usize;
    let patterns: Vec<Vec<bool>> = (0..num_patterns)
        .map(|_| (0..design.num_inputs()).map(|_| rng.random()).collect())
        .collect();
    let words = pack_patterns(design.num_inputs(), &patterns);
    let num_words = num_patterns / 64;

    let walk = InterpretedOracle::new(design.clone());
    let compiled = CircuitOracle::new(design);

    // Warm up both paths so first-touch allocation is off the clock.
    let warmup = &patterns[..64];
    assert_eq!(walk.query_batch(warmup), compiled.query_batch(warmup));

    // Word-level fast path: >= 10x.
    let (walk_secs, want) = best_of_3(|| walk.query_words(&words, num_words));
    let (compiled_secs, got) = best_of_3(|| compiled.query_words(&words, num_words));
    assert_eq!(
        got, want,
        "backends must agree before timing means anything"
    );
    let speedup = walk_secs / compiled_secs.max(1e-12);
    assert!(
        speedup >= 10.0,
        "compiled word-level path must be >= 10x the node walk on c1355, got {speedup:.1}x \
         (walk {walk_secs:.4}s, compiled {compiled_secs:.4}s for {num_patterns} patterns)"
    );

    // Bool-batch convenience path: >= 3x.
    let (walk_secs, want) = best_of_3(|| walk.query_batch(&patterns));
    let (compiled_secs, got) = best_of_3(|| compiled.query_batch(&patterns));
    assert_eq!(
        got, want,
        "backends must agree before timing means anything"
    );
    let speedup = walk_secs / compiled_secs.max(1e-12);
    assert!(
        speedup >= 3.0,
        "compiled bool-batch path must be >= 3x the node walk on c1355, got {speedup:.1}x \
         (walk {walk_secs:.4}s, compiled {compiled_secs:.4}s for {num_patterns} patterns)"
    );
}
