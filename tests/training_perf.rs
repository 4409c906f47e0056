//! Release-mode behavioural envelope for the GIN training hot path.
//!
//! Wall-clock assertions alone cannot distinguish "the kernels got
//! slower" from "CI had a noisy neighbour", so this test pins two
//! *deterministic* counters next to one generous wall-time ceiling and
//! one kernel speed ratio (both sides timed on the same host, so a noisy
//! neighbour slows them alike):
//!
//! - **Allocation-free hot loop**: the per-block tapes recycle their
//!   buffers, so training for more epochs must not allocate a single
//!   additional matrix buffer after the first-epoch warm-up
//!   (`TrainStats::tape_allocs` is identical for 2 and 8 epochs).
//! - **Op-count linearity**: `TrainStats::tape_ops` scales exactly with
//!   the epoch count — nothing silently re-records or skips work.
//! - **Epoch wall time**: the mean epoch of a table-2-profile OMLA cell
//!   (ci scale: 120 graphs, ≤32-node localities, hidden 20, 2 GIN
//!   rounds) stays under a ~10x envelope of the measured cost, so an
//!   order-of-magnitude regression in the sparse aggregation or the
//!   in-place backward fails here, in the CI `perf-smoke` job.
//! - **Dense kernel speed**: at one training block's shape, the
//!   register-tiled `matmul_acc_into` / `matmul_at_acc_into` must stay at
//!   least 1.5x faster than a test-side copy of the axpy loop they
//!   replaced — a lost tile (say, a scalar remainder path taking over)
//!   fails here even when the epoch envelope still passes.
//!
//! Debug builds skip (the envelope is calibrated for `--release`).

use almost_ml::gin::{GinClassifier, Graph};
use almost_ml::tensor::Matrix;
use almost_ml::train::{train, train_with_callback, TrainConfig};
use std::time::Instant;

/// A synthetic table-2-profile dataset: OMLA ci-scale shapes (120
/// localities of up to 32 nodes, 11 features) without the circuit
/// machinery, so the envelope isolates the ML hot path.
fn omla_profile_dataset() -> Vec<Graph> {
    let mut state = 0xD1CEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..120)
        .map(|_| {
            let nodes = 8 + (next() % 25) as usize; // 8..=32
            let label = next().is_multiple_of(2);
            let mut f = Matrix::zeros(nodes, 11);
            for r in 0..nodes {
                for c in 0..11 {
                    if next().is_multiple_of(3) {
                        f.set(r, c, (next() % 200) as f32 / 100.0 - 1.0);
                    }
                }
                if label {
                    f.set(r, 0, 1.0);
                }
            }
            // Fan-in ≤ 2 localities: a binary-tree-ish edge set.
            let edges: Vec<(usize, usize)> = (1..nodes).map(|v| (v / 2, v)).collect();
            Graph::from_edges(nodes, &edges, f, label)
        })
        .collect()
}

fn config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        learning_rate: 5e-3,
        seed: 7,
    }
}

#[test]
fn hot_loop_is_allocation_free_and_op_linear() {
    let data = omla_profile_dataset();
    let short = train(&mut GinClassifier::new(11, 20, 2, 3), &data, &config(2));
    let long = train(&mut GinClassifier::new(11, 20, 2, 3), &data, &config(8));
    assert_eq!(
        short.tape_allocs, long.tape_allocs,
        "every epoch after warm-up must run out of recycled buffers"
    );
    assert_eq!(
        long.tape_ops,
        4 * short.tape_ops,
        "tape op count must scale exactly with the epoch count"
    );
    assert!(short.tape_allocs > 0, "the counter is actually wired");
}

#[test]
fn epoch_wall_time_stays_inside_the_envelope() {
    if !almost_repro::testutil::release_mode("training wall-time envelope") {
        return;
    }
    let data = omla_profile_dataset();
    let mut model = GinClassifier::new(11, 20, 2, 3);
    // Warm up the tapes (first epoch pays the workspace allocations).
    train(&mut model, &data, &config(1));
    let mut epoch_ms: Vec<f64> = Vec::new();
    let mut last = Instant::now();
    train_with_callback(&mut model, &data, &config(12), |_, _| {
        epoch_ms.push(last.elapsed().as_secs_f64() * 1e3);
        last = Instant::now();
    });
    let mean = epoch_ms.iter().sum::<f64>() / epoch_ms.len() as f64;
    eprintln!("mean epoch {mean:.2} ms over {} epochs", epoch_ms.len());
    // Measured ~4.4 ms/epoch at this profile on a 2-vCPU Xeon host (9.3 ms
    // there before the tiled kernels and fused dense layer); 25 ms is the
    // order-of-magnitude tripwire, not a tight bound — if a deliberate
    // model/kernel change moved it, re-measure and re-pin.
    assert!(
        mean < 25.0,
        "mean epoch {mean:.2} ms blew the 25 ms envelope — the training hot path regressed"
    );
}

/// Test-side copy of the k-blocked axpy kernel the tiled GEMM replaced:
/// `out += a × b`, streaming a row of `out` through memory for every `k`.
fn axpy_matmul_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    const KC: usize = 64;
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut kb = 0;
    while kb < kdim {
        let kend = (kb + KC).min(kdim);
        for i in 0..m {
            let a_row = &a.data()[i * kdim..][..kdim];
            let out_row = &mut out.data_mut()[i * n..][..n];
            for (k, &av) in a_row.iter().enumerate().take(kend).skip(kb) {
                let b_row = &b.data()[k * n..][..n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        kb = kend;
    }
}

/// Test-side copy of the replaced transposed-left axpy kernel:
/// `out += aᵀ × b`.
fn axpy_matmul_at_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (kdim, m, n) = (a.rows(), a.cols(), b.cols());
    for k in 0..kdim {
        let a_row = &a.data()[k * m..][..m];
        let b_row = &b.data()[k * n..][..n];
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = &mut out.data_mut()[i * n..][..n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Best-of-7 seconds for 4,000 calls of each kernel into `out`, the two
/// kernels' rounds alternating so host noise hits both alike.
fn best_secs_pair(
    out: &mut Matrix,
    axpy: impl Fn(&mut Matrix),
    tiled: impl Fn(&mut Matrix),
) -> (f64, f64) {
    let mut time = |kernel: &dyn Fn(&mut Matrix)| {
        let start = Instant::now();
        for _ in 0..KERNEL_REPS {
            kernel(std::hint::black_box(&mut *out));
        }
        start.elapsed().as_secs_f64()
    };
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        best.0 = best.0.min(time(&axpy));
        best.1 = best.1.min(time(&tiled));
    }
    best
}

/// Calls per timed round in [`best_secs_pair`].
const KERNEL_REPS: usize = 4000;

#[test]
fn tiled_kernels_beat_the_axpy_loop_at_the_block_shape() {
    if !almost_repro::testutil::release_mode("dense kernel envelope") {
        return;
    }
    // One 4-graph training block at the paper's GIN shape: ~40 node rows
    // of width 32 against a 32 × 32 weight.
    let x = Matrix::he_init(40, 32, 1);
    let w = Matrix::he_init(32, 32, 2);
    let g = Matrix::he_init(40, 32, 3);
    let mut out = Matrix::zeros(40, 32);
    let mut wgrad = Matrix::zeros(32, 32);

    let mut tiled_out = Matrix::zeros(40, 32);
    let mut axpy_out = Matrix::zeros(40, 32);
    x.matmul_acc_into(&w, &mut tiled_out);
    axpy_matmul_acc(&x, &w, &mut axpy_out);
    assert_eq!(tiled_out, axpy_out, "same products in the same order");
    let mut tiled_at = Matrix::zeros(32, 32);
    let mut axpy_at = Matrix::zeros(32, 32);
    x.matmul_at_acc_into(&g, &mut tiled_at);
    axpy_matmul_at_acc(&x, &g, &mut axpy_at);
    assert_eq!(tiled_at, axpy_at, "same products in the same order");

    let forms = [
        (
            "x × w",
            best_secs_pair(
                &mut out,
                |o| axpy_matmul_acc(&x, &w, o),
                |o| x.matmul_acc_into(&w, o),
            ),
        ),
        (
            "xᵀ × g",
            best_secs_pair(
                &mut wgrad,
                |o| axpy_matmul_at_acc(&x, &g, o),
                |o| x.matmul_at_acc_into(&g, o),
            ),
        ),
    ];
    for (name, (axpy, tiled)) in forms {
        let speedup = axpy / tiled;
        eprintln!(
            "{name}: axpy {:.2} us, tiled {:.2} us, {speedup:.2}x",
            axpy / KERNEL_REPS as f64 * 1e6,
            tiled / KERNEL_REPS as f64 * 1e6
        );
        // About 2x when measured; 1.5x leaves room for a noisy host.
        assert!(
            speedup >= 1.5,
            "{name}: tiled kernel only {speedup:.2}x the axpy loop (want >= 1.5x)"
        );
    }
}
