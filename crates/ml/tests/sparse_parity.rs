//! Dense-vs-sparse parity suite for the CSR training engine.
//!
//! Three layers of evidence that the sparse hot path computes exactly
//! what the dense reference computes:
//!
//! 1. **Kernel parity** (property): `spmm(csr(A), H)` equals
//!    `A.matmul(H)` element-wise on random sparse matrices — and
//!    *bit*-equal, because CSR rows add the same products in the same
//!    ascending-column order as a dense row scan.
//! 2. **Gradient correctness**: the `Tape::spmm` op passes a central
//!    finite-difference check on random symmetric operators.
//! 3. **End-to-end golden**: a fixed-seed sparse + data-parallel
//!    training run reproduces pinned `epoch_losses` and final accuracy
//!    bit-for-bit.

use almost_ml::gin::{GinClassifier, Graph};
use almost_ml::tape::Tape;
use almost_ml::tensor::{Matrix, SparseMatrix};
use almost_ml::train::{train, TrainConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic xorshift stream.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random matrix with roughly `density` nonzero entries.
fn random_sparse_dense(rows: usize, cols: usize, density_pct: u64, seed: u64) -> Matrix {
    let mut next = stream(seed);
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if next() % 100 < density_pct {
                let v = (next() % 2000) as f32 / 100.0 - 10.0;
                m.set(r, c, v);
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel parity: CSR spmm equals (bitwise) the dense matmul on
    /// random sparse matrices of arbitrary shape and density.
    #[test]
    fn spmm_matches_dense_matmul(
        seed in 0u64..1_000_000,
        rows in 1usize..24,
        inner in 1usize..24,
        cols in 1usize..12,
        density in 0u64..60,
    ) {
        let a = random_sparse_dense(rows, inner, density, seed);
        let h = random_sparse_dense(inner, cols, 90, seed ^ 0xA5A5);
        let csr = SparseMatrix::from_dense(&a);
        prop_assert_eq!(csr.to_dense(), a.clone(), "CSR round-trip");
        let sparse = csr.spmm(&h);
        let dense = a.matmul(&h);
        prop_assert_eq!(sparse, dense, "same products in the same order");
    }

    /// Gradient correctness: finite-difference check of the spmm op on a
    /// random symmetric Â over a random feature matrix.
    #[test]
    fn spmm_gradient_passes_finite_differences(
        seed in 0u64..1_000_000,
        n in 2usize..10,
        d in 1usize..5,
    ) {
        let mut next = stream(seed);
        // Random undirected edge set (self-loops come from adjacency_hat).
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if next().is_multiple_of(3) {
                    edges.push((u, v));
                }
            }
        }
        let adj = Arc::new(SparseMatrix::adjacency_hat(n, &edges));
        prop_assert!(adj.is_symmetric());
        let input = random_sparse_dense(n, d, 95, seed ^ 0x5EED);
        let col = random_sparse_dense(d, 1, 100, seed ^ 0xC01);

        let forward = |x: &Matrix| -> (f32, Option<Matrix>) {
            let mut t = Tape::new();
            let xn = t.leaf(x.clone());
            let agg = t.spmm(&adj, xn);
            let pooled = t.mean_rows(agg);
            let c = t.leaf(col.clone());
            let s = t.matmul(pooled, c);
            let l = t.bce_with_logits(s, 1.0);
            t.backward(l);
            (t.value(l).get(0, 0), t.grad(xn).cloned())
        };
        let (_, analytic) = forward(&input);
        let analytic = analytic.expect("input participates");
        let eps = 1e-2f32;
        for i in 0..input.data().len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let numeric = (forward(&plus).0 - forward(&minus).0) / (2.0 * eps);
            let a = analytic.data()[i];
            prop_assert!(
                (a - numeric).abs() <= 2e-2 * (1.0 + numeric.abs()),
                "entry {}: analytic {} vs numeric {}", i, a, numeric
            );
        }
    }
}

/// An OMLA-shaped synthetic dataset: chain localities whose label is
/// decodable from the centre node's feature.
fn locality_dataset(n: usize, nodes: usize, seed: u64) -> Vec<Graph> {
    let mut next = stream(seed);
    (0..n)
        .map(|_| {
            let label = next().is_multiple_of(2);
            let signal = if label { 1.0 } else { -1.0 };
            let mut f = Matrix::zeros(nodes, 3);
            for r in 0..nodes {
                let noise = (next() % 100) as f32 / 500.0;
                f.set(r, 0, signal + noise);
                f.set(r, 1, (r == 0) as u8 as f32);
                f.set(r, 2, 1.0);
            }
            let edges: Vec<(usize, usize)> = (1..nodes).map(|v| (v - 1, v)).collect();
            Graph::from_edges(nodes, &edges, f, label)
        })
        .collect()
}

/// `train`'s per-epoch mean losses on the fixed-seed run below, as
/// `f32::to_bits`.
const GOLDEN_EPOCH_LOSSES: [u32; 12] = [
    0x3ee6_f695,
    0x3e27_c7e5,
    0x3da8_7d13,
    0x3d49_b924,
    0x3cf2_27ed,
    0x3c7e_22ed,
    0x3c04_c587,
    0x3b96_d06e,
    0x3b33_5305,
    0x3ae7_0fc4,
    0x3a9f_c265,
    0x3a6e_cbfb,
];

/// `train`'s final training-set accuracy on the same run, as
/// `f64::to_bits`.
const GOLDEN_FINAL_ACCURACY: u64 = 0x3ff0_0000_0000_0000;

/// End-to-end golden: a fixed-seed sparse + data-parallel training run
/// reproduces these loss and accuracy bit patterns. They were recorded
/// when the crate still carried a dense-aggregation serial trainer as a
/// reference, and that trainer produced the same bits. Produced on
/// Linux/glibc.
#[test]
fn sparse_parallel_training_matches_the_golden_loss_curve() {
    let data = locality_dataset(96, 12, 0xA110C);
    let config = TrainConfig {
        epochs: 12,
        batch_size: 32,
        learning_rate: 5e-3,
        seed: 4,
    };
    let mut model = GinClassifier::new(3, 12, 2, 77);
    let stats = train(&mut model, &data, &config);
    let losses: Vec<u32> = stats.epoch_losses.iter().map(|l| l.to_bits()).collect();
    println!("epoch losses {losses:x?}");
    println!("final accuracy {:#018x}", stats.final_accuracy.to_bits());
    assert_eq!(losses, GOLDEN_EPOCH_LOSSES, "epoch losses");
    assert_eq!(
        stats.final_accuracy.to_bits(),
        GOLDEN_FINAL_ACCURACY,
        "final accuracy"
    );
}
