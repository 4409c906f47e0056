//! Row independence of the batched GIN forward.
//!
//! `GinClassifier::predict_probs_batch` fuses its graphs into one
//! block-diagonal union. Every caller that scores graphs in batches —
//! accuracy, proxy losses, OMLA key-bit prediction, the search engine's
//! fused candidate scoring — relies on row `b` depending on graph `b`
//! alone. This property checks it bitwise: scoring a random graph list
//! whole, in two parts split at a random point, and one graph at a time
//! gives the same `f32` bit patterns.

use almost_ml::gin::{GinClassifier, Graph};
use almost_ml::tensor::Matrix;
use proptest::prelude::*;

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

const FEATURES: usize = 3;

/// `count` random graphs of 1–10 nodes with random undirected edges and
/// features in [-2, 2).
fn random_graphs(count: usize, seed: u64) -> Vec<Graph> {
    let mut next = stream(seed);
    (0..count)
        .map(|_| {
            let nodes = 1 + (next() % 10) as usize;
            let mut edges = Vec::new();
            for u in 0..nodes {
                for v in (u + 1)..nodes {
                    if next().is_multiple_of(3) {
                        edges.push((u, v));
                    }
                }
            }
            let mut features = Matrix::zeros(nodes, FEATURES);
            for r in 0..nodes {
                for c in 0..FEATURES {
                    features.set(r, c, (next() % 4000) as f32 / 1000.0 - 2.0);
                }
            }
            Graph::from_edges(nodes, &edges, features, next().is_multiple_of(2))
        })
        .collect()
}

fn prob_bits(model: &GinClassifier, graphs: &[Graph]) -> Vec<u32> {
    let refs: Vec<&Graph> = graphs.iter().collect();
    model
        .predict_probs_batch(&refs)
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_rows_do_not_depend_on_their_batch(
        seed in 0u64..1_000_000,
        count in 1usize..13,
        split in 0usize..13,
        layers in 1usize..4,
    ) {
        let graphs = random_graphs(count, seed);
        let model = GinClassifier::new(FEATURES, 8, layers, seed ^ 0x61E);
        let whole = prob_bits(&model, &graphs);
        prop_assert_eq!(whole.len(), count);

        let (head, tail) = graphs.split_at(split.min(count));
        let mut parts = prob_bits(&model, head);
        parts.extend(prob_bits(&model, tail));
        prop_assert_eq!(&parts, &whole, "split at {}", head.len());

        let singles: Vec<u32> = graphs
            .iter()
            .flat_map(|g| prob_bits(&model, std::slice::from_ref(g)))
            .collect();
        prop_assert_eq!(&singles, &whole, "one graph per call");
    }
}
