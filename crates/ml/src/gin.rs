//! Graph isomorphism network (GIN) layers and the subgraph classifier used
//! by the OMLA-style attack.
//!
//! OMLA represents the locality around each key-gate as an enclosing
//! subgraph with node features, and classifies the subgraph to predict the
//! key bit. The model here follows that recipe: K rounds of GIN message
//! passing (`H' = MLP(Â H)`, `Â = A + I`), mean-pool readout, and a small
//! MLP head producing a single logit.
//!
//! There is one forward pass, [`GinClassifier::forward_batch`], over a
//! block-diagonal union of graphs; training, accuracy and prediction all
//! go through it, and a batch of one is the single-graph case.

use crate::nn::{BoundLinear, Linear};
use crate::tape::{sigmoid, NodeId, Tape};
use crate::tensor::{Matrix, SparseMatrix};
use std::sync::Arc;

/// Graphs per [`GinClassifier::forward_batch`] call in
/// [`GinClassifier::predict_probs_batch`]. Bounds the inference tape's
/// size; rows do not depend on their batch, so it changes no output bit.
const PREDICT_CHUNK: usize = 32;

/// One input graph: a symmetric CSR adjacency (with self-loops folded in)
/// plus node features and a binary label.
///
/// The adjacency is shared behind an [`Arc`] so cloning a `Graph` (the
/// dataset utilities do) and recording it on a tape (every forward pass
/// does) are both refcount bumps, not structure copies.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `Â = A + I`, n × n, symmetric, stored sparse (AIG localities have
    /// fan-in ≤ 2, so `Â` carries ~3 entries per row).
    pub adj_hat: Arc<SparseMatrix>,
    /// Node features, n × d.
    pub features: Matrix,
    /// The key bit (training target).
    pub label: bool,
}

impl Graph {
    /// Builds a graph from an undirected edge list, folding in self-loops.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node outside `features`' rows.
    pub fn from_edges(
        num_nodes: usize,
        edges: &[(usize, usize)],
        features: Matrix,
        label: bool,
    ) -> Self {
        assert_eq!(features.rows(), num_nodes);
        Graph {
            adj_hat: Arc::new(SparseMatrix::adjacency_hat(num_nodes, edges)),
            features,
            label,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }
}

/// The OMLA-style GIN subgraph classifier.
#[derive(Clone, Debug)]
pub struct GinClassifier {
    convs: Vec<(Linear, Linear)>,
    readout: Linear,
    head: Linear,
    input_dim: usize,
}

/// Tape bindings of all model parameters, in [`GinClassifier::parameters`]
/// order.
#[derive(Clone, Debug)]
pub struct BoundModel {
    convs: Vec<(BoundLinear, BoundLinear)>,
    readout: BoundLinear,
    head: BoundLinear,
}

impl BoundModel {
    /// Parameter node ids, in [`GinClassifier::parameters`] order.
    pub fn param_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (l1, l2) in &self.convs {
            out.extend([l1.w, l1.b, l2.w, l2.b]);
        }
        out.extend([self.readout.w, self.readout.b, self.head.w, self.head.b]);
        out
    }
}

impl GinClassifier {
    /// A classifier with `num_layers` GIN rounds of width `hidden` over
    /// `input_dim`-dimensional node features.
    pub fn new(input_dim: usize, hidden: usize, num_layers: usize, seed: u64) -> Self {
        let mut convs = Vec::with_capacity(num_layers);
        for k in 0..num_layers {
            let d_in = if k == 0 { input_dim } else { hidden };
            convs.push((
                Linear::new(d_in, hidden, seed.wrapping_add(2 * k as u64 + 1)),
                Linear::new(hidden, hidden, seed.wrapping_add(2 * k as u64 + 2)),
            ));
        }
        GinClassifier {
            convs,
            readout: Linear::new(hidden, hidden, seed.wrapping_add(101)),
            head: Linear::new(hidden, 1, seed.wrapping_add(102)),
            input_dim,
        }
    }

    /// The expected feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// All trainable parameter matrices (stable order).
    pub fn parameters(&self) -> Vec<&Matrix> {
        let mut out = Vec::new();
        for (l1, l2) in &self.convs {
            out.extend([&l1.w, &l1.b, &l2.w, &l2.b]);
        }
        out.extend([&self.readout.w, &self.readout.b, &self.head.w, &self.head.b]);
        out
    }

    /// Mutable access to the parameters (same order as
    /// [`GinClassifier::parameters`]).
    pub fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::new();
        for (l1, l2) in &mut self.convs {
            out.push(&mut l1.w);
            out.push(&mut l1.b);
            out.push(&mut l2.w);
            out.push(&mut l2.b);
        }
        out.push(&mut self.readout.w);
        out.push(&mut self.readout.b);
        out.push(&mut self.head.w);
        out.push(&mut self.head.b);
        out
    }

    /// Inserts all parameters onto a tape.
    pub fn bind(&self, tape: &mut Tape) -> BoundModel {
        BoundModel {
            convs: self
                .convs
                .iter()
                .map(|(l1, l2)| (l1.bind(tape), l2.bind(tape)))
                .collect(),
            readout: self.readout.bind(tape),
            head: self.head.bind(tape),
        }
    }

    /// Forward pass over a batch of graphs, producing a `graphs.len()` × 1
    /// logit column. The graphs are fused into one block-diagonal union:
    /// one [`Tape::spmm`] per GIN round for the whole batch (O(E·d), not
    /// the dense O(n²·d)), batch-wide fused dense layers
    /// ([`Tape::dense`]), segment-mean readout.
    ///
    /// Every op involved treats rows independently — spmm rows only reach
    /// within their own diagonal block, the MLPs are row-wise, and pooling
    /// is per segment — so row `b` of the output depends on graph `b`
    /// alone, bit for bit, whatever else shares the batch.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or a feature width differs from
    /// [`GinClassifier::input_dim`].
    pub fn forward_batch(&self, tape: &mut Tape, bound: &BoundModel, graphs: &[&Graph]) -> NodeId {
        assert!(!graphs.is_empty(), "batch must be non-empty");
        for g in graphs {
            assert_eq!(g.features.cols(), self.input_dim, "feature width");
        }
        let union = Arc::new(SparseMatrix::block_diagonal(
            &graphs
                .iter()
                .map(|g| g.adj_hat.as_ref())
                .collect::<Vec<_>>(),
        ));
        let feats: Vec<&Matrix> = graphs.iter().map(|g| &g.features).collect();
        let mut h = tape.leaf_concat_rows(&feats);
        for (b1, b2) in &bound.convs {
            let agg = tape.spmm(&union, h);
            let a1 = Linear::forward_relu(*b1, tape, agg);
            h = Linear::forward_relu(*b2, tape, a1);
        }
        let seg_lens: Vec<u32> = graphs.iter().map(|g| g.num_nodes() as u32).collect();
        let pooled = tape.segment_mean_rows(h, &seg_lens);
        let r = Linear::forward_relu(bound.readout, tape, pooled);
        Linear::forward(bound.head, tape, r)
    }

    /// Predicted probabilities that each graph's key bit is 1.
    ///
    /// The graphs go through [`GinClassifier::forward_batch`] in chunks of
    /// 32 on one reused tape, so memory stays bounded whatever the list
    /// length. Entry `b` depends on `graphs[b]` alone (the batched
    /// forward's row-independence contract), so neither the chunking nor
    /// splitting a list across calls changes any bit.
    pub fn predict_probs_batch(&self, graphs: &[&Graph]) -> Vec<f32> {
        let mut tape = Tape::new();
        let mut probs = Vec::with_capacity(graphs.len());
        for chunk in graphs.chunks(PREDICT_CHUNK) {
            tape.reset();
            let bound = self.bind(&mut tape);
            let logits = self.forward_batch(&mut tape, &bound, chunk);
            let values = tape.value(logits);
            probs.extend((0..chunk.len()).map(|b| sigmoid(values.get(b, 0))));
        }
        probs
    }

    /// Classification accuracy over a labelled set (threshold 0.5).
    pub fn accuracy(&self, graphs: &[Graph]) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        let refs: Vec<&Graph> = graphs.iter().collect();
        let correct = self
            .predict_probs_batch(&refs)
            .into_iter()
            .zip(graphs)
            .filter(|(p, g)| (*p >= 0.5) == g.label)
            .count();
        correct as f64 / graphs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph(label: bool, bias: f32) -> Graph {
        // Two nodes, one edge; features separated by `bias`.
        let features = Matrix::from_rows(&[&[bias, 1.0], &[bias, 0.0]]);
        Graph::from_edges(2, &[(0, 1)], features, label)
    }

    #[test]
    fn forward_is_deterministic() {
        let model = GinClassifier::new(2, 8, 2, 42);
        let g = toy_graph(true, 0.5);
        assert_eq!(
            model.predict_probs_batch(&[&g]),
            model.predict_probs_batch(&[&g])
        );
    }

    #[test]
    fn batched_forward_emits_one_logit_per_graph() {
        let model = GinClassifier::new(2, 8, 2, 9);
        let graphs = [
            toy_graph(true, 0.4),
            toy_graph(false, -1.2),
            toy_graph(true, 2.0),
        ];
        let refs: Vec<&Graph> = graphs.iter().collect();
        let mut tape = Tape::new();
        let bound = model.bind(&mut tape);
        let logits = model.forward_batch(&mut tape, &bound, &refs);
        assert_eq!(
            (tape.value(logits).rows(), tape.value(logits).cols()),
            (3, 1)
        );
        assert_eq!(model.predict_probs_batch(&refs).len(), 3);
        assert!(model.predict_probs_batch(&[]).is_empty());
    }

    #[test]
    fn chunked_prediction_matches_one_graph_at_a_time() {
        let model = GinClassifier::new(2, 8, 2, 5);
        let graphs: Vec<Graph> = (0..2 * PREDICT_CHUNK + 3)
            .map(|i| toy_graph(i % 2 == 0, i as f32 / 10.0 - 3.0))
            .collect();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let singles: Vec<f32> = graphs
            .iter()
            .flat_map(|g| model.predict_probs_batch(&[g]))
            .collect();
        assert_eq!(model.predict_probs_batch(&refs), singles);
    }

    #[test]
    fn adjacency_is_sparse_and_symmetric() {
        let g = toy_graph(true, 1.0);
        assert!(g.adj_hat.is_symmetric());
        assert_eq!(g.adj_hat.nnz(), 4); // two self-loops + one edge both ways
    }

    #[test]
    fn parameter_count_is_consistent() {
        let model = GinClassifier::new(3, 16, 2, 1);
        let n = model.parameters().len();
        assert_eq!(n, 2 * 4 + 4);
        let mut m = model.clone();
        assert_eq!(m.parameters_mut().len(), n);
        let mut tape = Tape::new();
        assert_eq!(model.bind(&mut tape).param_nodes().len(), n);
    }

    #[test]
    fn untrained_predictions_are_probabilities() {
        let model = GinClassifier::new(2, 8, 2, 7);
        let graphs: Vec<Graph> = [-2.0, 0.0, 2.0]
            .into_iter()
            .map(|bias| toy_graph(false, bias))
            .collect();
        let refs: Vec<&Graph> = graphs.iter().collect();
        for p in model.predict_probs_batch(&refs) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn accuracy_on_empty_set_is_zero() {
        let model = GinClassifier::new(2, 4, 1, 3);
        assert_eq!(model.accuracy(&[]), 0.0);
    }
}
