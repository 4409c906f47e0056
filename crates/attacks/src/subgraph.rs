//! Key-gate locality extraction: the enclosing subgraphs OMLA classifies.
//!
//! After synthesis the inserted XOR/XNOR key gates are dissolved into the
//! AIG, but the *key inputs* are interface-stable. A locality is the
//! h-hop undirected neighbourhood of a key-input node; node features
//! describe gate kind, fanin complementation (where the XOR-vs-XNOR signal
//! survives bubble pushing), fanout and distance — the information OMLA's
//! GNN learns from.
//!
//! Optionally the structural features are augmented with *functional
//! signatures* — per-node signal probability and switching activity from
//! one word-level sweep of the compiled netlist ([`SignalSignatures`],
//! backed by `almost_aig::compile`). Signature extraction is opt-in
//! (`extract_all_localities_with_signatures`) so the default feature
//! layout, and every model trained on it, is unchanged.

use almost_aig::sim::random_input_words;
use almost_aig::{Aig, CompiledAig, NodeKind, Var};
use almost_ml::gin::Graph;
use almost_ml::tensor::Matrix;
use std::collections::{HashMap, VecDeque};

/// Locality-extraction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SubgraphConfig {
    /// Neighbourhood radius in hops (undirected).
    pub hops: usize,
    /// Hard cap on subgraph size (BFS order keeps the closest nodes).
    pub max_nodes: usize,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        SubgraphConfig {
            hops: 3,
            max_nodes: 40,
        }
    }
}

/// Number of per-node features produced by the extractor.
pub const NUM_FEATURES: usize = 11;

/// Feature width when functional signatures are appended (probability
/// and switching activity).
pub const NUM_SIGNATURE_FEATURES: usize = NUM_FEATURES + 2;

/// Per-node functional signatures from one word-level batch sweep of the
/// compiled netlist: the signal probability of every output-reachable
/// node under `64 * num_words` random patterns. Computed once per
/// netlist and shared across all localities extracted from it.
pub struct SignalSignatures {
    probs: Vec<f32>,
}

impl SignalSignatures {
    /// Simulates `aig` on `64 * num_words` random patterns through the
    /// compiled batch evaluator. Nodes outside the output cone (which
    /// the compiler skips) get the maximum-uncertainty value 0.5.
    pub fn compute(aig: &Aig, num_words: usize, seed: u64) -> Self {
        let input_words = random_input_words(aig.num_inputs(), num_words, seed);
        let code = CompiledAig::compile(aig);
        let ones = code.register_popcounts(&input_words, num_words);
        let patterns = (num_words * 64) as u64;
        let probs = aig
            .iter_vars()
            .map(|v| match code.register_of(v) {
                Some(r) => almost_ml::data::signal_probability(ones[r as usize], patterns),
                None => 0.5,
            })
            .collect();
        SignalSignatures { probs }
    }

    /// Signal probability of node `var` (0.5 for uncompiled nodes).
    pub fn probability(&self, var: Var) -> f32 {
        self.probs.get(var as usize).copied().unwrap_or(0.5)
    }

    /// Switching activity `2p(1-p)` of node `var`.
    pub fn activity(&self, var: Var) -> f32 {
        almost_ml::data::switching_activity(self.probability(var))
    }
}

/// Extracts the locality subgraph of the key input at input position
/// `key_input_pos`, labelled with `label`.
///
/// # Panics
///
/// Panics if `key_input_pos` is out of range.
pub fn extract_locality(
    aig: &Aig,
    fanouts: &[Vec<Var>],
    key_input_positions: &[usize],
    key_input_pos: usize,
    label: bool,
    config: &SubgraphConfig,
) -> Graph {
    extract_locality_inner(
        aig,
        fanouts,
        key_input_positions,
        key_input_pos,
        label,
        config,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn extract_locality_inner(
    aig: &Aig,
    fanouts: &[Vec<Var>],
    key_input_positions: &[usize],
    key_input_pos: usize,
    label: bool,
    config: &SubgraphConfig,
    signatures: Option<&SignalSignatures>,
) -> Graph {
    let center = aig.inputs()[key_input_pos];
    let key_vars: std::collections::HashSet<Var> = key_input_positions
        .iter()
        .map(|&p| aig.inputs()[p])
        .collect();

    // BFS out to `hops`, collecting nodes in distance order.
    let mut dist: HashMap<Var, usize> = HashMap::new();
    let mut order: Vec<Var> = Vec::new();
    let mut queue = VecDeque::new();
    dist.insert(center, 0);
    queue.push_back(center);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        order.push(v);
        if order.len() >= config.max_nodes || d >= config.hops {
            continue;
        }
        let mut neighbours: Vec<Var> = Vec::new();
        if let NodeKind::And(a, b) = aig.node(v) {
            neighbours.push(a.var());
            neighbours.push(b.var());
        }
        neighbours.extend(fanouts[v as usize].iter().copied());
        for n in neighbours {
            if n != 0 && !dist.contains_key(&n) {
                dist.insert(n, d + 1);
                queue.push_back(n);
            }
        }
    }
    order.truncate(config.max_nodes);
    let index: HashMap<Var, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // Edges within the subgraph (undirected, deduplicated by from<to).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (&v, &i) in &index {
        if let NodeKind::And(a, b) = aig.node(v) {
            for f in [a.var(), b.var()] {
                if let Some(&j) = index.get(&f) {
                    if i < j {
                        edges.push((i, j));
                    } else {
                        edges.push((j, i));
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    // Node features.
    let width = if signatures.is_some() {
        NUM_SIGNATURE_FEATURES
    } else {
        NUM_FEATURES
    };
    let mut features = Matrix::zeros(order.len(), width);
    for (i, &v) in order.iter().enumerate() {
        let node = aig.node(v);
        let is_center = v == center;
        let is_key = key_vars.contains(&v);
        features.set(i, 0, is_center as u8 as f32);
        features.set(i, 1, (is_key && !is_center) as u8 as f32);
        match node {
            NodeKind::Input(_) => {
                if !is_key {
                    features.set(i, 2, 1.0);
                }
            }
            NodeKind::And(a, b) => {
                features.set(i, 3, 1.0);
                let compl = a.is_complement() as usize + b.is_complement() as usize;
                features.set(i, 4 + compl, 1.0);
            }
            NodeKind::Const0 => {}
        }
        let fo = fanouts[v as usize].len() as f32;
        features.set(i, 7, (1.0 + fo).ln() / 3.0);
        features.set(i, 8, dist[&v] as f32 / config.hops.max(1) as f32);
        // Fraction of fanout edges that consume this node complemented.
        let mut compl_out = 0usize;
        for &fo_node in &fanouts[v as usize] {
            if let NodeKind::And(a, b) = aig.node(fo_node) {
                if (a.var() == v && a.is_complement()) || (b.var() == v && b.is_complement()) {
                    compl_out += 1;
                }
            }
        }
        if !fanouts[v as usize].is_empty() {
            features.set(i, 9, compl_out as f32 / fanouts[v as usize].len() as f32);
        }
        features.set(i, 10, 1.0);
        if let Some(sigs) = signatures {
            features.set(i, 11, sigs.probability(v));
            features.set(i, 12, sigs.activity(v));
        }
    }

    Graph::from_edges(order.len(), &edges, features, label)
}

/// Extracts the localities of all listed key inputs at once.
///
/// `labels[i]` is the key bit of `key_input_positions[i]`.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn extract_all_localities(
    aig: &Aig,
    key_input_positions: &[usize],
    labels: &[bool],
    config: &SubgraphConfig,
) -> Vec<Graph> {
    extract_all_localities_opt(aig, key_input_positions, labels, config, None)
}

/// Like [`extract_all_localities`], but appends the two functional
/// signature features (signal probability, switching activity) to every
/// node — feature width [`NUM_SIGNATURE_FEATURES`]. `signatures` must
/// come from [`SignalSignatures::compute`] on the *same* netlist.
pub fn extract_all_localities_with_signatures(
    aig: &Aig,
    key_input_positions: &[usize],
    labels: &[bool],
    config: &SubgraphConfig,
    signatures: &SignalSignatures,
) -> Vec<Graph> {
    extract_all_localities_opt(aig, key_input_positions, labels, config, Some(signatures))
}

fn extract_all_localities_opt(
    aig: &Aig,
    key_input_positions: &[usize],
    labels: &[bool],
    config: &SubgraphConfig,
    signatures: Option<&SignalSignatures>,
) -> Vec<Graph> {
    assert_eq!(key_input_positions.len(), labels.len());
    let fanouts = aig.fanouts();
    key_input_positions
        .iter()
        .zip(labels)
        .map(|(&pos, &label)| {
            extract_locality_inner(
                aig,
                &fanouts,
                key_input_positions,
                pos,
                label,
                config,
                signatures,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn locality_contains_the_center() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(8).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
        );
        assert_eq!(graphs.len(), 8);
        for g in &graphs {
            assert!(g.num_nodes() >= 2, "locality must include neighbours");
            // Exactly one center flag.
            let centers: f32 = (0..g.num_nodes()).map(|i| g.features.get(i, 0)).sum();
            assert_eq!(centers, 1.0);
        }
    }

    #[test]
    fn labels_match_key_bits() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(16).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
        );
        for (g, &bit) in graphs.iter().zip(locked.key.bits()) {
            assert_eq!(g.label, bit);
        }
    }

    #[test]
    fn respects_max_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = IscasBenchmark::C1355.build();
        let locked = Rll::new(4).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let cfg = SubgraphConfig {
            hops: 6,
            max_nodes: 12,
        };
        for g in extract_all_localities(&locked.aig, &positions, locked.key.bits(), &cfg) {
            assert!(g.num_nodes() <= 12);
        }
    }

    #[test]
    fn signatures_match_the_node_walk_simulator() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(8).lock(&base, &mut rng).expect("lockable");
        let num_words = 4;
        let seed = 99;
        let sigs = SignalSignatures::compute(&locked.aig, num_words, seed);
        // Rebuild the exact input words SignalSignatures drew, then
        // compare against the node walk on the same stimulus.
        let input_words = random_input_words(locked.aig.num_inputs(), num_words, seed);
        // The node walk on a clone exposing every node as an output, so
        // internal node values become observable.
        let aig = &locked.aig;
        let mut every_node = aig.clone();
        for v in aig.iter_vars() {
            every_node.add_output(almost_aig::Lit::positive(v));
        }
        let num_patterns = num_words * 64;
        let mut ones = vec![0u64; aig.num_nodes()];
        for pattern in almost_aig::compile::unpack_output_words(num_patterns, &input_words) {
            let values = every_node.eval(&pattern);
            for (count, &on) in ones.iter_mut().zip(&values[aig.num_outputs()..]) {
                *count += u64::from(on);
            }
        }
        let code = CompiledAig::compile(aig);
        for v in aig.iter_vars() {
            let got = sigs.probability(v);
            if code.register_of(v).is_some() {
                let want = ones[v as usize] as f32 / num_patterns as f32;
                assert!(
                    (got - want).abs() < 1e-6,
                    "var {v}: compiled prob {got} vs node walk {want}"
                );
            } else {
                assert_eq!(got, 0.5, "uncompiled var {v} must stay neutral");
            }
        }
    }

    #[test]
    fn signature_features_widen_the_matrix() {
        let mut rng = StdRng::seed_from_u64(6);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(4).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let sigs = SignalSignatures::compute(&locked.aig, 2, 7);
        let graphs = extract_all_localities_with_signatures(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
            &sigs,
        );
        assert_eq!(graphs[0].features.cols(), NUM_SIGNATURE_FEATURES);
        for g in &graphs {
            for i in 0..g.num_nodes() {
                let p = g.features.get(i, 11);
                let a = g.features.get(i, 12);
                assert!((0.0..=1.0).contains(&p));
                assert!((a - almost_ml::data::switching_activity(p)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn features_have_expected_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(4).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
        );
        assert_eq!(graphs[0].features.cols(), NUM_FEATURES);
    }
}
