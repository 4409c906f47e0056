//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records an expression DAG as operations execute (eager
//! forward), then [`Tape::backward`] walks it in reverse, accumulating
//! gradients. Exactly the op set the OMLA-style GIN classifier needs is
//! provided — including the sparse aggregation [`Tape::spmm`] — and every
//! op's gradient is validated against finite differences in the tests.
//!
//! # Zero-clone backward, recycled buffers
//!
//! The tape is built for a training loop that replays thousands of small
//! graphs per epoch, so the hot path avoids allocation instead of relying
//! on the allocator being fast:
//!
//! - Storage is struct-of-arrays (`ops` / `values` / `grads`), so the
//!   backward walk borrows the op being differentiated while mutating the
//!   gradient slots of its operands — no per-step `Op` clone, and the
//!   upstream gradient is read in place via a `split_at_mut` around the
//!   current node (operands always precede their result).
//! - Gradients accumulate **in place**: each backward rule adds its
//!   contribution directly into the operand's (lazily zero-initialised)
//!   gradient slot through the accumulating kernels of
//!   [`crate::tensor`]. The only scratch matrices are the transposed
//!   right operand of an input-gradient product and the fused dense
//!   rule's pre-activation gradient, both in recycled buffers.
//! - A dense layer is one node ([`Tape::dense`]: product, bias, optional
//!   ReLU), so its backward forms the pre-activation gradient once and
//!   runs the two tiled products from it.
//! - Only nodes a parameter leaf reaches carry gradients: constant
//!   inputs ([`Tape::leaf_concat_rows`]) and everything computed from
//!   them alone are skipped, as is any product operand that needs none.
//! - [`Tape::reset`] recycles every value and gradient buffer into a
//!   spare-buffer pool that the next recording draws from, so a tape
//!   reused across minibatches stops allocating entirely after warm-up.
//!   [`Tape::stats`] exposes lifetime counters ([`TapeStats`]) that the
//!   `training_perf` envelope test pins.

use crate::tensor::{Matrix, SparseMatrix};
use std::sync::Arc;

/// Handle to a value on a [`Tape`].
pub type NodeId = usize;

#[derive(Clone, Debug)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    /// Sparse aggregation `Â × h` with a *symmetric* CSR operator: the
    /// backward pass reuses the same matrix (`Âᵀ = Â`), so no transpose
    /// is ever materialised.
    Spmm(Arc<SparseMatrix>, NodeId),
    Add(NodeId, NodeId),
    /// Fused dense layer `x × w + b` (bias row broadcast), rectified when
    /// `relu` is set.
    Dense {
        x: NodeId,
        w: NodeId,
        b: NodeId,
        relu: bool,
    },
    MeanRows(NodeId),
    /// Per-segment row mean: row `b` of the output is the mean of the
    /// input rows in segment `b` (consecutive; lengths stored). The
    /// pooled readout of a minibatch of concatenated graphs.
    SegmentMeanRows(NodeId, Vec<u32>),
    Scale(NodeId, f32),
    /// Binary cross-entropy with logits against a constant target;
    /// produces a 1×1 loss.
    BceWithLogits(NodeId, f32),
    /// Summed binary cross-entropy of a B×1 logit column against
    /// per-row constant targets; produces a 1×1 loss.
    BceWithLogitsBatch(NodeId, Vec<f32>),
}

/// Lifetime workspace counters of a [`Tape`]; cumulative across
/// [`Tape::reset`] calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeStats {
    /// Nodes recorded over the tape's lifetime.
    pub nodes_recorded: u64,
    /// Buffers created because the spare pool was empty. A reused tape
    /// stops incrementing this after its first few recordings — the
    /// allocation-free-hot-loop property the release envelope test pins.
    pub fresh_buffers: u64,
}

/// A gradient tape; see the [module documentation](self).
///
/// # Example
///
/// ```
/// use almost_ml::tape::Tape;
/// use almost_ml::tensor::Matrix;
///
/// let mut t = Tape::new();
/// let x = t.leaf(Matrix::from_rows(&[&[2.0]]));
/// let y = t.scale(x, 3.0);
/// let loss = t.bce_with_logits(y, 1.0);
/// t.backward(loss);
/// // d/dx [softplus(3x) - 3x] = 3 (sigmoid(3x) - 1)
/// let g = t.grad(x).expect("gradient exists");
/// assert!(g.get(0, 0) < 0.0);
/// ```
#[derive(Default)]
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
    /// Per node: does a parameter leaf reach it? Constant inputs
    /// ([`Tape::leaf_concat_rows`]) and everything computed from them
    /// alone carry no gradient, so `backward` skips them.
    needs_grad: Vec<bool>,
    /// Recycled flat buffers, refilled by [`Tape::reset`].
    spare: Vec<Vec<f32>>,
    stats: TapeStats,
}

/// Pops a spare buffer (or allocates one) and shapes it into a zeroed
/// `rows × cols` matrix. Free function so `backward` can call it while
/// `self`'s other fields are borrowed.
fn alloc_zeroed(
    spare: &mut Vec<Vec<f32>>,
    stats: &mut TapeStats,
    rows: usize,
    cols: usize,
) -> Matrix {
    let data = match spare.pop() {
        Some(mut buf) => {
            buf.clear();
            buf.resize(rows * cols, 0.0);
            buf
        }
        None => {
            stats.fresh_buffers += 1;
            vec![0.0; rows * cols]
        }
    };
    Matrix::from_vec(rows, cols, data)
}

/// Returns the operand's gradient slot, zero-initialising it on first use.
fn grad_slot<'a>(
    slot: &'a mut Option<Matrix>,
    spare: &mut Vec<Vec<f32>>,
    stats: &mut TapeStats,
    rows: usize,
    cols: usize,
) -> &'a mut Matrix {
    slot.get_or_insert_with(|| alloc_zeroed(spare, stats, rows, cols))
}

/// Pops a cleared spare buffer (capacity kept, length 0), or allocates
/// one, for writers that fill every entry — no zero-fill double-touch.
fn take_spare(spare: &mut Vec<Vec<f32>>, stats: &mut TapeStats) -> Vec<f32> {
    match spare.pop() {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => {
            stats.fresh_buffers += 1;
            Vec::new()
        }
    }
}

/// `out += g × bᵀ`, the input-gradient product. `b` is transposed into a
/// recycled scratch buffer so the product runs the tiled kernel; the
/// O(k·n) transpose is small next to the O(m·k·n) product.
fn matmul_bt_acc(
    g: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    spare: &mut Vec<Vec<f32>>,
    stats: &mut TapeStats,
) {
    let mut buf = take_spare(spare, stats);
    b.transpose_extend(&mut buf);
    let bt = Matrix::from_vec(b.cols(), b.rows(), buf);
    g.matmul_acc_into(&bt, out);
    spare.push(bt.into_data());
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clears the recording but keeps every buffer: values and gradients
    /// are returned to the spare pool for the next recording to reuse.
    pub fn reset(&mut self) {
        self.ops.clear();
        self.needs_grad.clear();
        for m in self.values.drain(..) {
            self.spare.push(m.into_data());
        }
        for m in self.grads.drain(..).flatten() {
            self.spare.push(m.into_data());
        }
    }

    /// Lifetime workspace counters (cumulative across [`Tape::reset`]).
    pub fn stats(&self) -> TapeStats {
        self.stats
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let needs_grad = match &op {
            Op::Leaf => true,
            Op::MatMul(a, b) | Op::Add(a, b) => self.needs_grad[*a] || self.needs_grad[*b],
            Op::Dense { x, w, b, .. } => {
                self.needs_grad[*x] || self.needs_grad[*w] || self.needs_grad[*b]
            }
            Op::Spmm(_, a)
            | Op::MeanRows(a)
            | Op::SegmentMeanRows(a, _)
            | Op::Scale(a, _)
            | Op::BceWithLogits(a, _)
            | Op::BceWithLogitsBatch(a, _) => self.needs_grad[*a],
        };
        self.push_with(value, op, needs_grad)
    }

    fn push_with(&mut self, value: Matrix, op: Op, needs_grad: bool) -> NodeId {
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        self.needs_grad.push(needs_grad);
        self.stats.nodes_recorded += 1;
        self.values.len() - 1
    }

    fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        alloc_zeroed(&mut self.spare, &mut self.stats, rows, cols)
    }

    /// Pops a cleared spare buffer (capacity kept, length 0) for ops that
    /// overwrite every entry — no zero-fill double-touch.
    fn take_buf(&mut self) -> Vec<f32> {
        take_spare(&mut self.spare, &mut self.stats)
    }

    /// Inserts an input/parameter value, taking ownership (its buffer
    /// joins the recycling pool on [`Tape::reset`]).
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Inserts an input/parameter value by copying it into a recycled
    /// buffer — the zero-churn way to re-bind model parameters on a
    /// reused tape every minibatch.
    pub fn leaf_copy(&mut self, value: &Matrix) -> NodeId {
        let mut buf = self.take_buf();
        buf.extend_from_slice(value.data());
        let m = Matrix::from_vec(value.rows(), value.cols(), buf);
        self.push(m, Op::Leaf)
    }

    /// Inserts a **constant** leaf that vertically concatenates `parts`
    /// (equal column counts) into one matrix — how a minibatch of graphs'
    /// features become one input, without an intermediate allocation.
    /// It carries no gradient, and neither does anything computed from
    /// it alone: [`Tape::backward`] skips that work.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the column counts disagree.
    pub fn leaf_concat_rows(&mut self, parts: &[&Matrix]) -> NodeId {
        let cols = parts.first().expect("at least one part").cols();
        let mut rows = 0;
        let mut buf = self.take_buf();
        for p in parts {
            assert_eq!(p.cols(), cols, "column counts must agree");
            rows += p.rows();
            buf.extend_from_slice(p.data());
        }
        let m = Matrix::from_vec(rows, cols, buf);
        self.push_with(m, Op::Leaf, false)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.values[id]
    }

    /// The accumulated gradient of a node (after [`Tape::backward`]);
    /// `None` for nodes no parameter leaf reaches.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads[id].as_ref()
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut out = self.alloc(self.values[a].rows(), self.values[b].cols());
        self.values[a].matmul_acc_into(&self.values[b], &mut out);
        self.push(out, Op::MatMul(a, b))
    }

    /// Sparse aggregation `adj × h` where `adj` is a **symmetric** CSR
    /// matrix (e.g. `Â = A + I` of an undirected graph). The gradient is
    /// `Âᵀ × g`, and symmetry lets the backward pass reuse `adj` itself.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch; debug builds also assert symmetry.
    pub fn spmm(&mut self, adj: &Arc<SparseMatrix>, h: NodeId) -> NodeId {
        debug_assert!(
            adj.is_symmetric(),
            "Tape::spmm requires a symmetric operator (backward reuses it as its own transpose)"
        );
        let mut out = self.alloc(adj.rows(), self.values[h].cols());
        adj.spmm_acc_into(&self.values[h], &mut out);
        self.push(out, Op::Spmm(Arc::clone(adj), h))
    }

    /// Elementwise sum (same shapes).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.values[a], &self.values[b]);
        assert_eq!((va.rows(), va.cols()), (vb.rows(), vb.cols()));
        let mut buf = self.take_buf();
        let (va, vb) = (&self.values[a], &self.values[b]);
        buf.extend(va.data().iter().zip(vb.data()).map(|(&x, &y)| x + y));
        let out = Matrix::from_vec(va.rows(), va.cols(), buf);
        self.push(out, Op::Add(a, b))
    }

    /// Fused dense layer `x × w + b`: the product, then the `1 × cols`
    /// bias row added to every row, then `max(0, ·)` when `relu` is set —
    /// one node, with the same operations in the same order as the three
    /// separate steps.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `b` is not `1 × cols(w)`.
    pub fn dense(&mut self, x: NodeId, w: NodeId, b: NodeId, relu: bool) -> NodeId {
        let mut out = self.alloc(self.values[x].rows(), self.values[w].cols());
        let (vx, vw, vb) = (&self.values[x], &self.values[w], &self.values[b]);
        assert_eq!((vb.rows(), vb.cols()), (1, vw.cols()), "bias shape");
        vx.matmul_acc_into(vw, &mut out);
        for row in out.data_mut().chunks_exact_mut(vb.cols()) {
            for (o, &bias) in row.iter_mut().zip(vb.data()) {
                *o += bias;
                if relu {
                    *o = o.max(0.0);
                }
            }
        }
        self.push(out, Op::Dense { x, w, b, relu })
    }

    /// Column-wise mean producing a 1×cols row (graph readout pooling).
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let va = &self.values[a];
        let mut out = self.alloc(1, va.cols());
        let va = &self.values[a];
        let cols = va.cols();
        for a_row in va.data().chunks_exact(cols) {
            for (o, &x) in out.data_mut().iter_mut().zip(a_row) {
                *o += x;
            }
        }
        let n = va.rows().max(1) as f32;
        for o in out.data_mut() {
            *o /= n;
        }
        self.push(out, Op::MeanRows(a))
    }

    /// Per-segment row mean: the rows of `a` are split into consecutive
    /// segments of the given lengths, and row `b` of the result is the
    /// mean of segment `b` — the batched readout pooling (each segment is
    /// one graph of a concatenated minibatch). Row `b`'s sum runs over
    /// its segment rows ascending, exactly like [`Tape::mean_rows`] on
    /// that graph alone.
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not cover the rows of `a` exactly, or if
    /// a segment is empty.
    pub fn segment_mean_rows(&mut self, a: NodeId, seg_lens: &[u32]) -> NodeId {
        let va = &self.values[a];
        assert_eq!(
            seg_lens.iter().map(|&l| l as usize).sum::<usize>(),
            va.rows(),
            "segment lengths must cover the rows"
        );
        let cols = va.cols();
        let mut out = alloc_zeroed(&mut self.spare, &mut self.stats, seg_lens.len(), cols);
        let va = &self.values[a];
        let mut start = 0usize;
        for (b, &len) in seg_lens.iter().enumerate() {
            let len = len as usize;
            assert!(len > 0, "empty segment");
            let out_row = &mut out.data_mut()[b * cols..][..cols];
            for a_row in va.data()[start * cols..(start + len) * cols].chunks_exact(cols) {
                for (o, &x) in out_row.iter_mut().zip(a_row) {
                    *o += x;
                }
            }
            for o in out_row.iter_mut() {
                *o /= len as f32;
            }
            start += len;
        }
        self.push(out, Op::SegmentMeanRows(a, seg_lens.to_vec()))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let mut buf = self.take_buf();
        let va = &self.values[a];
        buf.extend(va.data().iter().map(|&x| x * s));
        let out = Matrix::from_vec(va.rows(), va.cols(), buf);
        self.push(out, Op::Scale(a, s))
    }

    /// Binary cross-entropy with logits: `softplus(z) − target·z`, where
    /// `z` is the single entry of a 1×1 node. Numerically stable.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not 1×1.
    pub fn bce_with_logits(&mut self, a: NodeId, target: f32) -> NodeId {
        let z = {
            let m = &self.values[a];
            assert_eq!((m.rows(), m.cols()), (1, 1), "logit must be a scalar");
            m.get(0, 0)
        };
        let mut out = self.alloc(1, 1);
        out.set(0, 0, softplus(z) - target * z);
        self.push(out, Op::BceWithLogits(a, target))
    }

    /// **Summed** binary cross-entropy with logits over a B×1 logit
    /// column: `Σ_b softplus(z_b) − t_b·z_b`, a 1×1 node. The sum runs
    /// over rows ascending, matching a left fold of [`Tape::add`] over
    /// per-row [`Tape::bce_with_logits`] nodes bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `targets.len() × 1`.
    pub fn bce_with_logits_batch(&mut self, a: NodeId, targets: &[f32]) -> NodeId {
        let sum = {
            let m = &self.values[a];
            assert_eq!(
                (m.rows(), m.cols()),
                (targets.len(), 1),
                "logits must be one column matching the targets"
            );
            let mut acc = 0.0f32;
            for (&z, &t) in m.data().iter().zip(targets) {
                acc += softplus(z) - t * z;
            }
            acc
        };
        let mut out = self.alloc(1, 1);
        out.set(0, 0, sum);
        self.push(out, Op::BceWithLogitsBatch(a, targets.to_vec()))
    }

    /// Runs backpropagation from `root` (which must be 1×1).
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a scalar node.
    pub fn backward(&mut self, root: NodeId) {
        {
            let m = &self.values[root];
            assert_eq!((m.rows(), m.cols()), (1, 1), "backward root must be scalar");
        }
        // Recycle gradients of any previous backward pass on this
        // recording.
        for i in 0..self.grads.len() {
            if let Some(m) = self.grads[i].take() {
                self.spare.push(m.into_data());
            }
        }
        let mut seed = self.alloc(1, 1);
        seed.set(0, 0, 1.0);
        self.grads[root] = Some(seed);

        // Split borrows: ops/values are read-only during the walk, grads
        // and the spare pool are mutated.
        let Tape {
            ops,
            values,
            grads,
            needs_grad,
            spare,
            stats,
        } = self;

        for id in (0..ops.len()).rev() {
            if grads[id].is_none() || !needs_grad[id] {
                continue;
            }
            // Operands of node `id` always have smaller ids, so the
            // upstream gradient can be read from the upper half while the
            // operand slots in the lower half are mutated.
            let (lower, upper) = grads.split_at_mut(id);
            let g = upper[0].as_ref().expect("checked above");
            match &ops[id] {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (va, vb) = (&values[*a], &values[*b]);
                    if needs_grad[*a] {
                        let ga = grad_slot(&mut lower[*a], spare, stats, va.rows(), va.cols());
                        matmul_bt_acc(g, vb, ga, spare, stats);
                    }
                    // ∂/∂b = aᵀ × g, accumulated without the transpose.
                    if needs_grad[*b] {
                        let gb = grad_slot(&mut lower[*b], spare, stats, vb.rows(), vb.cols());
                        va.matmul_at_acc_into(g, gb);
                    }
                }
                Op::Dense { x, w, b, relu } => {
                    // The gradient at the pre-activation, formed once:
                    // `0.0 + g` where the output is positive (everywhere
                    // without ReLU), else 0. The `0.0 +` is what a
                    // zero-initialised slot accumulating `g` holds (it
                    // turns `-0.0` into `+0.0`), which the parameter
                    // gradients' bits depend on.
                    let out = &values[id];
                    let mut buf = take_spare(spare, stats);
                    if *relu {
                        buf.extend(out.data().iter().zip(g.data()).map(|(&y, &gi)| {
                            if y > 0.0 {
                                0.0 + gi
                            } else {
                                0.0
                            }
                        }));
                    } else {
                        buf.extend(g.data().iter().map(|&gi| 0.0 + gi));
                    }
                    let g_pre = Matrix::from_vec(out.rows(), out.cols(), buf);
                    let (vx, vw) = (&values[*x], &values[*w]);
                    if needs_grad[*b] {
                        let cols = g_pre.cols();
                        let gb = grad_slot(&mut lower[*b], spare, stats, 1, cols);
                        for g_row in g_pre.data().chunks_exact(cols) {
                            for (o, &gi) in gb.data_mut().iter_mut().zip(g_row) {
                                *o += gi;
                            }
                        }
                    }
                    if needs_grad[*w] {
                        let gw = grad_slot(&mut lower[*w], spare, stats, vw.rows(), vw.cols());
                        vx.matmul_at_acc_into(&g_pre, gw);
                    }
                    if needs_grad[*x] {
                        let gx = grad_slot(&mut lower[*x], spare, stats, vx.rows(), vx.cols());
                        matmul_bt_acc(&g_pre, vw, gx, spare, stats);
                    }
                    spare.push(g_pre.into_data());
                }
                Op::Spmm(adj, h) => {
                    let vh = &values[*h];
                    // ∂/∂h = Âᵀ × g = Â × g (symmetric operator).
                    let gh = grad_slot(&mut lower[*h], spare, stats, vh.rows(), vh.cols());
                    adj.spmm_acc_into(g, gh);
                }
                Op::Add(a, b) => {
                    for operand in [*a, *b].into_iter().filter(|&o| needs_grad[o]) {
                        let v = &values[operand];
                        let slot = grad_slot(&mut lower[operand], spare, stats, v.rows(), v.cols());
                        slot.add_scaled(g, 1.0);
                    }
                }
                Op::MeanRows(a) => {
                    let va = &values[*a];
                    let n = va.rows().max(1) as f32;
                    let cols = va.cols();
                    let ga = grad_slot(&mut lower[*a], spare, stats, va.rows(), cols);
                    for o_row in ga.data_mut().chunks_exact_mut(cols) {
                        for (o, &gi) in o_row.iter_mut().zip(g.data()) {
                            *o += gi / n;
                        }
                    }
                }
                Op::SegmentMeanRows(a, seg_lens) => {
                    let va = &values[*a];
                    let cols = va.cols();
                    let ga = grad_slot(&mut lower[*a], spare, stats, va.rows(), cols);
                    let mut rows = ga.data_mut().chunks_exact_mut(cols);
                    for (b, &len) in seg_lens.iter().enumerate() {
                        let g_row = &g.data()[b * cols..][..cols];
                        let n = len as f32;
                        for o_row in (&mut rows).take(len as usize) {
                            for (o, &gi) in o_row.iter_mut().zip(g_row) {
                                *o += gi / n;
                            }
                        }
                    }
                }
                Op::Scale(a, s) => {
                    let va = &values[*a];
                    let ga = grad_slot(&mut lower[*a], spare, stats, va.rows(), va.cols());
                    ga.add_scaled(g, *s);
                }
                Op::BceWithLogits(a, target) => {
                    let z = values[*a].get(0, 0);
                    let dz = sigmoid(z) - target;
                    let ga = grad_slot(&mut lower[*a], spare, stats, 1, 1);
                    let upstream = g.get(0, 0);
                    ga.data_mut()[0] += dz * upstream;
                }
                Op::BceWithLogitsBatch(a, targets) => {
                    let va = &values[*a];
                    let upstream = g.get(0, 0);
                    let ga = grad_slot(&mut lower[*a], spare, stats, va.rows(), 1);
                    let va = &values[*a];
                    for ((o, &z), &t) in ga.data_mut().iter_mut().zip(va.data()).zip(targets) {
                        *o += (sigmoid(z) - t) * upstream;
                    }
                }
            }
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Numerically stable log(1 + e^z).
pub fn softplus(z: f32) -> f32 {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

/// The logistic function.
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar function of one leaf.
    fn grad_check(build: impl Fn(&mut Tape, NodeId) -> NodeId, input: Matrix, tolerance: f32) {
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).expect("leaf participates").clone();

        // Numeric gradient.
        let eps = 1e-3f32;
        for i in 0..input.data().len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f = |m: Matrix| {
                let mut t = Tape::new();
                let x = t.leaf(m);
                let l = build(&mut t, x);
                t.value(l).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tolerance * (1.0 + numeric.abs()),
                "entry {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn matmul_gradient() {
        let w = Matrix::from_rows(&[&[0.5, -0.3], &[0.2, 0.8], &[-0.6, 0.1]]);
        grad_check(
            move |t, x| {
                let wn = t.leaf(w.clone());
                let y = t.matmul(x, wn); // (1x3)(3x2) = 1x2
                let pooled = t.mean_rows(y);
                // Reduce to scalar: multiply by a fixed column.
                let col = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
                let s = t.matmul(pooled, col);
                t.bce_with_logits(s, 1.0)
            },
            Matrix::from_rows(&[&[0.3, -0.7, 0.9]]),
            2e-2,
        );
    }

    #[test]
    fn spmm_gradient() {
        // Â of a 3-node path graph (symmetric, self-loops folded in).
        let adj = Arc::new(SparseMatrix::adjacency_hat(3, &[(0, 1), (1, 2)]));
        grad_check(
            move |t, x| {
                let y = t.spmm(&adj, x); // (3x3)(3x2) = 3x2
                let pooled = t.mean_rows(y);
                let col = t.leaf(Matrix::from_rows(&[&[1.0], &[-2.0]]));
                let s = t.matmul(pooled, col);
                t.bce_with_logits(s, 0.0)
            },
            Matrix::from_rows(&[&[0.3, -0.7], &[0.9, 0.4], &[-0.2, 0.6]]),
            2e-2,
        );
    }

    #[test]
    fn spmm_matches_dense_matmul_forward_and_backward() {
        let adj = Arc::new(SparseMatrix::adjacency_hat(4, &[(0, 1), (1, 2), (2, 3)]));
        let h = Matrix::he_init(4, 3, 11);
        let col = Matrix::from_rows(&[&[0.7], &[-0.4], &[1.1]]);

        let run = |sparse: bool| {
            let mut t = Tape::new();
            let x = t.leaf(h.clone());
            let agg = if sparse {
                t.spmm(&adj, x)
            } else {
                let a = t.leaf(adj.to_dense());
                t.matmul(a, x)
            };
            let pooled = t.mean_rows(agg);
            let c = t.leaf(col.clone());
            let s = t.matmul(pooled, c);
            let loss = t.bce_with_logits(s, 1.0);
            t.backward(loss);
            (t.value(loss).clone(), t.grad(x).expect("grad").clone())
        };
        let (loss_s, grad_s) = run(true);
        let (loss_d, grad_d) = run(false);
        assert_eq!(loss_s, loss_d, "forward bit-identical");
        assert_eq!(grad_s, grad_d, "backward bit-identical");
    }

    #[test]
    fn segment_mean_rows_gradient() {
        grad_check(
            |t, x| {
                // Segments of 2 and 3 rows -> 2x2 pooled.
                let pooled = t.segment_mean_rows(x, &[2, 3]);
                let col = t.leaf(Matrix::from_rows(&[&[1.0], &[-1.5]]));
                let per_seg = t.matmul(pooled, col); // 2x1
                let m = t.mean_rows(per_seg);
                t.bce_with_logits(m, 1.0)
            },
            Matrix::from_rows(&[
                &[0.4, -0.2],
                &[1.1, 0.3],
                &[-0.6, 0.9],
                &[0.2, -0.8],
                &[0.7, 0.5],
            ]),
            2e-2,
        );
    }

    #[test]
    fn segment_mean_of_one_segment_equals_mean_rows() {
        let input = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0], &[0.0, -1.0]]);
        let mut t = Tape::new();
        let x = t.leaf(input.clone());
        let a = t.segment_mean_rows(x, &[3]);
        let b = t.mean_rows(x);
        assert_eq!(t.value(a), t.value(b));
    }

    #[test]
    fn batched_bce_gradient() {
        grad_check(
            |t, x| {
                // x is 3x1 logits; targets 1, 0, 1.
                t.bce_with_logits_batch(x, &[1.0, 0.0, 1.0])
            },
            Matrix::from_rows(&[&[0.3], &[-0.8], &[1.4]]),
            1e-2,
        );
    }

    #[test]
    fn batched_bce_equals_folded_singles() {
        let logits = [0.25f32, -1.5, 2.0];
        let targets = [1.0f32, 0.0, 1.0];
        let mut t = Tape::new();
        // Folded per-sample losses, summed in sample order.
        let singles: Vec<NodeId> = logits
            .iter()
            .map(|&z| {
                let n = t.leaf(Matrix::from_vec(1, 1, vec![z]));
                t.bce_with_logits(n, targets[(logits.iter().position(|&x| x == z)).unwrap()])
            })
            .collect();
        let mut total = singles[0];
        for &l in &singles[1..] {
            total = t.add(total, l);
        }
        // Batched form.
        let col = t.leaf(Matrix::from_vec(3, 1, logits.to_vec()));
        let batched = t.bce_with_logits_batch(col, &targets);
        assert_eq!(t.value(total), t.value(batched));
    }

    /// The fused dense op with ReLU on and off, differentiated in each of
    /// its three operands (the other two held as fixed leaves). This is
    /// also the check for the bias broadcast and the ReLU, which are only
    /// recorded fused.
    #[test]
    fn dense_gradient() {
        let x = Matrix::from_rows(&[&[0.4, 0.6, -0.5], &[1.2, -0.9, 0.35]]);
        let w = Matrix::from_rows(&[&[0.5, -0.3], &[0.2, 0.8], &[-0.6, 0.1]]);
        let b = Matrix::from_rows(&[&[0.1, -0.2]]);
        for relu in [false, true] {
            // `slot` picks which operand is the differentiated input.
            for slot in 0..3 {
                let (x, w, b) = (x.clone(), w.clone(), b.clone());
                let input = [&x, &w, &b][slot].clone();
                grad_check(
                    move |t, v| {
                        let mut ops = [x.clone(), w.clone(), b.clone()].map(|m| t.leaf(m));
                        ops[slot] = v;
                        let y = t.dense(ops[0], ops[1], ops[2], relu);
                        let m = t.mean_rows(y);
                        let col = t.leaf(Matrix::from_rows(&[&[1.0], &[-1.5]]));
                        let s = t.matmul(m, col);
                        t.bce_with_logits(s, 0.0)
                    },
                    input,
                    2e-2,
                );
            }
        }
    }

    #[test]
    fn dense_matches_the_unfused_steps_bitwise() {
        let x = Matrix::he_init(5, 4, 1);
        let w = Matrix::he_init(4, 3, 2);
        let b = Matrix::from_rows(&[&[0.3, -0.7, 0.05]]);
        let mut t = Tape::new();
        let (xn, wn, bn) = (t.leaf(x.clone()), t.leaf(w.clone()), t.leaf(b.clone()));
        let y = t.dense(xn, wn, bn, true);
        let m = t.mean_rows(y);
        let col = t.leaf(Matrix::from_rows(&[&[1.0], &[-2.0], &[0.5]]));
        let s = t.matmul(m, col);
        let l = t.bce_with_logits(s, 1.0);
        t.backward(l);

        // Forward: product, then bias, then ReLU.
        let steps = x.matmul(&w).add_row_broadcast(&b).map(|v| v.max(0.0));
        assert_eq!(t.value(y), &steps);
        // Backward: the ReLU rule's fresh slot, then the bias sum and the
        // two products, as the separate rules computed them.
        let g = t.grad(y).expect("upstream gradient");
        let mut g_pre = Matrix::zeros(5, 3);
        for (i, (&out, &gi)) in steps.data().iter().zip(g.data()).enumerate() {
            if out > 0.0 {
                g_pre.data_mut()[i] += gi;
            }
        }
        assert!(g_pre.data().contains(&0.0), "the ReLU gates some entry");
        assert_eq!(t.grad(bn), Some(&g_pre.sum_rows()));
        assert_eq!(t.grad(wn), Some(&x.transpose().matmul(&g_pre)));
        assert_eq!(t.grad(xn), Some(&g_pre.matmul(&w.transpose())));
    }

    #[test]
    fn constant_inputs_carry_no_gradient() {
        let mut t = Tape::new();
        let feats = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
        let x = t.leaf_concat_rows(&[&feats]);
        let adj = Arc::new(SparseMatrix::adjacency_hat(2, &[(0, 1)]));
        let agg = t.spmm(&adj, x);
        let w = t.leaf(Matrix::from_rows(&[&[1.0], &[-2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[0.1]]));
        let y = t.dense(agg, w, b, false);
        let m = t.mean_rows(y);
        let l = t.bce_with_logits(m, 1.0);
        t.backward(l);
        assert!(t.grad(x).is_none() && t.grad(agg).is_none());
        assert!(t.grad(w).is_some() && t.grad(b).is_some());
    }

    #[test]
    fn add_and_scale_gradient() {
        grad_check(
            |t, x| {
                let y = t.scale(x, 2.5);
                let z = t.add(x, y); // 3.5 x
                t.bce_with_logits(z, 1.0)
            },
            Matrix::from_rows(&[&[0.7]]),
            1e-2,
        );
    }

    #[test]
    fn mean_rows_gradient_distributes() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0], &[3.0]]));
        let m = t.mean_rows(x);
        let loss = t.bce_with_logits(m, 0.0);
        t.backward(loss);
        let g = t.grad(x).expect("grad");
        // d loss/d m = sigmoid(2); each row gets half.
        let expect = sigmoid(2.0) / 2.0;
        assert!((g.get(0, 0) - expect).abs() < 1e-5);
        assert!((g.get(1, 0) - expect).abs() < 1e-5);
    }

    #[test]
    fn bce_matches_closed_form() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.5]]));
        let l = t.bce_with_logits(x, 1.0);
        let expect = softplus(1.5) - 1.5;
        assert!((t.value(l).get(0, 0) - expect).abs() < 1e-6);
        t.backward(l);
        let g = t.grad(x).expect("grad").get(0, 0);
        assert!((g - (sigmoid(1.5) - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn softplus_is_stable() {
        assert!(softplus(100.0).is_finite());
        assert!(softplus(-100.0) >= 0.0);
        assert!((softplus(0.0) - 2.0f32.ln()).abs() < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn gradients_accumulate_over_shared_nodes() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let y = t.add(x, x); // 2x
        let l = t.bce_with_logits(y, 0.0);
        t.backward(l);
        let g = t.grad(x).expect("grad").get(0, 0);
        let expect = 2.0 * sigmoid(2.0);
        assert!((g - expect).abs() < 1e-5, "{g} vs {expect}");
    }

    #[test]
    fn reset_recycles_buffers_and_keeps_results_identical() {
        let input = Matrix::from_rows(&[&[0.4, -0.3], &[0.8, 0.1]]);
        let weight = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 2.0]]);
        let bias = Matrix::from_rows(&[&[0.1, -0.2]]);
        let run = |t: &mut Tape| {
            let x = t.leaf_copy(&input);
            let w = t.leaf_copy(&weight);
            let b = t.leaf_copy(&bias);
            let r = t.dense(x, w, b, true);
            let m = t.mean_rows(r);
            let col = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
            let s = t.matmul(m, col);
            let l = t.bce_with_logits(s, 1.0);
            t.backward(l);
            (t.value(l).get(0, 0), t.grad(x).expect("grad").clone())
        };
        let mut tape = Tape::new();
        let first = run(&mut tape);
        let allocs_after_first = tape.stats().fresh_buffers;
        for _ in 0..10 {
            tape.reset();
            let again = run(&mut tape);
            assert_eq!(first.0, again.0);
            assert_eq!(first.1, again.1);
        }
        assert_eq!(
            tape.stats().fresh_buffers,
            allocs_after_first,
            "a reused tape must not allocate after warm-up"
        );
        assert_eq!(tape.stats().nodes_recorded, 11 * 8);
    }

    #[test]
    fn repeated_backward_on_one_recording_is_stable() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.9]]));
        let y = t.scale(x, 2.0);
        let l = t.bce_with_logits(y, 1.0);
        t.backward(l);
        let g1 = t.grad(x).expect("grad").clone();
        t.backward(l);
        let g2 = t.grad(x).expect("grad").clone();
        assert_eq!(g1, g2, "gradients must reset, not double");
    }
}
