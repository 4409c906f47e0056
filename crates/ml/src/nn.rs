//! Dense layers.

use crate::tape::{NodeId, Tape};
use crate::tensor::Matrix;

/// A fully connected layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix (`in × out`).
    pub w: Matrix,
    /// Bias row (`1 × out`).
    pub b: Matrix,
}

/// Tape handles to one layer's parameters.
#[derive(Clone, Copy, Debug)]
pub struct BoundLinear {
    /// Weight node.
    pub w: NodeId,
    /// Bias node.
    pub b: NodeId,
}

impl Linear {
    /// He-initialised layer.
    pub fn new(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        Linear {
            w: Matrix::he_init(input_dim, output_dim, seed),
            b: Matrix::zeros(1, output_dim),
        }
    }

    /// Inserts the parameters onto a tape (copying into the tape's
    /// recycled buffers, so re-binding per minibatch allocates nothing
    /// once the tape is warm).
    pub fn bind(&self, tape: &mut Tape) -> BoundLinear {
        BoundLinear {
            w: tape.leaf_copy(&self.w),
            b: tape.leaf_copy(&self.b),
        }
    }

    /// Applies the bound layer to `x` (n × in), yielding n × out — one
    /// fused [`Tape::dense`] node.
    pub fn forward(bound: BoundLinear, tape: &mut Tape, x: NodeId) -> NodeId {
        tape.dense(x, bound.w, bound.b, false)
    }

    /// [`Linear::forward`] followed by a ReLU, fused into the same node.
    pub fn forward_relu(bound: BoundLinear, tape: &mut Tape, x: NodeId) -> NodeId {
        tape.dense(x, bound.w, bound.b, true)
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_map() {
        let mut layer = Linear::new(2, 2, 1);
        layer.w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        layer.b = Matrix::from_rows(&[&[0.5, -0.5]]);
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape);
        let x = tape.leaf(Matrix::from_rows(&[&[3.0, 4.0]]));
        let y = Linear::forward(bound, &mut tape, x);
        assert_eq!(tape.value(y), &Matrix::from_rows(&[&[3.5, 7.5]]));
        let neg = tape.leaf(Matrix::from_rows(&[&[-3.0, 4.0]]));
        let r = Linear::forward_relu(bound, &mut tape, neg);
        assert_eq!(tape.value(r), &Matrix::from_rows(&[&[0.0, 7.5]]));
    }

    #[test]
    fn dimensions() {
        let layer = Linear::new(5, 3, 2);
        assert_eq!(layer.input_dim(), 5);
        assert_eq!(layer.output_dim(), 3);
        assert_eq!(layer.b.cols(), 3);
    }
}
