//! A plain multi-layer perceptron (`Linear` + ReLU stack) used by the MSCN
//! baseline and by Duet's MLP-based MPSN predicate embedders.
//!
//! Serving runs [`InferLayer::infer_into`]; training runs
//! [`Mlp::forward_train`] then [`Mlp::backward_scratch`] through a
//! [`TrainWorkspace`]. The training forward keeps each hidden layer's
//! pre-activation for its ReLU gate, and each [`Linear`] caches its own
//! (rectified) input.

use crate::activation::{relu_gate, Activation};
use crate::init::Init;
use crate::linear::Linear;
use crate::param::{InferLayer, Param, Trainable};
use crate::tensor::Matrix;
use crate::workspace::{ForwardWorkspace, TrainWorkspace};
use rand::rngs::SmallRng;

/// A feed-forward network: `Linear -> ReLU -> ... -> Linear` (no activation on
/// the final layer).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// Pre-activation of every hidden layer from the last training forward.
    pre: Vec<Matrix>,
    sizes: Vec<usize>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[in, hidden, hidden, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], rng: &mut SmallRng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let layers: Vec<Linear> =
            sizes.windows(2).map(|w| Linear::new(w[0], w[1], Init::KaimingUniform, rng)).collect();
        let pre = vec![Matrix::default(); layers.len() - 1];
        Self { layers, pre, sizes: sizes.to_vec() }
    }

    /// The layer sizes this MLP was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.sizes[0]
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        *self.sizes.last().expect("sizes cannot be empty")
    }

    /// Access to the underlying linear layers (used by the merged-MPSN builder).
    pub fn linears(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass without caching activations (inference-only).
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut ws = ForwardWorkspace::new();
        self.infer_into(input, &mut ws).clone()
    }

    /// The training forward: refills every layer's backward cache in place
    /// (hidden pre-activations here, layer inputs in each [`Linear`]) and
    /// returns the output, which lives in `tws` until the next pass
    /// overwrites it. Allocation-free once warm, and bit-identical to
    /// [`InferLayer::infer_into`] for finite inputs.
    pub fn forward_train<'w>(&mut self, input: &Matrix, tws: &'w mut TrainWorkspace) -> &'w Matrix {
        let (acts, _, _) = tws.parts(1);
        let out = &mut acts[0];
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (done, rest) = self.pre.split_at_mut(i);
            let dst = if i < last { &mut rest[0] } else { &mut *out };
            match i {
                0 => layer.forward_train(input, Activation::Identity, dst),
                _ => layer.forward_train(&done[i - 1], Activation::Relu, dst),
            }
        }
        &acts[0]
    }

    /// Scratch-buffer backward for the most recent [`Mlp::forward_train`].
    /// The gradient ping-pongs between two of the workspace's gradient
    /// buffers (an MLP has no residual skips), ReLU gates run in place, and
    /// `dW`/`db` are staged in workspace scratch before accumulating into
    /// the parameter gradients. With `need_input_grad` the gradient w.r.t.
    /// the input is left readable via [`TrainWorkspace::input_grad`].
    ///
    /// # Panics
    /// Panics if called before a training forward.
    pub fn backward_scratch(
        &mut self,
        grad_out: &Matrix,
        tws: &mut TrainWorkspace,
        need_input_grad: bool,
    ) {
        let (grads, dw, db, _) = tws.backward_parts();
        let last = self.layers.len() - 1;
        let want = last > 0 || need_input_grad;
        self.layers[last].backward_scratch(grad_out, dw, db, want.then_some(&mut grads[0]));
        // Index of the grads buffer holding the live gradient.
        let mut cur = 0usize;
        for i in (0..last).rev() {
            let [a, b, _] = &mut *grads;
            let (g, next) = if cur == 0 { (a, b) } else { (b, a) };
            relu_gate(g.as_mut_slice(), self.pre[i].as_slice());
            let want = i > 0 || need_input_grad;
            self.layers[i].backward_scratch(g, dw, db, want.then_some(next));
            if want {
                cur = 1 - cur;
            }
        }
        tws.set_input_grad_slot(cur);
    }
}

impl InferLayer for Mlp {
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        ws.rewind();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last { Activation::Relu } else { Activation::Identity };
            let (cur, next, _aux) = ws.split();
            let x = if i == 0 { input } else { &*cur };
            layer.infer_raw(x, act, next);
            ws.flip();
        }
        ws.output()
    }
}

impl Trainable for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::loss::mse;
    use crate::optim::Adam;

    #[test]
    fn shapes_are_correct() {
        let mut rng = seeded_rng(20);
        let mut mlp = Mlp::new(&[4, 8, 3], &mut rng);
        let mut tws = TrainWorkspace::new();
        let y = mlp.forward_train(&Matrix::zeros(5, 4), &mut tws);
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 3);
    }

    #[test]
    fn inference_path_matches_training_path() {
        let mut rng = seeded_rng(21);
        let mut mlp = Mlp::new(&[3, 6, 6, 2], &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.9, 1.2, 0.0, -0.7]);
        let mut tws = TrainWorkspace::new();
        let a = mlp.forward_train(&x, &mut tws).clone();
        let b = mlp.forward_inference(&x);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn learns_xor() {
        let mut rng = seeded_rng(22);
        let mut mlp = Mlp::new(&[2, 16, 1], &mut rng);
        let xs = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut adam = Adam::new(0.02);
        let mut tws = TrainWorkspace::new();
        let mut final_loss = f32::MAX;
        for _ in 0..2000 {
            mlp.zero_grad();
            let pred = mlp.forward_train(&xs, &mut tws);
            let (loss, grad) = mse(pred, &ys);
            mlp.backward_scratch(&grad, &mut tws, false);
            adam.step(&mut mlp);
            final_loss = loss;
        }
        assert!(final_loss < 0.03, "MLP failed to learn XOR, loss = {final_loss}");
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_sizes_panics() {
        let mut rng = seeded_rng(23);
        let _ = Mlp::new(&[4], &mut rng);
    }
}
