//! Fully connected layers: plain [`Linear`] and [`MaskedLinear`] (the building
//! block of MADE, where a binary mask enforces the autoregressive property).
//!
//! Both layers implement [`Trainable`] (parameter visitation) and the
//! allocation-free [`InferLayer`] trait. Training runs on inherent methods:
//! a training forward caches the layer input in place for the matching
//! `backward_scratch`, which stages `dW`/`db` in caller buffers. The
//! `infer_raw`/`infer_with_entry` methods are the borrow-friendly building
//! blocks composite networks (`Mlp`, `Made`) use to chain layers through one
//! workspace.

use crate::activation::Activation;
use crate::init::Init;
use crate::kernels::SparseRows;
use crate::param::{InferLayer, Param, Trainable, WeightKey};
use crate::tensor::Matrix;
use crate::workspace::ForwardWorkspace;
use rand::rngs::SmallRng;

/// `y = x @ W + b`, with `W` of shape `(in_features, out_features)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Create a layer with the given initialization.
    pub fn new(in_features: usize, out_features: usize, init: Init, rng: &mut SmallRng) -> Self {
        Self {
            weight: Param::new(init.matrix(in_features, out_features, rng)),
            bias: Param::new(Matrix::zeros(1, out_features)),
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.data.rows()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.data.cols()
    }

    /// Immutable access to the weight matrix (for inspection / merging).
    pub fn weight(&self) -> &Matrix {
        &self.weight.data
    }

    /// Mutable access to the weight matrix (used by the merged-MPSN builder).
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight.data
    }

    /// Immutable access to the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias.data
    }

    /// Mutable access to the bias row vector.
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.bias.data
    }

    /// Training forward: caches `input_act(input)` as this layer's input for
    /// [`Linear::backward_scratch`] (reusing the previous cache's
    /// allocation) and writes `input_act(input) @ W + b` into `out`.
    ///
    /// `input_act` is the previous layer's activation, applied on the way
    /// in: an MLP hands each layer the previous pre-activation and
    /// [`Activation::Relu`], so the rectified hidden state lives only in
    /// this layer's cache. Pass [`Activation::Identity`] for a raw input.
    pub fn forward_train(&mut self, input: &Matrix, input_act: Activation, out: &mut Matrix) {
        let x = self.cached_input.get_or_insert_with(Matrix::default);
        x.copy_from(input);
        input_act.apply(x.as_mut_slice());
        x.addmm_bias_act_into(
            &self.weight.data,
            Some(self.bias.data.as_slice()),
            Activation::Identity,
            out,
        );
    }

    /// Allocation-free fused forward: `out = act(input @ W + b)` written into
    /// a caller buffer (reshaped, heap reused). The building block the
    /// composite networks chain through their workspace.
    pub fn infer_raw(&self, input: &Matrix, act: Activation, out: &mut Matrix) {
        input.addmm_bias_act_into(&self.weight.data, Some(self.bias.data.as_slice()), act, out);
    }

    /// Scratch-buffer backward for the most recent
    /// [`Linear::forward_train`]. Stages `dW = input^T @ grad_out` in `dw`
    /// and the bias column sums in `db` before accumulating both into the
    /// parameter gradients, and writes the input gradient `grad_out @ W^T`
    /// into `grad_in` when the caller needs one.
    ///
    /// # Panics
    /// Panics if called before a training forward cached the input.
    pub fn backward_scratch(
        &mut self,
        grad_out: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: Option<&mut Matrix>,
    ) {
        let input = self.cached_input.as_ref().expect("Linear::backward called before forward");
        input.matmul_tn_into(grad_out, dw);
        self.weight.grad.add_assign(dw);
        grad_out.column_sums_into(db);
        for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(db.iter()) {
            *g += *d;
        }
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(&self.weight.data, grad_in);
        }
    }
}

impl InferLayer for Linear {
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        ws.rewind();
        {
            let (_cur, next, _aux) = ws.split();
            self.infer_raw(input, Activation::Identity, next);
        }
        ws.flip();
        ws.output()
    }
}

impl Trainable for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// A linear layer whose weight matrix is element-wise multiplied by a fixed
/// binary mask: `y = x @ (W ⊙ M) + b`.
///
/// The mask is what turns a stack of fully connected layers into a MADE: it
/// zeroes the connections that would violate the autoregressive ordering.
///
/// Each instance carries a [`WeightKey`] so downstream caches of the masked
/// effective weight (`W ⊙ M`) — see
/// [`MaskedWeightCache`](crate::workspace::MaskedWeightCache) — can validate
/// against the exact weights that produced them. The key's version bumps on
/// every `visit_params` (the only mutable route to the weights), and clones
/// get a fresh identity, which is what invalidates workspace caches across
/// optimizer steps, checkpoint loads, and serving hot-swaps.
#[derive(Debug)]
pub struct MaskedLinear {
    weight: Param,
    bias: Param,
    mask: Matrix,
    cached_input: Option<Matrix>,
    key: WeightKey,
}

impl Clone for MaskedLinear {
    /// Clones carry the same weights but a **fresh** [`WeightKey`]: the
    /// clone's parameters can diverge from the original's (that is what
    /// checkpoint hot-swap does), so cached effective weights must never be
    /// shared between them.
    fn clone(&self) -> Self {
        Self {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            mask: self.mask.clone(),
            cached_input: self.cached_input.clone(),
            key: WeightKey::fresh(),
        }
    }
}

impl MaskedLinear {
    /// Create a masked layer. `mask` must have shape `(in_features, out_features)`
    /// and contain only 0.0 / 1.0 entries.
    pub fn new(
        in_features: usize,
        out_features: usize,
        mask: Matrix,
        init: Init,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(mask.shape(), (in_features, out_features), "mask shape must match weight shape");
        debug_assert!(mask.as_slice().iter().all(|&x| x == 0.0 || x == 1.0), "mask must be binary");
        Self {
            weight: Param::new(init.matrix(in_features, out_features, rng)),
            bias: Param::new(Matrix::zeros(1, out_features)),
            mask,
            cached_input: None,
            key: WeightKey::fresh(),
        }
    }

    /// The current identity/version key of this layer's weights (see
    /// [`WeightKey`]); cached masked effective weights are valid exactly as
    /// long as this key is unchanged.
    pub fn weight_key(&self) -> WeightKey {
        self.key
    }

    /// Materialize the masked effective weight `W ⊙ M` into `out` (reshaped,
    /// buffer reused). This is the fill callback for
    /// [`MaskedWeightCache::get_or_fill`](crate::workspace::MaskedWeightCache::get_or_fill).
    pub fn fill_masked(&self, out: &mut Matrix) {
        self.weight.data.masked_into(&self.mask, out);
    }

    /// Fused forward against an already-materialized effective weight:
    /// `out = act(input @ w + b)`. `w` must be this layer's masked effective
    /// weight (typically a [`MaskedWeightCache`] hit), materialized by
    /// [`MaskedLinear::fill_masked`].
    ///
    /// [`MaskedWeightCache`]: crate::workspace::MaskedWeightCache
    pub fn infer_with_weight(&self, input: &Matrix, act: Activation, w: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(w.shape(), self.weight.data.shape());
        input.addmm_bias_act_into(w, Some(self.bias.data.as_slice()), act, out);
    }

    /// Fused forward against a cached entry for this layer's effective
    /// weight, picking the fastest kernel for the batch: dense batches run
    /// the mask-aware **packed** kernel (all-zero weight strips skipped, no
    /// per-call packing), sparse or small batches run the naive kernel
    /// against the cached dense weight (whose zero-*input* skipping wins
    /// there). All paths are bit-identical for finite inputs.
    ///
    /// `entry` must come from [`MaskedWeightCache::entry`] keyed by this
    /// layer's [`MaskedLinear::weight_key`].
    ///
    /// [`MaskedWeightCache::entry`]: crate::workspace::MaskedWeightCache::entry
    pub fn infer_with_entry(
        &self,
        input: &Matrix,
        act: Activation,
        entry: &mut crate::workspace::MaskedEntry,
        out: &mut Matrix,
    ) {
        self.infer_with_entry_mode(input, act, crate::workspace::WeightMode::Full, entry, out);
    }

    /// [`MaskedLinear::infer_with_entry`] with an explicit weight storage
    /// tier. [`WeightMode::Full`] is the exact path described there;
    /// [`WeightMode::Half`] routes the batched dense case through the
    /// f16-storage pack (`entry.packed_half()`) instead — bounded per-weight
    /// rounding error, half the weight memory traffic. Paths the half tier
    /// does not cover (sparse inputs, shape-ineligible batches) fall back to
    /// the exact f32 kernels in either mode: the tier is a storage choice
    /// for the batched hot loop, not a change to the dispatch shape.
    ///
    /// [`WeightMode::Full`]: crate::workspace::WeightMode::Full
    /// [`WeightMode::Half`]: crate::workspace::WeightMode::Half
    pub fn infer_with_entry_mode(
        &self,
        input: &Matrix,
        act: Activation,
        mode: crate::workspace::WeightMode,
        entry: &mut crate::workspace::MaskedEntry,
        out: &mut Matrix,
    ) {
        let (m, k) = input.shape();
        let n = self.out_features();
        if crate::kernels::use_packed(m, k, n) {
            // One density scan decides both this dispatch and (via the
            // hint) the dense kernel's own blocked-vs-naive choice.
            if crate::kernels::mostly_dense(input.as_slice()) {
                match mode {
                    crate::workspace::WeightMode::Full => input.addmm_packed_bias_act_into(
                        entry.packed(),
                        Some(self.bias.data.as_slice()),
                        act,
                        out,
                    ),
                    crate::workspace::WeightMode::Half => input.addmm_packed_half_bias_act_into(
                        entry.packed_half(),
                        Some(self.bias.data.as_slice()),
                        act,
                        out,
                    ),
                }
            } else {
                input.addmm_dispatch(
                    entry.weight(),
                    Some(self.bias.data.as_slice()),
                    act,
                    Some(false),
                    out,
                );
            }
        } else {
            // Shape-ineligible: the inner dispatch short-circuits before
            // any scan (same shape predicate).
            self.infer_with_weight(input, act, entry.weight(), out);
        }
    }

    /// Training forward through a cached masked-weight entry: caches the
    /// input for [`MaskedLinear::backward_scratch`], then computes
    /// `out = input @ (W ⊙ M) + b` (no activation — the caller applies it so
    /// the pre-activation stays available for its ReLU gate) into a reused
    /// caller buffer.
    ///
    /// Allocation-free once warm: the effective weight comes from `entry`
    /// (re-materialized in place only when the [`WeightKey`] moved, i.e.
    /// once per optimizer step), the output buffer is the caller's, and the
    /// input cache reuses its previous allocation. Bit-identical to the
    /// inference forward for finite inputs (fused/packed kernel contract,
    /// see `duet_nn::kernels`).
    pub fn train_forward_entry(
        &mut self,
        input: &Matrix,
        entry: &mut crate::workspace::MaskedEntry,
        out: &mut Matrix,
    ) {
        self.cached_input.get_or_insert_with(Matrix::default).copy_from(input);
        self.infer_with_entry(input, Activation::Identity, entry, out);
    }

    /// Training forward consuming a sparse row capture of the input instead
    /// of the dense matrix: `out = input @ (W ⊙ M) + b`, touching only the
    /// nonzero input entries. Bit-identical to [`train_forward_entry`] for
    /// finite inputs (the sparse kernel accumulates in the same column-index
    /// order the dense zero-skip path does; see `duet_nn::kernels`).
    ///
    /// The dense input is **not** cached — the sparse capture replaces it, so
    /// the matching backward is [`backward_scratch_sparse`] with the same
    /// capture. A subsequent dense
    /// [`backward_scratch`](Self::backward_scratch) panics rather than
    /// silently using a stale input.
    ///
    /// [`train_forward_entry`]: Self::train_forward_entry
    /// [`backward_scratch_sparse`]: Self::backward_scratch_sparse
    pub fn train_forward_sparse(
        &mut self,
        input: &SparseRows,
        entry: &mut crate::workspace::MaskedEntry,
        out: &mut Matrix,
    ) {
        debug_assert_eq!(input.cols(), self.in_features());
        self.cached_input = None;
        input.addmm_bias_act_into(
            entry.weight(),
            Some(self.bias.data.as_slice()),
            Activation::Identity,
            out,
        );
    }

    /// Scratch-buffer backward against an already-materialized effective
    /// weight `w` (a [`MaskedWeightCache`](crate::workspace::MaskedWeightCache)
    /// hit — backward runs before the optimizer bumps the
    /// [`WeightKey`], so the cached entry is exactly `W ⊙ M`). Stages the
    /// masked `dW` in `dw` and the bias column sums in `db` before
    /// accumulating into the parameter gradients; writes `grad_out @ w^T`
    /// into `grad_in` when the caller needs the input gradient.
    ///
    /// # Panics
    /// Panics if called before a dense training forward cached the input.
    pub fn backward_scratch(
        &mut self,
        grad_out: &Matrix,
        w: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: Option<&mut Matrix>,
    ) {
        let input =
            self.cached_input.as_ref().expect("MaskedLinear::backward called before forward");
        input.matmul_tn_into(grad_out, dw);
        self.finish_backward_scratch(grad_out, w, dw, db, grad_in);
    }

    /// Sparse-input variant of [`backward_scratch`](Self::backward_scratch):
    /// `dW` is computed from the sparse row capture the matching
    /// [`train_forward_sparse`](Self::train_forward_sparse) consumed,
    /// touching only nonzero input entries. Bit-identical to the dense
    /// variant for finite inputs.
    pub fn backward_scratch_sparse(
        &mut self,
        grad_out: &Matrix,
        input: &SparseRows,
        w: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: Option<&mut Matrix>,
    ) {
        debug_assert_eq!(input.cols(), self.in_features());
        input.matmul_tn_into(grad_out, dw);
        self.finish_backward_scratch(grad_out, w, dw, db, grad_in);
    }

    /// Shared tail of the scratch backwards: mask `dW`, accumulate both
    /// parameter gradients from their staging buffers, and optionally
    /// produce the input gradient.
    fn finish_backward_scratch(
        &mut self,
        grad_out: &Matrix,
        w: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: Option<&mut Matrix>,
    ) {
        debug_assert_eq!(w.shape(), self.weight.data.shape());
        dw.mul_assign(&self.mask);
        self.weight.grad.add_assign(dw);
        grad_out.column_sums_into(db);
        for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(db.iter()) {
            *g += *d;
        }
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(w, grad_in);
        }
    }

    /// The binary connectivity mask.
    pub fn mask(&self) -> &Matrix {
        &self.mask
    }

    /// Number of trainable scalars (weight + bias), computable without
    /// mutable access — sizes come from the stored shapes, not from
    /// materializing the effective weight.
    pub fn num_parameters(&self) -> usize {
        self.weight.data.len() + self.bias.data.len()
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.data.rows()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.data.cols()
    }
}

impl InferLayer for MaskedLinear {
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        ws.rewind();
        {
            let (_cur, next, _aux, masked) = ws.split_masked();
            let entry = masked.entry(0, self.key, |out| self.fill_masked(out));
            self.infer_with_entry(input, Activation::Identity, entry, next);
        }
        ws.flip();
        ws.output()
    }
}

impl Trainable for MaskedLinear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Handing out `&mut Param` may mutate the weights (optimizer step,
        // checkpoint load): conservatively invalidate derived caches.
        self.key.bump();
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::workspace::MaskedWeightCache;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = seeded_rng(1);
        let mut layer = Linear::new(3, 2, Init::Zeros, &mut rng);
        layer.bias_mut().as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let x = Matrix::full(4, 3, 2.0);
        let mut y = Matrix::default();
        layer.forward_train(&x, Activation::Identity, &mut y);
        assert_eq!(y.shape(), (4, 2));
        // Zero weights => output equals bias.
        assert_eq!(y.row(0), &[1.0, -1.0]);
        let mut ws = ForwardWorkspace::new();
        assert_eq!(layer.infer_into(&x, &mut ws), &y);
    }

    #[test]
    fn linear_backward_accumulates_grads() {
        let mut rng = seeded_rng(2);
        let mut layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        layer.forward_train(&x, Activation::Identity, &mut Matrix::default());
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let (mut dw, mut db, mut gin) = (Matrix::default(), Vec::new(), Matrix::default());
        layer.backward_scratch(&g, &mut dw, &mut db, Some(&mut gin));
        assert_eq!(gin.shape(), (1, 2));
        let mut count = 0;
        layer.visit_params(&mut |p| {
            count += 1;
            assert!(p.grad.max_abs() > 0.0 || p.data.max_abs() == 0.0);
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn masked_linear_blocks_connections() {
        let mut rng = seeded_rng(3);
        // Mask that blocks input 0 from reaching output 0.
        let mask = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 1.0]);
        let layer = MaskedLinear::new(2, 2, mask, Init::KaimingUniform, &mut rng);
        let mut ws = ForwardWorkspace::new();
        let base = layer.infer_into(&Matrix::from_vec(1, 2, vec![0.0, 1.0]), &mut ws).clone();
        let moved = layer.infer_into(&Matrix::from_vec(1, 2, vec![100.0, 1.0]), &mut ws);
        // Output 0 must be unchanged when only input 0 changes.
        assert!((base.get(0, 0) - moved.get(0, 0)).abs() < 1e-6);
        // Output 1 is allowed to change (with overwhelming probability).
        assert!((base.get(0, 1) - moved.get(0, 1)).abs() > 1e-3);
    }

    #[test]
    fn masked_linear_grad_respects_mask() {
        let mut rng = seeded_rng(4);
        let mask = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let mut layer = MaskedLinear::new(2, 2, mask.clone(), Init::KaimingUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut cache = MaskedWeightCache::default();
        let entry = cache.entry(0, layer.weight_key(), |w| layer.fill_masked(w));
        layer.train_forward_entry(&x, entry, &mut Matrix::default());
        let (mut dw, mut db) = (Matrix::default(), Vec::new());
        layer.backward_scratch(&Matrix::full(1, 2, 1.0), entry.weight(), &mut dw, &mut db, None);
        layer.visit_params(&mut |p| {
            if p.data.shape() == (2, 2) {
                // Weight gradient must be zero wherever the mask is zero.
                for i in 0..2 {
                    for j in 0..2 {
                        if mask.get(i, j) == 0.0 {
                            assert_eq!(p.grad.get(i, j), 0.0);
                        }
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(5);
        let mut layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        layer.backward_scratch(&Matrix::zeros(1, 2), &mut Matrix::default(), &mut Vec::new(), None);
    }
}
