//! MADE / ResMADE: masked autoregressive networks over *column blocks*.
//!
//! Both Duet and the Naru/UAE baselines use the same backbone: a feed-forward
//! network whose weight masks enforce that the output distribution of column
//! `i` depends only on the *input blocks* of columns `< i` (natural ordering).
//! Duet's input blocks encode predicates `(op, value)` while Naru's encode
//! tuple values, but the masking logic is identical, so it lives here in the
//! substrate crate.

use crate::activation::{relu_gate, Activation};
use crate::init::Init;
use crate::kernels::SparseRows;
use crate::linear::MaskedLinear;
use crate::param::{InferLayer, Param, Trainable};
use crate::tensor::Matrix;
use crate::workspace::{ForwardWorkspace, MaskedWeightCache, TrainWorkspace, WeightMode};
use rand::rngs::SmallRng;

/// Architecture description for a [`Made`] network.
#[derive(Debug, Clone)]
pub struct MadeConfig {
    /// Width of each column's input encoding (block `i` occupies
    /// `input_block_sizes[i]` consecutive input features).
    pub input_block_sizes: Vec<usize>,
    /// Number of logits produced for each column (its number of distinct
    /// values).
    pub output_block_sizes: Vec<usize>,
    /// Hidden layer widths. For `residual = false` each entry is one masked
    /// linear + ReLU layer; for `residual = true` all entries must be equal
    /// and every layer after the first becomes a residual block.
    pub hidden_sizes: Vec<usize>,
    /// Build a ResMADE (residual blocks) instead of a plain MADE.
    pub residual: bool,
}

impl MadeConfig {
    /// Plain MADE with the given hidden sizes.
    pub fn made(
        input_block_sizes: Vec<usize>,
        output_block_sizes: Vec<usize>,
        hidden_sizes: Vec<usize>,
    ) -> Self {
        Self { input_block_sizes, output_block_sizes, hidden_sizes, residual: false }
    }

    /// ResMADE with `blocks` residual blocks of width `hidden`.
    pub fn res_made(
        input_block_sizes: Vec<usize>,
        output_block_sizes: Vec<usize>,
        hidden: usize,
        blocks: usize,
    ) -> Self {
        Self {
            input_block_sizes,
            output_block_sizes,
            hidden_sizes: vec![hidden; blocks.max(1)],
            residual: true,
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.input_block_sizes.len()
    }

    /// Total input width.
    pub fn input_width(&self) -> usize {
        self.input_block_sizes.iter().sum()
    }

    /// Total output width (sum of per-column logit counts).
    pub fn output_width(&self) -> usize {
        self.output_block_sizes.iter().sum()
    }
}

/// Degree (column index) of every unit in a layer.
fn input_degrees(block_sizes: &[usize]) -> Vec<usize> {
    let mut degrees = Vec::with_capacity(block_sizes.iter().sum());
    for (col, &w) in block_sizes.iter().enumerate() {
        degrees.extend(std::iter::repeat_n(col, w));
    }
    degrees
}

/// Cyclic degree assignment for hidden units: degrees range over `0..=N-2`
/// (a hidden unit of degree d may read inputs of columns `<= d` and feed
/// outputs of columns `> d`).
fn hidden_degrees(width: usize, num_columns: usize) -> Vec<usize> {
    let max_degree = num_columns.saturating_sub(1).max(1);
    (0..width).map(|k| k % max_degree).collect()
}

/// Mask between two non-output layers: connection allowed iff
/// `deg(next) >= deg(prev)`.
fn hidden_mask(prev: &[usize], next: &[usize]) -> Matrix {
    Matrix::from_fn(prev.len(), next.len(), |i, j| if next[j] >= prev[i] { 1.0 } else { 0.0 })
}

/// Mask into the output layer: connection allowed iff `deg(out) > deg(prev)`.
fn output_mask(prev: &[usize], out: &[usize]) -> Matrix {
    Matrix::from_fn(prev.len(), out.len(), |i, j| if out[j] > prev[i] { 1.0 } else { 0.0 })
}

/// A residual block `y = x + W2·relu(W1·x)`, with both linears masked so that
/// degrees are preserved end-to-end (the identity skip is then mask-safe).
#[derive(Debug, Clone)]
struct ResBlock {
    fc1: MaskedLinear,
    fc2: MaskedLinear,
    cached_pre: Option<Matrix>, // relu input
}

impl ResBlock {
    fn new(degrees: &[usize], init: Init, rng: &mut SmallRng) -> Self {
        let mask = hidden_mask(degrees, degrees);
        Self {
            fc1: MaskedLinear::new(degrees.len(), degrees.len(), mask.clone(), init, rng),
            fc2: MaskedLinear::new(degrees.len(), degrees.len(), mask, init, rng),
            cached_pre: None,
        }
    }

    /// Training forward `out = x + fc2(relu(fc1(x)))` that checkpoints
    /// everything `backward_scratch` needs (pre-activation, per-linear
    /// inputs) into reused buffers: `cached_pre` holds `fc1(x)`, `aux` the
    /// rectified hidden state, and the masked effective weights come from
    /// the train-workspace cache. Allocation-free once warm.
    fn train_forward(
        &mut self,
        x: &Matrix,
        aux: &mut Matrix,
        out: &mut Matrix,
        masked: &mut MaskedWeightCache,
        slot: usize,
    ) {
        let e1 = masked.entry(slot, self.fc1.weight_key(), |w| self.fc1.fill_masked(w));
        let pre = self.cached_pre.get_or_insert_with(Matrix::default);
        self.fc1.train_forward_entry(x, e1, pre);
        aux.copy_from(pre);
        Activation::Relu.apply(aux.as_mut_slice());
        let e2 = masked.entry(slot + 1, self.fc2.weight_key(), |w| self.fc2.fill_masked(w));
        self.fc2.train_forward_entry(aux, e2, out);
        out.add_assign(x);
    }

    /// Scratch-buffer backward: fc2's input gradient lands in `grad_act`,
    /// is ReLU-gated in place
    /// against the checkpointed pre-activation, feeds fc1, and the identity
    /// skip adds `grad_out` into `grad_in`. The masked effective weights come
    /// from the train-workspace cache (slots `slot` / `slot + 1` — guaranteed
    /// hits, since backward runs before the optimizer bumps any
    /// [`WeightKey`](crate::param::WeightKey)). Allocation-free once warm.
    #[allow(clippy::too_many_arguments)]
    fn backward_scratch(
        &mut self,
        grad_out: &Matrix,
        grad_act: &mut Matrix,
        grad_in: &mut Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        masked: &mut MaskedWeightCache,
        slot: usize,
    ) {
        let pre = self.cached_pre.as_ref().expect("ResBlock::backward called before forward");
        let e2 = masked.entry(slot + 1, self.fc2.weight_key(), |w| self.fc2.fill_masked(w));
        self.fc2.backward_scratch(grad_out, e2.weight(), dw, db, Some(grad_act));
        relu_gate(grad_act.as_mut_slice(), pre.as_slice());
        let e1 = masked.entry(slot, self.fc1.weight_key(), |w| self.fc1.fill_masked(w));
        self.fc1.backward_scratch(grad_act, e1.weight(), dw, db, Some(grad_in));
        grad_in.add_assign(grad_out); // identity skip
    }

    /// Allocation-free fused forward `out = x + fc2(relu(fc1(x)))` against
    /// workspace-cached masked weights (slots `slot` and `slot + 1`): on a
    /// cache hit nothing is re-materialized. Bit-identical to the training
    /// forward.
    fn infer_cached(
        &self,
        x: &Matrix,
        h: &mut Matrix,
        out: &mut Matrix,
        masked: &mut MaskedWeightCache,
        slot: usize,
        mode: WeightMode,
    ) {
        let e1 = masked.entry(slot, self.fc1.weight_key(), |w| self.fc1.fill_masked(w));
        self.fc1.infer_with_entry_mode(x, Activation::Relu, mode, e1, h);
        let e2 = masked.entry(slot + 1, self.fc2.weight_key(), |w| self.fc2.fill_masked(w));
        self.fc2.infer_with_entry_mode(h, Activation::Identity, mode, e2, out);
        out.add_assign(x);
    }
}

impl Trainable for ResBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

// Variant sizes differ, but a model holds only a handful of stages, so
// boxing the large variant would cost a pointer chase per layer for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Stage {
    /// Masked linear followed by ReLU.
    MaskedRelu { linear: MaskedLinear, cached_pre: Option<Matrix> },
    /// Residual block (ResMADE).
    Residual(ResBlock),
    /// Final masked linear producing the logits (no activation).
    Output(MaskedLinear),
}

/// A masked autoregressive network over column blocks.
#[derive(Debug, Clone)]
pub struct Made {
    config: MadeConfig,
    stages: Vec<Stage>,
    input_offsets: Vec<usize>,
    output_offsets: Vec<usize>,
    /// Whether the most recent training forward fed the first stage through
    /// the sparse-input kernel (in which case the dense input was never
    /// cached and [`Made::backward_scratch`] must be handed the same sparse
    /// capture).
    first_stage_sparse: bool,
}

impl Made {
    /// Build a MADE/ResMADE for `config`, initializing weights from `rng`.
    ///
    /// # Panics
    /// Panics if the config has no columns, mismatched block lists, or (for
    /// ResMADE) non-uniform hidden sizes.
    pub fn new(config: MadeConfig, rng: &mut SmallRng) -> Self {
        let n = config.num_columns();
        assert!(n > 0, "MADE needs at least one column");
        assert_eq!(
            config.input_block_sizes.len(),
            config.output_block_sizes.len(),
            "input/output block lists must describe the same columns"
        );
        assert!(!config.hidden_sizes.is_empty(), "MADE needs at least one hidden layer");
        if config.residual {
            assert!(
                config.hidden_sizes.windows(2).all(|w| w[0] == w[1]),
                "ResMADE requires uniform hidden sizes"
            );
        }

        let in_deg = input_degrees(&config.input_block_sizes);
        let out_deg = input_degrees(&config.output_block_sizes);

        let mut stages = Vec::new();
        let mut prev_deg = in_deg;
        if config.residual {
            let hidden = config.hidden_sizes[0];
            let h_deg = hidden_degrees(hidden, n);
            let mask = hidden_mask(&prev_deg, &h_deg);
            stages.push(Stage::MaskedRelu {
                linear: MaskedLinear::new(prev_deg.len(), hidden, mask, Init::KaimingUniform, rng),
                cached_pre: None,
            });
            prev_deg = h_deg;
            for _ in 1..config.hidden_sizes.len() {
                stages.push(Stage::Residual(ResBlock::new(&prev_deg, Init::KaimingUniform, rng)));
            }
        } else {
            for &hidden in &config.hidden_sizes {
                let h_deg = hidden_degrees(hidden, n);
                let mask = hidden_mask(&prev_deg, &h_deg);
                stages.push(Stage::MaskedRelu {
                    linear: MaskedLinear::new(
                        prev_deg.len(),
                        hidden,
                        mask,
                        Init::KaimingUniform,
                        rng,
                    ),
                    cached_pre: None,
                });
                prev_deg = h_deg;
            }
        }
        let mask = output_mask(&prev_deg, &out_deg);
        stages.push(Stage::Output(MaskedLinear::new(
            prev_deg.len(),
            out_deg.len(),
            mask,
            Init::XavierUniform,
            rng,
        )));

        let input_offsets = prefix_sums(&config.input_block_sizes);
        let output_offsets = prefix_sums(&config.output_block_sizes);
        Self { config, stages, input_offsets, output_offsets, first_stage_sparse: false }
    }

    /// Architecture description.
    pub fn config(&self) -> &MadeConfig {
        &self.config
    }

    /// Offset of column `i`'s block in the input vector.
    pub fn input_offset(&self, col: usize) -> usize {
        self.input_offsets[col]
    }

    /// Offset of column `i`'s logits in the output vector.
    pub fn output_offset(&self, col: usize) -> usize {
        self.output_offsets[col]
    }

    /// `(offset, len)` of column `i`'s logits.
    pub fn output_block(&self, col: usize) -> (usize, usize) {
        (self.output_offsets[col], self.config.output_block_sizes[col])
    }

    /// Forward pass without caching; use for inference/latency measurements.
    ///
    /// Allocates a throwaway workspace per call; hot paths should hold a
    /// persistent [`ForwardWorkspace`] and use
    /// [`InferLayer::infer_into`] instead.
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut ws = ForwardWorkspace::new();
        self.infer_into(input, &mut ws).clone()
    }

    /// The training forward through a [`TrainWorkspace`]: every stage's
    /// activation is checkpointed into a persistent workspace buffer, the
    /// masked effective weights come from the workspace's
    /// [`MaskedWeightCache`], and each layer's backward cache (input /
    /// pre-activation) is refilled in place — so the steady-state training
    /// forward performs **zero heap allocation** (asserted by the training
    /// phase of `tests/zero_alloc.rs`).
    ///
    /// The logits are bit-identical to [`InferLayer::infer_into`] for finite
    /// inputs (fused/packed kernels match the unfused pipeline, see
    /// `duet_nn::kernels`), and [`Made::backward_scratch`] consumes the
    /// caches this pass refilled. The returned reference lives in `tws`
    /// until the next pass overwrites it.
    pub fn forward_train<'w>(&mut self, input: &Matrix, tws: &'w mut TrainWorkspace) -> &'w Matrix {
        self.forward_train_sparse(input, None, tws)
    }

    /// [`forward_train`](Self::forward_train) with an optional sparse row
    /// capture of `input`. When `sparse` is provided and sparse *enough*
    /// (see [`SparseRows::is_sparse_enough`] — the exact complement of the
    /// dense kernels' `mostly_dense` dispatch, so the kernel class never
    /// changes), the first masked layer runs the fused sparse-input kernel,
    /// skipping the zero multiplies the one-hot predicate encoding is mostly
    /// made of. Bit-identical to the dense pass for finite inputs; the
    /// matching backward is [`Made::backward_scratch`] handed the same
    /// capture.
    pub fn forward_train_sparse<'w>(
        &mut self,
        input: &Matrix,
        sparse: Option<&SparseRows>,
        tws: &'w mut TrainWorkspace,
    ) -> &'w Matrix {
        assert_eq!(
            input.cols(),
            self.config.input_width(),
            "input width mismatch: expected {}",
            self.config.input_width()
        );
        let num = self.stages.len();
        let (acts, aux, masked) = tws.parts(num);
        let mut slot = 0usize;
        let mut first_sparse = false;
        for i in 0..num {
            let (prev, rest) = acts.split_at_mut(i);
            let x: &Matrix = if i == 0 { input } else { &prev[i - 1] };
            let out = &mut rest[0];
            match &mut self.stages[i] {
                Stage::MaskedRelu { linear, cached_pre } => {
                    let entry = masked.entry(slot, linear.weight_key(), |w| linear.fill_masked(w));
                    let pre = cached_pre.get_or_insert_with(Matrix::default);
                    match sparse {
                        Some(s) if i == 0 && s.is_sparse_enough() => {
                            debug_assert_eq!(
                                (s.rows(), s.cols()),
                                input.shape(),
                                "sparse capture must describe the dense input"
                            );
                            linear.train_forward_sparse(s, entry, pre);
                            first_sparse = true;
                        }
                        _ => linear.train_forward_entry(x, entry, pre),
                    }
                    out.copy_from(pre);
                    Activation::Relu.apply(out.as_mut_slice());
                    slot += 1;
                }
                Stage::Residual(block) => {
                    block.train_forward(x, aux, out, masked, slot);
                    slot += 2;
                }
                Stage::Output(linear) => {
                    let entry = masked.entry(slot, linear.weight_key(), |w| linear.fill_masked(w));
                    linear.train_forward_entry(x, entry, out);
                    slot += 1;
                }
            }
        }
        self.first_stage_sparse = first_sparse;
        &acts[num - 1]
    }

    /// Scratch-buffer backward for the most recent training forward. The
    /// gradient ping-pongs through the [`TrainWorkspace`]'s three reusable
    /// buffers (three, not two: a residual block keeps its incoming gradient
    /// alive across both inner backwards for the identity skip), `dW`/`db`
    /// are staged in workspace scratch before accumulating into the
    /// parameter gradients, and every masked effective weight is a guaranteed
    /// [`MaskedWeightCache`] hit because backward runs before the optimizer
    /// bumps any [`WeightKey`](crate::param::WeightKey).
    ///
    /// `sparse` must be the same capture the preceding
    /// [`forward_train_sparse`](Self::forward_train_sparse) consumed (pass
    /// `None` after a dense forward). With `need_input_grad` the gradient
    /// w.r.t. the network input is left in the workspace and readable via
    /// [`TrainWorkspace::input_grad`] (the MPSN chain needs it; plain tables
    /// skip that final matmul).
    ///
    /// # Panics
    /// Panics if called before a training forward, or if the forward used
    /// the sparse first-layer path and `sparse` is `None`.
    pub fn backward_scratch(
        &mut self,
        grad_logits: &Matrix,
        sparse: Option<&SparseRows>,
        tws: &mut TrainWorkspace,
        need_input_grad: bool,
    ) {
        let first_sparse = self.first_stage_sparse;
        let total_slots: usize =
            self.stages.iter().map(|s| if matches!(s, Stage::Residual(_)) { 2 } else { 1 }).sum();
        let (grads, dw, db, masked) = tws.backward_parts();
        let mut slot = total_slots;
        // Index of the grads buffer holding the live incoming gradient.
        let mut cur = 0usize;
        for (i, stage) in self.stages.iter_mut().enumerate().rev() {
            let is_input_stage = i == 0;
            match stage {
                Stage::Output(linear) => {
                    slot -= 1;
                    let entry = masked.entry(slot, linear.weight_key(), |w| linear.fill_masked(w));
                    linear.backward_scratch(
                        grad_logits,
                        entry.weight(),
                        dw,
                        db,
                        Some(&mut grads[0]),
                    );
                    cur = 0;
                }
                Stage::Residual(block) => {
                    slot -= 2;
                    let (g_out, g_act, g_in) = pick3(grads, cur);
                    block.backward_scratch(g_out, g_act, g_in, dw, db, masked, slot);
                    cur = (cur + 2) % 3;
                }
                Stage::MaskedRelu { linear, cached_pre } => {
                    slot -= 1;
                    let pre = cached_pre.as_ref().expect("Made::backward called before forward");
                    relu_gate(grads[cur].as_mut_slice(), pre.as_slice());
                    let entry = masked.entry(slot, linear.weight_key(), |w| linear.fill_masked(w));
                    let want_grad_in = !is_input_stage || need_input_grad;
                    let (g_out, g_in_buf) = pick2(grads, cur);
                    let grad_in = if want_grad_in { Some(g_in_buf) } else { None };
                    if is_input_stage && first_sparse {
                        let s = sparse.expect(
                            "forward used the sparse first-layer path; pass the same sparse input to backward",
                        );
                        linear.backward_scratch_sparse(g_out, s, entry.weight(), dw, db, grad_in);
                    } else {
                        linear.backward_scratch(g_out, entry.weight(), dw, db, grad_in);
                    }
                    if want_grad_in {
                        cur = (cur + 1) % 3;
                    }
                }
            }
        }
        debug_assert_eq!(slot, 0);
        tws.set_input_grad_slot(cur);
    }

    /// Total number of trainable scalars. Computed from the stage shapes
    /// (`&self`), so read paths — e.g. a serving tier's memory-budget
    /// accounting — can query sizes without exclusive access.
    pub fn num_parameters(&self) -> usize {
        self.stages
            .iter()
            .map(|stage| match stage {
                Stage::MaskedRelu { linear, .. } => linear.num_parameters(),
                Stage::Residual(block) => block.fc1.num_parameters() + block.fc2.num_parameters(),
                Stage::Output(linear) => linear.num_parameters(),
            })
            .sum()
    }

    /// Model size in bytes assuming `f32` storage (reported in Table II).
    pub fn size_bytes(&self) -> usize {
        self.num_parameters() * std::mem::size_of::<f32>()
    }
}

impl InferLayer for Made {
    /// The serving-path forward: activations ping-pong through the
    /// workspace, and every stage's masked effective weight (`W ⊙ M`) comes
    /// from the workspace's [`MaskedWeightCache`] — materialized once per
    /// (workspace, weights) pair instead of once per batch, and re-validated
    /// by [`crate::param::WeightKey`] so optimizer steps and hot-swaps can
    /// never serve stale weights. Bit-identical to the training
    /// [`Made::forward_train`] in the default [`WeightMode::Full`]; under
    /// [`WeightMode::Half`] (see [`ForwardWorkspace::set_weight_mode`]) the
    /// batched stages read the compressed f16 weight tier instead, trading
    /// bit-identity for bounded per-weight rounding error at half the weight
    /// memory traffic.
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        assert_eq!(
            input.cols(),
            self.config.input_width(),
            "input width mismatch: expected {}",
            self.config.input_width()
        );
        ws.rewind();
        let mode = ws.weight_mode();
        let mut slot = 0usize;
        for (i, stage) in self.stages.iter().enumerate() {
            {
                let (cur, next, aux, masked) = ws.split_masked();
                let x: &Matrix = if i == 0 { input } else { cur };
                match stage {
                    Stage::MaskedRelu { linear, .. } => {
                        let entry =
                            masked.entry(slot, linear.weight_key(), |w| linear.fill_masked(w));
                        linear.infer_with_entry_mode(x, Activation::Relu, mode, entry, next);
                        slot += 1;
                    }
                    Stage::Residual(block) => {
                        block.infer_cached(x, aux, next, masked, slot, mode);
                        slot += 2;
                    }
                    Stage::Output(linear) => {
                        let entry =
                            masked.entry(slot, linear.weight_key(), |w| linear.fill_masked(w));
                        linear.infer_with_entry_mode(x, Activation::Identity, mode, entry, next);
                        slot += 1;
                    }
                }
            }
            ws.flip();
        }
        ws.output()
    }
}

/// Borrow the live gradient buffer (`cur`) plus the next free one from the
/// ping-pong triple, disjointly.
fn pick2(bufs: &mut [Matrix; 3], cur: usize) -> (&Matrix, &mut Matrix) {
    let [a, b, c] = bufs;
    match cur {
        0 => (&*a, b),
        1 => (&*b, c),
        _ => (&*c, a),
    }
}

/// Borrow the live gradient buffer (`cur`) plus both free ones — a residual
/// block needs all three at once (incoming gradient stays alive for the
/// identity skip while the two inner backwards write the other two).
fn pick3(bufs: &mut [Matrix; 3], cur: usize) -> (&Matrix, &mut Matrix, &mut Matrix) {
    let [a, b, c] = bufs;
    match cur {
        0 => (&*a, b, c),
        1 => (&*b, c, a),
        _ => (&*c, a, b),
    }
}

fn prefix_sums(sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(sizes.len());
    let mut acc = 0;
    for &s in sizes {
        out.push(acc);
        acc += s;
    }
    out
}

impl Trainable for Made {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for stage in &mut self.stages {
            match stage {
                Stage::MaskedRelu { linear, .. } => linear.visit_params(f),
                Stage::Residual(block) => block.visit_params(f),
                Stage::Output(linear) => linear.visit_params(f),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::loss::grouped_cross_entropy;
    use rand::Rng;

    fn small_config(residual: bool) -> MadeConfig {
        MadeConfig {
            input_block_sizes: vec![4, 3, 5],
            output_block_sizes: vec![6, 2, 4],
            hidden_sizes: vec![16, 16],
            residual,
        }
    }

    #[test]
    fn forward_shapes() {
        for residual in [false, true] {
            let mut rng = seeded_rng(10);
            let mut made = Made::new(small_config(residual), &mut rng);
            let x = Matrix::zeros(3, 12);
            let mut tws = TrainWorkspace::new();
            assert_eq!(made.forward_train(&x, &mut tws).shape(), (3, 12));
            assert_eq!(made.forward_inference(&x).shape(), (3, 12));
            assert_eq!(made.output_block(2), (8, 4));
        }
    }

    #[test]
    fn autoregressive_property_holds() {
        // Perturbing the input block of column j must not change the logits of
        // any column i <= j.
        for residual in [false, true] {
            let mut rng = seeded_rng(11);
            let made = Made::new(small_config(residual), &mut rng);
            let mut base_in = vec![0.3f32; 12];
            for (i, v) in base_in.iter_mut().enumerate() {
                *v += i as f32 * 0.01;
            }
            let base = made.forward_inference(&Matrix::from_vec(1, 12, base_in.clone()));
            for perturb_col in 0..3usize {
                let off = made.input_offset(perturb_col);
                let width = made.config().input_block_sizes[perturb_col];
                let mut moved_in = base_in.clone();
                for v in &mut moved_in[off..off + width] {
                    *v += 17.0;
                }
                let moved = made.forward_inference(&Matrix::from_vec(1, 12, moved_in));
                for out_col in 0..=perturb_col {
                    let (o, len) = made.output_block(out_col);
                    for k in 0..len {
                        assert!(
                            (base.get(0, o + k) - moved.get(0, o + k)).abs() < 1e-5,
                            "output block {out_col} changed when perturbing input block {perturb_col} (residual={residual})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_column_output_ignores_all_inputs() {
        let mut rng = seeded_rng(12);
        let made = Made::new(small_config(false), &mut rng);
        let a = made.forward_inference(&Matrix::full(1, 12, 0.0));
        let b = made.forward_inference(&Matrix::full(1, 12, 5.0));
        let (o, len) = made.output_block(0);
        for k in 0..len {
            assert!((a.get(0, o + k) - b.get(0, o + k)).abs() < 1e-6);
        }
    }

    /// Nudge entry `idx` of the `param`-th visited parameter by `delta`.
    fn nudge(made: &mut Made, param: usize, idx: usize, delta: f32) {
        let mut k = 0;
        made.visit_params(&mut |p| {
            if k == param {
                p.data.as_mut_slice()[idx] += delta;
            }
            k += 1;
        });
    }

    #[test]
    fn scratch_gradient_matches_finite_differences() {
        // Ground truth for every training variant: {sparse, dense} first
        // layer x {plain MADE, ResMADE}, checked on entries of every
        // parameter (so residual-block weights are covered) and on the
        // input gradient the MPSN chain consumes.
        for residual in [false, true] {
            for sparse_input in [true, false] {
                let ctx = format!("residual={residual}, sparse={sparse_input}");
                let mut rng = seeded_rng(23);
                let config = MadeConfig {
                    input_block_sizes: vec![2, 3],
                    output_block_sizes: vec![3, 2],
                    hidden_sizes: vec![8, 8],
                    residual,
                };
                let mut made = Made::new(config.clone(), &mut rng);
                // Nonzero biases keep all-zero input rows off the ReLU kink,
                // where a central difference straddles two slopes.
                made.visit_params(&mut |p| {
                    if p.data.rows() == 1 {
                        p.data
                            .as_mut_slice()
                            .iter_mut()
                            .for_each(|b| *b = rng.gen_range(-0.2..0.2));
                    }
                });
                let batch = 4;
                let mut input = Matrix::zeros(batch, config.input_width());
                // Mostly-zero (one-hot-like, as fill_input produces) or fully
                // dense input.
                let nnz_prob = if sparse_input { 0.3 } else { 1.0 };
                for v in input.as_mut_slice() {
                    if rng.gen_range(0.0..1.0f32) < nnz_prob {
                        *v = rng.gen_range(-1.0..1.0);
                    }
                }
                let labels: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 0], vec![1, 1], vec![2, 0]];
                let blocks = config.output_block_sizes.clone();

                made.zero_grad();
                let mut tws = TrainWorkspace::new();
                let mut sparse = SparseRows::new();
                sparse.capture_from(&input);
                assert_eq!(sparse.is_sparse_enough(), sparse_input, "{ctx}");
                let logits = made.forward_train_sparse(&input, Some(&sparse), &mut tws).clone();
                let (loss, grad_logits) = grouped_cross_entropy(&logits, &blocks, &labels);
                made.backward_scratch(&grad_logits, Some(&sparse), &mut tws, true);
                assert!(loss.is_finite());
                let mut analytic: Vec<Vec<f32>> = Vec::new();
                made.visit_params(&mut |p| analytic.push(p.grad.as_slice().to_vec()));
                let input_grad = tws.input_grad().clone();

                let eps = 1e-3f32;
                let loss_at = |made: &Made, x: &Matrix| {
                    grouped_cross_entropy(&made.forward_inference(x), &blocks, &labels).0
                };
                let check = |ga: f32, numeric: f32, what: String| {
                    assert!(
                        (numeric - ga).abs() < 2e-2 * (1.0 + ga.abs()),
                        "finite-diff mismatch at {what} ({ctx}): analytic {ga}, numeric {numeric}"
                    );
                };
                for (param, grads) in analytic.iter().enumerate() {
                    let n = grads.len();
                    for idx in [0, 1, n / 3, n / 2, n - 1] {
                        nudge(&mut made, param, idx, eps);
                        let plus = loss_at(&made, &input);
                        nudge(&mut made, param, idx, -2.0 * eps);
                        let minus = loss_at(&made, &input);
                        nudge(&mut made, param, idx, eps);
                        let numeric = (plus - minus) / (2.0 * eps);
                        check(grads[idx], numeric, format!("param {param}[{idx}]"));
                    }
                }
                for idx in 0..input.len() {
                    let mut x = input.clone();
                    x.as_mut_slice()[idx] += eps;
                    let plus = loss_at(&made, &x);
                    x.as_mut_slice()[idx] -= 2.0 * eps;
                    let minus = loss_at(&made, &x);
                    let numeric = (plus - minus) / (2.0 * eps);
                    check(input_grad.as_slice()[idx], numeric, format!("input[{idx}]"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pass the same sparse input to backward")]
    fn dense_backward_after_sparse_forward_panics() {
        // The sparse training forward deliberately drops the dense input
        // cache: a backward without the sparse capture must fail loudly, not
        // silently use the previous batch's input.
        let mut rng = seeded_rng(24);
        let config = small_config(false);
        let mut made = Made::new(config.clone(), &mut rng);
        let input = Matrix::zeros(2, config.input_width()); // all-zero: maximally sparse
        let mut tws = TrainWorkspace::new();
        let mut sparse = SparseRows::new();
        sparse.capture_from(&input);
        let _ = made.forward_train_sparse(&input, Some(&sparse), &mut tws);
        made.backward_scratch(&Matrix::zeros(2, config.output_width()), None, &mut tws, false);
    }

    #[test]
    fn param_count_and_size() {
        for residual in [false, true] {
            let mut rng = seeded_rng(14);
            let mut made = Made::new(small_config(residual), &mut rng);
            let n = made.num_parameters();
            assert!(n > 0);
            assert_eq!(made.size_bytes(), n * 4);
            // The shape-derived count must agree with actually visiting
            // every parameter.
            assert_eq!(n, made.param_count(), "shape-derived count diverged (residual={residual})");
        }
    }

    #[test]
    fn single_column_table_is_supported() {
        let mut rng = seeded_rng(15);
        let config = MadeConfig {
            input_block_sizes: vec![5],
            output_block_sizes: vec![7],
            hidden_sizes: vec![8],
            residual: false,
        };
        let made = Made::new(config, &mut rng);
        let a = made.forward_inference(&Matrix::full(1, 5, 0.0));
        let b = made.forward_inference(&Matrix::full(1, 5, 3.0));
        // With one column the output is unconditional: inputs must not matter.
        for k in 0..7 {
            assert!((a.get(0, k) - b.get(0, k)).abs() < 1e-6);
        }
    }
}
