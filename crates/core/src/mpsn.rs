//! Multiple Predicates Supporting Networks (MPSN, paper §IV-F).
//!
//! When a query may carry more than one predicate on the same column, the
//! variable-length list of predicate encodings must be squashed into the
//! column's fixed-width input block before it reaches the autoregressive
//! network. The paper proposes three candidates and picks the MLP variant for
//! efficiency:
//!
//! * **MLP & vector sum** — embed each predicate with a small MLP and sum the
//!   embeddings (order-invariant);
//! * **Recurrent** — run the predicate sequence through a small recurrent
//!   network (the paper uses an LSTM; this reproduction uses a single-layer
//!   tanh RNN, which preserves the relevant trade-offs: sequential cost and
//!   order sensitivity);
//! * **Recursive** — `out = MLP(E(pred) || out)`, folded over the predicates.
//!
//! Every column owns an independent MPSN. For the MLP variant the paper also
//! describes a *merged* inference mode where all per-column MLPs are combined
//! into one block-diagonal network so a single forward pass embeds every
//! column at once; [`MergedMlpMpsn`] implements that acceleration.

use crate::config::MpsnKind;
use duet_nn::{
    rowvec_matmul_into, seeded_rng, Activation, ForwardWorkspace, InferLayer, Init, Linear, Matrix,
    Mlp, Param, TrainWorkspace, Trainable,
};
use rand::rngs::SmallRng;

/// Reusable scratch buffers for allocation-free MPSN embedding.
///
/// Owned by the caller (typically inside a
/// [`DuetWorkspace`](crate::model::DuetWorkspace)); every buffer reshapes on
/// the fly reusing its heap capacity, so embedding is allocation-free once
/// the buffers have warmed up to the widest column.
#[derive(Debug, Clone, Default)]
pub struct MpsnScratch {
    /// Workspace for the per-column MLP / recursive cell forward passes.
    nn: ForwardWorkspace,
    /// One-row input staging matrix for the recursive cell.
    row_in: Matrix,
    /// Recurrent hidden state.
    h: Vec<f32>,
    /// Recurrent pre-activation.
    a: Vec<f32>,
    /// Recurrent `h @ Wh` staging (kept separate from `a` so the summation
    /// order matches the allocating path bit for bit).
    t: Vec<f32>,
    /// Recursive previous output.
    prev: Vec<f32>,
}

impl MpsnScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A per-column MPSN instance.
// Variant sizes differ, but a model holds at most one per column, so boxing
// the larger variants would add a pointer chase per embed for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ColumnMpsn {
    /// MLP embedding + vector sum.
    Mlp(MlpMpsn),
    /// Recurrent (tanh RNN) embedding.
    Recurrent(RecurrentMpsn),
    /// Recursive embedding.
    Recursive(RecursiveMpsn),
}

impl ColumnMpsn {
    /// Create an MPSN of the requested kind for a column whose input block is
    /// `dim` wide.
    ///
    /// # Panics
    /// Panics if `kind` is [`MpsnKind::None`].
    pub fn new(kind: MpsnKind, dim: usize, hidden: usize, rng: &mut SmallRng) -> Self {
        match kind {
            MpsnKind::Mlp => ColumnMpsn::Mlp(MlpMpsn::new(dim, hidden, rng)),
            MpsnKind::Recurrent => ColumnMpsn::Recurrent(RecurrentMpsn::new(dim, hidden, rng)),
            MpsnKind::Recursive => ColumnMpsn::Recursive(RecursiveMpsn::new(dim, hidden, rng)),
            MpsnKind::None => panic!("MpsnKind::None has no network"),
        }
    }

    /// Embed a (possibly empty) list of predicate encodings into the column's
    /// input block. An empty list (wildcard column) embeds to all zeros.
    ///
    /// Allocating convenience wrapper over [`ColumnMpsn::embed_into`].
    pub fn embed(&self, preds: &[Vec<f32>]) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        if !preds.is_empty() {
            let encs = stack(preds);
            let mut ws = MpsnScratch::new();
            self.embed_into(&encs, &mut ws, &mut out);
        }
        out
    }

    /// Embed the stacked predicate encodings `encs` (one row per predicate,
    /// `dim` columns) into `out`, using only the scratch buffers in `ws` —
    /// allocation-free once warm and bit-identical to [`ColumnMpsn::embed`].
    ///
    /// An empty `encs` (wildcard column) writes all zeros.
    pub fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim());
        if encs.rows() == 0 {
            out.fill(0.0);
            return;
        }
        match self {
            ColumnMpsn::Mlp(m) => m.embed_into(encs, ws, out),
            ColumnMpsn::Recurrent(m) => m.embed_into(encs, ws, out),
            ColumnMpsn::Recursive(m) => m.embed_into(encs, ws, out),
        }
    }

    /// Accumulate parameter gradients for one embedding call: `grad_out` is
    /// the gradient of the loss w.r.t. the embedding returned by
    /// [`Self::embed`] for the same `preds`.
    pub fn accumulate_grad(&mut self, preds: &[Vec<f32>], grad_out: &[f32]) {
        if preds.is_empty() {
            return; // wildcard embeddings are constant zeros
        }
        match self {
            ColumnMpsn::Mlp(m) => m.accumulate_grad(preds, grad_out),
            ColumnMpsn::Recurrent(m) => m.accumulate_grad(preds, grad_out),
            ColumnMpsn::Recursive(m) => m.accumulate_grad(preds, grad_out),
        }
    }

    /// Visit the trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            ColumnMpsn::Mlp(m) => m.mlp.visit_params(f),
            ColumnMpsn::Recurrent(m) => m.visit_params(f),
            ColumnMpsn::Recursive(m) => m.cell.visit_params(f),
        }
    }

    /// Embedding width (equals the column's input block width).
    pub fn dim(&self) -> usize {
        match self {
            ColumnMpsn::Mlp(m) => m.dim,
            ColumnMpsn::Recurrent(m) => m.dim,
            ColumnMpsn::Recursive(m) => m.dim,
        }
    }
}

/// MLP & vector-sum MPSN: `embed(preds) = Σ_j MLP(pred_j)`.
#[derive(Debug, Clone)]
pub struct MlpMpsn {
    mlp: Mlp,
    dim: usize,
}

impl MlpMpsn {
    fn new(dim: usize, hidden: usize, rng: &mut SmallRng) -> Self {
        Self { mlp: Mlp::new(&[dim, hidden, hidden, dim], rng), dim }
    }

    /// `out = Σ_rows MLP(encs)`: run the stacked encodings through the MLP in
    /// one workspace-backed pass and sum the output rows (the vector-sum of
    /// the paper, accumulated row by row in ascending order).
    fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        let y = self.mlp.infer_into(encs, &mut ws.nn);
        out.fill(0.0);
        for row in y.rows_iter() {
            for (o, &x) in out.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
    }

    fn accumulate_grad(&mut self, preds: &[Vec<f32>], grad_out: &[f32]) {
        let batch = stack(preds);
        let mut tws = TrainWorkspace::new();
        let _ = self.mlp.forward_train(&batch, &mut tws);
        // The sum over predicates broadcasts the same gradient to every row.
        let mut grad = Matrix::zeros(preds.len(), self.dim);
        for r in 0..preds.len() {
            grad.row_mut(r).copy_from_slice(grad_out);
        }
        self.mlp.backward_scratch(&grad, &mut tws, false);
    }

    /// Access to the underlying MLP (used by [`MergedMlpMpsn`]).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }
}

/// Recurrent MPSN: a single-layer tanh RNN over the predicate sequence
/// followed by a linear readout of the final hidden state.
#[derive(Debug, Clone)]
pub struct RecurrentMpsn {
    wx: Param,
    wh: Param,
    b: Param,
    wo: Param,
    bo: Param,
    dim: usize,
    hidden: usize,
}

impl RecurrentMpsn {
    fn new(dim: usize, hidden: usize, rng: &mut SmallRng) -> Self {
        Self {
            wx: Param::new(Init::XavierUniform.matrix(dim, hidden, rng)),
            wh: Param::new(Init::XavierUniform.matrix(hidden, hidden, rng)),
            b: Param::new(Matrix::zeros(1, hidden)),
            wo: Param::new(Init::XavierUniform.matrix(hidden, dim, rng)),
            bo: Param::new(Matrix::zeros(1, dim)),
            dim,
            hidden,
        }
    }

    /// Run the RNN, returning every hidden state (index 0 is the initial zero
    /// state).
    fn run(&self, preds: &[Vec<f32>]) -> Vec<Matrix> {
        let mut states = vec![Matrix::zeros(1, self.hidden)];
        for pred in preds {
            let x = Matrix::from_vec(1, self.dim, pred.clone());
            let mut a = x.matmul(&self.wx.data);
            a.add_assign(&states.last().expect("non-empty").matmul(&self.wh.data));
            a.add_row_vector(self.b.data.as_slice());
            a.as_mut_slice().iter_mut().for_each(|v| *v = v.tanh());
            states.push(a);
        }
        states
    }

    /// Run the tanh RNN over the stacked encodings and read out the final
    /// hidden state, keeping the state in flat scratch slices.
    ///
    /// `x @ Wx` and `h @ Wh` are computed into separate buffers and then
    /// added (instead of accumulating into one), so the floating-point
    /// summation order matches [`RecurrentMpsn::run`] exactly.
    fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        ws.h.clear();
        ws.h.resize(self.hidden, 0.0);
        ws.a.clear();
        ws.a.resize(self.hidden, 0.0);
        ws.t.clear();
        ws.t.resize(self.hidden, 0.0);
        for r in 0..encs.rows() {
            rowvec_matmul_into(encs.row(r), &self.wx.data, &mut ws.a);
            rowvec_matmul_into(&ws.h, &self.wh.data, &mut ws.t);
            for (a, &t) in ws.a.iter_mut().zip(ws.t.iter()) {
                *a += t;
            }
            for (a, &b) in ws.a.iter_mut().zip(self.b.data.as_slice().iter()) {
                *a += b;
            }
            ws.a.iter_mut().for_each(|v| *v = v.tanh());
            std::mem::swap(&mut ws.h, &mut ws.a);
        }
        rowvec_matmul_into(&ws.h, &self.wo.data, out);
        for (o, &b) in out.iter_mut().zip(self.bo.data.as_slice().iter()) {
            *o += b;
        }
    }

    fn accumulate_grad(&mut self, preds: &[Vec<f32>], grad_out: &[f32]) {
        let states = self.run(preds);
        let last = states.last().expect("non-empty");
        let g = Matrix::from_vec(1, self.dim, grad_out.to_vec());
        // Readout layer.
        self.wo.grad.add_assign(&last.matmul_tn(&g));
        for (b, &d) in self.bo.grad.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *b += d;
        }
        let mut dh = g.matmul_nt(&self.wo.data);
        // Back-propagation through time.
        for t in (0..preds.len()).rev() {
            let h_t = &states[t + 1];
            let h_prev = &states[t];
            // da = dh * (1 - h_t^2)
            let mut da = dh.clone();
            for (d, &h) in da.as_mut_slice().iter_mut().zip(h_t.as_slice()) {
                *d *= 1.0 - h * h;
            }
            let x = Matrix::from_vec(1, self.dim, preds[t].clone());
            self.wx.grad.add_assign(&x.matmul_tn(&da));
            self.wh.grad.add_assign(&h_prev.matmul_tn(&da));
            for (b, &d) in self.b.grad.as_mut_slice().iter_mut().zip(da.as_slice()) {
                *b += d;
            }
            dh = da.matmul_nt(&self.wh.data);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
        f(&mut self.wo);
        f(&mut self.bo);
    }
}

/// Recursive MPSN: `out_t = MLP([pred_t ; out_{t-1}])`, with `out_0 = 0`.
#[derive(Debug, Clone)]
pub struct RecursiveMpsn {
    cell: Mlp,
    dim: usize,
}

impl RecursiveMpsn {
    fn new(dim: usize, hidden: usize, rng: &mut SmallRng) -> Self {
        Self { cell: Mlp::new(&[2 * dim, hidden, hidden, dim], rng), dim }
    }

    fn run(&self, preds: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut outs = vec![vec![0.0; self.dim]];
        for pred in preds {
            let prev = outs.last().expect("non-empty");
            let mut input = Vec::with_capacity(2 * self.dim);
            input.extend_from_slice(pred);
            input.extend_from_slice(prev);
            let out = self.cell.forward_inference(&Matrix::from_vec(1, 2 * self.dim, input));
            outs.push(out.into_vec());
        }
        outs
    }

    /// Fold the recursive cell over the stacked encodings:
    /// `out_t = MLP([enc_t ; out_{t-1}])`, staging each cell input in the
    /// scratch's one-row matrix.
    fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        let dim = self.dim;
        ws.prev.clear();
        ws.prev.resize(dim, 0.0);
        for r in 0..encs.rows() {
            ws.row_in.reset(1, 2 * dim);
            let row = ws.row_in.row_mut(0);
            row[..dim].copy_from_slice(encs.row(r));
            row[dim..].copy_from_slice(&ws.prev);
            let y = self.cell.infer_into(&ws.row_in, &mut ws.nn);
            ws.prev.copy_from_slice(y.row(0));
        }
        out.copy_from_slice(&ws.prev);
    }

    fn accumulate_grad(&mut self, preds: &[Vec<f32>], grad_out: &[f32]) {
        let dim = self.dim;
        let outs = self.run(preds);
        let mut tws = TrainWorkspace::new();
        let mut input = Matrix::zeros(1, 2 * dim);
        let mut grad = Matrix::from_vec(1, dim, grad_out.to_vec());
        for t in (0..preds.len()).rev() {
            let row = input.row_mut(0);
            row[..dim].copy_from_slice(&preds[t]);
            row[dim..].copy_from_slice(&outs[t]);
            let _ = self.cell.forward_train(&input, &mut tws);
            self.cell.backward_scratch(&grad, &mut tws, true);
            // The second half of the input gradient flows to out_{t-1}.
            grad.as_mut_slice().copy_from_slice(&tws.input_grad().row(0)[dim..]);
        }
    }
}

/// Build one MPSN per column.
pub fn build_mpsns(
    kind: MpsnKind,
    block_widths: &[usize],
    hidden: usize,
    seed: u64,
) -> Vec<ColumnMpsn> {
    if kind == MpsnKind::None {
        return Vec::new();
    }
    let mut rng = seeded_rng(seed);
    block_widths.iter().map(|&dim| ColumnMpsn::new(kind, dim, hidden, &mut rng)).collect()
}

/// The merged-MLP acceleration (paper §IV-F, "Parallel Acceleration for MLP
/// MPSN"): all per-column MLP MPSNs are fused into one block-diagonal MLP so a
/// single forward pass embeds every column's predicates at once.
#[derive(Debug, Clone)]
pub struct MergedMlpMpsn {
    /// One `(weight, bias)` pair per fused layer; weights are block-diagonal.
    layers: Vec<(Matrix, Vec<f32>)>,
    block_offsets: Vec<Vec<usize>>, // per layer, per column offset
    dims: Vec<usize>,
}

impl MergedMlpMpsn {
    /// Fuse per-column MLP MPSNs. All columns must use the same number of
    /// layers (they do, by construction in [`build_mpsns`]).
    ///
    /// # Panics
    /// Panics if `mpsns` is empty or contains a non-MLP variant.
    pub fn from_columns(mpsns: &[ColumnMpsn]) -> Self {
        assert!(!mpsns.is_empty(), "cannot merge zero MPSNs");
        let mlps: Vec<&Mlp> = mpsns
            .iter()
            .map(|m| match m {
                ColumnMpsn::Mlp(m) => m.mlp(),
                _ => panic!("merged acceleration only applies to MLP MPSNs"),
            })
            .collect();
        let n_layers = mlps[0].linears().len();
        assert!(mlps.iter().all(|m| m.linears().len() == n_layers));

        let dims: Vec<usize> = mpsns.iter().map(|m| m.dim()).collect();
        let mut layers = Vec::with_capacity(n_layers);
        let mut block_offsets = Vec::with_capacity(n_layers + 1);
        for layer_idx in 0..n_layers {
            let linears: Vec<&Linear> = mlps.iter().map(|m| &m.linears()[layer_idx]).collect();
            let total_in: usize = linears.iter().map(|l| l.in_features()).sum();
            let total_out: usize = linears.iter().map(|l| l.out_features()).sum();
            let mut w = Matrix::zeros(total_in, total_out);
            let mut b = vec![0.0f32; total_out];
            let mut in_off = 0;
            let mut out_off = 0;
            let mut in_offsets = Vec::with_capacity(linears.len());
            for l in &linears {
                in_offsets.push(in_off);
                // Copy the column's weight block onto the diagonal.
                for i in 0..l.in_features() {
                    for j in 0..l.out_features() {
                        w.set(in_off + i, out_off + j, l.weight().get(i, j));
                    }
                }
                b[out_off..out_off + l.out_features()].copy_from_slice(l.bias().as_slice());
                in_off += l.in_features();
                out_off += l.out_features();
            }
            block_offsets.push(in_offsets);
            layers.push((w, b));
        }
        // Output offsets of the final layer (per column).
        let mut final_offsets = Vec::with_capacity(dims.len());
        let mut off = 0;
        for &d in &dims {
            final_offsets.push(off);
            off += d;
        }
        block_offsets.push(final_offsets);
        Self { layers, block_offsets, dims }
    }

    /// Embed every column's predicate lists in one fused pass.
    ///
    /// `preds_per_col[c]` holds the encodings of column `c`'s predicates; the
    /// result is the concatenation of every column's embedding (identical to
    /// calling each [`ColumnMpsn::embed`] separately and concatenating).
    ///
    /// Allocating convenience wrapper over [`MergedMlpMpsn::embed_all_into`].
    pub fn embed_all(&self, preds_per_col: &[Vec<Vec<f32>>]) -> Vec<f32> {
        let mut result = vec![0.0f32; self.dims.iter().sum()];
        let mut ws = ForwardWorkspace::new();
        self.embed_all_into(preds_per_col, &mut ws, &mut result);
        result
    }

    /// [`MergedMlpMpsn::embed_all`] into a caller-provided output slice,
    /// staging every intermediate in the workspace — allocation-free once the
    /// workspace has warmed up to this network's widths.
    pub fn embed_all_into(
        &self,
        preds_per_col: &[Vec<Vec<f32>>],
        ws: &mut ForwardWorkspace,
        out: &mut [f32],
    ) {
        assert_eq!(preds_per_col.len(), self.dims.len(), "column count mismatch");
        let total: usize = self.dims.iter().sum();
        assert_eq!(out.len(), total, "output length mismatch");
        out.fill(0.0);
        let max_preds = preds_per_col.iter().map(|p| p.len()).max().unwrap_or(0);
        if max_preds == 0 {
            return;
        }
        ws.rewind();
        // Row k holds every column's k-th predicate (or zeros). Running the
        // block-diagonal MLP over these rows and masking out the slots where a
        // column has no k-th predicate reproduces the per-column sum exactly.
        {
            let (_cur, _next, aux) = ws.split();
            aux.reset(max_preds, self.layers[0].0.rows());
            for (c, preds) in preds_per_col.iter().enumerate() {
                let off = self.block_offsets[0][c];
                for (k, p) in preds.iter().enumerate() {
                    aux.row_mut(k)[off..off + p.len()].copy_from_slice(p);
                }
            }
        }
        let last = self.layers.len() - 1;
        for (i, (w, b)) in self.layers.iter().enumerate() {
            let act = if i < last { Activation::Relu } else { Activation::Identity };
            {
                let (cur, next, aux) = ws.split();
                let x: &Matrix = if i == 0 { aux } else { cur };
                x.addmm_bias_act_into(w, Some(b), act, next);
            }
            ws.flip();
        }
        // Mask and sum over the predicate-slot rows.
        let y = ws.output();
        let final_offsets = &self.block_offsets[self.layers.len()];
        for (c, preds) in preds_per_col.iter().enumerate() {
            let off = final_offsets[c];
            let dim = self.dims[c];
            for k in 0..preds.len() {
                let row = y.row(k);
                for d in 0..dim {
                    out[off + d] += row[off + d];
                }
            }
        }
    }
}

fn stack(rows: &[Vec<f32>]) -> Matrix {
    let cols = rows.first().map(|r| r.len()).unwrap_or(0);
    let mut m = Matrix::zeros(rows.len(), cols);
    for (i, r) in rows.iter().enumerate() {
        m.row_mut(i).copy_from_slice(r);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred_vec(dim: usize, seed: f32) -> Vec<f32> {
        (0..dim).map(|i| ((i as f32 + 1.0) * seed).sin()).collect()
    }

    #[test]
    fn wildcard_embeds_to_zero_for_all_variants() {
        let mut rng = seeded_rng(1);
        for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let m = ColumnMpsn::new(kind, 8, 16, &mut rng);
            assert_eq!(m.embed(&[]), vec![0.0; 8], "{kind:?}");
        }
    }

    #[test]
    fn mlp_embedding_is_order_invariant_but_recurrent_is_not() {
        let mut rng = seeded_rng(2);
        let a = pred_vec(8, 0.3);
        let b = pred_vec(8, 1.7);
        let mlp = ColumnMpsn::new(MpsnKind::Mlp, 8, 16, &mut rng);
        let e1 = mlp.embed(&[a.clone(), b.clone()]);
        let e2 = mlp.embed(&[b.clone(), a.clone()]);
        for (x, y) in e1.iter().zip(e2.iter()) {
            assert!((x - y).abs() < 1e-5, "MLP MPSN must be order-invariant");
        }
        let rec = ColumnMpsn::new(MpsnKind::Recurrent, 8, 16, &mut rng);
        let r1 = rec.embed(&[a.clone(), b.clone()]);
        let r2 = rec.embed(&[b, a]);
        let diff: f32 = r1.iter().zip(r2.iter()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "recurrent MPSN is expected to be order-sensitive");
    }

    #[test]
    fn gradients_accumulate_for_all_variants() {
        let mut rng = seeded_rng(3);
        for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let mut m = ColumnMpsn::new(kind, 6, 12, &mut rng);
            let preds = vec![pred_vec(6, 0.5), pred_vec(6, 0.9)];
            let grad = vec![0.1f32; 6];
            m.accumulate_grad(&preds, &grad);
            let mut total = 0.0f32;
            m.visit_params(&mut |p| total += p.grad.max_abs());
            assert!(total > 0.0, "{kind:?} accumulated no gradient");
            // Wildcards never contribute gradient.
            let mut m2 = ColumnMpsn::new(kind, 6, 12, &mut rng);
            m2.accumulate_grad(&[], &grad);
            let mut total2 = 0.0f32;
            m2.visit_params(&mut |p| total2 += p.grad.max_abs());
            assert_eq!(total2, 0.0);
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        // Ground truth for both MLP-cell variants: the vector-sum MLP and
        // the recursive fold (whose gradient also flows back through the
        // cell's input into earlier steps).
        for kind in [MpsnKind::Mlp, MpsnKind::Recursive] {
            let mut rng = seeded_rng(4);
            let mut m = ColumnMpsn::new(kind, 4, 8, &mut rng);
            let preds = vec![pred_vec(4, 0.4), pred_vec(4, 1.1), pred_vec(4, 2.3)];
            // Loss = dot(embed(preds), w) for a fixed w.
            let w: Vec<f32> = vec![0.3, -0.2, 0.5, 0.1];
            m.accumulate_grad(&preds, &w);
            let mut analytic: Vec<Vec<f32>> = Vec::new();
            m.visit_params(&mut |p| analytic.push(p.grad.as_slice().to_vec()));
            let nudge = |m: &mut ColumnMpsn, param: usize, idx: usize, delta: f32| {
                let mut k = 0;
                m.visit_params(&mut |p| {
                    if k == param {
                        p.data.as_mut_slice()[idx] += delta;
                    }
                    k += 1;
                });
            };
            let loss = |m: &ColumnMpsn| -> f32 {
                m.embed(&preds).iter().zip(&w).map(|(a, b)| a * b).sum()
            };
            let eps = 1e-3f32;
            for (param, grads) in analytic.iter().enumerate() {
                let n = grads.len();
                for idx in [0, 1, n / 2, n - 1] {
                    nudge(&mut m, param, idx, eps);
                    let plus = loss(&m);
                    nudge(&mut m, param, idx, -2.0 * eps);
                    let minus = loss(&m);
                    nudge(&mut m, param, idx, eps);
                    let numeric = (plus - minus) / (2.0 * eps);
                    let ga = grads[idx];
                    assert!(
                        (numeric - ga).abs() < 2e-2 * (1.0 + ga.abs()),
                        "{kind:?} param {param}[{idx}]: analytic {ga}, numeric {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_mlp_matches_per_column_embeddings() {
        let widths = vec![7, 5, 9];
        let mpsns = build_mpsns(MpsnKind::Mlp, &widths, 16, 77);
        let merged = MergedMlpMpsn::from_columns(&mpsns);
        let preds_per_col =
            vec![vec![pred_vec(7, 0.2), pred_vec(7, 0.8)], vec![], vec![pred_vec(9, 1.5)]];
        let fused = merged.embed_all(&preds_per_col);
        let mut expected = Vec::new();
        for (m, preds) in mpsns.iter().zip(&preds_per_col) {
            expected.extend(m.embed(preds));
        }
        assert_eq!(fused.len(), expected.len());
        for (a, b) in fused.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4, "merged {a} vs per-column {b}");
        }
    }

    #[test]
    fn build_mpsns_none_is_empty() {
        assert!(build_mpsns(MpsnKind::None, &[4, 4], 8, 1).is_empty());
        assert_eq!(build_mpsns(MpsnKind::Mlp, &[4, 4], 8, 1).len(), 2);
    }
}
