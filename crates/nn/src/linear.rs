//! Fully connected (dense) layer.

use crate::algo::{self, AlgoChoice, LayerShape};
use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::error::Error;
use crate::layer::{refuse_input, ExecConfig, Layer, Param, WeightFormat, LAYER_SCHEDULE};
use crate::weights::Weights;
use cnn_stack_parallel::parallel_for;
use cnn_stack_parallel::DisjointWriter;
use cnn_stack_tensor::init::{initialise, Init};
use cnn_stack_tensor::{gemm, ops, GemmPlan, PackedA, Tensor};

/// A fully connected layer `y = x · Wᵀ + b` over `[batch, in]` inputs.
///
/// Like [`crate::Conv2d`], the dense master weights carry a storage
/// format label, and the CSR / packed-panel / code forms derived from
/// them are built on first use and dropped by every route that can
/// change the master. The packed rows compute `yᵀ = W · xᵀ` with the
/// weights as the MR-row A operand, exactly as a convolution's are:
/// `gemm-packed` and `gemm-ternary` run one product and differ only in
/// whether that operand holds f32 panels or 2-bit codes. The scalar and
/// CSR rows' parallel grain is the output feature.
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{ExecConfig, Layer, Linear, Phase};
/// use cnn_stack_tensor::Tensor;
///
/// let mut fc = Linear::new(512, 10, 0);
/// let y = fc.forward(&Tensor::zeros([4, 512]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.shape().dims(), &[4, 10]);
/// ```
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// `[out, in]` weight matrix and its derived storage forms.
    weights: Weights,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "feature counts must be non-zero"
        );
        Linear {
            in_features,
            out_features,
            weights: Weights::new(Param::new(initialise(
                [out_features, in_features],
                Init::XavierUniform,
                seed,
            ))),
            bias: Param::new(Tensor::zeros([out_features])),
            cached_input: None,
        }
    }

    /// The weights with their derived forms and cached facts (the plan
    /// compiler reads the non-zero count and ternarity through this).
    pub(crate) fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Mutable [`weights`](Self::weights), for relabelling.
    pub(crate) fn weights_mut(&mut self) -> &mut Weights {
        &mut self.weights
    }

    /// The kernel this layer runs under `cfg` (see [`algo::resolve`]).
    pub fn runs(&self, cfg: &ExecConfig) -> AlgoChoice {
        algo::resolve(LayerShape::Linear, self.format(), cfg, || {
            self.weights.ternary_magnitudes().is_some()
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        self.weights.master()
    }

    /// Mutable weight parameter. Drops every derived storage form; the
    /// next evaluation rebuilds the one it reads from the new weights.
    pub fn weight_mut(&mut self) -> &mut Param {
        self.weights.master_mut()
    }

    /// The bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Current inference weight format.
    pub fn format(&self) -> WeightFormat {
        self.weights.format()
    }

    /// Selects the inference weight format. The label is durable: the
    /// matching storage form — CSR, or 2-bit codes for `Ternary` (only
    /// when the weights are *exactly* ternary) — is derived from the
    /// current master on first use and re-derived after any weight
    /// change.
    pub fn set_format(&mut self, format: WeightFormat) {
        self.weights.set_format(format);
    }

    /// Blocking plan of the packed product `Outᵀ[out×batch] =
    /// W[out×in] · Xᵀ[in×batch]`: the weights are the A operand.
    fn plan(&self, batch: usize) -> GemmPlan {
        GemmPlan::new(self.out_features, self.in_features, batch)
    }

    /// Workspace of [`eval_packed_into`](Self::eval_packed_into): `Xᵀ`'s
    /// B panels and the `[out × batch]` product.
    fn packed_scratch_elems(&self, batch: usize) -> usize {
        self.plan(batch).packed_b_elems() + self.out_features * batch
    }

    /// Packed kernel: `Outᵀ = W · Xᵀ` with the weights — f32 panels or
    /// 2-bit codes — as A and the activations packed into B panels
    /// (`X`'s rows are `Xᵀ`'s columns), bias-prefilled, then transposed
    /// into the `[batch × out]` output.
    fn eval_packed_into(
        &self,
        weights: PackedA<'_>,
        in_data: &[f32],
        batch: usize,
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let plan = self.plan(batch);
        let (b_buf, c_buf) =
            scratch[..self.packed_scratch_elems(batch)].split_at_mut(plan.packed_b_elems());
        gemm::pack_b_transposed_into(&plan, in_data, b_buf);
        for (row, &b) in c_buf.chunks_exact_mut(batch).zip(self.bias.value.data()) {
            row.fill(b);
        }
        gemm::gemm_prepacked_epilogue(
            &plan,
            weights,
            b_buf,
            c_buf,
            cfg.threads,
            LAYER_SCHEDULE,
            cfg.epilogue(),
        );
        for (b, row) in out.chunks_exact_mut(self.out_features).enumerate() {
            for (o, v) in row.iter_mut().enumerate() {
                *v = c_buf[o * batch + b];
            }
        }
    }

    /// CSR kernel: `out = in · Wᵀ + b` over the stored non-zeros.
    fn eval_csr_into(&self, in_data: &[f32], batch: usize, out: &mut [f32], cfg: &ExecConfig) {
        let feat = self.in_features;
        let bdata = self.bias.value.data();
        let out_f = self.out_features;
        let writer = DisjointWriter::new(out);
        let writer = &writer;
        let csr = self.weights.csr();
        parallel_for(cfg.threads, out_f, LAYER_SCHEDULE, |range| {
            for o in range {
                let (idx, val) = csr.row(o);
                for b in 0..batch {
                    let x = &in_data[b * feat..(b + 1) * feat];
                    let mut acc = bdata[o];
                    for (&c, &v) in idx.iter().zip(val) {
                        acc += v * x[c as usize];
                    }
                    if cfg.fused_relu {
                        acc = acc.max(0.0);
                    }
                    // SAFETY: element (b, o) is owned by grain o.
                    unsafe {
                        writer.slice_mut(b * out_f + o, b * out_f + o + 1)[0] = acc;
                    }
                }
            }
        });
    }

    /// Scalar dense kernel: one row loop per output feature over the
    /// master weights (the linear ladder's floor).
    fn eval_scalar_into(&self, in_data: &[f32], batch: usize, out: &mut [f32], cfg: &ExecConfig) {
        let feat = self.in_features;
        let bdata = self.bias.value.data();
        let out_f = self.out_features;
        let writer = DisjointWriter::new(out);
        let writer = &writer;
        let wdata = self.weight().value.data();
        parallel_for(cfg.threads, out_f, LAYER_SCHEDULE, |range| {
            for o in range {
                let w_row = &wdata[o * feat..(o + 1) * feat];
                for b in 0..batch {
                    let x = &in_data[b * feat..(b + 1) * feat];
                    let mut acc = bdata[o];
                    for (wv, xv) in w_row.iter().zip(x) {
                        acc += wv * xv;
                    }
                    if cfg.fused_relu {
                        acc = acc.max(0.0);
                    }
                    // SAFETY: element (b, o) is owned by grain o.
                    unsafe {
                        writer.slice_mut(b * out_f + o, b * out_f + o + 1)[0] = acc;
                    }
                }
            }
        });
    }

    /// Removes a contiguous block of input features (used when channel
    /// pruning deletes a channel feeding the flattened classifier input).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or would empty the layer.
    pub fn remove_in_features(&mut self, start: usize, len: usize) {
        assert!(
            start + len <= self.in_features,
            "feature range out of bounds"
        );
        assert!(len < self.in_features, "cannot remove every input feature");
        let old_in = self.in_features;
        let src = self.weight().value.data();
        let mut w = Vec::with_capacity(self.out_features * (old_in - len));
        for o in 0..self.out_features {
            let row = &src[o * old_in..(o + 1) * old_in];
            w.extend_from_slice(&row[..start]);
            w.extend_from_slice(&row[start + len..]);
        }
        self.in_features -= len;
        self.weights
            .replace(Tensor::from_vec([self.out_features, self.in_features], w));
    }
}

impl Layer for Linear {
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        if input_shape.len() < 2 {
            refuse_input(self, input_shape, "a rank-2 input")
        } else if input_shape[1..].iter().product::<usize>() != self.in_features {
            let need = format_args!("{} input features", self.in_features);
            refuse_input(self, input_shape, need)
        } else {
            Ok(())
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        format!("linear({}->{})", self.in_features, self.out_features)
    }

    fn cache_for_backward(&mut self, input: &Tensor) {
        self.cached_input = Some(input.clone());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward without a Train-phase forward");
        let (batch, _) = input.shape().matrix();
        // dW += dYᵀ · X ; db += colsum(dY) ; dX = dY · W.
        let dy_t = ops::transpose(grad_out);
        let dw = cnn_stack_tensor::matmul(&dy_t, &input);
        self.weights.master_mut().grad_mut().axpy(1.0, &dw);
        for b in 0..batch {
            for o in 0..self.out_features {
                self.bias.grad_mut().data_mut()[o] += grad_out.data()[b * self.out_features + o];
            }
        }
        cnn_stack_tensor::matmul(grad_out, &self.weight().value)
    }

    fn params(&self) -> Vec<&Param> {
        vec![self.weights.master(), &self.bias]
    }

    fn num_params(&self) -> usize {
        self.weights.elems() + self.bias.value.len()
    }

    fn first_non_finite_param(&self, scanned: &mut usize) -> Option<(usize, usize)> {
        self.weights.first_non_finite_param(&self.bias, scanned)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.weights.master_mut(), &mut self.bias]
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn forward_scratch_elems(&self, input_shape: &[usize], cfg: &ExecConfig) -> usize {
        use AlgoChoice as K;
        // The activation panels and product of the packed rows; the
        // weights are a derived form the layer holds itself. Answered
        // from (label, cfg) alone, no weight is scanned: the code row
        // and the f32 row it falls back to need the same workspace.
        match algo::resolve(LayerShape::Linear, self.format(), cfg, || true) {
            K::PackedLinear | K::TernaryLinear => self.packed_scratch_elems(input_shape[0]),
            K::ScalarLinear | K::CsrLinear => 0,
            algo::conv_rows!() => unreachable!("a linear layer resolves to a linear row"),
        }
    }

    fn prepare(&mut self, cfg: &ExecConfig) -> bool {
        let keep = self.runs(cfg).form();
        self.weights.prepare(keep)
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            weights: self.weights.replica(),
            bias: self.bias.clone(),
            cached_input: None,
            ..*self
        })
    }

    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let batch = input_shape[0];
        assert_eq!(
            input_shape[1..].iter().product::<usize>(),
            self.in_features,
            "{}: feature mismatch",
            self.name()
        );
        use AlgoChoice as K;
        match self.runs(cfg) {
            K::PackedLinear => {
                let panels = PackedA::F32(self.weights.panels());
                self.eval_packed_into(panels, input, batch, out, scratch, cfg)
            }
            K::TernaryLinear => {
                let codes = self
                    .weights
                    .codes()
                    .expect("resolve checked the label and the weight values");
                self.eval_packed_into(PackedA::Codes(codes), input, batch, out, scratch, cfg)
            }
            K::ScalarLinear => self.eval_scalar_into(input, batch, out, cfg),
            K::CsrLinear => self.eval_csr_into(input, batch, out, cfg),
            algo::conv_rows!() => unreachable!("a linear layer resolves to a linear row"),
        }
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let batch = input_shape[0];
        let weight_elems = self.in_features * self.out_features;
        let weight_nnz = self.weights.nnz();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Linear {
                in_features: self.in_features,
                out_features: self.out_features,
            },
            macs: (batch * weight_elems) as u64,
            weight_elems,
            weight_nnz,
            format: self.format(),
            input_elems: batch * self.in_features,
            output_elems: batch * self.out_features,
            output_shape: vec![batch, self.out_features],
            scratch_elems: 0,
            parallel_grains: self.out_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_matches_matmul() {
        let mut fc = Linear::new(6, 4, 1);
        let x = random([3, 6], 2);
        let y = fc.forward(&x, Phase::Eval, &ExecConfig::default());
        let want = cnn_stack_tensor::matmul(&x, &ops::transpose(&fc.weight().value));
        assert!(y.allclose(&want, 1e-5)); // bias is zero at init
    }

    #[test]
    fn packed_and_blocked_gemm_agree() {
        let mut fc = Linear::new(19, 7, 9);
        let x = random([4, 19], 10);
        let packed = fc.forward(&x, Phase::Eval, &ExecConfig::serial());
        let blocked_cfg = ExecConfig {
            gemm_algo: cnn_stack_tensor::GemmAlgorithm::Blocked,
            ..ExecConfig::serial()
        };
        let blocked = fc.forward(&x, Phase::Eval, &blocked_cfg);
        assert!(packed.allclose(&blocked, 1e-5));
    }

    #[test]
    fn prepared_panels_bit_match_cacheless_run() {
        let mut fc = Linear::new(13, 5, 8);
        let x = random([3, 13], 9);
        let cfg = ExecConfig::serial();
        let cacheless = fc.forward(&x, Phase::Eval, &cfg);
        assert!(fc.weights.is_cold(), "one-shot forward keeps nothing");
        fc.prepare(&cfg);
        assert!(!fc.weights.is_cold());
        let shape = [3, 13];
        let mut out = vec![0.0f32; cacheless.len()];
        let mut scratch = vec![0.0f32; fc.forward_scratch_elems(&shape, &cfg)];
        fc.forward_into(x.data(), &shape, &mut out, &mut scratch, &cfg);
        // Same plan, same kernel, same panel layout -> bit-identical.
        assert_eq!(out.as_slice(), cacheless.data());
        // Touching the weights drops the panels.
        let _ = fc.weight_mut();
        assert!(fc.weights.is_cold());
    }

    #[test]
    fn bias_is_added() {
        let mut fc = Linear::new(2, 2, 1);
        fc.weight_mut().value.fill(0.0);
        fc.bias.value.data_mut().copy_from_slice(&[1.5, -2.5]);
        let y = fc.forward(&Tensor::ones([1, 2]), Phase::Eval, &ExecConfig::default());
        assert_eq!(y.data(), &[1.5, -2.5]);
    }

    #[test]
    fn sparse_and_parallel_paths_agree() {
        let mut fc = Linear::new(16, 8, 3);
        // Plant zeros so CSR differs structurally.
        for i in (0..fc.weight().value.len()).step_by(3) {
            fc.weight_mut().value.data_mut()[i] = 0.0;
        }
        let x = random([5, 16], 4);
        let dense = fc.forward(&x, Phase::Eval, &ExecConfig::serial());
        let dense_par = fc.forward(&x, Phase::Eval, &ExecConfig::with_threads(4));
        fc.set_format(WeightFormat::Csr);
        let sparse = fc.forward(&x, Phase::Eval, &ExecConfig::serial());
        let sparse_par = fc.forward(&x, Phase::Eval, &ExecConfig::with_threads(3));
        assert!(dense.allclose(&dense_par, 1e-5));
        assert!(dense.allclose(&sparse, 1e-5));
        assert!(dense.allclose(&sparse_par, 1e-5));
    }

    #[test]
    fn gradient_check() {
        let mut fc = Linear::new(4, 3, 5);
        let x = random([2, 4], 6);
        let cfg = ExecConfig::serial();
        let y = fc.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        let dx = fc.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 5, 11] {
            let orig = fc.weight().value.data()[i];
            fc.weight_mut().value.data_mut()[i] = orig + eps;
            let lp = fc.forward(&x, Phase::Eval, &cfg).sum();
            fc.weight_mut().value.data_mut()[i] = orig - eps;
            let lm = fc.forward(&x, Phase::Eval, &cfg).sum();
            fc.weight_mut().value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - fc.weight().grad().unwrap().data()[i]).abs() < 1e-2,
                "dW[{i}]"
            );
        }
        for &i in &[0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = fc.forward(&xp, Phase::Eval, &cfg).sum();
            let lm = fc.forward(&xm, Phase::Eval, &cfg).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "dX[{i}]");
        }
        // Bias gradient: batch size.
        assert!((fc.bias.grad().unwrap().data()[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn remove_in_features_block() {
        let mut fc = Linear::new(6, 2, 7);
        let before = fc.weight().value.clone();
        fc.remove_in_features(2, 2);
        assert_eq!(fc.in_features(), 4);
        for o in 0..2 {
            assert_eq!(fc.weight().value.data()[o * 4], before.data()[o * 6]);
            assert_eq!(
                fc.weight().value.data()[o * 4 + 2],
                before.data()[o * 6 + 4]
            );
        }
    }

    #[test]
    fn descriptor_macs() {
        let fc = Linear::new(512, 10, 0);
        let d = fc.descriptor(&[8, 512]);
        assert_eq!(d.macs, 8 * 512 * 10);
        assert_eq!(d.parallel_grains, 10);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn wrong_input_width_rejected() {
        let mut fc = Linear::new(4, 2, 0);
        let _ = fc.forward(&Tensor::zeros([1, 5]), Phase::Eval, &ExecConfig::default());
    }
}
