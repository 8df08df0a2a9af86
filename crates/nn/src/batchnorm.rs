//! Batch normalisation over channels (Ioffe & Szegedy), used by ResNet-18
//! and MobileNet (§IV-A).

use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::error::Error;
use crate::layer::{check_nchw, forward_eval, ExecConfig, Layer, Param, Phase, WeightFormat};
use cnn_stack_tensor::Tensor;

/// 2-D batch normalisation: per-channel statistics over `(N, H, W)`.
///
/// Training mode uses batch statistics and maintains exponential running
/// averages; evaluation mode applies the running averages, which is what
/// every inference benchmark in the paper measures.
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{BatchNorm2d, ExecConfig, Layer, Phase};
/// use cnn_stack_tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(8);
/// let y = bn.forward(&Tensor::zeros([2, 8, 4, 4]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.shape().dims(), &[2, 8, 4, 4]);
/// ```
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    /// Scale γ.
    gamma: Param,
    /// Shift β.
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    /// Caches for backward: normalised activations and 1/std per channel.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Option<Vec<f32>>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ=1, β=0, running stats (0, 1).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be non-zero");
        BatchNorm2d {
            channels,
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::new(Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cached_xhat: None,
            cached_inv_std: None,
        }
    }

    /// [`Layer::replica`] at the concrete type (composite layers hold
    /// their batch norms by value). Per-channel state is small: copied.
    pub fn replica(&self) -> BatchNorm2d {
        BatchNorm2d {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            cached_xhat: None,
            cached_inv_std: None,
            ..*self
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The scale parameter γ (per channel). Channel pruning à la
    /// Ye et al. inspects these magnitudes.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// Mutable scale parameter.
    pub fn gamma_mut(&mut self) -> &mut Param {
        &mut self.gamma
    }

    /// The shift parameter β.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    /// Running mean per channel (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance per channel (inference statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Resets the layer to an exact inference-time identity
    /// (γ = 1, β = 0, running mean 0, running variance `1 − eps`), used
    /// after its transform has been folded into the preceding
    /// convolution.
    pub fn reset_to_identity(&mut self) {
        self.gamma = Param::new(Tensor::ones([self.channels]));
        self.beta = Param::new(Tensor::zeros([self.channels]));
        self.running_mean = vec![0.0; self.channels];
        self.running_var = vec![1.0 - self.eps; self.channels];
    }

    /// Whether the inference transform is *exactly* `y = x * 1.0 + 0.0`
    /// for every channel — the bar for folding to leave the layer alone,
    /// for stripping to remove it and for the plan compiler's fusion to
    /// skip it (bit-preserving up to the sign of negative zero). A
    /// *near*-identity (e.g. a freshly initialised layer, whose scale is
    /// `1/sqrt(1 + eps)`) does not pass: skipping it would perturb
    /// outputs.
    pub fn is_exact_inference_identity(&self) -> bool {
        (0..self.channels).all(|ch| {
            let (scale, shift) = self.eval_scale_shift(ch);
            scale == 1.0 && shift == 0.0
        })
    }

    /// Inference-mode scale/shift for channel `ch`, folded from the
    /// running statistics: `y = x * scale + shift`.
    fn eval_scale_shift(&self, ch: usize) -> (f32, f32) {
        let inv_std = 1.0 / (self.running_var[ch] + self.eps).sqrt();
        let mean = self.running_mean[ch];
        let scale = self.gamma.value.data()[ch] * inv_std;
        let shift = self.beta.value.data()[ch] - mean * scale;
        (scale, shift)
    }

    /// Applies the inference-mode transform in place over a `[n, c, h, w]`
    /// activation slice with `plane = h * w`. Shared by
    /// [`Layer::forward_into`] and the residual block's fused path.
    pub(crate) fn eval_inplace(&self, data: &mut [f32], n: usize, plane: usize) {
        let c = self.channels;
        for ch in 0..c {
            let (scale, shift) = self.eval_scale_shift(ch);
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for v in &mut data[base..base + plane] {
                    *v = *v * scale + shift;
                }
            }
        }
    }

    /// Removes channel `c` from all per-channel state. Channel-pruning
    /// surgery.
    ///
    /// # Panics
    ///
    /// Panics if out of range or only one channel remains.
    pub fn remove_channel(&mut self, c: usize) {
        assert!(c < self.channels, "channel {c} out of range");
        assert!(self.channels > 1, "cannot remove the last channel");
        let mut g = self.gamma.value.data().to_vec();
        let mut b = self.beta.value.data().to_vec();
        g.remove(c);
        b.remove(c);
        self.running_mean.remove(c);
        self.running_var.remove(c);
        self.channels -= 1;
        self.gamma = Param::new(Tensor::from_vec([self.channels], g));
        self.beta = Param::new(Tensor::from_vec([self.channels], b));
    }
}

impl Layer for BatchNorm2d {
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        check_nchw(self, input_shape, Some(self.channels))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        format!("batchnorm(c={})", self.channels)
    }

    /// Batch statistics under [`Phase::Train`] (updating the running
    /// averages); [`Phase::Eval`] is the provided wrapper over
    /// [`forward_into`](Layer::forward_into).
    fn forward(&mut self, input: &Tensor, phase: Phase, cfg: &ExecConfig) -> Tensor {
        if phase == Phase::Eval {
            return forward_eval(self, input, cfg);
        }
        let (n, c, h, w) = input.shape().nchw();
        assert_eq!(c, self.channels, "{}: channel mismatch", self.name());
        let plane = h * w;
        let per_channel = n * plane;
        let mut out = input.clone();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let mut xhat = Tensor::zeros(input.shape().dims().to_vec());
        let mut inv_stds = vec![0.0f32; c];
        for ch in 0..c {
            // Batch mean/var over (N, H, W).
            let mut mean = 0.0f64;
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for v in &input.data()[base..base + plane] {
                    mean += *v as f64;
                }
            }
            let mean = (mean / per_channel as f64) as f32;
            let mut var = 0.0f64;
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for v in &input.data()[base..base + plane] {
                    var += ((*v - mean) as f64).powi(2);
                }
            }
            let var = (var / per_channel as f64) as f32;
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ch] = inv_std;
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    let xh = (input.data()[i] - mean) * inv_std;
                    xhat.data_mut()[i] = xh;
                    out.data_mut()[i] = gamma[ch] * xh + beta[ch];
                }
            }
        }
        self.cached_xhat = Some(xhat);
        self.cached_inv_std = Some(inv_stds);
        out
    }

    #[allow(clippy::needless_range_loop)]
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self
            .cached_xhat
            .take()
            .expect("backward without a Train-phase forward");
        let inv_stds = self.cached_inv_std.take().expect("missing inv_std cache");
        let (n, c, h, w) = grad_out.shape().nchw();
        let plane = h * w;
        let m = (n * plane) as f32;
        let mut grad_in = Tensor::zeros(grad_out.shape().dims().to_vec());
        for ch in 0..c {
            let gamma = self.gamma.value.data()[ch];
            // Accumulate dgamma, dbeta and the two reduction terms.
            let mut dgamma = 0.0;
            let mut dbeta = 0.0;
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    dgamma += grad_out.data()[i] * xhat.data()[i];
                    dbeta += grad_out.data()[i];
                }
            }
            self.gamma.grad_mut().data_mut()[ch] += dgamma;
            self.beta.grad_mut().data_mut()[ch] += dbeta;
            // dX = (gamma/std) * (dY - mean(dY) - xhat * mean(dY*xhat)).
            let k = gamma * inv_stds[ch];
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    grad_in.data_mut()[i] =
                        k * (grad_out.data()[i] - dbeta / m - xhat.data()[i] * dgamma / m);
                }
            }
        }
        grad_in
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(BatchNorm2d::replica(self))
    }

    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        _scratch: &mut [f32],
        _cfg: &ExecConfig,
    ) {
        let (n, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        assert_eq!(c, self.channels, "{}: channel mismatch", self.name());
        out.copy_from_slice(input);
        self.eval_inplace(out, n, h * w);
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let elems: usize = input_shape.iter().product();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::BatchNorm {
                channels: self.channels,
            },
            // One multiply + one add per element, counted as one MAC.
            macs: elems as u64,
            weight_elems: 2 * self.channels,
            weight_nnz: 2 * self.channels,
            format: WeightFormat::Dense,
            input_elems: elems,
            output_elems: elems,
            output_shape: input_shape.to_vec(),
            scratch_elems: 0,
            parallel_grains: self.channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-2.0..2.0))
    }

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm2d::new(3);
        let x = random([4, 3, 5, 5], 1);
        let y = bn.forward(&x, Phase::Train, &ExecConfig::default());
        // Per channel: mean ~0, var ~1 (gamma=1, beta=0).
        for ch in 0..3 {
            let mut vals = Vec::new();
            for img in 0..4 {
                let base = (img * 3 + ch) * 25;
                vals.extend_from_slice(&y.data()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "ch {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ch} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(2);
        // Fresh layer: running mean 0, var 1 → eval is identity.
        let x = random([1, 2, 3, 3], 2);
        let y = bn.forward(&x, Phase::Eval, &ExecConfig::default());
        assert!(y.allclose(&x, 1e-4));
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Feed the same shifted batch many times: running mean → 3.
        let x = Tensor::full([8, 1, 4, 4], 3.0);
        for _ in 0..200 {
            let _ = bn.forward(&x, Phase::Train, &ExecConfig::default());
        }
        assert!((bn.running_mean[0] - 3.0).abs() < 1e-3);
        assert!(bn.running_var[0].abs() < 1e-3);
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value.data_mut().copy_from_slice(&[1.3, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.1, -0.2]);
        let x = random([2, 2, 3, 3], 3);
        let cfg = ExecConfig::default();
        // Scalar loss: weighted sum so gradients are non-uniform.
        let weights = random([2, 2, 3, 3], 4);
        let y = bn.forward(&x, Phase::Train, &cfg);
        let loss0: f32 = (&y * &weights).sum();
        let _ = loss0;
        let dx = bn.backward(&weights);
        let eps = 1e-2;
        for &i in &[0usize, 9, 20, 35] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut bn_p = BatchNorm2d::new(2);
            bn_p.gamma.value.data_mut().copy_from_slice(&[1.3, 0.7]);
            bn_p.beta.value.data_mut().copy_from_slice(&[0.1, -0.2]);
            let lp: f32 = (&bn_p.forward(&xp, Phase::Train, &cfg) * &weights).sum();
            let lm: f32 = (&bn_p.forward(&xm, Phase::Train, &cfg) * &weights).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 3e-2,
                "dX[{i}]: fd={fd} analytic={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm2d::new(1);
        let x = random([2, 1, 2, 2], 5);
        let y = bn.forward(&x, Phase::Train, &ExecConfig::default());
        let ones = Tensor::ones(y.shape().dims().to_vec());
        bn.backward(&ones);
        // dbeta = sum(dY) = 8; dgamma = sum(xhat) ≈ 0 for ones upstream.
        assert!((bn.beta.grad().unwrap().data()[0] - 8.0).abs() < 1e-4);
        assert!(bn.gamma.grad().unwrap().data()[0].abs() < 1e-3);
    }

    #[test]
    fn remove_channel_surgery() {
        let mut bn = BatchNorm2d::new(3);
        bn.gamma.value.data_mut().copy_from_slice(&[1.0, 2.0, 3.0]);
        bn.remove_channel(1);
        assert_eq!(bn.channels(), 2);
        assert_eq!(bn.gamma.value.data(), &[1.0, 3.0]);
        let y = bn.forward(
            &Tensor::zeros([1, 2, 2, 2]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
    }

    #[test]
    fn descriptor() {
        let bn = BatchNorm2d::new(16);
        let d = bn.descriptor(&[1, 16, 8, 8]);
        assert_eq!(d.macs, 16 * 64);
        assert_eq!(d.weight_elems, 32);
    }
}
