//! Depthwise convolution — the defining operation of MobileNet.

use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::error::Error;
use crate::layer::{check_conv, ExecConfig, Layer, Param, WeightFormat, LAYER_SCHEDULE};
use cnn_stack_tensor::depthwise::MAX_TAPS;
use cnn_stack_tensor::init::{initialise, Init};
use cnn_stack_tensor::{depthwise_conv2d_into, Conv2dGeometry, Tensor};

/// A depthwise 2-D convolution: one `k × k` filter per channel, no
/// cross-channel mixing (MobileNet pairs it with a 1×1 pointwise
/// [`crate::Conv2d`], §IV-A).
///
/// Depthwise layers have very low arithmetic intensity (`k²` MACs per
/// output element versus `in_c · k²` for standard convolution), which is
/// the root of the paper's observation that MobileNet "is the least
/// suitable for parallelisation" (§V-D).
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{DepthwiseConv2d, ExecConfig, Layer, Phase};
/// use cnn_stack_tensor::Tensor;
///
/// let mut dw = DepthwiseConv2d::new(8, 3, 1, 1, 0);
/// let y = dw.forward(&Tensor::zeros([1, 8, 16, 16]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.shape().dims(), &[1, 8, 16, 16]);
/// ```
#[derive(Debug)]
pub struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[channels, 1, k, k]` filters.
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero, or if the filter has more than
    /// [`MAX_TAPS`] taps (`kernel > 32`), more than the inference kernel
    /// runs.
    pub fn new(channels: usize, kernel: usize, stride: usize, padding: usize, seed: u64) -> Self {
        assert!(
            channels > 0 && kernel > 0 && stride > 0,
            "extents must be non-zero"
        );
        assert!(
            kernel * kernel <= MAX_TAPS,
            "a depthwise filter holds at most {MAX_TAPS} taps"
        );
        DepthwiseConv2d {
            channels,
            kernel,
            stride,
            padding,
            weight: Param::new(initialise(
                [channels, 1, kernel, kernel],
                Init::KaimingNormal,
                seed,
            )),
            bias: Param::new(Tensor::zeros([channels])),
            cached_input: None,
        }
    }

    /// Channel count (input == output).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Mutable bias parameter.
    pub fn bias_mut(&mut self) -> &mut Param {
        &mut self.bias
    }

    /// Removes channel `c` (filter + bias). Channel-pruning surgery.
    ///
    /// # Panics
    ///
    /// Panics if out of range or only one channel remains.
    pub fn remove_channel(&mut self, c: usize) {
        assert!(c < self.channels, "channel {c} out of range");
        assert!(self.channels > 1, "cannot remove the last channel");
        let kk = self.kernel * self.kernel;
        let mut w = self.weight.value.data().to_vec();
        w.drain(c * kk..(c + 1) * kk);
        let mut b = self.bias.value.data().to_vec();
        b.remove(c);
        self.channels -= 1;
        self.weight = Param::new(Tensor::from_vec(
            [self.channels, 1, self.kernel, self.kernel],
            w,
        ));
        self.bias = Param::new(Tensor::from_vec([self.channels], b));
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(1, h, w, self.kernel, self.kernel, self.stride, self.padding)
    }
}

impl Layer for DepthwiseConv2d {
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        check_conv(self, input_shape, self.channels, self.kernel, self.padding)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        format!(
            "dwconv{k}x{k}(c={c})/s{s}",
            k = self.kernel,
            c = self.channels,
            s = self.stride
        )
    }

    fn cache_for_backward(&mut self, input: &Tensor) {
        self.cached_input = Some(input.clone());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward without a Train-phase forward");
        let (n, _, h, w) = input.shape().nchw();
        let geom = self.geometry(h, w);
        let plane_in = h * w;
        let plane_out = geom.out_h * geom.out_w;
        let k = self.kernel;
        let kk = k * k;
        let mut grad_input = Tensor::zeros(input.shape().dims().to_vec());
        let wdata = self.weight.value.data().to_vec();
        for img in 0..n {
            for c in 0..self.channels {
                let base_in = (img * self.channels + c) * plane_in;
                let base_out = (img * self.channels + c) * plane_out;
                let x_plane = &input.data()[base_in..base_in + plane_in];
                let dy = &grad_out.data()[base_out..base_out + plane_out];
                // Bias gradient.
                self.bias.grad_mut().data_mut()[c] += dy.iter().sum::<f32>();
                for kh in 0..k {
                    for kw in 0..k {
                        let mut dw = 0.0;
                        for oh in 0..geom.out_h {
                            let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                            if ih < 0 || ih as usize >= h {
                                continue;
                            }
                            for ow in 0..geom.out_w {
                                let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                                if iw < 0 || iw as usize >= w {
                                    continue;
                                }
                                let g = dy[oh * geom.out_w + ow];
                                dw += g * x_plane[ih as usize * w + iw as usize];
                                grad_input.data_mut()[base_in + ih as usize * w + iw as usize] +=
                                    g * wdata[c * kk + kh * k + kw];
                            }
                        }
                        self.weight.grad_mut().data_mut()[c * kk + kh * k + kw] += dw;
                    }
                }
            }
        }
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn replica(&self) -> Box<dyn Layer> {
        // Depthwise filters are `k²` floats per channel — copied, not
        // shared.
        Box::new(DepthwiseConv2d {
            weight: self.weight.clone(),
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
        _scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let (in_c, h, w) = (input_shape[1], input_shape[2], input_shape[3]);
        assert_eq!(in_c, self.channels, "{}: channel mismatch", self.name());
        depthwise_conv2d_into(
            input,
            self.weight.value.data(),
            self.bias.value.data(),
            self.channels,
            &self.geometry(h, w),
            cfg.fused_relu,
            out,
            cfg.threads,
            LAYER_SCHEDULE,
        );
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let n = input_shape[0];
        let (h, w) = (input_shape[2], input_shape[3]);
        let geom = self.geometry(h, w);
        let positions = geom.out_positions();
        let kk = self.kernel * self.kernel;
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::DepthwiseConv {
                geom,
                channels: self.channels,
            },
            macs: (n * self.channels * kk * positions) as u64,
            weight_elems: self.channels * kk,
            weight_nnz: self.weight.value.len() - self.weight.value.count_zeros(0.0),
            format: WeightFormat::Dense,
            input_elems: input_shape.iter().product(),
            output_elems: n * self.channels * positions,
            output_shape: vec![n, self.channels, geom.out_h, geom.out_w],
            scratch_elems: (h + 2 * self.padding) * (w + 2 * self.padding),
            parallel_grains: self.channels,
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
    fn shape_and_stride() {
        let mut dw = DepthwiseConv2d::new(4, 3, 2, 1, 0);
        let y = dw.forward(
            &Tensor::zeros([1, 4, 8, 8]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn matches_grouped_standard_conv() {
        // A depthwise conv equals a standard conv whose cross-channel taps
        // are zero.
        let mut dw = DepthwiseConv2d::new(3, 3, 1, 1, 13);
        let mut full = crate::Conv2d::new(3, 3, 3, 1, 1, 99);
        full.weight_mut().value.fill(0.0);
        for c in 0..3 {
            for t in 0..9 {
                let v = dw.weight.value.data()[c * 9 + t];
                // full weight layout: [o][c][kh][kw]; diagonal o == c.
                full.weight_mut().value.data_mut()[(c * 3 + c) * 9 + t] = v;
            }
        }
        let x = random([2, 3, 6, 6], 7);
        let a = dw.forward(&x, Phase::Eval, &ExecConfig::default());
        let b = full.forward(&x, Phase::Eval, &ExecConfig::default());
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn the_largest_filter_the_kernel_runs_is_accepted() {
        let mut dw = DepthwiseConv2d::new(2, 32, 1, 0, 5);
        let y = dw.forward(
            &Tensor::ones([1, 2, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "at most 1024 taps")]
    fn a_filter_past_the_kernels_taps_is_rejected() {
        DepthwiseConv2d::new(1, 33, 1, 0, 0);
    }

    #[test]
    fn threads_agree_with_serial() {
        let mut dw = DepthwiseConv2d::new(6, 3, 1, 1, 3);
        let x = random([1, 6, 8, 8], 8);
        let serial = dw.forward(&x, Phase::Eval, &ExecConfig::serial());
        let par = dw.forward(&x, Phase::Eval, &ExecConfig::with_threads(4));
        assert!(serial.allclose(&par, 1e-5));
    }

    #[test]
    fn gradient_check() {
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, 21);
        let x = random([1, 2, 4, 4], 9);
        let cfg = ExecConfig::serial();
        let y = dw.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        let dx = dw.backward(&ones);
        let eps = 1e-3;
        // Weight gradient.
        for &i in &[0usize, 8, 12, 17] {
            let orig = dw.weight.value.data()[i];
            dw.weight.value.data_mut()[i] = orig + eps;
            let lp = dw.forward(&x, Phase::Eval, &cfg).sum();
            dw.weight.value.data_mut()[i] = orig - eps;
            let lm = dw.forward(&x, Phase::Eval, &cfg).sum();
            dw.weight.value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.weight.grad().unwrap().data()[i]).abs() < 2e-2,
                "dW[{i}]"
            );
        }
        // Input gradient.
        for &i in &[0usize, 10, 25, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = dw.forward(&xp, Phase::Eval, &cfg).sum();
            let lm = dw.forward(&xm, Phase::Eval, &cfg).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 2e-2, "dX[{i}]");
        }
    }

    #[test]
    fn remove_channel_surgery() {
        let mut dw = DepthwiseConv2d::new(3, 3, 1, 1, 1);
        let before = dw.weight.value.clone();
        dw.remove_channel(0);
        assert_eq!(dw.channels(), 2);
        assert_eq!(dw.weight.value.data()[0], before.data()[9]);
        let y = dw.forward(
            &Tensor::zeros([1, 2, 4, 4]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn descriptor_low_arithmetic_intensity() {
        let dw = DepthwiseConv2d::new(32, 3, 1, 1, 0);
        let pw = crate::Conv2d::new(32, 64, 1, 1, 0, 0);
        let d_dw = dw.descriptor(&[1, 32, 16, 16]);
        let d_pw = pw.descriptor(&[1, 32, 16, 16]);
        // The 1x1 pointwise dominates MACs even though the depthwise has
        // the same spatial extent — MobileNet's signature imbalance.
        assert!(d_pw.macs > d_dw.macs * 3);
    }
}
