//! The ResNet residual block (He et al.), as used by the paper's
//! ResNet-18 (§IV-A): two 3×3 convolutions with batch norm, a skip
//! connection, and an optional 1×1 downsample projection.

use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::error::Error;
use crate::layer::{check_nchw, forward_eval, ExecConfig, Layer, Param, Phase, WeightFormat};
use crate::ReLU;
use cnn_stack_tensor::Tensor;

/// A two-convolution residual block:
/// `y = relu( bn2(conv2( relu(bn1(conv1(x))) )) + shortcut(x) )`.
///
/// When `stride > 1` or the channel count changes, the shortcut is a 1×1
/// strided convolution followed by batch norm (the standard "projection
/// shortcut"); otherwise it is the identity.
///
/// Only the *inner* channel (conv1's output) is prunable without breaking
/// the skip-connection arithmetic — exactly the constraint the paper notes
/// ("only layers between the shortcuts can be pruned", §V-B.2).
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{ExecConfig, Layer, Phase, ResidualBlock};
/// use cnn_stack_tensor::Tensor;
///
/// let mut block = ResidualBlock::new(16, 32, 2, 7);
/// let y = block.forward(&Tensor::zeros([1, 16, 8, 8]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.shape().dims(), &[1, 32, 4, 4]);
/// ```
#[derive(Debug)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    /// Mask of the final ReLU for backward.
    cached_final_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a block mapping `in_channels → out_channels` with the given
    /// stride on the first convolution.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(in_channels: usize, out_channels: usize, stride: usize, seed: u64) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, seed);
        let bn1 = BatchNorm2d::new(out_channels);
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, seed.wrapping_add(1));
        let bn2 = BatchNorm2d::new(out_channels);
        let shortcut = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(
                    in_channels,
                    out_channels,
                    1,
                    stride,
                    0,
                    seed.wrapping_add(2),
                ),
                BatchNorm2d::new(out_channels),
            ))
        } else {
            None
        };
        ResidualBlock {
            conv1,
            bn1,
            relu1: ReLU::new(),
            conv2,
            bn2,
            shortcut,
            cached_final_mask: None,
        }
    }

    /// Every convolution of the block, in [`Layer::visit_mut`] order.
    pub(crate) fn convs(&self) -> impl Iterator<Item = &Conv2d> {
        [&self.conv1, &self.conv2]
            .into_iter()
            .chain(self.shortcut.as_ref().map(|(conv, _)| conv))
    }

    /// [`convs`](Self::convs), each with the shape that reaches it when
    /// the block's input is `input_shape`.
    pub(crate) fn conv_inputs(&self, input_shape: &[usize]) -> Vec<(&Conv2d, Vec<usize>)> {
        let inner = self.conv1.descriptor(input_shape).output_shape;
        let inputs = [input_shape.to_vec(), inner, input_shape.to_vec()];
        self.convs().zip(inputs).collect()
    }

    /// The children that hold parameters, in [`Layer::params`] order.
    fn param_children(&self) -> impl Iterator<Item = &dyn Layer> {
        let shortcut = self.shortcut.iter();
        [&self.conv1 as &dyn Layer, &self.bn1, &self.conv2, &self.bn2]
            .into_iter()
            .chain(shortcut.flat_map(|(conv, bn)| [conv as &dyn Layer, bn]))
    }

    /// The first (prunable) convolution.
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// Mutable first convolution.
    pub fn conv1_mut(&mut self) -> &mut Conv2d {
        &mut self.conv1
    }

    /// The first batch norm (over the prunable inner channel).
    pub fn bn1_mut(&mut self) -> &mut BatchNorm2d {
        &mut self.bn1
    }

    /// The second convolution (its *input* channel is the prunable one).
    pub fn conv2(&self) -> &Conv2d {
        &self.conv2
    }

    /// Mutable second convolution.
    pub fn conv2_mut(&mut self) -> &mut Conv2d {
        &mut self.conv2
    }

    /// Mutable access to the projection-shortcut convolution, if this
    /// block has one.
    pub fn shortcut_conv_mut(&mut self) -> Option<&mut Conv2d> {
        self.shortcut.as_mut().map(|(conv, _)| conv)
    }

    /// Number of prunable inner channels.
    pub fn inner_channels(&self) -> usize {
        self.conv1.out_channels()
    }

    /// Prunes inner channel `c`: removes conv1's output channel, bn1's
    /// channel, and conv2's input channel. The skip path is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or only one inner channel remains.
    pub fn prune_inner_channel(&mut self, c: usize) {
        self.conv1.remove_out_channel(c);
        self.bn1.remove_channel(c);
        self.conv2.remove_in_channel(c);
    }

    /// Folds each of the block's batch norms that is not already an
    /// exact identity into its convolution (inference statistics),
    /// leaving it one. Returns the number folded. See
    /// [`crate::fold::fold_batchnorm`].
    pub fn fold_batchnorm(&mut self) -> usize {
        let mut folded = 0;
        if !self.bn1.is_exact_inference_identity() {
            crate::fold::fold_conv_bn_pair(&mut self.conv1, &mut self.bn1);
            folded += 1;
        }
        if !self.bn2.is_exact_inference_identity() {
            crate::fold::fold_conv_bn_pair(&mut self.conv2, &mut self.bn2);
            folded += 1;
        }
        if let Some((conv, bn)) = &mut self.shortcut {
            if !bn.is_exact_inference_identity() {
                crate::fold::fold_conv_bn_pair(conv, bn);
                folded += 1;
            }
        }
        folded
    }

    /// Applies a weight format to every convolution in the block.
    pub fn set_format(&mut self, format: WeightFormat) {
        self.conv1.set_format(format);
        self.conv2.set_format(format);
        if let Some((conv, _)) = &mut self.shortcut {
            conv.set_format(format);
        }
    }
}

impl Layer for ResidualBlock {
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        check_nchw(self, input_shape, Some(self.conv1.in_channels()))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        format!(
            "resblock({}->{}{})",
            self.conv1.in_channels(),
            self.conv2.out_channels(),
            if self.shortcut.is_some() {
                ", proj"
            } else {
                ""
            }
        )
    }

    /// Under [`Phase::Train`] each child runs its own Train forward, so
    /// it caches for its backward; [`Phase::Eval`] is the provided
    /// wrapper over the fused [`forward_into`](Layer::forward_into).
    fn forward(&mut self, input: &Tensor, phase: Phase, cfg: &ExecConfig) -> Tensor {
        if phase == Phase::Eval {
            return forward_eval(self, input, cfg);
        }
        let mut main = self.conv1.forward(input, phase, cfg);
        main = self.bn1.forward(&main, phase, cfg);
        main = self.relu1.forward(&main, phase, cfg);
        main = self.conv2.forward(&main, phase, cfg);
        main = self.bn2.forward(&main, phase, cfg);
        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input, phase, cfg);
                bn.forward(&s, phase, cfg)
            }
            None => input.clone(),
        };
        let mut out = &main + &skip;
        self.cached_final_mask = Some(out.data().iter().map(|&v| v > 0.0).collect());
        out.map_inplace(|v| v.max(0.0));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .cached_final_mask
            .take()
            .expect("backward without a Train-phase forward");
        let mut g = grad_out.clone();
        for (v, &pass) in g.data_mut().iter_mut().zip(&mask) {
            if !pass {
                *v = 0.0;
            }
        }
        // Main path.
        let mut gm = self.bn2.backward(&g);
        gm = self.conv2.backward(&gm);
        gm = self.relu1.backward(&gm);
        gm = self.bn1.backward(&gm);
        gm = self.conv1.backward(&gm);
        // Skip path.
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = bn.backward(&g);
                conv.backward(&t)
            }
            None => g,
        };
        &gm + &gs
    }

    fn params(&self) -> Vec<&Param> {
        self.param_children().flat_map(|c| c.params()).collect()
    }

    fn num_params(&self) -> usize {
        self.param_children().map(|c| c.num_params()).sum()
    }

    fn first_non_finite_param(&self, scanned: &mut usize) -> Option<(usize, usize)> {
        let start = *scanned;
        self.param_children().find_map(|child| {
            let before = *scanned - start;
            let (p, index) = child.first_non_finite_param(scanned)?;
            Some((before + p, index))
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.conv1.params_mut());
        params.extend(self.bn1.params_mut());
        params.extend(self.conv2.params_mut());
        params.extend(self.bn2.params_mut());
        if let Some((conv, bn)) = &mut self.shortcut {
            params.extend(conv.params_mut());
            params.extend(bn.params_mut());
        }
        params
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let children = self.child_descriptors(input_shape);
        let last = children.last().expect("block has children");
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Composite,
            macs: children.iter().map(|d| d.macs).sum(),
            weight_elems: children.iter().map(|d| d.weight_elems).sum(),
            weight_nnz: children.iter().map(|d| d.weight_nnz).sum(),
            format: self.conv1.format(),
            input_elems: input_shape.iter().product(),
            output_elems: last.output_elems,
            output_shape: last.output_shape.clone(),
            scratch_elems: children.iter().map(|d| d.scratch_elems).max().unwrap_or(0),
            parallel_grains: self.conv1.out_channels(),
        }
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
        self.conv1.visit_mut(f);
        self.bn1.visit_mut(f);
        self.relu1.visit_mut(f);
        self.conv2.visit_mut(f);
        self.bn2.visit_mut(f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_mut(f);
            bn.visit_mut(f);
        }
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(ResidualBlock {
            conv1: self.conv1.replica(),
            bn1: self.bn1.replica(),
            relu1: ReLU::new(),
            conv2: self.conv2.replica(),
            bn2: self.bn2.replica(),
            shortcut: self
                .shortcut
                .as_ref()
                .map(|(conv, bn)| (conv.replica(), bn.replica())),
            cached_final_mask: None,
        })
    }

    fn forward_scratch_elems(&self, input_shape: &[usize], cfg: &ExecConfig) -> usize {
        let convs = self.conv_inputs(input_shape);
        // conv2 reads conv1's output: the main-path buffer.
        let main_elems: usize = convs[1].1.iter().product();
        let skip_elems = match &self.shortcut {
            Some((conv, _)) => conv.descriptor(input_shape).output_elems,
            None => 0,
        };
        let child = convs
            .iter()
            .map(|(conv, shape)| conv.forward_scratch_elems(shape, cfg))
            .max()
            .unwrap_or(0);
        main_elems + skip_elems + child
    }

    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let (n, h, w) = (input_shape[0], input_shape[2], input_shape[3]);
        let geom1 = self.conv1.geometry(h, w);
        let plane1 = geom1.out_h * geom1.out_w;
        let main_elems = n * self.conv1.out_channels() * plane1;
        let shape1 = [n, self.conv1.out_channels(), geom1.out_h, geom1.out_w];
        let geom2 = self.conv2.geometry(geom1.out_h, geom1.out_w);
        let plane2 = geom2.out_h * geom2.out_w;
        let skip_elems = if self.shortcut.is_some() {
            out.len()
        } else {
            0
        };
        // Scratch layout: [conv1 output | skip buffer | child scratch].
        let (buf_a, rest) = scratch.split_at_mut(main_elems);
        let (skip_buf, child_scratch) = rest.split_at_mut(skip_elems);

        // Main path: conv1 -> bn1 -> relu -> conv2 -> bn2 (into `out`).
        self.conv1
            .forward_into(input, input_shape, buf_a, child_scratch, cfg);
        self.bn1.eval_inplace(buf_a, n, plane1);
        for v in buf_a.iter_mut() {
            *v = v.max(0.0);
        }
        self.conv2
            .forward_into(buf_a, &shape1, out, child_scratch, cfg);
        self.bn2.eval_inplace(out, n, plane2);

        // Skip path, then the fused residual add + final ReLU.
        match &self.shortcut {
            Some((conv, bn)) => {
                conv.forward_into(input, input_shape, skip_buf, child_scratch, cfg);
                bn.eval_inplace(skip_buf, n, plane2);
                for (o, &s) in out.iter_mut().zip(skip_buf.iter()) {
                    *o = (*o + s).max(0.0);
                }
            }
            None => {
                for (o, &s) in out.iter_mut().zip(input.iter()) {
                    *o = (*o + s).max(0.0);
                }
            }
        }
    }

    fn child_descriptors(&self, input_shape: &[usize]) -> Vec<LayerDescriptor> {
        let mut out = Vec::new();
        let d1 = self.conv1.descriptor(input_shape);
        let shape1 = d1.output_shape.clone();
        out.push(d1);
        out.push(self.bn1.descriptor(&shape1));
        out.push(self.relu1.descriptor(&shape1));
        let d2 = self.conv2.descriptor(&shape1);
        let shape2 = d2.output_shape.clone();
        out.push(d2);
        out.push(self.bn2.descriptor(&shape2));
        if let Some((conv, bn)) = &self.shortcut {
            let ds = conv.descriptor(input_shape);
            let shapes = ds.output_shape.clone();
            out.push(ds);
            out.push(bn.descriptor(&shapes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn identity_shortcut_shape() {
        let mut b = ResidualBlock::new(8, 8, 1, 0);
        let y = b.forward(
            &Tensor::zeros([1, 8, 8, 8]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 8, 8, 8]);
        assert!(b.shortcut.is_none());
    }

    #[test]
    fn projection_shortcut_shape() {
        let mut b = ResidualBlock::new(8, 16, 2, 0);
        let y = b.forward(
            &Tensor::zeros([1, 8, 8, 8]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 16, 4, 4]);
        assert!(b.shortcut.is_some());
    }

    #[test]
    fn skip_passes_signal_when_main_path_is_zero() {
        let mut b = ResidualBlock::new(4, 4, 1, 0);
        // Zero both conv weights: output = relu(identity(x)).
        b.conv1_mut().weight_mut().value.fill(0.0);
        b.conv2_mut().weight_mut().value.fill(0.0);
        let x = random([1, 4, 5, 5], 1);
        let y = b.forward(&x, Phase::Eval, &ExecConfig::default());
        let want = x.map(|v| v.max(0.0));
        assert!(y.allclose(&want, 1e-5));
    }

    #[test]
    fn threads_agree_with_serial() {
        let mut b = ResidualBlock::new(6, 12, 2, 3);
        let x = random([2, 6, 8, 8], 2);
        let a = b.forward(&x, Phase::Eval, &ExecConfig::serial());
        let c = b.forward(&x, Phase::Eval, &ExecConfig::with_threads(4));
        assert!(a.allclose(&c, 1e-4));
    }

    #[test]
    fn gradient_check_through_block() {
        let mut b = ResidualBlock::new(2, 2, 1, 5);
        let x = random([1, 2, 4, 4], 3);
        let cfg = ExecConfig::serial();
        let y = b.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        let dx = b.backward(&ones);
        let eps = 1e-2;
        for &i in &[0usize, 11, 23, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            // Batch statistics change with the input, so compare against a
            // Train-phase forward (fresh clones keep running stats equal).
            let lp = b.forward(&xp, Phase::Train, &cfg).sum();
            b.cached_final_mask = None;
            let lm = b.forward(&xm, Phase::Train, &cfg).sum();
            b.cached_final_mask = None;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 0.1,
                "dX[{i}]: fd={fd} analytic={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn prune_inner_channel_keeps_shapes_consistent() {
        let mut b = ResidualBlock::new(4, 8, 1, 7);
        assert_eq!(b.inner_channels(), 8);
        b.prune_inner_channel(3);
        b.prune_inner_channel(0);
        assert_eq!(b.inner_channels(), 6);
        // Output channel count is unchanged (skip arithmetic preserved).
        let y = b.forward(
            &Tensor::zeros([1, 4, 6, 6]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 8, 6, 6]);
    }

    #[test]
    fn params_include_shortcut() {
        let mut plain = ResidualBlock::new(4, 4, 1, 0);
        let mut proj = ResidualBlock::new(4, 8, 2, 0);
        assert_eq!(plain.params_mut().len(), 8); // 2 convs + 2 bns, 2 each
        assert_eq!(proj.params_mut().len(), 12);
    }

    #[test]
    fn descriptor_aggregates_children() {
        let b = ResidualBlock::new(4, 8, 2, 0);
        let d = b.descriptor(&[1, 4, 8, 8]);
        let children = b.child_descriptors(&[1, 4, 8, 8]);
        assert_eq!(d.macs, children.iter().map(|c| c.macs).sum::<u64>());
        assert_eq!(d.output_shape, vec![1, 8, 4, 4]);
        assert_eq!(children.len(), 7);
    }
}
