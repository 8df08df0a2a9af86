//! Channel-pruning plans: which channels of a network are structurally
//! removable, and what surgery removing one entails.

use cnn_stack_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Error, Layer, Linear, Network, Param, ResidualBlock,
};

/// One group of jointly prunable channels and its consumers.
///
/// A "group" is a producer convolution whose output channels can be
/// removed; the variants encode everything downstream that must shrink in
/// lock-step so the network stays shape-consistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneGroup {
    /// `conv → bn → … → next_conv` (the VGG pattern).
    ConvToConv {
        /// Producer `Conv2d` layer index in the [`Network`].
        conv: usize,
        /// Its `BatchNorm2d` index (saliency source).
        bn: usize,
        /// Consumer `Conv2d` whose input channel is removed.
        next_conv: usize,
    },
    /// `conv → bn → … → dw → dw_bn → … → next_conv` (the MobileNet
    /// pattern: a depthwise stage sits between producer and the next
    /// pointwise convolution and must lose the same channel).
    ConvToDepthwise {
        /// Producer `Conv2d` index.
        conv: usize,
        /// Producer's `BatchNorm2d` index.
        bn: usize,
        /// Intermediate `DepthwiseConv2d` index.
        dw: usize,
        /// Depthwise stage's `BatchNorm2d` index.
        dw_bn: usize,
        /// Consumer pointwise `Conv2d` index.
        next_conv: usize,
    },
    /// `conv → bn → … → (flatten/GAP) → linear` (the final feature
    /// convolution feeding the classifier). `positions` is the number of
    /// flattened features each channel contributes (spatial extent at the
    /// flatten point; 1 after global average pooling).
    ConvToLinear {
        /// Producer `Conv2d` index.
        conv: usize,
        /// Producer's `BatchNorm2d` index.
        bn: usize,
        /// Consumer `Linear` index.
        linear: usize,
        /// Flattened features per channel.
        positions: usize,
    },
    /// The inner channel of a residual block — the only channel ResNet can
    /// prune without breaking the shortcut (§V-B.2).
    ResidualInner {
        /// `ResidualBlock` layer index.
        block: usize,
    },
}

/// The complete channel-pruning plan for a model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PruningPlan {
    groups: Vec<PruneGroup>,
}

impl PruningPlan {
    /// Creates a plan from an ordered group list.
    pub fn new(groups: Vec<PruneGroup>) -> Self {
        PruningPlan { groups }
    }

    /// The groups.
    pub fn groups(&self) -> &[PruneGroup] {
        &self.groups
    }

    /// Number of prunable groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`, or [`Error::IndexOutOfRange`] past the end.
    fn group(&self, g: usize) -> Result<PruneGroup, Error> {
        self.groups.get(g).copied().ok_or(Error::IndexOutOfRange {
            index: g,
            len: self.groups.len(),
        })
    }

    /// Channels currently alive in group `g`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] if `g` is out of range, or
    /// [`Error::InvalidConfig`] if the plan does not match the network's
    /// layer types.
    pub fn try_channels(&self, net: &Network, g: usize) -> Result<usize, Error> {
        Ok(match self.group(g)? {
            PruneGroup::ConvToConv { conv, .. }
            | PruneGroup::ConvToDepthwise { conv, .. }
            | PruneGroup::ConvToLinear { conv, .. } => try_conv(net, conv)?.out_channels(),
            PruneGroup::ResidualInner { block } => try_block(net, block)?.inner_channels(),
        })
    }

    /// Channels currently alive in group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range or the plan does not match the
    /// network's layer types; [`try_channels`](Self::try_channels) is the
    /// fallible equivalent.
    pub fn channels(&self, net: &Network, g: usize) -> usize {
        self.try_channels(net, g)
            .expect("pruning plan matches the network")
    }

    /// Total prunable channels across all groups.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the plan does not match the
    /// network's layer types.
    pub fn try_total_channels(&self, net: &Network) -> Result<usize, Error> {
        let mut total = 0;
        for g in 0..self.group_count() {
            total += self.try_channels(net, g)?;
        }
        Ok(total)
    }

    /// Total prunable channels across all groups (panicking shim over
    /// [`try_total_channels`](Self::try_total_channels)).
    pub fn total_channels(&self, net: &Network) -> usize {
        self.try_total_channels(net)
            .expect("pruning plan matches the network")
    }

    /// Whether group `g` can still lose a channel (surgery requires at
    /// least two alive).
    ///
    /// # Errors
    ///
    /// Same conditions as [`try_channels`](Self::try_channels).
    pub fn try_can_prune(&self, net: &Network, g: usize) -> Result<bool, Error> {
        Ok(self.try_channels(net, g)? > 1)
    }

    /// Whether group `g` can still lose a channel (panicking shim over
    /// [`try_can_prune`](Self::try_can_prune)).
    pub fn can_prune(&self, net: &Network, g: usize) -> bool {
        self.try_can_prune(net, g)
            .expect("pruning plan matches the network")
    }

    /// Removes channel `c` of group `g`, performing all consumer surgery.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] if `g` is out of range,
    /// [`Error::InvalidConfig`] if `c` is out of range, the group has
    /// only one channel left, or the plan does not match the network's
    /// layer types. The network is unmodified on error.
    pub fn try_prune(&self, net: &mut Network, g: usize, c: usize) -> Result<(), Error> {
        let alive = self.try_channels(net, g)?;
        if alive <= 1 {
            return Err(Error::InvalidConfig(format!(
                "group {g} has only one channel left; it cannot be pruned"
            )));
        }
        if c >= alive {
            return Err(Error::InvalidConfig(format!(
                "channel {c} out of range for group {g} with {alive} channels"
            )));
        }
        match self.group(g)? {
            PruneGroup::ConvToConv {
                conv,
                bn,
                next_conv,
            } => {
                // Validate every consumer downcast before any surgery so
                // a mismatched plan cannot leave the network half-pruned.
                try_bn(net, bn)?;
                try_conv(net, next_conv)?;
                try_conv_mut(net, conv)?.remove_out_channel(c);
                try_bn_mut(net, bn)?.remove_channel(c);
                try_conv_mut(net, next_conv)?.remove_in_channel(c);
            }
            PruneGroup::ConvToDepthwise {
                conv,
                bn,
                dw,
                dw_bn,
                next_conv,
            } => {
                try_bn(net, bn)?;
                try_dw(net, dw)?;
                try_bn(net, dw_bn)?;
                try_conv(net, next_conv)?;
                try_conv_mut(net, conv)?.remove_out_channel(c);
                try_bn_mut(net, bn)?.remove_channel(c);
                try_dw_mut(net, dw)?.remove_channel(c);
                try_bn_mut(net, dw_bn)?.remove_channel(c);
                try_conv_mut(net, next_conv)?.remove_in_channel(c);
            }
            PruneGroup::ConvToLinear {
                conv,
                bn,
                linear,
                positions,
            } => {
                try_bn(net, bn)?;
                try_linear(net, linear)?;
                try_conv_mut(net, conv)?.remove_out_channel(c);
                try_bn_mut(net, bn)?.remove_channel(c);
                try_linear_mut(net, linear)?.remove_in_features(c * positions, positions);
            }
            PruneGroup::ResidualInner { block } => {
                try_block_mut(net, block)?.prune_inner_channel(c);
            }
        }
        Ok(())
    }

    /// Removes channel `c` of group `g` (panicking shim over
    /// [`try_prune`](Self::try_prune)).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, the group has only one channel
    /// left, or the plan does not match the network.
    pub fn prune(&self, net: &mut Network, g: usize, c: usize) {
        self.try_prune(net, g, c)
            .expect("pruning plan matches the network");
    }

    /// Per-channel batch-norm scale gradients (`dL/dγ_c`) for group `g` —
    /// the signal Fisher pruning squares and accumulates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] if `g` is out of range, or
    /// [`Error::InvalidConfig`] if layer types do not match.
    pub fn try_gamma_grad(&self, net: &mut Network, g: usize) -> Result<Vec<f32>, Error> {
        Ok(match self.group(g)? {
            PruneGroup::ConvToConv { bn, .. }
            | PruneGroup::ConvToDepthwise { bn, .. }
            | PruneGroup::ConvToLinear { bn, .. } => gamma_grad(try_bn_mut(net, bn)?.gamma()),
            PruneGroup::ResidualInner { block } => {
                gamma_grad(try_block_mut(net, block)?.bn1_mut().gamma())
            }
        })
    }

    /// Per-channel batch-norm scale gradients (panicking shim over
    /// [`try_gamma_grad`](Self::try_gamma_grad)).
    pub fn gamma_grad(&self, net: &mut Network, g: usize) -> Vec<f32> {
        self.try_gamma_grad(net, g)
            .expect("pruning plan matches the network")
    }

    /// Marginal dense FLOPs (MACs) saved by removing one channel of each
    /// group, at a given network input shape. This is the paper's FLOP
    /// penalty term ("a penalty is placed on each channel scaled by the
    /// number of floating point operations it requires", §V-B.2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] or [`Error::InvalidConfig`] if
    /// the plan does not match the network.
    pub fn try_flops_per_channel(
        &self,
        net: &Network,
        input_shape: &[usize],
    ) -> Result<Vec<u64>, Error> {
        // Walk top-level layer input shapes.
        let mut shapes = Vec::with_capacity(net.len() + 1);
        let mut shape = input_shape.to_vec();
        for i in 0..net.len() {
            shapes.push(shape.clone());
            shape = net.layer(i)?.descriptor(&shape).output_shape;
        }
        shapes.push(shape);

        let mut flops = Vec::with_capacity(self.groups.len());
        for group in &self.groups {
            flops.push(match *group {
                PruneGroup::ConvToConv {
                    conv, next_conv, ..
                } => {
                    let d1 = net.layer(conv)?.descriptor(&shapes[conv]);
                    let d2 = net.layer(next_conv)?.descriptor(&shapes[next_conv]);
                    let out_c = try_conv(net, conv)?.out_channels() as u64;
                    let in_c = try_conv(net, next_conv)?.in_channels() as u64;
                    d1.macs / out_c + d2.macs / in_c
                }
                PruneGroup::ConvToDepthwise {
                    conv,
                    dw,
                    next_conv,
                    ..
                } => {
                    let d1 = net.layer(conv)?.descriptor(&shapes[conv]);
                    let ddw = net.layer(dw)?.descriptor(&shapes[dw]);
                    let d2 = net.layer(next_conv)?.descriptor(&shapes[next_conv]);
                    let out_c = try_conv(net, conv)?.out_channels() as u64;
                    let dw_c = try_dw(net, dw)?.channels() as u64;
                    let in_c = try_conv(net, next_conv)?.in_channels() as u64;
                    d1.macs / out_c + ddw.macs / dw_c + d2.macs / in_c
                }
                PruneGroup::ConvToLinear {
                    conv,
                    linear,
                    positions,
                    ..
                } => {
                    let d1 = net.layer(conv)?.descriptor(&shapes[conv]);
                    let out_c = try_conv(net, conv)?.out_channels() as u64;
                    let fc = try_linear(net, linear)?;
                    d1.macs / out_c + (positions * fc.out_features()) as u64
                }
                PruneGroup::ResidualInner { block } => {
                    let b = try_block(net, block)?;
                    let d1 = b.conv1().descriptor(&shapes[block]);
                    let shape_mid = d1.output_shape.clone();
                    let d2 = b.conv2().descriptor(&shape_mid);
                    d1.macs / b.conv1().out_channels() as u64
                        + d2.macs / b.conv2().in_channels() as u64
                }
            });
        }
        Ok(flops)
    }

    /// Marginal dense FLOPs per channel (panicking shim over
    /// [`try_flops_per_channel`](Self::try_flops_per_channel)).
    pub fn flops_per_channel(&self, net: &Network, input_shape: &[usize]) -> Vec<u64> {
        self.try_flops_per_channel(net, input_shape)
            .expect("pruning plan matches the network")
    }
}

/// Generates the fallible shared/mutable downcast helper pair used by the
/// plan. Out-of-range indices surface as [`Error::IndexOutOfRange`] (from
/// `Network::layer`/`layer_mut`), mismatched layer types as
/// [`Error::InvalidConfig`].
macro_rules! try_downcast {
    ($shared:ident, $muta:ident, $ty:ty, $what:literal) => {
        fn $shared(net: &Network, idx: usize) -> Result<&$ty, Error> {
            net.layer(idx)?
                .as_any()
                .downcast_ref::<$ty>()
                .ok_or_else(|| {
                    Error::InvalidConfig(format!(concat!("layer {} is not a ", $what), idx))
                })
        }

        fn $muta(net: &mut Network, idx: usize) -> Result<&mut $ty, Error> {
            net.layer_mut(idx)?
                .as_any_mut()
                .downcast_mut::<$ty>()
                .ok_or_else(|| {
                    Error::InvalidConfig(format!(concat!("layer {} is not a ", $what), idx))
                })
        }
    };
}

try_downcast!(try_conv, try_conv_mut, Conv2d, "Conv2d");
try_downcast!(try_bn, try_bn_mut, BatchNorm2d, "BatchNorm2d");
try_downcast!(try_dw, try_dw_mut, DepthwiseConv2d, "DepthwiseConv2d");
try_downcast!(try_linear, try_linear_mut, Linear, "Linear");
try_downcast!(try_block, try_block_mut, ResidualBlock, "ResidualBlock");

/// A batch norm's `dL/dγ` per channel; zeros before any backward pass
/// has written a gradient.
fn gamma_grad(gamma: &Param) -> Vec<f32> {
    gamma
        .grad()
        .map_or_else(|| vec![0.0; gamma.value.len()], |g| g.data().to_vec())
}

#[cfg(test)]
mod tests {
    use cnn_stack_nn::{ExecConfig, Phase};
    use cnn_stack_tensor::Tensor;

    #[test]
    fn vgg_style_prune_keeps_network_runnable() {
        let mut model = crate::vgg16_width(10, 0.1);
        let g = 0;
        let before = model.plan.channels(&model.network, g);
        model.plan.prune(&mut model.network, g, 0);
        assert_eq!(model.plan.channels(&model.network, g), before - 1);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn mobilenet_prune_keeps_network_runnable() {
        let mut model = crate::mobilenet_width(10, 0.1);
        for g in 0..model.plan.group_count() {
            if model.plan.can_prune(&model.network, g) {
                model.plan.prune(&mut model.network, g, 0);
            }
        }
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn resnet_prune_keeps_network_runnable() {
        let mut model = crate::resnet18_width(10, 0.1);
        let g = model.plan.group_count() - 1;
        model.plan.prune(&mut model.network, g, 1);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn pruning_reduces_macs() {
        let mut model = crate::vgg16_width(10, 0.1);
        let shape = [1usize, 3, 32, 32];
        let before = model.network.macs(&shape);
        model.plan.prune(&mut model.network, 2, 0);
        let after = model.network.macs(&shape);
        assert!(after < before);
    }

    #[test]
    fn flops_per_channel_matches_mac_delta() {
        let mut model = crate::vgg16_width(10, 0.2);
        let shape = [1usize, 3, 32, 32];
        let per = model.plan.flops_per_channel(&model.network, &shape);
        let g = 1;
        let before = model.network.macs(&shape);
        model.plan.prune(&mut model.network, g, 0);
        let after = model.network.macs(&shape);
        let delta = before - after;
        // The plan estimates the *convolution* MAC savings; the true delta
        // additionally includes the pruned batch-norm/activation work, so
        // allow a small relative gap.
        let rel = (delta as f64 - per[g] as f64).abs() / delta as f64;
        assert!(
            rel < 0.02,
            "delta {delta} vs estimate {} (rel {rel})",
            per[g]
        );
    }

    #[test]
    fn gamma_grad_length_matches_channels() {
        let mut model = crate::resnet18_width(10, 0.1);
        // Produce some gradients.
        let x = Tensor::zeros([2, 3, 32, 32]);
        let cfg = ExecConfig::default();
        let y = model.network.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        model.network.backward(&ones);
        for g in 0..model.plan.group_count() {
            let grads = model.plan.gamma_grad(&mut model.network, g);
            assert_eq!(grads.len(), model.plan.channels(&model.network, g));
        }
    }

    #[test]
    fn try_apis_reject_bad_indices_without_mutating() {
        let mut model = crate::vgg16_width(10, 0.25);
        let groups = model.plan.group_count();

        // Group index out of range.
        assert!(matches!(
            model.plan.try_channels(&model.network, groups),
            Err(cnn_stack_nn::Error::IndexOutOfRange { index, len })
                if index == groups && len == groups
        ));
        assert!(model.plan.try_prune(&mut model.network, groups, 0).is_err());
        assert!(model
            .plan
            .try_gamma_grad(&mut model.network, groups)
            .is_err());

        // Channel index out of range: the network must be untouched.
        let alive = model.plan.try_channels(&model.network, 0).unwrap();
        let err = model
            .plan
            .try_prune(&mut model.network, 0, alive)
            .unwrap_err();
        assert!(matches!(err, cnn_stack_nn::Error::InvalidConfig(_)));
        assert_eq!(model.plan.try_channels(&model.network, 0).unwrap(), alive);
    }

    #[test]
    fn try_prune_refuses_last_channel() {
        let mut model = crate::vgg16_width(10, 0.1);
        let g = 0;
        while model.plan.try_channels(&model.network, g).unwrap() > 1 {
            model.plan.try_prune(&mut model.network, g, 0).unwrap();
        }
        assert!(!model.plan.try_can_prune(&model.network, g).unwrap());
        let err = model.plan.try_prune(&mut model.network, g, 0).unwrap_err();
        assert!(matches!(err, cnn_stack_nn::Error::InvalidConfig(_)));
    }

    #[test]
    fn try_flops_matches_panicking_api() {
        let model = crate::vgg16_width(10, 0.25);
        let shape = [1usize, 3, 32, 32];
        assert_eq!(
            model
                .plan
                .try_flops_per_channel(&model.network, &shape)
                .unwrap(),
            model.plan.flops_per_channel(&model.network, &shape)
        );
        assert_eq!(
            model.plan.try_total_channels(&model.network).unwrap(),
            model.plan.total_channels(&model.network)
        );
    }
}
