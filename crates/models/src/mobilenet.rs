//! MobileNet (Howard et al.) adapted to CIFAR-10 (§IV-A): 27
//! convolutional layers alternating 3×3 depthwise and 1×1 pointwise
//! convolutions, plus a single fully connected classifier. As in the
//! paper's reference implementation the stem convolution keeps stride 1
//! at 32×32 input resolution.

use crate::model::{scale, Model, ModelKind};
use crate::plan::{PruneGroup, PruningPlan};
use cnn_stack_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Layer, Linear, Network, ReLU,
};

/// The 13 depthwise-separable stages: (pointwise output width, stride of
/// the depthwise convolution).
const STAGES: [(usize, usize); 13] = [
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (1024, 2),
    (1024, 1),
];

/// Builds full-width MobileNet for `classes` outputs.
pub fn mobilenet(classes: usize) -> Model {
    mobilenet_width(classes, 1.0)
}

/// Builds MobileNet with all widths scaled by `width` (the
/// width-multiplier hyper-parameter of the original paper).
///
/// # Panics
///
/// Panics if `classes == 0` or `width <= 0`.
pub fn mobilenet_width(classes: usize, width: f64) -> Model {
    assert!(classes > 0, "class count must be non-zero");
    assert!(width > 0.0, "width multiplier must be positive");
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();

    // Stem: full 3x3 convolution.
    let stem = scale(32, width);
    let stem_conv = layers.len();
    layers.push(Box::new(Conv2d::new(3, stem, 3, 1, 1, 4000)));
    let stem_bn = layers.len();
    layers.push(Box::new(BatchNorm2d::new(stem)));
    layers.push(Box::new(ReLU::new()));

    // Depthwise-separable stages, remembering layer indices for the plan.
    struct StageIdx {
        dw: usize,
        dw_bn: usize,
        pw: usize,
        pw_bn: usize,
    }
    let mut idx = Vec::new();
    let mut in_c = stem;
    let mut seed = 4100u64;
    for (base_c, stride) in STAGES {
        let out_c = scale(base_c, width);
        let dw = layers.len();
        layers.push(Box::new(DepthwiseConv2d::new(in_c, 3, stride, 1, seed)));
        let dw_bn = layers.len();
        layers.push(Box::new(BatchNorm2d::new(in_c)));
        layers.push(Box::new(ReLU::new()));
        let pw = layers.len();
        layers.push(Box::new(Conv2d::new(in_c, out_c, 1, 1, 0, seed + 1)));
        let pw_bn = layers.len();
        layers.push(Box::new(BatchNorm2d::new(out_c)));
        layers.push(Box::new(ReLU::new()));
        idx.push(StageIdx {
            dw,
            dw_bn,
            pw,
            pw_bn,
        });
        seed += 10;
        in_c = out_c;
    }

    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Flatten::new()));
    let fc = layers.len();
    layers.push(Box::new(Linear::new(in_c, classes, 4900)));

    // Pruning plan. The stem and every pointwise convolution produce
    // channels consumed by the following depthwise + pointwise pair; the
    // final pointwise feeds the classifier via global average pooling
    // (1 position per channel).
    let mut groups = Vec::new();
    groups.push(PruneGroup::ConvToDepthwise {
        conv: stem_conv,
        bn: stem_bn,
        dw: idx[0].dw,
        dw_bn: idx[0].dw_bn,
        next_conv: idx[0].pw,
    });
    for i in 0..STAGES.len() - 1 {
        groups.push(PruneGroup::ConvToDepthwise {
            conv: idx[i].pw,
            bn: idx[i].pw_bn,
            dw: idx[i + 1].dw,
            dw_bn: idx[i + 1].dw_bn,
            next_conv: idx[i + 1].pw,
        });
    }
    let last = idx.last().expect("at least one stage");
    groups.push(PruneGroup::ConvToLinear {
        conv: last.pw,
        bn: last.pw_bn,
        linear: fc,
        positions: 1,
    });

    Model {
        kind: ModelKind::MobileNet,
        network: Network::new(layers).expect("model layer list is non-empty"),
        plan: PruningPlan::new(groups),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_nn::{ExecConfig, Phase};
    use cnn_stack_tensor::Tensor;

    #[test]
    fn forward_shape() {
        let mut m = mobilenet(10);
        let y = m.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn has_27_conv_layers_and_one_fc() {
        let m = mobilenet(10);
        let descs = m.network.descriptors(&[1, 3, 32, 32]);
        let convs = descs
            .iter()
            .filter(|d| d.name.starts_with("conv") || d.name.starts_with("dwconv"))
            .count();
        let fcs = descs
            .iter()
            .filter(|d| d.name.starts_with("linear"))
            .count();
        assert_eq!(convs, 27, "paper: 27 convolutional layers");
        assert_eq!(fcs, 1, "paper: a single fully connected layer");
    }

    #[test]
    fn parameter_count_is_mobilenet_scale() {
        let m = mobilenet(10);
        // CIFAR MobileNet ≈ 3.2M parameters.
        let p = m.network.num_params();
        assert!(p > 3_000_000 && p < 3_600_000, "params {p}");
    }

    #[test]
    fn macs_far_below_vgg() {
        let mob = mobilenet(10).network.macs(&[1, 3, 32, 32]);
        let vgg = crate::vgg16(10).network.macs(&[1, 3, 32, 32]);
        assert!(
            mob * 4 < vgg,
            "MobileNet ({mob}) should be far cheaper than VGG ({vgg})"
        );
    }

    #[test]
    fn plan_covers_stem_plus_all_pointwise() {
        let m = mobilenet(10);
        assert_eq!(m.plan.group_count(), 14); // stem + 13 pointwise convs
    }

    #[test]
    fn spatial_extent_ends_at_2x2() {
        let m = mobilenet(10);
        let descs = m.network.descriptors(&[1, 3, 32, 32]);
        let last_conv = descs
            .iter()
            .rev()
            .find(|d| d.name.starts_with("conv"))
            .unwrap();
        assert_eq!(&last_conv.output_shape[2..], &[2, 2]);
    }

    #[test]
    fn width_half_is_quarter_params() {
        let full = mobilenet(10);
        let half = mobilenet_width(10, 0.5);
        let ratio = full.network.num_params() as f64 / half.network.num_params() as f64;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }
}
