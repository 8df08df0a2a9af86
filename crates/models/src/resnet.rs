//! ResNet-18 in its CIFAR-10 form (§IV-A): a 3×3 stem, eight residual
//! blocks of two 3×3 convolutions each (17 convolutions + projection
//! shortcuts), batch norm after every convolution, and a linear
//! classifier.

use crate::model::{scale, Model, ModelKind};
use crate::plan::{PruneGroup, PruningPlan};
use cnn_stack_nn::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, Network, ReLU, ResidualBlock,
};

/// Stage widths and strides: four stages of two blocks each.
const STAGES: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];

/// Builds full-width ResNet-18 for `classes` outputs.
pub fn resnet18(classes: usize) -> Model {
    resnet18_width(classes, 1.0)
}

/// Builds ResNet-18 with all widths scaled by `width`.
///
/// # Panics
///
/// Panics if `classes == 0` or `width <= 0`.
pub fn resnet18_width(classes: usize, width: f64) -> Model {
    assert!(classes > 0, "class count must be non-zero");
    assert!(width > 0.0, "width multiplier must be positive");
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut groups = Vec::new();

    let stem = scale(64, width);
    layers.push(Box::new(Conv2d::new(3, stem, 3, 1, 1, 3000)));
    layers.push(Box::new(BatchNorm2d::new(stem)));
    layers.push(Box::new(ReLU::new()));

    let mut in_c = stem;
    let mut seed = 3100u64;
    for (base_c, stride) in STAGES {
        let out_c = scale(base_c, width);
        for b in 0..2 {
            let s = if b == 0 { stride } else { 1 };
            groups.push(PruneGroup::ResidualInner {
                block: layers.len(),
            });
            layers.push(Box::new(ResidualBlock::new(in_c, out_c, s, seed)));
            seed += 10;
            in_c = out_c;
        }
    }

    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(in_c, classes, 3900)));

    Model {
        kind: ModelKind::ResNet18,
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
        let mut m = resnet18(10);
        let y = m.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn has_eight_blocks() {
        let m = resnet18(10);
        assert_eq!(m.plan.group_count(), 8);
    }

    #[test]
    fn parameter_count_is_resnet18_scale() {
        let m = resnet18(10);
        // CIFAR ResNet-18 ≈ 11.2M parameters.
        let p = m.network.num_params();
        assert!(p > 10_500_000 && p < 11_800_000, "params {p}");
    }

    #[test]
    fn mac_count_is_resnet18_scale() {
        let m = resnet18(10);
        let macs = m.network.macs(&[1, 3, 32, 32]);
        // CIFAR ResNet-18 ≈ 555 MMACs.
        assert!(macs > 450_000_000 && macs < 650_000_000, "macs {macs}");
    }

    #[test]
    fn downsampling_halves_spatial_extent() {
        let m = resnet18(10);
        // Output of the network before GAP should be [1, 512, 4, 4].
        let shape = m.network.output_shape(&[1, 3, 32, 32]);
        assert_eq!(shape, vec![1, 10]);
        let descs = m.network.descriptors(&[1, 3, 32, 32]);
        let last_conv = descs
            .iter()
            .rev()
            .find(|d| d.name.starts_with("conv"))
            .unwrap();
        assert_eq!(&last_conv.output_shape[2..], &[4, 4]);
    }

    #[test]
    fn width_scaled_variant_runs_and_trains() {
        let mut m = resnet18_width(10, 0.125);
        let x = Tensor::zeros([2, 3, 32, 32]);
        let cfg = ExecConfig::default();
        let y = m.network.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        m.network.backward(&ones);
        // Gradients landed on stem conv.
        let g = m.network.params()[0]
            .grad()
            .expect("backward wrote it")
            .norm_sq();
        assert!(g.is_finite());
    }
}
