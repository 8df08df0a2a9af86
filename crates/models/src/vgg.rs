//! VGG-16, truncated for CIFAR-10 exactly as §IV-A describes: 13
//! convolutional layers (3×3, pad 1), max-pooling after layers
//! {2, 4, 7, 10, 13}, and a two-layer classifier head (512 → `classes`).
//!
//! Batch normalisation follows every convolution, matching the reference
//! implementation the paper's repository uses for CIFAR-scale VGG
//! training (and providing the per-channel scale that channel-pruning
//! saliency reads).

use crate::model::{scale, Model, ModelKind};
use crate::plan::{PruneGroup, PruningPlan};
use cnn_stack_nn::{BatchNorm2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, Network, ReLU};

/// The 13 convolution widths of VGG-16.
const VGG16_CHANNELS: [usize; 13] = [
    64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512,
];
/// 1-based conv indices followed by a max-pool (paper: {2, 4, 7, 10, 13}).
const POOL_AFTER: [usize; 5] = [2, 4, 7, 10, 13];

/// Builds full-width VGG-16 for `classes` outputs.
pub fn vgg16(classes: usize) -> Model {
    vgg16_width(classes, 1.0)
}

/// Builds VGG-16 with every convolution width scaled by `width`
/// (used for fast tests and width-sweep ablations).
///
/// # Panics
///
/// Panics if `classes == 0` or `width <= 0`.
pub fn vgg16_width(classes: usize, width: f64) -> Model {
    assert!(classes > 0, "class count must be non-zero");
    assert!(width > 0.0, "width multiplier must be positive");
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut groups = Vec::new();
    let mut in_c = 3;
    let mut conv_indices = Vec::new();
    let mut bn_indices = Vec::new();

    for (i, &base_c) in VGG16_CHANNELS.iter().enumerate() {
        let out_c = scale(base_c, width);
        conv_indices.push(layers.len());
        layers.push(Box::new(Conv2d::new(in_c, out_c, 3, 1, 1, 1000 + i as u64)));
        bn_indices.push(layers.len());
        layers.push(Box::new(BatchNorm2d::new(out_c)));
        layers.push(Box::new(ReLU::new()));
        if POOL_AFTER.contains(&(i + 1)) {
            layers.push(Box::new(MaxPool2d::new(2)));
        }
        in_c = out_c;
    }

    // Head: 32 / 2^5 = 1x1 spatial → flatten → 512 → classes.
    let feat = in_c; // 1x1 spatial leaves `channels` features.
    let hidden = scale(512, width);
    layers.push(Box::new(Flatten::new()));
    let fc1_idx = layers.len();
    layers.push(Box::new(Linear::new(feat, hidden, 2000)));
    layers.push(Box::new(ReLU::new()));
    layers.push(Box::new(Linear::new(hidden, classes, 2001)));

    // Pruning plan: conv_i feeds conv_{i+1} for i < 13; conv_13 feeds the
    // first linear layer with 1 position per channel.
    for i in 0..12 {
        groups.push(PruneGroup::ConvToConv {
            conv: conv_indices[i],
            bn: bn_indices[i],
            next_conv: conv_indices[i + 1],
        });
    }
    groups.push(PruneGroup::ConvToLinear {
        conv: conv_indices[12],
        bn: bn_indices[12],
        linear: fc1_idx,
        positions: 1,
    });

    Model {
        kind: ModelKind::Vgg16,
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
    fn forward_shape_full_width() {
        let mut m = vgg16(10);
        let y = m.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn has_13_convs_and_5_pools() {
        let m = vgg16(10);
        let descs = m.network.descriptors(&[1, 3, 32, 32]);
        let convs = descs.iter().filter(|d| d.name.starts_with("conv")).count();
        let pools = descs
            .iter()
            .filter(|d| d.name.starts_with("maxpool"))
            .count();
        assert_eq!(convs, 13);
        assert_eq!(pools, 5);
    }

    #[test]
    fn parameter_count_matches_formula() {
        let m = vgg16(10);
        // Conv params: sum(out*in*9 + out) + BN 2*out each; head:
        // 512*512+512 + 512*10+10.
        let mut expect = 0usize;
        let mut in_c = 3;
        for &c in &VGG16_CHANNELS {
            expect += c * in_c * 9 + c + 2 * c;
            in_c = c;
        }
        expect += 512 * 512 + 512 + 512 * 10 + 10;
        assert_eq!(m.network.num_params(), expect);
    }

    #[test]
    fn total_macs_are_vgg_scale() {
        let m = vgg16(10);
        let macs = m.network.macs(&[1, 3, 32, 32]);
        // CIFAR VGG-16 is ~313 MMACs; accept the right ballpark (conv only
        // dominates; BN adds a little).
        assert!(macs > 250_000_000 && macs < 400_000_000, "macs {macs}");
    }

    #[test]
    fn plan_covers_all_13_convs() {
        let m = vgg16(10);
        assert_eq!(m.plan.group_count(), 13);
    }

    #[test]
    fn width_scaling_reduces_size() {
        let mut small = vgg16_width(10, 0.25);
        let full = vgg16(10);
        assert!(small.network.num_params() < full.network.num_params() / 8);
        let y = small.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    #[should_panic(expected = "width multiplier")]
    fn zero_width_rejected() {
        let _ = vgg16_width(10, 0.0);
    }
}
