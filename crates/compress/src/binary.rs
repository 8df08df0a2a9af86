//! BinaryConnect-style binary weight quantisation (Courbariaux et al.,
//! the paper's \[19\]): "the extreme case is achieved by BinaryNet
//! transforming all weights to a one bit representation, with minimal
//! accuracy degradation" (§III-C).
//!
//! Each weight tensor is constrained to `{-α, +α}` with the per-tensor
//! scale `α = mean|w|` (the deterministic BinaryConnect variant with the
//! XNOR-Net scaling). Binary weights have *no* zeros, so unlike TTQ they
//! gain nothing from sparse formats — but they pack at 1 bit/weight.

use crate::visit::for_each_weight_param;
use cnn_stack_nn::{Network, Param};
use cnn_stack_tensor::Tensor;

/// Summary of a binarisation pass.
#[derive(Clone, Debug, PartialEq)]
pub struct BinaryReport {
    /// Weights binarised.
    pub total_weights: usize,
    /// Per-layer `(name, α)` scales.
    pub per_layer: Vec<(String, f32)>,
}

/// Binarises one weight tensor in place: `w → α · sign(w)` with
/// `α = mean|w|`. Returns the scale. Zeros binarise to `+α` (the
/// BinaryConnect convention for `sign(0)`).
pub fn binarise_tensor(weights: &mut Tensor) -> f32 {
    let n = weights.len() as f64;
    let alpha = (weights.data().iter().map(|v| v.abs() as f64).sum::<f64>() / n) as f32;
    for v in weights.data_mut() {
        *v = if *v < 0.0 { -alpha } else { alpha };
    }
    alpha
}

fn binarise_param(param: &mut Param) -> f32 {
    // Binary weights have no zeros; clear any pruning mask so the +α/-α
    // support is not punched back to zero by a later apply_mask.
    param.mask = None;
    binarise_tensor(&mut param.value)
}

/// Binarises every convolution and linear weight of `net`.
pub fn binarise_network(net: &mut Network) -> BinaryReport {
    let mut total = 0usize;
    let mut per_layer = Vec::new();
    for_each_weight_param(net, |label, param| {
        total += param.value.len();
        let a = binarise_param(param);
        per_layer.push((label.to_string(), a));
    });
    BinaryReport {
        total_weights: total,
        per_layer,
    }
}

/// Storage bytes for a binarised layer of `elems` weights: 1 bit per
/// weight plus the f32 scale.
pub fn binary_storage_bytes(elems: usize) -> usize {
    elems.div_ceil(8) + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_models::{resnet18_width, vgg16_width};
    use cnn_stack_nn::{ExecConfig, Phase};

    #[test]
    fn tensor_becomes_binary_with_mean_scale() {
        let mut w = Tensor::from_vec([1, 4], vec![0.4, -0.8, 0.2, -0.6]);
        let alpha = binarise_tensor(&mut w);
        assert!((alpha - 0.5).abs() < 1e-6);
        assert_eq!(w.data(), &[0.5, -0.5, 0.5, -0.5]);
    }

    #[test]
    fn zero_maps_to_positive() {
        let mut w = Tensor::from_vec([1, 2], vec![0.0, -1.0]);
        let alpha = binarise_tensor(&mut w);
        assert_eq!(w.data(), &[alpha, -alpha]);
    }

    #[test]
    fn network_binarises_and_runs() {
        let mut model = vgg16_width(10, 0.1);
        let report = binarise_network(&mut model.network);
        assert_eq!(report.per_layer.len(), 13 + 2); // convs + two linears
        assert!(report.total_weights > 100_000);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
        // Exactly two distinct values per layer: sparsity is zero.
        assert_eq!(model.network.weight_sparsity(&[1, 3, 32, 32]), 0.0);
    }

    #[test]
    fn resnet_blocks_and_shortcuts_covered() {
        let mut model = resnet18_width(10, 0.1);
        let report = binarise_network(&mut model.network);
        let block_entries = report
            .per_layer
            .iter()
            .filter(|(n, _)| n.contains("resblock"))
            .count();
        assert_eq!(block_entries, 19);
    }

    #[test]
    fn storage_is_one_bit_per_weight() {
        assert_eq!(binary_storage_bytes(64), 8 + 4);
        assert_eq!(binary_storage_bytes(65), 9 + 4);
        // 32x smaller than f32 (amortising the scale).
        let dense = 10_000 * 4;
        assert!(binary_storage_bytes(10_000) * 31 < dense);
    }

    #[test]
    fn binarisation_clears_pruning_masks() {
        let mut model = vgg16_width(10, 0.1);
        crate::magnitude::prune_network(&mut model.network, 0.5);
        binarise_network(&mut model.network);
        model.network.apply_masks();
        assert_eq!(model.network.weight_sparsity(&[1, 3, 32, 32]), 0.0);
    }
}
