//! Batch-norm folding: the standard deployment-time transformation that
//! merges each inference-mode batch normalisation into the preceding
//! convolution's weights and bias.
//!
//! This is a "Data Formats and Algorithms" (stack layer 3) optimisation
//! in the paper's taxonomy: it changes how the same function is computed,
//! trading training flexibility for fewer inference passes over the
//! activations. After folding, the batch-norm layers are exact identities
//! and can be stripped with [`strip_identity_batchnorms`].
//!
//! Folding uses the *running* statistics, so it is only valid for
//! [`Phase::Eval`](crate::Phase::Eval) execution; fine-tune first, fold
//! last.

use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use crate::depthwise::DepthwiseConv2d;
use crate::network::Network;
use crate::residual::ResidualBlock;

/// Folds `bn` into a producer whose weight tensor has `row` elements per
/// output channel.
fn fold_into(weights: &mut [f32], bias: &mut [f32], row: usize, bn: &BatchNorm2d) {
    let gamma = bn.gamma().value.data().to_vec();
    let beta = bn.beta().value.data().to_vec();
    let mean = bn.running_mean().to_vec();
    let var = bn.running_var().to_vec();
    let eps = bn.eps();
    for o in 0..bias.len() {
        let scale = gamma[o] / (var[o] + eps).sqrt();
        for w in &mut weights[o * row..(o + 1) * row] {
            *w *= scale;
        }
        bias[o] = (bias[o] - mean[o]) * scale + beta[o];
    }
}

pub(crate) fn fold_conv_bn_pair(conv: &mut Conv2d, bn: &mut BatchNorm2d) {
    let row = conv.in_channels() * conv.kernel() * conv.kernel();
    let mut bias = conv.bias().value.data().to_vec();
    fold_into(conv.weight_mut().value.data_mut(), &mut bias, row, bn);
    conv.bias_mut().value.data_mut().copy_from_slice(&bias);
    bn.reset_to_identity();
}

fn fold_dw_bn(dw: &mut DepthwiseConv2d, bn: &mut BatchNorm2d) {
    let row = dw.weight().value.len() / dw.channels();
    let mut bias = dw.bias().value.data().to_vec();
    fold_into(dw.weight_mut().value.data_mut(), &mut bias, row, bn);
    dw.bias_mut().value.data_mut().copy_from_slice(&bias);
    bn.reset_to_identity();
}

/// Folds every `Conv2d → BatchNorm2d` and `DepthwiseConv2d → BatchNorm2d`
/// pair (including those inside residual blocks) into the convolution,
/// leaving each batch norm bit-exactly `y = x · 1.0 + 0.0`. A batch norm
/// already exactly that is left alone; any other is folded, a
/// near-identity too (a freshly initialised layer's scale is
/// `1/sqrt(1 + eps)`): removing one unfolded would change outputs, and
/// keeping it would leave a layer that [`strip_identity_batchnorms`]
/// may not remove and the plan compiler's fusion may not absorb.
/// Returns the number folded.
///
/// Only adjacent pairs at the top level are folded (the three models
/// place their batch norms immediately after each convolution).
pub fn fold_batchnorm(net: &mut Network) -> usize {
    let mut folded = 0;
    for i in 0..net.len().saturating_sub(1) {
        // Split the layer list so both layers can be borrowed mutably.
        let (left, right) = net.layers_split_at_mut(i + 1);
        let producer = left[i].as_any_mut();
        let Some(bn) = right[0].as_any_mut().downcast_mut::<BatchNorm2d>() else {
            continue;
        };
        if bn.is_exact_inference_identity() {
            continue;
        }
        if let Some(conv) = producer.downcast_mut::<Conv2d>() {
            if conv.out_channels() == bn.channels() {
                fold_conv_bn_pair(conv, bn);
                folded += 1;
            }
        } else if let Some(dw) = producer.downcast_mut::<DepthwiseConv2d>() {
            if dw.channels() == bn.channels() {
                fold_dw_bn(dw, bn);
                folded += 1;
            }
        }
    }
    // Residual blocks fold internally.
    for layer in net.layers_mut() {
        if let Some(block) = layer.as_any_mut().downcast_mut::<ResidualBlock>() {
            folded += block.fold_batchnorm();
        }
    }
    folded
}

/// Removes top-level batch-norm layers that are exact inference
/// identities (as left behind by [`fold_batchnorm`]). Returns the number
/// removed.
///
/// Stripping renumbers layers: any previously constructed
/// `PruningPlan`-style index map is
/// invalidated — strip only for final deployment.
pub fn strip_identity_batchnorms(net: &mut Network) -> usize {
    let mut removed = 0;
    let mut i = 0;
    while i < net.len() {
        let is_identity_bn = net.layers()[i]
            .as_any()
            .downcast_ref::<BatchNorm2d>()
            .is_some_and(BatchNorm2d::is_exact_inference_identity);
        if is_identity_bn && net.len() > 1 {
            net.remove_layer(i).expect("index and length checked above");
            removed += 1;
        } else {
            i += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, DepthwiseConv2d, ExecConfig, Flatten, Linear, MaxPool2d, Phase, ReLU};
    use cnn_stack_tensor::Tensor;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_input(c: usize, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn([2, c, 8, 8], |_| rng.gen_range(-1.0..1.0))
    }

    /// A VGG-flavoured chain: conv-bn-relu x2 with a pool and classifier.
    fn conv_bn_chain() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, 1)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(8, 8, 3, 1, 1, 2)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(8 * 16, 4, 3)),
        ])
        .unwrap()
    }

    /// A MobileNet-flavoured chain with a depthwise stage.
    fn dw_chain() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, 4)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(ReLU::new()),
            Box::new(DepthwiseConv2d::new(6, 3, 1, 1, 5)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(ReLU::new()),
        ])
        .unwrap()
    }

    /// Trains batch statistics away from the identity so folding is
    /// non-trivial.
    fn warm_batchnorms(net: &mut Network, c: usize) {
        let cfg = ExecConfig::default();
        for seed in 0..3 {
            let _ = net.forward(&random_input(c, 100 + seed), Phase::Train, &cfg);
        }
    }

    #[test]
    fn conv_chain_outputs_unchanged_by_folding() {
        let mut net = conv_bn_chain();
        warm_batchnorms(&mut net, 3);
        let x = random_input(3, 1);
        let cfg = ExecConfig::default();
        let before = net.forward(&x, Phase::Eval, &cfg);
        assert_eq!(fold_batchnorm(&mut net), 2);
        let after = net.forward(&x, Phase::Eval, &cfg);
        assert!(before.allclose(&after, 1e-4));
    }

    #[test]
    fn depthwise_stage_folds_too() {
        let mut net = dw_chain();
        warm_batchnorms(&mut net, 3);
        let x = random_input(3, 2);
        let cfg = ExecConfig::default();
        let before = net.forward(&x, Phase::Eval, &cfg);
        assert_eq!(fold_batchnorm(&mut net), 2);
        let after = net.forward(&x, Phase::Eval, &cfg);
        assert!(before.allclose(&after, 1e-4));
    }

    #[test]
    fn residual_block_folds_internally() {
        let mut net = Network::new(vec![Box::new(ResidualBlock::new(4, 8, 2, 9))]).unwrap();
        warm_batchnorms(&mut net, 4);
        let x = random_input(4, 3);
        let cfg = ExecConfig::default();
        let before = net.forward(&x, Phase::Eval, &cfg);
        // Two internal BNs + the projection shortcut's.
        assert_eq!(fold_batchnorm(&mut net), 3);
        let after = net.forward(&x, Phase::Eval, &cfg);
        assert!(before.allclose(&after, 1e-4));
    }

    #[test]
    fn folding_is_idempotent() {
        let mut net = conv_bn_chain();
        warm_batchnorms(&mut net, 3);
        assert_eq!(fold_batchnorm(&mut net), 2);
        assert_eq!(fold_batchnorm(&mut net), 0);
    }

    #[test]
    fn strip_removes_identity_bns_and_preserves_function() {
        let mut net = conv_bn_chain();
        warm_batchnorms(&mut net, 3);
        let x = random_input(3, 4);
        let cfg = ExecConfig::default();
        let before = net.forward(&x, Phase::Eval, &cfg);
        fold_batchnorm(&mut net);
        let layers_before = net.len();
        assert_eq!(strip_identity_batchnorms(&mut net), 2);
        assert_eq!(net.len(), layers_before - 2);
        let after = net.forward(&x, Phase::Eval, &cfg);
        assert!(before.allclose(&after, 1e-4));
        // No batch norms remain.
        assert!(net
            .layers()
            .iter()
            .all(|l| l.as_any().downcast_ref::<BatchNorm2d>().is_none()));
    }

    #[test]
    fn strip_without_fold_keeps_live_bns() {
        let mut net = conv_bn_chain();
        warm_batchnorms(&mut net, 3);
        assert_eq!(strip_identity_batchnorms(&mut net), 0);
    }

    #[test]
    fn fresh_bn_is_folded_not_skipped() {
        // An untrained BN (running stats 0/1) scales by 1/sqrt(1 + eps):
        // a near-identity, which folding moves into the convolution like
        // any other, after which folding finds nothing left to do.
        let mut net = conv_bn_chain();
        let x = random_input(3, 5);
        let cfg = ExecConfig::default();
        let before = net.forward(&x, Phase::Eval, &cfg);
        assert_eq!(fold_batchnorm(&mut net), 2);
        assert_eq!(fold_batchnorm(&mut net), 0);
        let after = net.forward(&x, Phase::Eval, &cfg);
        assert!(before.allclose(&after, 1e-5));
    }

    #[test]
    fn a_near_identity_bn_is_folded_before_it_is_stripped() {
        // A scale of 1 − 4e-6 is within 1e-5 of the identity, but not
        // the identity: stripping it unfolded would drop the scale.
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, 6)),
            Box::new(BatchNorm2d::new(4)),
        ])
        .unwrap();
        let conv = net.layers()[0].as_any().downcast_ref::<Conv2d>().unwrap();
        let w = conv.weight().value.data().to_vec();
        let bn = net.layers_mut()[1]
            .as_any_mut()
            .downcast_mut::<BatchNorm2d>()
            .unwrap();
        let eps = bn.eps();
        let gamma = (1.0 - 4e-6) * (1.0 + eps).sqrt();
        bn.gamma_mut().value.data_mut().fill(gamma);
        let scale = gamma / (1.0 + eps).sqrt();
        assert!(scale != 1.0 && (scale - 1.0).abs() < 1e-5);

        assert_eq!(fold_batchnorm(&mut net), 1);
        assert_eq!(strip_identity_batchnorms(&mut net), 1);
        assert_eq!(net.len(), 1, "the batch norm is gone");
        let conv = net.layers()[0].as_any().downcast_ref::<Conv2d>().unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want: Vec<f32> = w.iter().map(|v| v * scale).collect();
        assert_eq!(bits(conv.weight().value.data()), bits(&want));
    }
}
