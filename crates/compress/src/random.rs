//! Random pruning baselines (Mittal et al., the paper's \[35\]): "random
//! pruning is also an effective strategy for removing filters" — the
//! null hypothesis every saliency method must beat. The
//! `ablate_saliency` bench compares these against Fisher/magnitude
//! choices.

use cnn_stack_models::{Model, PruningPlan};
use cnn_stack_nn::Network;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Randomly prunes `count` channels, drawing `(group, channel)` uniformly
/// from the currently prunable set. Returns the number actually removed
/// (less than `count` only if the network runs out of prunable channels).
pub fn random_channel_prune(model: &mut Model, count: usize, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut removed = 0;
    for _ in 0..count {
        let prunable: Vec<usize> = (0..model.plan.group_count())
            .filter(|&g| model.plan.can_prune(&model.network, g))
            .collect();
        if prunable.is_empty() {
            break;
        }
        let g = prunable[rng.gen_range(0..prunable.len())];
        let c = rng.gen_range(0..model.plan.channels(&model.network, g));
        model.plan.prune(&mut model.network, g, c);
        removed += 1;
    }
    removed
}

/// Randomly zeroes a `sparsity` fraction of every conv/linear weight
/// tensor (the unstructured analogue), installing masks like the
/// magnitude pruner so fine-tuning keeps them zero.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1)`.
pub fn random_weight_prune(net: &mut Network, sparsity: f64, seed: u64) -> f64 {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut total = 0usize;
    let mut pruned = 0usize;
    for p in net.params_mut() {
        if p.value.shape().rank() < 2 {
            continue; // weight tensors only, as in the magnitude pruner
        }
        let n = p.value.len();
        pruned += n - p.set_mask_where(|_| !rng.gen_bool(sparsity));
        total += n;
    }
    if total == 0 {
        0.0
    } else {
        pruned as f64 / total as f64
    }
}

/// Uniform round-robin channel pruning to a parameter-compression target:
/// deterministic, saliency-free — the structured analogue of \[35\]'s
/// "retrain after randomly removing progressively more filters".
///
/// # Panics
///
/// Panics if `target` is outside `[0, 1)`.
pub fn round_robin_channel_prune(model: &mut Model, target: f64) -> usize {
    assert!((0.0..1.0).contains(&target), "target must be in [0, 1)");
    let shape = [1usize, 3, 32, 32];
    let original: usize = weight_elems(&model.network, &shape);
    let mut removed = 0;
    let mut g = 0;
    loop {
        let now = weight_elems(&model.network, &shape);
        if 1.0 - now as f64 / original as f64 >= target {
            break;
        }
        // Find the next prunable group in round-robin order.
        let groups = model.plan.group_count();
        let mut tried = 0;
        while !model.plan.can_prune(&model.network, g % groups) && tried < groups {
            g += 1;
            tried += 1;
        }
        if tried == groups {
            break;
        }
        let group = g % groups;
        let c = model.plan.channels(&model.network, group) - 1;
        model.plan.prune(&mut model.network, group, c);
        removed += 1;
        g += 1;
    }
    removed
}

fn weight_elems(net: &Network, shape: &[usize]) -> usize {
    net.descriptors(shape).iter().map(|d| d.weight_elems).sum()
}

/// Re-exported plan type used by the helpers (kept for doc linking).
pub type Plan = PruningPlan;

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_models::{vgg16_width, ModelKind};
    use cnn_stack_nn::{ExecConfig, Phase};
    use cnn_stack_tensor::Tensor;

    #[test]
    fn random_channel_prune_removes_and_stays_runnable() {
        let mut model = vgg16_width(10, 0.1);
        let before = model.plan.total_channels(&model.network);
        let removed = random_channel_prune(&mut model, 10, 7);
        assert_eq!(removed, 10);
        assert_eq!(model.plan.total_channels(&model.network), before - 10);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn random_channel_prune_is_deterministic_per_seed() {
        let mut a = vgg16_width(10, 0.1);
        let mut b = vgg16_width(10, 0.1);
        random_channel_prune(&mut a, 8, 3);
        random_channel_prune(&mut b, 8, 3);
        for g in 0..a.plan.group_count() {
            assert_eq!(
                a.plan.channels(&a.network, g),
                b.plan.channels(&b.network, g)
            );
        }
    }

    #[test]
    fn random_channel_prune_saturates() {
        let mut model = vgg16_width(10, 0.03);
        let removed = random_channel_prune(&mut model, 100_000, 1);
        assert!(removed < 100_000);
        for g in 0..model.plan.group_count() {
            assert_eq!(model.plan.channels(&model.network, g), 1);
        }
    }

    #[test]
    fn random_weight_prune_hits_target_statistically() {
        let mut model = vgg16_width(10, 0.2);
        let achieved = random_weight_prune(&mut model.network, 0.6, 5);
        assert!((achieved - 0.6).abs() < 0.02, "achieved {achieved}");
    }

    #[test]
    fn predicate_masks_match_the_f32_mask_pass() {
        use crate::magnitude::tests::{assert_same_params, strew_specials};
        // The pass as it read with an f32 mask tensor: one draw per
        // weight, in index order, `0.0` where it fires.
        fn f32_mask_reference(net: &mut Network, sparsity: f64, seed: u64) -> f64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut total, mut pruned) = (0usize, 0usize);
            for p in net.params_mut() {
                if p.value.shape().rank() < 2 {
                    continue;
                }
                let mask = Tensor::from_fn(p.value.shape().dims().to_vec(), |_| {
                    if rng.gen_bool(sparsity) {
                        0.0
                    } else {
                        1.0
                    }
                });
                pruned += mask.count_zeros(0.0);
                total += mask.len();
                p.set_mask(mask);
            }
            pruned as f64 / total as f64
        }
        for sparsity in [0.0, 0.4, 0.95] {
            let mut a = vgg16_width(10, 0.1).network;
            let mut b = vgg16_width(10, 0.1).network;
            let extra = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            strew_specials(&mut a, &extra);
            strew_specials(&mut b, &extra);
            let got = random_weight_prune(&mut a, sparsity, 11);
            assert_eq!(got, f32_mask_reference(&mut b, sparsity, 11));
            assert_same_params(&mut a, &mut b);
        }
    }

    #[test]
    fn round_robin_reaches_compression_target() {
        let mut model = ModelKind::MobileNet.build_width(10, 0.2);
        let shape = [1usize, 3, 32, 32];
        let before = weight_elems(&model.network, &shape);
        let removed = round_robin_channel_prune(&mut model, 0.4);
        assert!(removed > 0);
        let after = weight_elems(&model.network, &shape);
        assert!(1.0 - after as f64 / before as f64 >= 0.4);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }
}
