//! Trained Ternary Quantisation (Zhu et al.; the paper's §III-C /
//! §V-B.3 technique).
//!
//! Every convolution/linear weight is constrained to three values per
//! layer: `{-Wⁿ_l, 0, +Wᵖ_l}`. The threshold hyper-parameter `t` sets the
//! dead zone: `|w| ≤ t · max|w|` is trimmed to zero; survivors snap to the
//! layer's positive or negative scale. The scales are *trained*: during
//! fine-tuning each SGD step updates the full-precision shadow weights
//! and the projection re-estimates `Wᵖ/Wⁿ` from the surviving weights
//! (projection-based training; the gradient flow matches TTQ's
//! straight-through estimator in expectation — documented substitution,
//! `DESIGN.md` §5).

use crate::visit::for_each_weight_param;
use cnn_stack_nn::{Mask, Network, Param};
use cnn_stack_tensor::Tensor;

/// Summary of a ternarisation pass.
#[derive(Clone, Debug, PartialEq)]
pub struct TtqReport {
    /// Weights considered.
    pub total_weights: usize,
    /// Weights trimmed to zero.
    pub zeroed_weights: usize,
    /// Resulting sparsity in `[0, 1]`.
    pub sparsity: f64,
    /// Per-layer `(name, W⁺, W⁻, sparsity)`.
    pub per_layer: Vec<(String, f32, f32, f64)>,
}

/// The per-layer ternary codebook: positive scale, negative scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TernaryScales {
    /// Value assigned to surviving positive weights.
    pub positive: f32,
    /// Value assigned to surviving negative weights (stored positive;
    /// weights become `-negative`).
    pub negative: f32,
}

/// Ternarises one weight tensor in place with threshold `t`, returning
/// the learned scales and the achieved sparsity. The scales are the mean
/// magnitudes of the surviving positive/negative weights — the
/// fixed-point of TTQ's scale-gradient update.
///
/// A weight survives as positive if `w > t · max|w|` and as negative if
/// `w < −t · max|w|` (NaNs are skipped by the max and never survive);
/// every other weight becomes `+0.0`. Each scale is summed in `f64` in
/// index order, so its bits are those of the two-branch loop over the
/// weights.
///
/// # Panics
///
/// Panics if `t` is not in `[0, 1)`.
pub fn ternarise_tensor(weights: &mut Tensor, t: f64) -> (TernaryScales, f64) {
    assert!(
        (0.0..1.0).contains(&t),
        "threshold must be in [0, 1), got {t}"
    );
    let values = weights.data_mut();
    let delta = (t as f32) * max_magnitude(values);
    // The survivors of each sign, 64 weights to a word.
    let (pos, neg): (Vec<u64>, Vec<u64>) = (values.chunks(64))
        .map(|chunk| {
            (
                Mask::word_where(chunk, |v| v > delta),
                Mask::word_where(chunk, |v| v < -delta),
            )
        })
        .unzip();
    let scales = TernaryScales {
        positive: mean_of(values, &pos, 1.0),
        negative: mean_of(values, &neg, -1.0),
    };
    // One sweep without a branch: the two tests select a scale's bits
    // (they never both pass) or +0.0's.
    let (p, n) = (scales.positive.to_bits(), (-scales.negative).to_bits());
    let select = |pass: bool, bits: u32| 0u32.wrapping_sub(u32::from(pass)) & bits;
    for v in values.iter_mut() {
        *v = f32::from_bits(select(*v > delta, p) | select(*v < -delta, n));
    }
    let kept: usize = (pos.iter().zip(&neg))
        .map(|(p, n)| (p | n).count_ones() as usize)
        .sum();
    (scales, (values.len() - kept) as f64 / values.len() as f64)
}

/// `max|w|` over 16 lanes; NaNs are skipped, as `f32::max` skips them.
fn max_magnitude(values: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 16];
    let mut chunks = values.chunks_exact(16);
    for chunk in &mut chunks {
        for (m, v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v.abs());
        }
    }
    (chunks.remainder().iter())
        .chain(&lanes)
        .fold(0.0f32, |m, v| m.max(v.abs()))
}

/// The mean of `sign · w` over the weights set in `words`, summed in
/// `f64` in index order by walking the set bits; `0.0` for none.
fn mean_of(values: &[f32], words: &[u64], sign: f32) -> f32 {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for (i, &word) in words.iter().enumerate() {
        let (base, mut word) = (64 * i, word);
        count += word.count_ones() as usize;
        while word != 0 {
            sum += f64::from(sign * values[base + word.trailing_zeros() as usize]);
            word &= word - 1;
        }
    }
    if count > 0 {
        (sum / count as f64) as f32
    } else {
        0.0
    }
}

fn ternarise_param(param: &mut Param, t: f64) -> (TernaryScales, usize, usize) {
    let (scales, _) = ternarise_tensor(&mut param.value, t);
    // Pin the dead zone with a mask so fine-tuning keeps ternary support:
    // each survivor now holds its nonzero scale, the rest +0.0.
    let total = param.value.len();
    let zeroed = total - param.set_mask_where(|v| v != 0.0);
    (scales, total, zeroed)
}

/// Ternarises every convolution and linear weight of `net` with the same
/// threshold `t` (the paper's single TTQ-threshold knob, Fig. 3(c)).
///
/// # Panics
///
/// Panics if `t` is not in `[0, 1)`.
pub fn ttq_quantise(net: &mut Network, t: f64) -> TtqReport {
    assert!(
        (0.0..1.0).contains(&t),
        "threshold must be in [0, 1), got {t}"
    );
    let mut total = 0usize;
    let mut zeroed = 0usize;
    let mut per_layer = Vec::new();
    for_each_weight_param(net, |label, param| {
        let (s, t_n, z) = ternarise_param(param, t);
        per_layer.push((
            label.to_string(),
            s.positive,
            s.negative,
            z as f64 / t_n as f64,
        ));
        total += t_n;
        zeroed += z;
    });
    TtqReport {
        total_weights: total,
        zeroed_weights: zeroed,
        sparsity: if total == 0 {
            0.0
        } else {
            zeroed as f64 / total as f64
        },
        per_layer,
    }
}

/// One projection-training round: re-ternarise after an SGD step so the
/// scales track the shadow weights (call this after each fine-tuning
/// epoch, as the paper's "determined iteratively over several epochs").
pub fn reproject(net: &mut Network, t: f64) -> TtqReport {
    ttq_quantise(net, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_models::{resnet18_width, vgg16_width};
    use cnn_stack_nn::{Conv2d, ExecConfig, Phase};

    #[test]
    fn tensor_becomes_ternary() {
        let mut w = Tensor::from_vec([1, 6], vec![0.9, -0.8, 0.05, -0.04, 0.5, -0.6]);
        let (scales, sparsity) = ternarise_tensor(&mut w, 0.1);
        // max|w| = 0.9, delta = 0.09: +{0.9, 0.5} → 0.7; -{0.8, 0.6} → 0.7.
        assert!((scales.positive - 0.7).abs() < 1e-6);
        assert!((scales.negative - 0.7).abs() < 1e-6);
        assert!((sparsity - 2.0 / 6.0).abs() < 1e-9);
        let distinct: std::collections::BTreeSet<String> =
            w.data().iter().map(|v| format!("{v:.6}")).collect();
        assert!(distinct.len() <= 3, "not ternary: {distinct:?}");
    }

    /// The two-branch loops `ternarise_tensor` replaced.
    fn two_branch_reference(weights: &mut Tensor, t: f64) -> (TernaryScales, f64) {
        let max_mag = weights.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let delta = (t as f32) * max_mag;
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0usize, 0.0f64, 0usize);
        for &v in weights.data() {
            if v > delta {
                pos_sum += v as f64;
                pos_n += 1;
            } else if v < -delta {
                neg_sum += (-v) as f64;
                neg_n += 1;
            }
        }
        let mean = |sum: f64, n: usize| if n > 0 { (sum / n as f64) as f32 } else { 0.0 };
        let scales = TernaryScales {
            positive: mean(pos_sum, pos_n),
            negative: mean(neg_sum, neg_n),
        };
        let mut zeroed = 0usize;
        for v in weights.data_mut() {
            if *v > delta {
                *v = scales.positive;
            } else if *v < -delta {
                *v = -scales.negative;
            } else {
                *v = 0.0;
                zeroed += 1;
            }
        }
        (scales, zeroed as f64 / weights.len() as f64)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn ternarise_matches_the_two_branch_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(40);
        let specials = [
            -0.0f32,
            f32::NAN,
            f32::from_bits(3),
            -f32::from_bits(0x0010_0000),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for len in [1usize, 15, 16, 17, 63, 64, 65, 1000, 4099] {
            let mut cases = vec![
                vec![0.0f32; len],
                vec![-0.0f32; len],
                (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
                (0..len).map(|_| -rng.gen_range(0.0f32..1.0)).collect(),
                (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            ];
            // Specials strewn through signed values: NaN survives no
            // test, an infinity sets the max.
            for special in specials {
                cases.push(
                    (0..len)
                        .map(|i| match i % 7 {
                            3 => special,
                            _ => rng.gen_range(-1.0f32..1.0),
                        })
                        .collect(),
                );
            }
            for data in cases {
                for t in [0.0, 0.05, 0.09, 0.5, 0.99] {
                    let mut got = Tensor::from_vec([len], data.clone());
                    let mut want = got.clone();
                    let (gs, gz) = ternarise_tensor(&mut got, t);
                    let (ws, wz) = two_branch_reference(&mut want, t);
                    let scale_bits =
                        |s: TernaryScales| (s.positive.to_bits(), s.negative.to_bits());
                    assert_eq!(scale_bits(gs), scale_bits(ws), "len {len}, t {t}");
                    assert_eq!(gz.to_bits(), wz.to_bits(), "len {len}, t {t}");
                    assert_eq!(bits(&got), bits(&want), "len {len}, t {t}");
                }
            }
        }
    }

    /// The pass as it read with an f32 mask tensor: the two-branch
    /// ternarisation, then a `0.0`/`1.0` mask of the nonzero values
    /// through [`Param::set_mask`].
    fn f32_mask_reference(net: &mut Network, t: f64) -> TtqReport {
        let (mut total, mut zeroed, mut per_layer) = (0, 0, Vec::new());
        crate::visit::for_each_weight_param(net, |label, param| {
            let (s, _) = two_branch_reference(&mut param.value, t);
            let mask = Tensor::from_fn(param.value.shape().dims().to_vec(), |i| {
                if param.value.data()[i] == 0.0 {
                    0.0
                } else {
                    1.0
                }
            });
            let (n, z) = (mask.len(), mask.count_zeros(0.0));
            param.set_mask(mask);
            per_layer.push((
                label.to_string(),
                s.positive,
                s.negative,
                z as f64 / n as f64,
            ));
            total += n;
            zeroed += z;
        });
        TtqReport {
            total_weights: total,
            zeroed_weights: zeroed,
            sparsity: zeroed as f64 / total as f64,
            per_layer,
        }
    }

    #[test]
    fn predicate_masks_match_the_f32_mask_pass() {
        use crate::magnitude::tests::{assert_same_params, strew_specials};
        // With an infinity in a layer every finite weight is in its dead
        // zone (t > 0) or the dead zone is NaN (t = 0): all zeros.
        let nan = [f32::NAN];
        let nan_and_inf = [f32::NAN, f32::INFINITY];
        for (t, extra) in [
            (0.0, &nan[..]),
            (0.09, &nan),
            (0.3, &nan),
            (0.09, &nan_and_inf),
        ] {
            let mut a = vgg16_width(10, 0.1).network;
            let mut b = vgg16_width(10, 0.1).network;
            strew_specials(&mut a, extra);
            strew_specials(&mut b, extra);
            let got = ttq_quantise(&mut a, t);
            assert_eq!(got, f32_mask_reference(&mut b, t), "t {t}");
            assert_same_params(&mut a, &mut b);
        }
        // As `stack::try_materialise` builds a served TTQ model: prune,
        // then ternarise the survivors at t = 0 (pruned weights are ±0.0).
        let mut a = vgg16_width(10, 0.25).network;
        let mut b = vgg16_width(10, 0.25).network;
        crate::magnitude::prune_network(&mut a, 0.6956);
        crate::magnitude::prune_network(&mut b, 0.6956);
        let got = ttq_quantise(&mut a, 0.0);
        assert_eq!(got, f32_mask_reference(&mut b, 0.0));
        assert_same_params(&mut a, &mut b);
    }

    #[test]
    fn higher_threshold_means_more_zeros() {
        let mut model_lo = vgg16_width(10, 0.1);
        let mut model_hi = vgg16_width(10, 0.1);
        let lo = ttq_quantise(&mut model_lo.network, 0.02);
        let hi = ttq_quantise(&mut model_hi.network, 0.3);
        assert!(hi.sparsity > lo.sparsity);
    }

    #[test]
    fn quantised_network_runs_and_is_ternary() {
        let mut model = vgg16_width(10, 0.1);
        let report = ttq_quantise(&mut model.network, 0.09);
        assert!(report.sparsity > 0.0);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
        // First conv has at most 3 distinct weight values.
        let conv = model
            .network
            .layer_mut(0)
            .unwrap()
            .as_any_mut()
            .downcast_mut::<Conv2d>()
            .unwrap();
        let distinct: std::collections::BTreeSet<String> = conv
            .weight()
            .value
            .data()
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect();
        assert!(distinct.len() <= 3, "{distinct:?}");
    }

    #[test]
    fn resnet_blocks_are_quantised() {
        let mut model = resnet18_width(10, 0.1);
        let report = ttq_quantise(&mut model.network, 0.1);
        let block_layers = report
            .per_layer
            .iter()
            .filter(|(n, ..)| n.contains("resblock"))
            .count();
        // 8 blocks × 2 convs + 3 projection shortcuts.
        assert_eq!(block_layers, 19);
    }

    #[test]
    fn zero_threshold_keeps_everything_nonzero() {
        let mut model = vgg16_width(10, 0.05);
        let report = ttq_quantise(&mut model.network, 0.0);
        // Only exact zeros get trimmed at t=0 (Kaiming init has none).
        assert!(report.sparsity < 0.01, "sparsity {}", report.sparsity);
    }

    #[test]
    fn reprojection_is_idempotent_on_scales() {
        let mut model = vgg16_width(10, 0.1);
        let first = ttq_quantise(&mut model.network, 0.1);
        let second = reproject(&mut model.network, 0.1);
        // Re-projecting an already-ternary net keeps the same support.
        assert_eq!(first.zeroed_weights, second.zeroed_weights);
        for (a, b) in first.per_layer.iter().zip(&second.per_layer) {
            assert!((a.1 - b.1).abs() < 1e-5, "positive scale drifted");
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn threshold_validated() {
        let mut model = vgg16_width(10, 0.05);
        let _ = ttq_quantise(&mut model.network, 1.5);
    }
}
