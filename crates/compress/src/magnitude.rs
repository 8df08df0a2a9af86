//! Deep Compression weight pruning (Han et al., the paper's §III-A /
//! §V-B.1 technique).
//!
//! The network is trained dense, then all weights below a per-layer
//! magnitude threshold are removed and the survivors fine-tuned; the
//! threshold rises iteratively until the target sparsity is reached. The
//! masks installed here pin pruned weights to zero so SGD fine-tuning
//! cannot revive them (see [`cnn_stack_nn::Param::set_mask_where`]).

use crate::visit::for_each_weight_param;
use cnn_stack_nn::{Mask, Network};
use cnn_stack_tensor::Tensor;

/// Summary of one pruning pass.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneReport {
    /// Weights considered (conv + linear weight tensors only).
    pub total_weights: usize,
    /// Weights zeroed out.
    pub pruned_weights: usize,
    /// Achieved overall sparsity in `[0, 1]`.
    pub overall_sparsity: f64,
    /// Per-layer `(name, sparsity)` detail.
    pub per_layer: Vec<(String, f64)>,
}

/// Magnitude-prunes every convolution and linear layer of `net` to the
/// given per-layer sparsity (each layer drops its own `sparsity` fraction
/// of lowest-|w| weights, matching the paper's layer-by-layer thresholds).
///
/// Installs (or widens) pruning masks and returns the achieved numbers.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1)`.
pub fn prune_network(net: &mut Network, sparsity: f64) -> PruneReport {
    assert!(
        (0.0..1.0).contains(&sparsity),
        "sparsity must be in [0, 1), got {sparsity}"
    );
    let mut total = 0usize;
    let mut pruned = 0usize;
    let mut per_layer = Vec::new();
    let mut scratch = Vec::new();

    for_each_weight_param(net, |label, param| {
        let n = param.value.len();
        let threshold = threshold_in(param.value.data(), sparsity, &mut scratch);
        // Kept: above the threshold, or NaN (which only a threshold of
        // -1.0 lets through).
        let p = n - param.set_mask_where(|v| v.is_nan() | (v.abs() > threshold));
        per_layer.push((label.to_string(), p as f64 / n as f64));
        total += n;
        pruned += p;
    });

    PruneReport {
        total_weights: total,
        pruned_weights: pruned,
        overall_sparsity: if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        },
        per_layer,
    }
}

/// The |w| value below which `sparsity` of the tensor's entries fall:
/// the `k`-th smallest magnitude, `k = ⌊len · sparsity⌋` (at most
/// `len − 1`), so that pruning every weight with `|w| ≤` it prunes `k`
/// weights plus any tied with the `k`-th. Returns `−1.0`, which no
/// magnitude is at or below, when `k` is 0.
///
/// The order statistic is exact: it is selected over the bit patterns
/// of the magnitudes, which order as the magnitudes do (`−0.0` and
/// `+0.0` are one magnitude). A tensor of at least 16 384 values first
/// sorts a strided sample of 2048 magnitudes and reads a bracket around
/// the `k`-th from it; one sweep then counts the magnitudes below the
/// bracket and compacts those inside it, and the `k`-th is selected
/// among the compacted ones. If the bracket misses (the sample was
/// unrepresentative), the sweep repeats over the whole range, which is
/// also how a smaller tensor is handled. `prune_network` keeps one
/// compaction buffer for all its layers.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1)`, or with "no NaN weights"
/// if `k` is at least 1 and a weight is NaN (a NaN magnitude has no
/// rank). When `k` is 0 no magnitude is ranked and NaNs pass.
pub fn magnitude_threshold(weights: &Tensor, sparsity: f64) -> f32 {
    threshold_in(weights.data(), sparsity, &mut Vec::new())
}

/// Magnitudes in the strided sample that brackets the `k`-th.
const SAMPLE: usize = 2048;

/// Tensors shorter than this are swept over the whole range at once.
const BRACKET_MIN: usize = 8 * SAMPLE;

/// The bits of a magnitude: `|v|` as an integer of the same order.
fn magnitude_bits(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// [`magnitude_threshold`] over a slice, compacting into `scratch`
/// (grown as needed, so one buffer serves every layer of a network).
fn threshold_in(values: &[f32], sparsity: f64, scratch: &mut Vec<u32>) -> f32 {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
    let n = values.len();
    let k = ((n as f64 * sparsity) as usize).min(n.saturating_sub(1));
    if k == 0 {
        return -1.0;
    }
    let rank = k - 1;
    if scratch.len() < n {
        // Zeroed pages are mapped lazily: only the slots the sweep
        // writes are ever touched.
        *scratch = vec![0; n];
    }
    let (lo, hi) = sampled_bracket(values, rank);
    let (below, inside) = count_and_compact(values, lo, hi, scratch);
    let (below, inside) = if (below..below + inside).contains(&rank) {
        (below, inside)
    } else {
        count_and_compact(values, 0, u32::MAX, scratch)
    };
    let (_, kth, _) = scratch[..inside].select_nth_unstable(rank - below);
    f32::from_bits(*kth)
}

/// Magnitude bits `lo..=hi` that hold the `rank`-th smallest magnitude
/// of `values` unless the strided sample misleads (the whole range for
/// a tensor shorter than [`BRACKET_MIN`]).
fn sampled_bracket(values: &[f32], rank: usize) -> (u32, u32) {
    let n = values.len();
    if n < BRACKET_MIN {
        return (0, u32::MAX);
    }
    let mut sample: Vec<u32> = (0..SAMPLE)
        .map(|j| magnitude_bits(values[j * n / SAMPLE]))
        .collect();
    sample.sort_unstable();
    // How many sample magnitudes fall at or below the `rank`-th is
    // binomial, with mean `q · SAMPLE` and standard deviation
    // `√(SAMPLE · q(1 − q))`; the bracket reaches four of them (plus
    // one) either side.
    let q = (rank + 1) as f64 / n as f64;
    let mean = q * SAMPLE as f64;
    let margin = 4.0 * (SAMPLE as f64 * q * (1.0 - q)).sqrt() + 1.0;
    let lo = (mean - margin).floor();
    let hi = (mean + margin).ceil();
    (
        if lo < 0.0 { 0 } else { sample[lo as usize] },
        if hi >= SAMPLE as f64 {
            u32::MAX
        } else {
            sample[hi as usize]
        },
    )
}

/// One sweep over `values`, 64 at a time: counts the magnitudes below
/// `lo` and compacts those in `lo..=hi` to the front of `scratch` (at
/// least as long as `values`), in index order. Each chunk's tests are
/// branch-free; only its word of bracketed magnitudes is walked bit by
/// bit.
///
/// # Panics
///
/// Panics with "no NaN weights" if a value is NaN.
fn count_and_compact(values: &[f32], lo: u32, hi: u32, scratch: &mut [u32]) -> (usize, usize) {
    let (mut below, mut inside, mut nan) = (0usize, 0usize, false);
    for chunk in values.chunks(64) {
        let magnitudes = chunk.iter().map(|&v| magnitude_bits(v));
        below += magnitudes
            .clone()
            .map(|m| usize::from(m < lo))
            .sum::<usize>();
        nan |= magnitudes.fold(false, |nan, m| nan | (m > f32::INFINITY.to_bits()));
        let mut word = Mask::word_where(chunk, |v| (lo..=hi).contains(&magnitude_bits(v)));
        while word != 0 {
            scratch[inside] = magnitude_bits(chunk[word.trailing_zeros() as usize]);
            inside += 1;
            word &= word - 1;
        }
    }
    assert!(!nan, "no NaN weights");
    (below, inside)
}

/// An iterative pruning schedule: the sparsity targets of each
/// prune → fine-tune round. The paper starts at 50 % and raises the
/// threshold after each 30-epoch fine-tune (§V-B.1).
#[derive(Clone, Debug, PartialEq)]
pub struct PruneSchedule {
    targets: Vec<f64>,
}

impl PruneSchedule {
    /// The paper's schedule shape: 0.5, then rising by `step` until
    /// `max` (exclusive of 1.0).
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not describe an increasing sequence in
    /// `[0, 1)`.
    pub fn paper(step: f64, max: f64) -> Self {
        assert!(step > 0.0 && (0.5..1.0).contains(&max), "invalid schedule");
        let mut targets = Vec::new();
        let mut s = 0.5;
        while s <= max + 1e-9 {
            targets.push(s.min(max));
            s += step;
        }
        PruneSchedule { targets }
    }

    /// Explicit target list.
    ///
    /// # Panics
    ///
    /// Panics unless targets are strictly increasing within `[0, 1)`.
    pub fn explicit(targets: Vec<f64>) -> Self {
        assert!(!targets.is_empty(), "schedule must be non-empty");
        for w in targets.windows(2) {
            assert!(w[0] < w[1], "targets must be strictly increasing");
        }
        assert!(
            targets.iter().all(|t| (0.0..1.0).contains(t)),
            "targets must be in [0, 1)"
        );
        PruneSchedule { targets }
    }

    /// The target sequence.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }
}

/// Runs the full iterative prune → fine-tune loop: after each pruning
/// round, `fine_tune(net, round)` is called (the caller supplies SGD
/// epochs over its dataset). Returns the report of the final round.
pub fn iterative_prune(
    net: &mut Network,
    schedule: &PruneSchedule,
    mut fine_tune: impl FnMut(&mut Network, usize),
) -> PruneReport {
    let mut last = None;
    for (round, &target) in schedule.targets().iter().enumerate() {
        let report = prune_network(net, target);
        fine_tune(net, round);
        // Fine-tuning respects the masks, so the sparsity is preserved.
        last = Some(report);
    }
    last.expect("schedule is non-empty")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cnn_stack_models::vgg16_width;
    use cnn_stack_nn::{ExecConfig, Param, Phase};

    #[test]
    fn threshold_is_a_quantile() {
        let w = Tensor::from_vec([1, 8], vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8]);
        let t = magnitude_threshold(&w, 0.5);
        assert!((t - 0.4).abs() < 1e-6);
        assert_eq!(magnitude_threshold(&w, 0.0), -1.0);
    }

    /// The threshold the full sort reads at `k - 1`.
    fn sorted_reference(weights: &Tensor, sparsity: f64) -> f32 {
        let mut mags: Vec<f32> = weights.data().iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let k = ((mags.len() as f64 * sparsity) as usize).min(mags.len() - 1);
        if k == 0 {
            -1.0
        } else {
            mags[k - 1]
        }
    }

    #[test]
    fn threshold_bit_matches_the_sorting_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(18);
        let specials = [
            -0.0f32,
            0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0007_FFFF),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -f32::MAX,
        ];
        let mut cases: Vec<Vec<f32>> = Vec::new();
        // Shorter than the bracketed length, then longer: one sweep over
        // the whole range, then a sampled bracket.
        for len in [1usize, 2, 3, 7, 64, 1000, 4097, BRACKET_MIN + 1, 70_001] {
            // Continuous values, heavy ties (signed, so `abs` merges ±v
            // and ±0), all equal, and specials (±0.0, subnormals, ±Inf)
            // strewn through continuous values.
            cases.push((0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
            cases.push(
                (0..len)
                    .map(|_| [-0.5f32, -0.0, 0.0, 0.25, 0.5][rng.gen_range(0..5usize)])
                    .collect(),
            );
            cases.push(vec![-0.75; len]);
            cases.push(
                (0..len)
                    .map(|_| match rng.gen_range(0..4usize) {
                        0 => specials[rng.gen_range(0..specials.len())],
                        _ => rng.gen_range(-1.0f32..1.0),
                    })
                    .collect(),
            );
        }
        // A tensor that hides its distribution from the strided sample:
        // every sampled position holds the largest magnitude, so the
        // bracket misses and the sweep repeats over the whole range.
        let n = 3 * BRACKET_MIN;
        let mut hidden: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        for j in 0..SAMPLE {
            hidden[j * n / SAMPLE] = 1.0;
        }
        cases.push(hidden);
        for data in cases {
            let n = data.len();
            let w = Tensor::from_vec([1, n], data);
            // k = 0, 1, len - 1 (also via the clamp), the interior, and
            // sparsities near 0 and 0.99.
            let edges = [0.0, 0.5 / n as f64, 1.5 / n as f64, 1.0 - 0.5 / n as f64];
            let sparsities = edges
                .into_iter()
                .chain([1e-4, 0.01, 0.1, 0.5, 0.6956, 0.9, 0.98, 0.99, 0.999_999]);
            for sparsity in sparsities.filter(|s| *s < 1.0) {
                assert_eq!(
                    magnitude_threshold(&w, sparsity).to_bits(),
                    sorted_reference(&w, sparsity).to_bits(),
                    "len {n}, sparsity {sparsity}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no NaN weights")]
    fn nan_weights_have_no_threshold() {
        let mut data = vec![0.5f32; BRACKET_MIN + 5];
        data[BRACKET_MIN + 2] = f32::NAN;
        let _ = magnitude_threshold(&Tensor::from_vec([BRACKET_MIN + 5], data), 0.5);
    }

    #[test]
    fn nan_weights_pass_when_nothing_is_ranked() {
        let w = Tensor::from_vec([4], vec![f32::NAN, 1.0, -2.0, 3.0]);
        assert_eq!(magnitude_threshold(&w, 0.2), -1.0);
    }

    /// The pass as it read with an f32 mask tensor: each layer's
    /// threshold from the full sort, a `0.0`/`1.0` mask of
    /// `|w| > threshold`, installed through [`Param::set_mask`].
    fn f32_mask_reference(net: &mut Network, sparsity: f64) -> PruneReport {
        let (mut total, mut pruned, mut per_layer) = (0, 0, Vec::new());
        for_each_weight_param(net, |label, param| {
            let threshold = sorted_reference(&param.value, sparsity);
            let mask = Tensor::from_fn(param.value.shape().dims().to_vec(), |i| {
                if param.value.data()[i].abs() <= threshold {
                    0.0
                } else {
                    1.0
                }
            });
            let (n, p) = (mask.len(), mask.count_zeros(0.0));
            param.set_mask(mask);
            per_layer.push((label.to_string(), p as f64 / n as f64));
            total += n;
            pruned += p;
        });
        PruneReport {
            total_weights: total,
            pruned_weights: pruned,
            overall_sparsity: pruned as f64 / total as f64,
            per_layer,
        }
    }

    /// Writes `−0.0`, subnormals and ties through every weight tensor,
    /// and `extra` (NaN, `±Inf`, …) in turn at one position in 89, so
    /// masking meets each of them.
    pub(crate) fn strew_specials(net: &mut Network, extra: &[f32]) {
        for_each_weight_param(net, |_, param| {
            for (i, v) in param.value.data_mut().iter_mut().enumerate() {
                *v = match i % 89 {
                    3 => -0.0,
                    11 => -f32::from_bits(7),
                    17 => f32::from_bits(0x0040_0000),
                    23 => 0.015625,
                    29 => -0.015625,
                    41 if !extra.is_empty() => extra[i / 89 % extra.len()],
                    _ => *v,
                };
            }
        });
    }

    /// Every value's bits and every mask of two networks, pairwise.
    pub(crate) fn assert_same_params(a: &mut Network, b: &mut Network) {
        let bits = |p: &Param| {
            p.value
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for (i, (p, q)) in a.params_mut().into_iter().zip(b.params_mut()).enumerate() {
            assert_eq!(bits(p), bits(q), "parameter {i}'s values");
            assert_eq!(p.mask, q.mask, "parameter {i}'s mask");
        }
    }

    #[test]
    fn predicate_masks_match_the_f32_mask_pass() {
        // Width 0.25: the widest convs (147 456 weights) take the
        // sampled bracket, the first ones sweep the whole range.
        for sparsity in [0.0, 0.3, 0.6956, 0.99] {
            let mut a = vgg16_width(10, 0.25).network;
            let mut b = vgg16_width(10, 0.25).network;
            let infinities = [f32::INFINITY, f32::NEG_INFINITY];
            strew_specials(&mut a, &infinities);
            strew_specials(&mut b, &infinities);
            let got = prune_network(&mut a, sparsity);
            assert_eq!(got, f32_mask_reference(&mut b, sparsity), "{sparsity}");
            assert_same_params(&mut a, &mut b);
        }
    }

    #[test]
    fn prune_hits_target_sparsity() {
        let mut model = vgg16_width(10, 0.1);
        for &target in &[0.25, 0.5, 0.8] {
            let report = prune_network(&mut model.network, target);
            assert!(
                (report.overall_sparsity - target).abs() < 0.02,
                "target {target}, got {}",
                report.overall_sparsity
            );
        }
    }

    #[test]
    fn pruned_network_still_runs() {
        let mut model = vgg16_width(10, 0.1);
        prune_network(&mut model.network, 0.7);
        let y = model.network.forward(
            &cnn_stack_tensor::Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn network_sparsity_reflects_pruning() {
        let mut model = vgg16_width(10, 0.1);
        prune_network(&mut model.network, 0.6);
        let s = model.network.weight_sparsity(&[1, 3, 32, 32]);
        // BN gammas count as weights too, so overall is slightly below
        // the conv/linear target.
        assert!(s > 0.5, "sparsity {s}");
    }

    #[test]
    fn resblock_convs_are_pruned() {
        let mut model = cnn_stack_models::resnet18_width(10, 0.1);
        let report = prune_network(&mut model.network, 0.5);
        let resblock_layers = report
            .per_layer
            .iter()
            .filter(|(n, _)| n.contains("resblock"))
            .count();
        // 8 blocks × 2 convs + 3 projection shortcuts.
        assert_eq!(resblock_layers, 19);
    }

    #[test]
    fn iterative_prune_monotone_and_mask_respected() {
        let mut model = vgg16_width(10, 0.1);
        let schedule = PruneSchedule::explicit(vec![0.3, 0.5, 0.7]);
        let mut rounds = 0;
        let report = iterative_prune(&mut model.network, &schedule, |net, _round| {
            rounds += 1;
            // Simulate fine-tuning: a gradient-like update everywhere.
            for p in net.params_mut() {
                let g = Tensor::full(p.value.shape().dims().to_vec(), 0.01);
                p.value.axpy(-1.0, &g);
                p.apply_mask();
            }
        });
        assert_eq!(rounds, 3);
        assert!((report.overall_sparsity - 0.7).abs() < 0.02);
        // Masked weights survived the fake fine-tuning as zeros.
        let conv = model
            .network
            .layer_mut(0)
            .unwrap()
            .as_any_mut()
            .downcast_mut::<cnn_stack_nn::Conv2d>()
            .unwrap();
        let zeros = conv.weight().value.count_zeros(0.0);
        assert!(zeros as f64 / conv.weight().value.len() as f64 > 0.65);
    }

    #[test]
    fn paper_schedule_shape() {
        let s = PruneSchedule::paper(0.1, 0.9);
        assert!((s.targets()[0] - 0.5).abs() < 1e-9);
        assert!(s.targets().last().unwrap() <= &0.9);
        assert!(s.targets().len() >= 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn explicit_schedule_validated() {
        let _ = PruneSchedule::explicit(vec![0.5, 0.4]);
    }

    #[test]
    #[should_panic(expected = "sparsity must be in")]
    fn full_sparsity_rejected() {
        let mut model = vgg16_width(10, 0.1);
        let _ = prune_network(&mut model.network, 1.0);
    }
}
