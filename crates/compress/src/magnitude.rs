//! Deep Compression weight pruning (Han et al., the paper's §III-A /
//! §V-B.1 technique).
//!
//! The network is trained dense, then all weights below a per-layer
//! magnitude threshold are removed and the survivors fine-tuned; the
//! threshold rises iteratively until the target sparsity is reached. The
//! masks installed here pin pruned weights to zero so SGD fine-tuning
//! cannot revive them (see [`cnn_stack_nn::Param::set_mask`]).

use crate::visit::for_each_weight_param;
use cnn_stack_nn::Network;
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

    for_each_weight_param(net, |label, param| {
        let (t, p, s) = prune_param_tensor(param, sparsity);
        per_layer.push((label.to_string(), s));
        total += t;
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

/// Prunes one parameter tensor to `sparsity`, installing a mask.
/// Returns `(total, pruned, achieved_sparsity)`.
fn prune_param_tensor(param: &mut cnn_stack_nn::Param, sparsity: f64) -> (usize, usize, f64) {
    let n = param.value.len();
    let threshold = magnitude_threshold(&param.value, sparsity);
    let mask = Tensor::from_fn(param.value.shape().dims().to_vec(), |i| {
        if param.value.data()[i].abs() <= threshold {
            0.0
        } else {
            1.0
        }
    });
    let pruned = mask.count_zeros(0.0);
    param.set_mask(mask);
    (n, pruned, pruned as f64 / n as f64)
}

/// The |w| value below which `sparsity` of the tensor's entries fall.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1)`.
pub fn magnitude_threshold(weights: &Tensor, sparsity: f64) -> f32 {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
    if sparsity == 0.0 {
        return -1.0; // nothing is <= -1 in magnitude
    }
    let mut mags: Vec<f32> = weights.data().iter().map(|v| v.abs()).collect();
    let k = ((mags.len() as f64 * sparsity) as usize).min(mags.len() - 1);
    // Threshold sits at the k-th smallest magnitude: everything <= it is
    // pruned. Only that one order statistic is read, so select it in
    // O(n) instead of sorting.
    if k == 0 {
        -1.0
    } else {
        let by_magnitude = |a: &f32, b: &f32| a.partial_cmp(b).expect("no NaN weights");
        *mags.select_nth_unstable_by(k - 1, by_magnitude).1
    }
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
mod tests {
    use super::*;
    use cnn_stack_models::vgg16_width;
    use cnn_stack_nn::{ExecConfig, Phase};

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
        let mut cases: Vec<Vec<f32>> = Vec::new();
        for len in [1usize, 2, 3, 7, 64, 1000, 4097] {
            // Continuous values, then heavy ties (signed, so `abs`
            // merges ±v and ±0), then all equal.
            cases.push((0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
            cases.push(
                (0..len)
                    .map(|_| [-0.5f32, -0.0, 0.0, 0.25, 0.5][rng.gen_range(0..5usize)])
                    .collect(),
            );
            cases.push(vec![-0.75; len]);
        }
        for data in cases {
            let n = data.len();
            let w = Tensor::from_vec([1, n], data);
            // k = 0, 1, len - 1 (also via the clamp), and the interior.
            let edges = [0.0, 0.5 / n as f64, 1.5 / n as f64, 1.0 - 0.5 / n as f64];
            let sparsities = edges.into_iter().chain([0.1, 0.5, 0.9, 0.999_999]);
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
