//! Incremental Network Quantisation (Zhou et al., the paper's \[18\]):
//! "the number of bits used to represent each weight is reduced"
//! (§III-C), by constraining weights to powers of two (plus zero) so
//! inference multiplications become shifts.
//!
//! INQ proceeds incrementally: quantise the largest-magnitude fraction of
//! each layer's weights (they matter most and move least), retrain the
//! rest, and repeat until everything is quantised. [`inq_step`] performs
//! one such partition-and-quantise round (freezing quantised weights via
//! the mask-free convention of keeping them fixed points of the
//! projection); [`inq_quantise`] runs the schedule to completion.

use crate::visit::for_each_weight_param;
use cnn_stack_nn::Network;
use cnn_stack_tensor::Tensor;

/// Summary of an INQ pass.
#[derive(Clone, Debug, PartialEq)]
pub struct InqReport {
    /// Weights quantised to powers of two (or zero).
    pub quantised_weights: usize,
    /// Total weights considered.
    pub total_weights: usize,
    /// Codebook bit-width (including the zero/sign encoding).
    pub bits: u32,
    /// Mean squared quantisation error.
    pub mse: f64,
}

/// The power-of-two codebook for a tensor: `±2^e` for
/// `e ∈ [e_max − levels + 1, e_max]`, plus zero, where `2^e_max` is the
/// largest power of two not exceeding `max|w|`.
fn codebook_exponent_range(max_mag: f32, levels: u32) -> (i32, i32) {
    let e_max = if max_mag > 0.0 {
        max_mag.log2().floor() as i32
    } else {
        0
    };
    (e_max - levels as i32 + 1, e_max)
}

/// Quantises a single value to the nearest codebook entry.
fn quantise_value(v: f32, e_lo: i32, e_hi: i32) -> f32 {
    if v == 0.0 {
        return 0.0;
    }
    let mag = v.abs();
    // Values below half the smallest power snap to zero.
    let lowest = (2.0f32).powi(e_lo);
    if mag < lowest * 0.5 {
        return 0.0;
    }
    let e = mag.log2().round().clamp(e_lo as f32, e_hi as f32) as i32;
    let q = (2.0f32).powi(e);
    if v < 0.0 {
        -q
    } else {
        q
    }
}

/// Quantises the `fraction` largest-magnitude entries of a tensor to the
/// power-of-two codebook with `levels` magnitude levels. Returns
/// `(quantised_count, squared_error)`.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]` or `levels == 0`.
pub fn inq_step_tensor(weights: &mut Tensor, fraction: f64, levels: u32) -> (usize, f64) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    assert!(levels > 0, "at least one magnitude level required");
    let n = weights.len();
    let k = ((n as f64) * fraction).round() as usize;
    if k == 0 {
        return (0, 0.0);
    }
    let max_mag = weights.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let (e_lo, e_hi) = codebook_exponent_range(max_mag, levels);
    // Threshold magnitude selecting the top-k.
    let mut mags: Vec<f32> = weights.data().iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| b.partial_cmp(a).expect("no NaN weights"));
    let threshold = mags[k - 1];
    let mut err = 0.0f64;
    let mut count = 0usize;
    for v in weights.data_mut() {
        if v.abs() >= threshold && count < k {
            let q = quantise_value(*v, e_lo, e_hi);
            err += ((*v - q) as f64).powi(2);
            *v = q;
            count += 1;
        }
    }
    (count, err)
}

fn for_each_weight_tensor(net: &mut Network, mut f: impl FnMut(&mut Tensor)) {
    for_each_weight_param(net, |_, param| f(&mut param.value));
}

/// One INQ round over the whole network: quantises the top `fraction` of
/// each weight tensor. Call between fine-tuning epochs for the
/// incremental schedule ([50 %, 75 %, 87.5 %, 100 %] in the original
/// paper).
pub fn inq_step(net: &mut Network, fraction: f64, levels: u32) -> InqReport {
    let mut quantised = 0usize;
    let mut total = 0usize;
    let mut err = 0.0f64;
    for_each_weight_tensor(net, |w| {
        total += w.len();
        let (c, e) = inq_step_tensor(w, fraction, levels);
        quantised += c;
        err += e;
    });
    InqReport {
        quantised_weights: quantised,
        total_weights: total,
        // levels magnitudes + sign + zero: ceil(log2(2*levels + 1)).
        bits: (2 * levels + 1).next_power_of_two().trailing_zeros(),
        mse: if quantised == 0 {
            0.0
        } else {
            err / quantised as f64
        },
    }
}

/// Quantises every weight to the power-of-two codebook in one shot
/// (`fraction = 1`), the terminal state of the INQ schedule.
pub fn inq_quantise(net: &mut Network, levels: u32) -> InqReport {
    inq_step(net, 1.0, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_models::vgg16_width;
    use cnn_stack_nn::{ExecConfig, Phase};

    #[test]
    fn values_snap_to_powers_of_two() {
        let mut w = Tensor::from_vec([1, 6], vec![0.9, -0.26, 0.13, -0.51, 0.001, 0.0]);
        inq_step_tensor(&mut w, 1.0, 4);
        for &v in w.data() {
            if v != 0.0 {
                let e = v.abs().log2();
                assert!((e - e.round()).abs() < 1e-6, "{v} is not a power of two");
            }
        }
        // 0.9 → 1.0? No: e_max = floor(log2(0.9)) = -1 → codebook tops at
        // 0.5; 0.9 clamps to 0.5.
        assert_eq!(w.data()[0], 0.5);
        assert_eq!(w.data()[1], -0.25);
        // Tiny value snaps to zero.
        assert_eq!(w.data()[4], 0.0);
    }

    #[test]
    fn partial_step_quantises_only_the_largest() {
        let mut w = Tensor::from_vec([1, 4], vec![0.8, 0.1, -0.6, 0.05]);
        let (count, _) = inq_step_tensor(&mut w, 0.5, 4);
        assert_eq!(count, 2);
        // The two small weights are untouched.
        assert_eq!(w.data()[1], 0.1);
        assert_eq!(w.data()[3], 0.05);
        // The two large ones are powers of two now.
        assert_eq!(w.data()[0], 0.5);
        assert_eq!(w.data()[2], -0.5);
    }

    #[test]
    fn quantisation_is_idempotent() {
        let mut w = Tensor::from_fn([8, 8], |i| ((i as f32) * 0.11).sin());
        inq_step_tensor(&mut w, 1.0, 4);
        let once = w.clone();
        let (_, err) = inq_step_tensor(&mut w, 1.0, 4);
        assert!(w.allclose(&once, 0.0));
        assert_eq!(err, 0.0);
    }

    #[test]
    fn more_levels_less_error() {
        let make = || Tensor::from_fn([16, 32], |i| ((i * 48271) % 997) as f32 / 500.0 - 1.0);
        let mut coarse = make();
        let mut fine = make();
        let (_, e2) = inq_step_tensor(&mut coarse, 1.0, 2);
        let (_, e6) = inq_step_tensor(&mut fine, 1.0, 6);
        assert!(e6 < e2);
    }

    #[test]
    fn network_quantises_and_runs() {
        let mut model = vgg16_width(10, 0.1);
        let report = inq_quantise(&mut model.network, 7);
        assert_eq!(report.quantised_weights, report.total_weights);
        assert_eq!(report.bits, 4); // 15 codebook entries fit in 4 bits
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn incremental_schedule_reaches_full_coverage() {
        let mut model = vgg16_width(10, 0.05);
        for fraction in [0.5, 0.75, 0.875, 1.0] {
            inq_step(&mut model.network, fraction, 4);
        }
        // Every weight is now on the codebook: a final full step is free.
        let report = inq_step(&mut model.network, 1.0, 4);
        assert_eq!(report.mse, 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let mut w = Tensor::ones([2, 2]);
        let _ = inq_step_tensor(&mut w, 1.5, 4);
    }
}
