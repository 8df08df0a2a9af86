//! Property tests pinning the stand-alone kernels to naive reference
//! implementations: depthwise convolution, max/average pooling, ReLU and
//! the fused im2col→pack-B packers.
//!
//! Besides the finite-value equivalence, these deliberately exercise the
//! IEEE-754 corners the kernels commit to:
//!
//! * depthwise propagates NaN/Inf — there is no zero-tap skip, so
//!   `0.0 * NaN` stays NaN (same policy as the GEMM kernels);
//! * `MaxPool2d` *flushes* NaN — the `>` comparison never lets NaN win,
//!   and an all-NaN window collapses to `-inf`;
//! * `GlobalAvgPool` propagates NaN/Inf through the plane sum;
//! * `ReLU` flushes NaN to `0.0` (`f32::max` returns the non-NaN arm)
//!   and maps `-inf` to `0.0`, `+inf` to `+inf`.

use cnn_stack::nn::{DepthwiseConv2d, ExecConfig, GlobalAvgPool, Layer, MaxPool2d, Phase, ReLU};
use cnn_stack::parallel::Schedule;
use cnn_stack::tensor::depthwise::depthwise_conv2d_named;
use cnn_stack::tensor::gemm::gemm_kernel_names;
use cnn_stack::tensor::{
    im2col, pack_b_im2col_batch_into, pack_b_im2col_into, pack_b_into, Conv2dGeometry, GemmPlan,
    Tensor, NR,
};
use proptest::prelude::*;

/// Bitwise-ish f32 equality: NaN matches NaN, everything else must
/// compare equal (covers ±inf; treats -0.0 == 0.0, which is fine here).
fn same_f32(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

fn assert_tensors_match(actual: &Tensor, expected: &[f32]) {
    assert_eq!(actual.data().len(), expected.len());
    for (i, (&a, &e)) in actual.data().iter().zip(expected).enumerate() {
        assert!(
            same_f32(a, e),
            "element {} differs: kernel={}, reference={}",
            i,
            a,
            e
        );
    }
}

// ---------------------------------------------------------------------------
// Depthwise convolution
// ---------------------------------------------------------------------------

/// Naive per-output-element depthwise convolution, accumulating taps in
/// the same ascending (kh, kw) order as the kernel so results are
/// bit-identical, NaN included.
#[allow(clippy::too_many_arguments)]
fn naive_depthwise(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Vec<f32> {
    let out_h = (h + 2 * padding - k) / stride + 1;
    let out_w = (w + 2 * padding - k) / stride + 1;
    let mut out = vec![0.0f32; n * c * out_h * out_w];
    for img in 0..n {
        for ch in 0..c {
            let x = &input[(img * c + ch) * h * w..(img * c + ch + 1) * h * w];
            let f = &weight[ch * k * k..(ch + 1) * k * k];
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = bias[ch];
                    for kh in 0..k {
                        for kw in 0..k {
                            let ih = (oh * stride + kh) as isize - padding as isize;
                            let iw = (ow * stride + kw) as isize - padding as isize;
                            if ih < 0 || ih as usize >= h || iw < 0 || iw as usize >= w {
                                continue;
                            }
                            acc += f[kh * k + kw] * x[ih as usize * w + iw as usize];
                        }
                    }
                    out[((img * c + ch) * out_h + oh) * out_w + ow] = acc;
                }
            }
        }
    }
    out
}

/// One depthwise problem: shape, filter geometry, fused ReLU, data.
#[derive(Clone, Debug)]
struct DwCase {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    relu: bool,
    input: Vec<f32>,
    weight: Vec<f32>,
    bias: Vec<f32>,
}

/// Plane sides the kernel's vector layout turns on, drawn half the
/// time: 1, 2, 4, 16 and 32 divide or are multiples of the 16-lane
/// vector (a vector holds several channels, exactly one plane, or whole
/// rows), 3, 5, 7, 17 and 33 do not (vectors straddle rows and channel
/// planes, and a 33×33 plane has more positions than one mask table
/// holds).
const DW_SIDES: [usize; 10] = [1, 2, 4, 16, 32, 3, 5, 7, 17, 33];

/// A plane side in 1..=34, one of [`DW_SIDES`] half the time.
fn dw_side() -> impl Strategy<Value = usize> {
    (0usize..2 * DW_SIDES.len(), 1usize..=34)
        .prop_map(|(pick, side)| DW_SIDES.get(pick).copied().unwrap_or(side))
}

/// Channels 1..=40, so vectors straddle channel planes and an image's
/// last vector ends ragged; independent `h` and `w` in 1..=34 (half of
/// each drawn from [`DW_SIDES`]); `k ∈ {1, 3, 5}`, stride 1..=3, padding
/// 0..=2 (stride 1 with "same" padding takes the contiguous loads, the
/// rest the permuted picks or, for lanes spread over more than 64
/// inputs, the gather), ReLU on/off.
fn depthwise_case() -> impl Strategy<Value = DwCase> {
    (
        (1usize..3, 1usize..=40, dw_side(), dw_side()),
        (0usize..3, 1usize..=3, 0usize..=2, 0usize..2),
    )
        .prop_flat_map(|((n, c, h, w), (k_pick, stride, padding, relu))| {
            let k = [1, 3, 5][k_pick];
            (
                proptest::collection::vec(-4.0f32..4.0, n * c * h * w),
                proptest::collection::vec(-2.0f32..2.0, c * k * k),
                proptest::collection::vec(-1.0f32..1.0, c),
            )
                .prop_map(move |(input, weight, bias)| DwCase {
                    n,
                    c,
                    h,
                    w,
                    k,
                    stride,
                    padding,
                    relu: relu == 1,
                    input,
                    weight,
                    bias,
                })
        })
}

impl DwCase {
    fn fits(&self) -> bool {
        self.h + 2 * self.padding >= self.k && self.w + 2 * self.padding >= self.k
    }

    /// The layer's output on `threads` workers.
    fn run(&self, threads: usize) -> Tensor {
        let mut layer = DepthwiseConv2d::new(self.c, self.k, self.stride, self.padding, 42);
        layer
            .weight_mut()
            .value
            .data_mut()
            .copy_from_slice(&self.weight);
        layer
            .bias_mut()
            .value
            .data_mut()
            .copy_from_slice(&self.bias);
        let cfg = ExecConfig {
            fused_relu: self.relu,
            ..ExecConfig::with_threads(threads)
        };
        let x = Tensor::from_vec([self.n, self.c, self.h, self.w], self.input.clone());
        layer.forward(&x, Phase::Eval, &cfg)
    }

    /// The naive reference, clamped by `max(0)` when ReLU is fused.
    fn reference(&self) -> Vec<f32> {
        let mut want = naive_depthwise(
            &self.input,
            &self.weight,
            &self.bias,
            self.n,
            self.c,
            self.h,
            self.w,
            self.k,
            self.stride,
            self.padding,
        );
        if self.relu {
            for v in &mut want {
                *v = v.max(0.0);
            }
        }
        want
    }

    /// Checks the serial kernel against the reference, that three
    /// workers (parallel regions over image × run-of-periods grains)
    /// reproduce the serial bits, and that so does every instantiation
    /// this host runs (the dispatch picks one of them).
    fn check(&self) {
        let serial = self.run(1);
        assert_tensors_match(&serial, &self.reference());
        let parallel = self.run(3);
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(serial.data()),
            bits(parallel.data()),
            "threads 1 vs 3 differ"
        );
        let g = Conv2dGeometry::new(1, self.h, self.w, self.k, self.k, self.stride, self.padding);
        for kernel in gemm_kernel_names() {
            let mut out = vec![f32::NAN; serial.data().len()];
            depthwise_conv2d_named(
                kernel,
                &self.input,
                &self.weight,
                &self.bias,
                self.c,
                &g,
                self.relu,
                &mut out,
                1,
                Schedule::Static,
            );
            assert_eq!(bits(&out), bits(serial.data()), "{kernel} differs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn depthwise_matches_naive_reference(case in depthwise_case()) {
        prop_assume!(case.fits());
        case.check();
    }

    #[test]
    fn depthwise_propagates_nan_and_inf(case in depthwise_case(), poison in 0usize..2) {
        prop_assume!(case.fits());
        // Poison one input element per channel plane with NaN or +inf
        // (and zero a weight, which must not stop it); the reference and
        // the kernel must agree on exactly which outputs it reaches.
        let mut case = case;
        let plane = case.h * case.w;
        for (i, px) in case.input.chunks_mut(plane).enumerate() {
            px[(i * 7) % plane] = if poison == 0 { f32::NAN } else { f32::INFINITY };
        }
        case.weight[0] = 0.0;
        case.check();
    }
}

/// Regression for the removed zero-tap skip: a zero weight times a NaN
/// input must still produce NaN, exactly like the GEMM kernels.
#[test]
fn depthwise_zero_weight_times_nan_is_nan() {
    let mut layer = DepthwiseConv2d::new(1, 1, 1, 0, 7);
    layer.weight_mut().value.data_mut()[0] = 0.0;
    layer.bias_mut().value.data_mut()[0] = 0.0;
    let x = Tensor::from_vec([1, 1, 2, 2], vec![f32::NAN, 1.0, -1.0, f32::NAN]);
    let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
    assert!(y.data()[0].is_nan(), "0.0 * NaN must stay NaN");
    assert_eq!(y.data()[1], 0.0);
    assert_eq!(y.data()[2], 0.0);
    assert!(y.data()[3].is_nan());
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Reference max-pool: each window folded `if x > best` from `-inf` in
/// (dy, dx) order, the kernel's contract — NaN never wins, an all-NaN
/// window yields `-inf`, and of equal values (`-0.0` and `+0.0`) the
/// first stays, which `f32::max` would not pin.
fn naive_maxpool(input: &[f32], n: usize, c: usize, h: usize, w: usize, window: usize) -> Vec<f32> {
    let out_h = h / window;
    let out_w = w / window;
    let mut out = Vec::with_capacity(n * c * out_h * out_w);
    for img in 0..n {
        for ch in 0..c {
            let plane = &input[(img * c + ch) * h * w..(img * c + ch + 1) * h * w];
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut best = f32::NEG_INFINITY;
                    for dh in 0..window {
                        for dw in 0..window {
                            let x = plane[(oh * window + dh) * w + ow * window + dw];
                            if x > best {
                                best = x;
                            }
                        }
                    }
                    out.push(best);
                }
            }
        }
    }
    out
}

/// The layer's serial output, as bit patterns.
fn maxpool_bits(n: usize, c: usize, h: usize, w: usize, window: usize, values: &[f32]) -> Vec<u32> {
    let mut layer = MaxPool2d::new(window);
    let x = Tensor::from_vec([n, c, h, w], values.to_vec());
    let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
    y.data().iter().map(|v| v.to_bits()).collect()
}

/// (n, c, h, w, window, values) with h and w divisible by window — the
/// kernel asserts divisibility. Windows 1..=3, so 2 (the compiled-in
/// width) and the runtime widths both run, with odd windows pairing
/// their last line with itself.
fn maxpool_case() -> impl Strategy<Value = (usize, usize, usize, usize, usize, Vec<f32>)> {
    (1usize..3, 1usize..4, 1usize..4, 1usize..4, 1usize..4).prop_flat_map(
        |(n, c, bh, bw, window)| {
            let (h, w) = (bh * window, bw * window);
            let values = proptest::collection::vec(-8.0f32..8.0, n * c * h * w);
            (Just(n), Just(c), Just(h), Just(w), Just(window), values)
        },
    )
}

/// Window-2 planes two wide (one output column) or a few wide, filled
/// from `{-0.0, +0.0, ±1, NaN, ±inf}` so that most windows hold ties of
/// signed zeros or of equal values.
fn maxpool_tie_case() -> impl Strategy<Value = (usize, usize, usize, usize, Vec<f32>)> {
    const PICKS: [f32; 8] = [-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, f32::NAN, f32::NEG_INFINITY];
    (1usize..3, 1usize..5, 1usize..6, 0usize..2, 1usize..6).prop_flat_map(
        |(n, c, bh, two_wide, bw)| {
            let (h, w) = (bh * 2, if two_wide == 1 { 2 } else { bw * 2 });
            let values = proptest::collection::vec(0usize..PICKS.len(), n * c * h * w)
                .prop_map(|picks| picks.into_iter().map(|i| PICKS[i]).collect::<Vec<_>>());
            (Just(n), Just(c), Just(h), Just(w), values)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maxpool_matches_naive_reference((n, c, h, w, window, values) in maxpool_case()) {
        let expected = naive_maxpool(&values, n, c, h, w, window);
        let bits: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(maxpool_bits(n, c, h, w, window, &values), bits);
    }

    #[test]
    fn maxpool_flushes_nan((n, c, h, w, window, values) in maxpool_case()) {
        // Scatter NaN over some elements; the `>` comparison must never
        // let NaN win, so the result equals the reference on the same
        // NaN-poisoned input.
        let mut values = values;
        for i in (0..values.len()).step_by(3) {
            values[i] = f32::NAN;
        }
        let mut layer = MaxPool2d::new(window);
        let x = Tensor::from_vec([n, c, h, w], values.clone());
        let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
        let expected = naive_maxpool(&values, n, c, h, w, window);
        assert_tensors_match(&y, &expected);
        prop_assert!(y.data().iter().all(|v| !v.is_nan()), "max-pool must flush NaN");
    }

    #[test]
    fn maxpool_keeps_the_first_of_tied_values((n, c, h, w, values) in maxpool_tie_case()) {
        // Bit for bit: a window of -0.0 then +0.0 pools to -0.0, of
        // +0.0 then -0.0 to +0.0.
        let expected = naive_maxpool(&values, n, c, h, w, 2);
        let bits: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(maxpool_bits(n, c, h, w, 2, &values), bits);
    }
}

/// Pinned signed-zero ties on a two-wide plane: the first zero of each
/// window in (dy, dx) order survives.
#[test]
fn maxpool_signed_zero_ties_keep_the_first() {
    let values = [
        -0.0,
        0.0,
        0.0,
        -0.0,
        0.0,
        -0.0,
        -0.0,
        -0.0,
        f32::NAN,
        -0.0,
        0.0,
        f32::NAN,
    ];
    let got = maxpool_bits(1, 1, 6, 2, 2, &values);
    let want = [-0.0f32, 0.0, -0.0].map(f32::to_bits);
    assert_eq!(got, want);
}

/// An all-NaN window has no winner under `>`, so the initial `-inf`
/// survives — the documented flush-to-`-inf` corner.
#[test]
fn maxpool_all_nan_window_yields_neg_infinity() {
    let mut layer = MaxPool2d::new(2);
    let x = Tensor::from_vec([1, 1, 2, 2], vec![f32::NAN; 4]);
    let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
    assert_eq!(y.data(), &[f32::NEG_INFINITY]);
}

/// The kernel refuses ragged shapes outright rather than silently
/// truncating the border.
#[test]
fn maxpool_rejects_non_divisible_shapes() {
    let result = std::panic::catch_unwind(|| {
        let mut layer = MaxPool2d::new(2);
        let x = Tensor::zeros([1, 1, 5, 4]);
        layer.forward(&x, Phase::Eval, &ExecConfig::serial())
    });
    assert!(result.is_err(), "5x4 input with window 2 must panic");
}

// ---------------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn global_avg_pool_matches_plane_mean(
        (n, c, h, w) in (1usize..3, 1usize..5, 1usize..6, 1usize..6),
        seed in 0u64..1000,
    ) {
        let x = Tensor::from_fn([n, c, h, w], |i| {
            ((i as u64 * 31 + seed) % 17) as f32 * 0.5 - 4.0
        });
        let mut layer = GlobalAvgPool::new();
        let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
        prop_assert_eq!(y.shape().dims(), &[n, c, 1, 1]);
        let plane = h * w;
        for img in 0..n {
            for ch in 0..c {
                let slice = &x.data()[(img * c + ch) * plane..(img * c + ch + 1) * plane];
                let mean: f32 = slice.iter().sum::<f32>() / plane as f32;
                prop_assert!(same_f32(y.data()[img * c + ch], mean));
            }
        }
    }

    #[test]
    fn global_avg_pool_propagates_specials(
        (h, w) in (1usize..6, 1usize..6),
        poison in 0usize..2,
    ) {
        // Channel 0 poisoned, channel 1 clean: the plane sum must carry
        // NaN/Inf through channel 0 and leave channel 1 untouched.
        let plane = h * w;
        let mut values = vec![1.0f32; 2 * plane];
        values[plane / 2] = if poison == 0 { f32::NAN } else { f32::INFINITY };
        let x = Tensor::from_vec([1, 2, h, w], values);
        let mut layer = GlobalAvgPool::new();
        let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
        if poison == 0 {
            prop_assert!(y.data()[0].is_nan(), "NaN must propagate through the mean");
        } else {
            prop_assert_eq!(y.data()[0], f32::INFINITY);
        }
        prop_assert_eq!(y.data()[1], 1.0);
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relu_matches_reference_and_flushes_nan(
        values in proptest::collection::vec(-8.0f32..8.0, 1..64),
        special in 0usize..4,
    ) {
        let mut values = values;
        // Splice one special into every case so the corners are always hit.
        let idx = values.len() / 2;
        values[idx] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][special];
        let x = Tensor::from_vec([values.len()], values.clone());
        let mut layer = ReLU::new();
        let y = layer.forward(&x, Phase::Eval, &ExecConfig::serial());
        for (&out, &inp) in y.data().iter().zip(&values) {
            if inp.is_nan() {
                // f32::max returns the non-NaN argument: NaN flushes to 0.
                prop_assert_eq!(out, 0.0, "ReLU must flush NaN to 0.0");
            } else {
                prop_assert!(same_f32(out, inp.max(0.0)));
            }
            prop_assert!(out >= 0.0 || out == 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Fused im2col → pack-B
// ---------------------------------------------------------------------------

/// What the tail of every packer destination is pre-filled with: a NaN
/// with a payload no kernel produces, so "untouched" is a bit compare.
const CANARY: u32 = 0x7fc0_1234;

/// Checks both fused packers against the two-step reference — `im2col`
/// per image, matrices concatenated along the column axis, `pack_b_into`
/// — bit for bit, with the destination pre-filled with NaN and `NR`
/// elements longer than the panel region (which must stay untouched).
/// Every third input element is NaN or ±Inf: a packer only moves bits.
fn check_im2col_packers(images: usize, geom: &Conv2dGeometry) {
    let in_img = geom.in_channels * geom.in_h * geom.in_w;
    let input: Vec<f32> = (0..images * in_img)
        .map(|i| match i % 9 {
            0 => f32::NAN,
            3 => f32::INFINITY,
            6 => f32::NEG_INFINITY,
            _ => (i as f32 * 0.37).sin(),
        })
        .collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (k, plane) = (geom.patch_len(), geom.out_positions());
    for n in [images, 1] {
        let merged = n * plane;
        let mut concat = vec![0.0f32; k * merged];
        for img in 0..n {
            let cols = im2col(&input[img * in_img..(img + 1) * in_img], geom);
            for p in 0..k {
                concat[p * merged + img * plane..p * merged + (img + 1) * plane]
                    .copy_from_slice(&cols.data()[p * plane..(p + 1) * plane]);
            }
        }
        let plan = GemmPlan::new(1, k, merged);
        let mut want = vec![0.0f32; plan.packed_b_elems()];
        pack_b_into(&plan, &concat, &mut want);

        let canary = f32::from_bits(CANARY);
        let mut got = vec![canary; plan.packed_b_elems() + NR];
        pack_b_im2col_batch_into(&input[..n * in_img], n, geom, &mut got);
        let (body, tail) = got.split_at(plan.packed_b_elems());
        assert_eq!(bits(body), bits(&want), "batch packer, n={n}, {geom:?}");
        assert!(
            tail.iter().all(|v| v.to_bits() == CANARY),
            "batch packer wrote past its panels, n={n}, {geom:?}"
        );
        if n == 1 {
            let mut single = vec![canary; plan.packed_b_elems() + NR];
            pack_b_im2col_into(&input[..in_img], geom, &mut single);
            assert_eq!(bits(&single), bits(&got), "single-image packer, {geom:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Non-square planes on both sides of `NR`, every kernel/stride/pad
    /// mix the models use (and some they do not), batches whose merged
    /// columns end mid-panel.
    #[test]
    fn im2col_packers_match_im2col_then_pack(
        (in_c, h, w) in (1usize..=9, 1usize..=34, 1usize..=34),
        (k_pick, stride, padding, images) in (0usize..4, 1usize..=3, 0usize..=2, 1usize..=9),
    ) {
        let k = [1, 2, 3, 5][k_pick];
        prop_assume!(h != w && h + 2 * padding >= k && w + 2 * padding >= k);
        check_im2col_packers(images, &Conv2dGeometry::new(in_c, h, w, k, k, stride, padding));
    }
}

/// The panel/plane alignments the property can only hit by luck.
#[test]
fn im2col_packers_pinned_alignments() {
    for (images, geom) in [
        // One ragged panel straddling three 2×2 images (12 live columns),
        // and five of them (a full panel of four, then one).
        (3, Conv2dGeometry::new(3, 2, 2, 3, 3, 1, 1)),
        (5, Conv2dGeometry::new(3, 2, 2, 3, 3, 1, 1)),
        // out_w = NR exactly: every panel is one whole output row.
        (2, Conv2dGeometry::new(2, 5, NR, 3, 3, 1, 1)),
        // out_w = NR + 1: every panel after the first straddles two rows.
        (2, Conv2dGeometry::new(2, 5, NR + 1, 3, 3, 1, 1)),
        // A plane smaller than its padding: most taps read only zeros.
        (3, Conv2dGeometry::new(2, 1, 2, 3, 3, 1, 2)),
        // MobileNet's strided stem and a wide strided plane.
        (2, Conv2dGeometry::new(3, 32, 32, 3, 3, 2, 1)),
        (1, Conv2dGeometry::new(1, 3, 40, 3, 3, 2, 1)),
    ] {
        check_im2col_packers(images, &geom);
    }
}
