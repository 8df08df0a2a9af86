//! Cross-algorithm convolution conformance harness.
//!
//! Every convolution kernel in the registry (`AlgoChoice::ALL`: direct,
//! im2col over the packed GEMM on f32 panels or on 2-bit codes,
//! Winograd F(2×2,3×3) and F(4×4,3×3), and CSR × im2col) is run
//! against one naive reference
//! (loop order matched to the direct kernel) across randomized
//! shape/stride/pad/channel grids and a curated list of degenerate
//! shapes. Each kernel carries its own error budget, stated once in
//! [`tolerance`]:
//!
//! * **Bit-exact** — direct and CSR accumulate in the reference order,
//!   so their outputs must match the reference to the bit (CSR for
//!   finite weights: with a ±Inf weight, the im2col lowering's padding
//!   taps give NaN where the direct loop skips them); the code row must
//!   match `im2col-packed` on the same (dequantised) weights to the
//!   bit.
//! * **Relative** — im2col reassociates the reduction (GEMM blocking),
//!   Winograd evaluates it through transform matrices whose
//!   conditioning amplifies rounding; each gets a max-norm relative
//!   budget sized to its reassociation depth.
//!
//! The harness also checks the NaN/Inf propagation contract (outputs
//! whose receptive field saw a non-finite input must be non-finite;
//! transform-domain algorithms may spread wider but never across batch
//! images) and the workspace-sizing contract (`forward_into` with a
//! NaN-poisoned scratch of exactly `forward_scratch_elems` floats must
//! reproduce `forward` bit-for-bit).

use cnn_stack::nn::{
    AlgoChoice, Conv2d, ConvAlgorithm, ExecConfig, Layer, LayerShape, Phase, WeightFormat,
};
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-algorithm error budget class.
#[derive(Clone, Copy, Debug)]
enum Tolerance {
    /// Same accumulation order as the reference: bitwise equality.
    BitExact,
    /// The same values through the same arithmetic as another row:
    /// bitwise equality with that row on a dense-labelled replica.
    SameBitsAs(AlgoChoice),
    /// Max-norm relative error budget.
    Rel(f32),
}

/// The error budget of each conv row: one arm per kernel, so a new row
/// does not compile until its budget is stated here.
fn tolerance(row: AlgoChoice) -> Tolerance {
    match row {
        AlgoChoice::DirectConv => Tolerance::BitExact,
        AlgoChoice::Im2colPacked => Tolerance::Rel(1e-5),
        // Each stored weight scales one im2col row, in the reference's
        // tap order; padding taps add an exact 0.
        AlgoChoice::CsrConv => Tolerance::BitExact,
        AlgoChoice::Winograd => Tolerance::Rel(2e-4),
        AlgoChoice::WinogradF4 => Tolerance::Rel(1e-3),
        // Its codes decode to the master's values, run on the packed
        // tile and blocking.
        AlgoChoice::TernaryConv => Tolerance::SameBitsAs(AlgoChoice::Im2colPacked),
        AlgoChoice::PackedLinear
        | AlgoChoice::ScalarLinear
        | AlgoChoice::CsrLinear
        | AlgoChoice::TernaryLinear => unreachable!("{row:?} is not a conv row"),
    }
}

/// One row of the conformance table: a conv kernel, the config and
/// label that select it, and its budget.
struct AlgoCase {
    row: AlgoChoice,
    name: &'static str,
    format: WeightFormat,
    cfg: ExecConfig,
    tol: Tolerance,
}

/// Every convolution kernel in the registry.
fn conformance_table() -> Vec<AlgoCase> {
    AlgoChoice::ALL
        .into_iter()
        .filter(|row| row.is_conv())
        .map(|row| {
            let mut cfg = ExecConfig::serial();
            let format = row.select(&mut cfg);
            AlgoCase {
                row,
                name: row.tag(),
                format,
                cfg,
                tol: tolerance(row),
            }
        })
        .collect()
}

/// One convolution shape under test.
#[derive(Clone, Copy, Debug)]
struct ConvShape {
    n: usize,
    in_c: usize,
    out_c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

impl ConvShape {
    fn out_extent(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    fn valid(&self) -> bool {
        self.h + 2 * self.pad >= self.k && self.w + 2 * self.pad >= self.k
    }
}

/// Naive reference convolution, f32 accumulation in the direct
/// kernel's per-output order: `acc = bias; for c, kh, kw { acc += }`.
#[allow(clippy::too_many_arguments)]
fn reference_f32(x: &[f32], weights: &[f32], bias: &[f32], s: ConvShape) -> Vec<f32> {
    let (out_h, out_w) = s.out_extent();
    let mut out = vec![0.0f32; s.n * s.out_c * out_h * out_w];
    let mut pos = 0;
    for img in 0..s.n {
        let xi = &x[img * s.in_c * s.h * s.w..];
        for o in 0..s.out_c {
            let filter = &weights[o * s.in_c * s.k * s.k..];
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = bias[o];
                    for c in 0..s.in_c {
                        for kh in 0..s.k {
                            for kw in 0..s.k {
                                let iy = (oy * s.stride + kh) as isize - s.pad as isize;
                                let ix = (ox * s.stride + kw) as isize - s.pad as isize;
                                if iy < 0 || ix < 0 || iy >= s.h as isize || ix >= s.w as isize {
                                    continue;
                                }
                                let xv = xi[(c * s.h + iy as usize) * s.w + ix as usize];
                                acc += weights[((o * s.in_c + c) * s.k + kh) * s.k + kw] * xv;
                            }
                        }
                    }
                    let _ = filter;
                    out[pos] = acc;
                    pos += 1;
                }
            }
        }
    }
    out
}

/// f64 reference for error-model measurements (the "true" answer).
fn reference_f64(x: &[f32], weights: &[f32], bias: &[f32], s: ConvShape) -> Vec<f64> {
    let (out_h, out_w) = s.out_extent();
    let mut out = vec![0.0f64; s.n * s.out_c * out_h * out_w];
    let mut pos = 0;
    for img in 0..s.n {
        let xi = &x[img * s.in_c * s.h * s.w..];
        for o in 0..s.out_c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = f64::from(bias[o]);
                    for c in 0..s.in_c {
                        for kh in 0..s.k {
                            for kw in 0..s.k {
                                let iy = (oy * s.stride + kh) as isize - s.pad as isize;
                                let ix = (ox * s.stride + kw) as isize - s.pad as isize;
                                if iy < 0 || ix < 0 || iy >= s.h as isize || ix >= s.w as isize {
                                    continue;
                                }
                                let xv = xi[(c * s.h + iy as usize) * s.w + ix as usize];
                                let wv = weights[((o * s.in_c + c) * s.k + kh) * s.k + kw];
                                acc += f64::from(wv) * f64::from(xv);
                            }
                        }
                    }
                    out[pos] = acc;
                    pos += 1;
                }
            }
        }
    }
    out
}

/// Builds a seeded conv layer plus a random input/bias for a shape.
fn build_layer(s: ConvShape, seed: u64) -> (Conv2d, Tensor) {
    let mut conv = Conv2d::new(s.in_c, s.out_c, s.k, s.stride, s.pad, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_b1a5);
    conv.bias_mut().value = Tensor::from_fn([s.out_c], |_| rng.gen_range(-0.5..0.5f32));
    let x = Tensor::from_fn([s.n, s.in_c, s.h, s.w], |_| rng.gen_range(-2.0..2.0f32));
    (conv, x)
}

/// Puts `conv` on the case's row: its label, and — for a row whose
/// precondition is on the weight values (the ternary kernel) — weights
/// snapped to exactly `{−0.25, +0.5}`, non-zero so a poisoned input
/// still reaches every output it should. Where the row applies the
/// layer then runs it; elsewhere (Winograd off 3×3 stride 1) it runs
/// the row's fall-back, which the same budget must cover.
fn put_on_row(conv: &mut Conv2d, case: &AlgoCase, s: ConvShape) {
    let shape = LayerShape::Conv {
        k_h: s.k,
        k_w: s.k,
        stride: s.stride,
    };
    let ternary = !case.row.applies(shape, false) && case.row.applies(shape, true);
    if ternary {
        for w in conv.weight_mut().value.data_mut() {
            *w = if *w >= 0.0 { 0.5 } else { -0.25 };
        }
    }
    conv.set_format(case.format);
    assert_eq!(
        conv.runs(&case.cfg) == case.row,
        case.row.applies(shape, ternary),
        "{}: `applies` and the dispatcher disagree on {s:?}",
        case.name
    );
}

/// Max-norm relative error of `got` against `reference`.
fn max_rel_err(got: &[f32], reference: &[f32]) -> f32 {
    let scale = reference
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(1e-6);
    got.iter()
        .zip(reference)
        .fold(0.0f32, |m, (g, r)| m.max((g - r).abs()))
        / scale
}

fn check_case(case: &AlgoCase, s: ConvShape, seed: u64) {
    let (mut conv, x) = build_layer(s, seed);
    put_on_row(&mut conv, case, s);
    let reference = reference_f32(
        x.data(),
        conv.weight().value.data(),
        conv.bias().value.data(),
        s,
    );
    let got = conv.forward(&x, Phase::Eval, &case.cfg);
    let (out_h, out_w) = s.out_extent();
    assert_eq!(
        got.shape().dims(),
        &[s.n, s.out_c, out_h, out_w],
        "{}: output shape for {s:?}",
        case.name
    );
    // Winograd rows on non-eligible shapes fall back to the direct
    // kernel, so their effective budget there is bit-exactness; the
    // relative budget below covers both regimes.
    let same_bits = |want: &[f32], of: &str| {
        for (i, (g, r)) in got.data().iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                r.to_bits(),
                "{}: bit mismatch with {of} at {i} for {s:?}: {g} vs {r}",
                case.name
            );
        }
    };
    match case.tol {
        Tolerance::BitExact => same_bits(&reference, "the reference"),
        Tolerance::SameBitsAs(row) => {
            let mut cfg = ExecConfig::serial();
            let mut twin = conv.replica();
            twin.set_format(row.select(&mut cfg));
            assert_eq!(twin.runs(&cfg), row, "{}: twin row for {s:?}", case.name);
            same_bits(twin.forward(&x, Phase::Eval, &cfg).data(), row.tag());
        }
        Tolerance::Rel(tol) => {
            let err = max_rel_err(got.data(), &reference);
            assert!(
                err <= tol,
                "{}: rel error {err:e} > budget {tol:e} for {s:?}",
                case.name
            );
        }
    }
}

/// Curated degenerate shapes every algorithm must survive: 1×1 maps,
/// single channels, stride exceeding the kernel, outputs collapsing to
/// a single position, and kernels larger than the unpadded input.
fn degenerate_shapes() -> Vec<ConvShape> {
    vec![
        // 1×1 map, pointwise kernel.
        ConvShape {
            n: 1,
            in_c: 1,
            out_c: 1,
            h: 1,
            w: 1,
            k: 1,
            stride: 1,
            pad: 0,
        },
        // Single input channel, standard 3×3.
        ConvShape {
            n: 2,
            in_c: 1,
            out_c: 4,
            h: 7,
            w: 7,
            k: 3,
            stride: 1,
            pad: 1,
        },
        // Stride larger than the kernel window.
        ConvShape {
            n: 1,
            in_c: 3,
            out_c: 2,
            h: 5,
            w: 5,
            k: 1,
            stride: 3,
            pad: 0,
        },
        // Output collapses to a single 1×1 position.
        ConvShape {
            n: 2,
            in_c: 2,
            out_c: 3,
            h: 3,
            w: 3,
            k: 3,
            stride: 1,
            pad: 0,
        },
        // Kernel wider than the unpadded input (pad makes it fit).
        ConvShape {
            n: 1,
            in_c: 2,
            out_c: 2,
            h: 4,
            w: 4,
            k: 5,
            stride: 1,
            pad: 2,
        },
        // Tiny map where padding supplies most of the window.
        ConvShape {
            n: 1,
            in_c: 1,
            out_c: 1,
            h: 2,
            w: 2,
            k: 3,
            stride: 2,
            pad: 1,
        },
        // Large even-kernel-free odd kernel, strided.
        ConvShape {
            n: 1,
            in_c: 2,
            out_c: 2,
            h: 6,
            w: 6,
            k: 5,
            stride: 2,
            pad: 0,
        },
        // Canonical 3×3 stride-1 same-pad layer (Winograd fast path).
        ConvShape {
            n: 2,
            in_c: 3,
            out_c: 4,
            h: 8,
            w: 8,
            k: 3,
            stride: 1,
            pad: 1,
        },
        // Non-square map, Winograd tile clipping on both axes.
        ConvShape {
            n: 1,
            in_c: 2,
            out_c: 3,
            h: 11,
            w: 9,
            k: 3,
            stride: 1,
            pad: 1,
        },
    ]
}

fn random_shape(rng: &mut ChaCha8Rng) -> ConvShape {
    loop {
        let s = ConvShape {
            n: rng.gen_range(1..=3),
            in_c: rng.gen_range(1..=4),
            out_c: rng.gen_range(1..=5),
            h: rng.gen_range(1..=12),
            w: rng.gen_range(1..=12),
            k: [1usize, 3, 5][rng.gen_range(0..3usize)],
            stride: rng.gen_range(1..=3),
            pad: rng.gen_range(0..=2),
        };
        if s.valid() {
            return s;
        }
    }
}

#[test]
fn all_algorithms_match_reference_on_degenerate_shapes() {
    for (i, s) in degenerate_shapes().into_iter().enumerate() {
        for case in &conformance_table() {
            check_case(case, s, 0xD15C0 + i as u64);
        }
    }
}

#[test]
fn all_algorithms_match_reference_on_random_grid() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC04F);
    for i in 0..24 {
        let s = random_shape(&mut rng);
        for case in &conformance_table() {
            check_case(case, s, 0xA1 + i);
        }
    }
}

/// Output positions whose receptive field contains input `(y0, x0)`.
fn receptive_outputs(s: ConvShape, y0: usize, x0: usize) -> Vec<(usize, usize)> {
    let (out_h, out_w) = s.out_extent();
    let mut hits = Vec::new();
    for oy in 0..out_h {
        for ox in 0..out_w {
            let y_lo = oy * s.stride;
            let x_lo = ox * s.stride;
            // Window rows cover [y_lo - pad, y_lo - pad + k).
            let y_in = (y0 + s.pad) >= y_lo && (y0 + s.pad) < y_lo + s.k;
            let x_in = (x0 + s.pad) >= x_lo && (x0 + s.pad) < x_lo + s.k;
            if y_in && x_in {
                hits.push((oy, ox));
            }
        }
    }
    hits
}

/// Runs the non-finite propagation contract for one poison value.
fn check_poison(poison: f32) {
    let s = ConvShape {
        n: 2,
        in_c: 2,
        out_c: 3,
        h: 8,
        w: 8,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let (y0, x0) = (3, 4);
    for case in &conformance_table() {
        let (mut conv, mut x) = build_layer(s, 0xBAD);
        // Strictly non-zero taps: the direct kernel (and CSR snapshot)
        // skip zero weights, which would mask the poison.
        for wv in conv.weight_mut().value.data_mut() {
            if wv.abs() < 0.05 {
                *wv = 0.05f32.copysign(*wv + 0.01);
            }
        }
        put_on_row(&mut conv, case, s);
        x.data_mut()[y0 * s.w + x0] = poison;
        let got = conv.forward(&x, Phase::Eval, &case.cfg);
        let (out_h, out_w) = s.out_extent();
        let plane = out_h * out_w;
        // Every output whose receptive field saw the poison must be
        // non-finite — transform algorithms may additionally smear it
        // across their tile/plane, but never less than this.
        for o in 0..s.out_c {
            for &(oy, ox) in &receptive_outputs(s, y0, x0) {
                let v = got.data()[(o * out_h + oy) * out_w + ox];
                assert!(
                    !v.is_finite(),
                    "{}: output ({o},{oy},{ox}) in the receptive field of a \
                     {poison} input stayed finite ({v})",
                    case.name
                );
            }
        }
        // Direct-sum algorithms must confine it to the receptive field.
        let spreads = matches!(case.row, AlgoChoice::Winograd | AlgoChoice::WinogradF4);
        if !spreads {
            let hits = receptive_outputs(s, y0, x0);
            for o in 0..s.out_c {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        if hits.contains(&(oy, ox)) {
                            continue;
                        }
                        let v = got.data()[(o * out_h + oy) * out_w + ox];
                        assert!(
                            v.is_finite(),
                            "{}: output ({o},{oy},{ox}) outside the receptive \
                             field went non-finite ({v})",
                            case.name
                        );
                    }
                }
            }
        }
        // No algorithm may smear the poison across batch images.
        for v in &got.data()[plane * s.out_c..] {
            assert!(
                v.is_finite(),
                "{}: poison leaked into a clean batch image",
                case.name
            );
        }
    }
}

#[test]
fn nan_inputs_poison_exactly_their_receptive_fields() {
    check_poison(f32::NAN);
}

#[test]
fn infinite_inputs_poison_their_receptive_fields() {
    check_poison(f32::INFINITY);
}

/// `forward_into` with a NaN-poisoned scratch region of exactly
/// `forward_scratch_elems` floats must reproduce `forward` bit-for-bit:
/// proves the advertised workspace is sufficient and fully initialised
/// before use (the liveness planner hands algorithms recycled arenas).
#[test]
fn advertised_workspace_is_sufficient_and_fully_initialised() {
    let shapes = [
        ConvShape {
            n: 2,
            in_c: 3,
            out_c: 4,
            h: 8,
            w: 8,
            k: 3,
            stride: 1,
            pad: 1,
        },
        ConvShape {
            n: 1,
            in_c: 2,
            out_c: 3,
            h: 11,
            w: 9,
            k: 3,
            stride: 1,
            pad: 1,
        },
        ConvShape {
            n: 1,
            in_c: 2,
            out_c: 2,
            h: 6,
            w: 6,
            k: 5,
            stride: 2,
            pad: 2,
        },
        ConvShape {
            n: 2,
            in_c: 1,
            out_c: 2,
            h: 5,
            w: 5,
            k: 1,
            stride: 1,
            pad: 0,
        },
    ];
    for s in shapes {
        for case in &conformance_table() {
            let (mut conv, x) = build_layer(s, 0x5C4A);
            put_on_row(&mut conv, case, s);
            let cfg = case.cfg;
            let want = conv.forward(&x, Phase::Eval, &cfg);
            Layer::prepare(&mut conv, &cfg);
            let shape = [s.n, s.in_c, s.h, s.w];
            let scratch_len = Layer::forward_scratch_elems(&conv, &shape, &cfg);
            let mut scratch = vec![f32::NAN; scratch_len];
            let mut out = vec![f32::NAN; want.len()];
            Layer::forward_into(&conv, x.data(), &shape, &mut out, &mut scratch, &cfg);
            for (i, (g, r)) in out.iter().zip(want.data()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{}: forward_into diverged from forward at {i} for {s:?}",
                    case.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tolerance model, Winograd F(4×4) arm: the absolute error is
    /// bounded by (conditioning constant) × (input magnitude) — i.e.
    /// the *relative* error stays flat as the input scale sweeps three
    /// orders of magnitude, because the transforms are linear.
    #[test]
    fn winograd4_error_is_linear_in_magnitude(
        h in 4usize..16, w in 4usize..16,
        in_c in 1usize..4, out_c in 1usize..4,
        pad in 0usize..2, seed in 0u64..64,
    ) {
        const CONDITIONING: f64 = 2048.0;
        let s = ConvShape { n: 1, in_c, out_c, h, w, k: 3, stride: 1, pad };
        prop_assume!(s.valid());
        for magnitude in [1.0f32, 64.0, 4096.0] {
            let (mut conv, x) = build_layer(s, seed);
            let x = Tensor::from_fn(x.shape().dims(), |i| x.data()[i] * magnitude);
            let truth = reference_f64(
                x.data(),
                conv.weight().value.data(),
                conv.bias().value.data(),
                s,
            );
            let cfg = ExecConfig {
                conv_algo: ConvAlgorithm::WinogradF4,
                ..ExecConfig::serial()
            };
            let got = conv.forward(&x, Phase::Eval, &cfg);
            let scale = truth.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-6);
            let err = got
                .data()
                .iter()
                .zip(&truth)
                .fold(0.0f64, |m, (g, r)| m.max((f64::from(*g) - r).abs()))
                / scale;
            let budget = CONDITIONING * f64::from(f32::EPSILON);
            prop_assert!(
                err <= budget,
                "winograd-f4 rel err {err:e} above conditioning budget {budget:e} \
                 at magnitude {magnitude} for {s:?}",
            );
        }
    }

    /// Degenerate-shape sweep for every algorithm: randomized members
    /// of the degenerate families (1×1 maps, single channels,
    /// stride > kernel) stay within each algorithm's budget.
    #[test]
    fn degenerate_families_hold_for_every_algorithm(
        family in 0usize..3, extent in 1usize..7,
        channels in 1usize..4, seed in 0u64..64,
    ) {
        let s = match family {
            // 1×1 pointwise over an arbitrary map.
            0 => ConvShape {
                n: 1, in_c: channels, out_c: channels,
                h: extent, w: extent, k: 1, stride: 1, pad: 0,
            },
            // Single channel in and out.
            1 => ConvShape {
                n: 2, in_c: 1, out_c: 1,
                h: extent + 2, w: extent + 2, k: 3, stride: 1, pad: 1,
            },
            // Stride strictly larger than the kernel.
            _ => ConvShape {
                n: 1, in_c: channels, out_c: 2,
                h: extent + 3, w: extent + 3, k: 1, stride: 3, pad: 0,
            },
        };
        prop_assume!(s.valid());
        for case in &conformance_table() {
            check_case(case, s, seed);
        }
    }
}
