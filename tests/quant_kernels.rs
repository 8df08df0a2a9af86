//! Property tests pinning the quantised compute path to its f32
//! reference: the packed engine on 2-bit code panels against the same
//! engine on the f32 panels of the dequantised weights — bit-identical
//! by construction (the codes decode to exactly those panels and run on
//! the same tile and blocking), NaN/Inf activations included: zero
//! codes still multiply, so `0 · NaN` stays NaN exactly like the f32
//! kernel. The guard's quantised→packed demotion relies on this.
//!
//! A `Linear` runs both packed rows as `Outᵀ = W · Xᵀ`; the last test
//! holds that lowering to the explicit `X · Wᵀ` product and the code row
//! to the f32 row, through the layer itself.

use cnn_stack::nn::{AlgoChoice, ExecConfig, Layer, Linear, WeightFormat};
use cnn_stack::parallel::Schedule;
use cnn_stack::tensor::{
    gemm_prepacked_epilogue, pack_a_codes_into, pack_a_into, pack_b_into, pack_b_transposed_into,
    CodePanels, GemmEpilogue, GemmPlan, PackedA, Tensor, MR,
};
use proptest::prelude::*;

/// A `rows × cols` ternary weight from codes `0/1/2` → `0, +wp, −wn`.
fn dense_ternary(rows: usize, cols: usize, codes: &[u8], wp: f32, wn: f32) -> Tensor {
    Tensor::from_fn([rows, cols], |i| match codes[i] {
        1 => wp,
        2 => -wn,
        _ => 0.0,
    })
}

// ---------------------------------------------------------------------------
// Code panels vs f32 panels of the dequantised weights
// ---------------------------------------------------------------------------

/// ((m, k, n), ternary weight codes, (Wp, Wn), activations, poison).
type TernaryGemmCase = (
    (usize, usize, usize),
    Vec<u8>,
    (f32, f32),
    Vec<f32>,
    (usize, usize),
);

/// The widths every case runs besides its drawn one: a batch-1 linear
/// (1), the live columns of 2×2 and larger batch-1 planes (2, 4, 8, 16)
/// and the panel edges beside them (15, 17).
const SKINNY_N: [usize; 7] = [1, 2, 4, 8, 15, 16, 17];

/// `m` off a multiple of `MR` (a short last panel, one to four panels)
/// and `k` off a multiple of 16 — on both sides of the 256-step `kc`
/// block — so a panel's `6·k` codes end inside a word. The activations
/// are `k × 40`: each width runs on their first `n` columns.
fn ternary_gemm_case() -> impl Strategy<Value = TernaryGemmCase> {
    let m = (0usize..4, 1..MR).prop_map(|(q, r)| q * MR + r);
    let k = (0usize..20, 1usize..16).prop_map(|(q, r)| q * 16 + r);
    (m, k, 1usize..40).prop_flat_map(|(m, k, n)| {
        let codes = proptest::collection::vec(0u8..3, m * k);
        let scales = (0.01f32..1.5, 0.01f32..1.5);
        let b = proptest::collection::vec(-2.0f32..2.0, k * ACTIVATION_COLS);
        let poison = (0usize..3, 0..k * ACTIVATION_COLS);
        (Just((m, k, n)), codes, scales, b, poison)
    })
}

/// Columns of a [`ternary_gemm_case`]'s activations: more than the
/// widest drawn `n` and every [`SKINNY_N`].
const ACTIVATION_COLS: usize = 40;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ternary_gemm_bit_identical_to_f32_on_dequantised(
        ((m, k, drawn), codes, (wp, wn), b, (poison, at)) in ternary_gemm_case(),
        relu in 0usize..2,
    ) {
        let weight = dense_ternary(m, k, &codes, wp, wn);
        let epilogue = if relu == 1 { GemmEpilogue::Relu } else { GemmEpilogue::None };
        for n in std::iter::once(drawn).chain(SKINNY_N) {
            let mut b: Vec<f32> = b
                .chunks(ACTIVATION_COLS)
                .flat_map(|r| r[..n].iter().copied())
                .collect();
            // One activation NaN, +Inf or left finite, in a column of
            // this width: it reaches its output column through zero
            // codes too (0 · NaN stays NaN).
            let at = at / ACTIVATION_COLS * n + at % ACTIVATION_COLS % n;
            b[at] = [f32::NAN, f32::INFINITY, b[at]][poison];
            let plan = GemmPlan::new(m, k, n);
            let mut packed_b = vec![0.0f32; plan.packed_b_elems()];
            pack_b_into(&plan, &b, &mut packed_b);

            let mut words = vec![u32::MAX; plan.packed_a_code_words()];
            pack_a_codes_into(&plan, weight.data(), &mut words);
            let codes = PackedA::Codes(CodePanels { words: &words, positive: wp, negative: wn });
            let mut packed_a = vec![0.0f32; plan.packed_a_elems()];
            pack_a_into(&plan, weight.data(), &mut packed_a);

            let mut want = vec![0.0f32; m * n];
            gemm_prepacked_epilogue(
                &plan, PackedA::F32(&packed_a), &packed_b, &mut want, 1, Schedule::Static, epilogue,
            );
            for threads in [1, 3] {
                let mut got = vec![0.0f32; m * n];
                gemm_prepacked_epilogue(
                    &plan, codes, &packed_b, &mut got, threads, Schedule::Dynamic { chunk: 1 },
                    epilogue,
                );
                // Same panel values, same tile, same blocking: equal to
                // the bit wherever the output is not NaN, NaN in the same
                // places.
                let bits = |v: &[f32]| -> Vec<u32> {
                    v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
                };
                prop_assert_eq!(bits(&got), bits(&want), "n {} threads {}", n, threads);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Linear: `W · Xᵀ` against the explicit `X · Wᵀ`
// ---------------------------------------------------------------------------

/// Bit patterns, every NaN as one: the skinny tile may change a NaN's
/// payload, never where a NaN is.
fn nan_blind_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// `Y = X · Wᵀ + b` built from the public tensor API: `X` as MR-row A
/// panels, `Wᵀ` as NR-column B panels, `C` bias-prefilled.
fn x_times_w_transposed(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    (batch, inputs, outputs): (usize, usize, usize),
    epilogue: GemmEpilogue,
) -> Vec<f32> {
    let plan = GemmPlan::new(batch, inputs, outputs);
    let mut pa = vec![0.0f32; plan.packed_a_elems()];
    let mut pb = vec![0.0f32; plan.packed_b_elems()];
    pack_a_into(&plan, x, &mut pa);
    pack_b_transposed_into(&plan, w, &mut pb);
    let mut c: Vec<f32> = (0..batch).flat_map(|_| bias.iter().copied()).collect();
    gemm_prepacked_epilogue(
        &plan,
        PackedA::F32(&pa),
        &pb,
        &mut c,
        1,
        Schedule::Static,
        epilogue,
    );
    c
}

/// A prepared `fc` run once through `forward_into` on `cfg`'s row.
fn run_linear(fc: &mut Linear, x: &[f32], batch: usize, cfg: &ExecConfig) -> Vec<f32> {
    fc.prepare(cfg);
    let shape = [batch, fc.in_features()];
    let mut out = vec![f32::NAN; batch * fc.out_features()];
    let mut scratch = vec![f32::NAN; fc.forward_scratch_elems(&shape, cfg)];
    fc.forward_into(x, &shape, &mut out, &mut scratch, cfg);
    out
}

/// A value of a deterministic sequence in [-1, 1).
fn wave(i: usize, seed: usize) -> f32 {
    ((i * 2654435761 + seed * 97) % 251) as f32 / 125.5 - 1.0
}

#[test]
fn linear_lowering_matches_x_times_w_transposed() {
    for batch in [1, 2, 5, 8, 13, 17] {
        for inputs in [1, 255, 256, 257, 600] {
            for outputs in [1, 5, 6, 7, 16, 17] {
                let case = format!("batch {batch} in {inputs} out {outputs}");
                let mut x: Vec<f32> = (0..batch * inputs).map(|i| wave(i, 1)).collect();
                let n = x.len();
                x[n / 2] = f32::NAN;
                x[n - 1] = f32::INFINITY;
                x[n / 3] = f32::NEG_INFINITY;
                x[0] = -0.0;
                let mut w: Vec<f32> = (0..outputs * inputs).map(|i| wave(i, 2)).collect();
                let n = w.len();
                w[n - 1] = f32::NAN;
                w[n / 2] = f32::NEG_INFINITY;
                w[n / 4] = f32::INFINITY;
                w[0] = -0.0;
                let bias: Vec<f32> = (0..outputs).map(|o| wave(o, 3)).collect();

                let mut fc = Linear::new(inputs, outputs, 0);
                let mut params = fc.params_mut();
                params[0].value.data_mut().copy_from_slice(&w);
                params[1].value.data_mut().copy_from_slice(&bias);
                for relu in [false, true] {
                    let cfg = ExecConfig {
                        fused_relu: relu,
                        ..ExecConfig::serial()
                    };
                    assert_eq!(fc.runs(&cfg), AlgoChoice::PackedLinear, "{case}");
                    let epilogue = if relu {
                        GemmEpilogue::Relu
                    } else {
                        GemmEpilogue::None
                    };
                    let shape = (batch, inputs, outputs);
                    let want = x_times_w_transposed(&x, &w, &bias, shape, epilogue);
                    let got = run_linear(&mut fc, &x, batch, &cfg);
                    assert_eq!(
                        nan_blind_bits(&got),
                        nan_blind_bits(&want),
                        "{case} relu {relu}"
                    );
                }

                // Exactly-ternary weights (−0.0 among them): the code row
                // against the f32 row on the same values.
                let t: Vec<f32> = (0..outputs * inputs)
                    .map(|i| [0.5, -0.25, 0.0, 0.5, -0.0][i * 7 % 5])
                    .collect();
                fc.params_mut()[0].value.data_mut().copy_from_slice(&t);
                for relu in [false, true] {
                    let cfg = ExecConfig {
                        fused_relu: relu,
                        ..ExecConfig::serial()
                    };
                    fc.set_format(WeightFormat::Dense);
                    let want = run_linear(&mut fc, &x, batch, &cfg);
                    fc.set_format(WeightFormat::Ternary);
                    assert_eq!(fc.runs(&cfg), AlgoChoice::TernaryLinear, "{case}");
                    let got = run_linear(&mut fc, &x, batch, &cfg);
                    assert_eq!(
                        nan_blind_bits(&got),
                        nan_blind_bits(&want),
                        "{case} relu {relu}: codes"
                    );
                }
                fc.set_format(WeightFormat::Dense);
            }
        }
    }
}
