//! Property tests pinning the quantised compute path to f32 references:
//!
//! * [`PackedTernaryMatrix::spmm`] (the 2-bit storage path) against a
//!   naive dense-reference product, including NaN/Inf inputs — zero
//!   codes still multiply, so `0 · NaN` stays NaN exactly like the
//!   dense GEMM kernels (no zero-skip);
//! * the packed engine on 2-bit code panels against the same engine on
//!   the f32 panels of the dequantised weights — bit-identical by
//!   construction (the codes decode to exactly those panels and run on
//!   the same tile and blocking), which is the property the guard's
//!   quantised→packed demotion relies on.

use cnn_stack::compress::packed::PackedTernaryMatrix;
use cnn_stack::parallel::Schedule;
use cnn_stack::tensor::{
    gemm_prepacked_epilogue, pack_a_codes_into, pack_a_into, pack_b_into, CodePanels, GemmEpilogue,
    GemmPlan, PackedA, Tensor, MR,
};
use proptest::prelude::*;

/// Bitwise-ish f32 equality: NaN matches NaN, everything else must
/// compare equal (covers ±inf; treats -0.0 == 0.0, which is fine here).
fn same_f32(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

fn assert_all_match(actual: &[f32], expected: &[f32], what: &str) {
    assert_eq!(actual.len(), expected.len());
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        assert!(
            same_f32(a, e),
            "{} element {} differs: got {}, reference {}",
            what,
            i,
            a,
            e
        );
    }
}

// ---------------------------------------------------------------------------
// PackedTernaryMatrix::spmm
// ---------------------------------------------------------------------------

/// Naive `W·B` accumulating columns in the same ascending order as
/// `spmm`'s packed traversal, so finite results — and the reach of any
/// NaN/Inf — are bit-identical. Zero weights multiply; nothing skips.
fn naive_spmm(w: &[f32], b: &[f32], rows: usize, cols: usize, bn: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * bn];
    for r in 0..rows {
        for c in 0..cols {
            let v = w[r * cols + c];
            for j in 0..bn {
                out[r * bn + j] += v * b[c * bn + j];
            }
        }
    }
    out
}

/// ((rows, cols, bn), ternary codes as 0/1/2, (Wp, Wn), B values).
type SpmmCase = ((usize, usize, usize), Vec<u8>, (f32, f32), Vec<f32>);

fn spmm_case() -> impl Strategy<Value = SpmmCase> {
    (1usize..9, 1usize..14, 1usize..6).prop_flat_map(|(rows, cols, bn)| {
        let codes = proptest::collection::vec(0u8..3, rows * cols);
        let scales = (0.01f32..2.0, 0.01f32..2.0);
        let b = proptest::collection::vec(-4.0f32..4.0, cols * bn);
        (Just((rows, cols, bn)), codes, scales, b)
    })
}

fn dense_ternary(rows: usize, cols: usize, codes: &[u8], wp: f32, wn: f32) -> Tensor {
    Tensor::from_fn([rows, cols], |i| match codes[i] {
        1 => wp,
        2 => -wn,
        _ => 0.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spmm_matches_dense_reference(
        ((rows, cols, bn), codes, (wp, wn), b) in spmm_case()
    ) {
        let dense = dense_ternary(rows, cols, &codes, wp, wn);
        let m = PackedTernaryMatrix::from_dense_ternary(&dense).unwrap();
        let bt = Tensor::from_vec([cols, bn], b.clone());
        let got = m.spmm(&bt);
        let want = naive_spmm(dense.data(), &b, rows, cols, bn);
        assert_all_match(got.data(), &want, "spmm");
    }

    #[test]
    fn spmm_propagates_nan_and_inf(
        ((rows, cols, bn), codes, (wp, wn), b) in spmm_case(),
        poison in 0usize..2,
        at in 0usize..64,
    ) {
        // Poison one B element with NaN or +inf; the packed traversal
        // must agree with the reference on exactly which outputs it
        // reaches — including through zero codes (0 · NaN = NaN).
        let mut b = b;
        let idx = at % b.len();
        b[idx] = if poison == 0 { f32::NAN } else { f32::INFINITY };
        let dense = dense_ternary(rows, cols, &codes, wp, wn);
        let m = PackedTernaryMatrix::from_dense_ternary(&dense).unwrap();
        let bt = Tensor::from_vec([cols, bn], b.clone());
        let got = m.spmm(&bt);
        let want = naive_spmm(dense.data(), &b, rows, cols, bn);
        assert_all_match(got.data(), &want, "spmm");
        // The poisoned B row feeds every output row (all weights in its
        // column multiply, zeros included), so column `idx % bn` of the
        // output must be non-finite in every row.
        for r in 0..rows {
            let v = got.data()[r * bn + idx % bn];
            prop_assert!(
                !v.is_finite() || poison == 1,
                "row {} lost the poison: {}", r, v
            );
        }
    }
}

/// Regression for the removed zero-skip: an all-zero packed matrix
/// times a NaN activation must produce NaN, exactly like dense GEMM.
#[test]
fn spmm_zero_weight_times_nan_is_nan() {
    let m = PackedTernaryMatrix::from_dense_ternary(&Tensor::zeros([2, 3])).unwrap();
    let b = Tensor::from_vec([3, 2], vec![f32::NAN, 1.0, 2.0, 3.0, 4.0, 5.0]);
    let out = m.spmm(&b);
    assert!(out.data()[0].is_nan(), "0 · NaN must stay NaN");
    assert_eq!(out.data()[1], 0.0);
    assert!(out.data()[2].is_nan());
    assert_eq!(out.data()[3], 0.0);
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
