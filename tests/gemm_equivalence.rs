//! Property-based equivalence suite for the packed GEMM engine: the
//! packed panels + micro-kernel path (whatever kernel the host
//! dispatches to) must agree with the naive triple loop on arbitrary
//! shapes — including the MR/NR/KC boundary cases, degenerate extents,
//! accumulation into a non-zero C, and non-finite inputs.

use cnn_stack::parallel::Schedule;
use cnn_stack::tensor::{
    gemm, gemm_prepacked_epilogue, pack_a_codes_into, pack_a_into, pack_b_into, CodePanels,
    GemmEpilogue, GemmPlan, PackedA, Tensor, MR, NR,
};
use proptest::prelude::*;

/// The widths every draw of the skinny-n properties runs: a batch-1
/// linear (1), the live columns of 2×2 and larger batch-1 planes (2, 4,
/// 8, 16) and the panel edges beside them (15, 17).
const SKINNY_N: [usize; 7] = [1, 2, 4, 8, 15, 16, 17];

fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as u64 * 2654435761 + seed * 97) % 251) as f32 * 0.01 - 1.25)
        .collect()
}

fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm::gemm_naive_into(a, b, &mut c, m, k, n);
    c
}

fn packed(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, threads: usize) -> Vec<f32> {
    let plan = GemmPlan::new(m, k, n);
    let mut scratch = vec![0.0f32; plan.scratch_elems()];
    let mut c = vec![0.0f32; m * n];
    gemm::gemm_packed_into(
        a,
        b,
        &mut c,
        m,
        k,
        n,
        &mut scratch,
        threads,
        Schedule::Static,
    );
    c
}

fn max_abs_diff(x: &[f32], y: &[f32]) -> f32 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed agrees with naive on arbitrary shapes, including extents
    /// that straddle the MR-row and NR-column panel boundaries.
    #[test]
    fn packed_matches_naive(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..50,
        seed in 0u64..1000,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 1);
        let want = naive(&a, &b, m, k, n);
        let got = packed(&a, &b, m, k, n, 1);
        prop_assert!(max_abs_diff(&want, &got) <= 1e-4,
            "m={} k={} n={} diff={}", m, k, n, max_abs_diff(&want, &got));
    }

    /// Exact panel-multiple shapes (no edge tiles) agree too — the
    /// full-tile fast path writes every lane it computed.
    #[test]
    fn packed_matches_naive_at_panel_multiples(
        mp in 1usize..5,
        k in 1usize..40,
        np in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (m, n) = (mp * MR, np * NR);
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 2);
        prop_assert!(max_abs_diff(&naive(&a, &b, m, k, n), &packed(&a, &b, m, k, n, 1)) <= 1e-4);
    }

    /// The parallel panel grid computes exactly what the serial run
    /// does: every (tile, KC-block) accumulation is identical work, so
    /// the outputs are bitwise equal regardless of thread count.
    #[test]
    fn packed_parallel_is_bitwise_serial(
        m in 1usize..30,
        k in 1usize..40,
        n in 1usize..40,
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 3);
        let serial = packed(&a, &b, m, k, n, 1);
        let parallel = packed(&a, &b, m, k, n, threads);
        let s_bits: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u32> = parallel.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(s_bits, p_bits);
    }

    /// The accumulate (`+=`) contract: a pre-initialised C (bias fill)
    /// ends up with exactly `C0 + A·B`, matching naive accumulation.
    #[test]
    fn packed_accumulates_into_c(
        m in 1usize..20,
        k in 1usize..30,
        n in 1usize..25,
        seed in 0u64..1000,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 4);
        let c0 = fill(m * n, seed + 5);
        let mut want = c0.clone();
        gemm::gemm_naive_into(&a, &b, &mut want, m, k, n);
        let plan = GemmPlan::new(m, k, n);
        let mut scratch = vec![0.0f32; plan.scratch_elems()];
        let mut got = c0;
        gemm::gemm_packed_into(&a, &b, &mut got, m, k, n, &mut scratch, 1, Schedule::Static);
        prop_assert!(max_abs_diff(&want, &got) <= 1e-4);
    }

    /// Weight panels packed once serve any number of products against
    /// different A matrices, bitwise identical to packing per call.
    #[test]
    fn prepacked_b_panels_are_reusable(
        m1 in 1usize..15,
        m2 in 1usize..15,
        k in 1usize..30,
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        let b = fill(k * n, seed);
        for m in [m1, m2] {
            let plan = GemmPlan::new(m, k, n);
            let mut packed_a = vec![0.0f32; plan.packed_a_elems()];
            let mut packed_b = vec![0.0f32; plan.packed_b_elems()];
            gemm::pack_b_into(&plan, &b, &mut packed_b);
            let a = fill(m * k, seed + m as u64);
            gemm::pack_a_into(&plan, &a, &mut packed_a);
            let mut got = vec![0.0f32; m * n];
            gemm::gemm_prepacked(&plan, &packed_a, &packed_b, &mut got, 1, Schedule::Static);
            let want = packed(&a, &b, m, k, n, 1);
            let w_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let g_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(w_bits, g_bits);
        }
    }

    /// A NaN planted anywhere in B lands in exactly the C entries whose
    /// dot products consume it — no kernel may skip it (the old
    /// zero-skip bug), and no other entry may be contaminated by panel
    /// padding.
    #[test]
    fn non_finite_propagation_matches_naive(
        m in 1usize..18,
        k in 1usize..25,
        n in 1usize..20,
        pos in 0usize..500,
        use_inf in 0usize..2,
        seed in 0u64..1000,
    ) {
        let a = fill(m * k, seed);
        let mut b = fill(k * n, seed + 7);
        b[pos % (k * n)] = if use_inf == 1 { f32::INFINITY } else { f32::NAN };
        let want = naive(&a, &b, m, k, n);
        for (label, got) in [
            ("packed", packed(&a, &b, m, k, n, 1)),
            ("packed_mt", packed(&a, &b, m, k, n, 3)),
            ("blocked", {
                let mut c = vec![0.0f32; m * n];
                gemm::gemm_into(&a, &b, &mut c, m, k, n, gemm::GemmAlgorithm::Blocked);
                c
            }),
        ] {
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                if w.is_nan() {
                    prop_assert!(g.is_nan(), "{}: C[{}] lost a NaN (m={} k={} n={})", label, i, m, k, n);
                } else if w.is_infinite() {
                    prop_assert_eq!(*g, *w, "{}: C[{}] lost an infinity", label, i);
                } else {
                    prop_assert!((w - g).abs() <= 1e-3 + 1e-4 * w.abs(),
                        "{}: C[{}] = {} vs naive {}", label, i, g, w);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A last B panel with at most 8 live columns runs the half-width
    /// tile. Widening the same product by 8 extra columns pushes that
    /// panel back onto the full tile, so the shared columns must carry
    /// the same bits — for whole products of 1..=8 columns and for
    /// ragged last panels (`n mod 16 ∈ 1..=8`), NaN/Inf included.
    #[test]
    fn half_tile_bit_matches_full_tile(
        m in 1usize..20,
        k in 1usize..300,
        full_panels in 0usize..3,
        live in 1usize..=8,
        poison in 0usize..3,
        pos in 0usize..10_000,
        seed in 0u64..1000,
    ) {
        let n = full_panels * NR + live;
        let wide = n + NR / 2;
        let a = fill(m * k, seed);
        let mut b_wide = fill(k * wide, seed + 8);
        if poison > 0 {
            // Somewhere in the shared columns.
            let (row, col) = (pos % k, (pos / k) % n);
            b_wide[row * wide + col] = if poison == 1 { f32::NAN } else { f32::INFINITY };
        }
        let b: Vec<f32> = b_wide
            .chunks(wide)
            .flat_map(|row| row[..n].iter().copied())
            .collect();
        let half = packed(&a, &b, m, k, n, 1);
        let full = packed(&a, &b_wide, m, k, wide, 1);
        for (i, (h_row, f_row)) in half.chunks(n).zip(full.chunks(wide)).enumerate() {
            let h_bits: Vec<u32> = h_row.iter().map(|v| v.to_bits()).collect();
            let f_bits: Vec<u32> = f_row[..n].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(h_bits, f_bits, "row {} (m={} k={} n={})", i, m, k, n);
        }
    }
}

/// `c = a·b` from zero on the prepacked engine, serial or on `threads`.
fn prepacked(plan: &GemmPlan, a: PackedA<'_>, b: &[f32], threads: usize) -> Vec<f32> {
    let mut packed_b = vec![0.0f32; plan.packed_b_elems()];
    pack_b_into(plan, b, &mut packed_b);
    let mut c = vec![0.0f32; plan.m * plan.n];
    let schedule = Schedule::Dynamic { chunk: 1 };
    gemm_prepacked_epilogue(
        plan,
        a,
        &packed_b,
        &mut c,
        threads,
        schedule,
        GemmEpilogue::None,
    );
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every draw runs all of `SKINNY_N` on both operand forms: an
    /// exactly-ternary A as f32 panels and as 2-bit code panels, against
    /// the first `n` columns of one B, with a NaN or ±Inf activation (or
    /// none) planted in a column each width has. m spans one to five A panels, short last panel
    /// included; k lies on both sides of the 256-step `kc` block. The
    /// f32 panels agree with the naive loop (non-finite in the same
    /// places, within rounding elsewhere) and the code panels with the
    /// f32 panels bit for bit outside NaN payloads, serial and on three
    /// threads.
    #[test]
    fn skinny_n_matches_naive_on_both_operand_forms(
        m in 1usize..=5 * MR,
        k_side in 0usize..3,
        k_off in 0usize..30,
        poison in 0usize..4,
        pos in 0usize..100_000,
        seed in 0u64..1000,
    ) {
        let k = [1, 245, 500][k_side] + k_off;
        let (wp, wn) = (0.75f32, 0.5f32);
        let a: Vec<f32> = fill(m * k, seed)
            .iter()
            .map(|v| if *v > 0.3 { wp } else if *v < -0.3 { -wn } else { 0.0 })
            .collect();
        let widest = *SKINNY_N.iter().max().unwrap();
        let b_wide = fill(k * widest, seed + 9);
        let (row, col) = (pos % k, pos / k % widest);
        for n in SKINNY_N {
            let mut b: Vec<f32> = b_wide
                .chunks(widest)
                .flat_map(|row| row[..n].iter().copied())
                .collect();
            b[row * n + col % n] = [1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison];
            let plan = GemmPlan::new(m, k, n);
            let mut panels = vec![0.0f32; plan.packed_a_elems()];
            pack_a_into(&plan, &a, &mut panels);
            let mut words = vec![0u32; plan.packed_a_code_words()];
            pack_a_codes_into(&plan, &a, &mut words);
            let codes = PackedA::Codes(CodePanels { words: &words, positive: wp, negative: wn });
            let want = naive(&a, &b, m, k, n);
            let got = prepacked(&plan, PackedA::F32(&panels), &b, 1);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                if w.is_nan() {
                    prop_assert!(g.is_nan(), "n={} C[{}] lost a NaN (m={} k={})", n, i, m, k);
                } else if w.is_infinite() {
                    prop_assert_eq!(*g, *w, "n={} C[{}] lost an infinity", n, i);
                } else {
                    prop_assert!((w - g).abs() <= 1e-3 + 1e-4 * w.abs(),
                        "n={} C[{}] = {} vs naive {} (m={} k={})", n, i, g, w, m, k);
                }
            }
            let bits = |v: &[f32]| -> Vec<u32> {
                v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
            };
            for threads in [1, 3] {
                let from_codes = prepacked(&plan, codes, &b, threads);
                prop_assert_eq!(bits(&from_codes), bits(&got), "n={} threads {}", n, threads);
            }
        }
    }
}

/// Zero-extent reductions leave C exactly as initialised (the
/// accumulate contract with nothing to add): the packed driver must not
/// touch C when k == 0, and empty A/B slices must not panic.
#[test]
fn zero_k_leaves_c_untouched() {
    let (m, n) = (5, 9);
    let plan = GemmPlan::new(m, 0, n);
    let mut scratch = vec![0.0f32; plan.scratch_elems()];
    let c0 = fill(m * n, 3);
    let mut c = c0.clone();
    gemm::gemm_packed_into(&[], &[], &mut c, m, 0, n, &mut scratch, 2, Schedule::Static);
    assert_eq!(c, c0);
}

/// Single-element and single-lane extents exercise every edge-masking
/// branch of the micro-kernel write-back.
#[test]
fn minimal_extents_match_naive() {
    for (m, k, n) in [
        (1, 1, 1),
        (1, 1, NR + 1),
        (MR + 1, 1, 1),
        (1, 300, 1),
        (MR, 1, NR),
        (2 * MR - 1, 257, 2 * NR - 1),
    ] {
        let a = fill(m * k, 42);
        let b = fill(k * n, 43);
        let want = naive(&a, &b, m, k, n);
        let got = packed(&a, &b, m, k, n, 1);
        assert!(
            max_abs_diff(&want, &got) <= 1e-4,
            "({m},{k},{n}) diverged by {}",
            max_abs_diff(&want, &got)
        );
    }
}

/// The tensor-level entry point (`matmul`) routes through the packed
/// engine and agrees with an explicit naive product.
#[test]
fn matmul_default_is_packed_and_correct() {
    let a = Tensor::from_fn([23, 37], |i| (i as f32 * 0.37).sin());
    let b = Tensor::from_fn([37, 19], |i| (i as f32 * 0.21).cos());
    let want = gemm::matmul_naive(&a, &b);
    let got = gemm::matmul(&a, &b);
    assert!(want.allclose(&got, 1e-4));
}
