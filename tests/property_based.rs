//! Property-based tests (proptest) over the core data structures and
//! kernels: layout transforms, sparse formats, GEMM variants, pruning
//! invariants and scheduling coverage.

use cnn_stack::compress::huffman::HuffmanCode;
use cnn_stack::compress::magnitude;
use cnn_stack::nn::{
    BatchNorm2d, Conv2d, ConvAlgorithm, DepthwiseConv2d, ExecConfig, Flatten, InferencePlan,
    InferenceSession, Layer, Linear, MaxPool2d, Network, Phase, ReLU, ResidualBlock, WeightFormat,
};
use cnn_stack::parallel::{parallel_for, Schedule};
use cnn_stack::sparse::{CscMatrix, CsrMatrix};
use cnn_stack::tensor::{col2im, gemm, im2col, ops, Conv2dGeometry, Shape, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c).prop_map(move |data| (r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shape_offset_unravel_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let shape = Shape::new(dims);
        for off in 0..shape.len() {
            prop_assert_eq!(shape.offset(&shape.unravel(off)), off);
        }
    }

    #[test]
    fn csr_roundtrips_any_matrix((r, c, data) in small_matrix()) {
        let dense = Tensor::from_vec([r, c], data);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        prop_assert!(csr.to_dense().allclose(&dense, 0.0));
        prop_assert_eq!(csr.nnz(), dense.len() - dense.count_zeros(0.0));
    }

    #[test]
    fn csc_roundtrips_any_matrix((r, c, data) in small_matrix()) {
        let dense = Tensor::from_vec([r, c], data);
        let csc = CscMatrix::from_dense(&dense, 0.0);
        prop_assert!(csc.to_dense().allclose(&dense, 0.0));
    }

    #[test]
    fn csr_transpose_is_involution((r, c, data) in small_matrix()) {
        let dense = Tensor::from_vec([r, c], data);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        prop_assert!(csr.transpose().transpose().to_dense().allclose(&dense, 0.0));
    }

    #[test]
    fn spmm_matches_dense_gemm(
        (r, k, data) in small_matrix(),
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a = Tensor::from_vec([r, k], data);
        // Sparsify a: zero every third element for structure.
        let a = Tensor::from_fn([r, k], |i| if i % 3 == 0 { 0.0 } else { a.data()[i] });
        let b = Tensor::from_fn([k, cols], |i| ((i as u64 * 7 + seed) % 13) as f32 - 6.0);
        let want = gemm::matmul(&a, &b);
        let got = CsrMatrix::from_dense(&a, 0.0).spmm(&b);
        prop_assert!(want.allclose(&got, 1e-3));
    }

    #[test]
    fn gemm_algorithms_agree(
        m in 1usize..12, k in 1usize..12, n in 1usize..12,
        tile in 1usize..9,
    ) {
        let a = Tensor::from_fn([m, k], |i| ((i * 31 % 17) as f32) * 0.25 - 2.0);
        let b = Tensor::from_fn([k, n], |i| ((i * 13 % 11) as f32) * 0.5 - 2.5);
        let naive = gemm::matmul_naive(&a, &b);
        let blocked = gemm::matmul_with(&a, &b, gemm::GemmAlgorithm::Blocked);
        let cfg = cnn_stack::tensor::TileConfig::new(tile, tile, tile, 2);
        let tiled = gemm::matmul_tiled(&a, &b, cfg);
        prop_assert!(naive.allclose(&blocked, 1e-3));
        prop_assert!(naive.allclose(&tiled, 1e-3));
    }

    #[test]
    fn im2col_col2im_adjoint_property(
        c in 1usize..3, h in 3usize..7, w in 3usize..7,
        stride in 1usize..3, pad in 0usize..2,
    ) {
        // <im2col(x), y> == <x, col2im(y)> — the transpose relation the
        // conv backward pass relies on.
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let geom = Conv2dGeometry::new(c, h, w, 3, 3, stride, pad);
        let x = Tensor::from_fn([1, c, h, w], |i| ((i * 7 % 5) as f32) - 2.0);
        let y = Tensor::from_fn(
            [geom.patch_len(), geom.out_positions()],
            |i| ((i * 11 % 7) as f32) - 3.0,
        );
        let cols = im2col(x.data(), &geom);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(&y, &geom, &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..5, cols in 1usize..8, seed in 0u64..100,
    ) {
        let logits = Tensor::from_fn([rows, cols], |i| {
            (((i as u64 + seed) * 2654435761 % 100) as f32) / 10.0 - 5.0
        });
        let p = ops::softmax_rows(&logits);
        for r in 0..rows {
            let row = &p.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn magnitude_threshold_prunes_exactly_the_target(
        n in 10usize..200, sparsity in 0.0f64..0.95,
    ) {
        // Distinct magnitudes so the quantile is exact.
        let w = Tensor::from_fn([1, n], |i| (i + 1) as f32 * if i % 2 == 0 { 1.0 } else { -1.0 });
        let t = magnitude::magnitude_threshold(&w, sparsity);
        let pruned = w.data().iter().filter(|v| v.abs() <= t).count();
        let expect = (n as f64 * sparsity) as usize;
        prop_assert_eq!(pruned, expect);
    }

    #[test]
    fn parallel_for_covers_every_index_once(
        threads in 1usize..6,
        total in 0usize..200,
        chunk in 1usize..16,
    ) {
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk },
            Schedule::Guided { min_chunk: chunk },
        ] {
            let hits = Mutex::new(vec![0u8; total]);
            parallel_for(threads, total, schedule, |range| {
                let mut h = hits.lock().unwrap();
                for i in range {
                    h[i] += 1;
                }
            });
            let h = hits.into_inner().unwrap();
            prop_assert!(h.iter().all(|&x| x == 1), "{:?}", schedule);
        }
    }

    #[test]
    fn winograd_matches_im2col_reference(
        n in 1usize..3, c in 1usize..4, out_c in 1usize..4,
        h in 4usize..9, w in 4usize..9,
        pad in 0usize..3, use_bias in 0usize..2, seed in 0u64..50,
    ) {
        let input = Tensor::from_fn([n, c, h, w], |i| {
            (((i as u64 + seed) * 2654435761) % 97) as f32 * 0.02 - 1.0
        });
        let weights = Tensor::from_fn([out_c, c, 3, 3], |i| {
            (((i as u64 + seed) * 40503) % 31) as f32 * 0.05 - 0.75
        });
        let bias_vec: Vec<f32> = (0..out_c).map(|o| o as f32 * 0.25 - 0.3).collect();
        let bias = (use_bias == 1).then_some(bias_vec.as_slice());
        let got = cnn_stack::tensor::winograd_conv2d(&input, &weights, bias, pad)
            .expect("eligible 3x3 layer");
        // Reference via im2col + GEMM, per image.
        let geom = Conv2dGeometry::new(c, h, w, 3, 3, 1, pad);
        let wmat = weights.reshape([out_c, c * 9]);
        let plane = geom.out_positions();
        for img in 0..n {
            let cols = im2col(&input.data()[img * c * h * w..(img + 1) * c * h * w], &geom);
            let mut want = gemm::matmul(&wmat, &cols);
            if let Some(b) = bias {
                for (o, row) in want.data_mut().chunks_exact_mut(plane).enumerate() {
                    row.iter_mut().for_each(|v| *v += b[o]);
                }
            }
            let got_img = Tensor::from_vec(
                [out_c, plane],
                got.data()[img * out_c * plane..(img + 1) * out_c * plane].to_vec(),
            );
            prop_assert!(want.allclose(&got_img, 1e-2));
        }
        // The caller-scratch kernel over a NaN-poisoned, oversized
        // scratch is the allocating wrapper bit for bit: the advertised
        // workspace is sufficient and initialised before it is read.
        use cnn_stack::tensor::{winograd_bank_elems, WinogradGeometry, WinogradTile::F2};
        let geom = WinogradGeometry::new(F2, (n, c, h, w), out_c, pad).expect("eligible");
        let mut bank = vec![f32::NAN; winograd_bank_elems(F2, c, out_c)];
        cnn_stack::tensor::pack_winograd_bank_into(F2, weights.data(), out_c, c, &mut bank);
        let mut out = vec![f32::NAN; got.len()];
        let mut scratch = vec![f32::NAN; geom.scratch_elems() + 3];
        cnn_stack::tensor::winograd_conv2d_into(
            &geom, input.data(), &bank, bias, gemm::GemmEpilogue::None, &mut out, &mut scratch,
            1, Schedule::default(),
        )
        .expect("same geometry as the wrapper");
        prop_assert!(out.iter().zip(got.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn huffman_roundtrips_any_stream(
        stream in proptest::collection::vec(0u16..12, 1..400),
    ) {
        let code = HuffmanCode::build(&stream);
        let enc = code.encode(&stream);
        prop_assert_eq!(code.decode(&enc), stream);
    }

    /// The deployed 2-bit ternary form round trips: a `Ternary` linear
    /// layer warmed for the packed engine holds its code panels alone,
    /// computes what its f32 weights compute, and rebuilds them from the
    /// codes bit for bit.
    #[test]
    fn packed_ternary_roundtrips(
        r in 1usize..8, c in 1usize..20, seed in 0u64..100,
    ) {
        let t = Tensor::from_fn([r, c], |i| {
            match ((i as u64 + seed) * 2654435761) % 4 {
                0 => 0.5,
                1 => -0.75,
                _ => 0.0,
            }
        });
        let x = Tensor::from_fn([3, c], |i| i as f32 * 0.1);
        let cfg = ExecConfig::serial();
        let mut fc = Linear::new(c, r, seed);
        fc.weight_mut().value = t.clone();
        let want = fc.forward(&x, Phase::Eval, &cfg);
        fc.set_format(WeightFormat::Ternary);
        fc.prepare(&cfg);
        let mut net = Network::new(vec![Box::new(fc)]).expect("one layer");
        let storage = net.weight_storage()[0];
        prop_assert!(storage.master.is_none(), "{:?}", storage);
        prop_assert_eq!(storage.forms.iter().flatten().count(), 1);
        prop_assert!(storage.forms[2].is_some(), "{:?}", storage);
        let got = net.forward(&x, Phase::Eval, &cfg);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
        let fc = net.layers()[0].as_any().downcast_ref::<Linear>().expect("a linear layer");
        prop_assert_eq!(bits(&fc.weight().value), bits(&t));
    }

    #[test]
    fn csr_memory_accounting_is_consistent((r, c, data) in small_matrix()) {
        let dense = Tensor::from_vec([r, c], data);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        prop_assert_eq!(
            csr.storage_bytes(),
            cnn_stack::sparse::csr_bytes(r, c, csr.nnz())
        );
    }
}

/// A small randomised layer stack over an 8×8 input: conv-bn-relu, then
/// optionally a depthwise stage and/or a strided residual block, then
/// pool-flatten-linear. Returns the network and its final channel count.
fn random_stack(seed: u64, c: usize, use_dw: bool, use_block: bool) -> Network {
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(3, c, 3, 1, 1, seed)),
        Box::new(BatchNorm2d::new(c)),
        Box::new(ReLU::new()),
    ];
    if use_dw {
        layers.push(Box::new(DepthwiseConv2d::new(c, 3, 1, 1, seed + 1)));
    }
    let (out_c, spatial) = if use_block {
        layers.push(Box::new(ResidualBlock::new(c, c + 1, 2, seed + 2)));
        (c + 1, 2usize) // 8×8 → block stride 2 → 4×4 → pool → 2×2
    } else {
        (c, 4usize) // 8×8 → pool → 4×4
    };
    layers.push(Box::new(MaxPool2d::new(2)));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(
        out_c * spatial * spatial,
        5,
        seed + 3,
    )));
    Network::new(layers).expect("stack is non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn session_bit_matches_forward_on_random_stacks(
        seed in 0u64..10_000,
        batch in 1usize..9,
        c in 2usize..6,
        use_dw in 0usize..2,
        use_block in 0usize..2,
        algo_idx in 0usize..3,
        threads in 1usize..5,
    ) {
        let algo = [
            ConvAlgorithm::Direct,
            ConvAlgorithm::Im2col,
            ConvAlgorithm::Winograd,
        ][algo_idx];
        let cfg = ExecConfig {
            threads,
            conv_algo: algo,
            ..ExecConfig::serial()
        };
        let mut net = random_stack(seed, c, use_dw == 1, use_block == 1);
        let input = Tensor::from_fn([batch, 3, 8, 8], |i| {
            (((i as u64 + seed) * 2654435761) % 211) as f32 * 0.01 - 1.0
        });
        let expected = net.forward(&input, Phase::Eval, &cfg);
        let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg)
            .expect("stack accepts its input shape");
        let mut session =
            InferenceSession::new(&mut net, plan).expect("plan matches network");
        let got = session.run(&input).expect("input matches plan");
        // Bit-identical, not just close: the engine promises exact
        // agreement with the allocating path for every algorithm,
        // batch size, and thread count.
        prop_assert_eq!(got.shape().dims(), expected.shape().dims());
        prop_assert_eq!(got.data(), expected.data());
    }
}

#[test]
fn pruned_masks_survive_arbitrary_updates() {
    // Deterministic companion: a masked Param clamps any update pattern.
    use cnn_stack::nn::Param;
    let mut p = Param::new(Tensor::from_fn([64], |i| i as f32 - 31.5));
    let mask = Tensor::from_fn([64], |i| if i % 5 == 0 { 0.0 } else { 1.0 });
    p.set_mask(mask);
    for step in 0..10 {
        for (i, v) in p.value.data_mut().iter_mut().enumerate() {
            *v += (step * i) as f32 * 0.1;
        }
        p.apply_mask();
        for (i, v) in p.value.data().iter().enumerate() {
            if i % 5 == 0 {
                assert_eq!(*v, 0.0);
            }
        }
    }
}
