//! Criterion microbenchmarks of the compute kernels underlying every
//! experiment: GEMM variants, the im2col lowering, the CSR convolution
//! across sparsity levels, the depthwise kernel, the Winograd
//! convolution and the weight initialiser on every instantiation the
//! host has, and the two halves of the packed conv path — the fused
//! im2col→pack-B packer and the prepacked GEMM on every micro-kernel the
//! host has.
//!
//! `BENCH_SMOKE=1` takes five samples of everything (CI: the groups
//! run, nothing is read off them). A free argument runs only the benches
//! whose `group/id` contains it: `cargo bench -p cnn-stack-bench --bench
//! kernels -- init`.

use cnn_stack_nn::{AlgoChoice, Conv2d, ExecConfig, Layer, WeightFormat};
use cnn_stack_parallel::Schedule;
use cnn_stack_sparse::CsrMatrix;
use cnn_stack_tensor::init::{self, Init};
use cnn_stack_tensor::{
    depthwise, gemm, im2col, pack_b_im2col_batch_into, AlignedBuf, Conv2dGeometry, GemmPlan,
    Tensor, TileConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Opens a group sampling `samples` times within `seconds` (five
/// samples, no time budget, under `BENCH_SMOKE`).
fn group<'a>(c: &'a mut Criterion, name: &str, samples: usize, seconds: u64) -> BenchmarkGroup<'a> {
    let mut group = c.benchmark_group(name);
    if cnn_stack_bench::smoke() {
        group.sample_size(5).measurement_time(Duration::ZERO);
    } else {
        group
            .sample_size(samples)
            .measurement_time(Duration::from_secs(seconds));
    }
    group
}

fn random(shape: impl Into<cnn_stack_tensor::Shape>, density: f64, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_fn(shape.into(), |_| {
        if rng.gen_bool(density) {
            rng.gen_range(-1.0..1.0)
        } else {
            0.0
        }
    })
}

/// GEMM algorithm comparison at a VGG-16 mid-layer shape
/// ([256 x 2304] . [2304 x 64], the 8x8 stage).
fn bench_gemm(c: &mut Criterion) {
    let mut group = group(c, "gemm_256x2304x64", 10, 2);
    let a = random([256, 2304], 1.0, 1);
    let b = random([2304, 64], 1.0, 2);
    group.bench_function("naive", |bencher| {
        bencher.iter(|| gemm::matmul_naive(&a, &b))
    });
    group.bench_function("blocked", |bencher| {
        bencher.iter(|| gemm::matmul_with(&a, &b, gemm::GemmAlgorithm::Blocked))
    });
    group.bench_function("tiled_32x32x32u4", |bencher| {
        bencher.iter(|| gemm::matmul_tiled(&a, &b, TileConfig::default()))
    });
    group.finish();
}

/// The im2col lowering for a CIFAR 3x3 "same" convolution input.
fn bench_im2col(c: &mut Criterion) {
    let mut group = group(c, "im2col", 20, 2);
    let geom = Conv2dGeometry::new(64, 32, 32, 3, 3, 1, 1);
    let image: Vec<f32> = (0..64 * 1024).map(|i| (i as f32 * 0.01).sin()).collect();
    group.bench_function("64ch_32x32_k3", |bencher| {
        bencher.iter(|| im2col(&image, &geom))
    });
    group.finish();
}

/// The CSR direct convolution the engine runs (a prepared `Conv2d`
/// labelled `Csr` under direct convolution: the `csr` registry row)
/// across sparsity levels, from fully dense weights stored as CSR up —
/// the kernel-level version of Fig. 1's expected-vs-actual gap.
fn bench_sparse_conv(c: &mut Criterion) {
    let mut group = group(c, "conv_64to64_16x16", 10, 2);
    let shape = [1, 64, 16, 16];
    let input = random(shape, 1.0, 3);
    let cfg = ExecConfig::serial();
    let csr_conv = |density: f64, seed: u64| {
        let mut conv = Conv2d::new(64, 64, 3, 1, 1, seed);
        conv.weight_mut().value = random([64, 64, 3, 3], density, seed);
        conv.set_format(WeightFormat::Csr);
        conv.prepare(&cfg);
        assert_eq!(conv.runs(&cfg), AlgoChoice::CsrConv);
        conv
    };
    let mut out = vec![0.0f32; 64 * 16 * 16];
    let dense = csr_conv(1.0, 4);
    group.bench_function("dense_as_csr_0pct", |bencher| {
        bencher.iter(|| dense.forward_into(input.data(), &shape, &mut out, &mut [], &cfg))
    });

    for sparsity in [50u64, 80, 95] {
        let conv = csr_conv(1.0 - sparsity as f64 / 100.0, sparsity);
        group.bench_with_input(
            BenchmarkId::new("csr", format!("{sparsity}pct")),
            &conv,
            |bencher, conv| {
                bencher.iter(|| conv.forward_into(input.data(), &shape, &mut out, &mut [], &cfg))
            },
        );
    }
    group.finish();
}

/// SpMM vs dense matmul at a linear-layer shape.
fn bench_spmm(c: &mut Criterion) {
    let mut group = group(c, "spmm_512x512x64", 10, 2);
    let b = random([512, 64], 1.0, 7);
    let dense = random([512, 512], 1.0, 8);
    group.bench_function("dense_gemm", |bencher| {
        bencher.iter(|| gemm::matmul(&dense, &b))
    });
    for sparsity in [80u64, 95] {
        let w = random([512, 512], 1.0 - sparsity as f64 / 100.0, sparsity + 20);
        let csr = CsrMatrix::from_dense(&w, 0.0);
        group.bench_with_input(
            BenchmarkId::new("csr_spmm", format!("{sparsity}pct")),
            &csr,
            |bencher, csr| bencher.iter(|| csr.spmm(&b)),
        );
    }
    group.finish();
}

/// The depthwise kernel at MobileNet's 13 depthwise layers: its 9
/// distinct (plane, channels, stride) shapes, labelled by the layers
/// that run them (`dw7-11` is the five 4×4 c512 stride-1 layers), 3×3
/// "same" filters, fused ReLU, one thread, on every instantiation the
/// host supports (`scalar` is the portable twin; the dispatch runs the
/// last one listed).
fn bench_depthwise(c: &mut Criterion) {
    let mut group = group(c, "depthwise", 200, 1);
    // (layers, input plane side, channels, stride)
    for (layers, plane, channels, stride) in [
        ("dw1", 32usize, 32usize, 1usize),
        ("dw2", 32, 64, 2),
        ("dw3", 16, 128, 1),
        ("dw4", 16, 128, 2),
        ("dw5", 8, 256, 1),
        ("dw6", 8, 256, 2),
        ("dw7-11", 4, 512, 1),
        ("dw12", 4, 512, 2),
        ("dw13", 2, 1024, 1),
    ] {
        let input = random([1, channels, plane, plane], 1.0, 9);
        let weight = random([channels, 1, 3, 3], 1.0, 10);
        let bias = random([channels], 1.0, 11);
        let geom = Conv2dGeometry::new(1, plane, plane, 3, 3, stride, 1);
        let mut out = vec![0.0f32; channels * geom.out_positions()];
        for kernel in gemm::gemm_kernel_names() {
            let shape = format!("{plane}x{plane}_c{channels}_s{stride}/{kernel}");
            group.bench_function(BenchmarkId::new(layers, shape), |bencher| {
                bencher.iter(|| {
                    depthwise::depthwise_conv2d_named(
                        kernel,
                        input.data(),
                        weight.data(),
                        bias.data(),
                        channels,
                        &geom,
                        true,
                        &mut out,
                        1,
                        Schedule::Static,
                    )
                })
            });
        }
    }
    group.finish();
}

/// The Winograd convolution at VGG-16's nine Winograd layers (the tiles
/// its batch-8 plan gives them: F(4×4) on the 32²…8² planes, F(2×2) on
/// the 4² ones), its 7 distinct shapes labelled by the layers that run
/// them (`conv3_2-3` is two layers), at batch 1 and 8, "same" padding,
/// bias and fused ReLU, one thread, on every instantiation the host
/// supports through the `winograd::winograd_conv2d_named` bench hook
/// (`scalar` is the portable twin; the dispatch runs the last one
/// listed). The bank is built outside the timed body, as a layer keeps
/// it.
fn bench_winograd(c: &mut Criterion) {
    use cnn_stack_tensor::winograd::{self, WinogradGeometry, WinogradTile};
    let mut group = group(c, "winograd", 30, 1);
    // (layers, in channels, out channels, plane side, tile)
    for (layers, in_c, out_c, plane, tile) in [
        ("conv1_2", 64usize, 64usize, 32usize, WinogradTile::F4),
        ("conv2_1", 64, 128, 16, WinogradTile::F4),
        ("conv2_2", 128, 128, 16, WinogradTile::F4),
        ("conv3_1", 128, 256, 8, WinogradTile::F4),
        ("conv3_2-3", 256, 256, 8, WinogradTile::F4),
        ("conv4_1", 256, 512, 4, WinogradTile::F2),
        ("conv4_2-3", 512, 512, 4, WinogradTile::F2),
    ] {
        let weights = random([out_c, in_c, 3, 3], 1.0, 15);
        let bias = random([out_c], 1.0, 16);
        let mut bank = AlignedBuf::zeroed(winograd::winograd_bank_elems(tile, in_c, out_c));
        winograd::pack_winograd_bank_into(tile, weights.data(), out_c, in_c, &mut bank);
        for batch in [1usize, 8] {
            let geom = WinogradGeometry::new(tile, (batch, in_c, plane, plane), out_c, 1)
                .expect("a 3x3 window fits every VGG-16 plane");
            let input = random([batch, in_c, plane, plane], 1.0, 17);
            let mut out = vec![0.0f32; batch * out_c * plane * plane];
            let mut scratch = AlignedBuf::zeroed(geom.scratch_elems());
            for kernel in gemm::gemm_kernel_names() {
                let shape = format!("{tile:?}_{plane}x{plane}_{in_c}to{out_c}_b{batch}/{kernel}");
                group.bench_function(BenchmarkId::new(layers, shape), |bencher| {
                    bencher.iter(|| {
                        winograd::winograd_conv2d_named(
                            kernel,
                            &geom,
                            input.data(),
                            &bank,
                            Some(bias.data()),
                            gemm::GemmEpilogue::Relu,
                            &mut out,
                            &mut scratch,
                            1,
                            Schedule::Static,
                        )
                        .expect("buffers sized from the geometry")
                    })
                });
            }
        }
    }
    group.finish();
}

/// The Kaiming initialiser (what every conv layer draws) at VGG-16's
/// largest filter bank, `512×512×3×3` (conv4_2 … conv5_3), and its
/// smallest, `64×3×3×3` (conv1_1), on every instantiation of the
/// keystream the host supports through the `init::initialise_named`
/// bench hook (`scalar` is the portable twin; the dispatch runs the last
/// one listed). The label carries the weight count: ns per weight is
/// the time over it.
fn bench_init(c: &mut Criterion) {
    let mut group = group(c, "init", 50, 2);
    for shape in [[512usize, 512, 3, 3], [64, 3, 3, 3]] {
        let [o, i, kh, kw] = shape;
        for kernel in gemm::gemm_kernel_names() {
            let label = format!("kaiming_{o}x{i}x{kh}x{kw}_{}w/{kernel}", o * i * kh * kw);
            group.bench_function(label, |bencher| {
                bencher.iter(|| init::initialise_named(kernel, shape, Init::KaimingNormal, 7))
            });
        }
    }
    group.finish();
}

/// The fused im2col→pack-B packer at VGG-16's nine distinct conv shapes
/// (batch 8, merged the way the engine merges them) plus MobileNet's
/// strided 3→32 stem. One iteration packs one group — the unit the
/// engine packs between GEMMs — and the label carries the group's packed
/// megabytes and how many such groups a batch-8 forward pass packs
/// (`x13` sums VGG-16's 13 convs).
fn bench_pack_im2col(c: &mut Criterion) {
    let mut group = group(c, "pack_im2col", 200, 1);
    const BATCH: usize = 8;
    // (in_c, out_c, plane, stride, convs of this shape in the model)
    for (in_c, out_c, plane, stride, convs) in [
        (3usize, 64usize, 32usize, 1usize, 1usize),
        (64, 64, 32, 1, 1),
        (64, 128, 16, 1, 1),
        (128, 128, 16, 1, 1),
        (128, 256, 8, 1, 1),
        (256, 256, 8, 1, 2),
        (256, 512, 4, 1, 1),
        (512, 512, 4, 1, 2),
        (512, 512, 2, 1, 3),
        (3, 32, 32, 2, 1),
    ] {
        let geom = Conv2dGeometry::new(in_c, plane, plane, 3, 3, stride, 1);
        // The engine's merge width (`conv::packed_group_for`): as many
        // images as fill one column chunk of the whole batch's product.
        let positions = geom.out_positions();
        let batch_plan = GemmPlan::new(out_c, geom.patch_len(), BATCH * positions);
        let images = (batch_plan.nc / positions).clamp(1, BATCH);
        let plan = GemmPlan::new(out_c, geom.patch_len(), images * positions);
        let input = random([images, in_c, plane, plane], 1.0, 12);
        let mut panels = vec![0.0f32; plan.packed_b_elems()];
        let label = format!(
            "{in_c}ch_{plane}x{plane}_s{stride}_g{images}_{:.2}MB_x{}",
            (panels.len() * 4) as f64 / 1e6,
            convs * BATCH / images,
        );
        group.bench_function(label, |bencher| {
            bencher.iter(|| pack_b_im2col_batch_into(input.data(), images, &geom, &mut panels))
        });
    }
    group.finish();
}

/// Register-only FMA throughput of one core in GFLOP/s: 24 independent
/// accumulator vectors (the packed GEMM's largest tile), no loads or
/// stores — the ceiling the kernel rows below are a share of. Uses the
/// widest of AVX-512F / AVX2+FMA the host has; `None` elsewhere.
fn fma_rate_gflops(samples: usize) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::*;
        use std::hint::black_box;

        const ACCS: usize = 24;
        const ITERS: usize = 200_000;

        #[target_feature(enable = "avx512f")]
        fn zmm_loop(x: f32, y: f32) -> f32 {
            let (x, y) = (_mm512_set1_ps(x), _mm512_set1_ps(y));
            let mut acc = [_mm512_setzero_ps(); ACCS];
            for _ in 0..ITERS {
                for a in &mut acc {
                    *a = _mm512_fmadd_ps(x, y, *a);
                }
            }
            let sum = acc
                .into_iter()
                .fold(_mm512_setzero_ps(), |s, a| _mm512_add_ps(s, a));
            _mm512_reduce_add_ps(sum)
        }

        #[target_feature(enable = "avx2", enable = "fma")]
        fn ymm_loop(x: f32, y: f32) -> f32 {
            let (x, y) = (_mm256_set1_ps(x), _mm256_set1_ps(y));
            // 12 of the 16 YMM registers: the AVX2 tile's accumulators.
            let mut acc = [_mm256_setzero_ps(); ACCS / 2];
            for _ in 0..4 * ITERS {
                for a in &mut acc {
                    *a = _mm256_fmadd_ps(x, y, *a);
                }
            }
            let sum = acc
                .into_iter()
                .fold(_mm256_setzero_ps(), |s, a| _mm256_add_ps(s, a));
            let mut lanes = [0.0f32; 8];
            // SAFETY: `lanes` holds the eight floats the store writes.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
            lanes.iter().sum()
        }

        let body: fn() -> f32 = if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected on the line above.
            || unsafe { zmm_loop(black_box(1.000_001), black_box(0.999_999)) }
        } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 and FMA were detected on the line above.
            || unsafe { ymm_loop(black_box(1.000_001), black_box(0.999_999)) }
        } else {
            return None;
        };
        // Both loops issue ACCS × ITERS × 16 lane-FMAs (the YMM one as
        // 12 accumulators × 4·ITERS × 8 lanes).
        let flops = 2.0 * (ACCS * ITERS * 16) as f64;
        let best = (0..samples.max(3))
            .map(|_| {
                let t = std::time::Instant::now();
                black_box(body());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        Some(flops / best / 1e9)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = samples;
        None
    }
}

/// The prepacked f32 GEMM beside its ceiling. First row: the core's
/// register-only FMA rate ([`fma_rate_gflops`]). Then a fully
/// cache-resident 96×256×64 product (one row chunk × one `kc` block:
/// the micro-kernel and its write-back with nothing else in the way),
/// and VGG-16's batch-8 conv products as the conv path issues them
/// (m = out channels, k = patch length, n = one group's merged columns
/// — 256×2304×256, 512×4608×128 and 512×4608×32 are the four-, eight-
/// and eight-image merges of conv3, conv4 and conv5), one row per
/// micro-kernel this host can run. Packing is outside the timed body,
/// and the packed B of every product but the cache-resident one cycles
/// through eight copies, so it is as cold as the freshly packed panels
/// of the conv loop. One thread. Hand-timed rather than through
/// Criterion so each row can print GFLOP/s and its share of the FMA
/// rate: read `min`, and the share as a report, not a gate — the FMA
/// row itself moves by several percent between runs of this host. Rows
/// the command-line filter misses are skipped (the FMA rate runs if any
/// row does).
fn bench_gemm_prepacked(c: &mut Criterion) {
    let samples = if cnn_stack_bench::smoke() { 5 } else { 50 };
    let shapes = [
        (96usize, 256usize, 64usize, 1usize),
        (512, 4608, 64, 8),
        (512, 4608, 128, 8),
        (512, 4608, 32, 8),
        (64, 576, 1024, 8),
        (128, 1152, 256, 8),
        (256, 2304, 64, 8),
        (256, 2304, 256, 8),
    ];
    let kernels = gemm::gemm_kernel_names();
    let label = |m: usize, k: usize, n: usize, kernel: &str| {
        let gflop = 2e-9 * (m * k * n) as f64;
        format!("gemm_prepacked/{m}x{k}x{n}_{gflop:.3}GFLOP/{kernel}")
    };
    let wanted = |m, k, n| {
        kernels
            .iter()
            .any(|kernel| c.matches(&label(m, k, n, kernel)))
    };
    if !c.matches("gemm_prepacked/fma_rate") && !shapes.iter().any(|&(m, k, n, _)| wanted(m, k, n))
    {
        return;
    }
    let fma = fma_rate_gflops(samples);
    match fma {
        Some(rate) => {
            println!("gemm_prepacked/fma_rate: {rate:.1} GFLOP/s (register-only, one core)")
        }
        None => println!("gemm_prepacked/fma_rate: n/a on this host"),
    }
    for (m, k, n, b_copies) in shapes {
        if !wanted(m, k, n) {
            continue;
        }
        let a = random([m, k], 1.0, 13);
        let b = random([k, n], 1.0, 14);
        let plan = GemmPlan::new(m, k, n);
        let mut pa = AlignedBuf::zeroed(plan.packed_a_elems());
        gemm::pack_a_into(&plan, a.data(), &mut pa);
        let pbs: Vec<AlignedBuf> = (0..b_copies)
            .map(|_| {
                let mut pb = AlignedBuf::zeroed(plan.packed_b_elems());
                gemm::pack_b_into(&plan, b.data(), &mut pb);
                pb
            })
            .collect();
        let mut out = vec![0.0f32; m * n];
        let gflop = 2e-9 * (m * k * n) as f64;
        for &kernel in &kernels {
            let label = label(m, k, n, kernel);
            if !c.matches(&label) {
                continue;
            }
            let mut run = |i: usize| {
                let pb = &pbs[i % b_copies];
                let t = std::time::Instant::now();
                gemm::gemm_prepacked_named(kernel, &plan, &pa, pb, &mut out, 1, Schedule::Static);
                t.elapsed().as_secs_f64()
            };
            run(0);
            let mut times: Vec<f64> = (1..=samples).map(&mut run).collect();
            times.sort_by(f64::total_cmp);
            let (min, median) = (times[0], times[times.len() / 2]);
            let share = fma.map_or(String::new(), |rate| {
                format!(", {:.0} % of the FMA rate", 100.0 * gflop / min / rate)
            });
            println!(
                "{label}: min {:.3} ms = {:.1} GFLOP/s{share}  (median {:.3} ms, {samples} samples)",
                min * 1e3,
                gflop / min,
                median * 1e3,
            );
        }
    }
}

criterion_group!(
    benches,
    bench_gemm,
    bench_im2col,
    bench_sparse_conv,
    bench_spmm,
    bench_depthwise,
    bench_winograd,
    bench_init,
    bench_pack_im2col,
    bench_gemm_prepacked
);
criterion_main!(benches);
