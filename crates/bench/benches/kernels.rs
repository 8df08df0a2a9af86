//! Criterion microbenchmarks of the compute kernels underlying every
//! experiment: GEMM variants, the im2col lowering, dense vs sparse
//! convolution at the paper's layer shapes, the depthwise kernel, and
//! the two halves of the packed conv path — the fused im2col→pack-B
//! packer and the prepacked GEMM on every micro-kernel the host has.
//!
//! `BENCH_SMOKE=1` takes five samples of everything (CI: the groups
//! run, nothing is read off them).

use cnn_stack_nn::{Conv2d, ConvAlgorithm, ExecConfig, Layer};
use cnn_stack_parallel::Schedule;
use cnn_stack_sparse::{sparse_conv2d, CsrMatrix};
use cnn_stack_tensor::{
    depthwise_conv2d_into, gemm, im2col, pack_b_im2col_batch_into, Conv2dGeometry, GemmPlan,
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

/// Dense GEMM-based conv vs direct sparse conv across sparsity levels —
/// the kernel-level version of Fig. 1's expected-vs-actual gap.
fn bench_sparse_conv(c: &mut Criterion) {
    let mut group = group(c, "conv_64to64_16x16", 10, 2);
    let geom = Conv2dGeometry::new(64, 16, 16, 3, 3, 1, 1);
    let input = random([1, 64, 16, 16], 1.0, 3);

    let dense_w = random([64, geom.patch_len()], 1.0, 4);
    let dense_csr = CsrMatrix::from_dense(&dense_w, 0.0);
    group.bench_function("dense_as_csr_0pct", |bencher| {
        bencher.iter(|| sparse_conv2d(&input, &dense_csr, None, &geom))
    });

    for sparsity in [50u64, 80, 95] {
        let w = random(
            [64, geom.patch_len()],
            1.0 - sparsity as f64 / 100.0,
            sparsity,
        );
        let csr = CsrMatrix::from_dense(&w, 0.0);
        group.bench_with_input(
            BenchmarkId::new("csr", format!("{sparsity}pct")),
            &csr,
            |bencher, csr| bencher.iter(|| sparse_conv2d(&input, csr, None, &geom)),
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

/// The depthwise kernel at MobileNet's four plane sizes (with the
/// channel count MobileNet has there) × stride 1/2, 3×3 "same" filters,
/// fused ReLU, one thread. The 32×32 plane takes the kernel's row order,
/// the smaller ones its channel-blocked order.
fn bench_depthwise(c: &mut Criterion) {
    let mut group = group(c, "depthwise", 200, 1);
    for (plane, channels) in [(32usize, 64usize), (16, 128), (8, 256), (4, 512)] {
        let input = random([1, channels, plane, plane], 1.0, 9);
        let weight = random([channels, 1, 3, 3], 1.0, 10);
        let bias = random([channels], 1.0, 11);
        for stride in [1usize, 2] {
            let geom = Conv2dGeometry::new(1, plane, plane, 3, 3, stride, 1);
            let mut out = vec![0.0f32; channels * geom.out_positions()];
            group.bench_function(
                BenchmarkId::new(format!("{plane}x{plane}_c{channels}"), format!("s{stride}")),
                |bencher| {
                    bencher.iter(|| {
                        depthwise_conv2d_into(
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
                },
            );
        }
    }
    group.finish();
}

/// The fused im2col→pack-B packer at VGG-16's nine distinct conv shapes
/// (batch 8, merged the way the engine merges them: the group is read
/// off `Conv2d::gemm_plan`) plus MobileNet's strided 3→32 stem. One
/// iteration packs one group — the unit the engine packs between GEMMs —
/// and the label carries the group's packed megabytes and how many such
/// groups a batch-8 forward pass packs (`x13` sums VGG-16's 13 convs).
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
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        let plan = Conv2d::new(in_c, out_c, 3, stride, 1, 1)
            .gemm_plan(&[BATCH, in_c, plane, plane], &cfg)
            .expect("im2col over the packed engine has a GEMM plan");
        let images = plan.n / geom.out_positions();
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

/// The prepacked f32 GEMM at VGG-16's batch-8 conv products (m = out
/// channels, k = patch length, n = one group's merged columns), one row
/// per micro-kernel this host can run: what the kernel alone is worth,
/// with packing outside the timed body. One thread.
fn bench_gemm_prepacked(c: &mut Criterion) {
    let mut group = group(c, "gemm_prepacked", 50, 1);
    for (m, k, n) in [
        (512usize, 4608usize, 64usize),
        (512, 4608, 128),
        (64, 576, 1024),
        (128, 1152, 256),
        (256, 2304, 64),
    ] {
        let a = random([m, k], 1.0, 13);
        let b = random([k, n], 1.0, 14);
        let plan = GemmPlan::new(m, k, n);
        let mut pa = vec![0.0f32; plan.packed_a_elems()];
        let mut pb = vec![0.0f32; plan.packed_b_elems()];
        gemm::pack_a_into(&plan, a.data(), &mut pa);
        gemm::pack_b_into(&plan, b.data(), &mut pb);
        let mut out = vec![0.0f32; m * n];
        for kernel in gemm::gemm_kernel_names() {
            group.bench_function(
                BenchmarkId::new(
                    format!("{m}x{k}x{n}_{:.3}GFLOP", 2e-9 * (m * k * n) as f64),
                    kernel,
                ),
                |bencher| {
                    bencher.iter(|| {
                        gemm::gemm_prepacked_named(
                            kernel,
                            &plan,
                            &pa,
                            &pb,
                            &mut out,
                            1,
                            Schedule::Static,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_im2col,
    bench_sparse_conv,
    bench_spmm,
    bench_depthwise,
    bench_pack_im2col,
    bench_gemm_prepacked
);
criterion_main!(benches);
