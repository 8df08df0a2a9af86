//! Criterion microbenchmarks of the compute kernels underlying every
//! experiment: GEMM variants, the im2col lowering, and dense vs sparse
//! convolution at the paper's layer shapes.

use cnn_stack_parallel::Schedule;
use cnn_stack_sparse::{sparse_conv2d, CsrMatrix};
use cnn_stack_tensor::{depthwise_conv2d_into, gemm, im2col, Conv2dGeometry, Tensor, TileConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

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
    let mut group = c.benchmark_group("gemm_256x2304x64");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let a = random([256, 2304], 1.0, 1);
    let b = random([2304, 64], 1.0, 2);
    for (label, algo) in [
        ("naive", gemm::GemmAlgorithm::Naive),
        ("blocked", gemm::GemmAlgorithm::Blocked),
        (
            "tiled_32x32x32u4",
            gemm::GemmAlgorithm::Tiled(TileConfig::default()),
        ),
    ] {
        group.bench_function(label, |bencher| {
            bencher.iter(|| gemm::matmul_with(&a, &b, algo))
        });
    }
    group.finish();
}

/// The im2col lowering for a CIFAR 3x3 "same" convolution input.
fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
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
    let mut group = c.benchmark_group("conv_64to64_16x16");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
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
    let mut group = c.benchmark_group("spmm_512x512x64");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
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
    let mut group = c.benchmark_group("depthwise");
    group
        .sample_size(200)
        .measurement_time(Duration::from_secs(1));
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

criterion_group!(
    benches,
    bench_gemm,
    bench_im2col,
    bench_sparse_conv,
    bench_spmm,
    bench_depthwise
);
criterion_main!(benches);
