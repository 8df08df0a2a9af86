//! GEMM engine throughput sweep: naive / blocked / packed (packing both
//! operands per call) / prepacked (the engine alone) at the paper's
//! convolution GEMM shapes, across thread counts, emitting
//! `BENCH_gemm.json` at the repository root.
//!
//! The vendored criterion is a plain sampler without machine-readable
//! output, so this harness times iterations directly (median of the
//! per-iteration wall-clock samples) and writes the JSON itself.
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench gemm       # full sweep
//!   BENCH_SMOKE=1 cargo bench ... --bench gemm   # tiny shapes,
//!       writes to target/BENCH_gemm.smoke.json (CI correctness check)

use cnn_stack_parallel::{parallel_for, DisjointWriter, Schedule};
use cnn_stack_tensor::{gemm, AlignedBuf, GemmPlan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// One benchmarked problem: `C[m×n] = A[m×k] · B[k×n]`, named after the
/// layer whose im2col lowering produces it.
struct ShapeSpec {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// im2col GEMM shapes of the paper's model zoo (m = output channels,
/// k = patch length, n = output positions: at 224×224 inputs for the
/// first four, at 32×32 CIFAR-10 inputs and batch 1 for the last three).
const SHAPES: &[ShapeSpec] = &[
    // VGG-16 conv2_2: 128 filters over 128×3×3 patches, 112×112 map
    // (n clipped to one 16×16 tile column to keep the naive arm sane).
    ShapeSpec {
        name: "vgg16_conv2_2",
        m: 128,
        k: 1152,
        n: 256,
    },
    // VGG-16 conv4_3: the acceptance-criterion shape.
    ShapeSpec {
        name: "vgg16_conv4_3",
        m: 512,
        k: 4608,
        n: 196,
    },
    // MobileNet pointwise at the 14×14 stage: k = in_channels (1×1).
    ShapeSpec {
        name: "mobilenet_pw_14x14",
        m: 512,
        k: 512,
        n: 196,
    },
    // ResNet-18 conv3_x block: 128 in → 256 out is folded to the
    // 3×3/128-channel patch shape at the 14×14 map.
    ShapeSpec {
        name: "resnet18_conv3_x",
        m: 256,
        k: 1152,
        n: 196,
    },
    // The paper's own setting, CIFAR-10 at batch 1: the deepest layers
    // see 2×2 planes, so their GEMMs have n = 4 live columns (the
    // AVX-512 skinny tile's shapes). VGG-16 conv5_x:
    ShapeSpec {
        name: "vgg16_conv5_b1",
        m: 512,
        k: 4608,
        n: 4,
    },
    // MobileNet's last pointwise layer on its 2×2 plane.
    ShapeSpec {
        name: "mobilenet_pw_2x2_b1",
        m: 1024,
        k: 1024,
        n: 4,
    },
    // A TTQ VGG-16 linear(512→512) on codes, `W · Xᵀ`: one column.
    ShapeSpec {
        name: "ttq_linear_b1",
        m: 512,
        k: 512,
        n: 1,
    },
];

const SMOKE_SHAPES: &[ShapeSpec] = &[
    ShapeSpec {
        name: "smoke_17x33x29",
        m: 17,
        k: 33,
        n: 29,
    },
    ShapeSpec {
        name: "smoke_skinny_31x300x4",
        m: 31,
        k: 300,
        n: 4,
    },
];

fn random_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Row-split driver for the kernels without internal parallelism:
/// each worker computes a contiguous row slab of C with `kernel`.
#[allow(clippy::too_many_arguments)]
fn gemm_rowsplit(
    kernel: impl Fn(&[f32], &[f32], &mut [f32], usize, usize, usize) + Sync,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    let writer = DisjointWriter::new(c);
    let writer = &writer;
    parallel_for(threads, m, Schedule::Static, |range| {
        // SAFETY: `Schedule::Static` hands each worker a disjoint row
        // range, so the written C slabs never overlap.
        let rows = unsafe { writer.slice_mut(range.start * n, range.end * n) };
        let a_rows = &a[range.start * k..range.end * k];
        kernel(a_rows, b, rows, range.len(), k, n);
    });
}

/// Times `body` enough iterations to pass `min_total_s` of accumulated
/// runtime (at least `min_iters`), returning the median per-iteration
/// seconds.
fn time_median(min_iters: usize, min_total_s: f64, mut body: impl FnMut()) -> f64 {
    // Warm-up: fault in buffers and the dispatch cache.
    body();
    let mut samples = Vec::new();
    let mut total = 0.0f64;
    while samples.len() < min_iters || total < min_total_s {
        let t = Instant::now();
        body();
        let dt = t.elapsed().as_secs_f64();
        samples.push(dt);
        total += dt;
        if samples.len() >= 64 {
            break;
        }
    }
    samples.sort_by(|x, y| x.partial_cmp(y).expect("timings are finite"));
    samples[samples.len() / 2]
}

struct Measurement {
    shape: &'static str,
    algorithm: &'static str,
    threads: usize,
    seconds: f64,
    gflops: f64,
}

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let shapes = if smoke { SMOKE_SHAPES } else { SHAPES };
    let (min_iters, min_total_s) = if smoke { (1, 0.0) } else { (3, 0.3) };
    let thread_counts = [1usize, 2, 4];
    let mut results: Vec<Measurement> = Vec::new();

    println!(
        "gemm bench: kernel={}, {} shape(s), threads {:?}{}",
        gemm::gemm_kernel_name(),
        shapes.len(),
        thread_counts,
        if smoke { " [smoke]" } else { "" }
    );

    for spec in shapes {
        let ShapeSpec { name, m, k, n } = *spec;
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let a = random_vec(m * k, 1);
        let b = random_vec(k * n, 2);
        let mut c = vec![0.0f32; m * n];
        let plan = GemmPlan::new(m, k, n);
        let mut scratch = vec![0.0f32; plan.scratch_elems()];
        // Both operands packed once, on cache lines, as a deployed layer
        // holds its weight panels: the `prepacked` rows time the engine
        // alone.
        let mut packed_a = AlignedBuf::zeroed(plan.packed_a_elems());
        let mut packed_b = AlignedBuf::zeroed(plan.packed_b_elems());
        gemm::pack_a_into(&plan, &a, &mut packed_a);
        gemm::pack_b_into(&plan, &b, &mut packed_b);

        // Correctness cross-check before timing anything.
        let mut want = vec![0.0f32; m * n];
        gemm::gemm_naive_into(&a, &b, &mut want, m, k, n);
        gemm::gemm_packed_into(&a, &b, &mut c, m, k, n, &mut scratch, 1, Schedule::Static);
        let max_diff = want
            .iter()
            .zip(&c)
            .map(|(w, g)| (w - g).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff <= 1e-3,
            "{name}: packed disagrees with naive by {max_diff}"
        );

        for &threads in &thread_counts {
            for (algorithm, runner) in [
                (
                    "naive",
                    Box::new(|c: &mut [f32], scratch: &mut [f32], threads: usize| {
                        let _ = scratch;
                        gemm_rowsplit(gemm::gemm_naive_into, &a, &b, c, m, k, n, threads);
                    }) as Box<dyn Fn(&mut [f32], &mut [f32], usize)>,
                ),
                (
                    "blocked",
                    Box::new(|c: &mut [f32], scratch: &mut [f32], threads: usize| {
                        let _ = scratch;
                        let blocked = |a: &[f32], b: &[f32], c: &mut [f32], m, k, n| {
                            gemm::gemm_into(a, b, c, m, k, n, gemm::GemmAlgorithm::Blocked)
                        };
                        gemm_rowsplit(blocked, &a, &b, c, m, k, n, threads);
                    }),
                ),
                (
                    "packed",
                    Box::new(|c: &mut [f32], scratch: &mut [f32], threads: usize| {
                        gemm::gemm_packed_into(
                            &a,
                            &b,
                            c,
                            m,
                            k,
                            n,
                            scratch,
                            threads,
                            Schedule::Static,
                        );
                    }),
                ),
                (
                    "prepacked",
                    Box::new(|c: &mut [f32], _: &mut [f32], threads: usize| {
                        let (pa, pb) = (&packed_a[..], &packed_b[..]);
                        gemm::gemm_prepacked(&plan, pa, pb, c, threads, Schedule::Static);
                    }),
                ),
            ] {
                let seconds = time_median(min_iters, min_total_s, || {
                    c.fill(0.0);
                    runner(&mut c, &mut scratch, threads);
                });
                let gflops = flops / seconds / 1e9;
                println!("  {name:<20} {algorithm:<9} t={threads}  {seconds:>9.5}s  {gflops:>7.2} GFLOP/s");
                results.push(Measurement {
                    shape: name,
                    algorithm,
                    threads,
                    seconds,
                    gflops,
                });
            }
        }
    }

    // Headline ratio at the acceptance-criterion shape.
    if !smoke {
        let single = |alg: &str| {
            results
                .iter()
                .find(|r| r.shape == "vgg16_conv4_3" && r.algorithm == alg && r.threads == 1)
                .expect("measured")
                .gflops
        };
        let speedup = single("packed") / single("blocked");
        println!("vgg16_conv4_3 packed/blocked single-thread speedup: {speedup:.2}x");
        assert!(
            speedup >= 3.0,
            "packed GEMM must be at least 3x the blocked GEMM single-thread"
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", gemm::gemm_kernel_name());
    let _ = writeln!(
        json,
        "  \"note\": \"median per-iteration wall clock; host has {} core(s), so >1-thread rows measure scheduling overhead, not speedup\",",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shape\": \"{}\", \"algorithm\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \"gflops\": {:.3}}}",
            r.shape, r.algorithm, r.threads, r.seconds, r.gflops
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    cnn_stack_bench::write_report("gemm", &json);
}
