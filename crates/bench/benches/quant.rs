//! Quantised-kernel benchmark: the packed 2-bit ternary GEMM engine
//! against the f32 packed engine on the three largest TTQ-quantised
//! VGG-16 convolutions (the conv5 trio: 512→512, 3×3, 2×2 spatial at
//! CIFAR scale — 2.36 M weights each), emitting `BENCH_quant.json` at
//! the repository root.
//!
//! Each layer is ternarised at the paper's Table III VGG operating
//! point (TTQ threshold 0.09) and timed through `Conv2d::forward` both
//! ways, so the comparison includes everything the serving path pays:
//! im2col, packing, the kernel, and the bias/activation epilogue. The
//! ternary path must win ≥1.2× single-thread on every layer (asserted
//! outside smoke mode): it streams 16× less weight traffic and its
//! transposed lowering pads the 4-column output to 6 rows instead of
//! 16 columns. The gate was 1.5× until the f32 side's fused packer
//! stopped decoding geometry per row segment (f32 1.25 → 1.09 ms per
//! layer, ternary unchanged at ≈ 0.80 ms): the median of ten runs moved
//! from ≈ 1.5× to ≈ 1.37×, single runs spread 1.13–1.94× on a shared
//! host, and a slower f32 path is not a way to keep a ratio.
//!
//! Alongside GFLOP/s the report carries the model-level price of the
//! speedup: the calibrated top-1 delta at the same operating point
//! (`compress::accuracy`, Fig. 3c), so the JSON answers "how much
//! faster *and* how much accuracy" in one place.
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench quant       # full measurement
//!   BENCH_SMOKE=1 cargo bench ... --bench quant  # tiny shapes, one
//!       iteration, writes to target/BENCH_quant.smoke.json (CI check)

use cnn_stack_compress::accuracy::{AccuracyModel, Technique};
use cnn_stack_compress::ttq::ternarise_tensor;
use cnn_stack_models::ModelKind;
use cnn_stack_nn::{Conv2d, ConvAlgorithm, ExecConfig, Layer, Phase, WeightFormat};
use cnn_stack_tensor::{GemmAlgorithm, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's Table III TTQ operating point for VGG-16.
const TTQ_THRESHOLD: f64 = 0.09;

struct LayerCase {
    name: &'static str,
    in_c: usize,
    out_c: usize,
    spatial: usize,
    seed: u64,
}

/// Builds one conv5-trio layer, ternarised at the operating point.
/// Deterministic in `seed`, so the f32 and quantised runs see identical
/// weights.
fn build_conv(case: &LayerCase, quantised: bool) -> Conv2d {
    let mut conv = Conv2d::new(case.in_c, case.out_c, 3, 1, 1, case.seed);
    ternarise_tensor(&mut conv.weight_mut().value, TTQ_THRESHOLD);
    if quantised {
        conv.set_format(WeightFormat::Ternary);
    }
    conv
}

/// Median seconds per `forward` call after one warm-up.
fn time_forward(conv: &mut Conv2d, input: &Tensor, cfg: &ExecConfig, iters: usize) -> f64 {
    conv.prepare(cfg);
    let _ = conv.forward(input, Phase::Eval, cfg);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let out = conv.forward(input, Phase::Eval, cfg);
        samples.push(t.elapsed().as_secs_f64());
        assert!(
            out.data()[0].is_finite(),
            "benchmark output went non-finite"
        );
    }
    samples.sort_by(|x, y| x.partial_cmp(y).expect("timings are finite"));
    samples[samples.len() / 2]
}

struct Measurement {
    name: &'static str,
    macs: usize,
    f32_seconds: f64,
    ternary_seconds: f64,
    speedup: f64,
}

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let iters = if smoke { 1 } else { 31 };
    let cases: Vec<LayerCase> = if smoke {
        vec![LayerCase {
            name: "smoke-conv(64->64)@4x4",
            in_c: 64,
            out_c: 64,
            spatial: 4,
            seed: 5,
        }]
    } else {
        // VGG-16's three largest TTQ'd convolutions at CIFAR scale: the
        // conv5 trio, 512→512 3×3 on a 2×2 plane (2.36 M weights each).
        vec![
            LayerCase {
                name: "vgg16-conv5_1(512->512)@2x2",
                in_c: 512,
                out_c: 512,
                spatial: 2,
                seed: 51,
            },
            LayerCase {
                name: "vgg16-conv5_2(512->512)@2x2",
                in_c: 512,
                out_c: 512,
                spatial: 2,
                seed: 52,
            },
            LayerCase {
                name: "vgg16-conv5_3(512->512)@2x2",
                in_c: 512,
                out_c: 512,
                spatial: 2,
                seed: 53,
            },
        ]
    };

    let f32_cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        gemm_algo: GemmAlgorithm::Packed,
        ..ExecConfig::serial()
    };
    let ternary_cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        gemm_algo: GemmAlgorithm::TernaryPacked,
        ..ExecConfig::serial()
    };

    println!(
        "quant bench: TTQ threshold {TTQ_THRESHOLD}, single thread{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut results: Vec<Measurement> = Vec::new();
    for case in &cases {
        let input = Tensor::from_fn([1, case.in_c, case.spatial, case.spatial], |i| {
            ((i % 31) as f32 - 15.0) * 0.07
        });

        let mut f32_conv = build_conv(case, false);
        let mut tern_conv = build_conv(case, true);

        // The two lowerings must agree to the bit before either is
        // timed — the quantised path is value-preserving by contract.
        let want = f32_conv.forward(&input, Phase::Eval, &f32_cfg);
        let got = tern_conv.forward(&input, Phase::Eval, &ternary_cfg);
        assert_eq!(
            want.data(),
            got.data(),
            "{}: ternary path diverged from f32",
            case.name
        );

        let f32_seconds = time_forward(&mut f32_conv, &input, &f32_cfg, iters);
        let ternary_seconds = time_forward(&mut tern_conv, &input, &ternary_cfg, iters);
        let macs = case.out_c * case.in_c * 9 * case.spatial * case.spatial;
        let speedup = f32_seconds / ternary_seconds;
        println!(
            "  {:<28} f32 {:>9.6}s ({:>6.2} GFLOP/s)  ternary {:>9.6}s ({:>6.2} GFLOP/s)  {speedup:.2}x",
            case.name,
            f32_seconds,
            2.0 * macs as f64 / f32_seconds / 1e9,
            ternary_seconds,
            2.0 * macs as f64 / ternary_seconds / 1e9,
        );
        results.push(Measurement {
            name: case.name,
            macs,
            f32_seconds,
            ternary_seconds,
            speedup,
        });
    }

    if !smoke {
        for r in &results {
            assert!(
                r.speedup >= 1.2,
                "{}: ternary packed GEMM must beat f32 packed >= 1.2x single-thread, got {:.2}x",
                r.name,
                r.speedup
            );
        }
    }

    // The accuracy side of the trade: calibrated top-1 at the same TTQ
    // operating point, versus the uncompressed baseline (Fig. 3c).
    let kind = ModelKind::Vgg16;
    let baseline = AccuracyModel::baseline(kind);
    let quantised = AccuracyModel::accuracy(kind, Technique::TernaryQuantisation, TTQ_THRESHOLD);
    let sparsity = AccuracyModel::ttq_sparsity(kind, TTQ_THRESHOLD);
    println!(
        "accuracy: baseline {baseline:.2}% -> ttq {quantised:.2}% (delta {:.2} pp, {sparsity:.1}% weights zeroed)",
        quantised - baseline
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"VGG-16 conv5 trio (512x512x3x3 @ 2x2), TTQ threshold {TTQ_THRESHOLD}, single thread\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"median of {iters} Conv2d::forward passes per engine (im2col + pack + kernel + epilogue); ternary output asserted bit-identical to f32 before timing\","
    );
    let _ = writeln!(json, "  \"ttq_threshold\": {TTQ_THRESHOLD},");
    let _ = writeln!(json, "  \"top1_baseline_pct\": {baseline:.2},");
    let _ = writeln!(json, "  \"top1_quantised_pct\": {quantised:.2},");
    let _ = writeln!(json, "  \"top1_delta_pp\": {:.2},", quantised - baseline);
    let _ = writeln!(json, "  \"ttq_sparsity_pct\": {sparsity:.2},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{}\", \"f32_seconds\": {:.6}, \"f32_gflops\": {:.2}, \"ternary_seconds\": {:.6}, \"ternary_gflops\": {:.2}, \"speedup\": {:.3}}}",
            r.name,
            r.f32_seconds,
            2.0 * r.macs as f64 / r.f32_seconds / 1e9,
            r.ternary_seconds,
            2.0 * r.macs as f64 / r.ternary_seconds / 1e9,
            r.speedup
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    cnn_stack_bench::write_report("quant", &json);
}
