//! Quantised-kernel benchmark: a convolution on its 2-bit weight codes
//! against the same convolution on f32 weight panels, on the three
//! largest TTQ-quantised VGG-16 convolutions (the conv5 trio: 512→512,
//! 3×3, 2×2 spatial at CIFAR scale — 2.36 M weights each), emitting
//! `BENCH_quant.json` at the repository root.
//!
//! Each layer is ternarised at the paper's Table III VGG operating
//! point (TTQ threshold 0.09) and timed through `Conv2d::forward` under
//! the one config the server uses (im2col, packed engine), once with a
//! `Dense` label (`im2col-packed`: f32 panels) and once with a `Ternary`
//! label (`im2col-ternary`: codes decoded block by block into the same
//! tile), so the comparison includes everything the serving path pays:
//! im2col, packing, decode, the kernel, and the bias/activation
//! epilogue. The outputs must agree to the bit and the codes must take
//! 1/16 of the panels' bytes (both asserted before timing); the codes
//! may cost at most 1.15× the panels' time per layer (asserted outside
//! smoke mode) — the price of holding the weights at 2 bits.
//!
//! Alongside GFLOP/s the report carries the model-level price of the
//! quantisation: the calibrated top-1 delta at the same operating point
//! (`compress::accuracy`, Fig. 3c), so the JSON answers "how much
//! memory, how much time *and* how much accuracy" in one place.
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench quant       # full measurement
//!   BENCH_SMOKE=1 cargo bench ... --bench quant  # tiny shapes, one
//!       iteration, writes to target/BENCH_quant.smoke.json (CI check)

use cnn_stack_compress::accuracy::{AccuracyModel, Technique};
use cnn_stack_compress::ttq::ternarise_tensor;
use cnn_stack_models::ModelKind;
use cnn_stack_nn::{AlgoChoice, Conv2d, ConvAlgorithm, ExecConfig, Layer, Phase, WeightFormat};
use cnn_stack_tensor::{GemmPlan, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's Table III TTQ operating point for VGG-16.
const TTQ_THRESHOLD: f64 = 0.09;
/// Most the codes may cost against the f32 panels, per layer.
const MAX_SLOWDOWN: f64 = 1.15;

struct LayerCase {
    name: &'static str,
    in_c: usize,
    out_c: usize,
    spatial: usize,
    seed: u64,
}

/// Builds one conv5-trio layer, ternarised at the operating point.
/// Deterministic in `seed`, so the f32 and code runs see identical
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
    codes_seconds: f64,
    f32_weight_bytes: usize,
    codes_weight_bytes: usize,
}

impl Measurement {
    /// Codes time over f32 time.
    fn slowdown(&self) -> f64 {
        self.codes_seconds / self.f32_seconds
    }
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

    // The label, not the config, decides what the packed engine reads.
    let cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
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
        let mut codes_conv = build_conv(case, true);
        assert_eq!(f32_conv.runs(&cfg), AlgoChoice::Im2colPacked);
        assert_eq!(codes_conv.runs(&cfg), AlgoChoice::TernaryConv);

        // The two must agree to the bit before either is timed — the
        // codes are value-preserving by contract.
        let want = f32_conv.forward(&input, Phase::Eval, &cfg);
        let got = codes_conv.forward(&input, Phase::Eval, &cfg);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&want),
            bits(&got),
            "{}: codes diverged from f32",
            case.name
        );

        // The resident weight form of each: the layer's A panels, as
        // f32 values or as 2-bit codes.
        let panels = GemmPlan::new(case.out_c, case.in_c * 9, 1);
        let f32_weight_bytes = panels.packed_a_elems() * 4;
        let codes_weight_bytes = panels.packed_a_code_words() * 4;
        assert_eq!(f32_weight_bytes, 16 * codes_weight_bytes, "{}", case.name);

        let f32_seconds = time_forward(&mut f32_conv, &input, &cfg, iters);
        let codes_seconds = time_forward(&mut codes_conv, &input, &cfg, iters);
        let macs = case.out_c * case.in_c * 9 * case.spatial * case.spatial;
        let r = Measurement {
            name: case.name,
            macs,
            f32_seconds,
            codes_seconds,
            f32_weight_bytes,
            codes_weight_bytes,
        };
        println!(
            "  {:<28} f32 {:>9.6}s ({:>6.2} GFLOP/s, {:>8} B)  codes {:>9.6}s ({:>6.2} GFLOP/s, {:>7} B)  {:.3}x the time",
            r.name,
            r.f32_seconds,
            2.0 * macs as f64 / r.f32_seconds / 1e9,
            r.f32_weight_bytes,
            r.codes_seconds,
            2.0 * macs as f64 / r.codes_seconds / 1e9,
            r.codes_weight_bytes,
            r.slowdown(),
        );
        results.push(r);
    }

    if !smoke {
        for r in &results {
            assert!(
                r.slowdown() <= MAX_SLOWDOWN,
                "{}: codes must cost at most {MAX_SLOWDOWN}x the f32 panels' time single-thread, got {:.3}x",
                r.name,
                r.slowdown()
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
        "  \"note\": \"median of {iters} Conv2d::forward passes per weight form under im2col + the packed engine (im2col + pack + decode + kernel + epilogue); codes output asserted bit-identical to f32 panels and weight bytes asserted 1/16 before timing; gate: codes <= {MAX_SLOWDOWN}x f32 time per layer\","
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
            "    {{\"layer\": \"{}\", \"f32_seconds\": {:.6}, \"f32_gflops\": {:.2}, \"f32_weight_bytes\": {}, \"codes_seconds\": {:.6}, \"codes_gflops\": {:.2}, \"codes_weight_bytes\": {}, \"codes_over_f32_time\": {:.3}}}",
            r.name,
            r.f32_seconds,
            2.0 * r.macs as f64 / r.f32_seconds / 1e9,
            r.f32_weight_bytes,
            r.codes_seconds,
            2.0 * r.macs as f64 / r.codes_seconds / 1e9,
            r.codes_weight_bytes,
            r.slowdown()
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    cnn_stack_bench::write_report("quant", &json);
}
