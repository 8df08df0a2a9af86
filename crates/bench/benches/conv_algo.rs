//! Convolution-algorithm benchmark: direct, im2col + packed GEMM,
//! Winograd F(2×2,3×3) and Winograd F(4×4,3×3) over VGG-16 / MobileNet
//! layer shapes — VGG-16's CIFAR-scale convolutions at batch 8 among
//! them — emitting `BENCH_conv.json` at the repository root.
//!
//! One gate is asserted outside smoke mode: on VGG-16's conv2_2 at
//! batch 8 (128→128 over 16×16 planes) F(4×4) must be ≥ 1.5× faster than
//! im2col + packed GEMM — its 36 frequency products run on the same
//! packed engine, so the gate holds the transforms and the bank to
//! their share of the 4× multiply saving.
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench conv_algo      # full + gate
//!   BENCH_SMOKE=1 cargo bench ... --bench conv_algo  # tiny shapes,
//!       one iteration, no gate, writes target/BENCH_conv.smoke.json

use cnn_stack_nn::{Conv2d, ConvAlgorithm, ExecConfig, Layer, Phase};
use cnn_stack_tensor::{GemmAlgorithm, Tensor};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One algorithm column of the comparison table.
#[derive(Clone, Copy)]
struct Algo {
    label: &'static str,
    conv: ConvAlgorithm,
    gemm: GemmAlgorithm,
}

const DIRECT: Algo = Algo {
    label: "direct",
    conv: ConvAlgorithm::Direct,
    gemm: GemmAlgorithm::Packed,
};
const IM2COL_PACKED: Algo = Algo {
    label: "im2col-packed",
    conv: ConvAlgorithm::Im2col,
    gemm: GemmAlgorithm::Packed,
};
const WINOGRAD_F2: Algo = Algo {
    label: "winograd-f2",
    conv: ConvAlgorithm::Winograd,
    gemm: GemmAlgorithm::Packed,
};
const WINOGRAD_F4: Algo = Algo {
    label: "winograd-f4",
    conv: ConvAlgorithm::WinogradF4,
    gemm: GemmAlgorithm::Packed,
};

struct Case {
    name: &'static str,
    batch: usize,
    in_c: usize,
    out_c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    iters: usize,
    algos: &'static [Algo],
    seed: u64,
}

impl Case {
    fn macs(&self) -> usize {
        let out_h = (self.h + 2 * self.pad - self.k) / self.stride + 1;
        let out_w = (self.w + 2 * self.pad - self.k) / self.stride + 1;
        self.batch * self.out_c * self.in_c * self.k * self.k * out_h * out_w
    }

    /// One of VGG-16's CIFAR-scale 3×3 convolutions at batch 8, under
    /// the three rows the plan compiler chooses between.
    fn vgg_b8(name: &'static str, in_c: usize, out_c: usize, hw: usize, seed: u64) -> Case {
        Case {
            name,
            batch: 8,
            in_c,
            out_c,
            h: hw,
            w: hw,
            k: 3,
            stride: 1,
            pad: 1,
            iters: 9,
            algos: &[IM2COL_PACKED, WINOGRAD_F2, WINOGRAD_F4],
            seed,
        }
    }
}

/// The gate's layer: VGG-16 conv2_2 at batch 8.
const GATE: &str = "vgg16-conv2_2(128->128)@16x16-k3-b8";

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

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let cases: Vec<Case> = if smoke {
        vec![
            Case {
                name: "smoke-3x3(8->8)@8x8",
                batch: 1,
                in_c: 8,
                out_c: 8,
                h: 8,
                w: 8,
                k: 3,
                stride: 1,
                pad: 1,
                iters: 1,
                algos: &[DIRECT, IM2COL_PACKED, WINOGRAD_F2, WINOGRAD_F4],
                seed: 1,
            },
            Case {
                name: "smoke-7x7(2->2)@16x16",
                batch: 1,
                in_c: 2,
                out_c: 2,
                h: 16,
                w: 16,
                k: 7,
                stride: 1,
                pad: 0,
                iters: 1,
                algos: &[DIRECT, IM2COL_PACKED],
                seed: 2,
            },
        ]
    } else {
        vec![
            // VGG-16 conv4_1 shape (ImageNet scale): 28×28 map so the
            // F(4×4) tiles divide the output exactly.
            Case {
                name: "vgg16-conv4_1(512->512)@28x28-k3",
                batch: 1,
                in_c: 512,
                out_c: 512,
                h: 28,
                w: 28,
                k: 3,
                stride: 1,
                pad: 1,
                iters: 5,
                algos: &[IM2COL_PACKED, WINOGRAD_F2, WINOGRAD_F4],
                seed: 41,
            },
            // VGG-16 conv2_2 at CIFAR scale: mid-size 3×3 where all
            // four algorithms are cheap enough to time.
            Case {
                name: "vgg16-conv2_2(128->128)@16x16-k3",
                batch: 1,
                in_c: 128,
                out_c: 128,
                h: 16,
                w: 16,
                k: 3,
                stride: 1,
                pad: 1,
                iters: 9,
                algos: &[DIRECT, IM2COL_PACKED, WINOGRAD_F2, WINOGRAD_F4],
                seed: 22,
            },
            // MobileNet pointwise 1×1: the im2col identity fast path.
            Case {
                name: "mobilenet-pointwise(256->256)@14x14-k1",
                batch: 1,
                in_c: 256,
                out_c: 256,
                h: 14,
                w: 14,
                k: 1,
                stride: 1,
                pad: 0,
                iters: 9,
                algos: &[DIRECT, IM2COL_PACKED],
                seed: 31,
            },
            // MobileNet stem: 3×3 stride 2 (Winograd-ineligible).
            Case {
                name: "mobilenet-stem(3->32)@32x32-k3s2",
                batch: 1,
                in_c: 3,
                out_c: 32,
                h: 32,
                w: 32,
                k: 3,
                stride: 2,
                pad: 1,
                iters: 9,
                algos: &[DIRECT, IM2COL_PACKED],
                seed: 32,
            },
            // VGG-16 at CIFAR scale, batch 8: one layer per plane size.
            // Each row's fastest is the kernel the plan compiler picks.
            Case::vgg_b8("vgg16-conv1_2(64->64)@32x32-k3-b8", 64, 64, 32, 12),
            Case::vgg_b8(GATE, 128, 128, 16, 22),
            Case::vgg_b8("vgg16-conv3_2(256->256)@8x8-k3-b8", 256, 256, 8, 32),
            Case::vgg_b8("vgg16-conv4_2(512->512)@4x4-k3-b8", 512, 512, 4, 42),
            Case::vgg_b8("vgg16-conv5_2(512->512)@2x2-k3-b8", 512, 512, 2, 52),
        ]
    };

    println!(
        "conv-algo bench: single thread{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut results: Vec<(&Case, BTreeMap<&'static str, f64>)> = Vec::new();
    for case in &cases {
        let input = Tensor::from_fn([case.batch, case.in_c, case.h, case.w], |i| {
            ((i % 29) as f32 - 14.0) * 0.05
        });
        let mut timings = BTreeMap::new();
        for algo in case.algos {
            let mut conv = Conv2d::new(
                case.in_c,
                case.out_c,
                case.k,
                case.stride,
                case.pad,
                case.seed,
            );
            let cfg = ExecConfig {
                conv_algo: algo.conv,
                gemm_algo: algo.gemm,
                ..ExecConfig::serial()
            };
            let secs = time_forward(&mut conv, &input, &cfg, case.iters);
            println!(
                "  {:<38} {:<14} {:>10.6}s ({:>7.2} GFLOP/s)",
                case.name,
                algo.label,
                secs,
                2.0 * case.macs() as f64 / secs / 1e9
            );
            timings.insert(algo.label, secs);
        }
        results.push((case, timings));
    }

    if !smoke {
        let gate = &results
            .iter()
            .find(|(case, _)| case.name == GATE)
            .expect("gate case present")
            .1;
        let f4_speedup = gate["im2col-packed"] / gate["winograd-f4"];
        assert!(
            f4_speedup >= 1.5,
            "F(4x4) must be >= 1.5x over im2col-packed on {GATE}, got {f4_speedup:.2}x"
        );
        println!(
            "gate: winograd-f4 {f4_speedup:.2}x over im2col-packed on {GATE} (>=1.5 required)"
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"convolution algorithms over VGG-16/MobileNet layer shapes, single thread\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"median Conv2d::forward seconds per algorithm over a whole batch (includes lowering, packing, transforms, epilogue; weight forms such as Winograd banks built beforehand); gate: winograd-f4 >= 1.5x im2col-packed on vgg16-conv2_2 at batch 8\","
    );
    json.push_str("  \"results\": [\n");
    for (i, (case, timings)) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{}\", \"batch\": {}, \"kernel\": {}, \"macs\": {}, \"timings\": {{",
            case.name,
            case.batch,
            case.k,
            case.macs()
        );
        let best = timings
            .iter()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0;
        for (j, (label, secs)) in timings.iter().enumerate() {
            let _ = write!(json, "\"{label}\": {secs:.6}");
            if j + 1 < timings.len() {
                json.push_str(", ");
            }
        }
        let _ = write!(json, "}}, \"fastest\": \"{best}\"}}");
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    cnn_stack_bench::write_report("conv", &json);
}
