//! Convolution-algorithm benchmark: direct, im2col + packed GEMM,
//! Winograd F(2×2,3×3) and Winograd F(4×4,3×3) over VGG-16 / MobileNet
//! layer shapes, emitting `BENCH_conv.json` at the repository root.
//!
//! One gate is asserted outside smoke mode: on a VGG-16 conv4_1-shaped
//! 3×3 layer (28×28 map, so the 4×4 tiles divide the output exactly)
//! F(4×4) must be ≥ 1.3× faster than F(2×2); the algebra gives
//! 16/9 ≈ 1.78× fewer multiplies per output.
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
        self.out_c * self.in_c * self.k * self.k * out_h * out_w
    }
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

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let cases: Vec<Case> = if smoke {
        vec![
            Case {
                name: "smoke-3x3(8->8)@8x8",
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
            // F(4×4) tiles divide the output exactly — the F4-vs-F2
            // gate shape.
            Case {
                name: "vgg16-conv4_1(512->512)@28x28-k3",
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
        ]
    };

    println!(
        "conv-algo bench: single thread{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut results: Vec<(&'static str, usize, usize, BTreeMap<&'static str, f64>)> = Vec::new();
    for case in &cases {
        let input = Tensor::from_fn([1, case.in_c, case.h, case.w], |i| {
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
        results.push((case.name, case.macs(), case.k, timings));
    }

    if !smoke {
        let f4_case = &results
            .iter()
            .find(|(n, ..)| n.starts_with("vgg16-conv4_1"))
            .expect("gate case present")
            .3;
        let f4_speedup = f4_case["winograd-f2"] / f4_case["winograd-f4"];
        assert!(
            f4_speedup >= 1.3,
            "F(4x4) must be >= 1.3x over F(2x2) on the VGG conv4_1 shape \
             (16/9 multiplies), got {f4_speedup:.2}x"
        );
        println!("gate: winograd-f4 {f4_speedup:.2}x over f2 (>=1.3 required)");
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"convolution algorithms over VGG-16/MobileNet layer shapes, single thread\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"median Conv2d::forward seconds per algorithm (includes lowering, packing, transforms, epilogue); gate: winograd-f4 >= 1.3x winograd-f2 on the 28x28 VGG shape\","
    );
    json.push_str("  \"results\": [\n");
    for (i, (name, macs, k, timings)) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{name}\", \"kernel\": {k}, \"macs\": {macs}, \"timings\": {{"
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
