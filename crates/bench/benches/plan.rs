//! End-to-end plan-compiler benchmark: per-layer algorithm selection
//! versus every single global `ExecConfig`, on a mixed-sparsity VGG-16,
//! emitting `BENCH_plan.json` at the repository root.
//!
//! The workload is the regime the paper's §V-C sweep cannot express: a
//! weight-pruned network where only *some* layers are sparse enough for
//! CSR to win (the crossover sits near 2% density on this host, see
//! BENCH_gemm.json), so any global format/algorithm choice is wrong for
//! part of the network. The pass compiler folds batch norms, fuses the
//! ReLU epilogues, and picks im2col+packed for the dense layers and
//! CSR for the pruned ones — it must beat the best global config
//! end-to-end (asserted below).
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench plan       # full measurement
//!   BENCH_SMOKE=1 cargo bench ... --bench plan   # tiny width, one
//!       iteration, writes to target/BENCH_plan.smoke.json (CI check)

use cnn_stack_models::{Model, ModelKind};
use cnn_stack_nn::network::set_network_format;
use cnn_stack_nn::{
    Conv2d, ConvAlgorithm, ExecConfig, GuardConfig, InferencePlan, InferenceSession, Linear,
    PlanCompiler, WeightFormat,
};
use cnn_stack_tensor::Tensor;
use std::fmt::Write as _;
use std::time::Instant;

/// Magnitude-prunes `data` in place to the target sparsity.
fn prune_to(data: &mut [f32], sparsity: f64) {
    let mut mags: Vec<f32> = data.iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
    let cut_idx = ((data.len() as f64 * sparsity) as usize).min(data.len() - 1);
    let cut = mags[cut_idx];
    for v in data.iter_mut() {
        if v.abs() <= cut {
            *v = 0.0;
        }
    }
}

/// Builds the mixed-sparsity workload: a width-scaled VGG-16 whose
/// *large* conv layers and classifier are magnitude-pruned to ~99.5%
/// sparsity while the small early layers stay dense. Deterministic, so
/// every config benchmarks the identical network.
fn build_mixed_model(width: f64, elems_cut: usize) -> Model {
    let mut model = ModelKind::Vgg16.build_width(10, width);
    for layer in model.network.layers_mut() {
        if let Some(conv) = layer.as_any_mut().downcast_mut::<Conv2d>() {
            if conv.weight().value.len() >= elems_cut {
                prune_to(conv.weight_mut().value.data_mut(), 0.995);
            }
        } else if let Some(fc) = layer.as_any_mut().downcast_mut::<Linear>() {
            if fc.weight().value.len() >= elems_cut {
                prune_to(fc.weight_mut().value.data_mut(), 0.995);
            }
        }
    }
    model
}

/// Median of per-iteration wall-clock times for `session.run_into`.
fn time_session(
    session: &mut InferenceSession,
    input: &Tensor,
    out: &mut Tensor,
    iters: usize,
) -> f64 {
    session.run_into(input, out).expect("warm-up run succeeds");
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        session.run_into(input, out).expect("timed run succeeds");
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(|x, y| x.partial_cmp(y).expect("timings are finite"));
    samples[samples.len() / 2]
}

struct Measurement {
    config: &'static str,
    seconds: f64,
    steps: usize,
    fused_steps: usize,
}

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let (width, iters) = if smoke { (0.1, 1) } else { (0.5, 7) };
    // Prune everything above ~16k weight elements: at width 0.5 that is
    // the back half of VGG-16 (which dominates dense runtime) plus the
    // classifier, while the early convs stay dense.
    let elems_cut = if smoke { 4_000 } else { 16_000 };
    let input = Tensor::from_fn([1usize, 3, 32, 32], |i| ((i % 23) as f32 - 11.0) * 0.05);

    println!(
        "plan bench: VGG-16 width {width}, mixed ~99.5% sparsity above {elems_cut} elems{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut results: Vec<Measurement> = Vec::new();
    let mut selection_lines: Vec<String> = Vec::new();

    // The global single-choice baselines the paper's sweep can express,
    // plus the per-layer selected plan. Each rebuilds the identical
    // model so earlier runs cannot leak format changes.
    let configs: Vec<(&'static str, WeightFormat, ExecConfig, bool)> = vec![
        (
            "global-direct-dense",
            WeightFormat::Dense,
            ExecConfig::serial(),
            false,
        ),
        (
            "global-im2col-packed-dense",
            WeightFormat::Dense,
            ExecConfig {
                conv_algo: ConvAlgorithm::Im2col,
                ..ExecConfig::serial()
            },
            false,
        ),
        (
            "global-direct-csr",
            WeightFormat::Csr,
            ExecConfig::serial(),
            false,
        ),
        (
            "selected-per-layer",
            WeightFormat::Dense,
            ExecConfig::serial(),
            true,
        ),
    ];

    for (name, format, exec, use_compiler) in configs {
        let mut model = build_mixed_model(width, elems_cut);
        if format != WeightFormat::Dense {
            set_network_format(&mut model.network, format);
        }
        let shape = model.input_shape(1);
        let plan = if use_compiler {
            PlanCompiler::standard()
                .run(&mut model.network, &shape, &exec)
                .expect("plan compiles")
        } else {
            InferencePlan::compile(&model.network, &shape, &exec).expect("plan compiles")
        };
        let steps = plan.steps().len();
        let fused_steps = plan.steps().iter().filter(|s| s.cfg.fused_relu).count();
        if use_compiler {
            selection_lines.extend(plan.steps().iter().map(|s| s.label(&s.cfg)));
        }
        let mut session = InferenceSession::with_guard(&mut model.network, plan, GuardConfig::Off)
            .expect("session builds");
        let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
        let seconds = time_session(&mut session, &input, &mut out, iters);
        println!("  {name:<28} {steps:>2} steps ({fused_steps} fused)  {seconds:>9.5}s");
        results.push(Measurement {
            config: name,
            seconds,
            steps,
            fused_steps,
        });
    }

    let selected = results
        .iter()
        .find(|r| r.config == "selected-per-layer")
        .expect("measured");
    let best_global = results
        .iter()
        .filter(|r| r.config != "selected-per-layer")
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite"))
        .expect("measured");
    let speedup = best_global.seconds / selected.seconds;
    println!(
        "selected-per-layer vs best global ({}): {speedup:.2}x",
        best_global.config
    );
    if !smoke {
        assert!(
            speedup > 1.0,
            "per-layer selection ({:.5}s) must beat the best global config {} ({:.5}s)",
            selected.seconds,
            best_global.config,
            best_global.seconds
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"VGG-16 width {width}, layers >= {elems_cut} weight elems magnitude-pruned to 99.5% sparsity\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"median of {iters} single-thread host passes; selected plan folds BN, fuses ReLU epilogues and picks im2col+packed or CSR per layer\","
    );
    let _ = writeln!(json, "  \"best_global\": \"{}\",", best_global.config);
    let _ = writeln!(json, "  \"speedup_vs_best_global\": {speedup:.3},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"config\": \"{}\", \"seconds\": {:.6}, \"steps\": {}, \"fused_steps\": {}}}",
            r.config, r.seconds, r.steps, r.fused_steps
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n  \"selected_plan\": [\n");
    for (i, line) in selection_lines.iter().enumerate() {
        let _ = write!(json, "    \"{line}\"");
        json.push_str(if i + 1 == selection_lines.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ]\n}\n");

    cnn_stack_bench::write_report("plan", &json);
}
