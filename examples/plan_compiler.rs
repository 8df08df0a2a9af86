//! Prints the compiled execution plan — fusion spans and per-layer
//! algorithm choices — for the paper's three models, plain and with the
//! large layers magnitude-pruned to 99.5% sparsity. This regenerates the
//! per-layer selection table in EXPERIMENTS.md (the paper's Fig. 7
//! "which algorithm wins where" analogue), then sweeps a shrinking
//! memory budget over batch-8 VGG-16 to show the planner trading speed
//! for footprint ("fastest plan under N MB").
//!
//! ```bash
//! cargo run --release --example plan_compiler
//! ```

use cnn_stack::models::ModelKind;
use cnn_stack::nn::{Conv2d, Error, ExecConfig, Linear, PlanCompiler, PlanError};

/// Magnitude-prunes a weight slice in place to the target sparsity.
fn prune_to(data: &mut [f32], sparsity: f64) {
    let mut mags: Vec<f32> = data.iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
    let cut = mags[((data.len() as f64 * sparsity) as usize).min(data.len() - 1)];
    for v in data.iter_mut() {
        if v.abs() <= cut {
            *v = 0.0;
        }
    }
}

fn main() {
    for kind in ModelKind::all() {
        for pruned in [false, true] {
            let mut model = kind.build(10);
            if pruned {
                // The weight-pruning deployment regime: every layer big
                // enough to matter is pushed past the CSR crossover.
                for layer in model.network.layers_mut() {
                    if let Some(conv) = layer.as_any_mut().downcast_mut::<Conv2d>() {
                        if conv.weight().value.len() >= 32_768 {
                            prune_to(conv.weight_mut().value.data_mut(), 0.995);
                        }
                    } else if let Some(fc) = layer.as_any_mut().downcast_mut::<Linear>() {
                        if fc.weight().value.len() >= 32_768 {
                            prune_to(fc.weight_mut().value.data_mut(), 0.995);
                        }
                    }
                }
            }
            let layers = model.network.len();
            let plan = model
                .compile_plan(1, &ExecConfig::serial(), &PlanCompiler::standard())
                .expect("plan compiles");
            println!(
                "## {} ({}): {} layers -> {} steps",
                kind.name(),
                if pruned { "pruned 99.5%" } else { "plain" },
                layers,
                plan.steps().len()
            );
            for s in plan.steps() {
                println!(
                    "  {:<58} span {} {:>9.3} MMACs",
                    s.name,
                    s.span,
                    s.macs as f64 / 1e6
                );
            }
            let fp = plan.footprint();
            println!(
                "  arena peak {} B; liveness colouring saves {} B over two buffers + one workspace",
                fp.peak_bytes,
                fp.reuse_bytes()
            );
            println!();
        }
    }
    budget_sweep();
}

/// "Fastest plan under N MB" on batch-8 VGG-16: the same model planned
/// under a shrinking activation envelope. The unconstrained plan puts
/// the 32²…4² layers on Winograd and the rest on im2col + packed GEMM;
/// as the budget bites, the solver demotes the layers whose workspace
/// sets the peak to smaller-workspace algorithms, and an impossible
/// envelope fails with the smallest budget that would work.
fn budget_sweep() {
    println!("## VGG-16 (batch 8) under a memory budget");
    let batch = 8;
    let budgets: [(Option<usize>, &str); 4] = [
        (None, "unbounded"),
        (Some(64 << 20), "64 MB"),
        (Some(16 << 20), "16 MB"),
        (Some(4 << 20), "4 MB"),
    ];
    for (budget, label) in budgets {
        let mut model = ModelKind::Vgg16.build(10);
        let mut builder = ExecConfig::builder();
        if let Some(bytes) = budget {
            builder = builder.plan_budget(bytes);
        }
        let cfg = builder.build().expect("config is valid");
        match model.compile_plan(batch, &cfg, &PlanCompiler::standard()) {
            Ok(plan) => {
                let fp = plan.footprint();
                println!(
                    "  budget {label:>9}: peak {:>6.2} MB (colouring saves {:>6.2} MB)",
                    fp.peak_bytes as f64 / (1 << 20) as f64,
                    fp.reuse_bytes() as f64 / (1 << 20) as f64,
                );
                for s in plan.steps() {
                    // Step names carry the selected kernel-registry row
                    // as a bracketed tag, e.g.
                    // "conv3x3(64->64)/s1 + bn + relu [winograd-f4]".
                    println!("    {}", s.name);
                }
            }
            Err(Error::Plan(PlanError::BudgetInfeasible {
                budget_bytes,
                min_feasible_bytes,
            })) => println!(
                "  budget {label:>9}: infeasible ({:.2} MB asked, {:.2} MB is the floor)",
                budget_bytes as f64 / (1 << 20) as f64,
                min_feasible_bytes as f64 / (1 << 20) as f64,
            ),
            Err(other) => panic!("unexpected compile failure: {other:?}"),
        }
        println!();
    }
}
