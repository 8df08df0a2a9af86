//! Memory-planning benchmark: the liveness-coloured arena of batch-8
//! VGG-16 next to the plan's own `naive_bytes` sizing model (two
//! max-size activation buffers plus the largest workspace), emitting
//! `BENCH_memory.json` at the repository root. What the colouring saves
//! is reported, not gated: it is a property of the model (0 on VGG-16,
//! whose peak *is* two activations plus one workspace).
//!
//! A second row plans the same model under a 16 MB activation budget
//! and must land inside it (the gate, full mode only), computing the
//! same function. Latency belongs to the `e2e` ledger, not here.
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench memory   # full measurement
//!   BENCH_SMOKE=1 cargo bench ... --bench memory    # thin model, one
//!       iteration, writes to target/BENCH_memory.smoke.json (CI check)

use cnn_stack_models::{vgg16, vgg16_width, Model};
use cnn_stack_nn::{ExecConfig, InferenceSession, PlanCompiler};
use cnn_stack_tensor::Tensor;
use std::fmt::Write as _;

struct Row {
    name: &'static str,
    peak_bytes: usize,
    naive_bytes: usize,
    arena_bytes: usize,
}

/// How a row's output is checked against the unbudgeted reference.
enum Check<'a> {
    /// This row *is* the reference; capture its output.
    Reference(&'a mut Vec<f32>),
    /// The budget solver may pick different kernels: tolerance match.
    Close(&'a [f32]),
}

/// Compiles `model` with `cfg`, checks its output per `check`, then
/// returns the plan's predicted footprint and the session's actual
/// arena allocation.
fn measure(
    mut model: Model,
    cfg: &ExecConfig,
    input: &Tensor,
    check: Check,
    name: &'static str,
) -> Row {
    let shape = input.shape().dims().to_vec();
    let plan = PlanCompiler::standard()
        .run(&mut model.network, &shape, cfg)
        .expect("plan compiles");
    let footprint = plan.footprint();
    let mut session = InferenceSession::new(&mut model.network, plan).expect("session builds");
    let arena_bytes = session.arena_bytes();
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());

    session.run_into(input, &mut out).expect("clean run");
    match check {
        Check::Reference(sink) => *sink = out.data().to_vec(),
        Check::Close(want) => {
            for (i, (a, b)) in out.data().iter().zip(want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-3,
                    "{name}: elem {i} drifted from reference ({a} vs {b})"
                );
            }
        }
    }

    Row {
        name,
        peak_bytes: footprint.peak_bytes,
        naive_bytes: footprint.naive_bytes,
        arena_bytes,
    }
}

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let batch = if smoke { 2 } else { 8 };
    let budget = 16 << 20;
    let build = || {
        if smoke {
            vgg16_width(10, 0.25)
        } else {
            vgg16(10)
        }
    };

    let shape = vec![batch, 3, 32, 32];
    let input = Tensor::from_fn(shape.clone(), |i| ((i % 31) as f32 - 15.0) * 0.05);

    let capped_cfg = ExecConfig::builder()
        .plan_budget(budget)
        .build()
        .expect("valid config");

    println!(
        "memory bench: batch-{batch} VGG-16{}, single thread",
        if smoke { " (width 0.25) [smoke]" } else { "" }
    );

    // The budgeted row may select different kernels than the
    // unbudgeted reference and gets a tolerance check.
    let mut want: Vec<f32> = Vec::new();
    let rows = vec![
        measure(
            build(),
            &ExecConfig::serial(),
            &input,
            Check::Reference(&mut want),
            "coloured",
        ),
        measure(
            build(),
            &capped_cfg,
            &input,
            Check::Close(&want),
            "16MB-budget",
        ),
    ];
    for r in &rows {
        println!(
            "  {:<12} peak {:>10} B  arena {:>10} B",
            r.name, r.peak_bytes, r.arena_bytes
        );
    }

    let reuse_bytes = rows[0].naive_bytes - rows[0].peak_bytes;
    println!(
        "  colouring saves {reuse_bytes} B over the naive_bytes model ({} B)",
        rows[0].naive_bytes
    );

    if !smoke {
        assert!(
            rows[1].peak_bytes <= budget && rows[1].arena_bytes <= budget,
            "the budgeted plan must fit its 16 MB envelope"
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"VGG-16 CIFAR batch {batch}, single thread{}\",",
        if smoke { " [smoke]" } else { "" }
    );
    let _ = writeln!(
        json,
        "  \"note\": \"reuse_bytes is what the coloured peak saves over the plan's naive_bytes sizing model (two max-size activation buffers + largest workspace), reported not gated; gate: the budgeted row fits budget_bytes, its output within 1e-3 of the unbudgeted one\","
    );
    let _ = writeln!(json, "  \"reuse_bytes\": {reuse_bytes},");
    let _ = writeln!(json, "  \"naive_bytes\": {},", rows[0].naive_bytes);
    let _ = writeln!(json, "  \"budget_bytes\": {budget},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"arena\": \"{}\", \"peak_bytes\": {}, \"arena_bytes\": {}}}",
            r.name, r.peak_bytes, r.arena_bytes
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    cnn_stack_bench::write_report("memory", &json);
}
