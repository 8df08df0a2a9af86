//! Observability overhead benchmark: the cost of the metrics/tracing
//! hooks when disabled must stay within noise of the PR 4 session, and
//! the enabled modes are measured and recorded in `BENCH_obs.json`.
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench obs      # full measurement,
//!       asserts tracing-off <1% over the frozen PR 4 baseline and
//!       writes BENCH_obs.json at the workspace root
//!   BENCH_SMOKE=1 cargo bench ... --bench obs   # quick regression
//!       check (CI job): fails on >5% tracing-off overhead vs the
//!       frozen baseline, writes target/obs_bench_smoke.json

use cnn_stack_models::ModelKind;
use cnn_stack_nn::{ExecConfig, GuardConfig, InferenceSession, ObsLevel, PlanCompiler};
use cnn_stack_tensor::Tensor;
use std::time::Instant;

/// Seconds per pass for the PR 4 session (commit db7c3e5, before the
/// observability hooks landed): mean of three min-of-120 runs of this
/// exact workload on the reference host. The min-of-N estimator's
/// run-to-run spread is ~0.6%, so the 1%/5% gates below have headroom.
const PR4_BASELINE_S: f64 = 0.008338;

/// Full-run gate: ISSUE acceptance requires tracing-off within 1% of
/// the PR 4 session.
const FULL_GATE: f64 = 1.01;

/// Smoke-run gate: CI hosts are noisier than the reference measurement,
/// so the quick check only fails on a >5% regression.
const SMOKE_GATE: f64 = 1.05;

/// Minimum seconds per `run_into` pass after one warm-up. The workload
/// is deterministic and single-threaded, so the minimum estimates the
/// noise floor far more stably than the median on a shared host.
fn time_session(
    session: &mut InferenceSession,
    input: &Tensor,
    out: &mut Tensor,
    iters: usize,
) -> f64 {
    session.run_into(input, out).expect("warm-up run succeeds");
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        session.run_into(input, out).expect("timed run succeeds");
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measures one fused VGG-16 session (width 0.25, batch 4, serial) —
/// the same workload the PR 4 baseline was frozen on — at the given
/// observability level.
fn measure(level: ObsLevel, iters: usize) -> f64 {
    let exec = ExecConfig {
        observer: level,
        ..ExecConfig::serial()
    };
    let mut model = ModelKind::Vgg16.build_width(10, 0.25);
    let shape = model.input_shape(4);
    let plan = PlanCompiler::standard()
        .run(&mut model.network, &shape, &exec)
        .expect("plan compiles");
    let mut session = InferenceSession::with_guard(&mut model.network, plan, GuardConfig::Off)
        .expect("session builds");
    let input = Tensor::from_fn(shape.to_vec(), |i| ((i % 23) as f32 - 11.0) * 0.05);
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    time_session(&mut session, &input, &mut out, iters)
}

fn write_json(path: &std::path::Path, entries: &[(&str, f64)], baseline: f64) {
    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    writeln!(
        json,
        "  \"workload\": \"vgg16 w=0.25 batch=4 serial fused\","
    )
    .unwrap();
    writeln!(json, "  \"estimator\": \"min seconds/pass\",").unwrap();
    writeln!(json, "  \"pr4_baseline_s\": {baseline:.6},").unwrap();
    for (i, (name, secs)) in entries.iter().enumerate() {
        let ratio = secs / baseline;
        let comma = if i + 1 == entries.len() { "" } else { "," };
        writeln!(
            json,
            "  \"{name}\": {{\"seconds_per_pass\": {secs:.6}, \"vs_pr4\": {ratio:.4}}}{comma}"
        )
        .unwrap();
    }
    json.push_str("}\n");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    if cnn_stack_bench::smoke() {
        // CI quick mode: one short tracing-off measurement against the
        // recorded baseline.
        let off = measure(ObsLevel::Off, 30);
        let ratio = off / PR4_BASELINE_S;
        println!("smoke: obs-off {off:.6} s/pass = {ratio:.4}x PR4 baseline");
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/obs_bench_smoke.json");
        write_json(&path, &[("obs_off", off)], PR4_BASELINE_S);
        assert!(
            ratio < SMOKE_GATE,
            "tracing-off overhead regressed: {ratio:.4}x > {SMOKE_GATE}x PR4 baseline"
        );
        return;
    }

    let iters = 120usize;
    // Interleave the three levels so slow host-wide drift (thermal,
    // neighbours) hits every mode equally instead of biasing one.
    let mut best = [f64::INFINITY; 3];
    let levels = [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Trace];
    for round in 0..3 {
        for (slot, &level) in levels.iter().enumerate() {
            let secs = measure(level, iters);
            best[slot] = best[slot].min(secs);
            println!("round {round}: {level:?} {secs:.6} s/pass (min of {iters})");
        }
    }
    let [off, metrics, trace] = best;
    let off_ratio = off / PR4_BASELINE_S;
    println!();
    println!("obs off:     {off:.6} s/pass = {off_ratio:.4}x PR4");
    println!(
        "obs metrics: {metrics:.6} s/pass = {:.4}x PR4",
        metrics / PR4_BASELINE_S
    );
    println!(
        "obs trace:   {trace:.6} s/pass = {:.4}x PR4",
        trace / PR4_BASELINE_S
    );

    write_json(
        &std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json"),
        &[
            ("obs_off", off),
            ("obs_metrics", metrics),
            ("obs_trace", trace),
        ],
        PR4_BASELINE_S,
    );
    assert!(
        off_ratio < FULL_GATE,
        "tracing-off must cost <1% vs the PR 4 session: {off_ratio:.4}x"
    );
    println!("tracing-off overhead gate passed (<1% vs PR 4)");
}
