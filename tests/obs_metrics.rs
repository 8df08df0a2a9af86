//! Metrics-vs-truth property tests: the observability registry must
//! report numbers that match what the engine *analytically* did, not
//! just plausible-looking counters.
//!
//! * `gemm.flops` equals `2 x` the plan's analytic MAC count when every
//!   mac-bearing step routes through the packed GEMM engine;
//! * a clean run never trips the guard, and boundary-mode scan counts
//!   equal one scan per step per run;
//! * a batch-parallel session's kernel metrics are every chunk's: each
//!   chunk's thread records into the session observer, so nothing is
//!   lost or counted twice.

use cnn_stack::nn::{
    Conv2d, ConvAlgorithm, ExecConfig, Flatten, GuardConfig, InferencePlan, InferenceSession,
    Linear, MaxPool2d, Network, ObsLevel, ReLU,
};
use cnn_stack::obs::MetricsSnapshot;
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;

/// A conv -> relu -> pool -> flatten -> linear network whose only
/// mac-bearing steps are the conv and the linear layer.
fn small_net(in_c: usize, out_c: usize, classes: usize, hw: usize) -> Network {
    Network::new(vec![
        Box::new(Conv2d::new(in_c, out_c, 3, 1, 1, 11)),
        Box::new(ReLU::new()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(out_c * (hw / 2) * (hw / 2), classes, 13)),
    ])
    .expect("valid network")
}

fn run_and_snapshot(
    net: &mut Network,
    cfg: &ExecConfig,
    guard: GuardConfig,
    input: &Tensor,
    runs: usize,
) -> MetricsSnapshot {
    let plan = InferencePlan::compile(net, input.shape().dims(), cfg).expect("plan compiles");
    let mut session = InferenceSession::with_guard(net, plan, guard).expect("session builds");
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    for _ in 0..runs {
        session.run_into(input, &mut out).expect("clean run");
    }
    session
        .observer()
        .expect("Metrics level attaches an observer")
        .snapshot()
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name)
        .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `gemm.flops` must equal `2 x` the analytic MAC count from the
    /// plan's IR geometry when the conv lowers through im2col into the
    /// packed GEMM engine (the linear layer always routes through it).
    #[test]
    fn gemm_flops_match_analytic_macs(
        (batch, out_c, hw) in (1usize..4, 2usize..6, (2usize..5).prop_map(|b| 2 * b)),
        runs in 1usize..3,
    ) {
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            observer: ObsLevel::Metrics,
            ..ExecConfig::serial()
        };
        let mut net = small_net(3, out_c, 4, hw);
        let input = Tensor::from_fn([batch, 3, hw, hw], |i| ((i * 7 % 13) as f32) * 0.25 - 1.5);
        let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).expect("plan");
        let analytic_macs: u64 = plan.steps().iter().map(|s| s.macs).sum();
        prop_assert!(analytic_macs > 0);
        let m = run_and_snapshot(&mut net, &cfg, GuardConfig::Off, &input, runs);
        prop_assert_eq!(
            counter(&m, "gemm.flops"),
            2 * analytic_macs * runs as u64,
            "gemm.flops must equal 2x the plan's MAC count per run"
        );
        // The packed conv path merges as many images as fit one column
        // chunk of the GEMM's loop nest (the whole-batch plan's `nc`)
        // into one GEMM call, so the conv issues `ceil(batch / group)`
        // calls; the linear layer adds one more. The im2col lowering is
        // still recorded per image. The group is re-derived here, not
        // read from the crate: this is the reference the engine's one
        // helper (`conv::packed_group_for`) is held to.
        let plane = hw * hw;
        let nc = cnn_stack::tensor::GemmPlan::new(out_c, 3 * 3 * 3, batch * plane).nc;
        let group = (nc / plane).clamp(1, batch);
        let conv_calls = batch.div_ceil(group) as u64;
        prop_assert_eq!(counter(&m, "gemm.calls"), (conv_calls + 1) * runs as u64);
        prop_assert_eq!(counter(&m, "im2col.calls"), batch as u64 * runs as u64);
    }

    /// Clean inputs and healthy weights: the guard scans every step
    /// boundary but never trips or demotes.
    #[test]
    fn clean_runs_never_trip_the_guard(
        batch in 1usize..4,
        runs in 1usize..4,
    ) {
        let cfg = ExecConfig {
            observer: ObsLevel::Metrics,
            ..ExecConfig::serial()
        };
        let mut net = small_net(3, 4, 4, 8);
        let input = Tensor::from_fn([batch, 3, 8, 8], |i| ((i * 5 % 11) as f32) * 0.5 - 2.0);
        let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).expect("plan");
        let steps = plan.steps().len() as u64;
        let m = run_and_snapshot(&mut net, &cfg, GuardConfig::BoundaryCheck, &input, runs);
        prop_assert_eq!(counter(&m, "guard.trips"), 0, "clean run must not trip");
        prop_assert_eq!(counter(&m, "guard.demotions"), 0);
        prop_assert_eq!(
            counter(&m, "guard.scans"),
            steps * runs as u64,
            "boundary mode scans once per step per run"
        );
    }

    /// Batch-parallel execution: chunks 1.. run on their own threads,
    /// whose kernels record into the observer current on *that* thread,
    /// so every chunk's GEMM work must reach the session observer.
    /// `gemm.flops` is linear in the batch and equals the one-chunk
    /// session's; `gemm.calls` equals the sum over one-chunk sessions of
    /// each chunk's images (the packed conv merges the images of one
    /// GEMM column block into one call, so the split changes the count).
    #[test]
    fn every_chunks_kernel_metrics_reach_the_session_observer(
        threads in 2usize..5,
        extra in 0usize..3,
        runs in 1usize..3,
    ) {
        let batch = threads + extra;
        let serial = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            observer: ObsLevel::Metrics,
            ..ExecConfig::serial()
        };
        let cfg = ExecConfig { threads, ..serial };
        let images = |n: usize| {
            Tensor::from_fn([n, 3, 8, 8], |i| ((i * 3 % 7) as f32) * 0.5 - 1.0)
        };
        let m = run_and_snapshot(&mut small_net(3, 4, 4, 8), &cfg, GuardConfig::Off, &images(batch), runs);
        let whole = run_and_snapshot(
            &mut small_net(3, 4, 4, 8),
            &serial,
            GuardConfig::Off,
            &images(batch),
            runs,
        );
        prop_assert_eq!(counter(&m, "gemm.flops"), counter(&whole, "gemm.flops"));
        // The session's split: min(threads, batch) chunks, the first
        // `batch % chunks` one image larger.
        let chunks = threads.min(batch);
        let calls: u64 = (0..chunks)
            .map(|c| batch / chunks + usize::from(c < batch % chunks))
            .map(|len| {
                let one = run_and_snapshot(
                    &mut small_net(3, 4, 4, 8),
                    &serial,
                    GuardConfig::Off,
                    &images(len),
                    runs,
                );
                counter(&one, "gemm.calls")
            })
            .sum();
        prop_assert_eq!(counter(&m, "gemm.calls"), calls);
        prop_assert_eq!(counter(&m, "engine.runs_completed"), runs as u64);
    }
}

/// On a real deep network the coloured arena must actually reuse bytes:
/// the session reports its allocated arena, the plan's predicted peak,
/// and a strictly positive saving over the `naive_bytes` sizing model.
#[test]
fn vgg16_reports_positive_arena_reuse() {
    let mut model = cnn_stack::models::vgg16(10);
    let cfg = ExecConfig {
        observer: ObsLevel::Metrics,
        ..ExecConfig::serial()
    };
    let input = Tensor::from_fn([2, 3, 32, 32], |i| ((i * 7 % 13) as f32) * 0.1 - 0.6);
    let m = run_and_snapshot(&mut model.network, &cfg, GuardConfig::Off, &input, 1);
    let arena = m.gauge("engine.arena_bytes").expect("arena gauge");
    let peak = m.gauge("plan.peak_bytes").expect("peak gauge");
    let reuse = m.gauge("engine.arena_reuse_bytes").expect("reuse gauge");
    assert!(arena > 0, "session allocated an arena");
    assert!(
        reuse > 0,
        "liveness colouring must save bytes over naive_bytes on VGG-16"
    );
    // The serial session's one arena is exactly the plan-level layout.
    assert_eq!(arena, peak);
}
