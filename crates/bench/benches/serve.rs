//! Serving-layer benchmark: dynamic batching versus batch-size-1
//! serving under the open-loop load generator, on the paper's VGG-16
//! host plan, emitting `BENCH_serve.json` at the repository root.
//!
//! Methodology (SLO-capacity style): for each batching policy the
//! harness first *calibrates* the policy's raw engine throughput with
//! direct timed session runs, then offers the server a fixed open-loop
//! arrival stream at ~80% of that capacity with a common latency
//! deadline. A policy "sustains" its load when its deadline-miss rate
//! (queue sheds plus served-past-deadline) stays ~0, so comparing
//! served QPS at equal (≈0) p99 miss rate is an apples-to-apples
//! capacity comparison. The acceptance gate asserts dynamic batching
//! (max-batch 16) sustains ≥ 2× the QPS of batch-size-1 serving.
//!
//! A final overload run offers a batch-1 server three times its capacity
//! against a small queue to demonstrate typed admission-control
//! shedding (no hangs, no panics, every ticket resolves).
//!
//! Every policy row also records what its server cost to bring up:
//! `start_s` (`Server::start`, model build included) and
//! `resident_mb_after_start` (the process's resident set once it is up:
//! one model, its prepack and one arena per worker, on top of what the
//! harness itself holds).
//!
//! Run modes:
//!   cargo bench -p cnn-stack-bench --bench serve        # full, VGG-16
//!       width 1.0, Paranoid guard, writes BENCH_serve.json
//!   BENCH_SMOKE=1 cargo bench ... --bench serve   # width 0.25,
//!       few requests, loose 5% gate, writes target/BENCH_serve.smoke.json

use cnn_stack_models::ModelKind;
use cnn_stack_nn::{
    ConvAlgorithm, ExecConfig, GuardConfig, InferenceSession, Network, PlanCompiler,
};
use cnn_stack_serve::{run_open_loop, LoadReport, LoadSpec, Outcome, ServeConfig, Server};
use cnn_stack_tensor::Tensor;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn build_net(width: f64) -> Network {
    ModelKind::Vgg16.build_width(10, width).network
}

fn request_input(i: usize) -> Tensor {
    Tensor::from_fn([3usize, 32, 32], move |e| {
        (((e + 97 * i) % 23) as f32 - 11.0) * 0.05
    })
}

/// Measures the peak engine throughput of one pre-warmed session at the
/// given batch size (best of `iters` runs — scheduler noise on a shared
/// host is one-sided, so the fastest run is the stable capacity
/// estimate), in requests/second, on the serving exec path (im2col +
/// packed GEMM) under `guard`.
fn calibrate_qps(width: f64, batch: usize, guard: GuardConfig, iters: usize) -> f64 {
    let exec = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };
    let mut net = build_net(width);
    let shape = vec![batch, 3, 32, 32];
    let plan = PlanCompiler::standard()
        .run(&mut net, &shape, &exec)
        .expect("VGG-16 compiles at CIFAR shape");
    let mut session =
        InferenceSession::with_guard(&mut net, plan, guard).expect("plan matches the network");
    let input = Tensor::zeros(shape);
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    session.run_into(&input, &mut out).expect("warm-up run");
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        session.run_into(&input, &mut out).expect("timed run");
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    batch as f64 / samples[0]
}

struct PolicyResult {
    label: &'static str,
    max_batch: usize,
    calibrated_qps: f64,
    start_s: f64,
    resident_mb_after_start: f64,
    report: LoadReport,
}

/// Serves `requests` open-loop arrivals at `qps` through a fresh server
/// with the given batching policy.
#[allow(clippy::too_many_arguments)]
fn run_policy(
    label: &'static str,
    width: f64,
    guard: GuardConfig,
    max_batch: usize,
    max_delay: Duration,
    calibrated_qps: f64,
    qps: f64,
    requests: usize,
    deadline: Duration,
) -> PolicyResult {
    let cfg = ServeConfig::builder([3, 32, 32])
        .max_batch(max_batch)
        .max_delay(max_delay)
        .queue_depth(4 * max_batch.max(8))
        .guard(guard)
        .build()
        .expect("bench config is valid");
    let t0 = Instant::now();
    let server = Server::start(cfg, move || build_net(width)).expect("server starts");
    let start_s = t0.elapsed().as_secs_f64();
    let resident_mb_after_start = cnn_stack_bench::resident_mb();
    let spec = LoadSpec {
        qps,
        requests,
        deadline: Some(deadline),
        retry: None,
    };
    let report = run_open_loop(&server, &spec, request_input);
    server.shutdown();
    PolicyResult {
        label,
        max_batch,
        calibrated_qps,
        start_s,
        resident_mb_after_start,
        report,
    }
}

fn json_policy(r: &PolicyResult) -> String {
    let rep = &r.report;
    format!(
        "{{\"policy\": \"{}\", \"max_batch\": {}, \"start_s\": {:.2}, \
         \"resident_mb_after_start\": {:.0}, \"calibrated_capacity_qps\": {:.2}, \
         \"offered_qps\": {:.2}, \"served_qps\": {:.2}, \"served\": {}, \"submitted\": {}, \
         \"shed_queue_full\": {}, \"shed_deadline\": {}, \"failed\": {}, \
         \"deadline_miss_rate\": {:.4}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
         \"mean_batch\": {:.2}}}",
        r.label,
        r.max_batch,
        r.start_s,
        r.resident_mb_after_start,
        r.calibrated_qps,
        rep.offered_qps,
        rep.served_qps,
        rep.served,
        rep.submitted,
        rep.shed_queue_full,
        rep.shed_deadline,
        rep.failed,
        rep.deadline_miss_rate,
        rep.p50_ms,
        rep.p99_ms,
        rep.mean_batch
    )
}

fn main() {
    let smoke = cnn_stack_bench::smoke();
    let (width, max_batch, requests, cal_iters, gate) = if smoke {
        (0.25, 4, 24, 9, 1.05)
    } else {
        (1.0, 16, 120, 5, 2.0)
    };
    let guard = GuardConfig::Paranoid;
    let deadline = Duration::from_millis(1500);
    // ~80% of calibrated capacity: high enough that batching matters,
    // low enough that a sustainable policy holds its miss rate at ~0.
    let utilisation = 0.8;

    println!(
        "serve bench: VGG-16 width {width}, Paranoid guard, max_batch {max_batch}{}",
        if smoke { " [smoke]" } else { "" }
    );

    let qps1 = calibrate_qps(width, 1, guard, cal_iters);
    let qps_n = calibrate_qps(width, max_batch, guard, cal_iters);
    println!(
        "calibrated engine capacity: batch1 {qps1:.1} req/s, batch{max_batch} {qps_n:.1} req/s"
    );

    // The delay window spans a few inter-arrival periods so open
    // batches actually fill at the offered rate.
    let offered_n = utilisation * qps_n;
    let max_delay = Duration::from_secs_f64(8.0 / offered_n).min(Duration::from_millis(250));

    let single = run_policy(
        "batch-1",
        width,
        guard,
        1,
        Duration::ZERO,
        qps1,
        utilisation * qps1,
        requests,
        deadline,
    );
    let batched = run_policy(
        "dynamic-batching",
        width,
        guard,
        max_batch,
        max_delay,
        qps_n,
        offered_n,
        requests,
        deadline,
    );

    for r in [&single, &batched] {
        let rep = &r.report;
        println!(
            "{:>16}: up in {:.2} s ({:.0} MB resident); offered {:6.1} qps -> served {:6.1} \
             qps, p50 {:7.2} ms, p99 {:7.2} ms, miss {:.2}%, mean batch {:.1}",
            r.label,
            r.start_s,
            r.resident_mb_after_start,
            rep.offered_qps,
            rep.served_qps,
            rep.p50_ms,
            rep.p99_ms,
            rep.deadline_miss_rate * 100.0,
            rep.mean_batch
        );
    }

    // --- Gates ------------------------------------------------------
    // Sustained QPS = the offered rate a policy carries while holding
    // its deadline-miss rate at ~0 (the equal-miss-rate comparison the
    // acceptance criterion asks for). `served_qps` over the whole wall
    // clock includes the post-submission drain tail, which penalises
    // short runs; the miss gate is what certifies the offered rate was
    // genuinely sustained.
    for r in [&single, &batched] {
        assert_eq!(r.report.failed, 0, "{}: requests failed", r.label);
        assert!(
            r.report.deadline_miss_rate <= 0.02,
            "{}: offered load was not sustained (miss rate {:.2}%) — capacities are not \
             comparable at equal p99 miss rate",
            r.label,
            r.report.deadline_miss_rate * 100.0
        );
    }
    let ratio = batched.report.offered_qps / single.report.offered_qps;
    println!("sustained QPS ratio (dynamic batching / batch-1): {ratio:.2}x (gate >= {gate}x)");
    assert!(
        ratio >= gate,
        "dynamic batching sustained only {ratio:.2}x batch-1 QPS (gate {gate}x)"
    );

    // Cross-check (full mode): the 2x is real only if batch-1 serving
    // *cannot* carry the batched policy's rate. Offer it that rate and
    // require the miss rate to blow up where dynamic batching held ~0.
    let cross = if smoke {
        None
    } else {
        let r = run_policy(
            "batch-1-at-batched-rate",
            width,
            guard,
            1,
            Duration::ZERO,
            qps1,
            offered_n,
            requests,
            deadline,
        );
        println!(
            "cross-check: batch-1 at {:.1} qps -> miss rate {:.1}% (batching held ~0%)",
            r.report.offered_qps,
            r.report.deadline_miss_rate * 100.0
        );
        assert!(
            r.report.deadline_miss_rate > 0.10,
            "batch-1 unexpectedly sustained the batched rate (miss {:.2}%): the batching \
             advantage did not materialise",
            r.report.deadline_miss_rate * 100.0
        );
        assert_eq!(r.report.failed, 0);
        Some(r)
    };

    // --- Overload: typed shedding, never a hang ---------------------
    // Offer a batch-1 server ~3x its capacity against a small queue
    // with a tight deadline: admission control must shed typed, every
    // ticket must resolve, nothing may fail.
    let overload_requests = if smoke { 32 } else { 60 };
    let cfg = ServeConfig::builder([3, 32, 32])
        .max_batch(1)
        .queue_depth(8)
        .guard(guard)
        .build()
        .expect("overload bench config is valid");
    let server = Server::start(cfg, move || build_net(width)).expect("server starts");
    let spec = LoadSpec {
        qps: 3.0 * qps1,
        requests: overload_requests,
        deadline: Some(Duration::from_secs_f64(4.0 / qps1)),
        retry: None,
    };
    let t0 = Instant::now();
    let mut served = 0usize;
    let mut shed = 0usize;
    let tickets: Vec<_> = (0..spec.requests)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / spec.qps);
            let elapsed = t0.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            server
                .submit_with_deadline(request_input(i), spec.deadline.unwrap())
                .expect("well-shaped request")
        })
        .collect();
    for ticket in tickets {
        match ticket.wait().outcome {
            Outcome::Served(_) => served += 1,
            Outcome::Shed(_) => shed += 1,
            Outcome::Failed(e) => panic!("overload produced a Failed outcome: {e}"),
        }
    }
    let health = server.shutdown();
    println!(
        "overload (3x capacity, queue 8): {served} served, {shed} shed \
         ({} queue-full, {} deadline), 0 failed",
        health.shed_queue_full, health.shed_deadline
    );
    assert_eq!(served + shed, overload_requests, "every ticket resolves");
    assert!(shed > 0, "overload at 3x capacity must shed");
    assert_eq!(health.failed, 0);

    // --- Report -----------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": \"VGG-16 width {width}, Paranoid guard, single host thread, \
         im2col+packed serving plan\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"open-loop arrivals at {:.0}% of calibrated capacity per policy, \
         common {:.0} ms deadline; miss = queue/deadline sheds + served past deadline\",",
        utilisation * 100.0,
        deadline.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "  \"qps_ratio_batched_vs_single\": {ratio:.3},");
    let _ = writeln!(json, "  \"policies\": [");
    let _ = writeln!(json, "    {},", json_policy(&single));
    let _ = writeln!(json, "    {}", json_policy(&batched));
    let _ = writeln!(json, "  ],");
    if let Some(cross) = &cross {
        let _ = writeln!(json, "  \"cross_check\": {},", json_policy(cross));
    }
    let _ = writeln!(
        json,
        "  \"overload\": {{\"policy\": \"batch-1\", \"offered_x_capacity\": 3.0, \
         \"queue_depth\": 8, \"served\": {served}, \"shed_queue_full\": {}, \
         \"shed_deadline\": {}, \"failed\": 0}}",
        health.shed_queue_full, health.shed_deadline
    );
    let _ = writeln!(json, "}}");

    cnn_stack_bench::write_report("serve", &json);
}
