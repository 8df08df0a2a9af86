//! Chaos benchmark: the self-healing serving runtime under injected
//! faults and overload, emitting `BENCH_chaos.json` at the repository
//! root.
//!
//! Three experiments, all on the VGG-16 serving plan:
//!
//! 1. **Survival** — a threaded server is offered 1.5× its calibrated
//!    capacity while a worker crash and a worker hang are injected
//!    mid-run. The acceptance property is *zero lost tickets*: every
//!    submission resolves to a typed outcome (served, shed, or a typed
//!    `WorkerCrashed`/`BatchHung` failure), and the server demonstrably
//!    keeps serving after the supervisor respawns the worker.
//! 2. **Brownout** — the same 1.5× overload with a common deadline is
//!    offered to a breaker-less server and to one with the brownout
//!    circuit breaker. With the breaker, sustained misses switch the
//!    workers' guard level from Paranoid to off — same sessions, same
//!    plans, no second session — which carries more of the offered load;
//!    the deadline-miss rates at equal offered load are the comparison.
//! 3. **Recovery** — one worker crash on an otherwise idle server: the
//!    time from the crashed batch's typed failure to the first request
//!    served by the respawned worker. A respawn stamps replicas of the
//!    compiled model (no build, no compile, no pack), so this is the
//!    respawn backoff, the session's two pre-warm runs, and one batch
//!    window.
//!
//! Run modes (both need `--features fault-inject`):
//!   cargo bench -p cnn-stack-bench --bench chaos --features fault-inject
//!       # full: width 0.5, writes BENCH_chaos.json
//!   BENCH_SMOKE=1 cargo bench ...
//!       # small width/request count, writes target/BENCH_chaos.smoke.json

#[cfg(not(feature = "fault-inject"))]
fn main() {
    println!(
        "chaos bench skipped: rebuild with --features fault-inject to \
         enable serve-level fault injection"
    );
}

#[cfg(feature = "fault-inject")]
fn main() {
    chaos::main();
}

#[cfg(feature = "fault-inject")]
mod chaos {
    use cnn_stack_models::ModelKind;
    use cnn_stack_nn::{
        ConvAlgorithm, ExecConfig, FaultPlan, GuardConfig, InferenceSession, Network, PlanCompiler,
    };
    use cnn_stack_serve::{
        run_open_loop, BreakerPolicy, FailureCause, LoadReport, LoadSpec, Outcome, ServeConfig,
        Server, ServerHealth, ShedReason, SupervisionPolicy, Ticket,
    };
    use cnn_stack_tensor::Tensor;
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    const MAX_BATCH: usize = 8;
    /// How long an under-full batch is held open.
    const BATCH_WINDOW: Duration = Duration::from_millis(20);

    fn build_net(width: f64) -> Network {
        ModelKind::Vgg16.build_width(10, width).network
    }

    fn request_input(i: usize) -> Tensor {
        Tensor::from_fn([3usize, 32, 32], move |e| {
            (((e + 97 * i) % 23) as f32 - 11.0) * 0.05
        })
    }

    /// Peak engine throughput (req/s, best of `iters` timed runs) of one
    /// pre-warmed batch-`MAX_BATCH` session under `guard`, on the
    /// serving exec path. Under `GuardConfig::Off` this is exactly what a
    /// browned-out worker runs.
    fn calibrate_qps(width: f64, guard: GuardConfig, iters: usize) -> f64 {
        let exec = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        let mut net = build_net(width);
        let shape = vec![MAX_BATCH, 3, 32, 32];
        let plan = PlanCompiler::standard()
            .run(&mut net, &shape, &exec)
            .expect("VGG-16 compiles at CIFAR shape");
        let mut session =
            InferenceSession::with_guard(&mut net, plan, guard).expect("plan matches the network");
        let input = Tensor::zeros(shape);
        let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
        session.run_into(&input, &mut out).expect("warm-up run");
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t = Instant::now();
            session.run_into(&input, &mut out).expect("timed run");
            best = best.min(t.elapsed().as_secs_f64());
        }
        MAX_BATCH as f64 / best
    }

    /// Fast-recovery supervision for a bench run: short hang floor and
    /// respawn backoff so failovers complete well inside the run.
    fn bench_supervision() -> SupervisionPolicy {
        SupervisionPolicy {
            hang_floor: Duration::from_millis(50),
            monitor_interval: Duration::from_millis(2),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            ..SupervisionPolicy::default()
        }
    }

    fn chaos_config(
        guard: GuardConfig,
        queue_depth: usize,
        breaker: Option<BreakerPolicy>,
    ) -> ServeConfig {
        let mut builder = ServeConfig::builder([3, 32, 32])
            .max_batch(MAX_BATCH)
            .max_delay(BATCH_WINDOW)
            .queue_depth(queue_depth)
            .guard(guard)
            .supervision(bench_supervision());
        if let Some(b) = breaker {
            builder = builder.breaker(b);
        }
        builder.build().expect("chaos bench config is valid")
    }

    /// Submits `requests` open-loop arrivals at `qps` and returns the
    /// tickets in submission order.
    fn offer(
        server: &Server,
        qps: f64,
        requests: usize,
        deadline: Option<Duration>,
    ) -> Vec<Ticket> {
        let t0 = Instant::now();
        (0..requests)
            .map(|i| {
                let due = Duration::from_secs_f64(i as f64 / qps);
                let elapsed = t0.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
                match deadline {
                    Some(d) => server.submit_with_deadline(request_input(i), d),
                    None => server.submit(request_input(i)),
                }
                .expect("well-shaped request")
            })
            .collect()
    }

    struct SurvivalResult {
        requests: usize,
        served: usize,
        shed: usize,
        failed_crashed: usize,
        failed_hung: usize,
        failed_engine: usize,
        served_after_respawn: usize,
        health: ServerHealth,
    }

    /// The survival run: 1.5× overload with an injected worker crash
    /// (batch 1) and an injected worker hang (batch 3), followed by a
    /// calm second wave that the recycled worker must serve in full.
    /// Waiting on every ticket *is* the zero-lost-tickets assertion — a
    /// lost ticket would wedge this function forever.
    fn survival(width: f64, capacity: f64, requests: usize) -> SurvivalResult {
        let cfg = chaos_config(GuardConfig::Paranoid, 4 * MAX_BATCH, None);
        let server = Server::start(cfg, move || build_net(width)).expect("server starts");
        server.inject_serve_faults(FaultPlan::new().crash_serve_batch(1).hang_serve_batch(3));

        let tickets = offer(&server, 1.5 * capacity, requests, None);
        let mut r = SurvivalResult {
            requests,
            served: 0,
            shed: 0,
            failed_crashed: 0,
            failed_hung: 0,
            failed_engine: 0,
            served_after_respawn: 0,
            health: ServerHealth::default(),
        };
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait().outcome {
                Outcome::Served(_) => r.served += 1,
                Outcome::Shed(ShedReason::QueueFull | ShedReason::DeadlineExpired) => r.shed += 1,
                Outcome::Shed(ShedReason::ShuttingDown) => {
                    panic!("request {i} shed as ShuttingDown on a live server")
                }
                Outcome::Failed(FailureCause::WorkerCrashed(_)) => r.failed_crashed += 1,
                Outcome::Failed(FailureCause::BatchHung) => r.failed_hung += 1,
                Outcome::Failed(FailureCause::Engine(_)) => r.failed_engine += 1,
            }
        }

        // Second wave, offered at sustainable rate once the storm has
        // fully resolved: the respawned worker (post-crash, post-hang
        // failover) must serve every one of these.
        let wave2 = offer(&server, capacity, MAX_BATCH, None);
        for ticket in wave2 {
            match ticket.wait().outcome {
                Outcome::Served(_) => r.served_after_respawn += 1,
                other => panic!("post-respawn request not served: {other:?}"),
            }
        }
        r.health = server.shutdown();
        r
    }

    /// The recovery run: request 0 is served (batch 0), request 1
    /// crashes its worker (batch 1), then single requests are offered
    /// back to back until one is served. The clock runs from the crashed
    /// ticket's typed failure to that first served response; requests
    /// queue while the worker is down, so the first retry normally is
    /// the one served.
    fn crash_to_first_served(width: f64) -> Duration {
        let cfg = chaos_config(GuardConfig::Paranoid, 4 * MAX_BATCH, None);
        let server = Server::start(cfg, move || build_net(width)).expect("server starts");
        let outcome = |i: usize| {
            let ticket = server.submit(request_input(i));
            ticket.expect("well-shaped request").wait().outcome
        };
        assert!(matches!(outcome(0), Outcome::Served(_)));
        server.inject_serve_faults(FaultPlan::new().crash_serve_batch(1));
        assert!(matches!(
            outcome(1),
            Outcome::Failed(FailureCause::WorkerCrashed(_))
        ));
        let crashed = Instant::now();
        while !matches!(outcome(2), Outcome::Served(_)) {}
        let recovery = crashed.elapsed();
        server.shutdown();
        recovery
    }

    struct BrownoutResult {
        report: LoadReport,
        health: ServerHealth,
    }

    /// One arm of the brownout comparison: the same overload stream
    /// against a server with or without the circuit breaker.
    fn brownout_arm(
        width: f64,
        offered: f64,
        requests: usize,
        deadline: Duration,
        breaker: Option<BreakerPolicy>,
    ) -> BrownoutResult {
        let cfg = chaos_config(GuardConfig::Paranoid, 2 * MAX_BATCH, breaker);
        let server = Server::start(cfg, move || build_net(width)).expect("server starts");
        let spec = LoadSpec {
            qps: offered,
            requests,
            deadline: Some(deadline),
            retry: None,
        };
        let report = run_open_loop(&server, &spec, request_input);
        let health = server.shutdown();
        BrownoutResult { report, health }
    }

    fn json_brownout(label: &str, r: &BrownoutResult) -> String {
        format!(
            "{{\"policy\": \"{label}\", \"offered_qps\": {:.2}, \"served\": {}, \
             \"shed_queue_full\": {}, \"shed_deadline\": {}, \"failed\": {}, \
             \"deadline_miss_rate\": {:.4}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
             \"breaker_trips\": {}, \"degraded_batches\": {}}}",
            r.report.offered_qps,
            r.report.served,
            r.report.shed_queue_full,
            r.report.shed_deadline,
            r.report.failed,
            r.report.deadline_miss_rate,
            r.report.p50_ms,
            r.report.p99_ms,
            r.health.breaker_trips,
            r.health.degraded_batches,
        )
    }

    pub fn main() {
        let smoke = cnn_stack_bench::smoke();
        let (width, requests, cal_iters) = if smoke { (0.25, 48, 3) } else { (0.5, 160, 5) };
        println!(
            "chaos bench: VGG-16 width {width}, Paranoid primary plan, max_batch {MAX_BATCH}{}",
            if smoke { " [smoke]" } else { "" }
        );

        let capacity = calibrate_qps(width, GuardConfig::Paranoid, cal_iters);
        let degraded_capacity = calibrate_qps(width, GuardConfig::Off, cal_iters);
        println!(
            "calibrated capacity: primary (Paranoid) {capacity:.1} req/s, \
             browned out (guards off) {degraded_capacity:.1} req/s"
        );

        // --- Survival under crash + hang at 1.5x capacity ------------
        let sv = survival(width, capacity, requests);
        let resolved = sv.served + sv.shed + sv.failed_crashed + sv.failed_hung + sv.failed_engine;
        println!(
            "survival: {} served, {} shed, {} crashed, {} hung, {} engine-failed \
             (of {} — {} respawns, {} worker crashes, {} hung batches)",
            sv.served,
            sv.shed,
            sv.failed_crashed,
            sv.failed_hung,
            sv.failed_engine,
            sv.requests,
            sv.health.respawns,
            sv.health.workers.iter().map(|w| w.crashes).sum::<u64>(),
            sv.health.hung_batches,
        );
        assert_eq!(resolved, sv.requests, "every ticket must resolve typed");
        assert!(
            sv.failed_crashed >= 1,
            "the injected crash must surface as WorkerCrashed"
        );
        assert!(
            sv.failed_hung >= 1,
            "the injected hang must surface as BatchHung"
        );
        assert!(
            sv.health.respawns >= 2,
            "both the crash and the hang failover must respawn the worker"
        );
        assert_eq!(sv.health.hung_batches, 1);
        assert_eq!(
            sv.served_after_respawn, MAX_BATCH,
            "the server must keep serving after the respawns"
        );

        // --- Brownout: breaker-on vs breaker-off at equal load -------
        // Both arms get the same 1.5x-capacity stream. The deadline is
        // generous (double the full-queue drain time), so misses are
        // dominated by queue-full sheds — pure capacity arithmetic,
        // robust to scheduler noise. The breaker trips on those sheds
        // and turns the guards off, whose extra throughput sheds
        // measurably less of the same load. The
        // cooldown outlasts the run so one trip decides the whole tail.
        let offered = 1.5 * capacity;
        let brownout_requests = 2 * requests;
        let queue_depth = 2 * MAX_BATCH;
        let deadline = Duration::from_secs_f64(2.0 * (queue_depth + MAX_BATCH) as f64 / capacity);
        let breaker = BreakerPolicy {
            window: 32,
            min_samples: 8,
            trip_miss_rate: 0.3,
            cooldown: Duration::from_secs(5),
            probe_requests: 4,
        };
        let off = brownout_arm(width, offered, brownout_requests, deadline, None);
        let on = brownout_arm(width, offered, brownout_requests, deadline, Some(breaker));
        for (label, arm) in [("breaker-off", &off), ("breaker-on", &on)] {
            println!(
                "{label:>12}: miss rate {:.1}% ({} served, {} shed-queue, {} shed-deadline, \
                 {} trips, {} degraded batches)",
                arm.report.deadline_miss_rate * 100.0,
                arm.report.served,
                arm.report.shed_queue_full,
                arm.report.shed_deadline,
                arm.health.breaker_trips,
                arm.health.degraded_batches,
            );
            assert_eq!(
                arm.report.failed, 0,
                "{label}: overload must not fail requests"
            );
        }
        assert!(off.health.breaker_trips == 0 && off.health.degraded_batches == 0);
        if !smoke {
            // The acceptance comparison; smoke runs are too short (the
            // queue may never even fill) to gate on trip behaviour or a
            // rate difference.
            assert!(
                on.health.breaker_trips >= 1,
                "sustained 1.5x overload must trip the breaker"
            );
            assert!(
                on.health.degraded_batches >= 1,
                "an open breaker must serve degraded batches"
            );
            assert!(
                on.report.deadline_miss_rate < off.report.deadline_miss_rate,
                "breaker-on miss rate ({:.1}%) must beat breaker-off ({:.1}%) at equal load",
                on.report.deadline_miss_rate * 100.0,
                off.report.deadline_miss_rate * 100.0
            );
        }

        // --- Recovery: crash to first served --------------------------
        let recovery_ms = crash_to_first_served(width).as_secs_f64() * 1e3;
        println!("recovery: crash -> first request served by the respawn {recovery_ms:.1} ms");

        // --- Report --------------------------------------------------
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(
            json,
            "  \"workload\": \"VGG-16 width {width}, Paranoid guard, guards off while the breaker \
             is open, single batch worker, open-loop arrivals at 1.5x calibrated capacity\","
        );
        let _ = writeln!(
            json,
            "  \"calibrated_capacity_qps\": {{\"primary\": {capacity:.2}, \
             \"degraded_bound\": {degraded_capacity:.2}}},"
        );
        let _ = writeln!(
            json,
            "  \"survival\": {{\"requests\": {}, \"served\": {}, \"shed\": {}, \
             \"failed_worker_crashed\": {}, \"failed_batch_hung\": {}, \"failed_engine\": {}, \
             \"lost\": {}, \"respawns\": {}, \"hung_batches\": {}, \
             \"served_after_respawn\": {}}},",
            sv.requests,
            sv.served,
            sv.shed,
            sv.failed_crashed,
            sv.failed_hung,
            sv.failed_engine,
            sv.requests - resolved,
            sv.health.respawns,
            sv.health.hung_batches,
            sv.served_after_respawn,
        );
        let supervision = bench_supervision();
        let _ = writeln!(
            json,
            "  \"recovery\": {{\"crash_to_first_served_ms\": {recovery_ms:.1}, \
             \"includes_backoff_ms\": {}, \"includes_batch_window_ms\": {}}},",
            supervision.backoff_base.as_millis(),
            BATCH_WINDOW.as_millis(),
        );
        let _ = writeln!(json, "  \"brownout\": [");
        let _ = writeln!(json, "    {},", json_brownout("breaker-off", &off));
        let _ = writeln!(json, "    {}", json_brownout("breaker-on", &on));
        let _ = writeln!(json, "  ]");
        let _ = writeln!(json, "}}");

        cnn_stack_bench::write_report("chaos", &json);
    }
}
