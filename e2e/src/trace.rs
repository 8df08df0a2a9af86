//! The engine-level half of a traced run: a traced and an untraced
//! session of the same plan alternate blocks, and everything from
//! `models` to `obs` is read off them.

use crate::engine::{
    closed_loop, report_harness, scaled, set_up, summarise, Block, Inputs, Options, SetUp, Window,
    Workload, BLOCKS, MB, POOL,
};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{self, percentile, tail_percentile};
use cnn_stack_nn::{ConvAlgorithm, InferencePlan, InferenceSession, ObsLevel, PlanStep};
use cnn_stack_obs::MetricsSnapshot;
use cnn_stack_parallel::Schedule;
use cnn_stack_tensor::{gemm_packed_into, GemmAlgorithm, GemmPlan, Tensor};
use std::time::{Duration, Instant};

/// Cumulative per-step seconds of a session's profile.
fn step_seconds(session: &InferenceSession) -> Vec<f64> {
    session
        .profile()
        .rows()
        .iter()
        .map(|r| r.time.as_secs_f64())
        .collect()
}

/// Which `engine.self_ms_*` metric a plan step's time is filed under.
fn step_class(name: &str) -> Option<&'static str> {
    const CLASSES: [(&str, &str); 10] = [
        ("conv3x3", "engine.self_ms_conv3x3"),
        ("conv1x1", "engine.self_ms_conv1x1"),
        ("dwconv", "engine.self_ms_dwconv"),
        ("resblock", "engine.self_ms_resblock"),
        ("linear", "engine.self_ms_linear"),
        ("maxpool", "engine.self_ms_pool"),
        ("globalavgpool", "engine.self_ms_pool"),
        ("relu", "engine.self_ms_elementwise"),
        ("bn", "engine.self_ms_elementwise"),
        ("flatten", "engine.self_ms_elementwise"),
    ];
    CLASSES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map(|(_, class)| *class)
}

/// Which `passes.steps_*` count a plan step adds to: how its kernel was
/// lowered, or `other` for steps that have no algorithm to choose
/// (pooling, ReLU, flatten) or run the scalar linear head.
fn algorithm_class(step: &PlanStep) -> &'static str {
    let conv = step.name.starts_with("conv");
    let block = step.name.starts_with("dwconv") || step.name.starts_with("resblock");
    let cfg = &step.cfg;
    if !(conv || block || step.name.starts_with("linear")) {
        "passes.steps_other"
    } else if cfg.gemm_algo == GemmAlgorithm::TernaryPacked {
        "passes.steps_ternary"
    } else if conv
        && cfg.conv_algo == ConvAlgorithm::Im2col
        && cfg.gemm_algo == GemmAlgorithm::Packed
    {
        "passes.steps_im2col_packed"
    } else if conv
        && matches!(
            cfg.conv_algo,
            ConvAlgorithm::Winograd | ConvAlgorithm::WinogradF4
        )
    {
        "passes.steps_winograd"
    } else if (conv || block) && cfg.conv_algo == ConvAlgorithm::Direct {
        "passes.steps_direct"
    } else {
        "passes.steps_other"
    }
}

fn report_plan(report: &mut Report, plan: &InferencePlan) {
    let steps = plan.steps();
    report.set("passes.steps", steps.len() as f64, 0);
    report.set(
        "passes.fused_layers",
        steps.iter().map(|s| s.span - 1).sum::<usize>() as f64,
        0,
    );
    let mut counts = std::collections::BTreeMap::<&str, f64>::new();
    for step in steps {
        *counts.entry(algorithm_class(step)).or_default() += 1.0;
    }
    for (class, count) in counts {
        report.set(class, count, 0);
    }
    report.set(
        "passes.plan_peak_mb",
        plan.footprint().peak_bytes as f64 / MB,
        0,
    );
}

/// Packed f32 GEMM on one fixed 512×4608×64 product (the shape of a
/// VGG-16 conv5 layer at batch 16), packing included, timed from
/// outside: the kernel's speed on this host today, independent of any
/// plan. Best of five, because it is a capability, not a latency; each
/// try is scaled to the reference clock like every other time.
fn gemm_probe_gflops() -> f64 {
    let (m, k, n) = (512, 4608, 64);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut scratch = vec![0.0f32; GemmPlan::new(m, k, n).scratch_elems()];
    let best = (0..5)
        .map(|_| {
            let before = stats::canary_ms();
            let t = Instant::now();
            gemm_packed_into(&a, &b, &mut c, m, k, n, &mut scratch, 1, Schedule::Static);
            std::hint::black_box(&mut c);
            t.elapsed().as_secs_f64() * stats::speed(&[before, stats::canary_ms()])
        })
        .fold(f64::INFINITY, f64::min);
    2.0 * (m * k * n) as f64 / best / 1e9
}

/// Cumulative readings of the traced session at a block boundary: per
/// step seconds, the observer's counters, the session's own run time.
type Mark = (Vec<f64>, MetricsSnapshot, Duration);

/// The engine-level half of a traced run: a traced (`ObsLevel::Trace`)
/// and an untraced session of the same plan run alternate blocks for
/// `seconds`, and everything `models` … `obs` is read off them. Returns
/// the lines of the sanity check that failed.
pub fn trace_engine(
    w: &Workload,
    opts: &Options,
    seconds: f64,
    inputs: &Inputs,
    report: &mut Report,
    rec: &mut Recorder,
) -> Vec<String> {
    let batches: Vec<Tensor> = (0..POOL).map(|k| inputs.batch(k, w.batch)).collect();
    let (mut plain, build_s) = scaled(rec, "models.build", |_| {
        w.kind.build_width(10, opts.width())
    });
    report.set("models.build_s", build_s, 0);
    report.set(
        "models.params_m",
        plain.network.num_params() as f64 / 1e6,
        0,
    );
    drop(plain);
    report.set("tensor.gemm_probe_gflops", gemm_probe_gflops(), 5);

    let trace = ObsLevel::Trace;
    set_up(w, opts, trace, &batches[0], rec, |traced, facts, rec| {
        set_up(
            w,
            opts,
            ObsLevel::Off,
            &batches[0],
            rec,
            |untraced, _, rec| {
                report.set(
                    "compress.apply_s",
                    (facts.materialise_s * facts.speed - build_s).max(0.0),
                    0,
                );
                report.set(
                    "compress.weight_sparsity",
                    traced.network().weight_sparsity(&[w.batch, 3, 32, 32]),
                    0,
                );
                report.set("passes.compile_s", facts.compile_s * facts.speed, 0);
                report.set("engine.session_new_s", facts.session_new_s * facts.speed, 0);
                report.set(
                    "engine.first_run_ms",
                    facts.first_run_s * facts.speed * 1e3,
                    0,
                );
                report_plan(report, &facts.plan);
                report.set("engine.arena_mb", traced.arena_bytes() as f64 / MB, 0);
                report.set(
                    "engine.arena_reuse_mb",
                    traced.arena_reuse_bytes() as f64 / MB,
                    0,
                );

                let observer = traced
                    .observer()
                    .expect("compiled with ObsLevel::Trace")
                    .clone();
                let mark = |traced: &InferenceSession| -> Mark {
                    (
                        step_seconds(traced),
                        observer.snapshot(),
                        traced.profile().total_time(),
                    )
                };
                let mut out = Tensor::zeros(traced.plan().output_shape().to_vec());
                // marks[b] is read when block b starts, marks[b + 1] when
                // it ends; the warm-up lies before marks[0].
                let mut marks: Vec<Mark> = Vec::with_capacity(BLOCKS + 1);
                let mut allocs = [0u64; BLOCKS];
                let (window, _) = rec.time("engine.window", None, |rec| {
                    closed_loop(seconds, |block, i| {
                        if block.is_some_and(|b| b == marks.len()) {
                            marks.push(mark(traced));
                        }
                        let k = i as usize % POOL;
                        // Even blocks (and even warm-up runs) trace, odd do not.
                        let on = block.map_or(i % 2 == 0, |b| b % 2 == 0);
                        let before = crate::allocations();
                        let t = Instant::now();
                        let ran = if on {
                            let request = rec.next_request();
                            let run = |_: &mut Recorder| traced.run_into(&batches[k], &mut out);
                            rec.time("engine.run", Some(request), run).0
                        } else {
                            untraced.run_into(&batches[k], &mut out)
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Some(b) = block {
                            allocs[b] += crate::allocations() - before;
                        }
                        (ran.is_ok() && inputs.matches(k, out.data())).then_some(ms)
                    })
                });
                marks.push(mark(traced));
                report.attempted += window
                    .blocks
                    .iter()
                    .map(|b| b.latencies_ms.len() as u64 + b.failed)
                    .sum::<u64>();
                report.failed += window.blocks.iter().map(|b| b.failed).sum::<u64>();
                report.set("guard.trips", traced.health().guards_tripped as f64, 0);
                report.set("guard.demotions", traced.health().demotions.len() as f64, 0);
                report.set("obs.events_dropped", observer.dropped() as f64, 0);
                engine_metrics(w, report, &window, &marks, &allocs, facts)
            },
        )
    })
}

/// Derives the per-run engine, tensor, pool, guard and obs metrics from
/// the alternating window. `marks[j]`..`marks[j+1]` bracket block `j`.
fn engine_metrics(
    w: &Workload,
    report: &mut Report,
    window: &Window,
    marks: &[Mark],
    allocs: &[u64; BLOCKS],
    facts: &SetUp,
) -> Vec<String> {
    let traced: Vec<usize> = (0..window.blocks.len()).filter(|b| b % 2 == 0).collect();
    let untraced: Vec<usize> = (0..window.blocks.len()).filter(|b| b % 2 == 1).collect();
    let pick = |idx: &[usize]| -> Vec<&Block> { idx.iter().map(|&b| &window.blocks[b]).collect() };
    let on = summarise(&pick(&traced));
    let off = summarise(&pick(&untraced));
    // Block positions (within `traced`) that the quiet rule kept.
    let quiet: Vec<usize> = on.quiet.iter().map(|&q| traced[q]).collect();

    let runs: f64 = quiet
        .iter()
        .map(|&b| window.blocks[b].latencies_ms.len() as f64)
        .sum::<f64>()
        .max(1.0);
    let wall_s: f64 = quiet.iter().map(|&b| window.blocks[b].wall_s).sum();
    let steps = facts.plan.steps();
    let mut self_s = vec![0.0f64; steps.len()];
    let mut run_s = 0.0;
    let delta = |name: &str| -> f64 {
        quiet
            .iter()
            .map(|&b| {
                let after = marks[b + 1].1.counter(name).unwrap_or(0);
                let before = marks[b].1.counter(name).unwrap_or(0);
                (after - before) as f64
            })
            .sum()
    };
    // The session's own timings, scaled block by block like the ones
    // taken from outside.
    for &b in &quiet {
        let speed = window.blocks[b].speed();
        let (before, after) = (&marks[b], &marks[b + 1]);
        for (acc, (a, b)) in self_s.iter_mut().zip(after.0.iter().zip(&before.0)) {
            *acc += (a - b) * speed;
        }
        run_s += (after.2 - before.2).as_secs_f64() * speed;
    }

    let tail = tail_percentile(on.pooled_ms.len());
    report.set("engine.run_ms_p50", on.p50_ms, on.pooled_ms.len());
    report.set(
        "engine.run_ms_tail",
        percentile(&on.pooled_ms, tail),
        on.pooled_ms.len(),
    );
    report.set("engine.run_tail_pct", tail, 0);
    let macs: u64 = steps.iter().map(|s| s.macs).sum();
    report.set(
        "engine.gflops",
        2.0 * macs as f64 / (off.p05_ms * 1e-3) / 1e9,
        off.pooled_ms.len(),
    );

    let mut class_ms = std::collections::BTreeMap::<&str, f64>::new();
    let mut unclassified = 0.0;
    for (step, s) in steps.iter().zip(&self_s) {
        match step_class(&step.name) {
            Some(class) => *class_ms.entry(class).or_default() += s / runs * 1e3,
            None => unclassified += s / runs * 1e3,
        }
    }
    let classified: f64 = class_ms.values().sum();
    for (class, ms) in &class_ms {
        report.set(class, *ms, runs as usize);
    }
    // Whatever the session spent outside its steps: per-step dispatch,
    // guard scans, the observer's own bookkeeping. Steps of a kind this
    // file does not know are counted here too, and said so.
    let run_ms = run_s / runs * 1e3;
    let dispatch_ms = run_ms - classified;
    report.set("engine.dispatch_ms", dispatch_ms, runs as usize);
    if unclassified > 0.0 {
        report.note(format!(
            "engine.dispatch_ms includes {unclassified} ms of steps of unknown kind"
        ));
    }
    let top = self_s.iter().copied().fold(0.0, f64::max);
    report.set(
        "engine.top_step_share",
        top / run_s.max(f64::MIN_POSITIVE),
        0,
    );
    let off_runs: f64 = untraced
        .iter()
        .map(|&b| window.blocks[b].latencies_ms.len() as f64)
        .sum::<f64>()
        .max(1.0);
    let off_allocs: u64 = untraced.iter().map(|&b| allocs[b]).sum();
    report.set(
        "engine.allocs_per_run",
        off_allocs as f64 / off_runs,
        off_runs as usize,
    );

    // (metric, the obs counter it is the per-run rate of, unit divisor)
    let per_run = [
        ("guard.scans_per_run", "guard.scans", 1.0),
        ("tensor.gemm_calls_per_run", "gemm.calls", 1.0),
        ("tensor.gemm_gflop_per_run", "gemm.flops", 1e9),
        ("tensor.gemm_mb_packed_per_run", "gemm.bytes_packed", MB),
        ("tensor.im2col_mb_per_run", "im2col.bytes_lowered", MB),
        ("tensor.winograd_tiles_per_run", "conv.winograd.tiles", 1.0),
        ("pool.tasks_per_run", "pool.tasks_run", 1.0),
    ];
    for (metric, counter, unit) in per_run {
        report.set(metric, delta(counter) / runs / unit, 0);
    }
    let ternary = delta("gemm.kernel.ternary");
    let kernels = ternary
        + delta("gemm.kernel.avx2")
        + delta("gemm.kernel.scalar")
        + delta("gemm.kernel.int8");
    report.set(
        "tensor.gemm_ternary_share",
        if kernels > 0.0 {
            ternary / kernels
        } else {
            0.0
        },
        0,
    );
    report.set(
        "pool.busy_share",
        delta("pool.worker_busy_ns") * 1e-9 / wall_s.max(f64::MIN_POSITIVE),
        0,
    );
    report.set(
        "obs.overhead_share",
        on.p05_ms / off.p05_ms - 1.0,
        off.pooled_ms.len(),
    );

    if !w.serve {
        let all: Vec<&Block> = window.blocks.iter().collect();
        report_harness(report, true, window, &summarise(&all), 1);
    }
    // The session's own account of a run (its steps plus what it spent
    // between them) must agree with what the harness timed from outside
    // on the same runs. Two accounts of one total compare by their
    // means; against the median the check would measure skew instead.
    let outside_ms = quiet
        .iter()
        .map(|&b| window.blocks[b].latencies_ms.iter().sum::<f64>() * window.blocks[b].speed())
        .sum::<f64>()
        / runs;
    if (run_ms - outside_ms).abs() > 0.05 * outside_ms {
        return vec![format!(
            "engine self times + dispatch = {run_ms} ms per run, but the harness timed {outside_ms} ms"
        )];
    }
    Vec::new()
}
