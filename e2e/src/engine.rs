//! The workload table and everything that drives an `InferenceSession`:
//! timed set-up, the naive reference, the blocked measurement window and
//! its summary, and the end-to-end run of a closed loop.

use crate::report::Report;
use crate::schedule::image_pool;
use crate::spans::Recorder;
use crate::stats::{self, median, percentile, quiet_blocks, sorted, CanaryClock};
use cnn_stack_core::{try_materialise, CompressionChoice, PlatformChoice, StackConfig};
use cnn_stack_models::{Model, ModelKind};
use cnn_stack_nn::{
    ConvAlgorithm, ExecConfig, GuardConfig, InferencePlan, InferenceSession, ObsLevel, Phase,
    PlanCompiler, WeightFormat,
};
use cnn_stack_tensor::Tensor;
use std::time::Instant;

pub const MB: f64 = 1024.0 * 1024.0;
/// Distinct images per run. The naive reference costs ~0.45 s per
/// VGG-16 image, so the pool is what the run-time cap affords.
pub const POOL: usize = 4;
/// Blocks per timed window.
pub const BLOCKS: usize = 6;
/// Seconds of back-to-back set-ups whose median is `setup_s`.
const SETUP_BUDGET_S: f64 = 3.0;
const WARMUP_SHARE: f64 = 1.0 / 15.0;

/// One benchmark workload. The reasons are in `BENCHMARK.json` and the
/// README; the code only needs to know what to build and how to drive it.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: ModelKind,
    pub batch: usize,
    /// Ternary-quantised and served through `Server` on an open-loop
    /// schedule, instead of a closed loop on a bare session.
    pub serve: bool,
    /// Declared in `BENCHMARK.json`, and so held to its bounds by the
    /// driver. `resnet18-b1` is not: its 0.6 s direct-convolution
    /// iterations spread 30 % between identical runs on the shared host
    /// (IQR / median over ten), beyond any bound the contract allows. It
    /// stays runnable by name for the one job it has, showing that
    /// algorithm selection does not reach inside residual blocks: the
    /// 28x that fixing it is worth needs no tight bound.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "vgg16-b8",
        kind: ModelKind::Vgg16,
        batch: 8,
        serve: false,
        gated: true,
    },
    Workload {
        name: "resnet18-b1",
        kind: ModelKind::ResNet18,
        batch: 1,
        serve: false,
        gated: false,
    },
    Workload {
        name: "mobilenet-b1",
        kind: ModelKind::MobileNet,
        batch: 1,
        serve: false,
        gated: true,
    },
    Workload {
        name: "serve-vgg16-ttq",
        kind: ModelKind::Vgg16,
        batch: 1,
        serve: true,
        gated: true,
    },
];

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Width 0.25 and a single set-up: seconds, not minutes. For tests.
    pub smoke: bool,
}

impl Options {
    pub fn width(&self) -> f64 {
        if self.smoke {
            0.25
        } else {
            1.0
        }
    }
}

impl Workload {
    fn stack(&self) -> StackConfig {
        let plain = StackConfig::plain(self.kind, PlatformChoice::IntelI7);
        if self.serve {
            plain
                .compress(CompressionChoice::TernaryQuantisation { threshold: 0.09 })
                .format(WeightFormat::Ternary)
        } else {
            plain
        }
    }

    /// Builds (and for the served workload compresses) the model. Layer
    /// seeds are fixed in the builders, so every call yields the same
    /// weights: the reference, each set-up and each server rung agree.
    pub fn materialise(&self, width: f64) -> Model {
        try_materialise(&self.stack(), width).expect("the workload's operating point is valid")
    }

    /// How the session under test is compiled. The served workload
    /// mirrors what `Server` does for its rungs (forced im2col, boundary
    /// guard) so the probe session of a traced run stands for them.
    pub fn exec(&self, observer: ObsLevel) -> (ExecConfig, GuardConfig) {
        let mut exec = ExecConfig::serial();
        exec.observer = observer;
        if self.serve {
            exec.conv_algo = ConvAlgorithm::Im2col;
            (exec, GuardConfig::BoundaryCheck)
        } else {
            (exec, GuardConfig::Off)
        }
    }
}

/// Inputs of one run and the outputs they must produce.
pub struct Inputs {
    pub images: Vec<Tensor>,
    /// Logits of each image from `Network::forward` — the naive direct,
    /// unfused path — on the same (compressed) weights.
    pub reference: Vec<Vec<f32>>,
}

impl Inputs {
    /// Generates the pool from the seed and computes its reference on a
    /// model of its own, before any `compile_plan` rewrites a network.
    pub fn generate(w: &Workload, opts: &Options, rec: &mut Recorder) -> Inputs {
        let images = image_pool(opts.seed, POOL);
        let mut model = w.materialise(opts.width());
        let batch = stack_images(&images, 0, POOL);
        let (logits, _) = rec.time("reference.forward", None, |_| {
            model
                .network
                .forward(&batch, Phase::Eval, &ExecConfig::serial())
        });
        let classes = logits.len() / POOL;
        let reference = logits.data().chunks(classes).map(<[f32]>::to_vec).collect();
        Inputs { images, reference }
    }

    /// The `k`-th batch input: `batch` images starting at pool slot `k`.
    pub fn batch(&self, k: usize, batch: usize) -> Tensor {
        stack_images(&self.images, k, batch)
    }

    /// Whether `out` (logits of `batch` images starting at slot `k`)
    /// matches the reference: within 2e-3 of the reference's scale in
    /// every logit, and the same arg-max.
    pub fn matches(&self, k: usize, out: &[f32]) -> bool {
        let classes = self.reference[0].len();
        out.len().is_multiple_of(classes)
            && out
                .chunks(classes)
                .enumerate()
                .all(|(j, logits)| close(logits, &self.reference[(k + j) % POOL]))
    }
}

fn stack_images(images: &[Tensor], first: usize, count: usize) -> Tensor {
    let mut data = Vec::with_capacity(count * images[0].len());
    for j in 0..count {
        data.extend_from_slice(images[(first + j) % images.len()].data());
    }
    Tensor::from_vec([count, 3, 32, 32], data)
}

fn close(out: &[f32], reference: &[f32]) -> bool {
    let scale = reference.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    let argmax = |xs: &[f32]| {
        let best = xs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
        best.map(|(i, _)| i)
    };
    out.len() == reference.len()
        && out
            .iter()
            .zip(reference)
            .all(|(a, b)| (a - b).abs() <= 2e-3 * scale)
        && argmax(out) == argmax(reference)
}

/// Facts of one set-up a traced run reports. Seconds are as measured;
/// `speed` scales them to the reference clock.
pub struct SetUp {
    pub total_s: f64,
    pub materialise_s: f64,
    pub compile_s: f64,
    pub session_new_s: f64,
    pub first_run_s: f64,
    pub speed: f64,
    pub plan: InferencePlan,
}

/// One set-up as a user pays it — materialise → `compile_plan` →
/// `InferenceSession::new` → first `run_into` — then `then` with the
/// live session. The session borrows the model, so it cannot be
/// returned; whatever needs it runs inside `then`.
pub fn set_up<R>(
    w: &Workload,
    opts: &Options,
    observer: ObsLevel,
    first_input: &Tensor,
    rec: &mut Recorder,
    then: impl FnOnce(&mut InferenceSession, &SetUp, &mut Recorder) -> R,
) -> R {
    let (exec, guard) = w.exec(observer);
    let mut canary = CanaryClock::start();
    let (mut model, materialise_s) =
        rec.time("compress.apply", None, |_| w.materialise(opts.width()));
    canary.sample();
    let (plan, compile_s) = rec.time("passes.compile", None, |_| {
        model
            .compile_plan(w.batch, &exec, &PlanCompiler::standard())
            .expect("the model compiles at CIFAR shape")
    });
    let kept_plan = plan.clone();
    let (mut session, session_new_s) = rec.time("engine.session_new", None, |_| {
        InferenceSession::with_guard(&mut model.network, plan, guard)
            .expect("the plan was compiled from this network")
    });
    canary.sample();
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    let (_, first_run_s) = rec.time("engine.first_run", None, |_| {
        session
            .run_into(first_input, &mut out)
            .expect("the first run succeeds")
    });
    canary.sample();
    let facts = SetUp {
        total_s: materialise_s + compile_s + session_new_s + first_run_s,
        materialise_s,
        compile_s,
        session_new_s,
        first_run_s,
        speed: stats::speed(&canary.samples),
        plan: kept_plan,
    };
    then(&mut session, &facts, rec)
}

/// Runs `f` inside a span and returns its result with its seconds scaled
/// to the reference clock by canary readings taken either side.
pub fn scaled<R>(
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce(&mut Recorder) -> R,
) -> (R, f64) {
    let before = stats::canary_ms();
    let (result, seconds) = rec.time(name, None, f);
    (
        result,
        seconds * stats::speed(&[before, stats::canary_ms()]),
    )
}

/// Calls `one_set_up` until the set-ups together fill the budget.
/// `one_set_up` performs a set-up and hands its (speed-scaled) seconds to
/// the callback it is given; when that answers `true` this was the last
/// one, and `one_set_up` measures on it while it is live and returns
/// `Some`. Returns the measurement and every set-up's seconds.
pub fn repeat_set_up<R>(
    opts: &Options,
    mut one_set_up: impl FnMut(&mut dyn FnMut(f64) -> bool) -> Option<R>,
) -> (R, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let mut keep = |total_s: f64| {
            times.push(total_s);
            let reps = if opts.smoke {
                1
            } else {
                stats::setup_reps(times[0], SETUP_BUDGET_S)
            };
            times.len() >= reps
        };
        if let Some(result) = one_set_up(&mut keep) {
            return (result, times);
        }
    }
}

/// One block of the timed window.
#[derive(Default)]
pub struct Block {
    /// As measured.
    pub latencies_ms: Vec<f64>,
    /// First operation's start to last operation's end, canary excluded
    /// (closed loops only).
    pub wall_s: f64,
    pub failed: u64,
    /// Canary readings taken inside the block.
    pub canary_ms: Vec<f64>,
}

impl Block {
    /// Scales this block's times to the reference clock.
    pub fn speed(&self) -> f64 {
        stats::speed(&self.canary_ms)
    }
}

/// A timed window and the host's steal time across it.
pub struct Window {
    pub blocks: Vec<Block>,
    pub steal_share: f64,
}

/// Share of `elapsed_s` on every CPU that the hypervisor took away since
/// `steal_before` ticks.
pub fn steal_share(steal_before: u64, elapsed_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    stats::steal_ticks().saturating_sub(steal_before) as f64 * 0.01 / (elapsed_s * cpus as f64)
}

/// Closed loop: calls `op(block, iteration)` back to back for
/// `seconds`, split into [`BLOCKS`] blocks on a fixed timeline, after a
/// warm-up of a fifteenth of that during which `block` is `None`. `op`
/// returns the latency it measured in ms, or `None` when the operation
/// failed or answered wrong. Between operations the canary is read
/// every few tens of ms, on this thread, so each block knows the speed
/// of the core it ran on.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(Option<usize>, u64) -> Option<f64>) -> Window {
    let warm = Instant::now();
    let mut iteration = 0u64;
    while warm.elapsed().as_secs_f64() < seconds * WARMUP_SHARE {
        op(None, iteration);
        iteration += 1;
    }
    let block_s = seconds / BLOCKS as f64;
    let mut blocks = Vec::with_capacity(BLOCKS);
    let steal = stats::steal_ticks();
    let start = Instant::now();
    for b in 0..BLOCKS {
        let mut block = Block {
            latencies_ms: Vec::with_capacity(1 << 14),
            ..Block::default()
        };
        let mut canary = CanaryClock::start();
        let began = Instant::now();
        let mut ended = began;
        // At least one operation per block, however slow the host.
        while ended == began || start.elapsed().as_secs_f64() < block_s * (b + 1) as f64 {
            match op(Some(b), iteration) {
                Some(ms) => block.latencies_ms.push(ms),
                None => block.failed += 1,
            }
            iteration += 1;
            ended = Instant::now();
            canary.tick();
        }
        // The clock's first sample was taken before `began`.
        let inside_s = canary.spent_s - canary.samples[0] * 1e-3;
        block.wall_s = (ended - began).as_secs_f64() - inside_s;
        block.canary_ms = canary.samples;
        blocks.push(block);
    }
    Window {
        blocks,
        steal_share: steal_share(steal, start.elapsed().as_secs_f64()),
    }
}

/// Latency statistics of a window under the quiet-block rule, scaled
/// to the reference clock.
pub struct Summary {
    /// 5th percentile of the pooled samples of the quietest blocks: the
    /// end-to-end latency. Interference on a shared host only ever adds
    /// time, and it comes and goes from one operation to the next, so
    /// the fastest operations are what the code costs. Between runs the
    /// 5th percentile spread 2-9 % where the quartile spread 6-15 % and
    /// the median 13-17 %.
    pub p05_ms: f64,
    /// Median of the same samples.
    pub p50_ms: f64,
    /// Pooled, ascending.
    pub pooled_ms: Vec<f64>,
    /// Which blocks were pooled.
    pub quiet: Vec<usize>,
    /// Median over every sample of every block, as measured.
    pub raw_p50_all_ms: f64,
    /// Slowest block median over fastest, minus one, as measured.
    pub raw_block_spread: f64,
}

pub fn summarise(blocks: &[&Block]) -> Summary {
    let scaled: Vec<Vec<f64>> = blocks
        .iter()
        .map(|b| {
            let speed = b.speed();
            b.latencies_ms.iter().map(|ms| ms * speed).collect()
        })
        .collect();
    // A block in which nothing succeeded has no median to rank by; it
    // sorts last and its failures are counted elsewhere.
    let rank = |xs: &[f64]| if xs.is_empty() { f64::MAX } else { median(xs) };
    let quiet: Vec<usize> = quiet_blocks(&scaled.iter().map(|b| rank(b)).collect::<Vec<_>>());
    let pooled_ms = sorted(
        quiet
            .iter()
            .flat_map(|&i| scaled[i].iter().copied())
            .collect(),
    );
    let raw_medians: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.latencies_ms.is_empty())
        .map(|b| median(&b.latencies_ms))
        .collect();
    let all = sorted(
        blocks
            .iter()
            .flat_map(|b| b.latencies_ms.iter().copied())
            .collect(),
    );
    let fastest = raw_medians.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = raw_medians.iter().copied().fold(0.0, f64::max);
    Summary {
        p05_ms: percentile(&pooled_ms, 5.0),
        p50_ms: percentile(&pooled_ms, 50.0),
        pooled_ms,
        quiet,
        raw_p50_all_ms: percentile(&all, 50.0),
        raw_block_spread: if raw_medians.is_empty() {
            0.0
        } else {
            slowest / fastest - 1.0
        },
    }
}

impl Summary {
    /// Operations per second at the pace of the faster half of the
    /// pooled samples — the rate the loop sustains when undisturbed.
    pub fn quiet_ops_per_s(&self) -> f64 {
        let half = &self.pooled_ms[..self.pooled_ms.len().div_ceil(2)];
        half.len() as f64 / (half.iter().sum::<f64>() * 1e-3)
    }
}

/// Writes the `harness.*` readings: as metrics in a traced run, as
/// notes beside an end-to-end run, so noise is visible on the very run
/// it disturbed.
pub fn report_harness(report: &mut Report, trace: bool, w: &Window, s: &Summary, setups: usize) {
    let canaries: Vec<f64> = w
        .blocks
        .iter()
        .flat_map(|b| b.canary_ms.iter().copied())
        .collect();
    let readings = [
        ("harness.block_spread", s.raw_block_spread, w.blocks.len()),
        ("harness.latency_ms_p50_all", s.raw_p50_all_ms, 0),
        ("harness.steal_share", w.steal_share, 0),
        ("harness.canary_ms_p50", median(&canaries), canaries.len()),
        ("harness.speed", stats::speed(&canaries), canaries.len()),
        ("harness.setup_reps", setups as f64, 0),
    ];
    for (name, value, n) in readings {
        if trace {
            report.set(name, value, n);
        } else {
            report.note(format!("{name} {value}"));
        }
    }
    let speeds: Vec<String> = w
        .blocks
        .iter()
        .map(|b| format!("{:.3}", b.speed()))
        .collect();
    report.note(format!(
        "quiet blocks {:?} of {}, block speeds [{}]",
        s.quiet,
        w.blocks.len(),
        speeds.join(", ")
    ));
}

/// The end-to-end run of a closed-loop workload.
pub fn run_closed(w: &Workload, opts: &Options, report: &mut Report, rec: &mut Recorder) {
    let inputs = Inputs::generate(w, opts, rec);
    let batches: Vec<Tensor> = (0..POOL).map(|k| inputs.batch(k, w.batch)).collect();
    let (window, setups) = repeat_set_up(opts, |keep| {
        let off = ObsLevel::Off;
        set_up(w, opts, off, &batches[0], rec, |session, facts, _| {
            if !keep(facts.total_s * facts.speed) {
                return None;
            }
            let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
            reset_peak_rss(report);
            Some(closed_loop(opts.seconds, |_, i| {
                let k = i as usize % POOL;
                let t = Instant::now();
                let ran = session.run_into(&batches[k], &mut out);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                (ran.is_ok() && inputs.matches(k, out.data())).then_some(ms)
            }))
        })
    });
    let peak_rss_mb = stats::peak_rss_mb();
    let reps = setups.len();
    let blocks: Vec<&Block> = window.blocks.iter().collect();
    let s = summarise(&blocks);
    let ops: usize = blocks.iter().map(|b| b.latencies_ms.len()).sum();
    report.failed = blocks.iter().map(|b| b.failed).sum();
    report.attempted = ops as u64 + report.failed;
    report_setup(report, setups);
    report.set("latency_ms_p05", s.p05_ms, s.pooled_ms.len());
    report.set(
        "throughput_img_s",
        w.batch as f64 * s.quiet_ops_per_s(),
        s.pooled_ms.len().div_ceil(2),
    );
    report.note(format!("latency_ms_p50 {} (same samples)", s.p50_ms));
    report.set(
        "ok_share",
        ops as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    report.set("peak_rss_mb", peak_rss_mb, 0);
    report_harness(report, false, &window, &s, reps);
}

/// `setup_s`: the lower quartile of the back-to-back set-ups, because a
/// neighbour only ever makes one slower.
pub fn report_setup(report: &mut Report, setups: Vec<f64>) {
    let n = setups.len();
    report.set("setup_s", percentile(&sorted(setups), 25.0), n);
}

/// Resets the peak-RSS watermark as the window starts, or says in the
/// report that it could not.
pub fn reset_peak_rss(report: &mut Report) {
    if !stats::reset_peak_rss() {
        report.note("peak_rss_mb covers the whole run: /proc/self/clear_refs is not writable");
    }
}
