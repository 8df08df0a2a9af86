//! The arena-backed inference engine.
//!
//! Every layer computes its values in one place,
//! [`Layer::forward_into`]. [`Network::forward`] runs those kernels
//! through the allocating [`Layer::forward`] wrapper, a fresh activation
//! tensor and workspace per layer, which is exactly the per-inference
//! heap traffic the paper's embedded targets cannot afford (§IV-B
//! measures whole-network memory footprints for this reason). This
//! module compiles a network once into an [`InferencePlan`] — every
//! step's output shape, kernel and workspace requirement — and then
//! executes it through an [`InferenceSession`] over one pre-sized arena,
//! so steady-state inference performs **zero** per-layer heap
//! allocations: the same kernels run over arena slices. What the
//! session adds over the wrapper is the plan — per-step algorithm
//! choice, fusion, arena views and batch chunking — which is what the
//! engine-vs-forward tests hold bit-identical. The arena is laid out by
//! the liveness colouring in [`crate::liveness`]: each step's output
//! and workspace get offsets such that buffers with overlapping live
//! intervals never share bytes while everything else does.
//!
//! When the configuration asks for more than one thread and the plan
//! carries no memory budget, the session switches to data-parallel
//! batch execution: the batch dimension is split into chunks, each
//! chunk runs the whole layer pipeline on its own arena with one
//! thread, and every run forks the chunks onto scoped threads (chunk 0
//! on the calling thread) and joins them before it returns. Because
//! each output element is computed by exactly the same loop nest either
//! way, the result is bit-identical to the single-chunk path. A
//! budgeted plan runs as one chunk whose steps keep their threads: a
//! budget bounds the one arena the plan's peak describes, and one arena
//! per chunk would exceed it.
//!
//! # Guarded execution
//!
//! Every kernel invocation runs under `catch_unwind`, on the calling
//! thread and on every chunk's thread alike: a panicking kernel cannot
//! kill the process. A panic outside a kernel is an engine bug and
//! propagates to the caller (a chunk's thread re-raises it at the
//! join). With a
//! [`GuardConfig`] above `Off` the session additionally scans each
//! layer's output for non-finite values at the layer boundary, naming
//! the first offending layer in a [`GuardReport`]. When a guard trips or
//! a kernel panics inside a step with a safer alternative, the session
//! *demotes* that step (Winograd→im2col, CSR→dense), records a
//! [`DemotionRecord`] in the profile's [`HealthReport`], and re-runs —
//! one bad kernel degrades throughput instead of killing the process.
//!
//! # Example
//!
//! ```
//! use cnn_stack_nn::{
//!     Conv2d, ExecConfig, Flatten, InferencePlan, InferenceSession, Linear, Network, Phase, ReLU,
//! };
//! use cnn_stack_tensor::Tensor;
//!
//! let mut net = Network::new(vec![
//!     Box::new(Conv2d::new(3, 4, 3, 1, 1, 0)),
//!     Box::new(ReLU::new()),
//!     Box::new(Flatten::new()),
//!     Box::new(Linear::new(4 * 8 * 8, 10, 1)),
//! ])
//! .unwrap();
//! let cfg = ExecConfig::serial();
//! let plan = InferencePlan::compile(&net, &[2, 3, 8, 8], &cfg).unwrap();
//! assert_eq!(plan.output_shape(), &[2, 10]);
//! let mut session = InferenceSession::new(&mut net, plan).unwrap();
//! let y = session.run(&Tensor::zeros([2, 3, 8, 8])).unwrap();
//! assert_eq!(y.shape().dims(), &[2, 10]);
//! assert_eq!(session.profile().runs(), 1);
//! assert!(session.health().is_clean());
//! ```

use crate::algo::AlgoChoice;
use crate::error::Error;
use crate::guard::{
    scan_non_finite, BudgetBreachRecord, DemotionReason, DemotionRecord, FaultPlan, GuardConfig,
    GuardReport, GuardViolation, HealthReport,
};
use crate::layer::{ExecConfig, Layer};
use crate::liveness::{ArenaLayout, MemoryFootprint, StepExtent};
use crate::network::Network;
use crate::weights::Weights;
use cnn_stack_obs::{Metric, NameId, Observer};
use cnn_stack_parallel::panic_message;
use cnn_stack_tensor::{AlignedBuf, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded attempt budget per `run_into` call: the first attempt plus up
/// to three demotions.
const MAX_ATTEMPTS: u32 = 4;

/// One compiled top-level layer: shapes, costs, and how the engine will
/// execute it.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// Layer name, as reported by [`Layer::name`]. The plan compiler
    /// appends the absorbed layers and the kernel-registry row the step
    /// runs, e.g. `"conv3x3(64->64)/s1 + bn + relu [winograd-f4]"`.
    pub name: String,
    /// Index of the step's *primary* network layer — the one whose
    /// kernel executes. [`InferencePlan::compile`] maps step `i` to
    /// layer `i`; the plan compiler's fusion produces fewer steps than
    /// layers, so the mapping is explicit.
    pub layer: usize,
    /// Consecutive network layers this step covers, starting at
    /// [`layer`](PlanStep::layer) (1 for an unfused step; >1 when
    /// following identity-BN/ReLU layers were absorbed into this
    /// kernel). The spans of a plan's steps tile the network exactly.
    pub span: usize,
    /// Effective execution configuration for this step. Uniform (the
    /// plan's global config) under [`InferencePlan::compile`]; the plan
    /// compiler's algorithm selection sets it per step.
    pub cfg: ExecConfig,
    /// Activation shape entering the layer (full batch).
    pub input_shape: Vec<usize>,
    /// Activation shape leaving the layer (full batch).
    pub output_shape: Vec<usize>,
    /// Elements entering the layer.
    pub input_elems: usize,
    /// Elements leaving the layer.
    pub output_elems: usize,
    /// Workspace floats the kernel needs
    /// ([`Layer::forward_scratch_elems`]); the liveness colouring sizes
    /// the step's arena slot with exactly this.
    pub workspace_elems: usize,
    /// Dense multiply-accumulates for the step.
    pub macs: u64,
    /// Approximate bytes moved: activations in and out plus stored
    /// non-zero weights, at 4 bytes per element.
    pub bytes: u64,
}

impl PlanStep {
    /// The step as traces and reports name it under `cfg`, the config
    /// it runs (its own, or what a guard demotion left): `"{name} [span
    /// n] {conv_algo:?}/{gemm_algo:?}"`, plus `" +relu"` when a ReLU is
    /// fused.
    pub fn label(&self, cfg: &ExecConfig) -> String {
        let relu = if cfg.fused_relu { " +relu" } else { "" };
        format!(
            "{} [span {}] {:?}/{:?}{relu}",
            self.name, self.span, cfg.conv_algo, cfg.gemm_algo
        )
    }
}

/// A network compiled for one input shape and one [`ExecConfig`]:
/// per-step shapes, costs, output and workspace extents (the arena is
/// laid out from these, see [`footprint`](Self::footprint)), computed
/// once so that every subsequent [`InferenceSession::run`] is
/// allocation-free.
#[derive(Clone, Debug)]
pub struct InferencePlan {
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
    cfg: ExecConfig,
    steps: Vec<PlanStep>,
}

impl InferencePlan {
    /// Compiles one unfused step per layer under the one global `cfg`:
    /// the plan compiler's pipeline ([`crate::passes`]) without folding,
    /// fusion, algorithm selection or budget fitting. Every layer's
    /// output shape, workspace and GEMM plan is recorded at
    /// `input_shape`.
    ///
    /// # Errors
    ///
    /// The same contract as [`PlanCompiler::run`](crate::PlanCompiler::run):
    /// [`Error::InvalidConfig`] if `cfg.threads == 0`, the input shape is
    /// empty / has a zero extent, or some layer's
    /// [`Layer::check_input`] refuses the shape reaching it; with
    /// `cfg.plan_budget` set, [`PlanError::BudgetInfeasible`] (as
    /// [`Error::Plan`]) when this plan's peak exceeds the budget — a
    /// global compile has no per-layer freedom, so this exact plan
    /// either fits or nothing does.
    ///
    /// [`PlanError::BudgetInfeasible`]: crate::PlanError::BudgetInfeasible
    pub fn compile(net: &Network, input_shape: &[usize], cfg: &ExecConfig) -> Result<Self, Error> {
        crate::passes::compile_global(net, input_shape, cfg)
    }

    /// Assembles a plan from emitted steps (`passes.rs`), which may span
    /// several layers and carry per-step configurations.
    pub(crate) fn from_parts(
        input_shape: Vec<usize>,
        cfg: ExecConfig,
        steps: Vec<PlanStep>,
    ) -> Self {
        let output_shape = steps
            .last()
            .map(|s| s.output_shape.clone())
            .unwrap_or_else(|| input_shape.clone());
        InferencePlan {
            input_shape,
            output_shape,
            cfg,
            steps,
        }
    }

    /// The input shape the plan was compiled for.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The network output shape at the compiled input shape.
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// The execution configuration baked into the plan.
    pub fn cfg(&self) -> &ExecConfig {
        &self.cfg
    }

    /// The compiled steps, one per top-level layer.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Per-step memory extents for the liveness planner, at the plan's
    /// full batch executed sequentially.
    pub(crate) fn step_extents(&self) -> Vec<StepExtent> {
        self.steps
            .iter()
            .map(|s| StepExtent {
                output_elems: s.output_elems,
                workspace_elems: s.workspace_elems,
            })
            .collect()
    }

    /// The plan's predicted arena requirement: the liveness-coloured
    /// peak (what a memory budget is compared against) and the
    /// counterfactual unshared footprint, for the full batch executed
    /// in one chunk. A session of a budgeted plan runs one chunk, so its
    /// [`InferenceSession::arena_bytes`] stays within this peak; an
    /// unbudgeted batch-parallel session sizes one smaller arena per
    /// chunk, and `arena_bytes` reports their exact total.
    pub fn footprint(&self) -> MemoryFootprint {
        MemoryFootprint::of(&self.step_extents())
    }
}

/// Cumulative per-layer execution counters, one row per plan step.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Layer name.
    pub name: String,
    /// Cumulative wall-clock time across successful runs. Every step
    /// is timed inside its chunk; batch-parallel runs attribute the
    /// slowest chunk's time — the step's critical path.
    pub time: Duration,
    /// Cumulative dense multiply-accumulates.
    pub macs: u64,
    /// Cumulative approximate bytes moved.
    pub bytes: u64,
}

/// Per-layer cumulative time/MAC/byte counters carried by an
/// [`InferenceSession`] across runs: the per-layer timing of the
/// deployed loop, measured on the plan's own steps (fused steps count
/// as one row) rather than on a second, allocating execution path.
#[derive(Clone, Debug)]
pub struct SessionProfile {
    rows: Vec<ProfileRow>,
    runs: u64,
    total_time: Duration,
    health: HealthReport,
}

impl SessionProfile {
    fn new(steps: &[PlanStep]) -> Self {
        SessionProfile {
            rows: steps
                .iter()
                .map(|s| ProfileRow {
                    name: s.name.clone(),
                    time: Duration::ZERO,
                    macs: 0,
                    bytes: 0,
                })
                .collect(),
            runs: 0,
            total_time: Duration::ZERO,
            health: HealthReport::default(),
        }
    }

    /// One row per top-level plan step, in execution order.
    pub fn rows(&self) -> &[ProfileRow] {
        &self.rows
    }

    /// Number of completed runs.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total wall-clock time across all runs.
    pub fn total_time(&self) -> Duration {
        self.total_time
    }

    /// What the session survived: guards tripped, panics contained,
    /// and algorithm demotions, in order.
    pub fn health(&self) -> &HealthReport {
        &self.health
    }

    /// Per-step `(name, mean time)` across runs.
    pub fn mean_layer_times(&self) -> Vec<(String, Duration)> {
        let runs = self.runs.max(1) as u32;
        self.rows
            .iter()
            .map(|r| (r.name.clone(), r.time / runs))
            .collect()
    }
}

/// A per-chunk view of the plan: the same steps re-shaped to the chunk's
/// batch size, plus each step's slots in the chunk's arena.
#[derive(Debug)]
struct ChunkStep {
    layer: usize,
    /// The step's effective configuration inside this chunk: the
    /// session's current (possibly demoted) per-step config, pinned to
    /// one thread when the batch is split across chunks.
    cfg: ExecConfig,
    input_shape: Vec<usize>,
    input_elems: usize,
    output_elems: usize,
    /// Arena offset of the step's output activation (unused for the
    /// final step, which writes straight to the caller's buffer).
    dst_off: usize,
    /// Arena offset of the step's workspace.
    ws_off: usize,
    /// Workspace floats reserved at `ws_off`.
    ws_len: usize,
}

#[derive(Debug)]
struct ChunkArena {
    /// Images in this chunk.
    len: usize,
    steps: Vec<ChunkStep>,
    /// The chunk's single arena: every intermediate activation and
    /// workspace lives at a liveness-assigned offset in here. It starts
    /// on a cache line and the layout places whole lines, so every
    /// slice a step sees starts on one.
    arena: AlignedBuf,
    /// Elements the unshared `naive_bytes` sizing model would have
    /// reserved for this chunk (the counterfactual behind the reuse
    /// gauge).
    naive_elems: usize,
    /// Wall-clock nanoseconds per step on the most recent attempt, so
    /// the session can attribute per-layer time (max over chunks)
    /// after a run.
    step_ns: Vec<u64>,
}

/// Observability wiring carried by a session whose plan was compiled
/// with [`cnn_stack_obs::ObsLevel`] above `Off`: the observer plus the
/// pre-interned span names (one per plan step, in the same
/// `"name [span n] conv/gemm"` format the stack runner reports), so the
/// hot path never formats or allocates.
#[derive(Debug)]
struct ObsWiring {
    observer: Arc<Observer>,
    step_names: Vec<NameId>,
    run_name: NameId,
}

/// How one execution attempt failed; drives the recovery loop in
/// [`InferenceSession::run_into`].
enum RunFailure {
    Guard {
        step: usize,
        chunk: Option<usize>,
        violation: GuardViolation,
    },
    Panic {
        step: usize,
        message: String,
    },
}

impl RunFailure {
    /// Pipeline position of the failure, for picking the earliest one
    /// when several chunks fail in the same parallel attempt.
    fn step(&self) -> usize {
        match self {
            RunFailure::Guard { step, .. } | RunFailure::Panic { step, .. } => *step,
        }
    }
}

/// Memory extent of one step at `input_shape` under `cfg` — the kernel's
/// own workspace numbers, re-derived whenever batch size or (demoted)
/// configuration differ from what the plan was compiled with.
fn step_extent(
    layer: &dyn Layer,
    input_shape: &[usize],
    output_elems: usize,
    cfg: &ExecConfig,
) -> StepExtent {
    StepExtent {
        output_elems,
        workspace_elems: layer.forward_scratch_elems(input_shape, cfg),
    }
}

/// Sizes per-chunk arenas for the current execution state (`exec` holds
/// each step's effective, possibly demoted, configuration): one chunk
/// unless the configuration asks for batch parallelism. A plan that
/// carries a memory budget runs as one chunk, so the session holds the
/// one arena the budget was checked against.
fn build_chunks(net: &Network, plan: &InferencePlan, exec: &[ExecConfig]) -> Vec<ChunkArena> {
    let n = plan.input_shape()[0];
    let chunk_count = if plan.cfg().threads > 1 && n > 1 && plan.cfg().plan_budget.is_none() {
        plan.cfg().threads.min(n)
    } else {
        1
    };
    let base = n / chunk_count;
    let extra = n % chunk_count;
    let mut chunks = Vec::with_capacity(chunk_count);
    for c in 0..chunk_count {
        let m = base + usize::from(c < extra);
        let mut steps = Vec::with_capacity(plan.steps().len());
        let mut extents = Vec::with_capacity(plan.steps().len());
        for (ps, &step_cfg) in plan.steps().iter().zip(exec) {
            let mut input_shape = ps.input_shape.clone();
            input_shape[0] = m;
            let output_elems = ps.output_elems / n * m;
            // Chunks run concurrently, one thread each.
            let cfg = if chunk_count > 1 {
                ExecConfig {
                    threads: 1,
                    ..step_cfg
                }
            } else {
                step_cfg
            };
            let layer = net.layers()[ps.layer].as_ref();
            extents.push(step_extent(layer, &input_shape, output_elems, &cfg));
            steps.push(ChunkStep {
                layer: ps.layer,
                cfg,
                input_shape,
                input_elems: ps.input_elems / n * m,
                output_elems,
                dst_off: 0,
                ws_off: 0,
                ws_len: 0,
            });
        }
        let layout = ArenaLayout::colour(&extents);
        for (step, slot) in steps.iter_mut().zip(&layout.slots) {
            step.dst_off = slot.dst_off;
            step.ws_off = slot.ws_off;
            step.ws_len = slot.ws_elems;
        }
        chunks.push(ChunkArena {
            len: m,
            steps,
            arena: AlignedBuf::zeroed(layout.total_elems),
            naive_elems: layout.naive_elems,
            step_ns: vec![0; plan.steps().len()],
        });
    }
    chunks
}

/// Splits one chunk arena into a step's source / destination /
/// workspace views. `src`/`dst` are `None` at the pipeline boundaries
/// (the network input and final output live in caller buffers).
///
/// The liveness layout guarantees that the three ranges are pairwise
/// disjoint: the previous step's output, this step's output, and this
/// step's workspace are all live at this step, so the colouring placed
/// them in non-overlapping byte ranges. `debug_assert`s re-check that
/// invariant here.
fn arena_views(
    arena: &mut [f32],
    src: Option<(usize, usize)>,
    dst: Option<(usize, usize)>,
    ws: (usize, usize),
) -> (Option<&[f32]>, Option<&mut [f32]>, &mut [f32]) {
    let ranges = [src.unwrap_or((0, 0)), dst.unwrap_or((0, 0)), ws];
    for (a, &(ao, al)) in ranges.iter().enumerate() {
        debug_assert!(ao + al <= arena.len(), "arena view out of bounds");
        for &(bo, bl) in ranges.iter().skip(a + 1) {
            debug_assert!(
                al == 0 || bl == 0 || ao + al <= bo || bo + bl <= ao,
                "arena views overlap: [{ao}, {})+[{bo}, {})",
                ao + al,
                bo + bl
            );
        }
    }
    let ptr = arena.as_mut_ptr();
    // The layout places whole cache lines in a line-aligned arena; the
    // packed GEMM's B panels and merged-C rows inherit that alignment.
    debug_assert!(
        ranges
            .iter()
            .all(|&(o, l)| l == 0 || (ptr.wrapping_add(o) as usize).is_multiple_of(64)),
        "an arena view is off its cache line: {ranges:?}"
    );
    // SAFETY: every range is in-bounds and the mutable ranges (dst, ws)
    // are disjoint from each other and from src — asserted above and
    // guaranteed by the layout construction — so the raw reborrows
    // never alias.
    unsafe {
        (
            src.map(|(o, l)| std::slice::from_raw_parts(ptr.add(o), l)),
            dst.map(|(o, l)| std::slice::from_raw_parts_mut(ptr.add(o), l)),
            std::slice::from_raw_parts_mut(ptr.add(ws.0), ws.1),
        )
    }
}

/// Owned-or-borrowed network binding for a session.
///
/// The classic constructors ([`InferenceSession::new`] /
/// [`InferenceSession::with_guard`]) borrow the caller's network, which
/// ties the session to the caller's stack frame. A serving pool instead
/// needs sessions that *own* their network replica and live for the
/// lifetime of the server ([`InferenceSession::owned`]), so the binding
/// is an enum behind `Deref`/`DerefMut` and the engine body is agnostic.
#[derive(Debug)]
enum NetHandle<'n> {
    Borrowed(&'n mut Network),
    Owned(Box<Network>),
}

impl std::ops::Deref for NetHandle<'_> {
    type Target = Network;
    fn deref(&self) -> &Network {
        match self {
            NetHandle::Borrowed(n) => n,
            NetHandle::Owned(n) => n,
        }
    }
}

impl std::ops::DerefMut for NetHandle<'_> {
    fn deref_mut(&mut self) -> &mut Network {
        match self {
            NetHandle::Borrowed(n) => n,
            NetHandle::Owned(n) => n,
        }
    }
}

/// Executes an [`InferencePlan`] against its network with pre-allocated
/// activation arenas; see the [module docs](crate::engine).
#[derive(Debug)]
pub struct InferenceSession<'n> {
    net: NetHandle<'n>,
    plan: InferencePlan,
    /// Per-step effective configuration: the compiled [`PlanStep::cfg`]
    /// with every demotion so far applied.
    exec: Vec<ExecConfig>,
    chunks: Vec<ChunkArena>,
    profile: SessionProfile,
    guard: GuardConfig,
    /// Total `run_into` calls, successful or not — the run index faults
    /// are keyed on (`profile.runs` counts only successes).
    invocations: u64,
    faults: FaultPlan,
    obs: Option<ObsWiring>,
}

impl<'n> InferenceSession<'n> {
    /// Binds a compiled plan to its network with guards off, allocating
    /// every buffer the session will ever need (arenas, scratch, profile
    /// rows), so that [`run_into`](Self::run_into) is allocation-free
    /// whenever the session runs one chunk.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the plan's step spans do not
    /// tile the network's layers exactly (the plan was compiled against
    /// a different network).
    pub fn new(net: &'n mut Network, plan: InferencePlan) -> Result<Self, Error> {
        Self::with_guard(net, plan, GuardConfig::default())
    }

    /// Like [`new`](Self::new), with an explicit [`GuardConfig`].
    pub fn with_guard(
        net: &'n mut Network,
        plan: InferencePlan,
        guard: GuardConfig,
    ) -> Result<Self, Error> {
        Self::build(NetHandle::Borrowed(net), plan, guard)
    }

    /// Like [`with_guard`](Self::with_guard), but the session takes
    /// ownership of the network, so it has no borrowed lifetime
    /// (`InferenceSession<'static>`) and can be stored in long-lived
    /// structures — this is the constructor the serving session pool
    /// uses for its pre-warmed replicas. Recover the network with
    /// [`into_network`](Self::into_network).
    pub fn owned(
        net: Network,
        plan: InferencePlan,
        guard: GuardConfig,
    ) -> Result<InferenceSession<'static>, Error> {
        InferenceSession::build(NetHandle::Owned(Box::new(net)), plan, guard)
    }

    fn build(net: NetHandle<'n>, plan: InferencePlan, guard: GuardConfig) -> Result<Self, Error> {
        // The step spans must tile the network's layers exactly — a
        // plan compiled against a different network (or a stale fused
        // plan after the network changed) is rejected here.
        let covered: usize = plan.steps.iter().map(|s| s.span).sum();
        let mut at = 0usize;
        let contiguous = plan.steps.iter().all(|s| {
            let ok = s.layer == at;
            at += s.span;
            ok
        });
        if covered != net.len() || !contiguous {
            return Err(Error::InvalidConfig(format!(
                "plan covers {} layers ({} steps) but the network has {} layers",
                covered,
                plan.steps.len(),
                net.len()
            )));
        }
        let exec: Vec<ExecConfig> = plan.steps.iter().map(|s| s.cfg).collect();
        let chunks = build_chunks(&net, &plan, &exec);
        let profile = SessionProfile::new(&plan.steps);
        let obs = Observer::for_level(plan.cfg().observer).map(|observer| ObsWiring {
            run_name: observer.intern("run"),
            observer,
            step_names: Vec::new(),
        });
        let mut session = InferenceSession {
            net,
            plan,
            exec,
            chunks,
            profile,
            guard,
            invocations: 0,
            faults: FaultPlan::default(),
            obs,
        };
        session.reprepare();
        session.sync_obs();
        Ok(session)
    }

    /// The compiled plan.
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// The bound network (borrowed or owned).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Recovers the network from a session built with
    /// [`owned`](Self::owned); `None` for borrowing sessions (the
    /// network lives with the caller).
    pub fn into_network(self) -> Option<Network> {
        match self.net {
            NetHandle::Owned(n) => Some(*n),
            NetHandle::Borrowed(_) => None,
        }
    }

    /// The session's observer, when the plan was compiled with an
    /// [`cnn_stack_obs::ObsLevel`] above `Off` (see
    /// [`ExecConfig::observer`]). Snapshot its metrics or export its
    /// events after a run.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.obs.as_ref().map(|w| &w.observer)
    }

    /// Re-derives the observer-facing state from the current execution
    /// state: span names (step algorithms change under demotion) and the
    /// arena-footprint gauges. Cold path — run at session build and
    /// after every rebuild.
    fn sync_obs(&mut self) {
        if self.obs.is_none() {
            return;
        }
        let arena_bytes = self.arena_bytes();
        let reuse_bytes = self.arena_reuse_bytes();
        let peak_bytes = self.plan.footprint().peak_bytes;
        let w = self.obs.as_mut().expect("checked above");
        let names: Vec<NameId> = self
            .plan
            .steps
            .iter()
            .zip(&self.exec)
            .map(|(s, cfg)| w.observer.intern(&s.label(cfg)))
            .collect();
        w.step_names = names;
        w.observer
            .metrics()
            .set(Metric::ArenaBytes, arena_bytes as i64);
        w.observer
            .metrics()
            .set(Metric::PlanPeakBytes, peak_bytes as i64);
        w.observer
            .metrics()
            .set(Metric::ArenaReuseBytes, reuse_bytes as i64);
    }

    /// Bytes of arena this session holds, summed over its chunks — the
    /// exact steady-state activation/workspace footprint of
    /// [`run_into`](Self::run_into), in whole cache lines (each chunk's
    /// allocation is under one line longer, to start on one).
    pub fn arena_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.arena.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Bytes the session's arena layout saves over the unshared
    /// [`MemoryFootprint::naive_bytes`] sizing model.
    pub fn arena_reuse_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| (c.naive_elems.saturating_sub(c.arena.len())) * std::mem::size_of::<f32>())
            .sum()
    }

    /// Adds `n` to counter `m` on the session's observer, if any.
    #[inline]
    fn obs_count(&self, m: Metric, n: u64) {
        if let Some(w) = &self.obs {
            w.observer.metrics().add(m, n);
        }
    }

    /// Cumulative execution counters.
    pub fn profile(&self) -> &SessionProfile {
        &self.profile
    }

    /// The session's health so far (shorthand for
    /// `profile().health()`).
    pub fn health(&self) -> &HealthReport {
        &self.profile.health
    }

    /// The active guard level.
    pub fn guard(&self) -> GuardConfig {
        self.guard
    }

    /// Changes the guard level for subsequent runs.
    pub fn set_guard(&mut self, guard: GuardConfig) {
        self.guard = guard;
    }

    /// Arms a deterministic fault plan (see [`crate::guard`]). Weight
    /// bit-flip faults are applied immediately; the rest fire inside the
    /// targeted kernel invocation. Only compiled under
    /// `--features fault-inject`.
    #[cfg(feature = "fault-inject")]
    pub fn inject_faults(&mut self, faults: FaultPlan) {
        faults.apply_weight_faults(&mut self.net);
        // The flips dropped the touched layers' derived forms; re-warm
        // so the next run stays allocation-free.
        self.reprepare();
        self.faults = faults;
    }

    /// Resets the cumulative counters (e.g. after warm-up runs),
    /// including the health report. Demotions already applied to the
    /// execution state persist; only their records are cleared.
    pub fn reset_profile(&mut self) {
        for row in &mut self.profile.rows {
            row.time = Duration::ZERO;
            row.macs = 0;
            row.bytes = 0;
        }
        self.profile.runs = 0;
        self.profile.total_time = Duration::ZERO;
        self.profile.health = HealthReport::default();
    }

    /// Runs one inference, allocating only the output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `input` does not match the
    /// plan's compiled input shape, plus the failure modes of
    /// [`run_into`](Self::run_into).
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, Error> {
        let mut out = Tensor::zeros(self.plan.output_shape.clone());
        self.run_into(input, &mut out)?;
        Ok(out)
    }

    /// Runs one inference into a caller-provided output tensor with zero
    /// heap allocation on the single-chunk hot path.
    ///
    /// Kernel panics are contained; guard trips and panics in steps with
    /// a safer algorithm demote the step and re-run (bounded attempts).
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] — `input` or `out` does not match the
    ///   plan's compiled input/output shape.
    /// * [`Error::GuardTripped`] — a guard tripped and no demotion lever
    ///   applied (or attempts ran out).
    /// * [`Error::KernelPanicked`] — a kernel panicked (contained) and
    ///   no demotion lever applied.
    pub fn run_into(&mut self, input: &Tensor, out: &mut Tensor) -> Result<(), Error> {
        if input.shape().dims() != self.plan.input_shape {
            return Err(Error::ShapeMismatch {
                expected: self.plan.input_shape.clone(),
                actual: input.shape().dims().to_vec(),
            });
        }
        if out.shape().dims() != self.plan.output_shape {
            return Err(Error::ShapeMismatch {
                expected: self.plan.output_shape.clone(),
                actual: out.shape().dims().to_vec(),
            });
        }
        let run = self.invocations;
        self.invocations += 1;
        // Make the observer current for the whole run so kernel-level
        // instruments (GEMM, im2col) record without plumbing; each
        // spawned chunk installs it on its own thread.
        let _tls = self
            .obs
            .as_ref()
            .map(|w| cnn_stack_obs::install(w.observer.clone()));
        let run_ts = self.obs.as_ref().map(|w| w.observer.now_ns());
        let start = Instant::now();
        if self.guard.checks_parameters() {
            if let Some(report) = self.paranoid_precheck(input) {
                self.profile.health.guards_tripped += 1;
                self.obs_count(Metric::GuardTrips, 1);
                return Err(Error::GuardTripped(report));
            }
        }
        let mut attempt = 0;
        loop {
            attempt += 1;
            let failure = match self.execute_attempt(input, out, run) {
                Ok(()) => break,
                Err(f) => f,
            };
            match failure {
                RunFailure::Guard {
                    step,
                    chunk,
                    violation,
                } => {
                    self.profile.health.guards_tripped += 1;
                    self.obs_count(Metric::GuardTrips, 1);
                    let recovered = attempt < MAX_ATTEMPTS
                        && self.try_demote(step, DemotionReason::GuardTripped);
                    if !recovered {
                        return Err(Error::GuardTripped(GuardReport {
                            layer_index: step,
                            layer_name: self.plan.steps[step].name.clone(),
                            violation,
                            chunk,
                        }));
                    }
                }
                RunFailure::Panic { step, message } => {
                    self.profile.health.panics_contained += 1;
                    let recovered = attempt < MAX_ATTEMPTS
                        && self.try_demote(step, DemotionReason::KernelPanicked);
                    if !recovered {
                        return Err(Error::KernelPanicked {
                            layer: step,
                            name: self.plan.steps[step].name.clone(),
                            message,
                        });
                    }
                }
            }
        }
        self.profile.total_time += start.elapsed();
        self.profile.runs += 1;
        for (row, step) in self.profile.rows.iter_mut().zip(&self.plan.steps) {
            row.macs += step.macs;
            row.bytes += step.bytes;
        }
        if let Some(w) = &self.obs {
            w.observer.metrics().add(Metric::RunsCompleted, 1);
            if let Some(ts) = run_ts {
                let dur = w.observer.now_ns().saturating_sub(ts).max(1);
                w.observer.span(w.run_name, ts, dur, 0);
            }
        }
        Ok(())
    }

    /// Paranoid-mode pre-run scan of the input tensor and every
    /// parameter tensor, each in the form its kernel reads.
    fn paranoid_precheck(&mut self, input: &Tensor) -> Option<GuardReport> {
        self.obs_count(Metric::GuardScans, 1);
        if let Some((first_index, _, _)) = scan_non_finite(input.data()) {
            return Some(GuardReport {
                layer_index: 0,
                layer_name: "<input>".to_string(),
                violation: GuardViolation::NonFiniteInput { first_index },
                chunk: None,
            });
        }
        // Read-only and form by form: `params_mut` would drop the
        // plan-time forms, and `params` would rebuild dropped masters.
        for (i, layer) in self.net.layers().iter().enumerate() {
            let mut scanned = 0;
            let hit = layer.first_non_finite_param(&mut scanned);
            if let Some(w) = &self.obs {
                w.observer.metrics().add(Metric::GuardScans, scanned as u64);
            }
            if let Some((param, first_index)) = hit {
                return Some(GuardReport {
                    layer_index: i,
                    layer_name: layer.name(),
                    violation: GuardViolation::NonFiniteWeight { param, first_index },
                    chunk: None,
                });
            }
        }
        None
    }

    /// One pass over the pipeline: in-line when there is a single
    /// chunk; otherwise chunk 0 runs on the calling thread while chunks
    /// 1.. run on scoped threads, all joined before the pass returns.
    fn execute_attempt(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        run: u64,
    ) -> Result<(), RunFailure> {
        let layers: &[Box<dyn Layer>] = self.net.layers();
        let guard = self.guard;
        let faults: &FaultPlan = &self.faults;
        let obs: Option<&ObsWiring> = self.obs.as_ref();
        let failure = if let [chunk] = self.chunks.as_mut_slice() {
            run_steps(
                layers,
                chunk,
                None,
                input.data(),
                out.data_mut(),
                guard,
                faults,
                run,
                obs,
            )
            .err()
        } else {
            let n = self.plan.input_shape[0];
            let in_per_image = self.plan.steps[0].input_elems / n;
            let out_per_image = self.plan.steps.last().expect("non-empty plan").output_elems / n;
            let mut in_rest = input.data();
            let mut out_rest = out.data_mut();
            let mut jobs = self.chunks.iter_mut().enumerate().map(|(ci, chunk)| {
                let (in_c, rest) = in_rest.split_at(chunk.len * in_per_image);
                in_rest = rest;
                let (out_c, rest) =
                    std::mem::take(&mut out_rest).split_at_mut(chunk.len * out_per_image);
                out_rest = rest;
                move || {
                    run_steps(
                        layers,
                        chunk,
                        Some(ci),
                        in_c,
                        out_c,
                        guard,
                        faults,
                        run,
                        obs,
                    )
                    .err()
                }
            });
            let mut first = jobs.next().expect("a batch-parallel session has chunks");
            std::thread::scope(|scope| {
                let spawned: Vec<_> = jobs
                    .map(|mut job| {
                        scope.spawn(move || {
                            // Kernel instruments record into the current
                            // observer, which is thread-local.
                            let _tls = obs.map(|w| cnn_stack_obs::install(w.observer.clone()));
                            job()
                        })
                    })
                    .collect();
                // Several chunks can fail in one attempt; report the
                // earliest pipeline position (the first offender), the
                // lowest chunk among equals.
                spawned.into_iter().fold(first(), |prev, handle| {
                    let failure = handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    match (prev, failure) {
                        (Some(p), Some(f)) if f.step() < p.step() => Some(f),
                        (prev, failure) => prev.or(failure),
                    }
                })
            })
        };
        if let Some(f) = failure {
            return Err(f);
        }
        // Attribute per-layer time: chunks execute step i concurrently,
        // so the slowest chunk is the step's critical-path contribution.
        for (i, row) in self.profile.rows.iter_mut().enumerate() {
            let ns = self.chunks.iter().map(|c| c.step_ns[i]).max().unwrap_or(0);
            row.time += Duration::from_nanos(ns);
        }
        Ok(())
    }

    /// Moves `step` one edge down the kernel registry's demotion graph
    /// ([`AlgoChoice::demotes_to`]): resolves the kernel that *ran*,
    /// and puts the step on that row's safer neighbour. A composite
    /// step runs several kernels under one cfg: the first child whose
    /// row has an edge names it, every child on that row takes it, and
    /// the step cfg moves as a whole. Returns `false` when every kernel
    /// of the step sits on a floor row (the failure is not recoverable
    /// by demotion).
    fn try_demote(&mut self, step: usize, reason: DemotionReason) -> bool {
        if step >= self.plan.steps.len() {
            return false;
        }
        let li = self.plan.steps[step].layer;
        let layer = self.net.layers_mut()[li].as_mut();
        let ran = self.exec[step];
        let mut edge = None;
        layer.visit_mut(&mut |l| {
            edge = edge.or_else(|| {
                let from = AlgoChoice::of(l, &ran)?;
                Some((from, from.demotes_to()?))
            });
        });
        let Some((from, to)) = edge else {
            return false;
        };
        let cfg = &mut self.exec[step];
        layer.visit_mut(&mut |l| {
            if AlgoChoice::of(l, &ran) == Some(from) {
                to.apply(cfg, Weights::of_mut(l).expect("a row has weights"));
            }
        });
        self.obs_count(Metric::GuardDemotions, 1);
        self.profile.health.demotions.push(DemotionRecord {
            layer_index: step,
            layer_name: self.plan.steps[step].name.clone(),
            from,
            to,
            reason,
        });
        self.rebuild(step);
        true
    }

    /// Warms every layer for its step's current effective configuration
    /// (see [`Layer::prepare`]). Run at session build, after demotions,
    /// and after weight-fault injection, so the runs that follow build
    /// nothing. A sweep that freed a master returns the pages.
    fn reprepare(&mut self) {
        let layers = self.net.layers_mut();
        let mut freed = false;
        for (ps, cfg) in self.plan.steps.iter().zip(&self.exec) {
            layers[ps.layer].visit_mut(&mut |l| freed |= l.prepare(cfg));
        }
        if freed {
            crate::weights::release_freed_pages();
        }
    }

    /// Re-derives layer caches and chunk arenas after the demotion of
    /// `demoted_step` changed its algorithm or weight format. The
    /// rebuilt arena re-runs the liveness sizing; when the plan
    /// carries a memory budget and the demoted plan no longer fits
    /// (a demotion can *raise* workspace need — e.g. Winograd→im2col
    /// trades the transform's small workspace for a real im2col
    /// buffer), the overshoot is recorded as a [`BudgetBreachRecord`]
    /// health event: correctness wins over fit, since the demoted
    /// algorithm is the only safe one left.
    fn rebuild(&mut self, demoted_step: usize) {
        self.reprepare();
        self.chunks = build_chunks(&self.net, &self.plan, &self.exec);
        if let Some(budget) = self.plan.cfg().plan_budget {
            let peak = self.current_footprint_peak_bytes();
            if peak > budget {
                self.profile
                    .health
                    .budget_breaches
                    .push(BudgetBreachRecord {
                        layer_index: demoted_step,
                        layer_name: self.plan.steps[demoted_step].name.clone(),
                        budget_bytes: budget,
                        peak_bytes: peak,
                    });
            }
        }
        self.sync_obs();
    }

    /// Plan-level peak bytes re-derived from the *current* execution
    /// state (post-demotion configs), comparable to the compile-time
    /// number a budget admitted.
    fn current_footprint_peak_bytes(&self) -> usize {
        let layers = self.net.layers();
        let extents: Vec<StepExtent> = self
            .plan
            .steps
            .iter()
            .zip(&self.exec)
            .map(|(ps, cfg)| {
                let layer = layers[ps.layer].as_ref();
                step_extent(layer, &ps.input_shape, ps.output_elems, cfg)
            })
            .collect();
        MemoryFootprint::of(&extents).peak_bytes
    }
}

/// Allocation-free execution of every step over one chunk's arena — the
/// whole batch in-line (`chunk_idx == None`) or one batch-parallel
/// worker's share — timing each step, containing kernel panics, and
/// applying boundary guards.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    layers: &[Box<dyn Layer>],
    chunk: &mut ChunkArena,
    chunk_idx: Option<usize>,
    input: &[f32],
    out: &mut [f32],
    guard: GuardConfig,
    faults: &FaultPlan,
    run: u64,
    obs: Option<&ObsWiring>,
) -> Result<(), RunFailure> {
    // Span lane: 0 for the in-line run, 1 + chunk index for workers.
    let lane = chunk_idx.map_or(0, |ci| ci as u32 + 1);
    let last = chunk.steps.len() - 1;
    let ChunkArena {
        steps,
        arena,
        step_ns,
        ..
    } = chunk;
    // Arena offset of the previous step's output (the current source);
    // step 0 reads the caller's input instead.
    let mut prev_off = 0usize;
    for (i, step) in steps.iter().enumerate() {
        // Span start is taken before `started` so `ts + dur` never spills
        // past the next step's start (keeps the exported nesting exact).
        let obs_ts = obs.map(|w| w.observer.now_ns());
        let started = Instant::now();
        let (src_a, dst_a, ws_slice) = arena_views(
            arena,
            (i > 0).then_some((prev_off, step.input_elems)),
            (i != last).then_some((step.dst_off, step.output_elems)),
            (step.ws_off, step.ws_len),
        );
        let src_slice: &[f32] = match src_a {
            Some(s) => s,
            None => &input[..step.input_elems],
        };
        let dst_slice: &mut [f32] = match dst_a {
            Some(d) => d,
            None => &mut out[..],
        };
        let layer = &layers[step.layer];
        let kernel = catch_unwind(AssertUnwindSafe(|| {
            faults.kernel_entry(i, run);
            layer.forward_into(src_slice, &step.input_shape, dst_slice, ws_slice, &step.cfg);
        }));
        if let Err(payload) = kernel {
            return Err(RunFailure::Panic {
                step: i,
                message: panic_message(payload),
            });
        }
        faults.corrupt_output(i, run, chunk_idx.unwrap_or(0), dst_slice);
        if guard.checks_boundaries() {
            if let Some(w) = obs {
                w.observer.metrics().add(Metric::GuardScans, 1);
            }
            if let Some((first_index, kind, count)) = scan_non_finite(dst_slice) {
                return Err(RunFailure::Guard {
                    step: i,
                    chunk: chunk_idx,
                    violation: GuardViolation::NonFiniteActivation {
                        kind,
                        first_index,
                        count,
                    },
                });
            }
        }
        let ns = started.elapsed().as_nanos() as u64;
        step_ns[i] = ns;
        if let Some(w) = obs {
            let m = w.observer.metrics();
            m.add(Metric::StepsExecuted, 1);
            m.observe(Metric::StepNs, ns);
            w.observer
                .span(w.step_names[i], obs_ts.unwrap_or(0), ns.max(1), lane);
        }
        prev_off = step.dst_off;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvAlgorithm, Phase, WeightFormat};
    use crate::network::set_network_format;
    use crate::{Conv2d, Flatten, Linear, MaxPool2d, ReLU, ResidualBlock};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    fn conv_net() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, 1)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(6, 4, 3, 1, 1, 2)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 4 * 4, 5, 3)),
        ])
        .unwrap()
    }

    fn resblock_net() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, 4)),
            Box::new(ResidualBlock::new(8, 16, 2, 5)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(16 * 4 * 4, 3, 6)),
        ])
        .unwrap()
    }

    /// Identity-shaped descriptor shared by the test layers below.
    fn identity_descriptor(name: &str, input_shape: &[usize]) -> crate::LayerDescriptor {
        let elems: usize = input_shape.iter().product();
        crate::LayerDescriptor {
            name: name.to_string(),
            kind: crate::descriptor::LayerKind::Activation,
            macs: 0,
            weight_elems: 0,
            weight_nnz: 0,
            format: WeightFormat::Dense,
            input_elems: elems,
            output_elems: elems,
            output_shape: input_shape.to_vec(),
            scratch_elems: 0,
            parallel_grains: 1,
        }
    }

    /// Test-only layer that writes a NaN into one output element on
    /// every pass, otherwise copying its input through.
    #[derive(Debug)]
    struct NanLayer;

    impl Layer for NanLayer {
        fn name(&self) -> String {
            "nan-layer".to_string()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }

        fn descriptor(&self, input_shape: &[usize]) -> crate::LayerDescriptor {
            identity_descriptor(&self.name(), input_shape)
        }

        fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
            f(self);
        }

        fn replica(&self) -> Box<dyn Layer> {
            Box::new(NanLayer)
        }

        fn forward_into(
            &self,
            input: &[f32],
            _input_shape: &[usize],
            out: &mut [f32],
            _scratch: &mut [f32],
            _cfg: &ExecConfig,
        ) {
            out.copy_from_slice(input);
            out[0] = f32::NAN;
        }
    }

    /// Test-only layer that panics for the first `panics` passes, then
    /// behaves as identity.
    #[derive(Debug)]
    struct FlakyLayer {
        remaining: std::sync::atomic::AtomicUsize,
    }

    impl FlakyLayer {
        fn new(panics: usize) -> Self {
            FlakyLayer {
                remaining: std::sync::atomic::AtomicUsize::new(panics),
            }
        }

        fn should_panic(&self) -> bool {
            self.remaining
                .fetch_update(
                    std::sync::atomic::Ordering::AcqRel,
                    std::sync::atomic::Ordering::Acquire,
                    |v| v.checked_sub(1),
                )
                .is_ok()
        }
    }

    impl Layer for FlakyLayer {
        fn name(&self) -> String {
            "flaky-layer".to_string()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }

        fn descriptor(&self, input_shape: &[usize]) -> crate::LayerDescriptor {
            identity_descriptor(&self.name(), input_shape)
        }

        fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
            f(self);
        }

        fn replica(&self) -> Box<dyn Layer> {
            let remaining = self.remaining.load(std::sync::atomic::Ordering::Acquire);
            Box::new(FlakyLayer::new(remaining))
        }

        fn forward_into(
            &self,
            input: &[f32],
            _input_shape: &[usize],
            out: &mut [f32],
            _scratch: &mut [f32],
            _cfg: &ExecConfig,
        ) {
            if self.should_panic() {
                panic!("flaky layer failure");
            }
            out.copy_from_slice(input);
        }
    }

    /// The largest per-step value of `field` in `plan`.
    fn largest(plan: &InferencePlan, field: fn(&PlanStep) -> usize) -> usize {
        plan.steps().iter().map(field).max().unwrap_or(0)
    }

    #[test]
    fn plan_walks_shapes_and_sizes_arena() {
        let net = conv_net();
        let cfg = ExecConfig::serial();
        let plan = InferencePlan::compile(&net, &[2, 3, 8, 8], &cfg).unwrap();
        assert_eq!(plan.steps().len(), 7);
        assert_eq!(plan.output_shape(), &[2, 5]);
        assert_eq!(plan.steps()[0].output_shape, vec![2, 6, 8, 8]);
        // Largest activation: the first conv output, 2*6*8*8.
        assert_eq!(largest(&plan, |s| s.output_elems), 2 * 6 * 8 * 8);
        // Direct convolutions need no scratch, but the final Linear layer
        // runs the packed GEMM `Outᵀ = W · Xᵀ` and needs room for its
        // activation panels and its `[out × batch]` product.
        let linear_plan = cnn_stack_tensor::GemmPlan::new(5, 4 * 4 * 4, 2);
        assert_eq!(
            largest(&plan, |s| s.workspace_elems),
            linear_plan.packed_b_elems() + 5 * 2
        );
        // With the blocked GEMM everything is scratch-free.
        let blocked = ExecConfig {
            gemm_algo: cnn_stack_tensor::GemmAlgorithm::Blocked,
            ..ExecConfig::serial()
        };
        let plan = InferencePlan::compile(&net, &[2, 3, 8, 8], &blocked).unwrap();
        assert_eq!(largest(&plan, |s| s.workspace_elems), 0);
    }

    #[test]
    fn plan_rejects_bad_inputs() {
        let net = conv_net();
        assert!(matches!(
            InferencePlan::compile(&net, &[], &ExecConfig::serial()),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            InferencePlan::compile(&net, &[0, 3, 8, 8], &ExecConfig::serial()),
            Err(Error::InvalidConfig(_))
        ));
        let zero_threads = ExecConfig {
            threads: 0,
            ..ExecConfig::serial()
        };
        assert!(matches!(
            InferencePlan::compile(&net, &[1, 3, 8, 8], &zero_threads),
            Err(Error::InvalidConfig(_))
        ));
        // Wrong-rank inputs error instead of panicking inside a layer's
        // descriptor indexing.
        assert!(matches!(
            InferencePlan::compile(&net, &[3, 8, 8], &ExecConfig::serial()),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn plan_im2col_sizes_scratch() {
        let mut net = conv_net();
        // CSR rows times columns: scratch is the materialised im2col
        // matrix of one image.
        set_network_format(&mut net, WeightFormat::Csr);
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        let plan = InferencePlan::compile(&net, &[1, 3, 8, 8], &cfg).unwrap();
        // First conv: patch 3*3*3=27, 64 positions -> 1728 floats.
        assert_eq!(largest(&plan, |s| s.workspace_elems), 27 * 64);
        set_network_format(&mut net, WeightFormat::Dense);
        // Packed GEMM: scratch is the packed activation panels instead
        // (the weight panels live with the layer); the im2col matrix is
        // never materialised.
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        let plan = InferencePlan::compile(&net, &[1, 3, 8, 8], &cfg).unwrap();
        // First conv dominates: its B operand is the 27x64 columns.
        let conv_plan = cnn_stack_tensor::GemmPlan::new(6, 27, 64);
        assert_eq!(
            largest(&plan, |s| s.workspace_elems),
            conv_plan.packed_b_elems()
        );
    }

    #[test]
    fn session_bit_matches_forward_across_configs() {
        let x = random([3, 3, 8, 8], 7);
        for algo in [ConvAlgorithm::Direct, ConvAlgorithm::Im2col] {
            for format in [WeightFormat::Dense, WeightFormat::Csr] {
                for threads in [1, 4] {
                    let mut net = conv_net();
                    set_network_format(&mut net, format);
                    let cfg = ExecConfig {
                        threads,
                        conv_algo: algo,
                        ..ExecConfig::serial()
                    };
                    let expected = net.forward(&x, Phase::Eval, &cfg);
                    let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
                    let mut session = InferenceSession::new(&mut net, plan).unwrap();
                    let got = session.run(&x).unwrap();
                    assert_eq!(
                        got.data(),
                        expected.data(),
                        "mismatch for {algo:?}/{format:?}/{threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn session_bit_matches_forward_with_residual_blocks() {
        let x = random([2, 3, 8, 8], 9);
        for threads in [1, 3] {
            let mut net = resblock_net();
            let cfg = ExecConfig {
                threads,
                ..ExecConfig::serial()
            };
            let expected = net.forward(&x, Phase::Eval, &cfg);
            let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
            let mut session = InferenceSession::new(&mut net, plan).unwrap();
            let got = session.run(&x).unwrap();
            assert_eq!(got.data(), expected.data(), "threads={threads}");
        }
    }

    /// Chunks on scoped threads compute what one chunk does, to the
    /// bit, NaN and ±Inf payloads included: the batch-parallel session
    /// at 2–4 threads (chunk 0 in-line, the rest spawned) against a
    /// budgeted session at the same thread count (one chunk, the
    /// threads inside its kernels) and the serial session.
    #[test]
    fn chunked_sessions_bit_match_one_chunk_on_non_finite_inputs() {
        let mut x = random([5, 3, 8, 8], 47);
        let per_image = 3 * 8 * 8;
        for (image, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            x.data_mut()[2 * image * per_image + 17] = v;
        }
        let bits = |cfg: ExecConfig, chunks: usize| {
            let mut net = resblock_net();
            let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
            let mut session = InferenceSession::new(&mut net, plan).unwrap();
            assert_eq!(session.chunks.len(), chunks);
            let y = session.run(&x).unwrap();
            y.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let serial = bits(ExecConfig::serial(), 1);
        for threads in 2..=4 {
            let cfg = ExecConfig::with_threads(threads);
            let budgeted = ExecConfig {
                plan_budget: Some(usize::MAX),
                ..cfg
            };
            assert_eq!(bits(cfg, threads), serial, "{threads} chunks");
            assert_eq!(bits(budgeted, 1), serial, "one chunk, {threads} threads");
        }
    }

    /// F(2×2) is an arena kernel like any other: its workspace is
    /// planned, the session splits the batch across chunks, and the
    /// output bit-matches `forward` (which wraps the same kernel).
    #[test]
    fn winograd_session_is_chunked_and_bit_matches_forward() {
        let x = random([3, 3, 8, 8], 11);
        for threads in [1, 2, 4] {
            let mut net = conv_net();
            let cfg = ExecConfig {
                threads,
                conv_algo: ConvAlgorithm::Winograd,
                ..ExecConfig::serial()
            };
            let expected = net.forward(&x, Phase::Eval, &cfg);
            let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
            let wino = cnn_stack_tensor::WinogradGeometry::new(
                cnn_stack_tensor::WinogradTile::F2,
                (3, 3, 8, 8),
                6,
                1,
            );
            assert_eq!(
                plan.steps()[0].workspace_elems,
                wino.unwrap().scratch_elems()
            );
            let mut session = InferenceSession::new(&mut net, plan).unwrap();
            assert_eq!(session.chunks.len(), threads.min(3));
            let got = session.run(&x).unwrap();
            assert_eq!(got.data(), expected.data(), "threads={threads}");
        }
    }

    #[test]
    fn run_rejects_mismatched_shapes() {
        let mut net = conv_net();
        let plan = InferencePlan::compile(&net, &[2, 3, 8, 8], &ExecConfig::serial()).unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        assert!(matches!(
            session.run(&Tensor::zeros([1, 3, 8, 8])),
            Err(Error::ShapeMismatch { .. })
        ));
        let mut wrong_out = Tensor::zeros([2, 4]);
        assert!(matches!(
            session.run_into(&Tensor::zeros([2, 3, 8, 8]), &mut wrong_out),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn session_rejects_plan_for_other_network() {
        let net = conv_net();
        let plan = InferencePlan::compile(&net, &[1, 3, 8, 8], &ExecConfig::serial()).unwrap();
        let mut other = resblock_net();
        assert!(matches!(
            InferenceSession::new(&mut other, plan),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn profile_accumulates_across_runs() {
        let mut net = conv_net();
        let x = random([1, 3, 8, 8], 13);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &ExecConfig::serial()).unwrap();
        let step_macs: Vec<u64> = plan.steps().iter().map(|s| s.macs).collect();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        session.run(&x).unwrap();
        session.run(&x).unwrap();
        let profile = session.profile();
        assert_eq!(profile.runs(), 2);
        assert_eq!(profile.rows().len(), 7);
        for (row, macs) in profile.rows().iter().zip(step_macs) {
            assert_eq!(row.macs, 2 * macs);
            assert!(row.bytes > 0);
        }
        assert_eq!(profile.mean_layer_times().len(), 7);
        session.reset_profile();
        assert_eq!(session.profile().runs(), 0);
        assert_eq!(session.profile().rows()[0].macs, 0);
    }

    #[test]
    fn run_into_reuses_caller_output() {
        let mut net = conv_net();
        let x = random([2, 3, 8, 8], 17);
        let cfg = ExecConfig::serial();
        let expected = net.forward(&x, Phase::Eval, &cfg);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        let mut out = Tensor::from_vec([2, 5], vec![f32::NAN; 10]);
        session.run_into(&x, &mut out).unwrap();
        assert_eq!(out.data(), expected.data());
    }

    #[test]
    fn guard_off_is_bitwise_identical_to_unguarded() {
        let x = random([2, 3, 8, 8], 19);
        let cfg = ExecConfig::serial();
        let mut net = conv_net();
        let expected = {
            let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
            let mut session = InferenceSession::new(&mut net, plan).unwrap();
            session.run(&x).unwrap()
        };
        let mut net = conv_net();
        let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
        let got = session.run(&x).unwrap();
        assert_eq!(got.data(), expected.data());
        assert!(session.health().is_clean());
    }

    /// Boundary-check mode names the first offending layer, even though
    /// a later ReLU would silently flush the NaN back to a finite value
    /// (`f32::max(NaN, 0.0)` is 0.0).
    #[test]
    fn boundary_check_reports_first_offending_layer() {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, 0)),
            Box::new(NanLayer),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
        ])
        .unwrap();
        let x = random([1, 3, 8, 8], 23);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &ExecConfig::serial()).unwrap();
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
        let err = session.run(&x).expect_err("NaN must trip the guard");
        match err {
            Error::GuardTripped(report) => {
                assert_eq!(report.layer_index, 1, "first offender is the NaN layer");
                assert_eq!(report.layer_name, "nan-layer");
                assert!(matches!(
                    report.violation,
                    GuardViolation::NonFiniteActivation {
                        kind: crate::guard::NonFiniteKind::Nan,
                        first_index: 0,
                        ..
                    }
                ));
            }
            other => panic!("expected GuardTripped, got {other:?}"),
        }
        assert_eq!(session.health().guards_tripped, 1);
        // With guards off the same session semantics let the NaN pass
        // (and the ReLU flushes it): the run succeeds.
        session.set_guard(GuardConfig::Off);
        session.run(&x).expect("guards off: no boundary checks");
    }

    /// A kernel panic in a step with no safer algorithm is contained:
    /// the process stays alive, the error names the layer, and the same
    /// session keeps working once the layer recovers.
    #[test]
    fn kernel_panic_is_contained_and_session_stays_usable() {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, 0)),
            Box::new(FlakyLayer::new(MAX_ATTEMPTS as usize)),
            Box::new(Flatten::new()),
        ])
        .unwrap();
        let x = random([1, 3, 8, 8], 29);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &ExecConfig::serial()).unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        let err = session.run(&x).expect_err("panicking layer must error");
        match err {
            Error::KernelPanicked {
                layer,
                name,
                message,
            } => {
                assert_eq!(layer, 1);
                assert_eq!(name, "flaky-layer");
                assert!(message.contains("flaky layer failure"));
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
        assert_eq!(session.health().panics_contained, 1);
        // The injected panic budget is spent after MAX_ATTEMPTS panics;
        // from the second call on, the session runs clean.
        while session.run(&x).is_err() {}
        session.run(&x).expect("recovered layer runs clean");
    }

    /// Paranoid mode catches a non-finite weight before any kernel runs.
    #[test]
    fn paranoid_mode_flags_non_finite_weights() {
        let mut net = conv_net();
        // Poison one weight of the second conv (top-level layer 3).
        if let Some(conv) = net.layers_mut()[3].as_any_mut().downcast_mut::<Conv2d>() {
            conv.weight_mut().value.data_mut()[5] = f32::INFINITY;
        } else {
            panic!("layer 3 is the second conv");
        }
        let x = random([1, 3, 8, 8], 31);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &ExecConfig::serial()).unwrap();
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::Paranoid).unwrap();
        let err = session.run(&x).expect_err("poisoned weight must trip");
        match err {
            Error::GuardTripped(report) => {
                assert_eq!(report.layer_index, 3);
                assert!(matches!(
                    report.violation,
                    GuardViolation::NonFiniteWeight { first_index: 5, .. }
                ));
            }
            other => panic!("expected GuardTripped, got {other:?}"),
        }
        // And a NaN input trips before the weights are even scanned.
        let mut bad = x.clone();
        bad.data_mut()[0] = f32::NAN;
        match session.run(&bad) {
            Err(Error::GuardTripped(report)) => {
                assert!(matches!(
                    report.violation,
                    GuardViolation::NonFiniteInput { first_index: 0 }
                ));
                assert_eq!(report.layer_name, "<input>");
            }
            other => panic!("expected GuardTripped on input, got {other:?}"),
        }
    }

    #[test]
    fn observer_absent_unless_requested() {
        let mut net = conv_net();
        let plan = InferencePlan::compile(&net, &[1, 3, 8, 8], &ExecConfig::serial()).unwrap();
        let session = InferenceSession::new(&mut net, plan).unwrap();
        assert!(session.observer().is_none());
    }

    #[test]
    fn observer_records_run_metrics_and_step_spans() {
        use cnn_stack_obs::ObsLevel;
        let mut net = conv_net();
        let cfg = ExecConfig {
            observer: ObsLevel::Trace,
            ..ExecConfig::serial()
        };
        let x = random([1, 3, 8, 8], 37);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
        let steps = plan.steps().len() as u64;
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        session.run(&x).unwrap();
        session.run(&x).unwrap();
        let obs = session
            .observer()
            .expect("trace level installs an observer");
        let m = obs.metrics();
        assert_eq!(m.counter(Metric::RunsCompleted), 2);
        assert_eq!(m.counter(Metric::StepsExecuted), 2 * steps);
        assert!(m.counter(Metric::GemmCalls) > 0);
        assert!(m.gauge(Metric::ArenaBytes) > 0);
        // One span per step plus one run span, per run.
        let events = obs.events();
        assert_eq!(events.len() as u64, 2 * (steps + 1));
        let names = obs.names();
        assert!(names.iter().any(|n| n == "run"));
        assert!(names.iter().any(|n| n.contains("[span 1]")));
        // Metrics level counts but records no events.
        let mut net = conv_net();
        let cfg = ExecConfig {
            observer: ObsLevel::Metrics,
            ..ExecConfig::serial()
        };
        let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        session.run(&x).unwrap();
        let obs = session.observer().unwrap();
        assert_eq!(obs.metrics().counter(Metric::RunsCompleted), 1);
        assert!(obs.events().is_empty());
    }

    #[test]
    fn observer_counts_every_chunks_boundary_scans_and_steps() {
        use cnn_stack_obs::ObsLevel;
        let mut net = conv_net();
        let cfg = ExecConfig {
            observer: ObsLevel::Metrics,
            ..ExecConfig::with_threads(2)
        };
        let x = random([4, 3, 8, 8], 41);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
        let steps = plan.steps().len() as u64;
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
        session.run(&x).unwrap();
        let m = session.observer().unwrap().metrics();
        // Two chunks, each executing and scanning every step boundary.
        assert_eq!(session.chunks.len(), 2);
        assert_eq!(m.counter(Metric::GuardScans), 2 * steps);
        assert_eq!(m.counter(Metric::StepsExecuted), 2 * steps);
        assert_eq!(m.counter(Metric::GuardTrips), 0);
    }

    /// Packed-GEMM config for the panel-sharing tests (serial `Direct`
    /// convs have no panel cache to share).
    fn packed_cfg() -> ExecConfig {
        ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        }
    }

    /// Builds an owned session over `net` under `packed_cfg`.
    fn owned_session(net: Network, shape: &[usize]) -> InferenceSession<'static> {
        let plan = InferencePlan::compile(&net, shape, &packed_cfg()).unwrap();
        InferenceSession::owned(net, plan, GuardConfig::Off).unwrap()
    }

    /// An owned session has no borrowed lifetime; a session over a
    /// replica of its network reads the very same master and panel
    /// buffers (packing nothing), computes the same bits, and gives the
    /// network back via `into_network`.
    #[test]
    fn owned_sessions_share_storage_across_replicas() {
        let shape = [2usize, 3, 8, 8];
        let x = random(shape, 7);

        let mut source = owned_session(conv_net(), &shape);
        let storage = source.network().weight_storage();
        // conv_net has two convs + one linear, each with packed panels.
        assert_eq!(storage.len(), 3);
        assert!(storage.iter().all(|s| s.forms[1].is_some()));
        let y_source = source.run(&x).unwrap();

        let mut replica = owned_session(source.network().replica(), &shape);
        assert_eq!(replica.network().weight_storage(), storage);
        let y_replica = replica.run(&x).unwrap();
        assert_eq!(y_source.data(), y_replica.data());
        assert!(replica.into_network().is_some());
    }

    /// The half-invalidation regression (ISSUE 6 satellite), on
    /// replicas: weight surgery on one network copies and re-derives
    /// only that network's touched layer — a peer session keeps the
    /// original master and a complete, consistent prepack, its outputs
    /// stay bit-identical, and the untouched layers stay shared.
    #[test]
    fn shared_storage_survives_peer_weight_surgery() {
        let shape = [2usize, 3, 8, 8];
        let x = random(shape, 11);

        let source = owned_session(conv_net(), &shape);
        let mut replica = owned_session(source.network().replica(), &shape);
        let storage = replica.network().weight_storage();
        let before = replica.run(&x).unwrap();

        // Surgery on the source's network: zero the first conv's weights.
        let mut net = source.into_network().unwrap();
        net.layers_mut()[0]
            .as_any_mut()
            .downcast_mut::<Conv2d>()
            .unwrap()
            .weight_mut()
            .value
            .fill(0.0);
        let mut source = owned_session(net, &shape);
        let y_mutated = source.run(&x).unwrap();
        assert_ne!(y_mutated.data(), before.data());

        // The replica still holds the original buffers and is unaffected.
        assert_eq!(replica.network().weight_storage(), storage);
        let after = replica.run(&x).unwrap();
        for (a, b) in before.data().iter().zip(after.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let touched = source.network().weight_storage();
        // Both sessions hold their panels alone: the write re-packed, and
        // the master it rebuilt went again.
        assert_eq!((touched[0].master, storage[0].master), (None, None));
        assert_ne!(touched[0].forms, storage[0].forms);
        assert_eq!(touched[1..], storage[1..]);
    }

    /// Batch-parallel runs used to advance only the profile total; the
    /// per-step chunk timings now attribute each row's critical path.
    #[test]
    fn parallel_runs_attribute_per_layer_time() {
        let mut net = conv_net();
        let cfg = ExecConfig::with_threads(2);
        let x = random([4, 3, 8, 8], 43);
        let plan = InferencePlan::compile(&net, x.shape().dims(), &cfg).unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        session.run(&x).unwrap();
        let profile = session.profile();
        assert_eq!(profile.runs(), 1);
        for row in profile.rows() {
            assert!(
                row.time > Duration::ZERO,
                "step {:?} got no time attributed under batch parallelism",
                row.name
            );
        }
    }
}
