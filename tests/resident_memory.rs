//! Resident weight memory, counted by the allocator: a served TTQ model
//! holds one physical form of its weights — the 2-bit codes — and not
//! the dense master beside them, and a rung compiled on a replica of a
//! prepared network rebuilds no master.
//!
//! The counting `#[global_allocator]` tracks the live bytes of the whole
//! process, which is why these tests live in their own test binary and
//! take turns.

use cnn_stack::models::ModelKind;
use cnn_stack::nn::{
    AlgoChoice, Conv2d, ConvAlgorithm, ExecConfig, GuardConfig, InferencePlan, InferenceSession,
    Linear, Network, PlanCompiler, WeightFormat,
};
use cnn_stack::serve::{ServeConfig, Server};
use cnn_stack::stack::{try_materialise, CompressionChoice, PlatformChoice, StackConfig};
use cnn_stack::tensor::GemmPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// System allocator wrapper that keeps the process's live heap bytes
/// and counts allocations whose size is on the watch list.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocation sizes to watch for (0 = empty slot), and the hits.
static WATCH: [AtomicUsize; 32] = [const { AtomicUsize::new(0) }; 32];
static WATCHED: AtomicUsize = AtomicUsize::new(0);

fn allocated(size: usize) {
    LIVE.fetch_add(size, Relaxed);
    if WATCH.iter().any(|w| w.load(Relaxed) == size) {
        WATCHED.fetch_add(1, Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counters
// are atomics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            allocated(new_size);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The live-byte count is process-wide: one test measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The served workload's model: TTQ VGG-16 at width 0.5, `Ternary`.
fn ttq_vgg16() -> Network {
    let stack = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7)
        .compress(CompressionChoice::TernaryQuantisation { threshold: 0.09 })
        .format(WeightFormat::Ternary);
    try_materialise(&stack, 0.5)
        .expect("the served operating point is valid")
        .network
}

/// What the server compiles its rungs against ([`ServeConfig`]'s
/// engine configuration).
fn serve_exec(cfg: &ServeConfig) -> ExecConfig {
    ExecConfig {
        threads: cfg.threads(),
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    }
}

/// The ladder's batch sizes: 1, 4, 16, … capped at `max_batch`.
fn ladder(max_batch: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = std::iter::successors(Some(1), |s| Some(s * 4))
        .take_while(|&s| s < max_batch)
        .collect();
    sizes.push(max_batch);
    sizes
}

/// Matrix extents (rows, columns) of every conv and linear layer the
/// plan runs, with the row it runs, from stored extents: no master is
/// read.
fn weight_layers(net: &Network, plan: &InferencePlan) -> Vec<(usize, usize, AlgoChoice)> {
    let mut out = Vec::new();
    for step in plan.steps() {
        let any = net.layers()[step.layer].as_any();
        if let Some(c) = any.downcast_ref::<Conv2d>() {
            let cols = c.in_channels() * c.kernel() * c.kernel();
            out.push((c.out_channels(), cols, c.runs(&step.cfg)));
        } else if let Some(fc) = any.downcast_ref::<Linear>() {
            out.push((fc.out_features(), fc.in_features(), fc.runs(&step.cfg)));
        }
    }
    out
}

/// Bytes the served model may hold once started: per weight layer its
/// 2-bit codes (every layer runs them) and its pruning mask, every other
/// parameter (the folded biases), and per rung one session arena.
fn resident_bound(cfg: &ServeConfig) -> usize {
    let exec = serve_exec(cfg);
    let mut net = ttq_vgg16();
    let shape = |batch| [batch, 3, 32, 32];
    let plan = PlanCompiler::standard()
        .run(&mut net, &shape(1), &exec)
        .expect("rung 1 compiles");
    let layers = weight_layers(&net, &plan);
    let mut codes = 0;
    for &(rows, cols, row) in &layers {
        assert!(matches!(
            row,
            AlgoChoice::TernaryConv | AlgoChoice::TernaryLinear
        ));
        codes += GemmPlan::new(rows, cols, 1).packed_a_code_words() * 4;
    }
    let weights: usize = layers.iter().map(|&(rows, cols, _)| rows * cols).sum();
    let others = (net.num_params() - weights) * 4;
    let params = net.params();
    let masks: usize = params
        .iter()
        .filter_map(|p| Some(p.mask.as_ref()?.bytes()))
        .sum();
    let mut arenas = 0;
    for batch in ladder(cfg.max_batch()) {
        let mut rung = net.replica();
        let plan = PlanCompiler::standard()
            .run(&mut rung, &shape(batch), &exec)
            .expect("every rung compiles");
        let session = InferenceSession::owned(rung, plan, cfg.guard()).expect("plan fits");
        arenas += session.arena_bytes();
    }
    codes + masks + others + arenas
}

/// A started TTQ VGG-16 server holds its codes, masks, biases and arenas
/// and at most 1 MiB beside them: no f32 master, no f32 panels.
#[test]
fn a_served_ttq_model_holds_its_codes_and_no_master() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServeConfig::builder([3usize, 32, 32])
        .build()
        .expect("the builder's defaults are valid");
    let bound = resident_bound(&cfg);
    let before = LIVE.load(Relaxed);
    let server = Server::start(cfg, ttq_vgg16).expect("the served model compiles");
    let held = LIVE.load(Relaxed).saturating_sub(before);
    server.shutdown();
    let master = 4 * ttq_vgg16().num_params();
    assert!(
        held <= bound + (1 << 20),
        "a started server holds {held} B, over its {bound} B of codes, masks, biases and \
         arenas by more than 1 MiB (the f32 parameters alone are {master} B)"
    );
}

/// A rung compiled on a replica of a prepared network finds its forms
/// built: no master is rebuilt for it, so no master-sized buffer is
/// allocated.
#[test]
fn a_replicas_compile_rebuilds_no_master() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServeConfig::builder([3usize, 32, 32])
        .build()
        .expect("the builder's defaults are valid");
    let exec = serve_exec(&cfg);
    let mut net = ttq_vgg16();
    let plan = PlanCompiler::standard()
        .run(&mut net, &[1, 3, 32, 32], &exec)
        .expect("rung 1 compiles");
    let masters = weight_layers(&net, &plan);
    let session = InferenceSession::owned(net, plan, cfg.guard()).expect("plan fits");
    let prepared = session.into_network().expect("owned");
    assert!(masters.len() <= WATCH.len());
    for (slot, &(rows, cols, _)) in WATCH.iter().zip(&masters) {
        slot.store(rows * cols * 4, Relaxed);
    }
    WATCHED.store(0, Relaxed);
    let mut replica = prepared.replica();
    let plan = PlanCompiler::standard()
        .run(&mut replica, &[4, 3, 32, 32], &exec)
        .expect("rung 2 compiles");
    let session = InferenceSession::owned(replica, plan, GuardConfig::BoundaryCheck);
    let hits = WATCHED.load(Relaxed);
    WATCH.iter().for_each(|w| w.store(0, Relaxed));
    assert!(session.is_ok());
    assert_eq!(
        hits, 0,
        "the replica's compile allocated {hits} master-sized buffers"
    );
}
