//! Integration tests for the arena-backed inference engine: the
//! zero-allocation steady state, profile/descriptor alignment, and
//! bit-exact agreement with `Network::forward` on the paper's models.
//!
//! The allocation test needs a counting `#[global_allocator]`, which
//! applies to the whole test binary — that is why these tests live in
//! their own integration-test file.

use cnn_stack::models::ModelKind;
use cnn_stack::nn::network::set_network_format;
use cnn_stack::nn::{
    Conv2d, ConvAlgorithm, Error, ExecConfig, Flatten, GuardConfig, InferencePlan,
    InferenceSession, Layer, Linear, MaxPool2d, Network, Phase, PlanCompiler, PlanError, ReLU,
    WeightFormat,
};
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts the allocations of whichever
/// thread has armed it. The harness runs this file's tests on parallel
/// threads, so a process-wide count would charge the sibling tests'
/// allocations to the measured window.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread is measuring. Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// never allocates or registers a TLS dtor.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

// SAFETY: defers every operation to `System` unchanged; the counter is
// thread-local and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread that is being torn down no longer counts.
        let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes while running `f`.
fn allocations_during(mut f: impl FnMut()) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    f();
    COUNTED
        .with(|c| c.replace(None))
        .expect("armed on this thread above")
}

/// The headline acceptance criterion: after the plan is compiled and one
/// warm-up pass has sized the arena, a VGG-16 batch-4 inference performs
/// zero heap allocations.
#[test]
fn vgg16_batch4_steady_state_makes_no_heap_allocations() {
    let mut model = ModelKind::Vgg16.build_width(10, 0.25);
    let cfg = ExecConfig::serial();
    let input = Tensor::zeros([4, 3, 32, 32]);
    let plan = InferencePlan::compile(&model.network, input.shape().dims(), &cfg)
        .expect("VGG-16 accepts CIFAR-shaped input");
    let mut session =
        InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    session
        .run_into(&input, &mut out)
        .expect("shape matches plan");

    let allocs = allocations_during(|| {
        session
            .run_into(&input, &mut out)
            .expect("shape matches plan")
    });
    assert_eq!(
        allocs, 0,
        "steady-state session pass performed {allocs} heap allocations"
    );
}

/// The packed GEMM streams B panels and merged-C rows out of the arena
/// with 64-byte loads; that they never straddle a cache line rests on
/// every slice a step is handed starting on one. The arena is
/// line-aligned and the layout places whole lines, whatever the model,
/// batch or thread split.
#[test]
fn every_arena_slice_starts_on_a_cache_line() {
    for (kind, batch, threads) in [
        (ModelKind::Vgg16, 8, 1),
        (ModelKind::MobileNet, 1, 1),
        (ModelKind::MobileNet, 3, 2),
    ] {
        let mut model = kind.build_width(10, 0.25);
        let cfg = ExecConfig {
            threads,
            ..ExecConfig::serial()
        };
        let input = Tensor::from_fn([batch, 3, 32, 32], |i| ((i * 7 % 13) as f32) * 0.1 - 0.6);
        let plan = model
            .compile_plan(batch, &cfg, &PlanCompiler::standard())
            .expect("paper models compile at CIFAR shape");
        let peak = plan.footprint().peak_bytes;
        let mut session =
            InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
        let what = format!("{kind:?} batch {batch}, {threads} thread(s)");
        assert_eq!(session.arena_bytes() % 64, 0, "{what}");
        if threads == 1 {
            assert!(
                session.arena_bytes() <= peak,
                "{what}: arena above the plan's peak"
            );
        }
        // The test profile keeps `debug_assert!`s: the engine checks
        // every `src` / `dst` / `ws` view it hands a step, so a run is
        // the assertion.
        let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
        session.run_into(&input, &mut out).expect("clean run");
    }
}

/// The memory planner's promise, checked end to end on one network and
/// budget: the budgeted compile either fits or names a floor that is
/// itself compilable; the plan that comes out predicts a peak inside
/// the budget; the serial session allocates no more arena than that
/// peak; and a steady-state run allocates nothing outside the arena.
/// Returns the budget the plan was admitted under.
fn assert_budgeted_plan_runs_inside_its_arena(
    build: impl Fn() -> Network,
    shape: &[usize],
    budget: usize,
) -> usize {
    let compile = |budget: usize| {
        let mut net = build();
        let cfg = ExecConfig::builder()
            .plan_budget(budget)
            .build()
            .expect("valid config");
        PlanCompiler::standard()
            .run(&mut net, shape, &cfg)
            .map(|plan| (net, plan))
    };
    let (admitted, (mut net, plan)) = match compile(budget) {
        Ok(compiled) => (budget, compiled),
        Err(Error::Plan(PlanError::BudgetInfeasible {
            min_feasible_bytes, ..
        })) => (
            min_feasible_bytes,
            compile(min_feasible_bytes).expect("the reported floor must itself compile"),
        ),
        Err(other) => panic!("unexpected compile error: {other:?}"),
    };
    let peak = plan.footprint().peak_bytes;
    assert!(
        peak <= admitted,
        "plan peak {peak} B over its {admitted} B budget"
    );
    let mut session = InferenceSession::new(&mut net, plan).expect("plan matches this network");
    assert!(
        session.arena_bytes() <= peak,
        "session arena {} B over the planned peak {peak} B",
        session.arena_bytes()
    );
    let input = Tensor::from_fn(shape.to_vec(), |i| ((i % 31) as f32 - 15.0) * 0.05);
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    session.run_into(&input, &mut out).expect("clean run");
    let allocs = allocations_during(|| session.run_into(&input, &mut out).expect("clean run"));
    assert_eq!(
        allocs, 0,
        "steady-state pass of a {admitted} B-budget plan performed {allocs} heap allocations"
    );
    admitted
}

/// 4 MiB cannot hold batch-32 VGG-16 (width 0.25) on the fastest
/// kernels, so the solver demotes a convolution — and the demoted plan
/// must really live inside 4 MiB. A kernel that heap-allocates behind
/// the planner's back would pass the compile-time check and fail here.
#[test]
fn budget_demoted_vgg16_runs_inside_its_four_mib_arena() {
    let budget = 4 << 20;
    let shape = [32usize, 3, 32, 32];
    let free_peak = {
        let mut model = ModelKind::Vgg16.build_width(10, 0.25);
        PlanCompiler::standard()
            .run(&mut model.network, &shape, &ExecConfig::serial())
            .expect("unbudgeted compile")
            .footprint()
            .peak_bytes
    };
    assert!(free_peak > budget, "the budget must force a demotion");
    let admitted = assert_budgeted_plan_runs_inside_its_arena(
        || ModelKind::Vgg16.build_width(10, 0.25).network,
        &shape,
        budget,
    );
    assert_eq!(admitted, budget, "4 MiB is feasible for this model");
}

/// A budget bounds the arena a session holds at every thread count.
/// The budget is checked against the one-chunk plan's peak, so a
/// budgeted session runs its batch as one chunk, its kernels keeping
/// the threads, rather than one arena per chunk: split two ways, the
/// chunks' arenas of all three paper models sum past their serial
/// batch-8 peak, which is the budget here.
#[test]
fn budgeted_sessions_keep_their_budget_at_every_thread_count() {
    let batch = 8;
    for kind in ModelKind::all() {
        let budget = kind
            .build_width(10, 0.25)
            .compile_plan(batch, &ExecConfig::serial(), &PlanCompiler::standard())
            .expect("unbudgeted compile")
            .footprint()
            .peak_bytes;
        for threads in 1..=4 {
            let mut model = kind.build_width(10, 0.25);
            let cfg = ExecConfig::builder()
                .threads(threads)
                .plan_budget(budget)
                .build()
                .expect("valid config");
            let plan = model
                .compile_plan(batch, &cfg, &PlanCompiler::standard())
                .expect("the serial peak admits the plan");
            let peak = plan.footprint().peak_bytes;
            let session =
                InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
            let what = format!("{kind:?}, {threads} thread(s)");
            assert!(peak <= budget, "{what}: peak {peak} B over {budget} B");
            assert!(
                session.arena_bytes() <= peak,
                "{what}: arena {} B over the planned peak {peak} B",
                session.arena_bytes()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every plan the budget solver can emit — fitting, demoted, or the
    /// floor of an infeasible request — runs inside the arena it
    /// planned, whatever mix of im2col / Winograd / direct / scalar
    /// kernels the budget forced.
    #[test]
    fn every_budgeted_plan_runs_inside_its_arena(
        conv1 in 1usize..20,
        conv2 in 0usize..20, // 0 = no second conv
        batch in 1usize..5,
        eighths in 0usize..10,
        seed in 0u64..1000,
    ) {
        let shape = [batch, 3, 12, 12];
        let build = || {
            let mut layers: Vec<Box<dyn Layer>> = Vec::new();
            let mut c = 3;
            for (i, oc) in [conv1, conv2].into_iter().filter(|&oc| oc > 0).enumerate() {
                layers.push(Box::new(Conv2d::new(c, oc, 3, 1, 1, seed + i as u64)));
                layers.push(Box::new(ReLU::new()));
                c = oc;
            }
            layers.push(Box::new(MaxPool2d::new(2)));
            layers.push(Box::new(Flatten::new()));
            layers.push(Box::new(Linear::new(c * 6 * 6, 10, seed + 9)));
            Network::new(layers).expect("valid network")
        };
        let free_peak = PlanCompiler::standard()
            .run(&mut build(), &shape, &ExecConfig::serial())
            .expect("unbudgeted compile")
            .footprint()
            .peak_bytes;
        // From hopeless (0) through every demotion tier to roomy.
        assert_budgeted_plan_runs_inside_its_arena(build, &shape, free_peak * eighths / 8);
    }
}

/// The session profile has one row per top-level layer, index-aligned
/// with the network, and each executed pass increments the run counter.
/// For the flat models (VGG-16, MobileNet) that row count also equals
/// `descriptors()`; ResNet-18's residual blocks expand to more
/// descriptor rows than profiled layers.
#[test]
fn session_profile_rows_align_with_descriptors() {
    for kind in ModelKind::all() {
        let mut model = kind.build_width(10, 0.25);
        let input_shape = [1usize, 3, 32, 32];
        let descs = {
            let mut shape = input_shape.to_vec();
            model
                .network
                .layers()
                .iter()
                .map(|l| {
                    let d = l.descriptor(&shape);
                    shape = d.output_shape.clone();
                    d
                })
                .collect::<Vec<_>>()
        };
        if !matches!(kind, ModelKind::ResNet18) {
            assert_eq!(
                descs.len(),
                model.network.descriptors(&input_shape).len(),
                "{}: flat model, so expanded descriptors match layers",
                kind.name()
            );
        }
        let cfg = ExecConfig::serial();
        let plan = InferencePlan::compile(&model.network, &input_shape, &cfg)
            .expect("paper models accept CIFAR-shaped input");
        let mut session =
            InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
        let input = Tensor::zeros(input_shape.to_vec());
        let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
        session
            .run_into(&input, &mut out)
            .expect("shape matches plan");
        session
            .run_into(&input, &mut out)
            .expect("shape matches plan");

        let profile = session.profile();
        assert_eq!(profile.runs(), 2, "{}: two passes recorded", kind.name());
        assert_eq!(
            profile.rows().len(),
            descs.len(),
            "{}: one profile row per descriptor",
            kind.name()
        );
        for (row, d) in profile.rows().iter().zip(&descs) {
            assert_eq!(row.name, d.name, "{}: rows follow layer order", kind.name());
        }

        session.reset_profile();
        assert_eq!(session.profile().runs(), 0);
        assert_eq!(session.profile().rows().len(), descs.len());
    }
}

/// `Network::replica` on all three paper models — plain stacks,
/// `ResidualBlock` children, depthwise stages: compiling and preparing
/// a replica of a compiled network rewrites, packs and transforms
/// nothing (every master and every built form, f32 panels and Winograd
/// banks alike, keeps the source's address), and the two sessions
/// compute the same bits. Forced onto im2col every layer holds panels;
/// as selected, VGG-16's mid-size convolutions hold banks instead.
#[test]
fn replicas_of_paper_models_share_storage_and_bit_match() {
    let input = Tensor::from_fn([2, 3, 32, 32], |i| {
        ((i as u64 * 2654435761) % 197) as f32 * 0.01 - 1.0
    });
    let im2col = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };
    for (cfg, forced) in [(im2col, true), (ExecConfig::serial(), false)] {
        let compile = |mut net: Network| {
            let plan = PlanCompiler::standard()
                .run(&mut net, input.shape().dims(), &cfg)
                .expect("paper models accept CIFAR-shaped input");
            InferenceSession::owned(net, plan, GuardConfig::Off).expect("plan matches this network")
        };
        for kind in ModelKind::all() {
            let mut source = compile(kind.build_width(10, 0.25).network);
            let storage = source.network().weight_storage();
            if forced {
                assert!(
                    storage.iter().all(|s| s.forms[1].is_some()),
                    "{}: every conv and linear layer is packed",
                    kind.name()
                );
            } else if kind == ModelKind::Vgg16 {
                assert!(
                    storage.iter().any(|s| s.forms[3].or(s.forms[4]).is_some()),
                    "VGG-16's selected plan holds a Winograd bank"
                );
            }
            let mut replica = compile(source.network().replica());
            assert_eq!(
                replica.network().weight_storage(),
                storage,
                "{}: the replica copied, re-packed or re-transformed a layer",
                kind.name()
            );
            let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let want = bits(source.run(&input).expect("input matches plan"));
            let got = bits(replica.run(&input).expect("input matches plan"));
            assert_eq!(got, want, "{}: outputs diverge", kind.name());
        }
    }
}

/// Inference allocates no gradient: a compiled VGG-16 session that has
/// run, and a session over its replica, hold no gradient buffer in any
/// parameter — the accumulators appear with the first backward pass.
#[test]
fn inference_sessions_hold_no_gradient_buffers() {
    let mut model = ModelKind::Vgg16.build_width(10, 0.25);
    let plan = model
        .compile_plan(2, &ExecConfig::serial(), &PlanCompiler::standard())
        .expect("VGG-16 compiles");
    let input = Tensor::from_fn([2, 3, 32, 32], |i| (i % 17) as f32 * 0.1 - 0.8);
    let mut session =
        InferenceSession::owned(model.network, plan.clone(), GuardConfig::Off).expect("session");
    session.run(&input).expect("clean run");
    let mut replica = InferenceSession::owned(session.network().replica(), plan, GuardConfig::Off)
        .expect("replica session");
    replica.run(&input).expect("clean run");
    for net in [session.network(), replica.network()] {
        let params = net.params();
        assert!(!params.is_empty());
        assert!(params.iter().all(|p| p.grad().is_none()));
    }
}

/// Session output is bit-identical to the allocating `Network::forward`
/// path on all three paper models.
#[test]
fn session_bit_matches_forward_on_paper_models() {
    for kind in ModelKind::all() {
        let mut model = kind.build_width(10, 0.1);
        let cfg = ExecConfig::serial();
        let input = Tensor::from_fn([2, 3, 32, 32], |i| {
            ((i as u64 * 2654435761) % 197) as f32 * 0.01 - 1.0
        });
        let expected = model.network.forward(&input, Phase::Eval, &cfg);
        let plan = InferencePlan::compile(&model.network, input.shape().dims(), &cfg)
            .expect("paper models accept CIFAR-shaped input");
        let mut session =
            InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
        let got = session.run(&input).expect("input matches plan");
        assert_eq!(
            got.shape().dims(),
            expected.shape().dims(),
            "{}",
            kind.name()
        );
        assert_eq!(
            got.data(),
            expected.data(),
            "{}: outputs diverge",
            kind.name()
        );
    }
}

/// A session runs any batch from one image up to its plan's, and image
/// `i` of a prefix batch gets the bits of row `i` of a full-batch run on
/// that same session: on the standard plans of the three paper models
/// (Winograd, depthwise and residual rows included) and on a TTQ VGG-16
/// under the serving configuration (im2col, 2-bit codes), at 1–4
/// threads so that spare chunks go idle, with NaN and ±Inf images in
/// the batch. A one-chunk session runs every prefix without touching
/// the heap.
#[test]
fn prefix_batches_match_the_full_batch_rows() {
    const N: usize = 8;
    let per_image = 3 * 32 * 32;
    let mut input = Tensor::from_fn([N, 3, 32, 32], |i| {
        ((i as u64 * 2654435761) % 197) as f32 * 0.01 - 1.0
    });
    for (image, v) in [(0, f32::NAN), (2, f32::INFINITY), (5, f32::NEG_INFINITY)] {
        input.data_mut()[image * per_image + 100] = v;
    }
    let prefixes: Vec<Tensor> = (1..=N)
        .map(|b| Tensor::from_vec([b, 3, 32, 32], input.data()[..b * per_image].to_vec()))
        .collect();
    let ttq_vgg16 = || {
        let mut net = ModelKind::Vgg16.build_width(10, 0.25).network;
        cnn_stack::compress::ttq::ttq_quantise(&mut net, 0.09);
        set_network_format(&mut net, WeightFormat::Ternary);
        net
    };
    let mut cases: Vec<(String, Network, ConvAlgorithm)> = ModelKind::all()
        .into_iter()
        .map(|kind| {
            let net = kind.build_width(10, 0.25).network;
            (kind.name().to_string(), net, ConvAlgorithm::default())
        })
        .collect();
    cases.push(("TTQ VGG-16".into(), ttq_vgg16(), ConvAlgorithm::Im2col));
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (name, net, conv_algo) in cases {
        for threads in 1..=4 {
            let cfg = ExecConfig {
                conv_algo,
                ..ExecConfig::with_threads(threads)
            };
            let mut net = net.replica();
            let plan = PlanCompiler::standard()
                .run(&mut net, input.shape().dims(), &cfg)
                .expect("paper models accept CIFAR-shaped input");
            let mut session =
                InferenceSession::owned(net, plan, GuardConfig::Off).expect("plan matches");
            let full = bits(&session.run(&input).expect("the full batch runs"));
            let row = full.len() / N;
            for (b, prefix) in (1..).zip(&prefixes) {
                let got = bits(&session.run(prefix).expect("a prefix batch runs"));
                assert_eq!(got, full[..b * row], "{name}, {threads} threads, batch {b}");
            }
            if threads == 1 {
                let mut outs: Vec<Tensor> = (1..=N).map(|b| Tensor::zeros([b, 10])).collect();
                let allocs = allocations_during(|| {
                    for (prefix, out) in prefixes.iter().zip(&mut outs).rev() {
                        session.run_into(prefix, out).expect("a prefix batch runs");
                    }
                });
                assert_eq!(allocs, 0, "{name}: prefix runs allocated");
            }
            let again = bits(&session.run(&input).expect("the full batch runs"));
            assert_eq!(
                again, full,
                "{name}, {threads} threads: full batch after prefixes"
            );
        }
    }
}
