//! Memory-planning properties.
//!
//! The liveness-coloured arena must be a pure *layout* optimisation:
//! the kernels, the algorithm choices, and every computed value are
//! unchanged, so outputs must be bit-identical to running the same
//! steps with no buffer sharing at all — NaN and Inf payloads included.
//! The arena the session actually allocates must never exceed the
//! plan's predicted `peak_bytes`. And a memory budget must produce
//! plans that truly fit, or fail with a typed error naming the smallest
//! budget that would.

use cnn_stack::models::{vgg16, vgg16_width};
use cnn_stack::nn::{
    Conv2d, ConvAlgorithm, Error, ExecConfig, Flatten, InferencePlan, InferenceSession, Layer,
    Linear, MaxPool2d, Network, PlanCompiler, PlanError, ReLU,
};
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;

/// A small conv stack with an optional pool and a linear head, built
/// deterministically from a seed so two calls give identical weights.
fn build_net(
    in_c: usize,
    hw: usize,
    convs: &[usize],
    pool: bool,
    classes: usize,
    seed: u64,
) -> Network {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut c = in_c;
    for (i, &oc) in convs.iter().enumerate() {
        layers.push(Box::new(Conv2d::new(c, oc, 3, 1, 1, seed + i as u64)));
        layers.push(Box::new(ReLU::new()));
        c = oc;
    }
    let mut spatial = hw;
    if pool {
        layers.push(Box::new(MaxPool2d::new(2)));
        spatial /= 2;
    }
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(
        c * spatial * spatial,
        classes,
        seed + 99,
    )));
    Network::new(layers).expect("valid network")
}

/// Deterministic input with NaN and ±Inf payloads sprinkled in: the
/// arena layout must carry non-finite values bit-for-bit like any
/// other.
fn poisoned_input(shape: Vec<usize>, seed: u64) -> Tensor {
    Tensor::from_fn(shape, move |i| match (seed as usize + i) % 17 {
        0 => f32::NAN,
        5 => f32::INFINITY,
        11 => f32::NEG_INFINITY,
        k => (k as f32 - 8.0) * 0.37,
    })
}

/// The aliasing oracle: executes the compiled steps with **no** buffer
/// sharing — a fresh output `Vec` and a fresh NaN-poisoned workspace
/// of exactly `PlanStep::workspace_elems` (the kernel's one bound; this
/// network was never `prepare`d, so the layers derive their weight
/// forms on first read) per step, the whole batch on the plan's thread
/// count. Whatever the arena layout aliases wrongly, this cannot.
fn run_unshared(net: &Network, plan: &InferencePlan, x: &Tensor) -> Vec<f32> {
    let mut act = x.data().to_vec();
    for step in plan.steps() {
        let mut out = vec![f32::NAN; step.output_elems];
        let mut workspace = vec![f32::NAN; step.workspace_elems];
        net.layers()[step.layer].forward_into(
            &act,
            &step.input_shape,
            &mut out,
            &mut workspace,
            &step.cfg,
        );
        act = out;
    }
    act
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coloured arena vs unshared buffers: same network, same inputs,
    /// same compiled steps — outputs must agree to the bit, and the
    /// session must never allocate more arena than the plan predicted.
    #[test]
    fn coloured_arena_is_bit_identical_to_unshared_buffers(
        in_c in 1usize..4,
        hw_sel in 0usize..3,
        conv1 in 1usize..7,
        conv2 in 0usize..7, // 0 = no second conv
        pool_bit in 0usize..2,
        classes in 1usize..5,
        batch in 1usize..5,
        threads in 1usize..4,
        seed in 0u64..1000,
    ) {
        let hw = [4usize, 6, 8][hw_sel];
        let pool = pool_bit == 1;
        let convs: Vec<usize> = std::iter::once(conv1)
            .chain((conv2 > 0).then_some(conv2))
            .collect();
        let shape = vec![batch, in_c, hw, hw];
        let x = poisoned_input(shape.clone(), seed);

        // Compilation rewrites the network (folding, format switches),
        // so the oracle gets its own identically-compiled copy.
        let mut net_a = build_net(in_c, hw, &convs, pool, classes, seed);
        let mut net_b = build_net(in_c, hw, &convs, pool, classes, seed);
        let cfg = ExecConfig::builder().threads(threads).build().unwrap();
        let plan_a = PlanCompiler::standard().run(&mut net_a, &shape, &cfg).unwrap();
        let plan_b = PlanCompiler::standard().run(&mut net_b, &shape, &cfg).unwrap();
        let fp = plan_a.footprint();
        prop_assert!(fp.peak_bytes <= fp.naive_bytes);
        let want = run_unshared(&net_b, &plan_b, &x);

        let mut sess = InferenceSession::new(&mut net_a, plan_a).unwrap();
        // Serial sessions run the whole batch through one arena, so the
        // compile-time prediction is an exact upper bound on what the
        // session allocated. (Batch-parallel sessions size one smaller
        // arena per chunk; their total is reported but the plan-level
        // bound applies per chunk, not to the sum.)
        if threads == 1 {
            prop_assert!(sess.arena_bytes() <= fp.peak_bytes);
        }
        for round in 0..2 {
            let got = sess.run(&x).unwrap();
            for (i, (a, b)) in got.data().iter().zip(&want).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "round {round} elem {i}: {a:?} != {b:?}"
                );
            }
        }
    }
}

/// The paper's fastest configuration — im2col + packed GEMM everywhere
/// — needs 10.25 MiB of coloured arena for batch-16 VGG-16 (two 4 MiB
/// activations around the 64→64 convolution plus its 2.25 MiB packed
/// im2col panel). A 10 MiB budget sits just under that: the fixed
/// configuration is refused with a typed error, while the budgeted
/// compiler demotes that one convolution, fits, and computes the same
/// function as the unconstrained plan.
#[test]
fn sixteen_mb_budget_fits_where_fixed_im2col_does_not() {
    let budget = 10 * 1024 * 1024;
    let shape = [16usize, 3, 32, 32];

    // Global im2col is a user override, so nothing is re-planned: the
    // admission check says it cannot fit, with a typed error.
    let fixed = vgg16(10);
    let cfg_fixed = ExecConfig::builder()
        .conv_algo(ConvAlgorithm::Im2col)
        .plan_budget(budget)
        .build()
        .unwrap();
    let err = InferencePlan::compile(&fixed.network, &shape, &cfg_fixed).unwrap_err();
    let Error::Plan(PlanError::BudgetInfeasible {
        budget_bytes,
        min_feasible_bytes,
    }) = err
    else {
        panic!("expected BudgetInfeasible, got {err:?}");
    };
    assert_eq!(budget_bytes, budget);
    assert!(min_feasible_bytes > budget);

    // The budgeted compiler fits the same model in the same envelope.
    let mut free_model = vgg16(10);
    let free_plan = PlanCompiler::standard()
        .run(&mut free_model.network, &shape, &ExecConfig::serial())
        .unwrap();
    let mut capped_model = vgg16(10);
    let cfg_capped = ExecConfig::builder().plan_budget(budget).build().unwrap();
    let capped_plan = PlanCompiler::standard()
        .run(&mut capped_model.network, &shape, &cfg_capped)
        .unwrap();
    assert!(capped_plan.footprint().peak_bytes <= budget);

    let x = Tensor::from_fn(shape.to_vec(), |i| ((i % 31) as f32 - 15.0) * 0.05);
    let mut free_sess = InferenceSession::new(&mut free_model.network, free_plan).unwrap();
    let mut capped_sess = InferenceSession::new(&mut capped_model.network, capped_plan).unwrap();
    assert!(capped_sess.arena_bytes() <= budget);
    let ya = free_sess.run(&x).unwrap();
    let yb = capped_sess.run(&x).unwrap();
    for (a, b) in ya.data().iter().zip(yb.data()) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

/// An envelope nothing can satisfy fails with the smallest feasible
/// budget — and that reported floor is itself compilable.
#[test]
fn infeasible_budget_error_names_an_achievable_floor() {
    let shape = [4usize, 3, 32, 32];
    let mut model = vgg16_width(10, 0.25);
    let cfg = ExecConfig::builder().plan_budget(1024).build().unwrap();
    let err = PlanCompiler::standard()
        .run(&mut model.network, &shape, &cfg)
        .unwrap_err();
    let Error::Plan(PlanError::BudgetInfeasible {
        min_feasible_bytes, ..
    }) = err
    else {
        panic!("expected BudgetInfeasible, got {err:?}");
    };
    let mut model2 = vgg16_width(10, 0.25);
    let cfg2 = ExecConfig::builder()
        .plan_budget(min_feasible_bytes)
        .build()
        .unwrap();
    let plan = PlanCompiler::standard()
        .run(&mut model2.network, &shape, &cfg2)
        .unwrap();
    assert!(plan.footprint().peak_bytes <= min_feasible_bytes);
}
