//! Integration tests for the plan compiler: one entry contract for
//! `InferencePlan::compile` and `PlanCompiler::run` (every bad input
//! gets the same error from both and leaves the weights alone), fused
//! conv+BN+ReLU and dwconv+BN+ReLU equivalence against the unfused
//! reference (property based, across strides/paddings/non-finite inputs
//! and depthwise output rows narrower and wider than one 16-lane
//! vector), the pointwise packed-GEMM fast path,
//! weight-panel cache invalidation through residual-block accessors, no
//! selected conv (residual blocks' included) left on the direct floor,
//! and the selections and budget solutions pinned to measured VGG-16
//! plans.

use cnn_stack::nn::{
    fold_batchnorm, BatchNorm2d, Conv2d, ConvAlgorithm, DepthwiseConv2d, Error, ExecConfig,
    Flatten, GuardConfig, InferencePlan, InferenceSession, Layer, Linear, MaxPool2d, Network,
    Phase, PlanCompiler, ReLU, ResidualBlock, WeightFormat,
};
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;

/// Equality up to NaN payload and zero sign: fusion skips the folded
/// batch norm's `x * 1.0 + 0.0` identity, which canonicalises `-0.0` to
/// `+0.0` and may requiet a NaN; everything else must match bitwise.
fn same_bits(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || (a == 0.0 && b == 0.0) || a.to_bits() == b.to_bits()
}

/// conv or depthwise conv (k, stride, padding) + BN + ReLU with the
/// batch norm pushed away from the identity, deterministically per seed.
fn conv_bn_relu_net(
    depthwise: bool,
    kernel: usize,
    stride: usize,
    padding: usize,
    seed: u64,
) -> Network {
    let (producer, channels): (Box<dyn Layer>, usize) = if depthwise {
        (
            Box::new(DepthwiseConv2d::new(3, kernel, stride, padding, seed)),
            3,
        )
    } else {
        (
            Box::new(Conv2d::new(3, 6, kernel, stride, padding, seed)),
            6,
        )
    };
    let mut net = Network::new(vec![
        producer,
        Box::new(BatchNorm2d::new(channels)),
        Box::new(ReLU::new()),
    ])
    .unwrap();
    let bn = net.layers_mut()[1]
        .as_any_mut()
        .downcast_mut::<BatchNorm2d>()
        .unwrap();
    for (i, g) in bn.gamma_mut().value.data_mut().iter_mut().enumerate() {
        *g = 0.6 + 0.17 * (i as f32) + (seed % 5) as f32 * 0.03;
    }
    net
}

fn deterministic_input(shape: [usize; 4]) -> Tensor {
    Tensor::from_fn(shape, |i| ((i * 29 % 17) as f32) * 0.11 - 0.9)
}

/// conv(3→4) → BN → ReLU → flatten → linear(4·8·8 → 5), its batch norm
/// pushed off the identity so a fold would rewrite the conv's weights.
fn contract_net() -> Network {
    let mut net = Network::new(vec![
        Box::new(Conv2d::new(3, 4, 3, 1, 1, 7)),
        Box::new(BatchNorm2d::new(4)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(4 * 8 * 8, 5, 8)),
    ])
    .unwrap();
    net.layers_mut()[1]
        .as_any_mut()
        .downcast_mut::<BatchNorm2d>()
        .unwrap()
        .gamma_mut()
        .value
        .data_mut()
        .fill(1.5);
    net
}

/// Every parameter value of `net`, as bits.
fn param_bits(net: &Network) -> Vec<u32> {
    net.params()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Both entry points share one validation and one admission check: each
/// bad input gets the same `Error` variant from `InferencePlan::compile`
/// and from `PlanCompiler::standard().run`, and an input the validation
/// rejects leaves the network's weights bit for bit as they were — the
/// compiler folds nothing before it has checked every layer. The channel
/// and feature cases used to compile (the standard plan priced the conv
/// onto a Winograd row) and panic in the kernel on the first run.
#[test]
fn both_entry_points_reject_bad_inputs_alike() {
    let ok = [1usize, 3, 8, 8];
    let serial = ExecConfig::serial();
    let zero_threads = ExecConfig {
        threads: 0,
        ..serial
    };
    let tiny_budget = ExecConfig::builder().plan_budget(64).build().unwrap();
    let cases: [(&str, &[usize], &ExecConfig); 7] = [
        ("zero threads", &ok, &zero_threads),
        ("empty shape", &[], &serial),
        ("zero extent", &[1, 3, 0, 8], &serial),
        ("rank too low", &[3, 8, 8], &serial),
        ("channel mismatch", &[1, 5, 8, 8], &serial),
        ("feature mismatch", &[1, 3, 16, 16], &serial),
        ("infeasible budget", &ok, &tiny_budget),
    ];
    let pristine = param_bits(&contract_net());
    for (what, shape, cfg) in cases {
        let mut net = contract_net();
        let global = InferencePlan::compile(&net, shape, cfg).expect_err(what);
        let standard = PlanCompiler::standard()
            .run(&mut net, shape, cfg)
            .expect_err(what);
        assert_eq!(
            std::mem::discriminant(&global),
            std::mem::discriminant(&standard),
            "{what}: {global:?} vs {standard:?}"
        );
        if what == "infeasible budget" {
            // Admission runs after selection, which prices the folded
            // weights: the standard pipeline has folded by then.
            assert!(matches!(standard, Error::Plan(_)), "{what}: {standard:?}");
        } else {
            assert!(
                matches!(standard, Error::InvalidConfig(_)),
                "{what}: {standard:?}"
            );
            assert_eq!(param_bits(&net), pristine, "{what}: the weights changed");
        }
    }
}

/// A window the input plane cannot hold is a typed compile error from
/// both entry points, not a kernel panic: a 2×2 max pool on a 5×5 plane
/// used to compile and panic on the first run, and a conv or depthwise
/// kernel larger than its padded input panicked inside the compilers'
/// shape propagation. The same layers on planes that fit compile.
#[test]
fn both_entry_points_refuse_windows_the_plane_cannot_hold() {
    let serial = ExecConfig::serial();
    /// (what, the layer, an input it refuses, one it takes, what the
    /// refusal names).
    type Case = (
        &'static str,
        fn() -> Box<dyn Layer>,
        [usize; 4],
        [usize; 4],
        &'static str,
    );
    let cases: [Case; 3] = [
        (
            "maxpool2x2 on 5x5",
            || Box::new(MaxPool2d::new(2)),
            [1, 3, 5, 5],
            [1, 3, 6, 4],
            "window divides",
        ),
        (
            "conv5x5 pad 0 on 3x3",
            || Box::new(Conv2d::new(3, 4, 5, 1, 0, 7)),
            [1, 3, 3, 3],
            [1, 3, 5, 5],
            "fits its 5x5 window after padding 0",
        ),
        (
            "dwconv5x5 pad 1 on 2x2",
            || Box::new(DepthwiseConv2d::new(3, 5, 1, 1, 7)),
            [1, 3, 2, 2],
            [1, 3, 3, 3],
            "fits its 5x5 window after padding 1",
        ),
    ];
    for (what, layer, bad, good, need) in cases {
        let net = || Network::new(vec![layer(), Box::new(ReLU::new())]).unwrap();
        let global = InferencePlan::compile(&net(), &bad, &serial).expect_err(what);
        let standard = PlanCompiler::standard()
            .run(&mut net(), &bad, &serial)
            .expect_err(what);
        for err in [global, standard] {
            match err {
                Error::InvalidConfig(msg) => assert!(msg.contains(need), "{what}: {msg}"),
                other => panic!("{what}: {other:?}"),
            }
        }
        InferencePlan::compile(&net(), &good, &serial).expect(what);
        let mut net = net();
        let plan = PlanCompiler::standard()
            .run(&mut net, &good, &serial)
            .expect(what);
        let mut session = InferenceSession::new(&mut net, plan).expect(what);
        session.run(&deterministic_input(good)).expect(what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused plan (BN folded + absorbed, ReLU applied in the kernel
    /// epilogue) must reproduce the unfused reference — same folded
    /// weights, but BN and ReLU executed as separate layer sweeps —
    /// element for element, including NaN/Inf propagation. The
    /// producer is a convolution or a depthwise convolution; the 8×8
    /// and 20×20 planes at both strides give depthwise output rows
    /// narrower and wider than the kernel's 16-lane vectors.
    #[test]
    fn fused_conv_bn_relu_matches_unfused_reference(
        depthwise in 0usize..2,
        wide in 0usize..2,
        k in 0usize..2,
        stride in 1usize..3,
        padding in 0usize..2,
        nonfinite in 0usize..3,
        seed in 0u64..25,
    ) {
        let depthwise = depthwise == 1;
        let kernel = if k == 0 { 1 } else { 3 };
        let plane = if wide == 1 { 20 } else { 8 };
        let shape = [1usize, 3, plane, plane];
        let mut input = deterministic_input(shape);
        match nonfinite {
            1 => {
                input.data_mut()[5] = f32::NAN;
                input.data_mut()[40] = f32::NAN;
            }
            2 => {
                input.data_mut()[3] = f32::INFINITY;
                input.data_mut()[33] = f32::NEG_INFINITY;
            }
            _ => {}
        }
        // A user override, on both sides: the compiler's selection
        // stands down, so the one difference is fold and fuse.
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };

        // Reference: fold the batch norm by hand (the same arithmetic
        // the plan compiler applies), then execute every layer
        // separately — identity BN sweep, standalone ReLU sweep.
        let mut ref_net = conv_bn_relu_net(depthwise, kernel, stride, padding, seed);
        fold_batchnorm(&mut ref_net);
        let ref_plan = InferencePlan::compile(&ref_net, &shape, &cfg).unwrap();
        prop_assert_eq!(ref_plan.steps().len(), 3);
        let mut ref_session =
            InferenceSession::with_guard(&mut ref_net, ref_plan, GuardConfig::Off).unwrap();
        let mut want = Tensor::zeros(ref_session.plan().output_shape().to_vec());
        ref_session.run_into(&input, &mut want).unwrap();

        // Fused: the plan compiler folds and collapses all three layers
        // into one step with a ReLU epilogue.
        let mut fused_net = conv_bn_relu_net(depthwise, kernel, stride, padding, seed);
        let plan = PlanCompiler::standard()
            .run(&mut fused_net, &shape, &cfg)
            .unwrap();
        prop_assert_eq!(plan.steps().len(), 1);
        prop_assert_eq!(plan.steps()[0].span, 3);
        prop_assert!(plan.steps()[0].cfg.fused_relu);
        let mut session =
            InferenceSession::with_guard(&mut fused_net, plan, GuardConfig::Off).unwrap();
        let mut got = Tensor::zeros(session.plan().output_shape().to_vec());
        session.run_into(&input, &mut got).unwrap();

        prop_assert_eq!(want.shape().dims(), got.shape().dims());
        for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
            prop_assert!(
                same_bits(*w, *g),
                "elem {}: unfused {:?} vs fused {:?} (dw={} plane={} k={} s={} p={} nf={})",
                i, w, g, depthwise, plane, kernel, stride, padding, nonfinite
            );
        }
    }
}

/// A 1×1 stride-1 pad-0 convolution under im2col+packed takes the
/// pointwise fast path (no im2col pack); it must match the direct
/// reference.
#[test]
fn pointwise_conv_packed_path_matches_direct() {
    let shape = [2usize, 8, 10, 10];
    let input = deterministic_input(shape);

    let mut direct_net = Network::new(vec![Box::new(Conv2d::new(8, 16, 1, 1, 0, 11))]).unwrap();
    let want = direct_net.forward(&input, Phase::Eval, &ExecConfig::serial());

    let mut packed_net = Network::new(vec![Box::new(Conv2d::new(8, 16, 1, 1, 0, 11))]).unwrap();
    let cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };
    let plan = InferencePlan::compile(&packed_net, &shape, &cfg).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut packed_net, plan, GuardConfig::Off).unwrap();
    let mut got = Tensor::zeros(session.plan().output_shape().to_vec());
    session.run_into(&input, &mut got).unwrap();

    assert_eq!(want.shape().dims(), got.shape().dims());
    assert!(want.allclose(&got, 1e-4));
}

/// `weight_mut` through a residual block's accessors must invalidate the
/// plan-time packed weight panels: a forward pass after the mutation has
/// to see the new weights, not a stale cache.
#[test]
fn residual_weight_mut_invalidates_cached_panels() {
    let shape = [1usize, 4, 8, 8];
    let input = deterministic_input(shape);
    let cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };

    let mut net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 21))]).unwrap();
    // Prepare caches packed panels for the internal convolutions.
    for layer in net.layers_mut() {
        layer.visit_mut(&mut |l| {
            l.prepare(&cfg);
        });
    }
    let before = net.forward(&input, Phase::Eval, &cfg);

    // Mutate conv1 through the residual accessor chain.
    let block = net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    for w in block.conv1_mut().weight_mut().value.data_mut() {
        *w *= 2.0;
    }
    let after = net.forward(&input, Phase::Eval, &cfg);
    assert!(
        !after.allclose(&before, 1e-6),
        "doubling conv1 weights must change the output"
    );

    // Reference: identical block whose weights were doubled before any
    // panel was ever cached.
    let mut ref_net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 21))]).unwrap();
    let ref_block = ref_net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    for w in ref_block.conv1_mut().weight_mut().value.data_mut() {
        *w *= 2.0;
    }
    let want = ref_net.forward(&input, Phase::Eval, &cfg);
    assert!(after.allclose(&want, 1e-6));
}

/// `set_format` through a residual accessor must rebuild the CSR cache
/// from the *current* weights and drop stale packed panels.
#[test]
fn residual_set_format_refreshes_csr_from_current_weights() {
    let shape = [1usize, 4, 8, 8];
    let input = deterministic_input(shape);
    let packed_cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };

    let mut net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 33))]).unwrap();
    for layer in net.layers_mut() {
        layer.visit_mut(&mut |l| {
            l.prepare(&packed_cfg);
        });
    }
    let block = net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    // Mutate, then switch conv2 to CSR: the sparse cache must capture
    // the mutated weights.
    for w in block.conv2_mut().weight_mut().value.data_mut() {
        *w *= -1.5;
    }
    block.conv2_mut().set_format(WeightFormat::Csr);
    let got = net.forward(&input, Phase::Eval, &ExecConfig::serial());

    let mut ref_net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 33))]).unwrap();
    let ref_block = ref_net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    for w in ref_block.conv2_mut().weight_mut().value.data_mut() {
        *w *= -1.5;
    }
    ref_block.conv2_mut().set_format(WeightFormat::Csr);
    let want = ref_net.forward(&input, Phase::Eval, &ExecConfig::serial());
    assert!(got.allclose(&want, 0.0));
}

/// A residual block is one step on the cheapest row all its
/// convolutions run under their own labels: pruned far past the CSR
/// crossover, a Dense-labelled block stays on a dense row (a conv op
/// would be relabelled onto `csr`, a composite never is) and a
/// CSR-labelled one runs `csr`.
#[test]
fn residual_blocks_are_planned_under_their_childrens_labels() {
    use cnn_stack::nn::AlgoChoice;
    for format in [WeightFormat::Dense, WeightFormat::Csr] {
        let mut block = ResidualBlock::new(8, 8, 1, 3);
        let prune = |conv: &mut Conv2d| conv.weight_mut().value.data_mut()[5..].fill(0.0);
        prune(block.conv1_mut());
        prune(block.conv2_mut());
        block.set_format(format);
        let mut net = Network::new(vec![Box::new(block)]).unwrap();
        let plan = PlanCompiler::standard()
            .run(&mut net, &[2, 8, 8, 8], &ExecConfig::serial())
            .unwrap();
        let step = &plan.steps()[0];
        let block = net.layers()[0]
            .as_any()
            .downcast_ref::<ResidualBlock>()
            .unwrap();
        let runs = block.conv1().runs(&step.cfg);
        assert_eq!(block.conv2().runs(&step.cfg), runs);
        assert_eq!(
            (block.conv1().format(), block.conv2().format()),
            (format, format)
        );
        assert_eq!(tag(step), runs.tag());
        match format {
            WeightFormat::Csr => assert_eq!(runs, AlgoChoice::CsrConv),
            _ => assert!(!matches!(
                runs,
                AlgoChoice::CsrConv | AlgoChoice::DirectConv
            )),
        }
    }
}

/// The kernel-registry tag a compiled step carries.
fn tag(step: &cnn_stack::nn::PlanStep) -> &str {
    let open = step.name.rfind(" [").expect("conv steps are tagged");
    &step.name[open + 2..step.name.len() - 1]
}

/// VGG-16's selection at batch 1 and batch 8 reproduces the per-layer
/// winners measured in whole sessions with each conv row forced
/// (EXPERIMENTS.md, "Winograd on the packed engine"): F(4×4) where its
/// 36 products beat the bank it streams — every plane of 8×8 and up at
/// batch 8, only the 32×32 and 16×16 ones at batch 1 — F(2×2) on the
/// 4×4 planes at batch 8, im2col everywhere else, the 3-channel stem and
/// every 2×2 plane among them. Each conv lists the rows measured within
/// 1.15× of its winner, winner first. The batch-1 plan also stays in a
/// small arena: a flat multiply-count price once put the conv5 trio on
/// F(4×4), 15× slower than the packed engine in a 40.1 MB arena.
#[test]
fn vgg16_selection_reproduces_the_measured_winners() {
    const IM2COL: &str = "im2col-packed";
    const F2: &str = "winograd";
    const F4: &str = "winograd-f4";
    // conv1_1 … conv5_3.
    let batch1: [&[&str]; 13] = [
        &[IM2COL],
        &[F4],
        &[IM2COL, F2, F4],
        &[F4, F2],
        &[IM2COL],
        &[IM2COL, F2],
        &[IM2COL, F2],
        &[IM2COL],
        &[IM2COL],
        &[IM2COL],
        &[IM2COL],
        &[IM2COL],
        &[IM2COL],
    ];
    let batch8: [&[&str]; 13] = [
        &[IM2COL],
        &[F4],
        &[F4],
        &[F4],
        &[F4],
        &[F4],
        &[F4],
        &[F2],
        &[F2],
        &[F2],
        &[IM2COL],
        &[IM2COL],
        &[IM2COL],
    ];
    for (batch, winners) in [(1, batch1), (8, batch8)] {
        let mut model = cnn_stack::models::vgg16(10);
        let plan = model
            .compile_plan(batch, &ExecConfig::serial(), &PlanCompiler::standard())
            .unwrap();
        let convs: Vec<_> = plan
            .steps()
            .iter()
            .filter(|s| s.name.starts_with("conv"))
            .collect();
        assert_eq!(convs.len(), 13);
        for (step, measured) in convs.iter().zip(winners) {
            assert!(
                measured.contains(&tag(step)),
                "batch {batch}: {} runs {}, measured {measured:?}",
                step.name,
                tag(step)
            );
        }
        if batch == 1 {
            let peak = plan.footprint().peak_bytes;
            assert!(peak < 4 << 20, "arena peak {peak} B");
        }
    }
}

/// Full-width MobileNet's batch-1 plan, step by step, as compiled before
/// the Winograd rows ran on the packed engine.
const MOBILENET_B1_PLAN: &[&str] = &[
    "conv3x3(3->32)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=32)/s1 + bn + relu",
    "conv1x1(32->64)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=64)/s2 + bn + relu",
    "conv1x1(64->128)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=128)/s1 + bn + relu",
    "conv1x1(128->128)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=128)/s2 + bn + relu",
    "conv1x1(128->256)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=256)/s1 + bn + relu",
    "conv1x1(256->256)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=256)/s2 + bn + relu",
    "conv1x1(256->512)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=512)/s1 + bn + relu",
    "conv1x1(512->512)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=512)/s1 + bn + relu",
    "conv1x1(512->512)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=512)/s1 + bn + relu",
    "conv1x1(512->512)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=512)/s1 + bn + relu",
    "conv1x1(512->512)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=512)/s1 + bn + relu",
    "conv1x1(512->512)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=512)/s2 + bn + relu",
    "conv1x1(512->1024)/s1 + bn + relu [im2col-packed]",
    "dwconv3x3(c=1024)/s1 + bn + relu",
    "conv1x1(1024->1024)/s1 + bn + relu [im2col-packed]",
    "globalavgpool",
    "flatten",
    "linear(1024->10) [gemm-scalar]",
];

/// Full-width ResNet-18's batch-1 plan: each residual block is planned
/// as one step on the cheapest row all its convolutions run (the
/// Winograd rows only on the blocks whose every conv is 3×3 stride 1),
/// priced as the sum of their prices.
const RESNET18_B1_PLAN: &[&str] = &[
    "conv3x3(3->64)/s1 + bn + relu [im2col-packed]",
    "resblock(64->64) [winograd-f4]",
    "resblock(64->64) [winograd-f4]",
    "resblock(64->128, proj) [im2col-packed]",
    "resblock(128->128) [winograd]",
    "resblock(128->256, proj) [im2col-packed]",
    "resblock(256->256) [im2col-packed]",
    "resblock(256->512, proj) [im2col-packed]",
    "resblock(512->512) [im2col-packed]",
    "globalavgpool",
    "flatten",
    "linear(512->10) [gemm-scalar]",
];

/// The Winograd rows move no plan they do not win: no 3-input-channel
/// stem and no 2×2 plane of any paper model lands on one, the MobileNet
/// batch-1 plan names exactly the kernels it named before either row ran
/// on the packed engine, and the ResNet-18 batch-1 plan is the one its
/// planned residual blocks give.
#[test]
fn winograd_rows_leave_stems_tiny_planes_and_the_other_models_alone() {
    use cnn_stack::models::ModelKind;
    for kind in ModelKind::all() {
        for batch in [1, 8] {
            let mut model = kind.build_width(10, 1.0);
            let plan = model
                .compile_plan(batch, &ExecConfig::serial(), &PlanCompiler::standard())
                .unwrap();
            for step in plan.steps() {
                let winograd = matches!(
                    step.cfg.conv_algo,
                    ConvAlgorithm::Winograd | ConvAlgorithm::WinogradF4
                );
                if !winograd {
                    continue;
                }
                let (in_c, plane) = (step.input_shape[1], step.input_shape[2]);
                assert!(
                    in_c > 3 && plane > 2,
                    "{} at batch {batch}: {} on {in_c} channels of {plane}×{plane}",
                    kind.name(),
                    step.name
                );
            }
        }
    }
    let steps = |kind: ModelKind| {
        let mut model = kind.build_width(10, 1.0);
        let plan = model
            .compile_plan(1, &ExecConfig::serial(), &PlanCompiler::standard())
            .unwrap();
        plan.steps()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(steps(ModelKind::MobileNet), MOBILENET_B1_PLAN);
    assert_eq!(steps(ModelKind::ResNet18), RESNET18_B1_PLAN);
}

/// Selection leaves no convolution on the direct floor: in the paper's
/// three models at batch 1 and 8, every conv a step runs — a residual
/// block's children included, under the block's one config — resolves
/// to a faster row. Only a user override or a guard demotion puts a
/// conv there.
#[test]
fn no_selected_step_runs_a_conv_on_the_direct_floor() {
    use cnn_stack::models::ModelKind;
    use cnn_stack::nn::AlgoChoice;
    for kind in ModelKind::all() {
        for batch in [1, 8] {
            let mut model = kind.build_width(10, 1.0);
            let plan = model
                .compile_plan(batch, &ExecConfig::serial(), &PlanCompiler::standard())
                .unwrap();
            let mut convs = 0;
            for step in plan.steps() {
                model.network.layers_mut()[step.layer].visit_mut(&mut |layer| {
                    if let Some(conv) = layer.as_any().downcast_ref::<Conv2d>() {
                        convs += 1;
                        assert_ne!(
                            conv.runs(&step.cfg),
                            AlgoChoice::DirectConv,
                            "{} at batch {batch}: {} in {}",
                            kind.name(),
                            conv.name(),
                            step.name
                        );
                    }
                });
            }
            assert!(convs > 0, "{}", kind.name());
        }
    }
}

/// Under a memory budget the solver must walk the conv off its fastest
/// kernel onto Winograd F(4×4) — the fastest candidate with a strictly
/// smaller workspace — rather than all the way down to the direct
/// kernel. On 4×4 planes at batch 8 F(2×2) wins unbudgeted, and
/// F(4×4)'s eight whole tiles need less workspace than F(2×2)'s 32.
#[test]
fn budget_solver_prefers_winograd4_over_direct_as_refuge() {
    let shape = [8usize, 64, 4, 4];
    let conv = || {
        Network::new(vec![
            Box::new(Conv2d::new(64, 64, 3, 1, 1, 5)) as Box<dyn cnn_stack::nn::Layer>
        ])
        .unwrap()
    };
    let free_plan = PlanCompiler::standard()
        .run(&mut conv(), &shape, &ExecConfig::serial())
        .unwrap();
    assert_eq!(free_plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Winograd);
    let free_peak = free_plan.footprint().peak_bytes;

    let capped = ExecConfig::builder()
        .plan_budget(free_peak - 1)
        .build()
        .unwrap();
    let mut net = conv();
    let plan = PlanCompiler::standard()
        .run(&mut net, &shape, &capped)
        .unwrap();
    let step = &plan.steps()[0];
    assert_eq!(
        step.cfg.conv_algo,
        ConvAlgorithm::WinogradF4,
        "the budget refuge should be F(4×4), not direct; step: {}",
        step.name
    );
    assert!(plan.footprint().peak_bytes < free_peak);

    // The demoted plan still computes the right function.
    let input = deterministic_input(shape);
    let want = conv().forward(&input, Phase::Eval, &ExecConfig::serial());
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    let got = session.run(&input).unwrap();
    let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (g, r) in got.data().iter().zip(want.data()) {
        assert!((g - r).abs() <= 1e-3 * scale.max(1.0));
    }
}

/// Under a 4 MiB budget, batch-8 VGG-16 moves only the layers whose
/// workspace sets the peak: conv1_2 to direct and the conv2 pair to
/// im2col. The greedy rounds also move layers whose demotion alone
/// lowers no peak; the solver hands those back once the plan fits, so
/// conv3_x, conv4_x and both linears keep their unbudgeted kernels.
#[test]
fn vgg16_4mb_budget_moves_only_the_layers_that_set_the_peak() {
    let compile = |cfg: &ExecConfig| {
        let mut model = cnn_stack::models::vgg16(10);
        let plan = model
            .compile_plan(8, cfg, &PlanCompiler::standard())
            .unwrap();
        let names: Vec<String> = plan.steps().iter().map(|s| s.name.clone()).collect();
        (plan.footprint().peak_bytes, names)
    };
    let (_, free) = compile(&ExecConfig::serial());
    let capped = ExecConfig::builder().plan_budget(4 << 20).build().unwrap();
    let (peak, solved) = compile(&capped);
    assert!(peak <= 4 << 20, "peak {peak} B");
    let moved: Vec<&str> = free
        .iter()
        .zip(&solved)
        .filter(|(f, s)| f != s)
        .map(|(_, s)| s.as_str())
        .collect();
    assert_eq!(
        moved,
        [
            "conv3x3(64->64)/s1 + bn + relu [direct]",
            "conv3x3(64->128)/s1 + bn + relu [im2col-packed]",
            "conv3x3(128->128)/s1 + bn + relu [im2col-packed]",
        ]
    );
}
