//! Fault-injection tests for the guarded inference runtime: injected
//! kernel panics and corrupted activations/weights must be contained,
//! reported, and — where a safer kernel exists — recovered from by
//! demotion, without killing the process or poisoning the session.
//!
//! The whole suite only exists under `--features fault-inject`; the
//! default build compiles the injector down to a zero-sized no-op.
#![cfg(feature = "fault-inject")]

use cnn_stack::nn::network::set_network_format;
use cnn_stack::nn::{
    AlgoChoice, Conv2d, ConvAlgorithm, DemotionReason, DemotionRecord, Error, ExecConfig,
    FaultPlan, Flatten, GuardConfig, GuardViolation, InferencePlan, InferenceSession, Layer,
    Linear, Network, NonFiniteKind, ReLU, WeightFormat,
};
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;

/// A Winograd-eligible conv stack (3×3, stride 1) over an 8×8 input.
fn conv_stack(seed: u64) -> Network {
    Network::new(vec![
        Box::new(Conv2d::new(3, 6, 3, 1, 1, seed)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(6 * 8 * 8, 10, seed + 1)),
    ])
    .expect("stack is non-empty")
}

fn ramp_input(batch: usize) -> Tensor {
    Tensor::from_fn([batch, 3, 8, 8], |i| {
        ((i as u64 * 2654435761) % 211) as f32 * 0.01 - 1.0
    })
}

fn cfg_with(algo: ConvAlgorithm, threads: usize) -> ExecConfig {
    ExecConfig {
        threads,
        conv_algo: algo,
        ..ExecConfig::serial()
    }
}

/// The registry edge a demotion record names.
fn edge(record: &DemotionRecord) -> (AlgoChoice, AlgoChoice) {
    (record.from, record.to)
}

fn run_reference(seed: u64, cfg: &ExecConfig, input: &Tensor) -> Tensor {
    let mut net = conv_stack(seed);
    let plan = InferencePlan::compile(&net, input.shape().dims(), cfg).unwrap();
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.run(input).unwrap()
}

/// The headline containment scenario: one Winograd conv invocation
/// panics on a 4-thread session. The session must contain the panic,
/// demote the step to im2col, re-run, and hand back a result
/// bit-identical to an all-im2col session — with the process alive and
/// the session reusable afterwards.
#[test]
fn winograd_kernel_panic_demotes_to_im2col_bit_identically() {
    let seed = 42;
    let input = ramp_input(8);
    let mut net = conv_stack(seed);
    let cfg = cfg_with(ConvAlgorithm::Winograd, 4);
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));

    let got = session.run(&input).expect("session recovers by demotion");

    let health = session.health().clone();
    assert_eq!(health.panics_contained, 1);
    assert_eq!(health.demotions.len(), 1);
    assert_eq!(health.demotions[0].layer_index, 0);
    assert_eq!(
        edge(&health.demotions[0]),
        (AlgoChoice::Winograd, AlgoChoice::Im2colPacked)
    );
    assert_eq!(health.demotions[0].reason, DemotionReason::KernelPanicked);

    // Bit-identical to a session that ran im2col from the start.
    let want = run_reference(seed, &cfg_with(ConvAlgorithm::Im2col, 4), &input);
    assert_eq!(got.shape().dims(), want.shape().dims());
    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);

    // The session is reusable: a second (fault-free) run still works
    // and still matches, and no new demotions are recorded.
    let again = session
        .run(&input)
        .expect("session survives the contained panic");
    assert_eq!(again.data(), want.data());
    assert_eq!(session.health().demotions.len(), 1);
    assert_eq!(session.profile().runs(), 2);
}

/// A panic inside the packed GEMM micro-kernel path demotes the step to
/// the direct convolution and re-runs, bit-identical to a session that
/// ran the direct kernel from the start.
#[test]
fn packed_gemm_panic_demotes_to_direct_bit_identically() {
    use cnn_stack::tensor::GemmAlgorithm;
    let seed = 23;
    let input = ramp_input(4);
    let mut net = conv_stack(seed);
    // Default gemm_algo is Packed; the conv runs im2col + packed panels.
    let cfg = cfg_with(ConvAlgorithm::Im2col, 1);
    assert_eq!(cfg.gemm_algo, GemmAlgorithm::Packed);
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let conv = net.layers()[0].as_any().downcast_ref::<Conv2d>().unwrap();
    assert_eq!(
        conv.runs(&plan.steps()[0].cfg),
        AlgoChoice::Im2colPacked,
        "the conv step runs im2col on the packed engine"
    );
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));

    let got = session.run(&input).expect("session recovers by demotion");

    let health = session.health().clone();
    assert_eq!(health.panics_contained, 1);
    assert_eq!(health.demotions.len(), 1);
    assert_eq!(health.demotions[0].layer_index, 0);
    assert_eq!(
        edge(&health.demotions[0]),
        (AlgoChoice::Im2colPacked, AlgoChoice::DirectConv)
    );
    assert_eq!(health.demotions[0].reason, DemotionReason::KernelPanicked);

    // Bit-identical to the demoted configuration run layer by layer:
    // only the conv fell back to the direct kernel, the linear stays
    // packed. All `eval_*_into` kernels are shared verbatim between
    // `forward` and the arena engine, so this reference is exact.
    let want = {
        use cnn_stack::nn::Phase;
        let mut rnet = conv_stack(seed);
        let direct_cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Direct,
            ..cfg
        };
        let layers = rnet.layers_mut();
        let mut x = layers[0].forward(&input, Phase::Eval, &direct_cfg);
        for layer in &mut layers[1..] {
            x = layer.forward(&x, Phase::Eval, &cfg);
        }
        x
    };
    assert_eq!(got.shape().dims(), want.shape().dims());
    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);

    // A second fault-free run stays on the demoted configuration with no
    // new demotions.
    let again = session.run(&input).expect("demoted session is stable");
    let again_bits: Vec<u32> = again.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, again_bits);
    assert_eq!(session.health().demotions.len(), 1);
}

/// A guard trip on a CSR conv densifies the step and re-runs.
#[test]
fn guard_trip_on_csr_conv_demotes_to_dense() {
    let input = ramp_input(2);
    let mut net = conv_stack(7);
    set_network_format(&mut net, WeightFormat::Csr);
    let cfg = cfg_with(ConvAlgorithm::Im2col, 1);
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
    session.inject_faults(FaultPlan::new().nan_output(0, 0));

    let got = session.run(&input).expect("session recovers by densifying");

    let health = session.health();
    assert_eq!(health.guards_tripped, 1);
    assert_eq!(health.demotions.len(), 1);
    assert_eq!(health.demotions[0].layer_index, 0);
    assert_eq!(
        edge(&health.demotions[0]),
        (AlgoChoice::CsrConv, AlgoChoice::Im2colPacked)
    );
    assert_eq!(health.demotions[0].reason, DemotionReason::GuardTripped);
    assert!(got.data().iter().all(|v| v.is_finite()));
}

/// Without a demotion lever the guard trip is a hard, named error: the
/// report points at exactly the injected layer, and the session stays
/// usable afterwards.
#[test]
fn nan_without_lever_names_first_offending_layer() {
    let input = Tensor::from_fn([2, 16], |i| i as f32 * 0.25 - 2.0);
    let mut net = Network::new(vec![
        Box::new(ReLU::new()) as Box<dyn Layer>,
        Box::new(ReLU::new()),
        Box::new(ReLU::new()),
    ])
    .unwrap();
    let cfg = ExecConfig::serial();
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
    session.inject_faults(FaultPlan::new().nan_output(1, 0));

    let err = session.run(&input).unwrap_err();
    match err {
        Error::GuardTripped(report) => {
            assert_eq!(report.layer_index, 1);
            assert!(matches!(
                report.violation,
                GuardViolation::NonFiniteActivation {
                    kind: NonFiniteKind::Nan,
                    first_index: 0,
                    ..
                }
            ));
        }
        other => panic!("expected GuardTripped, got {other:?}"),
    }
    assert_eq!(session.health().guards_tripped, 1);

    // The fault was one-shot; the session is not poisoned.
    let y = session
        .run(&input)
        .expect("session survives the guard trip");
    assert!(y.data().iter().all(|v| v.is_finite()));
}

/// Injected infinities are classified separately from NaNs.
#[test]
fn inf_injection_is_reported_as_positive_infinity() {
    let input = Tensor::from_fn([1, 8], |i| i as f32);
    let mut net = Network::new(vec![Box::new(ReLU::new()) as Box<dyn Layer>]).unwrap();
    let plan = InferencePlan::compile(&net, input.shape().dims(), &ExecConfig::serial()).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
    session.inject_faults(FaultPlan::new().inf_output(0, 0));

    match session.run(&input).unwrap_err() {
        Error::GuardTripped(report) => {
            assert_eq!(report.layer_index, 0);
            assert!(matches!(
                report.violation,
                GuardViolation::NonFiniteActivation {
                    kind: NonFiniteKind::PosInf,
                    ..
                }
            ));
        }
        other => panic!("expected GuardTripped, got {other:?}"),
    }
}

/// Two batch chunks fail in one attempt: chunk 1's image carries +Inf
/// that trips the guard at step 0, while an injected NaN trips chunk 0
/// (on the calling thread) at step 2. The report names the earliest
/// offending step and the chunk that saw it, whatever order the chunks
/// finish in.
#[test]
fn earliest_offending_step_is_reported_across_chunks() {
    let input = Tensor::from_fn(
        [2, 16],
        |i| if i == 16 + 3 { f32::INFINITY } else { i as f32 },
    );
    let mut net = Network::new(vec![
        Box::new(ReLU::new()) as Box<dyn Layer>,
        Box::new(ReLU::new()),
        Box::new(ReLU::new()),
    ])
    .unwrap();
    let cfg = ExecConfig {
        threads: 2,
        ..ExecConfig::serial()
    };
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
    session.inject_faults(FaultPlan::new().nan_output(2, 0));

    match session.run(&input).unwrap_err() {
        Error::GuardTripped(report) => {
            assert_eq!(report.layer_index, 0);
            assert_eq!(report.chunk, Some(1));
            assert!(matches!(
                report.violation,
                GuardViolation::NonFiniteActivation {
                    kind: NonFiniteKind::PosInf,
                    first_index: 3,
                    count: 1,
                }
            ));
        }
        other => panic!("expected GuardTripped, got {other:?}"),
    }
    assert_eq!(session.health().guards_tripped, 1);
}

/// Flipping the sign bit of one weight perturbs exactly that weight (the
/// injector writes through the same parameter path real corruption
/// would take) and changes the output.
#[test]
fn weight_bit_flip_perturbs_the_network() {
    let seed = 5;
    let input = ramp_input(1);
    let clean = run_reference(seed, &ExecConfig::serial(), &input);

    let mut net = conv_stack(seed);
    let w_before = net.layers()[0]
        .as_any()
        .downcast_ref::<Conv2d>()
        .unwrap()
        .weight()
        .value
        .data()[3];
    assert!(w_before != 0.0, "seeded weight should be non-zero");

    let plan = InferencePlan::compile(&net, input.shape().dims(), &ExecConfig::serial()).unwrap();
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.inject_faults(FaultPlan::new().bit_flip_weight(0, 0, 3, 31));
    let corrupted = session.run(&input).unwrap();
    assert_ne!(corrupted.data(), clean.data());
    drop(session);

    let w_after = net.layers()[0]
        .as_any()
        .downcast_ref::<Conv2d>()
        .unwrap()
        .weight()
        .value
        .data()[3];
    assert_eq!(w_after, -w_before, "bit 31 is the sign bit");
}

/// Paranoid mode catches a bit-flip that lands in the exponent and
/// produces a non-finite weight, before any kernel consumes it.
#[test]
fn paranoid_mode_catches_weight_corruption_before_running() {
    let input = ramp_input(1);
    let mut net = conv_stack(3);
    // Force a weight whose exponent flip turns it non-finite: f32::MAX
    // has exponent 0xFE, so flipping the exponent's low bit (bit 23)
    // yields exponent 0xFF — a NaN/Inf encoding.
    {
        let conv = net.layers_mut()[0]
            .as_any_mut()
            .downcast_mut::<Conv2d>()
            .unwrap();
        conv.weight_mut().value.data_mut()[0] = f32::MAX;
    }
    let plan = InferencePlan::compile(&net, input.shape().dims(), &ExecConfig::serial()).unwrap();
    let mut session = InferenceSession::with_guard(&mut net, plan, GuardConfig::Paranoid).unwrap();
    session.inject_faults(FaultPlan::new().bit_flip_weight(0, 0, 0, 23));

    match session.run(&input).unwrap_err() {
        Error::GuardTripped(report) => {
            assert_eq!(report.layer_index, 0);
            assert!(matches!(
                report.violation,
                GuardViolation::NonFiniteWeight {
                    param: 0,
                    first_index: 0
                }
            ));
        }
        other => panic!("expected GuardTripped, got {other:?}"),
    }
}

/// The paranoid scan reads what the kernels read: on layers that run
/// f32 panels with their master dropped (the conv's A panels, the
/// linear layer's transposed B panels), a flip that makes one weight
/// NaN is named by its master index, and the re-prepare after the
/// injection drops the rebuilt master again.
#[test]
fn paranoid_mode_names_a_panel_layers_corrupt_weight_by_master_index() {
    let input = ramp_input(1);
    let cfg = cfg_with(ConvAlgorithm::Im2col, 1);
    for (layer, elem) in [(0, 7), (3, 100)] {
        let mut net = conv_stack(3);
        net.params_mut()[layer / 3 * 2].value.data_mut()[elem] = f32::MAX;
        let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::Paranoid).unwrap();
        let storage = session.network().weight_storage();
        assert!(storage
            .iter()
            .all(|s| s.master.is_none() && s.forms[1].is_some()));
        session.inject_faults(FaultPlan::new().bit_flip_weight(layer, 0, elem, 23));
        let storage = session.network().weight_storage();
        assert!(storage.iter().all(|s| s.master.is_none()), "{storage:?}");
        match session.run(&input).unwrap_err() {
            Error::GuardTripped(report) => {
                assert_eq!(report.layer_index, layer);
                assert!(
                    matches!(
                        report.violation,
                        GuardViolation::NonFiniteWeight { param: 0, first_index } if first_index == elem
                    ),
                    "{:?}",
                    report.violation
                );
            }
            other => panic!("expected GuardTripped, got {other:?}"),
        }
        assert_eq!(
            session.network().weight_storage(),
            storage,
            "the scan rebuilt a master"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under boundary checking, a NaN injected at layer `k` of a random
    /// elementwise stack is always attributed to layer `k` — never to a
    /// downstream consumer that happens to propagate (or flush) it.
    #[test]
    fn injected_nan_is_always_attributed_to_its_layer(
        (depth, k) in (1usize..6).prop_flat_map(|d| (Just(d), 0..d)),
        elems in 1usize..64,
        batch in 1usize..4,
    ) {
        let layers: Vec<Box<dyn Layer>> =
            (0..depth).map(|_| Box::new(ReLU::new()) as Box<dyn Layer>).collect();
        let mut net = Network::new(layers).unwrap();
        let input = Tensor::from_fn([batch, elems], |i| i as f32 * 0.5 - 4.0);
        let plan =
            InferencePlan::compile(&net, input.shape().dims(), &ExecConfig::serial()).unwrap();
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
        session.inject_faults(FaultPlan::new().nan_output(k, 0));

        match session.run(&input).unwrap_err() {
            Error::GuardTripped(report) => prop_assert_eq!(report.layer_index, k),
            other => prop_assert!(false, "expected GuardTripped, got {:?}", other),
        }
    }

    /// With guards off (and no faults), the guarded session's output is
    /// bitwise identical to the raw allocating forward pass; boundary
    /// checking observes without perturbing.
    #[test]
    fn guard_levels_never_change_the_output(
        seed in 0u64..1000,
        batch in 1usize..5,
        threads in 1usize..4,
    ) {
        use cnn_stack::nn::Phase;
        let cfg = cfg_with(ConvAlgorithm::Im2col, threads);
        let input = ramp_input(batch);
        let mut net = conv_stack(seed);
        let expected = net.forward(&input, Phase::Eval, &cfg);
        for guard in [GuardConfig::Off, GuardConfig::BoundaryCheck, GuardConfig::Paranoid] {
            let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
            let mut session = InferenceSession::with_guard(&mut net, plan, guard).unwrap();
            let got = session.run(&input).unwrap();
            prop_assert!(session.health().is_clean());
            let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = expected.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
        }
    }
}

/// Demotion must keep correctness even when the safer kernel needs more
/// memory than the plan's budget: the session re-runs liveness sizing
/// after the rebuild and, when the demoted plan no longer fits, surfaces
/// a typed budget-breach health event instead of failing the run.
#[test]
fn demotion_past_the_budget_surfaces_a_breach_event() {
    // A wide-input conv: the im2col patch matrix (in_c·k² = 144 rows per
    // output position) needs a packing workspace far larger than any
    // activation, while the Winograd step carries no arena workspace.
    fn wide_stack(seed: u64) -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(16, 4, 3, 1, 1, seed)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 8 * 8, 10, seed + 1)),
        ])
        .expect("stack is non-empty")
    }
    let seed = 314;
    let input = Tensor::from_fn([4, 16, 8, 8], |i| {
        ((i as u64 * 2654435761) % 211) as f32 * 0.01 - 1.0
    });

    // The Winograd plan's peak is a budget the im2col fallback cannot
    // fit: its packing workspace dwarfs every activation buffer.
    let wino_cfg = cfg_with(ConvAlgorithm::Winograd, 1);
    let wino_peak = InferencePlan::compile(&wide_stack(seed), input.shape().dims(), &wino_cfg)
        .unwrap()
        .footprint()
        .peak_bytes;
    let im2col_peak = InferencePlan::compile(
        &wide_stack(seed),
        input.shape().dims(),
        &cfg_with(ConvAlgorithm::Im2col, 1),
    )
    .unwrap()
    .footprint()
    .peak_bytes;
    assert!(
        im2col_peak > wino_peak,
        "im2col needs a packing workspace Winograd does not ({im2col_peak} vs {wino_peak})"
    );

    // Admission passes: the Winograd plan fits its budget exactly.
    let mut net = wide_stack(seed);
    let cfg = ExecConfig {
        plan_budget: Some(wino_peak),
        ..wino_cfg
    };
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));

    // The panic demotes Winograd -> im2col, whose workspace bursts the
    // envelope; the run still succeeds, bit-identical to pure im2col.
    let got = session.run(&input).expect("session recovers by demotion");
    let mut ref_net = wide_stack(seed);
    let ref_cfg = cfg_with(ConvAlgorithm::Im2col, 1);
    let ref_plan = InferencePlan::compile(&ref_net, input.shape().dims(), &ref_cfg).unwrap();
    let want = InferenceSession::new(&mut ref_net, ref_plan)
        .unwrap()
        .run(&input)
        .unwrap();
    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);

    let health = session.health().clone();
    assert_eq!(health.demotions.len(), 1);
    assert_eq!(
        health.budget_breaches.len(),
        1,
        "the rebuilt plan re-ran liveness sizing and reported the breach"
    );
    let breach = &health.budget_breaches[0];
    assert_eq!(breach.layer_index, 0);
    assert_eq!(breach.budget_bytes, wino_peak);
    assert!(
        breach.peak_bytes > breach.budget_bytes,
        "breach records the new, larger peak ({} vs budget {})",
        breach.peak_bytes,
        breach.budget_bytes
    );
}

/// One non-finite trip on a Winograd F(4×4) conv takes a single rung:
/// down to F(2×2), whose result must be bit-identical to a session that
/// ran F(2×2) from the start — also on a layer *labelled* `Ternary`
/// (dense master weights, no ternary conv snapshot for these random
/// weights), where both transforms apply exactly as on `Dense`: the
/// rung the health report names is the kernel that runs, not the
/// direct loop.
#[test]
fn winograd4_guard_trip_demotes_one_rung_to_winograd2() {
    let seed = 83;
    let input = ramp_input(2);
    let want = run_reference(seed, &cfg_with(ConvAlgorithm::Winograd, 1), &input);
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    for format in [WeightFormat::Dense, WeightFormat::Ternary] {
        let mut net = conv_stack(seed);
        set_network_format(&mut net, format);
        let cfg = cfg_with(ConvAlgorithm::WinogradF4, 1);
        let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
        let mut session =
            InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
        session.inject_faults(FaultPlan::new().nan_output(0, 0));

        let got = session.run(&input).expect("session recovers by demotion");

        let health = session.health().clone();
        assert_eq!(health.guards_tripped, 1);
        assert_eq!(health.demotions.len(), 1);
        assert_eq!(health.demotions[0].layer_index, 0);
        assert_eq!(
            edge(&health.demotions[0]),
            (AlgoChoice::WinogradF4, AlgoChoice::Winograd)
        );
        assert_eq!(health.demotions[0].reason, DemotionReason::GuardTripped);

        let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits, "{format:?}");
    }
}

/// Two consecutive non-finite trips walk the full Winograd ladder:
/// F(4×4) → F(2×2) → im2col, recording both rungs in order, with the
/// final result bit-identical to an all-im2col session.
#[test]
fn winograd4_double_trip_walks_ladder_to_im2col() {
    let seed = 97;
    let input = ramp_input(2);
    let mut net = conv_stack(seed);
    let cfg = cfg_with(ConvAlgorithm::WinogradF4, 1);
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut net, plan, GuardConfig::BoundaryCheck).unwrap();
    // Two one-shot faults on the same layer: the first poisons the
    // F(4×4) attempt, the second poisons the demoted F(2×2) retry.
    session.inject_faults(FaultPlan::new().nan_output(0, 0).nan_output(0, 0));

    let got = session.run(&input).expect("session recovers by demotion");

    let health = session.health().clone();
    assert_eq!(health.guards_tripped, 2);
    assert_eq!(health.demotions.len(), 2);
    assert_eq!(
        edge(&health.demotions[0]),
        (AlgoChoice::WinogradF4, AlgoChoice::Winograd)
    );
    assert_eq!(
        edge(&health.demotions[1]),
        (AlgoChoice::Winograd, AlgoChoice::Im2colPacked)
    );
    assert!(health
        .demotions
        .iter()
        .all(|d| d.layer_index == 0 && d.reason == DemotionReason::GuardTripped));

    let want = run_reference(seed, &cfg_with(ConvAlgorithm::Im2col, 1), &input);
    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);
    assert!(got.data().iter().all(|v| v.is_finite()));
}

/// A demotion record names the kernel that ran, not the cfg field that
/// asked for another: a 1×1 convolution compiled under
/// `ConvAlgorithm::WinogradF4` runs the direct loop — the conv floor —
/// so a contained panic there has no rung to take and surfaces typed,
/// exactly as it does for the same layer compiled under `Direct`.
#[test]
fn pointwise_conv_under_winograd_cfg_has_no_phantom_rung() {
    let input = Tensor::from_fn([2, 3, 8, 8], |i| (i % 13) as f32 * 0.1 - 0.6);
    for algo in [ConvAlgorithm::WinogradF4, ConvAlgorithm::Direct] {
        let mut net = Network::new(vec![Box::new(Conv2d::new(3, 4, 1, 1, 0, 9))]).unwrap();
        let cfg = cfg_with(algo, 1);
        let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));

        let err = session.run(&input).unwrap_err();
        assert!(
            matches!(err, Error::KernelPanicked { layer: 0, .. }),
            "{algo:?}: {err:?}"
        );
        let health = session.health();
        assert_eq!(health.panics_contained, 1, "{algo:?}");
        assert!(
            health.demotions.is_empty(),
            "{algo:?}: {:?}",
            health.demotions
        );
        // The fault was one-shot; the session is not poisoned.
        session.run(&input).expect("session stays usable");
    }
}

/// A `TernaryPacked` cfg over weights that are not exactly ternary runs
/// the f32 packed kernel, so a failure there demotes straight to the
/// direct floor — not through a quantised→packed rung that would
/// re-run the very kernel that failed.
#[test]
fn ternary_cfg_over_non_ternary_weights_demotes_straight_to_direct() {
    use cnn_stack::tensor::GemmAlgorithm;
    let seed = 29;
    let input = ramp_input(2);
    let mut net = conv_stack(seed);
    set_network_format(&mut net, WeightFormat::Ternary);
    let cfg = ExecConfig {
        gemm_algo: GemmAlgorithm::TernaryPacked,
        ..cfg_with(ConvAlgorithm::Im2col, 1)
    };
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));

    let got = session.run(&input).expect("session recovers by demotion");

    let health = session.health().clone();
    assert_eq!(health.demotions.len(), 1);
    assert_eq!(
        edge(&health.demotions[0]),
        (AlgoChoice::Im2colPacked, AlgoChoice::DirectConv)
    );
    // Bit-identical to the conv on the direct kernel from the start.
    let want = {
        use cnn_stack::nn::Phase;
        let mut rnet = conv_stack(seed);
        let direct_cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Direct,
            ..cfg
        };
        let layers = rnet.layers_mut();
        let mut x = layers[0].forward(&input, Phase::Eval, &direct_cfg);
        for layer in &mut layers[1..] {
            x = layer.forward(&x, Phase::Eval, &cfg);
        }
        x
    };
    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);
}

/// The quantised rung with weights that *are* exactly ternary: the
/// ternary kernel ran, so the step moves to the f32 packed kernel on the
/// same values — bit-identical to the healthy quantised run.
#[test]
fn ternary_kernel_panic_demotes_to_f32_packed_bit_identically() {
    use cnn_stack::tensor::GemmAlgorithm;
    fn ternary_stack() -> Network {
        let mut net = conv_stack(31);
        for layer in net.layers_mut() {
            if let Some(w) = layer.params_mut().first_mut() {
                for v in w.value.data_mut() {
                    *v = match *v {
                        x if x > 0.05 => 0.5,
                        x if x < -0.05 => -0.25,
                        _ => 0.0,
                    };
                }
            }
        }
        set_network_format(&mut net, WeightFormat::Ternary);
        net
    }
    let input = ramp_input(2);
    let cfg = ExecConfig {
        gemm_algo: GemmAlgorithm::TernaryPacked,
        ..cfg_with(ConvAlgorithm::Im2col, 1)
    };
    let mut healthy = ternary_stack();
    let plan = InferencePlan::compile(&healthy, input.shape().dims(), &cfg).unwrap();
    let want = InferenceSession::new(&mut healthy, plan)
        .unwrap()
        .run(&input)
        .unwrap();

    let mut net = ternary_stack();
    let plan = InferencePlan::compile(&net, input.shape().dims(), &cfg).unwrap();
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));
    let got = session.run(&input).expect("session recovers by demotion");

    let health = session.health().clone();
    assert_eq!(health.demotions.len(), 1);
    assert_eq!(
        edge(&health.demotions[0]),
        (AlgoChoice::TernaryConv, AlgoChoice::Im2colPacked)
    );
    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);
}
