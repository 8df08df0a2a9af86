//! End-to-end evaluation of one stack configuration: the experiment cell
//! behind every bar of Figs. 4–6 and every entry of Tables IV/VI.

use crate::build::try_materialise;
use crate::config::StackConfig;
use cnn_stack_hwsim::{network_energy, network_time, EnergyModel, SimConfig};
use cnn_stack_nn::memory::{network_memory, MemoryBreakdown};
use cnn_stack_nn::{
    ConvAlgorithm, Error, ExecConfig, HealthReport, InferenceSession, PlanCompiler,
};
use cnn_stack_obs::{self as obs, MetricsSnapshot, Observer};
use cnn_stack_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// One evaluated cell of the experiment grid.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Modelled inference time on the configured platform, seconds.
    pub modelled_s: f64,
    /// Wall-clock time of a real host execution (functional validation),
    /// if one was requested.
    pub measured_host_s: Option<f64>,
    /// Runtime memory footprint (paper accounting), megabytes.
    pub memory_mb: f64,
    /// Modelled energy per inference on the configured platform, joules.
    pub energy_j: f64,
    /// Memory breakdown.
    pub memory: MemoryBreakdown,
    /// Predicted top-1 accuracy, percent.
    pub accuracy_pct: f64,
    /// Dense MAC count of the materialised network.
    pub macs: u64,
    /// Effective (stored-non-zero) MACs.
    pub effective_macs: u64,
    /// Overall weight sparsity in `[0, 1]`.
    pub sparsity: f64,
    /// Runtime health of the host execution: guards tripped, panics
    /// contained, and kernel demotions. Always clean for
    /// modelled-only evaluations (no host run happens).
    pub health: HealthReport,
    /// One line per compiled host-plan step — `name [span] conv/gemm`
    /// with a `+relu` suffix for fused epilogues. Empty when no host run
    /// was requested. This is where the per-layer choices of the plan
    /// compiler become visible.
    pub plan_steps: Vec<String>,
    /// Snapshot of every observability instrument recorded during the
    /// evaluation (GEMM calls/FLOPs, im2col traffic, pool activity,
    /// guard scans, engine steps), when [`StackConfig::obs`] was above
    /// `Off`. `None` with observability off.
    pub metrics: Option<MetricsSnapshot>,
}

/// Evaluates `cfg` with the analytic platform model only (no host
/// execution). Uses the full-width model.
pub fn evaluate(cfg: &StackConfig) -> CellResult {
    evaluate_with(cfg, 1.0, false)
}

/// Evaluates `cfg` at a given width multiplier (panicking shim over
/// [`try_evaluate_with`]).
///
/// # Panics
///
/// Panics if the configuration is invalid or the host execution fails
/// even after guarded recovery.
pub fn evaluate_with(cfg: &StackConfig, width: f64, measure_host: bool) -> CellResult {
    try_evaluate_with(cfg, width, measure_host).expect("stack configuration is valid")
}

/// Evaluates `cfg` at a given width multiplier, optionally also running
/// one real forward pass on the build host for functional validation
/// (`measure_host`). Host measurement uses the configured thread count,
/// convolution algorithm and guard level; the session's
/// [`HealthReport`] — guard trips, contained panics, kernel
/// demotions — is attached to the returned cell.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for out-of-range operating points,
/// or the session error if the host execution fails beyond what guarded
/// degradation can recover.
pub fn try_evaluate_with(
    cfg: &StackConfig,
    width: f64,
    measure_host: bool,
) -> Result<CellResult, Error> {
    let mut model = try_materialise(cfg, width)?;
    let input_shape = [1usize, 3, 32, 32];
    let descs = model.network.descriptors(&input_shape);

    let platform = cfg.platform.platform();
    let sim = SimConfig {
        threads: cfg.threads,
        backend: cfg.backend,
        im2col: matches!(cfg.algorithm, ConvAlgorithm::Im2col),
    };
    let energy = network_energy(
        &platform,
        &EnergyModel::for_platform(&platform),
        &descs,
        &sim,
    );

    let memory = network_memory(&descs, matches!(cfg.algorithm, ConvAlgorithm::Im2col));

    // One observer covers the whole cell: the host session's (so kernel
    // metrics, engine spans, and the modelled-timing spans land in the
    // same registry/ring), or a standalone one for modelled-only cells.
    let observer: Option<Arc<Observer>>;
    let (measured_host_s, health, plan_steps) = if measure_host {
        let exec = ExecConfig {
            threads: cfg.threads,
            conv_algo: cfg.algorithm,
            observer: cfg.obs,
            // Deployed plans must fit the target's memory envelope: an
            // explicit stack budget wins, else the platform's default
            // (a quarter of installed RAM).
            plan_budget: Some(
                cfg.plan_budget
                    .unwrap_or_else(|| platform.arena_budget_bytes()),
            ),
            ..ExecConfig::serial()
        };
        // Compile once, execute via the arena-backed session: the timed
        // pass then measures arithmetic, not per-layer allocation.
        let plan = PlanCompiler::standard().run(&mut model.network, &input_shape, &exec)?;
        let plan_steps = plan.steps().iter().map(|s| s.label(&s.cfg)).collect();
        let mut session = InferenceSession::with_guard(&mut model.network, plan, cfg.guard)?;
        observer = session.observer().cloned();
        let input = Tensor::zeros(input_shape.to_vec());
        let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
        // Warm once, then time one pass.
        session.run_into(&input, &mut out)?;
        let start = Instant::now();
        session.run_into(&input, &mut out)?;
        let elapsed = start.elapsed().as_secs_f64();
        (Some(elapsed), session.health().clone(), plan_steps)
    } else {
        observer = Observer::for_level(cfg.obs);
        (None, HealthReport::default(), Vec::new())
    };

    // The modelled timing records its per-layer spans through the
    // thread-local observer, so install ours for the call's duration.
    let (modelled_s, _) = {
        let _tls = observer.as_ref().map(|o| obs::install(o.clone()));
        network_time(&platform, &descs, &sim)
    };
    let metrics = observer.as_ref().map(|o| o.snapshot());

    let macs: u64 = descs.iter().map(|d| d.macs).sum();
    let effective_macs: u64 = descs.iter().map(|d| d.effective_macs()).sum();

    Ok(CellResult {
        modelled_s,
        measured_host_s,
        memory_mb: memory.total_mb(),
        energy_j: energy.total(),
        memory,
        accuracy_pct: cfg.predicted_accuracy(),
        macs,
        effective_macs,
        sparsity: model.network.weight_sparsity(&input_shape),
        health,
        plan_steps,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompressionChoice, PlatformChoice};
    use cnn_stack_models::ModelKind;

    #[test]
    fn plain_cell_has_baseline_accuracy_and_positive_time() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7);
        let cell = evaluate(&cfg);
        assert!((cell.accuracy_pct - 92.20).abs() < 1e-9);
        assert!(cell.modelled_s > 0.5 && cell.modelled_s < 3.0);
        assert!(cell.memory_mb > 30.0);
        assert!(cell.energy_j > 0.0);
        assert_eq!(cell.macs, cell.effective_macs);
        assert!(cell.measured_host_s.is_none());
    }

    #[test]
    fn channel_pruning_cell_is_faster_and_smaller() {
        let plain = evaluate(&StackConfig::plain(
            ModelKind::Vgg16,
            PlatformChoice::IntelI7,
        ));
        let cp = evaluate(
            &StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7).compress(
                CompressionChoice::ChannelPruning {
                    compression_pct: 88.48,
                },
            ),
        );
        assert!(cp.modelled_s < plain.modelled_s * 0.5);
        assert!(cp.memory_mb < plain.memory_mb * 0.5);
    }

    #[test]
    fn weight_pruning_cell_is_slower_but_sparser() {
        let plain = evaluate(&StackConfig::plain(
            ModelKind::ResNet18,
            PlatformChoice::OdroidXu4,
        ));
        let wp = evaluate(
            &StackConfig::plain(ModelKind::ResNet18, PlatformChoice::OdroidXu4).compress(
                CompressionChoice::WeightPruning {
                    sparsity_pct: 88.92,
                },
            ),
        );
        assert!(wp.sparsity > 0.8);
        assert!(wp.modelled_s >= plain.modelled_s * 0.95);
        // Per the paper's Table IV, the CSR footprint exceeds the dense one.
        assert!(wp.memory_mb > plain.memory_mb);
    }

    #[test]
    fn host_measurement_runs_when_requested() {
        let cfg = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::IntelI7);
        let cell = evaluate_with(&cfg, 0.1, true);
        let t = cell.measured_host_s.expect("host time requested");
        assert!(t > 0.0 && t < 30.0);
        assert!(cell.health.is_clean());
    }

    #[test]
    fn guarded_host_run_attaches_clean_health_report() {
        use cnn_stack_nn::GuardConfig;
        let cfg = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::IntelI7)
            .guard(GuardConfig::BoundaryCheck);
        let cell = try_evaluate_with(&cfg, 0.1, true).unwrap();
        assert!(cell.measured_host_s.is_some());
        assert!(cell.health.is_clean());
        assert_eq!(cell.health.demotions, vec![]);
    }

    #[test]
    fn host_cells_run_the_compiled_plan() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7);
        let cell = try_evaluate_with(&cfg, 0.1, true).unwrap();
        // Each conv+bn+relu triple is one step with a fused epilogue, and
        // no dense conv is left on the direct loop.
        let convs: Vec<&String> = cell
            .plan_steps
            .iter()
            .filter(|l| l.starts_with("conv"))
            .collect();
        assert_eq!(convs.len(), 13, "{:?}", cell.plan_steps);
        for line in convs {
            assert!(
                line.contains(" + bn + relu [") && line.ends_with("+relu"),
                "{line}"
            );
            assert!(!line.contains("[direct]"), "{line}");
        }
        assert!(cell.health.is_clean());
        assert!(cell.measured_host_s.is_some());
    }

    #[test]
    fn obs_metrics_snapshot_attaches_when_requested() {
        use cnn_stack_obs::ObsLevel;
        let base = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::IntelI7);
        // Off: no snapshot.
        let off = try_evaluate_with(&base, 0.1, true).unwrap();
        assert!(off.metrics.is_none());
        // Metrics on a host run: kernel and engine instruments advance.
        let cell = try_evaluate_with(&base.obs(ObsLevel::Metrics), 0.1, true).unwrap();
        let m = cell.metrics.expect("metrics requested");
        assert!(m.counter("engine.runs_completed").unwrap() >= 2); // warm-up + timed
        assert!(m.counter("engine.steps_executed").unwrap() > 0);
        assert!(m.counter("gemm.calls").unwrap() > 0);
        // Modelled-only cells still carry a (quiet) snapshot.
        let modelled = try_evaluate_with(&base.obs(ObsLevel::Metrics), 0.1, false).unwrap();
        let m = modelled.metrics.expect("metrics requested");
        assert_eq!(m.counter("engine.runs_completed"), Some(0));
    }

    #[test]
    fn invalid_operating_point_is_an_error_not_a_panic() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7).compress(
            CompressionChoice::WeightPruning {
                sparsity_pct: 150.0,
            },
        );
        assert!(try_evaluate_with(&cfg, 0.1, false).is_err());
    }
}
