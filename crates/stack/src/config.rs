//! Stack configuration: one choice per layer of the paper's Table I.

use cnn_stack_compress::Technique;
use cnn_stack_hwsim::{intel_i7, odroid_xu4, Backend, Platform};
use cnn_stack_models::ModelKind;
use cnn_stack_nn::{ConvAlgorithm, GuardConfig, WeightFormat};
use cnn_stack_obs::ObsLevel;

/// Layer 2 of the stack: the compression technique and its operating
/// point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompressionChoice {
    /// The uncompressed dense baseline ("Plain" in Fig. 4).
    Plain,
    /// Deep Compression weight pruning at a sparsity (percent).
    WeightPruning {
        /// Target weight sparsity in percent.
        sparsity_pct: f64,
    },
    /// Fisher channel pruning at a parameter compression rate (percent).
    ChannelPruning {
        /// Target parameter compression in percent.
        compression_pct: f64,
    },
    /// Trained ternary quantisation at a threshold.
    TernaryQuantisation {
        /// TTQ threshold `t` (the paper sweeps 0–0.20).
        threshold: f64,
    },
}

impl CompressionChoice {
    /// The paper technique this choice instantiates (`None` for plain).
    pub fn technique(&self) -> Option<Technique> {
        match self {
            CompressionChoice::Plain => None,
            CompressionChoice::WeightPruning { .. } => Some(Technique::WeightPruning),
            CompressionChoice::ChannelPruning { .. } => Some(Technique::ChannelPruning),
            CompressionChoice::TernaryQuantisation { .. } => Some(Technique::TernaryQuantisation),
        }
    }

    /// The technique's operating point (`0.0` for plain).
    pub fn operating_point(&self) -> f64 {
        match *self {
            CompressionChoice::Plain => 0.0,
            CompressionChoice::WeightPruning { sparsity_pct } => sparsity_pct,
            CompressionChoice::ChannelPruning { compression_pct } => compression_pct,
            CompressionChoice::TernaryQuantisation { threshold } => threshold,
        }
    }

    /// The weight format the paper assigns to this technique (§V-C):
    /// CSR for the sparsity-inducing techniques, dense otherwise.
    pub fn paper_format(&self) -> WeightFormat {
        match self {
            CompressionChoice::WeightPruning { .. }
            | CompressionChoice::TernaryQuantisation { .. } => WeightFormat::Csr,
            _ => WeightFormat::Dense,
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            CompressionChoice::Plain => "Plain",
            CompressionChoice::WeightPruning { .. } => "Weight Pruning",
            CompressionChoice::ChannelPruning { .. } => "Channel Pruning",
            CompressionChoice::TernaryQuantisation { .. } => "Quantisation",
        }
    }
}

/// Layer 5 of the stack: which of the paper's platforms runs the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlatformChoice {
    /// The embedded heterogeneous board (§IV-E.1).
    OdroidXu4,
    /// The desktop CPU (§IV-E.2).
    IntelI7,
}

impl PlatformChoice {
    /// Both platforms, in the paper's order.
    pub fn all() -> [PlatformChoice; 2] {
        [PlatformChoice::OdroidXu4, PlatformChoice::IntelI7]
    }

    /// The platform descriptor.
    pub fn platform(&self) -> Platform {
        match self {
            PlatformChoice::OdroidXu4 => odroid_xu4(),
            PlatformChoice::IntelI7 => intel_i7(),
        }
    }
}

/// A complete across-stack configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StackConfig {
    /// Layer 1: the model.
    pub model: ModelKind,
    /// Layer 2: compression.
    pub compression: CompressionChoice,
    /// Layer 3: weight format (defaults to the paper's per-technique
    /// assignment) and convolution algorithm.
    pub format: WeightFormat,
    /// Layer 3: convolution lowering.
    pub algorithm: ConvAlgorithm,
    /// Layer 4: execution backend.
    pub backend: Backend,
    /// Layer 4: CPU thread count.
    pub threads: usize,
    /// Layer 5: target hardware.
    pub platform: PlatformChoice,
    /// Runtime guard level for host executions: [`GuardConfig::Off`]
    /// (the default) runs at full speed, `BoundaryCheck` validates
    /// activations at layer boundaries, `Paranoid` additionally scans
    /// inputs and weights before every run.
    pub guard: GuardConfig,
    /// Peak activation-arena bytes the host-execution plan may claim.
    /// `None` (the default) defers to the platform's envelope —
    /// [`Platform::arena_budget_bytes`], a quarter of installed RAM.
    pub plan_budget: Option<usize>,
    /// Observability level for the cell's evaluation:
    /// [`ObsLevel::Off`] (the default) records nothing,
    /// [`ObsLevel::Metrics`] attaches a metrics snapshot to the
    /// [`CellResult`](crate::runner::CellResult), [`ObsLevel::Trace`]
    /// additionally records spans for the modelled timing and every
    /// host-execution step.
    pub obs: ObsLevel,
}

impl StackConfig {
    /// The plain dense single-threaded baseline on a platform.
    pub fn plain(model: ModelKind, platform: PlatformChoice) -> Self {
        StackConfig {
            model,
            compression: CompressionChoice::Plain,
            format: WeightFormat::Dense,
            algorithm: ConvAlgorithm::Direct,
            backend: Backend::OpenMp,
            threads: 1,
            platform,
            guard: GuardConfig::Off,
            plan_budget: None,
            obs: ObsLevel::Off,
        }
    }

    /// Applies a compression choice, also selecting the paper's format
    /// for that technique (builder style).
    pub fn compress(mut self, choice: CompressionChoice) -> Self {
        self.compression = choice;
        self.format = choice.paper_format();
        self
    }

    /// Sets the thread count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread required");
        self.threads = threads;
        self
    }

    /// Sets the execution backend (builder style).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the weight format (builder style).
    pub fn format(mut self, format: WeightFormat) -> Self {
        self.format = format;
        self
    }

    /// Sets the runtime guard level for host executions (builder style).
    pub fn guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Caps the host plan's arena footprint (builder style), overriding
    /// the platform's default envelope.
    pub fn plan_budget(mut self, bytes: usize) -> Self {
        self.plan_budget = Some(bytes);
        self
    }

    /// Sets the observability level for evaluations (builder style).
    pub fn obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// Predicted top-1 accuracy (percent) of this configuration, from the
    /// calibrated response curves.
    pub fn predicted_accuracy(&self) -> f64 {
        use cnn_stack_compress::AccuracyModel;
        match self.compression.technique() {
            None => AccuracyModel::baseline(self.model),
            Some(t) => AccuracyModel::accuracy(self.model, t, self.compression.operating_point()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_defaults() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::OdroidXu4);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.format, WeightFormat::Dense);
        assert_eq!(cfg.compression.label(), "Plain");
        assert!((cfg.predicted_accuracy() - 92.20).abs() < 1e-9);
    }

    #[test]
    fn compress_assigns_paper_format() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7).compress(
            CompressionChoice::WeightPruning {
                sparsity_pct: 76.54,
            },
        );
        assert_eq!(cfg.format, WeightFormat::Csr);
        let cfg = cfg.compress(CompressionChoice::ChannelPruning {
            compression_pct: 88.48,
        });
        assert_eq!(cfg.format, WeightFormat::Dense);
    }

    #[test]
    fn operating_points_round_trip() {
        let c = CompressionChoice::TernaryQuantisation { threshold: 0.09 };
        assert_eq!(c.operating_point(), 0.09);
        assert_eq!(c.technique(), Some(Technique::TernaryQuantisation));
        assert_eq!(CompressionChoice::Plain.technique(), None);
    }

    #[test]
    fn platform_choices_materialise() {
        assert_eq!(PlatformChoice::OdroidXu4.platform().name, "Odroid-XU4");
        assert_eq!(PlatformChoice::IntelI7.platform().name, "Intel Core i7");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7).threads(0);
    }

    #[test]
    fn guard_level_defaults_off_and_is_configurable() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7);
        assert_eq!(cfg.guard, GuardConfig::Off);
        let cfg = cfg.guard(GuardConfig::BoundaryCheck);
        assert_eq!(cfg.guard, GuardConfig::BoundaryCheck);
    }

    #[test]
    fn plan_budget_defaults_to_the_platform_and_is_configurable() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7);
        assert_eq!(cfg.plan_budget, None);
        let cfg = cfg.plan_budget(4 << 20);
        assert_eq!(cfg.plan_budget, Some(4 << 20));
    }

    #[test]
    fn obs_level_defaults_off_and_is_configurable() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7);
        assert_eq!(cfg.obs, ObsLevel::Off);
        let cfg = cfg.obs(ObsLevel::Metrics);
        assert_eq!(cfg.obs, ObsLevel::Metrics);
    }
}
