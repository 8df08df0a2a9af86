//! The `Model` bundle: a network plus its pruning metadata and identity.

use crate::plan::PruningPlan;
use cnn_stack_nn::{Error, ExecConfig, InferencePlan, Network, PlanCompiler};

/// Which of the paper's three architectures a [`Model`] instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// VGG-16 (truncated CIFAR-10 head).
    Vgg16,
    /// ResNet-18 (CIFAR-10 definition).
    ResNet18,
    /// MobileNet (depthwise-separable, CIFAR-10 adaptation).
    MobileNet,
}

impl ModelKind {
    /// All three paper models, in the paper's presentation order.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::Vgg16, ModelKind::ResNet18, ModelKind::MobileNet]
    }

    /// Display name as the paper writes it.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Vgg16 => "VGG-16",
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::MobileNet => "MobileNet",
        }
    }

    /// The baseline CIFAR-10 test accuracy the paper reports after
    /// training from scratch (§V-A): 92.20 / 94.32 / 90.47 %.
    pub fn paper_baseline_accuracy(&self) -> f64 {
        match self {
            ModelKind::Vgg16 => 0.9220,
            ModelKind::ResNet18 => 0.9432,
            ModelKind::MobileNet => 0.9047,
        }
    }

    /// Builds the full-width model for `classes` output classes.
    pub fn build(&self, classes: usize) -> Model {
        match self {
            ModelKind::Vgg16 => crate::vgg16(classes),
            ModelKind::ResNet18 => crate::resnet18(classes),
            ModelKind::MobileNet => crate::mobilenet(classes),
        }
    }

    /// Builds a width-scaled model (for fast tests and sweeps).
    pub fn build_width(&self, classes: usize, width: f64) -> Model {
        match self {
            ModelKind::Vgg16 => crate::vgg16_width(classes, width),
            ModelKind::ResNet18 => crate::resnet18_width(classes, width),
            ModelKind::MobileNet => crate::mobilenet_width(classes, width),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A network together with its architecture identity and channel-pruning
/// plan.
#[derive(Debug)]
pub struct Model {
    /// Which architecture this is.
    pub kind: ModelKind,
    /// The executable network.
    pub network: Network,
    /// Structural channel-pruning metadata.
    pub plan: PruningPlan,
}

impl Model {
    /// The canonical CIFAR-10 input shape at batch size `n`.
    pub fn input_shape(&self, n: usize) -> Vec<usize> {
        vec![n, 3, 32, 32]
    }

    /// Compiles the network into an inference plan at batch size `n`
    /// through `compiler`'s pipeline, which may rewrite the
    /// network in place (batch-norm folding, per-layer weight-format
    /// switches), which is why this takes `&mut self`.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::InvalidConfig`] from plan compilation.
    pub fn compile_plan(
        &mut self,
        n: usize,
        cfg: &ExecConfig,
        compiler: &PlanCompiler,
    ) -> Result<InferencePlan, Error> {
        let shape = self.input_shape(n);
        compiler.run(&mut self.network, &shape, cfg)
    }
}

/// Scales a channel count by a width multiplier, flooring at 2 so
/// surgery invariants ("cannot remove the last channel") stay satisfiable.
pub(crate) fn scale(channels: usize, width: f64) -> usize {
    ((channels as f64 * width).round() as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_metadata() {
        assert_eq!(ModelKind::Vgg16.name(), "VGG-16");
        assert!((ModelKind::ResNet18.paper_baseline_accuracy() - 0.9432).abs() < 1e-9);
        assert_eq!(ModelKind::all().len(), 3);
        assert_eq!(ModelKind::MobileNet.to_string(), "MobileNet");
    }

    #[test]
    fn compile_plan_fuses_model_steps() {
        let mut model = ModelKind::Vgg16.build_width(10, 0.1);
        let layers = model.network.len();
        let plan = model
            .compile_plan(1, &ExecConfig::serial(), &PlanCompiler::standard())
            .unwrap();
        // Fold-and-fuse absorbs the conv/bn/relu triples: fewer steps
        // than layers, but the spans still tile the whole network.
        assert!(plan.steps().len() < layers);
        let covered: usize = plan.steps().iter().map(|s| s.span).sum();
        assert_eq!(covered, layers);
        assert!(plan.steps().iter().any(|s| s.cfg.fused_relu));
    }

    #[test]
    fn scale_floors_at_two() {
        assert_eq!(scale(64, 0.5), 32);
        assert_eq!(scale(8, 0.1), 2);
        assert_eq!(scale(64, 1.0), 64);
    }
}
