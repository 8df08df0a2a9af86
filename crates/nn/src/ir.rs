//! Typed layer IR for the plan compiler.
//!
//! [`lower`] walks a [`Network`] at one input shape and produces one
//! [`IrOp`] per top-level layer: the shape-resolved facts the pipeline
//! needs (what kind of computation it is, its geometry, its *measured*
//! weight sparsity) plus the decisions fusion and selection make (the
//! op's effective [`ExecConfig`] and how many following layers it
//! absorbs). The pipeline in [`crate::passes`] rewrites this op list and
//! then emits it as [`crate::engine::PlanStep`]s.
//!
//! The IR is derived from [`Layer::descriptor`] plus `as_any` downcasts
//! for the facts descriptors do not carry (is this activation a ReLU?
//! is this batch norm an inference identity? how sparse are the weights
//! *really*?).

use crate::batchnorm::BatchNorm2d;
use crate::descriptor::LayerKind;
use crate::layer::{ExecConfig, Layer, WeightFormat};
use crate::network::Network;
use crate::residual::ResidualBlock;
use crate::weights::Weights;
use crate::ReLU;
use cnn_stack_tensor::Conv2dGeometry;

/// What an [`IrOp`] computes, with the facts algorithm selection prices.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// Standard convolution (`groups == 1`).
    Conv {
        /// Shape-resolved spatial geometry.
        geom: Conv2dGeometry,
        /// Output channels.
        out_channels: usize,
        /// Current weight storage format.
        format: WeightFormat,
        /// Measured (exact-zero) weight sparsity in `[0, 1]`.
        sparsity: f64,
        /// Whether the weights are *exactly* ternary (at most one
        /// distinct magnitude per sign) — the value-preserving
        /// precondition for the packed ternary kernel.
        ternary: bool,
    },
    /// Depthwise convolution.
    DepthwiseConv,
    /// Fully connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Current weight storage format.
        format: WeightFormat,
        /// Measured (exact-zero) weight sparsity in `[0, 1]`.
        sparsity: f64,
        /// Whether the weights are *exactly* ternary — see
        /// [`OpKind::Conv::ternary`].
        ternary: bool,
    },
    /// Batch normalisation over channels.
    BatchNorm {
        /// Whether the layer is an *exact* inference identity (scale
        /// bit-equal to 1, shift bit-equal to 0, as left by
        /// [`crate::fold_batchnorm`]) so fusion may skip it. A freshly initialised batch norm is only a
        /// near-identity (`scale = 1/sqrt(1 + eps)`) and stays `false`.
        identity: bool,
    },
    /// The ReLU activation specifically — fusable into a preceding
    /// conv/depthwise/linear kernel.
    Relu,
    /// A residual block: one step, one config for all its convolutions;
    /// selection prices a row as the sum of their prices.
    Composite {
        /// One [`OpKind::Conv`] op per child convolution.
        children: Vec<IrOp>,
    },
    /// Anything else (pooling, reshapes, other activations); fusion
    /// and selection leave these alone.
    Other,
}

impl OpKind {
    /// Whether this op's kernel can absorb a trailing ReLU via
    /// [`ExecConfig::fused_relu`]: every Conv2d and Linear evaluation
    /// path honours the flag, and the depthwise kernel clamps on its
    /// final write.
    pub fn fuses_relu(&self) -> bool {
        matches!(
            self,
            OpKind::Conv { .. } | OpKind::DepthwiseConv | OpKind::Linear { .. }
        )
    }

    /// Whether this op produces a channel-major activation an identity
    /// batch norm could be absorbed into.
    pub fn absorbs_identity_bn(&self) -> bool {
        matches!(
            self,
            OpKind::Conv { .. } | OpKind::DepthwiseConv | OpKind::Linear { .. }
        )
    }
}

/// One plan-compiler op: a primary network layer plus the decisions the
/// pipeline has made about it so far.
#[derive(Clone, Debug)]
pub struct IrOp {
    /// Index of the primary network layer.
    pub layer: usize,
    /// Consecutive network layers this op covers (absorbed followers are
    /// skipped at execution).
    pub span: usize,
    /// Step name; fusion appends the absorbed layers.
    pub name: String,
    /// What the op computes.
    pub kind: OpKind,
    /// Activation shape entering the op.
    pub input_shape: Vec<usize>,
    /// Dense multiply-accumulates across the covered layers.
    pub macs: u64,
    /// Effective execution configuration; starts at the base config,
    /// rewritten by fusion (`fused_relu`) and algorithm selection.
    pub cfg: ExecConfig,
}

/// Lowers a network at `input_shape` into one [`IrOp`] per top-level
/// layer, each with `span == 1` and `cfg == *cfg`. The shape must have
/// passed the pipeline's validation (every layer's
/// [`Layer::check_input`]), so no descriptor indexes past it.
pub fn lower(net: &Network, input_shape: &[usize], cfg: &ExecConfig) -> Vec<IrOp> {
    let mut shape = input_shape.to_vec();
    let mut ops = Vec::with_capacity(net.len());
    for (i, layer) in net.layers().iter().enumerate() {
        let (op, output_shape) = lower_layer(i, layer.as_ref(), &shape, cfg);
        ops.push(op);
        shape = output_shape;
    }
    ops
}

/// The op of network layer `index` at `shape`, and its output shape.
fn lower_layer(
    index: usize,
    layer: &dyn Layer,
    shape: &[usize],
    cfg: &ExecConfig,
) -> (IrOp, Vec<usize>) {
    let d = layer.descriptor(shape);
    let kind = match d.kind {
        LayerKind::Conv { geom, out_channels } => OpKind::Conv {
            geom,
            out_channels,
            format: d.format,
            sparsity: measured_sparsity(layer),
            ternary: exact_ternary(layer),
        },
        LayerKind::DepthwiseConv { .. } => OpKind::DepthwiseConv,
        LayerKind::Linear {
            in_features,
            out_features,
        } => OpKind::Linear {
            in_features,
            out_features,
            format: d.format,
            sparsity: measured_sparsity(layer),
            ternary: exact_ternary(layer),
        },
        LayerKind::BatchNorm { .. } => OpKind::BatchNorm {
            identity: layer
                .as_any()
                .downcast_ref::<BatchNorm2d>()
                .is_some_and(|bn| bn.is_exact_inference_identity()),
        },
        LayerKind::Activation => {
            if layer.as_any().downcast_ref::<ReLU>().is_some() {
                OpKind::Relu
            } else {
                OpKind::Other
            }
        }
        LayerKind::Composite => match layer.as_any().downcast_ref::<ResidualBlock>() {
            Some(block) => OpKind::Composite {
                children: block
                    .conv_inputs(shape)
                    .into_iter()
                    .map(|(conv, input)| lower_layer(index, conv, &input, cfg).0)
                    .collect(),
            },
            None => OpKind::Other,
        },
        LayerKind::Pool | LayerKind::Reshape => OpKind::Other,
    };
    let op = IrOp {
        layer: index,
        span: 1,
        name: d.name,
        kind,
        input_shape: shape.to_vec(),
        macs: d.macs,
        cfg: *cfg,
    };
    (op, d.output_shape)
}

/// Whether the layer's weights are exactly ternary (the packed ternary
/// kernel's value-preserving precondition); `false` for layers the
/// selector cannot quantise. Computed here because selection's
/// candidates see only the op, never the network.
fn exact_ternary(layer: &dyn Layer) -> bool {
    Weights::of(layer).is_some_and(|w| w.ternary_magnitudes().is_some())
}

/// Measured exact-zero sparsity of the layer's weight parameter; 0 for
/// layers without one.
fn measured_sparsity(layer: &dyn Layer) -> f64 {
    Weights::of(layer).map_or(0.0, |w| {
        let elems = w.elems();
        (elems - w.nnz()) as f64 / elems as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Network, ReLU};

    fn demo_net() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, 1)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 4 * 4, 5, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn lowering_walks_shapes_and_kinds() {
        let net = demo_net();
        let ops = lower(&net, &[1, 3, 8, 8], &ExecConfig::serial());
        assert_eq!(ops.len(), 6);
        assert!(matches!(ops[0].kind, OpKind::Conv { .. }));
        assert!(matches!(
            ops[1].kind,
            OpKind::BatchNorm {
                identity: false,
                ..
            }
        ));
        assert!(matches!(ops[2].kind, OpKind::Relu));
        assert!(matches!(ops[3].kind, OpKind::Other));
        assert!(matches!(ops[4].kind, OpKind::Other));
        assert!(matches!(ops[5].kind, OpKind::Linear { .. }));
        for op in &ops {
            assert_eq!(op.span, 1);
        }
        // Ops chain: each input shape is the previous layer's output.
        let shapes: Vec<&[usize]> = ops.iter().map(|op| &op.input_shape[..]).collect();
        assert_eq!(
            shapes,
            [
                &[1, 3, 8, 8][..],
                &[1, 4, 8, 8],
                &[1, 4, 8, 8],
                &[1, 4, 8, 8],
                &[1, 4, 4, 4],
                &[1, 64]
            ]
        );
    }

    #[test]
    fn identity_bn_is_flagged() {
        let mut net = demo_net();
        // Perturb the batch norm so folding does real work.
        net.layers_mut()[1]
            .as_any_mut()
            .downcast_mut::<BatchNorm2d>()
            .unwrap()
            .gamma_mut()
            .value
            .data_mut()
            .fill(1.5);
        let folded = crate::fold_batchnorm(&mut net);
        assert_eq!(folded, 1);
        let ops = lower(&net, &[1, 3, 8, 8], &ExecConfig::serial());
        assert!(matches!(
            ops[1].kind,
            OpKind::BatchNorm { identity: true, .. }
        ));
    }

    #[test]
    fn measured_sparsity_sees_pruned_zeros() {
        let mut net = demo_net();
        // Zero half of the conv weights in place (dense format keeps
        // nnz == elems at the descriptor level).
        {
            let conv = net.layers_mut()[0]
                .as_any_mut()
                .downcast_mut::<Conv2d>()
                .unwrap();
            let data = conv.weight_mut().value.data_mut();
            let half = data.len() / 2;
            for v in &mut data[..half] {
                *v = 0.0;
            }
        }
        let ops = lower(&net, &[1, 3, 8, 8], &ExecConfig::serial());
        match ops[0].kind {
            OpKind::Conv { sparsity, .. } => assert!((sparsity - 0.5).abs() < 0.02),
            _ => panic!("expected conv op"),
        }
    }
}
