//! Static per-layer descriptors consumed by the memory accountant and the
//! `cnn-stack-hwsim` platform timing model.

use crate::layer::WeightFormat;
use cnn_stack_tensor::Conv2dGeometry;

/// What kind of computation a layer performs; carries the geometry the
/// timing model needs to price it.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerKind {
    /// Standard convolution (`groups == 1`).
    Conv {
        /// Spatial geometry.
        geom: Conv2dGeometry,
        /// Output channels.
        out_channels: usize,
    },
    /// Depthwise convolution (one filter per channel).
    DepthwiseConv {
        /// Spatial geometry (per channel).
        geom: Conv2dGeometry,
        /// Channel count (input == output).
        channels: usize,
    },
    /// Fully connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Batch normalisation over channels.
    BatchNorm {
        /// Channel count.
        channels: usize,
    },
    /// Elementwise activation.
    Activation,
    /// Spatial pooling.
    Pool,
    /// Shape-only transformation (flatten, reshape).
    Reshape,
    /// Composite of sub-layers (e.g. a residual block); descriptors of the
    /// children are reported separately.
    Composite,
}

/// A static description of one layer's work at a given input shape.
///
/// `macs` counts multiply-accumulates in the *dense* formulation;
/// `weight_nnz` is the stored non-zero count, so the ratio exposes the
/// "expected speedup" of Fig. 1 while the timing model prices the *actual*
/// cost.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerDescriptor {
    /// Human-readable layer name.
    pub name: String,
    /// Kind and geometry.
    pub kind: LayerKind,
    /// Dense multiply-accumulate count for one input batch.
    pub macs: u64,
    /// Dense weight element count (0 for stateless layers).
    pub weight_elems: usize,
    /// Stored (non-zero) weight count; equals `weight_elems` when dense.
    pub weight_nnz: usize,
    /// Storage format of the weights.
    pub format: WeightFormat,
    /// Elements in the input activation tensor.
    pub input_elems: usize,
    /// Elements in the output activation tensor.
    pub output_elems: usize,
    /// Full output shape, for walking shapes through a network.
    pub output_shape: Vec<usize>,
    /// Extra elements of scratch the chosen algorithm allocates
    /// (the im2col matrix, padded-input copies, …).
    pub scratch_elems: usize,
    /// Units of outer-loop parallelism the layer exposes (output channels
    /// for convolutions, output rows for linear layers, 1 for layers the
    /// paper does not parallelise).
    pub parallel_grains: usize,
}

impl LayerDescriptor {
    /// Effective (non-zero) MACs after sparsity: `macs * nnz/elems`.
    /// This is the "expected" cost of Fig. 1's dashed line.
    pub fn effective_macs(&self) -> u64 {
        if self.weight_elems == 0 {
            return self.macs;
        }
        (self.macs as f64 * self.weight_nnz as f64 / self.weight_elems as f64).round() as u64
    }

    /// Weight sparsity in `[0, 1]` (0 for stateless layers).
    pub fn sparsity(&self) -> f64 {
        if self.weight_elems == 0 {
            0.0
        } else {
            1.0 - self.weight_nnz as f64 / self.weight_elems as f64
        }
    }

    /// Bytes of weight storage under the descriptor's format, using the
    /// same accounting as `cnn-stack-sparse::memory`.
    pub fn weight_bytes(&self) -> usize {
        match self.format {
            WeightFormat::Dense => self.weight_elems * 4,
            WeightFormat::Csr => {
                // CSR rows = parallel grains for conv/linear layers (one
                // row per output channel/feature).
                let rows = self.parallel_grains.max(1);
                self.weight_nnz * 8 + (rows + 1) * 8
            }
            // 2-bit codes (4 per byte) plus the two per-layer scales.
            WeightFormat::Ternary => self.weight_elems.div_ceil(4) + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_desc(nnz: usize) -> LayerDescriptor {
        LayerDescriptor {
            name: "conv".into(),
            kind: LayerKind::Conv {
                geom: Conv2dGeometry::new(3, 32, 32, 3, 3, 1, 1),
                out_channels: 64,
            },
            macs: 64 * 27 * 1024,
            weight_elems: 64 * 27,
            weight_nnz: nnz,
            format: WeightFormat::Dense,
            input_elems: 3 * 1024,
            output_elems: 64 * 1024,
            output_shape: vec![1, 64, 32, 32],
            scratch_elems: 0,
            parallel_grains: 64,
        }
    }

    #[test]
    fn effective_macs_scales_with_nnz() {
        let full = conv_desc(64 * 27);
        assert_eq!(full.effective_macs(), full.macs);
        let half = conv_desc(64 * 27 / 2);
        assert_eq!(half.effective_macs(), full.macs / 2);
    }

    #[test]
    fn sparsity_computation() {
        let d = conv_desc(64 * 27 / 4);
        assert!((d.sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn weight_bytes_dense_vs_csr() {
        let mut d = conv_desc(64 * 27 / 2);
        assert_eq!(d.weight_bytes(), 64 * 27 * 4);
        d.format = WeightFormat::Csr;
        assert_eq!(d.weight_bytes(), (64 * 27 / 2) * 8 + 65 * 8);
        // At 50% sparsity, CSR costs more than dense — the paper's §V-D
        // punchline.
        assert!(d.weight_bytes() > 64 * 27 * 4);
    }

    #[test]
    fn stateless_layer_effective_macs() {
        let d = LayerDescriptor {
            name: "relu".into(),
            kind: LayerKind::Activation,
            macs: 0,
            weight_elems: 0,
            weight_nnz: 0,
            format: WeightFormat::Dense,
            input_elems: 100,
            output_elems: 100,
            output_shape: vec![100],
            scratch_elems: 0,
            parallel_grains: 1,
        };
        assert_eq!(d.effective_macs(), 0);
        assert_eq!(d.sparsity(), 0.0);
        assert_eq!(d.weight_bytes(), 0);
    }
}
