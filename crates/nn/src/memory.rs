//! Runtime memory accounting (the model behind Tables IV and VI).
//!
//! §V-D of the paper explains its footprint as "network parameters being
//! available in memory, input and output buffers and intermediate
//! allocation for padding input in the convolutions", and attributes the
//! *increase* under CSR to storing each small filter as its own sparse
//! matrix ("in dense format the matrix is an array of 9 floating point
//! elements for the 3×3 filter, while in CSR format there are 3 arrays
//! ... with additional parameters to account for the size of arrays").
//!
//! This module reproduces that accounting: sparse convolution weights are
//! charged **per filter** — one `k×k` CSR matrix per (output, input)
//! channel pair, each paying its own row-pointer array and size header —
//! which is what makes weight pruning and quantisation *cost* memory at
//! 3×3 and 1×1 filter sizes even at high sparsity.

use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::layer::WeightFormat;

/// Byte-level breakdown of a network's runtime footprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Weight storage (dense arrays or per-filter CSR).
    pub weight_bytes: usize,
    /// Activation buffers: network input plus every layer output.
    pub activation_bytes: usize,
    /// Transient scratch: the largest padded-input copy (direct
    /// convolution) or im2col matrix alive at any one time.
    pub scratch_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.weight_bytes + self.activation_bytes + self.scratch_bytes
    }

    /// Total in megabytes (10⁶ bytes, as the paper's tables report).
    pub fn total_mb(&self) -> f64 {
        self.total() as f64 / 1e6
    }
}

/// Per-filter CSR cost for a convolution layer: each of the
/// `filters` small matrices pays `(k + 1)` row pointers plus a fixed
/// header, and the layer's non-zeros pay value + column-index bytes.
fn per_filter_csr_bytes(filters: usize, k: usize, layer_nnz: usize) -> usize {
    // Row pointers (usize) + 2-int size header per filter matrix.
    let per_filter_overhead = (k + 1) * 8 + 8;
    filters * per_filter_overhead + layer_nnz * 8
}

/// Weight bytes for one layer descriptor under its declared format,
/// using the paper's per-filter CSR layout for convolutions.
pub fn layer_weight_bytes(desc: &LayerDescriptor) -> usize {
    match desc.format {
        WeightFormat::Dense => desc.weight_elems * 4,
        WeightFormat::Csr => match &desc.kind {
            LayerKind::Conv { geom, out_channels } => {
                per_filter_csr_bytes(out_channels * geom.in_channels, geom.k_h, desc.weight_nnz)
            }
            LayerKind::DepthwiseConv { geom, channels } => {
                per_filter_csr_bytes(*channels, geom.k_h, desc.weight_nnz)
            }
            LayerKind::Linear { out_features, .. } => {
                // One whole-matrix CSR: rows = out_features.
                desc.weight_nnz * 8 + (out_features + 1) * 8
            }
            // Stateless / normalisation layers stay dense.
            _ => desc.weight_elems * 4,
        },
        // 2-bit packed codes (4 per byte) plus the two per-layer scales.
        WeightFormat::Ternary => desc.weight_elems.div_ceil(4) + 8,
    }
}

/// Computes the runtime footprint of a network from its flat layer
/// descriptors (as produced by
/// [`Network::descriptors`](crate::Network::descriptors)).
///
/// `use_im2col` charges the im2col matrix instead of the padded-input
/// copy as convolution scratch.
pub fn network_memory(descs: &[LayerDescriptor], use_im2col: bool) -> MemoryBreakdown {
    let weight_bytes = descs.iter().map(layer_weight_bytes).sum();
    let input_bytes = descs.first().map_or(0, |d| d.input_elems * 4);
    let activation_bytes = input_bytes + descs.iter().map(|d| d.output_elems * 4).sum::<usize>();
    let scratch_bytes = descs
        .iter()
        .map(|d| {
            if use_im2col {
                match &d.kind {
                    LayerKind::Conv { geom, .. } => geom.patch_len() * geom.out_positions() * 4,
                    LayerKind::DepthwiseConv { geom, .. } => {
                        geom.patch_len() * geom.out_positions() * 4
                    }
                    _ => 0,
                }
            } else {
                d.scratch_elems * 4
            }
        })
        .max()
        .unwrap_or(0);
    MemoryBreakdown {
        weight_bytes,
        activation_bytes,
        scratch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Layer, Network, ReLU};
    use cnn_stack_tensor::Conv2dGeometry;

    fn conv_desc(sparsity: f64, format: WeightFormat) -> LayerDescriptor {
        let elems = 64 * 64 * 9;
        let nnz = ((1.0 - sparsity) * elems as f64) as usize;
        LayerDescriptor {
            name: "conv".into(),
            kind: LayerKind::Conv {
                geom: Conv2dGeometry::new(64, 32, 32, 3, 3, 1, 1),
                out_channels: 64,
            },
            macs: 0,
            weight_elems: elems,
            weight_nnz: nnz,
            format,
            input_elems: 64 * 1024,
            output_elems: 64 * 1024,
            output_shape: vec![1, 64, 32, 32],
            scratch_elems: 64 * 34 * 34,
            parallel_grains: 64,
        }
    }

    #[test]
    fn csr_conv_weights_cost_more_than_dense_at_moderate_sparsity() {
        // The paper's headline: at ~77% sparsity, 3x3 per-filter CSR is
        // *bigger* than dense.
        let dense = layer_weight_bytes(&conv_desc(0.0, WeightFormat::Dense));
        let csr_77 = layer_weight_bytes(&conv_desc(0.77, WeightFormat::Csr));
        assert!(
            csr_77 > dense,
            "per-filter CSR at 77% sparsity ({csr_77}) should exceed dense ({dense})"
        );
    }

    #[test]
    fn csr_wins_only_at_extreme_sparsity() {
        let dense = layer_weight_bytes(&conv_desc(0.0, WeightFormat::Dense));
        let csr_99 = layer_weight_bytes(&conv_desc(0.99, WeightFormat::Csr));
        // Even at 99%: per-filter overhead = 40B/filter vs dense 36B/filter
        // → still larger. Exactly the paper's point for 3x3 filters.
        assert!(csr_99 > dense);
    }

    #[test]
    fn pointwise_csr_is_drastically_larger() {
        // MobileNet's 1x1 filters: dense = 4 B, CSR overhead = 24 B per
        // filter — the 2.7x blow-up Table IV shows for MobileNet.
        let elems = 128 * 128;
        let desc = LayerDescriptor {
            name: "pw".into(),
            kind: LayerKind::Conv {
                geom: Conv2dGeometry::new(128, 8, 8, 1, 1, 1, 0),
                out_channels: 128,
            },
            macs: 0,
            weight_elems: elems,
            weight_nnz: elems / 2,
            format: WeightFormat::Csr,
            input_elems: 0,
            output_elems: 0,
            output_shape: vec![1],
            scratch_elems: 0,
            parallel_grains: 128,
        };
        let dense = elems * 4;
        assert!(layer_weight_bytes(&desc) > 2 * dense);
    }

    #[test]
    fn network_memory_totals() {
        let net = Network::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, 0)),
            Box::new(ReLU::new()),
        ])
        .unwrap();
        let descs = net.descriptors(&[1, 3, 32, 32]);
        let m = network_memory(&descs, false);
        // Weights: 8*3*9*4 + bias excluded from descriptor weight_elems?
        // weight_elems counts only the weight tensor (216 elems).
        assert_eq!(m.weight_bytes, 8 * 27 * 4);
        // Activations: input (3*1024) + conv out (8*1024) + relu out (8*1024).
        assert_eq!(m.activation_bytes, (3 * 1024 + 8 * 1024 + 8 * 1024) * 4);
        // Scratch: padded input copy 3*34*34 floats.
        assert_eq!(m.scratch_bytes, 3 * 34 * 34 * 4);
        assert_eq!(
            m.total(),
            m.weight_bytes + m.activation_bytes + m.scratch_bytes
        );
        assert!(m.total_mb() > 0.0);
    }

    #[test]
    fn im2col_scratch_exceeds_padding_scratch() {
        let net = Network::new(vec![Box::new(Conv2d::new(3, 8, 3, 1, 1, 0))]).unwrap();
        let descs = net.descriptors(&[1, 3, 32, 32]);
        let direct = network_memory(&descs, false);
        let im2col = network_memory(&descs, true);
        assert!(im2col.scratch_bytes > direct.scratch_bytes);
    }

    #[test]
    fn conv_descriptor_scratch_is_padded_copy() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        let d = conv.descriptor(&[1, 3, 32, 32]);
        assert_eq!(d.scratch_elems, 3 * 34 * 34);
    }
}
