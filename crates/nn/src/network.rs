//! A sequential network container.

use crate::descriptor::LayerDescriptor;
use crate::error::Error;
use crate::layer::{ExecConfig, Layer, Param, Phase, WeightFormat};
use crate::weights::{WeightStorage, Weights};
use cnn_stack_tensor::Tensor;

/// A feed-forward network: an ordered pipeline of boxed layers.
///
/// Residual topologies are expressed by composite layers
/// ([`crate::ResidualBlock`]), so a flat sequence suffices for all three
/// of the paper's models. Execution is synchronised at every layer
/// boundary, exactly as the paper's OpenMP implementation ("the execution
/// of the threads is synchronised on each neural network layer", §IV-D).
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{Conv2d, ExecConfig, Flatten, Linear, Network, Phase, ReLU};
/// use cnn_stack_tensor::Tensor;
///
/// let mut net = Network::new(vec![
///     Box::new(Conv2d::new(3, 4, 3, 1, 1, 0)),
///     Box::new(ReLU::new()),
///     Box::new(Flatten::new()),
///     Box::new(Linear::new(4 * 32 * 32, 10, 1)),
/// ])
/// .unwrap();
/// let logits = net.forward(&Tensor::zeros([2, 3, 32, 32]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(logits.shape().dims(), &[2, 10]);
/// ```
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Builds a network from an ordered layer list.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyNetwork`] if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Result<Self, Error> {
        if layers.is_empty() {
            return Err(Error::EmptyNetwork);
        }
        Ok(Network { layers })
    }

    /// A second network serving the same model: every layer's
    /// [`Layer::replica`]. Conv/linear weights and the derived forms
    /// built so far are shared, so the cost is structure, biases and
    /// batch-norm state — a replica of a compiled, prepared network
    /// compiles without rewriting a weight and prepares without packing
    /// one. A write to either network's weights copies the written
    /// layer first.
    pub fn replica(&self) -> Network {
        Network {
            layers: self.layers.iter().map(|l| l.replica()).collect(),
        }
    }

    /// Storage identity of every `Conv2d` and `Linear` (descending into
    /// residual blocks), in [`Layer::visit_mut`] order: equal entries
    /// in two networks mean one physical copy of that layer's weights.
    pub fn weight_storage(&self) -> Vec<WeightStorage> {
        let mut out = Vec::new();
        for layer in &self.layers {
            match layer.as_any().downcast_ref::<crate::ResidualBlock>() {
                Some(block) => out.extend(block.convs().map(|c| c.weights().storage())),
                None => out.extend(Weights::of(layer.as_ref()).map(Weights::storage)),
            }
        }
        out
    }

    /// Number of top-level layers (composites count as one).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers (never true; see [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to a layer by index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] if `idx >= len()`.
    pub fn layer(&self, idx: usize) -> Result<&dyn Layer, Error> {
        self.layers
            .get(idx)
            .map(|l| l.as_ref())
            .ok_or(Error::IndexOutOfRange {
                index: idx,
                len: self.layers.len(),
            })
    }

    /// Mutable access to a layer by index (used by compression passes to
    /// downcast to concrete layer types).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] if `idx >= len()`.
    pub fn layer_mut(&mut self, idx: usize) -> Result<&mut Box<dyn Layer>, Error> {
        let len = self.layers.len();
        self.layers
            .get_mut(idx)
            .ok_or(Error::IndexOutOfRange { index: idx, len })
    }

    /// The full layer list. Infallible counterpart of
    /// [`layer`](Self::layer) for callers that iterate or index with
    /// known-good bounds.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable view of the full layer list; see [`layers`](Self::layers).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Splits the layer list at `mid`, allowing two layers to be borrowed
    /// mutably at once (used by transformation passes such as batch-norm
    /// folding).
    ///
    /// # Panics
    ///
    /// Panics if `mid > len()`.
    #[allow(clippy::type_complexity)] // the split-borrow pair is the API
    pub fn layers_split_at_mut(
        &mut self,
        mid: usize,
    ) -> (&mut [Box<dyn Layer>], &mut [Box<dyn Layer>]) {
        self.layers.split_at_mut(mid)
    }

    /// Removes the layer at `idx`. Renumbers subsequent layers — any
    /// index-based metadata (pruning plans) built against the old
    /// numbering is invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfRange`] if out of range, or
    /// [`Error::EmptyNetwork`] if removal would leave the network empty.
    pub fn remove_layer(&mut self, idx: usize) -> Result<Box<dyn Layer>, Error> {
        if idx >= self.layers.len() {
            return Err(Error::IndexOutOfRange {
                index: idx,
                len: self.layers.len(),
            });
        }
        if self.layers.len() == 1 {
            return Err(Error::EmptyNetwork);
        }
        Ok(self.layers.remove(idx))
    }

    /// Runs the network forward, layer by layer through
    /// [`Layer::forward`]: the same [`Layer::forward_into`] kernels an
    /// [`crate::InferenceSession`] runs, at one allocated tensor per
    /// layer and without the session's plan (fusion, per-step
    /// algorithms, batch chunking).
    pub fn forward(&mut self, input: &Tensor, phase: Phase, cfg: &ExecConfig) -> Tensor {
        // The first layer reads the caller's tensor directly; cloning it
        // here would double the input's memory traffic for nothing.
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("networks are non-empty by construction");
        let mut x = first.forward(input, phase, cfg);
        for layer in rest {
            x = layer.forward(&x, phase, cfg);
        }
        x
    }

    /// Backpropagates `grad` (gradient w.r.t. the network output),
    /// accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics unless a [`Phase::Train`] forward pass directly preceded it.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All trainable parameters, in layer order, read-only: unlike
    /// [`params_mut`](Self::params_mut) this neither drops a derived
    /// weight form nor copies weights shared with a replica.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Re-applies every pruning mask (after an optimiser step).
    pub fn apply_masks(&mut self) {
        for p in self.params_mut() {
            p.apply_mask();
        }
    }

    /// Total trainable parameter count, from stored extents: no
    /// dropped master is rebuilt.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Flat primitive-layer descriptors for a given input shape
    /// (composites are expanded).
    pub fn descriptors(&self, input_shape: &[usize]) -> Vec<LayerDescriptor> {
        let mut shape = input_shape.to_vec();
        let mut out = Vec::new();
        for layer in &self.layers {
            let next_shape = layer.descriptor(&shape).output_shape;
            out.extend(layer.child_descriptors(&shape));
            shape = next_shape;
        }
        out
    }

    /// Total dense MAC count for one forward pass at `input_shape`.
    pub fn macs(&self, input_shape: &[usize]) -> u64 {
        self.descriptors(input_shape).iter().map(|d| d.macs).sum()
    }

    /// Total *stored-non-zero* MAC count, the paper's "expected" cost.
    pub fn effective_macs(&self, input_shape: &[usize]) -> u64 {
        self.descriptors(input_shape)
            .iter()
            .map(|d| d.effective_macs())
            .sum()
    }

    /// Overall weight sparsity across all layers, weighted by element
    /// count.
    pub fn weight_sparsity(&self, input_shape: &[usize]) -> f64 {
        let descs = self.descriptors(input_shape);
        let total: usize = descs.iter().map(|d| d.weight_elems).sum();
        let nnz: usize = descs.iter().map(|d| d.weight_nnz).sum();
        if total == 0 {
            0.0
        } else {
            1.0 - nnz as f64 / total as f64
        }
    }

    /// Output shape for a given input shape, without running the network.
    pub fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.descriptor(&shape).output_shape;
        }
        shape
    }
}

/// Applies a weight format to every `Conv2d` and `Linear` in the network
/// (descending into residual blocks via [`Layer::visit_mut`]).
/// Convenience wrapper used by the format layer of the stack.
pub fn set_network_format(net: &mut Network, format: WeightFormat) {
    for layer in net.layers_mut() {
        layer.visit_mut(&mut |l| {
            if let Some(weights) = Weights::of_mut(l) {
                weights.set_format(format);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use cnn_stack_tensor::ops;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn tiny_net() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, 0)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 4 * 4, 3, 1)),
        ])
        .unwrap()
    }

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net();
        let y = net.forward(
            &Tensor::zeros([2, 1, 8, 8]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[2, 3]);
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut net = tiny_net();
        let y = net.forward(
            &Tensor::zeros([2, 1, 8, 8]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(net.output_shape(&[2, 1, 8, 8]), y.shape().dims());
    }

    #[test]
    fn end_to_end_training_reduces_loss() {
        let mut net = tiny_net();
        let x = random([8, 1, 8, 8], 2);
        let labels = [0usize, 1, 2, 0, 1, 2, 0, 1];
        let cfg = ExecConfig::serial();
        let mut losses = Vec::new();
        for _ in 0..30 {
            net.zero_grad();
            let logits = net.forward(&x, Phase::Train, &cfg);
            let (loss, dlogits) = ops::cross_entropy_with_grad(&logits, &labels);
            losses.push(loss);
            net.backward(&dlogits);
            for p in net.params_mut() {
                if let Some(g) = p.grad().cloned() {
                    p.value.axpy(-0.05, &g);
                }
            }
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn replica_shares_weights_and_copies_the_rest() {
        let mut net = tiny_net();
        let x = random([2, 1, 8, 8], 3);
        let cfg = ExecConfig::serial();
        let want = net.forward(&x, Phase::Eval, &cfg);
        let mut twin = net.replica();
        assert_eq!(twin.weight_storage(), net.weight_storage());
        assert_eq!(twin.forward(&x, Phase::Eval, &cfg), want);

        // Biases are per replica; a weight write copies that layer only.
        fn first_conv(n: &mut Network) -> &mut Conv2d {
            let any = n.layers_mut()[0].as_any_mut();
            any.downcast_mut().expect("tiny_net starts with a conv")
        }
        first_conv(&mut twin).bias_mut().value.fill(1.0);
        assert_eq!(first_conv(&mut net).bias().value.sum(), 0.0);
        first_conv(&mut twin).weight_mut().value.fill(0.0);
        assert_eq!(net.forward(&x, Phase::Eval, &cfg), want);
        let (a, b) = (twin.weight_storage(), net.weight_storage());
        assert_ne!(a[0].master, b[0].master);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    #[should_panic(expected = "backward without")]
    fn replica_starts_with_cold_training_caches() {
        let mut net = tiny_net();
        let y = net.forward(
            &random([1, 1, 8, 8], 4),
            Phase::Train,
            &ExecConfig::serial(),
        );
        net.replica().backward(&y);
    }

    #[test]
    fn num_params_reads_without_unsharing() {
        let mut net = tiny_net();
        let twin = net.replica();
        assert_eq!(twin.num_params(), net.num_params());
        assert_eq!(twin.weight_storage(), net.weight_storage());
        // Nor does it rebuild a master the panels stand in for.
        let cfg = ExecConfig {
            conv_algo: crate::ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        for layer in net.layers_mut() {
            layer.prepare(&cfg);
        }
        let dropped = net.weight_storage();
        assert!(dropped.iter().all(|s| s.master.is_none()));
        assert_eq!(net.num_params(), twin.num_params());
        assert_eq!(net.weight_storage(), dropped);
    }

    #[test]
    fn num_params_counts_everything() {
        let net = tiny_net();
        // conv: 4*1*9 + 4; linear: 64*3 + 3.
        assert_eq!(net.num_params(), 36 + 4 + 192 + 3);
    }

    #[test]
    fn descriptors_walk_shapes() {
        let net = tiny_net();
        let descs = net.descriptors(&[1, 1, 8, 8]);
        assert_eq!(descs.len(), 5);
        assert_eq!(descs[0].output_shape, vec![1, 4, 8, 8]);
        assert_eq!(descs[2].output_shape, vec![1, 4, 4, 4]);
        assert_eq!(descs[4].output_shape, vec![1, 3]);
    }

    #[test]
    fn macs_sum_over_layers() {
        let net = tiny_net();
        // conv: 4*9*64 MACs; linear: 64*3.
        assert_eq!(net.macs(&[1, 1, 8, 8]), 4 * 9 * 64 + 64 * 3);
    }

    #[test]
    fn sparsity_reflects_zeroed_weights() {
        let mut net = tiny_net();
        if let Some(conv) = net.layers_mut()[0].as_any_mut().downcast_mut::<Conv2d>() {
            conv.weight_mut().value.fill(0.0);
        }
        let s = net.weight_sparsity(&[1, 1, 8, 8]);
        assert!(s > 0.1, "sparsity {s}");
    }

    #[test]
    fn set_format_descends() {
        let mut net = tiny_net();
        set_network_format(&mut net, WeightFormat::Csr);
        let descs = net.descriptors(&[1, 1, 8, 8]);
        assert_eq!(descs[0].format, WeightFormat::Csr);
        assert_eq!(descs[4].format, WeightFormat::Csr);
    }

    #[test]
    fn empty_network_rejected() {
        assert!(matches!(Network::new(Vec::new()), Err(Error::EmptyNetwork)));
    }

    #[test]
    fn layer_access_reports_range() {
        let mut net = tiny_net();
        assert!(net.layer(4).is_ok());
        assert!(matches!(
            net.layer(5),
            Err(Error::IndexOutOfRange { index: 5, len: 5 })
        ));
        assert!(matches!(
            net.layer_mut(9),
            Err(Error::IndexOutOfRange { index: 9, len: 5 })
        ));
    }

    #[test]
    fn remove_layer_guards_emptiness() {
        let mut net = tiny_net();
        assert!(net.remove_layer(7).is_err());
        assert!(net.remove_layer(1).is_ok());
        assert_eq!(net.len(), 4);
        let mut single = Network::new(vec![Box::new(ReLU::new()) as Box<dyn Layer>]).unwrap();
        assert!(matches!(single.remove_layer(0), Err(Error::EmptyNetwork)));
    }
}
