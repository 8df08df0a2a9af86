//! Elementwise activation layers.

use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::layer::{ExecConfig, Layer, Param, WeightFormat};
use cnn_stack_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{ExecConfig, Layer, Phase, ReLU};
/// use cnn_stack_tensor::Tensor;
///
/// let mut relu = ReLU::new();
/// let x = Tensor::from_vec([1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
/// let y = relu.forward(&x.reshape([1, 1, 2, 2]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
/// ```
#[derive(Debug, Default)]
pub struct ReLU {
    /// Cached pass-through mask (1 where input > 0).
    cached_mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU { cached_mask: None }
    }
}

impl Layer for ReLU {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        "relu".into()
    }

    fn cache_for_backward(&mut self, input: &Tensor) {
        self.cached_mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .cached_mask
            .take()
            .expect("backward without a Train-phase forward");
        assert_eq!(mask.len(), grad_out.len(), "gradient shape mismatch");
        let mut grad = grad_out.clone();
        for (g, &pass) in grad.data_mut().iter_mut().zip(&mask) {
            if !pass {
                *g = 0.0;
            }
        }
        grad
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(ReLU::new())
    }

    fn forward_into(
        &self,
        input: &[f32],
        _input_shape: &[usize],
        out: &mut [f32],
        _scratch: &mut [f32],
        _cfg: &ExecConfig,
    ) {
        for (o, &v) in out.iter_mut().zip(input) {
            *o = v.max(0.0);
        }
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let elems: usize = input_shape.iter().product();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Activation,
            macs: 0,
            weight_elems: 0,
            weight_nnz: 0,
            format: WeightFormat::Dense,
            input_elems: elems,
            output_elems: elems,
            output_shape: input_shape.to_vec(),
            scratch_elems: 0,
            parallel_grains: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;

    #[test]
    fn clamps_negative_values() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-5.0, -0.1, 0.0, 7.0]);
        let y = relu.forward(&x, Phase::Eval, &ExecConfig::default());
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let _ = relu.forward(&x, Phase::Train, &ExecConfig::default());
        let g = Tensor::from_vec([1, 1, 1, 4], vec![10.0, 10.0, 10.0, 10.0]);
        let dx = relu.backward(&g);
        assert_eq!(dx.data(), &[0.0, 10.0, 0.0, 10.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // Subgradient convention: d relu(0) = 0.
        let mut relu = ReLU::new();
        let x = Tensor::zeros([1, 1, 1, 2]);
        let _ = relu.forward(&x, Phase::Train, &ExecConfig::default());
        let dx = relu.backward(&Tensor::ones([1, 1, 1, 2]));
        assert_eq!(dx.data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "backward without")]
    fn backward_needs_forward() {
        let mut relu = ReLU::new();
        let _ = relu.backward(&Tensor::ones([1]));
    }

    #[test]
    fn descriptor_stateless() {
        let d = ReLU::new().descriptor(&[2, 3, 4, 4]);
        assert_eq!(d.weight_elems, 0);
        assert_eq!(d.input_elems, 96);
    }
}
