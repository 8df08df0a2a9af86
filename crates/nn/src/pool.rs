//! Pooling and shape layers: max pooling, global average pooling, flatten.

use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::error::Error;
use crate::layer::{check_nchw, refuse_input, ExecConfig, Layer, WeightFormat};
use cnn_stack_tensor::Tensor;

/// Non-overlapping max pooling (the paper's networks use 2×2/stride-2
/// after selected VGG layers).
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{ExecConfig, Layer, MaxPool2d, Phase};
/// use cnn_stack_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2);
/// let y = pool.forward(&Tensor::zeros([1, 4, 8, 8]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.shape().dims(), &[1, 4, 4, 4]);
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    /// Cached training-forward input; backward rescans its windows.
    cached_input: Option<Tensor>,
}

impl MaxPool2d {
    /// Creates a `window × window`, stride-`window` max pool.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        MaxPool2d {
            window,
            cached_input: None,
        }
    }
}

impl Layer for MaxPool2d {
    /// A rank-4 input whose plane the window divides: the kernel pools
    /// whole windows only.
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        check_nchw(self, input_shape, None)?;
        let w = self.window;
        if !input_shape[2].is_multiple_of(w) || !input_shape[3].is_multiple_of(w) {
            return refuse_input(
                self,
                input_shape,
                format_args!("a plane its {w}x{w} window divides"),
            );
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        format!("maxpool{w}x{w}", w = self.window)
    }

    fn cache_for_backward(&mut self, input: &Tensor) {
        self.cached_input = Some(input.clone());
    }

    /// Routes each output gradient to the first maximum of its window in
    /// the cached input — the element the forward's strict `>` scan
    /// kept. A window with no element above −∞ (all −∞ or NaN) sends it
    /// to the window's first element.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward without a Train-phase forward");
        let (n, c, h, w) = input.shape().nchw();
        let (oh, ow) = (h / self.window, w / self.window);
        let src = input.data();
        let mut grad_in = Tensor::zeros([n, c, h, w]);
        let dst = grad_in.data_mut();
        for plane in 0..n * c {
            let (in_base, out_base) = (plane * h * w, plane * oh * ow);
            for py in 0..oh {
                for px in 0..ow {
                    let first = in_base + py * self.window * w + px * self.window;
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                    for row in (0..self.window).map(|dy| first + dy * w) {
                        for (dx, &v) in src[row..row + self.window].iter().enumerate() {
                            if v > best {
                                (best, best_idx) = (v, row + dx);
                            }
                        }
                    }
                    dst[best_idx] += grad_out.data()[out_base + py * ow + px];
                }
            }
        }
        grad_in
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d::new(self.window))
    }

    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        _scratch: &mut [f32],
        _cfg: &ExecConfig,
    ) {
        let (n, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        assert!(
            h % self.window == 0 && w % self.window == 0,
            "{}: input {h}x{w} not divisible by window {}",
            self.name(),
            self.window
        );
        let len = n * c * h * w;
        let (input, out) = (&input[..len], &mut out[..len / (self.window * self.window)]);
        match self.window {
            _ if input.is_empty() => {}
            2 => max_pool::<2>(input, w, 2, out),
            k => max_pool::<0>(input, w, k, out),
        }
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let elems: usize = input_shape.iter().product();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Pool,
            macs: 0,
            weight_elems: 0,
            weight_nnz: 0,
            format: WeightFormat::Dense,
            input_elems: elems,
            output_elems: elems / (self.window * self.window),
            output_shape: vec![
                input_shape[0],
                input_shape[1],
                input_shape[2] / self.window,
                input_shape[3] / self.window,
            ],
            scratch_elems: 0,
            parallel_grains: 1,
        }
    }
}

/// Non-overlapping `k × k` max pooling of NCHW planes `w` wide whose
/// height `k` divides: the planes stack into one sequence of `k`-line
/// bands, each pooled into one output row, its lines two at a time (an
/// odd last line paired with itself, which changes nothing). `K` fixes
/// `k` at compile time (the paper's 2×2 windows: one pair, no fold
/// through the row), `K = 0` reads `window`. Each window folds
/// `if x > best` in (dy, dx) order from −∞ — `maxps` semantics, so a
/// row pair folds as vectors: NaN never wins, an all-NaN window stays
/// −∞, and of equal values (±0) the first stays.
fn max_pool<const K: usize>(input: &[f32], w: usize, window: usize, out: &mut [f32]) {
    let k = if K == 0 { window } else { K };
    debug_assert_eq!(input.len() / (k * w) * (w / k), out.len());
    for (band, row) in input.chunks_exact(k * w).zip(out.chunks_exact_mut(w / k)) {
        for pair in 0..k.div_ceil(2) {
            let (upper, lower) = band[2 * pair * w..].split_at(w);
            let lower = if lower.is_empty() { upper } else { &lower[..w] };
            let windows = upper.chunks_exact(k).zip(lower.chunks_exact(k));
            for (best, (a, b)) in row.iter_mut().zip(windows) {
                let from = if pair == 0 { f32::NEG_INFINITY } else { *best };
                *best = a
                    .iter()
                    .chain(b)
                    .fold(from, |m, &x| if x > m { x } else { m });
            }
        }
    }
}

/// Global average pooling: collapses each channel plane to one value.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool {
            cached_input_shape: None,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        check_nchw(self, input_shape, None)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        "globalavgpool".into()
    }

    fn cache_for_backward(&mut self, input: &Tensor) {
        self.cached_input_shape = Some(input.shape().dims().to_vec());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .take()
            .expect("backward without a Train-phase forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        let mut grad_in = Tensor::zeros(shape.clone());
        for img in 0..n {
            for ch in 0..c {
                let g = grad_out.data()[img * c + ch] / plane as f32;
                let base = (img * c + ch) * plane;
                for v in &mut grad_in.data_mut()[base..base + plane] {
                    *v = g;
                }
            }
        }
        grad_in
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(GlobalAvgPool::new())
    }

    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        _scratch: &mut [f32],
        _cfg: &ExecConfig,
    ) {
        let (n, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let plane = h * w;
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                let s: f32 = input[base..base + plane].iter().sum();
                out[img * c + ch] = s / plane as f32;
            }
        }
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let elems: usize = input_shape.iter().product();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Pool,
            macs: 0,
            weight_elems: 0,
            weight_nnz: 0,
            format: WeightFormat::Dense,
            input_elems: elems,
            output_elems: input_shape[0] * input_shape[1],
            output_shape: vec![input_shape[0], input_shape[1], 1, 1],
            scratch_elems: 0,
            parallel_grains: 1,
        }
    }
}

/// Flattens `[n, c, h, w]` to `[n, c*h*w]` for the classifier head.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_input_shape: None,
        }
    }
}

impl Layer for Flatten {
    fn check_input(&self, input_shape: &[usize]) -> Result<(), Error> {
        check_nchw(self, input_shape, None)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        "flatten".into()
    }

    fn cache_for_backward(&mut self, input: &Tensor) {
        self.cached_input_shape = Some(input.shape().dims().to_vec());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .take()
            .expect("backward without a Train-phase forward");
        grad_out.reshape(shape)
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Flatten::new())
    }

    fn forward_into(
        &self,
        input: &[f32],
        _input_shape: &[usize],
        out: &mut [f32],
        _scratch: &mut [f32],
        _cfg: &ExecConfig,
    ) {
        // Row-major flatten is a straight copy.
        out.copy_from_slice(input);
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let elems: usize = input_shape.iter().product();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Reshape,
            macs: 0,
            weight_elems: 0,
            weight_nnz: 0,
            format: WeightFormat::Dense,
            input_elems: elems,
            output_elems: elems,
            output_shape: vec![input_shape[0], elems / input_shape[0]],
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
    fn maxpool_picks_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let y = pool.forward(&x, Phase::Eval, &ExecConfig::default());
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]);
        let _ = pool.forward(&x, Phase::Train, &ExecConfig::default());
        let dx = pool.backward(&Tensor::from_vec([1, 1, 1, 1], vec![5.0]));
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_backward_keeps_a_maxless_windows_gradient_in_its_image() {
        // Image 1's only window is all −∞ (image 0's is ordinary): its
        // gradient goes to its own first element, not to image 0's.
        let mut pool = MaxPool2d::new(2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            [2, 1, 2, 2],
            vec![1.0, 9.0, 2.0, 3.0, ninf, ninf, ninf, ninf],
        );
        let y = pool.forward(&x, Phase::Train, &ExecConfig::default());
        assert_eq!(y.data(), &[9.0, ninf]);
        let dx = pool.backward(&Tensor::from_vec([2, 1, 1, 1], vec![5.0, 7.0]));
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_ragged_input() {
        let mut pool = MaxPool2d::new(2);
        let _ = pool.forward(
            &Tensor::zeros([1, 1, 5, 5]),
            Phase::Eval,
            &ExecConfig::default(),
        );
    }

    #[test]
    fn gap_averages_planes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            [1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        );
        let y = gap.forward(&x, Phase::Eval, &ExecConfig::default());
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_backward_spreads_evenly() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::ones([1, 1, 2, 2]);
        let _ = gap.forward(&x, Phase::Train, &ExecConfig::default());
        let dx = gap.backward(&Tensor::from_vec([1, 1, 1, 1], vec![8.0]));
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut flat = Flatten::new();
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let y = flat.forward(&x, Phase::Train, &ExecConfig::default());
        assert_eq!(y.shape().dims(), &[2, 12]);
        let back = flat.backward(&y);
        assert_eq!(back.shape().dims(), &[2, 3, 2, 2]);
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn descriptors() {
        assert_eq!(MaxPool2d::new(2).descriptor(&[1, 4, 8, 8]).output_elems, 64);
        assert_eq!(
            GlobalAvgPool::new().descriptor(&[2, 16, 4, 4]).output_elems,
            32
        );
        assert_eq!(Flatten::new().descriptor(&[1, 2, 3, 3]).output_elems, 18);
    }
}
