//! The `Layer` trait and the execution-configuration types shared by all
//! layers.

use crate::descriptor::LayerDescriptor;
use crate::error::Error;
use cnn_stack_obs::ObsLevel;
use cnn_stack_parallel::Schedule;
use cnn_stack_tensor::{GemmAlgorithm, GemmEpilogue, GemmPlan, Tensor};

/// Whether a forward pass is part of training (caches activations for the
/// backward pass, uses batch statistics) or pure inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Training: layers cache whatever their backward pass needs.
    Train,
    /// Inference: no caching, running statistics, maximum speed.
    Eval,
}

/// Which convolution algorithm the systems layer selects (§IV-C/D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ConvAlgorithm {
    /// Direct (7-loop) convolution — the paper's baseline kernels.
    #[default]
    Direct,
    /// Lower to im2col, then one dense GEMM — the CLBlast pipeline.
    Im2col,
    /// F(2×2, 3×3) Winograd transform (the §II-B layer-3 candidate the
    /// paper names but does not evaluate). Applies to non-CSR 3×3
    /// stride-1 convolutions; other layers fall back to the direct
    /// kernel.
    Winograd,
    /// F(4×4, 3×3) Winograd transform: 6×6 tiles, 36 multiplies per 16
    /// outputs — 4× fewer than direct and 16/9 fewer than F(2×2), at a
    /// looser (still bounded) error budget from the worse-conditioned
    /// {0, ±1, ±2} interpolation points. Applies to non-CSR 3×3
    /// stride-1 convolutions; other layers fall back to the direct
    /// kernel.
    WinogradF4,
}

/// How a layer's weights are stored at inference time (§IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WeightFormat {
    /// Contiguous dense array.
    #[default]
    Dense,
    /// Compressed Sparse Row; pays per-nonzero index overhead.
    Csr,
    /// 2-bit packed ternary codes with two per-layer magnitudes (the TTQ
    /// output format). Value-preserving: the dense master already holds
    /// exactly {−Wₙ, 0, +Wₚ}, so the quantised kernel and the dense
    /// fallback produce identical bits. Weights that are *not* exactly
    /// ternary have no code form: every evaluation path then runs the
    /// dense f32 kernels (defined, value-correct behaviour).
    Ternary,
}

/// Execution configuration for a forward pass: the knobs of the paper's
/// "Systems Techniques" stack layer.
///
/// # Example
///
/// ```
/// use cnn_stack_nn::ExecConfig;
///
/// let cfg = ExecConfig::with_threads(4);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecConfig {
    /// Worker thread count for the convolution/linear outer loops.
    pub threads: usize,
    /// Loop schedule (the paper uses dynamic scheduling).
    pub schedule: Schedule,
    /// Convolution lowering.
    pub conv_algo: ConvAlgorithm,
    /// GEMM kernel for the im2col-convolution and linear layers. The
    /// default is [`GemmAlgorithm::Packed`], the BLIS-style packed
    /// micro-kernel engine; [`GemmAlgorithm::Blocked`] is the scalar
    /// fallback the degradation ladder demotes to.
    pub gemm_algo: GemmAlgorithm,
    /// Fuse a trailing ReLU into this layer's kernel (set by the
    /// fold-and-fuse plan pass when a `conv → [identity BN] → ReLU`,
    /// `dwconv → [identity BN] → ReLU` or `linear → ReLU` chain
    /// collapses into one step). Every conv/linear evaluation path
    /// honours it — the packed engine via the GEMM write-back epilogue,
    /// the scalar paths by clamping each finished output block — so a
    /// demoted fused step stays correct; the depthwise kernel clamps
    /// each output as it is written. The activation is `max(x, 0)`,
    /// bit-identical to the standalone [`crate::ReLU`] layer (including
    /// the NaN-flush).
    pub fused_relu: bool,
    /// Observability level for sessions compiled from this config:
    /// [`ObsLevel::Off`] (default) pays one relaxed atomic load per
    /// disabled instrument, [`ObsLevel::Metrics`] counts into the
    /// session's registry, [`ObsLevel::Trace`] additionally records
    /// per-step spans into a bounded ring for Chrome-trace export.
    pub observer: ObsLevel,
    /// Peak arena budget in bytes for plans compiled from this config.
    /// `None` (default) plans for time only. When set, the plan
    /// compiler solves "fastest plan under this many bytes", demoting
    /// workspace-hungry algorithm choices until the liveness-coloured
    /// footprint fits, and fails with
    /// [`crate::error::PlanError::BudgetInfeasible`] when no choice of
    /// algorithms can fit.
    pub plan_budget: Option<usize>,
}

impl ExecConfig {
    /// Serial execution with direct convolutions — the paper's 1-thread
    /// baseline.
    pub fn serial() -> Self {
        ExecConfig {
            threads: 1,
            schedule: Schedule::Dynamic { chunk: 1 },
            conv_algo: ConvAlgorithm::Direct,
            gemm_algo: GemmAlgorithm::Packed,
            fused_relu: false,
            observer: ObsLevel::Off,
            plan_budget: None,
        }
    }

    /// Direct convolutions on `threads` workers with dynamic scheduling.
    ///
    /// This is the panicking shim kept for tests and quick scripts;
    /// prefer [`ExecConfig::builder`], which reports invalid
    /// configurations as [`Error`] values instead.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "at least one thread required");
        ExecConfig {
            threads,
            ..ExecConfig::serial()
        }
    }

    /// The GEMM write-back epilogue this config implies (the packed
    /// engine applies [`fused_relu`](ExecConfig::fused_relu) there).
    pub fn epilogue(&self) -> GemmEpilogue {
        if self.fused_relu {
            GemmEpilogue::Relu
        } else {
            GemmEpilogue::None
        }
    }

    /// Starts a validating builder seeded with the serial defaults.
    ///
    /// # Example
    ///
    /// ```
    /// use cnn_stack_nn::{ConvAlgorithm, ExecConfig};
    ///
    /// let cfg = ExecConfig::builder()
    ///     .threads(8)
    ///     .conv_algo(ConvAlgorithm::Im2col)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.threads, 8);
    /// assert!(ExecConfig::builder().threads(0).build().is_err());
    /// ```
    pub fn builder() -> ExecConfigBuilder {
        ExecConfigBuilder {
            config: ExecConfig::serial(),
        }
    }
}

/// Validating builder for [`ExecConfig`]; see [`ExecConfig::builder`].
#[derive(Clone, Debug)]
pub struct ExecConfigBuilder {
    config: ExecConfig,
}

impl ExecConfigBuilder {
    /// Sets the worker thread count (validated at [`build`](Self::build)).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the parallel loop schedule.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Sets the convolution lowering algorithm.
    pub fn conv_algo(mut self, algo: ConvAlgorithm) -> Self {
        self.config.conv_algo = algo;
        self
    }

    /// Sets the GEMM kernel used by im2col convolutions and linear layers.
    pub fn gemm_algo(mut self, algo: GemmAlgorithm) -> Self {
        self.config.gemm_algo = algo;
        self
    }

    /// Sets the observability level for sessions built from this config.
    pub fn observer(mut self, level: ObsLevel) -> Self {
        self.config.observer = level;
        self
    }

    /// Caps the peak arena footprint of compiled plans at `bytes`.
    pub fn plan_budget(mut self, bytes: usize) -> Self {
        self.config.plan_budget = Some(bytes);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `threads == 0` or the chunk
    /// size of a static/dynamic schedule is zero.
    pub fn build(self) -> Result<ExecConfig, Error> {
        if self.config.threads == 0 {
            return Err(Error::InvalidConfig(
                "at least one thread required".to_string(),
            ));
        }
        let chunk = match self.config.schedule {
            Schedule::Static => 1,
            Schedule::Dynamic { chunk } => chunk,
            Schedule::Guided { min_chunk } => min_chunk,
        };
        if chunk == 0 {
            return Err(Error::InvalidConfig(
                "schedule chunk size must be positive".to_string(),
            ));
        }
        Ok(self.config)
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::serial()
    }
}

/// A trainable parameter: value plus gradient accumulator.
///
/// The accumulator is allocated by the first backward pass that writes
/// it, not with the value: a model that only ever runs inference — every
/// compiled session, every served replica — holds no gradient buffer.
/// Until then the gradient reads as absent, which every consumer treats
/// as zero.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the backward passes since the last
    /// [`zero_grad`](Param::zero_grad); `None` until one writes it.
    grad: Option<Tensor>,
    /// Optional pruning mask; wherever it is clear the value is pinned
    /// to zero (weight pruning keeps masks so fine-tuning cannot revive
    /// pruned weights).
    pub mask: Option<Mask>,
}

impl Param {
    /// Wraps a value tensor with no gradient buffer and no mask.
    pub fn new(value: Tensor) -> Self {
        Param {
            value,
            grad: None,
            mask: None,
        }
    }

    /// The accumulated gradient; `None` (read: zero) before any backward
    /// pass has written one.
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// The gradient accumulator for writing, allocated zeroed on first
    /// use: the route by which backward passes accumulate.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        let shape = self.value.shape();
        self.grad
            .get_or_insert_with(|| Tensor::zeros(shape.dims().to_vec()))
    }

    /// The value to update and the gradient to update it by, borrowed
    /// together (an optimiser step reads one while writing the other).
    pub fn value_and_grad(&mut self) -> (&mut Tensor, Option<&Tensor>) {
        (&mut self.value, self.grad.as_ref())
    }

    /// Zeroes the gradient accumulator; a no-op while there is none.
    pub fn zero_grad(&mut self) {
        if let Some(grad) = &mut self.grad {
            grad.fill(0.0);
        }
    }

    /// Re-applies the mask to the value (a no-op without a mask).
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            mask.apply(self.value.data_mut());
        }
    }

    /// Installs a binary mask and immediately applies it.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the value shape, or a mask
    /// value is neither `0.0` nor `1.0`.
    pub fn set_mask(&mut self, mask: Tensor) {
        assert_eq!(
            mask.shape(),
            self.value.shape(),
            "mask shape must match parameter shape"
        );
        self.mask = Some(Mask::from_tensor(&mask));
        self.apply_mask();
    }
}

/// A binary pruning mask at one bit per weight: a set bit keeps the
/// weight, a clear one pins it to zero — 1/32 of the f32 mask
/// [`Param::set_mask`] builds it from.
#[derive(Clone, Debug, PartialEq)]
pub struct Mask {
    shape: Vec<usize>,
    bits: Vec<u64>,
}

impl Mask {
    /// Packs a mask of `0.0`s (prune) and `1.0`s (keep).
    ///
    /// # Panics
    ///
    /// Panics if a value is neither `0.0` nor `1.0` (a `−0.0` included:
    /// multiplying by it is not multiplying by `0.0`).
    fn from_tensor(mask: &Tensor) -> Self {
        const ONE: u32 = 0x3F80_0000;
        let data = mask.data();
        // Folds, not searches: a branch on each pruning decision would
        // mispredict on every other weight.
        let binary = |m: &f32| (m.to_bits() == ONE) | (m.to_bits() == 0);
        if !data.iter().fold(true, |all, m| all & binary(m)) {
            let i = data
                .iter()
                .position(|m| !binary(m))
                .expect("the fold found one");
            panic!("mask values must be 0.0 or 1.0, got {} at {i}", data[i]);
        }
        // Of `1.0` and `+0.0`, only `1.0` has bit 29 set.
        let word = |chunk: &[f32]| {
            (chunk.iter().enumerate()).fold(0u64, |word, (j, m)| {
                word | u64::from(m.to_bits() >> 29 & 1) << j
            })
        };
        Mask {
            shape: mask.shape().dims().to_vec(),
            bits: data.chunks(64).map(word).collect(),
        }
    }

    /// The mask as the tensor of `0.0`s and `1.0`s it was built from.
    pub(crate) fn to_tensor(&self) -> Tensor {
        let mut mask = Tensor::ones(self.shape.clone());
        self.apply(mask.data_mut());
        mask
    }

    /// `v *= 1.0` where kept and `v *= 0.0` where pruned — the product
    /// the f32 mask it replaces computed, so a pruned NaN or infinity
    /// stays NaN and a pruned negative weight becomes `−0.0`.
    fn apply(&self, values: &mut [f32]) {
        for (&word, chunk) in self.bits.iter().zip(values.chunks_mut(64)) {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v *= (word >> j & 1) as f32;
            }
        }
    }

    /// Bytes the mask holds.
    pub fn bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }
}

/// A neural-network layer: forward, backward, parameters and a static
/// descriptor for the hardware model.
///
/// Layers own their backward-pass caches, so `forward` takes `&mut self`;
/// calling [`backward`](Layer::backward) is only valid after a
/// [`Phase::Train`] forward. [`Phase::Eval`] forwards never mutate the
/// layer, which is what lets [`forward_into`](Layer::forward_into) take
/// `&self` and the engine share a network across batch-parallel workers
/// (hence the `Send + Sync` bound).
pub trait Layer: std::fmt::Debug + std::any::Any + Send + Sync {
    /// Short human-readable layer name, e.g. `"conv3x3(64->128)"`.
    fn name(&self) -> String;

    /// Upcast for concrete-type inspection (compression passes downcast
    /// through this to reach `Conv2d`/`Linear`/… internals).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast; see [`as_any`](Layer::as_any).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Computes the layer output.
    fn forward(&mut self, input: &Tensor, phase: Phase, cfg: &ExecConfig) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. this layer's output) to the
    /// input, accumulating parameter gradients along the way.
    ///
    /// # Panics
    ///
    /// Panics if no [`Phase::Train`] forward pass preceded this call.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Read-only access to the layer's trainable parameters (empty for
    /// stateless layers). Unlike [`params_mut`](Layer::params_mut) this
    /// never drops derived weight forms, so scans that only *inspect*
    /// weights (e.g. the paranoid guard's per-run parameter check) go
    /// through here.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's trainable parameters (empty for
    /// stateless layers). Layers with derived weight forms (CSR, packed
    /// or code panels) drop them here, since the caller may mutate any
    /// returned value — masked pruning reaches weights this way — and
    /// weights shared with a [`replica`](Layer::replica) are copied
    /// first. Read through [`params`](Layer::params) to do neither.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Static descriptor for the given input shape: MACs, weight counts,
    /// parallel grain, output shape. Used by memory accounting and the
    /// platform timing model.
    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor;

    /// The minimum input rank [`descriptor`](Layer::descriptor) and the
    /// forward paths accept. Spatial (NCHW) layers need 4, `Linear`
    /// needs 2; rank-agnostic layers keep the default of 1. The engine
    /// validates shapes against this before walking descriptors, so
    /// plan compilation returns [`crate::Error::ShapeMismatch`] instead
    /// of panicking on a wrong-rank input.
    fn min_input_rank(&self) -> usize {
        1
    }

    /// Flat descriptors of the primitive layers this layer comprises.
    /// Composite layers (residual blocks) override this to expose their
    /// children; primitives return just their own descriptor.
    fn child_descriptors(&self, input_shape: &[usize]) -> Vec<LayerDescriptor> {
        vec![self.descriptor(input_shape)]
    }

    /// Visits this layer and (for composites) every descendant layer,
    /// depth-first with the parent before its children. This is the
    /// dynamic-dispatch alternative to the downcast-if chains the
    /// transformation passes used to carry: a pass hands in one closure
    /// and downcasts inside it.
    ///
    /// Primitive layers implement this as `f(self)`; composites call
    /// `f(self)` and then forward to each child.
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer));

    /// Plan-level warm-up for repeated inference under `cfg`: builds the
    /// one derived weight form `cfg`'s kernel reads (so steady-state
    /// [`forward_into`](Layer::forward_into) runs allocate nothing) and
    /// drops the others. The engine calls this (through
    /// [`visit_mut`](Layer::visit_mut)) when a session is built and
    /// after every demotion rebuild or weight-fault injection. Skipping
    /// it is never wrong, only slower on the first run. Layers with
    /// nothing to prepare keep the default no-op.
    fn prepare(&mut self, _cfg: &ExecConfig) {}

    /// A second instance of this layer serving the same model: the
    /// structure is cloned, conv/linear master weights (with their
    /// masks) and every derived form built so far are *shared*, not
    /// copied, and the training caches start empty. A replica made
    /// after [`prepare`](Layer::prepare) therefore prepares without
    /// packing anything — this is how a serving pool runs any number of
    /// sessions over one physical model. Writing to either side's
    /// weights copies that layer first (see [`params_mut`]), so the
    /// two can never observe each other's writes.
    ///
    /// [`params_mut`]: Layer::params_mut
    fn replica(&self) -> Box<dyn Layer>;

    /// The packed-GEMM blocking plan this layer would execute for the
    /// given input shape, if its `cfg` routes it through
    /// [`GemmAlgorithm::Packed`]; `None` otherwise. `InferencePlan`
    /// records this per step so the chosen MC/KC/NC blocking and the
    /// packed-buffer sizes are inspectable.
    fn gemm_plan(&self, _input_shape: &[usize], _cfg: &ExecConfig) -> Option<GemmPlan> {
        None
    }

    /// Workspace floats [`forward_into`](Layer::forward_into) needs for
    /// the given input shape under `cfg` (0 for layers that need none):
    /// the one bound a kernel states. The engine hands the kernel an
    /// arena slice of exactly this length, and the liveness planner and
    /// the budget solver size plans with it.
    fn forward_scratch_elems(&self, _input_shape: &[usize], _cfg: &ExecConfig) -> usize {
        0
    }

    /// Inference forward into a caller-provided output buffer, with no
    /// heap allocation. `input` holds an activation tensor of shape
    /// `input_shape` (row-major), `out` has exactly the layer's output
    /// element count, and `scratch` has at least
    /// [`forward_scratch_elems`](Layer::forward_scratch_elems) floats.
    /// This is the one way a kernel runs: the engine calls it over
    /// arena slices, and the allocating [`forward`](Layer::forward) of
    /// the kernel-bearing layers is a wrapper around it.
    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_config_defaults() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.conv_algo, ConvAlgorithm::Direct);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ExecConfig::with_threads(0);
    }

    #[test]
    fn builder_accepts_valid_config() {
        let cfg = ExecConfig::builder()
            .threads(4)
            .schedule(Schedule::Dynamic { chunk: 2 })
            .conv_algo(ConvAlgorithm::Im2col)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.schedule, Schedule::Dynamic { chunk: 2 });
        assert_eq!(cfg.conv_algo, ConvAlgorithm::Im2col);
    }

    #[test]
    fn builder_rejects_zero_threads_and_zero_chunk() {
        assert!(matches!(
            ExecConfig::builder().threads(0).build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            ExecConfig::builder()
                .schedule(Schedule::Dynamic { chunk: 0 })
                .build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones([3]));
        p.zero_grad();
        assert!(
            p.grad().is_none(),
            "zeroing an absent gradient allocates nothing"
        );
        p.grad_mut().fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad().map(Tensor::sum), Some(0.0));
    }

    #[test]
    fn param_mask_pins_zeros() {
        let mut p = Param::new(Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]));
        p.set_mask(Tensor::from_vec([4], vec![1.0, 0.0, 1.0, 0.0]));
        assert_eq!(p.value.data(), &[1.0, 0.0, 3.0, 0.0]);
        // Simulate an SGD update reviving a pruned weight…
        p.value.data_mut()[1] = 9.0;
        p.apply_mask();
        assert_eq!(p.value.data()[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "mask shape")]
    fn mask_shape_checked() {
        let mut p = Param::new(Tensor::ones([4]));
        p.set_mask(Tensor::ones([3]));
    }

    #[test]
    fn bit_mask_multiplies_like_the_f32_mask() {
        // Every special value under both mask bits, across a word edge:
        // the bits the f32 `*v *= m` left are the bits left now.
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            -2.5,
            3.0,
            f32::MIN_POSITIVE,
            -f32::MAX,
        ];
        let n = 2 * 64 + 3;
        let value = Tensor::from_fn([n], |i| specials[i % specials.len()]);
        let f32_mask = Tensor::from_fn([n], |i| ((i / specials.len()) % 2) as f32);
        let mut want = value.clone();
        for (v, m) in want.data_mut().iter_mut().zip(f32_mask.data()) {
            *v *= m;
        }
        let mut p = Param::new(value);
        p.set_mask(f32_mask.clone());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.value), bits(&want));
        let mask = p.mask.as_ref().expect("installed");
        assert_eq!(mask.to_tensor(), f32_mask);
        assert_eq!(mask.bytes(), 3 * 8, "one bit per weight");
    }

    #[test]
    #[should_panic(expected = "mask values must be 0.0 or 1.0")]
    fn non_binary_mask_rejected() {
        let mut p = Param::new(Tensor::ones([2]));
        p.set_mask(Tensor::from_vec([2], vec![1.0, -0.0]));
    }
}
