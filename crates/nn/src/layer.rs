//! The `Layer` trait and the execution-configuration types shared by all
//! layers.

use crate::descriptor::LayerDescriptor;
use crate::error::Error;
use crate::weights::Weights;
use cnn_stack_obs::ObsLevel;
use cnn_stack_parallel::Schedule;
use cnn_stack_tensor::{GemmAlgorithm, GemmEpilogue, Tensor};

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

/// The loop schedule every layer kernel parallelises its outer loop
/// with: dynamic, one item per claim, as in the paper. The tensor-level
/// kernels still take a `Schedule`, so the `ablate_schedule` bench can
/// compare the others.
pub(crate) const LAYER_SCHEDULE: Schedule = Schedule::Dynamic { chunk: 1 };

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
    /// Convolution lowering.
    pub conv_algo: ConvAlgorithm,
    /// GEMM kernel for the im2col-convolution and linear layers. The
    /// default is [`GemmAlgorithm::Packed`], the BLIS-style packed
    /// micro-kernel engine; [`GemmAlgorithm::Blocked`] is the scalar
    /// floor on both layer kinds: the row-loop GEMM on a linear layer,
    /// and the direct loop on a dense convolution (an im2col
    /// convolution under it resolves to direct).
    pub gemm_algo: GemmAlgorithm,
    /// Fuse a trailing ReLU into this layer's kernel (set by the plan
    /// compiler's fusion when a `conv → [identity BN] → ReLU`,
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
    /// Returns [`Error::InvalidConfig`] if `threads == 0`.
    pub fn build(self) -> Result<ExecConfig, Error> {
        if self.config.threads == 0 {
            return Err(Error::InvalidConfig(
                "at least one thread required".to_string(),
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

    /// Installs a binary mask and immediately applies it: a thin
    /// validating wrapper over [`set_mask_where`](Param::set_mask_where)
    /// that keeps the weights whose mask value is `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the value shape, or a mask
    /// value is neither `0.0` nor `1.0` (a `−0.0` included: multiplying
    /// by it is not multiplying by `0.0`).
    pub fn set_mask(&mut self, mask: Tensor) {
        assert_eq!(
            mask.shape(),
            self.value.shape(),
            "mask shape must match parameter shape"
        );
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
        // `keep` sees the values in index order, so it walks the mask
        // in step with them.
        let mut bits = data.iter();
        self.set_mask_where(|_| bits.next().is_some_and(|m| m.to_bits() == ONE));
    }

    /// Installs the mask that keeps exactly the weights `keep` accepts,
    /// applies it, and returns how many it kept. `keep` is called once
    /// per weight, in index order, with the weight's current value; this
    /// is the one place mask bits are built. A weight it rejects becomes
    /// `v * 0.0`, as under an f32 mask: `−0.0` if it was negative, NaN
    /// if it was NaN or infinite.
    pub fn set_mask_where(&mut self, mut keep: impl FnMut(f32) -> bool) -> usize {
        let values = self.value.data_mut();
        let mut bits = Vec::with_capacity(values.len().div_ceil(64));
        // One sweep: each chunk of 64 is tested, then masked while it is
        // still in cache.
        for chunk in values.chunks_mut(64) {
            let word = Mask::word_where(chunk, &mut keep);
            Mask::apply_word(word, chunk);
            bits.push(word);
        }
        let kept = bits.iter().map(|w| w.count_ones() as usize).sum();
        self.mask = Some(Mask {
            shape: self.value.shape().dims().to_vec(),
            bits,
        });
        kept
    }
}

/// The bits of `1.0f32`.
const ONE: u32 = 0x3F80_0000;

/// A binary pruning mask at one bit per weight: a set bit keeps the
/// weight, a clear one pins it to zero — 1/32 of an f32 mask. Built only
/// by [`Param::set_mask_where`].
#[derive(Clone, Debug, PartialEq)]
pub struct Mask {
    shape: Vec<usize>,
    bits: Vec<u64>,
}

impl Mask {
    /// The mask as the tensor of `0.0`s and `1.0`s it was built from.
    pub(crate) fn to_tensor(&self) -> Tensor {
        let mut mask = Tensor::ones(self.shape.clone());
        self.apply(mask.data_mut());
        mask
    }

    /// The word of at most 64 `values` that has bit `j` set iff
    /// `keep(values[j])`, calling `keep` once per value, in order. Every
    /// mask bit is built here ([`Param::set_mask_where`]), and so are the
    /// compression passes' other per-weight bit sets.
    ///
    /// # Panics
    ///
    /// Panics if `values` holds more than 64 values.
    pub fn word_where(values: &[f32], mut keep: impl FnMut(f32) -> bool) -> u64 {
        // One byte per value, then eight bytes to eight bits by one
        // multiply: no branch and no per-bit shift, both of which keep
        // the tests from vectorising.
        let mut bytes = [0u8; 64];
        for (b, &v) in bytes[..values.len()].iter_mut().zip(values) {
            *b = u8::from(keep(v));
        }
        (bytes.chunks_exact(8).enumerate()).fold(0, |word, (g, b)| {
            let b = u64::from_le_bytes(b.try_into().expect("eight bytes"));
            word | b.wrapping_mul(0x0102_0408_1020_4080) >> 56 << (8 * g)
        })
    }

    /// `v *= 1.0` where kept and `v *= 0.0` where pruned — the product
    /// the f32 mask it replaces computed, so a pruned NaN or infinity
    /// stays NaN and a pruned negative weight becomes `−0.0`.
    fn apply(&self, values: &mut [f32]) {
        for (&word, chunk) in self.bits.iter().zip(values.chunks_mut(64)) {
            Mask::apply_word(word, chunk);
        }
    }

    /// [`apply`](Mask::apply) on one word's chunk of at most 64 values.
    fn apply_word(word: u64, chunk: &mut [f32]) {
        // Each byte of the word spread to eight 0/1 bytes: bit `i` is
        // isolated in byte `i`, and adding 0x7F carries it to the byte's
        // top bit.
        let mut keep = [0u8; 64];
        for (g, k) in keep.chunks_exact_mut(8).enumerate() {
            let spread = (word >> (8 * g) & 0xFF).wrapping_mul(0x0101_0101_0101_0101);
            let isolated = spread & 0x8040_2010_0804_0201;
            let ones = (isolated + 0x7F7F_7F7F_7F7F_7F7F) >> 7 & 0x0101_0101_0101_0101;
            k.copy_from_slice(&ones.to_le_bytes());
        }
        for (v, &k) in chunk.iter_mut().zip(&keep) {
            *v *= f32::from(k);
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
/// [`forward_into`](Layer::forward_into) is the only place a layer
/// computes values: the engine calls it over arena slices, and the
/// provided [`forward`](Layer::forward) is an allocating wrapper around
/// it. A [`Phase::Train`] forward first hands the input to
/// [`cache_for_backward`](Layer::cache_for_backward), the one hook where
/// a layer records what its [`backward`](Layer::backward) needs, then
/// runs the same kernel; `backward` is only valid after such a forward.
/// Only [`crate::BatchNorm2d`] (batch statistics) and
/// [`crate::ResidualBlock`] (whose children cache) compute Train values
/// their own way, and both send [`Phase::Eval`] to the shared wrapper.
/// Eval forwards never mutate the layer, which is what lets
/// `forward_into` take `&self` and the engine share a network across
/// batch-parallel workers (hence the `Send + Sync` bound).
pub trait Layer: std::fmt::Debug + std::any::Any + Send + Sync {
    /// Short human-readable layer name, e.g. `"conv3x3(64->128)"`.
    fn name(&self) -> String;

    /// Upcast for concrete-type inspection (compression passes downcast
    /// through this to reach `Conv2d`/`Linear`/… internals).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast; see [`as_any`](Layer::as_any).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Computes the layer output: under [`Phase::Train`] first
    /// [`cache_for_backward`](Layer::cache_for_backward), then, in either
    /// phase, [`forward_into`](Layer::forward_into) into a tensor sized
    /// by [`descriptor`](Layer::descriptor) over a workspace of
    /// [`forward_scratch_elems`](Layer::forward_scratch_elems) floats. A
    /// one-shot call leaves no derived weight form behind on any layer
    /// (descendants included) nobody had prepared. Primitive layers keep
    /// this provided body.
    fn forward(&mut self, input: &Tensor, phase: Phase, cfg: &ExecConfig) -> Tensor {
        if phase == Phase::Train {
            self.cache_for_backward(input);
        }
        forward_eval(self, input, cfg)
    }

    /// The Train hook: records from a [`Phase::Train`] forward's input
    /// what [`backward`](Layer::backward) needs (the input itself, a ReLU
    /// mask, a shape). Never called for [`Phase::Eval`]. The default
    /// records nothing.
    fn cache_for_backward(&mut self, _input: &Tensor) {}

    /// Propagates `grad_out` (gradient w.r.t. this layer's output) to the
    /// input, accumulating parameter gradients along the way.
    ///
    /// # Panics
    ///
    /// Panics if no [`Phase::Train`] forward pass preceded this call.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Read-only access to the layer's trainable parameters (empty for
    /// stateless layers). Unlike [`params_mut`](Layer::params_mut) this
    /// never drops derived weight forms; it does rebuild a conv/linear
    /// master that [`prepare`](Layer::prepare) dropped, so per-run scans
    /// read [`first_non_finite_param`](Layer::first_non_finite_param)
    /// and counts read [`num_params`](Layer::num_params) instead.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Total element count of [`params`](Layer::params), read from
    /// stored extents: no dropped master is rebuilt.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// The paranoid guard's weight scan: the first non-finite parameter
    /// element as `(param, index)` — `param` counts
    /// [`params`](Layer::params) in order, `index` is into that
    /// parameter's value — read from the form each kernel reads, so a
    /// dropped master stays dropped. Adds one to `scanned` per parameter
    /// tensor read.
    fn first_non_finite_param(&self, scanned: &mut usize) -> Option<(usize, usize)> {
        self.params().iter().enumerate().find_map(|(p, param)| {
            *scanned += 1;
            Some((p, crate::guard::scan_non_finite(param.value.data())?.0))
        })
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

    /// Whether [`descriptor`](Layer::descriptor) and the kernels accept
    /// an input of `input_shape`: its rank (spatial NCHW layers need 4,
    /// `Linear` 2) and, for a layer with a fixed input width, its
    /// channel count (conv, depthwise, batch norm, residual block) or
    /// per-image feature count (`Linear`). Plan compilation checks every
    /// layer, on the shape that reaches it, before it folds or lowers
    /// anything, so a shape the network cannot run is a compile error,
    /// never a kernel panic. Layers that accept any shape keep the
    /// default.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the layer, what it needs and the
    /// shape it got.
    fn check_input(&self, _input_shape: &[usize]) -> Result<(), Error> {
        Ok(())
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
    /// one weight form `cfg`'s kernel reads (so steady-state
    /// [`forward_into`](Layer::forward_into) runs allocate nothing) and
    /// drops the others, the master included when the kept form
    /// re-encodes it losslessly. Returns whether that freed a master's
    /// buffer, so the caller can return the pages once per sweep. The
    /// engine calls this (through [`visit_mut`](Layer::visit_mut)) when
    /// a session is built and after every demotion rebuild or
    /// weight-fault injection. Skipping it is never wrong, only slower
    /// on the first run. Layers with nothing to prepare keep the default
    /// no-op.
    fn prepare(&mut self, _cfg: &ExecConfig) -> bool {
        false
    }

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
    /// arena slices, and the allocating [`forward`](Layer::forward) is a
    /// wrapper around it.
    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    );
}

/// [`Layer::check_input`] for an NCHW layer: rank 4 and, when
/// `channels` is given, exactly that many input channels.
pub(crate) fn check_nchw(
    layer: &dyn Layer,
    shape: &[usize],
    channels: Option<usize>,
) -> Result<(), Error> {
    match channels {
        _ if shape.len() < 4 => refuse_input(layer, shape, "a rank-4 input"),
        Some(c) if shape[1] != c => refuse_input(layer, shape, format_args!("{c} input channels")),
        _ => Ok(()),
    }
}

/// [`Layer::check_input`] for a convolution: as [`check_nchw`], and its
/// `kernel × kernel` window must fit the plane padded by `padding` on
/// every side (the im2col geometry panics otherwise).
pub(crate) fn check_conv(
    layer: &dyn Layer,
    shape: &[usize],
    channels: usize,
    kernel: usize,
    padding: usize,
) -> Result<(), Error> {
    check_nchw(layer, shape, Some(channels))?;
    if shape[2] + 2 * padding < kernel || shape[3] + 2 * padding < kernel {
        return refuse_input(
            layer,
            shape,
            format_args!("a plane that fits its {kernel}x{kernel} window after padding {padding}"),
        );
    }
    Ok(())
}

/// The [`Layer::check_input`] error: `layer` needs `need`, not `shape`.
pub(crate) fn refuse_input(
    layer: &dyn Layer,
    shape: &[usize],
    need: impl std::fmt::Display,
) -> Result<(), Error> {
    Err(Error::InvalidConfig(format!(
        "layer {} needs {need}, got shape {shape:?}",
        layer.name()
    )))
}

/// The body of the provided [`Layer::forward`] after its Train hook, and
/// the [`Phase::Eval`] arm of the two layers that override `forward`:
/// sizes the output and the workspace, runs
/// [`forward_into`](Layer::forward_into), and drops the derived weight
/// forms the call built on every layer that held none before it.
pub(crate) fn forward_eval<L: Layer + ?Sized>(
    layer: &mut L,
    input: &Tensor,
    cfg: &ExecConfig,
) -> Tensor {
    let shape = input.shape().dims();
    let mut out = Tensor::zeros(layer.descriptor(shape).output_shape);
    let mut scratch = vec![0.0f32; layer.forward_scratch_elems(shape, cfg)];
    let mut cold = Vec::new();
    layer.visit_mut(&mut |l| cold.push(Weights::of(l).is_some_and(Weights::is_cold)));
    layer.forward_into(input.data(), shape, out.data_mut(), &mut scratch, cfg);
    let mut cold = cold.into_iter();
    layer.visit_mut(&mut |l| {
        if cold.next() == Some(true) {
            Weights::of_mut(l).expect("the same walk").drop_derived();
        }
    });
    out
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
            .conv_algo(ConvAlgorithm::Im2col)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.conv_algo, ConvAlgorithm::Im2col);
    }

    #[test]
    fn builder_rejects_zero_threads() {
        assert!(matches!(
            ExecConfig::builder().threads(0).build(),
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
    fn predicate_and_f32_masks_agree() {
        // Every length around a word edge, a keep pattern that is no
        // function of the value, and specials under both bits: the
        // values `v *= m` left, the words of the f32 mask, the kept
        // count, and re-applying after the values were overwritten.
        let specials = [f32::NAN, -0.0, 0.0, f32::INFINITY, -1.5, f32::from_bits(9)];
        for n in [1usize, 7, 63, 64, 65, 128, 200] {
            let value = Tensor::from_fn([n], |i| specials[i % specials.len()]);
            let f32_mask = Tensor::from_fn([n], |i| ((i * 7 + i / 3) % 5 < 3) as u8 as f32);
            let masked = |v: &Tensor| {
                let mut want = v.clone();
                for (v, m) in want.data_mut().iter_mut().zip(f32_mask.data()) {
                    *v *= m;
                }
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut by_tensor = Param::new(value.clone());
            by_tensor.set_mask(f32_mask.clone());
            let mut by_predicate = Param::new(value.clone());
            let mut m = f32_mask.data().iter();
            let kept = by_predicate.set_mask_where(|_| m.next() == Some(&1.0));
            assert_eq!(kept, f32_mask.data().iter().filter(|&&m| m == 1.0).count());
            assert_eq!(by_predicate.mask, by_tensor.mask, "n {n}");
            assert_eq!(bits(&by_predicate.value), bits(&by_tensor.value), "n {n}");
            assert_eq!(bits(&by_predicate.value), masked(&value), "n {n}");
            let mask = by_predicate.mask.as_ref().expect("installed");
            assert_eq!(mask.to_tensor(), f32_mask, "n {n}");
            // Bit j of word i is weight 64 i + j.
            for (i, word) in mask.bits.iter().enumerate() {
                let want = (f32_mask.data()[64 * i..].iter().take(64).enumerate())
                    .fold(0u64, |w, (j, &m)| w | u64::from(m == 1.0) << j);
                assert_eq!(*word, want, "n {n}, word {i}");
            }
            let overwritten = Tensor::from_fn([n], |i| specials[(i + 1) % specials.len()]);
            by_predicate.value = overwritten.clone();
            by_predicate.apply_mask();
            assert_eq!(bits(&by_predicate.value), masked(&overwritten), "n {n}");
        }
    }

    #[test]
    #[should_panic(expected = "mask values must be 0.0 or 1.0")]
    fn non_binary_mask_rejected() {
        let mut p = Param::new(Tensor::ones([2]));
        p.set_mask(Tensor::from_vec([2], vec![1.0, -0.0]));
    }

    /// Finite values with NaN, ±Inf and −0.0 strewn through the first
    /// half (the first image), so the second half stays finite.
    fn with_specials(shape: impl Into<cnn_stack_tensor::Shape>) -> Tensor {
        let shape = shape.into();
        let half = shape.len() / 2;
        let specials = [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY];
        Tensor::from_fn(shape, |i| match i % 13 {
            5 if i < half => specials[i / 13 % specials.len()],
            _ => ((i * 37) % 23) as f32 / 8.0 - 1.375,
        })
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    /// `forward(Train)`, `forward(Eval)` and `forward_into` over
    /// NaN-poisoned scratch of the advertised size agree bit for bit,
    /// and the Train forward leaves what `backward` needs.
    fn assert_one_kernel(layer: &mut dyn Layer, x: &Tensor, cfg: &ExecConfig, what: &str) {
        let shape = x.shape().dims();
        let eval = layer.forward(x, Phase::Eval, cfg);
        let mut out = vec![f32::NAN; eval.len()];
        let mut scratch = vec![f32::NAN; layer.forward_scratch_elems(shape, cfg)];
        layer.forward_into(x.data(), shape, &mut out, &mut scratch, cfg);
        let train = layer.forward(x, Phase::Train, cfg);
        assert_eq!(train.shape(), eval.shape(), "{what}: shapes");
        assert_eq!(
            bits(train.data()),
            bits(eval.data()),
            "{what}: Train vs Eval"
        );
        assert_eq!(
            bits(&out),
            bits(eval.data()),
            "{what}: forward_into vs Eval"
        );
        let grad = layer.backward(&Tensor::ones(train.shape().dims().to_vec()));
        assert_eq!(grad.shape().dims(), shape, "{what}: backward");
    }

    #[test]
    fn train_forward_runs_the_eval_kernel() {
        use crate::algo::{AlgoChoice, LayerShape};
        use crate::{Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU};
        let image = with_specials([2, 3, 6, 6]);
        let rows = with_specials([2, 12]);
        for fused_relu in [false, true] {
            let cfg = ExecConfig {
                fused_relu,
                ..ExecConfig::serial()
            };
            let layers: [Box<dyn Layer>; 5] = [
                Box::new(ReLU::new()),
                Box::new(MaxPool2d::new(2)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Flatten::new()),
                Box::new(DepthwiseConv2d::new(3, 3, 1, 1, 5)),
            ];
            for mut layer in layers {
                let what = format!("{} fused_relu={fused_relu}", layer.name());
                assert_one_kernel(layer.as_mut(), &image, &cfg, &what);
            }
            // Every conv and linear row, on weights it applies to (the
            // ternary rows need exactly ternary ones).
            for row in AlgoChoice::ALL {
                let mut cfg = cfg;
                let format = row.select(&mut cfg);
                let (mut layer, shape, x): (Box<dyn Layer>, _, _) = if row.is_conv() {
                    let shape = LayerShape::Conv {
                        k_h: 3,
                        k_w: 3,
                        stride: 1,
                    };
                    (Box::new(Conv2d::new(3, 4, 3, 1, 1, 7)), shape, &image)
                } else {
                    (Box::new(Linear::new(12, 5, 7)), LayerShape::Linear, &rows)
                };
                let weights = Weights::of_mut(layer.as_mut()).expect("conv or linear");
                if !row.applies(shape, false) {
                    for w in weights.master_mut().value.data_mut() {
                        *w = if *w >= 0.0 { 0.5 } else { -0.25 };
                    }
                }
                weights.set_format(format);
                assert_eq!(AlgoChoice::of(layer.as_ref(), &cfg), Some(row));
                let what = format!("{} fused_relu={fused_relu}", row.tag());
                assert_one_kernel(layer.as_mut(), x, &cfg, &what);
            }
        }
    }

    /// `layer` accepts `good` and names what it needs for too low a rank
    /// and for the wrong channel or feature count.
    fn refuses(layer: &dyn Layer, good: &[usize], low_rank: &[usize], wrong: &[usize], need: &str) {
        assert_eq!(layer.check_input(good), Ok(()), "{}", layer.name());
        for (bad, want) in [(low_rank, "rank-"), (wrong, need)] {
            match layer.check_input(bad) {
                Err(Error::InvalidConfig(msg)) => {
                    assert!(msg.contains(want), "{}: {msg}", layer.name())
                }
                other => panic!("{} on {bad:?}: {other:?}", layer.name()),
            }
        }
    }

    #[test]
    fn check_input_names_rank_and_width_mismatches() {
        use crate::{BatchNorm2d, Conv2d, DepthwiseConv2d, Linear, ResidualBlock};
        let channels = "3 input channels";
        let conv = Conv2d::new(3, 4, 3, 1, 1, 0);
        refuses(&conv, &[1, 3, 8, 8], &[3, 8, 8], &[1, 5, 8, 8], channels);
        let dw = DepthwiseConv2d::new(3, 3, 1, 1, 0);
        refuses(&dw, &[2, 3, 8, 8], &[3, 8, 8], &[2, 4, 8, 8], channels);
        let bn = BatchNorm2d::new(3);
        refuses(&bn, &[1, 3, 4, 4], &[1, 3], &[1, 2, 4, 4], channels);
        let block = ResidualBlock::new(3, 4, 1, 0);
        refuses(&block, &[1, 3, 8, 8], &[1, 3, 8], &[1, 4, 8, 8], channels);
        // A linear layer reads every feature of an image, whatever its rank.
        let fc = Linear::new(12, 2, 0);
        refuses(&fc, &[2, 3, 2, 2], &[12], &[2, 13], "12 input features");
    }
}
