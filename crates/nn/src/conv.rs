//! Standard 2-D convolution with selectable algorithm and weight format.

use crate::algo::{self, AlgoChoice, LayerShape};
use crate::descriptor::{LayerDescriptor, LayerKind};
use crate::layer::{ExecConfig, Layer, Param, Phase, WeightFormat};
use crate::weights::{PanelOperand, Weights};
use cnn_stack_parallel::parallel_for;
use cnn_stack_parallel::DisjointWriter;
use cnn_stack_tensor::init::{initialise, Init};
use cnn_stack_tensor::{
    col2im, gemm, im2col, im2col_into, ops, pack_b_im2col_batch_into, pack_b_im2col_into,
    winograd_conv2d_into, Conv2dGeometry, GemmAlgorithm, GemmPlan, PackedA, Tensor,
    WinogradGeometry, WinogradTile,
};

/// A standard (grouped-by-1) 2-D convolution layer.
///
/// The layer owns dense master weights of shape `[out_c, in_c, k, k]`;
/// [`set_format`](Conv2d::set_format) labels how inference stores them
/// (the paper's format layer), and the storage forms derived from the
/// master — CSR, packed GEMM panels, ternary codes, Winograd filter
/// banks — are built on first use and dropped by every route that can
/// change the master. Both the direct and the im2col algorithms are
/// implemented for dense and CSR storage; training (backward) always
/// runs on the dense master.
///
/// # Example
///
/// ```
/// use cnn_stack_nn::{Conv2d, ExecConfig, Layer, Phase};
/// use cnn_stack_tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 16, 3, 1, 1, 42);
/// let y = conv.forward(&Tensor::zeros([2, 3, 32, 32]), Phase::Eval, &ExecConfig::default());
/// assert_eq!(y.shape().dims(), &[2, 16, 32, 32]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weights: Weights,
    bias: Param,
    /// Cached training-forward input.
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "conv extents must be non-zero"
        );
        let weight = Param::new(initialise(
            [out_channels, in_channels, kernel, kernel],
            Init::KaimingNormal,
            seed,
        ));
        let bias = Param::new(Tensor::zeros([out_channels]));
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weights: Weights::new(weight, PanelOperand::A),
            bias,
            cached_input: None,
        }
    }

    /// [`Layer::replica`] at the concrete type (composite layers hold
    /// their convolutions by value).
    pub fn replica(&self) -> Conv2d {
        Conv2d {
            weights: self.weights.replica(),
            bias: self.bias.clone(),
            cached_input: None,
            ..*self
        }
    }

    /// The weights with their derived forms and cached facts (the plan
    /// compiler reads the non-zero count and ternarity through this).
    pub(crate) fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Mutable [`weights`](Self::weights), for relabelling.
    pub(crate) fn weights_mut(&mut self) -> &mut Weights {
        &mut self.weights
    }

    /// The kernel this layer runs under `cfg` (see [`algo::resolve`]).
    pub fn runs(&self, cfg: &ExecConfig) -> AlgoChoice {
        algo::resolve(self.shape(), self.format(), cfg, || {
            self.weights.ternary_magnitudes().is_some()
        })
    }

    fn shape(&self) -> LayerShape {
        LayerShape::Conv {
            k_h: self.kernel,
            k_w: self.kernel,
            stride: self.stride,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The weight parameter (dense master copy).
    pub fn weight(&self) -> &Param {
        self.weights.master()
    }

    /// Mutable weight parameter. Drops every derived storage form; the
    /// next evaluation rebuilds the one it reads from the new weights.
    pub fn weight_mut(&mut self) -> &mut Param {
        self.weights.master_mut()
    }

    /// The bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Mutable bias parameter.
    pub fn bias_mut(&mut self) -> &mut Param {
        &mut self.bias
    }

    /// Current inference weight format.
    pub fn format(&self) -> WeightFormat {
        self.weights.format()
    }

    /// Selects the inference weight format. The label is durable: the
    /// matching storage form (CSR matrix, or 2-bit ternary codes when
    /// the weights are exactly ternary) is derived from the current
    /// master on first use and re-derived after any weight change.
    pub fn set_format(&mut self, format: WeightFormat) {
        self.weights.set_format(format);
    }

    /// The weights viewed as a `[out_c, in_c*k*k]` matrix (same memory
    /// order).
    pub fn weight_matrix(&self) -> Tensor {
        self.weight().value.reshape([
            self.out_channels,
            self.in_channels * self.kernel * self.kernel,
        ])
    }

    /// Convolution geometry for an input of spatial extent `h × w`.
    pub fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(
            self.in_channels,
            h,
            w,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Removes output channel `o`: drops the filter row and bias entry.
    /// Used by channel-pruning surgery.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range or only one channel remains.
    pub fn remove_out_channel(&mut self, o: usize) {
        assert!(o < self.out_channels, "output channel {o} out of range");
        assert!(
            self.out_channels > 1,
            "cannot remove the last output channel"
        );
        let row = self.in_channels * self.kernel * self.kernel;
        let mut w = self.weight().value.data().to_vec();
        w.drain(o * row..(o + 1) * row);
        let mut b = self.bias.value.data().to_vec();
        b.remove(o);
        self.out_channels -= 1;
        self.weights.replace(Tensor::from_vec(
            [
                self.out_channels,
                self.in_channels,
                self.kernel,
                self.kernel,
            ],
            w,
        ));
        self.bias = Param::new(Tensor::from_vec([self.out_channels], b));
    }

    /// Removes input channel `c`: drops that slice from every filter.
    /// Used by channel-pruning surgery on the consumer layer.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or only one channel remains.
    pub fn remove_in_channel(&mut self, c: usize) {
        assert!(c < self.in_channels, "input channel {c} out of range");
        assert!(self.in_channels > 1, "cannot remove the last input channel");
        let kk = self.kernel * self.kernel;
        let old_row = self.in_channels * kk;
        let src = self.weight().value.data();
        let mut w = Vec::with_capacity(self.out_channels * (old_row - kk));
        for o in 0..self.out_channels {
            let row = &src[o * old_row..(o + 1) * old_row];
            w.extend_from_slice(&row[..c * kk]);
            w.extend_from_slice(&row[(c + 1) * kk..]);
        }
        self.in_channels -= 1;
        self.weights.replace(Tensor::from_vec(
            [
                self.out_channels,
                self.in_channels,
                self.kernel,
                self.kernel,
            ],
            w,
        ));
    }

    /// Scratch floats the im2col lowering needs for one image at the
    /// given spatial extent (zero for the direct/sparse kernels).
    fn im2col_scratch_elems(&self, geom: &Conv2dGeometry) -> usize {
        geom.patch_len() * geom.out_positions()
    }

    /// Blocking plan of the packed per-image GEMM: `[out_c × patch_len]`
    /// weights times the `[patch_len × out_positions]` column matrix.
    fn packed_plan(&self, geom: &Conv2dGeometry) -> GemmPlan {
        GemmPlan::new(self.out_channels, geom.patch_len(), geom.out_positions())
    }

    /// Blocking plan of the batch-merged packed GEMM: `group` images'
    /// column matrices concatenated into one `[patch_len × g·positions]`
    /// operand. `kc` depends only on `patch_len`, so per-output
    /// accumulation order — and therefore every output bit — matches the
    /// per-image product.
    fn packed_batch_plan(&self, geom: &Conv2dGeometry, group: usize) -> GemmPlan {
        GemmPlan::new(
            self.out_channels,
            geom.patch_len(),
            group * geom.out_positions(),
        )
    }

    /// How many images of a batch the packed path merges into one GEMM:
    /// as many as fit one column chunk of the GEMM's loop nest (the
    /// plan's `nc`, 256 columns), at least 1.
    ///
    /// Merging pays while the merged columns fit one chunk: micro-kernel
    /// lanes stop being zero-padded (a 2×2 output plane alone uses 4 of
    /// the half tile's 8 lanes), and the weight A-panels — streamed from
    /// memory once per column chunk — are read once per group instead of
    /// once per image (conv4 at batch 8: all 8 images in one product,
    /// conv3 four). Past one chunk the A traffic no longer falls with
    /// the group size while the packed-B and merged-C regions keep
    /// growing, and VGG-16 at batch 8 runs within ±3 % for merge widths
    /// of 64 to 1024 columns; so the group stops at the chunk.
    fn packed_group(&self, geom: &Conv2dGeometry, n: usize) -> usize {
        packed_group_for(self.out_channels, geom.patch_len(), geom.out_positions(), n)
    }

    /// The Winograd convolution of `n` images of `h × w` on `tile`.
    fn winograd_geometry(
        &self,
        tile: WinogradTile,
        n: usize,
        h: usize,
        w: usize,
    ) -> WinogradGeometry {
        WinogradGeometry::new(
            tile,
            (n, self.in_channels, h, w),
            self.out_channels,
            self.padding,
        )
        .expect("resolve checked eligibility")
    }

    /// Workspace floats of the packed f32 kernel: the packed-B panels
    /// (group-merged when the group is > 1) plus a merged-C region for
    /// the grouped product; the weight panels are a derived form the
    /// layer holds itself.
    fn packed_scratch_elems(&self, geom: &Conv2dGeometry, n: usize) -> usize {
        let group = self.packed_group(geom, n);
        let c_elems = if group > 1 {
            self.out_channels * group * geom.out_positions()
        } else {
            0
        };
        self.packed_batch_plan(geom, group).packed_b_elems() + c_elems
    }

    /// Direct (7-loop) dense kernel over raw slices. Every `eval_*_into`
    /// kernel is reached only through [`Layer::forward_into`], which
    /// [`Layer::forward`] wraps, so the arena engine is bit-identical
    /// to the tensor path.
    fn eval_dense_direct_into(
        &self,
        in_data: &[f32],
        n: usize,
        geom: &Conv2dGeometry,
        out: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let (h, w) = (geom.in_h, geom.in_w);
        let plane = geom.out_h * geom.out_w;
        let in_img = self.in_channels * h * w;
        let out_img = self.out_channels * plane;
        let wdata = self.weight().value.data();
        let bdata = self.bias.value.data();
        let k = self.kernel;
        let row = self.in_channels * k * k;
        let writer = DisjointWriter::new(out);
        let writer = &writer;
        for img in 0..n {
            let x = &in_data[img * in_img..(img + 1) * in_img];
            parallel_for(cfg.threads, self.out_channels, cfg.schedule, |range| {
                for o in range {
                    // SAFETY: each grain `o` owns exactly one output
                    // plane; planes never overlap across grains.
                    let dst = unsafe {
                        writer.slice_mut(img * out_img + o * plane, img * out_img + (o + 1) * plane)
                    };
                    dst.fill(bdata[o]);
                    let filter = &wdata[o * row..(o + 1) * row];
                    direct_channel_conv(x, filter, dst, geom, h, w, k);
                    if cfg.fused_relu {
                        for d in dst.iter_mut() {
                            *d = d.max(0.0);
                        }
                    }
                }
            });
        }
    }

    /// im2col + scalar blocked GEMM dense kernel over raw slices (what a
    /// failing packed step is demoted to); `scratch` holds the per-image
    /// column matrix ([`Self::im2col_scratch_elems`] floats).
    #[allow(clippy::too_many_arguments)]
    fn eval_dense_im2col_into(
        &self,
        in_data: &[f32],
        n: usize,
        h: usize,
        w: usize,
        geom: &Conv2dGeometry,
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let plane = geom.out_positions();
        let in_img = self.in_channels * h * w;
        let out_img = self.out_channels * plane;
        let wmat = self.weight_matrix();
        let k_dim = wmat.shape().dims()[1];
        let bdata = self.bias.value.data();
        let cols_len = self.im2col_scratch_elems(geom);
        let writer = DisjointWriter::new(out);
        let writer = &writer;
        for img in 0..n {
            im2col_into(
                &in_data[img * in_img..(img + 1) * in_img],
                geom,
                &mut scratch[..cols_len],
            );
            let cols: &[f32] = &scratch[..cols_len];
            parallel_for(cfg.threads, self.out_channels, cfg.schedule, |range| {
                // SAFETY: grain range covers whole output rows
                // [start*plane, end*plane) of this image — disjoint.
                let dst = unsafe {
                    writer.slice_mut(
                        img * out_img + range.start * plane,
                        img * out_img + range.end * plane,
                    )
                };
                for (local, o) in range.clone().enumerate() {
                    dst[local * plane..(local + 1) * plane].fill(bdata[o]);
                }
                // One row-splittable scalar GEMM over the claimed row
                // block.
                let wslice = &wmat.data()[range.start * k_dim..range.end * k_dim];
                gemm::gemm_into(
                    wslice,
                    cols,
                    dst,
                    range.end - range.start,
                    k_dim,
                    plane,
                    GemmAlgorithm::Blocked,
                );
                if cfg.fused_relu {
                    for d in dst.iter_mut() {
                        *d = d.max(0.0);
                    }
                }
            });
        }
    }

    /// Packed-GEMM im2col kernel: column panels are packed straight from
    /// the image (fused im2col→pack, the `[patch_len × out_positions]`
    /// matrix is never materialised) and multiplied against the weights'
    /// A operand — f32 panels or 2-bit codes — in one whole-layer GEMM
    /// whose panel grid is distributed over the pool. `scratch` holds
    /// the packed-B region plus, for grouped batches, the merged-C
    /// region.
    #[allow(clippy::too_many_arguments)]
    fn eval_im2col_packed_into(
        &self,
        packed_a: PackedA<'_>,
        in_data: &[f32],
        n: usize,
        h: usize,
        w: usize,
        geom: &Conv2dGeometry,
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let plane = geom.out_positions();
        let in_img = self.in_channels * h * w;
        let out_img = self.out_channels * plane;
        let bdata = self.bias.value.data();
        let group = self.packed_group(geom, n);
        let plan = self.packed_batch_plan(geom, group);
        let c_elems = if group > 1 {
            self.out_channels * group * plane
        } else {
            0
        };
        let (b_buf, c_buf) =
            scratch[..plan.packed_b_elems() + c_elems].split_at_mut(plan.packed_b_elems());
        let mut img = 0;
        while img < n {
            let g = group.min(n - img);
            let images = &in_data[img * in_img..(img + g) * in_img];
            if g == 1 {
                // Ungrouped: GEMM straight into the image's output planes,
                // no merged-C scatter.
                if geom.is_pointwise_identity() {
                    // Pointwise (1×1/s1/p0) convolution is a plain GEMM:
                    // the im2col matrix *is* the image, so skip the
                    // per-tap gather and pack the image rows straight
                    // into B panels.
                    gemm::pack_b_into(&self.packed_plan(geom), images, b_buf);
                } else {
                    pack_b_im2col_into(images, geom, b_buf);
                }
                let dst = &mut out[img * out_img..(img + 1) * out_img];
                for (o, chunk) in dst.chunks_exact_mut(plane).enumerate() {
                    chunk.fill(bdata[o]);
                }
                gemm::gemm_prepacked_epilogue(
                    &self.packed_plan(geom),
                    packed_a,
                    b_buf,
                    dst,
                    cfg.threads,
                    cfg.schedule,
                    cfg.epilogue(),
                );
                img += 1;
                continue;
            }
            // Batch-merged GEMM over this group's columns — the serving
            // layer's single-core batching win: micro-kernel lanes that a
            // small output plane would leave zero-padded are filled by
            // co-batched images, and the weight A-panels stream through
            // cache (and are decoded) once per group instead of once per
            // image. `kc` is unchanged, so per-output accumulation order
            // — and every output bit — matches the ungrouped product.
            let merged = g * plane;
            let gplan = self.packed_batch_plan(geom, g);
            pack_b_im2col_batch_into(images, g, geom, b_buf);
            // Merged C is `[out_c × g·plane]`: bias-prefill each output
            // row, run the product with the fused epilogue, then scatter
            // each row's per-image segment into its NCHW plane
            // (contiguous copies, cheap next to the saved panel traffic).
            let c_buf = &mut c_buf[..self.out_channels * merged];
            for (o, row) in c_buf.chunks_exact_mut(merged).enumerate() {
                row.fill(bdata[o]);
            }
            gemm::gemm_prepacked_epilogue(
                &gplan,
                packed_a,
                b_buf,
                c_buf,
                cfg.threads,
                cfg.schedule,
                cfg.epilogue(),
            );
            for gi in 0..g {
                let dst = &mut out[(img + gi) * out_img..(img + gi + 1) * out_img];
                for (o, chunk) in dst.chunks_exact_mut(plane).enumerate() {
                    chunk.copy_from_slice(
                        &c_buf[o * merged + gi * plane..o * merged + (gi + 1) * plane],
                    );
                }
            }
            img += g;
        }
    }

    /// CSR sparse-direct kernel over raw slices.
    fn eval_csr_direct_into(
        &self,
        in_data: &[f32],
        n: usize,
        geom: &Conv2dGeometry,
        out: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let csr = self.weights.csr();
        let (h, w) = (geom.in_h, geom.in_w);
        let plane = geom.out_positions();
        let in_img = self.in_channels * h * w;
        let out_img = self.out_channels * plane;
        let bdata = self.bias.value.data();
        let k = self.kernel;
        let writer = DisjointWriter::new(out);
        let writer = &writer;
        for img in 0..n {
            let x = &in_data[img * in_img..(img + 1) * in_img];
            parallel_for(cfg.threads, self.out_channels, cfg.schedule, |range| {
                for o in range {
                    // SAFETY: one output plane per grain.
                    let dst = unsafe {
                        writer.slice_mut(img * out_img + o * plane, img * out_img + (o + 1) * plane)
                    };
                    dst.fill(bdata[o]);
                    let (idx, val) = csr.row(o);
                    sparse_channel_conv(x, idx, val, dst, geom, h, w, k);
                    if cfg.fused_relu {
                        for d in dst.iter_mut() {
                            *d = d.max(0.0);
                        }
                    }
                }
            });
        }
    }

    /// CSR × im2col kernel over raw slices: every stored weight scales
    /// one row of the per-image column matrix held in `scratch`.
    fn eval_csr_im2col_into(
        &self,
        in_data: &[f32],
        n: usize,
        geom: &Conv2dGeometry,
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let csr = self.weights.csr();
        let plane = geom.out_positions();
        let in_img = self.in_channels * geom.in_h * geom.in_w;
        let out_img = self.out_channels * plane;
        let bdata = self.bias.value.data();
        let cols_len = self.im2col_scratch_elems(geom);
        let writer = DisjointWriter::new(out);
        let writer = &writer;
        for img in 0..n {
            im2col_into(
                &in_data[img * in_img..(img + 1) * in_img],
                geom,
                &mut scratch[..cols_len],
            );
            let cols: &[f32] = &scratch[..cols_len];
            parallel_for(cfg.threads, self.out_channels, cfg.schedule, |range| {
                // SAFETY: whole-row block per grain range.
                let dst = unsafe {
                    writer.slice_mut(
                        img * out_img + range.start * plane,
                        img * out_img + range.end * plane,
                    )
                };
                for (local, o) in range.clone().enumerate() {
                    dst[local * plane..(local + 1) * plane].fill(bdata[o]);
                    let (idx, val) = csr.row(o);
                    let drow = &mut dst[local * plane..(local + 1) * plane];
                    for (&col, &v) in idx.iter().zip(val) {
                        let brow = &cols[col as usize * plane..(col as usize + 1) * plane];
                        for (d, &b) in drow.iter_mut().zip(brow) {
                            *d += v * b;
                        }
                    }
                    if cfg.fused_relu {
                        for d in dst[local * plane..(local + 1) * plane].iter_mut() {
                            *d = d.max(0.0);
                        }
                    }
                }
            });
        }
    }

    /// Winograd evaluation on `tile` against the layer's transformed
    /// filter bank, with the bias and the fused ReLU applied in the
    /// output transform.
    #[allow(clippy::too_many_arguments)]
    fn eval_winograd_into(
        &self,
        tile: WinogradTile,
        in_data: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        winograd_conv2d_into(
            &self.winograd_geometry(tile, n, h, w),
            in_data,
            self.weights.winograd_bank(tile),
            Some(self.bias.value.data()),
            cfg.epilogue(),
            out,
            scratch,
            cfg.threads,
            cfg.schedule,
        )
        .expect("resolve checked eligibility");
    }
}

/// The merge width behind [`Conv2d::packed_group`], on bare dimensions
/// so the planner's cost model (`passes::predicted_seconds`) prices the
/// group the layer will run: `nc / plane` of the whole-batch product's
/// plan, between 1 and `batch`.
pub(crate) fn packed_group_for(
    out_channels: usize,
    patch_len: usize,
    plane: usize,
    batch: usize,
) -> usize {
    let (plane, batch) = (plane.max(1), batch.max(1));
    (GemmPlan::new(out_channels, patch_len, batch * plane).nc / plane).clamp(1, batch)
}

/// Accumulates one dense filter over one image into one output plane.
fn direct_channel_conv(
    x: &[f32],
    filter: &[f32],
    dst: &mut [f32],
    geom: &Conv2dGeometry,
    h: usize,
    w: usize,
    k: usize,
) {
    for c in 0..geom.in_channels {
        let x_plane = &x[c * h * w..(c + 1) * h * w];
        for kh in 0..k {
            for kw in 0..k {
                let wv = filter[(c * k + kh) * k + kw];
                if wv == 0.0 {
                    continue;
                }
                accumulate_tap(x_plane, wv, dst, geom, h, w, kh, kw);
            }
        }
    }
}

/// Accumulates the non-zero taps of one CSR filter row into one plane.
#[allow(clippy::too_many_arguments)]
fn sparse_channel_conv(
    x: &[f32],
    idx: &[u32],
    val: &[f32],
    dst: &mut [f32],
    geom: &Conv2dGeometry,
    h: usize,
    w: usize,
    k: usize,
) {
    let kk = k * k;
    for (&flat, &wv) in idx.iter().zip(val) {
        let flat = flat as usize;
        let c = flat / kk;
        let kh = (flat % kk) / k;
        let kw = flat % k;
        let x_plane = &x[c * h * w..(c + 1) * h * w];
        accumulate_tap(x_plane, wv, dst, geom, h, w, kh, kw);
    }
}

/// Adds `wv * shifted(x_plane)` into the output plane for kernel tap
/// `(kh, kw)`.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)]
fn accumulate_tap(
    x_plane: &[f32],
    wv: f32,
    dst: &mut [f32],
    geom: &Conv2dGeometry,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
) {
    for oh in 0..geom.out_h {
        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
        if ih < 0 || ih as usize >= h {
            continue;
        }
        let x_row = &x_plane[ih as usize * w..(ih as usize + 1) * w];
        let d_row = &mut dst[oh * geom.out_w..(oh + 1) * geom.out_w];
        for ow in 0..geom.out_w {
            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
            if iw < 0 || iw as usize >= w {
                continue;
            }
            d_row[ow] += wv * x_row[iw as usize];
        }
    }
}

impl Layer for Conv2d {
    fn min_input_rank(&self) -> usize {
        4
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> String {
        format!(
            "conv{k}x{k}({i}->{o})/s{s}",
            k = self.kernel,
            i = self.in_channels,
            o = self.out_channels,
            s = self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, phase: Phase, cfg: &ExecConfig) -> Tensor {
        let (n, in_c, h, w) = input.shape().nchw();
        if phase == Phase::Train {
            self.cached_input = Some(input.clone());
        }
        let shape = [n, in_c, h, w];
        let geom = self.geometry(h, w);
        let mut out = Tensor::zeros([n, self.out_channels, geom.out_h, geom.out_w]);
        let mut scratch = vec![0.0f32; self.forward_scratch_elems(&shape, cfg)];
        // A one-shot call on a layer nobody prepared leaves no packed
        // copy of the weights behind.
        let cold = self.weights.is_cold();
        self.forward_into(input.data(), &shape, out.data_mut(), &mut scratch, cfg);
        if cold {
            self.weights.drop_derived();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward without a Train-phase forward");
        let (n, _, h, w) = input.shape().nchw();
        let geom = self.geometry(h, w);
        let plane = geom.out_positions();
        let row = self.in_channels * self.kernel * self.kernel;
        let in_img = self.in_channels * h * w;
        let out_img = self.out_channels * plane;
        let wmat = self.weight_matrix();
        let wmat_t = ops::transpose(&wmat);
        let mut grad_input = Tensor::zeros(input.shape().dims().to_vec());

        for img in 0..n {
            let cols = im2col(&input.data()[img * in_img..(img + 1) * in_img], &geom);
            let dy = Tensor::from_vec(
                [self.out_channels, plane],
                grad_out.data()[img * out_img..(img + 1) * out_img].to_vec(),
            );
            // dW += dY · colsᵀ
            let cols_t = ops::transpose(&cols);
            let dw = cnn_stack_tensor::matmul(&dy, &cols_t);
            debug_assert_eq!(dw.len(), self.out_channels * row);
            self.weights.master_mut().grad_mut().axpy(
                1.0,
                &dw.reshape([
                    self.out_channels,
                    self.in_channels,
                    self.kernel,
                    self.kernel,
                ]),
            );
            // db += rowsum(dY)
            for o in 0..self.out_channels {
                let s: f32 = dy.data()[o * plane..(o + 1) * plane].iter().sum();
                self.bias.grad_mut().data_mut()[o] += s;
            }
            // dX = col2im(Wᵀ · dY)
            let dcols = cnn_stack_tensor::matmul(&wmat_t, &dy);
            col2im(
                &dcols,
                &geom,
                &mut grad_input.data_mut()[img * in_img..(img + 1) * in_img],
            );
        }
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![self.weights.master(), &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.weights.master_mut(), &mut self.bias]
    }

    fn descriptor(&self, input_shape: &[usize]) -> LayerDescriptor {
        let n = input_shape[0];
        let (h, w) = (input_shape[2], input_shape[3]);
        let geom = self.geometry(h, w);
        let positions = geom.out_positions();
        let row = self.in_channels * self.kernel * self.kernel;
        let weight_elems = self.out_channels * row;
        let weight_nnz = self.weights.nnz();
        LayerDescriptor {
            name: self.name(),
            kind: LayerKind::Conv {
                geom,
                out_channels: self.out_channels,
            },
            macs: (n * self.out_channels * row * positions) as u64,
            weight_elems,
            weight_nnz,
            format: self.format(),
            input_elems: input_shape.iter().product(),
            output_elems: n * self.out_channels * positions,
            output_shape: vec![n, self.out_channels, geom.out_h, geom.out_w],
            scratch_elems: self.in_channels * (h + 2 * self.padding) * (w + 2 * self.padding),
            parallel_grains: self.out_channels,
        }
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn forward_scratch_elems(&self, input_shape: &[usize], cfg: &ExecConfig) -> usize {
        use AlgoChoice as K;
        let (n, h, w) = (input_shape[0], input_shape[2], input_shape[3]);
        let geom = self.geometry(h, w);
        let winograd = |tile| self.winograd_geometry(tile, n, h, w).scratch_elems();
        // The bound is a function of (label, cfg, geometry) only: weight
        // values can change under a compiled plan, so a quantised cfg is
        // sized as if the code form its label allows existed, and that
        // row's bound covers the f32 kernel it falls back to.
        match algo::resolve(self.shape(), self.format(), cfg, || true) {
            K::DirectConv | K::CsrConv => 0,
            K::Im2colScalar | K::CsrIm2col => self.im2col_scratch_elems(&geom),
            K::Winograd => winograd(WinogradTile::F2),
            K::WinogradF4 => winograd(WinogradTile::F4),
            K::Im2colPacked | K::TernaryConv => self.packed_scratch_elems(&geom, n),
            algo::linear_rows!() => unreachable!("a convolution resolves to a conv row"),
        }
    }

    fn prepare(&mut self, cfg: &ExecConfig) {
        let keep = self.runs(cfg).form();
        self.weights.prepare(keep);
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Conv2d::replica(self))
    }

    fn gemm_plan(&self, input_shape: &[usize], cfg: &ExecConfig) -> Option<GemmPlan> {
        use AlgoChoice as K;
        match self.runs(cfg) {
            K::Im2colPacked | K::TernaryConv => {
                let geom = self.geometry(input_shape[2], input_shape[3]);
                Some(self.packed_batch_plan(&geom, self.packed_group(&geom, input_shape[0])))
            }
            K::DirectConv
            | K::Im2colScalar
            | K::CsrConv
            | K::CsrIm2col
            | K::Winograd
            | K::WinogradF4 => None,
            algo::linear_rows!() => unreachable!("a convolution resolves to a conv row"),
        }
    }

    fn forward_into(
        &self,
        input: &[f32],
        input_shape: &[usize],
        out: &mut [f32],
        scratch: &mut [f32],
        cfg: &ExecConfig,
    ) {
        let (n, in_c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        assert_eq!(
            in_c,
            self.in_channels,
            "{}: input channel mismatch",
            self.name()
        );
        let geom = self.geometry(h, w);
        use AlgoChoice as K;
        match self.runs(cfg) {
            K::DirectConv => self.eval_dense_direct_into(input, n, &geom, out, cfg),
            K::Im2colPacked => {
                let a = PackedA::F32(self.weights.panels());
                self.eval_im2col_packed_into(a, input, n, h, w, &geom, out, scratch, cfg)
            }
            K::TernaryConv => {
                let codes = self
                    .weights
                    .codes()
                    .expect("resolve checked the label and the weight values");
                let a = PackedA::Codes(codes);
                self.eval_im2col_packed_into(a, input, n, h, w, &geom, out, scratch, cfg)
            }
            K::Im2colScalar => {
                self.eval_dense_im2col_into(input, n, h, w, &geom, out, scratch, cfg)
            }
            K::CsrConv => self.eval_csr_direct_into(input, n, &geom, out, cfg),
            K::CsrIm2col => self.eval_csr_im2col_into(input, n, &geom, out, scratch, cfg),
            K::Winograd => {
                self.eval_winograd_into(WinogradTile::F2, input, n, h, w, out, scratch, cfg)
            }
            K::WinogradF4 => {
                self.eval_winograd_into(WinogradTile::F4, input, n, h, w, out, scratch, cfg)
            }
            algo::linear_rows!() => unreachable!("a convolution resolves to a conv row"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ConvAlgorithm;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    fn all_paths(conv: &mut Conv2d, x: &Tensor) -> Vec<Tensor> {
        let mut outs = Vec::new();
        for format in [WeightFormat::Dense, WeightFormat::Csr] {
            conv.set_format(format);
            for algo in [ConvAlgorithm::Direct, ConvAlgorithm::Im2col] {
                // Both GEMM engines: packed (panels + micro-kernel) and the
                // blocked fallback that the guard demotes to.
                for gemm_algo in [gemm::GemmAlgorithm::Packed, gemm::GemmAlgorithm::Blocked] {
                    for threads in [1, 3] {
                        let cfg = ExecConfig {
                            threads,
                            conv_algo: algo,
                            gemm_algo,
                            ..ExecConfig::serial()
                        };
                        outs.push(conv.forward(x, Phase::Eval, &cfg));
                    }
                }
            }
        }
        conv.set_format(WeightFormat::Dense);
        outs
    }

    #[test]
    fn output_shape() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        let y = conv.forward(
            &Tensor::zeros([2, 3, 16, 16]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[2, 8, 16, 16]);
        let mut strided = Conv2d::new(3, 8, 3, 2, 1, 0);
        let y = strided.forward(
            &Tensor::zeros([1, 3, 16, 16]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn every_format_algorithm_thread_combo_agrees() {
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, 11);
        // Plant some zeros so CSR actually skips entries.
        conv.weight_mut().value.data_mut()[3] = 0.0;
        conv.weight_mut().value.data_mut()[40] = 0.0;
        let x = random([2, 3, 7, 7], 1);
        let outs = all_paths(&mut conv, &x);
        for (i, o) in outs.iter().enumerate().skip(1) {
            assert!(
                outs[0].allclose(o, 1e-4),
                "path {i} disagrees with reference"
            );
        }
    }

    #[test]
    fn prepared_panels_bit_match_cacheless_run() {
        let mut conv = Conv2d::new(3, 6, 3, 1, 1, 9);
        let x = random([2, 3, 8, 8], 11);
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        let cacheless = conv.forward(&x, Phase::Eval, &cfg);
        assert!(conv.weights.is_cold(), "one-shot forward keeps nothing");
        conv.prepare(&cfg);
        assert!(!conv.weights.is_cold());
        let shape = [2, 3, 8, 8];
        let mut out = vec![0.0f32; cacheless.len()];
        let mut scratch = vec![0.0f32; conv.forward_scratch_elems(&shape, &cfg)];
        conv.forward_into(x.data(), &shape, &mut out, &mut scratch, &cfg);
        // Same plan, same kernel, same panel layout -> bit-identical.
        assert_eq!(out.as_slice(), cacheless.data());
        // Touching the weights drops the panels.
        let _ = conv.weight_mut();
        assert!(conv.weights.is_cold());
    }

    #[test]
    fn batched_packed_gemm_bit_matches_per_image() {
        // The n > 1 packed path merges every image's columns into one
        // GEMM; `kc` is unchanged so it must be *bit*-identical to
        // running each image alone. Odd batches and planes that are not
        // NR-multiples make merged panels straddle image boundaries.
        for &(in_c, out_c, k, stride, pad, hw) in &[
            (3usize, 6usize, 3usize, 1usize, 1usize, 8usize), // plane 64
            (8, 4, 1, 1, 0, 5),                               // pointwise, plane 25
            (4, 5, 3, 2, 1, 6),                               // strided, plane 9
        ] {
            let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, 13);
            let cfg = ExecConfig {
                conv_algo: ConvAlgorithm::Im2col,
                ..ExecConfig::serial()
            };
            conv.prepare(&cfg);
            let n = 5;
            let x = random([n, in_c, hw, hw], 99);
            let shape = [n, in_c, hw, hw];
            let geom = conv.geometry(hw, hw);
            let out_img = out_c * geom.out_positions();
            let mut batched = vec![0.0f32; n * out_img];
            // NaN scratch: any read of an unwritten packing slot poisons
            // the output and fails the comparison below.
            let mut scratch = vec![f32::NAN; conv.forward_scratch_elems(&shape, &cfg)];
            conv.forward_into(x.data(), &shape, &mut batched, &mut scratch, &cfg);
            let single_shape = [1, in_c, hw, hw];
            let mut single = vec![0.0f32; out_img];
            let mut single_scratch =
                vec![f32::NAN; conv.forward_scratch_elems(&single_shape, &cfg)];
            for img in 0..n {
                single_scratch.fill(f32::NAN);
                conv.forward_into(
                    &x.data()[img * in_c * hw * hw..(img + 1) * in_c * hw * hw],
                    &single_shape,
                    &mut single,
                    &mut single_scratch,
                    &cfg,
                );
                assert_eq!(
                    batched[img * out_img..(img + 1) * out_img]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "image {img} of {in_c}->{out_c} k{k}/s{stride}/p{pad}"
                );
            }
        }
    }

    #[test]
    fn pointwise_conv_agrees_across_paths() {
        let mut conv = Conv2d::new(8, 4, 1, 1, 0, 5);
        let x = random([1, 8, 5, 5], 2);
        let outs = all_paths(&mut conv, &x);
        for o in &outs[1..] {
            assert!(outs[0].allclose(o, 1e-4));
        }
    }

    #[test]
    fn winograd_path_matches_direct() {
        let mut conv = Conv2d::new(3, 6, 3, 1, 1, 31);
        conv.bias.value.data_mut()[0] = 0.5;
        let x = random([2, 3, 8, 8], 17);
        let direct = conv.forward(&x, Phase::Eval, &ExecConfig::serial());
        let wino_cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Winograd,
            ..ExecConfig::serial()
        };
        let wino = conv.forward(&x, Phase::Eval, &wino_cfg);
        assert!(direct.allclose(&wino, 1e-3));
    }

    #[test]
    fn winograd_falls_back_for_unsupported_shapes() {
        // 1x1 kernel: Winograd config silently uses the direct kernel.
        let mut conv = Conv2d::new(4, 4, 1, 1, 0, 32);
        let x = random([1, 4, 5, 5], 18);
        let direct = conv.forward(&x, Phase::Eval, &ExecConfig::serial());
        let wino_cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Winograd,
            ..ExecConfig::serial()
        };
        let wino = conv.forward(&x, Phase::Eval, &wino_cfg);
        assert!(direct.allclose(&wino, 1e-6));
    }

    #[test]
    fn known_value_conv() {
        // 1 in, 1 out, 3x3 all-ones kernel, bias 1, on an all-ones 3x3
        // image with pad 1: centre output = 9 + 1, corner = 4 + 1.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        conv.weight_mut().value.fill(1.0);
        conv.bias.value.fill(1.0);
        let y = conv.forward(
            &Tensor::ones([1, 1, 3, 3]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y[[0, 0, 1, 1]], 10.0);
        assert_eq!(y[[0, 0, 0, 0]], 5.0);
    }

    #[test]
    fn backward_gradient_check_weights() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 7);
        let x = random([1, 2, 4, 4], 3);
        let cfg = ExecConfig::serial();
        // Loss = sum(output); dL/dy = ones.
        let y = conv.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        conv.backward(&ones);
        let analytic = conv.weight().grad().expect("backward wrote it").clone();
        let eps = 1e-3;
        for &i in &[0usize, 5, 17, 30, analytic.len() - 1] {
            let orig = conv.weight().value.data()[i];
            conv.weight_mut().value.data_mut()[i] = orig + eps;
            let lp = conv.forward(&x, Phase::Eval, &cfg).sum();
            conv.weight_mut().value.data_mut()[i] = orig - eps;
            let lm = conv.forward(&x, Phase::Eval, &cfg).sum();
            conv.weight_mut().value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[i]).abs() < 2e-2,
                "dW[{i}]: fd={fd}, analytic={}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn backward_gradient_check_input() {
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 9);
        let x = random([1, 2, 4, 4], 4);
        let cfg = ExecConfig::serial();
        let y = conv.forward(&x, Phase::Train, &cfg);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        let dx = conv.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 7, 19, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = conv.forward(&xp, Phase::Eval, &cfg).sum();
            let lm = conv.forward(&xm, Phase::Eval, &cfg).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "dX[{i}]: fd={fd}, analytic={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn backward_bias_gradient_is_output_count() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 0);
        let x = random([2, 1, 4, 4], 5);
        let y = conv.forward(&x, Phase::Train, &ExecConfig::serial());
        let ones = Tensor::ones(y.shape().dims().to_vec());
        conv.backward(&ones);
        // dL/db_o = number of output positions summed = 2 images * 16.
        assert!((conv.bias.grad().unwrap().data()[0] - 32.0).abs() < 1e-4);
    }

    #[test]
    fn remove_out_channel_drops_row() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1);
        let before = conv.weight_matrix();
        conv.remove_out_channel(1);
        assert_eq!(conv.out_channels(), 2);
        let after = conv.weight_matrix();
        assert_eq!(after.data()[0..18], before.data()[0..18]);
        assert_eq!(after.data()[18..36], before.data()[36..54]);
    }

    #[test]
    fn remove_in_channel_drops_slice() {
        let mut conv = Conv2d::new(3, 2, 3, 1, 1, 2);
        let before = conv.weight().value.clone();
        conv.remove_in_channel(0);
        assert_eq!(conv.in_channels(), 2);
        // For each filter, channels 1..3 of the old weights survive.
        for o in 0..2 {
            for c in 0..2 {
                for t in 0..9 {
                    assert_eq!(
                        conv.weight().value.data()[(o * 2 + c) * 9 + t],
                        before.data()[(o * 3 + c + 1) * 9 + t]
                    );
                }
            }
        }
        // Forward still works at the new shape.
        let y = conv.forward(
            &Tensor::zeros([1, 2, 4, 4]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn descriptor_macs_formula() {
        let conv = Conv2d::new(3, 64, 3, 1, 1, 0);
        let d = conv.descriptor(&[1, 3, 32, 32]);
        assert_eq!(d.macs, 64 * 27 * 1024);
        assert_eq!(d.parallel_grains, 64);
        assert_eq!(d.weight_elems, 64 * 27);
        assert_eq!(d.output_elems, 64 * 1024);
    }

    #[test]
    fn descriptor_tracks_csr_nnz() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 3);
        conv.weight_mut().value.fill(0.0);
        conv.weight_mut().value.data_mut()[0] = 1.0;
        conv.set_format(WeightFormat::Csr);
        let d = conv.descriptor(&[1, 1, 4, 4]);
        assert_eq!(d.weight_nnz, 1);
        assert_eq!(d.format, WeightFormat::Csr);
        assert!(d.sparsity() > 0.9);
    }

    #[test]
    #[should_panic(expected = "backward without")]
    fn backward_requires_train_forward() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        let _ = conv.backward(&Tensor::zeros([1, 1, 4, 4]));
    }
}
