//! The `im2col`/`col2im` data-layout transformation.
//!
//! `im2col` rearranges image patches into matrix columns so that a
//! convolution becomes a single GEMM (§IV-D of the paper: "the CLBlast
//! library ... requires ... the im2col operation, which rearranges image
//! blocks to columns"). Its inverse, `col2im`, scatter-adds columns back
//! into an image and is the core of the convolution backward pass.

use crate::gemm::NR;
use crate::shape::Shape;
use crate::tensor::Tensor;
use cnn_stack_obs::{self as obs, Metric};

/// Static geometry of a 2-D convolution: input/kernel extents, stride and
/// padding, plus the derived output extents.
///
/// # Example
///
/// ```
/// use cnn_stack_tensor::Conv2dGeometry;
///
/// // A CIFAR-10 3x3 "same" convolution.
/// let g = Conv2dGeometry::new(3, 32, 32, 3, 3, 1, 1);
/// assert_eq!((g.out_h, g.out_w), (32, 32));
/// assert_eq!(g.patch_len(), 3 * 3 * 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
    /// Output height, derived.
    pub out_h: usize,
    /// Output width, derived.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes the geometry for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or the kernel (after padding) does not
    /// fit inside the input.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        assert!(
            in_h + 2 * padding >= k_h && in_w + 2 * padding >= k_w,
            "kernel {k_h}x{k_w} larger than padded input {}x{}",
            in_h + 2 * padding,
            in_w + 2 * padding
        );
        let out_h = (in_h + 2 * padding - k_h) / stride + 1;
        let out_w = (in_w + 2 * padding - k_w) / stride + 1;
        Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            k_h,
            k_w,
            stride,
            padding,
            out_h,
            out_w,
        }
    }

    /// Length of one flattened patch: `in_channels * k_h * k_w`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Number of output spatial positions: `out_h * out_w`.
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// True when the im2col matrix of this geometry **is** the input
    /// image: a pointwise (1×1) kernel with stride 1 and no padding maps
    /// patch row `c` / output column `p` straight to `image[c][p]`, so
    /// the `[patch_len, out_positions]` column matrix and the `C×H·W`
    /// image are the same row-major buffer. Callers use this to skip the
    /// im2col gather and feed the image directly to the GEMM packer.
    pub fn is_pointwise_identity(&self) -> bool {
        self.k_h == 1 && self.k_w == 1 && self.stride == 1 && self.padding == 0
    }
}

/// Rearranges one NCHW image (`[1, C, H, W]` or `[C, H, W]` worth of data)
/// into the im2col matrix of shape `[patch_len, out_h * out_w]`.
///
/// Out-of-bounds taps read as zero (zero padding).
///
/// # Panics
///
/// Panics if `image.len() != C * H * W` for the geometry.
pub fn im2col(image: &[f32], geom: &Conv2dGeometry) -> Tensor {
    let rows = geom.patch_len();
    let cols = geom.out_positions();
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(image, geom, &mut out);
    Tensor::from_vec(Shape::new([rows, cols]), out)
}

/// Allocation-free [`im2col`]: writes the `[patch_len, out_h * out_w]`
/// matrix into `out`, which must hold exactly
/// `patch_len() * out_positions()` floats. Every element is overwritten,
/// so `out` may hold stale data (the engine reuses one scratch arena
/// across layers).
///
/// # Panics
///
/// Panics if `image` or `out` lengths do not match the geometry.
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    assert_eq!(
        image.len(),
        geom.in_channels * geom.in_h * geom.in_w,
        "image length does not match geometry"
    );
    let cols = geom.out_positions();
    assert_eq!(
        out.len(),
        geom.patch_len() * cols,
        "output length does not match geometry"
    );
    let mut row = 0;
    for c in 0..geom.in_channels {
        let plane = &image[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                gather_row_segment(
                    &mut out[row * cols..(row + 1) * cols],
                    plane,
                    geom,
                    kh,
                    kw,
                    0,
                );
                row += 1;
            }
        }
    }
    obs::with_current(|o| {
        o.metrics().add(Metric::Im2colCalls, 1);
        o.metrics().add(
            Metric::Im2colBytesLowered,
            std::mem::size_of_val(out) as u64,
        );
    });
}

/// Fills `d` with im2col row `(c, kh, kw)` values for the output-position
/// range `[pos0, pos0 + d.len())` of one input-channel plane.
///
/// Positions sharing an output row map to *contiguous* input columns
/// when `stride == 1`, so the run splits into a zero prefix (left
/// padding), one `copy_from_slice` of the interior, and a zero suffix
/// (right padding) — no per-element bounds arithmetic. Strided
/// geometries keep the per-element gather. [`im2col_into`] calls this
/// once per whole matrix row; the fused packers, whose rows are only
/// `NR` long, decode per panel instead ([`PanelTap`]).
fn gather_row_segment(
    d: &mut [f32],
    plane: &[f32],
    geom: &Conv2dGeometry,
    kh: usize,
    kw: usize,
    pos0: usize,
) {
    let len = d.len();
    let mut ci = 0;
    while ci < len {
        let pos = pos0 + ci;
        let oh = pos / geom.out_w;
        let ow0 = pos % geom.out_w;
        let run = (geom.out_w - ow0).min(len - ci);
        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
        let seg = &mut d[ci..ci + run];
        if ih < 0 || ih as usize >= geom.in_h {
            seg.fill(0.0);
        } else {
            let xrow = &plane[ih as usize * geom.in_w..(ih as usize + 1) * geom.in_w];
            if geom.stride == 1 {
                // iw = start + i over the run; clip to [0, in_w).
                let start = (ow0 + kw) as isize - geom.padding as isize;
                let lo = (-start).clamp(0, run as isize) as usize;
                let hi = (geom.in_w as isize - start).clamp(lo as isize, run as isize) as usize;
                seg[..lo].fill(0.0);
                if hi > lo {
                    let s0 = (start + lo as isize) as usize;
                    seg[lo..hi].copy_from_slice(&xrow[s0..s0 + (hi - lo)]);
                }
                seg[hi..].fill(0.0);
            } else {
                for (i, v) in seg.iter_mut().enumerate() {
                    let iw = ((ow0 + i) * geom.stride + kw) as isize - geom.padding as isize;
                    *v = if iw >= 0 && (iw as usize) < geom.in_w {
                        xrow[iw as usize]
                    } else {
                        0.0
                    };
                }
            }
        }
        ci += run;
    }
}

/// Kernel taps decoded per sweep over a panel's channels. Bounds the
/// on-stack table ([`PanelTap`] is 200 bytes); a 3×3 kernel is one
/// sweep, larger kernels take several.
const TAP_CHUNK: usize = 9;

/// One kernel tap `(kh, kw)` of one `NR`-column panel, decoded once and
/// replayed for every input channel.
///
/// Which image, output row and output column a panel lane stands for —
/// and so whether the tap reads the image or padding there, and at what
/// offset — does not depend on the channel: channel `c` only adds
/// `c·H·W`. So the two divisions, the bounds tests and the row/image
/// straddling are paid per (panel, tap), and the channel loop only
/// moves floats.
#[derive(Clone, Copy)]
struct PanelTap {
    /// Per lane, the source offset in `images` for channel 0 (the
    /// lane's image base included); 0 where `keep` is 0.
    off: [usize; NR],
    /// Per lane, all ones where the tap reads the image and 0 where it
    /// reads zero padding or the lane is past the last column. ANDed
    /// onto the loaded bits, so NaN/Inf payloads pass through exactly.
    keep: [u32; NR],
    /// `Some(s)` when every kept lane `l` reads offset `s + l`: the tap
    /// is one unaligned `NR`-float load plus the mask. `s` is negative
    /// where a left or top edge starts before the image.
    run: Option<isize>,
}

impl PanelTap {
    const DEAD: PanelTap = PanelTap {
        off: [0; NR],
        keep: [0; NR],
        run: None,
    };

    /// Writes this tap's row of the channel starting at `images[chan]`:
    /// the image value in the kept lanes, 0 elsewhere.
    #[inline(always)]
    fn gather(&self, images: &[f32], chan: usize, d: &mut [f32; NR]) {
        // The run's masked lanes read whatever neighbours the kept ones
        // (the previous row's end, the next channel's start); only a run
        // that would leave `images` altogether takes the per-lane path.
        let run = self
            .run
            .and_then(|s| usize::try_from(chan as isize + s).ok())
            .and_then(|s| images.get(s..s + NR));
        if let Some(src) = run {
            for l in 0..NR {
                d[l] = f32::from_bits(src[l].to_bits() & self.keep[l]);
            }
        } else {
            for l in 0..NR {
                d[l] = f32::from_bits(images[chan + self.off[l]].to_bits() & self.keep[l]);
            }
        }
    }
}

/// Packs panel columns `[j0, j0 + cols)` of the merged im2col matrix of
/// `images` into `dst` (`patch_len × NR`, every element written).
fn pack_panel_im2col(
    images: &[f32],
    geom: &Conv2dGeometry,
    j0: usize,
    cols: usize,
    dst: &mut [f32],
) {
    let plane_in = geom.in_h * geom.in_w;
    let in_img = geom.in_channels * plane_in;
    let plane = geom.out_positions();
    let taps = geom.k_h * geom.k_w;
    // Window coordinates are `i32` so that the per-tap lane loops below
    // vectorise four lanes to a compare (they build the table, which is
    // most of the work when there are only three channels to replay it
    // for).
    assert!(
        i32::try_from(geom.in_h.max(geom.in_w) + 2 * geom.padding).is_ok(),
        "padded plane extent must fit i32"
    );
    let (in_h, in_w) = (geom.in_h as u32, geom.in_w as u32);

    // Lane → input row/column of its window's top-left tap and that
    // tap's offset in `images` (outside the image where padding starts
    // the window), stepping the (image, row, column) odometer instead of
    // dividing per lane. Lanes past the last column sit at a row no tap
    // brings inside the image.
    let mut ih0 = [i32::MIN / 2; NR];
    let mut iw0 = [0i32; NR];
    let mut first = [0isize; NR];
    let (mut img, mut oh, mut ow) = (j0 / plane, j0 % plane / geom.out_w, j0 % geom.out_w);
    for l in 0..cols {
        ih0[l] = (oh * geom.stride) as i32 - geom.padding as i32;
        iw0[l] = (ow * geom.stride) as i32 - geom.padding as i32;
        first[l] = (img * in_img) as isize + (ih0[l] as isize) * in_w as isize + iw0[l] as isize;
        ow += 1;
        if ow == geom.out_w {
            ow = 0;
            oh += 1;
            if oh == geom.out_h {
                oh = 0;
                img += 1;
            }
        }
    }
    // When the lanes' windows are consecutive in memory — a stride-1
    // panel inside one output row, or anywhere inside one image of a
    // "same" convolution, where `out_w == in_w` makes the offset
    // `position + const` — every tap of the panel is one `NR`-float run.
    let run0 = first[0];
    let is_run = (1..cols).all(|l| first[l] == run0 + l as isize);

    let mut table = [PanelTap::DEAD; TAP_CHUNK];
    let (mut kh, mut kw) = (0, 0);
    for tap0 in (0..taps).step_by(TAP_CHUNK) {
        let table = &mut table[..TAP_CHUNK.min(taps - tap0)];
        for tap in table.iter_mut() {
            let shift = (kh * geom.in_w + kw) as isize;
            for l in 0..NR {
                // One unsigned compare per axis: a negative coordinate
                // wraps far above any extent.
                let inside =
                    (((ih0[l] + kh as i32) as u32) < in_h) & (((iw0[l] + kw as i32) as u32) < in_w);
                tap.keep[l] = if inside { u32::MAX } else { 0 };
            }
            for ((off, first), keep) in tap.off.iter_mut().zip(first).zip(tap.keep) {
                // (The mask sign-extends to the offset's width.)
                *off = (first + shift) as usize & keep as i32 as usize;
            }
            tap.run = is_run.then_some(run0 + shift);
            kw += 1;
            if kw == geom.k_w {
                (kh, kw) = (kh + 1, 0);
            }
        }
        for c in 0..geom.in_channels {
            let rows = &mut dst[(c * taps + tap0) * NR..(c * taps + tap0 + table.len()) * NR];
            for (tap, d) in table.iter().zip(rows.chunks_exact_mut(NR)) {
                let d: &mut [f32; NR] = d.try_into().expect("chunks_exact yields NR");
                tap.gather(images, c * plane_in, d);
            }
        }
    }
}

/// Fused im2col → pack-B: writes the NR-column GEMM panels of the im2col
/// matrix directly from the NCHW image, without materialising the
/// `[patch_len, out_positions]` column matrix in between.
///
/// The output layout is identical to
/// [`pack_b_into`](crate::gemm::pack_b_into) applied to the [`im2col`]
/// matrix with `k = patch_len()` and `n = out_positions()`: panel `jp`
/// holds output positions `[jp·NR, jp·NR+NR)` at
/// `buf[jp·NR·k + p·NR + c]`, with out-of-range positions zero-filled.
/// Out-of-bounds image taps read as zero (zero padding). Every element
/// of the panel region is written, so `buf` may hold arbitrary scratch
/// garbage on entry. This is [`pack_b_im2col_batch_into`] at `n = 1`.
///
/// # Panics
///
/// Panics if `image` or `buf` lengths do not match the geometry.
pub fn pack_b_im2col_into(image: &[f32], geom: &Conv2dGeometry, buf: &mut [f32]) {
    pack_b_im2col_batch_into(image, 1, geom, buf);
}

/// Batch-merged fused im2col → pack-B: packs the im2col matrices of `n`
/// NCHW images side by side into one NR-column panel buffer, as if the
/// per-image `[patch_len, out_positions]` column matrices had been
/// concatenated along the column axis into a single
/// `[patch_len, n · out_positions]` matrix and packed with
/// [`pack_b_into`](crate::gemm::pack_b_into).
///
/// Merged column `c` maps to image `c / out_positions`, output position
/// `c % out_positions`. Because the reduction extent (`patch_len`) and
/// therefore the `kc` blocking are unchanged, a GEMM over the merged
/// panels accumulates every output value in exactly the same order as
/// the per-image product — the batched path is bit-identical, it just
/// amortises the A-panel traffic and fills the NR-column panels that a
/// small per-image `out_positions` would leave zero-padded (the deep
/// VGG layers at CIFAR extent have 4 output positions against `NR = 16`:
/// three quarters of every micro-kernel tile is wasted un-merged).
///
/// Geometry is decoded once per panel and kernel tap — which lanes read
/// the image, at what offsets, and whether those are one contiguous run
/// — and replayed for every input channel, which only adds `c·H·W`.
///
/// # Panics
///
/// Panics if `images` is not `n` images of the geometry's extent, `buf`
/// is shorter than the merged panel region, or a padded plane extent
/// exceeds `i32::MAX`.
pub fn pack_b_im2col_batch_into(images: &[f32], n: usize, geom: &Conv2dGeometry, buf: &mut [f32]) {
    let in_img = geom.in_channels * geom.in_h * geom.in_w;
    assert_eq!(
        images.len(),
        n * in_img,
        "images length does not match geometry × batch"
    );
    let k = geom.patch_len();
    let plane = geom.out_positions();
    let total = n * plane;
    let n_panels = total.div_ceil(NR);
    assert!(
        buf.len() >= n_panels * NR * k,
        "packed-B buffer does not match geometry × batch"
    );
    let buf = &mut buf[..n_panels * NR * k];
    if images.is_empty() {
        // Nothing but padding to read (or nothing to write).
        buf.fill(0.0);
    } else if geom.is_pointwise_identity() {
        // 1×1/s1/p0: the im2col matrix is the image — row `c` of image
        // `img` is contiguous. Walk each panel row in per-image runs (a
        // panel straddles images when `plane % NR != 0`).
        for jp in 0..n_panels {
            let j0 = jp * NR;
            let cols = NR.min(total - j0);
            let dst = &mut buf[jp * NR * k..(jp + 1) * NR * k];
            for (c, d) in dst.chunks_exact_mut(NR).enumerate() {
                let mut ci = 0;
                while ci < cols {
                    let (img, pos0) = ((j0 + ci) / plane, (j0 + ci) % plane);
                    let run = (plane - pos0).min(cols - ci);
                    let src = img * in_img + c * plane + pos0;
                    d[ci..ci + run].copy_from_slice(&images[src..src + run]);
                    ci += run;
                }
                d[cols..].fill(0.0);
            }
        }
    } else {
        for jp in 0..n_panels {
            let j0 = jp * NR;
            let dst = &mut buf[jp * NR * k..(jp + 1) * NR * k];
            pack_panel_im2col(images, geom, j0, NR.min(total - j0), dst);
        }
    }
    // The fused path both lowers (im2col) and packs (B panels) in one
    // sweep, so it feeds both instrument families.
    obs::with_current(|o| {
        let bytes = std::mem::size_of_val(buf) as u64;
        o.metrics().add(Metric::Im2colCalls, n as u64);
        o.metrics().add(Metric::Im2colBytesLowered, bytes);
        o.metrics().add(Metric::GemmBytesPacked, bytes);
    });
}

/// Inverse of [`im2col`]: scatter-adds a `[patch_len, out_h*out_w]` matrix
/// back into a `C*H*W` image buffer. Overlapping patches accumulate, which
/// is exactly the gradient flow required by the convolution backward pass.
///
/// # Panics
///
/// Panics if the matrix or image extents do not match the geometry.
pub fn col2im(cols_mat: &Tensor, geom: &Conv2dGeometry, image: &mut [f32]) {
    let (rows, cols) = cols_mat.shape().matrix();
    assert_eq!(rows, geom.patch_len(), "col matrix row mismatch");
    assert_eq!(cols, geom.out_positions(), "col matrix column mismatch");
    assert_eq!(
        image.len(),
        geom.in_channels * geom.in_h * geom.in_w,
        "image length does not match geometry"
    );
    let data = cols_mat.data();
    let mut row = 0;
    for c in 0..geom.in_channels {
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                for oh in 0..geom.out_h {
                    let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                    if ih < 0 || ih as usize >= geom.in_h {
                        continue;
                    }
                    for ow in 0..geom.out_w {
                        let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                        if iw < 0 || iw as usize >= geom.in_w {
                            continue;
                        }
                        let col = oh * geom.out_w + ow;
                        image[(c * geom.in_h + ih as usize) * geom.in_w + iw as usize] +=
                            data[row * cols + col];
                    }
                }
                row += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(3, 32, 32, 3, 3, 1, 1);
        assert_eq!((g.out_h, g.out_w), (32, 32));
        assert_eq!(g.patch_len(), 27);
        assert_eq!(g.out_positions(), 1024);
    }

    #[test]
    fn geometry_stride_two() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 2, 1);
        assert_eq!((g.out_h, g.out_w), (16, 16));
    }

    #[test]
    fn geometry_pointwise() {
        let g = Conv2dGeometry::new(64, 8, 8, 1, 1, 1, 0);
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.patch_len(), 64);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        let _ = Conv2dGeometry::new(1, 4, 4, 3, 3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        let _ = Conv2dGeometry::new(1, 2, 2, 5, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, no padding: im2col is just a reshape.
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1, 1, 0);
        let image: Vec<f32> = (0..18).map(|v| v as f32).collect();
        let m = im2col(&image, &g);
        assert_eq!(m.shape().dims(), &[2, 9]);
        assert_eq!(m.data(), image.as_slice());
    }

    #[test]
    fn im2col_3x3_values() {
        // Single channel 3x3 image, 3x3 kernel, pad 1 -> 9 patches.
        let g = Conv2dGeometry::new(1, 3, 3, 3, 3, 1, 1);
        let image: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let m = im2col(&image, &g);
        assert_eq!(m.shape().dims(), &[9, 9]);
        // Patch centred at (0,0): top-left tap is padding (0), centre tap
        // row (index 4 of patch) at column 0 must equal image[0] = 1.
        assert_eq!(m[[0, 0]], 0.0);
        assert_eq!(m[[4, 0]], 1.0);
        // Centre patch (column 4) sees the whole image in order.
        for (k, want) in (1..=9).enumerate() {
            assert_eq!(m[[k, 4]], want as f32);
        }
    }

    #[test]
    fn im2col_into_matches_allocating_and_overwrites_stale() {
        let g = Conv2dGeometry::new(2, 5, 5, 3, 3, 1, 1);
        let image: Vec<f32> = (0..50).map(|v| (v as f32).sin()).collect();
        let reference = im2col(&image, &g);
        let mut buf = vec![f32::NAN; g.patch_len() * g.out_positions()];
        im2col_into(&image, &g, &mut buf);
        assert_eq!(buf.as_slice(), reference.data());
    }

    #[test]
    fn col2im_roundtrip_counts_overlap() {
        // col2im(im2col(x)) multiplies each pixel by the number of patches
        // covering it. For a 3x3 kernel, pad 1, stride 1 over 3x3, the
        // centre pixel is covered 9 times and the corners 4 times.
        let g = Conv2dGeometry::new(1, 3, 3, 3, 3, 1, 1);
        let image = vec![1.0f32; 9];
        let m = im2col(&image, &g);
        let mut back = vec![0.0f32; 9];
        col2im(&m, &g, &mut back);
        assert_eq!(back[4], 9.0);
        assert_eq!(back[0], 4.0);
        assert_eq!(back[1], 6.0);
    }

    #[test]
    fn fused_pack_matches_im2col_then_pack() {
        use crate::gemm::{pack_b_into, GemmPlan};
        for (geom, name) in [
            (Conv2dGeometry::new(3, 8, 8, 3, 3, 1, 1), "same-3x3"),
            (Conv2dGeometry::new(2, 9, 7, 3, 3, 2, 1), "stride-2"),
            (Conv2dGeometry::new(4, 5, 5, 1, 1, 1, 0), "pointwise"),
            (Conv2dGeometry::new(1, 4, 4, 2, 2, 1, 0), "2x2-nopad"),
        ] {
            let len = geom.in_channels * geom.in_h * geom.in_w;
            let image: Vec<f32> = (0..len).map(|v| (v as f32 * 0.7).sin()).collect();
            let cols_mat = im2col(&image, &geom);
            let plan = GemmPlan::new(1, geom.patch_len(), geom.out_positions());
            let mut via_matrix = vec![f32::NAN; plan.packed_b_elems()];
            pack_b_into(&plan, cols_mat.data(), &mut via_matrix);
            let mut fused = vec![f32::NAN; plan.packed_b_elems()];
            pack_b_im2col_into(&image, &geom, &mut fused);
            assert_eq!(fused, via_matrix, "{name}");
        }
    }

    #[test]
    fn conv_via_im2col_matches_manual() {
        // 1-channel 4x4 image, 2x2 kernel of ones, stride 1, no pad:
        // each output = sum of a 2x2 window.
        let g = Conv2dGeometry::new(1, 4, 4, 2, 2, 1, 0);
        let image: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let m = im2col(&image, &g);
        let w = Tensor::ones([1, 4]);
        let out = crate::gemm::matmul(&w, &m);
        assert_eq!(out.shape().dims(), &[1, 9]);
        // Window at (0,0): 0+1+4+5 = 10.
        assert_eq!(out.data()[0], 10.0);
        // Window at (2,2): 10+11+14+15 = 50.
        assert_eq!(out.data()[8], 50.0);
    }
}
