//! Depthwise convolution inference kernel: one `k_h × k_w` filter per
//! channel, no cross-channel reduction (MobileNet's defining operation,
//! §IV-A).
//!
//! With `k²` multiply-adds per output there is no GEMM to lower to; what
//! decides the speed is whether the eight lanes of a vector have eight
//! useful things to do. The kernel therefore has two loop orders and
//! picks one from the plane it is given:
//!
//! * **Row order** (planes of more than `TILE_PIXELS` pixels): a
//!   channel plane is walked one output row at a time. The output
//!   columns whose every tap reads inside the input row are known
//!   before the loop, so they are computed eight at a time with the
//!   accumulators in registers and no per-pixel bounds test — each tap
//!   is one contiguous load for stride 1, a strided pick for stride ≥ 2
//!   — and only the few columns at either edge take the per-pixel path.
//! * **Channel-blocked order** (planes of at most `TILE_PIXELS`
//!   pixels, whose rows are too narrow to fill vectors): eight channels
//!   are transposed into pixel-major 8-lane tiles on the stack, every
//!   output pixel accumulates its valid taps as lane vectors, and the
//!   result is transposed back — the NCHWc layout applied locally,
//!   invisible to the caller.
//!
//! One `#[inline(always)]` body is instantiated twice, for the baseline
//! target and under `avx2,fma`, behind the GEMM engine's one-time
//! dispatch (so `CNN_STACK_GEMM_FORCE_SCALAR` pins the portable twin of
//! this kernel too); the vector code is the compiler's.
//!
//! # Exactness
//!
//! Both orders compute every output as `bias`, then the taps in
//! ascending `(kh, kw)` order, each as a separate multiply and add;
//! taps that fall outside the input are skipped (not multiplied by
//! zero), and zero weights are *not* skipped, so `0·NaN` stays NaN like
//! in every GEMM kernel. The fused ReLU is `max(x, 0.0)` on the finished
//! value. Outputs are therefore bit-identical between the two orders,
//! between the two instantiations, for any thread count, and to the
//! naive per-pixel loop (`tests/kernel_proptest.rs`).

use crate::gemm::{active_kernel, MicroKernel};
use crate::im2col::Conv2dGeometry;
use cnn_stack_parallel::{parallel_for, DisjointWriter, Schedule};
use std::ops::Range;

/// Channels per parallel grain and per channel-blocked tile: one 8-lane
/// f32 vector.
const LANES: usize = 8;
/// Largest plane (input and output, in pixels) the channel-blocked order
/// tiles on the stack. Measured on MobileNet's shapes: 16×16 planes run
/// 1.5× (stride 1) to 4× (stride 2) faster blocked than by rows, 32×32
/// planes faster by rows.
const TILE_PIXELS: usize = 256;
/// Largest filter (taps) the channel-blocked order tiles on the stack.
const TILE_TAPS: usize = 25;

/// One 8-channel pixel or tap: lane `l` belongs to channel `c0 + l`.
type Lanes = [f32; LANES];

/// Stack tiles of the channel-blocked order: eight channels' input
/// plane, output plane and filter, pixel-major.
struct Tiles {
    input: [Lanes; TILE_PIXELS],
    output: [Lanes; TILE_PIXELS],
    filter: [Lanes; TILE_TAPS],
}

/// Everything a grain needs; shared by reference across the pool.
struct Job<'a> {
    input: &'a [f32],
    weight: &'a [f32],
    bias: &'a [f32],
    channels: usize,
    geom: Conv2dGeometry,
    relu: bool,
    out: DisjointWriter,
}

/// Depthwise convolution over raw NCHW slices: `out[img][c] =
/// bias[c] + input[img][c] ⋆ weight[c]`, optionally clamped by a fused
/// ReLU. `geom` describes one channel plane (`in_channels` is not
/// consulted); the image count is `input.len() / (channels · in_h ·
/// in_w)`. The whole batch runs in one parallel region whose grain is
/// (image × 8-channel block). Never allocates; see the
/// [module docs](self) for the loop orders and the exactness contract.
///
/// # Panics
///
/// Panics if a slice length does not match `channels` and `geom`.
#[allow(clippy::too_many_arguments)] // low-level kernel: the argument list *is* the layer
pub fn depthwise_conv2d_into(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    relu: bool,
    out: &mut [f32],
    threads: usize,
    schedule: Schedule,
) {
    let plane_in = geom.in_h * geom.in_w;
    let image_in = channels * plane_in;
    assert!(
        image_in > 0 && input.len().is_multiple_of(image_in),
        "input length does not match geometry"
    );
    let images = input.len() / image_in;
    assert_eq!(
        out.len(),
        images * channels * geom.out_positions(),
        "output length does not match geometry"
    );
    assert_eq!(
        weight.len(),
        channels * geom.k_h * geom.k_w,
        "weight length does not match geometry"
    );
    assert_eq!(bias.len(), channels, "bias length does not match channels");

    let kernel = active_kernel();
    let job = Job {
        input,
        weight,
        bias,
        channels,
        geom: *geom,
        relu,
        out: DisjointWriter::new(out),
    };
    let grains = images * channels.div_ceil(LANES);
    parallel_for(threads, grains, schedule, |range| match kernel {
        MicroKernel::Scalar => run_grains(&job, range),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `active_kernel` only selects a SIMD variant after
        // confirming AVX2 and FMA (`Avx512` implies both).
        MicroKernel::Avx2Fma => unsafe { run_grains_avx2(&job, range) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above. The depthwise body stays 8 lanes wide: its
        // channel blocks are `LANES = 8` channels.
        MicroKernel::Avx512 => unsafe { run_grains_avx2(&job, range) },
    });
}

/// [`run_grains`] compiled for AVX2: the portable body *is* the SIMD
/// source, the wider target only lets the autovectoriser use 8 lanes.
/// (FMA is enabled to match the dispatch check; Rust never contracts
/// the separate multiply and add.)
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA (checked once in
/// [`active_kernel`]).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_grains_avx2(job: &Job, grains: Range<usize>) {
    run_grains(job, grains);
}

/// Runs grains `grains` of the (image × channel-block) grid.
#[inline(always)]
fn run_grains(job: &Job, grains: Range<usize>) {
    // Literal filter extents and strides for the shapes CNNs use let the
    // compiler unroll the tap loops and keep the filter in registers;
    // every other shape runs the same body on the runtime values.
    let g = job.geom;
    let literal = |stride| Conv2dGeometry {
        k_h: 3,
        k_w: 3,
        stride,
        ..g
    };
    match (g.k_h, g.k_w, g.stride) {
        (3, 3, 1) => run_grains_of(job, &literal(1), grains),
        (3, 3, 2) => run_grains_of(job, &literal(2), grains),
        _ => run_grains_of(job, &g, grains),
    }
}

/// [`run_grains`] on geometry `g` (the job's own, possibly with literal
/// fields).
#[inline(always)]
fn run_grains_of(job: &Job, g: &Conv2dGeometry, grains: Range<usize>) {
    let (plane_in, plane_out) = (g.in_h * g.in_w, g.out_positions());
    let taps = g.k_h * g.k_w;
    let blocks = job.channels.div_ceil(LANES);
    let blocked = plane_in <= TILE_PIXELS && plane_out <= TILE_PIXELS && taps <= TILE_TAPS;
    // Reused across grains: lanes a ragged last block does not load keep
    // stale values whose results are never stored.
    let mut tiles = Tiles {
        input: [[0.0; LANES]; TILE_PIXELS],
        output: [[0.0; LANES]; TILE_PIXELS],
        filter: [[0.0; LANES]; TILE_TAPS],
    };
    for grain in grains {
        let (img, c0) = (grain / blocks, grain % blocks * LANES);
        let lanes = LANES.min(job.channels - c0);
        let first = img * job.channels + c0;
        let x = &job.input[first * plane_in..(first + lanes) * plane_in];
        let w = &job.weight[c0 * taps..(c0 + lanes) * taps];
        let b = &job.bias[c0..c0 + lanes];
        // SAFETY: grain (img, block) exclusively owns the output planes
        // of its `lanes` channels; distinct grains never overlap, and
        // the buffer outlives the parallel region.
        let dst = unsafe {
            job.out
                .slice_mut(first * plane_out, (first + lanes) * plane_out)
        };
        if blocked {
            block_by_tiles(x, w, b, g, job.relu, dst, &mut tiles);
        } else {
            for l in 0..lanes {
                let x = &x[l * plane_in..(l + 1) * plane_in];
                let w = &w[l * taps..(l + 1) * taps];
                let dst = &mut dst[l * plane_out..(l + 1) * plane_out];
                plane_by_rows(x, w, b[l], g, job.relu, dst);
            }
        }
    }
}

/// The taps `k` of `k_len` that land inside an input extent `len` for
/// output position `o`: `0 <= o·stride + k − pad < len`.
#[inline(always)]
fn valid_taps(o: usize, len: usize, k_len: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(o * stride);
    let hi = k_len.min((len + pad).saturating_sub(o * stride));
    lo..hi.max(lo)
}

/// One output pixel of `N` lanes: `bias`, then every valid tap in
/// ascending `(kh, kw)` order as a separate multiply and add, then the
/// fused clamp. `x` and `w` are pixel-major and tap-major `N`-lane
/// tiles (`N = 1`: a plain channel plane and its filter).
#[inline(always)]
fn pixel<const N: usize>(
    x: &[[f32; N]],
    w: &[[f32; N]],
    bias: [f32; N],
    g: &Conv2dGeometry,
    (oh, ow): (usize, usize),
    khs: Range<usize>,
    relu: bool,
) -> [f32; N] {
    let kws = valid_taps(ow, g.in_w, g.k_w, g.stride, g.padding);
    let mut acc = bias;
    for kh in khs {
        let x_row = &x[(oh * g.stride + kh - g.padding) * g.in_w..][..g.in_w];
        for kw in kws.clone() {
            let wv = &w[kh * g.k_w + kw];
            let xv = &x_row[ow * g.stride + kw - g.padding];
            for l in 0..N {
                acc[l] += wv[l] * xv[l];
            }
        }
    }
    if relu {
        for v in acc.iter_mut() {
            *v = v.max(0.0);
        }
    }
    acc
}

/// `src[0], src[stride], …`: the [`LANES`] inputs one tap contributes to
/// a chunk, out of its `LANES·stride`-long window. Strides 1 and 2 copy
/// the window as a whole array so it is loaded with vector moves.
#[inline(always)]
fn every_nth(src: &[f32], stride: usize) -> Lanes {
    let mut lanes = [0.0f32; LANES];
    match stride {
        1 => lanes = *src.first_chunk().expect("window holds LANES inputs"),
        2 => {
            let pairs: &[f32; 2 * LANES] = src.first_chunk().expect("window holds 2·LANES inputs");
            for l in 0..LANES {
                lanes[l] = pairs[2 * l];
            }
        }
        _ => {
            for l in 0..LANES {
                lanes[l] = src[l * stride];
            }
        }
    }
    lanes
}

/// Row order: one channel plane, one output row at a time. The columns
/// whose every tap reads inside the row are computed [`LANES`] at a
/// time with the accumulators in registers (each tap reads one
/// `LANES·stride`-long window; the last chunk overlaps its neighbour
/// rather than running ragged); the few columns left at either edge
/// take [`pixel`].
#[inline(always)]
fn plane_by_rows(
    x: &[f32],
    filter: &[f32],
    bias: f32,
    g: &Conv2dGeometry,
    relu: bool,
    dst: &mut [f32],
) {
    let stride = g.stride;
    let (x1, _) = x.as_chunks::<1>();
    let (w1, _) = filter.as_chunks::<1>();
    // Chunk starts `ow0` need tap 0 of lane 0 and the load of the last
    // tap inside the row: `pad <= ow0·stride` and `ow0·stride + k_w − 1
    // − pad + LANES·stride <= in_w`.
    let first = g.padding.div_ceil(stride);
    let chunks = match (g.in_w + g.padding + 1).checked_sub(g.k_w + LANES * stride) {
        Some(slack) if slack / stride >= first => first..slack / stride + LANES,
        _ => 0..0,
    };
    let window = LANES * stride + g.k_w - 1;
    for (oh, row) in dst.chunks_exact_mut(g.out_w).enumerate() {
        let khs = valid_taps(oh, g.in_h, g.k_h, stride, g.padding);
        for ow in (0..chunks.start).chain(chunks.end..g.out_w) {
            row[ow] = pixel(x1, w1, [bias], g, (oh, ow), khs.clone(), relu)[0];
        }
        for ow0 in chunks.clone().step_by(LANES) {
            let ow0 = ow0.min(chunks.end - LANES);
            let mut acc = [bias; LANES];
            for kh in khs.clone() {
                let taps = &filter[kh * g.k_w..][..g.k_w];
                let ih = oh * stride + kh - g.padding;
                let src = &x[ih * g.in_w + ow0 * stride - g.padding..][..window];
                for kw in 0..g.k_w {
                    let xv = every_nth(&src[kw..kw + LANES * stride], stride);
                    for l in 0..LANES {
                        acc[l] += taps[kw] * xv[l];
                    }
                }
            }
            if relu {
                for v in acc.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            row[ow0..ow0 + LANES].copy_from_slice(&acc);
        }
    }
}

/// Channel-blocked order: the `bias.len()` (≤ 8) channel planes in `x`
/// as one pixel-major 8-lane tile.
#[inline(always)]
fn block_by_tiles(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    g: &Conv2dGeometry,
    relu: bool,
    dst: &mut [f32],
    tiles: &mut Tiles,
) {
    let (plane_in, plane_out) = (g.in_h * g.in_w, g.out_positions());
    let taps = g.k_h * g.k_w;
    let mut tile_b = [0.0f32; LANES];
    for (l, &b) in bias.iter().enumerate() {
        tile_b[l] = b;
        for (px, &v) in tiles.input.iter_mut().zip(&x[l * plane_in..][..plane_in]) {
            px[l] = v;
        }
        for (tap, &v) in tiles.filter.iter_mut().zip(&w[l * taps..][..taps]) {
            tap[l] = v;
        }
    }
    for oh in 0..g.out_h {
        let khs = valid_taps(oh, g.in_h, g.k_h, g.stride, g.padding);
        for ow in 0..g.out_w {
            tiles.output[oh * g.out_w + ow] = pixel(
                &tiles.input[..plane_in],
                &tiles.filter[..taps],
                tile_b,
                g,
                (oh, ow),
                khs.clone(),
                relu,
            );
        }
    }
    for (l, plane) in dst.chunks_exact_mut(plane_out).enumerate() {
        for (d, px) in plane.iter_mut().zip(&tiles.output) {
            *d = px[l];
        }
    }
}
