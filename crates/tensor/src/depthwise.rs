//! Depthwise convolution inference kernel: one `k_h × k_w` filter per
//! channel, no cross-channel reduction (MobileNet's defining operation,
//! §IV-A).
//!
//! With `k²` multiply-adds per output there is no GEMM to lower to and no
//! reduction to spread a vector's cost over; what decides the speed is
//! whether every lane of a vector has useful work. The kernel keeps NCHW
//! and makes a vector of 16 consecutive outputs of an image's flattened
//! `[channels × out_h × out_w]` block: one channel's row or rows on planes
//! of 16 pixels or more, several channels — each lane with its own
//! weight — on smaller planes. A tap's 16 inputs sit at one offset from
//! the vector's lane pattern:
//!
//! * at stride 1 with "same" padding the input and output planes
//!   coincide, so they are one contiguous load (masked where it would
//!   leave the input);
//! * otherwise they are picked out of up to four 16-float windows by
//!   two-source permutes (stride 2 and the small planes), or gathered
//!   when the lanes reach further.
//!
//! A tap that falls outside the input in some lanes is skipped there: its
//! add is masked, so those lanes keep their value. Which lanes a tap is
//! valid in depends only on the vector's position within the lane
//! pattern's period (`lcm(plane, 16) / 16` vectors), never on the
//! channel, so the lane patterns and the (position, tap) masks are
//! computed once per call into a stack table that every channel
//! reads. The body computes one position in four consecutive
//! periods at a time: the vectors share the table row, and their
//! independent accumulators overlap each output's chain of dependent
//! adds.
//!
//! The body exists three times: with AVX-512F intrinsics (masked loads
//! and adds, permutes, gathers), with AVX2 intrinsics (each vector as
//! two 8-lane halves; blends for the masked adds, a fixed shuffle at
//! stride 2 and gathers for the scattered picks — the compiler does not
//! vectorise the lane-array form of the masked adds well enough), and
//! as the portable lane-array twin. The GEMM engine's one-time dispatch
//! picks one, so `CNN_STACK_GEMM_FORCE_SCALAR` pins the portable twin;
//! [`depthwise_conv2d_named`] runs any of them.
//!
//! # Exactness
//!
//! Every output is `bias`, then the valid taps in ascending `(kh, kw)`
//! order, each as a separate multiply and add; a tap outside the input is
//! skipped (not multiplied by zero), and zero weights are *not* skipped,
//! so `0·NaN` stays NaN like in every GEMM kernel. The fused ReLU is
//! `max(x, 0.0)` on the finished value. Outputs are therefore
//! bit-identical between the instantiations, for any thread count, and
//! to the naive per-pixel loop (`tests/kernel_proptest.rs`).

use crate::gemm::{active_kernel, MicroKernel};
use crate::im2col::Conv2dGeometry;
use cnn_stack_parallel::{parallel_for, DisjointWriter, Schedule};
use std::ops::Range;

/// Outputs per vector: one 512-bit register of f32.
const LANES: usize = 16;
/// Period positions one [`Table`] holds: the 64 vectors of a 32×32
/// output plane.
const PHASES: usize = 64;
/// The largest filter (`k_h · k_w` taps) the kernel runs: its lane table
/// holds this many (position, tap) masks, and one position's must fit.
pub const MAX_TAPS: usize = 1024;
/// Outputs a parallel grain covers at least (it covers whole blocks of
/// periods) while there are enough grains for the workers.
const GRAIN_OUTPUTS: usize = 256;
/// Vectors one body call computes side by side: the same period position
/// in this many consecutive periods. They share the lane pattern and tap
/// masks, and their accumulators are independent, so one vector's chain
/// of dependent adds does not wait on the last's.
const BLOCK: usize = 4;
/// Lanes of a vector half in the AVX2 body and the portable twin: one
/// AVX2 register.
const HALF: usize = 8;
/// Lane offsets a pick reaches by permuting four 16-float windows; a
/// pick that reaches further gathers.
const PERMUTE_REACH: usize = 4 * LANES;

/// How an image's flattened output block splits into vectors.
#[derive(Clone, Copy)]
struct Layout {
    channels: usize,
    plane_in: usize,
    plane_out: usize,
    /// Vectors after which the lane pattern repeats: `lcm(plane_out,
    /// 16) / 16`.
    period: usize,
    /// Channels one period covers: `lcm(plane_out, 16) / plane_out`.
    period_channels: usize,
    /// Periods per image; the last one may end in a ragged vector.
    periods: usize,
    /// Periods per parallel grain: a multiple of [`BLOCK`] unless that
    /// would leave workers idle.
    grain: usize,
    /// Stride 1 with coinciding input and output planes: the inputs one
    /// tap reads for a vector are consecutive.
    contiguous: bool,
}

impl Layout {
    /// The layout of `images` images of `channels` planes run on
    /// `threads` workers.
    fn new(channels: usize, g: &Conv2dGeometry, images: usize, threads: usize) -> Layout {
        let plane_out = g.out_positions();
        // `gcd(plane_out, 16)` is the largest power of two ≤ 16 dividing it.
        let lcm = plane_out >> plane_out.trailing_zeros().min(4) << 4;
        let periods = channels.div_ceil(lcm / plane_out);
        // Whole blocks of at least `GRAIN_OUTPUTS` outputs, cut down (to
        // whole blocks where possible, else to single periods) until each
        // worker has a grain: large odd planes have periods of 16
        // channels, so a few periods can be a whole image.
        let per_image = threads.div_ceil(images.max(1)).max(1);
        let grain = GRAIN_OUTPUTS
            .div_ceil(lcm)
            .next_multiple_of(BLOCK)
            .min((periods / per_image).max(1));
        Layout {
            channels,
            plane_in: g.in_h * g.in_w,
            plane_out,
            period: lcm / LANES,
            period_channels: lcm / plane_out,
            periods,
            grain: if grain >= BLOCK {
                grain / BLOCK * BLOCK
            } else {
                grain
            },
            contiguous: g.stride == 1 && (g.out_h, g.out_w) == (g.in_h, g.in_w),
        }
    }

    fn grains_per_image(&self) -> usize {
        self.periods.div_ceil(self.grain)
    }
}

/// The lane pattern of the vectors at one position of the period.
#[derive(Clone, Copy)]
struct Phase {
    /// Channel of lane 0, counted from the period's first.
    channel: usize,
    /// Input offset the lane offsets count from, relative to the period's
    /// first input plane; negative when the lowest lane's first tap lies
    /// in the padding.
    input: isize,
    /// Each lane's offset from `input` of its tap `(0, 0)`.
    lanes: [i32; LANES],
    /// The largest of `lanes`.
    reach: usize,
    /// Each lane's channel minus `channel` (ascending).
    channels: [i32; LANES],
    /// Whether each [`HALF`]-lane half lies in one output-row run, so
    /// its lane offsets step by the stride (the AVX2 and portable loads).
    runs: [bool; LANES / HALF],
}

impl Phase {
    const EMPTY: Phase = Phase {
        channel: 0,
        input: 0,
        lanes: [0; LANES],
        reach: 0,
        channels: [0; LANES],
        runs: [false; LANES / HALF],
    };

    /// The vector whose lane 0 is output `(c, oh, ow)` of the period
    /// (advanced past its 16 lanes); writes the mask of each tap (bit
    /// `j`: the tap reads inside the input for lane `j`) to `masks`.
    /// Walks the vector one output-row run of lanes at a time.
    fn new(l: &Layout, g: &Conv2dGeometry, lane0: &mut Pixel, masks: &mut [u16]) -> Phase {
        let channel = lane0.c;
        let Pixel {
            mut c,
            mut oh,
            mut ow,
        } = *lane0;
        let (stride, pad) = (g.stride, g.padding);
        let mut offsets = [0isize; LANES];
        let mut phase = Phase {
            channel,
            ..Phase::EMPTY
        };
        masks.fill(0);
        let mut j = 0;
        while j < LANES {
            let run = (LANES - j).min(g.out_w - ow);
            let origin = (c * l.plane_in) as isize
                + (oh * stride) as isize * g.in_w as isize
                + (ow * stride) as isize
                - (pad * g.in_w + pad) as isize;
            let lanes = offsets[j..j + run]
                .iter_mut()
                .zip(&mut phase.channels[j..j + run]);
            for (k, (offset, lane_channel)) in lanes.enumerate() {
                *offset = origin + (k * stride) as isize;
                *lane_channel = (c - channel) as i32;
            }
            for (h, in_run) in phase.runs.iter_mut().enumerate() {
                *in_run |= j <= h * HALF && (h + 1) * HALF <= j + run;
            }
            // Column tap `kw` reads inside the row for the run's lanes
            // `lo..hi`: `pad <= (ow + k)·stride + kw < in_w + pad`.
            let khs = valid_taps(oh, g.in_h, g.k_h, stride, pad);
            for kw in 0..g.k_w {
                let mut lo = 0;
                while lo < run && (ow + lo) * stride + kw < pad {
                    lo += 1;
                }
                let mut hi = run;
                while hi > lo && (ow + hi - 1) * stride + kw >= g.in_w + pad {
                    hi -= 1;
                }
                let cols = (((1u32 << (hi - lo)) - 1) << (j + lo)) as u16;
                for kh in khs.clone() {
                    masks[kh * g.k_w + kw] |= cols;
                }
            }
            j += run;
            ow += run;
            if ow == g.out_w {
                (ow, oh) = (0, oh + 1);
                if oh == g.out_h {
                    (oh, c) = (0, c + 1);
                }
            }
        }
        *lane0 = Pixel { c, oh, ow };
        phase.input = offsets.into_iter().fold(isize::MAX, isize::min);
        phase.reach = offsets.into_iter().fold(0, |r, o| r.max(o - phase.input)) as usize;
        assert!(
            phase.reach <= i32::MAX as usize,
            "a vector's lanes lie less than 2^31 inputs apart"
        );
        for (lane, offset) in phase.lanes.iter_mut().zip(offsets) {
            *lane = (offset - phase.input) as i32;
        }
        phase
    }

    /// Whether every lane is in lane 0's channel.
    fn uniform(&self) -> bool {
        self.channels[LANES - 1] == 0
    }
}

/// An output position of an image: channel, row, column.
#[derive(Clone, Copy)]
struct Pixel {
    c: usize,
    oh: usize,
    ow: usize,
}

/// The taps `k` of `k_len` that land inside an input extent `len` for
/// output position `o`: `0 <= o·stride + k − pad < len`.
fn valid_taps(o: usize, len: usize, k_len: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(o * stride);
    let hi = k_len.min((len + pad).saturating_sub(o * stride));
    lo..hi.max(lo)
}

/// The lane patterns and tap masks of a run of period positions, built
/// once per call on the stack and read by every grain.
struct Table {
    /// The period positions held, at most [`PHASES`].
    positions: Range<usize>,
    phases: [Phase; PHASES],
    /// `taps` masks per position.
    masks: [u16; MAX_TAPS],
    taps: usize,
}

impl Table {
    /// Period positions one table holds for a filter of `taps` taps.
    fn capacity(taps: usize) -> usize {
        PHASES.min(MAX_TAPS / taps)
    }

    fn new(l: &Layout, g: &Conv2dGeometry, positions: Range<usize>) -> Table {
        let taps = g.k_h * g.k_w;
        debug_assert!(positions.len() <= Table::capacity(taps));
        let mut table = Table {
            positions: positions.clone(),
            phases: [Phase::EMPTY; PHASES],
            masks: [0; MAX_TAPS],
            taps,
        };
        let first = positions.start * LANES;
        let pixel = first % l.plane_out;
        let mut lane0 = Pixel {
            c: first / l.plane_out,
            oh: pixel / g.out_w,
            ow: pixel % g.out_w,
        };
        for i in 0..positions.len() {
            let masks = &mut table.masks[i * taps..(i + 1) * taps];
            table.phases[i] = Phase::new(l, g, &mut lane0, masks);
        }
        table
    }

    /// The tap masks of the `i`-th held position.
    #[inline(always)]
    fn masks(&self, i: usize) -> &[u16] {
        &self.masks[i * self.taps..][..self.taps]
    }
}

/// Everything a grain needs; shared by reference across the pool.
struct Job<'a> {
    input: &'a [f32],
    weight: &'a [f32],
    bias: &'a [f32],
    geom: Conv2dGeometry,
    layout: Layout,
    relu: bool,
    out: DisjointWriter,
}

/// Depthwise convolution over raw NCHW slices: `out[img][c] =
/// bias[c] + input[img][c] ⋆ weight[c]`, optionally clamped by a fused
/// ReLU. `geom` describes one channel plane (`in_channels` is not
/// consulted); the image count is `input.len() / (channels · in_h ·
/// in_w)`. The whole batch runs in one parallel region per lane table
/// (one unless a plane's period exceeds 64 vectors, as on large odd
/// planes), whose grain is a run of whole periods of one image (at least
/// 256 outputs while every worker still gets a grain). Never allocates;
/// see the [module docs](self) for the vector layout and the exactness
/// contract.
///
/// # Panics
///
/// Panics if a slice length does not match `channels` and `geom`, or if
/// the filter has more than [`MAX_TAPS`] taps.
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
    let kernel = active_kernel();
    depthwise_on(
        kernel, input, weight, bias, channels, geom, relu, out, threads, schedule,
    );
}

/// Bench hook, not API: [`depthwise_conv2d_into`] on the instantiation
/// called `kernel` (one of [`gemm_kernel_names`](crate::gemm::gemm_kernel_names)).
///
/// # Panics
///
/// Panics if this host has no instantiation of that name, or as
/// [`depthwise_conv2d_into`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // as above, plus the instantiation
pub fn depthwise_conv2d_named(
    kernel: &str,
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
    let kernel = MicroKernel::named(kernel);
    depthwise_on(
        kernel, input, weight, bias, channels, geom, relu, out, threads, schedule,
    );
}

/// [`depthwise_conv2d_into`] on a given instantiation.
#[allow(clippy::too_many_arguments)] // as above, plus the instantiation
fn depthwise_on(
    kernel: MicroKernel,
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
    let image_in = channels * geom.in_h * geom.in_w;
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
    let taps = geom.k_h * geom.k_w;
    assert_eq!(
        weight.len(),
        channels * taps,
        "weight length does not match geometry"
    );
    assert_eq!(bias.len(), channels, "bias length does not match channels");
    assert!(
        taps <= MAX_TAPS,
        "depthwise filters hold at most {MAX_TAPS} taps"
    );
    assert!(kernel.supported(), "{kernel:?} is not supported here");

    let layout = Layout::new(channels, geom, images, threads);
    let job = Job {
        input,
        weight,
        bias,
        geom: *geom,
        layout,
        relu,
        out: DisjointWriter::new(out),
    };
    let grains = images * layout.grains_per_image();
    let step = Table::capacity(taps);
    for first in (0..layout.period).step_by(step) {
        let table = Table::new(&layout, geom, first..layout.period.min(first + step));
        parallel_for(threads, grains, schedule, |range| match kernel {
            MicroKernel::Scalar => run_grains::<Portable>(&job, &table, range),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `kernel` is supported (asserted above): the CPU has
            // AVX2 and FMA.
            MicroKernel::Avx2Fma => unsafe { run_grains_avx2(&job, &table, range) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX-512F.
            MicroKernel::Avx512 => unsafe { run_grains_avx512(&job, &table, range) },
        });
    }
}

/// [`run_grains`] on the AVX2 body. (FMA is enabled to match the
/// dispatch check; the body keeps the multiply and the add separate.)
///
/// # Safety
///
/// The CPU must support AVX2 and FMA ([`MicroKernel::supported`]).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_grains_avx2(job: &Job, table: &Table, grains: Range<usize>) {
    run_grains::<Avx2>(job, table, grains);
}

/// [`run_grains`] on the AVX-512 body.
///
/// # Safety
///
/// The CPU must support AVX-512F ([`MicroKernel::supported`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_grains_avx512(job: &Job, table: &Table, grains: Range<usize>) {
    run_grains::<Avx512>(job, table, grains);
}

/// Runs grains `grains` of the (image × run of periods) grid over the
/// period positions `table` holds. Literal 3×3 filters let the tap loops
/// unroll; every other filter runs the same body on the geometry's
/// extents.
#[inline(always)]
fn run_grains<B: Body>(job: &Job, table: &Table, grains: Range<usize>) {
    match (job.geom.k_h, job.geom.k_w, job.layout.contiguous) {
        (3, 3, true) => grains_of::<B, 3, true>(job, table, grains),
        (3, 3, false) => grains_of::<B, 3, false>(job, table, grains),
        (_, _, true) => grains_of::<B, 0, true>(job, table, grains),
        (_, _, false) => grains_of::<B, 0, false>(job, table, grains),
    }
}

/// The vectors at one period position in up to [`BLOCK`] consecutive
/// periods of a grain. Vector `i` is the first one moved on by `i`
/// periods: `i · period_channels` channels, `i · period · 16` outputs.
#[derive(Clone, Copy)]
struct Block {
    /// Index of the position's lane pattern in the [`Table`].
    phase: usize,
    /// Input offset the first vector's lane offsets count from (may be
    /// negative).
    input: isize,
    /// Channel of the first vector's lane 0 within the image.
    channel: usize,
    /// The first vector's outputs in the grain's slice.
    out: usize,
    /// Live lanes of each vector (a prefix, 0 for a vector past the
    /// grain's end).
    live: [u16; BLOCK],
}

/// [`run_grains`] with the filter side `K` (0: the geometry's) and the
/// layout's `contiguous` flag as literals: each grain position by
/// position, [`BLOCK`] periods at a time.
#[inline(always)]
fn grains_of<B: Body, const K: usize, const CONTIGUOUS: bool>(
    job: &Job,
    table: &Table,
    grains: Range<usize>,
) {
    let l = &job.layout;
    let per_image = l.grains_per_image();
    let (period_out, image_out) = (l.period * LANES, l.channels * l.plane_out);
    for grain in grains {
        let (img, first) = (grain / per_image, grain % per_image * l.grain);
        let periods = first..l.periods.min(first + l.grain);
        let image = img * image_out;
        let start = image + periods.start * period_out;
        let end = (image + periods.end * period_out).min(image + image_out);
        // SAFETY: grain (img, periods) exclusively owns these outputs;
        // distinct grains never overlap, and the buffer outlives the
        // parallel region.
        let dst = unsafe { job.out.slice_mut(start, end) };
        let input = ((img * l.channels + periods.start * l.period_channels) * l.plane_in) as isize;
        for (i, (at, phase)) in table.positions.clone().zip(&table.phases).enumerate() {
            for r in (0..periods.len()).step_by(BLOCK) {
                let out = r * period_out + at * LANES;
                if out >= dst.len() {
                    break;
                }
                let mut live = [0; BLOCK];
                for (v, live) in live.iter_mut().enumerate() {
                    let out = out + v * period_out;
                    if out < dst.len() {
                        *live = live_lanes(LANES.min(dst.len() - out));
                    }
                }
                let block = Block {
                    phase: i,
                    input: input + (r * l.period_channels * l.plane_in) as isize + phase.input,
                    channel: (periods.start + r) * l.period_channels + phase.channel,
                    out,
                    live,
                };
                if phase.uniform() {
                    B::block::<K, CONTIGUOUS, true>(job, table, &block, dst);
                } else {
                    B::block::<K, CONTIGUOUS, false>(job, table, &block, dst);
                }
            }
        }
    }
}

/// The filter extents: the literal `K × K`, or the geometry's for `K = 0`.
#[inline(always)]
fn filter<const K: usize>(g: &Conv2dGeometry) -> (usize, usize) {
    if K == 0 {
        (g.k_h, g.k_w)
    } else {
        (K, K)
    }
}

/// Lane offsets of 16 consecutive inputs.
const CONSECUTIVE: [i32; LANES] = {
    let mut lanes = [0; LANES];
    let mut j = 0;
    while j < LANES {
        lanes[j] = j as i32;
        j += 1;
    }
    lanes
};

/// The first `n` (0..=16) lanes.
#[inline(always)]
fn live_lanes(n: usize) -> u16 {
    ((1u32 << n) - 1) as u16
}

/// Where vector `i` of `block` starts: its input origin, lane-0 channel
/// (the first vector's for a vector with no live lane, which reads
/// nothing) and outputs.
#[inline(always)]
fn vector_at(l: &Layout, block: &Block, i: usize) -> (isize, usize, usize) {
    let input = block.input + (i * l.period_channels * l.plane_in) as isize;
    let channel = if block.live[i] == 0 {
        block.channel
    } else {
        block.channel + i * l.period_channels
    };
    (input, channel, block.out + i * l.period * LANES)
}

/// The vector body of one instantiation.
trait Body {
    /// Computes `block` into the grain's outputs `dst`; `UNIFORM`: each
    /// vector's lanes share one channel.
    fn block<const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
        job: &Job,
        table: &Table,
        block: &Block,
        dst: &mut [f32],
    );
}

/// The portable lane-array twin of [`block_avx512`], which computes each
/// vector as two [`HALF`]-lane halves like [`block_avx2`] (8-lane arrays
/// map onto SSE or NEON register pairs).
struct Portable;

/// One half of a portable vector.
type Half = [f32; HALF];

/// `src[at + offsets[j]]` in every lane `j`, the index clamped into
/// `src`: lanes whose index leaves `src` hold some value of it, which a
/// caller masks.
#[inline(always)]
fn pick_lanes(src: &[f32], at: isize, offsets: &[i32]) -> Half {
    let last = src.len() as isize - 1;
    let mut lanes = [0.0; HALF];
    for (lane, &offset) in lanes.iter_mut().zip(offsets) {
        *lane = src[(at + offset as isize).clamp(0, last) as usize];
    }
    lanes
}

/// `src[at + j·stride]` in every lane `j`: out of one window with vector
/// moves (and a fixed shuffle for stride 2) where the window lies inside
/// `src`, else as [`pick_lanes`].
#[inline(always)]
fn every_nth(src: &[f32], at: isize, stride: usize) -> Half {
    let window = usize::try_from(at).ok().and_then(|at| src.get(at..));
    match (window, stride) {
        (Some(w), 1) if w.len() >= HALF => *w.first_chunk().expect("window checked"),
        (Some(w), 2) if w.len() >= 2 * HALF => {
            let pairs: &[f32; 2 * HALF] = w.first_chunk().expect("window checked");
            let mut lanes = [0.0; HALF];
            for (j, lane) in lanes.iter_mut().enumerate() {
                *lane = pairs[2 * j];
            }
            lanes
        }
        _ => {
            let mut offsets = [0; HALF];
            for (j, offset) in offsets.iter_mut().enumerate() {
                *offset = (j * stride) as i32;
            }
            pick_lanes(src, at, &offsets)
        }
    }
}

/// `acc + w·x` in the lanes of `mask`, `acc` in the others.
#[inline(always)]
fn masked_add(acc: &mut Half, w: &Half, x: &Half, mask: u32) {
    for j in 0..HALF {
        let sum = acc[j] + w[j] * x[j];
        acc[j] = if mask >> j & 1 != 0 { sum } else { acc[j] };
    }
}

impl Body for Portable {
    #[inline(always)]
    fn block<const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
        job: &Job,
        table: &Table,
        block: &Block,
        dst: &mut [f32],
    ) {
        let (k_h, k_w) = filter::<K>(&job.geom);
        let taps = k_h * k_w;
        let stride = if CONTIGUOUS { 1 } else { job.geom.stride };
        let (phase, masks) = (&table.phases[block.phase], table.masks(block.phase));
        let mut lane_weights = [0i32; LANES];
        for (w, &c) in lane_weights.iter_mut().zip(&phase.channels) {
            *w = c * taps as i32;
        }
        for i in 0..BLOCK {
            let (input, channel, out) = vector_at(&job.layout, block, i);
            let weights = &job.weight[channel * taps..];
            for h in 0..LANES / HALF {
                let live = u32::from(block.live[i]) >> (h * HALF) & 0xff;
                if live == 0 {
                    break;
                }
                let lanes = h * HALF..(h + 1) * HALF;
                let offsets = &phase.lanes[lanes.clone()];
                let run = CONTIGUOUS || phase.runs[h];
                let mut acc = if UNIFORM {
                    [job.bias[channel]; HALF]
                } else {
                    pick_lanes(job.bias, channel as isize, &phase.channels[lanes.clone()])
                };
                let mut t = 0;
                for kh in 0..k_h {
                    for kw in 0..k_w {
                        let at = input + (kh * job.geom.in_w + kw) as isize;
                        let x = if run {
                            every_nth(job.input, at + offsets[0] as isize, stride)
                        } else {
                            pick_lanes(job.input, at, offsets)
                        };
                        let w = if UNIFORM {
                            [weights[t]; HALF]
                        } else {
                            pick_lanes(weights, t as isize, &lane_weights[lanes.clone()])
                        };
                        masked_add(&mut acc, &w, &x, u32::from(masks[t]) >> (h * HALF) & live);
                        t += 1;
                    }
                }
                if job.relu {
                    for x in acc.iter_mut() {
                        *x = x.max(0.0);
                    }
                }
                let len = live.count_ones() as usize;
                dst[out + h * HALF..][..len].copy_from_slice(&acc[..len]);
            }
        }
    }
}

/// The AVX2 body ([`block_avx2`]).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
struct Avx2;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
impl Body for Avx2 {
    #[inline(always)]
    fn block<const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
        job: &Job,
        table: &Table,
        block: &Block,
        dst: &mut [f32],
    ) {
        // SAFETY: `Avx2` only runs under `run_grains_avx2`, whose caller
        // confirmed AVX2 and FMA.
        unsafe { block_avx2::<K, CONTIGUOUS, UNIFORM>(job, table, block, dst) }
    }
}

#[cfg(target_arch = "x86")]
use core::arch::x86 as arch;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as arch;

/// The lanes `j` of an 8-bit `mask` as an AVX2 lane mask: bit `j` moved
/// to lane `j`'s sign bit, the one bit blends, masked gathers and masked
/// stores read.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn half_mask(mask: u32) -> arch::__m256i {
    use arch::*;
    let shifts = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    _mm256_sllv_epi32(_mm256_set1_epi32(mask as i32), shifts)
}

/// `src[at + offsets[j]]` in the lanes `j` of the 8-bit `mask`, zero in
/// the others: a masked gather.
///
/// # Safety
///
/// The CPU must support AVX2, and every lane of `mask` must read inside
/// `src` (debug builds assert it).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn gather_half(src: &[f32], at: isize, offsets: &[i32], mask: u32) -> arch::__m256 {
    use arch::*;
    let offsets = &offsets[..HALF];
    debug_assert!(
        lanes_inside(src.len(), at, offsets, mask),
        "a gathered lane leaves its slice"
    );
    // SAFETY: only the lanes of `mask` are read, and they lie inside
    // `src`; the base pointer is only formed outside it.
    _mm256_mask_i32gather_ps::<4>(
        _mm256_setzero_ps(),
        src.as_ptr().wrapping_offset(at),
        _mm256_loadu_si256(offsets.as_ptr().cast()),
        _mm256_castsi256_ps(half_mask(mask)),
    )
}

/// `src[at + j·stride]` in the lanes `j` of the 8-bit `mask`, the others
/// unspecified: one load (stride 1) or two and a fixed shuffle (stride 2)
/// where the window lies inside `src`, else a masked gather.
///
/// # Safety
///
/// The CPU must support AVX2, and every lane of `mask` must read inside
/// `src` (debug builds assert it).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn every_nth_half(src: &[f32], at: isize, stride: usize, mask: u32) -> arch::__m256 {
    use arch::*;
    let inside = |len: usize| at >= 0 && at + len as isize <= src.len() as isize;
    if stride == 1 && inside(HALF) {
        // SAFETY: the 8 floats lie inside `src` (checked).
        return _mm256_loadu_ps(src.as_ptr().offset(at));
    }
    if stride == 2 && inside(2 * HALF) {
        // SAFETY: the 16 floats lie inside `src` (checked).
        let lo = _mm256_loadu_ps(src.as_ptr().offset(at));
        let hi = _mm256_loadu_ps(src.as_ptr().offset(at + HALF as isize));
        // Even lanes per 128-bit half, then the halves back in order.
        let evens = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(lo, hi));
        return _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(evens));
    }
    let mut offsets = [0i32; HALF];
    for (j, offset) in offsets.iter_mut().enumerate() {
        *offset = (j * stride) as i32;
    }
    gather_half(src, at, &offsets, mask)
}

/// A block with AVX2, each 16-lane vector as two 8-lane halves: the same
/// arithmetic as [`block_avx512`] — `bias`, then per tap the product
/// added where the tap is valid (a blend), then the clamp — with the
/// inputs loaded by [`every_nth_half`] where a half lies in one run of
/// an output row (always at stride 1 with "same" padding) and gathered
/// otherwise, a broadcast or a gather for the weights, and one store per
/// half.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. `table` and `block` must come from
/// the call's [`Layout`], `dst` be the grain's outputs.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn block_avx2<const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
    job: &Job,
    table: &Table,
    block: &Block,
    dst: &mut [f32],
) {
    use arch::*;
    const HALVES: usize = LANES / HALF;
    let (k_h, k_w) = filter::<K>(&job.geom);
    let taps = k_h * k_w;
    let stride = if CONTIGUOUS { 1 } else { job.geom.stride };
    let (phase, masks) = (&table.phases[block.phase], table.masks(block.phase));
    let mut lane_weights = [0i32; LANES];
    for (w, &c) in lane_weights.iter_mut().zip(&phase.channels) {
        *w = c * taps as i32;
    }
    // Two vectors at a time: their four accumulators, the tap's blend
    // masks and the loads stay in the 16 YMM registers.
    for pair in (0..BLOCK).step_by(2) {
        if block.live[pair] == 0 {
            break;
        }
        let mut at = [(0isize, 0usize, 0usize); 2];
        let mut live = [[0u32; HALVES]; 2];
        let mut acc = [[_mm256_setzero_ps(); HALVES]; 2];
        for v in 0..2 {
            at[v] = vector_at(&job.layout, block, pair + v);
            for h in 0..HALVES {
                live[v][h] = u32::from(block.live[pair + v]) >> (h * HALF) & 0xff;
                acc[v][h] = if UNIFORM {
                    _mm256_set1_ps(job.bias[at[v].1])
                } else {
                    let (first, channels) = (at[v].1 as isize, &phase.channels[h * HALF..]);
                    gather_half(job.bias, first, channels, live[v][h])
                };
            }
        }
        let mut t = 0;
        for kh in 0..k_h {
            for kw in 0..k_w {
                let tap = (kh * job.geom.in_w + kw) as isize;
                let mut valid = [0u32; HALVES];
                let mut blend = [_mm256_setzero_ps(); HALVES];
                for h in 0..HALVES {
                    valid[h] = u32::from(masks[t]) >> (h * HALF) & 0xff;
                    blend[h] = _mm256_castsi256_ps(half_mask(valid[h]));
                }
                for v in 0..2 {
                    let (src, first) = (at[v].0 + tap, at[v].1 * taps + t);
                    let uniform = _mm256_set1_ps(if UNIFORM { job.weight[first] } else { 0.0 });
                    for h in 0..HALVES {
                        let m = valid[h] & live[v][h];
                        let lanes = &phase.lanes[h * HALF..];
                        // SAFETY: the lanes of `m` are valid taps of live
                        // lanes: they read inside the input.
                        let x = if CONTIGUOUS || phase.runs[h] {
                            every_nth_half(job.input, src + lanes[0] as isize, stride, m)
                        } else {
                            gather_half(job.input, src, lanes, m)
                        };
                        let w = if UNIFORM {
                            uniform
                        } else {
                            let weights = &lane_weights[h * HALF..];
                            let live = live[v][h];
                            gather_half(job.weight, first as isize, weights, live)
                        };
                        let sum = _mm256_add_ps(acc[v][h], _mm256_mul_ps(w, x));
                        acc[v][h] = _mm256_blendv_ps(acc[v][h], sum, blend[h]);
                    }
                }
                t += 1;
            }
        }
        for v in 0..2 {
            for h in 0..HALVES {
                let live = live[v][h];
                if live == 0 {
                    continue;
                }
                let acc = if job.relu {
                    _mm256_max_ps(acc[v][h], _mm256_setzero_ps())
                } else {
                    acc[v][h]
                };
                let out = &mut dst[at[v].2 + h * HALF..][..live.count_ones() as usize];
                // SAFETY: `live` enables the first `out.len()` lanes.
                _mm256_maskstore_ps(out.as_mut_ptr(), half_mask(live), acc);
            }
        }
    }
}

/// The AVX-512 body ([`block_avx512`]).
#[cfg(target_arch = "x86_64")]
struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Body for Avx512 {
    #[inline(always)]
    fn block<const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
        job: &Job,
        table: &Table,
        block: &Block,
        dst: &mut [f32],
    ) {
        // SAFETY: `Avx512` only runs under `run_grains_avx512`, whose
        // caller confirmed AVX-512F.
        unsafe { block_avx512::<K, CONTIGUOUS, UNIFORM>(job, table, block, dst) }
    }
}

/// Whether every lane of `mask` reads inside a slice of `len` floats
/// when lane `j` reads `at + offsets[j]`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn lanes_inside(len: usize, at: isize, offsets: &[i32], mask: u32) -> bool {
    (0..offsets.len())
        .filter(|j| mask >> j & 1 != 0)
        .all(|j| (0..len as isize).contains(&(at + offsets[j] as isize)))
}

/// `src[at + j]` in the lanes `j` of `mask`, zero in the others.
///
/// # Safety
///
/// The CPU must support AVX-512F, and every lane of `mask` must read
/// inside `src` (debug builds assert it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load_masked(src: &[f32], at: isize, mask: u16) -> core::arch::x86_64::__m512 {
    use core::arch::x86_64::*;
    debug_assert!(
        lanes_inside(src.len(), at, &CONSECUTIVE, mask.into()),
        "a masked load leaves its slice"
    );
    // SAFETY: only the lanes of `mask` are read, and they lie inside
    // `src`; the pointer is only formed, never read, outside it.
    _mm512_maskz_loadu_ps(mask, src.as_ptr().wrapping_offset(at))
}

/// The 16 floats of `src` from `at`, zero where they fall outside it.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn window(src: &[f32], at: isize) -> core::arch::x86_64::__m512 {
    use core::arch::x86_64::*;
    let len = src.len() as isize;
    if at >= 0 && at + LANES as isize <= len {
        // SAFETY: the 16 floats lie inside `src` (checked above).
        return _mm512_loadu_ps(src.as_ptr().offset(at));
    }
    let lo = (-at).clamp(0, LANES as isize) as u32;
    let hi = (len - at).clamp(0, LANES as isize) as u32;
    let inside = ((1u32 << hi) - 1) as u16 & !(((1u32 << lo) - 1) as u16);
    // SAFETY: `inside` enables exactly the lanes inside `src`.
    load_masked(src, at, inside)
}

/// `src[at + offsets[j]]` in the lanes `j` of `mask` (the others
/// unspecified), for offsets in `0..=reach`: out of the `reach / 16 + 1`
/// 16-float windows from `at` by two-source permutes (and a blend past
/// 32), each window loaded where it lies inside `src`; a gather past
/// [`PERMUTE_REACH`].
///
/// # Safety
///
/// The CPU must support AVX-512F; `idx` must hold `offsets` and every
/// lane of `mask` must read inside `src` (debug builds assert it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn pick(
    src: &[f32],
    at: isize,
    offsets: &[i32; LANES],
    idx: core::arch::x86_64::__m512i,
    reach: usize,
    mask: u16,
) -> core::arch::x86_64::__m512 {
    use core::arch::x86_64::*;
    debug_assert!(
        lanes_inside(src.len(), at, offsets, mask.into()),
        "a picked lane leaves its slice"
    );
    if reach >= PERMUTE_REACH {
        // SAFETY: only the lanes of `mask` are read, and they lie inside
        // `src`; the base pointer is only formed outside it.
        return _mm512_mask_i32gather_ps::<4>(
            _mm512_setzero_ps(),
            mask,
            idx,
            src.as_ptr().wrapping_offset(at),
        );
    }
    let zero = _mm512_setzero_ps();
    let lo = _mm512_permutex2var_ps(
        window(src, at),
        idx,
        if reach >= LANES {
            window(src, at + LANES as isize)
        } else {
            zero
        },
    );
    if reach < 2 * LANES {
        return lo;
    }
    let hi = _mm512_permutex2var_ps(
        window(src, at + 2 * LANES as isize),
        idx,
        if reach >= 3 * LANES {
            window(src, at + 3 * LANES as isize)
        } else {
            zero
        },
    );
    let upper = _mm512_test_epi32_mask(idx, _mm512_set1_epi32(2 * LANES as i32));
    _mm512_mask_blend_ps(upper, lo, hi)
}

/// A block with AVX-512F, tap by tap: lane-parallel the same arithmetic
/// as [`Portable::block`] — `bias`, then per tap a masked add of the
/// product, then the clamp — with plain loads (stride 1, "same" padding,
/// away from the input's ends), masked loads (the same at the ends) or
/// [`pick`]s for the inputs, a broadcast or a [`pick`] for the weights,
/// and one masked store per vector.
///
/// # Safety
///
/// The CPU must support AVX-512F. `table` and `block` must come from the
/// call's [`Layout`], `dst` be the grain's outputs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn block_avx512<const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
    job: &Job,
    table: &Table,
    block: &Block,
    dst: &mut [f32],
) {
    use core::arch::x86_64::*;
    let (k_h, k_w) = filter::<K>(&job.geom);
    let taps = k_h * k_w;
    let (phase, masks) = (&table.phases[block.phase], table.masks(block.phase));
    let mut at = [(0isize, 0usize, 0usize); BLOCK];
    let mut weights = [&[][..]; BLOCK];
    for i in 0..BLOCK {
        at[i] = vector_at(&job.layout, block, i);
        weights[i] = &job.weight[at[i].1 * taps..][..taps];
    }
    // Stride 1 away from the input's ends: every tap of every vector
    // reads 16 floats inside the slice, so the loads need no mask.
    let span = ((k_h - 1) * job.geom.in_w + k_w - 1 + LANES) as isize;
    let inside = CONTIGUOUS
        && (0..BLOCK).all(|i| at[i].0 >= 0 && at[i].0 + span <= job.input.len() as isize);
    // Per-lane channels (small planes): live lanes lie in the image's
    // channels, so their bias and weights lie in the slices.
    let lane_channels = _mm512_loadu_epi32(phase.channels.as_ptr());
    let mut lane_weights = [0i32; LANES];
    for (w, &c) in lane_weights.iter_mut().zip(&phase.channels) {
        *w = c * taps as i32;
    }
    let weight_idx = _mm512_loadu_epi32(lane_weights.as_ptr());
    let input_idx = _mm512_loadu_epi32(phase.lanes.as_ptr());
    let mut acc = [_mm512_setzero_ps(); BLOCK];
    for i in 0..BLOCK {
        acc[i] = if UNIFORM {
            _mm512_set1_ps(job.bias[at[i].1])
        } else {
            let reach = phase.channels[LANES - 1] as usize;
            let first = at[i].1 as isize;
            pick(
                job.bias,
                first,
                &phase.channels,
                lane_channels,
                reach,
                block.live[i],
            )
        };
    }
    let mut t = 0;
    for kh in 0..k_h {
        for kw in 0..k_w {
            let tap = (kh * job.geom.in_w + kw) as isize;
            for i in 0..BLOCK {
                let m = masks[t] & block.live[i];
                let src = at[i].0 + tap;
                // SAFETY: with `inside` the 16 inputs lie inside the
                // slice; otherwise only the lanes of `m` are read, valid
                // taps of live lanes, which lie inside it.
                let x = if CONTIGUOUS && inside {
                    debug_assert!(src >= 0 && src as usize + LANES <= job.input.len());
                    _mm512_loadu_ps(job.input.as_ptr().offset(src))
                } else if CONTIGUOUS {
                    load_masked(job.input, src, m)
                } else {
                    pick(job.input, src, &phase.lanes, input_idx, phase.reach, m)
                };
                let w = if UNIFORM {
                    _mm512_set1_ps(weights[i][t])
                } else {
                    let reach = lane_weights[LANES - 1] as usize;
                    let first = (at[i].1 * taps + t) as isize;
                    let live = block.live[i];
                    pick(job.weight, first, &lane_weights, weight_idx, reach, live)
                };
                // Lanes past the grain's end are never stored: the
                // add needs the tap's mask alone.
                acc[i] = _mm512_mask_add_ps(acc[i], masks[t], acc[i], _mm512_mul_ps(w, x));
            }
            t += 1;
        }
    }
    for i in 0..BLOCK {
        let live = block.live[i];
        if live == 0 {
            continue;
        }
        let acc = if job.relu {
            _mm512_max_ps(acc[i], _mm512_setzero_ps())
        } else {
            acc[i]
        };
        let out = &mut dst[at[i].2..][..LANES - live.leading_zeros() as usize];
        // SAFETY: `live` enables the first `out.len()` lanes.
        _mm512_mask_storeu_ps(out.as_mut_ptr(), live, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive per-pixel loop the kernel must reproduce bit for bit.
    fn naive(
        input: &[f32],
        weight: &[f32],
        bias: &[f32],
        channels: usize,
        g: &Conv2dGeometry,
        relu: bool,
    ) -> Vec<f32> {
        let (plane_in, taps) = (g.in_h * g.in_w, g.k_h * g.k_w);
        let mut out = Vec::new();
        for (i, x) in input.chunks(plane_in).enumerate() {
            let c = i % channels;
            for oh in 0..g.out_h {
                for ow in 0..g.out_w {
                    let mut acc = bias[c];
                    for kh in valid_taps(oh, g.in_h, g.k_h, g.stride, g.padding) {
                        for kw in valid_taps(ow, g.in_w, g.k_w, g.stride, g.padding) {
                            let (ih, iw) = (
                                oh * g.stride + kh - g.padding,
                                ow * g.stride + kw - g.padding,
                            );
                            acc += weight[c * taps + kh * g.k_w + kw] * x[ih * g.in_w + iw];
                        }
                    }
                    out.push(if relu { acc.max(0.0) } else { acc });
                }
            }
        }
        out
    }

    /// Deterministic values in `[-2, 2)` with the IEEE corners sprinkled
    /// in every `every`-th slot.
    fn values(len: usize, seed: u32, corners: &[f32], every: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761) | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                if i % every == every - 1 {
                    corners[i / every % corners.len()]
                } else {
                    (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0
                }
            })
            .collect()
    }

    #[test]
    fn large_odd_planes_still_split_across_workers() {
        // A 33×33 plane repeats its lane pattern every 16 channels, so 32
        // channels are two periods: one grain each for two workers, one
        // grain per image once the batch covers the workers.
        let g = Conv2dGeometry::new(1, 33, 33, 3, 3, 1, 1);
        assert_eq!(Layout::new(32, &g, 1, 2).grains_per_image(), 2);
        assert_eq!(Layout::new(32, &g, 2, 2).grains_per_image(), 1);
        // MobileNet's 32×32 c32 layer keeps whole blocks of periods.
        let g = Conv2dGeometry::new(1, 32, 32, 3, 3, 1, 1);
        assert_eq!(Layout::new(32, &g, 1, 2).grain, BLOCK);
    }

    #[test]
    fn every_instantiation_is_bit_identical_on_mobilenet_shapes() {
        // MobileNet's nine depthwise shapes (input side, channels,
        // stride), inputs with NaN, ±Inf and −0.0, a zero weight per
        // filter, the clamp on and off: every instantiation this host
        // runs reproduces the naive loop's bits.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let shapes = [
            (32, 32, 1),
            (32, 64, 2),
            (16, 128, 1),
            (16, 128, 2),
            (8, 256, 1),
            (8, 256, 2),
            (4, 512, 1),
            (4, 512, 2),
            (2, 1024, 1),
        ];
        for (side, channels, stride) in shapes {
            let g = Conv2dGeometry::new(1, side, side, 3, 3, stride, 1);
            let input = values(channels * side * side, side as u32, &specials, 37);
            let weight = values(channels * 9, 7, &[0.0, -0.0], 5);
            let bias = values(channels, 3, &[-0.0], 4);
            for relu in [false, true] {
                let want: Vec<u32> = naive(&input, &weight, &bias, channels, &g, relu)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                for kernel in MicroKernel::available() {
                    let mut out = vec![f32::NAN; want.len()];
                    let (w, b) = (&weight, &bias);
                    let serial = Schedule::Static;
                    depthwise_on(
                        kernel, &input, w, b, channels, &g, relu, &mut out, 1, serial,
                    );
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert!(
                        got == want,
                        "{kernel:?} {side}x{side} c{channels} s{stride} relu {relu}"
                    );
                }
            }
        }
    }
}
