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
//! * otherwise they are picked out of the input by lane offsets
//!   (`V16::pick`: windows and permutes, run loads or gathers,
//!   whichever the target does best).
//!
//! A tap that falls outside the input in some lanes is skipped there: its
//! add is masked, so those lanes keep their value. Which lanes a tap is
//! valid in depends only on the vector's position within the lane
//! pattern's period (`lcm(plane, 16) / 16` vectors), never on the
//! channel, so the lane patterns and the (position, tap) masks are
//! computed once per call into a stack table that every channel
//! reads. The body computes one position in four consecutive
//! periods, `V16::BLOCK` of them at a time: the vectors share the table
//! row, and their independent accumulators overlap each output's chain of
//! dependent adds.
//!
//! The body is written once over the crate's 16-lane vocabulary
//! (`V16`) and instantiated for AVX-512F, AVX2 and the portable target
//! behind the GEMM engine's one-time dispatch, so
//! `CNN_STACK_GEMM_FORCE_SCALAR` pins the portable instantiation;
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
use crate::v16::{live_lanes, run_on, Offsets, Run, LANES, V16};
use cnn_stack_parallel::{parallel_for, DisjointWriter, Schedule};
use std::ops::Range;

/// Period positions one [`Table`] holds: the 64 vectors of a 32×32
/// output plane.
const PHASES: usize = 64;
/// The largest filter (`k_h · k_w` taps) the kernel runs: its lane table
/// holds this many (position, tap) masks, and one position's must fit.
pub const MAX_TAPS: usize = 1024;
/// Outputs a parallel grain covers at least (it covers whole blocks of
/// periods) while there are enough grains for the workers.
const GRAIN_OUTPUTS: usize = 256;
/// Vectors one [`Block`] holds: the same period position in this many
/// consecutive periods. They share the lane pattern and tap masks.
const BLOCK: usize = 4;

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
    lanes: Offsets,
    /// Each lane's channel minus `channel` (ascending): where its bias
    /// lies from lane 0's.
    channels: Offsets,
}

impl Phase {
    const EMPTY: Phase = Phase {
        channel: 0,
        input: 0,
        lanes: Offsets::ZERO,
        channels: Offsets::ZERO,
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
        let mut channels = [0i32; LANES];
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
                .zip(&mut channels[j..j + run]);
            for (k, (offset, lane_channel)) in lanes.enumerate() {
                *offset = origin + (k * stride) as isize;
                *lane_channel = (c - channel) as i32;
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
        let input = offsets.into_iter().fold(isize::MAX, isize::min);
        let lanes = offsets.map(|o| {
            i32::try_from(o - input).expect("a vector's lanes lie less than 2^31 inputs apart")
        });
        Phase {
            channel,
            input,
            lanes: Offsets::new(lanes),
            channels: Offsets::new(channels),
        }
    }

    /// Whether every lane is in lane 0's channel.
    fn uniform(&self) -> bool {
        self.channels.reach == 0
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
        parallel_for(threads, grains, schedule, |grains| {
            let (job, table) = (&job, &table);
            // Literal 3×3 filters let the tap loops unroll; every other
            // filter runs the same body on the geometry's extents. Each
            // variant is its own instantiation of the target's trampoline.
            match (geom.k_h, geom.k_w, layout.contiguous) {
                (3, 3, true) => run_on(kernel, &mut Grains::<3, true> { job, table, grains }),
                (3, 3, false) => run_on(kernel, &mut Grains::<3, false> { job, table, grains }),
                (_, _, true) => run_on(kernel, &mut Grains::<0, true> { job, table, grains }),
                (_, _, false) => run_on(kernel, &mut Grains::<0, false> { job, table, grains }),
            }
        });
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

/// Grains `grains` of the (image × run of periods) grid over the period
/// positions `table` holds, with the filter side `K` (0: the geometry's)
/// and the layout's `contiguous` flag as literals.
struct Grains<'a, const K: usize, const CONTIGUOUS: bool> {
    job: &'a Job<'a>,
    table: &'a Table,
    grains: Range<usize>,
}

impl<const K: usize, const CONTIGUOUS: bool> Run for Grains<'_, K, CONTIGUOUS> {
    type Output = ();

    #[inline(always)]
    fn run<V: V16>(&mut self) {
        grains_of::<V, K, CONTIGUOUS>(self.job, self.table, self.grains.clone());
    }
}

/// [`Grains`] each grain position by position, [`BLOCK`] periods at a
/// time. (`job` and `table` are parameters so that the compiler knows no
/// output store changes them.)
#[inline(always)]
fn grains_of<V: V16, const K: usize, const CONTIGUOUS: bool>(
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
                        *live = live_lanes(dst.len() - out);
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
                    run_block::<V, K, CONTIGUOUS, true>(job, table, &block, dst);
                } else {
                    run_block::<V, K, CONTIGUOUS, false>(job, table, &block, dst);
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

/// Computes `block` into the grain's outputs `dst`, [`V16::BLOCK`]
/// vectors at a time, tap by tap: `bias`, then per tap the product added
/// where the tap is valid, then the clamp; one store per vector.
/// `UNIFORM`: each vector's lanes share one channel, so its bias and
/// weights are broadcasts rather than picks. The inputs are plain loads
/// at stride 1 with "same" padding away from the input's ends, masked
/// loads at those ends, and picks otherwise.
#[inline(always)]
fn run_block<V: V16, const K: usize, const CONTIGUOUS: bool, const UNIFORM: bool>(
    job: &Job,
    table: &Table,
    block: &Block,
    dst: &mut [f32],
) {
    let (k_h, k_w) = filter::<K>(&job.geom);
    let taps = k_h * k_w;
    let (phase, masks) = (
        &table.phases[block.phase],
        &table.masks(block.phase)[..taps],
    );
    // Where each lane's weights lie from lane 0's.
    let lane_weights = if UNIFORM {
        Offsets::ZERO
    } else {
        phase.channels.scaled(taps as i32)
    };
    // Stride 1 away from the input's ends: every tap of a vector reads 16
    // floats inside the slice, so the loads need no mask.
    let span = ((k_h - 1) * job.geom.in_w + k_w - 1 + LANES) as isize;
    for first in (0..BLOCK).step_by(V::BLOCK) {
        if block.live[first] == 0 {
            break;
        }
        let mut at = [(0isize, 0usize, 0usize); BLOCK];
        let mut weights = [&[][..]; BLOCK];
        let mut acc = [V::splat(0.0); BLOCK];
        for i in 0..V::BLOCK {
            at[i] = vector_at(&job.layout, block, first + i);
            weights[i] = &job.weight[at[i].1 * taps..];
            if UNIFORM {
                weights[i] = &weights[i][..taps];
            }
            acc[i] = if UNIFORM {
                V::splat(job.bias[at[i].1])
            } else {
                let live = block.live[first + i];
                // SAFETY: per-lane channels (small planes): the live lanes
                // are outputs of the grain's image (`grains_of` cuts them at
                // its end), so their channels' biases lie in `bias`.
                unsafe { V::pick(job.bias, at[i].1 as isize, &phase.channels, live) }
            };
        }
        let inside = CONTIGUOUS
            && (0..V::BLOCK).all(|i| at[i].0 >= 0 && at[i].0 + span <= job.input.len() as isize);
        let mut t = 0;
        for kh in 0..k_h {
            for kw in 0..k_w {
                let tap = (kh * job.geom.in_w + kw) as isize;
                for i in 0..V::BLOCK {
                    let live = block.live[first + i];
                    let src = at[i].0 + tap;
                    // SAFETY: `inside` checked that the tap's 16 floats lie
                    // in the input. Otherwise `masks[t]` holds the lanes
                    // whose tap reads inside their channel's input plane
                    // (`Phase::new`, from the call's layout), and the live
                    // lanes are outputs of the grain's image, so each read
                    // lies in `input`. A live lane's weights are its
                    // channel's `taps` floats, which lie in `weight`.
                    let x = unsafe {
                        if CONTIGUOUS && inside {
                            V::load(job.input, src)
                        } else if CONTIGUOUS {
                            V::load_masked(job.input, src, masks[t] & live)
                        } else {
                            V::pick(job.input, src, &phase.lanes, masks[t] & live)
                        }
                    };
                    let w = if UNIFORM {
                        V::splat(weights[i][t])
                    } else {
                        // SAFETY: as above.
                        unsafe { V::pick(weights[i], t as isize, &lane_weights, live) }
                    };
                    // Lanes past the grain's end are never stored: the
                    // add needs the tap's mask alone.
                    acc[i] = acc[i].mul_add(masks[t], w, x);
                }
                t += 1;
            }
        }
        for i in 0..V::BLOCK {
            let live = block.live[first + i];
            if live == 0 {
                continue;
            }
            let acc = if job.relu { acc[i].relu() } else { acc[i] };
            acc.store(&mut dst[at[i].2..][..LANES - live.leading_zeros() as usize]);
        }
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
