//! Winograd fast convolution, F(2×2, 3×3) and F(4×4, 3×3).
//!
//! The paper's "Data Formats and Algorithms" layer names the Winograd
//! transform as one of the candidate data transformations (§II-B, item
//! 3) but does not evaluate it; this module completes the set. For 3×3
//! kernels at stride 1 — the dominant shape in all three models —
//! F(2×2, 3×3) computes each 2×2 output tile with 16 multiplies instead
//! of the direct method's 36, a 2.25× multiply reduction; F(4×4, 3×3)
//! goes further, computing each 4×4 tile with 36 multiplies instead of
//! 144 (4× fewer than direct; 2.25 muls per output against F(2×2)'s
//! 4, a further 16/9 ≈ 1.78× reduction) at the cost of a
//! worse-conditioned transform: its interpolation points {0, ±1, ±2}
//! amplify rounding error by a constant factor, which is why the
//! conformance harness grants F(4×4) a looser error budget than F(2×2)
//! (see `tests/conv_conformance.rs`). The `ablate_conv_algo` bench
//! measures where each trade pays off.
//!
//! All entry points return [`KernelError`] on misuse instead of
//! panicking, matching the fallible-API convention of the `nn` crate.

use crate::error::KernelError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use cnn_stack_obs::{self as obs, Metric};

/// Multiplies per output element for direct 3×3 convolution vs
/// F(2×2, 3×3) Winograd: `(36, 16)` per 2×2 tile per channel pair.
pub const WINOGRAD_TILE_MULS: (usize, usize) = (36, 16);

/// Multiplies per 4×4 output tile per channel pair for direct 3×3
/// convolution vs F(4×4, 3×3) Winograd: `(144, 36)`.
pub const WINOGRAD4_TILE_MULS: (usize, usize) = (144, 36);

/// Validated geometry shared by both Winograd variants.
struct WinogradGeometry {
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    out_h: usize,
    out_w: usize,
}

/// Validates the shared preconditions of both Winograd variants over
/// tensor arguments.
fn validate_winograd(
    algo: &'static str,
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    padding: usize,
) -> Result<WinogradGeometry, KernelError> {
    let (n, in_c, h, w) = input.shape().nchw();
    let wd = weights.shape().dims();
    if wd.len() != 4 {
        return Err(KernelError::WeightRank {
            expected: 4,
            got: wd.len(),
        });
    }
    if wd[2] != 3 || wd[3] != 3 {
        return Err(KernelError::KernelShape {
            algo,
            expected: (3, 3),
            got: (wd[2], wd[3]),
        });
    }
    if wd[1] != in_c {
        return Err(KernelError::ChannelMismatch {
            weights: wd[1],
            input: in_c,
        });
    }
    let out_c = wd[0];
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(KernelError::BiasLength {
                expected: out_c,
                got: b.len(),
            });
        }
    }
    if h + 2 * padding < 3 || w + 2 * padding < 3 {
        return Err(KernelError::InputTooSmall {
            padded_h: h + 2 * padding,
            padded_w: w + 2 * padding,
            k_h: 3,
            k_w: 3,
        });
    }
    Ok(WinogradGeometry {
        n,
        in_c,
        h,
        w,
        out_c,
        out_h: h + 2 * padding - 2,
        out_w: w + 2 * padding - 2,
    })
}

/// Transforms one 3×3 filter into its 4×4 Winograd domain image
/// `U = G g Gᵀ`.
fn transform_filter(g: &[f32]) -> [f32; 16] {
    debug_assert_eq!(g.len(), 9);
    // G (4x3) rows: [1,0,0], [1/2,1/2,1/2], [1/2,-1/2,1/2], [0,0,1].
    let mut tmp = [0.0f32; 12]; // G·g → 4x3
    for r in 0..4 {
        for c in 0..3 {
            tmp[r * 3 + c] = match r {
                0 => g[c],
                1 => 0.5 * (g[c] + g[3 + c] + g[6 + c]),
                2 => 0.5 * (g[c] - g[3 + c] + g[6 + c]),
                _ => g[6 + c],
            };
        }
    }
    let mut u = [0.0f32; 16]; // (G·g)·Gᵀ → 4x4
    for r in 0..4 {
        let row = &tmp[r * 3..r * 3 + 3];
        u[r * 4] = row[0];
        u[r * 4 + 1] = 0.5 * (row[0] + row[1] + row[2]);
        u[r * 4 + 2] = 0.5 * (row[0] - row[1] + row[2]);
        u[r * 4 + 3] = row[2];
    }
    u
}

/// Transforms one 4×4 input tile: `V = Bᵀ d B`.
fn transform_input(d: &[f32; 16]) -> [f32; 16] {
    // Bᵀ rows: [1,0,-1,0], [0,1,1,0], [0,-1,1,0], [0,1,0,-1].
    let mut tmp = [0.0f32; 16];
    for c in 0..4 {
        tmp[c] = d[c] - d[8 + c];
        tmp[4 + c] = d[4 + c] + d[8 + c];
        tmp[8 + c] = d[8 + c] - d[4 + c];
        tmp[12 + c] = d[4 + c] - d[12 + c];
    }
    let mut v = [0.0f32; 16];
    for r in 0..4 {
        let row = &tmp[r * 4..r * 4 + 4];
        v[r * 4] = row[0] - row[2];
        v[r * 4 + 1] = row[1] + row[2];
        v[r * 4 + 2] = row[2] - row[1];
        v[r * 4 + 3] = row[1] - row[3];
    }
    v
}

/// Inverse transform of one 4×4 accumulator to a 2×2 output tile:
/// `Y = Aᵀ m A`.
fn transform_output(m: &[f32; 16]) -> [f32; 4] {
    // Aᵀ rows: [1,1,1,0], [0,1,-1,-1].
    let mut tmp = [0.0f32; 8];
    for c in 0..4 {
        tmp[c] = m[c] + m[4 + c] + m[8 + c];
        tmp[4 + c] = m[4 + c] - m[8 + c] - m[12 + c];
    }
    [
        tmp[0] + tmp[1] + tmp[2],
        tmp[1] - tmp[2] - tmp[3],
        tmp[4] + tmp[5] + tmp[6],
        tmp[5] - tmp[6] - tmp[7],
    ]
}

/// Validates the slice-level preconditions shared by both `_into`
/// kernels and returns the output extent `(out_h, out_w)`.
#[allow(clippy::too_many_arguments)]
fn validate_into(
    input: &[f32],
    (n, in_c, h, w): (usize, usize, usize, usize),
    weights: &[f32],
    out_c: usize,
    bias: Option<&[f32]>,
    padding: usize,
    out: &[f32],
    scratch: &[f32],
    needed: usize,
) -> Result<(usize, usize), KernelError> {
    if input.len() != n * in_c * h * w {
        return Err(KernelError::BufferSize {
            what: "input",
            expected: n * in_c * h * w,
            got: input.len(),
        });
    }
    if weights.len() != out_c * in_c * 9 {
        return Err(KernelError::BufferSize {
            what: "weights",
            expected: out_c * in_c * 9,
            got: weights.len(),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(KernelError::BiasLength {
                expected: out_c,
                got: b.len(),
            });
        }
    }
    if h + 2 * padding < 3 || w + 2 * padding < 3 {
        return Err(KernelError::InputTooSmall {
            padded_h: h + 2 * padding,
            padded_w: w + 2 * padding,
            k_h: 3,
            k_w: 3,
        });
    }
    let out_h = h + 2 * padding - 2;
    let out_w = w + 2 * padding - 2;
    if out.len() != n * out_c * out_h * out_w {
        return Err(KernelError::BufferSize {
            what: "output",
            expected: n * out_c * out_h * out_w,
            got: out.len(),
        });
    }
    if scratch.len() < needed {
        return Err(KernelError::ScratchTooSmall {
            needed,
            got: scratch.len(),
        });
    }
    Ok((out_h, out_w))
}

/// Scratch floats [`winograd_conv2d_into`] needs: the transformed
/// filter bank `[out_c, in_c, 16]` plus one tile column of transformed
/// inputs `[in_c, 16]`.
pub fn winograd_scratch_elems(in_channels: usize, out_channels: usize) -> usize {
    16 * (out_channels * in_channels + in_channels)
}

/// F(2×2, 3×3) Winograd convolution over raw NCHW slices, writing the
/// `[n, out_c, out_h, out_w]` result into `out` using caller-provided
/// scratch (at least [`winograd_scratch_elems`] floats) — no hidden
/// allocation, so the memory planner can account the workspace.
///
/// Stride is fixed at 1; `out_h = h + 2·padding − 2`. Results match
/// direct convolution to floating-point tolerance; odd output extents
/// are handled by edge tiles that read zero padding and write only
/// their valid quadrant.
///
/// # Errors
///
/// Returns [`KernelError`] on mismatched buffer lengths, bias length,
/// an input smaller than the padded window, or undersized scratch.
#[allow(clippy::too_many_arguments)]
pub fn winograd_conv2d_into(
    input: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    out_c: usize,
    bias: Option<&[f32]>,
    padding: usize,
    out: &mut [f32],
    scratch: &mut [f32],
) -> Result<(), KernelError> {
    let needed = winograd_scratch_elems(in_c, out_c);
    let (out_h, out_w) = validate_into(
        input,
        (n, in_c, h, w),
        weights,
        out_c,
        bias,
        padding,
        out,
        scratch,
        needed,
    )?;

    // Pre-transform all filters: [out_c, in_c, 16].
    let (u, vs) = scratch[..needed].split_at_mut(out_c * in_c * 16);
    for (g, uf) in weights.chunks_exact(9).zip(u.chunks_exact_mut(16)) {
        uf.copy_from_slice(&transform_filter(g));
    }

    let tiles_y = out_h.div_ceil(2);
    let tiles_x = out_w.div_ceil(2);
    for img in 0..n {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                // Gather and transform the input tile for every channel.
                for (c, v) in vs.chunks_exact_mut(16).enumerate() {
                    let mut d = [0.0f32; 16];
                    for dy in 0..4 {
                        let iy = (ty * 2 + dy) as isize - padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for dx in 0..4 {
                            let ix = (tx * 2 + dx) as isize - padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            d[dy * 4 + dx] =
                                input[((img * in_c + c) * h + iy as usize) * w + ix as usize];
                        }
                    }
                    v.copy_from_slice(&transform_input(&d));
                }
                // Per output channel: elementwise accumulate + inverse.
                for o in 0..out_c {
                    let mut m = [0.0f32; 16];
                    for (c, v) in vs.chunks_exact(16).enumerate() {
                        let uf = &u[(o * in_c + c) * 16..(o * in_c + c + 1) * 16];
                        for k in 0..16 {
                            m[k] += uf[k] * v[k];
                        }
                    }
                    let y = transform_output(&m);
                    let b = bias.map_or(0.0, |b| b[o]);
                    for dy in 0..2 {
                        let oy = ty * 2 + dy;
                        if oy >= out_h {
                            continue;
                        }
                        for dx in 0..2 {
                            let ox = tx * 2 + dx;
                            if ox >= out_w {
                                continue;
                            }
                            out[((img * out_c + o) * out_h + oy) * out_w + ox] = y[dy * 2 + dx] + b;
                        }
                    }
                }
            }
        }
    }
    obs::with_current(|o| {
        o.metrics()
            .add(Metric::WinogradTiles, (n * tiles_y * tiles_x) as u64);
    });
    Ok(())
}

/// Allocating wrapper over [`winograd_conv2d_into`] for tensor
/// arguments: F(2×2, 3×3) convolution of a `[n, c, h, w]` input with
/// `[out_c, c, 3, 3]` filters at stride 1.
///
/// # Errors
///
/// Returns [`KernelError`] if the filter tensor is not
/// `[out_c, in_c, 3, 3]`, channels disagree, `bias` (when given) has
/// the wrong length, or the padded input is smaller than the window.
pub fn winograd_conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    padding: usize,
) -> Result<Tensor, KernelError> {
    let WinogradGeometry {
        n,
        in_c,
        h,
        w,
        out_c,
        out_h,
        out_w,
    } = validate_winograd("Winograd F(2x2,3x3)", input, weights, bias, padding)?;
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    let mut scratch = vec![0.0f32; winograd_scratch_elems(in_c, out_c)];
    winograd_conv2d_into(
        input.data(),
        n,
        in_c,
        h,
        w,
        weights.data(),
        out_c,
        bias,
        padding,
        out.data_mut(),
        &mut scratch,
    )?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// F(4×4, 3×3): 6×6 tiles, 36 multiplies per 16 outputs.
//
// Transform matrices from Lavin & Gray, "Fast Algorithms for
// Convolutional Neural Networks", with interpolation points
// {0, ±1, ±2}. The larger point set is what makes the transforms
// worse-conditioned than F(2×2)'s {0, ±1}: |Bᵀ| entries reach 5 and
// |Aᵀ| entries reach 8, so rounding error in the transform domain is
// amplified by a bounded constant (measured ≲ 30× of F(2×2)'s, see the
// tolerance proptests).
// ---------------------------------------------------------------------------

/// Filter transform `G` (6×3) for F(4×4, 3×3).
const G4: [[f32; 3]; 6] = [
    [0.25, 0.0, 0.0],
    [-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
    [-1.0 / 6.0, 1.0 / 6.0, -1.0 / 6.0],
    [1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0],
    [1.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0],
    [0.0, 0.0, 1.0],
];

/// Input transform `Bᵀ` (6×6) for F(4×4, 3×3).
const BT4: [[f32; 6]; 6] = [
    [4.0, 0.0, -5.0, 0.0, 1.0, 0.0],
    [0.0, -4.0, -4.0, 1.0, 1.0, 0.0],
    [0.0, 4.0, -4.0, -1.0, 1.0, 0.0],
    [0.0, -2.0, -1.0, 2.0, 1.0, 0.0],
    [0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
    [0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
];

/// Output transform `Aᵀ` (4×6) for F(4×4, 3×3).
const AT4: [[f32; 6]; 4] = [
    [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
    [0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
    [0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
    [0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
];

/// Transforms one 3×3 filter into its 6×6 F(4×4) domain image
/// `U = G g Gᵀ`.
fn transform_filter4(g: &[f32]) -> [f32; 36] {
    debug_assert_eq!(g.len(), 9);
    let mut tmp = [0.0f32; 18]; // G·g → 6x3
    for r in 0..6 {
        for c in 0..3 {
            tmp[r * 3 + c] = G4[r][0] * g[c] + G4[r][1] * g[3 + c] + G4[r][2] * g[6 + c];
        }
    }
    let mut u = [0.0f32; 36]; // (G·g)·Gᵀ → 6x6
    for r in 0..6 {
        for c in 0..6 {
            u[r * 6 + c] =
                tmp[r * 3] * G4[c][0] + tmp[r * 3 + 1] * G4[c][1] + tmp[r * 3 + 2] * G4[c][2];
        }
    }
    u
}

/// Transforms one 6×6 input tile: `V = Bᵀ d B`.
fn transform_input4(d: &[f32; 36]) -> [f32; 36] {
    let mut tmp = [0.0f32; 36]; // Bᵀ·d
    for r in 0..6 {
        for c in 0..6 {
            let mut acc = 0.0f32;
            for k in 0..6 {
                acc += BT4[r][k] * d[k * 6 + c];
            }
            tmp[r * 6 + c] = acc;
        }
    }
    let mut v = [0.0f32; 36]; // (Bᵀ·d)·B, B = (Bᵀ)ᵀ
    for r in 0..6 {
        for c in 0..6 {
            let mut acc = 0.0f32;
            for k in 0..6 {
                acc += tmp[r * 6 + k] * BT4[c][k];
            }
            v[r * 6 + c] = acc;
        }
    }
    v
}

/// Inverse transform of one 6×6 accumulator to a 4×4 output tile:
/// `Y = Aᵀ m A`.
fn transform_output4(m: &[f32; 36]) -> [f32; 16] {
    let mut tmp = [0.0f32; 24]; // Aᵀ·m → 4x6
    for r in 0..4 {
        for c in 0..6 {
            let mut acc = 0.0f32;
            for k in 0..6 {
                acc += AT4[r][k] * m[k * 6 + c];
            }
            tmp[r * 6 + c] = acc;
        }
    }
    let mut y = [0.0f32; 16]; // (Aᵀ·m)·A
    for r in 0..4 {
        for c in 0..4 {
            let mut acc = 0.0f32;
            for k in 0..6 {
                acc += tmp[r * 6 + k] * AT4[c][k];
            }
            y[r * 4 + c] = acc;
        }
    }
    y
}

/// Tiles processed per batch by [`winograd4_conv2d_into`]. The
/// multiply stage runs as 36 frequency-wise `out_c×in_c×T` products,
/// so the transformed filter bank is streamed once per batch instead
/// of once per tile — `T = 16` amortises that traffic 16× while the
/// per-frequency `V`/`M` panels stay L2-resident.
const WINOGRAD4_TILE_BLOCK: usize = 16;

/// Scratch floats [`winograd4_conv2d_into`] needs: the transformed
/// filter bank `[36, out_c, in_c]` (frequency-major) plus one
/// `[36, in_c, T]` batch of transformed input tiles and the matching
/// `[36, out_c, T]` product accumulator.
pub fn winograd4_scratch_elems(in_channels: usize, out_channels: usize) -> usize {
    36 * (out_channels * in_channels
        + in_channels * WINOGRAD4_TILE_BLOCK
        + out_channels * WINOGRAD4_TILE_BLOCK)
}

/// F(4×4, 3×3) Winograd convolution over raw NCHW slices, writing the
/// `[n, out_c, out_h, out_w]` result into `out` using caller-provided
/// scratch (at least [`winograd4_scratch_elems`] floats) — no hidden
/// allocation, so the memory planner can account the workspace.
///
/// Stride is fixed at 1; `out_h = h + 2·padding − 2`. Edge tiles read
/// zero padding and write only their valid region.
///
/// # Errors
///
/// Returns [`KernelError`] on mismatched buffer lengths, bias length,
/// an input smaller than the padded window, or undersized scratch.
#[allow(clippy::too_many_arguments)]
pub fn winograd4_conv2d_into(
    input: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    out_c: usize,
    bias: Option<&[f32]>,
    padding: usize,
    out: &mut [f32],
    scratch: &mut [f32],
) -> Result<(), KernelError> {
    let (out_h, out_w) = validate_into(
        input,
        (n, in_c, h, w),
        weights,
        out_c,
        bias,
        padding,
        out,
        scratch,
        winograd4_scratch_elems(in_c, out_c),
    )?;

    const T: usize = WINOGRAD4_TILE_BLOCK;
    let oc_ic = out_c * in_c;
    let (u, rest) = scratch.split_at_mut(36 * oc_ic);
    let (vs, ms) = rest.split_at_mut(36 * in_c * T);
    let ms = &mut ms[..36 * out_c * T];
    // Frequency-major filter bank: `u[k·oc·ic + o·ic + c]`, so each of
    // the 36 per-frequency products below reads one contiguous
    // `out_c×in_c` panel.
    for o in 0..out_c {
        for c in 0..in_c {
            let g = &weights[(o * in_c + c) * 9..(o * in_c + c) * 9 + 9];
            let f = transform_filter4(g);
            for (k, fv) in f.iter().enumerate() {
                u[k * oc_ic + o * in_c + c] = *fv;
            }
        }
    }

    let tiles_y = out_h.div_ceil(4);
    let tiles_x = out_w.div_ceil(4);
    let tiles = tiles_y * tiles_x;
    for img in 0..n {
        let mut batch_start = 0;
        while batch_start < tiles {
            let bt = T.min(tiles - batch_start);
            // Gather and transform a batch of 6×6 input tiles per
            // channel, scattering frequency-major: `vs[k·ic·T + c·T + t]`.
            for t in 0..bt {
                let tile = batch_start + t;
                let (ty, tx) = (tile / tiles_x, tile % tiles_x);
                for c in 0..in_c {
                    let mut d = [0.0f32; 36];
                    for dy in 0..6 {
                        let iy = (ty * 4 + dy) as isize - padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for dx in 0..6 {
                            let ix = (tx * 4 + dx) as isize - padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            d[dy * 6 + dx] =
                                input[((img * in_c + c) * h + iy as usize) * w + ix as usize];
                        }
                    }
                    let v = transform_input4(&d);
                    for (k, vv) in v.iter().enumerate() {
                        vs[(k * in_c + c) * T + t] = *vv;
                    }
                }
            }
            // 36 frequency-wise products M_k = U_k · V_k
            // (out_c×in_c times in_c×T): broadcast-u over the tile
            // lane, which vectorises, and stream the filter bank once
            // per batch instead of once per tile.
            for k in 0..36 {
                let uk = &u[k * oc_ic..(k + 1) * oc_ic];
                let vk = &vs[k * in_c * T..(k + 1) * in_c * T];
                let mk = &mut ms[k * out_c * T..(k + 1) * out_c * T];
                if bt == T {
                    // Full batches keep the T-wide accumulator in a
                    // fixed-size local so the lane loop has a
                    // compile-time trip count and stays in registers
                    // across the channel reduction.
                    for o in 0..out_c {
                        let mut acc = [0.0f32; T];
                        for c in 0..in_c {
                            let uv = uk[o * in_c + c];
                            let vrow: &[f32; T] =
                                vk[c * T..(c + 1) * T].try_into().expect("full lane");
                            for (a, vv) in acc.iter_mut().zip(vrow) {
                                *a += uv * *vv;
                            }
                        }
                        mk[o * T..(o + 1) * T].copy_from_slice(&acc);
                    }
                } else {
                    for o in 0..out_c {
                        let mrow = &mut mk[o * T..o * T + bt];
                        mrow.fill(0.0);
                        for c in 0..in_c {
                            let uv = uk[o * in_c + c];
                            let vrow = &vk[c * T..c * T + bt];
                            for (mv, vv) in mrow.iter_mut().zip(vrow) {
                                *mv += uv * *vv;
                            }
                        }
                    }
                }
            }
            // Inverse-transform every (tile, output-channel) pair and
            // write the clipped 4×4 block.
            for t in 0..bt {
                let tile = batch_start + t;
                let (ty, tx) = (tile / tiles_x, tile % tiles_x);
                for o in 0..out_c {
                    let mut m = [0.0f32; 36];
                    for (k, mv) in m.iter_mut().enumerate() {
                        *mv = ms[(k * out_c + o) * T + t];
                    }
                    let y = transform_output4(&m);
                    let b = bias.map_or(0.0, |b| b[o]);
                    for dy in 0..4 {
                        let oy = ty * 4 + dy;
                        if oy >= out_h {
                            continue;
                        }
                        for dx in 0..4 {
                            let ox = tx * 4 + dx;
                            if ox >= out_w {
                                continue;
                            }
                            out[((img * out_c + o) * out_h + oy) * out_w + ox] = y[dy * 4 + dx] + b;
                        }
                    }
                }
            }
            batch_start += bt;
        }
    }
    obs::with_current(|o| {
        o.metrics()
            .add(Metric::WinogradTiles, (n * tiles_y * tiles_x) as u64);
    });
    Ok(())
}

/// Allocating wrapper over [`winograd4_conv2d_into`] for tensor
/// arguments: F(4×4, 3×3) convolution of a `[n, c, h, w]` input with
/// `[out_c, c, 3, 3]` filters at stride 1.
///
/// # Errors
///
/// Returns [`KernelError`] under the same conditions as
/// [`winograd_conv2d`].
pub fn winograd4_conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    padding: usize,
) -> Result<Tensor, KernelError> {
    let WinogradGeometry {
        n,
        in_c,
        h,
        w,
        out_c,
        out_h,
        out_w,
    } = validate_winograd("Winograd F(4x4,3x3)", input, weights, bias, padding)?;
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    let mut scratch = vec![0.0f32; winograd4_scratch_elems(in_c, out_c)];
    winograd4_conv2d_into(
        input.data(),
        n,
        in_c,
        h,
        w,
        weights.data(),
        out_c,
        bias,
        padding,
        out.data_mut(),
        &mut scratch,
    )?;
    Ok(out)
}

/// Multiply counts for a 3×3/stride-1 convolution at the given extents:
/// `(direct, winograd)` — the algorithmic saving the paper's layer-3
/// choices trade against transform overhead.
pub fn multiply_counts(
    in_channels: usize,
    out_channels: usize,
    out_h: usize,
    out_w: usize,
) -> (u64, u64) {
    let tiles = (out_h.div_ceil(2) * out_w.div_ceil(2)) as u64;
    let pairs = (in_channels * out_channels) as u64;
    let direct = pairs * (out_h * out_w) as u64 * 9;
    let winograd = pairs * tiles * 16;
    (direct, winograd)
}

/// Multiply counts for F(4×4, 3×3) at the given extents:
/// `(direct, winograd4)`. When 4 divides both output extents the ratio
/// is exactly 4× (and 16/9 ≈ 1.78× better than F(2×2, 3×3) per
/// output).
pub fn multiply_counts4(
    in_channels: usize,
    out_channels: usize,
    out_h: usize,
    out_w: usize,
) -> (u64, u64) {
    let tiles = (out_h.div_ceil(4) * out_w.div_ceil(4)) as u64;
    let pairs = (in_channels * out_channels) as u64;
    let direct = pairs * (out_h * out_w) as u64 * 9;
    let winograd4 = pairs * tiles * 36;
    (direct, winograd4)
}

/// Reshapes a `[out_c, in_c*9]` matrix back to rank-4 filters (helper for
/// callers holding flattened weights).
///
/// # Errors
///
/// Returns [`KernelError::FilterMatrixWidth`] if the width is not a
/// multiple of 9.
pub fn filters_from_matrix(matrix: &Tensor) -> Result<Tensor, KernelError> {
    let (out_c, width) = matrix.shape().matrix();
    if width % 9 != 0 {
        return Err(KernelError::FilterMatrixWidth { width });
    }
    Ok(matrix.reshape(Shape::new([out_c, width / 9, 3, 3])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::im2col::{im2col, Conv2dGeometry};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    fn reference(input: &Tensor, weights: &Tensor, bias: Option<&[f32]>, padding: usize) -> Tensor {
        let (n, in_c, h, w) = input.shape().nchw();
        let out_c = weights.shape().dims()[0];
        let geom = Conv2dGeometry::new(in_c, h, w, 3, 3, 1, padding);
        let wmat = weights.reshape([out_c, in_c * 9]);
        let mut out = Tensor::zeros([n, out_c, geom.out_h, geom.out_w]);
        let plane = geom.out_positions();
        for img in 0..n {
            let cols = im2col(
                &input.data()[img * in_c * h * w..(img + 1) * in_c * h * w],
                &geom,
            );
            let prod = matmul(&wmat, &cols);
            let dst = &mut out.data_mut()[img * out_c * plane..(img + 1) * out_c * plane];
            dst.copy_from_slice(prod.data());
            if let Some(b) = bias {
                for o in 0..out_c {
                    for p in &mut dst[o * plane..(o + 1) * plane] {
                        *p += b[o];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn matches_direct_even_extents() {
        let input = random([2, 3, 8, 8], 1);
        let weights = random([4, 3, 3, 3], 2);
        let want = reference(&input, &weights, None, 1);
        let got = winograd_conv2d(&input, &weights, None, 1).unwrap();
        assert!(want.allclose(&got, 1e-3));
    }

    #[test]
    fn matches_direct_odd_extents_and_no_padding() {
        let input = random([1, 2, 9, 7], 3);
        let weights = random([3, 2, 3, 3], 4);
        let want = reference(&input, &weights, None, 0);
        let got = winograd_conv2d(&input, &weights, None, 0).unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        assert!(want.allclose(&got, 1e-3));
    }

    #[test]
    fn matches_direct_with_bias() {
        let input = random([1, 3, 6, 6], 5);
        let weights = random([2, 3, 3, 3], 6);
        let bias = vec![0.7f32, -0.3];
        let want = reference(&input, &weights, Some(&bias), 1);
        let got = winograd_conv2d(&input, &weights, Some(&bias), 1).unwrap();
        assert!(want.allclose(&got, 1e-3));
    }

    #[test]
    fn cifar_layer_shape_agrees() {
        // A real VGG layer shape: 32x32, 16->16 channels (scaled).
        let input = random([1, 16, 32, 32], 7);
        let weights = random([16, 16, 3, 3], 8);
        let want = reference(&input, &weights, None, 1);
        let got = winograd_conv2d(&input, &weights, None, 1).unwrap();
        assert!(want.allclose(&got, 5e-3));
    }

    #[test]
    fn multiply_savings_are_2_25x_for_even_tiles() {
        let (direct, wino) = multiply_counts(64, 64, 32, 32);
        let ratio = direct as f64 / wino as f64;
        assert!((ratio - 2.25).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn multiply_savings_are_4x_for_f4_on_aligned_tiles() {
        let (direct, wino4) = multiply_counts4(64, 64, 32, 32);
        let ratio = direct as f64 / wino4 as f64;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
        // 16/9 ≈ 1.78x fewer multiplies than F(2x2,3x3) on the same
        // extents: 36/16 = 2.25 muls per output vs F(2x2)'s 16/4 = 4.
        let (_, wino2) = multiply_counts(64, 64, 32, 32);
        let f4_over_f2 = wino2 as f64 / wino4 as f64;
        assert!((f4_over_f2 - 16.0 / 9.0).abs() < 1e-9, "ratio {f4_over_f2}");
    }

    #[test]
    fn identity_filter_reproduces_input() {
        // Filter = delta at centre: convolution is the identity.
        let input = random([1, 1, 6, 6], 9);
        let mut weights = Tensor::zeros([1, 1, 3, 3]);
        weights.data_mut()[4] = 1.0;
        let got = winograd_conv2d(&input, &weights, None, 1).unwrap();
        assert!(got.allclose(&input, 1e-4));
    }

    #[test]
    fn f4_identity_filter_reproduces_input() {
        let input = random([1, 1, 8, 8], 19);
        let mut weights = Tensor::zeros([1, 1, 3, 3]);
        weights.data_mut()[4] = 1.0;
        let got = winograd4_conv2d(&input, &weights, None, 1).unwrap();
        assert!(got.allclose(&input, 1e-4));
    }

    #[test]
    fn f4_matches_direct_even_extents() {
        let input = random([2, 3, 8, 8], 11);
        let weights = random([4, 3, 3, 3], 12);
        let bias = vec![0.4f32, -0.2, 0.1, 0.9];
        let want = reference(&input, &weights, Some(&bias), 1);
        let got = winograd4_conv2d(&input, &weights, Some(&bias), 1).unwrap();
        assert!(want.allclose(&got, 1e-3));
    }

    #[test]
    fn f4_matches_direct_unaligned_extents() {
        // 9x7 output: edge tiles write partial 4x4 quadrants.
        let input = random([1, 2, 11, 9], 13);
        let weights = random([3, 2, 3, 3], 14);
        let want = reference(&input, &weights, None, 0);
        let got = winograd4_conv2d(&input, &weights, None, 0).unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        assert!(want.allclose(&got, 1e-3));
    }

    #[test]
    fn non_3x3_rejected_with_typed_error() {
        let err = winograd_conv2d(
            &Tensor::zeros([1, 1, 8, 8]),
            &Tensor::zeros([1, 1, 5, 5]),
            None,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            KernelError::KernelShape {
                algo: "Winograd F(2x2,3x3)",
                expected: (3, 3),
                got: (5, 5),
            }
        );
        let err4 = winograd4_conv2d(
            &Tensor::zeros([1, 1, 8, 8]),
            &Tensor::zeros([1, 1, 5, 5]),
            None,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err4,
            KernelError::KernelShape {
                algo: "Winograd F(4x4,3x3)",
                expected: (3, 3),
                got: (5, 5),
            }
        );
    }

    #[test]
    fn channel_and_bias_mismatches_rejected() {
        let err = winograd_conv2d(
            &Tensor::zeros([1, 2, 8, 8]),
            &Tensor::zeros([4, 3, 3, 3]),
            None,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            KernelError::ChannelMismatch {
                weights: 3,
                input: 2
            }
        );
        let bias = [0.0f32; 3];
        let err = winograd_conv2d(
            &Tensor::zeros([1, 2, 8, 8]),
            &Tensor::zeros([4, 2, 3, 3]),
            Some(&bias),
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            KernelError::BiasLength {
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn zero_extent_output_rejected() {
        let err = winograd_conv2d(
            &Tensor::zeros([1, 1, 2, 2]),
            &Tensor::zeros([1, 1, 3, 3]),
            None,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, KernelError::InputTooSmall { .. }), "{err}");
    }

    #[test]
    fn f4_into_rejects_undersized_scratch() {
        let input = vec![0.0f32; 2 * 6 * 6];
        let weights = vec![0.0f32; 3 * 2 * 9];
        let mut out = vec![0.0f32; 3 * 6 * 6];
        let mut scratch = vec![0.0f32; 7];
        let err = winograd4_conv2d_into(
            &input,
            1,
            2,
            6,
            6,
            &weights,
            3,
            None,
            1,
            &mut out,
            &mut scratch,
        )
        .unwrap_err();
        assert_eq!(
            err,
            KernelError::ScratchTooSmall {
                needed: winograd4_scratch_elems(2, 3),
                got: 7
            }
        );
    }

    #[test]
    fn filters_from_matrix_roundtrip() {
        let m = random([4, 18], 10);
        let f = filters_from_matrix(&m).unwrap();
        assert_eq!(f.shape().dims(), &[4, 2, 3, 3]);
        assert_eq!(f.data(), m.data());
    }

    #[test]
    fn filters_from_matrix_rejects_bad_width() {
        let m = random([4, 10], 10);
        assert_eq!(
            filters_from_matrix(&m).unwrap_err(),
            KernelError::FilterMatrixWidth { width: 10 }
        );
    }
}
