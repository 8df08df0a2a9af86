//! Winograd fast convolution, F(2×2, 3×3) and F(4×4, 3×3), on the
//! packed GEMM engine.
//!
//! The paper's "Data Formats and Algorithms" layer names the Winograd
//! transform as one of the candidate data transformations (§II-B, item
//! 3) but does not evaluate it; this module completes the set. For a 3×3
//! stride-1 convolution, F(m×m, 3×3) computes each m×m output tile from
//! an α×α input tile (α = m + 2) with α² multiplies per channel pair
//! instead of direct convolution's 9m²: F(2×2) spends 16 for 36 (2.25×
//! fewer), F(4×4) 36 for 144 (4× fewer) at the cost of a worse
//! conditioned transform — its interpolation points {0, ±1, ±2} amplify
//! rounding error by a bounded constant, which is why the conformance
//! harness grants F(4×4) a looser error budget than F(2×2) (see
//! `tests/conv_conformance.rs`).
//!
//! # One path for both tile sizes
//!
//! [`WinogradTile`] names the tile; everything else is one body.
//!
//! * **Bank.** The filters are transformed once, `U = G g Gᵀ`, straight
//!   into α² A-packed `out_c × in_c` operands of the packed GEMM engine
//!   ([`pack_winograd_bank_into`]). A layer keeps the bank as a derived
//!   weight form: no call transforms a filter.
//! * **Input transform.** The batch's tiles — image by image, row-major
//!   within an image — are cut into chunks of at most one column chunk of
//!   the engine (`GemmPlan::nc`, 256 tiles), and a one-worker call walks
//!   a chunk in blocks whose V and products fit a quarter of the L2 (at
//!   least two panels; VGG-16's layers take 32 tiles), so they stay in
//!   cache from one stage to the next. For each block `V = Bᵀ d B` is written, for
//!   every frequency ξ, straight into the B-panel layout of an
//!   `in_c × tiles` operand: the 16 tiles of one `NR` panel are the 16
//!   lanes of one lane array, so a channel's row of a panel is one
//!   contiguous 64-byte store per frequency. A lane array is filled with
//!   one masked `V16::gather` per patch value: each panel's 16 lane
//!   offsets and its per-row and per-column lane masks are computed once
//!   (`Lanes`), and the masks zero the padding, the out-of-image part of
//!   edge tiles and the lanes past the chunk's end.
//! * **Multiply.** α² prepacked products `M_ξ = U_ξ · V_ξ` run on the
//!   engine's register tile, each into its own `out_c × tiles`
//!   accumulator. A threaded call runs one frequency per grain.
//! * **Output transform.** `Y = Aᵀ M A`, plus the bias, then the fused
//!   ReLU as `max(·, 0)`, written into the NCHW output where each tile
//!   lies inside it: each group of four tiles' rows by a 4×4 transpose
//!   and one run per tile row (cut at the right edge), F(2×2)'s two-float
//!   rows instead by one masked `V16::scatter` per output value where
//!   the target has a native scatter (AVX-512) — whichever measured
//!   faster.
//!
//! The transforms run in parallel over (panel × 8-channel block) grains
//! once a stage has enough of them to pay for its threads. Arithmetic
//! and moves are written once — the arithmetic as lane-array loops, the
//! moves over the crate's 16-lane vocabulary (`V16`) — and instantiated
//! for the baseline target, AVX2 and AVX-512 behind the GEMM engine's one
//! dispatch (the kernel [`gemm_kernel_name`](crate::gemm::gemm_kernel_name)
//! names, so `CNN_STACK_GEMM_FORCE_SCALAR` pins the portable twin here
//! too).
//!
//! # Exactness
//!
//! Every transformed value is a fixed sequence of separate multiplies
//! and adds (Rust never contracts them into an FMA), so the three
//! instantiations of each transform agree bit for bit (a NaN's sign
//! and payload aside: which operand of an add it comes from is the
//! compiler's pick), and the movers only move bits. A tile's
//! products form one GEMM column, which never depends on the other
//! columns of its chunk, so the output is also bit-identical for every
//! thread count, every block size and every way the batch is split; only the micro-kernel
//! itself — the portable one multiplies and adds where the SIMD ones
//! fuse — separates a forced-scalar run from a SIMD one.
//!
//! All entry points return [`KernelError`] on misuse instead of
//! panicking, matching the fallible-API convention of the `nn` crate.

use crate::error::KernelError;
use crate::gemm::{
    active_kernel, gemm_prepacked_on, GemmEpilogue, GemmPlan, MicroKernel, PackedA, MR, NR,
};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::v16::{run_on, store_rows, Run, V16};
use cnn_stack_obs::{self as obs, Metric};
use cnn_stack_parallel::{parallel_for, DisjointWriter, Schedule};
use std::marker::PhantomData;
use std::ops::Range;

/// Channels per grain of the input and output transforms: the grain
/// transforms them all, then moves them frequency by frequency, so each
/// frequency is one run of this many panel rows instead of a 64-byte
/// store (or load) per frequency at a 4 KiB-multiple stride.
const CHANNEL_BLOCK: usize = 8;

/// V and products one block of a chunk keeps between its stages: a
/// quarter of the 2 MiB L2 the engine's blocking is sized for (see
/// `GemmPlan`), beside the bank's operands and the GEMM's own blocks.
const BLOCK_BYTES: usize = 512 << 10;

/// The output tile of a Winograd convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WinogradTile {
    /// F(2×2, 3×3): 4×4 input tiles, interpolation points {0, ±1}.
    F2,
    /// F(4×4, 3×3): 6×6 input tiles, interpolation points {0, ±1, ±2}.
    F4,
}

impl WinogradTile {
    /// Output tile extent `m`.
    pub const fn m(self) -> usize {
        match self {
            WinogradTile::F2 => 2,
            WinogradTile::F4 => 4,
        }
    }

    /// Input tile extent `α = m + 2`.
    pub const fn alpha(self) -> usize {
        self.m() + 2
    }

    /// Transform-domain frequencies per tile, `α²`: the number of
    /// products the multiply stage runs.
    pub const fn frequencies(self) -> usize {
        self.alpha() * self.alpha()
    }

    fn algo(self) -> &'static str {
        match self {
            WinogradTile::F2 => "Winograd F(2x2,3x3)",
            WinogradTile::F4 => "Winograd F(4x4,3x3)",
        }
    }
}

/// The geometry of one Winograd convolution: tile, batch, input extents,
/// channel counts and padding. The kernel is 3×3 and the stride 1, so
/// `out_h = h + 2·padding − 2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WinogradGeometry {
    tile: WinogradTile,
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    padding: usize,
}

impl WinogradGeometry {
    /// Validates and describes a convolution of `n` `[in_c, h, w]`
    /// images into `out_c` channels.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InputTooSmall`] when the padded input is
    /// smaller than the 3×3 window.
    pub fn new(
        tile: WinogradTile,
        (n, in_c, h, w): (usize, usize, usize, usize),
        out_c: usize,
        padding: usize,
    ) -> Result<Self, KernelError> {
        if h + 2 * padding < 3 || w + 2 * padding < 3 {
            return Err(KernelError::InputTooSmall {
                padded_h: h + 2 * padding,
                padded_w: w + 2 * padding,
                k_h: 3,
                k_w: 3,
            });
        }
        Ok(WinogradGeometry {
            tile,
            n,
            in_c,
            h,
            w,
            out_c,
            padding,
        })
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.h + 2 * self.padding - 2
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.w + 2 * self.padding - 2
    }

    fn tiles_x(&self) -> usize {
        self.out_w().div_ceil(self.tile.m())
    }

    fn image_tiles(&self) -> usize {
        self.out_h().div_ceil(self.tile.m()) * self.tiles_x()
    }

    /// Tiles of the whole batch; edge tiles that overhang the output
    /// count whole.
    pub fn tiles(&self) -> usize {
        self.n * self.image_tiles()
    }

    /// Tiles per chunk of the multiply stage: one column chunk of the
    /// packed engine's loop nest, so each bank operand streams from
    /// memory once per chunk.
    pub fn chunk_tiles(&self) -> usize {
        let tiles = self.tiles();
        GemmPlan::new(self.out_c, self.in_c, tiles).nc.min(tiles)
    }

    /// Workspace floats [`winograd_conv2d_into`] needs: for every
    /// frequency, one chunk's transformed inputs as B panels
    /// (`in_c × chunk`, columns padded to whole panels) and its
    /// `out_c × chunk` product.
    pub fn scratch_elems(&self) -> usize {
        let chunk = self.chunk_tiles();
        self.tile.frequencies() * (self.in_c * chunk.next_multiple_of(NR) + self.out_c * chunk)
    }

    /// Tiles per block of the chunk walk on `threads` workers. On one,
    /// as many whole panels as keep a block's V and products within
    /// [`BLOCK_BYTES`], so they stay in L2 from one stage to the next
    /// instead of making a round trip to memory, but at least the 32
    /// columns (two panels) of the engine's widest register tile, below
    /// which the products lose more than the cache saves; at most one
    /// chunk. Each block re-reads the bank, from L2 or beyond. Several
    /// workers take whole chunks: a block's stages are too small to
    /// split (VGG-16's batch-8 conv1_2 ran 10–15 % slower on two in
    /// 32-tile blocks than in whole chunks).
    fn block_tiles(&self, threads: usize) -> usize {
        let chunk = self.chunk_tiles();
        if threads > 1 {
            return chunk;
        }
        let per_panel = 4 * NR * self.tile.frequencies() * (self.in_c + self.out_c);
        ((BLOCK_BYTES / per_panel).max(2) * NR).min(chunk)
    }
}

/// Floats of a transformed filter bank: one A-packed `out_c × in_c`
/// operand (rows padded to whole `MR` panels) per frequency.
pub fn winograd_bank_elems(tile: WinogradTile, in_c: usize, out_c: usize) -> usize {
    tile.frequencies() * GemmPlan::new(out_c, in_c, 1).packed_a_elems()
}

// ---------------------------------------------------------------------
// Transforms as lane-array bodies
// ---------------------------------------------------------------------

/// F(4×4)'s α²: tiles are sized for the larger transform.
const MAX_FREQS: usize = 36;

/// One transform's values for `N` lanes — `N` tiles of a B panel
/// (`N = NR`) or the `N` filters of an A panel (`N = MR`) — lanes
/// innermost: `tile[i][l]`, `i` indexing the tile row-major.
type Tile<const N: usize> = [[f32; N]; MAX_FREQS];

/// The three 1-D transforms of one tile size, on one lane. Vectors are
/// sized for F(4×4); F(2×2) reads and writes the leading entries.
trait Transform {
    const TILE: WinogradTile;
    /// `Bᵀ·x` for one α-vector.
    fn input(x: [f32; 6]) -> [f32; 6];
    /// `G·x` for one 3-vector.
    fn filter(x: [f32; 6]) -> [f32; 6];
    /// `Aᵀ·x` for one α-vector: `m` values.
    fn output(x: [f32; 6]) -> [f32; 6];
}

/// F(2×2, 3×3) (Lavin & Gray, "Fast Algorithms for Convolutional
/// Neural Networks"): `Bᵀ` rows `[1,0,−1,0] [0,1,1,0] [0,−1,1,0]
/// [0,1,0,−1]`, `G` rows `[1,0,0] [½,½,½] [½,−½,½] [0,0,1]`, `Aᵀ` rows
/// `[1,1,1,0] [0,1,−1,−1]`.
struct F2;

impl Transform for F2 {
    const TILE: WinogradTile = WinogradTile::F2;

    #[inline(always)]
    fn input(d: [f32; 6]) -> [f32; 6] {
        [d[0] - d[2], d[1] + d[2], d[2] - d[1], d[1] - d[3], 0.0, 0.0]
    }

    #[inline(always)]
    fn filter(g: [f32; 6]) -> [f32; 6] {
        let s = g[0] + g[2];
        [g[0], (s + g[1]) * 0.5, (s - g[1]) * 0.5, g[2], 0.0, 0.0]
    }

    #[inline(always)]
    fn output(m: [f32; 6]) -> [f32; 6] {
        [m[0] + m[1] + m[2], m[1] - m[2] - m[3], 0.0, 0.0, 0.0, 0.0]
    }
}

/// F(4×4, 3×3), interpolation points {0, ±1, ±2}: `Bᵀ` rows
/// `[4,0,−5,0,1,0] [0,−4,−4,1,1,0] [0,4,−4,−1,1,0] [0,−2,−1,2,1,0]
/// [0,2,−1,−2,1,0] [0,4,0,−5,0,1]`, `G` rows `[¼,0,0] [−⅙,−⅙,−⅙]
/// [−⅙,⅙,−⅙] [1/24,1/12,⅙] [1/24,−1/12,⅙] [0,0,1]`, `Aᵀ` rows
/// `[1,1,1,1,1,0] [0,1,−1,2,−2,0] [0,1,1,4,4,0] [0,1,−1,8,−8,1]` — each
/// evaluated through its shared sums. |Bᵀ| reaches 5 and |Aᵀ| 8, so
/// rounding in the transform domain is amplified by a bounded constant
/// (measured ≲ 30× of F(2×2)'s).
struct F4;

impl Transform for F4 {
    const TILE: WinogradTile = WinogradTile::F4;

    #[inline(always)]
    fn input(d: [f32; 6]) -> [f32; 6] {
        let a = d[4] - d[2] * 4.0;
        let b = d[3] - d[1] * 4.0;
        let c = d[4] - d[2];
        let e = (d[3] - d[1]) * 2.0;
        [
            (d[0] - d[2]) * 4.0 + c,
            a + b,
            a - b,
            c + e,
            c - e,
            (d[1] - d[3]) * 4.0 + (d[5] - d[3]),
        ]
    }

    #[inline(always)]
    fn filter(g: [f32; 6]) -> [f32; 6] {
        let s = g[0] + g[2];
        let q = g[0] + g[2] * 4.0;
        let t = g[1] * 2.0;
        [
            g[0] * 0.25,
            (s + g[1]) * (-1.0 / 6.0),
            (s - g[1]) * (-1.0 / 6.0),
            (q + t) * (1.0 / 24.0),
            (q - t) * (1.0 / 24.0),
            g[2],
        ]
    }

    #[inline(always)]
    fn output(m: [f32; 6]) -> [f32; 6] {
        let p = m[1] + m[2];
        let q = m[1] - m[2];
        let r = m[3] + m[4];
        let s = m[3] - m[4];
        [
            m[0] + p + r,
            q + s * 2.0,
            p + r * 4.0,
            q + s * 8.0 + m[5],
            0.0,
            0.0,
        ]
    }
}

/// Which transform a 2-D pass applies.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// `Bᵀ d B`: α×α to α×α.
    Input,
    /// `G g Gᵀ`: 3×3 to α×α.
    Filter,
    /// `Aᵀ m A + bias`, clamped at zero under `relu`: α×α to m×m.
    Output { bias: f32, relu: bool },
}

/// The 2-D transform `pass` of every lane of `t`, in place: the tile
/// (`k×k` row-major, `k` the pass's input extent) becomes its `o×o`
/// image. The lane loop is outermost and its body scalar, so each
/// instantiation vectorises it across the lanes with the same
/// operations in the same order.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` picks one lane of every row of `t`
fn transform_2d<T: Transform, const N: usize>(t: &mut Tile<N>, pass: Pass) {
    let (a, m) = (T::TILE.alpha(), T::TILE.m());
    let (k, o) = match pass {
        Pass::Input => (a, a),
        Pass::Filter => (3, a),
        Pass::Output { .. } => (a, m),
    };
    let f = |x: [f32; 6]| match pass {
        Pass::Input => T::input(x),
        Pass::Filter => T::filter(x),
        Pass::Output { .. } => T::output(x),
    };
    // The output epilogue runs in this loop too: written as its own
    // pass over the tile, the vectoriser strides it across the rows.
    let epilogue = |v: f32| match pass {
        Pass::Output { bias, relu } => {
            let v = v + bias;
            // A select, not a branch, so the loop stays vectorised.
            let clamped = v.max(0.0);
            if relu {
                clamped
            } else {
                v
            }
        }
        _ => v,
    };
    for l in 0..N {
        // Down the columns, then along the rows of the result.
        let mut cols = [[0.0f32; 6]; 6];
        for (c, col) in cols.iter_mut().enumerate().take(k) {
            *col = f(std::array::from_fn(|r| {
                if r < k {
                    t[r * k + c][l]
                } else {
                    0.0
                }
            }));
        }
        for r in 0..o {
            let y = f(std::array::from_fn(
                |c| if c < k { cols[c][r] } else { 0.0 },
            ));
            for (s, &v) in y.iter().enumerate().take(o) {
                t[r * o + s][l] = epilogue(v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bank
// ---------------------------------------------------------------------

/// Transforms `[out_c, in_c, 3, 3]` filters into the bank
/// ([`winograd_bank_elems`] floats): frequency ξ is the A-packed
/// `out_c × in_c` matrix `U_ξ`, `bank[ξ·A + ip·MR·in_c + c·MR + r]` for
/// filter `(ip·MR + r, c)`, `A` being one operand's packed size. The six
/// filters of an A panel are the lanes of one transform, so each
/// frequency is written as one sequential stream; rows past `out_c` are
/// zero. Writes every element of the bank.
///
/// # Panics
///
/// Panics if `weights` or `bank` does not have the stated length.
pub fn pack_winograd_bank_into(
    tile: WinogradTile,
    weights: &[f32],
    out_c: usize,
    in_c: usize,
    bank: &mut [f32],
) {
    match tile {
        WinogradTile::F2 => pack_bank::<F2>(weights, out_c, in_c, bank),
        WinogradTile::F4 => pack_bank::<F4>(weights, out_c, in_c, bank),
    }
}

fn pack_bank<T: Transform>(weights: &[f32], out_c: usize, in_c: usize, bank: &mut [f32]) {
    assert_eq!(weights.len(), out_c * in_c * 9, "weights length mismatch");
    assert_eq!(
        bank.len(),
        winograd_bank_elems(T::TILE, in_c, out_c),
        "bank length mismatch"
    );
    let operand = bank.len() / T::TILE.frequencies();
    for ip in 0..out_c.div_ceil(MR) {
        let rows = MR.min(out_c - ip * MR);
        for c in 0..in_c {
            let mut u: Tile<MR> = [[0.0; MR]; MAX_FREQS];
            for r in 0..rows {
                let filter = &weights[((ip * MR + r) * in_c + c) * 9..][..9];
                for (tap, &v) in u.iter_mut().zip(filter) {
                    tap[r] = v;
                }
            }
            transform_2d::<T, MR>(&mut u, Pass::Filter);
            for (xi, lanes) in u.iter().take(T::TILE.frequencies()).enumerate() {
                let at = xi * operand + (ip * in_c + c) * MR;
                bank[at..at + MR].copy_from_slice(lanes);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------

/// Where one tile sits: its image and the output position of its
/// top-left corner (the input tile starts `padding` above and left).
#[derive(Clone, Copy)]
struct Origin {
    img: usize,
    oy: usize,
    ox: usize,
}

/// Everything a grain reads; shared by reference across the pool.
struct Job<'a> {
    geom: WinogradGeometry,
    input: &'a [f32],
    bias: Option<&'a [f32]>,
    epilogue: GemmEpilogue,
}

/// Tiles `[t0, t0 + tiles)` of the batch: one multiply-stage chunk.
#[derive(Clone, Copy)]
struct Chunk {
    t0: usize,
    tiles: usize,
}

impl Chunk {
    fn panels(&self) -> usize {
        self.tiles.div_ceil(NR)
    }

    /// Floats of one frequency's B panels: `in_c` rows of whole panels.
    fn v_stride(&self, in_c: usize) -> usize {
        in_c * self.panels() * NR
    }
}

impl Job<'_> {
    /// The tiles of panel `jp` of `chunk`, one per lane; `None` past the
    /// chunk's last tile.
    fn origins(&self, chunk: Chunk, jp: usize) -> [Option<Origin>; NR] {
        let (m, tiles_x, per_image) = (
            self.geom.tile.m(),
            self.geom.tiles_x(),
            self.geom.image_tiles(),
        );
        std::array::from_fn(|l| {
            let local = jp * NR + l;
            (local < chunk.tiles).then(|| {
                let t = chunk.t0 + local;
                let (img, at) = (t / per_image, t % per_image);
                Origin {
                    img,
                    oy: at / tiles_x * m,
                    ox: at % tiles_x * m,
                }
            })
        })
    }
}

/// One transform stage of a chunk, and the buffers it writes.
#[derive(Clone, Copy)]
enum Stage<'a> {
    /// Input transform: writes every frequency's B panels.
    Input { v: &'a DisjointWriter },
    /// Output transform: reads the products, writes the output.
    Output {
        products: &'a [f32],
        out: &'a DisjointWriter,
    },
}

/// Input transform of grains `grains` of the (panel × channel block)
/// grid: loads each channel's α×α patch of the panel's 16 tiles into
/// one lane array and transforms it, then stores the block frequency by
/// frequency: channel `c`'s 16 values of frequency ξ are row `c` of
/// B panel `jp` of `V_ξ`.
#[inline(always)]
fn input_grains<T: Transform, V: V16>(
    job: &Job,
    chunk: Chunk,
    v: &DisjointWriter,
    grains: Range<usize>,
) {
    let g = &job.geom;
    let blocks = g.in_c.div_ceil(CHANNEL_BLOCK);
    let stride = chunk.v_stride(g.in_c);
    let mut block = [[[0.0f32; NR]; MAX_FREQS]; CHANNEL_BLOCK];
    for grain in grains {
        let (jp, cb) = (grain / blocks, grain % blocks);
        let c0 = cb * CHANNEL_BLOCK;
        let channels = CHANNEL_BLOCK.min(g.in_c - c0);
        let lanes = job.patch_lanes(chunk, jp);
        for (c, d) in (c0..).zip(&mut block[..channels]) {
            load::<T, V>(job, &lanes, c, d);
            transform_2d::<T, NR>(d, Pass::Input);
        }
        for xi in 0..g.tile.frequencies() {
            let at = xi * stride + (jp * g.in_c + c0) * NR;
            // SAFETY: grain (jp, cb) alone writes rows `cb`'s channels
            // of panel `jp`, in every frequency; those ranges are
            // disjoint across grains and inside the V region.
            let dst = unsafe { v.slice_mut(at, at + channels * NR) };
            for (row, d) in dst.chunks_exact_mut(NR).zip(&block) {
                row.copy_from_slice(&d[xi]);
            }
        }
    }
}

/// Output transform of grains `grains` of the (panel × output-channel
/// block) grid: loads the block's α² product rows of the panel's 16
/// tiles frequency by frequency, transforms each channel's lane array,
/// adds the bias, applies the epilogue and stores each tile's in-bounds
/// m×m block.
#[inline(always)]
fn output_grains<T: Transform, V: V16>(
    job: &Job,
    chunk: Chunk,
    products: &[f32],
    out: &DisjointWriter,
    grains: Range<usize>,
) {
    let g = &job.geom;
    let out_c = g.out_c;
    let relu = job.epilogue == GemmEpilogue::Relu;
    let blocks = out_c.div_ceil(CHANNEL_BLOCK);
    let mut block = [[[0.0f32; NR]; MAX_FREQS]; CHANNEL_BLOCK];
    for grain in grains {
        let (jp, ob) = (grain / blocks, grain % blocks);
        let o0 = ob * CHANNEL_BLOCK;
        let channels = CHANNEL_BLOCK.min(out_c - o0);
        let live = NR.min(chunk.tiles - jp * NR);
        let lanes = job.tile_lanes(chunk, jp);
        for xi in 0..g.tile.frequencies() {
            for (k, d) in block[..channels].iter_mut().enumerate() {
                let at = (xi * out_c + o0 + k) * chunk.tiles + jp * NR;
                match products[at..].first_chunk::<NR>() {
                    Some(full) if live == NR => d[xi] = *full,
                    _ => d[xi][..live].copy_from_slice(&products[at..at + live]),
                }
            }
        }
        for (o, d) in (o0..).zip(&mut block[..channels]) {
            let bias = job.bias.map_or(0.0, |b| b[o]);
            transform_2d::<T, NR>(d, Pass::Output { bias, relu });
            store::<T, V>(job, &lanes, o, d, out);
        }
    }
}

/// A panel's 16 tiles as the movers address them: one signed offset per
/// lane and one lane mask per tile row and per tile column. Lane `l`
/// moves value (r, s) of its tile at `at[l] + r·w + s` from the start of
/// the channel's plane in image 0 (`w` the plane's width), so all 16
/// lanes of one value are one gather or scatter; its enabled lanes are
/// `rows[r] & cols[s]`.
#[derive(Clone, Copy)]
struct Lanes {
    /// Per lane: the tile's top-left relative to channel 0 of image 0,
    /// negative where the tile starts in the padding.
    at: [i32; NR],
    /// Per lane: where channel 0 of its image starts (debug checks).
    image: [usize; NR],
    /// Per tile row: the live lanes whose row lies inside the plane.
    rows: [u16; 6],
    /// Per tile column: the live lanes whose column lies inside.
    cols: [u16; 6],
    /// Per lane: how many of its tile's columns lie inside (0 if dead).
    width: [usize; NR],
}

impl Lanes {
    /// Panel `jp`'s tiles as `extent`² windows shifted `shift` up and
    /// left of their output origins, over `channels` planes of `h × w`.
    #[inline(always)]
    fn new(
        job: &Job,
        chunk: Chunk,
        jp: usize,
        (extent, shift): (usize, usize),
        (channels, h, w): (usize, usize, usize),
    ) -> Lanes {
        let mut lanes = Lanes {
            at: [0; NR],
            image: [0; NR],
            rows: [0; 6],
            cols: [0; 6],
            width: [0; NR],
        };
        for (l, origin) in job.origins(chunk, jp).into_iter().enumerate() {
            let Some(o) = origin else { continue };
            let image = o.img * channels * h * w;
            // Input patches start `shift` above and left of the output
            // tile; a job's tensors fit an i32 (`Lanes::fit`, else the
            // batch runs image by image), so the offset does too.
            let top = (o.oy * w + o.ox) as isize - (shift * w + shift) as isize;
            lanes.at[l] = (image as isize + top) as i32;
            lanes.image[l] = image;
            for r in 0..extent {
                if (o.oy + r).wrapping_sub(shift) < h {
                    lanes.rows[r] |= 1 << l;
                }
                if (o.ox + r).wrapping_sub(shift) < w {
                    lanes.cols[r] |= 1 << l;
                    lanes.width[l] += 1;
                }
            }
        }
        lanes
    }

    /// Whether the movers can address a geometry: every offset of its
    /// input and output tensors fits the gathers' i32 lanes.
    fn fit(g: &WinogradGeometry) -> bool {
        let largest = g.n * g.in_c.max(g.out_c) * (g.h * g.w).max(g.out_h() * g.out_w());
        i32::try_from(largest).is_ok()
    }

    /// Whether every lane `l` of `mask` stays inside its image's channel-0
    /// plane of `plane` floats when it moves value `at[l] + step`.
    fn inside(&self, plane: usize, step: usize, mask: u16) -> bool {
        (0..NR).filter(|l| mask >> l & 1 != 0).all(|l| {
            let i = self.at[l] as isize + step as isize;
            (self.image[l] as isize..(self.image[l] + plane) as isize).contains(&i)
        })
    }
}

impl Job<'_> {
    fn patch_lanes(&self, chunk: Chunk, jp: usize) -> Lanes {
        let g = &self.geom;
        let window = (g.tile.alpha(), g.padding);
        Lanes::new(self, chunk, jp, window, (g.in_c, g.h, g.w))
    }

    fn tile_lanes(&self, chunk: Chunk, jp: usize) -> Lanes {
        let g = &self.geom;
        let window = (g.tile.m(), 0);
        Lanes::new(self, chunk, jp, window, (g.out_c, g.out_h(), g.out_w()))
    }
}

/// Fills the α² lane arrays of `d` with input channel `c`'s patches of
/// the panel `lanes` describes, one masked gather per patch value: zero
/// where a patch reaches into the padding and in lanes past the chunk's
/// last tile.
#[inline(always)]
fn load<T: Transform, V: V16>(job: &Job, lanes: &Lanes, c: usize, d: &mut Tile<NR>) {
    let (a, w) = (T::TILE.alpha(), job.geom.w);
    let plane = job.geom.h * w;
    for dy in 0..a {
        for dx in 0..a {
            let step = dy * w + dx;
            let mask = lanes.rows[dy] & lanes.cols[dx];
            debug_assert!(
                lanes.inside(plane, step, mask),
                "a gathered lane leaves its plane"
            );
            // SAFETY: the lanes of `mask` are live tiles whose value
            // (dy, dx) lies inside the image (`Lanes::new`), so each reads
            // inside channel `c`'s plane of its image in `input`.
            let x = unsafe { V::gather(job.input, (c * plane + step) as isize, &lanes.at, mask) };
            x.store(&mut d[dy * a + dx]);
        }
    }
}

/// Writes output channel `o`'s m×m tiles, row-major in the first m² lane
/// arrays of `d`, where they lie inside the output. F(4×4)'s four-float
/// tile rows leave as rows: each group of four lanes is transposed, and
/// each lane's row is one run of as many floats as lie inside. F(2×2)'s
/// two-float rows are scattered one value at a time where the target
/// has a native scatter, which measured faster there.
#[inline(always)]
fn store<T: Transform, V: V16>(
    job: &Job,
    lanes: &Lanes,
    o: usize,
    d: &Tile<NR>,
    out: &DisjointWriter,
) {
    let (m, out_w) = (T::TILE.m(), job.geom.out_w());
    let plane = job.geom.out_h() * out_w;
    if V::SCATTER && m == 2 {
        for i in 0..m {
            for j in 0..m {
                let step = i * out_w + j;
                let mask = lanes.rows[i] & lanes.cols[j];
                debug_assert!(
                    lanes.inside(plane, step, mask),
                    "a scattered lane leaves its plane"
                );
                // SAFETY: a lane array holds the 16 floats the load reads.
                // The lanes of `mask` are live tiles whose value (i, j)
                // lies inside the output (`Lanes::new`), so each writes
                // inside channel `o`'s plane of its image in `out`.
                // Tiles do not overlap, and grain (jp, ob) alone writes the
                // tiles of panel `jp` in block `ob`'s channel planes.
                unsafe {
                    let x = V::load(&d[i * m + j], 0);
                    x.scatter(out, (o * plane + step) as isize, &lanes.at, mask)
                };
            }
        }
        return;
    }
    for i in 0..m {
        let at = o * plane + i * out_w;
        debug_assert!(
            (0..NR).filter(|l| lanes.rows[i] >> l & 1 != 0).all(|l| {
                let last = i * out_w + lanes.width[l] - 1;
                lanes.inside(plane, i * out_w, 1 << l) && lanes.inside(plane, last, 1 << l)
            }),
            "a stored row leaves its plane"
        );
        // SAFETY: as above: each lane of `rows[i]` writes its tile row's
        // `width[l]` values inside the output, one run inside channel
        // `o`'s plane of its image.
        unsafe {
            store_rows(
                &d[i * m..][..m],
                out,
                at,
                &lanes.at,
                &lanes.width,
                lanes.rows[i],
            )
        };
    }
}

/// One transform stage of a chunk over grains `grains` of its (panel ×
/// channel block) grid.
struct StageGrains<'a, T> {
    job: &'a Job<'a>,
    chunk: Chunk,
    stage: Stage<'a>,
    grains: Range<usize>,
    transform: PhantomData<T>,
}

impl<T: Transform> Run for StageGrains<'_, T> {
    type Output = ();

    #[inline(always)]
    fn run<V: V16>(&mut self) {
        let StageGrains { job, chunk, .. } = *self;
        let grains = self.grains.clone();
        match self.stage {
            Stage::Input { v } => input_grains::<T, V>(job, chunk, v, grains),
            Stage::Output { products, out } => {
                output_grains::<T, V>(job, chunk, products, out, grains)
            }
        }
    }
}

/// Transform-domain values (panel rows × α², one row being one channel
/// of one 16-tile panel) each worker must get before a transform stage
/// is worth a parallel region; below it the thread start-up costs more
/// than the split saves. On a 2-vCPU Sapphire Rapids Xeon, over VGG-16's
/// nine Winograd layers at batch 1 and 8 (whole convolutions, two
/// workers, every stage split or none), the smallest stage that ran
/// faster split was 18 432 values (conv3_x at batch 8: 0.615 against
/// 0.692 ms for conv3_2), and 16 384 (conv4_x at batch 8) was not
/// (conv4_1: 0.535 against 0.494 ms); no batch-1 stage reaches 18 432.
const VALUES_PER_WORKER: usize = 9216;

/// Runs one transform stage of `chunk` over its (panel × channel block)
/// grid on `kernel`'s instantiation.
#[allow(clippy::too_many_arguments)]
fn run_stage<T: Transform>(
    kernel: MicroKernel,
    job: &Job,
    chunk: Chunk,
    stage: Stage,
    channels: usize,
    threads: usize,
    schedule: Schedule,
) {
    let grains = chunk.panels() * channels.div_ceil(CHANNEL_BLOCK);
    let values = chunk.panels() * channels * job.geom.tile.frequencies();
    let threads = threads.min(values / VALUES_PER_WORKER).max(1);
    parallel_for(threads, grains, schedule, |grains| {
        let transform = PhantomData::<T>;
        run_on(
            kernel,
            &mut StageGrains {
                job,
                chunk,
                stage,
                grains,
                transform,
            },
        )
    });
}

/// F(m×m, 3×3) Winograd convolution over raw NCHW slices: `out =
/// epilogue(bias + input ⋆ filters)`, the filters given as their
/// transformed `bank` (see [`pack_winograd_bank_into`]), with caller
/// workspace of at least [`WinogradGeometry::scratch_elems`] floats — no
/// hidden allocation, so the memory planner accounts for it. Runs on
/// `threads` workers; see the [module docs](self) for the stages.
///
/// # Errors
///
/// Returns [`KernelError`] on a mismatched input, bank, bias or output
/// length, or undersized scratch.
#[allow(clippy::too_many_arguments)] // low-level kernel: the argument list *is* the layer
pub fn winograd_conv2d_into(
    geom: &WinogradGeometry,
    input: &[f32],
    bank: &[f32],
    bias: Option<&[f32]>,
    epilogue: GemmEpilogue,
    out: &mut [f32],
    scratch: &mut [f32],
    threads: usize,
    schedule: Schedule,
) -> Result<(), KernelError> {
    winograd_conv2d_on(
        active_kernel(),
        geom,
        input,
        bank,
        bias,
        epilogue,
        out,
        scratch,
        threads,
        schedule,
    )
}

/// Bench hook, not API: [`winograd_conv2d_into`] on the micro-kernel and
/// transform instantiation called `kernel` (one of
/// [`gemm_kernel_names`](crate::gemm::gemm_kernel_names)).
///
/// # Errors
///
/// As [`winograd_conv2d_into`].
///
/// # Panics
///
/// Panics if this host has no instantiation of that name.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // as above, plus the instantiation
pub fn winograd_conv2d_named(
    kernel: &str,
    geom: &WinogradGeometry,
    input: &[f32],
    bank: &[f32],
    bias: Option<&[f32]>,
    epilogue: GemmEpilogue,
    out: &mut [f32],
    scratch: &mut [f32],
    threads: usize,
    schedule: Schedule,
) -> Result<(), KernelError> {
    winograd_conv2d_on(
        MicroKernel::named(kernel),
        geom,
        input,
        bank,
        bias,
        epilogue,
        out,
        scratch,
        threads,
        schedule,
    )
}

/// [`winograd_conv2d_into`] on an explicit micro-kernel and transform
/// instantiation, so the cross-kernel tests reach every one the host
/// supports.
#[allow(clippy::too_many_arguments)]
fn winograd_conv2d_on(
    kernel: MicroKernel,
    geom: &WinogradGeometry,
    input: &[f32],
    bank: &[f32],
    bias: Option<&[f32]>,
    epilogue: GemmEpilogue,
    out: &mut [f32],
    scratch: &mut [f32],
    threads: usize,
    schedule: Schedule,
) -> Result<(), KernelError> {
    assert!(
        kernel.supported(),
        "{kernel:?} is not supported on this host"
    );
    let g = geom;
    let lengths = [
        ("input", g.n * g.in_c * g.h * g.w, input.len()),
        (
            "bank",
            winograd_bank_elems(g.tile, g.in_c, g.out_c),
            bank.len(),
        ),
        ("output", g.n * g.out_c * g.out_h() * g.out_w(), out.len()),
    ];
    for (what, expected, got) in lengths {
        if expected != got {
            return Err(KernelError::BufferSize {
                what,
                expected,
                got,
            });
        }
    }
    if let Some(b) = bias {
        if b.len() != g.out_c {
            return Err(KernelError::BiasLength {
                expected: g.out_c,
                got: b.len(),
            });
        }
    }
    if scratch.len() < g.scratch_elems() {
        return Err(KernelError::ScratchTooSmall {
            needed: g.scratch_elems(),
            got: scratch.len(),
        });
    }
    let run = match g.tile {
        WinogradTile::F2 => run::<F2>,
        WinogradTile::F4 => run::<F4>,
    };
    let job = Job {
        geom: *g,
        input,
        bias,
        epilogue,
    };
    if Lanes::fit(g) {
        run(
            kernel,
            &job,
            bank,
            out,
            scratch,
            g.block_tiles(threads),
            threads,
            schedule,
        );
    } else {
        // Lane offsets are i32: a batch too long for them runs image by
        // image (every split writes the same bits), where they count
        // within one image's channel planes.
        let one = WinogradGeometry { n: 1, ..*g };
        let plane = WinogradGeometry {
            in_c: 1,
            out_c: 1,
            ..one
        };
        assert!(
            Lanes::fit(&plane),
            "a Winograd plane holds fewer than 2^31 floats"
        );
        let images = input.chunks(g.in_c * g.h * g.w);
        for (input, out) in images.zip(out.chunks_mut(g.out_c * g.out_h() * g.out_w())) {
            let job = Job {
                geom: one,
                input,
                ..job
            };
            let block = one.block_tiles(threads);
            run(kernel, &job, bank, out, scratch, block, threads, schedule);
        }
    }
    obs::with_current(|o| o.metrics().add(Metric::WinogradTiles, g.tiles() as u64));
    Ok(())
}

/// The validated kernel: block by block, input transform → α² products
/// → output transform. A block is `block` tiles (a multiple of `NR`, at
/// most one chunk) and lays out its V and products like a chunk of that
/// many tiles; a tile's products are one GEMM column whichever block it
/// falls in, so every block size writes the same bits.
#[allow(clippy::too_many_arguments)]
fn run<T: Transform>(
    kernel: MicroKernel,
    job: &Job,
    bank: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    block: usize,
    threads: usize,
    schedule: Schedule,
) {
    let geom = &job.geom;
    let (in_c, out_c, freqs) = (geom.in_c, geom.out_c, geom.tile.frequencies());
    debug_assert!(
        block <= geom.chunk_tiles() && (block.is_multiple_of(NR) || block == geom.tiles())
    );
    let operand = bank.len() / freqs;
    let (v_region, m_region) =
        scratch.split_at_mut(freqs * in_c * geom.chunk_tiles().next_multiple_of(NR));
    let out = DisjointWriter::new(out);
    // The products run on pool threads, which have no observer of their
    // own: hand them the caller's so the GEMM counters still land.
    let observer = obs::current();
    let mut t0 = 0;
    while t0 < geom.tiles() {
        let chunk = Chunk {
            t0,
            tiles: block.min(geom.tiles() - t0),
        };
        let stride = chunk.v_stride(in_c);
        let v_writer = DisjointWriter::new(v_region);
        let stage = Stage::Input { v: &v_writer };
        run_stage::<T>(kernel, job, chunk, stage, in_c, threads, schedule);

        let v: &[f32] = v_region;
        let plan = GemmPlan::new(out_c, in_c, chunk.tiles);
        let product = out_c * chunk.tiles;
        let m_writer = DisjointWriter::new(&mut m_region[..freqs * product]);
        parallel_for(threads, freqs, schedule, |range| {
            let _installed = (threads > 1).then(|| observer.clone().map(obs::install));
            for xi in range {
                // SAFETY: frequency `xi` owns its own product region.
                let m = unsafe { m_writer.slice_mut(xi * product, (xi + 1) * product) };
                m.fill(0.0);
                gemm_prepacked_on(
                    kernel,
                    &plan,
                    PackedA::F32(&bank[xi * operand..(xi + 1) * operand]),
                    &v[xi * stride..(xi + 1) * stride],
                    m,
                    1,
                    schedule,
                    GemmEpilogue::None,
                );
            }
        });

        let products: &[f32] = &m_region[..freqs * product];
        let stage = Stage::Output {
            products,
            out: &out,
        };
        run_stage::<T>(kernel, job, chunk, stage, out_c, threads, schedule);
        t0 += chunk.tiles;
    }
}

// ---------------------------------------------------------------------
// Tensor-level wrappers
// ---------------------------------------------------------------------

/// Allocating one-shot convolution on `tile` of an NCHW input with
/// `[out_c, in_c, 3, 3]` filters: transforms the bank, runs
/// [`winograd_conv2d_into`] on one thread.
fn conv_tensors(
    tile: WinogradTile,
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    padding: usize,
) -> Result<Tensor, KernelError> {
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
            algo: tile.algo(),
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
    if let Some(b) = bias {
        if b.len() != wd[0] {
            return Err(KernelError::BiasLength {
                expected: wd[0],
                got: b.len(),
            });
        }
    }
    let out_c = wd[0];
    let geom = WinogradGeometry::new(tile, (n, in_c, h, w), out_c, padding)?;
    let mut bank = vec![0.0f32; winograd_bank_elems(tile, in_c, out_c)];
    pack_winograd_bank_into(tile, weights.data(), out_c, in_c, &mut bank);
    let mut out = Tensor::zeros([geom.n, out_c, geom.out_h(), geom.out_w()]);
    let mut scratch = vec![0.0f32; geom.scratch_elems()];
    winograd_conv2d_into(
        &geom,
        input.data(),
        &bank,
        bias,
        GemmEpilogue::None,
        out.data_mut(),
        &mut scratch,
        1,
        Schedule::default(),
    )?;
    Ok(out)
}

/// F(2×2, 3×3) convolution of a `[n, c, h, w]` input with
/// `[out_c, c, 3, 3]` filters at stride 1, on one thread.
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
    conv_tensors(WinogradTile::F2, input, weights, bias, padding)
}

/// F(4×4, 3×3) convolution of a `[n, c, h, w]` input with
/// `[out_c, c, 3, 3]` filters at stride 1, on one thread.
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
    conv_tensors(WinogradTile::F4, input, weights, bias, padding)
}

/// Multiply counts for a 3×3/stride-1 convolution at the given extents:
/// `(direct, winograd)` on `tile` — the algorithmic saving the paper's
/// layer-3 choices trade against transform overhead. Where m divides
/// both extents the ratio is 9m²/α²: 2.25× for F(2×2), 4× for F(4×4).
pub fn tile_multiply_counts(
    tile: WinogradTile,
    (in_channels, out_channels): (usize, usize),
    out_h: usize,
    out_w: usize,
) -> (u64, u64) {
    let m = tile.m();
    let tiles = (out_h.div_ceil(m) * out_w.div_ceil(m)) as u64;
    let pairs = (in_channels * out_channels) as u64;
    let direct = pairs * (out_h * out_w) as u64 * 9;
    (direct, pairs * tiles * tile.frequencies() as u64)
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

    const TILES: [WinogradTile; 2] = [WinogradTile::F2, WinogradTile::F4];

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

    /// Bank, scratch and output of one convolution on an explicit
    /// kernel and thread count; output as bit patterns.
    fn run_on(
        kernel: MicroKernel,
        tile: WinogradTile,
        input: &Tensor,
        weights: &Tensor,
        bias: &[f32],
        threads: usize,
    ) -> Vec<u32> {
        let (n, in_c, h, w) = input.shape().nchw();
        let out_c = weights.shape().dims()[0];
        let geom = WinogradGeometry::new(tile, (n, in_c, h, w), out_c, 1).unwrap();
        let mut bank = vec![f32::NAN; winograd_bank_elems(tile, in_c, out_c)];
        pack_winograd_bank_into(tile, weights.data(), out_c, in_c, &mut bank);
        let mut out = vec![f32::NAN; n * out_c * geom.out_h() * geom.out_w()];
        let mut scratch = vec![f32::NAN; geom.scratch_elems()];
        winograd_conv2d_on(
            kernel,
            &geom,
            input.data(),
            &bank,
            Some(bias),
            GemmEpilogue::Relu,
            &mut out,
            &mut scratch,
            threads,
            Schedule::default(),
        )
        .unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// One layer through `tile`'s public wrapper against im2col + GEMM,
    /// with a bias when `with_bias`, within `tol`.
    fn check_against_direct(
        tile: WinogradTile,
        (shape, out_c, pad): ([usize; 4], usize, usize),
        with_bias: bool,
        seed: u64,
        tol: f32,
    ) {
        let input = random(shape, seed);
        let weights = random([out_c, shape[1], 3, 3], seed + 1);
        let bias: Vec<f32> = (0..out_c).map(|o| o as f32 * 0.3 - 0.4).collect();
        let bias = with_bias.then_some(bias.as_slice());
        let want = reference(&input, &weights, bias, pad);
        let got = match tile {
            WinogradTile::F2 => winograd_conv2d(&input, &weights, bias, pad),
            WinogradTile::F4 => winograd4_conv2d(&input, &weights, bias, pad),
        }
        .unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        assert!(want.allclose(&got, tol), "{tile:?} {shape:?}");
    }

    #[test]
    fn matches_direct_even_extents() {
        for tile in TILES {
            check_against_direct(tile, ([2, 3, 8, 8], 4, 1), false, 1, 1e-3);
        }
    }

    #[test]
    fn matches_direct_odd_extents_and_no_padding() {
        for tile in TILES {
            check_against_direct(tile, ([1, 2, 9, 7], 3, 0), false, 3, 1e-3);
        }
    }

    #[test]
    fn matches_direct_with_bias() {
        for tile in TILES {
            check_against_direct(tile, ([1, 3, 6, 6], 2, 1), true, 5, 1e-3);
        }
    }

    #[test]
    fn cifar_layer_shape_agrees() {
        // A real VGG layer shape: 32x32, 16->16 channels (scaled).
        for tile in TILES {
            check_against_direct(tile, ([1, 16, 32, 32], 16, 1), false, 7, 5e-3);
        }
    }

    #[test]
    fn f4_matches_direct_even_extents() {
        check_against_direct(WinogradTile::F4, ([2, 3, 8, 8], 4, 1), true, 11, 1e-3);
    }

    #[test]
    fn f4_matches_direct_unaligned_extents() {
        // 9x7 output: edge tiles write partial 4x4 quadrants.
        check_against_direct(WinogradTile::F4, ([1, 2, 11, 9], 3, 0), false, 13, 1e-3);
    }

    #[test]
    fn chunks_and_ragged_panels_cover_the_batch() {
        // 3 images × 64 F(2×2) tiles = 192 tiles; 5 images × 64 = 320
        // tiles, two chunks (256 + 64); the 15×15 map's F(4×4) edge
        // tiles overhang both axes and its 16 tiles per image leave
        // panels that straddle images.
        for (shape, tile) in [
            ([3, 5, 16, 16], WinogradTile::F2),
            ([5, 3, 16, 16], WinogradTile::F2),
            ([7, 4, 15, 15], WinogradTile::F4),
        ] {
            let input = random(shape, 31);
            let weights = random([9, shape[1], 3, 3], 32);
            let want = reference(&input, &weights, None, 1);
            let got = conv_tensors(tile, &input, &weights, None, 1).unwrap();
            assert!(want.allclose(&got, 1e-3), "{tile:?} {shape:?}");
        }
    }

    /// Filter = delta at centre: convolution is the identity.
    fn check_identity(tile: WinogradTile, input: &Tensor) {
        let mut weights = Tensor::zeros([1, 1, 3, 3]);
        weights.data_mut()[4] = 1.0;
        let got = conv_tensors(tile, input, &weights, None, 1).unwrap();
        assert!(got.allclose(input, 1e-4), "{tile:?}");
    }

    #[test]
    fn identity_filter_reproduces_input() {
        check_identity(WinogradTile::F2, &random([1, 1, 6, 6], 9));
    }

    #[test]
    fn f4_identity_filter_reproduces_input() {
        check_identity(WinogradTile::F4, &random([1, 1, 8, 8], 19));
    }

    #[test]
    fn bank_is_the_transformed_filter_per_frequency() {
        // F(2×2)'s U = G g Gᵀ by the matrices, for filter (7, 1) of a
        // 9×2 layer: row 7 sits in lane 1 of A panel 1.
        let weights = random([9, 2, 3, 3], 5);
        let mut bank = vec![f32::NAN; winograd_bank_elems(WinogradTile::F2, 2, 9)];
        pack_winograd_bank_into(WinogradTile::F2, weights.data(), 9, 2, &mut bank);
        let g = &weights.data()[(7 * 2 + 1) * 9..][..9];
        let gm = [
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5],
            [0.0, 0.0, 1.0],
        ];
        let operand = bank.len() / 16;
        for r in 0..4 {
            for s in 0..4 {
                let mut u = 0.0f64;
                for i in 0..3 {
                    for j in 0..3 {
                        u += gm[r][i] * f64::from(g[i * 3 + j]) * gm[s][j];
                    }
                }
                let got = bank[(r * 4 + s) * operand + (MR * 2 + MR) + 1];
                assert!((f64::from(got) - u).abs() < 1e-6, "U[{r}][{s}]");
            }
        }
        // Rows past out_c = 9 are zero in every frequency.
        for xi in 0..16 {
            let panel = &bank[xi * operand + 2 * MR..xi * operand + 4 * MR];
            assert!(panel.chunks(MR).all(|rows| rows[3..] == [0.0; 3]));
        }
    }

    #[test]
    fn output_is_bit_identical_across_threads_and_simd_kernels() {
        // Several chunks (1280 F(2×2) tiles, 320 F(4×4) tiles) with
        // enough channels that three
        // workers split both transforms of both tiles too, a fused ReLU
        // and NaN/Inf inputs: every thread count writes the same bits,
        // and so does every SIMD instantiation. The portable kernel
        // multiplies and adds where the SIMD tiles fuse, so it is held
        // to a tolerance instead.
        let mut input = random([5, 96, 32, 32], 41);
        input.data_mut()[77] = f32::NAN;
        input.data_mut()[100_000] = f32::INFINITY;
        let weights = random([96, 96, 3, 3], 42);
        let bias: Vec<f32> = (0..96).map(|o| o as f32 * 0.02 - 0.5).collect();
        let kernels: Vec<MicroKernel> = MicroKernel::available().collect();
        for tile in TILES {
            for &kernel in &kernels {
                let want = run_on(kernel, tile, &input, &weights, &bias, 1);
                for threads in [2, 3] {
                    let got = run_on(kernel, tile, &input, &weights, &bias, threads);
                    assert!(got == want, "{tile:?} {kernel:?} at {threads} threads");
                }
            }
            let simd: Vec<Vec<u32>> = kernels[1..]
                .iter()
                .map(|&k| run_on(k, tile, &input, &weights, &bias, 1))
                .collect();
            assert!(simd.windows(2).all(|p| p[0] == p[1]), "{tile:?}");
            let scalar = run_on(MicroKernel::Scalar, tile, &input, &weights, &bias, 1);
            for other in &simd {
                let scale = other
                    .iter()
                    .map(|&b| f32::from_bits(b).abs())
                    .filter(|v| v.is_finite())
                    .fold(1.0f32, f32::max);
                for (s, o) in scalar.iter().zip(other) {
                    let (s, o) = (f32::from_bits(*s), f32::from_bits(*o));
                    let close = (s - o).abs() <= 1e-5 * scale;
                    assert!(
                        s.is_finite() == o.is_finite() && (!s.is_finite() || close),
                        "{tile:?}: {s} vs {o}"
                    );
                }
            }
        }
    }

    /// One geometry and its data: inputs, products (standing in for
    /// the GEMM's, so each stage is checked alone) and bias, with NaN,
    /// ±Inf and −0.0 sprinkled in.
    struct BitCase {
        geom: WinogradGeometry,
        input: Vec<f32>,
        products: Vec<f32>,
        weights: Vec<f32>,
        bias: Vec<f32>,
    }

    impl BitCase {
        fn new(geom: WinogradGeometry, seed: u64) -> BitCase {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
            let mut values = |len: usize| -> Vec<f32> {
                (0..len)
                    .map(|_| match rng.gen_range(0..40) {
                        i @ 0..=3 => specials[i],
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect()
            };
            let g = &geom;
            BitCase {
                input: values(g.n * g.in_c * g.h * g.w),
                products: values(g.tile.frequencies() * g.out_c * g.chunk_tiles()),
                weights: values(g.out_c * g.in_c * 9),
                bias: values(g.out_c),
                geom,
            }
        }

        fn job(&self) -> Job<'_> {
            Job {
                geom: self.geom,
                input: &self.input,
                bias: Some(&self.bias),
                epilogue: GemmEpilogue::Relu,
            }
        }

        /// Each stage on `kernel`'s instantiation over blocks of
        /// `block` tiles: every block's V (as bits), then the output
        /// the output stage writes from the same products.
        fn stages<T: Transform>(&self, kernel: MicroKernel, block: usize) -> Vec<u32> {
            let g = &self.geom;
            let job = self.job();
            let mut bits = Vec::new();
            let mut out = vec![f32::NAN; g.n * g.out_c * g.out_h() * g.out_w()];
            let mut t0 = 0;
            while t0 < g.tiles() {
                let chunk = Chunk {
                    t0,
                    tiles: block.min(g.tiles() - t0),
                };
                let mut v = vec![f32::NAN; g.tile.frequencies() * chunk.v_stride(g.in_c)];
                let writer = DisjointWriter::new(&mut v);
                let stage = Stage::Input { v: &writer };
                run_stage::<T>(kernel, &job, chunk, stage, g.in_c, 1, Schedule::default());
                bits.extend(v.iter().map(|x| x.to_bits()));
                let writer = DisjointWriter::new(&mut out);
                let products = &self.products[..g.tile.frequencies() * g.out_c * chunk.tiles];
                let stage = Stage::Output {
                    products,
                    out: &writer,
                };
                run_stage::<T>(kernel, &job, chunk, stage, g.out_c, 1, Schedule::default());
                t0 += chunk.tiles;
            }
            bits.extend(out.iter().map(|x| x.to_bits()));
            bits
        }

        /// The whole convolution on `kernel` over blocks of `block`
        /// tiles, as bits.
        fn conv<T: Transform>(&self, kernel: MicroKernel, block: usize) -> Vec<u32> {
            let g = &self.geom;
            let mut bank = vec![f32::NAN; winograd_bank_elems(g.tile, g.in_c, g.out_c)];
            pack_winograd_bank_into(g.tile, &self.weights, g.out_c, g.in_c, &mut bank);
            let mut out = vec![f32::NAN; g.n * g.out_c * g.out_h() * g.out_w()];
            let mut scratch = vec![f32::NAN; g.scratch_elems()];
            let job = self.job();
            run::<T>(
                kernel,
                &job,
                &bank,
                &mut out,
                &mut scratch,
                block,
                1,
                Schedule::default(),
            );
            out.iter().map(|x| x.to_bits()).collect()
        }

        /// What the movers load for every panel and input channel of
        /// blocks of `block` tiles on `kernel`'s instantiation, then the
        /// output they write when they store the same lane values for
        /// every output channel, as bits: the movers do no arithmetic,
        /// so NaN payloads must survive too.
        fn moved<T: Transform>(&self, kernel: MicroKernel, block: usize) -> Vec<u32> {
            let (case, transform) = (self, PhantomData::<T>);
            let mut body = Moved {
                case,
                block,
                transform,
            };
            crate::v16::run_on(kernel, &mut body)
        }

        /// The stand-in lane values the movers store for output channel
        /// `o`: value `i` of lane `l`.
        fn lane_value(&self, o: usize, i: usize, l: usize) -> f32 {
            self.products[((o * MAX_FREQS + i) * NR + l) % self.products.len()]
        }

        /// [`moved`](Self::moved) straight from the definition of a
        /// patch, lane by lane and value by value, every read bounds
        /// checked: lane `l` of panel `jp` is tile `t0 + 16·jp + l`,
        /// value `(r, s)` of its patch is `input[img, c, oy − pad + r,
        /// ox − pad + s]`, 0.0 outside the image or past the chunk; its
        /// in-bounds output value `(i, j)` is written to `out[img, o,
        /// oy + i, ox + j]`.
        fn moved_reference(&self, block: usize) -> Vec<u32> {
            let g = &self.geom;
            let (a, m, pad) = (g.tile.alpha(), g.tile.m(), g.padding as isize);
            let (out_h, out_w) = (g.out_h(), g.out_w());
            let mut bits = Vec::new();
            let mut out = vec![f32::NAN; g.n * g.out_c * out_h * out_w];
            let mut t0 = 0;
            while t0 < g.tiles() {
                let tiles = block.min(g.tiles() - t0);
                for jp in 0..tiles.div_ceil(NR) {
                    let origin = |l: usize| {
                        let t = t0 + jp * NR + l;
                        let at = t % g.image_tiles();
                        let (oy, ox) = (at / g.tiles_x() * m, at % g.tiles_x() * m);
                        (jp * NR + l < tiles).then_some((t / g.image_tiles(), oy, ox))
                    };
                    for c in 0..g.in_c {
                        for r in 0..a {
                            for s in 0..a {
                                for l in 0..NR {
                                    let x = origin(l).map_or(0.0, |(img, oy, ox)| {
                                        let iy = (oy + r) as isize - pad;
                                        let ix = (ox + s) as isize - pad;
                                        let inside = (0..g.h as isize).contains(&iy)
                                            && (0..g.w as isize).contains(&ix);
                                        if inside {
                                            let (iy, ix) = (iy as usize, ix as usize);
                                            self.input[((img * g.in_c + c) * g.h + iy) * g.w + ix]
                                        } else {
                                            0.0
                                        }
                                    });
                                    bits.push(x.to_bits());
                                }
                            }
                        }
                    }
                    for o in 0..g.out_c {
                        for l in 0..NR {
                            let Some((img, oy, ox)) = origin(l) else {
                                continue;
                            };
                            for i in (0..m).filter(|i| oy + i < out_h) {
                                for j in (0..m).filter(|j| ox + j < out_w) {
                                    let at =
                                        ((img * g.out_c + o) * out_h + oy + i) * out_w + ox + j;
                                    out[at] = self.lane_value(o, i * m + j, l);
                                }
                            }
                        }
                    }
                }
                t0 += tiles;
            }
            bits.extend(out.iter().map(|x| x.to_bits()));
            bits
        }

        /// Every instantiation's movers move exactly the reference's
        /// bits; every instantiation's stages match the portable ones (NaN
        /// for NaN: the transforms' adds may take a NaN's sign or
        /// payload from either operand, in whatever order each target
        /// compiles them); and every kernel writes the same convolution
        /// whole-chunk, in one-panel blocks and in the blocks `run`
        /// picks.
        fn check<T: Transform>(&self) {
            let chunk = self.geom.chunk_tiles();
            let blocks = [chunk, NR, self.geom.block_tiles(1)].map(|b| b.min(chunk));
            let same = |a: &[u32], b: &[u32]| {
                let nan = |x: u32| f32::from_bits(x).is_nan();
                a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x == y || nan(x) && nan(y))
            };
            for block in blocks {
                let want = self.moved_reference(block);
                for kernel in MicroKernel::available() {
                    let got = self.moved::<T>(kernel, block);
                    assert!(got == want, "{kernel:?} mover, blocks of {block}");
                }
                let want = self.stages::<T>(MicroKernel::Scalar, block);
                for kernel in MicroKernel::available().skip(1) {
                    let got = self.stages::<T>(kernel, block);
                    assert!(same(&got, &want), "{kernel:?} stages, blocks of {block}");
                }
            }
            for kernel in MicroKernel::available() {
                let whole = self.conv::<T>(kernel, chunk);
                for block in blocks {
                    let got = self.conv::<T>(kernel, block);
                    assert!(got == whole, "{kernel:?} conv, blocks of {block}");
                }
            }
        }
    }

    /// [`BitCase::moved`]'s body, on the instantiation `run_on` picks.
    struct Moved<'a, T> {
        case: &'a BitCase,
        block: usize,
        transform: PhantomData<T>,
    }

    impl<T: Transform> Run for Moved<'_, T> {
        type Output = Vec<u32>;

        #[inline(always)]
        fn run<V: V16>(&mut self) -> Vec<u32> {
            let Moved { case, block, .. } = *self;
            let g = &case.geom;
            let job = case.job();
            let mut bits = Vec::new();
            let mut out = vec![f32::NAN; g.n * g.out_c * g.out_h() * g.out_w()];
            let writer = DisjointWriter::new(&mut out);
            let mut t0 = 0;
            while t0 < g.tiles() {
                let chunk = Chunk {
                    t0,
                    tiles: block.min(g.tiles() - t0),
                };
                for jp in 0..chunk.panels() {
                    let lanes = job.patch_lanes(chunk, jp);
                    for c in 0..g.in_c {
                        let mut d = [[f32::NAN; NR]; MAX_FREQS];
                        load::<T, V>(&job, &lanes, c, &mut d);
                        let patch = d.iter().take(g.tile.frequencies()).flatten();
                        bits.extend(patch.map(|x| x.to_bits()));
                    }
                    let lanes = job.tile_lanes(chunk, jp);
                    for o in 0..g.out_c {
                        let d: Tile<NR> = std::array::from_fn(|i| {
                            std::array::from_fn(|l| case.lane_value(o, i, l))
                        });
                        store::<T, V>(&job, &lanes, o, &d, &writer);
                    }
                }
                t0 += chunk.tiles;
            }
            bits.extend(out.iter().map(|x| x.to_bits()));
            bits
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Both tiles over 1–3 images of 1–20 channels in and out (so
        /// channel blocks end ragged) and planes of 1–19 on a side
        /// (panels straddle tile rows and images; edge tiles overhang
        /// the output), with and without padding.
        #[test]
        fn every_mover_and_block_size_writes_the_same_bits(
            f4 in 0usize..2,
            (n, in_c, out_c) in (1usize..=3, 1usize..=20, 1usize..=20),
            (h, w, padding) in (1usize..=19, 1usize..=19, 0usize..=1),
            seed in 0u64..1 << 32,
        ) {
            let tile = [WinogradTile::F2, WinogradTile::F4][f4];
            proptest::prop_assume!(h + 2 * padding >= 3 && w + 2 * padding >= 3);
            let geom = WinogradGeometry::new(tile, (n, in_c, h, w), out_c, padding).unwrap();
            let case = BitCase::new(geom, seed);
            match tile {
                WinogradTile::F2 => case.check::<F2>(),
                WinogradTile::F4 => case.check::<F4>(),
            }
        }
    }

    #[test]
    fn multiply_savings_are_2_25x_for_even_tiles() {
        let (direct, wino) = tile_multiply_counts(WinogradTile::F2, (64, 64), 32, 32);
        let ratio = direct as f64 / wino as f64;
        assert!((ratio - 2.25).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn multiply_savings_are_4x_for_f4_on_aligned_tiles() {
        let (direct, wino4) = tile_multiply_counts(WinogradTile::F4, (64, 64), 32, 32);
        let ratio = direct as f64 / wino4 as f64;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
        // 16/9 ≈ 1.78x fewer multiplies than F(2x2,3x3) on the same
        // extents: 36/16 = 2.25 muls per output vs F(2x2)'s 16/4 = 4.
        let (_, wino2) = tile_multiply_counts(WinogradTile::F2, (64, 64), 32, 32);
        let f4_over_f2 = wino2 as f64 / wino4 as f64;
        assert!((f4_over_f2 - 16.0 / 9.0).abs() < 1e-9, "ratio {f4_over_f2}");
    }

    #[test]
    fn non_3x3_rejected_with_typed_error() {
        for (tile, algo) in [
            (WinogradTile::F2, "Winograd F(2x2,3x3)"),
            (WinogradTile::F4, "Winograd F(4x4,3x3)"),
        ] {
            let err = conv_tensors(
                tile,
                &Tensor::zeros([1, 1, 8, 8]),
                &Tensor::zeros([1, 1, 5, 5]),
                None,
                1,
            )
            .unwrap_err();
            assert_eq!(
                err,
                KernelError::KernelShape {
                    algo,
                    expected: (3, 3),
                    got: (5, 5),
                }
            );
        }
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
        // ...and, once the scratch fits, a bank one element short.
        let geom = WinogradGeometry::new(WinogradTile::F4, (1, 2, 6, 6), 3, 1).unwrap();
        let input = vec![0.0f32; 2 * 6 * 6];
        let bank = vec![0.0f32; winograd_bank_elems(WinogradTile::F4, 2, 3)];
        let mut out = vec![0.0f32; 3 * 6 * 6];
        let mut scratch = vec![0.0f32; 7];
        let run = |bank: &[f32], scratch: &mut [f32], out: &mut [f32]| {
            winograd_conv2d_into(
                &geom,
                &input,
                bank,
                None,
                GemmEpilogue::None,
                out,
                scratch,
                1,
                Schedule::default(),
            )
        };
        assert_eq!(
            run(&bank, &mut scratch, &mut out).unwrap_err(),
            KernelError::ScratchTooSmall {
                needed: geom.scratch_elems(),
                got: 7
            }
        );
        let mut scratch = vec![0.0f32; geom.scratch_elems()];
        assert!(matches!(
            run(&bank[1..], &mut scratch, &mut out).unwrap_err(),
            KernelError::BufferSize { what: "bank", .. }
        ));
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
