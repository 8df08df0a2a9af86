//! General matrix–matrix multiplication kernels.
//!
//! The paper's systems layer leans heavily on GEMM: the im2col convolution
//! lowering (§IV-D) turns every convolution into one `M×K · K×N` product,
//! and the CLBlast comparison in Fig. 6 is a GEMM-library study. This
//! module provides the CPU variants the characterisation needs. Two are
//! plain functions no execution config selects:
//!
//! * [`gemm_naive_into`] — triple loop in `ijk` order; the reference
//!   every equivalence test and bench compares against.
//! * [`gemm_tiled_into`] — fully parameterised tiling mirroring
//!   CLBlast's tuning surface (`cnn-stack-hwsim`'s auto-tuner drives it).
//!
//! The rest are the engines a layer can run, named by [`GemmAlgorithm`]:
//!
//! * [`GemmAlgorithm::Blocked`] — the tiled kernel at a fixed 64³
//!   blocking; the "hand-optimised serial C" analogue and the scalar
//!   floor the guard ladder demotes to.
//! * [`GemmAlgorithm::Packed`] — the tuned-BLAS analogue: a BLIS-style
//!   packed engine that copies A into `MR`-row panels and B into
//!   `NR`-column panels, then drives an `MR×NR` register-tiled
//!   micro-kernel (scalar autovectorised, AVX2/FMA, or an AVX-512 tile
//!   spanning up to two A panels × two B panels — whichever the CPU
//!   supports, detected at runtime) over the panel grid, with the grid
//!   distributed across the `cnn-stack-parallel` pool. Its A operand is
//!   either f32 panels or 2-bit ternary codes in the same panel layout
//!   ([`PackedA`]), decoded block by block into the same tile.
//!
//! # Packed engine layout
//!
//! [`GemmPlan`] fixes the blocking parameters for a shape. A is packed
//! so panel `ip` holds rows `[ip·MR, ip·MR+MR)` in k-major order
//! (`packed_a[ip·MR·k + p·MR + r]`); B so panel `jp` holds columns
//! `[jp·NR, jp·NR+NR)` (`packed_b[jp·NR·k + p·NR + c]`). Ragged edges
//! are zero-padded inside the panels (the reduction dimension `k` is
//! never padded, so padding can never contaminate valid outputs). The
//! micro-kernel then streams both panels with unit stride: one `MR×NR`
//! tile costs `kc` contiguous loads of `MR` A-values and `NR` B-values
//! and `MR·NR` fused multiply-adds per step. A B panel with at most
//! `NR/2` live columns (a 2×2 output plane at batch 1 has 4) runs the
//! same ladder over its first vector only — a half-width `MR×NR/2` tile
//! on the unchanged panel layout, bit-identical lane for lane. On an
//! AVX-512 host a full-width tile instead *composes* the panels: two
//! vertically adjacent A panels × two adjacent B panels (`2·MR×2·NR`,
//! 24 ZMM accumulators fed by 2 B loads and 12 broadcasts per 24 FMAs),
//! shrinking to 2×1, 1×2 or 1×1 panels at the odd edges — again on the
//! unchanged panels, and again every lane sees the FMA sequence it
//! would have seen, so every SIMD tile agrees bit for bit on every
//! output that is not NaN (and on *which* outputs are NaN; see
//! `microkernel_avx512` for why a NaN's payload is not promised).
//!
//! # Loop nest
//!
//! One walk serves every kernel, serial or threaded
//! (`blocked_walk`): column chunk (`nc` = 256 columns) → `kc` block →
//! row chunk (`mc` = 96 rows) → B panel (pair) → A panel (pair). With
//! K outside the row chunks a `kc × nc` B block (256 KiB) is re-read
//! from L2 by every row chunk and A streams from memory once per 256
//! output columns; the two-panel B block the tile reads (32 KiB) stays
//! in L1 while the row chunk's A panels pass it.
//!
//! # Code panels
//!
//! [`pack_a_codes_into`] stores an exactly-ternary A as 2 bits per
//! value in the f32 panel order, each panel starting on a word. Per
//! block, the driver decodes one A panel pair's `kc` steps at a time
//! into a line-aligned L1 buffer and runs it against every B panel of
//! the column chunk: every value is decoded once per column chunk, the
//! tile and every output bit are the f32 engine's on the dequantised
//! matrix, and A streams 16× fewer bytes.

use crate::aligned::AlignedBuf;
use crate::tensor::Tensor;
use cnn_stack_obs::{self as obs, Metric};
use cnn_stack_parallel::{parallel_tiles, DisjointWriter, Schedule};
use std::sync::OnceLock;

/// Micro-kernel tile height: rows of A (and C) per register tile.
pub const MR: usize = 6;
/// Micro-kernel tile width: columns of B (and C) per register tile.
///
/// Two 8-lane AVX2 vectors; with `MR = 6` the kernel holds 12 YMM
/// accumulators plus two B loads and one A broadcast — 15 of the 16
/// architectural YMM registers. It is also exactly one 16-lane AVX-512
/// vector and one 64-byte cache line, which is why the AVX-512 tile
/// grows by whole panels (two A panels × two B panels), every packed
/// layout, plan and workspace size is shared by all kernels, and a
/// packed-B panel in an [`AlignedBuf`] never
/// straddles a line.
pub const NR: usize = 16;

/// Which GEMM engine a layer runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum GemmAlgorithm {
    /// Cache-blocked `ikj` ordering with 64-element square blocks.
    Blocked,
    /// BLIS-style packed panels + `MR×NR` micro-kernel (AVX-512 or
    /// AVX2/FMA when available). The fast path for conv-im2col and
    /// linear layers.
    #[default]
    Packed,
    /// The packed engine as a step that reads 2-bit codes records it. It
    /// runs exactly as [`Packed`](Self::Packed): what makes a layer's A
    /// operand codes ([`PackedA::Codes`]) is its weights — a `Ternary`
    /// label on exactly-ternary values — not this value, and
    /// [`gemm_into`] runs it on f32 panels.
    TernaryPacked,
}

/// Element-wise epilogue fused into the packed engine's write-back.
///
/// The fold-and-fuse plan pass collapses `conv → BN → ReLU` chains into a
/// single kernel; the activation then runs here, applied to each output
/// tile as it is stored (no second sweep over `C`). The epilogue fires
/// only on the **final** `kc` reduction block, when the accumulator for a
/// tile is complete — earlier blocks hold partial sums that must not be
/// clamped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum GemmEpilogue {
    /// Plain accumulate: `C += A·B`.
    #[default]
    None,
    /// `C = max(C + A·B, 0)`. `max` flushes NaN to zero exactly like the
    /// standalone ReLU layer (`f32::max(NaN, 0.0) == 0.0`), so a fused
    /// plan stays bit-identical to the unfused reference even on
    /// non-finite inputs.
    Relu,
}

impl GemmEpilogue {
    /// Applies the epilogue to a finished output value.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            GemmEpilogue::None => v,
            GemmEpilogue::Relu => v.max(0.0),
        }
    }
}

/// Tiling parameters for [`gemm_tiled_into`].
///
/// These mirror the subset of CLBlast's 14-parameter GEMM tuning surface
/// that is meaningful on a CPU: tile extents in the M/N/K dimensions and
/// an unroll factor for the innermost loop.
///
/// # Example
///
/// ```
/// use cnn_stack_tensor::TileConfig;
///
/// let cfg = TileConfig::new(32, 32, 64, 4);
/// assert_eq!(cfg.tile_m, 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Tile extent along the output-row (M) dimension.
    pub tile_m: usize,
    /// Tile extent along the output-column (N) dimension.
    pub tile_n: usize,
    /// Tile extent along the reduction (K) dimension.
    pub tile_k: usize,
    /// Unroll factor for the innermost loop (1, 2, 4 or 8).
    pub unroll: usize,
}

impl TileConfig {
    /// Creates a tile configuration.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero or `unroll` is not in {1, 2, 4, 8}.
    pub fn new(tile_m: usize, tile_n: usize, tile_k: usize, unroll: usize) -> Self {
        assert!(
            tile_m > 0 && tile_n > 0 && tile_k > 0,
            "tile extents must be non-zero"
        );
        assert!(
            matches!(unroll, 1 | 2 | 4 | 8),
            "unroll must be 1, 2, 4 or 8, got {unroll}"
        );
        TileConfig {
            tile_m,
            tile_n,
            tile_k,
            unroll,
        }
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig::new(32, 32, 32, 4)
    }
}

/// Blocking plan for one packed GEMM shape: the `MC/KC/NC/MR/NR`
/// parameters plus the packed-buffer sizes they imply.
///
/// `InferencePlan` compiles one of these per conv-im2col / linear layer
/// so weight panels can be packed once at plan time and packing scratch
/// can be sized into the session arena.
///
/// # Example
///
/// ```
/// use cnn_stack_tensor::{GemmPlan, MR, NR};
///
/// let plan = GemmPlan::new(512, 4608, 196);
/// assert_eq!(plan.packed_a_elems(), 512usize.div_ceil(MR) * MR * 4608);
/// assert_eq!(plan.packed_b_elems(), 196usize.div_ceil(NR) * NR * 4608);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmPlan {
    /// Output rows (rows of A).
    pub m: usize,
    /// Reduction extent (columns of A, rows of B).
    pub k: usize,
    /// Output columns (columns of B).
    pub n: usize,
    /// Rows per row-chunk (multiple of [`MR`]): the `mc × kc` A block
    /// (96 KiB) that streams past one resident B panel pair. A parallel
    /// grain is a contiguous range of A panels, walked in row chunks.
    pub mc: usize,
    /// Reduction block: every C element is accumulated from zero over
    /// `kc` steps and then added into C, block after block, so `kc`
    /// alone fixes the summation order — and the output bits — whatever
    /// `mc`, `nc`, the tile shape or the thread count. One `kc×NR` B
    /// block is 16 KiB at the `kc = 256` cap; the AVX-512 tile keeps
    /// two of them in L1.
    pub kc: usize,
    /// Columns per column chunk (multiple of [`NR`]): A is streamed
    /// once per chunk, and a conv merges as many images as fit one.
    pub nc: usize,
}

/// Largest `kc` [`GemmPlan::new`] chooses.
const KC: usize = 256;
/// 2-bit codes per `u32` code word.
const CODES_PER_WORD: usize = 16;
/// Floats of decoded A: one panel pair's `kc` steps (12 KiB), what the
/// AVX-512 tile reads at once.
const DECODED_ELEMS: usize = 2 * MR * KC;

/// A grain's decoded A panel pair, on a cache line: the decoder's
/// 64-byte stores would otherwise each straddle two lines, which costs
/// it 1.6× (0.92 against 0.56 ns per word on a 2.1 GHz AVX-512 Xeon).
#[repr(C, align(64))]
struct DecodedPair([f32; DECODED_ELEMS]);

impl GemmPlan {
    /// Chooses blocking parameters for an `m×k · k×n` product.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        // kc = 256: one NR-wide B block is 256·16·4 = 16 KiB. The
        // AVX-512 tile reads two at once — 32 KiB of the 48 KiB L1D
        // this was tuned on, beside the 6 KiB A block streaming past; a
        // 32 KiB-L1D AVX-512 host is untested. The one-panel kernels
        // keep half of a 32 KiB L1D free.
        let kc = k.clamp(1, KC);
        // mc = 96 rows = 16 MR-panels: the A block of a row chunk is
        // mc·kc·4 ≈ 96 KiB, read from L2 once per B panel (pair).
        let mc = (MR * 16).min(m.div_ceil(MR) * MR).max(MR);
        // nc = 256 cols = 16 NR-panels per column chunk: the kc×nc B
        // block (256 KiB) plus an m×kc A block stay in a 2 MiB L2 for
        // every paper shape, and A leaves memory once per 256 columns
        // (64 / 128 / 512 / 1024 measured within ±3 % on VGG-16).
        let nc = (NR * 16).min(n.div_ceil(NR) * NR).max(NR);
        GemmPlan {
            m,
            k,
            n,
            mc,
            kc,
            nc,
        }
    }

    /// Number of MR-row panels A packs into.
    pub fn m_panels(&self) -> usize {
        self.m.div_ceil(MR)
    }

    /// Number of NR-column panels B packs into.
    pub fn n_panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// Elements in the packed-A buffer (rows zero-padded to a multiple
    /// of [`MR`]).
    pub fn packed_a_elems(&self) -> usize {
        self.m_panels() * MR * self.k
    }

    /// Elements in the packed-B buffer (columns zero-padded to a
    /// multiple of [`NR`]).
    pub fn packed_b_elems(&self) -> usize {
        self.n_panels() * NR * self.k
    }

    /// Scratch elements needed to pack both operands.
    pub fn scratch_elems(&self) -> usize {
        self.packed_a_elems() + self.packed_b_elems()
    }

    /// Row chunks of `mc` rows along M.
    pub fn row_chunks(&self) -> usize {
        self.m_panels().div_ceil(self.mc / MR)
    }

    /// Column chunks of `nc` columns along N.
    pub fn col_chunks(&self) -> usize {
        self.n_panels().div_ceil(self.nc / NR)
    }

    /// Code words of one A panel: its `MR·k` 2-bit codes, rounded up to
    /// a whole word so every panel starts on one.
    pub fn code_panel_words(&self) -> usize {
        (MR * self.k).div_ceil(CODES_PER_WORD)
    }

    /// Words in an A code buffer ([`pack_a_codes_into`]): the same
    /// panels as [`packed_a_elems`](Self::packed_a_elems) at 1/16 of
    /// the bytes.
    pub fn packed_a_code_words(&self) -> usize {
        self.m_panels() * self.code_panel_words()
    }
}

/// Packs `a[m×k]` (row-major) into MR-row panels: panel `ip` holds rows
/// `[ip·MR, ip·MR+MR)` k-major, i.e. `buf[ip·MR·k + p·MR + r]`. Rows
/// beyond `m` are zero-filled. Writes every element of the panel region,
/// so `buf` may hold arbitrary garbage on entry.
///
/// # Panics
///
/// Panics if `a` or `buf` is shorter than the plan requires.
pub fn pack_a_into(plan: &GemmPlan, a: &[f32], buf: &mut [f32]) {
    let (m, k) = (plan.m, plan.k);
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert!(
        buf.len() >= plan.packed_a_elems(),
        "packed-A buffer too small"
    );
    for ip in 0..plan.m_panels() {
        let rows = MR.min(m - ip * MR);
        let src = &a[ip * MR * k..(ip * MR + rows) * k];
        let dst = &mut buf[ip * MR * k..(ip + 1) * MR * k];
        // `p` outermost: up to six read streams, one sequential write
        // stream. (A row at a time scatters every write `MR` floats
        // apart and ran at ≈ 5 GB/s.)
        for (p, d) in dst.chunks_exact_mut(MR).enumerate() {
            for (r, v) in d.iter_mut().enumerate() {
                *v = if r < rows { src[r * k + p] } else { 0.0 };
            }
        }
    }
    obs::count(
        Metric::GemmBytesPacked,
        (plan.packed_a_elems() * std::mem::size_of::<f32>()) as u64,
    );
}

/// Packs `b[k×n]` (row-major) into NR-column panels: panel `jp` holds
/// columns `[jp·NR, jp·NR+NR)`, i.e. `buf[jp·NR·k + p·NR + c]`. Columns
/// beyond `n` are zero-filled.
///
/// # Panics
///
/// Panics if `b` or `buf` is shorter than the plan requires.
pub fn pack_b_into(plan: &GemmPlan, b: &[f32], buf: &mut [f32]) {
    let (k, n) = (plan.k, plan.n);
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert!(
        buf.len() >= plan.packed_b_elems(),
        "packed-B buffer too small"
    );
    for jp in 0..plan.n_panels() {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let dst = &mut buf[jp * NR * k..(jp + 1) * NR * k];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + cols];
            let d = &mut dst[p * NR..p * NR + NR];
            d[..cols].copy_from_slice(src);
            d[cols..].fill(0.0);
        }
    }
    obs::count(
        Metric::GemmBytesPacked,
        (plan.packed_b_elems() * std::mem::size_of::<f32>()) as u64,
    );
}

/// Packs `Wᵀ` into NR-column panels directly from `w[n×k]` (row-major),
/// without materialising the transpose: the packed B is the `k×n`
/// matrix with `B[p][j] = w[j·k + p]`. This is the linear layer's
/// weight layout (`W[out, in]`, `B = Wᵀ`).
///
/// # Panics
///
/// Panics if `w` or `buf` is shorter than the plan requires.
pub fn pack_b_transposed_into(plan: &GemmPlan, w: &[f32], buf: &mut [f32]) {
    let (k, n) = (plan.k, plan.n);
    assert_eq!(w.len(), n * k, "W length mismatch");
    assert!(
        buf.len() >= plan.packed_b_elems(),
        "packed-B buffer too small"
    );
    for jp in 0..plan.n_panels() {
        let j0 = jp * NR;
        let dst = &mut buf[jp * NR * k..(jp + 1) * NR * k];
        for c in 0..NR {
            let col = j0 + c;
            if col < n {
                let src = &w[col * k..col * k + k];
                for (p, &v) in src.iter().enumerate() {
                    dst[p * NR + c] = v;
                }
            } else {
                for p in 0..k {
                    dst[p * NR + c] = 0.0;
                }
            }
        }
    }
    obs::count(
        Metric::GemmBytesPacked,
        (plan.packed_b_elems() * std::mem::size_of::<f32>()) as u64,
    );
}

/// Packs an exactly-ternary `a[m×k]` (row-major) as 2-bit codes in the
/// layout of [`pack_a_into`]: value `(r, p)` of panel `ip` is code
/// `p·MR + r` of the panel's [`GemmPlan::code_panel_words`] words, at
/// bits `2·(i % 16)` of word `i / 16`. A positive value codes `0b01`, a
/// negative one `0b10`, `+0.0` `0b00` and `−0.0` `0b11`; rows beyond `m`
/// code `+0.0`, like the f32 panels' padding. The magnitudes are not
/// stored: every positive value must be one number and every negative
/// value one number, which the caller passes with the words as a
/// [`CodePanels`].
///
/// # Panics
///
/// Panics if `a` or `buf` is shorter than the plan requires.
pub fn pack_a_codes_into(plan: &GemmPlan, a: &[f32], buf: &mut [u32]) {
    let (m, k) = (plan.m, plan.k);
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert!(
        buf.len() >= plan.packed_a_code_words(),
        "A code buffer too small"
    );
    let words = plan.code_panel_words();
    for ip in 0..plan.m_panels() {
        let rows = MR.min(m - ip * MR);
        let src = &a[ip * MR * k..(ip * MR + rows) * k];
        let dst = &mut buf[ip * words..(ip + 1) * words];
        dst.fill(0);
        for p in 0..k {
            for r in 0..rows {
                // Bit 1 is the sign bit, bit 0 "positive or −0.0":
                // branch-free, as the signs of trained weights are
                // unpredictable.
                let v = src[r * k + p];
                let negative_zero = v.to_bits() == (-0.0f32).to_bits();
                let code = (v.to_bits() >> 31) << 1 | u32::from(v > 0.0 || negative_zero);
                let i = p * MR + r;
                dst[i / CODES_PER_WORD] |= code << (2 * (i % CODES_PER_WORD));
            }
        }
    }
    obs::count(
        Metric::GemmBytesPacked,
        (plan.packed_a_code_words() * std::mem::size_of::<u32>()) as u64,
    );
}

/// An A operand held as code panels ([`pack_a_codes_into`]) and the two
/// magnitudes its codes stand for.
#[derive(Clone, Copy, Debug)]
pub struct CodePanels<'a> {
    /// The code words, [`GemmPlan::code_panel_words`] per A panel.
    pub words: &'a [u32],
    /// The value of code `0b01`.
    pub positive: f32,
    /// The magnitude of code `0b10`, which stands for `−negative`.
    pub negative: f32,
}

impl CodePanels<'_> {
    /// The value of each code, by code.
    fn lut(&self) -> [f32; 4] {
        [0.0, self.positive, -self.negative, -0.0]
    }
}

/// The A operand of a prepacked product.
#[derive(Clone, Copy, Debug)]
pub enum PackedA<'a> {
    /// f32 MR-row panels ([`pack_a_into`]).
    F32(&'a [f32]),
    /// 2-bit codes in the same panel layout, decoded into f32 panels one
    /// block at a time.
    Codes(CodePanels<'a>),
}

/// Decodes `out.len()` codes of one code panel, from code `start` on:
/// portable code up to the first whole word and after the last one, and
/// whole words on `kernel`'s decoder in between.
fn decode_codes(kernel: MicroKernel, words: &[u32], start: usize, lut: [f32; 4], out: &mut [f32]) {
    let decode_one =
        |i: usize| lut[(words[i / CODES_PER_WORD] >> (2 * (i % CODES_PER_WORD))) as usize & 0b11];
    let head = start
        .next_multiple_of(CODES_PER_WORD)
        .min(start + out.len())
        - start;
    let (head_out, rest) = out.split_at_mut(head);
    for (i, v) in (start..).zip(head_out) {
        *v = decode_one(i);
    }
    let first = (start + head) / CODES_PER_WORD;
    let whole = rest.len() / CODES_PER_WORD;
    let (body, tail) = rest.split_at_mut(whole * CODES_PER_WORD);
    decode_words(kernel, &words[first..first + whole], lut, body);
    for (i, v) in ((first + whole) * CODES_PER_WORD..).zip(tail) {
        *v = decode_one(i);
    }
}

/// Decodes whole code words: `out` holds 16 floats per word.
fn decode_words(kernel: MicroKernel, words: &[u32], lut: [f32; 4], out: &mut [f32]) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx512` is only ever a kernel `MicroKernel::supported`
        // confirmed (the driver asserts it on entry).
        MicroKernel::Avx512 => unsafe { decode_words_avx512(words, lut, out) },
        _ => {
            for (&word, dst) in words.iter().zip(out.chunks_exact_mut(CODES_PER_WORD)) {
                for (c, v) in dst.iter_mut().enumerate() {
                    *v = lut[(word >> (2 * c)) as usize & 0b11];
                }
            }
        }
    }
}

/// [`decode_words`] on AVX-512F: per word, one broadcast and a variable
/// right shift (`vpsrlvd`) that brings code `c` to the low bits of lane
/// `c`, then a `vpermps` from the four-entry table repeated four times —
/// `vpermps` reads an index's low four bits, so the next code in bits
/// 2–3 needs no mask. Three instructions per 16 floats.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn decode_words_avx512(words: &[u32], lut: [f32; 4], out: &mut [f32]) {
    use core::arch::x86_64::*;
    let [a, b, c, d] = lut;
    let table = _mm512_setr_ps(a, b, c, d, a, b, c, d, a, b, c, d, a, b, c, d);
    let shifts = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    for (&word, dst) in words.iter().zip(out.chunks_exact_mut(CODES_PER_WORD)) {
        let codes = _mm512_srlv_epi32(_mm512_set1_epi32(word as i32), shifts);
        // SAFETY: `dst` is 16 floats, the store's width; the unaligned
        // form needs no alignment.
        _mm512_storeu_ps(dst.as_mut_ptr(), _mm512_permutexvar_ps(codes, table));
    }
}

/// Which micro-kernel the packed engine (and every other dispatched
/// kernel in this crate) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MicroKernel {
    Scalar,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2Fma,
    /// [`Avx2Fma`](Self::Avx2Fma) everywhere except the f32 full-width
    /// tile, which composes up to two A panels × two B panels in ZMM
    /// registers: [`microkernel_avx512`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl MicroKernel {
    /// Whether this host can execute the kernel. Every `unsafe` call
    /// into a `#[target_feature]` body in this crate rests on it:
    /// [`active_kernel`] only returns supported kernels and
    /// [`gemm_prepacked_on`] asserts it on entry.
    pub(crate) fn supported(self) -> bool {
        match self {
            MicroKernel::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            MicroKernel::Avx2Fma => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx512 => {
                MicroKernel::Avx2Fma.supported() && is_x86_feature_detected!("avx512f")
            }
        }
    }

    /// The kernels this host can run, slowest first: what the
    /// cross-kernel tests and benches iterate over.
    pub(crate) fn available() -> impl Iterator<Item = MicroKernel> {
        [
            MicroKernel::Scalar,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            MicroKernel::Avx2Fma,
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx512,
        ]
        .into_iter()
        .filter(|k| k.supported())
    }

    fn name(self) -> &'static str {
        match self {
            MicroKernel::Scalar => "scalar",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            MicroKernel::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx512 => "avx512f",
        }
    }
}

/// Runtime kernel selection, resolved once per process: the widest
/// kernel the host supports. Set `CNN_STACK_GEMM_FORCE_SCALAR=1` (before
/// the first GEMM) to pin the portable kernel for A/B comparisons.
pub(crate) fn active_kernel() -> MicroKernel {
    static KERNEL: OnceLock<MicroKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        if std::env::var_os("CNN_STACK_GEMM_FORCE_SCALAR").is_some() {
            return MicroKernel::Scalar;
        }
        MicroKernel::available()
            .last()
            .expect("the scalar kernel is always available")
    })
}

/// Name of the micro-kernel the packed engine will use on this host
/// (`"avx512f"`, `"avx2+fma"` or `"scalar"`). Benchmarks record it next
/// to their numbers.
pub fn gemm_kernel_name() -> &'static str {
    active_kernel().name()
}

/// Bench hook, not API: the [`gemm_kernel_name`]-style names of every
/// micro-kernel this host can run, slowest first. `MicroKernel` stays
/// crate-private; this and [`gemm_prepacked_named`] are how
/// `benches/kernels.rs` prints one row per kernel.
#[doc(hidden)]
pub fn gemm_kernel_names() -> Vec<&'static str> {
    MicroKernel::available().map(MicroKernel::name).collect()
}

/// Bench hook, not API: [`gemm_prepacked`] on the micro-kernel called
/// `kernel` (one of [`gemm_kernel_names`]).
///
/// # Panics
///
/// Panics if this host has no kernel of that name, or as
/// [`gemm_prepacked`].
#[doc(hidden)]
pub fn gemm_prepacked_named(
    kernel: &str,
    plan: &GemmPlan,
    packed_a: &[f32],
    packed_b: &[f32],
    c: &mut [f32],
    threads: usize,
    schedule: Schedule,
) {
    let kernel = MicroKernel::available()
        .find(|k| k.name() == kernel)
        .unwrap_or_else(|| panic!("no micro-kernel named {kernel:?} on this host"));
    gemm_prepacked_on(
        kernel,
        plan,
        PackedA::F32(packed_a),
        packed_b,
        c,
        threads,
        schedule,
        GemmEpilogue::None,
    );
}

/// Live-column count up to which a B panel runs the half-width tile:
/// one 8-lane vector per accumulator row instead of two.
const HALF_NR: usize = NR / 2;

/// Portable micro-kernel: `acc[MR][..W] += A-panel-block · B-panel-block`
/// over `a.len()/MR` reduction steps, `W` being the full tile width
/// [`NR`] or the half tile [`HALF_NR`] (lanes `W..` are left untouched).
/// Written so the inner loop autovectorises: fixed-width rows,
/// `chunks_exact`, no bounds checks in the hot loop.
fn microkernel_scalar<const W: usize>(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let ap: &[f32; MR] = ap.try_into().expect("chunks_exact yields MR");
        let bp: &[f32; NR] = bp.try_into().expect("chunks_exact yields NR");
        for r in 0..MR {
            let ar = ap[r];
            let row = &mut acc[r];
            for c in 0..W {
                row[c] += ar * bp[c];
            }
        }
    }
}

/// AVX2/FMA micro-kernel: 12 YMM accumulators (6 rows × 2 vectors of 8
/// lanes), one broadcast per A value, two loads per B step.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA (checked once in
/// [`active_kernel`]). `a.len()` must be a multiple of `MR` and
/// `b.len()/NR` must equal `a.len()/MR`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    debug_assert_eq!(a.len() % MR, 0);
    debug_assert_eq!(b.len() % NR, 0);
    debug_assert_eq!(a.len() / MR, b.len() / NR);
    let kc = a.len() / MR;

    // SAFETY (all intrinsics below): loads/stores stay inside `a`, `b`
    // and `acc`, whose lengths are checked above; alignment is not
    // required by the unaligned (`_mm256_loadu_ps`/`_mm256_storeu_ps`)
    // forms.
    let mut c00 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c01 = _mm256_loadu_ps(acc[0].as_ptr().add(8));
    let mut c10 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c11 = _mm256_loadu_ps(acc[1].as_ptr().add(8));
    let mut c20 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c21 = _mm256_loadu_ps(acc[2].as_ptr().add(8));
    let mut c30 = _mm256_loadu_ps(acc[3].as_ptr());
    let mut c31 = _mm256_loadu_ps(acc[3].as_ptr().add(8));
    let mut c40 = _mm256_loadu_ps(acc[4].as_ptr());
    let mut c41 = _mm256_loadu_ps(acc[4].as_ptr().add(8));
    let mut c50 = _mm256_loadu_ps(acc[5].as_ptr());
    let mut c51 = _mm256_loadu_ps(acc[5].as_ptr().add(8));

    let mut ap = a.as_ptr();
    let mut bp = b.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        let a0 = _mm256_set1_ps(*ap);
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        let a1 = _mm256_set1_ps(*ap.add(1));
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        let a2 = _mm256_set1_ps(*ap.add(2));
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        let a3 = _mm256_set1_ps(*ap.add(3));
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
        let a4 = _mm256_set1_ps(*ap.add(4));
        c40 = _mm256_fmadd_ps(a4, b0, c40);
        c41 = _mm256_fmadd_ps(a4, b1, c41);
        let a5 = _mm256_set1_ps(*ap.add(5));
        c50 = _mm256_fmadd_ps(a5, b0, c50);
        c51 = _mm256_fmadd_ps(a5, b1, c51);
        ap = ap.add(MR);
        bp = bp.add(NR);
    }

    _mm256_storeu_ps(acc[0].as_mut_ptr(), c00);
    _mm256_storeu_ps(acc[0].as_mut_ptr().add(8), c01);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c10);
    _mm256_storeu_ps(acc[1].as_mut_ptr().add(8), c11);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c20);
    _mm256_storeu_ps(acc[2].as_mut_ptr().add(8), c21);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c30);
    _mm256_storeu_ps(acc[3].as_mut_ptr().add(8), c31);
    _mm256_storeu_ps(acc[4].as_mut_ptr(), c40);
    _mm256_storeu_ps(acc[4].as_mut_ptr().add(8), c41);
    _mm256_storeu_ps(acc[5].as_mut_ptr(), c50);
    _mm256_storeu_ps(acc[5].as_mut_ptr().add(8), c51);
}

/// Half-width twin of [`microkernel_avx2`] for B panels with at most
/// [`HALF_NR`] live columns: six accumulators over the first 8 lanes of
/// the same `NR`-wide packed panel. Lane for lane it is the same FMA
/// ladder, so the live lanes are bit-identical to the full tile's; the
/// upper 8 lanes of `acc` are left untouched.
///
/// # Safety
///
/// As [`microkernel_avx2`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2_half(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    debug_assert_eq!(a.len() % MR, 0);
    debug_assert_eq!(b.len() % NR, 0);
    debug_assert_eq!(a.len() / MR, b.len() / NR);
    let kc = a.len() / MR;

    // SAFETY (all intrinsics below): loads/stores stay inside `a`, `b`
    // and the first 8 lanes of each `acc` row, whose lengths are
    // checked above; the unaligned forms need no alignment.
    let mut c0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c3 = _mm256_loadu_ps(acc[3].as_ptr());
    let mut c4 = _mm256_loadu_ps(acc[4].as_ptr());
    let mut c5 = _mm256_loadu_ps(acc[5].as_ptr());

    let mut ap = a.as_ptr();
    let mut bp = b.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bp);
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap), b0, c0);
        c1 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(1)), b0, c1);
        c2 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(2)), b0, c2);
        c3 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(3)), b0, c3);
        c4 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(4)), b0, c4);
        c5 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(5)), b0, c5);
        ap = ap.add(MR);
        bp = bp.add(NR);
    }

    _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
    _mm256_storeu_ps(acc[4].as_mut_ptr(), c4);
    _mm256_storeu_ps(acc[5].as_mut_ptr(), c5);
}

/// One C row per accumulator row of the largest AVX-512 tile. Row `r`
/// of the tile adds into `c[r]`, whose length is the row's live column
/// count; a row past the ragged bottom edge is an empty slice.
#[cfg(target_arch = "x86_64")]
type TileRows<'c> = [&'c mut [f32]; 2 * MR];

/// The AVX-512F micro-kernel: `AP` ∈ {1, 2} vertically adjacent A panels
/// × `BP` ∈ {1, 2} adjacent B panels of the unchanged packed layouts,
/// `AP·MR × BP·NR` outputs in `AP·MR·BP` ZMM accumulators. The 2×2 tile
/// issues 2 B loads and 12 broadcasts per 24 FMAs (the 2×1 tile it
/// replaced: 1 + 12 per 12); 2×1, 1×2 and 1×1 take the odd last panel
/// of a row chunk or column chunk. A ZMM register is a whole `NR`-wide
/// accumulator row, so the packed layouts are exactly the ones
/// [`microkernel_avx2`] reads.
///
/// Accumulators start at zero, run the `kc` FMAs of this block, and are
/// added into C **from registers**: `c[r] = acc + c[r]` over the
/// `c[r].len()` live lanes (masked load and store, so a ragged last
/// panel or a short last A panel touches nothing beyond the slice),
/// clamped at zero when `relu` (the caller passes it on the last `kc`
/// block only). Every lane therefore sees the same FMA sequence and
/// the same single add per block as the stack-tile kernels, so finite
/// and infinite outputs are bit-identical to theirs. A NaN output is a
/// NaN in both, but its sign and payload are not promised: when an
/// `Inf − Inf` partial sum meets a propagated input NaN, x86 returns
/// whichever operand the compiler placed first, and LLVM may commute a
/// floating-point add.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F
/// ([`MicroKernel::supported`]). Every `a[i].len()` must be the same
/// multiple `kc·MR` of `MR`, every `b[j].len()` must be `kc·NR`, and no
/// `c[r]` may be longer than `BP·NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512<const AP: usize, const BP: usize>(
    a: [&[f32]; AP],
    b: [&[f32]; BP],
    c: &mut TileRows<'_>,
    relu: bool,
) {
    use core::arch::x86_64::*;

    let kc = a[0].len() / MR;
    debug_assert!(a.iter().all(|p| p.len() == kc * MR));
    debug_assert!(b.iter().all(|p| p.len() == kc * NR));
    debug_assert!(c.iter().all(|row| row.len() <= BP * NR));

    // SAFETY (all intrinsics below): the reduction loop reads `kc`
    // steps of `MR` floats from each A panel and `NR` from each B panel
    // — their checked lengths — through the unaligned load forms. The
    // constant-trip loops unroll, so `acc` lives in `AP·MR·BP` ZMM
    // registers.
    let mut acc = [[[_mm512_setzero_ps(); BP]; MR]; AP];
    let mut ap = a.map(<[f32]>::as_ptr);
    let mut bp = b.map(<[f32]>::as_ptr);
    for _ in 0..kc {
        let mut bv = [_mm512_setzero_ps(); BP];
        for (v, p) in bv.iter_mut().zip(&mut bp) {
            *v = _mm512_loadu_ps(*p);
            *p = p.add(NR);
        }
        for (tile, p) in acc.iter_mut().zip(&mut ap) {
            for (r, row) in tile.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*p.add(r));
                for (c, &v) in row.iter_mut().zip(&bv) {
                    *c = _mm512_fmadd_ps(av, v, *c);
                }
            }
            *p = p.add(MR);
        }
    }

    // `c = acc + c`, written out per accumulator so every index into
    // `acc` is a constant: a loop the optimiser declines to unroll would
    // index it dynamically and push all of it through the stack on
    // every reduction step. Arms beyond this instance's `AP`/`BP` fold
    // away.
    let zero = _mm512_setzero_ps();
    macro_rules! add_into_c {
        ($i:literal, $r:literal, $j:literal) => {
            if $i < AP && $j < BP && c[$i * MR + $r].len() > $j * NR {
                let row = &mut *c[$i * MR + $r];
                let lanes = (row.len() - $j * NR).min(NR);
                let mask = ((1u32 << lanes) - 1) as __mmask16;
                // SAFETY: `j·NR < row.len()`, and the mask enables only
                // lanes `< row.len() − j·NR`, so the load and the store
                // stay inside `row`.
                let p = row.as_mut_ptr().add($j * NR);
                let sum = _mm512_add_ps(acc[$i][$r][$j], _mm512_maskz_loadu_ps(mask, p));
                // `max(sum, 0)` returns its second operand on NaN, like
                // `f32::max(sum, 0.0)`.
                let out = if relu { _mm512_max_ps(sum, zero) } else { sum };
                _mm512_mask_storeu_ps(p, mask, out);
            }
        };
        ($i:literal, $r:literal) => {
            add_into_c!($i, $r, 0);
            add_into_c!($i, $r, 1);
        };
        ($i:literal) => {
            add_into_c!($i, 0);
            add_into_c!($i, 1);
            add_into_c!($i, 2);
            add_into_c!($i, 3);
            add_into_c!($i, 4);
            add_into_c!($i, 5);
        };
    }
    add_into_c!(0);
    add_into_c!(1);
}

/// Dispatches one `MR×NR` reduction block to the given micro-kernel;
/// `half` selects the [`HALF_NR`]-lane tile (the caller's panel has no
/// live column beyond it). [`MicroKernel::Avx512`] runs the AVX2 bodies
/// here: its own tile adds into C itself and is dispatched by the
/// driver, which sends only half tiles this way.
#[inline]
fn microkernel(kernel: MicroKernel, half: bool, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    match (kernel, half) {
        (MicroKernel::Scalar, false) => microkernel_scalar::<NR>(a, b, acc),
        (MicroKernel::Scalar, true) => microkernel_scalar::<HALF_NR>(a, b, acc),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: a SIMD variant only reaches here after
        // `MicroKernel::supported` confirmed AVX2 and FMA (`Avx512`
        // implies both); the slice-length contract is upheld by the
        // panel driver.
        (MicroKernel::Avx2Fma, false) => unsafe { microkernel_avx2(a, b, acc) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as above.
        (MicroKernel::Avx2Fma, true) => unsafe { microkernel_avx2_half(a, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (MicroKernel::Avx512, false) => unsafe { microkernel_avx2(a, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (MicroKernel::Avx512, true) => unsafe { microkernel_avx2_half(a, b, acc) },
    }
}

/// One step of [`blocked_walk`]: the `kc` block `[pc, pc + kc)` of the
/// product restricted to A panels `[ip0, ip1)` (one row chunk) and B
/// panels `[jp0, jp1)` (one column chunk).
#[derive(Clone, Copy)]
struct Block {
    pc: usize,
    kc: usize,
    /// Whether this is the last `kc` block — the only one on which a
    /// fused epilogue may clamp, since earlier blocks leave partial
    /// sums in C.
    last: bool,
    ip0: usize,
    ip1: usize,
    jp0: usize,
    jp1: usize,
}

/// The one loop nest of the packed engine, shared by every kernel, A
/// operand and thread count: column chunk → `kc` block → row chunk,
/// `body` doing the panels of each [`Block`] with the state `grain`
/// made for its grain (a code operand's decode buffer). With K
/// outside the row chunks, the `kc × nc` B block is re-read from L2 by
/// every row chunk and A is streamed from memory once per column chunk.
///
/// A parallel grain is one column chunk × one contiguous range of A
/// panels cut into row chunks. The `min(threads, pairs)` ranges (one
/// when serial) are balanced by panel *pair* — the AVX-512 tile's
/// height — not by row chunk: `m = 128` is 22 panels, 10 + 12 on two
/// threads where whole 16-panel chunks would split it 16 + 6. A product
/// too short to hand every thread a row range narrows its column chunk
/// until every thread has a grain (a batch-8 `Linear` is two A panels).
/// Grains own disjoint regions of C, and each C element receives its
/// `kc` blocks in ascending order whatever the split. Two ranges per
/// thread measured within this host's noise of one (EXPERIMENTS
/// §PR 23).
fn blocked_walk<S>(
    plan: &GemmPlan,
    threads: usize,
    schedule: Schedule,
    grain: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, Block) + Sync,
) {
    assert!(threads > 0, "at least one thread required");
    let (m_panels, n_panels) = (plan.m_panels(), plan.n_panels());
    let pairs = m_panels.div_ceil(2);
    let ranges = threads.min(pairs);
    // Whole column chunks unless that leaves threads idle; an even
    // panel count keeps the two-panel B tile.
    let chunk_panels = (plan.nc / NR).min(
        n_panels
            .div_ceil(threads.div_ceil(ranges))
            .next_multiple_of(2),
    );
    parallel_tiles(
        threads,
        ranges,
        n_panels.div_ceil(chunk_panels),
        schedule,
        |range, cc| {
            let jp0 = cc * chunk_panels;
            let jp1 = (jp0 + chunk_panels).min(n_panels);
            let p0 = 2 * (range * pairs / ranges);
            let p1 = (2 * ((range + 1) * pairs / ranges)).min(m_panels);
            let mut state = grain();
            let mut pc = 0;
            while pc < plan.k {
                let kc = plan.kc.min(plan.k - pc);
                for ip0 in (p0..p1).step_by(plan.mc / MR) {
                    body(
                        &mut state,
                        Block {
                            pc,
                            kc,
                            last: pc + kc >= plan.k,
                            ip0,
                            ip1: (ip0 + plan.mc / MR).min(p1),
                            jp0,
                            jp1,
                        },
                    );
                }
                pc += kc;
            }
        },
    );
}

/// `C += acc` (clamped at zero when `relu`) for the live rows and
/// columns of A panel `ip` × B panel `jp`: the write-back of every
/// kernel that accumulates into a stack tile.
///
/// # Safety
///
/// The caller's grain must own rows `[ip·MR, ip·MR + MR)` × columns
/// `[jp·NR, jp·NR + NR)` of the `m×n` matrix behind `writer`.
unsafe fn write_back(
    writer: &DisjointWriter,
    (m, n): (usize, usize),
    (ip, jp): (usize, usize),
    acc: &[[f32; NR]; MR],
    relu: bool,
) {
    let (i0, j0) = (ip * MR, jp * NR);
    let cols = NR.min(n - j0);
    for (r, acc_row) in acc.iter().enumerate().take(MR.min(m - i0)) {
        let at = (i0 + r) * n + j0;
        // SAFETY: inside the tile the caller owns; distinct grains own
        // disjoint tiles and the buffer outlives the parallel region.
        let dst = unsafe { writer.slice_mut(at, at + cols) };
        if relu {
            for (d, &v) in dst.iter_mut().zip(&acc_row[..cols]) {
                *d = (*d + v).max(0.0);
            }
        } else {
            for (d, &v) in dst.iter_mut().zip(&acc_row[..cols]) {
                *d += v;
            }
        }
    }
}

/// Packed GEMM over pre-packed operands: `c[m×n] += packed_a · packed_b`.
///
/// Both operands must be packed with this `plan`'s shape (see
/// [`pack_a_into`] / [`pack_b_into`]). The product is cut into column
/// chunks × panel-balanced row ranges, distributed over `threads` workers
/// via `cnn_stack_parallel::parallel_tiles`; each grain walks K in `kc`
/// blocks outside its row chunks, so the active B block stays
/// cache-resident while every row chunk reuses it. Never allocates.
///
/// # Panics
///
/// Panics if a buffer is shorter than the plan requires.
pub fn gemm_prepacked(
    plan: &GemmPlan,
    packed_a: &[f32],
    packed_b: &[f32],
    c: &mut [f32],
    threads: usize,
    schedule: Schedule,
) {
    gemm_prepacked_epilogue(
        plan,
        PackedA::F32(packed_a),
        packed_b,
        c,
        threads,
        schedule,
        GemmEpilogue::None,
    );
}

/// [`gemm_prepacked`] with a fused [`GemmEpilogue`] and either A
/// operand: the activation is applied in the micro-kernel's write-back
/// on the final `kc` reduction block, so a fused conv/linear + ReLU
/// costs zero extra passes over `C`. A code operand is decoded one A
/// panel pair's `kc` steps at a time and run on the same tile, so its
/// product is bit for bit the f32 panels' of the values it encodes.
///
/// # Panics
///
/// Panics if a buffer is shorter than the plan requires, or a code
/// operand's plan has a longer `kc` than [`GemmPlan::new`] chooses.
#[allow(clippy::too_many_arguments)] // low-level kernel: the argument list *is* the GEMM shape
pub fn gemm_prepacked_epilogue(
    plan: &GemmPlan,
    a: PackedA<'_>,
    packed_b: &[f32],
    c: &mut [f32],
    threads: usize,
    schedule: Schedule,
    epilogue: GemmEpilogue,
) {
    gemm_prepacked_on(
        active_kernel(),
        plan,
        a,
        packed_b,
        c,
        threads,
        schedule,
        epilogue,
    );
}

/// [`gemm_prepacked_epilogue`] on an explicit micro-kernel: the driver
/// body, split out so the cross-kernel tests can hold every kernel the
/// host supports to the same product (on an AVX-512 host the AVX2 full
/// tile is otherwise never reached).
///
/// # Panics
///
/// As [`gemm_prepacked_epilogue`], or if the host cannot run `kernel`.
#[allow(clippy::too_many_arguments)] // low-level kernel: the argument list *is* the GEMM shape
pub(crate) fn gemm_prepacked_on(
    kernel: MicroKernel,
    plan: &GemmPlan,
    a: PackedA<'_>,
    packed_b: &[f32],
    c: &mut [f32],
    threads: usize,
    schedule: Schedule,
    epilogue: GemmEpilogue,
) {
    let GemmPlan { m, k, n, .. } = *plan;
    assert!(
        kernel.supported(),
        "{kernel:?} is not supported on this host"
    );
    match a {
        PackedA::F32(packed_a) => assert!(
            packed_a.len() >= plan.packed_a_elems(),
            "packed-A too small"
        ),
        PackedA::Codes(codes) => {
            assert!(
                codes.words.len() >= plan.packed_a_code_words(),
                "A codes too small"
            );
            assert!(
                2 * MR * plan.kc <= DECODED_ELEMS,
                "a code block of {} steps does not fit the decode buffer",
                plan.kc
            );
        }
    }
    assert!(
        packed_b.len() >= plan.packed_b_elems(),
        "packed-B too small"
    );
    assert_eq!(c.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 || k == 0 {
        // k == 0 is an empty reduction: C += 0, exactly like the naive
        // loop — but a fused epilogue still applies to the finished C.
        if k == 0 && epilogue == GemmEpilogue::Relu {
            for v in c.iter_mut() {
                *v = v.max(0.0);
            }
        }
        return;
    }

    // One batched registry update per call (the panel/k-block counts are
    // known analytically); the logical m·k·n — not the padded panel work
    // — so `gemm.flops` matches the IR's analytic FLOP count exactly. A
    // call that reads codes counts as `gemm.kernel.ternary`, whatever
    // tile ran.
    obs::with_current(|o| {
        let metrics = o.metrics();
        metrics.add(Metric::GemmCalls, 1);
        metrics.add(Metric::GemmFlops, 2 * (m * k * n) as u64);
        metrics.add(
            Metric::GemmPanels,
            (plan.m_panels() * plan.n_panels() * k.div_ceil(plan.kc)) as u64,
        );
        let kernel_metric = match (a, kernel) {
            (PackedA::Codes(_), _) => Metric::GemmKernelTernary,
            (_, MicroKernel::Scalar) => Metric::GemmKernelScalar,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            (_, MicroKernel::Avx2Fma) => Metric::GemmKernelAvx2,
            #[cfg(target_arch = "x86_64")]
            (_, MicroKernel::Avx512) => Metric::GemmKernelAvx512,
        };
        metrics.add(kernel_metric, 1);
    });

    let writer = DisjointWriter::new(c);
    let tiles = Tiles {
        kernel,
        plan,
        packed_b,
        writer: &writer,
        epilogue,
    };
    match a {
        PackedA::F32(packed_a) => blocked_walk(
            plan,
            threads,
            schedule,
            || (),
            |(), blk| tiles.run(&blk, &packed_a[(blk.ip0 * k + blk.pc) * MR..], k * MR),
        ),
        PackedA::Codes(codes) => {
            let (words, lut) = (plan.code_panel_words(), codes.lut());
            blocked_walk(
                plan,
                threads,
                schedule,
                || DecodedPair([0.0; DECODED_ELEMS]),
                |DecodedPair(decoded), blk| {
                    // Panel pair by panel pair — the AVX-512 tile's
                    // height — decoded into L1 and run against every B
                    // panel of the column chunk before the next pair: a
                    // pair is decoded once per block, and the decoded
                    // floats never leave L1. Each panel starts on a line.
                    let panel = blk.kc * MR;
                    let stride = panel.next_multiple_of(CODES_PER_WORD);
                    for ip0 in (blk.ip0..blk.ip1).step_by(2) {
                        let ip1 = (ip0 + 2).min(blk.ip1);
                        for (ip, dst) in (ip0..ip1).zip(decoded.chunks_exact_mut(stride)) {
                            let src = &codes.words[ip * words..(ip + 1) * words];
                            decode_codes(kernel, src, blk.pc * MR, lut, &mut dst[..panel]);
                        }
                        tiles.run(&Block { ip0, ip1, ..blk }, &decoded[..], stride);
                    }
                },
            );
        }
    }
}

/// What every block of one product shares: the tile, the shape, B, C
/// and the epilogue.
struct Tiles<'a> {
    kernel: MicroKernel,
    plan: &'a GemmPlan,
    packed_b: &'a [f32],
    writer: &'a DisjointWriter,
    epilogue: GemmEpilogue,
}

impl Tiles<'_> {
    /// Runs the tiles of `blk`: every B panel (pair) of its column range
    /// against every A panel (pair) of its row chunk, A panel `ip`'s `kc`
    /// steps starting `(ip - blk.ip0) · a_stride` floats into `a`.
    fn run(&self, blk: &Block, a: &[f32], a_stride: usize) {
        let Tiles {
            kernel,
            plan,
            packed_b,
            writer,
            epilogue,
        } = *self;
        let GemmPlan { m, k, n, .. } = *plan;
        let relu = epilogue == GemmEpilogue::Relu && blk.last;
        let a_block = |ip: usize| &a[(ip - blk.ip0) * a_stride..][..blk.kc * MR];
        let b_block = |jp: usize| &packed_b[(jp * k + blk.pc) * NR..][..blk.kc * NR];
        // The AVX-512 tile streams whole lines of B whenever the caller
        // packed into line-aligned storage (`AlignedBuf`, the session
        // arena): a panel and a `kc` block are both whole lines.
        debug_assert_eq!(
            b_block(blk.jp0).as_ptr() as usize % 64,
            packed_b.as_ptr() as usize % 64,
            "a packed-B block left its base's cache-line phase"
        );
        let mut jp = blk.jp0;
        while jp < blk.jp1 {
            // A panel whose live columns fit one vector runs the half
            // tile, skipping the all-padding upper half.
            let half = n - jp * NR <= HALF_NR;
            #[cfg(target_arch = "x86_64")]
            if kernel == MicroKernel::Avx512 && !half {
                // Two B panels wide when the next one is in this chunk
                // and is not itself a half tile (only the last panel of
                // the product can be short).
                let wide = jp + 1 < blk.jp1 && n - (jp + 1) * NR > HALF_NR;
                let bp = if wide { 2 } else { 1 };
                let cols = (bp * NR).min(n - jp * NR);
                let mut ip = blk.ip0;
                while ip < blk.ip1 {
                    let tall = ip + 1 < blk.ip1;
                    let ap = if tall { 2 } else { 1 };
                    let rows = (ap * MR).min(m - ip * MR);
                    // Rows past the short last A panel stay empty.
                    let mut c_rows: TileRows<'_> = std::array::from_fn(|_| &mut [][..]);
                    for (r, c_row) in c_rows.iter_mut().enumerate().take(rows) {
                        let at = (ip * MR + r) * n + jp * NR;
                        // SAFETY: this grain exclusively owns rows
                        // [ip0·MR, ip1·MR) × cols [jp0·NR, jp1·NR) of C;
                        // the tile's live rows and columns lie inside
                        // it, ranges from distinct grains never overlap,
                        // and the buffer outlives the parallel region
                        // (`slice_mut` debug-asserts the bounds).
                        *c_row = unsafe { writer.slice_mut(at, at + cols) };
                    }
                    // SAFETY: `kernel.supported()` was asserted on
                    // entry; every A and B block spans the same
                    // `blk.kc` steps, and no C row is longer than
                    // `bp·NR`.
                    unsafe {
                        match (tall, wide) {
                            (true, true) => microkernel_avx512(
                                [a_block(ip), a_block(ip + 1)],
                                [b_block(jp), b_block(jp + 1)],
                                &mut c_rows,
                                relu,
                            ),
                            (true, false) => microkernel_avx512(
                                [a_block(ip), a_block(ip + 1)],
                                [b_block(jp)],
                                &mut c_rows,
                                relu,
                            ),
                            (false, true) => microkernel_avx512(
                                [a_block(ip)],
                                [b_block(jp), b_block(jp + 1)],
                                &mut c_rows,
                                relu,
                            ),
                            (false, false) => {
                                microkernel_avx512([a_block(ip)], [b_block(jp)], &mut c_rows, relu)
                            }
                        }
                    }
                    ip += ap;
                }
                jp += bp;
                continue;
            }
            for ip in blk.ip0..blk.ip1 {
                let mut acc = [[0.0f32; NR]; MR];
                microkernel(kernel, half, a_block(ip), b_block(jp), &mut acc);
                // SAFETY: tile (ip, jp) lies in this grain's rows
                // [ip0·MR, ip1·MR) × cols [jp0·NR, jp1·NR) of C.
                unsafe { write_back(writer, (m, n), (ip, jp), &acc, relu) };
            }
            jp += 1;
        }
    }
}

/// Packed GEMM from unpacked operands: packs A and B into `scratch`
/// (sized by [`GemmPlan::scratch_elems`]), then runs [`gemm_prepacked`].
/// `c[m×n] += a[m×k] · b[k×n]`; never allocates.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions or
/// `scratch` is too small.
#[allow(clippy::too_many_arguments)] // low-level kernel: the argument list *is* the GEMM shape
pub fn gemm_packed_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut [f32],
    threads: usize,
    schedule: Schedule,
) {
    let plan = GemmPlan::new(m, k, n);
    assert!(
        scratch.len() >= plan.scratch_elems(),
        "packing scratch too small: {} < {}",
        scratch.len(),
        plan.scratch_elems()
    );
    // B first: its panels are whole cache lines, so they keep the
    // scratch's alignment (and A, read by broadcast, needs none).
    let (pb, pa) = scratch.split_at_mut(plan.packed_b_elems());
    pack_a_into(&plan, a, pa);
    pack_b_into(&plan, b, pb);
    gemm_prepacked(&plan, pa, pb, c, threads, schedule);
}

/// Computes `C = A · B` for rank-2 tensors with the default packed
/// kernel.
///
/// # Panics
///
/// Panics if `a` or `b` is not rank-2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use cnn_stack_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec([1, 2], vec![1.0, 2.0]);
/// let b = Tensor::from_vec([2, 1], vec![3.0, 4.0]);
/// assert_eq!(matmul(&a, &b).data(), &[11.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(a, b, GemmAlgorithm::Packed)
}

/// Computes `C = A · B` with an explicit kernel choice.
///
/// # Panics
///
/// Panics if `a` or `b` is not rank-2 or the inner dimensions disagree.
pub fn matmul_with(a: &Tensor, b: &Tensor, algo: GemmAlgorithm) -> Tensor {
    matmul_by(a, b, |a, b, c, m, k, n| gemm_into(a, b, c, m, k, n, algo))
}

/// Computes `C = A · B` with the naive reference kernel
/// ([`gemm_naive_into`]).
///
/// # Panics
///
/// Panics if `a` or `b` is not rank-2 or the inner dimensions disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_by(a, b, gemm_naive_into)
}

/// Computes `C = A · B` with the parameterised tiled kernel
/// ([`gemm_tiled_into`]).
///
/// # Panics
///
/// Panics if `a` or `b` is not rank-2 or the inner dimensions disagree.
pub fn matmul_tiled(a: &Tensor, b: &Tensor, cfg: TileConfig) -> Tensor {
    matmul_by(a, b, |a, b, c, m, k, n| {
        gemm_tiled_into(a, b, c, m, k, n, cfg)
    })
}

fn matmul_by(
    a: &Tensor,
    b: &Tensor,
    gemm: impl FnOnce(&[f32], &[f32], &mut [f32], usize, usize, usize),
) -> Tensor {
    let (m, ka) = a.shape().matrix();
    let (kb, n) = b.shape().matrix();
    assert_eq!(ka, kb, "inner dimension mismatch: {ka} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    gemm(a.data(), b.data(), c.data_mut(), m, ka, n);
    c
}

/// Raw-slice GEMM: `c[m×n] += a[m×k] · b[k×n]`, row-major.
///
/// The accumulating (`+=`) contract lets callers fold a bias initialisation
/// into `c` before the product.
///
/// [`GemmAlgorithm::Packed`] allocates a packing-scratch vector here for
/// convenience; allocation-free callers should hold their own scratch
/// and use [`gemm_packed_into`] / [`gemm_prepacked`].
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    algo: GemmAlgorithm,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    match algo {
        GemmAlgorithm::Blocked => gemm_tiled_into(a, b, c, m, k, n, TileConfig::new(64, 64, 64, 4)),
        GemmAlgorithm::Packed | GemmAlgorithm::TernaryPacked => {
            let plan = GemmPlan::new(m, k, n);
            let mut scratch = AlignedBuf::zeroed(plan.scratch_elems());
            gemm_packed_into(a, b, c, m, k, n, &mut scratch, 1, Schedule::Static);
        }
    }
}

/// GEMM over a sub-range of output rows: `c[rows, :] += a[rows, :] · b`.
///
/// This is the unit of work the OpenMP-style parallel executor distributes
/// across threads (one chunk of output rows per task).
///
/// # Panics
///
/// Panics if `row_end > m` or slice lengths are inconsistent.
// Low-level kernel signature: the argument list *is* the GEMM shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    row_start: usize,
    row_end: usize,
) {
    assert!(
        row_start <= row_end && row_end <= m,
        "row range out of bounds"
    );
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    for i in row_start..row_end {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        // No zero-value skip here: `0 · NaN` must stay NaN, exactly as in
        // `gemm_naive_into` — sparsity exploitation belongs to the CSR path.
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// The reference GEMM: textbook `ijk` triple loop, `c[m×n] += a[m×k] ·
/// b[k×n]`. O(MNK) with poor locality on large K — nothing runs it for
/// speed; the equivalence tests and benches hold every other kernel to
/// it.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm_naive_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

/// Scalar GEMM with parameterised register/cache tiling, `c[m×n] +=
/// a[m×k] · b[k×n]`; see [`TileConfig`]. [`GemmAlgorithm::Blocked`] is
/// this kernel at 64³ tiles.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm_tiled_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    cfg: TileConfig,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    let TileConfig {
        tile_m,
        tile_n,
        tile_k,
        unroll,
    } = cfg;
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + tile_m).min(m);
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + tile_k).min(k);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + tile_n).min(n);
                for i in i0..i1 {
                    for p in p0..p1 {
                        // No zero-value skip: `0 · NaN` must stay NaN to
                        // match `gemm_naive_into` on non-finite inputs.
                        let av = a[i * k + p];
                        let b_row = &b[p * n..p * n + n];
                        let c_row = &mut c[i * n..i * n + n];
                        let mut j = j0;
                        // Unrolled inner loop over the N tile.
                        while j + unroll <= j1 {
                            for u in 0..unroll {
                                c_row[j + u] += av * b_row[j + u];
                            }
                            j += unroll;
                        }
                        while j < j1 {
                            c_row[j] += av * b_row[j];
                            j += 1;
                        }
                    }
                }
                j0 = j1;
            }
            p0 = p1;
        }
        i0 = i1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(shape: [usize; 2], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_noop() {
        let a = random_tensor([5, 5], 1);
        let id = Tensor::from_fn([5, 5], |off| if off % 6 == 0 { 1.0 } else { 0.0 });
        assert!(matmul(&a, &id).allclose(&a, 1e-6));
        assert!(matmul(&id, &a).allclose(&a, 1e-6));
    }

    #[test]
    fn all_algorithms_agree() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (16, 16, 16),
            (33, 65, 17),
            (64, 128, 9),
        ] {
            let a = random_tensor([m, k], m as u64);
            let b = random_tensor([k, n], n as u64);
            let naive = matmul_naive(&a, &b);
            let blocked = matmul_with(&a, &b, GemmAlgorithm::Blocked);
            let tiled = matmul_tiled(&a, &b, TileConfig::new(8, 8, 8, 2));
            let packed = matmul_with(&a, &b, GemmAlgorithm::Packed);
            assert!(
                naive.allclose(&blocked, 1e-4),
                "blocked mismatch {m}x{k}x{n}"
            );
            assert!(naive.allclose(&tiled, 1e-4), "tiled mismatch {m}x{k}x{n}");
            assert!(naive.allclose(&packed, 1e-4), "packed mismatch {m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_degenerate_shapes_match_naive() {
        // Shapes the panel edges must handle: single row/col, m < MR,
        // n not a multiple of NR, k smaller and larger than kc.
        for &(m, k, n) in &[
            (1, 9, 1),
            (1, 1, 1),
            (MR - 1, 13, NR - 1),
            (MR + 1, 300, NR + 1),
            (2 * MR, 17, 3 * NR),
            (97, 260, 33),
        ] {
            let a = random_tensor([m, k], (m + k) as u64);
            let b = random_tensor([k, n], (k + n) as u64);
            let naive = matmul_naive(&a, &b);
            let packed = matmul_with(&a, &b, GemmAlgorithm::Packed);
            assert!(naive.allclose(&packed, 1e-4), "packed mismatch {m}x{k}x{n}");
        }
    }

    /// Every `(A panel, B panel, kc block)` exactly once, whatever the
    /// thread count; and the split itself on the shapes it was written
    /// for.
    #[test]
    fn blocked_walk_covers_once_and_balances_by_panel_pair() {
        use std::sync::Mutex;
        let blocks_of = |plan: &GemmPlan, threads: usize| {
            let seen = Mutex::new(Vec::new());
            let schedule = Schedule::Dynamic { chunk: 1 };
            blocked_walk(
                plan,
                threads,
                schedule,
                || (),
                |(), b| {
                    seen.lock().expect("no panic under the lock").push((
                        b.pc,
                        b.kc,
                        b.last,
                        b.ip0..b.ip1,
                        b.jp0..b.jp1,
                    ));
                },
            );
            seen.into_inner().expect("no panic under the lock")
        };
        for (m, k, n) in [(1, 1, 1), (13, 300, 40), (128, 600, 257), (193, 37, 300)] {
            let plan = GemmPlan::new(m, k, n);
            for threads in [1, 2, 3, 4, 7] {
                let k_blocks = k.div_ceil(plan.kc);
                let mut hits = vec![0u32; plan.m_panels() * plan.n_panels() * k_blocks];
                for (pc, kc, last, ips, jps) in blocks_of(&plan, threads) {
                    assert_eq!((pc % plan.kc, last), (0, pc + kc == k));
                    assert!(ips.len() <= plan.mc / MR && jps.len() <= plan.nc / NR);
                    for ip in ips {
                        for jp in jps.clone() {
                            hits[(ip * plan.n_panels() + jp) * k_blocks + pc / plan.kc] += 1;
                        }
                    }
                }
                assert!(hits.iter().all(|&h| h == 1), "{m}x{k}x{n} t{threads}");
            }
        }
        // VGG conv2_2 on two threads: 22 panels split 10 + 12, not the
        // 16 + 6 of whole row chunks.
        let mut rows: Vec<_> = blocks_of(&GemmPlan::new(128, 256, 256), 2)
            .into_iter()
            .map(|b| b.3)
            .collect();
        rows.sort_by_key(|r| r.start);
        assert_eq!(rows, [0..10, 10..22]);
        // A batch-8 `Linear` (two A panels, one pair) on four threads
        // quarters its only column chunk; serial it stays whole.
        let fc = GemmPlan::new(8, 256, 256);
        let mut cols: Vec<_> = blocks_of(&fc, 4).into_iter().map(|b| b.4).collect();
        cols.sort_by_key(|c| c.start);
        assert_eq!(cols, [0..4, 4..8, 8..12, 12..16]);
        assert_eq!(blocks_of(&fc, 1).len(), 1);
    }

    #[test]
    fn packed_parallel_matches_serial() {
        let (m, k, n) = (41, 129, 53);
        let a = random_tensor([m, k], 7);
        let b = random_tensor([k, n], 8);
        let serial = matmul_with(&a, &b, GemmAlgorithm::Packed);
        let plan = GemmPlan::new(m, k, n);
        let mut scratch = vec![0.0f32; plan.scratch_elems()];
        for threads in [2, 4] {
            let mut c = vec![0.0f32; m * n];
            gemm_packed_into(
                a.data(),
                b.data(),
                &mut c,
                m,
                k,
                n,
                &mut scratch,
                threads,
                Schedule::Dynamic { chunk: 1 },
            );
            let c = Tensor::from_vec([m, n], c);
            assert!(serial.allclose(&c, 1e-5), "threads={threads}");
        }
    }

    /// Bit patterns with every NaN mapped to one: what the cross-kernel
    /// tests compare. Kernels that run the same FMA sequence agree on
    /// every finite and infinite bit and on *where* the NaNs are, but a
    /// NaN's sign and payload are outside what Rust (or LLVM) promises:
    /// when an `Inf − Inf` partial sum is added to a C that already
    /// holds a propagated input NaN, x86 returns whichever operand came
    /// first, and the compiler may commute a floating-point add — so
    /// `acc + C` from registers and `C += acc` from a stack tile can
    /// legitimately yield `0xFFC00000` and `0x7FC00000`.
    fn nan_blind_bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
            .collect()
    }

    #[test]
    fn scalar_and_simd_kernels_agree() {
        // Drive every micro-kernel directly over the same packed panels
        // (two A panels × two B panels, so the AVX-512 tile has all four
        // of its shapes): SIMD within 1e-4 of scalar, and the SIMD
        // kernels equal bit for bit. On non-x86 hosts only the scalar
        // kernel exists.
        let (m, k, n) = (2 * MR, 37, 2 * NR);
        let a = random_tensor([m, k], 21);
        let b = random_tensor([k, n], 22);
        let plan = GemmPlan::new(m, k, n);
        let mut pa = vec![0.0f32; plan.packed_a_elems()];
        let mut pb = vec![0.0f32; plan.packed_b_elems()];
        pack_a_into(&plan, a.data(), &mut pa);
        pack_b_into(&plan, b.data(), &mut pb);
        let pa: [&[f32]; 2] = [&pa[..MR * k], &pa[MR * k..]];
        let pb: [&[f32]; 2] = [&pb[..NR * k], &pb[NR * k..]];
        // tile[i][j]: A panel i × B panel j, accumulated from zero.
        let mut scalar = [[[[0.0f32; NR]; MR]; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                microkernel_scalar::<NR>(pa[i], pb[j], &mut scalar[i][j]);
            }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if MicroKernel::Avx2Fma.supported() {
            let mut avx2 = [[[[0.0f32; NR]; MR]; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    // SAFETY: AVX2+FMA presence just checked; panel
                    // lengths are plan-consistent by construction.
                    unsafe { microkernel_avx2(pa[i], pb[j], &mut avx2[i][j]) };
                }
            }
            let flat = |t: &[[[[f32; NR]; MR]; 2]; 2]| {
                t.as_flattened().as_flattened().as_flattened().to_vec()
            };
            for (s, o) in flat(&scalar).iter().zip(flat(&avx2)) {
                assert!((s - o).abs() <= 1e-4, "avx2 vs scalar: {o} vs {s}");
            }
            #[cfg(target_arch = "x86_64")]
            if MicroKernel::Avx512.supported() {
                // The AVX-512 tile adds into C itself; from C = 0.25 it
                // must leave exactly `0.25 + acc` in its live lanes
                // (clamped under ReLU) and nothing anywhere else.
                for (ap, bp, relu) in [
                    (2, 2, false),
                    (2, 1, false),
                    (1, 2, true),
                    (1, 1, false),
                    (2, 2, true),
                ] {
                    let mut c = [[0.25f32; 2 * NR]; 2 * MR];
                    let mut rows = c.each_mut().map(|row| &mut row[..bp * NR]);
                    for row in &mut rows[ap * MR..] {
                        *row = &mut [];
                    }
                    // SAFETY: AVX-512F presence just checked; all panels
                    // span `k` steps and no row exceeds `bp·NR`.
                    unsafe {
                        match (ap, bp) {
                            (2, 2) => microkernel_avx512(pa, pb, &mut rows, relu),
                            (2, 1) => microkernel_avx512(pa, [pb[0]], &mut rows, relu),
                            (1, 2) => microkernel_avx512([pa[0]], pb, &mut rows, relu),
                            _ => microkernel_avx512([pa[0]], [pb[0]], &mut rows, relu),
                        }
                    }
                    for (r, row) in c.iter().enumerate() {
                        for (col, got) in row.iter().enumerate() {
                            let live = r < ap * MR && col < bp * NR;
                            let sum = 0.25 + avx2[r / MR][col / NR][r % MR][col % NR];
                            let want = match (live, relu) {
                                (false, _) => 0.25,
                                (true, false) => sum,
                                (true, true) => sum.max(0.0),
                            };
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "avx512 {ap}x{bp} relu={relu} at ({r},{col})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `c += a·b` through the whole driver on `kernel`, from a fixed
    /// bias, as [`nan_blind_bits`].
    fn driver_bits(
        kernel: MicroKernel,
        plan: &GemmPlan,
        a: PackedA<'_>,
        pb: &[f32],
        threads: usize,
        epilogue: GemmEpilogue,
    ) -> Vec<u32> {
        let mut c: Vec<f32> = (0..plan.m * plan.n)
            .map(|i| (i as f32 * 0.3).cos())
            .collect();
        let schedule = if threads == 1 {
            Schedule::Static
        } else {
            Schedule::Dynamic { chunk: 1 }
        };
        gemm_prepacked_on(kernel, plan, a, pb, &mut c, threads, schedule, epilogue);
        nan_blind_bits(&c)
    }

    #[test]
    fn every_kernel_agrees_at_driver_level() {
        // Every kernel the host supports over ragged products: m walks a
        // single panel, an exact pair, an odd tail, a last panel short
        // of MR, the 10⅔ panels of m = 64 and more than one row chunk
        // (three threads own a panel range each; under m = 13 they
        // split the column chunk instead); n the half tile, an
        // exact and a ragged single panel, a pair whose second panel is
        // a half tile (24, 40), ragged (25, 31, 33 → third) or exact
        // (32, 48), and more than one 256-column chunk (257 leaves a
        // one-column half tile in the second, 300 a ragged pair); k
        // both sides of `kc`. Together they reach all four AVX-512
        // tile shapes, the lane mask, the short last A panel and the
        // AVX2 half-tile fallback. NaN and ±Inf sit in A and B — B's
        // NaN in the last reduction row, so a NaN sum meets the ReLU
        // clamp on the last block. The SIMD kernels must agree bit for
        // bit outside NaNs and on where the NaNs are (same FMA sequence
        // per lane; see `nan_blind_bits`), and with themselves across
        // thread counts; scalar (mul + add, not fused) within 1e-4
        // wherever the value is finite, and non-finite in the same
        // places.
        let kernels: Vec<MicroKernel> = MicroKernel::available().collect();
        let (scalar, simd) = kernels.split_first().expect("scalar is always available");
        assert_eq!(*scalar, MicroKernel::Scalar);
        for m in [1, 5, 6, 7, 11, 12, 13, 64, 97, 193] {
            for n in [1, 4, 8, 9, 16, 17, 24, 25, 31, 32, 33, 40, 48, 70, 257, 300] {
                for k in [1, 37, 256, 257, 600] {
                    // The wide products only add column chunks: one k
                    // on each side of `kc` covers them.
                    if n > 70 && !matches!(k, 37 | 257) {
                        continue;
                    }
                    let mut a = random_tensor([m, k], (m * 1000 + k) as u64);
                    let mut b = random_tensor([k, n], (n * 1000 + k) as u64);
                    a.data_mut()[(m / 2) * k + k / 2] = f32::NAN;
                    a.data_mut()[(m - 1) * k] = f32::NEG_INFINITY;
                    b.data_mut()[(k / 3) * n + n / 2] = f32::INFINITY;
                    b.data_mut()[(k - 1) * n] = f32::NAN;
                    let plan = GemmPlan::new(m, k, n);
                    let mut pa = vec![0.0f32; plan.packed_a_elems()];
                    let mut pb = vec![0.0f32; plan.packed_b_elems()];
                    pack_a_into(&plan, a.data(), &mut pa);
                    pack_b_into(&plan, b.data(), &mut pb);
                    for epilogue in [GemmEpilogue::None, GemmEpilogue::Relu] {
                        let what = format!("{m}x{k}x{n} {epilogue:?}");
                        let want = driver_bits(*scalar, &plan, PackedA::F32(&pa), &pb, 1, epilogue);
                        assert_eq!(
                            want,
                            driver_bits(*scalar, &plan, PackedA::F32(&pa), &pb, 3, epilogue),
                            "{what}: scalar, threads 1 vs 3"
                        );
                        let Some(first) = simd.first() else {
                            continue;
                        };
                        let got = driver_bits(*first, &plan, PackedA::F32(&pa), &pb, 1, epilogue);
                        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            let (g, w) = (f32::from_bits(g), f32::from_bits(w));
                            assert!(
                                (g.is_nan() && w.is_nan())
                                    || g == w
                                    || (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                                "{what}: {first:?} vs scalar at {i}: {g} vs {w}"
                            );
                        }
                        for kernel in simd {
                            for threads in [1, 3] {
                                assert_eq!(
                                    got,
                                    driver_bits(
                                        *kernel,
                                        &plan,
                                        PackedA::F32(&pa),
                                        &pb,
                                        threads,
                                        epilogue
                                    ),
                                    "{what}: {kernel:?} ({threads} threads) vs {first:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relu_clamps_negative_zero_and_nan_alike_on_every_simd_kernel() {
        // A sum of exactly −0.0 on the last block: every product
        // underflows to −0.0 under FMA (the scalar kernel's separate
        // multiply and add give +0.0, so it is not held to this), C
        // starts at −0.0, and `max(−0.0, 0)` may be either zero unless
        // every write-back clamps the same way. One B column is NaN:
        // ReLU must flush it to zero in every tile shape. 13×41 and
        // 13×40 reach the 2×2, 1×2, 2×1 and 1×1 tiles and the half
        // tile.
        let simd: Vec<MicroKernel> = MicroKernel::available().skip(1).collect();
        for n in [40, 41] {
            let (m, k) = (13, 2);
            let a = vec![-1e-30f32; m * k];
            let mut b = vec![1e-30f32; k * n];
            b[n + 3] = f32::NAN;
            let plan = GemmPlan::new(m, k, n);
            let mut pa = vec![0.0f32; plan.packed_a_elems()];
            let mut pb = vec![0.0f32; plan.packed_b_elems()];
            pack_a_into(&plan, &a, &mut pa);
            pack_b_into(&plan, &b, &mut pb);
            for epilogue in [GemmEpilogue::None, GemmEpilogue::Relu] {
                let run = |kernel: MicroKernel| {
                    let mut c = vec![-0.0f32; m * n];
                    gemm_prepacked_on(
                        kernel,
                        &plan,
                        PackedA::F32(&pa),
                        &pb,
                        &mut c,
                        1,
                        Schedule::Static,
                        epilogue,
                    );
                    c
                };
                let Some(first) = simd.first().map(|&kernel| run(kernel)) else {
                    return;
                };
                for (i, v) in first.iter().enumerate() {
                    let want = match (i % n == 3, epilogue) {
                        (true, GemmEpilogue::None) => f32::NAN,
                        (true, GemmEpilogue::Relu) => 0.0,
                        (false, GemmEpilogue::None) => -0.0,
                        (false, GemmEpilogue::Relu) => (-0.0f32).max(0.0),
                    };
                    assert_eq!(
                        nan_blind_bits(&[*v]),
                        nan_blind_bits(&[want]),
                        "n={n} {epilogue:?} at {i}"
                    );
                }
                for &kernel in &simd[1..] {
                    assert_eq!(
                        nan_blind_bits(&first),
                        nan_blind_bits(&run(kernel)),
                        "n={n} {epilogue:?}: {kernel:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unaligned_operands_change_no_bit() {
        // Alignment is a speed matter only: every kernel reads through
        // the unaligned load forms, so a caller's plain `Vec` — here
        // packed A, packed B and C each pushed 1..3 floats off a cache
        // line — yields the bits of line-aligned operands.
        let (m, k, n) = (13, 300, 41);
        let a = random_tensor([m, k], 51);
        let b = random_tensor([k, n], 52);
        let plan = GemmPlan::new(m, k, n);
        let run = |kernel: MicroKernel, skew: usize| {
            let mut pa = AlignedBuf::zeroed(plan.packed_a_elems() + skew);
            let mut pb = AlignedBuf::zeroed(plan.packed_b_elems() + skew);
            let mut c = AlignedBuf::zeroed(m * n + skew);
            pack_a_into(&plan, a.data(), &mut pa[skew..]);
            pack_b_into(&plan, b.data(), &mut pb[skew..]);
            assert_eq!(pb[skew..].as_ptr() as usize % 64, 4 * skew);
            gemm_prepacked_on(
                kernel,
                &plan,
                PackedA::F32(&pa[skew..]),
                &pb[skew..],
                &mut c[skew..],
                1,
                Schedule::Static,
                GemmEpilogue::Relu,
            );
            c[skew..].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for kernel in MicroKernel::available() {
            let aligned = run(kernel, 0);
            for skew in 1..4 {
                assert_eq!(aligned, run(kernel, skew), "{kernel:?} skew {skew}");
            }
        }
    }

    #[test]
    fn half_tile_bit_matches_full_tile_lanes() {
        // Every dispatched kernel: the half tile's 8 lanes carry the
        // same bits as the full tile's first 8 (NaN/Inf included) and
        // the upper lanes are not written.
        let (m, k, n) = (MR, 41, HALF_NR);
        let a = random_tensor([m, k], 31);
        let mut b = random_tensor([k, n], 32);
        b.data_mut()[3] = f32::NAN;
        b.data_mut()[n + 5] = f32::INFINITY;
        let plan = GemmPlan::new(m, k, n);
        let mut pa = vec![0.0f32; plan.packed_a_elems()];
        let mut pb = vec![0.0f32; plan.packed_b_elems()];
        pack_a_into(&plan, a.data(), &mut pa);
        pack_b_into(&plan, b.data(), &mut pb);
        for kernel in MicroKernel::available() {
            let mut full = [[0.5f32; NR]; MR];
            let mut half = [[0.5f32; NR]; MR];
            microkernel(kernel, false, &pa, &pb, &mut full);
            microkernel(kernel, true, &pa, &pb, &mut half);
            for r in 0..MR {
                for c in 0..NR {
                    let want = if c < HALF_NR { full[r][c] } else { 0.5 };
                    assert_eq!(
                        half[r][c].to_bits(),
                        want.to_bits(),
                        "{kernel:?} lane ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn prepacked_b_reusable_across_calls() {
        // Pack B once, run two products against different A operands —
        // the plan-time weight-packing pattern the engine relies on.
        let (m, k, n) = (10, 24, 20);
        let b = random_tensor([k, n], 31);
        let plan = GemmPlan::new(m, k, n);
        let mut pb = vec![0.0f32; plan.packed_b_elems()];
        pack_b_into(&plan, b.data(), &mut pb);
        let mut pa = vec![0.0f32; plan.packed_a_elems()];
        for seed in [1u64, 2] {
            let a = random_tensor([m, k], seed);
            pack_a_into(&plan, a.data(), &mut pa);
            let mut c = vec![0.0f32; m * n];
            gemm_prepacked(&plan, &pa, &pb, &mut c, 1, Schedule::Static);
            let reference = matmul_naive(&a, &b);
            let c = Tensor::from_vec([m, n], c);
            assert!(reference.allclose(&c, 1e-4), "seed {seed}");
        }
    }

    #[test]
    fn pack_b_transposed_matches_explicit_transpose() {
        let (n, k) = (23, 17); // W is [n × k]; B = Wᵀ is [k × n].
        let w = random_tensor([n, k], 77);
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = w.data()[j * k + p];
            }
        }
        let plan = GemmPlan::new(4, k, n);
        let mut direct = vec![0.0f32; plan.packed_b_elems()];
        let mut via_transpose = vec![0.0f32; plan.packed_b_elems()];
        pack_b_transposed_into(&plan, w.data(), &mut direct);
        pack_b_into(&plan, &bt, &mut via_transpose);
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn non_finite_b_propagates_through_all_kernels() {
        // Regression for the old `av == 0.0 { continue }` skip: a zero in
        // A must still multiply a NaN in B (0 · NaN = NaN). Row 0 of A is
        // all zeros; B has a NaN and an Inf column.
        let (m, k, n) = (4, 5, 6);
        let mut a = vec![0.5f32; m * k];
        a[..k].fill(0.0); // row 0 ≡ 0
        let mut b = vec![1.0f32; k * n];
        b[2 * n + 1] = f32::NAN; // column 1 sees a NaN at k-step 2
        b[3 * n + 4] = f32::INFINITY; // column 4 sees +Inf (all products ≥ 0)
        type Kernel<'a> = &'a dyn Fn(&mut [f32]);
        let kernels: [(&str, Kernel); 4] = [
            ("naive", &|c| gemm_naive_into(&a, &b, c, m, k, n)),
            ("blocked", &|c| {
                gemm_into(&a, &b, c, m, k, n, GemmAlgorithm::Blocked)
            }),
            ("tiled", &|c| {
                gemm_tiled_into(&a, &b, c, m, k, n, TileConfig::new(8, 8, 8, 2))
            }),
            ("packed", &|c| {
                gemm_into(&a, &b, c, m, k, n, GemmAlgorithm::Packed)
            }),
        ];
        for (algo, kernel) in kernels {
            let mut c = vec![0.0f32; m * n];
            kernel(&mut c);
            for i in 0..m {
                assert!(
                    c[i * n + 1].is_nan(),
                    "row {i} col 1 must be NaN under {algo}, got {}",
                    c[i * n + 1]
                );
            }
            // The all-zero A row turns +Inf into 0 · Inf = NaN; other rows
            // accumulate +Inf.
            assert!(c[4].is_nan(), "0 · Inf must be NaN under {algo}");
            for i in 1..m {
                assert!(
                    c[i * n + 4] == f32::INFINITY,
                    "row {i} col 4 must be +Inf under {algo}"
                );
            }
        }
        // And through the row-partitioned kernel the parallel executor uses.
        let mut c = vec![0.0f32; m * n];
        gemm_rows_into(&a, &b, &mut c, m, k, n, 0, 2);
        gemm_rows_into(&a, &b, &mut c, m, k, n, 2, m);
        assert!(c[n + 1].is_nan() && c[4].is_nan());
    }

    #[test]
    fn gemm_rows_partition_equals_full() {
        let (m, k, n) = (10, 12, 8);
        let a = random_tensor([m, k], 42);
        let b = random_tensor([k, n], 43);
        let full = matmul_naive(&a, &b);
        let mut c = vec![0.0; m * n];
        gemm_rows_into(a.data(), b.data(), &mut c, m, k, n, 0, 4);
        gemm_rows_into(a.data(), b.data(), &mut c, m, k, n, 4, 10);
        let part = Tensor::from_vec([m, n], c);
        assert!(full.allclose(&part, 1e-5));
    }

    #[test]
    fn accumulates_into_c() {
        let a = Tensor::ones([2, 2]);
        let b = Tensor::ones([2, 2]);
        let mut c = vec![10.0; 4];
        gemm_naive_into(a.data(), b.data(), &mut c, 2, 2, 2);
        assert_eq!(c, vec![12.0; 4], "naive");
        let mut c = vec![10.0; 4];
        gemm_into(a.data(), b.data(), &mut c, 2, 2, 2, GemmAlgorithm::Packed);
        assert_eq!(c, vec![12.0; 4], "packed");
    }

    #[test]
    fn plan_sizes_are_consistent() {
        let plan = GemmPlan::new(512, 4608, 196);
        assert_eq!(plan.m_panels(), 512usize.div_ceil(MR));
        assert_eq!(plan.n_panels(), 196usize.div_ceil(NR));
        assert_eq!(
            plan.scratch_elems(),
            plan.packed_a_elems() + plan.packed_b_elems()
        );
        assert_eq!(plan.mc % MR, 0);
        assert_eq!(plan.nc % NR, 0);
        assert!(plan.kc >= 1 && plan.kc <= 4608);
        assert!(plan.row_chunks() * plan.col_chunks() >= 4);
        // Tiny shapes still produce valid (non-zero) blocking.
        let tiny = GemmPlan::new(1, 1, 1);
        assert_eq!(tiny.row_chunks(), 1);
        assert_eq!(tiny.col_chunks(), 1);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "unroll")]
    fn bad_unroll_rejected() {
        let _ = TileConfig::new(8, 8, 8, 3);
    }

    #[test]
    fn tile_config_default_valid() {
        let cfg = TileConfig::default();
        assert!(cfg.tile_m > 0 && cfg.unroll == 4);
    }

    /// Runs a packed product with and without the fused ReLU epilogue and
    /// returns both C buffers (bias-initialised so the `+=` contract is
    /// exercised too).
    fn fused_vs_sweep(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let plan = GemmPlan::new(m, k, n);
        let mut scratch = vec![f32::NAN; plan.scratch_elems()];
        let (pa, pb) = scratch.split_at_mut(plan.packed_a_elems());
        pack_a_into(&plan, a, pa);
        pack_b_into(&plan, b, pb);
        let bias: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut fused = bias.clone();
        gemm_prepacked_epilogue(
            &plan,
            PackedA::F32(pa),
            pb,
            &mut fused,
            1,
            Schedule::Static,
            GemmEpilogue::Relu,
        );
        let mut swept = bias;
        gemm_prepacked(&plan, pa, pb, &mut swept, 1, Schedule::Static);
        for v in swept.iter_mut() {
            *v = v.max(0.0);
        }
        (fused, swept)
    }

    #[test]
    fn relu_epilogue_bit_matches_separate_sweep() {
        // k = 300 > kc forces multiple reduction blocks: the epilogue must
        // fire only once the accumulator is complete.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR - 1, 13, NR - 1),
            (MR + 1, 300, NR + 1),
            (7, 256, 16),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 7 + 3) as f32 * 0.11).sin())
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 5 + 1) as f32 * 0.13).sin())
                .collect();
            let (fused, swept) = fused_vs_sweep(m, k, n, &a, &b);
            // Bit-identical, not just allclose: same adds, same max.
            assert_eq!(
                fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                swept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn relu_epilogue_flushes_non_finite_like_relu_layer() {
        let (m, k, n) = (4, 40, 20);
        let mut a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.17).sin()).collect();
        a[3] = f32::NAN;
        a[41] = f32::INFINITY;
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.19).cos()).collect();
        let (fused, swept) = fused_vs_sweep(m, k, n, &a, &b);
        assert_eq!(
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            swept.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // max(NaN, 0) == 0: no NaN survives the fused epilogue either.
        assert!(fused.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn relu_epilogue_applies_on_empty_reduction() {
        // k == 0: C += 0, but the fused activation still clamps C.
        let plan = GemmPlan::new(2, 0, 3);
        let mut c = vec![-1.0, 2.0, -3.0, 4.0, -5.0, 6.0];
        gemm_prepacked_epilogue(
            &plan,
            PackedA::F32(&[]),
            &[],
            &mut c,
            1,
            Schedule::Static,
            GemmEpilogue::Relu,
        );
        assert_eq!(c, vec![0.0, 2.0, 0.0, 4.0, 0.0, 6.0]);
    }

    /// A deterministic exactly-ternary `m×k` matrix over {−0.4, ±0, +0.7}
    /// (both zeros, so the `0b11` code is exercised).
    fn ternary_matrix(m: usize, k: usize, seed: u64) -> Vec<f32> {
        (0..m * k)
            .map(|i| match (i as u64 * 2654435761 + seed) % 7 {
                0 | 1 => 0.7,
                2 => -0.4,
                3 => -0.0,
                _ => 0.0,
            })
            .collect()
    }

    fn codes_of(plan: &GemmPlan, a: &[f32]) -> Vec<u32> {
        let mut words = vec![u32::MAX; plan.packed_a_code_words()];
        pack_a_codes_into(plan, a, &mut words);
        words
    }

    #[test]
    fn codes_decode_to_the_f32_panels_bit_for_bit() {
        // Every kernel's decoder, from every offset into a panel and for
        // every length through and past a word: the f32 panels of the
        // same matrix, −0.0 and the zero-padded rows included. k = 37
        // leaves a panel's last word part full.
        let (m, k) = (2 * MR - 1, 37);
        let a = ternary_matrix(m, k, 5);
        let plan = GemmPlan::new(m, k, 1);
        let words = codes_of(&plan, &a);
        let mut panels = vec![f32::NAN; plan.packed_a_elems()];
        pack_a_into(&plan, &a, &mut panels);
        let codes = CodePanels {
            words: &words,
            positive: 0.7,
            negative: 0.4,
        };
        let per_panel = plan.code_panel_words();
        for kernel in MicroKernel::available() {
            for ip in 0..plan.m_panels() {
                let src = &words[ip * per_panel..(ip + 1) * per_panel];
                let want = &panels[ip * MR * k..(ip + 1) * MR * k];
                for start in 0..40 {
                    for len in [0, 1, 15, 16, 17, 33, MR * k - start] {
                        let mut got = vec![f32::NAN; len];
                        decode_codes(kernel, src, start, codes.lut(), &mut got);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got),
                            bits(&want[start..start + len]),
                            "{kernel:?} panel {ip} from {start}, {len} codes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn code_operand_bit_matches_f32_panels_on_every_kernel() {
        // The whole driver on codes against the same driver on the f32
        // panels of the dequantised matrix: every kernel, serial and on
        // three threads, both epilogues. m walks a short last panel and
        // more than one row chunk; k one step, a panel whose codes end
        // mid-word (37, 257: 6·k is no multiple of 16), exactly one `kc`
        // block and several; n the half tile and a column chunk plus a
        // ragged pair. NaN and ±Inf sit in B, one NaN where A's row is
        // all zeros: 0 · NaN stays NaN through a zero code.
        for m in [1, 5, 7, 13, 97, 193] {
            for k in [1, 37, 256, 257, 600] {
                for n in [4, 33, 300] {
                    if n == 300 && !matches!(k, 37 | 257) {
                        continue;
                    }
                    let mut a = ternary_matrix(m, k, (m * 1000 + k) as u64);
                    a[..k].fill(0.0);
                    let mut b = random_tensor([k, n], (n * 1000 + k) as u64);
                    b.data_mut()[(k / 2) * n] = f32::NAN;
                    b.data_mut()[(k - 1) * n + n - 1] = f32::INFINITY;
                    b.data_mut()[(k / 3) * n + n / 2] = f32::NEG_INFINITY;
                    let plan = GemmPlan::new(m, k, n);
                    let mut pa = vec![0.0f32; plan.packed_a_elems()];
                    let mut pb = vec![0.0f32; plan.packed_b_elems()];
                    pack_a_into(&plan, &a, &mut pa);
                    pack_b_into(&plan, b.data(), &mut pb);
                    let words = codes_of(&plan, &a);
                    let codes = PackedA::Codes(CodePanels {
                        words: &words,
                        positive: 0.7,
                        negative: 0.4,
                    });
                    for kernel in MicroKernel::available() {
                        for epilogue in [GemmEpilogue::None, GemmEpilogue::Relu] {
                            let want =
                                driver_bits(kernel, &plan, PackedA::F32(&pa), &pb, 1, epilogue);
                            for threads in [1, 3] {
                                assert_eq!(
                                    driver_bits(kernel, &plan, codes, &pb, threads, epilogue),
                                    want,
                                    "{m}x{k}x{n} {kernel:?} {epilogue:?} threads {threads}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn code_operand_applies_the_epilogue_on_an_empty_reduction() {
        let plan = GemmPlan::new(2, 0, 3);
        let mut c = vec![-1.0, 2.0, -3.0, 4.0, -5.0, 6.0];
        let codes = CodePanels {
            words: &[],
            positive: 0.5,
            negative: 0.5,
        };
        gemm_prepacked_epilogue(
            &plan,
            PackedA::Codes(codes),
            &[],
            &mut c,
            1,
            Schedule::Static,
            GemmEpilogue::Relu,
        );
        assert_eq!(c, vec![0.0, 2.0, 0.0, 4.0, 0.0, 6.0]);
    }

    #[test]
    fn pointwise_geometry_is_identity() {
        use crate::im2col::Conv2dGeometry;
        assert!(Conv2dGeometry::new(64, 8, 8, 1, 1, 1, 0).is_pointwise_identity());
        assert!(!Conv2dGeometry::new(64, 8, 8, 1, 1, 2, 0).is_pointwise_identity());
        assert!(!Conv2dGeometry::new(64, 8, 8, 3, 3, 1, 1).is_pointwise_identity());
    }
}
