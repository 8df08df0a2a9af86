//! One 16-lane vocabulary for the crate's lane-parallel kernels: the
//! depthwise convolution's block, the Winograd transforms' moves into
//! and out of their lane arrays and the initialisers' ChaCha8 keystream
//! (16 blocks per pass, one per lane, through the three integer ops
//! [`V16::add_u32`], [`V16::xor`] and [`V16::rotl`], which read a lane's
//! bits as a `u32`) are each written once over [`V16`] and
//! instantiated per target behind the GEMM engine's one dispatch
//! ([`run_on`], on the kernel [`active_kernel`](crate::gemm::active_kernel)
//! picks, so `CNN_STACK_GEMM_FORCE_SCALAR` pins the portable impl).
//!
//! Three impls:
//!
//! * AVX-512F: one ZMM register per vector; masked loads, adds and
//!   stores, two-source permutes, gathers and scatters, and a native
//!   rotate.
//! * AVX2: two YMM halves per vector, with real blends for the masked
//!   adds, 8-lane gathers, and plain loads or a fixed shuffle for picks
//!   whose half steps by one or two. The lane-array form compiled for
//!   AVX2 measured 2–4× slower, so this impl is written in intrinsics.
//! * Portable: a `[f32; 16]` whose lane loops the compiler vectorises
//!   for the baseline target (SSE2 or NEON register pairs).
//!
//! Every op that reads or writes memory takes a slice and
//! `debug_assert!`s that each enabled lane stays inside it: the SIMD
//! impls form pointers outside the slice at padded edges and rely on the
//! masks, so these asserts are the kernels' one bounds check. They are
//! debug-only because checking 16 lanes costs as much as the op, so the
//! ops whose lanes the caller places (`load`, `load_masked`, `pick`,
//! `gather`, `scatter`, and the shared [`store_rows`]) are `unsafe fn`s:
//! the caller derives every mask and offset from the geometry that sizes
//! its slices and states why at each call, and `./ci.sh` runs the
//! kernels' and this module's tests under debug assertions. `store`
//! writes a prefix of its slice and is safe.
//!
//! # Exactness
//!
//! The ops move bits, apply one IEEE operation per lane or apply one
//! integer operation to its bits, so every impl gives the same bits (a
//! NaN's payload aside where two NaNs meet in one arithmetic op: which
//! one survives is the instruction's or compiler's pick).
//! [`V16::mul_add`] is a separate multiply and add, never fused.

use crate::gemm::MicroKernel;
use cnn_stack_parallel::DisjointWriter;

/// Lanes of a vector.
pub(crate) const LANES: usize = 16;
/// Lane offsets a SIMD [`V16::pick`] reaches by permuting four 16-float
/// windows; a pick that reaches further gathers.
const PERMUTE_REACH: usize = 4 * LANES;

/// The lane offsets of a [`V16::pick`]: lane `j` reads `lanes[j]` floats
/// past the pick's origin.
#[derive(Clone, Copy)]
pub(crate) struct Offsets {
    pub(crate) lanes: [i32; LANES],
    /// The largest of `lanes`.
    pub(crate) reach: usize,
    /// Per 8-lane half: the step between consecutive lanes' offsets
    /// where it is one positive step (a run of an output row), else 0.
    steps: [i32; 2],
}

impl Offsets {
    pub(crate) const ZERO: Offsets = Offsets {
        lanes: [0; LANES],
        reach: 0,
        steps: [0; 2],
    };

    /// The offsets `lanes`, none negative. (Built for every lane
    /// pattern of a depthwise call, so written as plain loops.)
    pub(crate) fn new(lanes: [i32; LANES]) -> Offsets {
        debug_assert!(lanes.iter().all(|&o| o >= 0));
        let mut offsets = Offsets {
            lanes,
            reach: 0,
            steps: [0; 2],
        };
        for &o in &lanes {
            offsets.reach = offsets.reach.max(o as usize);
        }
        for (h, step) in offsets.steps.iter_mut().enumerate() {
            let half = &lanes[h * 8..][..8];
            let mut run = half[1] > half[0];
            for k in 2..8 {
                run &= half[k] - half[k - 1] == half[1] - half[0];
            }
            *step = if run { half[1] - half[0] } else { 0 };
        }
        offsets
    }

    /// Every offset times `k` (positive).
    #[inline(always)]
    pub(crate) fn scaled(&self, k: i32) -> Offsets {
        let mut scaled = *self;
        for o in &mut scaled.lanes {
            *o *= k;
        }
        scaled.reach *= k as usize;
        scaled.steps = [self.steps[0] * k, self.steps[1] * k];
        scaled
    }
}

/// A 16-lane f32 vector on one target.
pub(crate) trait V16: Copy {
    /// Vectors a kernel keeps in flight: as many as the registers hold
    /// beside their operands, so that independent chains of adds overlap.
    const BLOCK: usize;
    /// Whether [`scatter`](V16::scatter) is one instruction rather than
    /// a store per lane.
    const SCATTER: bool;

    /// `x` in every lane.
    fn splat(x: f32) -> Self;

    /// `src[at + j]` in every lane `j`.
    ///
    /// # Safety
    ///
    /// All 16 elements `at..at + 16` lie inside `src`.
    unsafe fn load(src: &[f32], at: isize) -> Self;

    /// `src[at + j]` in the lanes `j` of `mask`, 0.0 in the others.
    ///
    /// # Safety
    ///
    /// Element `at + j` lies inside `src` for every lane `j` of `mask`.
    unsafe fn load_masked(src: &[f32], at: isize, mask: u16) -> Self;

    /// `src[at + offsets.lanes[j]]` in the lanes `j` of `mask`, some
    /// unspecified value in the others.
    ///
    /// # Safety
    ///
    /// Element `at + offsets.lanes[j]` lies inside `src` for every lane
    /// `j` of `mask`.
    unsafe fn pick(src: &[f32], at: isize, offsets: &Offsets, mask: u16) -> Self;

    /// `src[at + offsets[j]]` in the lanes `j` of `mask`, 0.0 in the
    /// others.
    ///
    /// # Safety
    ///
    /// Element `at + offsets[j]` lies inside `src` for every lane `j` of
    /// `mask`.
    unsafe fn gather(src: &[f32], at: isize, offsets: &[i32; LANES], mask: u16) -> Self;

    /// `self + w·x` in the lanes of `mask` — a multiply, then an add,
    /// never fused — and `self` in the others.
    fn mul_add(self, mask: u16, w: Self, x: Self) -> Self;

    /// `max(self, 0.0)` in every lane.
    fn relu(self) -> Self;

    /// The lanes' bits as `u32`s plus `other`'s, wrapping.
    fn add_u32(self, other: Self) -> Self;

    /// The lanes' bits xor `other`'s.
    fn xor(self, other: Self) -> Self;

    /// Each lane's bits rotated left by `R` (`0 < R < 32`).
    fn rotl<const R: i32>(self) -> Self;

    /// Writes lanes `0..dst.len()` (at most 16) to `dst`.
    fn store(self, dst: &mut [f32]);

    /// Writes lane `j` of the lanes `j` of `mask` to element `at +
    /// offsets[j]` of `dst`. Only the impls whose [`SCATTER`](V16::SCATTER)
    /// is true (a native scatter) implement it; callers store rows
    /// elsewhere.
    ///
    /// # Safety
    ///
    /// Element `at + offsets[j]` lies inside `dst` for every lane `j` of
    /// `mask`, those elements are distinct, and no other thread accesses
    /// them while this runs.
    unsafe fn scatter(self, _: &DisjointWriter, _: isize, _: &[i32; LANES], _: u16) {
        unreachable!("only impls with a native scatter scatter")
    }
}

/// Whether every lane `j` of `mask` addresses `at + offset(j)` inside a
/// slice of `len` floats.
fn lanes_inside(len: usize, at: isize, offset: impl Fn(usize) -> isize, mask: u16) -> bool {
    (0..LANES)
        .filter(|j| mask >> j & 1 != 0)
        .all(|j| (0..len as isize).contains(&(at + offset(j))))
}

/// The first `n` (at most 16) lanes.
#[inline(always)]
pub(crate) fn live_lanes(n: usize) -> u16 {
    ((1u32 << n.min(LANES)) - 1) as u16
}

/// The lanes of the 16 floats from `at` that lie inside a slice of `len`.
#[inline(always)]
fn window_lanes(len: usize, at: isize) -> u16 {
    let lo = (-at).clamp(0, LANES as isize) as usize;
    let hi = (len as isize - at).clamp(0, LANES as isize) as usize;
    live_lanes(hi) & !live_lanes(lo)
}

/// The 4×4 transpose with row stores: writes each lane `l` of `mask` as
/// one run, its values `rows[i][l]` for `i < widths[l]` (at most
/// `rows.len()`, at most 4), at element `at + offsets[l]` of `dst`. Every
/// impl shares it: on x86-64, where SSE is the baseline, four lanes at a
/// time are transposed by four unpacks and each row is one store; lane
/// loops elsewhere.
///
/// # Safety
///
/// Every run `at + offsets[l] .. at + offsets[l] + widths[l]` of a lane
/// `l` of `mask` lies inside `dst` (`DisjointWriter::slice_mut` checks it
/// in debug builds alone), and no other thread accesses those elements
/// while this runs.
#[inline(always)]
pub(crate) unsafe fn store_rows(
    rows: &[[f32; LANES]],
    dst: &DisjointWriter,
    at: usize,
    offsets: &[i32; LANES],
    widths: &[usize; LANES],
    mask: u16,
) {
    for q in (0..LANES).step_by(4).filter(|q| mask >> q & 0xf != 0) {
        #[cfg(target_arch = "x86_64")]
        let t = {
            use core::arch::x86_64::*;
            // Each load reads four floats of a row (slice-checked).
            let row = |i: usize| {
                rows.get(i)
                    .map_or(_mm_setzero_ps(), |r| _mm_loadu_ps(r[q..q + 4].as_ptr()))
            };
            let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
            let (t0, t1) = (_mm_unpacklo_ps(r0, r1), _mm_unpacklo_ps(r2, r3));
            let (t2, t3) = (_mm_unpackhi_ps(r0, r1), _mm_unpackhi_ps(r2, r3));
            [
                _mm_movelh_ps(t0, t1),
                _mm_movehl_ps(t1, t0),
                _mm_movelh_ps(t2, t3),
                _mm_movehl_ps(t3, t2),
            ]
        };
        #[allow(clippy::needless_range_loop)] // `t` exists on x86-64 alone
        for k in 0..4 {
            let l = q + k;
            if mask >> l & 1 == 0 {
                continue;
            }
            let start = (at as isize + offsets[l] as isize) as usize;
            let run = dst.slice_mut(start, start + widths[l]);
            #[cfg(target_arch = "x86_64")]
            {
                use core::arch::x86_64::*;
                match run.len() {
                    4 => _mm_storeu_ps(run.as_mut_ptr(), t[k]),
                    2 => _mm_store_sd(run.as_mut_ptr().cast(), _mm_castps_pd(t[k])),
                    n => {
                        let mut lane = [0.0; 4];
                        _mm_storeu_ps(lane.as_mut_ptr(), t[k]);
                        run.copy_from_slice(&lane[..n]);
                    }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            for (x, row) in run.iter_mut().zip(rows) {
                *x = row[l];
            }
        }
    }
}

/// A kernel body generic over the [`V16`] impl it runs on.
pub(crate) trait Run {
    type Output;
    /// Runs the body on `V`. Implementations are `#[inline(always)]`, as
    /// is everything they call that uses `V`, so that the whole body is
    /// compiled inside [`run_on`]'s target-feature trampoline.
    fn run<V: V16>(&self) -> Self::Output;
}

/// Runs `body` on `kernel`'s [`V16`] impl, inside a function compiled for
/// its target features. The SIMD impls are private to this module and
/// this is the one place that instantiates a body on them.
///
/// # Panics
///
/// Panics if this host cannot run `kernel`.
pub(crate) fn run_on<R: Run>(kernel: MicroKernel, body: &R) -> R::Output {
    assert!(kernel.supported(), "{kernel:?} is not supported here");
    // SAFETY: `kernel` is supported (asserted above): on the SIMD
    // kernels the CPU has AVX2 and FMA, and AVX-512F for `Avx512`.
    unsafe {
        match kernel {
            MicroKernel::Scalar => body.run::<Portable>(),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            MicroKernel::Avx2Fma => run_avx2(body),
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx512 => run_avx512(body),
        }
    }
}

/// [`Run::run`] on [`Avx2`], compiled for AVX2. (FMA is enabled to match
/// the dispatch check; [`V16::mul_add`] keeps the multiply and the add
/// separate.)
///
/// # Safety
///
/// The CPU must support AVX2 and FMA ([`MicroKernel::supported`]).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<R: Run>(body: &R) -> R::Output {
    body.run::<Avx2>()
}

/// [`Run::run`] on [`Avx512`], compiled for AVX-512F.
///
/// # Safety
///
/// The CPU must support AVX-512F ([`MicroKernel::supported`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<R: Run>(body: &R) -> R::Output {
    body.run::<Avx512>()
}

/// The portable impl: lane loops over a `[f32; 16]`.
#[derive(Clone, Copy)]
struct Portable([f32; LANES]);

impl V16 for Portable {
    const BLOCK: usize = 1;
    const SCATTER: bool = false;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        Portable([x; LANES])
    }

    #[inline(always)]
    unsafe fn load(src: &[f32], at: isize) -> Self {
        let at = usize::try_from(at).expect("a load starts inside its slice");
        Portable(
            *src[at..]
                .first_chunk()
                .expect("a load ends inside its slice"),
        )
    }

    #[inline(always)]
    unsafe fn load_masked(src: &[f32], at: isize, mask: u16) -> Self {
        debug_assert!(
            lanes_inside(src.len(), at, |j| j as isize, mask),
            "a masked load leaves its slice"
        );
        let mut v = [0.0; LANES];
        for (j, v) in v.iter_mut().enumerate() {
            if mask >> j & 1 != 0 {
                // SAFETY: the lanes of `mask` lie inside `src` (the
                // caller's contract).
                *v = *src.get_unchecked((at + j as isize) as usize);
            }
        }
        Portable(v)
    }

    /// Per half: a copy of the window (every lane or every other) where
    /// the half is a run whose window lies inside `src`, else the lanes of
    /// `mask` read one by one.
    #[inline(always)]
    unsafe fn pick(src: &[f32], at: isize, offsets: &Offsets, mask: u16) -> Self {
        if offsets.steps == [0; 2] {
            // SAFETY: the caller's contract is the gather's.
            return Self::gather(src, at, &offsets.lanes, mask);
        }
        debug_assert!(
            lanes_inside(src.len(), at, |j| offsets.lanes[j] as isize, mask),
            "a picked lane leaves its slice"
        );
        let mut v = [0.0; LANES];
        for (h, half) in v.chunks_exact_mut(8).enumerate() {
            let lanes = &offsets.lanes[h * 8..][..8];
            let window = usize::try_from(at + lanes[0] as isize)
                .ok()
                .and_then(|i| src.get(i..));
            match (window, offsets.steps[h]) {
                (Some(w), 1) if w.len() >= 8 => half.copy_from_slice(&w[..8]),
                (Some(w), 2) if w.len() >= 16 => {
                    for (j, x) in half.iter_mut().enumerate() {
                        *x = w[2 * j];
                    }
                }
                _ => {
                    for (j, (x, &o)) in half.iter_mut().zip(lanes).enumerate() {
                        if mask >> (h * 8 + j) & 1 != 0 {
                            // SAFETY: the lanes of `mask` lie inside
                            // `src` (the caller's contract).
                            *x = *src.get_unchecked((at + o as isize) as usize);
                        }
                    }
                }
            }
        }
        Portable(v)
    }

    #[inline(always)]
    unsafe fn gather(src: &[f32], at: isize, offsets: &[i32; LANES], mask: u16) -> Self {
        debug_assert!(
            lanes_inside(src.len(), at, |j| offsets[j] as isize, mask),
            "a gathered lane leaves its slice"
        );
        let mut v = [0.0; LANES];
        for (j, v) in v.iter_mut().enumerate() {
            if mask >> j & 1 != 0 {
                // SAFETY: the lanes of `mask` lie inside `src` (the
                // caller's contract).
                *v = *src.get_unchecked((at + offsets[j] as isize) as usize);
            }
        }
        Portable(v)
    }

    #[inline(always)]
    fn mul_add(self, mask: u16, w: Self, x: Self) -> Self {
        let mut v = self.0;
        for (j, v) in v.iter_mut().enumerate() {
            let sum = *v + w.0[j] * x.0[j];
            if mask & 1 << j != 0 {
                *v = sum;
            }
        }
        Portable(v)
    }

    #[inline(always)]
    fn relu(self) -> Self {
        let mut v = self.0;
        for v in &mut v {
            *v = v.max(0.0);
        }
        Portable(v)
    }

    #[inline(always)]
    fn add_u32(self, other: Self) -> Self {
        let mut v = self.0;
        for (v, o) in v.iter_mut().zip(other.0) {
            *v = f32::from_bits(v.to_bits().wrapping_add(o.to_bits()));
        }
        Portable(v)
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        let mut v = self.0;
        for (v, o) in v.iter_mut().zip(other.0) {
            *v = f32::from_bits(v.to_bits() ^ o.to_bits());
        }
        Portable(v)
    }

    /// On x86-64, two SSE2 shifts and an or per four lanes. SSE2 has no
    /// vector rotate, so the compiler keeps a lane loop's rotate as a
    /// scalar `rol` per lane, and with it every add and xor of the chain
    /// around it: the portable ChaCha8 keystream ran 2.9× slower so. A
    /// lane loop elsewhere.
    #[inline(always)]
    fn rotl<const R: i32>(self) -> Self {
        let mut v = self.0;
        #[cfg(target_arch = "x86_64")]
        for q in v.chunks_exact_mut(4) {
            use core::arch::x86_64::*;
            // SAFETY: each chunk holds the four floats the load and the
            // store move; SSE2 is part of the x86-64 baseline.
            unsafe {
                let x = _mm_castps_si128(_mm_loadu_ps(q.as_ptr()));
                let left = _mm_sll_epi32(x, _mm_cvtsi32_si128(R));
                let right = _mm_srl_epi32(x, _mm_cvtsi32_si128(32 - R));
                _mm_storeu_ps(q.as_mut_ptr(), _mm_castsi128_ps(_mm_or_si128(left, right)));
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        for v in &mut v {
            *v = f32::from_bits(v.to_bits().rotate_left(R as u32));
        }
        Portable(v)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        match <&mut [f32; LANES]>::try_from(&mut *dst) {
            Ok(all) => *all = self.0,
            Err(_) => dst.copy_from_slice(&self.0[..dst.len()]),
        }
    }
}

#[cfg(target_arch = "x86")]
use core::arch::x86 as arch;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as arch;

/// The AVX2 impl: two 8-lane halves.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[derive(Clone, Copy)]
struct Avx2([arch::__m256; 2]);

/// Half `h` of `mask` as an AVX2 lane mask: bit `8h + j` moved to lane
/// `j`'s sign bit, the one bit blends, masked loads, stores and gathers
/// read.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
fn half_mask(mask: u16, h: usize) -> arch::__m256i {
    use arch::*;
    let shifts = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    _mm256_sllv_epi32(_mm256_set1_epi32(i32::from(mask) >> (8 * h)), shifts)
}

/// Half `h` of [`Avx2`]'s [`V16::pick`]: one load (step 1) or two and a
/// fixed shuffle (step 2) where the half is a run whose window lies
/// inside `src`, else a masked gather.
///
/// # Safety
///
/// The CPU must support AVX2, and element `at + offsets.lanes[8h + j]`
/// must lie inside `src` for every lane `j` of half `h` of `mask`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline(always)]
unsafe fn pick_half(
    src: &[f32],
    at: isize,
    offsets: &Offsets,
    mask: u16,
    h: usize,
) -> arch::__m256 {
    use arch::*;
    let (step, first) = (offsets.steps[h], at + offsets.lanes[8 * h] as isize);
    let inside = |len: isize| first >= 0 && first + len <= src.len() as isize;
    let p = src.as_ptr().wrapping_offset(first);
    if step == 1 && inside(8) {
        // SAFETY: the 8 floats lie inside `src` (checked).
        _mm256_loadu_ps(p)
    } else if step == 2 && inside(16) {
        // SAFETY: the 16 floats lie inside `src` (checked).
        let (lo, hi) = (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)));
        // Even lanes per 128-bit half, then the halves in order.
        let evens = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(lo, hi));
        _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(evens))
    } else {
        // SAFETY: the caller's contract is the gather's.
        gather8(src, at, &offsets.lanes, mask, h)
    }
}

/// `src[at + offsets[8h + j]]` in the lanes `j` of half `h` of `mask`,
/// 0.0 in the others: one masked 8-lane gather.
///
/// # Safety
///
/// The CPU must support AVX2, and element `at + offsets[8h + j]` must
/// lie inside `src` for every lane `j` of half `h` of `mask`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline(always)]
unsafe fn gather8(
    src: &[f32],
    at: isize,
    offsets: &[i32; LANES],
    mask: u16,
    h: usize,
) -> arch::__m256 {
    use arch::*;
    // SAFETY: only the lanes of `mask` are read, and they lie inside
    // `src`; the base pointer is only formed outside it.
    _mm256_mask_i32gather_ps::<4>(
        _mm256_setzero_ps(),
        src.as_ptr().wrapping_offset(at),
        _mm256_loadu_si256(offsets[8 * h..].as_ptr().cast()),
        _mm256_castsi256_ps(half_mask(mask, h)),
    )
}

// SAFETY (every `unsafe` block of this impl): `run_on` instantiates
// bodies on `Avx2` only inside `run_avx2`, after `MicroKernel::supported`
// confirmed AVX2 and FMA; the pointer arithmetic is justified per method.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
impl V16 for Avx2 {
    /// Two vectors' four accumulators, the tap's blend masks and the
    /// loads stay in the 16 YMM registers.
    const BLOCK: usize = 2;
    const SCATTER: bool = false;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        unsafe { Avx2([arch::_mm256_set1_ps(x); 2]) }
    }

    #[inline(always)]
    unsafe fn load(src: &[f32], at: isize) -> Self {
        debug_assert!(
            at >= 0 && at as usize + LANES <= src.len(),
            "a load leaves its slice"
        );
        // SAFETY: the 16 floats lie inside `src` (the caller's contract).
        let p = src.as_ptr().offset(at);
        Avx2([arch::_mm256_loadu_ps(p), arch::_mm256_loadu_ps(p.add(8))])
    }

    #[inline(always)]
    unsafe fn load_masked(src: &[f32], at: isize, mask: u16) -> Self {
        debug_assert!(
            lanes_inside(src.len(), at, |j| j as isize, mask),
            "a masked load leaves its slice"
        );
        let p = src.as_ptr().wrapping_offset(at);
        let mut v = Self::splat(0.0).0;
        for (h, v) in v.iter_mut().enumerate() {
            // SAFETY: only the lanes of `mask` are read, and they lie
            // inside `src` (the caller's contract); the pointer is only
            // formed, never read, outside it.
            *v = arch::_mm256_maskload_ps(p.wrapping_add(8 * h), half_mask(mask, h));
        }
        Avx2(v)
    }

    #[inline(always)]
    unsafe fn pick(src: &[f32], at: isize, offsets: &Offsets, mask: u16) -> Self {
        debug_assert!(
            lanes_inside(src.len(), at, |j| offsets.lanes[j] as isize, mask),
            "a picked lane leaves its slice"
        );
        // SAFETY: the caller's contract is each half's.
        if offsets.steps == [0; 2] {
            return Self::gather(src, at, &offsets.lanes, mask);
        }
        let lo = pick_half(src, at, offsets, mask, 0);
        Avx2([lo, pick_half(src, at, offsets, mask, 1)])
    }

    #[inline(always)]
    unsafe fn gather(src: &[f32], at: isize, offsets: &[i32; LANES], mask: u16) -> Self {
        debug_assert!(
            lanes_inside(src.len(), at, |j| offsets[j] as isize, mask),
            "a gathered lane leaves its slice"
        );
        // SAFETY: the caller's contract is each half's.
        Avx2([
            gather8(src, at, offsets, mask, 0),
            gather8(src, at, offsets, mask, 1),
        ])
    }

    #[inline(always)]
    fn mul_add(self, mask: u16, w: Self, x: Self) -> Self {
        use arch::*;
        let mut v = self.0;
        for (h, v) in v.iter_mut().enumerate() {
            *v = unsafe {
                let sum = _mm256_add_ps(*v, _mm256_mul_ps(w.0[h], x.0[h]));
                _mm256_blendv_ps(*v, sum, _mm256_castsi256_ps(half_mask(mask, h)))
            };
        }
        Avx2(v)
    }

    #[inline(always)]
    fn relu(self) -> Self {
        let mut v = self.0;
        for v in &mut v {
            *v = unsafe { arch::_mm256_max_ps(*v, arch::_mm256_setzero_ps()) };
        }
        Avx2(v)
    }

    #[inline(always)]
    fn add_u32(self, other: Self) -> Self {
        use arch::*;
        let mut v = self.0;
        for (v, o) in v.iter_mut().zip(other.0) {
            *v = unsafe {
                let sum = _mm256_add_epi32(_mm256_castps_si256(*v), _mm256_castps_si256(o));
                _mm256_castsi256_ps(sum)
            };
        }
        Avx2(v)
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        use arch::*;
        let mut v = self.0;
        for (v, o) in v.iter_mut().zip(other.0) {
            *v = unsafe {
                let x = _mm256_xor_si256(_mm256_castps_si256(*v), _mm256_castps_si256(o));
                _mm256_castsi256_ps(x)
            };
        }
        Avx2(v)
    }

    /// Two shifts and an or per half (AVX2 has no rotate); the counts are
    /// constants, so the shifts take immediates.
    #[inline(always)]
    fn rotl<const R: i32>(self) -> Self {
        use arch::*;
        let mut v = self.0;
        for v in &mut v {
            *v = unsafe {
                let x = _mm256_castps_si256(*v);
                let left = _mm256_sll_epi32(x, _mm_cvtsi32_si128(R));
                let right = _mm256_srl_epi32(x, _mm_cvtsi32_si128(32 - R));
                _mm256_castsi256_ps(_mm256_or_si256(left, right))
            };
        }
        Avx2(v)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        use arch::*;
        let (n, p) = (dst.len().min(LANES), dst.as_mut_ptr());
        let live = live_lanes(n);
        // All 16 lanes, or the first `n`, lie inside `dst`.
        unsafe {
            if n == LANES {
                _mm256_storeu_ps(p, self.0[0]);
                _mm256_storeu_ps(p.add(8), self.0[1]);
            } else {
                _mm256_maskstore_ps(p, half_mask(live, 0), self.0[0]);
                _mm256_maskstore_ps(p.wrapping_add(8), half_mask(live, 1), self.0[1]);
            }
        }
    }
}

/// The AVX-512 impl: one ZMM register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512(arch::__m512);

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// The 16 floats of `src` from `at`, 0.0 where they fall outside it.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline(always)]
    unsafe fn window(src: &[f32], at: isize) -> arch::__m512 {
        // SAFETY: the whole window lies inside `src` (checked), or the
        // mask enables exactly the lanes that do.
        if at >= 0 && at + LANES as isize <= src.len() as isize {
            Self::load(src, at).0
        } else {
            Self::load_masked(src, at, window_lanes(src.len(), at)).0
        }
    }
}

// SAFETY (every `unsafe` block of this impl): `run_on` instantiates
// bodies on `Avx512` only inside `run_avx512`, after
// `MicroKernel::supported` confirmed AVX-512F; the pointer arithmetic is
// justified per method.
#[cfg(target_arch = "x86_64")]
impl V16 for Avx512 {
    /// Four accumulators overlap each output's chain of dependent adds.
    const BLOCK: usize = 4;
    const SCATTER: bool = true;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        unsafe { Avx512(arch::_mm512_set1_ps(x)) }
    }

    #[inline(always)]
    unsafe fn load(src: &[f32], at: isize) -> Self {
        debug_assert!(
            at >= 0 && at as usize + LANES <= src.len(),
            "a load leaves its slice"
        );
        // SAFETY: the 16 floats lie inside `src` (the caller's contract).
        Avx512(arch::_mm512_loadu_ps(src.as_ptr().offset(at)))
    }

    #[inline(always)]
    unsafe fn load_masked(src: &[f32], at: isize, mask: u16) -> Self {
        debug_assert!(
            lanes_inside(src.len(), at, |j| j as isize, mask),
            "a masked load leaves its slice"
        );
        // SAFETY: only the lanes of `mask` are read, and they lie inside
        // `src` (the caller's contract); the pointer is only formed, never
        // read, outside it.
        Avx512(arch::_mm512_maskz_loadu_ps(
            mask,
            src.as_ptr().wrapping_offset(at),
        ))
    }

    /// Out of the `reach / 16 + 1` 16-float windows from `at` by
    /// two-source permutes (and a blend past 32), each window loaded
    /// where it lies inside `src`; a gather past [`PERMUTE_REACH`].
    #[inline(always)]
    unsafe fn pick(src: &[f32], at: isize, offsets: &Offsets, mask: u16) -> Self {
        use arch::*;
        debug_assert!(
            lanes_inside(src.len(), at, |j| offsets.lanes[j] as isize, mask),
            "a picked lane leaves its slice"
        );
        let reach = offsets.reach;
        let idx = _mm512_loadu_epi32(offsets.lanes.as_ptr());
        if reach >= PERMUTE_REACH {
            // SAFETY: only the lanes of `mask` are read, and they lie
            // inside `src` (the caller's contract); the base pointer is
            // only formed outside it.
            let base = src.as_ptr().wrapping_offset(at);
            return Avx512(_mm512_mask_i32gather_ps::<4>(
                _mm512_setzero_ps(),
                mask,
                idx,
                base,
            ));
        }
        let zero = _mm512_setzero_ps();
        let second = if reach >= LANES {
            Self::window(src, at + LANES as isize)
        } else {
            zero
        };
        let lo = _mm512_permutex2var_ps(Self::window(src, at), idx, second);
        if reach < 2 * LANES {
            return Avx512(lo);
        }
        let fourth = if reach >= 3 * LANES {
            Self::window(src, at + 3 * LANES as isize)
        } else {
            zero
        };
        let hi = _mm512_permutex2var_ps(Self::window(src, at + 2 * LANES as isize), idx, fourth);
        let upper = _mm512_test_epi32_mask(idx, _mm512_set1_epi32(2 * LANES as i32));
        Avx512(_mm512_mask_blend_ps(upper, lo, hi))
    }

    #[inline(always)]
    unsafe fn gather(src: &[f32], at: isize, offsets: &[i32; LANES], mask: u16) -> Self {
        use arch::*;
        debug_assert!(
            lanes_inside(src.len(), at, |j| offsets[j] as isize, mask),
            "a gathered lane leaves its slice"
        );
        // SAFETY: only the lanes of `mask` are read, and they lie inside
        // `src` (the caller's contract); the base pointer is only formed
        // outside it.
        let idx = _mm512_loadu_epi32(offsets.as_ptr());
        let base = src.as_ptr().wrapping_offset(at);
        Avx512(_mm512_mask_i32gather_ps::<4>(
            _mm512_setzero_ps(),
            mask,
            idx,
            base,
        ))
    }

    #[inline(always)]
    fn mul_add(self, mask: u16, w: Self, x: Self) -> Self {
        use arch::*;
        unsafe {
            Avx512(_mm512_mask_add_ps(
                self.0,
                mask,
                self.0,
                _mm512_mul_ps(w.0, x.0),
            ))
        }
    }

    #[inline(always)]
    fn relu(self) -> Self {
        unsafe { Avx512(arch::_mm512_max_ps(self.0, arch::_mm512_setzero_ps())) }
    }

    #[inline(always)]
    fn add_u32(self, other: Self) -> Self {
        use arch::*;
        unsafe {
            let sum = _mm512_add_epi32(_mm512_castps_si512(self.0), _mm512_castps_si512(other.0));
            Avx512(_mm512_castsi512_ps(sum))
        }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        use arch::*;
        unsafe {
            let x = _mm512_xor_si512(_mm512_castps_si512(self.0), _mm512_castps_si512(other.0));
            Avx512(_mm512_castsi512_ps(x))
        }
    }

    #[inline(always)]
    fn rotl<const R: i32>(self) -> Self {
        use arch::*;
        unsafe {
            let x = _mm512_rol_epi32::<R>(_mm512_castps_si512(self.0));
            Avx512(_mm512_castsi512_ps(x))
        }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        // The first `dst.len()` lanes (at most 16) lie inside `dst`.
        unsafe { arch::_mm512_mask_storeu_ps(dst.as_mut_ptr(), live_lanes(dst.len()), self.0) }
    }

    #[inline(always)]
    unsafe fn scatter(self, dst: &DisjointWriter, at: isize, offsets: &[i32; LANES], mask: u16) {
        use arch::*;
        debug_assert!(
            lanes_inside(dst.len(), at, |j| offsets[j] as isize, mask),
            "a scattered lane leaves its slice"
        );
        // SAFETY: only the lanes of `mask` are written, to distinct
        // elements inside `dst` that no other thread accesses (the
        // caller's contract); the base pointer is only formed outside it.
        let idx = _mm512_loadu_epi32(offsets.as_ptr());
        let base = dst.as_mut_ptr().wrapping_offset(at);
        _mm512_mask_i32scatter_ps::<4>(base, mask, idx, self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A xorshift generator for one case's inputs.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A value in `lo..=hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }

        /// Any bit pattern, with NaN payloads (quiet and signalling),
        /// ±Inf and −0.0 drawn often.
        fn value(&mut self) -> f32 {
            let bits = self.next() as u32;
            match self.range(0, 10) {
                0..=3 => f32::from_bits(bits),
                4..=7 => (bits >> 8) as f32 / (1u32 << 22) as f32 - 2.0,
                8 => f32::from_bits(0x7fc0_0000 | bits >> 9),
                9 => f32::from_bits(0xff80_0000 | (bits >> 10).max(1)),
                _ => [f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0][bits as usize % 4],
            }
        }

        fn lanes(&mut self) -> [f32; LANES] {
            std::array::from_fn(|_| self.value())
        }
    }

    /// Every op's inputs for one case; see [`every_op_matches_the_portable_impl`].
    #[derive(Debug, Clone)]
    struct Case {
        src: Vec<f32>,
        at: isize,
        mask: u16,
        /// A pick's lane offsets (none negative; one run of stride 1 or
        /// 2, a run per half, or scattered, up to past `PERMUTE_REACH`).
        pick: [i32; LANES],
        /// A gather's or scatter's lane offsets, within ±64.
        offsets: [i32; LANES],
        acc: [f32; LANES],
        w: [f32; LANES],
        x: [f32; LANES],
        store_len: usize,
    }

    impl Case {
        fn new(seed: u64) -> Case {
            let mut g = Gen(seed | 1);
            let len = g.range(1, 200) as usize;
            let offsets = std::array::from_fn(|_| g.range(-64, 64) as i32);
            let (base, base2, stride) = (g.range(0, 64), g.range(0, 64), g.range(1, 2));
            let reach = [15, 31, 47, 63, 100][g.range(0, 4) as usize];
            let kind = g.range(0, 2);
            let pick = std::array::from_fn(|j| {
                let j = j as i64;
                (match kind {
                    0 => base + j * stride,
                    1 if j < 8 => base + j * stride,
                    1 => base2 + (j - 8) * stride,
                    _ => g.range(0, reach),
                }) as i32
            });
            Case {
                src: (0..len).map(|_| g.value()).collect(),
                at: g.range(-80, 280) as isize,
                mask: g.next() as u16,
                pick,
                offsets,
                acc: g.lanes(),
                w: g.lanes(),
                x: g.lanes(),
                store_len: g.range(0, LANES as i64) as usize,
            }
        }
    }

    /// The lanes of `mask` that address `at + offset(j)` inside `len`.
    fn inside(len: usize, at: isize, offset: impl Fn(usize) -> isize, mask: u16) -> u16 {
        let lanes = (0..LANES).filter(|&j| (0..len as isize).contains(&(at + offset(j))));
        mask & lanes.fold(0, |m, j| m | 1 << j)
    }

    /// Sentinel bits that no op writes.
    const UNTOUCHED: f32 = f32::from_bits(0x7fa5_a5a5);

    /// What every op gives on one impl, as bits.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        splat: Vec<u32>,
        load: Vec<u32>,
        load_masked: Vec<u32>,
        pick: Vec<u32>,
        gather: Vec<u32>,
        mul_add: Vec<u32>,
        relu: Vec<u32>,
        add_u32: Vec<u32>,
        xor: Vec<u32>,
        /// Rotations by each of [`ROTATIONS`], one after another.
        rotl: Vec<u32>,
        store: Vec<u32>,
        /// `None` on the impls without a native scatter.
        scatter: Option<Vec<u32>>,
    }

    /// The rotations the test holds [`V16::rotl`] to: ChaCha's four and
    /// the extremes.
    const ROTATIONS: [u32; 6] = [1, 7, 8, 12, 16, 31];

    struct Ops<'a>(&'a Case);

    impl Run for Ops<'_> {
        type Output = Outcome;

        #[inline(always)]
        fn run<V: V16>(&self) -> Outcome {
            let c = self.0;
            let bits = |v: V| {
                let mut lanes = [UNTOUCHED; LANES];
                v.store(&mut lanes);
                lanes.map(f32::to_bits).to_vec()
            };
            let len = c.src.len();
            // SAFETY: every read below starts where the slice has room
            // for 16 floats, or enables only the lanes `inside` finds in
            // the slice.
            let load = match len.checked_sub(LANES) {
                Some(room) => bits(unsafe { V::load(&c.src, c.at.rem_euclid(room as isize + 1)) }),
                None => Vec::new(),
            };
            let masked = inside(len, c.at, |j| j as isize, c.mask);
            let pick_mask = inside(len, c.at, |j| c.pick[j] as isize, c.mask);
            let gather_mask = inside(len, c.at, |j| c.offsets[j] as isize, c.mask);
            // Masked-off lanes of a pick are unspecified: compare the
            // lanes of its mask alone.
            let offsets = Offsets::new(c.pick);
            let mut pick = bits(unsafe { V::pick(&c.src, c.at, &offsets, pick_mask) });
            for (j, lane) in pick.iter_mut().enumerate() {
                if pick_mask >> j & 1 == 0 {
                    *lane = 0;
                }
            }
            let (acc, w, x) = unsafe { (V::load(&c.acc, 0), V::load(&c.w, 0), V::load(&c.x, 0)) };
            let mut store = vec![UNTOUCHED; LANES + 4];
            acc.store(&mut store[2..2 + c.store_len]);
            // Only the impls with a native scatter scatter. A scatter's
            // lanes write distinct elements, as the movers' do: a
            // repeated offset keeps its first lane only.
            let mut scatter_mask = 0u16;
            for j in (0..LANES).filter(|j| c.mask >> j & 1 != 0) {
                let kept = (0..j).filter(|k| scatter_mask >> k & 1 != 0);
                if !kept.map(|k| c.offsets[k]).any(|o| o == c.offsets[j]) {
                    scatter_mask |= 1 << j;
                }
            }
            let mut scattered = vec![UNTOUCHED; len];
            let scatter_mask = inside(len, c.at, |j| c.offsets[j] as isize, scatter_mask);
            let writer = DisjointWriter::new(&mut scattered);
            if V::SCATTER {
                // SAFETY: the lanes of `scatter_mask` write distinct
                // elements inside `scattered`, on one thread.
                unsafe { x.scatter(&writer, c.at, &c.offsets, scatter_mask) };
            }
            Outcome {
                splat: bits(V::splat(c.w[0])),
                load,
                load_masked: bits(unsafe { V::load_masked(&c.src, c.at, masked) }),
                pick,
                gather: bits(unsafe { V::gather(&c.src, c.at, &c.offsets, gather_mask) }),
                mul_add: bits(acc.mul_add(c.mask, w, x)),
                relu: bits(acc.relu()),
                add_u32: bits(acc.add_u32(w)),
                xor: bits(acc.xor(w)),
                rotl: [
                    bits(acc.rotl::<1>()),
                    bits(acc.rotl::<7>()),
                    bits(acc.rotl::<8>()),
                    bits(acc.rotl::<12>()),
                    bits(acc.rotl::<16>()),
                    bits(acc.rotl::<31>()),
                ]
                .concat(),
                store: store.into_iter().map(f32::to_bits).collect(),
                scatter: V::SCATTER.then(|| scattered.iter().map(|x| x.to_bits()).collect()),
            }
        }
    }

    /// Bits, with every NaN read as one: where two NaNs meet in an
    /// arithmetic op, which payload survives is the instruction's pick.
    fn any_nan(bits: &[u32]) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        bits.iter()
            .map(|&b| if f32::from_bits(b).is_nan() { nan } else { b })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every op on every impl this host runs gives the portable
        /// impl's bits — over random masks, offsets within ±64 and past
        /// `PERMUTE_REACH`, runs of stride 1 and 2, slices whose ends cut
        /// through the window, and NaN payloads, ±Inf and −0.0 — and the
        /// portable impl gives each op's definition, as do the shared
        /// `store_rows` and every native scatter. Masked-off lanes read
        /// 0.0 where the op promises it, and no store or scatter touches
        /// an element outside its live lanes.
        #[test]
        fn every_op_matches_the_portable_impl(seed in 0u64..u64::MAX) {
            let c = Case::new(seed);
            let want = Ops(&c).run::<Portable>();
            let len = c.src.len();
            let read = |offset: i32| c.src[(c.at + offset as isize) as usize].to_bits();
            let pick_mask = inside(len, c.at, |j| c.pick[j] as isize, c.mask);
            for j in 0..LANES {
                let enabled = |offset: i32| {
                    c.mask >> j & 1 != 0 && (0..len as isize).contains(&(c.at + offset as isize))
                };
                let load = if enabled(j as i32) { read(j as i32) } else { 0 };
                prop_assert_eq!(want.load_masked[j], load);
                let gather = if enabled(c.offsets[j]) { read(c.offsets[j]) } else { 0 };
                prop_assert_eq!(want.gather[j], gather);
                if pick_mask >> j & 1 != 0 {
                    prop_assert_eq!(want.pick[j], read(c.pick[j]));
                }
                let sum = if c.mask >> j & 1 != 0 { c.acc[j] + c.w[j] * c.x[j] } else { c.acc[j] };
                prop_assert_eq!(any_nan(&want.mul_add[j..=j]), any_nan(&[sum.to_bits()]));
                prop_assert_eq!(want.relu[j], c.acc[j].max(0.0).to_bits());
                let (a, w) = (c.acc[j].to_bits(), c.w[j].to_bits());
                prop_assert_eq!(want.add_u32[j], a.wrapping_add(w));
                prop_assert_eq!(want.xor[j], a ^ w);
                for (r, &rotation) in ROTATIONS.iter().enumerate() {
                    prop_assert_eq!(want.rotl[r * LANES + j], a.rotate_left(rotation));
                }
            }
            // `store_rows` writes each lane's row of m values, cut to its
            // width, at its offset (distinct runs 4 apart), nothing else.
            let rows = [c.acc, c.w, c.x, c.acc];
            let m = 1 + c.store_len % 4;
            let widths: [usize; LANES] = std::array::from_fn(|l| (c.offsets[l] as usize) % (m + 1));
            let runs: [i32; LANES] = std::array::from_fn(|l| 4 * l as i32);
            let mut written = [UNTOUCHED; 4 * LANES];
            let writer = DisjointWriter::new(&mut written);
            // SAFETY: one thread, and nothing else reads `written` while
            // it writes.
            unsafe { store_rows(&rows[..m], &writer, 0, &runs, &widths, c.mask) };
            for (l, run) in written.chunks_exact(4).enumerate() {
                for (i, v) in run.iter().enumerate() {
                    let live = c.mask >> l & 1 != 0 && i < widths[l];
                    let want = if live { rows[i][l] } else { UNTOUCHED };
                    prop_assert_eq!(v.to_bits(), want.to_bits());
                }
            }
            let n = c.store_len;
            let mut store = [UNTOUCHED; LANES + 4];
            store[2..2 + n].copy_from_slice(&c.acc[..n]);
            prop_assert_eq!(&want.store, &store.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            let mut scatter = vec![UNTOUCHED.to_bits(); len];
            for j in (0..LANES).rev().filter(|&j| c.mask >> j & 1 != 0) {
                if let Ok(i) = usize::try_from(c.at + c.offsets[j] as isize) {
                    if i < len {
                        scatter[i] = c.x[j].to_bits();
                    }
                }
            }
            for kernel in MicroKernel::available().skip(1) {
                let got = run_on(kernel, &Ops(&c));
                prop_assert_eq!(&got.splat, &want.splat, "{:?} splat", kernel);
                prop_assert_eq!(&got.load, &want.load, "{:?} load", kernel);
                prop_assert_eq!(&got.load_masked, &want.load_masked, "{:?} load_masked", kernel);
                prop_assert_eq!(&got.pick, &want.pick, "{:?} pick", kernel);
                prop_assert_eq!(&got.gather, &want.gather, "{:?} gather", kernel);
                prop_assert_eq!(any_nan(&got.mul_add), any_nan(&want.mul_add), "{:?} mul_add", kernel);
                prop_assert_eq!(&got.relu, &want.relu, "{:?} relu", kernel);
                prop_assert_eq!(&got.add_u32, &want.add_u32, "{:?} add_u32", kernel);
                prop_assert_eq!(&got.xor, &want.xor, "{:?} xor", kernel);
                prop_assert_eq!(&got.rotl, &want.rotl, "{:?} rotl", kernel);
                prop_assert_eq!(&got.store, &want.store, "{:?} store", kernel);
                if let Some(got) = &got.scatter {
                    prop_assert_eq!(got, &scatter, "{:?} scatter", kernel);
                }
            }
        }
    }
}
