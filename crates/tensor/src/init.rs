//! Weight initialisation schemes.
//!
//! The paper trains all three networks from scratch (§IV-A); faithful
//! reproduction of that pipeline needs the standard initialisers used by
//! the reference implementations: Kaiming/He normal for convolutions
//! feeding ReLUs, and Xavier/Glorot uniform for the final classifier.
//!
//! # Determinism
//!
//! A tensor's values are a pure function of (shape, [`Init`], seed):
//! the same bits on every host and every kernel instantiation. A random
//! initialiser reads the ChaCha8 keystream of the vendored
//! `ChaCha8Rng::seed_from_u64(seed)` (a SplitMix64-expanded 256-bit key,
//! a 64-bit block counter in words 12–13 from zero, a zero nonce) and
//! maps its 32-bit words to samples exactly as `rand`'s `gen_range` draws
//! them from that generator, one `next_u64` (two words, of which the
//! high one's top 24 bits count) per uniform value:
//!
//! * `Uniform(a)` and `XavierUniform`: sample `j` is a uniform value on
//!   `[-a, a)` from word `2j + 1`;
//! * `KaimingNormal`: sample `j` is one Box–Muller draw from words
//!   `4j + 1` (`u1` on `[ε, 1)`) and `4j + 3` (`u2` on `[0, 1)`), times
//!   `sqrt(2 / fan_in)`.
//!
//! ChaCha is counter-mode (block `b` is a pure function of the key and
//! `b`), so the keystream is computed 16 consecutive blocks per pass, one
//! block per lane of the crate's 16-lane vocabulary, on the instantiation
//! the GEMM engine dispatches (`CNN_STACK_GEMM_FORCE_SCALAR` pins the
//! portable one). Every instantiation gives the same words.
//!
//! # Box–Muller without libm
//!
//! The normal draws run on the keystream's vectors, 16 per vector (lane
//! `b` of a pass's words `4q + 1` and `4q + 3` is value `4b + q`), and
//! call no libm function. `ln u1` and `cos(2π·u2)` are each evaluated on
//! a finite domain: `u1` and `u2` are each one of exactly 2²⁴ values (the
//! top 24 bits of a word, scaled), so an evaluation can be checked
//! against libm on every value it can ever see, and `init::tests` checks
//! both, on every instantiation, equal to `f32::ln` and `f32::cos` bit
//! for bit. The evaluations are glibc's (since 2.28, from Arm's
//! optimized-routines), branch-free over these domains, in f64 and
//! rounded to f32 once: `logf`'s 16-entry `(1/c, ln c)` table and
//! degree-3 polynomial for `log1p(z/c − 1)`, and `cosf`'s `x·(2/π)·2²⁴`
//! quadrant reduction with its sine and cosine polynomials, with the
//! constants of glibc 2.36's x86-64 build. The SIMD impls fuse their
//! multiply-adds, as that build does, and the portable impl does not;
//! both give libm's bits on the whole domain. `sqrt` and the products are
//! single IEEE operations. So the weights do not depend on the host's
//! libm: a tensor is the same bits on every host.

use crate::gemm::{active_kernel, MicroKernel};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::v16::{run_on, Run, Wide, LANES, V16};

/// An initialisation scheme for a weight tensor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Init {
    /// All zeros (biases, batch-norm shift).
    Zeros,
    /// All ones (batch-norm scale).
    Ones,
    /// Kaiming/He normal: `N(0, sqrt(2 / fan_in))`, for ReLU networks.
    KaimingNormal,
    /// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// Uniform on a caller-supplied symmetric interval.
    Uniform(f32),
}

/// Fan-in/fan-out of a weight shape.
///
/// For rank-4 `[out_c, in_c, k_h, k_w]` filters the fans include the
/// receptive-field size; for rank-2 `[out, in]` matrices they are the
/// matrix extents.
///
/// # Panics
///
/// Panics if the shape rank is not 2 or 4.
pub fn fans(shape: &Shape) -> (usize, usize) {
    match shape.rank() {
        2 => {
            let (out, inp) = shape.matrix();
            (inp, out)
        }
        4 => {
            let d = shape.dims();
            let receptive = d[2] * d[3];
            (d[1] * receptive, d[0] * receptive)
        }
        r => panic!("fan computation requires rank 2 or 4, got rank {r}"),
    }
}

/// Creates a tensor of `shape` initialised according to `init`, using a
/// deterministic stream seeded by `seed` (reproducible experiments are a
/// hard requirement of the benchmark harness). See the module docs for
/// how the stream becomes values.
///
/// # Example
///
/// ```
/// use cnn_stack_tensor::init::{initialise, Init};
///
/// let w = initialise([64, 3, 3, 3], Init::KaimingNormal, 0);
/// assert_eq!(w.len(), 64 * 27);
/// let w2 = initialise([64, 3, 3, 3], Init::KaimingNormal, 0);
/// assert_eq!(w, w2); // deterministic
/// ```
pub fn initialise(shape: impl Into<Shape>, init: Init, seed: u64) -> Tensor {
    initialise_on(active_kernel(), shape.into(), init, seed)
}

/// Bench hook, not API: [`initialise`] with its keystream and draws on
/// the instantiation called `kernel` (one of
/// [`gemm_kernel_names`](crate::gemm::gemm_kernel_names)).
///
/// # Panics
///
/// Panics if this host has no instantiation of that name, or as
/// [`initialise`].
#[doc(hidden)]
pub fn initialise_named(kernel: &str, shape: impl Into<Shape>, init: Init, seed: u64) -> Tensor {
    initialise_on(MicroKernel::named(kernel), shape.into(), init, seed)
}

/// [`initialise`] on a given instantiation.
fn initialise_on(kernel: MicroKernel, shape: Shape, init: Init, seed: u64) -> Tensor {
    let mut data = vec![0.0; shape.len()];
    match init {
        Init::Zeros => {}
        Init::Ones => data.fill(1.0),
        Init::KaimingNormal => {
            let (fan_in, _) = fans(&shape);
            let std = (2.0 / fan_in as f32).sqrt();
            let key = key(seed);
            run_on(
                kernel,
                &mut Normals {
                    key,
                    std,
                    dst: &mut data,
                },
            );
        }
        Init::XavierUniform | Init::Uniform(_) => {
            let a = if let Init::Uniform(a) = init {
                assert!(a > 0.0, "uniform bound must be positive");
                a
            } else {
                let (fan_in, fan_out) = fans(&shape);
                (6.0 / (fan_in + fan_out) as f32).sqrt()
            };
            let key = key(seed);
            for (p, run) in data.chunks_mut(PASS_WORDS / 2).enumerate() {
                let pass = Pass::new(kernel, key, p);
                for (j, x) in run.iter_mut().enumerate() {
                    *x = uniform(-a, a, pass.word(2 * j + 1));
                }
            }
        }
    }
    Tensor::from_vec(shape, data)
}

/// `rand`'s `gen_range(start..end)` on `f32`, from a `next_u64` whose
/// high word is `hi`: its top 24 bits scaled onto `[start, end)`, and
/// `start` where the rounding reaches `end`.
#[inline]
fn uniform(start: f32, end: f32, hi: u32) -> f32 {
    let v = start + (end - start) * ((hi >> 8) as f32 * (1.0 / (1u32 << 24) as f32));
    if v >= end {
        start
    } else {
        v
    }
}

/// 16 standard-normal values by Box–Muller, lane `b` from the high words
/// `hi1` and `hi2` of two `next_u64`s (lane bits): `sqrt(−2·ln u1) ·
/// cos(2π·u2)` in f32, with `u1 = uniform(ε, 1.0, hi1)` and `u2 =
/// uniform(0.0, 1.0, hi2)`. Neither [`uniform`] reaches its guard here
/// (`u1` is at most `1 − 2⁻²⁴`), so the vector form leaves it out.
#[inline(always)]
fn normal<V: V16>(hi1: V, hi2: V) -> V {
    let u1 = unit(hi1)
        .mul(V::splat(1.0 - f32::EPSILON))
        .add(V::splat(f32::EPSILON));
    let u2 = unit(hi2);
    let radius = ln(u1).mul(V::splat(-2.0)).sqrt();
    radius.mul(cos(u2.mul(V::splat(2.0 * std::f32::consts::PI))))
}

/// `(hi >> 8) as f32 · 2⁻²⁴` per lane, the value [`uniform`] scales onto
/// its range: the shift is a rotate and a mask.
#[inline(always)]
fn unit<V: V16>(hi: V) -> V {
    let top = hi.rotl::<24>().and(bits(0x00ff_ffff));
    top.i32_to_f32().mul(V::splat(1.0 / (1u32 << 24) as f32))
}

/// `bits` in every lane.
#[inline(always)]
fn bits<V: V16>(bits: u32) -> V {
    V::splat(f32::from_bits(bits))
}

/// `logf`'s `(1/c, ln c)` pairs: `x = 2^k·z` with `z` in `[OFF, 2·OFF)`
/// (bits), split into 16 subintervals by `z`'s top mantissa bits, `c`
/// near the centre of each.
const LN_INVC: [f64; LANES] = [
    f64::from_bits(0x3ff6_61ec_79f8_f3be),
    f64::from_bits(0x3ff5_71ed_4aaf_883d),
    f64::from_bits(0x3ff4_9539_f0f0_10b0),
    f64::from_bits(0x3ff3_c995_b0b8_0385),
    f64::from_bits(0x3ff3_0d19_0c88_64a5),
    f64::from_bits(0x3ff2_5e22_7b0b_8ea0),
    f64::from_bits(0x3ff1_bb4a_4a1a_343f),
    f64::from_bits(0x3ff1_2358_f08a_e5ba),
    f64::from_bits(0x3ff0_953f_4199_00a7),
    f64::from_bits(0x3ff0_0000_0000_0000),
    f64::from_bits(0x3fee_608c_fd9a_47ac),
    f64::from_bits(0x3fec_a4b3_1f02_6aa0),
    f64::from_bits(0x3feb_2036_576a_fce6),
    f64::from_bits(0x3fe9_c2d1_63a1_aa2d),
    f64::from_bits(0x3fe8_86e6_0378_41ed),
    f64::from_bits(0x3fe7_67dc_f553_4862),
];
/// See [`LN_INVC`].
const LN_LOGC: [f64; LANES] = [
    f64::from_bits(0xbfd5_7bf7_808c_aade),
    f64::from_bits(0xbfd2_bef0_a7c0_6ddb),
    f64::from_bits(0xbfd0_1eae_7f51_3a67),
    f64::from_bits(0xbfcb_31d8_a682_24e9),
    f64::from_bits(0xbfc6_574f_0ac0_7758),
    f64::from_bits(0xbfc1_aa2b_c79c_8100),
    f64::from_bits(0xbfba_4e76_ce8c_0e5e),
    f64::from_bits(0xbfb1_973c_5a61_1ccc),
    f64::from_bits(0xbfa2_52f4_38e1_0c1e),
    0.0,
    f64::from_bits(0x3faa_a5aa_5df2_5984),
    f64::from_bits(0x3fbc_5e53_aa36_2eb4),
    f64::from_bits(0x3fc5_26e5_7720_db08),
    f64::from_bits(0x3fcb_c286_0d22_4770),
    f64::from_bits(0x3fd1_058b_c8a0_7ee1),
    f64::from_bits(0x3fd4_0430_57b6_ee09),
];
/// `logf`'s polynomial for `log1p(r)`: `A0·r⁴ + A1·r³ + A2·r² + r`.
const LN_A0: f64 = f64::from_bits(0xbfd0_0ea3_48b8_8334);
const LN_A1: f64 = f64::from_bits(0x3fd5_575b_0be0_0b6a);
const LN_A2: f64 = f64::from_bits(0xbfdf_fffe_f20a_4123);
/// `ln 2`, scaled by 2⁻²³: [`ln`] multiplies it by `k·2²³`.
const LN2_SCALED: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef) / (1u32 << 23) as f64;
/// The bits of `logf`'s `OFF`, about `0.7`: the subintervals start there.
const LN_OFF: u32 = 0x3f33_0000;

/// `ln x` per lane, as `logf` gives it, for normal positive `x`. `x =
/// 2^k·z` with `z` in `[OFF, 2·OFF)` exact, then `ln x = log1p(z/c − 1) +
/// ln c + k·ln 2` with `c` from the table.
#[inline(always)]
fn ln<V: V16>(x: V) -> V {
    let tmp = x.add_u32(bits(LN_OFF.wrapping_neg()));
    // `(tmp >> 19) % 16`, the subinterval: `select` reads 4 bits.
    let i = tmp.rotl::<13>();
    // `k·2²³` (exact as an f32) and `z`.
    let k = tmp.and(bits(0xff80_0000)).i32_to_f32().widen();
    let z = tmp.and(bits(0x007f_ffff)).add_u32(bits(LN_OFF)).widen();
    let splat = V::Wide::splat;
    let r = splat(-1.0).fma(z, i.select(&LN_INVC));
    let y0 = i.select(&LN_LOGC).fma(k, splat(LN2_SCALED));
    let r2 = r.mul(r);
    let y = splat(LN_A2).fma(splat(LN_A1), r).fma(splat(LN_A0), r2);
    V::narrow(y0.add(r).fma(y, r2))
}

/// `cosf`'s quadrant reduction: `2/π·2²⁴` and `π/2`.
const COS_HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
const COS_HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// `cosf`'s cosine polynomial `1 + C1·x² + … + C4·x⁸` on `[−π/4, π/4]`.
const COS_C1: f64 = f64::from_bits(0xbfdf_ffff_fd0c_621c);
const COS_C2: f64 = f64::from_bits(0x3fa5_5553_e106_8f19);
const COS_C3: f64 = f64::from_bits(0xbf56_c087_e89a_359d);
const COS_C4: f64 = f64::from_bits(0x3ef9_9343_027b_f8c3);
/// `cosf`'s sine polynomial `x + S1·x³ + S2·x⁵ + S3·x⁷` there.
const COS_S1: f64 = f64::from_bits(0xbfc5_5554_5995_a603);
const COS_S2: f64 = f64::from_bits(0x3f81_1076_0523_0bc4);
const COS_S3: f64 = f64::from_bits(0xbf29_94eb_3774_cf24);

/// `cos y` per lane, as `cosf` gives it, for `y` in `[0, 2π)`. The
/// quadrant is `n = (trunc(y·2/π·2²⁴) + 2²³) >> 24` and the reduced
/// argument `x = y − n·π/2`; `cosf` is then `±cos x` (`n` even) or `±sin
/// x` (`n` odd), negative in quadrants 1 and 2. glibc negates its cosine
/// coefficients (a second table) or the argument of its odd sine
/// polynomial; negating the result instead gives the same bits, so here
/// both polynomials run on every lane, each lane keeps its own, and a
/// sign bit is xored in. glibc's small-argument branches (`|y| < 2⁻¹²`:
/// 1.0; `|y| < π/4`: no reduction) agree with this at `n = 0`.
#[inline(always)]
fn cos<V: V16>(y: V) -> V {
    let y64 = y.widen();
    let q = V::truncate(y64.mul(V::Wide::splat(COS_HPI_INV))).add_u32(bits(0x0080_0000));
    let n = q.rotl::<8>().and(bits(0xff));
    let x = y64.fma(n.i32_to_f32().widen(), V::Wide::splat(-COS_HPI));
    let splat = V::Wide::splat;
    let x2 = x.mul(x);
    let x4 = x2.mul(x2);
    let c = splat(1.0).fma(x2, splat(COS_C1)).fma(x4, splat(COS_C2));
    let cos = c.fma(x2.mul(x4), splat(COS_C3).fma(x2, splat(COS_C4)));
    let x3 = x2.mul(x);
    let s = x.fma(x3, splat(COS_S1));
    let sin = s.fma(x2.mul(x3), splat(COS_S2).fma(x2, splat(COS_S3)));
    // Each lane's own polynomial (the odd quadrants' sine), then the sign
    // of quadrants 1 and 2: bit 1 of `n + 1`, rotated to bit 31.
    let (sin, cos) = (V::narrow(sin), V::narrow(cos));
    let even = n.and(bits(1)).add_u32(bits(u32::MAX));
    let sign = n.add_u32(bits(1)).rotl::<30>().and(bits(0x8000_0000));
    sin.xor(sin.xor(cos).and(even)).xor(sign)
}

/// ChaCha's "expand 32-byte k".
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
/// Words of one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Keystream words of one pass: a block per lane.
const PASS_WORDS: usize = BLOCK_WORDS * LANES;

/// The key `ChaCha8Rng::seed_from_u64(seed)` expands `seed` into: four
/// SplitMix64 outputs, each its low word then its high word.
fn key(seed: u64) -> [u32; 8] {
    let mut state = seed;
    let mut key = [0; 8];
    for pair in key.chunks_exact_mut(2) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        pair[0] = z as u32;
        pair[1] = (z >> 32) as u32;
    }
    key
}

/// The 16 keystream blocks `first..first + 16` of `key`, word-major:
/// `out[w][j]` holds word `w` of block `first + j`, as the bits of an
/// `f32` (the vocabulary's lane type).
struct Blocks {
    key: [u32; 8],
    first: u64,
}

impl Run for Blocks {
    type Output = [[f32; LANES]; BLOCK_WORDS];

    #[inline(always)]
    fn run<V: V16>(&mut self) -> Self::Output {
        let mut out = [[0.0; LANES]; BLOCK_WORDS];
        for (out, x) in out.iter_mut().zip(keystream::<V>(&self.key, self.first)) {
            x.store(out);
        }
        out
    }
}

/// The keystream blocks `first..first + 16` of `key`, one per lane: word
/// `w` of block `first + j` is lane `j` of vector `w`.
#[inline(always)]
fn keystream<V: V16>(key: &[u32; 8], first: u64) -> [V; BLOCK_WORDS] {
    // The counter of block `first + j` in lane `j`: its low word, then
    // its high word (the carry between them is the scalar add's).
    let (mut lo, mut hi) = ([0.0f32; LANES], [0.0f32; LANES]);
    for (j, (lo, hi)) in lo.iter_mut().zip(&mut hi).enumerate() {
        let block = first.wrapping_add(j as u64);
        *lo = f32::from_bits(block as u32);
        *hi = f32::from_bits((block >> 32) as u32);
    }
    let mut input = [V::splat(0.0); BLOCK_WORDS];
    for (x, &c) in input.iter_mut().zip(&CHACHA_CONSTANTS) {
        *x = V::splat(f32::from_bits(c));
    }
    for (x, &k) in input[4..].iter_mut().zip(key) {
        *x = V::splat(f32::from_bits(k));
    }
    // SAFETY: `lo` and `hi` each hold the 16 floats a load reads.
    unsafe {
        input[12] = V::load(&lo, 0);
        input[13] = V::load(&hi, 0);
    }
    // Words 14 and 15, the nonce, stay zero.
    let mut x = input;
    for _ in 0..4 {
        // A double round: the four columns, then the four diagonals.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (x, input) in x.iter_mut().zip(input) {
        *x = x.add_u32(input);
    }
    x
}

/// A Kaiming fill: value `j` of `dst` is the normal draw from words
/// `4j + 1` and `4j + 3` of `key`'s keystream, times `std`.
struct Normals<'a> {
    key: [u32; 8],
    std: f32,
    dst: &'a mut [f32],
}

impl Run for Normals<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: V16>(&mut self) {
        // A pass's 16 blocks hold 64 values, four per block: lane `b` of
        // its words `4q + 1` and `4q + 3` is value `4b + q`.
        for (p, run) in self.dst.chunks_mut(PASS_WORDS / 4).enumerate() {
            let words = keystream::<V>(&self.key, (p * LANES) as u64);
            let mut values = [[0.0; LANES]; 4];
            for (q, values) in values.iter_mut().enumerate() {
                let draw = normal(words[4 * q + 1], words[4 * q + 3]);
                draw.mul(V::splat(self.std)).store(values);
            }
            for (j, x) in run.iter_mut().enumerate() {
                *x = values[j % 4][j / 4];
            }
        }
    }
}

/// Standard-normal draws from given words: `out[j]` from the high words
/// `hi1[j]` and `hi2[j]`, 16 at a time (all three slices one length, a
/// multiple of 16).
struct Draws<'a> {
    hi1: &'a [u32],
    hi2: &'a [u32],
    out: &'a mut [f32],
}

impl Run for Draws<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: V16>(&mut self) {
        let words = self
            .hi1
            .chunks_exact(LANES)
            .zip(self.hi2.chunks_exact(LANES));
        for ((hi1, hi2), out) in words.zip(self.out.chunks_exact_mut(LANES)) {
            let (mut a, mut b) = ([0.0; LANES], [0.0; LANES]);
            for j in 0..LANES {
                (a[j], b[j]) = (f32::from_bits(hi1[j]), f32::from_bits(hi2[j]));
            }
            // SAFETY: `a` and `b` each hold the 16 floats a load reads.
            let (hi1, hi2) = unsafe { (V::load(&a, 0), V::load(&b, 0)) };
            normal(hi1, hi2).store(out);
        }
    }
}

/// Bench hook, not API: the Kaiming draw math alone, without the
/// keystream, on the instantiation called `kernel`: `out[j]` is the
/// standard-normal draw from the high words `hi1[j]` and `hi2[j]` (see
/// the module docs).
///
/// # Panics
///
/// Panics if this host has no instantiation of that name, or unless the
/// three slices have one length, a multiple of 16.
#[doc(hidden)]
pub fn normals_named(kernel: &str, hi1: &[u32], hi2: &[u32], out: &mut [f32]) {
    assert!(
        hi1.len() == hi2.len() && hi1.len() == out.len(),
        "one length"
    );
    assert_eq!(out.len() % LANES, 0, "a multiple of 16 draws");
    run_on(MicroKernel::named(kernel), &mut Draws { hi1, hi2, out });
}

/// ChaCha's quarter round on words `a`, `b`, `c` and `d` of 16 blocks.
#[inline(always)]
fn quarter_round<V: V16>(s: &mut [V; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].add_u32(s[b]);
    s[d] = s[d].xor(s[a]).rotl::<16>();
    s[c] = s[c].add_u32(s[d]);
    s[b] = s[b].xor(s[c]).rotl::<12>();
    s[a] = s[a].add_u32(s[b]);
    s[d] = s[d].xor(s[a]).rotl::<8>();
    s[c] = s[c].add_u32(s[d]);
    s[b] = s[b].xor(s[c]).rotl::<7>();
}

/// One pass of a keystream: its 256 words, read in stream order through
/// [`word`](Pass::word).
struct Pass([[f32; LANES]; BLOCK_WORDS]);

impl Pass {
    /// Pass `index` of `key`'s keystream (blocks `16·index ..`), computed
    /// on `kernel`.
    fn new(kernel: MicroKernel, key: [u32; 8], index: usize) -> Pass {
        let first = (index * LANES) as u64;
        Pass(run_on(kernel, &mut Blocks { key, first }))
    }

    /// Word `i` of the pass: word `i % 16` of its block `i / 16`.
    #[inline]
    fn word(&self, i: usize) -> u32 {
        self.0[i % BLOCK_WORDS][i / BLOCK_WORDS].to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The draw the initialisers reproduce: one standard-normal value by
    /// Box–Muller from `rng`, as `initialise` drew it sample by sample.
    fn reference_normal(rng: &mut impl Rng) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// `len` values of `init` (a random one) drawn one by one from
    /// `ChaCha8Rng::seed_from_u64(seed)`, with the fans of `[len, 1]`.
    fn reference(init: Init, len: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (fan_in, fan_out) = fans(&Shape::new([len, 1]));
        let a = match init {
            Init::XavierUniform => (6.0 / (fan_in + fan_out) as f32).sqrt(),
            Init::Uniform(a) => a,
            _ => 0.0,
        };
        let std = (2.0 / fan_in as f32).sqrt();
        (0..len)
            .map(|_| match init {
                Init::KaimingNormal => reference_normal(&mut rng) * std,
                _ => rng.gen_range(-a..a),
            })
            .collect()
    }

    /// A generator that hands out fixed words, for the word→value maps.
    struct Words<'a>(&'a [u32]);

    impl RngCore for Words<'_> {
        fn next_u64(&mut self) -> u64 {
            let (word, rest) = self.0.split_at(2);
            self.0 = rest;
            u64::from(word[0]) | u64::from(word[1]) << 32
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The portable keystream is the vendored `ChaCha8Rng`'s, word for
        /// word, over the first three passes (48 blocks) of any seed.
        #[test]
        fn portable_keystream_is_chacha8rng(seed in 0u64..u64::MAX) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for index in 0..3 {
                let pass = Pass::new(MicroKernel::Scalar, key(seed), index);
                for i in 0..PASS_WORDS {
                    prop_assert_eq!(pass.word(i), rng.next_u32(), "pass {} word {}", index, i);
                }
            }
        }

        /// Every instantiation this host runs computes the portable
        /// impl's blocks at any counter: arbitrary ones, runs that cross
        /// 2³² (the carry into word 13) and runs that wrap past 2⁶⁴.
        #[test]
        fn every_instantiation_computes_the_portable_blocks(
            seed in 0u64..u64::MAX,
            kind in 0u8..3,
            raw in 0u64..u64::MAX,
        ) {
            let first = match kind {
                0 => raw,
                1 => (1 << 32) - 16 + raw % 17,
                _ => u64::MAX - raw % 17,
            };
            let mut blocks = Blocks { key: key(seed), first };
            let want = run_on(MicroKernel::Scalar, &mut blocks).map(|w| w.map(f32::to_bits));
            for kernel in MicroKernel::available().skip(1) {
                let got = run_on(kernel, &mut blocks).map(|w| w.map(f32::to_bits));
                prop_assert_eq!(got, want, "{:?}", kernel);
            }
        }

        /// Every fill on every instantiation gives, bit for bit, the values
        /// a per-sample `ChaCha8Rng` draws, at every length 1–200 (every
        /// residue of a pass's 64 normal or 128 uniform values; a shape
        /// has no zero extent).
        #[test]
        fn every_fill_matches_a_per_sample_chacha8rng(seed in 0u64..u64::MAX) {
            for init in [Init::KaimingNormal, Init::XavierUniform, Init::Uniform(0.37)] {
                for len in 1..=200 {
                    let want = bits(&reference(init, len, seed));
                    for kernel in MicroKernel::available() {
                        let got = initialise_on(kernel, Shape::new([len, 1]), init, seed);
                        prop_assert_eq!(bits(got.data()), want.clone(), "{:?} {:?} len {}", kernel, init, len);
                    }
                }
            }
        }
    }

    /// The word→value maps give `gen_range`'s values on crafted words: the
    /// smallest and largest high words, and the largest whose low byte
    /// (which the map drops) is zero. On the initialisers' ranges the top
    /// word lands just below `end`; on `[2⁻²⁵, 1)` the span rounds up to
    /// 1.0, so `start + span·u` reaches `end` there and the guard returns
    /// `start`.
    #[test]
    fn word_maps_match_gen_range_on_extreme_words() {
        let extremes = [0, 1, 0xff, 0x100, 0x8000_0000, 0xffff_ff00, 0xffff_ffff];
        for k in 0..2000 {
            let a = 1e-3 + k as f32 * 1.37e-3;
            for (start, end) in [
                (-a, a),
                (f32::EPSILON, 1.0),
                (0.0, 1.0),
                (2f32.powi(-25), 1.0),
            ] {
                for &hi in &extremes {
                    let want = Words(&[!hi, hi]).gen_range(start..end);
                    let got = uniform(start, end, hi);
                    assert_eq!(got.to_bits(), want.to_bits(), "[{start}, {end}) on {hi:#x}");
                }
                assert!(uniform(start, end, u32::MAX) < end);
            }
        }
        assert_eq!(uniform(2f32.powi(-25), 1.0, u32::MAX), 2f32.powi(-25));
        let (mut hi1, mut hi2) = (vec![0; 64], vec![0; 64]);
        for (j, (a, b)) in hi1.iter_mut().zip(&mut hi2).enumerate() {
            (*a, *b) = (extremes[j % 7], extremes[j / 7 % 7]);
        }
        for kernel in MicroKernel::available() {
            let got = draws(kernel, &hi1, &hi2);
            for ((&a, &b), got) in hi1.iter().zip(&hi2).zip(got) {
                let want = reference_normal(&mut Words(&[0, a, 0, b]));
                assert_eq!(got.to_bits(), want.to_bits(), "{kernel:?} {a:#x} {b:#x}");
            }
        }
    }

    /// The draws of `hi1` and `hi2` on `kernel`.
    fn draws(kernel: MicroKernel, hi1: &[u32], hi2: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0; hi1.len()];
        run_on(
            kernel,
            &mut Draws {
                hi1,
                hi2,
                out: &mut out,
            },
        );
        out
    }

    /// [`ln`] or [`cos`] of the lanes of `x`, on one instantiation.
    struct Eval<'a> {
        cos: bool,
        x: &'a [f32],
        out: &'a mut [f32],
    }

    impl Run for Eval<'_> {
        type Output = ();

        #[inline(always)]
        fn run<V: V16>(&mut self) {
            for (x, out) in self
                .x
                .chunks_exact(LANES)
                .zip(self.out.chunks_exact_mut(LANES))
            {
                // SAFETY: the chunk holds the 16 floats a load reads.
                let x = unsafe { V::load(x, 0) };
                (if self.cos { cos(x) } else { ln(x) }).store(out);
            }
        }
    }

    /// Values `k << 8 | low` for `k` in `ks`, as the high words of
    /// `next_u64`s (the map drops the low byte).
    fn words(ks: std::ops::Range<u32>, low: u32) -> Vec<u32> {
        ks.map(|k| k << 8 | low).collect()
    }

    /// The draws' `ln` and `cos` give libm's bits on every value they can
    /// see, on every instantiation: `ln` on all 2²⁴ `u1 = uniform(ε, 1.0,
    /// hi)` and `cos` on all 2²⁴ `2π·u2`, `u2 = uniform(0.0, 1.0, hi)`.
    #[test]
    fn ln_and_cos_give_libm_bits_on_their_whole_domain() {
        const CHUNK: u32 = 1 << 16;
        for start in (0..1u32 << 24).step_by(CHUNK as usize) {
            let hi = words(start..start + CHUNK, 0);
            let u1: Vec<f32> = hi.iter().map(|&h| uniform(f32::EPSILON, 1.0, h)).collect();
            let y: Vec<f32> = hi
                .iter()
                .map(|&h| 2.0 * std::f32::consts::PI * uniform(0.0, 1.0, h))
                .collect();
            let want_ln = bits(&u1.iter().map(|u| u.ln()).collect::<Vec<_>>());
            let want_cos = bits(&y.iter().map(|y| y.cos()).collect::<Vec<_>>());
            for kernel in MicroKernel::available() {
                for (cos, x, want) in [(false, &u1, &want_ln), (true, &y, &want_cos)] {
                    let mut out = vec![0.0; x.len()];
                    run_on(
                        kernel,
                        &mut Eval {
                            cos,
                            x,
                            out: &mut out,
                        },
                    );
                    if let Some(j) = (0..x.len()).find(|&j| out[j].to_bits() != want[j]) {
                        panic!(
                            "{kernel:?} {} of {:e} ({:#x}): {:#x}, libm {:#x}",
                            if cos { "cos" } else { "ln" },
                            x[j],
                            x[j].to_bits(),
                            out[j].to_bits(),
                            want[j]
                        );
                    }
                }
            }
        }
    }

    /// Every instantiation's draw is the per-sample `gen_range` Box–Muller
    /// draw on every `u1` and every `u2`: all 2²⁴ top bits of `hi1`, each
    /// paired with a `hi2` that runs through all 2²⁴ of its own, and low
    /// bytes that the map drops.
    #[test]
    fn draws_match_the_per_sample_draw_on_every_word() {
        const CHUNK: u32 = 1 << 16;
        for start in (0..1u32 << 24).step_by(CHUNK as usize) {
            let hi1 = words(start..start + CHUNK, start >> 16);
            // An odd multiplier permutes the 2²⁴ values.
            let hi2: Vec<u32> = (start..start + CHUNK)
                .map(|k| k.wrapping_mul(0x9e37_79b1) << 8 | 0xff)
                .collect();
            let want: Vec<u32> = hi1
                .iter()
                .zip(&hi2)
                .map(|(&a, &b)| reference_normal(&mut Words(&[!a, a, !b, b])).to_bits())
                .collect();
            for kernel in MicroKernel::available() {
                let got = draws(kernel, &hi1, &hi2);
                if let Some(j) = (0..got.len()).find(|&j| got[j].to_bits() != want[j]) {
                    let (a, b, got) = (hi1[j], hi2[j], got[j].to_bits());
                    panic!("{kernel:?} {a:#x} {b:#x}: {got:#x}, want {:#x}", want[j]);
                }
            }
        }
    }

    #[test]
    fn fans_for_conv_and_linear() {
        assert_eq!(fans(&Shape::new([64, 3, 3, 3])), (27, 576));
        assert_eq!(fans(&Shape::new([10, 512])), (512, 10));
    }

    #[test]
    #[should_panic(expected = "rank 2 or 4")]
    fn fans_rejects_rank3() {
        let _ = fans(&Shape::new([2, 3, 4]));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = initialise([32, 16, 3, 3], Init::KaimingNormal, 7);
        let b = initialise([32, 16, 3, 3], Init::KaimingNormal, 7);
        let c = initialise([32, 16, 3, 3], Init::KaimingNormal, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn kaiming_std_is_plausible() {
        let w = initialise([128, 64, 3, 3], Init::KaimingNormal, 0);
        let n = w.len() as f32;
        let mean = w.sum() / n;
        let var = w.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let want = 2.0 / (64.0 * 9.0);
        assert!((var / want - 1.0).abs() < 0.1, "var {var} vs want {want}");
        assert!(mean.abs() < 0.005);
    }

    #[test]
    fn xavier_bounds_respected() {
        let w = initialise([100, 200], Init::XavierUniform, 3);
        let a = (6.0f32 / 300.0).sqrt();
        assert!(w.max() <= a && w.min() >= -a);
    }

    #[test]
    fn zeros_and_ones() {
        assert_eq!(initialise([4], Init::Zeros, 0).sum(), 0.0);
        assert_eq!(initialise([4], Init::Ones, 0).sum(), 4.0);
    }

    #[test]
    fn uniform_custom_bound() {
        let w = initialise([1000], Init::Uniform(0.5), 1);
        assert!(w.max() <= 0.5 && w.min() >= -0.5);
        assert!(w.max() > 0.3); // actually fills the range
    }
}
