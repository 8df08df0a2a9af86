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
//! portable one). Every instantiation gives the same words. `ln`, `sqrt`
//! and `cos` stay scalar calls in code compiled for the baseline target:
//! a vector `ln` or `cos` would not give libm's bits.

use crate::gemm::{active_kernel, MicroKernel};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::v16::{run_on, Run, LANES, V16};

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

/// Bench hook, not API: [`initialise`] with its keystream on the
/// instantiation called `kernel` (one of
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
            fill(&mut data, seed, kernel, 4, |pass, j| {
                normal(pass.word(4 * j + 1), pass.word(4 * j + 3)) * std
            });
        }
        Init::XavierUniform | Init::Uniform(_) => {
            let a = if let Init::Uniform(a) = init {
                assert!(a > 0.0, "uniform bound must be positive");
                a
            } else {
                let (fan_in, fan_out) = fans(&shape);
                (6.0 / (fan_in + fan_out) as f32).sqrt()
            };
            fill(&mut data, seed, kernel, 2, |pass, j| {
                uniform(-a, a, pass.word(2 * j + 1))
            });
        }
    }
    Tensor::from_vec(shape, data)
}

/// Fills `dst` from `seed`'s keystream, computed on `kernel`, one value
/// per `words_per_sample` words: value `j` of a pass's run is
/// `sample(pass, j)`.
fn fill(
    dst: &mut [f32],
    seed: u64,
    kernel: MicroKernel,
    words_per_sample: usize,
    sample: impl Fn(&Pass, usize) -> f32,
) {
    let key = key(seed);
    for (p, run) in dst.chunks_mut(PASS_WORDS / words_per_sample).enumerate() {
        let pass = Pass::new(kernel, key, p);
        for (j, x) in run.iter_mut().enumerate() {
            *x = sample(&pass, j);
        }
    }
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

/// One standard-normal value by Box–Muller, from the high words of two
/// `next_u64`s.
#[inline]
fn normal(hi1: u32, hi2: u32) -> f32 {
    let u1 = uniform(f32::EPSILON, 1.0, hi1);
    let u2 = uniform(0.0, 1.0, hi2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
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
    fn run<V: V16>(&self) -> Self::Output {
        // The counter of block `first + j` in lane `j`: its low word, then
        // its high word (the carry between them is the scalar add's).
        let (mut lo, mut hi) = ([0.0f32; LANES], [0.0f32; LANES]);
        for (j, (lo, hi)) in lo.iter_mut().zip(&mut hi).enumerate() {
            let block = self.first.wrapping_add(j as u64);
            *lo = f32::from_bits(block as u32);
            *hi = f32::from_bits((block >> 32) as u32);
        }
        let mut input = [V::splat(0.0); BLOCK_WORDS];
        for (x, &c) in input.iter_mut().zip(&CHACHA_CONSTANTS) {
            *x = V::splat(f32::from_bits(c));
        }
        for (x, &k) in input[4..].iter_mut().zip(&self.key) {
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
        let mut out = [[0.0; LANES]; BLOCK_WORDS];
        for ((out, x), input) in out.iter_mut().zip(x).zip(input) {
            x.add_u32(input).store(out);
        }
        out
    }
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
        Pass(run_on(kernel, &Blocks { key, first }))
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
            let blocks = Blocks { key: key(seed), first };
            let want = run_on(MicroKernel::Scalar, &blocks).map(|w| w.map(f32::to_bits));
            for kernel in MicroKernel::available().skip(1) {
                let got = run_on(kernel, &blocks).map(|w| w.map(f32::to_bits));
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
        for &hi1 in &extremes {
            for &hi2 in &extremes {
                let want = reference_normal(&mut Words(&[0, hi1, 0, hi2]));
                assert_eq!(
                    normal(hi1, hi2).to_bits(),
                    want.to_bits(),
                    "{hi1:#x} {hi2:#x}"
                );
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
