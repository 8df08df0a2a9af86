//! Seeded inputs and the deterministic open-loop arrival schedule.
//!
//! The serving workload repeats one 500 ms period: a burst of three
//! simultaneous requests at +0 ms, then seven singles at +90, +150, …
//! +450 ms. The gaps are wider than the service time of the batch they
//! follow, so no request ever queues behind another batch, latency stays
//! linear in service time, and batch composition (one batch of three,
//! seven of one: mean 1.6) repeats exactly. Poisson arrivals at this
//! rate put the median between the rung-1 and rung-4 modes and it
//! wandered 51–75 ms between identical runs.

use cnn_stack_tensor::Tensor;

/// Period of the arrival pattern.
pub const PERIOD_NS: u64 = 500_000_000;
/// Requests per period: the burst plus the singles.
pub const PER_PERIOD: usize = BURST + SINGLES;
const BURST: usize = 3;
const SINGLES: usize = 7;
const FIRST_SINGLE_NS: u64 = 90_000_000;
const SINGLE_STEP_NS: u64 = 60_000_000;
const JITTER_NS: u64 = 5_000_000;

/// SplitMix64: the whole benchmark's only source of randomness, so one
/// `--seed` fixes every input and every jitter.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)` with 24 bits of mantissa.
    fn next_signed_unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// `count` CIFAR-shaped images with pixels uniform in `[-1, 1)`.
pub fn image_pool(seed: u64, count: usize) -> Vec<Tensor> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| Tensor::from_fn([3usize, 32, 32], |_| rng.next_signed_unit()))
        .collect()
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, from the start of the window.
    pub due_ns: u64,
    /// Which image of the pool it carries.
    pub input: usize,
    /// Part of a burst of three (served together on the padded rung-4
    /// session) or a single (served alone on rung 1).
    pub burst: bool,
}

/// The arrivals of `periods` periods, in due order. The seed moves only
/// the singles' jitter (±5 ms) and which image each request carries; the
/// pattern itself is fixed.
pub fn arrivals(seed: u64, periods: usize, pool: usize) -> Vec<Arrival> {
    // Decorrelated from the image stream, which starts at `seed`.
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    let mut out = Vec::with_capacity(periods * PER_PERIOD);
    for p in 0..periods as u64 {
        let base = p * PERIOD_NS;
        for _ in 0..BURST {
            out.push(Arrival {
                due_ns: base,
                input: rng.next_u64() as usize % pool,
                burst: true,
            });
        }
        for s in 0..SINGLES as u64 {
            let jitter = rng.next_u64() % (2 * JITTER_NS + 1);
            out.push(Arrival {
                due_ns: base + FIRST_SINGLE_NS + s * SINGLE_STEP_NS + jitter - JITTER_NS,
                input: rng.next_u64() as usize % pool,
                burst: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_inputs() {
        assert_eq!(arrivals(7, 12, 4), arrivals(7, 12, 4));
        let a = image_pool(7, 4);
        let b = image_pool(7, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
        }
        assert!(a[0].data().iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a[0].data(), a[1].data());
    }

    #[test]
    fn another_seed_moves_only_jitter_and_inputs() {
        let a = arrivals(1, 20, 4);
        let b = arrivals(2, 20, 4);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        let mut jitter_differs = false;
        let mut inputs_differ = false;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.burst, y.burst);
            if x.burst {
                assert_eq!(x.due_ns, y.due_ns);
            } else {
                assert!(x.due_ns.abs_diff(y.due_ns) <= 2 * JITTER_NS);
                jitter_differs |= x.due_ns != y.due_ns;
            }
            inputs_differ |= x.input != y.input;
        }
        assert!(jitter_differs && inputs_differ);
        assert_ne!(image_pool(1, 1)[0].data(), image_pool(2, 1)[0].data());
    }

    #[test]
    fn pattern_is_a_burst_of_three_then_seven_spaced_singles() {
        let a = arrivals(3, 4, 4);
        assert_eq!(a.len(), 4 * PER_PERIOD);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        for period in a.chunks(PER_PERIOD) {
            let base = period[0].due_ns;
            assert_eq!(base % PERIOD_NS, 0);
            assert!(period[..BURST].iter().all(|r| r.burst && r.due_ns == base));
            assert!(period[BURST..].iter().all(|r| !r.burst));
            // Even with opposite jitter the gaps never close below
            // 50 ms, and the last single leaves 45 ms before the burst.
            assert!(period[BURST].due_ns - base >= FIRST_SINGLE_NS - JITTER_NS);
            for w in period[BURST..].windows(2) {
                assert!(w[1].due_ns - w[0].due_ns >= SINGLE_STEP_NS - 2 * JITTER_NS);
            }
            assert!(period[PER_PERIOD - 1].due_ns <= base + PERIOD_NS - 45_000_000);
        }
        assert!(a.iter().all(|r| r.input < 4));
    }
}
