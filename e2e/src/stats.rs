//! Order statistics and host probes the harness reports with.
//!
//! Everything here is deliberately small and total: a percentile of an
//! empty sample is `0.0`, not a panic, because a run that measured
//! nothing must still print a result the driver can reject.

use std::time::{Duration, Instant};

/// Share of blocks kept by [`quiet_blocks`]: four of six.
const QUIET_NUM: usize = 2;
const QUIET_DEN: usize = 3;

/// Sorts a sample ascending (timings are finite by construction).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` % of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of percentile `p` among `n` samples. The small slack
/// keeps `99.9 % of 10 000` at 9 990 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median by the nearest-rank rule.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

/// Median of the values several runs gave one metric, as the benchmark
/// driver takes it: Python's `statistics.median`, the mean of the two
/// middle values of an even sample. 0 for no values.
pub fn run_median(values: &[f64]) -> f64 {
    let xs = sorted(values.to_vec());
    match xs.len() {
        0 => 0.0,
        n => (xs[(n - 1) / 2] + xs[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile of the runs' values as
/// a share of their median, the spread the driver holds to a metric's
/// bound: Python's `statistics.quantiles(values, n=4)` (its default,
/// exclusive, method) over [`run_median`]. 0 below two values or at a
/// zero median.
pub fn run_spread(values: &[f64]) -> f64 {
    let xs = sorted(values.to_vec());
    let (n, median) = (xs.len(), run_median(values));
    if n < 2 || median == 0.0 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median.abs()
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `n` samples strictly beyond its nearest-rank position. With
/// fewer than twenty samples none qualifies and the median is all the
/// sample supports, so 50 is returned.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .fold(50.0, f64::max)
}

/// Indices of the quietest two thirds (rounded up) of the blocks,
/// ranked by block median, ascending by index. Interference on a shared
/// host only ever adds time, so the slowest blocks are the ones a
/// neighbour disturbed; ties keep the earlier block.
pub fn quiet_blocks(block_medians: &[f64]) -> Vec<usize> {
    let keep = (block_medians.len() * QUIET_NUM).div_ceil(QUIET_DEN);
    let mut order: Vec<usize> = (0..block_medians.len()).collect();
    order.sort_by(|&a, &b| {
        block_medians[a]
            .partial_cmp(&block_medians[b])
            .expect("block medians are finite")
            .then(a.cmp(&b))
    });
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// How many back-to-back set-ups to time so that together they fill
/// about `budget_s`: at least two, so that one disturbed set-up cannot
/// be the reading, and at most nine.
pub fn setup_reps(first_s: f64, budget_s: f64) -> usize {
    if first_s <= 0.0 {
        return 9;
    }
    ((budget_s / first_s).ceil() as usize).clamp(2, 9)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resets the kernel's peak-RSS watermark to the current RSS so that
/// set-up repeats and the reference do not count towards the window's
/// peak. Returns `false` where `/proc/self/clear_refs` is not writable;
/// the caller prints that, because the peak then covers the whole run.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative steal ticks over all CPUs (`/proc/stat`, 1 tick = 10 ms),
/// 0 when unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_owned();
            line.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Steps of the canary's dependent multiply-add chain: about a seventh
/// of a millisecond, short enough to run between requests.
const CANARY_STEPS: u32 = 60_000;

/// What the canary takes on this class of host when the neighbours are
/// quiet. Reported times are scaled to the speed at which the canary
/// takes exactly this long; see [`speed`].
pub const CANARY_REF_MS: f64 = 0.15;

/// Times a fixed chain of dependent multiply-adds the benchmark owns.
/// It touches no memory and calls nothing, so its time is the core's
/// speed at this moment and nothing else: when it slows down, the host
/// did, not the code under test.
pub fn canary_ms() -> f64 {
    let (a, b) = std::hint::black_box((1.000_000_01_f64, 1e-9_f64));
    let t = Instant::now();
    let mut x = 1.0_f64;
    for _ in 0..CANARY_STEPS {
        x = x * a + b;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a time measured while the canary read
/// `canaries` to the reference speed: `CANARY_REF_MS` over their
/// median, 1 when there are none.
///
/// On a shared host the clock a core really runs at moves by a third
/// from one quarter-minute to the next (turbo, throttling, a busy
/// sibling), and every time measured moves with it: between two sets of
/// runs of identical code, raw medians disagreed by 14 %. The canary
/// sees the same clock, so `time × speed` removes that common factor
/// and leaves what the code costs. It cannot remove interference the
/// canary does not feel (a neighbour thrashing the shared cache), which
/// is why blocks are still ranked and the slowest dropped.
pub fn speed(canaries: &[f64]) -> f64 {
    if canaries.is_empty() {
        1.0
    } else {
        CANARY_REF_MS / median(canaries)
    }
}

/// Reads the canary at most once every [`CanaryClock::EVERY`] of a
/// loop, and keeps count of the time that took so the loop can subtract
/// it from its wall time.
pub struct CanaryClock {
    last: Instant,
    pub samples: Vec<f64>,
    pub spent_s: f64,
}

impl CanaryClock {
    const EVERY: Duration = Duration::from_millis(40);

    /// Starts with one reading.
    pub fn start() -> Self {
        let mut clock = CanaryClock {
            last: Instant::now(),
            samples: Vec::with_capacity(256),
            spent_s: 0.0,
        };
        clock.sample();
        clock
    }

    pub fn sample(&mut self) -> f64 {
        let ms = canary_ms();
        self.samples.push(ms);
        self.spent_s += ms * 1e-3;
        self.last = Instant::now();
        ms
    }

    /// How long until the next reading is due; zero when it is.
    pub fn due_in(&self) -> Duration {
        Self::EVERY.saturating_sub(self.last.elapsed())
    }

    /// Reads the canary if a reading is due.
    pub fn tick(&mut self) {
        if self.due_in().is_zero() {
            self.sample();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_with_ties_returns_the_tied_value() {
        let xs = [1.0, 2.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 80.0), 2.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn run_median_and_spread_match_pythons_statistics() {
        // statistics.median / statistics.quantiles(v, n=4) of the same lists.
        let ten = [
            96.91, 98.28, 106.4, 102.6, 98.65, 107.9, 110.1, 100.1, 100.7, 107.3,
        ];
        assert!((run_median(&ten) - 101.65).abs() < 1e-9);
        assert!((run_spread(&ten) - 0.087_481_554_353_172_5).abs() < 1e-12);
        assert_eq!(run_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(run_spread(&[3.0, 1.0, 2.0]), 1.0);
        // Two values: the exclusive method extrapolates past both.
        assert_eq!(run_median(&[1.0, 2.0]), 1.5);
        assert_eq!(run_spread(&[1.0, 2.0]), 1.0);
        assert_eq!(run_spread(&[1.0; 10]), 0.0);
        assert_eq!((run_median(&[7.0]), run_spread(&[7.0])), (7.0, 0.0));
        assert_eq!((run_median(&[]), run_spread(&[])), (0.0, 0.0));
        assert_eq!(run_spread(&[-1.0, 0.0, 1.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n < 20: not even the median has ten samples beyond it.
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(9), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quiet_blocks_keep_four_of_six() {
        let medians = [5.0, 1.0, 9.0, 2.0, 3.0, 4.0];
        assert_eq!(quiet_blocks(&medians), vec![1, 3, 4, 5]);
    }

    #[test]
    fn quiet_blocks_single_block_and_all_equal() {
        assert_eq!(quiet_blocks(&[3.0]), vec![0]);
        assert!(quiet_blocks(&[]).is_empty());
        // All equal: ties keep the earliest blocks.
        assert_eq!(quiet_blocks(&[2.0; 6]), vec![0, 1, 2, 3]);
        assert_eq!(quiet_blocks(&[2.0, 2.0, 1.0]), vec![0, 2]);
    }

    #[test]
    fn setup_reps_fill_the_budget_within_two_and_nine() {
        assert_eq!(setup_reps(5.0, 3.0), 2);
        assert_eq!(setup_reps(3.0, 3.0), 2);
        assert_eq!(setup_reps(1.5, 3.0), 2);
        assert_eq!(setup_reps(1.2, 3.0), 3);
        assert_eq!(setup_reps(0.01, 3.0), 9);
        assert_eq!(setup_reps(0.0, 3.0), 9);
    }

    #[test]
    fn host_probes_do_not_fail() {
        assert!(canary_ms() > 0.0);
        assert_eq!(speed(&[]), 1.0);
        assert_eq!(speed(&[0.3, 0.125, 9.0]), 0.5);
        let mut clock = CanaryClock::start();
        clock.tick();
        assert!(!clock.due_in().is_zero());
        clock.sample();
        assert_eq!(clock.samples.len(), 2);
        assert!(clock.spent_s > 0.0);
        let reset = reset_peak_rss();
        let peak = peak_rss_mb();
        // On Linux the status file is always readable; elsewhere both
        // probes degrade to "unknown" instead of failing the run.
        assert!(peak >= 0.0);
        if reset {
            assert!(peak > 0.0);
        }
        let _ = steal_ticks();
    }
}
