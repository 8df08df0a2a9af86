//! A CLBlast-style tuned GEMM with a CLTune-style auto-tuner.
//!
//! CLBlast exposes a large tuning surface (work-group sizes, register
//! tiling, vector widths, unroll factors — "up to 14 parameters", §IV-D)
//! and ships CLTune to search it. This module reproduces the CPU-
//! meaningful subset of that surface — the [`TileConfig`] tile extents
//! and unroll factor of `cnn-stack-tensor`'s parameterised GEMM — and an
//! auto-tuner that searches it by *measuring real executions*, exactly
//! how CLTune works.

use cnn_stack_tensor::{gemm, TileConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// A GEMM specialised to one tile configuration.
///
/// # Example
///
/// ```
/// use cnn_stack_hwsim::TunedGemm;
/// use cnn_stack_tensor::{TileConfig, Tensor};
///
/// let gemm = TunedGemm::new(TileConfig::new(16, 16, 16, 4));
/// let a = Tensor::ones([4, 8]);
/// let b = Tensor::ones([8, 4]);
/// assert_eq!(gemm.matmul(&a, &b).data()[0], 8.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunedGemm {
    config: TileConfig,
}

impl TunedGemm {
    /// Wraps a tile configuration.
    pub fn new(config: TileConfig) -> Self {
        TunedGemm { config }
    }

    /// The configuration.
    pub fn config(&self) -> TileConfig {
        self.config
    }

    /// Runs `A · B` with this tiling.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not rank-2 with matching inner
    /// dimensions.
    pub fn matmul(
        &self,
        a: &cnn_stack_tensor::Tensor,
        b: &cnn_stack_tensor::Tensor,
    ) -> cnn_stack_tensor::Tensor {
        gemm::matmul_tiled(a, b, self.config)
    }
}

/// Result of an auto-tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneResult {
    /// The best configuration found.
    pub best: TileConfig,
    /// Its measured time in seconds (median of the repeats).
    pub best_seconds: f64,
    /// All `(config, seconds)` measurements, in evaluation order.
    pub evaluated: Vec<(TileConfig, f64)>,
}

/// The candidate grid the tuner samples (CLTune-style exhaustive grid,
/// randomly ordered).
fn candidate_grid() -> Vec<TileConfig> {
    let mut out = Vec::new();
    for &tm in &[8usize, 16, 32, 64, 128] {
        for &tn in &[8usize, 16, 32, 64, 128] {
            for &tk in &[8usize, 16, 32, 64] {
                for &u in &[1usize, 2, 4, 8] {
                    out.push(TileConfig::new(tm, tn, tk, u));
                }
            }
        }
    }
    out
}

/// Auto-tunes the tiled GEMM for an `m × k · k × n` product by measuring
/// up to `budget` random candidates (`repeats` timed runs each, median
/// taken). Deterministic for a given `seed` up to timer noise.
///
/// # Panics
///
/// Panics if any dimension, `budget` or `repeats` is zero.
pub fn tune_gemm(
    m: usize,
    k: usize,
    n: usize,
    budget: usize,
    repeats: usize,
    seed: u64,
) -> TuneResult {
    assert!(m > 0 && k > 0 && n > 0, "dimensions must be non-zero");
    assert!(
        budget > 0 && repeats > 0,
        "budget and repeats must be non-zero"
    );
    let a = cnn_stack_tensor::Tensor::from_fn([m, k], |i| ((i % 17) as f32) * 0.1 - 0.8);
    let b = cnn_stack_tensor::Tensor::from_fn([k, n], |i| ((i % 13) as f32) * 0.1 - 0.6);

    let mut grid = candidate_grid();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    grid.shuffle(&mut rng);
    grid.truncate(budget);

    let mut evaluated = Vec::with_capacity(grid.len());
    for cfg in grid {
        let mut times = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let start = Instant::now();
            let c = gemm::matmul_tiled(&a, &b, cfg);
            // Keep the result alive so the computation cannot be elided.
            std::hint::black_box(c.data()[0]);
            times.push(start.elapsed().as_secs_f64());
        }
        times.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
        evaluated.push((cfg, times[times.len() / 2]));
    }
    let (best, best_seconds) = evaluated
        .iter()
        .cloned()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
        .expect("budget > 0");
    TuneResult {
        best,
        best_seconds,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_tensor::{matmul, Tensor};

    #[test]
    fn tuned_gemm_is_correct_for_every_grid_config() {
        let a = Tensor::from_fn([33, 47], |i| (i as f32).sin());
        let b = Tensor::from_fn([47, 29], |i| (i as f32).cos());
        let want = matmul(&a, &b);
        for cfg in candidate_grid().into_iter().step_by(37) {
            let got = TunedGemm::new(cfg).matmul(&a, &b);
            assert!(want.allclose(&got, 1e-3), "config {cfg:?} wrong");
        }
    }

    #[test]
    fn tuner_returns_budgeted_measurements() {
        let r = tune_gemm(48, 48, 48, 6, 1, 0);
        assert_eq!(r.evaluated.len(), 6);
        assert!(r.best_seconds > 0.0);
        // The best is genuinely the minimum of the evaluations.
        let min = r
            .evaluated
            .iter()
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(r.best_seconds, min);
    }

    #[test]
    fn tuner_is_deterministic_in_candidate_order() {
        let r1 = tune_gemm(32, 32, 32, 5, 1, 9);
        let r2 = tune_gemm(32, 32, 32, 5, 1, 9);
        let c1: Vec<_> = r1.evaluated.iter().map(|(c, _)| *c).collect();
        let c2: Vec<_> = r2.evaluated.iter().map(|(c, _)| *c).collect();
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_rejected() {
        let _ = tune_gemm(8, 8, 8, 0, 1, 0);
    }
}
