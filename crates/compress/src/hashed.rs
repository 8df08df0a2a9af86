//! HashedNet weight sharing (Chen et al., the paper's \[20\]): "HashedNet
//! restricts weights to a smaller set of possible values by using a hash
//! function to map weights to hash buckets, in which they share the same
//! floating point value" (§III-C).
//!
//! Each layer keeps only `buckets` real parameters; virtual weight `i`
//! reads bucket `h(i) mod buckets` through a deterministic hash. This
//! module provides the projection (bucket values = mean of the weights
//! hashing into them — the least-squares fit to the trained weights) and
//! the storage accounting: `buckets` floats per layer regardless of the
//! virtual weight count.

use crate::visit::for_each_weight_param;
use cnn_stack_nn::{Network, Param};
use cnn_stack_tensor::Tensor;

/// Summary of a hashing pass.
#[derive(Clone, Debug, PartialEq)]
pub struct HashedReport {
    /// Virtual weights covered.
    pub virtual_weights: usize,
    /// Real (bucket) parameters stored.
    pub real_parameters: usize,
    /// Mean squared projection error across all layers.
    pub projection_mse: f64,
}

/// The xxHash-style avalanche mix HashedNet uses conceptually: cheap,
/// deterministic, well spread.
#[inline]
fn hash_index(i: usize, salt: u64) -> u64 {
    let mut x = i as u64 ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x
}

/// Projects one weight tensor onto `buckets` shared values: each bucket's
/// value is the mean of the weights hashing into it, then every weight
/// reads back its bucket. Returns the per-tensor squared error.
///
/// # Panics
///
/// Panics if `buckets == 0`.
pub fn hash_tensor(weights: &mut Tensor, buckets: usize, salt: u64) -> f64 {
    assert!(buckets > 0, "at least one bucket required");
    let mut sums = vec![0.0f64; buckets];
    let mut counts = vec![0usize; buckets];
    for (i, &v) in weights.data().iter().enumerate() {
        let b = (hash_index(i, salt) % buckets as u64) as usize;
        sums[b] += v as f64;
        counts[b] += 1;
    }
    let values: Vec<f32> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { (s / c as f64) as f32 })
        .collect();
    let mut err = 0.0f64;
    for (i, v) in weights.data_mut().iter_mut().enumerate() {
        let b = (hash_index(i, salt) % buckets as u64) as usize;
        err += ((*v - values[b]) as f64).powi(2);
        *v = values[b];
    }
    err
}

fn hash_param(param: &mut Param, compression: f64, salt: u64) -> (usize, usize, f64) {
    let n = param.value.len();
    let buckets = ((n as f64 / compression).ceil() as usize).clamp(1, n);
    let err = hash_tensor(&mut param.value, buckets, salt);
    (n, buckets, err)
}

/// Applies HashedNet weight sharing to every convolution and linear
/// layer, with `compression` virtual weights per real parameter (e.g.
/// `8.0` keeps one bucket per eight weights).
///
/// # Panics
///
/// Panics if `compression < 1.0`.
pub fn hash_network(net: &mut Network, compression: f64) -> HashedReport {
    assert!(compression >= 1.0, "compression must be at least 1x");
    let mut virtual_weights = 0usize;
    let mut real_parameters = 0usize;
    let mut err = 0.0f64;
    // One salt per weight tensor, advanced in visit order, so every
    // tensor gets an independent hash stream.
    let mut salt: u64 = 0x5EED;
    for_each_weight_param(net, |_, param| {
        salt += 1;
        let (n, b, e) = hash_param(param, compression, salt);
        virtual_weights += n;
        real_parameters += b;
        err += e;
    });
    HashedReport {
        virtual_weights,
        real_parameters,
        projection_mse: if virtual_weights == 0 {
            0.0
        } else {
            err / virtual_weights as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_models::vgg16_width;
    use cnn_stack_nn::{ExecConfig, Phase};

    #[test]
    fn bucket_count_bounds_distinct_values() {
        let mut w = Tensor::from_fn([8, 16], |i| (i as f32 * 0.37).sin());
        hash_tensor(&mut w, 10, 1);
        let distinct: std::collections::BTreeSet<String> =
            w.data().iter().map(|v| format!("{v:.7}")).collect();
        assert!(distinct.len() <= 10, "{} distinct values", distinct.len());
    }

    #[test]
    fn projection_is_idempotent() {
        let mut w = Tensor::from_fn([4, 32], |i| (i as f32 * 0.13).cos());
        hash_tensor(&mut w, 6, 9);
        let once = w.clone();
        let err = hash_tensor(&mut w, 6, 9);
        assert!(w.allclose(&once, 1e-7));
        assert!(err < 1e-9, "second projection should be exact");
    }

    #[test]
    fn single_bucket_is_global_mean() {
        let mut w = Tensor::from_vec([1, 4], vec![1.0, 2.0, 3.0, 6.0]);
        hash_tensor(&mut w, 1, 0);
        assert_eq!(w.data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn more_buckets_mean_less_error() {
        let make = || Tensor::from_fn([16, 64], |i| ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0);
        let mut coarse = make();
        let mut fine = make();
        let e_coarse = hash_tensor(&mut coarse, 4, 2);
        let e_fine = hash_tensor(&mut fine, 256, 2);
        assert!(e_fine < e_coarse);
    }

    #[test]
    fn network_hashing_compresses_and_runs() {
        let mut model = vgg16_width(10, 0.1);
        let report = hash_network(&mut model.network, 8.0);
        assert!(report.virtual_weights > 0);
        let ratio = report.virtual_weights as f64 / report.real_parameters as f64;
        assert!(ratio > 7.0 && ratio <= 8.5, "ratio {ratio}");
        assert!(report.projection_mse > 0.0);
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    #[should_panic(expected = "at least 1x")]
    fn sub_unity_compression_rejected() {
        let mut model = vgg16_width(10, 0.05);
        let _ = hash_network(&mut model.network, 0.5);
    }
}
