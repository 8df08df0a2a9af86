//! Materialising a stack configuration into a concrete, surgically
//! modified network.

use crate::config::{CompressionChoice, StackConfig};
use cnn_stack_compress::{magnitude, ttq};
use cnn_stack_models::Model;
use cnn_stack_nn::network::set_network_format;
use cnn_stack_nn::{Conv2d, Error, ResidualBlock};

/// Builds the configured model and applies the configured compression
/// for real: weight pruning installs magnitude masks, channel pruning
/// performs structural surgery down to the target parameter compression,
/// and quantisation ternarises every weight tensor. Finally the weight
/// format is applied network-wide.
///
/// `width` scales all channel counts (1.0 = the paper's full-size
/// models; smaller values build proportionally thinner networks for fast
/// functional runs).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if an operating point is out of
/// range (e.g. weight sparsity outside `[0, 100)` or a channel
/// compression target outside `[0, 100)`).
pub fn try_materialise(cfg: &StackConfig, width: f64) -> Result<Model, Error> {
    let mut model = cfg.model.build_width(10, width);
    match cfg.compression {
        CompressionChoice::Plain => {}
        CompressionChoice::WeightPruning { sparsity_pct } => {
            if !(0.0..100.0).contains(&sparsity_pct) {
                return Err(Error::InvalidConfig(format!(
                    "weight-pruning sparsity {sparsity_pct}% must be in [0, 100)"
                )));
            }
            magnitude::prune_network(&mut model.network, sparsity_pct / 100.0);
        }
        CompressionChoice::ChannelPruning { compression_pct } => {
            try_channel_prune_to(&mut model, compression_pct / 100.0)?;
        }
        CompressionChoice::TernaryQuantisation { threshold } => {
            if !threshold.is_finite() || threshold < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "TTQ threshold {threshold} must be finite and non-negative"
                )));
            }
            // Trained TTQ's sparsity is a property of the fine-tuned
            // weight distribution, not of the raw threshold on untrained
            // weights; hit the calibrated sparsity for this model and
            // threshold (Fig. 3(c) / Table III), then ternarise the
            // survivors.
            let sparsity =
                cnn_stack_compress::AccuracyModel::ttq_sparsity(cfg.model, threshold) / 100.0;
            magnitude::prune_network(&mut model.network, sparsity.min(0.99));
            ttq::ttq_quantise(&mut model.network, 0.0);
        }
    }
    set_network_format(&mut model.network, cfg.format);
    Ok(model)
}

/// Builds the configured model (panicking shim over
/// [`try_materialise`]).
///
/// # Panics
///
/// Panics if an operating point is out of range (e.g. sparsity ≥ 100 %).
pub fn materialise(cfg: &StackConfig, width: f64) -> Model {
    try_materialise(cfg, width).expect("stack configuration is valid")
}

/// Structurally prunes channels (lowest weight-magnitude saliency first,
/// the cheap offline proxy for the trained Fisher signal) until the
/// parameter compression target is reached or nothing more can be
/// removed.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if `target` is not in `[0, 1)`, or
/// an error from the pruning plan if it does not match the network.
#[allow(clippy::needless_range_loop)]
pub fn try_channel_prune_to(model: &mut Model, target: f64) -> Result<(), Error> {
    if !(0.0..1.0).contains(&target) {
        return Err(Error::InvalidConfig(format!(
            "channel-pruning target {target} must be in [0, 1)"
        )));
    }
    let shape = [1usize, 3, 32, 32];
    let original: usize = model
        .network
        .descriptors(&shape)
        .iter()
        .map(|d| d.weight_elems)
        .sum();
    // Maintain producer-filter norms incrementally: pruning (g, c) drops
    // one row of group g's producer and one input-channel slice of its
    // consumer; in the chain-structured plans the consumer is group
    // g+1's producer, so only norms[g] and norms[g+1] change.
    let mut norms: Vec<Vec<f64>> = Vec::with_capacity(model.plan.group_count());
    for g in 0..model.plan.group_count() {
        norms.push(group_channel_norms(model, g)?);
    }
    'outer: loop {
        let now: usize = model
            .network
            .descriptors(&shape)
            .iter()
            .map(|d| d.weight_elems)
            .sum();
        let remaining = target - (1.0 - now as f64 / original as f64);
        if remaining <= 0.0 {
            break;
        }
        // Recomputing descriptors per channel is quadratic; prune a small
        // batch between recomputes (slight overshoot is fine — the
        // paper's compression rates are themselves one-decimal figures).
        let batch = ((remaining * model.plan.try_total_channels(&model.network)? as f64 / 2.0)
            .ceil() as usize)
            .clamp(1, 64);
        for _ in 0..batch {
            // Pick the (group, channel) with the smallest producer-filter
            // L2 norm among groups that can still shrink.
            let mut best: Option<(usize, usize, f64)> = None;
            for g in 0..model.plan.group_count() {
                if !model.plan.try_can_prune(&model.network, g)? {
                    continue;
                }
                for (c, &n) in norms[g].iter().enumerate() {
                    if best.is_none_or(|(_, _, b)| n < b) {
                        best = Some((g, c, n));
                    }
                }
            }
            let Some((g, c, _)) = best else {
                break 'outer; // nothing prunable remains
            };
            model.plan.try_prune(&mut model.network, g, c)?;
            norms[g].remove(c);
            if g + 1 < norms.len() {
                norms[g + 1] = group_channel_norms(model, g + 1)?;
            }
        }
    }
    Ok(())
}

/// Structurally prunes channels to a parameter compression target
/// (panicking shim over [`try_channel_prune_to`]).
///
/// # Panics
///
/// Panics if `target` is not in `[0, 1)`.
pub fn channel_prune_to(model: &mut Model, target: f64) {
    try_channel_prune_to(model, target).expect("channel-pruning target is valid");
}

/// L2 norms of each producer-filter row in a prune group.
fn group_channel_norms(model: &mut Model, g: usize) -> Result<Vec<f64>, Error> {
    use cnn_stack_models::PruneGroup;
    let group = model.plan.groups()[g];
    Ok(match group {
        PruneGroup::ConvToConv { conv, .. }
        | PruneGroup::ConvToDepthwise { conv, .. }
        | PruneGroup::ConvToLinear { conv, .. } => {
            let conv = model
                .network
                .layer(conv)?
                .as_any()
                .downcast_ref::<Conv2d>()
                .ok_or_else(|| Error::InvalidConfig(format!("layer {conv} is not a Conv2d")))?;
            conv_row_norms(conv)
        }
        PruneGroup::ResidualInner { block } => {
            let block = model
                .network
                .layer(block)?
                .as_any()
                .downcast_ref::<ResidualBlock>()
                .ok_or_else(|| {
                    Error::InvalidConfig(format!("layer {block} is not a ResidualBlock"))
                })?;
            conv_row_norms(block.conv1())
        }
    })
}

fn conv_row_norms(conv: &Conv2d) -> Vec<f64> {
    let m = conv.weight_matrix();
    let (rows, cols) = m.shape().matrix();
    (0..rows)
        .map(|r| {
            m.data()[r * cols..(r + 1) * cols]
                .iter()
                .map(|v| (*v as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformChoice;
    use cnn_stack_models::ModelKind;
    use cnn_stack_nn::{ExecConfig, Phase, WeightFormat};
    use cnn_stack_tensor::Tensor;

    #[test]
    fn plain_materialises_dense() {
        let cfg = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::OdroidXu4);
        let mut model = materialise(&cfg, 0.1);
        let descs = model.network.descriptors(&[1, 3, 32, 32]);
        assert!(descs.iter().all(|d| d.format == WeightFormat::Dense));
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn weight_pruning_yields_sparse_csr_network() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7)
            .compress(CompressionChoice::WeightPruning { sparsity_pct: 70.0 });
        let model = materialise(&cfg, 0.1);
        let descs = model.network.descriptors(&[1, 3, 32, 32]);
        let conv = descs.iter().find(|d| d.name.starts_with("conv")).unwrap();
        assert_eq!(conv.format, WeightFormat::Csr);
        assert!(conv.sparsity() > 0.6, "sparsity {}", conv.sparsity());
    }

    #[test]
    fn channel_pruning_hits_compression_target() {
        let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7).compress(
            CompressionChoice::ChannelPruning {
                compression_pct: 60.0,
            },
        );
        let mut model = materialise(&cfg, 0.2);
        let full = ModelKind::Vgg16.build_width(10, 0.2);
        let now = model.network.num_params();
        let orig = full.network.num_params();
        let compression = 1.0 - now as f64 / orig as f64;
        assert!(
            (0.55..0.75).contains(&compression),
            "compression {compression}"
        );
        // Still dense format and runnable.
        let y = model.network.forward(
            &Tensor::zeros([1, 3, 32, 32]),
            Phase::Eval,
            &ExecConfig::default(),
        );
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn quantisation_is_ternary_and_csr() {
        let cfg = StackConfig::plain(ModelKind::ResNet18, PlatformChoice::OdroidXu4)
            .compress(CompressionChoice::TernaryQuantisation { threshold: 0.1 });
        let model = materialise(&cfg, 0.1);
        let descs = model.network.descriptors(&[1, 3, 32, 32]);
        let conv = descs.iter().find(|d| d.name.starts_with("conv")).unwrap();
        assert_eq!(conv.format, WeightFormat::Csr);
        assert!(conv.sparsity() > 0.0);
    }

    #[test]
    fn channel_pruning_prefers_low_norm_channels() {
        let mut model = ModelKind::Vgg16.build_width(10, 0.1);
        // Zero out channel 1 of the first conv: it must be pruned first.
        {
            let conv = model
                .network
                .layer_mut(0)
                .unwrap()
                .as_any_mut()
                .downcast_mut::<Conv2d>()
                .unwrap();
            let cols = conv.in_channels() * 9;
            for i in cols..2 * cols {
                conv.weight_mut().value.data_mut()[i] = 0.0;
            }
        }
        let before = model.plan.channels(&model.network, 0);
        channel_prune_to(&mut model, 0.01);
        // Group 0's zeroed channel is the global minimum-norm channel.
        assert!(model.plan.channels(&model.network, 0) < before);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn bad_target_rejected() {
        let mut model = ModelKind::Vgg16.build_width(10, 0.1);
        channel_prune_to(&mut model, 1.0);
    }

    #[test]
    fn try_apis_reject_bad_operating_points() {
        let mut model = ModelKind::Vgg16.build_width(10, 0.1);
        assert!(matches!(
            try_channel_prune_to(&mut model, 1.0),
            Err(cnn_stack_nn::Error::InvalidConfig(_))
        ));
        assert!(matches!(
            try_channel_prune_to(&mut model, -0.1),
            Err(cnn_stack_nn::Error::InvalidConfig(_))
        ));

        let cfg = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::OdroidXu4).compress(
            CompressionChoice::WeightPruning {
                sparsity_pct: 120.0,
            },
        );
        assert!(matches!(
            try_materialise(&cfg, 0.1),
            Err(cnn_stack_nn::Error::InvalidConfig(_))
        ));

        let cfg = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::OdroidXu4).compress(
            CompressionChoice::TernaryQuantisation {
                threshold: f64::NAN,
            },
        );
        assert!(matches!(
            try_materialise(&cfg, 0.1),
            Err(cnn_stack_nn::Error::InvalidConfig(_))
        ));

        // A valid point still materialises through the fallible path.
        let cfg = StackConfig::plain(ModelKind::MobileNet, PlatformChoice::OdroidXu4);
        assert!(try_materialise(&cfg, 0.1).is_ok());
    }
}
