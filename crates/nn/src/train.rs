//! SGD training with the paper's stepped learning-rate schedule (§IV-A).

use crate::layer::{ExecConfig, Phase};
use crate::network::Network;
use cnn_stack_tensor::{ops, Tensor};

/// Learning-rate schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant(f32),
    /// The paper's schedule: "starting at 0.1 and decreasing by a factor
    /// of 10 every 50 epochs".
    Stepped {
        /// Initial learning rate.
        initial: f32,
        /// Multiplicative decay applied every `every` epochs.
        factor: f32,
        /// Epoch period between decays.
        every: usize,
    },
}

impl LrSchedule {
    /// The paper's training schedule: 0.1, ÷10 every 50 epochs.
    pub fn paper() -> Self {
        LrSchedule::Stepped {
            initial: 0.1,
            factor: 0.1,
            every: 50,
        }
    }

    /// Learning rate at a (0-based) epoch.
    pub fn at_epoch(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::Stepped {
                initial,
                factor,
                every,
            } => initial * factor.powi((epoch / every) as i32),
        }
    }
}

/// Stochastic gradient descent with momentum, weight decay, and
/// mask-aware updates (pruned weights stay pruned during fine-tuning).
///
/// # Example
///
/// ```
/// use cnn_stack_nn::Sgd;
///
/// let sgd = Sgd::new(0.1).momentum(0.9).weight_decay(5e-4);
/// assert_eq!(sgd.lr(), 0.1);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient (builder style).
    pub fn momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets L2 weight decay (builder style).
    pub fn weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for stepped schedules).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one SGD step to every parameter of `net`, then re-applies
    /// pruning masks so masked weights cannot be revived.
    pub fn step(&mut self, net: &mut Network) {
        let params = net.params_mut();
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().dims().to_vec()))
                .collect();
        }
        for (param, vel) in params.into_iter().zip(&mut self.velocity) {
            // v = m*v + g + wd*w ; w -= lr * v. A parameter no backward
            // pass reached has a zero gradient.
            let (value, grad) = param.value_and_grad();
            let grad = grad.map(Tensor::data);
            for i in 0..value.len() {
                let g = grad.map_or(0.0, |g| g[i]) + self.weight_decay * value.data()[i];
                let v = self.momentum * vel.data()[i] + g;
                vel.data_mut()[i] = v;
                value.data_mut()[i] -= self.lr * v;
            }
            param.apply_mask();
        }
    }
}

/// High-level training configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Epoch count.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    /// The paper's hyper-parameters (SGD, stepped LR from 0.1).
    fn default() -> Self {
        TrainConfig {
            epochs: 150,
            batch_size: 128,
            schedule: LrSchedule::paper(),
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }
}

/// Runs one optimisation step on a single mini-batch and returns the
/// cross-entropy loss.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn train_batch(
    net: &mut Network,
    sgd: &mut Sgd,
    images: &Tensor,
    labels: &[usize],
    cfg: &ExecConfig,
) -> f32 {
    net.zero_grad();
    let logits = net.forward(images, Phase::Train, cfg);
    let (loss, dlogits) = ops::cross_entropy_with_grad(&logits, labels);
    net.backward(&dlogits);
    sgd.step(net);
    loss
}

/// Evaluates top-1 accuracy of `net` on a labelled batch.
pub fn evaluate(net: &mut Network, images: &Tensor, labels: &[usize], cfg: &ExecConfig) -> f64 {
    let logits = net.forward(images, Phase::Eval, cfg);
    ops::top1_accuracy(&logits, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Flatten, Linear, ReLU};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn net() -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, 3)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 6 * 6, 2, 4)),
        ])
        .unwrap()
    }

    fn batch(seed: u64) -> (Tensor, Vec<usize>) {
        // Class 0: bright left half; class 1: bright right half.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 10;
        let mut data = vec![0.0f32; n * 36];
        let mut labels = Vec::new();
        for img in 0..n {
            let class = img % 2;
            labels.push(class);
            for y in 0..6 {
                for x in 0..6 {
                    let bright = if class == 0 { x < 3 } else { x >= 3 };
                    data[img * 36 + y * 6 + x] =
                        if bright { 1.0 } else { 0.0 } + rng.gen_range(-0.1f32..0.1);
                }
            }
        }
        (Tensor::from_vec([n, 1, 6, 6], data), labels)
    }

    #[test]
    fn paper_schedule_steps_by_ten() {
        let s = LrSchedule::paper();
        assert!((s.at_epoch(0) - 0.1).abs() < 1e-9);
        assert!((s.at_epoch(49) - 0.1).abs() < 1e-9);
        assert!((s.at_epoch(50) - 0.01).abs() < 1e-9);
        assert!((s.at_epoch(100) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn constant_schedule() {
        assert_eq!(LrSchedule::Constant(0.05).at_epoch(123), 0.05);
    }

    #[test]
    fn sgd_descends_a_simple_net() {
        let mut n = net();
        let mut sgd = Sgd::new(0.05).momentum(0.9);
        let (x, labels) = batch(1);
        let cfg = ExecConfig::serial();
        let first = train_batch(&mut n, &mut sgd, &x, &labels, &cfg);
        let mut last = first;
        for _ in 0..25 {
            last = train_batch(&mut n, &mut sgd, &x, &labels, &cfg);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(evaluate(&mut n, &x, &labels, &cfg) > 0.9);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut n = net();
        // Zero gradient step with pure decay.
        let mut sgd = Sgd::new(0.1).weight_decay(0.5);
        let before: f32 = n.params_mut()[0].value.norm_sq();
        n.zero_grad();
        sgd.step(&mut n);
        let after: f32 = n.params_mut()[0].value.norm_sq();
        assert!(after < before);
    }

    #[test]
    fn masked_weights_stay_zero_through_training() {
        let mut n = net();
        // Mask half of the conv weights.
        if let Some(conv) = n
            .layer_mut(0)
            .unwrap()
            .as_any_mut()
            .downcast_mut::<Conv2d>()
        {
            let len = conv.weight().value.len();
            let mask = Tensor::from_fn([4, 1, 3, 3], |i| if i % 2 == 0 { 0.0 } else { 1.0 });
            assert_eq!(mask.len(), len);
            conv.weight_mut().set_mask(mask);
        }
        let mut sgd = Sgd::new(0.05).momentum(0.9);
        let (x, labels) = batch(2);
        let cfg = ExecConfig::serial();
        for _ in 0..10 {
            train_batch(&mut n, &mut sgd, &x, &labels, &cfg);
        }
        if let Some(conv) = n
            .layer_mut(0)
            .unwrap()
            .as_any_mut()
            .downcast_mut::<Conv2d>()
        {
            for (i, v) in conv.weight().value.data().iter().enumerate() {
                if i % 2 == 0 {
                    assert_eq!(*v, 0.0, "masked weight {i} revived");
                }
            }
        }
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let mut n = net();
        let mut plain = Sgd::new(0.01);
        let mut with_m = Sgd::new(0.01).momentum(0.9);
        // Apply two identical unit-gradient steps to cloned paths; the
        // momentum variant must move farther on the second step.
        let w0 = n.params_mut()[0].value.data()[0];
        for p in n.params_mut() {
            p.grad_mut().fill(1.0);
        }
        plain.step(&mut n);
        for p in n.params_mut() {
            p.grad_mut().fill(1.0);
        }
        plain.step(&mut n);
        let plain_dist = (n.params_mut()[0].value.data()[0] - w0).abs();

        let mut n2 = net();
        let w0b = n2.params_mut()[0].value.data()[0];
        for p in n2.params_mut() {
            p.grad_mut().fill(1.0);
        }
        with_m.step(&mut n2);
        for p in n2.params_mut() {
            p.grad_mut().fill(1.0);
        }
        with_m.step(&mut n2);
        let mom_dist = (n2.params_mut()[0].value.data()[0] - w0b).abs();
        assert!(mom_dist > plain_dist);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = TrainConfig::default();
        assert_eq!(c.schedule, LrSchedule::paper());
        assert_eq!(c.epochs, 150);
    }
}
