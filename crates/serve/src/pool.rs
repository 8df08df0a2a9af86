//! Worker sessions: one owned, pre-warmed [`InferenceSession`] per
//! worker, compiled at [`ServeConfig::max_batch`] and run at the batch
//! that arrived, every one of them a copy-on-write replica of the one
//! network the server was started with ("build once, compile once,
//! serve many").
//!
//! Each worker owns its session (sessions are not `Sync`). A batch of
//! `n` requests runs as a batch of `n`: the engine shapes each step to
//! the batch it is given, inside the arena laid out for the full one,
//! and each request's output bits are those of a full-batch run.
//!
//! A [`SessionTemplate`] is what worker sessions are stamped from: a
//! replica of the compiled and prepared network plus its plan. Stamping
//! a session — for another worker, or after a crash — clones `Arc`s,
//! allocates one arena and pre-warms; it builds, compiles and packs
//! nothing, and the new session reads the same physical weights and
//! prepack as every other session of the server.
//!
//! Brownout is a guard level, not a second session: while the breaker
//! is open a batch runs on the same session with guards off
//! ([`Route::Degraded`]), and the next primary run restores the
//! configured level.

use crate::breaker::Route;
use crate::clock::Clock;
use crate::config::ServeConfig;
use crate::error::ServeError;
use cnn_stack_nn::{
    GuardConfig, HealthReport, InferencePlan, InferenceSession, Network, PlanCompiler,
};
use cnn_stack_tensor::Tensor;

/// What one session run did, beyond the outputs themselves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunInfo {
    /// The guard demoted at least one step during this run.
    pub demoted: bool,
    /// A guard tripped (recovered or not) during this run.
    pub guarded: bool,
}

/// Everything needed to stamp out a [`WorkerSession`] without touching
/// a weight: a replica of the compiled, prepared network (so it carries
/// the built prepack) and its plan; see the [module docs](self).
pub(crate) struct SessionTemplate {
    net: Network,
    plan: InferencePlan,
    guard: GuardConfig,
}

impl SessionTemplate {
    /// Compiles `net` at `max_batch` and prepares it (batch-norm
    /// folding and weight packing happen once, here), returning the
    /// template together with the first worker session, the one the
    /// plan was prepared on.
    pub(crate) fn compile(
        cfg: &ServeConfig,
        mut net: Network,
        clock: &dyn Clock,
    ) -> Result<(SessionTemplate, WorkerSession), ServeError> {
        let mut shape = vec![cfg.max_batch()];
        shape.extend_from_slice(cfg.input_shape());
        let plan = PlanCompiler::standard().run(&mut net, &shape, &cfg.exec())?;
        let session = WorkerSession::warm(net, plan.clone(), cfg.guard(), clock)?;
        let template = SessionTemplate {
            net: session.session.network().replica(),
            plan,
            guard: cfg.guard(),
        };
        Ok((template, session))
    }

    /// Stamps a fresh, pre-warmed session: one replica, one arena, two
    /// warm-up runs.
    pub(crate) fn instantiate(&self, clock: &dyn Clock) -> Result<WorkerSession, ServeError> {
        WorkerSession::warm(self.net.replica(), self.plan.clone(), self.guard, clock)
    }
}

/// A worker's one session and its hung-batch baseline.
pub(crate) struct WorkerSession {
    session: InferenceSession<'static>,
    /// The configured guard level, restored on every primary run.
    guard: GuardConfig,
    /// Pre-warm latencies on the server clock, under the configured
    /// guard, of one request and of a full batch: the two points the
    /// watchdog's expected latency is drawn through.
    warm_ns: [u64; 2],
}

impl WorkerSession {
    /// Binds `plan` to `net` and pre-warms the session at one request
    /// and at the full batch: the runs settle lazy state (page faults
    /// on the arena) off the serving path, and timing them gives the
    /// watchdog its baseline (zero under ManualClock — the hang floor
    /// covers that).
    fn warm(
        net: Network,
        plan: InferencePlan,
        guard: GuardConfig,
        clock: &dyn Clock,
    ) -> Result<WorkerSession, ServeError> {
        let full = plan.input_shape()[0];
        let mut session = InferenceSession::owned(net, plan, guard)?;
        let mut time = |batch: usize| {
            let mut shape = session.plan().input_shape().to_vec();
            shape[0] = batch;
            let input = Tensor::zeros(shape);
            let start = clock.now_ns();
            session.run(&input)?;
            Ok::<_, ServeError>(clock.now_ns().saturating_sub(start))
        };
        let one = time(1)?;
        let warm_ns = [one, if full > 1 { time(full)? } else { one }];
        Ok(WorkerSession {
            session,
            guard,
            warm_ns,
        })
    }

    /// Expected latency of an `n`-request batch: the straight line
    /// through the pre-warm runs at one request and at the full batch.
    pub(crate) fn expected_ns(&self, n: usize) -> u64 {
        let [one, full] = self.warm_ns.map(i128::from);
        let steps = (self.session.plan().input_shape()[0] - 1).max(1);
        (one + (full - one) * (n as i128 - 1) / steps as i128) as u64
    }

    /// Runs `inputs` as one batch, under the configured guard on the
    /// primary route and with guards off on the degraded one, and
    /// returns each request's output (batch dimension stripped).
    pub(crate) fn run(
        &mut self,
        inputs: &[Tensor],
        route: Route,
    ) -> Result<(Vec<Tensor>, RunInfo), cnn_stack_nn::Error> {
        let mut shape = self.session.plan().input_shape().to_vec();
        shape[0] = inputs.len();
        let mut batch = Vec::with_capacity(shape.iter().product());
        for t in inputs {
            batch.extend_from_slice(t.data());
        }
        self.session.set_guard(match route {
            Route::Primary => self.guard,
            Route::Degraded => GuardConfig::Off,
        });
        let health = self.session.health();
        let (demotions, trips) = (health.demotions.len(), health.guards_tripped);
        let output = self.session.run(&Tensor::from_vec(shape, batch))?;
        let health = self.session.health();
        let info = RunInfo {
            demoted: health.demotions.len() > demotions,
            guarded: health.guards_tripped > trips,
        };

        let mut per_shape: Vec<usize> = output.shape().dims()[1..].to_vec();
        if per_shape.is_empty() {
            per_shape.push(1);
        }
        let outputs = output
            .data()
            .chunks_exact(output.len() / inputs.len())
            .map(|row| Tensor::from_vec(per_shape.clone(), row.to_vec()))
            .collect();
        Ok((outputs, info))
    }

    /// The session's engine-level health.
    pub(crate) fn health(&self) -> &HealthReport {
        self.session.health()
    }

    /// Arms a deterministic fault plan on the session (the serve-level
    /// fault-injection harness).
    #[cfg(feature = "fault-inject")]
    pub(crate) fn inject_faults(&mut self, faults: cnn_stack_nn::FaultPlan) {
        self.session.inject_faults(faults);
    }
}

#[cfg(test)]
impl WorkerSession {
    /// Which buffers the session's weights live in.
    pub(crate) fn weight_storage(&self) -> Vec<cnn_stack_nn::WeightStorage> {
        self.session.network().weight_storage()
    }
}

#[cfg(test)]
impl SessionTemplate {
    /// Which buffers a session stamped from it will read.
    pub(crate) fn weight_storage(&self) -> Vec<cnn_stack_nn::WeightStorage> {
        self.net.weight_storage()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use cnn_stack_nn::network::set_network_format;
    use cnn_stack_nn::{BatchNorm2d, Conv2d, Flatten, Linear, ReLU, WeightFormat};

    /// Conv + live batch norm (so compiling folds, i.e. rewrites
    /// weights) + classifier.
    pub(crate) fn tiny_net(seed: u64) -> Network {
        let mut bn = BatchNorm2d::new(4);
        bn.gamma_mut().value.fill(1.5);
        Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, seed)),
            Box::new(bn),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 6 * 6, 5, seed + 1)),
        ])
        .expect("stack is non-empty")
    }

    /// Batches of up to four `[3, 6, 6]` requests, pumped by hand.
    pub(crate) fn batch4_cfg() -> ServeConfig {
        ServeConfig::builder([3, 6, 6])
            .max_batch(4)
            .workers(0)
            .build()
            .expect("test config is valid")
    }

    /// `n` distinct requests, so a misplaced row shows.
    pub(crate) fn requests(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|r| Tensor::from_fn([3, 6, 6], |i| ((i + 41 * r) as f32 * 0.37).sin()))
            .collect()
    }

    #[test]
    fn stamped_sessions_share_the_first_sessions_panels() {
        let clock = ManualClock::new();
        let (template, first) =
            SessionTemplate::compile(&batch4_cfg(), tiny_net(7), &clock).expect("session builds");
        let storage = first.weight_storage();
        assert_eq!(storage.len(), 2, "conv + linear");
        for layer in &storage {
            assert!(layer.forms[1].is_some(), "the session packed no f32 panels");
        }
        assert_eq!(template.weight_storage(), storage);

        // So does every session stamped afterwards.
        let stamped = template.instantiate(&clock).expect("session stamps");
        assert_eq!(stamped.weight_storage(), storage);
    }

    /// [`tiny_net`] after TTQ at the paper's VGG-16 operating point,
    /// labelled `Ternary`: what a served TTQ model is.
    pub(crate) fn ternary_tiny_net(seed: u64) -> Network {
        let mut net = tiny_net(seed);
        cnn_stack_compress::ttq::ttq_quantise(&mut net, 0.09);
        set_network_format(&mut net, WeightFormat::Ternary);
        net
    }

    #[test]
    fn ternary_sessions_hold_one_set_of_codes_and_no_panels() {
        // Folding rescales the TTQ weights by one batch-norm scale, so
        // they stay exactly ternary and every batch size runs the codes.
        let clock = ManualClock::new();
        let (template, mut first) =
            SessionTemplate::compile(&batch4_cfg(), ternary_tiny_net(7), &clock)
                .expect("session builds");
        let mut stamped = template.instantiate(&clock).expect("session stamps");
        for n in 1..=4 {
            first.run(&requests(n), Route::Primary).expect("batch runs");
            stamped
                .run(&requests(n), Route::Primary)
                .expect("batch runs");
        }
        let storage = first.weight_storage();
        assert_eq!(stamped.weight_storage(), storage);
        assert_eq!(template.weight_storage(), storage);
        for layer in &storage {
            assert!(layer.forms[2].is_some(), "a session runs without codes");
            assert_eq!(layer.master, None, "a master beside the codes");
            assert_eq!(
                layer.forms.iter().flatten().count(),
                1,
                "a form beside the codes: {:?}",
                layer.forms
            );
        }
    }

    #[test]
    fn compiled_pruned_and_ttq_sessions_hold_one_bit_per_masked_weight() {
        let clock = ManualClock::new();
        let mut pruned = tiny_net(7);
        cnn_stack_compress::magnitude::prune_network(&mut pruned, 0.5);
        for net in [pruned, ternary_tiny_net(7)] {
            let (template, first) =
                SessionTemplate::compile(&batch4_cfg(), net, &clock).expect("session builds");
            let stamped = template.instantiate(&clock).expect("session stamps");
            for session in [&first, &stamped] {
                let params = session.session.network().params();
                let masked: Vec<_> = params
                    .iter()
                    .filter_map(|p| Some((p, p.mask.as_ref()?)))
                    .collect();
                assert_eq!(masked.len(), 2, "conv and linear weights keep their masks");
                for (p, mask) in masked {
                    assert_eq!(mask.bytes(), p.value.len().div_ceil(64) * 8);
                }
            }
        }
    }

    #[test]
    fn worker_sessions_hold_no_gradient_buffers() {
        let clock = ManualClock::new();
        let (template, mut first) =
            SessionTemplate::compile(&batch4_cfg(), tiny_net(7), &clock).expect("session builds");
        let mut stamped = template.instantiate(&clock).expect("session stamps");
        first.run(&requests(2), Route::Primary).expect("batch runs");
        stamped
            .run(&requests(1), Route::Primary)
            .expect("batch runs");
        for session in [&first, &stamped] {
            let params = session.session.network().params();
            assert!(!params.is_empty());
            assert!(params.iter().all(|p| p.grad().is_none()));
        }
    }

    /// A stamped session computes the first one's bits at every batch
    /// size, on either route, and request `i` of an `n`-request batch
    /// gets row `i` of the full batch.
    #[test]
    fn stamped_sessions_compute_what_the_first_one_does() {
        let clock = ManualClock::new();
        let (template, mut first) =
            SessionTemplate::compile(&batch4_cfg(), tiny_net(7), &clock).expect("session builds");
        let mut stamped = template.instantiate(&clock).expect("session stamps");
        let (full, _) = first
            .run(&requests(4), Route::Primary)
            .expect("full batch runs");
        for n in 1..=4 {
            for route in [Route::Primary, Route::Degraded] {
                let (want, _) = first.run(&requests(n), route).expect("first session runs");
                let (got, _) = stamped
                    .run(&requests(n), route)
                    .expect("stamped session runs");
                assert_eq!(want, got, "batch of {n}, {route:?}");
                assert_eq!(want, full[..n], "batch of {n}, {route:?}");
            }
        }
    }

    /// The hang baseline is the straight line through the two pre-warm
    /// runs, falling or rising, and a one-request server has one point.
    #[test]
    fn expected_latency_interpolates_the_two_warm_runs() {
        let clock = ManualClock::new();
        let (_, mut session) =
            SessionTemplate::compile(&batch4_cfg(), tiny_net(7), &clock).expect("session builds");
        assert_eq!(session.warm_ns, [0, 0], "no simulated time passes in a run");
        session.warm_ns = [1_000, 4_000];
        let line: Vec<u64> = (1..=4).map(|n| session.expected_ns(n)).collect();
        assert_eq!(line, [1_000, 2_000, 3_000, 4_000]);
        session.warm_ns = [4_000, 1_000];
        assert_eq!(session.expected_ns(3), 2_000);

        let cfg = ServeConfig::builder([3, 6, 6])
            .max_batch(1)
            .workers(0)
            .build()
            .expect("test config is valid");
        let (_, mut single) =
            SessionTemplate::compile(&cfg, tiny_net(7), &clock).expect("session builds");
        single.warm_ns = [5_000, 5_000];
        assert_eq!(single.expected_ns(1), 5_000);
    }
}
