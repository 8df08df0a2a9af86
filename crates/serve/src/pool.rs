//! The pre-warmed session ladder: one owned [`InferenceSession`] per
//! ladder batch size, every one of them a copy-on-write replica of the
//! one network the server was started with ("build once, compile once
//! per rung, serve many").
//!
//! Each worker owns a ladder (sessions are not `Sync`). A batch of `n`
//! requests runs on the smallest ladder rung whose batch size covers
//! `n`, padding the tail with zero images whose outputs are discarded;
//! the quarter-stepped rung sizes (see
//! [`ServeConfig`](crate::ServeConfig)) bound that padding waste.
//!
//! A [`LadderTemplate`] is what ladders are stamped from: per rung, a
//! replica of the compiled and prepared network plus the plan compiled
//! for it. Stamping a ladder — for another worker, or after a crash —
//! clones `Arc`s, allocates arenas and pre-warms; it builds, compiles
//! and packs nothing, and the new sessions read the same physical
//! weights and prepack as every other session of the server.
//!
//! Brownout is a guard level, not a second ladder: while the breaker is
//! open a batch runs on the same rung with guards off
//! ([`Route::Degraded`]), and the next primary run restores the
//! configured level.

use crate::breaker::Route;
use crate::clock::Clock;
use crate::config::ServeConfig;
use crate::error::ServeError;
use cnn_stack_nn::{GuardConfig, InferencePlan, InferenceSession, Network, PlanCompiler};
use cnn_stack_tensor::Tensor;

/// One rung: a pre-warmed session at a fixed batch size plus its
/// pre-allocated input/output staging tensors (runs are allocation-free).
struct Rung {
    batch: usize,
    session: InferenceSession<'static>,
    input: Tensor,
    output: Tensor,
    /// Pre-warm latency on the server clock, under the configured
    /// guard; the hung-batch watchdog's baseline for "how long should a
    /// batch on this rung take", browned out or not.
    expected_ns: u64,
}

/// What one ladder run did, beyond the outputs themselves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunInfo {
    /// The guard demoted at least one step during this run.
    pub demoted: bool,
    /// A guard tripped (recovered or not) during this run.
    pub guarded: bool,
}

impl Rung {
    /// Binds `plan` to `net` and pre-warms the session: the first run
    /// settles lazy state (page faults on the arenas) off
    /// the serving path. Timing it gives the watchdog its
    /// expected-latency baseline (zero under ManualClock — the hang
    /// floor covers that).
    fn warm(
        net: Network,
        plan: InferencePlan,
        guard: GuardConfig,
        clock: &dyn Clock,
    ) -> Result<Rung, ServeError> {
        let input = Tensor::zeros(plan.input_shape().to_vec());
        let mut output = Tensor::zeros(plan.output_shape().to_vec());
        let mut session = InferenceSession::owned(net, plan, guard)?;
        let warm_start = clock.now_ns();
        session.run_into(&input, &mut output)?;
        let expected_ns = clock.now_ns().saturating_sub(warm_start);
        Ok(Rung {
            batch: input.shape().dims()[0],
            session,
            input,
            output,
            expected_ns,
        })
    }
}

/// What one rung is stamped from: a replica of the rung's compiled,
/// prepared network (so it carries the built prepack) and its plan.
struct RungTemplate {
    net: Network,
    plan: InferencePlan,
}

/// Everything needed to stamp out a [`SessionLadder`] without touching
/// a weight; see the [module docs](self).
pub(crate) struct LadderTemplate {
    rungs: Vec<RungTemplate>,
    guard: GuardConfig,
    request_elems: usize,
}

impl LadderTemplate {
    /// Compiles one plan per ladder size over replicas of `net`,
    /// returning the template together with the first ladder stamped
    /// from it (the sessions the plans were prepared on).
    ///
    /// The first rung compiles and prepares on `net` itself — batch-norm
    /// folding and weight packing happen once, there. Every later rung
    /// compiles on a replica of that prepared network: folding finds
    /// nothing left to fold, preparing finds every form already built.
    pub(crate) fn compile(
        cfg: &ServeConfig,
        net: Network,
        clock: &dyn Clock,
    ) -> Result<(LadderTemplate, SessionLadder), ServeError> {
        let exec = cfg.exec();
        let compiler = PlanCompiler::standard();
        let guard = cfg.guard();
        let mut templates: Vec<RungTemplate> = Vec::new();
        let mut rungs = Vec::new();
        let mut first = Some(net);
        for &batch in &cfg.ladder_sizes() {
            let mut shape = vec![batch];
            shape.extend_from_slice(cfg.input_shape());
            let mut net = match first.take() {
                Some(net) => net,
                None => templates[0].net.replica(),
            };
            let plan = compiler.run(&mut net, &shape, &exec)?;
            let rung = Rung::warm(net, plan.clone(), guard, clock)?;
            templates.push(RungTemplate {
                net: rung.session.network().replica(),
                plan,
            });
            rungs.push(rung);
        }
        let request_elems: usize = cfg.input_shape().iter().product();
        let template = LadderTemplate {
            rungs: templates,
            guard,
            request_elems,
        };
        let ladder = SessionLadder {
            rungs,
            guard,
            request_elems,
        };
        Ok((template, ladder))
    }

    /// Stamps a fresh, pre-warmed ladder: per rung, one replica, one
    /// arena, one warm-up run.
    pub(crate) fn instantiate(&self, clock: &dyn Clock) -> Result<SessionLadder, ServeError> {
        let rungs = self
            .rungs
            .iter()
            .map(|t| Rung::warm(t.net.replica(), t.plan.clone(), self.guard, clock))
            .collect::<Result<_, _>>()?;
        Ok(SessionLadder {
            rungs,
            guard: self.guard,
            request_elems: self.request_elems,
        })
    }
}

pub(crate) struct SessionLadder {
    rungs: Vec<Rung>,
    /// The configured guard level, restored on every primary run.
    guard: GuardConfig,
    request_elems: usize,
}

impl SessionLadder {
    /// Expected latency of the rung that would carry an `n`-request
    /// batch (the pre-warm measurement).
    pub(crate) fn expected_ns(&self, n: usize) -> u64 {
        self.rungs
            .iter()
            .find(|r| r.batch >= n)
            .map(|r| r.expected_ns)
            .unwrap_or(0)
    }

    /// Runs `inputs` as one batch on the smallest covering rung, under
    /// the configured guard on the primary route and with guards off on
    /// the degraded one, and returns each request's output (batch
    /// dimension stripped).
    pub(crate) fn run(
        &mut self,
        inputs: &[&Tensor],
        route: Route,
    ) -> Result<(Vec<Tensor>, RunInfo), cnn_stack_nn::Error> {
        let n = inputs.len();
        let rung = self
            .rungs
            .iter_mut()
            .find(|r| r.batch >= n)
            .expect("batcher never exceeds max_batch, the ladder's top rung");
        let elems = self.request_elems;
        let staged = rung.input.data_mut();
        for (i, t) in inputs.iter().enumerate() {
            staged[i * elems..(i + 1) * elems].copy_from_slice(t.data());
        }
        // Zero the padding tail: stale images from a previous batch
        // must not feed the guard (or the profile) garbage.
        staged[n * elems..].fill(0.0);

        rung.session.set_guard(match route {
            Route::Primary => self.guard,
            Route::Degraded => GuardConfig::Off,
        });
        let health_before = rung.session.health().clone();
        rung.session.run_into(&rung.input, &mut rung.output)?;
        let health = rung.session.health();
        let info = RunInfo {
            demoted: health.demotions.len() > health_before.demotions.len(),
            guarded: health.guards_tripped > health_before.guards_tripped,
        };

        let out_elems = rung.output.len() / rung.batch;
        let mut per_shape: Vec<usize> = rung.output.shape().dims()[1..].to_vec();
        if per_shape.is_empty() {
            per_shape.push(1);
        }
        let outputs = (0..n)
            .map(|i| {
                Tensor::from_vec(
                    per_shape.clone(),
                    rung.output.data()[i * out_elems..(i + 1) * out_elems].to_vec(),
                )
            })
            .collect();
        Ok((outputs, info))
    }

    /// Engine-level health, merged across the ladder's sessions.
    pub(crate) fn health(&self) -> cnn_stack_nn::HealthReport {
        let mut merged = cnn_stack_nn::HealthReport::default();
        for rung in &self.rungs {
            merged.merge(rung.session.health());
        }
        merged
    }

    /// Forwards a deterministic fault plan to every rung's session
    /// (the serve-level fault-injection harness).
    #[cfg(feature = "fault-inject")]
    pub(crate) fn inject_faults(&mut self, faults: &dyn Fn() -> cnn_stack_nn::FaultPlan) {
        for rung in &mut self.rungs {
            rung.session.inject_faults(faults());
        }
    }
}

#[cfg(test)]
impl SessionLadder {
    /// Per rung, which buffers its session's weights live in.
    pub(crate) fn weight_storage(&self) -> Vec<Vec<cnn_stack_nn::WeightStorage>> {
        let storage = |r: &Rung| r.session.network().weight_storage();
        self.rungs.iter().map(storage).collect()
    }

    /// Arms `faults` on the session of rung `rung` only.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn inject_rung_faults(&mut self, rung: usize, faults: cnn_stack_nn::FaultPlan) {
        self.rungs[rung].session.inject_faults(faults);
    }
}

#[cfg(test)]
impl LadderTemplate {
    /// Per rung, which buffers a ladder stamped from it will read.
    pub(crate) fn weight_storage(&self) -> Vec<Vec<cnn_stack_nn::WeightStorage>> {
        self.rungs.iter().map(|t| t.net.weight_storage()).collect()
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

    pub(crate) fn two_rung_cfg() -> ServeConfig {
        ServeConfig::builder([3, 6, 6])
            .max_batch(4)
            .workers(0)
            .build()
            .expect("test config is valid")
    }

    #[test]
    fn every_rung_shares_the_first_rungs_panels() {
        let clock = ManualClock::new();
        let (template, ladder) =
            LadderTemplate::compile(&two_rung_cfg(), tiny_net(7), &clock).expect("ladder builds");
        let storage = ladder.weight_storage();
        assert_eq!(storage.len(), 2);
        assert_eq!(storage[0].len(), 2, "conv + linear");
        for layer in &storage[0] {
            assert!(layer.forms[1].is_some(), "rung 1 packed no f32 panels");
        }
        assert_eq!(storage[1], storage[0], "rung 2 copied or re-packed");
        assert_eq!(template.weight_storage(), storage);

        // So does every ladder stamped afterwards.
        let stamped = template.instantiate(&clock).expect("ladder stamps");
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
    fn ternary_rungs_hold_one_set_of_codes_and_no_panels() {
        // Folding rescales the TTQ weights by one batch-norm scale, so
        // they stay exactly ternary and every rung runs its codes.
        let clock = ManualClock::new();
        let (template, mut ladder) =
            LadderTemplate::compile(&two_rung_cfg(), ternary_tiny_net(7), &clock)
                .expect("ladder builds");
        let x = Tensor::from_fn([3, 6, 6], |i| (i as f32 * 0.37).sin());
        ladder.run(&[&x], Route::Primary).expect("rung 1 runs");
        ladder
            .run(&[&x, &x, &x], Route::Primary)
            .expect("rung 2 runs");
        let stamped = template.instantiate(&clock).expect("ladder stamps");
        let storage = ladder.weight_storage();
        assert_eq!(stamped.weight_storage(), storage);
        for rung in &storage {
            for (layer, first) in rung.iter().zip(&storage[0]) {
                assert!(layer.forms[2].is_some(), "a rung runs without codes");
                assert_eq!(layer.forms[2], first.forms[2], "a rung re-packed codes");
                assert_eq!(layer.master, None, "a master beside the codes");
                assert_eq!(
                    layer.forms.iter().flatten().count(),
                    1,
                    "a form beside the codes: {:?}",
                    layer.forms
                );
            }
        }
    }

    #[test]
    fn compiled_pruned_and_ttq_rungs_hold_one_bit_per_masked_weight() {
        let clock = ManualClock::new();
        let mut pruned = tiny_net(7);
        cnn_stack_compress::magnitude::prune_network(&mut pruned, 0.5);
        for net in [pruned, ternary_tiny_net(7)] {
            let (_, ladder) =
                LadderTemplate::compile(&two_rung_cfg(), net, &clock).expect("ladder builds");
            for rung in &ladder.rungs {
                let params = rung.session.network().params();
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
    fn served_rungs_hold_no_gradient_buffers() {
        let clock = ManualClock::new();
        let (template, mut ladder) =
            LadderTemplate::compile(&two_rung_cfg(), tiny_net(7), &clock).expect("ladder builds");
        let mut stamped = template.instantiate(&clock).expect("ladder stamps");
        let x = Tensor::from_fn([3, 6, 6], |i| (i as f32 * 0.37).sin());
        ladder.run(&[&x, &x], Route::Primary).expect("ladder runs");
        stamped
            .run(&[&x], Route::Primary)
            .expect("stamped ladder runs");
        for rung in ladder.rungs.iter().chain(&stamped.rungs) {
            let params = rung.session.network().params();
            assert!(!params.is_empty());
            assert!(params.iter().all(|p| p.grad().is_none()));
        }
    }

    #[test]
    fn stamped_ladders_compute_what_the_first_one_does() {
        let clock = ManualClock::new();
        let (template, mut first) =
            LadderTemplate::compile(&two_rung_cfg(), tiny_net(7), &clock).expect("ladder builds");
        let mut stamped = template.instantiate(&clock).expect("ladder stamps");
        let x = Tensor::from_fn([3, 6, 6], |i| (i as f32 * 0.37).sin());
        for n in [1, 3] {
            let inputs = vec![&x; n];
            let (want, _) = first
                .run(&inputs, Route::Primary)
                .expect("first ladder runs");
            let (got, _) = stamped
                .run(&inputs, Route::Primary)
                .expect("stamped ladder runs");
            assert_eq!(want, got, "batch of {n}");
        }
    }
}
