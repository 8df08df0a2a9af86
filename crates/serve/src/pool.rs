//! The pre-warmed session ladder: one owned [`InferenceSession`] per
//! ladder batch size, all sharing a single set of prepacked weight
//! panels ("compile once, serve many").
//!
//! Each worker owns a ladder (sessions are not `Sync`). A batch of `n`
//! requests runs on the smallest ladder rung whose batch size covers
//! `n`, padding the tail with zero images whose outputs are discarded;
//! the quarter-stepped rung sizes (see
//! [`ServeConfig`](crate::ServeConfig)) bound that padding waste while
//! keeping weight-replica memory low.

use crate::clock::Clock;
use crate::config::ServeConfig;
use crate::error::ServeError;
use cnn_stack_nn::{
    adopt_panels, GuardConfig, InferenceSession, Network, PlanCompiler, WeightPanels,
};
use cnn_stack_tensor::Tensor;

/// Shared prepack exported from the first session built for a model:
/// per layer, the weight form its plan reads (f32 packed panels, 2-bit
/// ternary / int8 code panels, or CSR), so every replica in a pool
/// reads one physical copy of each.
#[derive(Clone)]
pub(crate) struct PanelSet {
    panels: Vec<Option<WeightPanels>>,
}

/// Which plan pipeline a ladder compiles with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LadderKind {
    /// Full fidelity: `PlanCompiler::standard()` plus the configured
    /// guard policy.
    Primary,
    /// The brownout breaker's fallback: `PlanCompiler::degraded()`
    /// (forced im2col+packed GEMM, fused ReLU) with guards off —
    /// throughput over fidelity while the breaker is open.
    Degraded,
}

/// One rung: a pre-warmed session at a fixed batch size plus its
/// pre-allocated input/output staging tensors (runs are allocation-free).
struct Rung {
    batch: usize,
    session: InferenceSession<'static>,
    input: Tensor,
    output: Tensor,
    /// Pre-warm latency on the server clock; the hung-batch watchdog's
    /// baseline for "how long should a batch on this rung take".
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

pub(crate) struct SessionLadder {
    rungs: Vec<Rung>,
    request_elems: usize,
}

impl SessionLadder {
    /// Builds, prepares, and pre-warms one session per ladder size.
    ///
    /// `build_net` is invoked once per rung; every replica after the
    /// first adopts the first rung's exported panels *before* its
    /// session is built, so its prepare pass packs nothing — the whole
    /// ladder shares one physical prepack.
    ///
    /// # Errors
    ///
    /// Besides compile/session failures, returns
    /// [`ServeError::InvalidConfig`] when a replica shares *no* layer
    /// with the exported prepack: adoption checks each layer's weights
    /// against the donor's, so that means `build_net` does not produce
    /// identical networks and the rungs would serve different models.
    pub(crate) fn build(
        cfg: &ServeConfig,
        kind: LadderKind,
        build_net: &(dyn Fn() -> Network + Send + Sync),
        shared: &mut Option<PanelSet>,
        clock: &dyn Clock,
    ) -> Result<Self, ServeError> {
        let base_exec = cfg.exec();
        let request_elems: usize = cfg.input_shape().iter().product();
        let mut rungs = Vec::new();
        for &batch in &cfg.ladder_sizes() {
            // Under a memory envelope each rung compiles against its
            // proportional share, and the conv override is released so
            // the budget solver may demote layers (the cost model picks
            // im2col+packed anyway wherever the share allows it).
            let exec = match cfg.rung_budget(batch) {
                Some(budget) => cnn_stack_nn::ExecConfig {
                    conv_algo: cnn_stack_nn::ExecConfig::serial().conv_algo,
                    plan_budget: Some(budget),
                    ..base_exec
                },
                None => base_exec,
            };
            let mut shape = vec![batch];
            shape.extend_from_slice(cfg.input_shape());
            let mut net = build_net();
            let compiler = match kind {
                LadderKind::Primary => PlanCompiler::standard(),
                LadderKind::Degraded => PlanCompiler::degraded(),
            };
            let plan = compiler.run(&mut net, &shape, &exec)?;
            if let Some(set) = shared.as_ref() {
                let offered = set.panels.iter().flatten().count();
                if offered > 0 && adopt_panels(&mut net, &set.panels) == 0 {
                    return Err(ServeError::InvalidConfig(format!(
                        "build_net must produce identical networks: the batch-{batch} replica \
                         matches none of the {offered} prepacked layers of the first one"
                    )));
                }
            }
            let guard = match kind {
                LadderKind::Primary => cfg.guard(),
                LadderKind::Degraded => GuardConfig::Off,
            };
            let mut session = InferenceSession::owned(net, plan, guard)?;
            if shared.is_none() {
                *shared = Some(PanelSet {
                    panels: session.export_panels(),
                });
            }
            let input = Tensor::zeros(shape);
            let mut output = Tensor::zeros(session.plan().output_shape().to_vec());
            // Pre-warm: the first run settles lazy state (thread pools,
            // page faults on the arenas) off the serving path. Timing
            // it gives the watchdog its expected-latency baseline
            // (zero under ManualClock — the hang floor covers that).
            let warm_start = clock.now_ns();
            session.run_into(&input, &mut output)?;
            let expected_ns = clock.now_ns().saturating_sub(warm_start);
            rungs.push(Rung {
                batch,
                session,
                input,
                output,
                expected_ns,
            });
        }
        Ok(SessionLadder {
            rungs,
            request_elems,
        })
    }

    /// Expected latency of the rung that would carry an `n`-request
    /// batch (the pre-warm measurement).
    pub(crate) fn expected_ns(&self, n: usize) -> u64 {
        self.rungs
            .iter()
            .find(|r| r.batch >= n)
            .map(|r| r.expected_ns)
            .unwrap_or(0)
    }

    /// Runs `inputs` as one batch on the smallest covering rung and
    /// returns each request's output (batch dimension stripped).
    pub(crate) fn run(
        &mut self,
        inputs: &[&Tensor],
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
            let h = rung.session.health();
            merged.guards_tripped += h.guards_tripped;
            merged.panics_contained += h.panics_contained;
            merged.retries += h.retries;
            merged.demotions.extend(h.demotions.iter().cloned());
            merged
                .budget_breaches
                .extend(h.budget_breaches.iter().cloned());
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
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use cnn_stack_nn::{Conv2d, Flatten, Linear, ReLU};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_net(seed: u64) -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, seed)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 6 * 6, 5, seed + 1)),
        ])
        .expect("stack is non-empty")
    }

    fn two_rung_cfg() -> ServeConfig {
        ServeConfig::builder([3, 6, 6])
            .max_batch(4)
            .workers(0)
            .build()
            .expect("test config is valid")
    }

    #[test]
    fn every_rung_shares_the_first_rungs_panels() {
        let mut shared = None;
        let mut ladder = SessionLadder::build(
            &two_rung_cfg(),
            LadderKind::Primary,
            &|| tiny_net(7),
            &mut shared,
            &ManualClock::new(),
        )
        .expect("ladder builds");
        assert_eq!(ladder.rungs.len(), 2);
        let first = ladder.rungs[0].session.export_panels();
        let second = ladder.rungs[1].session.export_panels();
        assert_eq!(first.iter().flatten().count(), 2, "conv + linear prepacks");
        for (a, b) in first.iter().zip(&second) {
            match (a, b) {
                (Some(a), Some(b)) => assert!(a.ptr_eq(b), "rung 2 packed its own copy"),
                (None, None) => {}
                _ => panic!("rungs export different layers"),
            }
        }
    }

    #[test]
    fn irreproducible_model_factory_is_a_typed_error() {
        let calls = AtomicU64::new(0);
        let mut shared = None;
        let err = SessionLadder::build(
            &two_rung_cfg(),
            LadderKind::Primary,
            &|| tiny_net(calls.fetch_add(1, Ordering::Relaxed)),
            &mut shared,
            &ManualClock::new(),
        )
        .err()
        .expect("the second rung shares nothing with the first");
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }
}
