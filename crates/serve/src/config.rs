//! The one validating serving configuration.
//!
//! `ServeConfig` gathers every serving-relevant knob that used to be
//! scattered across `ExecConfig` (threads, observer level),
//! `GuardConfig` (guarded execution), and ad-hoc call sites (batching,
//! queueing) into a single builder that validates once, at
//! `build()`. A `ServeConfig` in hand is always runnable.

use crate::batcher::BatchPolicy;
use crate::breaker::BreakerPolicy;
use crate::error::ServeError;
use crate::supervisor::SupervisionPolicy;
use cnn_stack_nn::{ConvAlgorithm, ExecConfig, GuardConfig};
use cnn_stack_obs::ObsLevel;
use std::time::Duration;

/// Validated serving configuration; construct via [`ServeConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    input_shape: Vec<usize>,
    max_batch: usize,
    max_delay: Duration,
    queue_depth: usize,
    workers: usize,
    guard: GuardConfig,
    threads: usize,
    observer: ObsLevel,
    supervision: SupervisionPolicy,
    breaker: Option<BreakerPolicy>,
}

impl ServeConfig {
    /// Starts a builder for requests of the given per-request input
    /// shape (no batch dimension — `[3, 32, 32]` for CIFAR models).
    pub fn builder(input_shape: impl Into<Vec<usize>>) -> ServeConfigBuilder {
        ServeConfigBuilder {
            input_shape: input_shape.into(),
            max_batch: 8,
            max_delay: Duration::from_millis(5),
            queue_depth: 64,
            workers: 1,
            guard: GuardConfig::default(),
            threads: 1,
            observer: ObsLevel::Metrics,
            supervision: SupervisionPolicy::default(),
            breaker: None,
        }
    }

    /// Per-request input shape (no batch dimension).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Largest number of requests coalesced into one session run.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Longest a batch is held open waiting for co-batchable requests.
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }

    /// Bounded queue capacity; admission control sheds beyond it.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Batch worker threads (`0` = manual pumping via
    /// [`crate::Server::pump`], for deterministic tests).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Guarded-execution policy for the serving sessions.
    pub fn guard(&self) -> GuardConfig {
        self.guard
    }

    /// Intra-session worker threads (the engine's `ExecConfig::threads`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Observability level of the server's own instruments.
    pub fn observer(&self) -> ObsLevel {
        self.observer
    }

    /// Hang-detection and crash-backoff tuning for worker supervision.
    pub fn supervision(&self) -> &SupervisionPolicy {
        &self.supervision
    }

    /// Brownout circuit-breaker policy, if one was configured. `Some`
    /// means workers run their sessions with guards off while the
    /// breaker is open.
    pub fn breaker(&self) -> Option<&BreakerPolicy> {
        self.breaker.as_ref()
    }

    /// The dynamic-batching policy this config encodes.
    pub fn batch_policy(&self) -> BatchPolicy {
        BatchPolicy {
            max_batch: self.max_batch,
            max_delay: self.max_delay,
        }
    }

    /// The engine configuration serving sessions compile against: every
    /// convolution on im2col and the packed engine, with this config's
    /// thread count. Not because it is fastest — Winograd wins several
    /// VGG-16 layers at every rung — but because it keeps one weight
    /// form per layer, shared by every rung: the f32 panels, or for a
    /// `Ternary`-labelled (TTQ) model its 2-bit codes. Session-level
    /// observation stays off — the server's own instruments cover
    /// serving, and per-step tracing belongs to offline runs.
    pub(crate) fn exec(&self) -> ExecConfig {
        ExecConfig {
            threads: self.threads,
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        }
    }

    /// Session-ladder batch sizes: 1, 4, 16, … capped at `max_batch`
    /// (always including both 1 and `max_batch`). Quarter steps bound
    /// padding waste at 4× in the worst mid-size case. A rung costs no
    /// weight memory — every rung is a replica of one model — so what
    /// the coarse steps still save is one activation arena and one
    /// pre-warm run per rung not built, at start-up and on every
    /// respawn.
    pub(crate) fn ladder_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut s = 1usize;
        while s < self.max_batch {
            sizes.push(s);
            s *= 4;
        }
        sizes.push(self.max_batch);
        sizes
    }
}

/// Builder for [`ServeConfig`]; `build()` validates the whole set.
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    input_shape: Vec<usize>,
    max_batch: usize,
    max_delay: Duration,
    queue_depth: usize,
    workers: usize,
    guard: GuardConfig,
    threads: usize,
    observer: ObsLevel,
    supervision: SupervisionPolicy,
    breaker: Option<BreakerPolicy>,
}

impl ServeConfigBuilder {
    /// Largest number of requests coalesced into one run (≥ 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Longest to hold a batch open for stragglers.
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Bounded queue capacity (≥ 1); beyond it, submissions shed with
    /// [`crate::ShedReason::QueueFull`].
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Batch worker threads. `0` disables background workers: batches
    /// run only when [`crate::Server::pump`] is called, which is how
    /// the deterministic tests drive the server with a
    /// [`crate::ManualClock`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Guarded-execution policy for the serving sessions.
    pub fn guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Intra-session worker threads (≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Observability level of the server's instruments
    /// (queue/latency/shed metrics); `ObsLevel::Metrics` by default.
    pub fn observer(mut self, observer: ObsLevel) -> Self {
        self.observer = observer;
        self
    }

    /// Worker-supervision tuning: hang-detection timeout (multiplier ×
    /// expected rung latency, floored), the monitor sweep interval, and
    /// the capped exponential crash-respawn backoff. Supervision itself
    /// is always on; this only tunes it.
    pub fn supervision(mut self, supervision: SupervisionPolicy) -> Self {
        self.supervision = supervision;
        self
    }

    /// Enables the brownout circuit breaker: while it is open, each
    /// worker runs its one session ladder with guards off. Nothing
    /// extra is compiled, packed or allocated; see [`BreakerPolicy`]
    /// for the trip/recovery knobs.
    pub fn breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when any knob is out of range:
    /// empty/zero input shape, `max_batch == 0`, `queue_depth == 0`,
    /// `queue_depth < max_batch` (a full batch could never accumulate),
    /// `threads == 0`, or an out-of-range supervision/breaker policy.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        if self.input_shape.is_empty() || self.input_shape.contains(&0) {
            return Err(ServeError::InvalidConfig(format!(
                "input shape {:?} must be non-empty with non-zero extents",
                self.input_shape
            )));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_depth must be at least 1".into(),
            ));
        }
        if self.queue_depth < self.max_batch {
            return Err(ServeError::InvalidConfig(format!(
                "queue_depth {} cannot hold one max_batch {}",
                self.queue_depth, self.max_batch
            )));
        }
        if self.threads == 0 {
            return Err(ServeError::InvalidConfig(
                "threads must be at least 1".into(),
            ));
        }
        self.supervision
            .validate()
            .map_err(ServeError::InvalidConfig)?;
        if let Some(breaker) = &self.breaker {
            breaker.validate().map_err(ServeError::InvalidConfig)?;
        }
        Ok(ServeConfig {
            input_shape: self.input_shape,
            max_batch: self.max_batch,
            max_delay: self.max_delay,
            queue_depth: self.queue_depth,
            workers: self.workers,
            guard: self.guard,
            threads: self.threads,
            observer: self.observer,
            supervision: self.supervision,
            breaker: self.breaker,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder([3, 32, 32]).build().is_ok());
        assert!(ServeConfig::builder([]).build().is_err());
        assert!(ServeConfig::builder([3, 0, 32]).build().is_err());
        assert!(ServeConfig::builder([3, 32, 32])
            .max_batch(0)
            .build()
            .is_err());
        assert!(ServeConfig::builder([3, 32, 32])
            .max_batch(16)
            .queue_depth(8)
            .build()
            .is_err());
        assert!(ServeConfig::builder([3, 32, 32])
            .threads(0)
            .build()
            .is_err());
        assert!(ServeConfig::builder([3, 32, 32])
            .supervision(SupervisionPolicy {
                hang_multiplier: 0.5,
                ..SupervisionPolicy::default()
            })
            .build()
            .is_err());
        assert!(ServeConfig::builder([3, 32, 32])
            .breaker(BreakerPolicy {
                trip_miss_rate: 1.5,
                ..BreakerPolicy::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn ladder_is_quarter_stepped_and_capped() {
        let cfg = |mb| {
            ServeConfig::builder([3, 32, 32])
                .max_batch(mb)
                .queue_depth(64)
                .build()
                .expect("a plain max_batch/queue_depth config validates")
        };
        assert_eq!(cfg(1).ladder_sizes(), vec![1]);
        assert_eq!(cfg(4).ladder_sizes(), vec![1, 4]);
        assert_eq!(cfg(8).ladder_sizes(), vec![1, 4, 8]);
        assert_eq!(cfg(16).ladder_sizes(), vec![1, 4, 16]);
        assert_eq!(cfg(20).ladder_sizes(), vec![1, 4, 16, 20]);
    }
}
