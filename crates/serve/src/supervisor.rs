//! Worker supervision primitives: the per-worker liveness slot shared
//! between a batch worker, the hung-batch watchdog, and the respawn
//! path.
//!
//! The design splits a worker into two halves:
//!
//! * the **thread** (or the manual pump) — owns the session ladder,
//!   runs batches, and can die (panic) or wedge (hang);
//! * the **slot** ([`WorkerSlot`]) — an `Arc`'d bookkeeping record
//!   that *outlives* the thread: serving counters, the in-flight
//!   ticket registry, a liveness deadline, and a generation number.
//!
//! Because the slot holds a clone of every in-flight request's reply
//! sender, a dead or hung worker's tickets can always be resolved as
//! typed [`Outcome::Failed`](crate::Outcome::Failed) outcomes by
//! whoever notices — the worker's own panic handler or the watchdog —
//! instead of being dropped on the floor as spurious `ShuttingDown`
//! sheds. The generation number lets the watchdog *depose* a wedged
//! worker: the old thread discovers its generation is stale and exits
//! without responding, while a replacement thread (same slot, new
//! generation) takes over the queue.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cnn_stack_nn::HealthReport;

use crate::health::WorkerHealth;
use crate::ticket::{FailureCause, Outcome, Request, Response};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Worker panics are *expected* under fault injection; letting poison
/// propagate would turn one injected crash into a panic cascade across
/// every other worker sharing the batcher. All serve-crate state
/// guarded this way is valid at every await-free lock release point,
/// so adopting a poisoned value is safe.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sentinel for "no batch in flight" in [`WorkerSlot::busy_until_ns`].
const IDLE: u64 = u64::MAX;

/// Tuning for worker supervision: hang detection and crash-loop
/// backoff.
#[derive(Clone, Copy, Debug)]
pub struct SupervisionPolicy {
    /// A batch is declared hung once it has been running longer than
    /// `hang_multiplier ×` the rung's expected latency (measured at
    /// pre-warm), floored by [`hang_floor`](Self::hang_floor).
    pub hang_multiplier: f64,
    /// Minimum hang timeout. Keeps a near-zero expected latency (e.g.
    /// under `ManualClock`, whose pre-warm takes zero simulated time)
    /// from flagging every batch as hung.
    pub hang_floor: Duration,
    /// How often the background monitor thread sweeps for hung
    /// workers (threaded servers only; manual servers sweep on
    /// [`Server::supervise`](crate::Server::supervise)).
    pub monitor_interval: Duration,
    /// Backoff before the first respawn after a crash; doubles per
    /// consecutive crash.
    pub backoff_base: Duration,
    /// Cap on the respawn backoff.
    pub backoff_cap: Duration,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            hang_multiplier: 8.0,
            hang_floor: Duration::from_millis(100),
            monitor_interval: Duration::from_millis(5),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

impl SupervisionPolicy {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.hang_multiplier.is_nan() || self.hang_multiplier < 1.0 {
            return Err(format!(
                "supervision hang_multiplier must be >= 1, got {}",
                self.hang_multiplier
            ));
        }
        if self.hang_floor.is_zero() {
            return Err("supervision hang_floor must be non-zero".into());
        }
        if self.monitor_interval.is_zero() {
            return Err("supervision monitor_interval must be non-zero".into());
        }
        if self.backoff_base.is_zero() {
            return Err("supervision backoff_base must be non-zero".into());
        }
        if self.backoff_cap < self.backoff_base {
            return Err(format!(
                "supervision backoff_cap ({:?}) must be >= backoff_base ({:?})",
                self.backoff_cap, self.backoff_base
            ));
        }
        Ok(())
    }

    /// Hang timeout for a batch whose covering rung's expected latency
    /// is `expected_ns`.
    pub(crate) fn hang_timeout_ns(&self, expected_ns: u64) -> u64 {
        let scaled = (expected_ns as f64 * self.hang_multiplier) as u64;
        scaled.max(self.hang_floor.as_nanos() as u64)
    }
}

/// Per-worker bookkeeping that survives the worker thread.
///
/// Counters live here (not on the thread) so a respawn doesn't reset
/// the worker's history; [`WorkerHealth`] snapshots read straight from
/// the slot.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    pub(crate) index: usize,
    /// Bumped to depose the current thread (watchdog failover). A
    /// worker whose cached generation is stale must exit without
    /// responding — its batch has already been resolved.
    generation: AtomicU64,
    /// Watchdog deadline for the in-flight batch ([`IDLE`] when idle).
    busy_until_ns: AtomicU64,
    /// Crash-loop streak; cleared by a cleanly completed batch.
    consecutive_failures: AtomicU32,
    // Serving counters (see WorkerHealth for semantics).
    pub(crate) batches: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) shed_deadline: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) crashes: AtomicU64,
    pub(crate) respawns: AtomicU64,
    pub(crate) hung_batches: AtomicU64,
    pub(crate) degraded_batches: AtomicU64,
    /// Reply senders for the batch in flight, so a supervisor can
    /// resolve tickets on a dead worker's behalf.
    inflight: Mutex<Vec<(u64, Sender<Response>)>>,
    /// Engine health merged across the worker's ladder, published
    /// after each batch (and folded across respawns).
    engine: Mutex<HealthReport>,
}

impl WorkerSlot {
    pub(crate) fn new(index: usize) -> Self {
        WorkerSlot {
            index,
            generation: AtomicU64::new(0),
            busy_until_ns: AtomicU64::new(IDLE),
            consecutive_failures: AtomicU32::new(0),
            batches: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            hung_batches: AtomicU64::new(0),
            degraded_batches: AtomicU64::new(0),
            inflight: Mutex::new(Vec::new()),
            engine: Mutex::new(HealthReport::default()),
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Deposes the current thread: bumps the generation and returns
    /// the new value for the replacement to adopt.
    pub(crate) fn depose(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Registers a batch as in flight: remembers every ticket's reply
    /// sender and arms the watchdog deadline. Must run before any
    /// fallible work on the batch.
    pub(crate) fn begin_batch(&self, requests: &[Request], watchdog_deadline_ns: u64) {
        let mut inflight = lock_unpoisoned(&self.inflight);
        inflight.clear();
        inflight.extend(requests.iter().map(|r| (r.id, r.reply.clone())));
        drop(inflight);
        self.busy_until_ns
            .store(watchdog_deadline_ns, Ordering::Release);
    }

    /// Clears the in-flight registry and disarms the watchdog, but
    /// only if the armed deadline is still the one this caller set —
    /// a worker that was deposed mid-batch must not clobber the
    /// replacement's registration. Returns whether it disarmed.
    pub(crate) fn end_batch(&self, armed_deadline_ns: u64) -> bool {
        if self
            .busy_until_ns
            .compare_exchange(armed_deadline_ns, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            lock_unpoisoned(&self.inflight).clear();
            true
        } else {
            false
        }
    }

    /// Unconditionally disarms the watchdog and clears the registry.
    /// Crash-path only: the thread is dead, no replacement can have
    /// registered yet.
    pub(crate) fn abort_batch(&self) {
        self.busy_until_ns.store(IDLE, Ordering::Release);
        lock_unpoisoned(&self.inflight).clear();
    }

    /// `true` once the in-flight batch has outlived its hang timeout.
    pub(crate) fn is_overdue(&self, now_ns: u64) -> bool {
        let deadline = self.busy_until_ns.load(Ordering::Acquire);
        deadline != IDLE && now_ns > deadline
    }

    /// Resolves every in-flight ticket as `Failed(cause)` and returns
    /// how many were resolved. Used by the panic handler (worker
    /// crashed) and the watchdog (batch hung).
    pub(crate) fn fail_inflight(&self, cause: FailureCause) -> u64 {
        let drained: Vec<_> = lock_unpoisoned(&self.inflight).drain(..).collect();
        let n = drained.len() as u64;
        for (id, reply) in drained {
            // A dropped ticket just means nobody is listening; fine.
            let _ = reply.send(Response {
                id,
                outcome: Outcome::Failed(cause.clone()),
            });
        }
        n
    }

    /// Extends the crash streak; returns the new streak length.
    pub(crate) fn note_failure(&self) -> u32 {
        self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// A batch completed cleanly: the crash streak resets.
    pub(crate) fn note_clean(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
    }

    /// Capped exponential respawn backoff for the current crash
    /// streak: `backoff_base × 2^(streak-1)`, capped at `backoff_cap`.
    pub(crate) fn backoff(&self, policy: &SupervisionPolicy) -> Duration {
        let streak = self.consecutive_failures.load(Ordering::Acquire).max(1);
        let doublings = (streak - 1).min(20);
        let scaled = policy
            .backoff_base
            .saturating_mul(1u32.checked_shl(doublings).unwrap_or(u32::MAX));
        scaled.min(policy.backoff_cap)
    }

    pub(crate) fn publish_engine(&self, report: HealthReport) {
        *lock_unpoisoned(&self.engine) = report;
    }

    pub(crate) fn engine_health(&self) -> HealthReport {
        lock_unpoisoned(&self.engine).clone()
    }

    /// Snapshot for [`ServerHealth`](crate::health::ServerHealth).
    pub(crate) fn health(&self) -> WorkerHealth {
        WorkerHealth {
            worker: self.index,
            batches: self.batches.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            hung_batches: self.hung_batches.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            engine: self.engine_health(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let slot = WorkerSlot::new(0);
        let policy = SupervisionPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            ..SupervisionPolicy::default()
        };
        assert_eq!(slot.note_failure(), 1);
        assert_eq!(slot.backoff(&policy), Duration::from_millis(10));
        slot.note_failure();
        assert_eq!(slot.backoff(&policy), Duration::from_millis(20));
        slot.note_failure();
        assert_eq!(slot.backoff(&policy), Duration::from_millis(40));
        for _ in 0..10 {
            slot.note_failure();
        }
        assert_eq!(slot.backoff(&policy), Duration::from_millis(100));
        slot.note_clean();
        slot.note_failure();
        assert_eq!(slot.backoff(&policy), Duration::from_millis(10));
    }

    #[test]
    fn overdue_only_while_armed() {
        let slot = WorkerSlot::new(0);
        assert!(!slot.is_overdue(u64::MAX - 1));
        slot.begin_batch(&[], 1_000);
        assert!(!slot.is_overdue(1_000));
        assert!(slot.is_overdue(1_001));
        // A stale deadline doesn't disarm the current registration...
        assert!(!slot.end_batch(999));
        assert!(slot.is_overdue(1_001));
        // ...the armed one does.
        assert!(slot.end_batch(1_000));
        assert!(!slot.is_overdue(1_001));
    }

    #[test]
    fn hang_timeout_floors() {
        let policy = SupervisionPolicy {
            hang_multiplier: 4.0,
            hang_floor: Duration::from_millis(50),
            ..SupervisionPolicy::default()
        };
        // Expected latency 0 (ManualClock pre-warm): floor applies.
        assert_eq!(policy.hang_timeout_ns(0), 50_000_000);
        // Large expected latency: multiplier applies.
        assert_eq!(policy.hang_timeout_ns(100_000_000), 400_000_000);
    }
}
