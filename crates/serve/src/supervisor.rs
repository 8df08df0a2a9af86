//! Worker supervision primitives: the per-worker liveness slot shared
//! between a batch worker, the hung-batch watchdog, and the respawn
//! path.
//!
//! The design splits a worker into two halves:
//!
//! * the **thread** (or the manual pump) — owns the worker session,
//!   runs batches, and can die (panic) or wedge (hang);
//! * the **slot** ([`WorkerSlot`]) — an `Arc`'d bookkeeping record
//!   that *outlives* the thread: serving counters, the in-flight
//!   record, and a generation number.
//!
//! At batch start the worker *moves* its requests' replies into the
//! slot's in-flight record: one lock holding the replies, the watchdog
//! deadline and the generation that registered them. Whoever takes the
//! record resolves those tickets, and nobody else can: the worker when
//! its run returns ([`WorkerSlot::finish_batch`], only while the record
//! is still its own), the watchdog once the record is overdue
//! ([`WorkerSlot::take_overdue`], which deposes the worker in the same
//! locked step), the crash handler, or shutdown
//! ([`WorkerSlot::take_abandoned`]). A dead or hung worker's tickets
//! thus resolve as typed [`Outcome::Failed`](crate::Outcome::Failed)
//! outcomes, never as spurious `ShuttingDown` sheds, and a batch that
//! finishes during a failover is answered once. The generation number
//! lets the watchdog *depose* a wedged worker: the old thread finds its
//! record gone and its generation stale and exits, while a replacement
//! thread (same slot, new generation) takes over the queue.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cnn_stack_nn::HealthReport;

use crate::health::WorkerHealth;
use crate::ticket::Reply;

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

/// Tuning for worker supervision: hang detection and crash-loop
/// backoff.
#[derive(Clone, Copy, Debug)]
pub struct SupervisionPolicy {
    /// A batch is declared hung once it has been running longer than
    /// `hang_multiplier ×` its expected latency (drawn through the
    /// pre-warm runs at one request and at `max_batch`), floored by
    /// [`hang_floor`](Self::hang_floor).
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

    /// Hang timeout for a batch whose expected latency is
    /// `expected_ns`.
    pub(crate) fn hang_timeout_ns(&self, expected_ns: u64) -> u64 {
        let scaled = (expected_ns as f64 * self.hang_multiplier) as u64;
        scaled.max(self.hang_floor.as_nanos() as u64)
    }
}

/// A batch in flight: the replies its tickets are owed, moved here by
/// the worker at batch start.
#[derive(Debug)]
struct InFlight {
    /// The slot generation of the worker that registered the batch.
    generation: u64,
    /// The watchdog fails the batch over once the clock passes this.
    deadline_ns: u64,
    replies: Vec<Reply>,
}

/// Per-worker bookkeeping that survives the worker thread.
///
/// Counters live here (not on the thread) so a respawn doesn't reset
/// the worker's history; [`WorkerHealth`] snapshots read straight from
/// the slot, and the server's totals are their sums.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    pub(crate) index: usize,
    /// Bumped to depose the current thread (watchdog failover). A
    /// worker whose cached generation is stale must exit: its batch has
    /// already been resolved.
    generation: AtomicU64,
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
    /// The batch in flight, if any: its owner resolves its tickets.
    inflight: Mutex<Option<InFlight>>,
    /// The worker session's engine health, published after each
    /// batch (and folded across respawns).
    engine: Mutex<HealthReport>,
}

impl WorkerSlot {
    pub(crate) fn new(index: usize) -> Self {
        WorkerSlot {
            index,
            generation: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            batches: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            hung_batches: AtomicU64::new(0),
            degraded_batches: AtomicU64::new(0),
            inflight: Mutex::new(None),
            engine: Mutex::new(HealthReport::default()),
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Registers a batch as in flight under `generation`: the slot now
    /// owns every ticket's reply, and the watchdog may fail the batch
    /// over once the clock passes `deadline_ns`. Must run before any
    /// fallible work on the batch.
    pub(crate) fn begin_batch(&self, generation: u64, deadline_ns: u64, replies: Vec<Reply>) {
        let previous = lock_unpoisoned(&self.inflight).replace(InFlight {
            generation,
            deadline_ns,
            replies,
        });
        debug_assert!(previous.is_none(), "a batch began over an unresolved one");
    }

    /// Takes the in-flight batch if `owns` says so, in one locked step.
    fn take_if(&self, owns: impl FnOnce(&InFlight) -> bool) -> Option<Vec<Reply>> {
        let mut inflight = lock_unpoisoned(&self.inflight);
        if inflight.as_ref().is_some_and(owns) {
            inflight.take().map(|batch| batch.replies)
        } else {
            None
        }
    }

    /// The registering worker's claim on its batch — when its run
    /// returns, or when it crashed. `None` once the watchdog took the
    /// batch (a replacement's batch, registered under a later
    /// generation, is not this worker's to take).
    pub(crate) fn finish_batch(&self, generation: u64) -> Option<Vec<Reply>> {
        self.take_if(|batch| batch.generation == generation)
    }

    /// The watchdog's claim: takes the batch only if it has outlived its
    /// hang timeout at `now_ns`, and deposes its worker in the same
    /// locked step, so the worker can no longer claim it.
    pub(crate) fn take_overdue(&self, now_ns: u64) -> Option<Vec<Reply>> {
        self.take_if(|batch| {
            let overdue = now_ns > batch.deadline_ns;
            if overdue {
                self.generation.fetch_add(1, Ordering::AcqRel);
            }
            overdue
        })
    }

    /// Shutdown's claim, once every worker thread has exited: whatever a
    /// wedged worker left in flight.
    pub(crate) fn take_abandoned(&self) -> Option<Vec<Reply>> {
        self.take_if(|_| true)
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
    fn each_claim_takes_only_what_it_owns() {
        let slot = WorkerSlot::new(0);
        assert!(slot.take_overdue(u64::MAX - 1).is_none(), "idle");
        slot.begin_batch(0, 1_000, Vec::new());
        assert!(slot.take_overdue(1_000).is_none(), "not yet overdue");
        assert!(slot.finish_batch(1).is_none(), "another generation's batch");
        assert!(slot.finish_batch(0).is_some(), "the worker's own batch");
        assert!(slot.take_abandoned().is_none(), "already taken");

        // The watchdog's take deposes the worker, whose claim then
        // finds nothing — not the replacement's batch either.
        slot.begin_batch(0, 1_000, Vec::new());
        assert!(slot.take_overdue(1_001).is_some());
        assert_eq!(slot.generation(), 1);
        slot.begin_batch(1, 5_000, Vec::new());
        assert!(slot.finish_batch(0).is_none());
        assert!(slot.take_overdue(1_001).is_none(), "the new deadline holds");
        assert!(slot.take_abandoned().is_some());
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
