//! Brownout circuit breaker: guard-level degradation under overload.
//!
//! The breaker watches a sliding window of per-request outcomes (met
//! deadline vs. missed/failed/shed) and drives a three-state machine:
//!
//! ```text
//!            miss rate ≥ trip_miss_rate
//!   Closed ──────────────────────────────▶ Open
//!      ▲                                    │ cooldown elapses
//!      │  probe_requests clean              ▼
//!      └──────────────────────────────  HalfOpen
//!                  (any miss while half-open re-trips to Open)
//! ```
//!
//! While **Open**, batch workers run their one session ladder with
//! guards off ([`Route::Degraded`]) — the same plans, weights and
//! arenas, minus the boundary checks, parameter scans and demotion
//! re-runs of the configured guard level — trading fidelity checks for
//! latency headroom instead of shedding outright. The headroom is the
//! guard's cost and nothing more: the plan does not change, so a model
//! whose layers are labelled CSR still runs its CSR kernels while
//! open. **HalfOpen** sends probe traffic through under the configured
//! guard again; a clean probe window closes the breaker, any miss
//! re-opens it.
//!
//! All timeline decisions take a caller-supplied `now_ns` from the
//! server's [`Clock`](crate::clock::Clock), so the state machine is
//! deterministically testable under `ManualClock`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::supervisor::lock_unpoisoned;

/// Tuning for the brownout circuit breaker.
///
/// Attached to a server via
/// [`ServeConfigBuilder::breaker`](crate::config::ServeConfigBuilder::breaker);
/// without it the server never degrades.
#[derive(Clone, Copy, Debug)]
pub struct BreakerPolicy {
    /// Sliding-window length in requests over which the miss rate is
    /// measured.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip;
    /// prevents one early miss from reading as a 100% miss rate.
    pub min_samples: usize,
    /// Miss-rate threshold in `(0, 1]` at which the breaker opens.
    pub trip_miss_rate: f64,
    /// How long the breaker stays open (serving with guards off)
    /// before probing under the configured guard again.
    pub cooldown: Duration,
    /// Consecutive clean half-open outcomes required to close.
    pub probe_requests: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            window: 64,
            min_samples: 16,
            trip_miss_rate: 0.5,
            cooldown: Duration::from_millis(250),
            probe_requests: 8,
        }
    }
}

impl BreakerPolicy {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("breaker window must be at least 1".into());
        }
        if self.min_samples == 0 || self.min_samples > self.window {
            return Err(format!(
                "breaker min_samples must be in 1..={} (the window), got {}",
                self.window, self.min_samples
            ));
        }
        if !(self.trip_miss_rate > 0.0 && self.trip_miss_rate <= 1.0) {
            return Err(format!(
                "breaker trip_miss_rate must be in (0, 1], got {}",
                self.trip_miss_rate
            ));
        }
        if self.cooldown.is_zero() {
            return Err("breaker cooldown must be non-zero".into());
        }
        if self.probe_requests == 0 {
            return Err("breaker probe_requests must be at least 1".into());
        }
        Ok(())
    }
}

/// Externally visible breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all traffic runs under the configured guard.
    Closed,
    /// Browned out: traffic runs with guards off until the cooldown
    /// expires.
    Open,
    /// Probing: traffic runs under the configured guard; a clean probe
    /// window closes the breaker, any miss re-opens it.
    HalfOpen,
}

/// Point-in-time view of the breaker, embedded in
/// [`ServerHealth`](crate::health::ServerHealth).
#[derive(Clone, Copy, Debug)]
pub struct BreakerSnapshot {
    /// Current state of the state machine.
    pub state: BreakerState,
    /// Closed→Open transitions since the server started (including
    /// HalfOpen→Open re-trips).
    pub trips: u64,
    /// Batches served with guards off while the breaker was open.
    pub degraded_batches: u64,
}

/// Which guard level the next batch runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The configured one.
    Primary,
    /// Off: the breaker is open.
    Degraded,
}

#[derive(Clone, Copy, Debug)]
enum CoreState {
    Closed,
    Open { until_ns: u64 },
    HalfOpen { clean: u32 },
}

struct BreakerCore {
    state: CoreState,
    /// Ring buffer of recent outcomes; `true` = miss.
    ring: Vec<bool>,
    head: usize,
    len: usize,
}

impl BreakerCore {
    fn push(&mut self, miss: bool) {
        let cap = self.ring.capacity();
        if self.ring.len() < cap {
            self.ring.push(miss);
        } else {
            self.ring[self.head] = miss;
        }
        self.head = (self.head + 1) % cap;
        self.len = self.len.saturating_add(1).min(cap);
    }

    fn miss_rate(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let misses = self.ring.iter().filter(|&&m| m).count();
        misses as f64 / self.len as f64
    }

    fn clear_window(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.len = 0;
    }
}

/// Sliding-window health tracker plus the Closed/Open/HalfOpen state
/// machine. Shared (`Arc`) between all batch workers and the submit
/// path; every transition happens under one mutex so workers observe a
/// consistent state.
pub(crate) struct CircuitBreaker {
    policy: BreakerPolicy,
    core: Mutex<BreakerCore>,
    trips: AtomicU64,
    degraded_batches: AtomicU64,
}

impl CircuitBreaker {
    pub(crate) fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            core: Mutex::new(BreakerCore {
                state: CoreState::Closed,
                ring: Vec::with_capacity(policy.window),
                head: 0,
                len: 0,
            }),
            trips: AtomicU64::new(0),
            degraded_batches: AtomicU64::new(0),
        }
    }

    fn trip(&self, core: &mut BreakerCore, now_ns: u64) {
        core.state = CoreState::Open {
            until_ns: now_ns.saturating_add(self.policy.cooldown.as_nanos() as u64),
        };
        // A stale window must not instantly re-trip after recovery.
        core.clear_window();
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one terminal request outcome. `ok` means the request was
    /// served within its deadline; sheds, failures and deadline misses
    /// all count as misses. Returns `true` when this outcome tripped
    /// the breaker (so the caller can bump the trip metric).
    pub(crate) fn record(&self, now_ns: u64, ok: bool) -> bool {
        let mut core = lock_unpoisoned(&self.core);
        match core.state {
            CoreState::Closed => {
                core.push(!ok);
                if core.len >= self.policy.min_samples
                    && core.miss_rate() >= self.policy.trip_miss_rate
                {
                    self.trip(&mut core, now_ns);
                    return true;
                }
                false
            }
            CoreState::HalfOpen { clean } => {
                if ok {
                    if clean + 1 >= self.policy.probe_requests {
                        core.state = CoreState::Closed;
                        core.clear_window();
                    } else {
                        core.state = CoreState::HalfOpen { clean: clean + 1 };
                    }
                    false
                } else {
                    self.trip(&mut core, now_ns);
                    true
                }
            }
            // Outcomes while open (degraded traffic, queue sheds) don't
            // extend the cooldown; recovery is time-driven.
            CoreState::Open { .. } => false,
        }
    }

    /// Picks the route for the next batch, performing the time-driven
    /// Open→HalfOpen transition when the cooldown has elapsed.
    pub(crate) fn route(&self, now_ns: u64) -> Route {
        let mut core = lock_unpoisoned(&self.core);
        match core.state {
            CoreState::Closed | CoreState::HalfOpen { .. } => Route::Primary,
            CoreState::Open { until_ns } => {
                if now_ns >= until_ns {
                    core.state = CoreState::HalfOpen { clean: 0 };
                    Route::Primary
                } else {
                    Route::Degraded
                }
            }
        }
    }

    pub(crate) fn note_degraded_batch(&self) {
        self.degraded_batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> BreakerSnapshot {
        let state = match lock_unpoisoned(&self.core).state {
            CoreState::Closed => BreakerState::Closed,
            CoreState::Open { .. } => BreakerState::Open,
            CoreState::HalfOpen { .. } => BreakerState::HalfOpen,
        };
        BreakerSnapshot {
            state,
            trips: self.trips.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
        }
    }

    /// Gauge encoding for `serve.breaker.state`: 0 closed, 1 half-open,
    /// 2 open.
    pub(crate) fn state_gauge(&self) -> i64 {
        match lock_unpoisoned(&self.core).state {
            CoreState::Closed => 0,
            CoreState::HalfOpen { .. } => 1,
            CoreState::Open { .. } => 2,
        }
    }
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("CircuitBreaker")
            .field("state", &snap.state)
            .field("trips", &snap.trips)
            .field("degraded_batches", &snap.degraded_batches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            window: 8,
            min_samples: 4,
            trip_miss_rate: 0.5,
            cooldown: Duration::from_millis(100),
            probe_requests: 3,
        }
    }

    #[test]
    fn trips_only_after_min_samples() {
        let b = CircuitBreaker::new(policy());
        // Three straight misses: under min_samples, stays closed.
        for _ in 0..3 {
            b.record(0, false);
        }
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        // Fourth miss reaches min_samples at 100% miss rate: trips.
        b.record(0, false);
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().trips, 1);
    }

    #[test]
    fn open_routes_degraded_until_cooldown() {
        let b = CircuitBreaker::new(policy());
        for _ in 0..4 {
            b.record(1_000, false);
        }
        assert_eq!(b.route(1_000), Route::Degraded);
        // Still inside the 100ms cooldown.
        assert_eq!(b.route(1_000 + 50_000_000), Route::Degraded);
        // Cooldown elapsed: half-open, probes go primary.
        assert_eq!(b.route(1_000 + 100_000_000), Route::Primary);
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
    }

    #[test]
    fn clean_probe_window_closes() {
        let b = CircuitBreaker::new(policy());
        for _ in 0..4 {
            b.record(0, false);
        }
        let after = 200_000_000;
        assert_eq!(b.route(after), Route::Primary);
        b.record(after, true);
        b.record(after, true);
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
        b.record(after, true);
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        // The cleared window means one fresh miss can't instantly re-trip.
        b.record(after, false);
        assert_eq!(b.snapshot().state, BreakerState::Closed);
    }

    #[test]
    fn half_open_miss_retrips() {
        let b = CircuitBreaker::new(policy());
        for _ in 0..4 {
            b.record(0, false);
        }
        assert_eq!(b.route(200_000_000), Route::Primary);
        b.record(200_000_000, false);
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().trips, 2);
        // And the new cooldown starts from the re-trip time.
        assert_eq!(b.route(200_000_000 + 50_000_000), Route::Degraded);
    }

    #[test]
    fn mixed_window_below_threshold_stays_closed() {
        let b = CircuitBreaker::new(policy());
        for i in 0..16 {
            // 25% miss rate.
            b.record(0, i % 4 != 0);
        }
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        assert_eq!(b.snapshot().trips, 0);
    }
}
