//! Server-level health: per-worker reports aggregated into one
//! snapshot, extending the engine's [`HealthReport`] up the stack.

use cnn_stack_nn::HealthReport;

use crate::breaker::BreakerSnapshot;

/// One batch worker's view: serving counters plus the merged engine
/// health of its session ladder.
///
/// Counters live on the worker's supervision slot, not its thread, so
/// they persist across crash respawns and watchdog failovers.
#[derive(Clone, Debug, Default)]
pub struct WorkerHealth {
    /// Worker index (stable across snapshots and respawns).
    pub worker: usize,
    /// Batches assembled (including ones lost to a crash or hang).
    pub batches: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at batch assembly because their deadline passed.
    pub shed_deadline: u64,
    /// Requests that resolved to [`crate::Outcome::Failed`].
    pub failed: u64,
    /// Worker panics caught by the supervisor.
    pub crashes: u64,
    /// Times this worker was rebuilt with a fresh session ladder
    /// (after a crash or a watchdog failover).
    pub respawns: u64,
    /// Batches the hung-batch watchdog failed over.
    pub hung_batches: u64,
    /// Batches served with guards off while the breaker was open.
    pub degraded_batches: u64,
    /// Engine-level health merged across the worker's session ladder.
    pub engine: HealthReport,
}

/// The whole server's health at a point in time.
#[derive(Clone, Debug, Default)]
pub struct ServerHealth {
    /// Requests accepted by `submit` (includes later-shed ones).
    pub submitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission (queue full).
    pub shed_queue_full: u64,
    /// Requests shed at batch assembly (deadline expired).
    pub shed_deadline: u64,
    /// Requests that resolved to [`crate::Outcome::Failed`].
    pub failed: u64,
    /// Worker respawns, summed across workers.
    pub respawns: u64,
    /// Watchdog failovers, summed across workers.
    pub hung_batches: u64,
    /// Batches served with guards off while the breaker was open,
    /// summed across workers.
    pub degraded_batches: u64,
    /// Brownout breaker trips (0 when no breaker is configured).
    pub breaker_trips: u64,
    /// Breaker state machine snapshot, when a breaker is configured.
    pub breaker: Option<BreakerSnapshot>,
    /// Per-worker detail.
    pub workers: Vec<WorkerHealth>,
}

impl ServerHealth {
    /// `true` when nothing *faulted*: no failures, no worker crashes
    /// or respawns, no hung batches, and every worker's engine health
    /// is clean. Load shedding does **not** dirty this — shedding is
    /// the server working as designed under overload; use
    /// [`is_quiet`](Self::is_quiet) to additionally assert no sheds.
    pub fn is_clean(&self) -> bool {
        self.failed == 0
            && self.respawns == 0
            && self.hung_batches == 0
            && self
                .workers
                .iter()
                .all(|w| w.crashes == 0 && w.engine.is_clean())
    }

    /// [`is_clean`](Self::is_clean) *and* nothing was shed: the server
    /// ran every accepted request inside its deadline with queue
    /// headroom to spare.
    pub fn is_quiet(&self) -> bool {
        self.is_clean() && self.shed_queue_full == 0 && self.shed_deadline == 0
    }

    /// Total algorithm demotions across every worker's sessions.
    pub fn total_demotions(&self) -> usize {
        self.workers.iter().map(|w| w.engine.demotions.len()).sum()
    }
}
