//! The multi-tenant inference server: bounded queue → dynamic batcher
//! → one pre-warmed session per worker, with admission control, deadline
//! shedding, per-request typed outcomes — and self-healing: a
//! supervisor that catches worker panics and respawns with capped
//! backoff, a hung-batch watchdog that fails over wedged workers, and
//! an optional brownout circuit breaker under which overloaded workers
//! run their sessions with guards off.
//!
//! Every ticket resolves in one place: [`ServerInner::settle`] answers
//! it and does the outcome's whole bookkeeping — the slot's counter
//! (the server's, for a queue-full shed), the obs metric, the latency
//! histogram, the breaker sample. A reply is moved, never cloned, so at
//! each instant one owner holds it: the queue, the worker, or the
//! slot's in-flight record, which the worker, the watchdog, the crash
//! handler and shutdown can each take but only one of them does (see
//! [`crate::supervisor`]). The server's `served`, `shed_deadline` and
//! `failed` totals are the sums of the slots' counters.

use crate::batcher::{BatchEnd, Batcher};
use crate::breaker::{CircuitBreaker, Route};
use crate::clock::{Clock, MonotonicClock};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::health::{ServerHealth, WorkerHealth};
use crate::pool::{SessionTemplate, WorkerSession};
use crate::supervisor::{lock_unpoisoned, SupervisionPolicy, WorkerSlot};
use crate::ticket::{FailureCause, Outcome, Reply, Request, Served, ShedReason, Ticket};
use cnn_stack_nn::{HealthReport, Network};
use cnn_stack_obs::{Metric, Observer};
use cnn_stack_parallel::{panic_message, spawn_worker};
use cnn_stack_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// State shared between submitters, workers, and the supervisor.
struct ServerInner {
    observer: Option<Arc<Observer>>,
    /// Requests currently queued (admission gauge).
    depth: AtomicI64,
    next_id: AtomicU64,
    submitted: AtomicU64,
    shed_queue_full: AtomicU64,
    /// Per-worker supervision slots; these outlive worker threads, so
    /// counters and in-flight tickets survive crashes and failovers.
    slots: Vec<Arc<WorkerSlot>>,
    breaker: Option<Arc<CircuitBreaker>>,
    /// Set at shutdown so the monitor and any parked/hung workers exit.
    shutdown: AtomicBool,
    /// Serve-level fault plan (crash/hang/slow batches), shared so it
    /// reaches threaded workers too.
    #[cfg(feature = "fault-inject")]
    serve_faults: Mutex<Arc<cnn_stack_nn::FaultPlan>>,
}

impl ServerInner {
    fn count(&self, m: Metric, n: u64) {
        if let Some(obs) = &self.observer {
            obs.metrics().add(m, n);
        }
    }

    fn observe(&self, m: Metric, v: u64) {
        if let Some(obs) = &self.observer {
            obs.metrics().observe(m, v);
        }
    }

    fn gauge(&self, m: Metric, v: i64) {
        if let Some(obs) = &self.observer {
            obs.metrics().set(m, v);
        }
    }

    /// Resolves one ticket at `now_ns`: the one place an outcome is
    /// answered and counted. Bumps the outcome's counter — `slot`'s, or
    /// the server's for a queue-full shed — and its obs metric, records
    /// a served request's latency (stamped into the payload here) and
    /// feeds the breaker, then sends the response. `slot` is `None`
    /// only at admission; a shutdown refusal counts nothing, as nothing
    /// was admitted.
    fn settle(&self, slot: Option<&WorkerSlot>, reply: Reply, now_ns: u64, mut outcome: Outcome) {
        let slot = || slot.expect("an outcome after admission belongs to a worker");
        let ok = match &mut outcome {
            Outcome::Served(served) => {
                let latency_ns = now_ns.saturating_sub(reply.submitted_ns);
                served.latency = Duration::from_nanos(latency_ns);
                self.observe(Metric::ServeLatencyNs, latency_ns);
                slot().served.fetch_add(1, Ordering::Relaxed);
                self.count(Metric::ServeServed, 1);
                Some(reply.deadline_ns.is_none_or(|d| d >= now_ns))
            }
            Outcome::Shed(ShedReason::QueueFull) => {
                self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                self.count(Metric::ServeShedQueueFull, 1);
                Some(false)
            }
            Outcome::Shed(ShedReason::DeadlineExpired) => {
                slot().shed_deadline.fetch_add(1, Ordering::Relaxed);
                self.count(Metric::ServeShedDeadline, 1);
                Some(false)
            }
            Outcome::Shed(ShedReason::ShuttingDown) => None,
            Outcome::Failed(_) => {
                slot().failed.fetch_add(1, Ordering::Relaxed);
                self.count(Metric::ServeFailed, 1);
                Some(false)
            }
        };
        // Misses, failures and queue-full sheds are the overload
        // pressure the breaker watches.
        if let (Some(ok), Some(breaker)) = (ok, &self.breaker) {
            if breaker.record(now_ns, ok) {
                self.count(Metric::ServeBreakerTrips, 1);
            }
        }
        reply.send(outcome);
    }
}

/// Shared context the watchdog needs to fail over and respawn workers,
/// whether it runs on the background monitor thread (threaded servers)
/// or inside [`Server::supervise`] (manual servers).
struct SupervisorCtx {
    inner: Arc<ServerInner>,
    batcher: Arc<Mutex<Batcher>>,
    /// The session template frozen at start-up, which every respawn
    /// stamps; see [`Worker::rebuild`].
    template: Arc<SessionTemplate>,
    clock: Arc<dyn Clock>,
    /// Live worker threads, including replacements spawned after
    /// failovers; drained at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    supervision: SupervisionPolicy,
}

/// One batch worker: drains the shared queue through the batcher and
/// runs batches on its own session. The thread half of a
/// worker — its durable half is the [`WorkerSlot`].
struct Worker {
    slot: Arc<WorkerSlot>,
    /// The slot generation this thread serves under; a mismatch means
    /// the watchdog deposed it and a replacement owns the queue.
    generation: u64,
    batcher: Arc<Mutex<Batcher>>,
    session: WorkerSession,
    /// Engine health inherited from sessions discarded by earlier
    /// respawns, so history survives the rebuild.
    engine_base: HealthReport,
    inner: Arc<ServerInner>,
    clock: Arc<dyn Clock>,
    template: Arc<SessionTemplate>,
    supervision: SupervisionPolicy,
    /// Only consulted by the injected-hang path, which is feature-gated.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    manual: bool,
    /// Manual mode: a hang fault parks the worker (the thread analogue
    /// of being wedged) until the watchdog recycles it.
    parked: bool,
    /// Manual mode: crash backoff gate — no cycles until this instant.
    respawn_at_ns: Option<u64>,
}

impl Worker {
    /// Builds a replacement worker for `slot` from the frozen templates.
    fn fresh(
        ctx: &SupervisorCtx,
        slot: Arc<WorkerSlot>,
        generation: u64,
    ) -> Result<Worker, ServeError> {
        let session = ctx.template.instantiate(&*ctx.clock)?;
        let engine_base = slot.engine_health();
        Ok(Worker {
            slot,
            generation,
            batcher: Arc::clone(&ctx.batcher),
            session,
            engine_base,
            inner: Arc::clone(&ctx.inner),
            clock: Arc::clone(&ctx.clock),
            template: Arc::clone(&ctx.template),
            supervision: ctx.supervision,
            manual: false,
            parked: false,
            respawn_at_ns: None,
        })
    }

    fn deposed(&self) -> bool {
        self.slot.generation() != self.generation
    }

    /// Runs one batch cycle. `Some(did_work)` while the queue is live;
    /// `None` once every submitter is gone and the queue is drained.
    fn cycle(&mut self, block: bool) -> Option<bool> {
        if self.parked {
            return Some(false);
        }
        let batch = {
            let mut batcher = lock_unpoisoned(&self.batcher);
            batcher.next_batch(block)
        };
        let batch = match batch {
            Ok(b) => b,
            Err(BatchEnd::Empty) => return Some(false),
            Err(BatchEnd::Disconnected) => return None,
        };
        let inner = Arc::clone(&self.inner);
        let depth = inner.depth.fetch_sub(batch.len() as i64, Ordering::Relaxed);
        inner.gauge(Metric::ServeQueueDepth, depth - batch.len() as i64);

        // Shed what can no longer meet its deadline; running it would
        // only burn capacity the live requests need.
        let now = self.clock.now_ns();
        for r in &batch {
            let wait_ns = now.saturating_sub(r.reply.submitted_ns);
            inner.observe(Metric::ServeQueueWaitNs, wait_ns);
        }
        let (live, dead): (Vec<Request>, Vec<Request>) = batch
            .into_iter()
            .partition(|r| r.reply.deadline_ns.is_none_or(|d| d >= now));
        for r in dead {
            let shed = Outcome::Shed(ShedReason::DeadlineExpired);
            inner.settle(Some(&self.slot), r.reply, now, shed);
        }
        if live.is_empty() {
            self.publish_health();
            return Some(true);
        }

        // Route: guards off while the breaker is open. Either way the
        // batch runs on the same session, so the hang baseline is drawn
        // through its pre-warm runs under the configured guard.
        let route = inner
            .breaker
            .as_ref()
            .map_or(Route::Primary, |b| b.route(now));
        let degraded_route = route == Route::Degraded;
        let expected_ns = self.session.expected_ns(live.len());

        // Hand the replies to the slot BEFORE any fallible work: from
        // here on, a panic or hang resolves these tickets as typed
        // failures through the in-flight record — they are never lost.
        let watchdog_deadline = now.saturating_add(self.supervision.hang_timeout_ns(expected_ns));
        let batch_idx = self.slot.batches.fetch_add(1, Ordering::Relaxed);
        let (inputs, replies): (Vec<Tensor>, Vec<Reply>) =
            live.into_iter().map(|r| (r.input, r.reply)).unzip();
        self.slot
            .begin_batch(self.generation, watchdog_deadline, replies);
        inner.count(Metric::ServeBatches, 1);
        inner.observe(Metric::ServeBatchOccupancy, inputs.len() as u64);

        // Serve-level fault injection: crash, hang, or slow this batch.
        #[cfg(feature = "fault-inject")]
        {
            use cnn_stack_nn::ServeBatchFault;
            let plan = Arc::clone(&lock_unpoisoned(&inner.serve_faults));
            match plan.serve_batch_entry(batch_idx) {
                Some(ServeBatchFault::Crash) => {
                    panic!("fault-inject: serve worker crash on batch {batch_idx}");
                }
                Some(ServeBatchFault::Hang) => return self.hang(),
                Some(ServeBatchFault::Slow(nanos)) => {
                    self.clock.stall(Duration::from_nanos(nanos));
                }
                None => {}
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = batch_idx;

        let batch_size = inputs.len();
        let run = self.session.run(&inputs, route);
        let done = self.clock.now_ns();
        let Some(replies) = self.slot.finish_batch(self.generation) else {
            // The watchdog gave up on this batch mid-run, already
            // resolved its tickets, and handed the queue to a
            // replacement.
            return Some(true);
        };
        match run {
            Ok((outputs, info)) => {
                for (reply, output) in replies.into_iter().zip(outputs) {
                    let served = Outcome::Served(Served {
                        output,
                        latency: Duration::ZERO,
                        batch_size,
                        demoted: info.demoted,
                        guarded: info.guarded,
                        degraded: degraded_route,
                    });
                    inner.settle(Some(&self.slot), reply, done, served);
                }
            }
            Err(e) => {
                let cause = FailureCause::Engine(e.to_string());
                for reply in replies {
                    let failed = Outcome::Failed(cause.clone());
                    inner.settle(Some(&self.slot), reply, done, failed);
                }
            }
        }
        if degraded_route {
            self.slot.degraded_batches.fetch_add(1, Ordering::Relaxed);
            inner.count(Metric::ServeDegradedBatches, 1);
            if let Some(b) = &inner.breaker {
                b.note_degraded_batch();
            }
        }
        self.slot.note_clean();
        self.publish_health();
        Some(true)
    }

    /// An injected hang: the worker wedges with its batch registered
    /// in flight, and only the watchdog can get those tickets
    /// resolved. Manual workers park (so a single-threaded test can
    /// keep driving the clock); threaded workers block until deposed
    /// or shutdown, like a genuinely stuck thread would.
    #[cfg(feature = "fault-inject")]
    fn hang(&mut self) -> Option<bool> {
        if self.manual {
            self.parked = true;
        } else {
            while !self.deposed() && !self.inner.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Some(true)
    }

    /// Resolves the crashed batch's tickets as typed failures and
    /// extends the crash streak. Runs on whichever thread caught the
    /// panic; the slot outlives the dead worker.
    fn handle_crash(&mut self, msg: String) {
        let now = self.clock.now_ns();
        let cause = FailureCause::WorkerCrashed(msg);
        let replies = self.slot.finish_batch(self.generation);
        for reply in replies.unwrap_or_default() {
            let failed = Outcome::Failed(cause.clone());
            self.inner.settle(Some(&self.slot), reply, now, failed);
        }
        self.slot.crashes.fetch_add(1, Ordering::Relaxed);
        self.inner.count(Metric::ServeWorkerCrashes, 1);
        self.slot.note_failure();
    }

    /// Rebuilds the session in place from the frozen template (a
    /// respawn), folding the dying session's engine health into the
    /// base so history survives. A respawn stamps a replica of the one
    /// compiled model — no model build, no plan compile, no weight
    /// pack — so it costs an arena and pre-warm runs, and a weight a
    /// dying session corrupted never reaches it (the write copied that
    /// session's layer; the template kept the original). Leaves the
    /// worker untouched on error.
    fn rebuild(&mut self) -> Result<(), ServeError> {
        let mut base = self.engine_base.clone();
        base.merge(self.session.health());
        let session = self.template.instantiate(&*self.clock)?;
        self.engine_base = base;
        self.session = session;
        self.slot.respawns.fetch_add(1, Ordering::Relaxed);
        self.inner.count(Metric::ServeRespawns, 1);
        self.publish_health();
        Ok(())
    }

    fn publish_health(&self) {
        let mut merged = self.engine_base.clone();
        merged.merge(self.session.health());
        self.slot.publish_engine(merged);
        if let Some(b) = &self.inner.breaker {
            self.inner.gauge(Metric::ServeBreakerState, b.state_gauge());
        }
    }
}

/// A threaded worker's life: cycle until the queue closes, catching
/// panics; each crash resolves its batch as typed failures, backs off
/// (capped exponential in the crash streak), and respawns in place
/// with a fresh session. Exits quietly if the watchdog deposed it.
fn worker_loop(mut worker: Worker) {
    loop {
        if worker.deposed() {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| worker.cycle(true))) {
            Ok(Some(_)) => continue,
            Ok(None) => break,
            Err(payload) => {
                worker.handle_crash(panic_message(payload));
                loop {
                    std::thread::sleep(worker.slot.backoff(&worker.supervision));
                    if worker.deposed() || worker.inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    match worker.rebuild() {
                        Ok(()) => break,
                        // The rebuild itself failed: treat it like
                        // another crash and back off harder.
                        Err(_) => {
                            worker.slot.note_failure();
                        }
                    }
                }
            }
        }
    }
    worker.publish_health();
}

/// Spawns a replacement thread for a deposed worker's slot. The
/// replacement builds its session on its own thread (so the monitor
/// never blocks on session construction), retrying with backoff.
fn spawn_replacement(ctx: &Arc<SupervisorCtx>, slot: Arc<WorkerSlot>) {
    let generation = slot.generation();
    let name = format!("cnn-stack-serve-{}r{}", slot.index, generation);
    let ctx2 = Arc::clone(ctx);
    let handle = spawn_worker(&name, move || {
        let worker = loop {
            if slot.generation() != generation || ctx2.inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            match Worker::fresh(&ctx2, Arc::clone(&slot), generation) {
                Ok(w) => break w,
                Err(_) => {
                    slot.note_failure();
                    std::thread::sleep(slot.backoff(&ctx2.supervision));
                }
            }
        };
        worker.slot.respawns.fetch_add(1, Ordering::Relaxed);
        ctx2.inner.count(Metric::ServeRespawns, 1);
        worker_loop(worker);
    });
    lock_unpoisoned(&ctx.threads).push(handle);
}

/// One hung-batch watchdog sweep: any slot whose in-flight batch has
/// outlived its hang timeout loses it — its worker deposed, its tickets
/// resolved as [`FailureCause::BatchHung`] — and a replacement takes
/// over the queue. Returns the number of failovers.
fn sweep(ctx: &Arc<SupervisorCtx>, manual: Option<&Mutex<Worker>>) -> usize {
    let now = ctx.clock.now_ns();
    let mut failovers = 0;
    for slot in &ctx.inner.slots {
        let Some(replies) = slot.take_overdue(now) else {
            continue;
        };
        failovers += 1;
        for reply in replies {
            let failed = Outcome::Failed(FailureCause::BatchHung);
            ctx.inner.settle(Some(slot), reply, now, failed);
        }
        slot.hung_batches.fetch_add(1, Ordering::Relaxed);
        ctx.inner.count(Metric::ServeHungBatches, 1);
        match manual {
            // Manual mode: recycle the one worker in place — unpark it
            // under the new generation with a fresh session.
            Some(worker_mutex) => {
                let mut worker = lock_unpoisoned(worker_mutex);
                worker.generation = slot.generation();
                worker.parked = false;
                if worker.rebuild().is_err() {
                    worker.slot.note_failure();
                    let backoff = worker.slot.backoff(&ctx.supervision);
                    worker.respawn_at_ns = Some(now.saturating_add(backoff.as_nanos() as u64));
                }
            }
            None => spawn_replacement(ctx, Arc::clone(slot)),
        }
    }
    failovers
}

/// The serving front end; see the [crate docs](crate) for the
/// architecture and an end-to-end example.
pub struct Server {
    cfg: ServeConfig,
    inner: Arc<ServerInner>,
    clock: Arc<dyn Clock>,
    ctx: Arc<SupervisorCtx>,
    tx: Mutex<Option<SyncSender<Request>>>,
    /// Background watchdog thread (threaded servers only).
    monitor: Option<JoinHandle<()>>,
    /// The single worker of a manually-pumped server (`workers == 0`).
    manual: Option<Mutex<Worker>>,
}

impl Server {
    /// Builds the session pool (one session per worker, with or without
    /// a breaker), pre-warms every session, and starts the
    /// batch workers plus the supervision monitor. `build_net` is
    /// called exactly once, here: every session the server ever runs —
    /// each worker's, each respawn's after a crash or failover —
    /// is a copy-on-write replica of the network it returns, so the
    /// server holds one physical copy of the weights and of each
    /// prepacked form.
    ///
    /// # Errors
    ///
    /// Propagates plan-compilation or session-construction failures.
    pub fn start<F>(cfg: ServeConfig, build_net: F) -> Result<Self, ServeError>
    where
        F: FnOnce() -> Network + Send + 'static,
    {
        Self::start_with_clock(cfg, Arc::new(MonotonicClock::new()), build_net)
    }

    /// Like [`start`](Self::start) with an explicit time source; the
    /// deterministic tests pass a [`crate::ManualClock`] together with
    /// `workers == 0` and drive batches via [`pump`](Self::pump) and
    /// the watchdog via [`supervise`](Self::supervise).
    pub fn start_with_clock<F>(
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        build_net: F,
    ) -> Result<Self, ServeError>
    where
        F: FnOnce() -> Network + Send + 'static,
    {
        let worker_count = cfg.workers().max(1);
        let (tx, rx) = mpsc::sync_channel::<Request>(cfg.queue_depth());
        let breaker = cfg.breaker().map(|p| Arc::new(CircuitBreaker::new(*p)));
        let inner = Arc::new(ServerInner {
            observer: Observer::for_level(cfg.observer()),
            depth: AtomicI64::new(0),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            slots: (0..worker_count)
                .map(|i| Arc::new(WorkerSlot::new(i)))
                .collect(),
            breaker,
            shutdown: AtomicBool::new(false),
            #[cfg(feature = "fault-inject")]
            serve_faults: Mutex::new(Arc::new(cnn_stack_nn::FaultPlan::new())),
        });
        let batcher = Arc::new(Mutex::new(Batcher::new(
            rx,
            Arc::clone(&clock),
            cfg.batch_policy(),
        )));

        // Build and compile on this thread, once: the first worker's
        // session is the one the plan was prepared on, every other
        // worker's is stamped from the template, which is then frozen
        // for post-crash rebuilds.
        let (template, first) = SessionTemplate::compile(&cfg, build_net(), &*clock)?;
        let template = Arc::new(template);
        let mut sessions = vec![first];
        for _ in 1..worker_count {
            sessions.push(template.instantiate(&*clock)?);
        }
        let ctx = Arc::new(SupervisorCtx {
            inner: Arc::clone(&inner),
            batcher: Arc::clone(&batcher),
            template: Arc::clone(&template),
            clock: Arc::clone(&clock),
            threads: Mutex::new(Vec::new()),
            supervision: *cfg.supervision(),
        });
        let manual_mode = cfg.workers() == 0;
        let mut workers: Vec<Worker> = sessions
            .into_iter()
            .enumerate()
            .map(|(index, session)| Worker {
                slot: Arc::clone(&inner.slots[index]),
                generation: inner.slots[index].generation(),
                batcher: Arc::clone(&batcher),
                session,
                engine_base: HealthReport::default(),
                inner: Arc::clone(&inner),
                clock: Arc::clone(&clock),
                template: Arc::clone(&template),
                supervision: *cfg.supervision(),
                manual: manual_mode,
                parked: false,
                respawn_at_ns: None,
            })
            .collect();

        let mut manual = None;
        let mut monitor = None;
        if manual_mode {
            let worker = workers.pop().expect("one manual worker");
            manual = Some(Mutex::new(worker));
        } else {
            let mut handles = lock_unpoisoned(&ctx.threads);
            for worker in workers {
                handles.push(spawn_worker(
                    &format!("cnn-stack-serve-{}", worker.slot.index),
                    move || worker_loop(worker),
                ));
            }
            drop(handles);
            let monitor_ctx = Arc::clone(&ctx);
            monitor = Some(spawn_worker("cnn-stack-serve-monitor", move || {
                while !monitor_ctx.inner.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(monitor_ctx.supervision.monitor_interval);
                    sweep(&monitor_ctx, None);
                }
            }));
        }
        Ok(Server {
            cfg,
            inner,
            clock,
            ctx,
            tx: Mutex::new(Some(tx)),
            monitor,
            manual,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The server's observer (queue/latency/shed instruments), when the
    /// configured [`cnn_stack_obs::ObsLevel`] is above `Off`.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.inner.observer.as_ref()
    }

    /// Submits a request with no deadline: it waits in the queue until
    /// its batch runs. Admission control answers immediately: when the
    /// bounded queue is full the returned ticket resolves to
    /// [`Outcome::Shed`]`(`[`ShedReason::QueueFull`]`)` without the
    /// request ever queueing.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] when `input` is not one request of
    /// the configured shape — that is a caller bug, not load shedding.
    pub fn submit(&self, input: Tensor) -> Result<Ticket, ServeError> {
        self.submit_opts(input, None)
    }

    /// Submits with an explicit deadline budget: if the request is
    /// still queued when its batch is assembled `deadline` after
    /// submission, it is shed with [`ShedReason::DeadlineExpired`].
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] as for [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        input: Tensor,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit_opts(input, Some(deadline))
    }

    fn submit_opts(&self, input: Tensor, deadline: Option<Duration>) -> Result<Ticket, ServeError> {
        if input.shape().dims() != self.cfg.input_shape() {
            return Err(ServeError::ShapeMismatch {
                want: self.cfg.input_shape().to_vec(),
                got: input.shape().dims().to_vec(),
            });
        }
        let inner = &self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.count(Metric::ServeSubmitted, 1);
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { id, rx };
        let now = self.clock.now_ns();
        let reply = Reply {
            id,
            submitted_ns: now,
            deadline_ns: deadline.map(|d| now.saturating_add(d.as_nanos() as u64)),
            tx,
        };
        let refused = |reply, reason| inner.settle(None, reply, now, Outcome::Shed(reason));
        let queue = lock_unpoisoned(&self.tx);
        match queue.as_ref() {
            None => refused(reply, ShedReason::ShuttingDown),
            Some(queue) => match queue.try_send(Request { input, reply }) {
                Ok(()) => {
                    let depth = inner.depth.fetch_add(1, Ordering::Relaxed) + 1;
                    inner.gauge(Metric::ServeQueueDepth, depth);
                }
                Err(TrySendError::Full(request)) => refused(request.reply, ShedReason::QueueFull),
                Err(TrySendError::Disconnected(request)) => {
                    refused(request.reply, ShedReason::ShuttingDown)
                }
            },
        }
        Ok(ticket)
    }

    /// Runs one batch cycle on the caller's thread (manual mode,
    /// `workers == 0`): assembles at most one batch and serves it.
    /// Returns `true` if a batch (or a shed) was processed, `false` if
    /// the queue was empty, the worker is parked on an injected hang,
    /// or a crashed worker is still inside its respawn backoff.
    ///
    /// A panic inside the cycle is caught here exactly like the
    /// threaded supervisor would: the batch's tickets resolve as
    /// [`FailureCause::WorkerCrashed`] and the worker stays down until
    /// its capped-exponential backoff expires on the server clock.
    ///
    /// # Panics
    ///
    /// Panics when the server was started with background workers —
    /// pumping would race them.
    pub fn pump(&self) -> bool {
        let worker_mutex = self
            .manual
            .as_ref()
            .expect("pump requires a manual server (workers == 0)");
        let mut worker = lock_unpoisoned(worker_mutex);
        if let Some(at) = worker.respawn_at_ns {
            if self.clock.now_ns() < at {
                return false;
            }
            worker.respawn_at_ns = None;
            if worker.rebuild().is_err() {
                worker.slot.note_failure();
                let backoff = worker.slot.backoff(&self.ctx.supervision);
                worker.respawn_at_ns = Some(
                    self.clock
                        .now_ns()
                        .saturating_add(backoff.as_nanos() as u64),
                );
                return true;
            }
        }
        match catch_unwind(AssertUnwindSafe(|| worker.cycle(false))) {
            Ok(did_work) => did_work.unwrap_or(false),
            Err(payload) => {
                worker.handle_crash(panic_message(payload));
                let backoff = worker.slot.backoff(&self.ctx.supervision);
                worker.respawn_at_ns = Some(
                    self.clock
                        .now_ns()
                        .saturating_add(backoff.as_nanos() as u64),
                );
                true
            }
        }
    }

    /// Runs one hung-batch watchdog sweep on the caller's thread and
    /// returns how many workers were failed over. Threaded servers
    /// sweep automatically every
    /// [`SupervisionPolicy::monitor_interval`] on a background monitor
    /// thread; manual servers call this from the test after advancing
    /// the [`crate::ManualClock`] past a batch's hang timeout.
    pub fn supervise(&self) -> usize {
        sweep(&self.ctx, self.manual.as_ref())
    }

    /// Current aggregated health snapshot.
    pub fn health(&self) -> ServerHealth {
        let inner = &self.inner;
        let workers: Vec<WorkerHealth> = inner.slots.iter().map(|s| s.health()).collect();
        let breaker = inner.breaker.as_ref().map(|b| b.snapshot());
        ServerHealth {
            submitted: inner.submitted.load(Ordering::Relaxed),
            served: workers.iter().map(|w| w.served).sum(),
            shed_queue_full: inner.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: workers.iter().map(|w| w.shed_deadline).sum(),
            failed: workers.iter().map(|w| w.failed).sum(),
            respawns: workers.iter().map(|w| w.respawns).sum(),
            hung_batches: workers.iter().map(|w| w.hung_batches).sum(),
            degraded_batches: workers.iter().map(|w| w.degraded_batches).sum(),
            breaker_trips: breaker.map(|b| b.trips).unwrap_or(0),
            breaker,
            workers,
        }
    }

    /// Installs a deterministic fault plan into the manual worker's
    /// session — the serving end of the engine's fault-injection
    /// harness. Manual mode only.
    ///
    /// # Panics
    ///
    /// Panics on a threaded server.
    #[cfg(feature = "fault-inject")]
    pub fn inject_faults(&self, faults: impl Fn() -> cnn_stack_nn::FaultPlan) {
        let worker = self
            .manual
            .as_ref()
            .expect("inject_faults requires a manual server (workers == 0)");
        lock_unpoisoned(worker).session.inject_faults(faults());
    }

    /// Installs a serve-level fault plan: worker-crash, worker-hang
    /// and slow-batch faults matched by per-worker batch index. Unlike
    /// [`inject_faults`](Self::inject_faults) this reaches threaded
    /// workers too — the chaos bench injects crashes under real load.
    #[cfg(feature = "fault-inject")]
    pub fn inject_serve_faults(&self, faults: cnn_stack_nn::FaultPlan) {
        *lock_unpoisoned(&self.inner.serve_faults) = Arc::new(faults);
    }

    /// Stops accepting work, serves everything already queued, and
    /// joins the workers. Requests submitted afterwards resolve to
    /// [`Outcome::Shed`]`(`[`ShedReason::ShuttingDown`]`)`.
    pub fn shutdown(mut self) -> ServerHealth {
        self.shutdown_in_place();
        self.health()
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the sender lets workers drain the buffer and exit;
        // the shutdown flag releases the monitor and any wedged worker.
        *lock_unpoisoned(&self.tx) = None;
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        // Replacements can spawn while we join, so drain until empty.
        loop {
            let handles: Vec<JoinHandle<()>> =
                lock_unpoisoned(&self.ctx.threads).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for t in handles {
                let _ = t.join();
            }
        }
        if let Some(worker_mutex) = self.manual.as_ref() {
            let mut worker = lock_unpoisoned(worker_mutex);
            // Drain the buffer on this thread. A worker down for crash
            // backoff is rebuilt immediately — shutdown must not leave
            // queued work unresolved; a crash mid-drain stops the
            // drain (remaining tickets resolve ShuttingDown when the
            // queue drops).
            loop {
                if worker.respawn_at_ns.take().is_some() && worker.rebuild().is_err() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| worker.cycle(false))) {
                    Ok(Some(true)) => continue,
                    Ok(_) => break,
                    Err(payload) => {
                        worker.handle_crash(panic_message(payload));
                        break;
                    }
                }
            }
            worker.publish_health();
        }
        // Resolve anything a wedged worker abandoned mid-flight so no
        // ticket is ever lost, even through shutdown.
        let now = self.clock.now_ns();
        for slot in &self.inner.slots {
            for reply in slot.take_abandoned().unwrap_or_default() {
                let failed = Outcome::Failed(FailureCause::BatchHung);
                self.inner.settle(Some(slot), reply, now, failed);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerPolicy;
    use crate::clock::ManualClock;
    use crate::pool::tests::{batch4_cfg, requests, ternary_tiny_net, tiny_net};
    use crate::ticket::Response;

    fn manual_server(cfg: ServeConfig, net: fn(u64) -> Network) -> Server {
        Server::start_with_clock(cfg, Arc::new(ManualClock::new()), move || net(7))
            .expect("tiny net compiles and serves")
    }

    /// Every submitted ticket is counted under exactly one outcome.
    fn assert_every_ticket_counted_once(health: &ServerHealth) {
        let settled = health.served + health.shed_queue_full + health.shed_deadline + health.failed;
        assert_eq!(health.submitted, settled, "{health:?}");
    }

    /// Wall time, except for the worker's third reading once armed —
    /// the one taken when its batch's run returns (the batcher read the
    /// clock when the batch opened, the cycle when it was assembled).
    /// That reading jumps the clock an hour ahead, so the batch is
    /// overdue, and waits until the monitor has swept at the new time:
    /// the watchdog fails the batch over while it finishes. It waits
    /// ten seconds at most, so a broken monitor fails the test instead
    /// of hanging it.
    #[derive(Debug, Default)]
    struct FailoverClock {
        wall: MonotonicClock,
        jump_ns: AtomicU64,
        armed: AtomicBool,
        worker_readings: AtomicU64,
        monitor_readings: AtomicU64,
    }

    impl Clock for FailoverClock {
        fn now_ns(&self) -> u64 {
            match std::thread::current().name() {
                Some("cnn-stack-serve-monitor") => {
                    self.monitor_readings.fetch_add(1, Ordering::SeqCst);
                }
                Some("cnn-stack-serve-0")
                    if self.armed.load(Ordering::SeqCst)
                        && self.worker_readings.fetch_add(1, Ordering::SeqCst) == 2 =>
                {
                    self.jump_ns.store(3_600_000_000_000, Ordering::SeqCst);
                    // The sweep after the next monitor reading began after
                    // the jump, and has finished by the one after it.
                    let swept = self.monitor_readings.load(Ordering::SeqCst) + 2;
                    let give_up = std::time::Instant::now() + Duration::from_secs(10);
                    while self.monitor_readings.load(Ordering::SeqCst) < swept
                        && std::time::Instant::now() < give_up
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                _ => {}
            }
            self.wall.now_ns() + self.jump_ns.load(Ordering::SeqCst)
        }

        fn recv_deadline(
            &self,
            rx: &mpsc::Receiver<Request>,
            deadline_ns: u64,
        ) -> Result<Request, crate::clock::WaitError> {
            let jump = self.jump_ns.load(Ordering::SeqCst);
            self.wall
                .recv_deadline(rx, deadline_ns.saturating_sub(jump))
        }

        fn stall(&self, dur: Duration) {
            self.wall.stall(dur);
        }
    }

    /// A batch that finishes while the watchdog fails it over is
    /// answered once — by whichever of the two took it from the slot —
    /// and counted once: both tickets resolve `BatchHung`, nothing is
    /// sent after, and the server's totals add up.
    #[test]
    fn a_batch_finishing_during_its_failover_is_answered_once() {
        let clock = Arc::new(FailoverClock::default());
        let cfg = ServeConfig::builder([3, 6, 6])
            .max_batch(2)
            .max_delay(Duration::from_secs(10))
            .workers(1)
            .supervision(SupervisionPolicy {
                hang_multiplier: 1.0,
                hang_floor: Duration::from_secs(1),
                monitor_interval: Duration::from_millis(1),
                ..SupervisionPolicy::default()
            })
            .build()
            .expect("test config is valid");
        let server =
            Server::start_with_clock(cfg, Arc::clone(&clock) as Arc<dyn Clock>, || tiny_net(7))
                .expect("tiny net compiles and serves");
        clock.armed.store(true, Ordering::SeqCst);
        let x = Tensor::from_fn([3, 6, 6], |i| (i as f32 * 0.37).sin());
        let tickets: Vec<Ticket> = (0..2).map(|_| server.submit(x.clone()).unwrap()).collect();
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        let first: Vec<Response> = tickets
            .iter()
            .map(|t| loop {
                if let Some(r) = t.try_wait() {
                    break r;
                }
                assert!(
                    std::time::Instant::now() < give_up,
                    "ticket {} unanswered",
                    t.id()
                );
                std::thread::sleep(Duration::from_millis(1));
            })
            .collect();
        let health = server.shutdown();

        for (ticket, first) in tickets.iter().zip(&first) {
            assert!(
                matches!(first.outcome, Outcome::Failed(FailureCause::BatchHung)),
                "the watchdog took the batch first: {:?}",
                first.outcome
            );
            // Every sender is gone now; an empty channel reads as a
            // shutdown shed.
            let second = ticket.try_wait().expect("the channel is closed");
            assert!(
                matches!(second.outcome, Outcome::Shed(ShedReason::ShuttingDown)),
                "ticket {} answered twice: {:?}, then {:?}",
                ticket.id(),
                first.outcome,
                second.outcome
            );
        }
        assert_eq!(health.hung_batches, 1);
        assert_every_ticket_counted_once(&health);
    }

    /// Every session the server runs — at start and after each respawn,
    /// on either route — reads the buffers the frozen template holds:
    /// one physical model per server, breaker or not. A served model
    /// keeps its weights in one form: the f32 panels, or a TTQ model's
    /// 2-bit codes, with no master beside either; an open breaker runs
    /// the same sessions, so configuring one packs no f32 panels.
    #[test]
    fn every_respawn_shares_the_templates_storage() {
        let cfg = ServeConfig::builder([3, 6, 6])
            .max_batch(4)
            .workers(0)
            .breaker(BreakerPolicy::default())
            .build()
            .expect("test config is valid");
        for (net, ternary) in [
            (tiny_net as fn(u64) -> Network, false),
            (ternary_tiny_net, true),
        ] {
            let server = manual_server(cfg.clone(), net);
            let template = server.ctx.template.weight_storage();
            let mut worker = lock_unpoisoned(server.manual.as_ref().expect("workers(0)"));
            for respawn in 0..3 {
                if respawn > 0 {
                    worker.rebuild().expect("respawn succeeds");
                }
                for route in [Route::Primary, Route::Degraded] {
                    worker.session.run(&requests(1), route).expect("batch runs");
                }
                let live = worker.session.weight_storage();
                assert_eq!(live, template, "respawn {respawn} left the template");
                for layer in &live {
                    let lossless = layer.forms[1].is_some() || layer.forms[2].is_some();
                    assert!(lossless, "a session runs neither panels nor codes");
                    assert_eq!(layer.master, None, "a master beside {:?}", layer.forms);
                }
                if !ternary {
                    continue;
                }
                for layer in &live {
                    assert!(
                        layer.forms[2].is_some(),
                        "a ternary session runs without codes"
                    );
                    assert_eq!(
                        layer.forms.iter().flatten().count(),
                        1,
                        "a form beside the codes: {:?}",
                        layer.forms
                    );
                }
            }
            drop(worker);
            assert_every_ticket_counted_once(&server.shutdown());
        }
    }

    /// A weight fault in a worker's session copies that one layer: the
    /// template and a session stamped from it keep the original, so the
    /// stamped session computes the pristine bits, and a respawn brings
    /// the pristine session back.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_weight_fault_stays_in_its_session_and_dies_with_it() {
        let server = manual_server(batch4_cfg(), tiny_net);
        let template = server.ctx.template.weight_storage();
        let mut sibling = server
            .ctx
            .template
            .instantiate(&*server.clock)
            .expect("session stamps");
        let mut worker = lock_unpoisoned(server.manual.as_ref().expect("workers(0)"));
        let run = |session: &mut WorkerSession, n: usize| {
            let (outputs, _) = session
                .run(&requests(n), Route::Primary)
                .expect("batch runs");
            outputs
        };
        let pristine = [run(&mut worker.session, 1), run(&mut worker.session, 3)];

        // Flip the sign of the first conv weight in the worker's session.
        let flip = cnn_stack_nn::FaultPlan::new().bit_flip_weight(0, 0, 0, 31);
        worker.session.inject_faults(flip);
        let storage = worker.session.weight_storage();
        assert_ne!(storage[0].forms, template[0].forms);
        assert_eq!(storage[1], template[1], "the linear layer was not written");
        assert_eq!(
            sibling.weight_storage(),
            template,
            "the sibling was written"
        );
        for (n, want) in [1, 3].into_iter().zip(&pristine) {
            assert_ne!(
                &run(&mut worker.session, n),
                want,
                "the flip changes batch {n}"
            );
            assert_eq!(
                &run(&mut sibling, n),
                want,
                "the sibling's batch {n} changed"
            );
        }

        worker.rebuild().expect("respawn succeeds");
        assert_eq!(worker.session.weight_storage(), template);
        assert_eq!(run(&mut worker.session, 1), pristine[0]);
        assert_eq!(run(&mut worker.session, 3), pristine[1]);
        drop(worker);
        assert_every_ticket_counted_once(&server.shutdown());
    }
}
