//! Deterministic self-healing tests: worker-panic supervision, the
//! hung-batch watchdog, crash-loop backoff, and the brownout circuit
//! breaker — all driven single-threaded through a [`ManualClock`] and a
//! manually-pumped server (`workers == 0`), with faults injected
//! through the serve-level fault plan, so every recovery decision is a
//! function of simulated time.
//!
//! The fault-driven scenarios need `--features fault-inject`; the
//! health-semantics tests at the bottom run under any feature set.

use cnn_stack::nn::{Conv2d, Flatten, Linear, ReLU};
use cnn_stack::prelude::*;
use cnn_stack::serve::ManualClock;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::assert_every_ticket_counted_once;

const SHAPE: [usize; 3] = [3, 8, 8];
const MAX_DELAY: Duration = Duration::from_millis(5);

/// A small conv net. The server builds it once; every session it runs,
/// post-crash respawns included, is a replica of that one network.
fn small_net(seed: u64) -> Network {
    Network::new(vec![
        Box::new(Conv2d::new(3, 6, 3, 1, 1, seed)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(6 * 8 * 8, 10, seed + 1)),
    ])
    .expect("stack is non-empty")
}

/// Request `i`'s input: distinct per request so outputs are too.
fn request_input(i: usize) -> Tensor {
    Tensor::from_fn(SHAPE, move |e| {
        (((e as u64 + 31 * i as u64) * 2654435761) % 211) as f32 * 0.01 - 1.0
    })
}

/// Supervision knobs sized for simulated time: a 50ms hang floor and a
/// 10ms→20ms capped crash backoff, so tests advance the clock in small,
/// explicit steps.
fn test_supervision() -> SupervisionPolicy {
    SupervisionPolicy {
        hang_multiplier: 8.0,
        hang_floor: Duration::from_millis(50),
        monitor_interval: Duration::from_millis(5),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(20),
    }
}

fn supervised_server(max_batch: usize, clock: &ManualClock) -> Server {
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(max_batch)
        .max_delay(MAX_DELAY)
        .workers(0)
        .observer(ObsLevel::Off)
        .supervision(test_supervision())
        .build()
        .expect("test config is valid");
    Server::start_with_clock(cfg, Arc::new(clock.clone()), || small_net(7))
        .expect("small net compiles and serves")
}

fn served(ticket: Ticket) -> Served {
    match ticket.wait().outcome {
        Outcome::Served(s) => s,
        other => panic!("expected Served, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Worker supervision: panics become typed failures, then a respawn.

/// An injected worker crash mid-batch must resolve every co-batched
/// ticket as a typed `WorkerCrashed` failure (never a lost ticket),
/// hold the worker down for its backoff, and then respawn it with a
/// fresh ladder that serves subsequent traffic.
#[cfg(feature = "fault-inject")]
#[test]
fn worker_crash_fails_tickets_typed_then_respawn_serves() {
    use cnn_stack::nn::FaultPlan;

    let clock = ManualClock::new();
    let server = supervised_server(4, &clock);
    server.inject_serve_faults(FaultPlan::new().crash_serve_batch(0));

    let doomed: Vec<Ticket> = (0..3)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump(), "the crashed batch still counts as work");
    for ticket in doomed {
        match ticket.wait().outcome {
            Outcome::Failed(FailureCause::WorkerCrashed(msg)) => {
                assert!(
                    msg.contains("fault-inject"),
                    "the panic message must reach the client: {msg}"
                );
            }
            other => panic!("expected WorkerCrashed, got {other:?}"),
        }
    }

    // The worker is inside its respawn backoff: new traffic queues but
    // nothing runs until the backoff expires on the server clock.
    let survivors: Vec<Ticket> = (3..6)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(!server.pump(), "no cycles while the backoff is pending");
    clock.advance(test_supervision().backoff_base);
    assert!(server.pump(), "backoff expired: respawn and serve");
    for ticket in survivors {
        let s = served(ticket);
        assert_eq!(s.batch_size, 3);
        assert!(s.output.data().iter().all(|v| v.is_finite()));
    }

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert_eq!(health.served, 3);
    assert_eq!(health.failed, 3);
    assert_eq!(health.respawns, 1);
    assert_eq!(health.workers[0].crashes, 1);
    assert!(!health.is_clean(), "a crash must dirty the health report");
}

// ---------------------------------------------------------------------
// Hung-batch watchdog.

/// A wedged batch is invisible until its hang timeout, then one
/// watchdog sweep deposes the worker, resolves the whole batch as
/// typed `BatchHung` failures, and recycles the worker so the queue
/// keeps moving.
#[cfg(feature = "fault-inject")]
#[test]
fn watchdog_recycles_hung_worker_and_fails_its_batch() {
    use cnn_stack::nn::FaultPlan;

    let clock = ManualClock::new();
    let server = supervised_server(4, &clock);
    server.inject_serve_faults(FaultPlan::new().hang_serve_batch(0));

    let hung: Vec<Ticket> = (0..2)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump(), "the worker wedges inside this cycle");
    assert!(!server.pump(), "a wedged worker runs no further batches");

    // Before the hang timeout the watchdog must not touch the batch —
    // slow is not hung.
    assert_eq!(server.supervise(), 0);
    assert!(hung.iter().all(|t| t.try_wait().is_none()));

    // Past the timeout (hang floor, since ManualClock pre-warm measures
    // zero expected latency) one sweep fails over the worker.
    clock.advance(test_supervision().hang_floor + Duration::from_millis(1));
    assert_eq!(server.supervise(), 1, "exactly one worker failed over");
    for ticket in hung {
        match ticket.wait().outcome {
            Outcome::Failed(FailureCause::BatchHung) => {}
            other => panic!("expected BatchHung, got {other:?}"),
        }
    }

    // The recycled worker (same slot, new generation) serves new work.
    let after: Vec<Ticket> = (2..4)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());
    for ticket in after {
        assert_eq!(served(ticket).batch_size, 2);
    }

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert_eq!(health.served, 2);
    assert_eq!(health.failed, 2);
    assert_eq!(health.hung_batches, 1);
    assert_eq!(health.respawns, 1);
    assert!(!health.is_clean());
}

/// Shutting down with a batch still wedged in flight must resolve those
/// tickets (typed, as `BatchHung`) — no ticket is ever lost, even
/// through the shutdown path.
#[cfg(feature = "fault-inject")]
#[test]
fn shutdown_resolves_wedged_batch_instead_of_losing_it() {
    use cnn_stack::nn::FaultPlan;

    let clock = ManualClock::new();
    let server = supervised_server(4, &clock);
    server.inject_serve_faults(FaultPlan::new().hang_serve_batch(0));

    let hung: Vec<Ticket> = (0..2)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    for ticket in hung {
        match ticket.wait().outcome {
            Outcome::Failed(FailureCause::BatchHung) => {}
            other => panic!("expected BatchHung at shutdown, got {other:?}"),
        }
    }
    assert_eq!(health.failed, 2);
    assert_eq!(health.served, 0);
}

// ---------------------------------------------------------------------
// Crash-loop backoff.

/// Consecutive crashes double the respawn backoff up to the cap, and a
/// cleanly served batch resets the streak — the supervisor converges to
/// a bounded respawn rate instead of hot-looping a crashing worker.
#[cfg(feature = "fault-inject")]
#[test]
fn crash_loop_backoff_doubles_then_caps() {
    use cnn_stack::nn::FaultPlan;

    let clock = ManualClock::new();
    // max_batch 1: every submit is a full batch, so no max-delay waits
    // muddy the backoff arithmetic.
    let server = supervised_server(1, &clock);
    server.inject_serve_faults(
        FaultPlan::new()
            .crash_serve_batch(0)
            .crash_serve_batch(1)
            .crash_serve_batch(2),
    );

    // Crash 1 at t=0: streak 1, backoff = base (10ms).
    let a = server.submit(request_input(0)).unwrap();
    assert!(server.pump());
    assert!(matches!(
        a.wait().outcome,
        Outcome::Failed(FailureCause::WorkerCrashed(_))
    ));
    let b = server.submit(request_input(1)).unwrap();
    assert!(!server.pump(), "down for 10ms after the first crash");
    clock.advance(Duration::from_millis(10));

    // Crash 2 at t=10ms: streak 2, backoff doubles to 20ms.
    assert!(server.pump(), "respawned worker runs (and crashes) again");
    assert!(matches!(
        b.wait().outcome,
        Outcome::Failed(FailureCause::WorkerCrashed(_))
    ));
    let c = server.submit(request_input(2)).unwrap();
    clock.advance(Duration::from_millis(10));
    assert!(
        !server.pump(),
        "10ms after the second crash the doubled backoff still holds"
    );
    clock.advance(Duration::from_millis(10));

    // Crash 3 at t=30ms: streak 3 would want 40ms but the cap is 20ms.
    assert!(server.pump());
    assert!(matches!(
        c.wait().outcome,
        Outcome::Failed(FailureCause::WorkerCrashed(_))
    ));
    let d = server.submit(request_input(3)).unwrap();
    clock.advance(Duration::from_millis(10));
    assert!(!server.pump());
    clock.advance(Duration::from_millis(10));
    // t=50ms: an uncapped schedule would hold the worker down to 70ms.
    assert!(server.pump(), "the capped backoff ends at 20ms, not 40ms");
    let s = served(d);
    assert_eq!(s.batch_size, 1);

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert_eq!(health.workers[0].crashes, 3);
    assert_eq!(health.respawns, 3);
    assert_eq!(health.failed, 3);
    assert_eq!(health.served, 1);
}

// ---------------------------------------------------------------------
// Brownout circuit breaker.

/// The full brownout arc on a `BoundaryCheck` server: a burst of
/// deadline misses trips the breaker, traffic runs the same sessions
/// with guards off (served, not shed, flagged `degraded`, and bit for
/// bit what the guarded run computed), the cooldown elapses, a clean
/// half-open probe window closes the breaker — and the guard is back: a
/// non-finite input fails typed instead of being served.
#[cfg(feature = "fault-inject")]
#[test]
fn breaker_trips_to_degraded_ladder_then_recovers_through_probe() {
    use cnn_stack::nn::FaultPlan;
    use cnn_stack::serve::BreakerState;

    let clock = ManualClock::new();
    let breaker = BreakerPolicy {
        window: 8,
        min_samples: 4,
        trip_miss_rate: 0.5,
        cooldown: Duration::from_millis(100),
        probe_requests: 2,
    };
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(4)
        .max_delay(MAX_DELAY)
        .workers(0)
        .observer(ObsLevel::Off)
        .supervision(test_supervision())
        .guard(GuardConfig::BoundaryCheck)
        .breaker(breaker)
        .build()
        .expect("breaker config is valid");
    let server = Server::start_with_clock(cfg, Arc::new(clock.clone()), || small_net(7))
        .expect("small net compiles and serves");

    // Phase 1 — trip: a slow batch blows every deadline in it. Four
    // misses reach min_samples at a 100% miss rate.
    server.inject_serve_faults(FaultPlan::new().slow_serve_batch(0, 2_000_000));
    let slow: Vec<Ticket> = (0..4)
        .map(|i| {
            server
                .submit_with_deadline(request_input(i), Duration::from_millis(1))
                .unwrap()
        })
        .collect();
    assert!(server.pump());
    let guarded: Vec<Tensor> = slow
        .into_iter()
        .map(|ticket| {
            let s = served(ticket);
            assert!(s.latency > Duration::from_millis(1), "the batch was slowed");
            assert!(
                !s.degraded,
                "the tripping batch itself ran under the configured guard"
            );
            s.output
        })
        .collect();
    let health = server.health();
    assert_eq!(health.breaker_trips, 1);
    assert_eq!(
        health.breaker.expect("breaker configured").state,
        BreakerState::Open
    );

    // Phase 2 — brownout: while open, the same inputs run with guards
    // off instead of being shed, say so, and compute the same bits.
    let browned: Vec<Ticket> = (0..4)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());
    for (ticket, want) in browned.into_iter().zip(&guarded) {
        let s = served(ticket);
        assert!(s.degraded, "an open breaker must serve with guards off");
        assert_eq!(
            &s.output, want,
            "browned-out output differs from the guarded one"
        );
    }
    assert_eq!(server.health().degraded_batches, 1);

    // Phase 3 — recovery: after the cooldown the breaker half-opens,
    // probes run under the configured guard, and a clean probe window
    // closes it.
    clock.advance(breaker.cooldown);
    let probes: Vec<Ticket> = (6..8)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());
    for ticket in probes {
        assert!(
            !served(ticket).degraded,
            "probes run under the configured guard"
        );
    }
    let health = server.health();
    assert_eq!(
        health.breaker.expect("breaker configured").state,
        BreakerState::Closed
    );
    assert_eq!(health.breaker_trips, 1, "recovery must not re-trip");
    assert_eq!(health.served, 10);
    assert!(
        health.is_clean(),
        "a brownout lowers the guard level but is not a fault"
    );

    // Phase 4 — the configured guard is back on the rung that ran the
    // brownout: a batch holding a non-finite input trips it and fails
    // typed rather than being served. (An infinity, not a NaN: the
    // fused ReLU maps NaN to 0 before the first boundary check of this
    // net.) Last, since the misses feed the breaker.
    let inf = Tensor::from_fn(SHAPE, |e| if e == 0 { f32::INFINITY } else { 0.5 });
    let tickets = [inf, request_input(8)].map(|x| server.submit(x).unwrap());
    assert!(server.pump());
    for ticket in tickets {
        match ticket.wait().outcome {
            Outcome::Failed(FailureCause::Engine(msg)) => {
                assert!(msg.contains("guard"), "not a guard trip: {msg}")
            }
            other => panic!("a non-finite input must fail the restored guard, got {other:?}"),
        }
    }
    let health = server.shutdown();
    assert_every_ticket_counted_once(&health);
    assert_eq!(health.failed, 2);
    assert!(health.workers[0].engine.guards_tripped >= 1);
}

// ---------------------------------------------------------------------
// One model per server.

/// `build_net` runs exactly once in a server's life — the ladder of a
/// breaker-equipped server at start-up, and (with `fault-inject`) a
/// crash respawn and a watchdog failover, are replicas of the network
/// it returned — and a respawned worker computes, bit for bit, what the
/// first one did.
#[test]
fn build_net_runs_once_for_the_servers_whole_life() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let clock = ManualClock::new();
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(4)
        .max_delay(MAX_DELAY)
        .workers(0)
        .observer(ObsLevel::Off)
        .supervision(test_supervision())
        .breaker(BreakerPolicy::default())
        .build()
        .expect("test config is valid");
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    let server = Server::start_with_clock(cfg, Arc::new(clock.clone()), move || {
        counter.fetch_add(1, Ordering::Relaxed);
        small_net(7)
    })
    .expect("small net compiles and serves");

    // One batch of two (the batch-4 rung) and, after it, one single
    // (the batch-1 rung).
    let round = |server: &Server| -> Vec<Tensor> {
        let pair: Vec<Ticket> = (0..2)
            .map(|i| server.submit(request_input(i)).unwrap())
            .collect();
        assert!(server.pump());
        let single = server.submit(request_input(2)).unwrap();
        assert!(server.pump());
        let served = pair.into_iter().chain([single]).map(served);
        served.map(|s| s.output).collect()
    };
    let pristine = round(&server);
    assert_eq!(builds.load(Ordering::Relaxed), 1);

    #[cfg(feature = "fault-inject")]
    {
        use cnn_stack::nn::FaultPlan;

        // Batches 0 and 1 ran above: crash the next, hang the one after
        // the respawn.
        server.inject_serve_faults(FaultPlan::new().crash_serve_batch(2).hang_serve_batch(3));
        let doomed = server.submit(request_input(0)).unwrap();
        assert!(server.pump());
        assert!(matches!(
            doomed.wait().outcome,
            Outcome::Failed(FailureCause::WorkerCrashed(_))
        ));
        clock.advance(test_supervision().backoff_base);
        let hung = server.submit(request_input(0)).unwrap();
        assert!(server.pump(), "respawn, then wedge");
        clock.advance(test_supervision().hang_floor + Duration::from_millis(1));
        assert_eq!(server.supervise(), 1);
        assert!(matches!(
            hung.wait().outcome,
            Outcome::Failed(FailureCause::BatchHung)
        ));
        assert_eq!(server.health().respawns, 2);
    }

    assert_eq!(round(&server), pristine, "a respawn changed the model");
    let health = server.shutdown();
    assert_eq!(health.served, 6);
    assert_every_ticket_counted_once(&health);
    assert_eq!(builds.load(Ordering::Relaxed), 1);
}

// ---------------------------------------------------------------------
// Health semantics (no fault injection required).

/// Queue-full sheds are load conditions, not faults: they leave
/// `is_clean` true but make the server not `is_quiet`.
#[test]
fn sheds_keep_health_clean_but_not_quiet() {
    let clock = ManualClock::new();
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(1)
        .queue_depth(1)
        .workers(0)
        .observer(ObsLevel::Off)
        .build()
        .expect("test config is valid");
    let server = Server::start_with_clock(cfg, Arc::new(clock.clone()), || small_net(7))
        .expect("small net compiles and serves");

    // One slot in the queue: the first request is admitted, the next
    // two shed at submit time.
    let admitted = server.submit(request_input(0)).unwrap();
    let shed: Vec<Ticket> = (1..3)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    for ticket in shed {
        match ticket.wait().outcome {
            Outcome::Shed(ShedReason::QueueFull) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    assert!(server.pump());
    let _ = served(admitted);

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert_eq!(health.shed_queue_full, 2);
    assert!(health.is_clean(), "sheds are not faults");
    assert!(!health.is_quiet(), "but a shedding server is not quiet");
}

/// A server that served everything without incident is both clean and
/// quiet, with every supervision counter at zero.
#[test]
fn unfaulted_server_is_clean_and_quiet() {
    let clock = ManualClock::new();
    let server = supervised_server(4, &clock);
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());
    for ticket in tickets {
        let s = served(ticket);
        assert!(
            !s.degraded,
            "no breaker configured: never served with guards off"
        );
    }
    assert_eq!(server.supervise(), 0, "nothing to fail over");

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert!(health.is_clean());
    assert!(health.is_quiet());
    assert_eq!(health.respawns, 0);
    assert_eq!(health.hung_batches, 0);
    assert_eq!(health.breaker_trips, 0);
    assert_eq!(health.degraded_batches, 0);
    assert!(health.breaker.is_none(), "no breaker was configured");
}
