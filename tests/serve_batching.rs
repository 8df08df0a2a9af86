//! Deterministic serving-layer tests: max-delay batching, deadline and
//! queue-full shedding, and co-batch integrity under guard demotion —
//! all driven single-threaded through a [`ManualClock`] and a
//! manually-pumped server (`workers == 0`), so every assertion is about
//! simulated time, not scheduler luck.

use cnn_stack::nn::{Conv2d, Flatten, Linear, ReLU};
use cnn_stack::prelude::*;
use cnn_stack::serve::{Clock, ManualClock};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::assert_every_ticket_counted_once;

const SHAPE: [usize; 3] = [3, 8, 8];
const MAX_DELAY: Duration = Duration::from_millis(5);

/// A small conv net; deterministic for a given seed, so every session
/// replica the server builds is identical.
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

fn manual_server(max_batch: usize, clock: &ManualClock) -> Server {
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(max_batch)
        .max_delay(MAX_DELAY)
        .workers(0)
        .observer(ObsLevel::Off)
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

/// Reference output for request `i`, computed through a plain batch-1
/// engine session with the serving exec path. The serve plan compiler
/// honours the im2col override at every ladder rung and the packed GEMM
/// is bit-exact across batch sizes, so served outputs must match this
/// *bit for bit* regardless of how requests were co-batched.
fn reference_logits(i: usize) -> Tensor {
    let cfg = ServeConfig::builder(SHAPE)
        .workers(0)
        .observer(ObsLevel::Off)
        .build()
        .unwrap();
    let clock = ManualClock::new();
    let server = Server::start_with_clock(cfg, Arc::new(clock), || small_net(7)).unwrap();
    let ticket = server.submit(request_input(i)).unwrap();
    while !server.pump() {}
    served(ticket).output
}

/// An under-full batch is held open for exactly `max_delay` of clock
/// time — visible on the manual clock, which only advances when the
/// batcher waits out its window — and everything queued inside the
/// window is served together.
#[test]
fn max_delay_holds_batch_open_for_stragglers() {
    let clock = ManualClock::new();
    let server = manual_server(4, &clock);
    let t0 = Duration::from_nanos(0);
    assert_eq!(clock.now_ns(), t0.as_nanos() as u64);

    let tickets: Vec<Ticket> = (0..3)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump(), "a queued batch must be processed");

    // The batch opened at t=0 with 3 < max_batch requests, so the
    // batcher waited out the whole max-delay window before running.
    assert_eq!(clock.now_ns(), MAX_DELAY.as_nanos() as u64);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let s = served(ticket);
        assert_eq!(s.batch_size, 3, "all three must share one batch");
        assert_eq!(
            s.output.data(),
            reference_logits(i).data(),
            "co-batched output differs from the batch-1 reference"
        );
    }
    let health = server.shutdown();
    assert_eq!(health.served, 3);
    assert_every_ticket_counted_once(&health);
}

/// A full batch flushes immediately: no max-delay wait appears on the
/// clock.
#[test]
fn full_batch_flushes_without_waiting() {
    let clock = ManualClock::new();
    let server = manual_server(4, &clock);
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());
    assert_eq!(
        clock.now_ns(),
        0,
        "a full batch must not wait out the delay window"
    );
    for ticket in tickets {
        assert_eq!(served(ticket).batch_size, 4);
    }
    assert_every_ticket_counted_once(&server.shutdown());
}

/// `max_batch == 1` never opens a delay window, so batch-size-1 serving
/// pays no added latency.
#[test]
fn batch_size_one_never_delays() {
    let clock = ManualClock::new();
    let server = manual_server(1, &clock);
    let a = server.submit(request_input(0)).unwrap();
    let b = server.submit(request_input(1)).unwrap();
    assert!(server.pump());
    assert!(server.pump());
    assert_eq!(clock.now_ns(), 0, "no delay window may open at max_batch 1");
    assert_eq!(served(a).batch_size, 1);
    assert_eq!(served(b).batch_size, 1);
    assert_every_ticket_counted_once(&server.shutdown());
}

/// A request whose deadline passed while it sat in the queue is shed
/// with a typed outcome at batch-assembly time; requests with slack in
/// the same batch are still served.
#[test]
fn expired_deadline_sheds_without_starving_the_batch() {
    let clock = ManualClock::new();
    let server = manual_server(4, &clock);
    let tight = server
        .submit_with_deadline(request_input(0), Duration::from_millis(1))
        .unwrap();
    let lax = server
        .submit_with_deadline(request_input(1), Duration::from_secs(60))
        .unwrap();
    // Time passes in the queue: more than `tight`'s budget.
    clock.advance(Duration::from_millis(2));
    assert!(server.pump());

    match tight.wait().outcome {
        Outcome::Shed(ShedReason::DeadlineExpired) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let s = served(lax);
    assert_eq!(
        s.batch_size, 1,
        "the shed request must not occupy the batch"
    );

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert_eq!(health.shed_deadline, 1);
    assert_eq!(health.served, 1);
}

/// Admission control: once the bounded queue is full, submissions
/// resolve immediately to a typed `Shed(QueueFull)` — no hang, no
/// panic — and queued work is unaffected.
#[test]
fn full_queue_sheds_at_admission() {
    let clock = ManualClock::new();
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(4)
        .queue_depth(4)
        .max_delay(MAX_DELAY)
        .workers(0)
        .observer(ObsLevel::Off)
        .build()
        .unwrap();
    let server = Server::start_with_clock(cfg, Arc::new(clock.clone()), || small_net(7)).unwrap();

    let queued: Vec<Ticket> = (0..4)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    let rejected = server.submit(request_input(4)).unwrap();
    match rejected.wait().outcome {
        Outcome::Shed(ShedReason::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }

    assert!(server.pump());
    for ticket in queued {
        assert_eq!(served(ticket).batch_size, 4);
    }
    let health = server.shutdown();
    assert_every_ticket_counted_once(&health);
    assert_eq!(health.shed_queue_full, 1);
    assert_eq!(health.served, 4);
}

/// A mis-shaped input is a caller error, not load shedding.
#[test]
fn shape_mismatch_is_an_error_not_a_shed() {
    let clock = ManualClock::new();
    let server = manual_server(4, &clock);
    let err = server.submit(Tensor::zeros(vec![1, 3, 8, 8])).unwrap_err();
    assert!(err.to_string().contains("does not match"));
    assert_every_ticket_counted_once(&server.shutdown());
}

/// Shutdown drains the queue — buffered requests are served, not
/// dropped — and the final health snapshot accounts for every ticket.
#[test]
fn shutdown_drains_buffered_requests() {
    let clock = ManualClock::new();
    let server = manual_server(4, &clock);
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    let health = server.shutdown();
    assert_every_ticket_counted_once(&health);
    assert_eq!(health.served, 3);
    assert_eq!(health.submitted, 3);
    for ticket in tickets {
        let _ = served(ticket);
    }
}

/// The co-batch integrity proof (fault-inject harness): a guard trip
/// and demotion triggered by one batch's execution must leave every
/// co-batched request served with clean, finite outputs — a demotion is
/// a per-step algorithm change plus a retry, never partial output.
#[cfg(feature = "fault-inject")]
#[test]
fn guard_demotion_never_corrupts_co_batched_requests() {
    use cnn_stack::nn::FaultPlan;

    let clock = ManualClock::new();
    let cfg = ServeConfig::builder(SHAPE)
        .max_batch(4)
        .max_delay(MAX_DELAY)
        .workers(0)
        .guard(GuardConfig::BoundaryCheck)
        .observer(ObsLevel::Off)
        .build()
        .unwrap();
    let server = Server::start_with_clock(cfg, Arc::new(clock.clone()), || small_net(7)).unwrap();
    // Corrupt the conv output (layer 0) on each session's next run (the
    // pre-warm run at build time was run 0).
    server.inject_faults(|| FaultPlan::new().nan_output(0, 1));

    let tickets: Vec<Ticket> = (0..3)
        .map(|i| server.submit(request_input(i)).unwrap())
        .collect();
    assert!(server.pump());

    let outcomes: Vec<Served> = tickets.into_iter().map(served).collect();
    for (i, s) in outcomes.iter().enumerate() {
        assert_eq!(s.batch_size, 3);
        assert!(s.demoted, "the guard trip must surface as a demotion");
        assert!(
            s.output.data().iter().all(|v| v.is_finite()),
            "request {i}: injected NaN leaked into a served output"
        );
        // The demoted step re-ran with the safer (blocked) GEMM, whose
        // accumulation order differs from the packed reference, so
        // compare numerically rather than bit-for-bit.
        let reference = reference_logits(i);
        for (a, b) in s.output.data().iter().zip(reference.data()) {
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                "request {i}: co-batched output diverged from clean reference ({a} vs {b})"
            );
        }
    }

    let health = server.shutdown();

    assert_every_ticket_counted_once(&health);
    assert_eq!(health.served, 3);
    assert!(health.total_demotions() >= 1);
    assert!(health.workers.iter().any(|w| w.engine.guards_tripped >= 1));
}
