//! Multi-tenant CNN inference serving: a bounded request queue feeding
//! a dynamic batcher that coalesces concurrent requests into one
//! batched session run, under a self-healing supervision runtime.
//!
//! The paper's batching result (throughput grows with batch size until
//! cache pressure bites) only pays off in a *serving* context if
//! independent requests can actually share a batch. This crate is that
//! missing layer:
//!
//! ```text
//!   submit() ──try_send──▶ [bounded queue] ──▶ Batcher ──▶ worker session
//!      │   full? Shed(QueueFull)   │  max_batch / max_delay │  runs the n that came
//!      ▼                           ▼                        ▼
//!   Ticket ◀──────── Response {Served | Shed | Failed} ◀────┘
//!                                        ▲
//!          supervisor / watchdog / breaker keep this edge alive
//! ```
//!
//! * **Admission control** — the queue is a `sync_channel` of
//!   [`ServeConfig::queue_depth`] slots; a full queue sheds at submit
//!   time with [`ShedReason::QueueFull`] instead of queueing unbounded
//!   work.
//! * **Dynamic batching** — a worker takes one request, then holds the
//!   batch open up to [`BatchPolicy::max_delay`] (or until
//!   [`BatchPolicy::max_batch`]) so concurrent submitters share one
//!   forward pass. `max_batch == 1` never opens a window, so
//!   single-request serving pays no added latency.
//! * **Deadline shedding** — a request still queued past its deadline
//!   is shed ([`ShedReason::DeadlineExpired`]) when its batch is
//!   assembled, rather than burning batch capacity on an answer nobody
//!   is waiting for.
//! * **One physical model per server** — each worker owns one
//!   pre-warmed [`cnn_stack_nn::InferenceSession`], compiled at
//!   `max_batch` and run at the batch that arrived, and every session —
//!   each worker's, each respawn's — runs on a copy-on-write
//!   [`replica`](cnn_stack_nn::Network::replica) of the one network
//!   `build_net` returned: [`Server::start`] calls it exactly once, the
//!   master weights, their pruning masks and each prepacked form exist
//!   once, and a session count scales arenas, not weights. A write to
//!   one session's weights (a guard demotion never writes; an injected
//!   bit flip does) copies that one layer for that one session.
//! * **Typed outcomes** — every accepted [`Ticket`] resolves to exactly
//!   one [`Outcome`]; shutdown resolves stragglers to
//!   [`ShedReason::ShuttingDown`]. [`Ticket::wait`] never hangs.
//! * **Worker supervision** — a panicking worker's batch resolves as
//!   typed [`FailureCause::WorkerCrashed`] failures (never lost
//!   tickets); the worker respawns with a fresh session stamped from
//!   the template frozen at start-up — a replica and the plan compiled
//!   for it, so a respawn builds no model, compiles no plan
//!   and packs no weight — under capped exponential backoff
//!   ([`SupervisionPolicy`]).
//! * **Hung-batch watchdog** — a batch running past a configurable
//!   multiple of its expected latency (the line through the pre-warm
//!   runs at one request and at `max_batch`) gets its worker deposed:
//!   in-flight tickets resolve as [`FailureCause::BatchHung`] and a
//!   replacement takes over the queue.
//! * **Brownout circuit breaker** — optionally
//!   ([`ServeConfigBuilder::breaker`]), a sliding window over
//!   deadline-miss/failure rate drives Closed → Open → HalfOpen; while
//!   open, workers run the same sessions with guards off instead of
//!   shedding — brownout is a guard level, not a second plan, so a
//!   breaker costs no memory — then recover through a clean half-open
//!   probe window ([`BreakerPolicy`]).
//! * **Observability** — queue depth, wait, occupancy, latency, shed,
//!   crash/respawn/hang and breaker counters land in the `serve.*`
//!   instruments of [`cnn_stack_obs`]; [`Server::health`] aggregates
//!   per-worker [`WorkerHealth`] (including engine guard/demotion
//!   reports).
//!
//! # Example
//!
//! ```
//! use cnn_stack_serve::{Outcome, ServeConfig, Server};
//! use cnn_stack_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ServeConfig::builder([3, 32, 32]).max_batch(4).build()?;
//! let server = Server::start(cfg, || {
//!     cnn_stack_models::mobilenet_width(10, 0.25).network
//! })?;
//! let ticket = server.submit(Tensor::zeros(vec![3, 32, 32]))?;
//! match ticket.wait().outcome {
//!     Outcome::Served(s) => assert!(s.output.len() > 0),
//!     other => panic!("not served: {other:?}"),
//! }
//! let health = server.shutdown();
//! assert_eq!(health.served, 1);
//! # Ok(())
//! # }
//! ```
//!
//! Deterministic tests replace the wall clock with a [`ManualClock`]
//! and run the server in manual-pump mode (`workers(0)` +
//! [`Server::pump`], with [`Server::supervise`] driving the watchdog);
//! see `tests/serve_batching.rs` and `tests/serve_supervision.rs` at
//! the workspace root.

mod batcher;
mod breaker;
mod clock;
mod config;
mod error;
mod health;
mod loadgen;
mod pool;
mod server;
mod supervisor;
mod ticket;

pub use batcher::BatchPolicy;
pub use breaker::{BreakerPolicy, BreakerSnapshot, BreakerState};
pub use clock::{Clock, ManualClock, MonotonicClock, WaitError};
pub use config::{ServeConfig, ServeConfigBuilder};
pub use error::ServeError;
pub use health::{ServerHealth, WorkerHealth};
pub use loadgen::{run_open_loop, LoadReport, LoadSpec, RetryPolicy};
pub use server::Server;
pub use supervisor::SupervisionPolicy;
pub use ticket::{FailureCause, Outcome, Response, Served, ShedReason, Ticket};
