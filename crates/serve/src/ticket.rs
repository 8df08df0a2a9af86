//! Request/response handles: what a client holds while the server
//! works, and the typed outcome it eventually receives.

use cnn_stack_tensor::Tensor;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::Duration;

/// Why the server refused to run a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Admission control: the bounded request queue was full.
    QueueFull,
    /// The request's deadline had already passed when its batch was
    /// assembled, so running it could only waste capacity.
    DeadlineExpired,
    /// The server was shutting down.
    ShuttingDown,
}

/// A successfully served request.
#[derive(Clone, Debug)]
pub struct Served {
    /// The model output for this request (no batch dimension).
    pub output: Tensor,
    /// End-to-end latency: submit to response, on the server's clock.
    pub latency: Duration,
    /// How many requests shared the session run (before padding).
    pub batch_size: usize,
    /// The guard demoted an algorithm during this run (the co-batched
    /// outputs are still complete — the engine re-runs after demoting).
    pub demoted: bool,
    /// A guard tripped (and was recovered) during this run.
    pub guarded: bool,
    /// Served while the brownout breaker was open: the same session and
    /// plan, with guards off instead of the configured level.
    pub degraded: bool,
}

/// Why a request resolved to [`Outcome::Failed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// The engine gave up (guard exhausted its demotion ladder, or a
    /// kernel failure was not recoverable).
    Engine(String),
    /// The batch worker panicked with this request's batch in flight;
    /// the supervisor resolved the ticket on the dead worker's behalf.
    /// Carries the panic message.
    WorkerCrashed(String),
    /// The hung-batch watchdog deposed the worker after this request's
    /// batch exceeded its hang timeout.
    BatchHung,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Engine(msg) => write!(f, "engine failure: {msg}"),
            FailureCause::WorkerCrashed(msg) => {
                write!(f, "worker crashed mid-batch: {msg}")
            }
            FailureCause::BatchHung => {
                write!(f, "batch exceeded its hang timeout; worker recycled")
            }
        }
    }
}

/// The typed terminal state of a request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Ran to completion; the output is attached.
    Served(Served),
    /// Refused without running — never silently dropped.
    Shed(ShedReason),
    /// Ran (or was running) and could not complete; the cause says
    /// whether the engine, a crashed worker, or the hung-batch watchdog
    /// resolved it.
    Failed(FailureCause),
}

impl Outcome {
    /// `true` for [`Outcome::Served`].
    pub fn is_served(&self) -> bool {
        matches!(self, Outcome::Served(_))
    }

    /// The served payload, if any.
    pub fn served(&self) -> Option<&Served> {
        match self {
            Outcome::Served(s) => Some(s),
            _ => None,
        }
    }
}

/// The server's reply to one request.
#[derive(Clone, Debug)]
pub struct Response {
    /// The id [`crate::Server::submit`] returned with the ticket.
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// A queued request, internal to the server: the input a batch runs,
/// and the reply that resolves its ticket.
#[derive(Debug)]
pub struct Request {
    pub(crate) input: Tensor,
    pub(crate) reply: Reply,
}

/// What a ticket is owed: the one sender of its [`Response`] plus the
/// instants its outcome is judged by. It is moved, never cloned, from
/// the queue to the worker to the slot's in-flight record, and sending
/// consumes it, so whoever holds it is the only one who can answer.
#[derive(Debug)]
pub(crate) struct Reply {
    pub(crate) id: u64,
    /// Submission instant on the server clock.
    pub(crate) submitted_ns: u64,
    /// Absolute shed deadline on the server clock, if any.
    pub(crate) deadline_ns: Option<u64>,
    pub(crate) tx: Sender<Response>,
}

impl Reply {
    /// Answers the ticket; only `settle` calls this.
    pub(crate) fn send(self, outcome: Outcome) {
        // A dropped ticket just means nobody is listening; fine.
        let _ = self.tx.send(Response {
            id: self.id,
            outcome,
        });
    }
}

/// The client's handle to an in-flight request.
///
/// Every submitted request resolves to exactly one [`Response`] — shed
/// and failed requests included — so `wait` never hangs on a live
/// server.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<Response>,
}

impl Ticket {
    /// The request id (matches [`Response::id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. If the server was torn down
    /// with the request still queued, resolves to
    /// [`Outcome::Shed`]`(`[`ShedReason::ShuttingDown`]`)` rather than
    /// hanging.
    pub fn wait(self) -> Response {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Response {
                id: self.id,
                outcome: Outcome::Shed(ShedReason::ShuttingDown),
            },
        }
    }

    /// Non-blocking poll: `Some` once the response is in.
    pub fn try_wait(&self) -> Option<Response> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Response {
                id: self.id,
                outcome: Outcome::Shed(ShedReason::ShuttingDown),
            }),
        }
    }
}
