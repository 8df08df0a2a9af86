//! Error type for fallible `cnn-stack-nn` public APIs.
//!
//! The original API panicked on misuse (empty networks, out-of-range
//! layer indices, shape mismatches). Those invariants are now surfaced
//! as [`Error`] values from `Result`-returning constructors and
//! accessors, so callers embedding the stack (benchmark drivers, the
//! experiment runner) can report bad configurations instead of
//! aborting. Thin `expect`-based shims remain where tests and examples
//! want the old behaviour.

use crate::guard::GuardReport;
use crate::serialize::LoadParamsError;

/// Memory-planning failures (see [`crate::liveness`] and the budget
/// solver in [`crate::passes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// No combination of per-layer algorithm choices fits the requested
    /// peak-arena budget. `min_feasible_bytes` is the smallest budget
    /// that would have succeeded (the liveness-coloured peak with every
    /// layer on its smallest-workspace algorithm), so callers can
    /// retry with a workable envelope.
    BudgetInfeasible {
        /// The budget that was requested, in bytes.
        budget_bytes: usize,
        /// The smallest peak-arena budget any plan can meet, in bytes.
        min_feasible_bytes: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BudgetInfeasible {
                budget_bytes,
                min_feasible_bytes,
            } => write!(
                f,
                "memory budget of {budget_bytes} bytes is infeasible: the smallest-workspace plan still peaks at {min_feasible_bytes} bytes"
            ),
        }
    }
}

/// Errors produced by network construction, indexing, and execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// A network was constructed with no layers.
    EmptyNetwork,
    /// A layer index was out of range for the network.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of layers in the network.
        len: usize,
    },
    /// A tensor shape did not match what the operation required.
    ShapeMismatch {
        /// The shape the operation expected.
        expected: Vec<usize>,
        /// The shape it was given.
        actual: Vec<usize>,
    },
    /// A backward pass was requested before any forward pass cached
    /// its activations.
    NoForwardCached,
    /// A configuration value was rejected by a validating builder.
    InvalidConfig(String),
    /// Deserialising stored parameters failed.
    Load(LoadParamsError),
    /// A runtime guard tripped and no safer algorithm was available to
    /// demote to (see [`crate::GuardConfig`]).
    GuardTripped(GuardReport),
    /// A kernel panicked; the panic was contained but the step had no
    /// safer algorithm to demote to.
    KernelPanicked {
        /// Index of the panicking top-level layer.
        layer: usize,
        /// Its name, as recorded in the plan.
        name: String,
        /// The panic payload rendered as a string.
        message: String,
    },
    /// Memory planning failed (e.g. an infeasible peak-arena budget).
    Plan(PlanError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptyNetwork => write!(f, "a network needs at least one layer"),
            Error::IndexOutOfRange { index, len } => {
                write!(
                    f,
                    "layer index {index} out of range for network of {len} layers"
                )
            }
            Error::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected:?}, got {actual:?}")
            }
            Error::NoForwardCached => {
                write!(
                    f,
                    "no cached forward activations; run a training-phase forward first"
                )
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Load(e) => write!(f, "parameter load failed: {e}"),
            Error::GuardTripped(report) => write!(f, "{report}"),
            Error::KernelPanicked {
                layer,
                name,
                message,
            } => write!(
                f,
                "kernel panicked in layer {layer} ({name}): {message} (contained; no safer algorithm available)"
            ),
            Error::Plan(e) => write!(f, "memory planning failed: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<LoadParamsError> for Error {
    fn from(e: LoadParamsError) -> Self {
        Error::Load(e)
    }
}

impl From<PlanError> for Error {
    fn from(e: PlanError) -> Self {
        Error::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = Error::IndexOutOfRange { index: 7, len: 3 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));
        let e = Error::ShapeMismatch {
            expected: vec![1, 3, 32, 32],
            actual: vec![1, 1, 32, 32],
        };
        assert!(e.to_string().contains("[1, 3, 32, 32]"));
        assert_eq!(
            Error::EmptyNetwork.to_string(),
            "a network needs at least one layer"
        );
    }

    #[test]
    fn load_error_converts() {
        let e: Error = LoadParamsError::BadMagic.into();
        assert!(matches!(e, Error::Load(LoadParamsError::BadMagic)));
    }
}
