//! OpenMP-style shared-memory parallelism.
//!
//! The paper parallelises "the outer for loop of the convolutional layers
//! ... using dynamic scheduling of threads" with a barrier at every layer
//! boundary (§IV-D). This crate reproduces that execution model:
//!
//! * [`parallel_for`] — a fork-join parallel loop over an index range with
//!   OpenMP's three classic schedules ([`Schedule::Static`],
//!   [`Schedule::Dynamic`], [`Schedule::Guided`]).
//! * [`spawn_worker`] — a named long-lived thread, for workers that own
//!   their loop (the serving layer's batch workers and monitor).
//! * [`RegionStats`] — per-region instrumentation (chunks dispatched, load
//!   imbalance) so the characterisation can quantify scheduling overheads,
//!   which the paper calls out as a first-class effect.
//!
//! # Example
//!
//! ```
//! use cnn_stack_parallel::{parallel_for, Schedule};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let sum = AtomicUsize::new(0);
//! parallel_for(4, 100, Schedule::Dynamic { chunk: 8 }, |range| {
//!     sum.fetch_add(range.len(), Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 100);
//! ```

pub mod panel;
pub mod schedule;
pub mod worker;

pub use panel::{parallel_tiles, DisjointWriter};
pub use schedule::{parallel_for, parallel_for_stats, RegionStats, Schedule};
pub use worker::{panic_message, spawn_worker};
