//! Cross-stack observability: metrics, spans, exporters.
//!
//! The paper's methodology is *measurement across stack layers* — every
//! conclusion in §V/§VI comes from instrumenting each layer (model,
//! format, algorithm, systems, hardware) and cross-comparing. This
//! crate gives the reproduction the same capability at runtime:
//!
//! * a **zero-alloc metrics registry** ([`MetricsRegistry`]): every
//!   instrument is pre-registered in the [`Metric`] enum, so the hot
//!   path is a single relaxed `fetch_add` into a fixed atomic slot —
//!   counters for the GEMM engine (calls, FLOPs, panels, kernel
//!   dispatch, bytes packed), the im2col lowering, the transform-domain
//!   convolutions and the guard ladder (scans, trips, demotions), plus
//!   gauges and log₂-bucketed histograms;
//! * a **span/event tracer** ([`Observer`], [`RingCollector`]): names
//!   interned at plan-build time, events recorded into a bounded
//!   lock-free ring as three relaxed stores;
//! * **exporters**: Chrome `trace_event` JSON ([`chrome_trace_json`],
//!   loads in `chrome://tracing`/Perfetto) and a deterministic text
//!   format ([`text_trace`]; stable ordering, no timestamps) built for
//!   golden-file testing;
//! * a **thread-local current observer** ([`install`], [`count`],
//!   [`with_current`]) so leaf crates record without threading a
//!   handle through every kernel signature. When nothing is installed
//!   anywhere, each instrument costs one relaxed atomic load.
//!
//! This crate is a dependency-free leaf: every other crate in the
//! workspace may depend on it.
//!
//! # Example
//!
//! ```
//! use cnn_stack_obs::{self as obs, Metric, Observer, ObsLevel};
//!
//! let observer = Observer::for_level(ObsLevel::Trace).unwrap();
//! let name = observer.intern("conv1 [span 1]");
//! {
//!     let _guard = obs::install(observer.clone());
//!     obs::count(Metric::GemmCalls, 1); // what a kernel would do
//!     observer.span(name, 0, 1_000, 0);
//! }
//! assert_eq!(observer.metrics().counter(Metric::GemmCalls), 1);
//! assert!(cnn_stack_obs::text_trace(&observer).contains("conv1"));
//! ```

pub mod export;
pub mod metrics;
pub mod trace;

pub use export::{chrome_trace_json, text_trace};
pub use metrics::{
    Histogram, HistogramSnapshot, Metric, MetricKind, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use trace::{
    count, current, enabled, gauge, install, observe, with_current, EventKind, NameId, ObsGuard,
    ObsLevel, Observer, RingCollector, TraceEvent,
};
