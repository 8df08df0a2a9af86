//! Zero-alloc-in-steady-state metrics registry.
//!
//! Every instrument the stack can emit is pre-registered in the
//! [`Metric`] enum, so the registry is a fixed block of atomics sized at
//! compile time: recording a sample is one `fetch_add` (plus one more
//! for the histogram sum), never an allocation or a lock. Snapshots
//! ([`MetricsRegistry::snapshot`]) allocate, but only on the cold
//! reporting path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The shape of an instrument: monotonic counter, point-in-time gauge,
/// or log₂-bucketed histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-written `i64` level.
    Gauge,
    /// Power-of-two bucketed distribution of `u64` samples.
    Histogram,
}

macro_rules! metrics {
    ($( $variant:ident => ($name:literal, $kind:ident) ),+ $(,)?) => {
        /// Every named instrument in the stack, pre-registered so the
        /// hot path indexes a fixed atomic slot by enum discriminant.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        impl Metric {
            /// All instruments, in declaration (= snapshot) order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant),+];

            /// The instrument's dotted wire name, e.g. `gemm.flops`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name),+
                }
            }

            /// The instrument's shape.
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind),+
                }
            }
        }
    };
}

metrics! {
    // GEMM engine (tensor::gemm): one record per packed-GEMM call.
    GemmCalls => ("gemm.calls", Counter),
    GemmFlops => ("gemm.flops", Counter),
    GemmPanels => ("gemm.panels", Counter),
    GemmKernelAvx2 => ("gemm.kernel.avx2", Counter),
    GemmKernelAvx512 => ("gemm.kernel.avx512", Counter),
    GemmKernelScalar => ("gemm.kernel.scalar", Counter),
    GemmKernelTernary => ("gemm.kernel.ternary", Counter),
    GemmBytesPacked => ("gemm.bytes_packed", Counter),
    // im2col lowering (tensor::im2col), incl. the fused im2col→pack path.
    Im2colCalls => ("im2col.calls", Counter),
    Im2colBytesLowered => ("im2col.bytes_lowered", Counter),
    // Transform-domain convolution kernels (tensor::winograd).
    WinogradTiles => ("conv.winograd.tiles", Counter),
    // Guarded execution (nn::engine + nn::guard).
    GuardScans => ("guard.scans", Counter),
    GuardTrips => ("guard.trips", Counter),
    GuardDemotions => ("guard.demotions", Counter),
    // Session engine.
    StepsExecuted => ("engine.steps_executed", Counter),
    RunsCompleted => ("engine.runs_completed", Counter),
    ArenaBytes => ("engine.arena_bytes", Gauge),
    PlanPeakBytes => ("plan.peak_bytes", Gauge),
    ArenaReuseBytes => ("engine.arena_reuse_bytes", Gauge),
    StepNs => ("engine.step_ns", Histogram),
    // Serving layer (serve::Server): admission, batching, shedding.
    ServeSubmitted => ("serve.submitted", Counter),
    ServeServed => ("serve.served", Counter),
    ServeShedQueueFull => ("serve.shed_queue_full", Counter),
    ServeShedDeadline => ("serve.shed_deadline", Counter),
    ServeFailed => ("serve.failed", Counter),
    ServeBatches => ("serve.batches", Counter),
    ServeQueueDepth => ("serve.queue_depth", Gauge),
    ServeBatchOccupancy => ("serve.batch_occupancy", Histogram),
    ServeQueueWaitNs => ("serve.queue_wait_ns", Histogram),
    ServeLatencyNs => ("serve.latency_ns", Histogram),
    // Serving supervisor (serve::supervisor): worker self-healing.
    ServeWorkerCrashes => ("serve.supervisor.crashes", Counter),
    ServeRespawns => ("serve.supervisor.respawns", Counter),
    ServeHungBatches => ("serve.supervisor.hung_batches", Counter),
    // Brownout circuit breaker (serve::breaker). State gauge encodes
    // 0 = closed, 1 = half-open, 2 = open.
    ServeBreakerTrips => ("serve.breaker.trips", Counter),
    ServeBreakerState => ("serve.breaker.state", Gauge),
    ServeDegradedBatches => ("serve.breaker.degraded_batches", Counter),
}

/// Number of log₂ buckets per histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros), so 64 buckets cover the
/// whole `u64` range with no configuration.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// One log₂-bucketed histogram: fixed buckets, atomics only.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket for `v`: 0 for 0, else `floor(log2 v) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v).min(HISTOGRAM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// The fixed block of instruments. One registry lives in each
/// [`Observer`](crate::Observer); nothing about it allocates after
/// construction.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicI64>,
    histograms: Vec<Histogram>,
    // Metric discriminant -> slot in its kind's array.
    slots: [usize; Metric::ALL.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Builds the registry with every [`Metric`] registered and zeroed.
    pub fn new() -> Self {
        let mut slots = [0usize; Metric::ALL.len()];
        let (mut nc, mut ng, mut nh) = (0, 0, 0);
        for &m in Metric::ALL {
            let slot = match m.kind() {
                MetricKind::Counter => &mut nc,
                MetricKind::Gauge => &mut ng,
                MetricKind::Histogram => &mut nh,
            };
            slots[m as usize] = *slot;
            *slot += 1;
        }
        MetricsRegistry {
            counters: (0..nc).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..ng).map(|_| AtomicI64::new(0)).collect(),
            histograms: (0..nh).map(|_| Histogram::default()).collect(),
            slots,
        }
    }

    /// Adds `n` to a counter. Debug-asserts the instrument is a counter.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        debug_assert_eq!(
            m.kind(),
            MetricKind::Counter,
            "{} is not a counter",
            m.name()
        );
        self.counters[self.slots[m as usize]].fetch_add(n, Ordering::Relaxed);
    }

    /// Sets a gauge to `v`. Debug-asserts the instrument is a gauge.
    #[inline]
    pub fn set(&self, m: Metric, v: i64) {
        debug_assert_eq!(m.kind(), MetricKind::Gauge, "{} is not a gauge", m.name());
        self.gauges[self.slots[m as usize]].store(v, Ordering::Relaxed);
    }

    /// Records one histogram sample. Debug-asserts the instrument is a
    /// histogram.
    #[inline]
    pub fn observe(&self, m: Metric, v: u64) {
        debug_assert_eq!(
            m.kind(),
            MetricKind::Histogram,
            "{} is not a histogram",
            m.name()
        );
        self.histograms[self.slots[m as usize]].observe(v);
    }

    /// Current value of a counter.
    pub fn counter(&self, m: Metric) -> u64 {
        assert_eq!(
            m.kind(),
            MetricKind::Counter,
            "{} is not a counter",
            m.name()
        );
        self.counters[self.slots[m as usize]].load(Ordering::Relaxed)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, m: Metric) -> i64 {
        assert_eq!(m.kind(), MetricKind::Gauge, "{} is not a gauge", m.name());
        self.gauges[self.slots[m as usize]].load(Ordering::Relaxed)
    }

    /// Copies every instrument into an owned, comparable snapshot
    /// (allocates; reporting path only).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for &m in Metric::ALL {
            match m.kind() {
                MetricKind::Counter => counters.push((m.name(), self.counter(m))),
                MetricKind::Gauge => gauges.push((m.name(), self.gauge(m))),
                MetricKind::Histogram => {
                    let h = &self.histograms[self.slots[m as usize]];
                    let buckets = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then(|| (bucket_upper_bound(i), n))
                        })
                        .collect();
                    histograms.push(HistogramSnapshot {
                        name: m.name(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    });
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Exclusive upper bound of log₂ bucket `i`: bucket 0 holds zeros
/// (`[0, 1)`), bucket `i ≥ 1` holds `[2^(i-1), 2^i)`; the last bucket
/// saturates at `u64::MAX`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// One histogram, frozen: total count, sum, and the non-empty log₂
/// buckets as `(exclusive_upper_bound, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument wire name.
    pub name: &'static str,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty buckets: `(exclusive upper bound, sample count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen copy of every instrument, cheap to clone and compare —
/// this is what [`CellResult`](../../stack) carries per evaluated cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Metric::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(&'static str, i64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks a counter up by wire name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks a gauge up by wire name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Multi-line human-readable rendering (non-zero instruments only).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(name, v) in &self.counters {
            if v != 0 {
                let _ = writeln!(out, "{name} = {v}");
            }
        }
        for &(name, v) in &self.gauges {
            if v != 0 {
                let _ = writeln!(out, "{name} = {v}");
            }
        }
        for h in &self.histograms {
            if h.count != 0 {
                let _ = writeln!(
                    out,
                    "{} = {{count: {}, sum: {}, mean: {:.1}}}",
                    h.name,
                    h.count,
                    h.sum,
                    h.mean()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.add(Metric::GemmCalls, 2);
        r.add(Metric::GemmCalls, 3);
        assert_eq!(r.counter(Metric::GemmCalls), 5);
        assert_eq!(r.counter(Metric::GemmFlops), 0);
    }

    #[test]
    fn gauges_store_last_value() {
        let r = MetricsRegistry::new();
        r.set(Metric::ArenaBytes, 4);
        r.set(Metric::ArenaBytes, 2);
        assert_eq!(r.gauge(Metric::ArenaBytes), 2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = MetricsRegistry::new();
        for v in [0u64, 1, 1, 2, 3, 4, 1000] {
            r.observe(Metric::StepNs, v);
        }
        let snap = r.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "engine.step_ns")
            .unwrap();
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1011);
        // 0 -> [0,1); 1,1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8); 1000 -> [512,1024).
        assert_eq!(h.buckets, vec![(1, 1), (2, 2), (4, 2), (8, 1), (1024, 1)]);
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let r = MetricsRegistry::new();
        r.add(Metric::GuardTrips, 7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("guard.trips"), Some(7));
        assert_eq!(snap.counter("no.such"), None);
        assert_eq!(snap.gauge("engine.arena_bytes"), Some(0));
    }

    #[test]
    fn every_metric_has_unique_name() {
        for (i, a) in Metric::ALL.iter().enumerate() {
            for b in &Metric::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
