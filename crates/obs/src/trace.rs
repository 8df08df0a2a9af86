//! Span/event tracer: a Dapper-style collector with a bounded,
//! lock-free ring recorder.
//!
//! Names are interned up front (at plan build), so recording an event
//! on the hot path is three relaxed atomic stores into a fixed ring —
//! no allocation, no lock. The thread-local *current observer* makes
//! the instruments reachable from leaf crates (`tensor`, `parallel`)
//! without threading a handle through every kernel signature: the
//! session installs its observer for the duration of a run (and on
//! every thread that runs one of its batch chunks) and uninstalls it on
//! scope exit.

use crate::metrics::{Metric, MetricsRegistry, MetricsSnapshot};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much the stack records. `Copy`, so it rides along inside
/// `ExecConfig`/`StackConfig` without breaking their by-value idiom.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ObsLevel {
    /// No observer: the hot path pays one relaxed atomic load.
    #[default]
    Off,
    /// Metrics registry only (counters/gauges/histograms).
    Metrics,
    /// Metrics plus span/event recording into the ring collector.
    Trace,
}

impl ObsLevel {
    /// True for any level that creates an observer.
    pub fn is_on(self) -> bool {
        self != ObsLevel::Off
    }
}

/// An interned span/event name (index into the observer's name table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: `[ts_ns, ts_ns + dur_ns)` (Chrome `ph:"X"`).
    Span,
    /// A point in time (Chrome `ph:"i"`).
    Instant,
}

/// One recorded event. Fixed-size and `Copy`, so the ring never
/// allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned name.
    pub name: NameId,
    /// Span or instant.
    pub kind: EventKind,
    /// Start, nanoseconds since the observer's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Logical track: 0 = the calling thread, 1.. = batch chunks.
    pub tid: u32,
}

/// Bounded lock-free ring recorder: the observer's event sink.
///
/// Recording is cheap and panic-free: the engine records from kernel
/// hot paths and from every thread running a batch chunk. Writers claim
/// a slot with one `fetch_add` and write the event as three relaxed
/// `u64` stores; when the ring wraps, the oldest events are overwritten
/// (counted in [`RingCollector::dropped`]). Reads are meant for
/// quiescent points (after a run, when its chunks have joined); a read
/// racing a wrapping writer can observe a torn event, never undefined
/// behaviour.
pub struct RingCollector {
    // Each slot is 3 words: [name | kind<<32 | tid<<40], ts_ns, dur_ns.
    slots: Box<[AtomicU64]>,
    head: AtomicUsize,
    capacity: usize,
}

impl RingCollector {
    /// Default ring capacity (events).
    pub const DEFAULT_CAPACITY: usize = 64 * 1024;

    /// Creates a ring holding `capacity` events (rounded up to a power
    /// of two, minimum 16).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16).next_power_of_two();
        RingCollector {
            slots: (0..capacity * 3).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            capacity,
        }
    }

    fn encode(ev: &TraceEvent) -> [u64; 3] {
        let kind = match ev.kind {
            EventKind::Span => 0u64,
            EventKind::Instant => 1u64,
        };
        [
            ev.name.0 as u64 | kind << 32 | (ev.tid as u64) << 40,
            ev.ts_ns,
            ev.dur_ns,
        ]
    }

    fn decode(w0: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: NameId((w0 & 0xFFFF_FFFF) as u32),
            kind: if w0 >> 32 & 0xFF == 0 {
                EventKind::Span
            } else {
                EventKind::Instant
            },
            ts_ns,
            dur_ns,
            tid: (w0 >> 40) as u32,
        }
    }

    /// Records one event (overwrites the oldest when full, never blocks).
    pub fn record(&self, ev: TraceEvent) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) & (self.capacity - 1);
        let [w0, w1, w2] = Self::encode(&ev);
        self.slots[idx * 3].store(w0, Ordering::Relaxed);
        self.slots[idx * 3 + 1].store(w1, Ordering::Relaxed);
        self.slots[idx * 3 + 2].store(w2, Ordering::Release);
    }

    /// Returns the retained events in chronological record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(self.capacity);
        let first = if head > self.capacity {
            head & (self.capacity - 1)
        } else {
            0
        };
        (0..n)
            .map(|i| {
                let idx = (first + i) & (self.capacity - 1);
                Self::decode(
                    self.slots[idx * 3].load(Ordering::Relaxed),
                    self.slots[idx * 3 + 1].load(Ordering::Relaxed),
                    self.slots[idx * 3 + 2].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Number of events overwritten since creation.
    pub fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .saturating_sub(self.capacity) as u64
    }
}

impl Default for RingCollector {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

/// The per-session observability hub: one metrics registry, an optional
/// event ring, and the interned name table.
pub struct Observer {
    level: ObsLevel,
    metrics: MetricsRegistry,
    collector: Option<RingCollector>,
    names: Mutex<Vec<String>>,
    epoch: Instant,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("level", &self.level)
            .field("names", &self.names.lock().expect("name table lock").len())
            .finish_non_exhaustive()
    }
}

impl Observer {
    /// Builds an observer for `level`; [`ObsLevel::Trace`] attaches a
    /// default-capacity [`RingCollector`]. Returns `None` for
    /// [`ObsLevel::Off`].
    pub fn for_level(level: ObsLevel) -> Option<Arc<Observer>> {
        level.is_on().then(|| {
            Arc::new(Observer {
                level,
                metrics: MetricsRegistry::new(),
                collector: (level == ObsLevel::Trace).then(RingCollector::default),
                names: Mutex::new(Vec::new()),
                epoch: Instant::now(),
            })
        })
    }

    /// The observer's recording level.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Snapshots every instrument (cold path; allocates).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Interns `name`, returning a stable id; repeated calls with the
    /// same string return the same id. Cold path (plan build, demotion).
    pub fn intern(&self, name: &str) -> NameId {
        let mut names = self.names.lock().expect("name table lock");
        if let Some(i) = names.iter().position(|n| n == name) {
            return NameId(i as u32);
        }
        names.push(name.to_string());
        NameId((names.len() - 1) as u32)
    }

    /// The interned name table, in id order.
    pub fn names(&self) -> Vec<String> {
        self.names.lock().expect("name table lock").clone()
    }

    /// Nanoseconds since the observer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span `[ts_ns, ts_ns + dur_ns)` on track `tid`.
    /// No-op unless a collector is attached.
    #[inline]
    pub fn span(&self, name: NameId, ts_ns: u64, dur_ns: u64, tid: u32) {
        if let Some(c) = &self.collector {
            c.record(TraceEvent {
                name,
                kind: EventKind::Span,
                ts_ns,
                dur_ns,
                tid,
            });
        }
    }

    /// Records an instant event at `ts_ns` on track `tid`.
    #[inline]
    pub fn instant(&self, name: NameId, ts_ns: u64, tid: u32) {
        if let Some(c) = &self.collector {
            c.record(TraceEvent {
                name,
                kind: EventKind::Instant,
                ts_ns,
                dur_ns: 0,
                tid,
            });
        }
    }

    /// The recorded events, chronological. Empty without a collector.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.collector
            .as_ref()
            .map(RingCollector::events)
            .unwrap_or_default()
    }

    /// Events dropped by the collector (ring overwrites).
    pub fn dropped(&self) -> u64 {
        self.collector.as_ref().map_or(0, RingCollector::dropped)
    }
}

// Process-wide count of installed observer guards: lets the disabled
// hot path bail on one relaxed load without touching TLS.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Arc<Observer>>> = const { RefCell::new(None) };
}

/// Installs `obs` as this thread's current observer until the returned
/// guard drops (restoring whatever was installed before).
pub fn install(obs: Arc<Observer>) -> ObsGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(obs));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    ObsGuard { prev }
}

/// Uninstall-on-drop guard returned by [`install`].
pub struct ObsGuard {
    prev: Option<Arc<Observer>>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// True when any thread currently has an observer installed. One
/// relaxed load; this is the whole cost of a disabled instrument.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Runs `f` against this thread's current observer, if any.
#[inline]
pub fn with_current<R>(f: impl FnOnce(&Observer) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().map(|o| f(o)))
}

/// Clones this thread's current observer handle (for handing to worker
/// closures).
pub fn current() -> Option<Arc<Observer>> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Adds `n` to counter `m` on the current observer, if any.
#[inline]
pub fn count(m: Metric, n: u64) {
    with_current(|o| o.metrics.add(m, n));
}

/// Sets gauge `m` on the current observer, if any.
#[inline]
pub fn gauge(m: Metric, v: i64) {
    with_current(|o| o.metrics.set(m, v));
}

/// Records one histogram sample on the current observer, if any.
#[inline]
pub fn observe(m: Metric, v: u64) {
    with_current(|o| o.metrics.observe(m, v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_latest_events_in_order() {
        let ring = RingCollector::with_capacity(16);
        for i in 0..20u64 {
            ring.record(TraceEvent {
                name: NameId(i as u32),
                kind: EventKind::Span,
                ts_ns: i,
                dur_ns: 1,
                tid: 0,
            });
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 16);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(evs.first().unwrap().ts_ns, 4);
        assert_eq!(evs.last().unwrap().ts_ns, 19);
        assert!(evs.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ev = TraceEvent {
            name: NameId(123_456),
            kind: EventKind::Instant,
            ts_ns: u64::MAX / 3,
            dur_ns: 42,
            tid: 7,
        };
        let ring = RingCollector::with_capacity(16);
        ring.record(ev);
        assert_eq!(ring.events(), vec![ev]);
    }

    #[test]
    fn interning_dedups() {
        let obs = Observer::for_level(ObsLevel::Trace).unwrap();
        let a = obs.intern("step one");
        let b = obs.intern("step two");
        let again = obs.intern("step one");
        assert_eq!(a, again);
        assert_ne!(a, b);
        assert_eq!(obs.names(), vec!["step one".to_string(), "step two".into()]);
    }

    #[test]
    fn install_scopes_and_nests() {
        assert!(current().is_none());
        let outer = Observer::for_level(ObsLevel::Metrics).unwrap();
        {
            let _g = install(outer.clone());
            count(Metric::GemmCalls, 1);
            let inner = Observer::for_level(ObsLevel::Metrics).unwrap();
            {
                let _g2 = install(inner.clone());
                count(Metric::GemmCalls, 10);
            }
            count(Metric::GemmCalls, 1);
            assert_eq!(inner.metrics().counter(Metric::GemmCalls), 10);
        }
        assert_eq!(outer.metrics().counter(Metric::GemmCalls), 2);
        assert!(current().is_none());
    }

    #[test]
    fn metrics_level_records_no_events() {
        let obs = Observer::for_level(ObsLevel::Metrics).unwrap();
        let id = obs.intern("x");
        obs.span(id, 0, 10, 0);
        assert!(obs.events().is_empty());
        assert_eq!(obs.dropped(), 0);
    }
}
