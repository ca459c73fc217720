//! The handles: shared-nothing counters and gauges over atomics, a
//! mutex-guarded histogram/event store, and name-sorted snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::profile::{CounterSnapshot, Event, GaugeSnapshot, HistogramSnapshot, Profile, Value};

/// Raw histogram samples retained per metric for exact quantiles. Past
/// this the stream keeps updating count/sum/min/max but stops storing
/// samples, so quantiles become "over the first N" — fine for the stage
/// timings this crate serves, which stay far below the cap.
const SAMPLE_CAP: usize = 4096;

/// Hard bound on buffered events; past it events are counted as dropped
/// instead of growing without limit.
const EVENT_CAP: usize = 1 << 20;

#[derive(Debug, Default)]
struct HistState {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    samples: Vec<u64>,
}

impl HistState {
    fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(v);
        }
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: u64::try_from(self.sum).unwrap_or(u64::MAX),
            min: self.min,
            max: self.max,
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
        }
    }
}

/// Nearest-rank quantile over an ascending slice (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Default)]
struct Inner {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<Mutex<HistState>>)>>,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
}

fn intern<T: Default>(registry: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut entries = registry.lock().unwrap();
    if let Some((_, cell)) = entries.iter().find(|(n, _)| n == name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(T::default());
    entries.push((name.to_string(), Arc::clone(&cell)));
    cell
}

/// Runtime telemetry handle. [`Probe::new`] collects; [`Probe::disabled`]
/// is inert. Cloning shares the underlying store, so handles can be
/// spread across threads and snapshotted once at the end.
#[derive(Clone, Default)]
pub struct Probe {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").field("enabled", &self.is_enabled()).finish()
    }
}

impl Probe {
    /// A live collector.
    pub fn new() -> Self {
        Probe { inner: Some(Arc::new(Inner::default())) }
    }

    /// An inert probe: every handle it hands out is a no-op.
    #[inline]
    pub fn disabled() -> Self {
        Probe { inner: None }
    }

    /// True when this handle actually records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Counter handle for `name`; same name → same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| intern(&inner.counters, name)))
    }

    /// Gauge handle for `name`; same name → same underlying cell.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| intern(&inner.gauges, name)))
    }

    /// Histogram handle for `name`; same name → same underlying store.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| intern(&inner.histograms, name)))
    }

    /// Scoped timer: records elapsed microseconds into the named
    /// histogram when dropped.
    pub fn timer(&self, name: &str) -> StageTimer {
        StageTimer(if self.is_enabled() {
            Some((self.histogram(name), Instant::now()))
        } else {
            None
        })
    }

    /// Appends a structured event. Field construction can be costly, so
    /// hot paths should guard emission with [`Probe::is_enabled`].
    pub fn emit(&self, name: &str, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else { return };
        let mut events = inner.events.lock().unwrap();
        if events.len() >= EVENT_CAP {
            inner.events_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(Event {
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
        });
    }

    /// Detached copy of everything collected so far: metrics sorted by
    /// name, events in emission order. If events were dropped at the
    /// cap, a `probe.events_dropped` counter records how many.
    pub fn snapshot(&self) -> Profile {
        let Some(inner) = &self.inner else { return Profile::default() };
        let mut counters: Vec<CounterSnapshot> = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let dropped = inner.events_dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            counters
                .push(CounterSnapshot { name: "probe.events_dropped".to_string(), value: dropped });
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, state)| state.lock().unwrap().snapshot(name))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let events = inner.events.lock().unwrap().clone();
        Profile { counters, gauges, histograms, events }
    }

    /// Shorthand for `snapshot().to_jsonl()`.
    pub fn to_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }
}

/// Monotonic counter handle (relaxed atomics; cheap from any thread).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Last-write-wins gauge handle (stores the f64 bit pattern atomically).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a disabled handle).
    #[inline]
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// Histogram handle; see [`HistogramSnapshot`] for what a recording
/// yields.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<HistState>>>);

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(state) = &self.0 {
            state.lock().unwrap().record(v);
        }
    }
}

/// Scoped timer from [`Probe::timer`]: on drop, records the elapsed
/// microseconds (saturated to `u64`) into its histogram.
#[derive(Debug, Default)]
pub struct StageTimer(Option<(Histogram, Instant)>);

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.0.take() {
            hist.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let probe = Probe::new();
        let a = probe.counter("c");
        let b = probe.counter("c");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(probe.snapshot().counter("c"), Some(3));
    }

    #[test]
    fn gauges_and_histograms_record() {
        let probe = Probe::new();
        probe.gauge("g").set(0.75);
        let h = probe.histogram("h");
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let snap = probe.snapshot();
        assert_eq!(snap.gauge("g"), Some(0.75));
        let hist = snap.histogram("h").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 100);
        assert_eq!(hist.min, 10);
        assert_eq!(hist.max, 40);
        assert_eq!(hist.p50, 20);
        assert_eq!(hist.p95, 40);
    }

    #[test]
    fn single_sample_quantiles_are_the_sample() {
        let probe = Probe::new();
        probe.histogram("h").record(42);
        let snap = probe.snapshot();
        let hist = snap.histogram("h").unwrap();
        assert_eq!((hist.p50, hist.p95, hist.min, hist.max), (42, 42, 42, 42));
    }

    #[test]
    fn histogram_sum_saturates() {
        let probe = Probe::new();
        let h = probe.histogram("h");
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = probe.snapshot();
        assert_eq!(snap.histogram("h").unwrap().sum, u64::MAX);
    }

    #[test]
    fn timer_records_on_drop() {
        let probe = Probe::new();
        drop(probe.timer("t_us"));
        let snap = probe.snapshot();
        assert_eq!(snap.histogram("t_us").unwrap().count, 1);
    }

    #[test]
    fn events_keep_emission_order_and_snapshot_sorts_metrics() {
        let probe = Probe::new();
        probe.counter("z.last").inc();
        probe.counter("a.first").inc();
        probe.emit("step", &[("i", Value::from(0u64))]);
        probe.emit("step", &[("i", Value::from(1u64))]);
        let snap = probe.snapshot();
        assert_eq!(snap.counters[0].name, "a.first");
        assert_eq!(snap.counters[1].name, "z.last");
        let iters: Vec<&Value> = snap.events_named("step").map(|e| &e.fields[0].1).collect();
        assert_eq!(iters, [&Value::U64(0), &Value::U64(1)]);
    }

    #[test]
    fn clones_share_the_store() {
        let probe = Probe::new();
        let clone = probe.clone();
        clone.counter("c").inc();
        assert_eq!(probe.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn cross_thread_counting_is_lossless() {
        let probe = Probe::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = probe.counter("c");
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(probe.snapshot().counter("c"), Some(4000));
    }
}
