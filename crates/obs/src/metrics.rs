//! The [`Observer`]: a thread-safe registry of counters, gauges, spans,
//! and device-utilization samples for one run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSummary};
use crate::report::RunReport;
use crate::trace::{chrome_trace, TraceEvent};

/// A monotone counter handle (an `Arc<AtomicU64>` under the hood).
///
/// Registration takes a registry lock once; after that every update is a
/// single relaxed atomic add, so hot loops can hold a handle and count
/// without contention.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge handle (f64 bits in an `AtomicU64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (lock-free max).
    pub fn max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while f64::from_bits(cur) < v {
            match self
                .0
                .compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A latency timer guard from [`Observer::timer`]: on drop it records the
/// elapsed microseconds into the `{prefix}.us` histogram, which carries
/// the count, sum and max along with the full distribution.
#[derive(Debug)]
pub struct Timer {
    pub(crate) latency: Arc<Histogram>,
    pub(crate) start: Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.latency.record(self.start.elapsed().as_micros() as u64);
    }
}

/// One device's share of busy time in a simulated timeline, as sampled
/// into the run report's `devices` section.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUtil {
    /// Global device index.
    pub device: usize,
    /// Pipeline stage hosting the device.
    pub stage: usize,
    /// Busy seconds / makespan, in `[0, 1]`.
    pub busy_fraction: f64,
}

/// A completed span as recorded by an [`Observer`].
#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    cat: &'static str,
    track: u64,
    start_us: f64,
    dur_us: f64,
}

/// An in-flight span; records itself into the observer on drop.
///
/// Spans nest naturally: Perfetto stacks `"ph": "X"` events on the same
/// track by time containment, so a guard opened inside another guard's
/// lifetime renders as its child.
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Observer,
    name: &'static str,
    cat: &'static str,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.obs.record_span(self.name, self.cat, self.start);
    }
}

/// The per-run observability sink: counters, gauges, spans, and device
/// utilization, all safe to share across worker threads (`Arc<Observer>`).
///
/// Everything here is passive bookkeeping — attaching an observer must
/// never change what the instrumented code computes.
#[derive(Debug)]
pub struct Observer {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
    tracks: Mutex<HashMap<ThreadId, u64>>,
    devices: Mutex<Vec<DeviceUtil>>,
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new()
    }
}

impl Observer {
    /// A fresh observer; its epoch (trace time zero) is now.
    pub fn new() -> Self {
        Observer {
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
            tracks: Mutex::new(HashMap::new()),
            devices: Mutex::new(Vec::new()),
        }
    }

    /// The counter registered under `name` (created at zero on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Add `n` to the counter `name` (registering it if needed).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// The gauge registered under `name` (created at zero on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// Overwrite the gauge `name` with `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Raise the gauge `name` to `v` if `v` is larger.
    pub fn gauge_max(&self, name: &str, v: f64) {
        self.gauge(name).max(v);
    }

    /// The histogram registered under `name` (created empty on first use).
    /// Like counters, registration takes the registry lock once; every
    /// `record` through the returned handle is lock-free.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()));
        Arc::clone(cell)
    }

    /// Record one value into the histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Summaries of every non-empty histogram, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSummary> {
        self.histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .filter_map(|(k, h)| h.summary().map(|s| (k.clone(), s)))
            .collect()
    }

    /// Handles to every registered histogram, sorted by name (the raw
    /// bucket view behind Prometheus exposition).
    pub fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), Arc::clone(h)))
            .collect()
    }

    /// Open a work span (category `"task"`); it records on drop.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_with_cat(name, "task")
    }

    /// Open a top-level phase span (category `"phase"`); phase durations
    /// are aggregated by name into the run report.
    pub fn phase(&self, name: &'static str) -> Span<'_> {
        self.span_with_cat(name, "phase")
    }

    /// Open a span with an explicit category.
    pub fn span_with_cat(&self, name: &'static str, cat: &'static str) -> Span<'_> {
        Span {
            obs: self,
            name,
            cat,
            start: Instant::now(),
        }
    }

    /// Replace the recorded per-device utilization samples.
    pub fn set_device_utilization(&self, devices: Vec<DeviceUtil>) {
        *self.devices.lock().expect("device registry poisoned") = devices;
    }

    /// Open a latency timer that records into the `{prefix}.us` histogram
    /// when dropped. Unlike [`Observer::span`] this keeps no per-event
    /// record, so it is safe on hot paths of long-lived processes where an
    /// unbounded span log would be a leak.
    pub fn timer(&self, prefix: &str) -> Timer {
        Timer {
            latency: self.histogram(&format!("{prefix}.us")),
            start: Instant::now(),
        }
    }

    /// Fold another observer's counters, gauges, and histograms into this
    /// one: counters add, gauges keep the maximum, histogram buckets add.
    /// Spans, thread tracks and device samples are *not* transferred —
    /// this is the aggregation path for short-lived per-request observers
    /// feeding a long-lived process observer, where retaining every span
    /// would grow without bound.
    pub fn absorb(&self, other: &Observer) {
        for (name, value) in other.counters() {
            if value > 0 {
                self.add(&name, value);
            }
        }
        for (name, value) in other.gauges() {
            self.gauge_max(&name, value);
        }
        for (name, theirs) in other.histogram_handles() {
            if !theirs.is_empty() {
                self.histogram(&name).merge(&theirs);
            }
        }
    }

    /// Snapshot of every counter.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshot of every gauge.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Build the serializable run report for this observer.
    pub fn report(&self, command: &str) -> RunReport {
        let spans = self.spans.lock().expect("span registry poisoned");
        // Aggregate phase spans by name, ordered by first start time.
        let mut agg: Vec<(String, f64, f64)> = Vec::new();
        for s in spans.iter().filter(|s| s.cat == "phase") {
            match agg.iter_mut().find(|(n, _, _)| n == s.name) {
                Some((_, secs, first)) => {
                    *secs += s.dur_us / 1e6;
                    if s.start_us < *first {
                        *first = s.start_us;
                    }
                }
                None => agg.push((s.name.to_string(), s.dur_us / 1e6, s.start_us)),
            }
        }
        agg.sort_by(|a, b| a.2.total_cmp(&b.2));
        RunReport {
            command: command.to_string(),
            phases: agg.into_iter().map(|(n, s, _)| (n, s)).collect(),
            counters: self.counters(),
            gauges: self.gauges(),
            histograms: self.histograms(),
            devices: self.devices.lock().expect("device registry poisoned").clone(),
        }
    }

    /// The recorded spans as [`TraceEvent`]s (one track per thread).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.spans
            .lock()
            .expect("span registry poisoned")
            .iter()
            .map(|s| TraceEvent {
                name: s.name.to_string(),
                cat: s.cat.to_string(),
                ts_us: s.start_us,
                dur_us: s.dur_us,
                pid: 0,
                tid: s.track,
            })
            .collect()
    }

    /// The recorded spans as a Chrome Trace Event JSON array.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.trace_events())
    }

    fn record_span(&self, name: &'static str, cat: &'static str, start: Instant) {
        let end = Instant::now();
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        let track = self.track_id();
        self.spans
            .lock()
            .expect("span registry poisoned")
            .push(SpanRecord {
                name,
                cat,
                track,
                start_us,
                dur_us,
            });
    }

    /// A small stable integer for the current thread (assigned on first
    /// use, in first-span order).
    fn track_id(&self) -> u64 {
        let mut map = self.tracks.lock().expect("track registry poisoned");
        let next = map.len() as u64;
        *map.entry(std::thread::current().id()).or_insert(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles_and_threads() {
        let obs = Arc::new(Observer::new());
        let c = obs.counter("n");
        c.add(2);
        let obs2 = Arc::clone(&obs);
        std::thread::spawn(move || obs2.add("n", 5))
            .join()
            .unwrap();
        assert_eq!(obs.counter("n").get(), 7);
        assert_eq!(obs.counters()["n"], 7);
    }

    #[test]
    fn gauge_max_is_monotone() {
        let obs = Observer::new();
        obs.gauge_max("depth", 3.0);
        obs.gauge_max("depth", 1.0);
        assert_eq!(obs.gauge("depth").get(), 3.0);
        obs.gauge_set("depth", 0.5);
        assert_eq!(obs.gauge("depth").get(), 0.5);
    }

    #[test]
    fn spans_record_on_drop_with_thread_tracks() {
        let obs = Arc::new(Observer::new());
        {
            let _outer = obs.phase("search");
            let _inner = obs.span("evaluate");
        }
        let obs2 = Arc::clone(&obs);
        std::thread::spawn(move || {
            let _s = obs2.span("worker");
        })
        .join()
        .unwrap();
        let events = obs.trace_events();
        assert_eq!(events.len(), 3);
        let worker = events.iter().find(|e| e.name == "worker").unwrap();
        let main = events.iter().find(|e| e.name == "evaluate").unwrap();
        assert_ne!(worker.tid, main.tid, "each thread gets its own track");
        assert!(events.iter().all(|e| e.dur_us >= 0.0));
    }

    #[test]
    fn report_aggregates_phases_by_name_in_start_order() {
        let obs = Observer::new();
        {
            let _a = obs.phase("enumerate");
        }
        {
            let _b = obs.phase("explore");
        }
        {
            let _a2 = obs.phase("enumerate");
        }
        let report = obs.report("search");
        let names: Vec<&str> = report.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["enumerate", "explore"]);
        assert!(report.phases.iter().all(|(_, s)| *s >= 0.0));
    }

    #[test]
    fn device_utilization_replaces_previous_samples() {
        let obs = Observer::new();
        obs.set_device_utilization(vec![DeviceUtil {
            device: 0,
            stage: 0,
            busy_fraction: 0.5,
        }]);
        obs.set_device_utilization(vec![
            DeviceUtil {
                device: 0,
                stage: 0,
                busy_fraction: 0.75,
            },
            DeviceUtil {
                device: 1,
                stage: 1,
                busy_fraction: 0.25,
            },
        ]);
        let report = obs.report("simulate");
        assert_eq!(report.devices.len(), 2);
        assert_eq!(report.devices[0].busy_fraction, 0.75);
    }

    #[test]
    fn timer_records_into_its_histogram_only() {
        let obs = Observer::new();
        for _ in 0..5 {
            let t = obs.timer("serve.http.estimate");
            std::thread::sleep(std::time::Duration::from_micros(50));
            drop(t);
        }
        let h = obs.histogram("serve.http.estimate.us");
        assert_eq!(h.count(), 5);
        assert!(h.sum() >= 5 * 50, "{} us over five 50 us sleeps", h.sum());
        assert!(h.max().unwrap() <= h.sum());
        let summary = &obs.histograms()["serve.http.estimate.us"];
        assert_eq!(summary.count, 5);
        assert!(summary.p50 <= summary.p99 && summary.p99 <= summary.max as f64);
        // The histogram is the whole record: no side counters or gauges.
        assert!(obs.counters().is_empty(), "{:?}", obs.counters());
        assert!(obs.gauges().is_empty(), "{:?}", obs.gauges());
    }

    #[test]
    fn absorb_merges_histogram_buckets() {
        let process = Observer::new();
        process.observe("latency.us", 10);

        let request = Observer::new();
        request.observe("latency.us", 20);
        request.observe("latency.us", 30);
        request.observe("other.us", 7);

        process.absorb(&request);
        let merged = process.histogram("latency.us");
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 60);
        assert_eq!(merged.min(), Some(10));
        assert_eq!(merged.max(), Some(30));
        assert_eq!(process.histogram("other.us").count(), 1);
        // The donor observer is untouched.
        assert_eq!(request.histogram("latency.us").count(), 2);
    }

    #[test]
    fn absorb_adds_counters_and_maxes_gauges() {
        let process = Observer::new();
        process.add("requests", 2);
        process.gauge_max("depth", 3.0);

        let request = Observer::new();
        request.add("requests", 5);
        request.add("cache.hits", 7);
        request.gauge_max("depth", 1.0);
        request.gauge_max("latency", 9.0);

        process.absorb(&request);
        let counters = process.counters();
        assert_eq!(counters["requests"], 7);
        assert_eq!(counters["cache.hits"], 7);
        let gauges = process.gauges();
        assert_eq!(gauges["depth"], 3.0);
        assert_eq!(gauges["latency"], 9.0);
    }
}
