//! # imca-metrics — the unified observability layer
//!
//! One instrumentation API for every tier of the cache stack: a
//! lightweight [`Registry`] of named [`Counter`]s, [`Gauge`]s and latency
//! [`Histogram`]s (count, sum, min and max), a [`MetricSource`] trait
//! components implement to expose their state, and a serialisable
//! [`Snapshot`] the bench binaries dump as one structured JSON document
//! per run. Percentiles are not aggregates: [`quantile`] takes them by
//! nearest rank over raw per-op samples.
//!
//! Metric names are hierarchical, dot-separated `tier.component.metric`
//! paths (`imca.bank.get_hits`, `storage.disk.0.access_ns`,
//! `fabric.rpc.call_ns`). Latency metrics carry the `_ns` suffix and are
//! recorded in *virtual* nanoseconds — durations measured on `imca-sim`
//! clocks — so they are exact and deterministic, not subject to host
//! jitter.
//!
//! All primitives are atomic and cheap to clone.
//!
//! The registry is the one way to read a counter: components register
//! their handles here and expose them through [`MetricSource`], and
//! callers read the collected [`Snapshot`] — by exact name, or summed
//! over the instances a [`Snapshot::counter_sum`] pattern names.
//!
//! ```
//! use imca_metrics::json::Json;
//! use imca_metrics::Registry;
//! use imca_sim::SimDuration;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache.hits");
//! let lat = reg.histogram("cache.get_ns");
//! hits.inc();
//! lat.record_duration(SimDuration::micros(12));
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.hits"), Some(1));
//! let parsed = Json::parse(&snap.to_json()).unwrap();
//! assert_eq!(parsed, snap.to_json_value());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use imca_sim::SimDuration;
use parking_lot::Mutex;

pub mod json;

use json::Json;

/// A shareable, atomically updated monotonic counter.
#[derive(Clone, Default)]
pub struct Counter {
    n: Arc<AtomicU64>,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `k`.
    #[inline]
    pub fn add(&self, k: u64) {
        self.n.fetch_add(k, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A shareable signed gauge (values that go up *and* down: resident items,
/// allocated bytes, queue depths).
#[derive(Clone, Default)]
pub struct Gauge {
    n: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.n.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.n.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtract `d`.
    #[inline]
    pub fn sub(&self, d: i64) {
        self.n.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.n.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A latency aggregate over (virtual-time) nanoseconds: count, sum, min
/// and max. It keeps no distribution; a percentile comes from the raw
/// samples through [`quantile`]. Recording is lock-free.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one raw observation (nanoseconds by convention).
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value `v`: the histogram ends
    /// up exactly as after `n` calls of [`Histogram::record`].
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = &self.inner;
        i.count.fetch_add(n, Ordering::Relaxed);
        i.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        // `fetch_min`/`fetch_max` are compare-exchange loops on x86; most
        // observations move neither bound, and a plain load shows that.
        if v < i.min.load(Ordering::Relaxed) {
            i.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > i.max.load(Ordering::Relaxed) {
            i.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record a virtual-time duration.
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Freeze the current state into a serialisable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let i = &self.inner;
        let count = i.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: i.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                i.min.load(Ordering::Relaxed)
            },
            max: i.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, mean={:.0}ns, max={}ns)",
            s.count,
            s.mean(),
            s.max
        )
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (ns).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The `percent`-th percentile of `sorted` by nearest rank: the smallest
/// sample with at least `percent` % of the samples at or below it.
/// `None` when there are no samples. This is the one percentile rule:
/// every percentile a figure, workload or example prints comes from here,
/// over raw per-op samples.
pub fn quantile(sorted: &[u64], percent: usize) -> Option<u64> {
    assert!((1..=100).contains(&percent), "percentile out of range");
    debug_assert!(sorted.is_sorted(), "samples must be sorted");
    let rank = (sorted.len() * percent).div_ceil(100);
    sorted.get(rank.checked_sub(1)?).copied()
}

/// One metric's frozen value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Point-in-time gauge value.
    Gauge(i64),
    /// Latency distribution.
    Histogram(HistogramSnapshot),
}

/// A frozen, ordered set of named metric values — the unit the bench
/// binaries serialise to `results/*.json` and tests parse back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → frozen value, ordered by name for stable output.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Record a counter value under `name`.
    pub fn set_counter(&mut self, name: impl Into<String>, v: u64) {
        self.metrics.insert(name.into(), MetricValue::Counter(v));
    }

    /// Record a gauge value under `name`.
    pub fn set_gauge(&mut self, name: impl Into<String>, v: i64) {
        self.metrics.insert(name.into(), MetricValue::Gauge(v));
    }

    /// Record a histogram under `name`.
    pub fn set_histogram(&mut self, name: impl Into<String>, h: HistogramSnapshot) {
        self.metrics.insert(name.into(), MetricValue::Histogram(h));
    }

    /// Counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter whose name matches the dotted `pattern`, in
    /// which a `*` segment stands for exactly one segment and every other
    /// segment must match exactly — aggregation across the instances the
    /// caller names (`bank.mcd.*.store.get_hits` sums `bank.mcd.0…` and
    /// `bank.mcd.1…`, never `smcache.bank…`). A pattern without `*` reads
    /// one exact name.
    pub fn counter_sum(&self, pattern: &str) -> u64 {
        let matches = |name: &str| {
            let mut have = name.split('.');
            let each = |w: &str| have.next().is_some_and(|h| w == "*" || w == h);
            pattern.split('.').all(each) && have.next().is_none()
        };
        self.metrics
            .iter()
            .filter(|(k, _)| matches(k))
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(n) => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// Names of all histogram metrics, in order.
    pub fn histogram_names(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|(_, v)| matches!(v, MetricValue::Histogram(_)))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Copy every metric from `other` in under `prefix.`, composing
    /// component snapshots into a deployment-wide document.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Snapshot) {
        for (name, value) in &other.metrics {
            let key = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            self.metrics.insert(key, value.clone());
        }
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The snapshot as a [`Json`] document:
    /// `{"metrics": {"<name>": {"type": ..., "value": ...}, ...}}`.
    pub fn to_json_value(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let (kind, v) = match value {
                    MetricValue::Counter(n) => ("counter", Json::Int(*n as i128)),
                    MetricValue::Gauge(n) => ("gauge", Json::Int(*n as i128)),
                    MetricValue::Histogram(h) => ("histogram", h.to_json_value()),
                };
                let body = Json::Obj(vec![
                    ("type".into(), Json::Str(kind.into())),
                    ("value".into(), v),
                ]);
                (name.clone(), body)
            })
            .collect();
        Json::Obj(vec![("metrics".into(), Json::Obj(metrics))])
    }

    /// Serialise to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }
}

impl HistogramSnapshot {
    /// This snapshot as a [`Json`] object.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Int(self.count as i128)),
            ("sum".into(), Json::Int(self.sum as i128)),
            ("min".into(), Json::Int(self.min as i128)),
            ("max".into(), Json::Int(self.max as i128)),
        ])
    }
}

/// Implemented by every component that exposes metrics. `collect` writes
/// the component's current values into `snap`, naming each metric
/// `<prefix>.<local name>`; enclosing structures supply the prefix
/// (`tier.component.instance`), so one trait composes per-NIC counters and
/// whole-cluster documents alike.
pub trait MetricSource {
    /// Append current metric values, named under `prefix`, into `snap`.
    fn collect(&self, prefix: &str, snap: &mut Snapshot);
}

/// Join `prefix` and `name` with a dot, omitting the dot for an empty
/// prefix — the naming convention every [`MetricSource`] follows.
pub fn prefixed(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Collect a single source into a fresh snapshot.
pub fn collect_from(src: &dyn MetricSource, prefix: &str) -> Snapshot {
    let mut snap = Snapshot::new();
    src.collect(prefix, &mut snap);
    snap
}

enum Metric {
    C(Counter),
    G(Gauge),
    H(Histogram),
}

/// A named set of live metrics. Cloning is cheap and refers to the same
/// registry; `counter`/`gauge`/`histogram` are get-or-create, so any
/// holder of the registry can obtain a handle to the same metric by name.
///
/// Handles returned by the accessors are lock-free on the hot path; the
/// registry lock is taken only at registration and snapshot time.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let name = name.into();
        let mut m = self.inner.lock();
        match m.entry(name).or_insert_with(|| Metric::C(Counter::new())) {
            Metric::C(c) => c.clone(),
            _ => panic!("metric registered with a different kind"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        let name = name.into();
        let mut m = self.inner.lock();
        match m.entry(name).or_insert_with(|| Metric::G(Gauge::new())) {
            Metric::G(g) => g.clone(),
            _ => panic!("metric registered with a different kind"),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: impl Into<String>) -> Histogram {
        let name = name.into();
        let mut m = self.inner.lock();
        match m.entry(name).or_insert_with(|| Metric::H(Histogram::new())) {
            Metric::H(h) => h.clone(),
            _ => panic!("metric registered with a different kind"),
        }
    }

    /// Freeze every registered metric into a snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.collect("", &mut snap);
        snap
    }
}

impl MetricSource for Registry {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        let m = self.inner.lock();
        for (name, metric) in m.iter() {
            let key = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            match metric {
                Metric::C(c) => snap.set_counter(key, c.get()),
                Metric::G(g) => snap.set_gauge(key, g.get()),
                Metric::H(h) => snap.set_histogram(key, h.snapshot()),
            }
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.inner.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("a.hits");
        let c2 = reg.counter("a.hits"); // same underlying counter
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("a.items");
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::new();
        for ns in [10u64, 20, 30] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(quantile(&[42], 1), Some(42));
        assert_eq!(quantile(&[42], 50), Some(42));
        assert_eq!(quantile(&[42], 100), Some(42));
    }

    #[test]
    fn empty_has_no_quantile() {
        assert_eq!(quantile(&[], 50), None);
        assert_eq!(quantile(&[], 99), None);
    }

    #[test]
    fn ties_report_the_tied_value() {
        let v = [5, 5, 5, 5, 9];
        assert_eq!(quantile(&v, 50), Some(5));
        assert_eq!(quantile(&v, 80), Some(5));
        assert_eq!(quantile(&v, 81), Some(9));
    }

    #[test]
    fn thousand_samples_land_on_exact_ranks() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 50), Some(500));
        assert_eq!(quantile(&v, 99), Some(990));
        assert_eq!(quantile(&v, 100), Some(1000));
    }

    #[test]
    fn registry_roundtrip_record_snapshot_json_parse() {
        // The satellite-task round trip: record → snapshot → JSON → parse.
        let reg = Registry::new();
        reg.counter("imca.bank.gets").add(42);
        reg.gauge("mcd.store.curr_items").set(17);
        let h = reg.histogram("fabric.rpc.call_ns");
        for ns in [900u64, 1100, 50_000, 2_000_000] {
            h.record(ns);
        }
        let snap = reg.snapshot();
        let json = snap.to_json();
        let parsed = Json::parse(&json).expect("parse back");
        assert_eq!(parsed, snap.to_json_value());
        let value = |name: &str| {
            let metric = parsed.get("metrics").and_then(|m| m.get(name)).unwrap();
            metric.get("value").unwrap().clone()
        };
        assert_eq!(value("imca.bank.gets"), Json::Int(42));
        assert_eq!(value("mcd.store.curr_items"), Json::Int(17));
        let hist = value("fabric.rpc.call_ns");
        let field = |f: &str| hist.get(f).and_then(Json::as_u64).unwrap();
        assert_eq!(
            (field("count"), field("sum"), field("min"), field("max")),
            (4, 2_052_000, 900, 2_000_000)
        );
        // A histogram renders its four aggregates and no distribution.
        assert!(!json.contains("\"buckets\""), "{json}");
    }

    #[test]
    fn merge_prefixed_namespaces_components() {
        let reg = Registry::new();
        reg.counter("store.get_hits").add(3);
        let mut doc = Snapshot::new();
        doc.merge_prefixed("mcd.0", &reg.snapshot());
        doc.merge_prefixed("mcd.1", &reg.snapshot());
        assert_eq!(doc.counter("mcd.0.store.get_hits"), Some(3));
        assert_eq!(doc.counter_sum("mcd.*.store.get_hits"), 6);
    }

    #[test]
    fn counter_sum_star_matches_exactly_one_segment() {
        let mut snap = Snapshot::new();
        snap.set_counter("cmcache.0.read_hits", 1);
        snap.set_counter("cmcache.1.read_hits", 2);
        snap.set_counter("cmcache.0.meta.read_hits", 40);
        snap.set_counter("xcmcache.0.read_hits", 300);
        snap.set_counter("cmcache.read_hits", 5_000);
        snap.set_gauge("cmcache.2.read_hits", 60_000);
        // One instance segment: neither a deeper name, a longer first
        // segment, a missing instance nor a gauge counts.
        assert_eq!(snap.counter_sum("cmcache.*.read_hits"), 3);
        assert_eq!(snap.counter_sum("cmcache.*.*.read_hits"), 40);
        assert_eq!(snap.counter_sum("*.0.read_hits"), 301);
        // Without `*`, exactly one name.
        assert_eq!(snap.counter_sum("cmcache.0.read_hits"), 1);
        assert_eq!(snap.counter_sum("read_hits"), 0);
        assert_eq!(snap.counter_sum(".read_hits"), 0);
    }

    #[test]
    fn snapshot_accessors_distinguish_kinds() {
        let mut snap = Snapshot::new();
        snap.set_counter("a", 1);
        snap.set_gauge("b", -1);
        assert_eq!(snap.counter("a"), Some(1));
        assert_eq!(snap.counter("b"), None);
        assert_eq!(snap.gauge("b"), Some(-1));
        assert!(snap.histogram("a").is_none());
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
    }

    #[test]
    fn record_n_equals_n_records() {
        let (bulk, single) = (Histogram::new(), Histogram::new());
        // A first value, a new max, a repeat, nothing at all, a new min,
        // and a value between the bounds.
        for (v, n) in [(500, 3), (70_000, 16), (500, 1), (9, 0), (2, 2), (640, 5)] {
            bulk.record_n(v, n);
            (0..n).for_each(|_| single.record(v));
            assert_eq!(bulk.snapshot(), single.snapshot(), "after {n} x {v}");
        }
        let s = bulk.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (27, 1_125_204, 2, 70_000));
        let untouched = Histogram::new();
        untouched.record_n(9, 0);
        assert_eq!(untouched.snapshot(), Histogram::new().snapshot());
    }

    #[test]
    fn record_duration_uses_virtual_nanos() {
        let h = Histogram::new();
        h.record_duration(SimDuration::micros(3));
        assert_eq!(h.snapshot().max, 3_000);
    }
}
