//! Unified metrics: named counters, gauges and fixed-bucket histograms.
//!
//! A [`Registry`] hands out cheap `Arc`-backed handles; recording through a
//! handle is a single relaxed atomic operation and never touches the
//! registry lock (the lock is taken only at handle creation and snapshot
//! time). Create one registry per logical service (`papd` does) or use the
//! process-wide [`global`] registry for library-level metrics (the sim
//! engine, the `pap-parallel` pool, the micro-benchmark harness).
//!
//! Snapshots ([`MetricsSnapshot`]) are serde-serializable (the `papd`
//! `Metrics` endpoint ships them over the wire) and render as an aligned
//! text table for terminals and CI step summaries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (signed, so deltas can go negative).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta and return the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.0.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    /// Inclusive upper bounds; an implicit overflow bucket follows.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle (e.g. microsecond latencies).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let c = &self.0;
        let idx = c.bounds.iter().position(|&b| value <= b).unwrap_or(c.bounds.len());
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics; see the module docs.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter(Arc::default()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge(Arc::default()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Get or create the histogram `name` with inclusive upper `bounds`
    /// (strictly increasing; an overflow bucket is appended automatically).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing, or if `name`
    /// is already registered as a different metric type. Re-registering an
    /// existing histogram returns the existing handle; its original bounds
    /// win.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram '{name}' needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram '{name}' bounds must be strictly increasing"
        );
        let make = || {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        };
        match self.get_or_insert(name, make) {
            Metric::Histogram(h) => h,
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// The metric registered as `name`, registering `make()` first if the
    /// name is new.
    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Read every metric into a serializable snapshot, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.push(NamedValue { name: name.clone(), value: c.get() })
                }
                Metric::Gauge(g) => {
                    snap.gauges.push(NamedGauge { name: name.clone(), value: g.get() })
                }
                Metric::Histogram(h) => {
                    let core = &h.0;
                    let les = core.bounds.iter().copied().chain([u64::MAX]);
                    let buckets = les
                        .zip(&core.buckets)
                        .map(|(le, n)| BucketSnapshot { le, count: n.load(Ordering::Relaxed) })
                        .collect();
                    snap.histograms.push(HistogramSnapshot {
                        name: name.clone(),
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        buckets,
                    });
                }
            }
        }
        snap
    }
}

/// The process-wide registry used by library-level instrumentation (sim
/// engine, `pap-parallel`, micro-benchmark harness).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A named counter value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedValue {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A named gauge value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedGauge {
    /// Metric name.
    pub name: String,
    /// Gauge value.
    pub value: i64,
}

/// One histogram bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Inclusive upper bound (`u64::MAX` = overflow bucket).
    pub le: u64,
    /// Observations in this bucket.
    pub count: u64,
}

/// A histogram's state in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket counts (non-cumulative), overflow last.
    pub buckets: Vec<BucketSnapshot>,
}

/// A point-in-time, wire-serializable view of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<NamedValue>,
    /// Gauges, sorted by name.
    pub gauges: Vec<NamedGauge>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge `other` into `self` by name: counters with the same name add,
    /// gauges add, and histograms merge bucket by bucket on `le` (their
    /// `count` and `sum` add). Duplicate names collapse to one entry and
    /// every section stays sorted by name. This joins a service's registry
    /// with the [`global`] one, and a fleet's per-shard snapshots into one.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        merge_sorted(&mut self.counters, other.counters, |c| &c.name, |kept, c| {
            kept.value = kept.value.saturating_add(c.value)
        });
        merge_sorted(&mut self.gauges, other.gauges, |g| &g.name, |kept, g| {
            kept.value = kept.value.saturating_add(g.value)
        });
        merge_sorted(&mut self.histograms, other.histograms, |h| &h.name, |kept, h| {
            kept.count = kept.count.saturating_add(h.count);
            kept.sum = kept.sum.saturating_add(h.sum);
            merge_sorted(&mut kept.buckets, std::mem::take(&mut h.buckets), |b| &b.le, |k, b| {
                k.count = k.count.saturating_add(b.count)
            });
        });
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render as an aligned text table (terminals, CI step summaries).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.gauges.iter().map(|g| g.name.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0)
            .max("metric".len());
        out.push_str(&format!("{:<width$}  value\n", "metric"));
        for c in &self.counters {
            out.push_str(&format!("{:<width$}  {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("{:<width$}  {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            let mean = if h.count > 0 { h.sum as f64 / h.count as f64 } else { 0.0 };
            out.push_str(&format!(
                "{:<width$}  count {} mean {:.1}  ",
                h.name, h.count, mean
            ));
            if h.count == 0 {
                out.push_str("(empty)\n");
                continue;
            }
            let parts: Vec<String> = h
                .buckets
                .iter()
                .filter(|b| b.count > 0)
                .map(|b| {
                    if b.le == u64::MAX {
                        format!("<=inf: {}", b.count)
                    } else {
                        format!("<={}: {}", b.le, b.count)
                    }
                })
                .collect();
            out.push_str(&parts.join("  "));
            out.push('\n');
        }
        out
    }
}

/// Append `from` to `into`, sort stably by `key`, and fold each run of
/// entries with equal keys into its first with `add`.
fn merge_sorted<T, K: Ord + ?Sized>(
    into: &mut Vec<T>,
    from: Vec<T>,
    key: impl Fn(&T) -> &K,
    add: impl Fn(&mut T, &mut T),
) {
    into.extend(from);
    into.sort_by(|a, b| key(a).cmp(key(b)));
    into.dedup_by(|later, kept| key(later) == key(kept) && {
        add(kept, later);
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("requests");
        c.inc();
        c.add(4);
        let g = reg.gauge("backlog");
        g.set(7);
        assert_eq!(g.add(-3), 4);
        let h = reg.histogram("lat_us", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5000);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 4);
        assert_eq!(h.count(), 3);
        let snap = reg.snapshot();
        let buckets: Vec<(u64, u64)> =
            snap.histogram("lat_us").unwrap().buckets.iter().map(|b| (b.le, b.count)).collect();
        assert_eq!(buckets, [(10, 1), (100, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn name_type_conflicts_panic() {
        let reg = Registry::new();
        let _c = reg.counter("dual");
        let _g = reg.gauge("dual");
    }

    #[test]
    fn snapshot_is_sorted_serializable_and_mergeable() {
        let reg = Registry::new();
        reg.counter("z.last").add(2);
        reg.counter("a.first").add(1);
        reg.gauge("m.mid").set(-3);
        reg.histogram("h", &[1, 2]).record(2);
        let mut snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "a.first");
        assert_eq!(snap.counters[1].name, "z.last");
        assert_eq!(snap.gauges[0].value, -3);
        assert_eq!(snap.histograms[0].buckets.len(), 3);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        let other = Registry::new();
        other.counter("k.other").inc();
        snap.merge(other.snapshot());
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "k.other", "z.last"]);
    }

    #[test]
    fn merge_adds_by_name_and_histograms_bucket_wise() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("req").add(10);
        a.counter("only.a").inc();
        a.gauge("cells").set(3);
        b.counter("req").add(5);
        b.gauge("cells").set(-1);
        b.gauge("only.b").set(7);
        // Different bounds: buckets align on `le`, unmatched ones carry over.
        let (ha, hb) = (a.histogram("lat_us", &[100]), b.histogram("lat_us", &[10, 100]));
        [50, 500].into_iter().for_each(|v| ha.record(v));
        [5, 60].into_iter().for_each(|v| hb.record(v));
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        assert_eq!((snap.counter("req"), snap.counter("only.a")), (Some(15), Some(1)));
        assert_eq!(snap.counter("absent"), None);
        assert_eq!((snap.gauge("cells"), snap.gauge("only.b")), (Some(2), Some(7)));
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["only.a", "req"], "one entry per name, sorted");
        let h = snap.histogram("lat_us").expect("merged histogram");
        let buckets: Vec<(u64, u64)> = h.buckets.iter().map(|b| (b.le, b.count)).collect();
        assert_eq!((h.count, h.sum, buckets), (4, 615, vec![(10, 1), (100, 2), (u64::MAX, 1)]));

        // Duplicate names inside one snapshot collapse too.
        let named = |name: &str, value| NamedValue { name: name.into(), value };
        let counters = vec![named("z", 1), named("a", 2), named("z", 3)];
        let mut dup = MetricsSnapshot { counters, ..Default::default() };
        dup.merge(MetricsSnapshot::default());
        assert_eq!(dup.counters, [named("a", 2), named("z", 4)]);
    }

    #[test]
    fn table_renders_all_sections() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(9);
        reg.histogram("h_us", &[10]).record(3);
        let t = reg.snapshot().render_table();
        assert!(t.contains("c"), "{t}");
        assert!(t.lines().any(|l| l.starts_with("c ") && l.ends_with('3')), "{t}");
        assert!(t.contains("<=10: 1"), "{t}");
        // Empty histogram renders a placeholder, not garbage.
        let reg2 = Registry::new();
        reg2.histogram("empty", &[1]);
        assert!(reg2.snapshot().render_table().contains("(empty)"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("mt");
        let h = reg.histogram("mt_h", &[1_000]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.count(), 4_000);
    }
}
