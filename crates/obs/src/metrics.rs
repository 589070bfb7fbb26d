//! The static metric registry: counters and log-bucketed histograms
//! with thread-sharded atomic cells.
//!
//! Metrics are `static` items constructed with `const fn`s — no
//! registration boilerplate, no startup ordering:
//!
//! ```
//! use netdsl_obs::metrics::{set_metrics_enabled, snapshot, Counter, Histogram, Tally};
//!
//! static FRAMES: Counter = Counter::new("doc.frames");
//! static BYTES: Histogram = Histogram::new("doc.frame_bytes");
//!
//! set_metrics_enabled(true);
//! FRAMES.incr();
//! let mut sizes = Tally::default();
//! sizes.record(256);
//! BYTES.add(&sizes);
//! assert_eq!(snapshot().counter("doc.frames"), Some(1));
//! ```
//!
//! Every update first checks the process-wide enable flag (one relaxed
//! atomic load — the whole cost of the disabled path), then registers
//! the metric on first touch (the one allocation a metric ever makes,
//! absorbed by warm-up) and bumps thread-sharded relaxed atomics. A
//! histogram hears whole [`Tally`]s, which their owner fills with plain
//! adds. After warm-up no update allocates, which is what lets the
//! simulator's `alloc_zero` invariant hold with metrics enabled.
//!
//! [`snapshot`] folds every shard of every registered metric into a
//! [`MetricsSnapshot`] sorted by metric name: the merge is a plain sum,
//! so the snapshot is identical whatever number of threads produced the
//! updates (pinned by the thread-count-invariance test).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::json::Value;

/// Schema identifier embedded in every serialized snapshot.
pub const METRICS_SCHEMA: &str = "netdsl-metrics/2";

/// Number of per-metric cell shards. Threads hash onto shards by a
/// process-wide round-robin id, so contention stays low without
/// per-thread storage proportional to the metric count.
const SHARDS: usize = 16;

/// Histogram bucket count: bucket `k > 0` counts values in
/// `[2^(k-1), 2^k)`; bucket 0 counts zeros; values at or above
/// `2^(BUCKETS-2)` collapse into the top bucket.
const BUCKETS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the process-wide metric registry on or off, returning the
/// previous state. Disabled (the default), every update is a single
/// relaxed load and branch; values already recorded stay readable.
pub fn set_metrics_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Whether the registry is currently recording.
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread's shard index, assigned round-robin on first use.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard() -> usize {
    SHARD.with(|s| *s)
}

/// What the global registry holds: `&'static` references pushed by each
/// metric on its first recorded update.
enum MetricRef {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

/// Pushes `metric` to the registry the first time `registered` flips.
fn register_once(registered: &AtomicBool, metric: MetricRef) {
    // Steady state is the relaxed load; the CAS (an atomic RMW even
    // when it fails) runs only until the first registration wins.
    if registered.load(Ordering::Relaxed) {
        return;
    }
    if registered
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        // A simulator registers from `Drop`, which must not panic; a
        // push leaves the list valid, so a poisoned lock's list is too.
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(metric);
    }
}

/// A monotonically increasing count with thread-sharded cells.
pub struct Counter {
    name: &'static str,
    registered: AtomicBool,
    cells: [AtomicU64; SHARDS],
}

impl Counter {
    /// A counter static. `name` should be dot-namespaced
    /// (`"sim.frames_sent"`); snapshots sort by it.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            registered: AtomicBool::new(false),
            cells: [const { AtomicU64::new(0) }; SHARDS],
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op while the registry is disabled).
    pub fn add(&'static self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        register_once(&self.registered, MetricRef::Counter(self));
        self.cells[shard()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one (no-op while the registry is disabled).
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The merged value across every shard.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// One shard of a histogram: count, sum and power-of-two buckets.
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A log2-bucketed value distribution with thread-sharded cells.
/// Bucket `k > 0` counts observations in `[2^(k-1), 2^k)`; bucket 0
/// counts zeros.
pub struct Histogram {
    name: &'static str,
    registered: AtomicBool,
    shards: [HistShard; SHARDS],
}

/// Bucket index for a value (see [`Histogram`]).
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// A histogram's count, sum and log2 buckets as plain fields, for one
/// owner to fill on its hot path and hand to [`Histogram::add`] once.
/// Recording a value is three plain adds: no enable check, no shard
/// lookup, no atomic.
///
/// ```
/// use netdsl_obs::metrics::Tally;
/// let mut sizes = Tally::default();
/// sizes.record(3);
/// sizes.record(900);
/// assert_eq!(sizes.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    count: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Tally {
    /// Counts one value into its bucket (see [`Histogram`]).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_of(v)] += 1;
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Histogram {
    /// A histogram static (see [`Counter::new`] for naming).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            registered: AtomicBool::new(false),
            shards: [const {
                HistShard {
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    buckets: [const { AtomicU64::new(0) }; BUCKETS],
                }
            }; SHARDS],
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds a whole [`Tally`] to this thread's shard in one call (no-op
    /// while the registry is disabled).
    pub fn add(&'static self, tally: &Tally) {
        if !metrics_enabled() {
            return;
        }
        register_once(&self.registered, MetricRef::Histogram(self));
        let s = &self.shards[shard()];
        s.count.fetch_add(tally.count, Ordering::Relaxed);
        s.sum.fetch_add(tally.sum, Ordering::Relaxed);
        for (cell, &n) in s.buckets.iter().zip(&tally.buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Observations recorded across every shard.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    fn merged(&self) -> HistogramSnapshot {
        let mut count = 0;
        let mut sum = 0;
        let mut totals = [0u64; BUCKETS];
        for s in &self.shards {
            count += s.count.load(Ordering::Relaxed);
            sum += s.sum.load(Ordering::Relaxed);
            for (t, b) in totals.iter_mut().zip(&s.buckets) {
                *t += b.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum,
            buckets: totals
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(k, &n)| (k as u32, n))
                .collect(),
        }
    }

    fn reset(&self) {
        for s in &self.shards {
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The merged state of one histogram: total count, total sum, and the
/// non-empty buckets as `(bucket index, count)` pairs (bucket `k > 0`
/// covers `[2^(k-1), 2^k)`; bucket 0 covers exactly zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of every observed value.
    pub sum: u64,
    /// Non-empty `(bucket, count)` pairs in bucket order.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A deterministic cross-thread merge of every registered metric,
/// sorted by metric name — identical whatever thread count produced
/// the updates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Takes a snapshot of every registered metric. Metrics a run never
/// touched (or touched only while disabled) are absent.
pub fn snapshot() -> MetricsSnapshot {
    let registry = REGISTRY.lock().unwrap();
    let mut counters = Vec::new();
    let mut histograms = Vec::new();
    for m in registry.iter() {
        match m {
            MetricRef::Counter(c) => counters.push((c.name.to_string(), c.value())),
            MetricRef::Histogram(h) => histograms.push(h.merged()),
        }
    }
    counters.sort();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// Zeroes every registered metric (the registration itself survives).
/// For harnesses and tests that need a clean slate — production code
/// should prefer snapshot deltas.
pub fn reset_all() {
    let registry = REGISTRY.lock().unwrap();
    for m in registry.iter() {
        match m {
            MetricRef::Counter(c) => c.reset(),
            MetricRef::Histogram(h) => h.reset(),
        }
    }
}

impl MetricsSnapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Histogram state by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// Serializes to the canonical JSON tree. Counts are carried as JSON
    /// numbers (`f64`); values above 2^53 would lose precision, far
    /// beyond any session count this workspace produces.
    pub fn to_json(&self) -> Value {
        let mut counters = Value::object();
        for (name, v) in &self.counters {
            counters = counters.set(name.as_str(), *v as f64);
        }
        Value::object()
            .set("schema", METRICS_SCHEMA)
            .set("counters", counters)
            .set(
                "histograms",
                Value::Array(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Value::object()
                                .set("name", h.name.as_str())
                                .set("count", h.count as f64)
                                .set("sum", h.sum as f64)
                                .set(
                                    "buckets",
                                    Value::Array(
                                        h.buckets
                                            .iter()
                                            .map(|&(k, n)| {
                                                Value::Array(vec![
                                                    Value::Number(f64::from(k)),
                                                    Value::Number(n as f64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
    }

    /// Serializes to canonical JSON text (deterministic: sorted names,
    /// fixed member order, trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a canonical JSON tree back into a snapshot.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field, or the schema
    /// mismatch.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema")?;
        if schema != METRICS_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {METRICS_SCHEMA:?})"
            ));
        }
        let counters = v
            .get("counters")
            .and_then(Value::as_object)
            .ok_or("missing counters")?
            .iter()
            .map(|(name, n)| {
                n.as_u64()
                    .map(|n| (name.clone(), n))
                    .ok_or_else(|| format!("counter {name} must be a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = v
            .get("histograms")
            .and_then(Value::as_array)
            .ok_or("missing histograms")?
            .iter()
            .map(|h| {
                let name = h
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("histogram missing name")?
                    .to_string();
                let buckets = h
                    .get("buckets")
                    .and_then(Value::as_array)
                    .ok_or("histogram missing buckets")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array().ok_or("bucket must be a [k, n] pair")?;
                        match pair {
                            [k, n] => Ok((
                                k.as_u64().ok_or("bucket index must be a number")? as u32,
                                n.as_u64().ok_or("bucket count must be a number")?,
                            )),
                            _ => Err("bucket must be a [k, n] pair".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(HistogramSnapshot {
                    name,
                    count: h
                        .get("count")
                        .and_then(Value::as_u64)
                        .ok_or("histogram missing count")?,
                    sum: h
                        .get("sum")
                        .and_then(Value::as_u64)
                        .ok_or("histogram missing sum")?,
                    buckets,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MetricsSnapshot {
            counters,
            histograms,
        })
    }

    /// Parses canonical JSON text.
    ///
    /// # Errors
    ///
    /// As for [`MetricsSnapshot::from_json`], plus JSON syntax errors.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Value::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        MetricsSnapshot::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that toggle it serialize
    /// through this lock (and restore the prior state on drop).
    static SERIAL: Mutex<()> = Mutex::new(());

    struct Enabled {
        was: bool,
        _guard: std::sync::MutexGuard<'static, ()>,
    }

    fn enabled() -> Enabled {
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        Enabled {
            was: set_metrics_enabled(true),
            _guard: guard,
        }
    }

    impl Drop for Enabled {
        fn drop(&mut self) {
            set_metrics_enabled(self.was);
        }
    }

    #[test]
    fn counters_merge_across_shards() {
        static HITS: Counter = Counter::new("test.hits");
        let _on = enabled();
        let before_hits = HITS.value();
        HITS.add(5);
        HITS.incr();
        assert_eq!(HITS.value() - before_hits, 6);
        assert_eq!(snapshot().counter("test.hits"), Some(HITS.value()));
    }

    #[test]
    fn disabled_updates_are_dropped() {
        static GHOST: Counter = Counter::new("test.ghost");
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let was = set_metrics_enabled(false);
        GHOST.add(7);
        assert_eq!(GHOST.value(), 0, "disabled add must not record");
        assert_eq!(snapshot().counter("test.ghost"), None, "never registered");
        set_metrics_enabled(was);
        drop(guard);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);

        static SIZES: Histogram = Histogram::new("test.sizes");
        let _on = enabled();
        let before = SIZES.count();
        let mut tally = Tally::default();
        for v in [0, 1, 2, 3, 900] {
            tally.record(v);
        }
        assert_eq!(tally.count(), 5);
        SIZES.add(&tally);
        SIZES.add(&Tally::default());
        assert_eq!(SIZES.count() - before, 5);
        let snap = snapshot();
        let h = snap.histogram("test.sizes").unwrap();
        assert!(h.sum >= 906);
        assert!(h.buckets.iter().any(|&(k, _)| k == 10), "900 lands in k=10");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        static RT: Counter = Counter::new("test.roundtrip");
        static RT_H: Histogram = Histogram::new("test.roundtrip_sizes");
        let _on = enabled();
        RT.add(3);
        let mut tally = Tally::default();
        tally.record(100);
        RT_H.add(&tally);
        let snap = snapshot();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json_string(), text, "re-serialization is stable");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let _on = enabled();
        let v = snapshot().to_json().set("schema", "netdsl-metrics/999");
        assert!(MetricsSnapshot::from_json(&v).is_err());
    }

    #[test]
    fn merge_is_thread_count_invariant() {
        // The same workload split across 1, 2, 4 and 8 threads must
        // produce byte-identical snapshots of these metrics: the merge
        // is a shard sum and the serialization sorts by name, so the
        // thread topology cannot leak into the result.
        static INV_C: Counter = Counter::new("test.invariant_count");
        static INV_H: Histogram = Histogram::new("test.invariant_sizes");
        let _on = enabled();
        const TOTAL: u64 = 4_000;
        let mut dumps = Vec::new();
        for threads in [1u64, 2, 4, 8] {
            reset_all();
            let per = TOTAL / threads;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        // Each thread adds its tally in halves, so a
                        // histogram hears several adds per shard.
                        let mut tally = Tally::default();
                        for i in 0..per {
                            INV_C.incr();
                            tally.record(t * per + i);
                            if i == per / 2 {
                                INV_H.add(&tally);
                                tally = Tally::default();
                            }
                        }
                        INV_H.add(&tally);
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(snap.counter("test.invariant_count"), Some(TOTAL));
            let h = snap.histogram("test.invariant_sizes").unwrap();
            assert_eq!(h.count, TOTAL);
            assert_eq!(h.sum, TOTAL * (TOTAL - 1) / 2);
            // Keep only the invariant metrics: other tests in this
            // process may bump unrelated ones concurrently.
            let pruned = MetricsSnapshot {
                counters: vec![snap.counters[snap
                    .counters
                    .iter()
                    .position(|(n, _)| n == "test.invariant_count")
                    .unwrap()]
                .clone()],
                histograms: vec![h.clone()],
            };
            dumps.push(pruned.to_json_string());
        }
        for d in &dumps[1..] {
            assert_eq!(d, &dumps[0], "snapshot depends on thread count");
        }
    }

    #[test]
    fn reset_all_zeroes_registered_metrics() {
        static RZ: Counter = Counter::new("test.reset");
        let _on = enabled();
        RZ.add(9);
        assert!(RZ.value() >= 9);
        reset_all();
        assert_eq!(RZ.value(), 0);
    }
}
