//! Global metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! All instruments are lock-free on the record path (relaxed atomics, same
//! discipline as `soup_tensor::memory`); the registry maps are only locked
//! when an instrument is first created or when a snapshot is taken.
//! Increments are never dropped: a counter bumped from N threads reads
//! exactly the sum of all `add` calls, and a histogram's total count equals
//! the number of `record` calls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Number, Value};

/// Master switch for metric recording (default on). When off, `inc`/`add`/
/// `set`/`record` degrade to a single relaxed load — this is the "disabled
/// instrumentation" configuration measured by the overhead bench.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable all metric recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.0.store(value.to_bits(), Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }

    pub fn reset(&self) {
        self.0.store(0f64.to_bits(), Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two, i.e. values
/// land in a bucket whose width is 1/8 of their magnitude (≤ ~12.5% relative
/// quantile error). Values below 8 get exact unit buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Octaves `SUB_BITS..=63` contribute `SUB` buckets each, on top of the `SUB`
/// exact small-value buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let mantissa = ((value >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (exp - SUB_BITS + 1) as usize * SUB + mantissa
}

/// Smallest value mapping to `index` (inverse of [`bucket_index`]).
fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let exp = SUB_BITS + (index / SUB) as u32 - 1;
    let mantissa = (index % SUB) as u64;
    (1u64 << exp) + (mantissa << (exp - SUB_BITS))
}

/// Midpoint of the bucket, used as the representative value for quantiles.
fn bucket_mid(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let exp = SUB_BITS + (index / SUB) as u32 - 1;
    bucket_lower_bound(index) + (1u64 << (exp - SUB_BITS)) / 2
}

/// Log-bucketed histogram of `u64` samples (typically nanoseconds or sizes).
///
/// Recording touches five relaxed atomics and never allocates or locks, so
/// it is safe on hot paths and exact under contention: `count()` equals the
/// number of `record` calls and `sum()` their exact total.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    pub fn min(&self) -> u64 {
        let v = self.min.load(Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`); exact for values below 8,
    /// within one sub-bucket (≤ ~12.5% relative error) above.
    pub fn quantile(&self, q: f64) -> u64 {
        self.view().quantile(q)
    }

    /// Copy the buckets once and read `min`/`max` once. Writers may race
    /// with the copy, so everything a digest reports is derived from this
    /// one view rather than from re-reads that can disagree.
    fn view(&self) -> View {
        let mut buckets = [0u64; BUCKETS];
        for (copy, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *copy = bucket.load(Relaxed);
        }
        // A first `record` caught between its `fetch_min` and `fetch_max`
        // (or whose bucket is visible before either) leaves the raw pair
        // unordered; the smaller of the two is always a valid lower end.
        let max = self.max.load(Relaxed);
        View {
            count: buckets.iter().sum(),
            min: self.min.load(Relaxed).min(max),
            max,
            buckets,
        }
    }

    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }

    /// Point-in-time digest. `min ≤ p50 ≤ p95 ≤ p99 ≤ max` and
    /// `min ≤ mean ≤ max` hold even while other threads record: the
    /// quantiles come from one copy of the buckets and are clamped into one
    /// ordered `[min, max]` pair, as is the mean.
    pub fn summary(&self) -> HistogramSummary {
        let view = self.view();
        let sum = self.sum();
        let mean = if view.count == 0 {
            0.0
        } else {
            (sum as f64 / view.count as f64).clamp(view.min as f64, view.max as f64)
        };
        HistogramSummary {
            count: view.count,
            sum,
            min: view.min,
            max: view.max,
            mean,
            p50: view.quantile(0.50),
            p95: view.quantile(0.95),
            p99: view.quantile(0.99),
        }
    }
}

/// One racy-but-single read of a [`Histogram`]: `count` is the total of the
/// copied buckets and `min ≤ max`.
struct View {
    buckets: [u64; BUCKETS],
    count: u64,
    min: u64,
    max: u64,
}

impl View {
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSummary {
    /// Rebuild a summary from its [`Self::to_value`] JSON form.
    pub fn from_value(value: &Value) -> Option<Self> {
        Some(Self {
            count: value.get("count")?.as_u64()?,
            sum: value.get("sum")?.as_u64()?,
            min: value.get("min")?.as_u64()?,
            max: value.get("max")?.as_u64()?,
            mean: value.get("mean")?.as_f64()?,
            p50: value.get("p50")?.as_u64()?,
            p95: value.get("p95")?.as_u64()?,
            p99: value.get("p99")?.as_u64()?,
        })
    }

    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::Number(Number::PosInt(self.count))),
            ("sum".into(), Value::Number(Number::PosInt(self.sum))),
            ("min".into(), Value::Number(Number::PosInt(self.min))),
            ("max".into(), Value::Number(Number::PosInt(self.max))),
            ("mean".into(), Value::Number(Number::Float(self.mean))),
            ("p50".into(), Value::Number(Number::PosInt(self.p50))),
            ("p95".into(), Value::Number(Number::PosInt(self.p95))),
            ("p99".into(), Value::Number(Number::PosInt(self.p99))),
        ])
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Span wall-time histograms (nanoseconds), keyed by full span path.
    /// Kept separate from user histograms so the reporter can build the tree.
    spans: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Span thread-CPU-time histograms (nanoseconds), same keys as `spans`.
    /// Populated only while [`crate::attrib`] is enabled.
    span_cpu: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Span allocation-delta histograms (bytes), same keys as `spans`.
    span_alloc: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Get or create the counter with this name.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().counters.lock();
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new())),
    )
}

/// Get or create the gauge with this name.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = registry().gauges.lock();
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new())),
    )
}

/// Get or create the histogram with this name.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().histograms.lock();
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

/// Get or create the span-timing histogram for this span path (nanoseconds).
pub(crate) fn span_histogram(path: &str) -> Arc<Histogram> {
    let mut map = registry().spans.lock();
    Arc::clone(
        map.entry(path.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

/// Get or create the span thread-CPU histogram for this path (nanoseconds).
pub(crate) fn span_cpu_histogram(path: &str) -> Arc<Histogram> {
    let mut map = registry().span_cpu.lock();
    Arc::clone(
        map.entry(path.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

/// Get or create the span allocation-delta histogram for this path (bytes).
pub(crate) fn span_alloc_histogram(path: &str) -> Arc<Histogram> {
    let mut map = registry().span_alloc.lock();
    Arc::clone(
        map.entry(path.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

/// Zero every registered instrument (instruments stay registered, so cached
/// `counter!` handles remain valid). Used between bench cells and in tests.
pub fn reset() {
    for c in registry().counters.lock().values() {
        c.reset();
    }
    for g in registry().gauges.lock().values() {
        g.reset();
    }
    for h in registry().histograms.lock().values() {
        h.reset();
    }
    for h in registry().spans.lock().values() {
        h.reset();
    }
    for h in registry().span_cpu.lock().values() {
        h.reset();
    }
    for h in registry().span_alloc.lock().values() {
        h.reset();
    }
}

/// Point-in-time view of every registered instrument, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Span wall-time digests (nanoseconds), keyed by full span path.
    pub spans: Vec<(String, HistogramSummary)>,
    /// Span thread-CPU digests (nanoseconds); present only for paths closed
    /// while [`crate::attrib`] was enabled.
    pub span_cpu: Vec<(String, HistogramSummary)>,
    /// Span allocation-delta digests (bytes); same coverage as `span_cpu`.
    pub span_alloc: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// JSON form used for trace `metrics` records and bench sidecar files.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::PosInt(*v))))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::Float(*v))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        let span_cpu = self
            .span_cpu
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        let span_alloc = self
            .span_alloc
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
            ("spans".into(), Value::Object(spans)),
            ("span_cpu".into(), Value::Object(span_cpu)),
            ("span_alloc".into(), Value::Object(span_alloc)),
        ])
    }
}

/// Snapshot the entire registry.
pub fn snapshot() -> MetricsSnapshot {
    let counters = registry()
        .counters
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let gauges = registry()
        .gauges
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let histograms = registry()
        .histograms
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.summary()))
        .collect();
    let spans = registry()
        .spans
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.summary()))
        .collect();
    let span_cpu = registry()
        .span_cpu
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.summary()))
        .collect();
    let span_alloc = registry()
        .span_alloc
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.summary()))
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
        spans,
        span_cpu,
        span_alloc,
    }
}

/// Snapshot the registry directly as a JSON value.
pub fn snapshot_value() -> Value {
    snapshot().to_value()
}

/// Rebuild a [`MetricsSnapshot`] from its JSON form (a trace `metrics`
/// record or a `sample` record). Unknown keys are ignored; the
/// `span_cpu`/`span_alloc` sections are optional for `soup-trace/1`
/// compatibility with traces written before attribution existed.
pub fn snapshot_from_value(value: &Value) -> Option<MetricsSnapshot> {
    fn object<'a>(value: &'a Value, key: &str) -> Option<&'a [(String, Value)]> {
        match value.get(key) {
            Some(Value::Object(fields)) => Some(fields),
            _ => None,
        }
    }
    fn summaries(fields: Option<&[(String, Value)]>) -> Vec<(String, HistogramSummary)> {
        fields
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), HistogramSummary::from_value(v)?)))
            .collect()
    }
    let counters = object(value, "counters")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect();
    let gauges = object(value, "gauges")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Some(MetricsSnapshot {
        counters,
        gauges,
        histograms: summaries(object(value, "histograms")),
        spans: summaries(object(value, "spans")),
        span_cpu: summaries(object(value, "span_cpu")),
        span_alloc: summaries(object(value, "span_alloc")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_invertible() {
        let mut values: Vec<u64> = (0..60)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift) + off))
            .collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotonic at {v}");
            assert!(
                bucket_lower_bound(idx) <= v,
                "lower bound {} > value {v}",
                bucket_lower_bound(idx)
            );
            assert!(idx + 1 >= BUCKETS || v < bucket_lower_bound(idx + 1));
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let _serial = crate::test_serial();
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.15, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.15, "p99 = {p99}");
    }

    #[test]
    fn quantile_at_exact_bucket_boundaries() {
        let _serial = crate::test_serial();
        // Power-of-two values sit exactly on bucket lower bounds: the first
        // value of each octave (mantissa 0). Quantiles must land in the
        // bucket that contains the exact rank, and the clamp to [min, max]
        // must keep the estimate inside the recorded range.
        let h = Histogram::new();
        for v in [8u64, 16, 32, 64, 128] {
            h.record(v);
        }
        // Ranks: q=0.2 -> rank 1 -> value 8's bucket; the bucket mid for a
        // boundary value must round-trip through bucket_index.
        for (q, expect) in [(0.2, 8u64), (0.4, 16), (0.6, 32), (0.8, 64), (1.0, 128)] {
            let got = h.quantile(q);
            assert_eq!(
                bucket_index(got),
                bucket_index(expect),
                "q={q}: estimate {got} left the exact bucket of {expect}"
            );
            assert!(
                (h.min()..=h.max()).contains(&got),
                "q={q}: {got} outside range"
            );
        }
        // q=0 clamps to rank 1 (the minimum's bucket), never to bucket 0.
        assert_eq!(bucket_index(h.quantile(0.0)), bucket_index(8));
    }

    #[test]
    fn quantile_boundary_between_adjacent_buckets() {
        let _serial = crate::test_serial();
        // 100 samples in bucket A, 100 in the adjacent bucket B. The p50
        // rank (100) is the *last* sample of A, p50+epsilon the first of B:
        // the estimate must switch buckets exactly at that boundary.
        let a = 1000u64;
        let b = bucket_lower_bound(bucket_index(a) + 1); // first value of next bucket
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(a);
        }
        for _ in 0..100 {
            h.record(b);
        }
        assert_eq!(bucket_index(h.quantile(0.50)), bucket_index(a));
        assert_eq!(bucket_index(h.quantile(0.505)), bucket_index(b));
        // Sub-8 values are exact unit buckets: the boundary is sharp.
        let small = Histogram::new();
        for _ in 0..50 {
            small.record(3);
        }
        for _ in 0..50 {
            small.record(4);
        }
        assert_eq!(small.quantile(0.50), 3);
        assert_eq!(small.quantile(0.51), 4);
        assert_eq!(small.quantile(1.0), 4);
    }

    #[test]
    fn digest_is_ordered_for_a_record_caught_midway() {
        // The state a reader sees when a first `record(500)` has done its
        // bucket, count, sum and `fetch_min` but not yet its `fetch_max`.
        let h = Histogram::new();
        h.buckets[bucket_index(500)].store(1, Relaxed);
        h.count.store(1, Relaxed);
        h.sum.store(500, Relaxed);
        h.min.store(500, Relaxed);
        let s = h.summary();
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64);
        assert_eq!(s.count, 1);
        assert_eq!(h.quantile(0.5), s.p50);
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _serial = crate::test_serial();
        let c = Counter::new();
        set_enabled(false);
        c.inc();
        set_enabled(true);
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn registry_reuses_instruments() {
        let _serial = crate::test_serial();
        let a = counter("test.registry.reuse");
        let b = counter("test.registry.reuse");
        a.add(2);
        assert_eq!(b.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_includes_everything() {
        let _serial = crate::test_serial();
        counter("test.snapshot.c").inc();
        gauge("test.snapshot.g").set(1.5);
        histogram("test.snapshot.h").record(42);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "test.snapshot.c" && *v >= 1));
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k == "test.snapshot.g" && *v == 1.5));
        assert!(snap
            .histograms
            .iter()
            .any(|(k, h)| k == "test.snapshot.h" && h.count >= 1));
        let json = serde_json::to_string(&snap.to_value()).unwrap();
        assert!(json.contains("\"counters\""));
    }
}
