//! Live telemetry — periodic registry samples written into the trace.
//!
//! [`start`] spawns a background thread that snapshots the registry every
//! `interval` and appends one `sample` record per tick to the open
//! `soup-trace/1` sink, so a long training or souping run can be watched
//! live (`soupctl obs tail`) instead of only summarized at exit. One run
//! yields one file: the samples share the trace's header, clock and
//! validator ([`crate::trace::validate_file`]), and [`crate::trace::finish`]
//! stops the sampler — after one final sample — before it appends the
//! closing `metrics` record.
//!
//! A `sample` record carries `seq` (counting up from 0), `ts_us`, `tid`,
//! `rss_bytes` (from `/proc/self/status`, 0 where absent), `counters`,
//! `gauges`, `histograms` and `spans`. Each entry in `counters` is
//! `{"total": u64, "delta": u64}` — the running value and the change since
//! the previous tick (`total` of the first sample doubles as its delta),
//! so rates fall out without post-processing. `gauges` are instantaneous
//! values; `histograms` and `spans` are full summary digests per tick.
//!
//! External crates publish into the samples through [`register_probe`]: the
//! sampler runs every probe immediately before each snapshot, so e.g.
//! `soup-tensor` can refresh `tensor.mem.live_bytes`/`pooled`/`peak` gauges
//! without `soup-obs` depending on it.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Number, Value};
use soup_error::{Result, SoupError};

use crate::registry::HistogramSummary;

type Probe = Box<dyn Fn() + Send>;

/// Probes registered by other crates, run before every sample tick.
fn probes() -> &'static Mutex<Vec<Probe>> {
    static PROBES: std::sync::OnceLock<Mutex<Vec<Probe>>> = std::sync::OnceLock::new();
    PROBES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a sampler probe: a closure the sampler thread calls immediately
/// before each registry snapshot. Probes should refresh gauges from state
/// the registry cannot see itself (e.g. pool occupancy); they must be cheap
/// and must not block.
pub fn register_probe(probe: impl Fn() + Send + 'static) {
    probes().lock().push(Box::new(probe));
}

/// Run all registered probes (also used by one-shot snapshot paths so
/// end-of-run reports include probe-fed gauges).
pub fn run_probes() {
    for probe in probes().lock().iter() {
        probe();
    }
}

/// A `kB` field of `/proc/self/status` in bytes (`None` on platforms
/// without procfs).
fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> Option<u64> {
    status_kib("VmRSS")
}

/// Peak resident set size of this process in bytes (`VmHWM`, the RSS
/// high-water mark) — the number `bench_shard` records per process to
/// demonstrate the sharded ≈ R/K memory curve. `None` on platforms without
/// procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM")
}

/// The running sampler: its stop channel and thread.
static SAMPLER: Mutex<Option<(mpsc::Sender<()>, JoinHandle<()>)>> = Mutex::new(None);

/// Start a background sampler appending a `sample` record to the open
/// trace sink every `interval` (clamped to ≥ 1ms). The sampler writes one
/// final sample when it stops, so even runs shorter than one interval get
/// one. Errors if no trace sink is open or a sampler is already running.
pub fn start(interval: Duration) -> Result<()> {
    if !crate::trace::active() {
        return Err(SoupError::usage(
            "the metrics sampler needs an open trace sink",
        ));
    }
    let mut sampler = SAMPLER.lock();
    if sampler.is_some() {
        return Err(SoupError::usage("a metrics sampler is already running"));
    }
    let interval = interval.max(Duration::from_millis(1));
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let join = std::thread::Builder::new()
        .name("soup-obs-sampler".into())
        .spawn(move || {
            let mut prev_counters: BTreeMap<String, u64> = BTreeMap::new();
            for seq in 0.. {
                let stopping = !matches!(
                    stop_rx.recv_timeout(interval),
                    Err(RecvTimeoutError::Timeout)
                );
                crate::trace::write_record(sample_value(seq, &mut prev_counters));
                if stopping {
                    break;
                }
            }
        })?;
    *sampler = Some((stop_tx, join));
    Ok(())
}

/// Stop the running sampler, if any, once it has written its final sample.
pub(crate) fn stop() {
    let sampler = SAMPLER.lock().take();
    if let Some((stop_tx, join)) = sampler {
        let _ = stop_tx.send(());
        let _ = join.join();
    }
}

/// Build one `sample` record: run probes, snapshot the registry, compute
/// counter deltas against `prev_counters` (updated in place).
fn sample_value(seq: u64, prev_counters: &mut BTreeMap<String, u64>) -> Value {
    run_probes();
    let snap = crate::registry::snapshot();
    let ts_us = crate::trace::since_start_us(std::time::Instant::now());
    let counters: Vec<(String, Value)> = snap
        .counters
        .iter()
        .map(|(name, total)| {
            // saturating: a registry reset mid-run (bench cells) makes the
            // total drop; the delta is then 0 rather than an underflow.
            let delta = total.saturating_sub(prev_counters.get(name).copied().unwrap_or(0));
            prev_counters.insert(name.clone(), *total);
            (
                name.clone(),
                Value::Object(vec![
                    ("total".into(), Value::Number(Number::PosInt(*total))),
                    ("delta".into(), Value::Number(Number::PosInt(delta))),
                ]),
            )
        })
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), Value::Number(Number::Float(*v))))
        .collect();
    let digests = |entries: &[(String, HistogramSummary)]| {
        Value::Object(
            entries
                .iter()
                .map(|(k, h)| (k.clone(), h.to_value()))
                .collect(),
        )
    };
    Value::Object(vec![
        ("type".into(), Value::String("sample".into())),
        ("seq".into(), Value::Number(Number::PosInt(seq))),
        ("ts_us".into(), Value::Number(Number::PosInt(ts_us))),
        (
            "tid".into(),
            Value::Number(Number::PosInt(crate::trace::thread_ordinal())),
        ),
        (
            "rss_bytes".into(),
            Value::Number(Number::PosInt(rss_bytes().unwrap_or(0))),
        ),
        ("counters".into(), Value::Object(counters)),
        ("gauges".into(), Value::Object(gauges)),
        ("histograms".into(), digests(&snap.histograms)),
        ("spans".into(), digests(&snap.spans)),
    ])
}

/// One parsed `sample` record (see [`crate::trace::TraceStats::samples`]).
#[derive(Debug, Clone)]
pub struct Sample {
    pub seq: u64,
    pub ts_us: u64,
    pub rss_bytes: u64,
    /// `(name, total, delta)` per counter.
    pub counters: Vec<(String, u64, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
    pub spans: Vec<(String, HistogramSummary)>,
}

impl Sample {
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, total, _)| *total)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body` with a trace sink open and a sampler ticking every
    /// `interval`, then finish the trace and return its validated stats.
    fn sampled_trace(
        name: &str,
        interval: Duration,
        body: impl FnOnce(),
    ) -> crate::trace::TraceStats {
        let path =
            std::env::temp_dir().join(format!("soup_series_{name}_{}.jsonl", std::process::id()));
        crate::trace::init(&path).unwrap();
        start(interval).unwrap();
        body();
        assert_eq!(crate::trace::finish(), Some(path.clone()));
        let stats = crate::trace::validate_file(&path).expect("trace validates");
        std::fs::remove_file(&path).ok();
        stats
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_at_least_current_rss() {
        let peak = peak_rss_bytes().expect("procfs available on linux");
        let now = rss_bytes().expect("procfs available on linux");
        assert!(peak >= now, "VmHWM {peak} < VmRSS {now}");
        assert!(peak > 0);
    }

    #[test]
    fn sampler_emits_valid_series_with_counter_deltas() {
        let _serial = crate::test_serial();
        crate::registry::set_enabled(true);
        let counter = crate::registry::counter("test.series.ticks");
        let before = counter.get();
        let stats = sampled_trace("roundtrip", Duration::from_millis(2), || {
            for _ in 0..10 {
                counter.inc();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(stats.has_metrics, "finish must still close with `metrics`");
        assert!(!stats.samples.is_empty());
        let last = stats.samples.last().unwrap();
        assert_eq!(last.counter_total("test.series.ticks"), Some(before + 10));
        // Deltas across the samples sum to the final total (first delta
        // includes the pre-existing value).
        let delta_sum: u64 = stats
            .samples
            .iter()
            .filter_map(|s| {
                s.counters
                    .iter()
                    .find(|(n, _, _)| n == "test.series.ticks")
                    .map(|(_, _, d)| *d)
            })
            .sum();
        assert_eq!(delta_sum, before + 10);
    }

    #[test]
    fn probes_feed_gauges_into_samples() {
        let _serial = crate::test_serial();
        crate::registry::set_enabled(true);
        register_probe(|| crate::registry::gauge("test.series.probe").set(42.5));
        // Finish immediately: the final forced sample still runs probes.
        let stats = sampled_trace("probe", Duration::from_millis(50), || {});
        assert!(stats
            .samples
            .iter()
            .any(|s| s.gauge("test.series.probe") == Some(42.5)));
    }

    #[test]
    fn start_needs_a_sink_and_at_most_one_sampler() {
        let _serial = crate::test_serial();
        assert!(!crate::trace::active());
        let err = start(Duration::from_millis(5)).unwrap_err();
        assert!(err.to_string().contains("trace sink"), "{err}");
        sampled_trace("twice", Duration::from_millis(5), || {
            let err = start(Duration::from_millis(5)).unwrap_err();
            assert!(err.to_string().contains("already running"), "{err}");
        });
    }
}
