//! Structured JSONL trace sink — one file per run, one JSON object per line.
//!
//! # Schema (`soup-trace/1`)
//!
//! Every line is a JSON object with a `type` field:
//!
//! | `type`    | required fields                                          |
//! |-----------|----------------------------------------------------------|
//! | `header`  | `schema` (= `"soup-trace/1"`), `pid`, `unix_time_s`      |
//! | `span`    | `path`, `ts_us`, `dur_us`, `tid` (+ optional `cpu_us`, `alloc_b`) |
//! | `event`   | `name`, `ts_us`, `tid`, `fields` (object)                |
//! | `log`     | `level` (`debug`/`info`/`warn`), `msg`, `ts_us`, `tid`   |
//! | `sample`  | `seq`, `ts_us`, `tid`, `rss_bytes`, `counters`, `gauges`, `histograms`, `spans` |
//! | `metrics` | `ts_us`, `counters`, `gauges`, `histograms`, `spans`     |
//!
//! The first line is always the `header`; `sample` records are the
//! periodic registry snapshots of [`crate::series`], and a `metrics` record
//! (the full registry snapshot) is appended last by [`finish`]. Timestamps
//! (`ts_us`) are microseconds since process start; `tid` is a small per-process thread
//! ordinal (the main thread is usually 0). Span records are written when the
//! span *closes*, so they are not sorted by start time. When
//! [`crate::attrib`] is enabled, span records additionally carry `cpu_us`
//! (thread CPU time) and `alloc_b` (tensor bytes allocated by the thread
//! inside the span).
//!
//! [`validate_file`] checks all of the above and is wired into CI via
//! `soupctl trace-validate`. Beyond per-record shape it enforces the
//! file-level invariants a real single-writer trace always satisfies:
//! nothing follows the `metrics` record, sample `seq` counts up from 0 and
//! each counter's `delta` matches the change in its `total`, per-thread
//! `ts_us` sequences are monotonic (event/log/sample timestamps and span
//! *end* times never go backwards within one `tid`), and span intervals
//! nest — a span may not close after an ancestor has closed, and
//! a parent's interval must contain every descendant's. Both catch the
//! truncation/merge corruption shapes a crashed or concatenated trace
//! produces.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

use parking_lot::Mutex;
use serde::{Number, Value};
use soup_error::{Result, SoupError};

use crate::registry::HistogramSummary;
use crate::series::Sample;

/// Version tag written into (and required from) every trace header.
pub const SCHEMA: &str = "soup-trace/1";

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

struct Sink {
    writer: BufWriter<File>,
    path: PathBuf,
}

/// Monotonic reference point for all `ts_us` timestamps. First caller wins,
/// so timestamps are comparable across the whole process.
pub(crate) fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

pub(crate) fn since_start_us(t: Instant) -> u64 {
    t.saturating_duration_since(process_start()).as_micros() as u64
}

/// Small per-process thread ordinal (std's `ThreadId` has no stable integer).
pub(crate) fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Relaxed);
    }
    TID.with(|t| *t)
}

/// Whether a trace sink is currently open. A single relaxed load, safe on
/// hot paths.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Relaxed)
}

/// Open a trace sink at `path` (truncating any existing file) and write the
/// schema header. Replaces any previously active sink without finalizing it;
/// a running sampler is stopped first, so its samples stay in the old file.
pub fn init(path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    process_start();
    crate::series::stop();
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    let unix_time_s = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let header = Value::Object(vec![
        ("type".into(), Value::String("header".into())),
        ("schema".into(), Value::String(SCHEMA.into())),
        (
            "pid".into(),
            Value::Number(Number::PosInt(std::process::id() as u64)),
        ),
        (
            "unix_time_s".into(),
            Value::Number(Number::PosInt(unix_time_s)),
        ),
    ]);
    let header = serde_json::to_string(&header).expect("header serializes");
    writeln!(writer, "{header}")?;
    *SINK.lock() = Some(Sink {
        writer,
        path: path.to_path_buf(),
    });
    ACTIVE.store(true, Relaxed);
    Ok(())
}

pub(crate) fn write_record(record: Value) {
    let Ok(line) = serde_json::to_string(&record) else {
        return;
    };
    let mut sink = SINK.lock();
    if let Some(sink) = sink.as_mut() {
        // Trace output is best-effort; a full disk should not kill training.
        let _ = writeln!(sink.writer, "{line}");
    }
}

fn now_us() -> u64 {
    since_start_us(Instant::now())
}

pub(crate) fn emit_span(
    path: &str,
    start: Instant,
    duration: Duration,
    deltas: Option<crate::attrib::Deltas>,
) {
    let mut fields = vec![
        ("type".into(), Value::String("span".into())),
        ("path".into(), Value::String(path.to_string())),
        (
            "ts_us".into(),
            Value::Number(Number::PosInt(since_start_us(start))),
        ),
        (
            "dur_us".into(),
            Value::Number(Number::PosInt(duration.as_micros() as u64)),
        ),
        (
            "tid".into(),
            Value::Number(Number::PosInt(thread_ordinal())),
        ),
    ];
    // Attribution (optional in the schema): on-core CPU time and tensor
    // bytes allocated by this thread while the span was open.
    if let Some(d) = deltas {
        fields.push((
            "cpu_us".into(),
            Value::Number(Number::PosInt(d.cpu_ns / 1_000)),
        ));
        fields.push((
            "alloc_b".into(),
            Value::Number(Number::PosInt(d.alloc_bytes)),
        ));
    }
    write_record(Value::Object(fields));
}

/// Append an `event` record. Prefer the [`crate::trace_event!`] macro, which
/// skips field serialization entirely when no sink is active.
pub fn emit_event(name: &str, fields: Vec<(String, Value)>) {
    if !active() {
        return;
    }
    write_record(Value::Object(vec![
        ("type".into(), Value::String("event".into())),
        ("name".into(), Value::String(name.to_string())),
        ("ts_us".into(), Value::Number(Number::PosInt(now_us()))),
        (
            "tid".into(),
            Value::Number(Number::PosInt(thread_ordinal())),
        ),
        ("fields".into(), Value::Object(fields)),
    ]));
}

pub(crate) fn emit_log(level: &str, msg: &str) {
    if !active() {
        return;
    }
    write_record(Value::Object(vec![
        ("type".into(), Value::String("log".into())),
        ("level".into(), Value::String(level.to_string())),
        ("msg".into(), Value::String(msg.to_string())),
        ("ts_us".into(), Value::Number(Number::PosInt(now_us()))),
        (
            "tid".into(),
            Value::Number(Number::PosInt(thread_ordinal())),
        ),
    ]));
}

/// Stop a running sampler (after its final sample), append the final
/// `metrics` record (full registry snapshot), flush, and close the sink.
/// The record is written and the sink closed under one lock, so nothing
/// can follow it. Returns the trace path if a sink was active.
pub fn finish() -> Option<PathBuf> {
    if !active() {
        return None;
    }
    crate::series::stop();
    let mut snapshot = crate::registry::snapshot_value();
    if let Value::Object(fields) = &mut snapshot {
        fields.insert(0, ("ts_us".into(), Value::Number(Number::PosInt(now_us()))));
        fields.insert(0, ("type".into(), Value::String("metrics".into())));
    }
    let line = serde_json::to_string(&snapshot);
    ACTIVE.store(false, Relaxed);
    let mut sink = SINK.lock().take()?;
    if let Ok(line) = line {
        let _ = writeln!(sink.writer, "{line}");
    }
    let _ = sink.writer.flush();
    Some(sink.path)
}

/// One parsed `span` record from a trace file, as consumed by the
/// flamegraph exporter ([`crate::flame`]) and run-diff ([`crate::diff`]).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub path: String,
    pub ts_us: u64,
    pub dur_us: u64,
    pub tid: u64,
    /// Thread CPU time, present when attribution was enabled.
    pub cpu_us: Option<u64>,
    /// Tensor bytes allocated by the thread inside the span.
    pub alloc_b: Option<u64>,
}

/// Read every `span` record from a trace file.
///
/// A light parse for offline tooling: the header's schema tag is checked,
/// span records must carry their required fields, and all other record
/// types are skipped without validation (run [`validate_file`] first for
/// full integrity checks).
pub fn read_spans(path: impl AsRef<Path>) -> Result<Vec<SpanRecord>> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path).map_err(|e| SoupError::io_at(path, e))?;
    let mut spans = Vec::new();
    for (idx, line) in content.lines().enumerate() {
        let line_no = idx + 1;
        let record: Value = serde_json::from_str(line)
            .map_err(|e| SoupError::parse(format!("line {line_no}: invalid JSON: {e}")))?;
        let kind = require_str(&record, "type", line_no)?;
        if idx == 0 {
            if kind != "header" {
                return Err(SoupError::parse(format!(
                    "line 1: first record must be `header`, found `{kind}`"
                )));
            }
            let schema = require_str(&record, "schema", line_no)?;
            if schema != SCHEMA {
                return Err(SoupError::parse(format!(
                    "line 1: schema `{schema}` != expected `{SCHEMA}`"
                )));
            }
            continue;
        }
        if kind != "span" {
            continue;
        }
        spans.push(SpanRecord {
            path: require_str(&record, "path", line_no)?.to_string(),
            ts_us: require_u64(&record, "ts_us", line_no)?,
            dur_us: require_u64(&record, "dur_us", line_no)?,
            tid: require_u64(&record, "tid", line_no)?,
            cpu_us: record.get("cpu_us").and_then(Value::as_u64),
            alloc_b: record.get("alloc_b").and_then(Value::as_u64),
        });
    }
    if content.lines().next().is_none() {
        return Err(SoupError::parse("trace file is empty"));
    }
    Ok(spans)
}

/// Summary of a validated trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub lines: usize,
    pub spans: usize,
    pub events: usize,
    pub logs: usize,
    pub has_metrics: bool,
    /// The `sample` records, in file order.
    pub samples: Vec<Sample>,
    /// Distinct span paths seen, sorted.
    pub span_paths: Vec<String>,
    /// Distinct event names seen, sorted.
    pub event_names: Vec<String>,
}

fn require_u64(obj: &Value, key: &str, line_no: usize) -> Result<u64> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SoupError::parse(format!("line {line_no}: missing or non-integer `{key}`")))
}

fn require_str<'a>(obj: &'a Value, key: &str, line_no: usize) -> Result<&'a str> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SoupError::parse(format!("line {line_no}: missing or non-string `{key}`")))
}

fn require_object<'a>(obj: &'a Value, key: &str, line_no: usize) -> Result<&'a [(String, Value)]> {
    match obj.get(key) {
        Some(Value::Object(fields)) => Ok(fields),
        Some(other) => Err(SoupError::parse(format!(
            "line {line_no}: `{key}` must be an object, found {}",
            other.kind_name()
        ))),
        None => Err(SoupError::parse(format!(
            "line {line_no}: missing `{key}` object"
        ))),
    }
}

/// Validate a trace file against the `soup-trace/1` schema.
///
/// Checks that every line parses as a JSON object of a known record type
/// with the documented required fields, that the first line is a `header`
/// with the right schema tag, and that nothing follows a `metrics` record,
/// plus the file-level invariants in the module doc.
pub fn validate_file(path: impl AsRef<Path>) -> Result<TraceStats> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path).map_err(|e| SoupError::io_at(path, e))?;
    let mut stats = TraceStats::default();
    let mut span_paths = std::collections::BTreeSet::new();
    let mut event_names = std::collections::BTreeSet::new();
    // Per-tid monotonicity state: last event/log timestamp and last span
    // end time. Records are written in per-thread temporal order (each
    // thread computes its timestamp before taking the sink lock), so any
    // backwards step within a tid is corruption.
    let mut last_flat_ts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    // The `ts_us` of an event, log or sample record, checked against the
    // previous one on its `tid`.
    let mut flat_ts = |record: &Value, line_no: usize| -> Result<u64> {
        let ts = require_u64(record, "ts_us", line_no)?;
        let tid = require_u64(record, "tid", line_no)?;
        let prev = last_flat_ts.entry(tid).or_insert(0);
        if ts < *prev {
            return Err(SoupError::parse(format!(
                "line {line_no}: non-monotonic ts_us {ts} < {prev} (tid {tid})"
            )));
        }
        *prev = ts;
        Ok(ts)
    };
    let mut last_span_end: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    // Per-tid closed-span stack for nesting checks: spans are appended when
    // they *close*, innermost first, so a later record whose path extends a
    // pending one means a child outlived its parent.
    struct ClosedSpan {
        path: String,
        start: u64,
        end: u64,
        line_no: usize,
    }
    let mut pending: std::collections::BTreeMap<u64, Vec<ClosedSpan>> =
        std::collections::BTreeMap::new();
    let mut prev_counters: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    for (idx, line) in content.lines().enumerate() {
        let line_no = idx + 1;
        if stats.has_metrics {
            return Err(SoupError::parse(format!(
                "line {line_no}: record after `metrics`"
            )));
        }
        if line.trim().is_empty() {
            return Err(SoupError::parse(format!("line {line_no}: empty line")));
        }
        let record: Value = serde_json::from_str(line)
            .map_err(|e| SoupError::parse(format!("line {line_no}: invalid JSON: {e}")))?;
        if !matches!(record, Value::Object(_)) {
            return Err(SoupError::parse(format!(
                "line {line_no}: not a JSON object"
            )));
        }
        let kind = require_str(&record, "type", line_no)?.to_string();
        if idx == 0 && kind != "header" {
            return Err(SoupError::parse(format!(
                "line 1: first record must be `header`, found `{kind}`"
            )));
        }
        match kind.as_str() {
            "header" => {
                if idx != 0 {
                    return Err(SoupError::parse(format!(
                        "line {line_no}: duplicate `header`"
                    )));
                }
                let schema = require_str(&record, "schema", line_no)?;
                if schema != SCHEMA {
                    return Err(SoupError::parse(format!(
                        "line {line_no}: schema `{schema}` != expected `{SCHEMA}`"
                    )));
                }
                require_u64(&record, "pid", line_no)?;
                require_u64(&record, "unix_time_s", line_no)?;
            }
            "span" => {
                let span_path = require_str(&record, "path", line_no)?.to_string();
                if span_path.is_empty() {
                    return Err(SoupError::parse(format!("line {line_no}: empty span path")));
                }
                let ts = require_u64(&record, "ts_us", line_no)?;
                let dur = require_u64(&record, "dur_us", line_no)?;
                let tid = require_u64(&record, "tid", line_no)?;
                for optional in ["cpu_us", "alloc_b"] {
                    if record.get(optional).is_some() {
                        require_u64(&record, optional, line_no)?;
                    }
                }
                let end = ts.saturating_add(dur);
                // Span records close in temporal order within a thread.
                // `ts_us` and `dur_us` truncate independently, so recorded
                // ends of back-to-back spans can disagree by up to 2µs —
                // anything beyond that is corruption, not rounding.
                const TRUNC_SLACK_US: u64 = 2;
                let prev_end = last_span_end.entry(tid).or_insert(0);
                if end.saturating_add(TRUNC_SLACK_US) < *prev_end {
                    return Err(SoupError::parse(format!(
                        "line {line_no}: non-monotonic span end {end}us < {prev_end}us (tid {tid})"
                    )));
                }
                *prev_end = (*prev_end).max(end);
                // Nesting: this span must not be a descendant of an
                // already-closed span, and must contain every pending
                // descendant of its own.
                let stack = pending.entry(tid).or_default();
                let prefix = format!("{span_path}/");
                for closed in stack.iter() {
                    // A descendant of an already-closed span is legitimate
                    // only as a *fresh instance* of the subtree (started at
                    // or after that ancestor's end); one that started while
                    // the ancestor was open yet closed after it means the
                    // enter/exit pairing is broken.
                    if span_path.starts_with(&format!("{}/", closed.path)) && ts < closed.end {
                        return Err(SoupError::parse(format!(
                            "line {line_no}: unbalanced nesting — span `{span_path}` \
                             ([{ts}, {end}]us) closed after its ancestor `{}` \
                             ([{}, {}]us, line {})",
                            closed.path, closed.start, closed.end, closed.line_no
                        )));
                    }
                }
                for closed in stack.iter().filter(|c| c.path.starts_with(&prefix)) {
                    if closed.start < ts || closed.end > end {
                        return Err(SoupError::parse(format!(
                            "line {line_no}: unbalanced nesting — child `{}` \
                             ([{}, {}]us, line {}) not contained in parent `{span_path}` \
                             ([{ts}, {end}]us)",
                            closed.path, closed.start, closed.end, closed.line_no
                        )));
                    }
                }
                // Contained descendants are absorbed; the closed span now
                // stands for its whole subtree.
                stack.retain(|c| !c.path.starts_with(&prefix));
                stack.push(ClosedSpan {
                    path: span_path.clone(),
                    start: ts,
                    end,
                    line_no,
                });
                span_paths.insert(span_path);
                stats.spans += 1;
            }
            "event" => {
                let name = require_str(&record, "name", line_no)?;
                flat_ts(&record, line_no)?;
                require_object(&record, "fields", line_no)?;
                event_names.insert(name.to_string());
                stats.events += 1;
            }
            "log" => {
                let level = require_str(&record, "level", line_no)?;
                if !matches!(level, "debug" | "info" | "warn") {
                    return Err(SoupError::parse(format!(
                        "line {line_no}: unknown log level `{level}`"
                    )));
                }
                require_str(&record, "msg", line_no)?;
                flat_ts(&record, line_no)?;
                stats.logs += 1;
            }
            "sample" => {
                let seq = require_u64(&record, "seq", line_no)?;
                if seq != stats.samples.len() as u64 {
                    return Err(SoupError::parse(format!(
                        "line {line_no}: seq {seq} != expected {}",
                        stats.samples.len()
                    )));
                }
                let ts_us = flat_ts(&record, line_no)?;
                let rss_bytes = require_u64(&record, "rss_bytes", line_no)?;
                let mut counters = Vec::new();
                for (name, entry) in require_object(&record, "counters", line_no)? {
                    let total = require_u64(entry, "total", line_no)?;
                    let delta = require_u64(entry, "delta", line_no)?;
                    let expected =
                        total.saturating_sub(prev_counters.get(name).copied().unwrap_or(0));
                    if delta != expected {
                        return Err(SoupError::parse(format!(
                            "line {line_no}: counter `{name}` delta {delta} != total change {expected}"
                        )));
                    }
                    prev_counters.insert(name.clone(), total);
                    counters.push((name.clone(), total, delta));
                }
                let gauges = require_object(&record, "gauges", line_no)?
                    .iter()
                    .map(|(k, v)| match v.as_f64() {
                        Some(v) => Ok((k.clone(), v)),
                        None => Err(SoupError::parse(format!(
                            "line {line_no}: gauge `{k}` is not a number"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                let digests = |key: &str| -> Result<Vec<(String, HistogramSummary)>> {
                    require_object(&record, key, line_no)?
                        .iter()
                        .map(|(k, v)| match HistogramSummary::from_value(v) {
                            Some(h) => Ok((k.clone(), h)),
                            None => Err(SoupError::parse(format!(
                                "line {line_no}: malformed digest `{key}.{k}`"
                            ))),
                        })
                        .collect()
                };
                stats.samples.push(Sample {
                    seq,
                    ts_us,
                    rss_bytes,
                    counters,
                    gauges,
                    histograms: digests("histograms")?,
                    spans: digests("spans")?,
                });
            }
            "metrics" => {
                require_u64(&record, "ts_us", line_no)?;
                require_object(&record, "counters", line_no)?;
                require_object(&record, "gauges", line_no)?;
                require_object(&record, "histograms", line_no)?;
                require_object(&record, "spans", line_no)?;
                stats.has_metrics = true;
            }
            other => {
                return Err(SoupError::parse(format!(
                    "line {line_no}: unknown record type `{other}`"
                )));
            }
        }
        stats.lines = line_no;
    }
    if stats.lines == 0 {
        return Err(SoupError::parse("trace file is empty"));
    }
    stats.span_paths = span_paths.into_iter().collect();
    stats.event_names = event_names.into_iter().collect();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_trace_validates() {
        let _serial = crate::test_serial();
        crate::registry::set_enabled(true);
        let path =
            std::env::temp_dir().join(format!("soup_obs_trace_{}.jsonl", std::process::id()));
        init(&path).unwrap();
        assert!(active());
        {
            let _outer = crate::span::Span::enter("test.trace.outer");
            let _inner = crate::span::Span::enter("test.trace.inner");
        }
        crate::trace_event!("test.trace.tick", "step" => 7_u64, "loss" => 0.5_f64);
        crate::log::log(crate::log::Level::Warn, format_args!("trace test warning"));
        let finished = finish().expect("sink was active");
        assert_eq!(finished, path);
        assert!(!active());

        let stats = validate_file(&path).expect("trace validates");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.events, 1);
        assert!(stats.logs >= 1);
        assert!(stats.has_metrics);
        assert!(stats
            .span_paths
            .contains(&"test.trace.outer/test.trace.inner".to_string()));
        assert!(stats.event_names.contains(&"test.trace.tick".to_string()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_garbage() {
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("soup_obs_bad_{}.jsonl", std::process::id()));

        std::fs::write(&bad, "not json\n").unwrap();
        assert!(validate_file(&bad)
            .unwrap_err()
            .to_string()
            .contains("invalid JSON"));

        std::fs::write(&bad, "{\"type\":\"span\"}\n").unwrap();
        assert!(validate_file(&bad)
            .unwrap_err()
            .to_string()
            .contains("first record must be `header`"));

        std::fs::write(
            &bad,
            "{\"type\":\"header\",\"schema\":\"soup-trace/999\",\"pid\":1,\"unix_time_s\":1}\n",
        )
        .unwrap();
        assert!(validate_file(&bad)
            .unwrap_err()
            .to_string()
            .contains("schema"));

        std::fs::write(
            &bad,
            "{\"type\":\"header\",\"schema\":\"soup-trace/1\",\"pid\":1,\"unix_time_s\":1}\n{\"type\":\"span\",\"path\":\"x\",\"ts_us\":0,\"tid\":0}\n",
        )
        .unwrap();
        assert!(validate_file(&bad)
            .unwrap_err()
            .to_string()
            .contains("dur_us"));

        std::fs::write(&bad, "").unwrap();
        assert!(validate_file(&bad)
            .unwrap_err()
            .to_string()
            .contains("empty"));

        std::fs::remove_file(&bad).ok();
    }

    const HEADER: &str =
        "{\"type\":\"header\",\"schema\":\"soup-trace/1\",\"pid\":1,\"unix_time_s\":1}\n";

    fn write_case(name: &str, body: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("soup_obs_{name}_{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{HEADER}{body}")).unwrap();
        path
    }

    #[test]
    fn validate_rejects_non_monotonic_ts() {
        // Events on one thread running backwards in time: corruption (e.g.
        // two concatenated traces, or a rewound file).
        let path = write_case(
            "backwards",
            "{\"type\":\"event\",\"name\":\"a\",\"ts_us\":500,\"tid\":0,\"fields\":{}}\n\
             {\"type\":\"event\",\"name\":\"b\",\"ts_us\":100,\"tid\":0,\"fields\":{}}\n",
        );
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("non-monotonic ts_us"), "{err}");
        std::fs::remove_file(&path).ok();

        // The same timestamps on *different* threads are fine: each thread
        // computes its timestamp before taking the sink lock, so cross-tid
        // inversions are expected in real traces.
        let path = write_case(
            "cross_tid",
            "{\"type\":\"event\",\"name\":\"a\",\"ts_us\":500,\"tid\":0,\"fields\":{}}\n\
             {\"type\":\"log\",\"level\":\"info\",\"msg\":\"m\",\"ts_us\":100,\"tid\":1}\n",
        );
        validate_file(&path).expect("per-tid ordering only");
        std::fs::remove_file(&path).ok();

        // Span *end* times going backwards on one thread by more than the
        // 2us truncation slack are also corruption.
        let path = write_case(
            "span_backwards",
            "{\"type\":\"span\",\"path\":\"a\",\"ts_us\":0,\"dur_us\":900,\"tid\":0}\n\
             {\"type\":\"span\",\"path\":\"b\",\"ts_us\":100,\"dur_us\":200,\"tid\":0}\n",
        );
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("non-monotonic span end"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_unbalanced_nesting() {
        // Child closes *after* its parent while overlapping it: the RAII
        // enter/exit pairing can never produce this.
        let path = write_case(
            "child_after_parent",
            "{\"type\":\"span\",\"path\":\"a\",\"ts_us\":0,\"dur_us\":100,\"tid\":0}\n\
             {\"type\":\"span\",\"path\":\"a/b\",\"ts_us\":50,\"dur_us\":100,\"tid\":0}\n",
        );
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("unbalanced nesting"), "{err}");
        std::fs::remove_file(&path).ok();

        // Child interval escapes the parent's: parent closed at 100 but the
        // already-closed child ran [0, 150].
        let path = write_case(
            "child_escapes_parent",
            "{\"type\":\"span\",\"path\":\"a/b\",\"ts_us\":0,\"dur_us\":150,\"tid\":0}\n\
             {\"type\":\"span\",\"path\":\"a\",\"ts_us\":10,\"dur_us\":140,\"tid\":0}\n",
        );
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("not contained in parent"), "{err}");
        std::fs::remove_file(&path).ok();

        // A fresh instance of a subtree after the previous one closed is
        // legitimate (e.g. a second `worker/ingredient` iteration).
        let path = write_case(
            "fresh_instance",
            "{\"type\":\"span\",\"path\":\"w/i\",\"ts_us\":0,\"dur_us\":50,\"tid\":0}\n\
             {\"type\":\"span\",\"path\":\"w/i\",\"ts_us\":60,\"dur_us\":40,\"tid\":0}\n\
             {\"type\":\"span\",\"path\":\"w\",\"ts_us\":0,\"dur_us\":120,\"tid\":0}\n",
        );
        validate_file(&path).expect("repeated subtree instances are balanced");
        std::fs::remove_file(&path).ok();
    }

    fn sample(seq: u64, total: u64, delta: u64) -> String {
        format!(
            "{{\"type\":\"sample\",\"seq\":{seq},\"ts_us\":{},\"tid\":3,\"rss_bytes\":0,\
             \"counters\":{{\"c\":{{\"total\":{total},\"delta\":{delta}}}}},\
             \"gauges\":{{}},\"histograms\":{{}},\"spans\":{{}}}}\n",
            seq * 1000
        )
    }

    const METRICS: &str = "{\"type\":\"metrics\",\"ts_us\":9000,\"counters\":{},\
                           \"gauges\":{},\"histograms\":{},\"spans\":{}}\n";

    #[test]
    fn validate_checks_samples() {
        let path = write_case(
            "samples_ok",
            &format!("{}{}{METRICS}", sample(0, 5, 5), sample(1, 8, 3)),
        );
        let stats = validate_file(&path).expect("valid samples");
        assert_eq!(stats.samples.len(), 2);
        assert_eq!(stats.samples[1].counter_total("c"), Some(8));
        std::fs::remove_file(&path).ok();

        // Sequence gap.
        let path = write_case(
            "seq_gap",
            &format!("{}{}", sample(0, 1, 1), sample(2, 2, 1)),
        );
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("seq"), "{err}");
        std::fs::remove_file(&path).ok();

        // Delta inconsistent with totals.
        let path = write_case(
            "bad_delta",
            &format!("{}{}", sample(0, 5, 5), sample(1, 8, 1)),
        );
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("delta"), "{err}");
        std::fs::remove_file(&path).ok();

        // Nothing may follow the closing `metrics` record.
        let path = write_case("after_metrics", &format!("{METRICS}{}", sample(0, 1, 1)));
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("record after `metrics`"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
