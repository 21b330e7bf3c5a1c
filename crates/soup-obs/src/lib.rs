//! # soup-obs — observability for the Enhanced Soups pipeline
//!
//! A lightweight, dependency-minimal observability layer shared by every
//! crate in the workspace. Three pieces:
//!
//! 1. **Metrics registry** ([`registry`]) — named atomic [`registry::Counter`]s,
//!    [`registry::Gauge`]s, and log-bucketed [`registry::Histogram`]s. Hot-path
//!    cost when metrics are enabled is a single relaxed atomic RMW; when
//!    disabled via [`set_enabled`]`(false)`, a single relaxed load.
//! 2. **Timing spans** ([`mod@span`]) — RAII guards with thread-local nesting.
//!    Dropping a [`Span`] records its wall time into a per-path histogram and,
//!    if tracing is active, appends a structured event to the trace file.
//! 3. **Trace sink + reporter** ([`trace`], [`report`]) — one JSONL file per
//!    run (schema `soup-trace/1`, one JSON object per line), into which the
//!    [`series`] sampler writes periodic registry `sample` records, and a
//!    human-readable end-of-run summary table: span tree with call counts,
//!    total/mean wall time and p50/p95/p99 latencies, plus all counters,
//!    gauges, and histograms.
//!
//! There is also a leveled stderr logger ([`log`]) filtered by the `SOUP_LOG`
//! environment variable (`debug` | `info` | `warn` | `off`; default `info`),
//! used by the bench bins instead of raw `println!` progress prints.
//!
//! ## Quick tour
//!
//! ```
//! // Counters: macro caches the registry lookup in a local static.
//! soup_obs::counter!("demo.calls").inc();
//! soup_obs::counter!("demo.bytes").add(4096);
//!
//! // Spans: RAII; nesting is tracked per thread.
//! {
//!     let _outer = soup_obs::span!("demo.outer");
//!     let _inner = soup_obs::span!("demo.inner"); // recorded as demo.outer/demo.inner
//! }
//!
//! // Structured trace events (no-ops unless `trace::init` was called).
//! soup_obs::trace_event!("demo.tick", "step" => 3_u64, "loss" => 0.25_f64);
//!
//! // Leveled logging (stderr, filtered by SOUP_LOG).
//! soup_obs::info!("finished step {}", 3);
//!
//! assert_eq!(soup_obs::counter!("demo.calls").get(), 1);
//! ```
//!
//! The trace schema is documented on [`trace`] and checked by
//! [`trace::validate_file`], which CI runs against a real `soupctl train`
//! trace.

pub mod attrib;
pub mod diff;
pub mod flame;
pub mod log;
pub mod registry;
pub mod report;
pub mod series;
pub mod span;
pub mod trace;

pub use registry::{enabled, set_enabled, snapshot, snapshot_value, Counter, Gauge, Histogram};
pub use serde::{to_value, Value};
pub use span::Span;

/// Unit tests touching global state (the enabled flag, the registry, the
/// thread-local span stack's trace sink) serialize on this lock.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Look up (and cache) a named [`Counter`] in the global registry.
///
/// The registry lookup happens once per call site; afterwards the macro
/// expands to a single relaxed atomic load of a local `OnceLock`.
/// For dynamically-named counters (for example per-worker), call
/// [`registry::counter`] directly with a formatted name.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SOUP_OBS_SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::registry::Counter>> =
            ::std::sync::OnceLock::new();
        &**__SOUP_OBS_SLOT.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// Look up (and cache) a named [`Gauge`] in the global registry.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __SOUP_OBS_SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::registry::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__SOUP_OBS_SLOT.get_or_init(|| $crate::registry::gauge($name))
    }};
}

/// Look up (and cache) a named [`Histogram`] in the global registry.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SOUP_OBS_SLOT: ::std::sync::OnceLock<
            ::std::sync::Arc<$crate::registry::Histogram>,
        > = ::std::sync::OnceLock::new();
        &**__SOUP_OBS_SLOT.get_or_init(|| $crate::registry::histogram($name))
    }};
}

/// Open a RAII timing [`Span`]; bind it to a local (`let _span = ...`) so it
/// stays alive for the region being timed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name)
    };
}

/// Emit a structured trace event with named fields. A no-op unless
/// [`trace::init`] has been called. Field values can be anything
/// serializable (integers, floats, strings, ...).
#[macro_export]
macro_rules! trace_event {
    ($name:expr $(, $key:literal => $value:expr)* $(,)?) => {
        if $crate::trace::active() {
            $crate::trace::emit_event(
                $name,
                vec![$((($key).to_string(), $crate::to_value(&$value))),*],
            );
        }
    };
}

/// Log at debug level (stderr; shown when `SOUP_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*))
    };
}

/// Log at info level (stderr; shown unless `SOUP_LOG=warn` or `off`).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, format_args!($($arg)*))
    };
}

/// Log at warn level (stderr; shown unless `SOUP_LOG=off`).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*))
    };
}
