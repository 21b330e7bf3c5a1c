//! Folded-stack flamegraph export over the span tree.
//!
//! Converts a `soup-trace/1` file into the folded-stack format consumed by
//! `inferno-flamegraph` / Brendan Gregg's `flamegraph.pl`: one line per
//! distinct span path, frames separated by `;`, followed by a space and the
//! *self* wall time in microseconds (total time at the path minus the time
//! covered by its direct children). Example:
//!
//! ```text
//! distrib.phase1 1250
//! distrib.phase1;worker 80
//! distrib.phase1;worker;ingredient 93400
//! ```
//!
//! Self time (rather than total) is what the folded format requires — the
//! flamegraph tool re-derives totals by summing subtrees. Spans from all
//! threads are merged by path, matching how [`crate::report`] aggregates.

use std::collections::BTreeMap;
use std::path::Path;

use soup_error::{Result, SoupError};

/// One folded stack: `frames` joined by `;` and the self time in µs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    pub stack: String,
    pub self_us: u64,
}

/// Aggregate a trace's span records into folded stacks (sorted by stack).
///
/// Zero-self-time paths are kept when they have children (so the hierarchy
/// stays connected for viewers that don't synthesize missing parents).
pub fn fold_trace(path: impl AsRef<Path>) -> Result<Vec<FoldedStack>> {
    let spans = crate::trace::read_spans(path)?;
    if spans.is_empty() {
        return Err(SoupError::parse("trace contains no span records"));
    }
    // Total wall time per distinct path, across all instances and threads.
    // Sums saturate: durations come from a user-supplied file.
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for span in &spans {
        let total = totals.entry(span.path.clone()).or_insert(0);
        *total = total.saturating_add(span.dur_us);
    }
    // Self = total − direct children's totals. Saturating: truncation can
    // make children sum to slightly more than the parent.
    let mut folded = Vec::with_capacity(totals.len());
    for (path, total) in &totals {
        let prefix = format!("{path}/");
        let children: u64 = totals
            .iter()
            .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
            .fold(0u64, |sum, (_, t)| sum.saturating_add(*t));
        folded.push(FoldedStack {
            stack: path.replace('/', ";"),
            self_us: total.saturating_sub(children),
        });
    }
    Ok(folded)
}

/// Render folded stacks to the on-disk format (one `stack self_us` per line).
pub fn render_folded(folded: &[FoldedStack]) -> String {
    let mut out = String::new();
    for f in folded {
        out.push_str(&f.stack);
        out.push(' ');
        out.push_str(&f.self_us.to_string());
        out.push('\n');
    }
    out
}

/// Fold `trace` and write the result to `out`, returning the stack count.
pub fn write_folded(trace: impl AsRef<Path>, out: impl AsRef<Path>) -> Result<usize> {
    let folded = fold_trace(trace)?;
    let out = out.as_ref();
    std::fs::write(out, render_folded(&folded)).map_err(|e| SoupError::io_at(out, e))?;
    Ok(folded.len())
}

/// Summary of a validated folded-stack file.
#[derive(Debug, Clone, Default)]
pub struct FoldedStats {
    pub stacks: usize,
    /// Sum of all self times (the flamegraph's total width), µs.
    pub total_us: u64,
}

/// Validate folded-stack content: every line is `stack count` with
/// non-empty `;`-separated frames, counts parse as `u64`, and no stack
/// repeats (a duplicate would silently double-count in the flamegraph).
pub fn validate_folded(content: &str) -> Result<FoldedStats> {
    let mut stats = FoldedStats::default();
    let mut seen = std::collections::BTreeSet::new();
    for (idx, line) in content.lines().enumerate() {
        let line_no = idx + 1;
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(SoupError::parse(format!(
                "line {line_no}: expected `stack count`, found `{line}`"
            )));
        };
        if stack.is_empty() || stack.split(';').any(|frame| frame.is_empty()) {
            return Err(SoupError::parse(format!(
                "line {line_no}: empty frame in stack `{stack}`"
            )));
        }
        let count: u64 = count.parse().map_err(|_| {
            SoupError::parse(format!("line {line_no}: non-integer count `{count}`"))
        })?;
        if !seen.insert(stack.to_string()) {
            return Err(SoupError::parse(format!(
                "line {line_no}: duplicate stack `{stack}`"
            )));
        }
        stats.stacks += 1;
        stats.total_us = stats.total_us.saturating_add(count);
    }
    if stats.stacks == 0 {
        return Err(SoupError::parse("folded-stack file is empty"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_trace(name: &str, spans: &[(&str, u64, u64)]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("soup_flame_{name}_{}.jsonl", std::process::id()));
        let mut content = String::from(
            "{\"type\":\"header\",\"schema\":\"soup-trace/1\",\"pid\":1,\"unix_time_s\":1}\n",
        );
        for (span_path, ts, dur) in spans {
            content.push_str(&format!(
                "{{\"type\":\"span\",\"path\":\"{span_path}\",\"ts_us\":{ts},\"dur_us\":{dur},\"tid\":0}}\n"
            ));
        }
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn fold_computes_self_time_and_roundtrips_validator() {
        // a = [0, 1000], children a/b ([0,300], twice) and a/c ([650, 250]).
        let path = write_trace(
            "roundtrip",
            &[
                ("a/b", 0, 300),
                ("a/b", 310, 300),
                ("a/c", 650, 250),
                ("a/c/d", 660, 100),
                ("a", 0, 1000),
            ],
        );
        let folded = fold_trace(&path).unwrap();
        let self_of = |stack: &str| {
            folded
                .iter()
                .find(|f| f.stack == stack)
                .map(|f| f.self_us)
                .unwrap_or_else(|| panic!("stack `{stack}` missing"))
        };
        assert_eq!(self_of("a"), 1000 - 600 - 250);
        assert_eq!(self_of("a;b"), 600);
        assert_eq!(self_of("a;c"), 250 - 100);
        assert_eq!(self_of("a;c;d"), 100);

        let rendered = render_folded(&folded);
        let stats = validate_folded(&rendered).expect("folded output validates");
        assert_eq!(stats.stacks, 4);
        // Self times partition the root's total exactly.
        assert_eq!(stats.total_us, 1000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fold_is_robust_to_truncation_overshoot() {
        // Children sum to more than the parent (µs truncation artifact):
        // self time saturates at 0 instead of wrapping.
        let path = write_trace(
            "overshoot",
            &[("p/q", 0, 60), ("p/r", 60, 45), ("p", 0, 100)],
        );
        let folded = fold_trace(&path).unwrap();
        assert_eq!(folded.iter().find(|f| f.stack == "p").unwrap().self_us, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_rejects_malformed_folded_files() {
        assert!(validate_folded("").is_err());
        assert!(validate_folded("no-count-here\n").is_err());
        assert!(validate_folded("a;b twelve\n").is_err());
        assert!(validate_folded("a;;b 5\n").is_err());
        assert!(validate_folded("a;b 5\na;b 6\n")
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        let ok = validate_folded("a 10\na;b 5\n").unwrap();
        assert_eq!(ok.stacks, 2);
        assert_eq!(ok.total_us, 15);
    }

    #[test]
    fn live_trace_folds_and_validates() {
        let _serial = crate::test_serial();
        crate::registry::set_enabled(true);
        let trace =
            std::env::temp_dir().join(format!("soup_flame_live_{}.jsonl", std::process::id()));
        crate::trace::init(&trace).unwrap();
        {
            let _outer = crate::span::Span::enter("test.flame.outer");
            for _ in 0..3 {
                let _inner = crate::span::Span::enter("test.flame.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        crate::trace::finish();
        let out = trace.with_extension("folded");
        let stacks = write_folded(&trace, &out).unwrap();
        assert_eq!(stacks, 2);
        let content = std::fs::read_to_string(&out).unwrap();
        let stats = validate_folded(&content).unwrap();
        assert_eq!(stats.stacks, 2);
        assert!(content.contains("test.flame.outer;test.flame.inner "));
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&out).ok();
    }
}
