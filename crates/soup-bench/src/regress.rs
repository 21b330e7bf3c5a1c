//! Noise-aware bench-regression gate over `BENCH_*.json` sidecars.
//!
//! The quick-bench CI steps emit machine-readable sidecars
//! (`BENCH_kernels.json`, `BENCH_souping.json`) whose numeric leaves mix
//! three kinds of quantity: timings (`*_ms` — lower is better), rates and
//! quality scores (`*speedup*`, `*gflops*`, `*accuracy*` — higher is
//! better), and structural metadata (shapes, counters — direction-free).
//! [`diff_values`] walks both trees, pairs numeric leaves by dotted path,
//! classifies each leaf's improvement direction from its name, and flags a
//! leaf as regressed only when it moved in the *bad* direction by more than
//! the tolerance band. Bench timings on shared CI runners jitter far more
//! than in-process span timings, so the default band
//! ([`DEFAULT_TOLERANCE`]) is deliberately wide; direction-free leaves are
//! reported informationally but can never regress.
//!
//! The `regress` binary (`src/bin/regress.rs`) wraps this as a CI gate:
//! non-zero exit on any regression unless `--warn-only` is given (the
//! first-landing mode, so a fresh gate cannot block unrelated work while
//! baselines settle).

use soup_error::SoupError;
use std::path::Path;

/// Default relative tolerance band: a directional leaf must move more than
/// 25 % in the bad direction to count as a regression. CI quick-bench
/// timings routinely jitter by double-digit percents between runs of the
/// same commit; tighten per-invocation with `--tolerance` when comparing
/// runs from the same machine.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Check a `--tolerance` value: a band must be finite and non-negative.
/// Under NaN or infinity every comparison in [`diff_values`] is false, so
/// any slowdown would pass; a negative band would flag every leaf.
pub fn check_tolerance(tolerance: f64) -> Result<f64, SoupError> {
    if tolerance.is_finite() && tolerance >= 0.0 {
        Ok(tolerance)
    } else {
        Err(SoupError::usage(format!(
            "--tolerance must be a finite fraction >= 0 (got {tolerance})"
        )))
    }
}

/// Which way a metric improves, inferred from its leaf name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Timings (`*_ms`, `*_ns`, `*_us`) and memory footprints (`*_bytes`,
    /// `*_rss`) — peak RSS especially, which is what the sharded Phase-1
    /// bench exists to bound.
    LowerIsBetter,
    /// Rates and quality: `*speedup*`, `*gflops*`, `*accuracy*`, `*_rps`.
    HigherIsBetter,
    /// Structural metadata — compared informationally, never regresses.
    Informational,
}

/// Classify a dotted leaf path (e.g. `gemm_512.naive_ms`, `gis.speedup`).
pub fn classify(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
    if leaf.ends_with("_ms")
        || leaf.ends_with("_ns")
        || leaf.ends_with("_us")
        || leaf.ends_with("_bytes")
        || leaf.ends_with("_rss")
    {
        Direction::LowerIsBetter
    } else if leaf.contains("speedup")
        || leaf.contains("gflops")
        || leaf.contains("accuracy")
        || leaf.ends_with("_rps")
    {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// Verdict for one paired leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Noise,
    Info,
}

/// One compared numeric leaf.
#[derive(Debug, Clone)]
pub struct LeafDiff {
    pub path: String,
    pub direction: Direction,
    pub base: f64,
    pub new: f64,
    /// `new / base`; `f64::INFINITY` when the baseline is zero and the new
    /// value is not.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Full comparison of two sidecars.
#[derive(Debug, Clone)]
pub struct RegressReport {
    /// Paired leaves, worst relative movement first.
    pub entries: Vec<LeafDiff>,
    /// Paths present only in the baseline (removed metrics).
    pub only_base: Vec<String>,
    /// Paths present only in the fresh run (new metrics).
    pub only_new: Vec<String>,
    /// Tolerance band the verdicts were computed against.
    pub tolerance: f64,
}

impl RegressReport {
    pub fn regressions(&self) -> impl Iterator<Item = &LeafDiff> {
        self.entries
            .iter()
            .filter(|e| e.verdict == Verdict::Regressed)
    }

    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Render as an aligned table plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>14} {:>14} {:>8}  {}\n",
            "METRIC", "BASE", "NEW", "RATIO", "VERDICT"
        ));
        for e in &self.entries {
            let verdict = match e.verdict {
                Verdict::Regressed => "REGRESSED",
                Verdict::Improved => "improved",
                Verdict::Noise => "~noise",
                Verdict::Info => "info",
            };
            let ratio = if e.ratio.is_finite() {
                format!("{:.2}x", e.ratio)
            } else {
                "inf".to_string()
            };
            out.push_str(&format!(
                "{:<44} {:>14.4} {:>14.4} {:>8}  {}\n",
                e.path, e.base, e.new, ratio, verdict
            ));
        }
        for p in &self.only_base {
            out.push_str(&format!("{p:<44} (only in baseline)\n"));
        }
        for p in &self.only_new {
            out.push_str(&format!("{p:<44} (only in fresh run)\n"));
        }
        let regressed = self.regressions().count();
        out.push_str(&format!(
            "{} metrics compared, {} regressed (tolerance ±{:.0}%)\n",
            self.entries.len(),
            regressed,
            self.tolerance * 100.0
        ));
        out
    }
}

/// Collect every numeric leaf of a JSON tree as `(dotted.path, value)`,
/// in document order. Array elements get index segments (`shape.0`).
pub fn numeric_leaves(value: &serde::Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out
}

fn walk(value: &serde::Value, prefix: String, out: &mut Vec<(String, f64)>) {
    match value {
        serde::Value::Number(n) => out.push((prefix, n.as_f64())),
        serde::Value::Object(fields) => {
            for (k, v) in fields {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(v, p, out);
            }
        }
        serde::Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, format!("{prefix}.{i}"), out);
            }
        }
        _ => {}
    }
}

/// Compare the numeric leaves of two sidecar trees under a relative
/// tolerance band. A directional leaf regresses when it moves beyond the
/// band in its bad direction; within-band movement is noise regardless of
/// sign, and informational leaves never gate.
pub fn diff_values(base: &serde::Value, new: &serde::Value, tolerance: f64) -> RegressReport {
    let base_leaves = numeric_leaves(base);
    let new_leaves = numeric_leaves(new);
    let mut entries = Vec::new();
    let mut only_base = Vec::new();
    let find = |leaves: &[(String, f64)], path: &str| -> Option<f64> {
        leaves.iter().find(|(p, _)| p == path).map(|&(_, v)| v)
    };
    for (path, b) in &base_leaves {
        let Some(n) = find(&new_leaves, path) else {
            only_base.push(path.clone());
            continue;
        };
        let direction = classify(path);
        let ratio = if *b != 0.0 {
            n / b
        } else if n == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        let verdict = match direction {
            Direction::Informational => Verdict::Info,
            Direction::LowerIsBetter if ratio > 1.0 + tolerance => Verdict::Regressed,
            Direction::LowerIsBetter if ratio < 1.0 - tolerance => Verdict::Improved,
            Direction::HigherIsBetter if ratio < 1.0 - tolerance => Verdict::Regressed,
            Direction::HigherIsBetter if ratio > 1.0 + tolerance => Verdict::Improved,
            _ => Verdict::Noise,
        };
        entries.push(LeafDiff {
            path: path.clone(),
            direction,
            base: *b,
            new: n,
            ratio,
            verdict,
        });
    }
    let only_new = new_leaves
        .iter()
        .filter(|(p, _)| find(&base_leaves, p).is_none())
        .map(|(p, _)| p.clone())
        .collect();
    // Worst relative movement first; informational rows sink to the end.
    entries.sort_by(|a, b| {
        let rank = |e: &LeafDiff| matches!(e.verdict, Verdict::Info) as u8;
        let mag = |e: &LeafDiff| {
            if e.ratio.is_finite() {
                (e.ratio - 1.0).abs()
            } else {
                f64::MAX
            }
        };
        rank(a)
            .cmp(&rank(b))
            .then(
                mag(b)
                    .partial_cmp(&mag(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.path.cmp(&b.path))
    });
    RegressReport {
        entries,
        only_base,
        only_new,
        tolerance,
    }
}

/// Compare two `BENCH_*.json` files on disk.
pub fn diff_files(base: &Path, new: &Path, tolerance: f64) -> Result<RegressReport, SoupError> {
    let read = |p: &Path| -> Result<serde::Value, SoupError> {
        let content = std::fs::read_to_string(p).map_err(|e| SoupError::io_at(p, e))?;
        serde_json::from_str(&content)
            .map_err(|e| SoupError::parse(format!("{}: {e}", p.display())))
    };
    Ok(diff_values(&read(base)?, &read(new)?, tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sidecar(naive_ms: f64, speedup: f64, hits: u64) -> serde::Value {
        serde_json::from_str(&format!(
            r#"{{"gemm": {{"shape": [512, 512], "naive_ms": {naive_ms},
                "speedup": {speedup}}}, "pool": {{"hits": {hits}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn tolerance_must_be_finite_and_non_negative() {
        for bad in [f64::NAN, f64::INFINITY, -0.1] {
            let err = check_tolerance(bad).unwrap_err();
            assert!(matches!(err, SoupError::Usage(_)), "{bad}: {err:?}");
        }
        assert_eq!(check_tolerance(0.0).unwrap(), 0.0);
    }

    #[test]
    fn classifies_directions_by_leaf_name() {
        assert_eq!(classify("gemm_512.naive_ms"), Direction::LowerIsBetter);
        assert_eq!(classify("spmm.balanced_gflops"), Direction::HigherIsBetter);
        assert_eq!(classify("gis.speedup"), Direction::HigherIsBetter);
        assert_eq!(classify("ls.val_accuracy"), Direction::HigherIsBetter);
        assert_eq!(
            classify("serve.c4.throughput_rps"),
            Direction::HigherIsBetter
        );
        assert_eq!(classify("serve.c4.p99_us"), Direction::LowerIsBetter);
        assert_eq!(
            classify("shard_1m.k4.peak_rss_bytes"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            classify("shard_1m.max_worker_peak_rss"),
            Direction::LowerIsBetter
        );
        // `..._saved` byte counts are savings, not footprints.
        assert_eq!(
            classify("quant.quant_bytes_saved"),
            Direction::Informational
        );
        assert_eq!(classify("pool.hits"), Direction::Informational);
        assert_eq!(classify("gemm.shape.0"), Direction::Informational);
    }

    #[test]
    fn grown_peak_rss_beyond_tolerance_regresses() {
        let base: serde::Value =
            serde_json::from_str(r#"{"shard": {"peak_rss_bytes": 1000000}}"#).unwrap();
        let new: serde::Value =
            serde_json::from_str(r#"{"shard": {"peak_rss_bytes": 1600000}}"#).unwrap();
        let report = diff_values(&base, &new, DEFAULT_TOLERANCE);
        assert_eq!(report.regressions().count(), 1);
        // Shrinking is an improvement, never a regression.
        let report = diff_values(&new, &base, DEFAULT_TOLERANCE);
        assert!(!report.has_regressions());
        assert_eq!(report.entries[0].verdict, Verdict::Improved);
    }

    #[test]
    fn flags_bad_direction_moves_beyond_tolerance_only() {
        let base = sidecar(10.0, 3.0, 100);
        // naive_ms +60% (bad), speedup -10% (within band), hits changed
        // (informational).
        let new = sidecar(16.0, 2.7, 250);
        let report = diff_values(&base, &new, DEFAULT_TOLERANCE);
        let verdict = |p: &str| report.entries.iter().find(|e| e.path == p).unwrap().verdict;
        assert_eq!(verdict("gemm.naive_ms"), Verdict::Regressed);
        assert_eq!(verdict("gemm.speedup"), Verdict::Noise);
        assert_eq!(verdict("pool.hits"), Verdict::Info);
        assert!(report.has_regressions());
        assert_eq!(report.regressions().count(), 1);
        // The regression leads the table (worst movement first).
        assert_eq!(report.entries[0].path, "gemm.naive_ms");
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn good_direction_moves_are_improvements_not_regressions() {
        let base = sidecar(10.0, 3.0, 100);
        // naive_ms -40% and speedup +50%: both good.
        let new = sidecar(6.0, 4.5, 100);
        let report = diff_values(&base, &new, DEFAULT_TOLERANCE);
        assert!(!report.has_regressions());
        assert!(report
            .entries
            .iter()
            .filter(|e| e.direction != Direction::Informational)
            .all(|e| e.verdict == Verdict::Improved));
    }

    #[test]
    fn dropped_speedup_beyond_tolerance_regresses() {
        let base = sidecar(10.0, 3.0, 100);
        let new = sidecar(10.0, 2.0, 100);
        let report = diff_values(&base, &new, DEFAULT_TOLERANCE);
        let regressed: Vec<&str> = report.regressions().map(|e| e.path.as_str()).collect();
        assert_eq!(regressed, vec!["gemm.speedup"]);
    }

    #[test]
    fn disjoint_leaves_are_listed_not_compared() {
        let base: serde::Value = serde_json::from_str(r#"{"a_ms": 1.0, "gone_ms": 2.0}"#).unwrap();
        let new: serde::Value = serde_json::from_str(r#"{"a_ms": 1.0, "fresh_ms": 3.0}"#).unwrap();
        let report = diff_values(&base, &new, DEFAULT_TOLERANCE);
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.only_base, vec!["gone_ms"]);
        assert_eq!(report.only_new, vec!["fresh_ms"]);
        assert!(!report.has_regressions());
    }

    #[test]
    fn zero_baselines_do_not_divide_by_zero() {
        let base: serde::Value = serde_json::from_str(r#"{"t_ms": 0.0, "u_ms": 0.0}"#).unwrap();
        let new: serde::Value = serde_json::from_str(r#"{"t_ms": 0.0, "u_ms": 5.0}"#).unwrap();
        let report = diff_values(&base, &new, DEFAULT_TOLERANCE);
        let by_path = |p: &str| report.entries.iter().find(|e| e.path == p).unwrap();
        assert_eq!(by_path("t_ms").verdict, Verdict::Noise);
        assert_eq!(by_path("u_ms").verdict, Verdict::Regressed);
        assert!(by_path("u_ms").ratio.is_infinite());
    }

    #[test]
    fn real_sidecar_shape_roundtrips_against_itself() {
        // A self-diff of the committed kernels sidecar shape must be all
        // noise/info with zero regressions.
        let v: serde::Value = serde_json::from_str(
            r#"{"gemm_512": {"shape": [512, 512, 512], "naive_ms": 15.4,
                "blocked_ms": 5.3, "blocked_gflops": 50.2, "speedup": 2.88},
                "pool": {"hits": 7643, "misses": 17}}"#,
        )
        .unwrap();
        let report = diff_values(&v, &v, DEFAULT_TOLERANCE);
        assert!(!report.has_regressions());
        assert!(report.entries.iter().all(|e| e.ratio == 1.0));
        assert!(report.only_base.is_empty() && report.only_new.is_empty());
    }
}
