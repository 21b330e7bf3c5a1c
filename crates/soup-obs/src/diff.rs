//! Run-vs-run trace comparison with a noise band.
//!
//! `soupctl obs diff base.jsonl new.jsonl` aggregates each trace's span
//! records by path (total wall time + call count) and classifies every path
//! as **regressed**, **improved**, or **noise** against a relative
//! tolerance band (default ±5%): timing jitter inside the band is never
//! flagged, so the diff stays quiet across healthy re-runs while a real
//! slowdown (the acceptance bar is an injected 20%) stands out.
//!
//! Paths present in only one run are reported separately — a disappeared
//! span usually means a phase was skipped, not that it got infinitely
//! faster.

use std::collections::BTreeMap;
use std::path::Path;

use soup_error::Result;

/// Default relative noise band (±5%).
pub const DEFAULT_NOISE: f64 = 0.05;

/// Aggregated span totals for one path in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_us: u64,
    pub cpu_us: u64,
    pub alloc_b: u64,
}

/// Aggregate a trace's span records by path. Sums saturate: the numbers
/// come from a user-supplied file.
pub fn span_totals(path: impl AsRef<Path>) -> Result<BTreeMap<String, SpanAgg>> {
    let mut totals: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for span in crate::trace::read_spans(path)? {
        let agg = totals.entry(span.path).or_default();
        agg.calls = agg.calls.saturating_add(1);
        agg.total_us = agg.total_us.saturating_add(span.dur_us);
        agg.cpu_us = agg.cpu_us.saturating_add(span.cpu_us.unwrap_or(0));
        agg.alloc_b = agg.alloc_b.saturating_add(span.alloc_b.unwrap_or(0));
    }
    Ok(totals)
}

/// Verdict for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// New total wall time above the noise band.
    Regressed,
    /// New total wall time below the noise band.
    Improved,
    /// Within the band — indistinguishable from run-to-run jitter.
    Noise,
}

/// One compared span path.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    pub path: String,
    pub base: SpanAgg,
    pub new: SpanAgg,
    /// `new.total_us / base.total_us` (infinite when base is 0).
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Full comparison of two runs.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Paths present in both runs, sorted by descending |ratio − 1|.
    pub entries: Vec<DiffEntry>,
    /// Paths only in the base run (phase disappeared).
    pub only_base: Vec<String>,
    /// Paths only in the new run (phase appeared).
    pub only_new: Vec<String>,
    /// The noise band the verdicts used.
    pub noise: f64,
}

impl DiffReport {
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.verdict == Verdict::Regressed)
    }

    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Human-readable table, worst movers first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>12} {:>12} {:>8}  {}\n",
            "SPAN", "BASE", "NEW", "RATIO", "VERDICT"
        ));
        for e in &self.entries {
            let verdict = match e.verdict {
                Verdict::Regressed => "REGRESSED",
                Verdict::Improved => "improved",
                Verdict::Noise => "~noise",
            };
            out.push_str(&format!(
                "{:<40} {:>12} {:>12} {:>7.2}x  {}\n",
                e.path,
                format_us(e.base.total_us),
                format_us(e.new.total_us),
                e.ratio,
                verdict
            ));
        }
        for path in &self.only_base {
            out.push_str(&format!("{path:<40} only in base run\n"));
        }
        for path in &self.only_new {
            out.push_str(&format!("{path:<40} only in new run\n"));
        }
        let regressed = self.regressions().count();
        out.push_str(&format!(
            "{} spans compared, {} regressed (noise band ±{:.0}%)\n",
            self.entries.len(),
            regressed,
            self.noise * 100.0
        ));
        out
    }
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Compare two aggregated runs with a relative `noise` band.
pub fn diff_totals(
    base: &BTreeMap<String, SpanAgg>,
    new: &BTreeMap<String, SpanAgg>,
    noise: f64,
) -> DiffReport {
    let mut entries = Vec::new();
    let mut only_base = Vec::new();
    let mut only_new: Vec<String> = new
        .keys()
        .filter(|k| !base.contains_key(*k))
        .cloned()
        .collect();
    only_new.sort();
    for (path, b) in base {
        let Some(n) = new.get(path) else {
            only_base.push(path.clone());
            continue;
        };
        let ratio = if b.total_us == 0 {
            if n.total_us == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            n.total_us as f64 / b.total_us as f64
        };
        let verdict = if ratio > 1.0 + noise {
            Verdict::Regressed
        } else if ratio < 1.0 - noise {
            Verdict::Improved
        } else {
            Verdict::Noise
        };
        entries.push(DiffEntry {
            path: path.clone(),
            base: *b,
            new: *n,
            ratio,
            verdict,
        });
    }
    entries.sort_by(|a, b| {
        let da = (a.ratio - 1.0).abs();
        let db = (b.ratio - 1.0).abs();
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    DiffReport {
        entries,
        only_base,
        only_new,
        noise,
    }
}

/// Compare two trace files ([`span_totals`] + [`diff_totals`]).
pub fn diff_traces(
    base: impl AsRef<Path>,
    new: impl AsRef<Path>,
    noise: f64,
) -> Result<DiffReport> {
    Ok(diff_totals(&span_totals(base)?, &span_totals(new)?, noise))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_trace(name: &str, spans: &[(&str, u64)]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("soup_diff_{name}_{}.jsonl", std::process::id()));
        let mut content = String::from(
            "{\"type\":\"header\",\"schema\":\"soup-trace/1\",\"pid\":1,\"unix_time_s\":1}\n",
        );
        let mut ts = 0u64;
        for (span_path, dur) in spans {
            content.push_str(&format!(
                "{{\"type\":\"span\",\"path\":\"{span_path}\",\"ts_us\":{ts},\"dur_us\":{dur},\"tid\":0}}\n"
            ));
            ts += dur;
        }
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn flags_injected_slowdown_but_not_jitter() {
        // Golden case from the acceptance criteria: one span 20% slower,
        // the rest within ±5% jitter — only the slowdown is flagged.
        let base = write_trace(
            "base",
            &[
                ("train", 100_000),
                ("train/epoch", 80_000),
                ("soup.mix", 50_000),
            ],
        );
        let new = write_trace(
            "new",
            &[
                ("train", 103_000),      // +3%  -> noise
                ("train/epoch", 96_000), // +20% -> regressed
                ("soup.mix", 48_000),    // -4%  -> noise
            ],
        );
        let report = diff_traces(&base, &new, DEFAULT_NOISE).unwrap();
        assert!(report.has_regressions());
        let regressed: Vec<&str> = report.regressions().map(|e| e.path.as_str()).collect();
        assert_eq!(regressed, vec!["train/epoch"]);
        let noise_paths: Vec<&str> = report
            .entries
            .iter()
            .filter(|e| e.verdict == Verdict::Noise)
            .map(|e| e.path.as_str())
            .collect();
        assert!(noise_paths.contains(&"train"));
        assert!(noise_paths.contains(&"soup.mix"));
        // Worst mover sorts first and the rendering names it.
        assert_eq!(report.entries[0].path, "train/epoch");
        let rendered = report.render();
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("1 regressed"));
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&new).ok();
    }

    #[test]
    fn improvements_and_disjoint_paths_are_classified() {
        let base = write_trace("b2", &[("a", 100_000), ("gone", 10_000)]);
        let new = write_trace("n2", &[("a", 50_000), ("fresh", 10_000)]);
        let report = diff_traces(&base, &new, DEFAULT_NOISE).unwrap();
        assert!(!report.has_regressions());
        assert_eq!(report.entries[0].verdict, Verdict::Improved);
        assert_eq!(report.only_base, vec!["gone".to_string()]);
        assert_eq!(report.only_new, vec!["fresh".to_string()]);
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&new).ok();
    }

    #[test]
    fn repeated_instances_aggregate_before_comparing() {
        // 3 calls of 10ms vs 2 calls of 15ms: totals match, verdict noise.
        let base = write_trace("b3", &[("w/i", 10_000), ("w/i", 10_000), ("w/i", 10_000)]);
        let new = write_trace("n3", &[("w/i", 15_000), ("w/i", 15_000)]);
        let report = diff_traces(&base, &new, DEFAULT_NOISE).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].base.calls, 3);
        assert_eq!(report.entries[0].new.calls, 2);
        assert_eq!(report.entries[0].verdict, Verdict::Noise);
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&new).ok();
    }
}
