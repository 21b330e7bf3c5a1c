//! `regress` — the CI bench-regression gate.
//!
//! ```text
//! regress <baseline.json> <fresh.json> [--tolerance F] [--warn-only]
//! ```
//!
//! Compares a freshly generated `BENCH_*.json` sidecar against the
//! committed baseline with [`soup_bench::regress`]'s noise-aware,
//! direction-classified diff. Exits non-zero when any metric moved beyond
//! the tolerance band in its bad direction; `--warn-only` prints the same
//! report but always exits 0 (the first-landing mode while CI baselines
//! settle).

use soup_bench::regress::{check_tolerance, diff_files, DEFAULT_TOLERANCE};
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut warn_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let Some(value) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --tolerance needs a fractional value (e.g. 0.25)");
                    exit(2);
                };
                tolerance = check_tolerance(value).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(2);
                });
            }
            "--warn-only" => warn_only = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: regress <baseline.json> <fresh.json> \
                     [--tolerance F] [--warn-only]"
                );
                exit(0);
            }
            other if !other.starts_with("--") => files.push(other.to_string()),
            other => {
                eprintln!("error: unknown flag '{other}'");
                exit(2);
            }
        }
    }
    let [base, fresh] = files.as_slice() else {
        eprintln!("usage: regress <baseline.json> <fresh.json> [--tolerance F] [--warn-only]");
        exit(2);
    };
    let report = match diff_files(Path::new(base), Path::new(fresh), tolerance) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    print!("{}", report.render());
    if report.has_regressions() {
        if warn_only {
            println!("warn-only: regressions reported but not gating");
        } else {
            eprintln!("error: bench regression detected ({base} -> {fresh})");
            exit(1);
        }
    }
}
