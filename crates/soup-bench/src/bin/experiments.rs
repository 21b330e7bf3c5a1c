//! Regenerates the paper's tables and figures.
//!
//! Usage: `cargo run --release -p soup-bench --bin experiments --
//! [quick|standard|full] [SECTION...] [--trace-out FILE]
//! [--metrics-interval-ms N] [--metrics-summary]`
//!
//! Runs the named sections of `soup_bench::experiments::SECTIONS`, or all
//! of them, and prints each table as markdown while writing it to
//! `results/<table>.csv` with its metrics sidecar. Counters restart at each
//! section, so a sidecar covers the section that wrote it.

use soup_bench::experiments::SECTIONS;
use soup_bench::harness::{finish_observability, ExperimentPreset};

fn main() {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    let (preset, chosen) = ExperimentPreset::from_args(&names);
    for (name, section) in SECTIONS {
        if !chosen.is_empty() && !chosen.contains(name) {
            continue;
        }
        soup_obs::registry::reset();
        for table in section(&preset) {
            println!(
                "### {} (preset {})\n\n{}",
                table.name,
                preset.name,
                table.markdown()
            );
            match table.write(std::path::Path::new("results")) {
                Ok(path) => soup_obs::info!("wrote {}", path.display()),
                Err(e) => soup_obs::warn!("csv write failed: {e}"),
            }
        }
    }
    finish_observability();
}
