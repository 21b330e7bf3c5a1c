//! Shared experiment machinery: presets, ingredient pools, grid cells and
//! the [`Table`] every artifact is written through.

use soup_core::strategy::test_accuracy;
use soup_core::{Ingredient, LearnedHyper, SoupStrategy, StrategySpec};
use soup_distrib::train_ingredients;
use soup_gnn::model::{init_params, PropOps};
use soup_gnn::{evaluate_accuracy, train_single, Arch, ModelConfig, TrainConfig};
use soup_graph::metrics::mean_std;
use soup_graph::{Dataset, DatasetKind};
use soup_tensor::SplitMix64;
use std::path::{Path, PathBuf};

/// Scale preset for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentPreset {
    pub name: &'static str,
    /// Dataset node-count multiplier.
    pub dataset_scale: f64,
    /// Ingredients per (arch, dataset) cell (paper: 50).
    pub ingredients: usize,
    /// Soup repetitions per strategy (paper: 4).
    pub soups: usize,
    /// Ingredient-training epochs.
    pub train_epochs: usize,
    /// GIS interpolation granularity.
    pub gis_granularity: usize,
    /// LS / PLS optimisation epochs.
    pub learned_epochs: usize,
    /// PLS partition count K and budget R.
    pub pls_k: usize,
    pub pls_r: usize,
    /// Phase-1 worker threads.
    pub workers: usize,
}

impl ExperimentPreset {
    /// Seconds-per-cell smoke preset.
    pub fn quick() -> Self {
        Self {
            name: "quick",
            dataset_scale: 0.18,
            ingredients: 6,
            soups: 2,
            train_epochs: 12,
            gis_granularity: 12,
            learned_epochs: 15,
            pls_k: 8,
            pls_r: 2,
            workers: 4,
        }
    }

    /// The default preset. The `ingredients × gis_granularity` to
    /// `learned_epochs` ratio mirrors the paper's regime (50 ingredients,
    /// §IV-C): GIS pays `N·(g-1)` full-graph forwards versus LS's `e`
    /// forward+backward passes.
    pub fn standard() -> Self {
        Self {
            name: "standard",
            dataset_scale: 0.5,
            ingredients: 12,
            soups: 3,
            train_epochs: 30,
            gis_granularity: 20,
            learned_epochs: 40,
            pls_k: 16,
            pls_r: 4,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        }
    }

    /// Paper-scale settings (hours of wall-clock).
    pub fn full() -> Self {
        Self {
            name: "full",
            dataset_scale: 1.0,
            ingredients: 50,
            soups: 4,
            train_epochs: 80,
            gis_granularity: 20,
            learned_epochs: 60,
            pls_k: 32,
            pls_r: 8,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8),
        }
    }

    /// Parse the CLI, defaulting to `standard`. A positional argument is a
    /// preset name or one of `sections`, which are returned in the order
    /// given; `--trace-out FILE` opens a JSONL trace sink with the metrics
    /// sampler writing into it (tick length via `--metrics-interval-ms`,
    /// default 100) and `--metrics-summary` prints the span/counter report
    /// in [`finish_observability`].
    pub fn from_args(sections: &[&'static str]) -> (Self, Vec<&'static str>) {
        let mut preset = None;
        let mut chosen = Vec::new();
        let mut trace_out: Option<String> = None;
        let mut metrics_interval_ms: u64 = 100;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "quick" => preset = Some(Self::quick()),
                "full" => preset = Some(Self::full()),
                "standard" => preset = Some(Self::standard()),
                "--trace-out" => {
                    let Some(path) = args.next() else {
                        eprintln!("--trace-out needs a file argument");
                        std::process::exit(2);
                    };
                    trace_out = Some(path);
                }
                "--metrics-interval-ms" => {
                    let parsed = args.next().and_then(|v| v.parse().ok());
                    let Some(ms) = parsed else {
                        eprintln!("--metrics-interval-ms needs an integer argument");
                        std::process::exit(2);
                    };
                    metrics_interval_ms = ms;
                }
                "--metrics-summary" => {
                    METRICS_SUMMARY.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                other => match sections.iter().find(|s| **s == other) {
                    Some(section) => chosen.push(*section),
                    None => {
                        eprintln!(
                            "unknown argument '{other}', expected \
                             [quick|standard|full] [{}] [--trace-out FILE] \
                             [--metrics-interval-ms N] [--metrics-summary]",
                            sections.join("|")
                        );
                        std::process::exit(2);
                    }
                },
            }
        }
        if let Some(path) = trace_out {
            // Pool/memory gauges ride the sampler through the probe hook.
            soup_tensor::memory::install_obs_probe();
            let interval = std::time::Duration::from_millis(metrics_interval_ms);
            let traced = soup_obs::trace::init(&path)
                .map_err(|e| soup_error::SoupError::io_at(&path, e))
                .and_then(|()| soup_obs::series::start(interval));
            if let Err(e) = traced {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        (preset.unwrap_or_else(Self::standard), chosen)
    }

    /// LS/PLS hyperparameters at this preset's epoch count.
    pub fn learned(&self) -> LearnedHyper {
        LearnedHyper {
            epochs: self.learned_epochs,
            ..Default::default()
        }
    }

    /// The strategy `name` (`us|greedy|gis|ls|pls`) at this preset's
    /// hyperparameters.
    pub fn strategy(&self, name: &str) -> Box<dyn SoupStrategy> {
        StrategySpec {
            name: name.to_string(),
            epochs: self.learned_epochs,
            granularity: self.gis_granularity,
            pls_k: self.pls_k,
            pls_r: self.pls_r,
        }
        .build()
        .expect("every preset builds every strategy")
    }
}

static METRICS_SUMMARY: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Finalize the observability options of [`ExperimentPreset::from_args`]:
/// close the `--trace-out` sink (after the sampler's final sample, append
/// the final metrics record) and print the `--metrics-summary` report.
/// Binaries call this last.
pub fn finish_observability() {
    // Final pool release: after this, `DEVICE_MEMORY` pooled accounting
    // balances back to zero and only genuinely live tensors remain counted.
    soup_tensor::pool::trim();
    if let Some(path) = soup_obs::trace::finish() {
        soup_obs::info!("wrote trace {}", path.display());
    }
    if METRICS_SUMMARY.load(std::sync::atomic::Ordering::Relaxed) {
        soup_obs::report::print_summary();
    }
}

/// One artifact. Each cell is formatted once, then printed as a markdown
/// table and written as CSV.
#[derive(Debug)]
pub struct Table {
    pub name: &'static str,
    /// Column names, comma-separated as in the CSV.
    pub header: &'static str,
    pub rows: Vec<Vec<String>>,
}

/// A table row from displayable cells.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

impl Table {
    pub fn new(name: &'static str, header: &'static str) -> Self {
        Self {
            name,
            header,
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    pub fn markdown(&self) -> String {
        let line = |cells: &[&str]| format!("| {} |\n", cells.join(" | "));
        let header: Vec<&str> = self.header.split(',').collect();
        let mut out = line(&header) + &"|---".repeat(header.len()) + "|\n";
        for r in &self.rows {
            out += &line(&r.iter().map(String::as_str).collect::<Vec<_>>());
        }
        out
    }

    /// Write `dir/<name>.csv` and its sidecar `dir/<name>.metrics.json`,
    /// a snapshot of every counter, gauge, histogram and span recorded so
    /// far.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut contents = self.header.to_string() + "\n";
        for r in &self.rows {
            contents += &(r.join(",") + "\n");
        }
        std::fs::write(&path, contents)?;
        let metrics = serde_json::to_string(&soup_obs::registry::snapshot_value())
            .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
        std::fs::write(dir.join(format!("{}.metrics.json", self.name)), metrics)?;
        Ok(path)
    }
}

/// Ingredient training without early stopping.
pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        early_stop_patience: None,
        ..TrainConfig::quick()
    }
}

/// Train the ingredient pool for a cell (Phase 1).
pub fn train_pool(
    dataset: &Dataset,
    cfg: &ModelConfig,
    preset: &ExperimentPreset,
    seed: u64,
) -> Vec<Ingredient> {
    let tc = train_config(preset.train_epochs);
    train_ingredients(dataset, cfg, &tc, preset.ingredients, preset.workers, seed)
}

/// A pool of `n` ingredients of deliberately mixed quality: all start from
/// one initialisation, ingredient `i` trains `epochs(i)` epochs with seed
/// `seed + i`.
pub fn mixed_pool(
    dataset: &Dataset,
    cfg: &ModelConfig,
    n: usize,
    seed: u64,
    epochs: impl Fn(usize) -> usize,
) -> Vec<Ingredient> {
    let init = init_params(cfg, &mut SplitMix64::new(42));
    (0..n)
        .map(|i| {
            let seed = seed + i as u64;
            let tm = train_single(dataset, cfg, &train_config(epochs(i)), &init, seed);
            Ingredient::new(i, tm.params, tm.val_accuracy, seed)
        })
        .collect()
}

/// One strategy's results in a cell, aggregated over `preset.soups` soups.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    pub name: &'static str,
    pub test_acc_mean: f64,
    pub test_acc_std: f64,
    pub time_mean_s: f64,
    pub peak_mem_mean: f64,
}

/// One (arch, dataset) cell: its pool's mean test accuracy, then US, GIS, LS
/// and PLS in that order, and one Greedy soup of the same pool.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub arch: Arch,
    pub dataset: DatasetKind,
    pub ingredient_test_mean: f64,
    pub ingredient_test_std: f64,
    pub strategies: [StrategyResult; 4],
    pub greedy_test_acc: f64,
}

/// Run one grid cell: train ingredients once, soup `preset.soups` times per
/// strategy, aggregate.
pub fn run_cell(arch: Arch, kind: DatasetKind, seed: u64, preset: &ExperimentPreset) -> CellResult {
    let _cell_span = soup_obs::span!("cell");
    soup_obs::info!(
        "cell {}/{}: training {} ingredients on {} workers",
        arch.name(),
        kind.name(),
        preset.ingredients,
        preset.workers
    );
    let dataset = kind.generate_scaled(seed, preset.dataset_scale);
    let cfg = ModelConfig::for_arch(arch, dataset.num_features(), dataset.num_classes());
    let ingredients = train_pool(&dataset, &cfg, preset, seed);

    // Ingredient test accuracies (the "Ingredients" column of Table II).
    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    let ingredient_tests: Vec<f64> = ingredients
        .iter()
        .map(|i| {
            evaluate_accuracy(
                &cfg,
                &ops,
                &i.params,
                &dataset.features,
                &dataset.labels,
                &dataset.splits.test,
            )
        })
        .collect();
    let (ing_mean, ing_std) = mean_std(&ingredient_tests);

    let strategies = ["us", "gis", "ls", "pls"].map(|name| {
        // Release pooled workspace buffers before each strategy so its
        // peak-memory measurement (Fig. 4b) starts from a clean allocator
        // state and never inherits another experiment's idle buffers.
        let trimmed = soup_tensor::pool::trim();
        soup_obs::counter!("bench.pool.trimmed_bytes").add(trimmed as u64);
        let strategy = preset.strategy(name);
        let (mut accs, mut times, mut mems) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..preset.soups {
            let outcome = strategy.soup(
                &ingredients,
                &dataset,
                &cfg,
                seed ^ ((rep as u64 + 1) * 0x9e37),
            );
            accs.push(test_accuracy(&outcome, &dataset, &cfg));
            times.push(outcome.stats.wall_time.as_secs_f64());
            mems.push(outcome.stats.peak_mem_bytes as f64);
        }
        let (test_acc_mean, test_acc_std) = mean_std(&accs);
        StrategyResult {
            name: strategy.name(),
            test_acc_mean,
            test_acc_std,
            time_mean_s: mean_std(&times).0,
            peak_mem_mean: mean_std(&mems).0,
        }
    });
    let greedy = preset
        .strategy("greedy")
        .soup(&ingredients, &dataset, &cfg, 1);

    CellResult {
        arch,
        dataset: kind,
        ingredient_test_mean: ing_mean,
        ingredient_test_std: ing_std,
        strategies,
        greedy_test_acc: test_accuracy(&greedy, &dataset, &cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_ordering() {
        let q = ExperimentPreset::quick();
        let s = ExperimentPreset::standard();
        let f = ExperimentPreset::full();
        assert!(q.ingredients < s.ingredients && s.ingredients < f.ingredients);
        assert!(q.dataset_scale < s.dataset_scale && s.dataset_scale <= f.dataset_scale);
        assert_eq!(f.ingredients, 50); // paper's count
        assert_eq!(f.soups, 4); // paper reports the average of 4 soups
        assert_eq!((f.pls_k, f.pls_r), (32, 8)); // §VI-B practical choice
    }

    #[test]
    fn table_writes_csv_and_markdown_from_the_same_cells() {
        let mut t = Table::new("harness_test_tmp", "name,value");
        t.push(row!["a", 1]);
        t.push(row!["b", format!("{:.2}", 2.0)]);
        assert_eq!(
            t.markdown(),
            "| name | value |\n|---|---|\n| a | 1 |\n| b | 2.00 |\n"
        );
        let dir = std::env::temp_dir().join(format!("soup-bench-table-{}", std::process::id()));
        let path = t.write(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "name,value\na,1\nb,2.00\n"
        );
        assert!(dir.join("harness_test_tmp.metrics.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_cell_runs_end_to_end() {
        // The smallest possible full-pipeline smoke test of the harness.
        let mut preset = ExperimentPreset::quick();
        preset.dataset_scale = 0.12;
        preset.ingredients = 3;
        preset.soups = 1;
        preset.train_epochs = 8;
        preset.learned_epochs = 8;
        let result = run_cell(Arch::Gcn, DatasetKind::Flickr, 5, &preset);
        let names = result.strategies.each_ref().map(|s| s.name);
        assert_eq!(names, ["US", "GIS", "LS", "PLS"]);
        for s in &result.strategies {
            assert!(
                (0.0..=1.0).contains(&s.test_acc_mean),
                "{} acc {}",
                s.name,
                s.test_acc_mean
            );
            assert!(s.time_mean_s >= 0.0);
        }
        assert!((0.0..=1.0).contains(&result.greedy_test_acc));
        // US must be the cheapest in time among the four.
        let us = &result.strategies[0];
        for other in &result.strategies[1..] {
            assert!(us.time_mean_s <= other.time_mean_s + 1e-4);
        }
    }
}
