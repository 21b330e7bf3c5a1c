//! Shared experiment machinery: presets, grid cells, result aggregation
//! and table formatting.

use soup_core::strategy::test_accuracy;
use soup_core::{
    GisSouping, Ingredient, LearnedHyper, LearnedSouping, PartitionLearnedSouping, SoupOutcome,
    SoupStrategy, UniformSouping,
};
use soup_distrib::train_ingredients;
use soup_gnn::model::PropOps;
use soup_gnn::{evaluate_accuracy, Arch, ModelConfig, TrainConfig};
use soup_graph::metrics::mean_std;
use soup_graph::{Dataset, DatasetKind};

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

    /// The default for the experiment binaries. The `ingredients ×
    /// gis_granularity` to `learned_epochs` ratio mirrors the paper's
    /// regime (50 ingredients, §IV-C): GIS pays `N·(g-1)` full-graph
    /// forwards versus LS's `e` forward+backward passes.
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

    /// Parse from the CLI, defaulting to `standard`. The first positional
    /// argument selects the preset; `--trace-out FILE` opens a JSONL trace
    /// sink with the metrics sampler writing into it (tick length via
    /// `--metrics-interval-ms`, default 100) and `--metrics-summary` prints
    /// the span/counter report in [`finish_observability`].
    pub fn from_args() -> Self {
        let mut preset = None;
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
                other => {
                    eprintln!(
                        "unknown argument '{other}', expected \
                         [quick|standard|full] [--trace-out FILE] \
                         [--metrics-interval-ms N] [--metrics-summary]"
                    );
                    std::process::exit(2);
                }
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
        preset.unwrap_or_else(Self::standard)
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

/// A souping strategy selector for grid runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    Uniform,
    Gis,
    Learned,
    PartitionLearned,
}

impl StrategyKind {
    pub const TABLE: [StrategyKind; 4] = [
        Self::Uniform,
        Self::Gis,
        Self::Learned,
        Self::PartitionLearned,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Self::Uniform => "US",
            Self::Gis => "GIS",
            Self::Learned => "LS",
            Self::PartitionLearned => "PLS",
        }
    }

    /// Instantiate with preset hyperparameters.
    pub fn build(&self, preset: &ExperimentPreset) -> Box<dyn SoupStrategy> {
        let hyper = LearnedHyper {
            epochs: preset.learned_epochs,
            ..Default::default()
        };
        match self {
            Self::Uniform => Box::new(UniformSouping),
            Self::Gis => Box::new(GisSouping::new(preset.gis_granularity)),
            Self::Learned => Box::new(LearnedSouping::new(hyper)),
            Self::PartitionLearned => Box::new(PartitionLearnedSouping::new(
                hyper,
                preset.pls_k,
                preset.pls_r,
            )),
        }
    }
}

/// One (arch, dataset) grid cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    pub arch: Arch,
    pub dataset: DatasetKind,
    pub seed: u64,
}

/// Aggregated results of one strategy in a cell.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    pub strategy: StrategyKind,
    pub test_acc_mean: f64,
    pub test_acc_std: f64,
    pub time_mean_s: f64,
    pub time_std_s: f64,
    pub peak_mem_mean: f64,
    pub epochs_mean: f64,
    pub forward_passes_mean: f64,
}

/// Full cell result: the ingredient pool statistics plus per-strategy rows.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub arch: Arch,
    pub dataset: DatasetKind,
    pub ingredient_test_mean: f64,
    pub ingredient_test_std: f64,
    pub ingredient_tests: Vec<f64>,
    pub strategies: Vec<StrategyResult>,
}

/// Build the model config a cell uses (hidden sizes follow the paper's
/// "relatively small" models, §IV-B).
pub fn model_config(arch: Arch, dataset: &Dataset) -> ModelConfig {
    match arch {
        Arch::Gcn => {
            ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(64)
        }
        Arch::Sage => {
            ModelConfig::sage(dataset.num_features(), dataset.num_classes()).with_hidden(64)
        }
        Arch::Gat => ModelConfig::gat(dataset.num_features(), dataset.num_classes())
            .with_hidden(16)
            .with_heads(4),
        Arch::Gin => {
            ModelConfig::gin(dataset.num_features(), dataset.num_classes()).with_hidden(64)
        }
    }
}

/// Train the ingredient pool for a cell (Phase 1).
pub fn train_pool(
    dataset: &Dataset,
    cfg: &ModelConfig,
    preset: &ExperimentPreset,
    seed: u64,
) -> Vec<Ingredient> {
    let tc = TrainConfig {
        epochs: preset.train_epochs,
        early_stop_patience: None,
        ..TrainConfig::quick()
    };
    train_ingredients(dataset, cfg, &tc, preset.ingredients, preset.workers, seed)
}

/// Run one grid cell: train ingredients once, soup `preset.soups` times per
/// strategy, aggregate.
pub fn run_cell(cell: &CellConfig, preset: &ExperimentPreset) -> CellResult {
    let _cell_span = soup_obs::span!("cell");
    soup_obs::info!(
        "cell {}/{}: training {} ingredients on {} workers",
        cell.arch.name(),
        cell.dataset.name(),
        preset.ingredients,
        preset.workers
    );
    let dataset = cell
        .dataset
        .generate_scaled(cell.seed, preset.dataset_scale);
    let cfg = model_config(cell.arch, &dataset);
    let ingredients = train_pool(&dataset, &cfg, preset, cell.seed);

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

    let strategies = StrategyKind::TABLE
        .iter()
        .map(|kind| {
            // Release pooled workspace buffers before each strategy so its
            // peak-memory measurement (Fig. 4b) starts from a clean
            // allocator state and never inherits another experiment's idle
            // buffers.
            let trimmed = soup_tensor::pool::trim();
            soup_obs::counter!("bench.pool.trimmed_bytes").add(trimmed as u64);
            let strategy = kind.build(preset);
            let mut accs = Vec::new();
            let mut times = Vec::new();
            let mut mems = Vec::new();
            let mut epochs = Vec::new();
            let mut forwards = Vec::new();
            for rep in 0..preset.soups {
                let outcome: SoupOutcome = strategy.soup(
                    &ingredients,
                    &dataset,
                    &cfg,
                    cell.seed ^ ((rep as u64 + 1) * 0x9e37),
                );
                accs.push(test_accuracy(&outcome, &dataset, &cfg));
                times.push(outcome.stats.wall_time.as_secs_f64());
                mems.push(outcome.stats.peak_mem_bytes as f64);
                epochs.push(outcome.stats.epochs as f64);
                forwards.push(outcome.stats.forward_passes as f64);
            }
            let (acc_mean, acc_std) = mean_std(&accs);
            let (time_mean, time_std) = mean_std(&times);
            let (mem_mean, _) = mean_std(&mems);
            let (ep_mean, _) = mean_std(&epochs);
            let (fw_mean, _) = mean_std(&forwards);
            StrategyResult {
                strategy: *kind,
                test_acc_mean: acc_mean,
                test_acc_std: acc_std,
                time_mean_s: time_mean,
                time_std_s: time_std,
                peak_mem_mean: mem_mean,
                epochs_mean: ep_mean,
                forward_passes_mean: fw_mean,
            }
        })
        .collect();

    CellResult {
        arch: cell.arch,
        dataset: cell.dataset,
        ingredient_test_mean: ing_mean,
        ingredient_test_std: ing_std,
        ingredient_tests,
        strategies,
    }
}

/// The full 3×4 grid of the paper's evaluation.
pub fn full_grid(seed: u64) -> Vec<CellConfig> {
    let mut cells = Vec::new();
    for arch in Arch::ALL {
        for dataset in DatasetKind::ALL {
            cells.push(CellConfig {
                arch,
                dataset,
                seed,
            });
        }
    }
    cells
}

/// `mean ± std` with percent scaling (Table II style).
pub fn format_pm(mean: f64, std: f64) -> String {
    format!("{:5.2} ± {:.2}", mean * 100.0, std * 100.0)
}

/// `mean ± std` in seconds (Table III style).
pub fn format_pm_secs(mean: f64, std: f64) -> String {
    format!("{mean:7.3} ± {std:.3}")
}

/// Write rows as CSV under `results/`, with a metrics sidecar
/// (`results/{name}.metrics.json`) snapshotting every counter, gauge,
/// histogram and span accumulated while the artefact was produced.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut contents = String::from(header);
    contents.push('\n');
    for r in rows {
        contents.push_str(r);
        contents.push('\n');
    }
    std::fs::write(&path, contents)?;
    let metrics = serde_json::to_string(&soup_obs::registry::snapshot_value())
        .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
    std::fs::write(dir.join(format!("{name}.metrics.json")), metrics)?;
    Ok(path)
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
    fn strategy_kinds_cover_table() {
        let names: Vec<&str> = StrategyKind::TABLE.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["US", "GIS", "LS", "PLS"]);
    }

    #[test]
    fn grid_is_three_by_four() {
        let grid = full_grid(1);
        assert_eq!(grid.len(), 12);
    }

    #[test]
    fn formatting() {
        assert_eq!(format_pm(0.513, 0.0061), "51.30 ± 0.61");
        assert!(format_pm_secs(1.5, 0.25).contains("1.500"));
    }

    #[test]
    fn every_strategy_kind_builds() {
        let preset = ExperimentPreset::quick();
        for kind in StrategyKind::TABLE {
            let s = kind.build(&preset);
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn model_configs_match_dataset_dims() {
        use soup_gnn::Arch;
        let d = DatasetKind::Flickr.generate_scaled(1, 0.1);
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat, Arch::Gin] {
            let cfg = model_config(arch, &d);
            assert_eq!(cfg.in_dim, d.num_features(), "{arch:?}");
            assert_eq!(cfg.out_dim, d.num_classes(), "{arch:?}");
            assert_eq!(cfg.arch, arch);
        }
    }

    #[test]
    fn csv_writer_roundtrip() {
        let rows = vec!["a,1".to_string(), "b,2".to_string()];
        let path = write_csv("harness_test_tmp", "name,value", &rows).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "name,value\na,1\nb,2\n");
        std::fs::remove_file(&path).ok();
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
        let cell = CellConfig {
            arch: Arch::Gcn,
            dataset: DatasetKind::Flickr,
            seed: 5,
        };
        let result = run_cell(&cell, &preset);
        assert_eq!(result.strategies.len(), 4);
        assert_eq!(result.ingredient_tests.len(), 3);
        for s in &result.strategies {
            assert!(
                (0.0..=1.0).contains(&s.test_acc_mean),
                "{:?} acc {}",
                s.strategy,
                s.test_acc_mean
            );
            assert!(s.time_mean_s >= 0.0);
        }
        // US must be the cheapest in time among the four.
        let us = &result.strategies[0];
        for other in &result.strategies[1..] {
            assert!(us.time_mean_s <= other.time_mean_s + 1e-4);
        }
    }
}
