//! §III-A / Eq. (1)-(2) validation: measured Phase-1 wall-clock vs the
//! analytic schedule model across worker counts.
//!
//! Each worker's kernels run on an equal share of the cores (`cores / W`
//! threads, at least one), modelling the paper's one-GPU-per-worker setup
//! — otherwise the kernels' shared-pool parallelism hides worker-level
//! scaling.
//!
//! Usage: `cargo run --release -p soup-bench --bin ablation_workers [preset]`

use soup_bench::harness::{model_config, write_csv, ExperimentPreset};
use soup_distrib::{predicted_total_time, simulate_schedule, train_ingredients_opts, TrainOpts};
use soup_gnn::{Arch, TrainConfig};
use soup_graph::DatasetKind;

fn main() {
    let preset = ExperimentPreset::from_args();
    let dataset = DatasetKind::Flickr.generate_scaled(42, preset.dataset_scale);
    let cfg = model_config(Arch::Gcn, &dataset);
    let tc = TrainConfig {
        epochs: preset.train_epochs,
        early_stop_patience: None,
        ..TrainConfig::quick()
    };
    let n = preset.ingredients.max(8);
    println!(
        "ABLATION workers: Eq. (1)/(2) schedule model vs measured (flickr/GCN, N={n} ingredients, cores / W kernel threads per worker)"
    );

    // Calibrate T_single with a single-worker run.
    let opts = |w: usize| TrainOpts::default().with_workers(w).with_seed(7);
    let single = train_ingredients_opts(&dataset, &cfg, &tc, 1, &opts(1))
        .expect("calibration run trains without a checkpoint dir");
    let t_single = single.wall_time.as_secs_f64();
    println!("calibrated T_single = {t_single:.3}s");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "workers", "measured(s)", "Eq.(1)(s)", "simulated", "imbalance"
    );
    let mut rows = Vec::new();
    for w in [1usize, 2, 4, 8] {
        let run = train_ingredients_opts(&dataset, &cfg, &tc, n, &opts(w))
            .expect("ablation run trains without a checkpoint dir");
        let measured = run.wall_time.as_secs_f64();
        let predicted = predicted_total_time(n, w, t_single);
        let sim = simulate_schedule(&vec![t_single; n], w);
        println!(
            "{w:>8} {measured:>12.3} {predicted:>12.3} {:>12.3} {:>10.3}",
            sim.makespan,
            sim.imbalance()
        );
        rows.push(format!(
            "{w},{measured:.4},{predicted:.4},{:.4},{:.4}",
            sim.makespan,
            sim.imbalance()
        ));
    }
    println!("\nnote: measured tracks Eq.(1) until physical cores are oversubscribed");
    let _ = write_csv(
        "ablation_workers",
        "workers,measured_s,eq1_s,simulated_s,imbalance",
        &rows,
    )
    .map(|p| soup_obs::info!("wrote {}", p.display()));
    soup_bench::harness::finish_observability();
}
