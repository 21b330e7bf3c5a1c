//! Phase 1 in detail: zero-communication distributed ingredient training.
//!
//! Shows the dynamic task queue spreading N ingredients over W workers
//! (§III-A), validates the measured makespan against the Eq. (1)/(2)
//! schedule model, shows that a rerun on another worker count produces
//! bit-identical ingredients, and soups the pool on one device.
//!
//! Run: `cargo run --release --example distributed_souping`

use enhanced_soups::distrib::{
    predicted_total_time, simulate_schedule, train_ingredients_detailed,
};
use enhanced_soups::prelude::*;
use enhanced_soups::soup::LearnedHyper;

fn main() {
    let dataset = DatasetKind::OgbnArxiv.generate_scaled(42, 0.4);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(32);
    let tc = TrainConfig {
        epochs: 15,
        ..TrainConfig::quick()
    };
    let (n, workers) = (8, 4);

    println!("Phase 1: training {n} ingredients on {workers} workers (zero communication)");
    let run = train_ingredients_detailed(&dataset, &cfg, &tc, n, workers, 42);
    println!("measured T_total = {:.3}s", run.wall_time.as_secs_f64());
    for report in &run.reports {
        println!(
            "  worker {} trained {:?} ({:.3}s busy)",
            report.worker_id,
            report.ingredients_trained,
            report.busy_time.as_secs_f64()
        );
    }

    // Schedule model, Eq. (1): T_total ≈ N/W * T_single.
    let busy: Vec<f64> = run
        .reports
        .iter()
        .map(|r| r.busy_time.as_secs_f64())
        .collect();
    let t_single = busy.iter().sum::<f64>() / n as f64;
    println!(
        "\nEq. (1) prediction with T_single={:.3}s: {:.3}s",
        t_single,
        predicted_total_time(n, workers, t_single)
    );
    let sim = simulate_schedule(&vec![t_single; n], workers);
    println!(
        "list-scheduling simulation: {:.3}s, imbalance {:.3}",
        sim.makespan,
        sim.imbalance()
    );

    // Determinism: each ingredient's training seed depends only on its
    // ordinal, never on the worker that claims it, so a rerun on one worker
    // (or a retried or resumed task) reproduces every parameter bit for bit.
    let serial = train_ingredients_detailed(&dataset, &cfg, &tc, n, 1, 42);
    let identical = serial
        .ingredients
        .iter()
        .zip(&run.ingredients)
        .all(|(a, b)| a.params.flat().zip(b.params.flat()).all(|(x, y)| x == y));
    println!("\nrerun on 1 worker: ingredients bit-identical: {identical}");

    // Phase 2: soup the id-ordered ingredients on one device.
    let outcome = LearnedSouping::new(LearnedHyper {
        epochs: 30,
        ..Default::default()
    })
    .soup(&run.ingredients, &dataset, &cfg, 9);
    println!(
        "\nPhase 2 (LS): val acc {:.2}% in {:.3}s",
        outcome.val_accuracy * 100.0,
        outcome.stats.wall_time.as_secs_f64()
    );
}
