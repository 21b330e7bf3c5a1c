//! A warm GAT training epoch draws nothing new from the tensor pool, also
//! on a graph whose hubs have an in-degree of 64 or more (the pool's
//! smallest pooled size).
//!
//! The check reads the process-global `tensor.pool.misses` counter, so it
//! is the only test in its binary. It runs kernels on one thread: the
//! pool's minted bound counts buffers live at once, and two threads may
//! first overlap on a workspace size in any epoch.

use enhanced_soups::gnn::{init_params, train_single};
use enhanced_soups::graph::{SbmConfig, Splits};
use enhanced_soups::prelude::*;
use enhanced_soups::tensor::parallel;

#[test]
fn warm_gat_epochs_draw_nothing_new_from_the_pool() {
    let sbm = SbmConfig {
        nodes: 800,
        classes: 4,
        avg_degree: 24.0,
        homophily: 0.8,
        hub_fraction: 0.05,
        hub_boost: 4.0,
        feature_dim: 32,
        centroid_scale: 0.3,
        feature_noise: 1.0,
        label_noise: 0.1,
    };
    let synth = sbm.generate(3);
    let splits = Splits::random(sbm.nodes, 0.5, 0.25, 0.25, 3);
    let d = Dataset::from_parts(synth.graph, synth.features, synth.labels, splits, 4);
    let max_degree = (0..d.num_nodes()).map(|v| d.graph.degree(v)).max();
    assert!(
        max_degree >= Some(64),
        "the graph needs a hub with in-degree ≥ 64, max is {max_degree:?}"
    );

    let cfg = ModelConfig {
        arch: Arch::Gat,
        hidden: 8,
        heads: 4,
        ..ModelConfig::gcn(d.num_features(), d.num_classes())
    };
    let init = init_params(&cfg, &mut SplitMix64::new(3));
    let tc = TrainConfig {
        epochs: 1,
        eval_every: 1,
        ..TrainConfig::quick()
    };
    let misses = || enhanced_soups::obs::registry::counter("tensor.pool.misses").get();
    let epoch = || drop(train_single(&d, &cfg, &tc, &init, 1));

    parallel::with_threads(1, || {
        epoch();
        epoch();
        let before = misses();
        epoch();
        assert_eq!(
            misses() - before,
            0,
            "a warm GAT epoch took fresh buffers from the pool"
        );
    });
}
