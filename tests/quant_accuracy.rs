//! Quantized-inference accuracy gate: train a tiny ingredient pool, soup
//! it, quantize the souped weights, and require the quantized forward path
//! to stay within 0.5 percentage points of f32 test accuracy — the
//! acceptance bound for serving a soup through the int8/bf16 kernels.

use enhanced_soups::gnn::model::PropOps;
use enhanced_soups::gnn::{evaluate_accuracy, evaluate_accuracy_quant, Arch, QuantParamSet};
use enhanced_soups::prelude::*;
use enhanced_soups::tensor::quant::QuantKind;

fn soup_and_check(arch: Arch, seed: u64) {
    let dataset = DatasetKind::Flickr.generate_scaled(seed, 0.5);
    let cfg = match arch {
        Arch::Gcn => ModelConfig::gcn(dataset.num_features(), dataset.num_classes()),
        Arch::Sage => ModelConfig::sage(dataset.num_features(), dataset.num_classes()),
        Arch::Gat => ModelConfig::gat(dataset.num_features(), dataset.num_classes()),
        Arch::Gin => ModelConfig::gin(dataset.num_features(), dataset.num_classes()),
    }
    .with_hidden(16);
    let tc = TrainConfig {
        epochs: 10,
        ..TrainConfig::quick()
    };
    let ingredients = train_ingredients(&dataset, &cfg, &tc, 3, 2, seed);
    let outcome = UniformSouping.soup(&ingredients, &dataset, &cfg, seed);

    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    // Evaluate over every node, not just the test split: with the scaled
    // synthetic graph a 0.5 pp gate needs enough nodes that a single
    // flipped prediction doesn't exceed it on its own.
    let mask: Vec<usize> = (0..dataset.features.rows()).collect();
    let f32_acc = evaluate_accuracy(
        &cfg,
        &ops,
        &outcome.params,
        &dataset.features,
        &dataset.labels,
        &mask,
    );
    for kind in [QuantKind::Int8, QuantKind::Bf16] {
        let qp = QuantParamSet::quantize(&cfg, &outcome.params, kind);
        let quant_acc = evaluate_accuracy_quant(
            &cfg,
            &ops,
            None,
            &qp,
            &dataset.features,
            &dataset.labels,
            &mask,
        );
        let delta_pp = (f32_acc - quant_acc).abs() * 100.0;
        assert!(
            delta_pp <= 0.5,
            "{arch:?} {kind}: quantized accuracy {:.4} drifted {delta_pp:.3} pp from f32 {:.4}",
            quant_acc,
            f32_acc
        );
        // Quantization must actually shrink the weights it serves.
        assert!(qp.memory_bytes() < qp.f32_bytes(), "{arch:?} {kind}");
    }
}

#[test]
fn quantized_soup_accuracy_within_half_point_gcn() {
    soup_and_check(Arch::Gcn, 11);
}

#[test]
fn quantized_soup_accuracy_within_half_point_sage() {
    soup_and_check(Arch::Sage, 12);
}

#[test]
fn quantized_soup_accuracy_within_half_point_gat() {
    soup_and_check(Arch::Gat, 13);
}

#[test]
fn quantized_soup_accuracy_within_half_point_gin() {
    soup_and_check(Arch::Gin, 14);
}
