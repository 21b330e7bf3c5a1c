//! Classic model ensembling — the baseline soups are designed to replace.
//!
//! §I/§II: traditional ensembles keep *all* N trained models and average
//! their predictions, so inference costs N forward passes and N models of
//! memory, while a soup collapses to a single model. Graph Ladling's
//! headline was that soups reach "GNN-ensemble-level scores"; this module
//! provides the ensemble evaluation plus measured inference-cost
//! comparison so the trade-off is reproducible.

use crate::ingredient::{validate_ingredients, Ingredient};
use soup_gnn::model::{forward, PropOps};
use soup_gnn::params::{ParamSet, ParamVars};
use soup_gnn::ModelConfig;
use soup_graph::metrics::accuracy;
use soup_graph::Dataset;
use soup_tensor::memory::MemoryScope;
use soup_tensor::tape::Tape;
use soup_tensor::{SplitMix64, Tensor};
use std::time::{Duration, Instant};

/// Soft-voting ensemble prediction: average the per-model softmax
/// probabilities, then argmax.
pub fn ensemble_predict(
    cfg: &ModelConfig,
    ops: &PropOps,
    ingredients: &[Ingredient],
    features: &Tensor,
) -> Vec<usize> {
    validate_ingredients(ingredients);
    let n = features.rows();
    let mut prob_sum = Tensor::zeros(n, cfg.out_dim);
    for ing in ingredients {
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &ing.params, false);
        let x = tape.constant(features.clone());
        let mut no_rng = SplitMix64::new(0);
        let logits = forward(&tape, cfg, ops, None, x, &vars.layers, false, &mut no_rng);
        let logp = tape.value(tape.log_softmax(logits));
        prob_sum = prob_sum.add(&logp.map(f32::exp));
    }
    prob_sum.argmax_rows()
}

/// Ensemble accuracy over `mask`.
pub fn ensemble_accuracy(
    cfg: &ModelConfig,
    ops: &PropOps,
    ingredients: &[Ingredient],
    dataset: &Dataset,
    mask: &[usize],
) -> f64 {
    let preds = ensemble_predict(cfg, ops, ingredients, &dataset.features);
    accuracy(&preds, &dataset.labels, mask)
}

/// Measured inference cost of one evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceCost {
    /// Wall-clock of a full-graph prediction.
    pub wall_time: Duration,
    /// Peak device memory added during prediction.
    pub peak_mem_bytes: usize,
    /// Bytes of model parameters that must be resident.
    pub param_bytes: usize,
    /// Forward passes performed.
    pub forward_passes: usize,
}

/// Side-by-side inference costs of a soup vs the full ensemble it came
/// from — the paper's Table-free but central motivating comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SoupVsEnsemble {
    pub soup_test_acc: f64,
    pub ensemble_test_acc: f64,
    pub soup_cost: InferenceCost,
    pub ensemble_cost: InferenceCost,
}

/// Measure prediction cost of a single parameter set.
pub fn soup_inference_cost(
    cfg: &ModelConfig,
    ops: &PropOps,
    params: &ParamSet,
    features: &Tensor,
) -> (Vec<usize>, InferenceCost) {
    let scope = MemoryScope::start();
    let start = Instant::now();
    let preds = soup_gnn::predict(cfg, ops, params, features);
    let wall_time = start.elapsed();
    let mem = scope.finish();
    (
        preds,
        InferenceCost {
            wall_time,
            peak_mem_bytes: mem.peak_delta_bytes,
            param_bytes: params.size_bytes(),
            forward_passes: 1,
        },
    )
}

/// Measure prediction cost of the ensemble.
pub fn ensemble_inference_cost(
    cfg: &ModelConfig,
    ops: &PropOps,
    ingredients: &[Ingredient],
    features: &Tensor,
) -> (Vec<usize>, InferenceCost) {
    let scope = MemoryScope::start();
    let start = Instant::now();
    let preds = ensemble_predict(cfg, ops, ingredients, features);
    let wall_time = start.elapsed();
    let mem = scope.finish();
    (
        preds,
        InferenceCost {
            wall_time,
            peak_mem_bytes: mem.peak_delta_bytes,
            param_bytes: ingredients.iter().map(|i| i.params.size_bytes()).sum(),
            forward_passes: ingredients.len(),
        },
    )
}

/// Full comparison of a finished soup against the ensemble of its
/// ingredients on the test split.
pub fn compare_soup_vs_ensemble(
    soup: &ParamSet,
    ingredients: &[Ingredient],
    dataset: &Dataset,
    cfg: &ModelConfig,
) -> SoupVsEnsemble {
    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    let (soup_preds, soup_cost) = soup_inference_cost(cfg, &ops, soup, &dataset.features);
    let (ens_preds, ensemble_cost) =
        ensemble_inference_cost(cfg, &ops, ingredients, &dataset.features);
    SoupVsEnsemble {
        soup_test_acc: accuracy(&soup_preds, &dataset.labels, &dataset.splits.test),
        ensemble_test_acc: accuracy(&ens_preds, &dataset.labels, &dataset.splits.test),
        soup_cost,
        ensemble_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformSouping;
    use crate::SoupStrategy;
    use soup_gnn::model::init_params;
    use soup_gnn::{train_single, TrainConfig};
    use soup_graph::DatasetKind;

    fn pool(n: usize) -> (Dataset, ModelConfig, Vec<Ingredient>) {
        let d = DatasetKind::Flickr.generate_scaled(40, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(40);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 12,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 400 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 400 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn single_model_ensemble_equals_model() {
        let (d, cfg, ingredients) = pool(1);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let ens = ensemble_predict(&cfg, &ops, &ingredients[..1], &d.features);
        let single = soup_gnn::predict(&cfg, &ops, &ingredients[0].params, &d.features);
        assert_eq!(ens, single);
    }

    #[test]
    fn ensemble_beats_mean_ingredient() {
        let (d, cfg, ingredients) = pool(4);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let ens_acc = ensemble_accuracy(&cfg, &ops, &ingredients, &d, &d.splits.test);
        let mean_ing: f64 = ingredients
            .iter()
            .map(|i| {
                let preds = soup_gnn::predict(&cfg, &ops, &i.params, &d.features);
                accuracy(&preds, &d.labels, &d.splits.test)
            })
            .sum::<f64>()
            / ingredients.len() as f64;
        assert!(
            ens_acc >= mean_ing - 0.01,
            "ensemble {ens_acc} below mean ingredient {mean_ing}"
        );
    }

    #[test]
    fn soup_param_footprint_is_one_nth_of_ensemble() {
        let (d, cfg, ingredients) = pool(4);
        let soup = UniformSouping.soup(&ingredients, &d, &cfg, 1);
        let cmp = compare_soup_vs_ensemble(&soup.params, &ingredients, &d, &cfg);
        assert_eq!(cmp.ensemble_cost.param_bytes, 4 * cmp.soup_cost.param_bytes);
        assert_eq!(cmp.ensemble_cost.forward_passes, 4);
        assert_eq!(cmp.soup_cost.forward_passes, 1);
    }

    #[test]
    fn ensemble_inference_slower_than_soup() {
        let (d, cfg, ingredients) = pool(4);
        let soup = UniformSouping.soup(&ingredients, &d, &cfg, 1);
        let cmp = compare_soup_vs_ensemble(&soup.params, &ingredients, &d, &cfg);
        assert!(
            cmp.ensemble_cost.wall_time > cmp.soup_cost.wall_time,
            "ensemble {:?} not slower than soup {:?}",
            cmp.ensemble_cost.wall_time,
            cmp.soup_cost.wall_time
        );
    }

    #[test]
    fn ensemble_predictions_are_valid_classes() {
        let (d, cfg, ingredients) = pool(3);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let preds = ensemble_predict(&cfg, &ops, &ingredients, &d.features);
        assert_eq!(preds.len(), d.num_nodes());
        assert!(preds.iter().all(|&p| p < d.num_classes()));
    }
}
