//! Greedy Souping (Algorithm 1, Wortsman et al. / Model Soups).
//!
//! Sort ingredients by validation accuracy; iterate best-first, tentatively
//! averaging each ingredient into the soup and keeping it only if the
//! average's validation accuracy does not drop. Each acceptance test is one
//! full-graph forward pass.

use crate::ingredient::{sort_by_val_acc, validate_ingredients};
use crate::strategy::{
    measure_soup, reject_persist, MixReport, SoupCtx, SoupOutcome, SoupStrategy,
};
use soup_gnn::cache::PropCache;
use soup_gnn::model::PropOps;
use soup_gnn::{evaluate_accuracy_cached, ParamSet};

/// Greedy Souping configuration (none needed).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySouping;

impl SoupStrategy for GreedySouping {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        reject_persist(ctx, self.name())?;
        let (ingredients, dataset, cfg) = (ctx.ingredients, ctx.dataset, ctx.cfg);
        validate_ingredients(ingredients);
        measure_soup(ingredients, dataset, cfg, || {
            let ops = PropOps::prepare(cfg.arch, &dataset.graph);
            // Every acceptance test evaluates on the same (graph, features),
            // so the first-hop aggregation is shared across all of them.
            let cache = PropCache::new(&ops, &dataset.features);
            let eval = |p: &ParamSet| -> f64 {
                evaluate_accuracy_cached(cfg, &ops, &cache, p, &dataset.labels, &dataset.splits.val)
            };
            let order = sort_by_val_acc(ingredients);
            let mut members: Vec<&ParamSet> = vec![&ingredients[order[0]].params];
            let mut forwards = 1usize;
            let mut best_acc = eval(&ingredients[order[0]].params);
            for &idx in &order[1..] {
                let mut candidate_members = members.clone();
                candidate_members.push(&ingredients[idx].params);
                let candidate = ParamSet::average(&candidate_members);
                forwards += 1;
                let acc = eval(&candidate);
                if acc >= best_acc {
                    members = candidate_members;
                    best_acc = acc;
                }
            }
            Ok(MixReport {
                params: ParamSet::average(&members),
                forward_passes: forwards,
                epochs: 0,
                spmm_saved: cache.hits().saturating_sub(1),
            })
        })
        .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingredient::Ingredient;
    use soup_gnn::model::init_params;
    use soup_gnn::{train_single, ModelConfig, TrainConfig};
    use soup_graph::{Dataset, DatasetKind};
    use soup_tensor::SplitMix64;

    fn trained_ingredients(n: usize) -> (Dataset, ModelConfig, Vec<Ingredient>) {
        let d = DatasetKind::Flickr.generate_scaled(5, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(3);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 15,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 50 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 50 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn soup_at_least_as_good_as_best_ingredient_on_val() {
        let (d, cfg, ingredients) = trained_ingredients(4);
        let outcome = GreedySouping.soup(&ingredients, &d, &cfg, 0);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        // Greedy only accepts non-degrading merges, so the final soup's
        // val accuracy must not be below the best ingredient's.
        assert!(
            outcome.val_accuracy >= best - 1e-9,
            "soup {} < best ingredient {best}",
            outcome.val_accuracy
        );
    }

    #[test]
    fn counts_one_forward_per_candidate() {
        let (d, cfg, ingredients) = trained_ingredients(4);
        let outcome = GreedySouping.soup(&ingredients, &d, &cfg, 0);
        assert_eq!(outcome.stats.forward_passes, 4);
    }

    #[test]
    fn single_ingredient_passthrough() {
        let (d, cfg, ingredients) = trained_ingredients(1);
        let outcome = GreedySouping.soup(&ingredients[..1], &d, &cfg, 0);
        for (a, b) in outcome.params.flat().zip(ingredients[0].params.flat()) {
            assert!(a.allclose(b, 1e-6));
        }
    }
}
