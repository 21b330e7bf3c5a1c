//! Greedy Interpolated Souping (GIS) — Algorithm 2, from Graph Ladling
//! (Jaiswal et al. 2023). The state-of-the-art baseline the paper compares
//! against.
//!
//! GIS sorts ingredients by validation accuracy, seeds the soup with the
//! best one, and for each further ingredient performs an **exhaustive
//! linear search** over `granularity` interpolation ratios, keeping the
//! ratio that maximises validation accuracy. Every ratio costs one
//! full-graph forward pass, so the total cost is `O(N · g · F_v)` (§III-E)
//! — the inefficiency LS is designed to remove.

use crate::ingredient::{sort_by_val_acc, validate_ingredients};
use crate::strategy::{
    measure_soup, reject_persist, MixReport, SoupCtx, SoupOutcome, SoupStrategy,
};
use soup_gnn::cache::PropCache;
use soup_gnn::model::PropOps;
use soup_gnn::{evaluate_accuracy_cached, ParamSet};

/// GIS configuration.
#[derive(Debug, Clone, Copy)]
pub struct GisSouping {
    /// Number of interpolation ratios searched per ingredient
    /// (`linspace(0, 1, granularity)`, endpoints included).
    pub granularity: usize,
}

impl Default for GisSouping {
    fn default() -> Self {
        Self { granularity: 20 }
    }
}

impl GisSouping {
    pub fn new(granularity: usize) -> Self {
        assert!(
            granularity >= 2,
            "granularity must be >= 2 to include both endpoints"
        );
        Self { granularity }
    }

    /// The searched interpolation ratios.
    pub fn ratios(&self) -> Vec<f32> {
        (0..self.granularity)
            .map(|i| i as f32 / (self.granularity - 1) as f32)
            .collect()
    }
}

impl SoupStrategy for GisSouping {
    fn name(&self) -> &'static str {
        "GIS"
    }

    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        reject_persist(ctx, self.name())?;
        let (ingredients, dataset, cfg) = (ctx.ingredients, ctx.dataset, ctx.cfg);
        validate_ingredients(ingredients);
        assert!(self.granularity >= 2, "granularity must be >= 2");
        measure_soup(ingredients, dataset, cfg, || {
            let _gis_span = soup_obs::span!("soup.gis");
            let ops = PropOps::prepare(cfg.arch, &dataset.graph);
            // Every candidate evaluates on the same (graph, features), so the
            // weight-independent first hop (`op·X`) is shared across all of
            // them — bit-identical accuracies, one SpMM cheaper per forward
            // (no-op for GAT).
            let cache = PropCache::new(&ops, &dataset.features);
            let eval = |p: &ParamSet| -> f64 {
                evaluate_accuracy_cached(cfg, &ops, &cache, p, &dataset.labels, &dataset.splits.val)
            };
            let order = sort_by_val_acc(ingredients);
            let mut soup = ingredients[order[0]].params.clone();
            let mut forwards = 1usize;
            let mut soup_acc = eval(&soup);
            let ratios = self.ratios();
            let grid = &ratios[1..];
            // α-grid progress for the metrics sampler: fraction of
            // ingredients whose grid has been searched.
            let grid_total = order.len().saturating_sub(1).max(1);
            soup_obs::gauge!("soup.gis.progress").set(0.0);
            for (done, &idx) in order[1..].iter().enumerate() {
                let ingredient = &ingredients[idx].params;
                // Exhaustive linear search over interpolation ratios
                // (alpha = 0 leaves the soup unchanged, so accuracy can
                // never regress). Candidates run one after another through
                // one scratch ParamSet, refilled by the fused blend, so at
                // most one candidate forward is live; the kernels inside
                // each forward use the fork-join pool.
                forwards += grid.len();
                let mut scratch = soup.clone();
                let accs: Vec<f64> = grid
                    .iter()
                    .map(|&alpha| {
                        soup_obs::counter!("soup.gis.candidate_evals").inc();
                        ParamSet::blend_into(
                            &mut scratch,
                            &[1.0 - alpha, alpha],
                            &[&soup, ingredient],
                        );
                        eval(&scratch)
                    })
                    .collect();
                // Freed before the accepted blend below allocates, so the
                // peak holds one candidate soup, not two.
                drop(scratch);
                // First-improvement semantics: reduce over the grid in its
                // original order (`>=` keeps the latest tied ratio).
                let mut best: (f32, f64) = (0.0, soup_acc);
                for (&alpha, &acc) in grid.iter().zip(&accs) {
                    if acc >= best.1 {
                        best = (alpha, acc);
                    }
                }
                if best.0 > 0.0 {
                    // Rebuild through the same fused blend the candidates
                    // used, so the accepted soup is bitwise the evaluated
                    // candidate.
                    soup = ParamSet::blend(&[1.0 - best.0, best.0], &[&soup, ingredient]);
                    soup_acc = best.1;
                }
                soup_obs::trace_event!("soup.gis.ingredient",
                    "idx" => idx as u64,
                    "best_alpha" => best.0,
                    "best_acc" => best.1);
                soup_obs::gauge!("soup.gis.progress").set((done + 1) as f64 / grid_total as f64);
            }
            // Net savings: every cache-consuming forward skipped one SpMM,
            // minus the one SpMM spent building the cache.
            Ok(MixReport {
                params: soup,
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
        let d = DatasetKind::Flickr.generate_scaled(6, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(4);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 15,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 70 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 70 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn ratios_are_linspace() {
        let g = GisSouping::new(5);
        let r = g.ratios();
        assert_eq!(r, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn granularity_one_panics() {
        GisSouping::new(1);
    }

    #[test]
    fn never_worse_than_best_ingredient_on_val() {
        let (d, cfg, ingredients) = trained_ingredients(4);
        let outcome = GisSouping::new(6).soup(&ingredients, &d, &cfg, 0);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        assert!(
            outcome.val_accuracy >= best - 1e-9,
            "GIS soup {} < best ingredient {best}",
            outcome.val_accuracy
        );
    }

    #[test]
    fn forward_count_matches_complexity_model() {
        // 1 (seed eval) + (N-1) * (g-1) searches — cached forwards still
        // count as forwards (the complexity model charges work requested,
        // not SpMMs executed).
        let (d, cfg, ingredients) = trained_ingredients(3);
        let g = 5;
        let outcome = GisSouping::new(g).soup(&ingredients, &d, &cfg, 0);
        assert_eq!(outcome.stats.forward_passes, 1 + 2 * (g - 1));
        // Every forward consumed the cached aggregation; net savings
        // subtract the single cache-building SpMM.
        assert_eq!(outcome.stats.spmm_saved, 2 * (g - 1));
    }

    #[test]
    fn higher_granularity_costs_more_time() {
        let (d, cfg, ingredients) = trained_ingredients(3);
        let coarse = GisSouping::new(3).soup(&ingredients, &d, &cfg, 0);
        let fine = GisSouping::new(24).soup(&ingredients, &d, &cfg, 0);
        assert!(
            fine.stats.wall_time > coarse.stats.wall_time,
            "fine {:?} <= coarse {:?}",
            fine.stats.wall_time,
            coarse.stats.wall_time
        );
        assert!(fine.stats.forward_passes > coarse.stats.forward_passes);
    }

    #[test]
    fn single_ingredient_passthrough() {
        let (d, cfg, ingredients) = trained_ingredients(1);
        let outcome = GisSouping::default().soup(&ingredients, &d, &cfg, 0);
        for (a, b) in outcome.params.flat().zip(ingredients[0].params.flat()) {
            assert!(a.allclose(b, 1e-6));
        }
    }
}
