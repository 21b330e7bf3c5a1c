//! Uniform Souping (US): parameter-average of all ingredients.
//!
//! The "uninformed" baseline (§II-B): it never looks at the validation set,
//! so mixing is one pass of axpy over the parameter tensors — nearly always
//! the fastest strategy in Table III but usually the least accurate in
//! Table II.

use crate::ingredient::validate_ingredients;
use crate::strategy::{
    measure_soup, reject_persist, MixReport, SoupCtx, SoupOutcome, SoupStrategy,
};
use soup_gnn::ParamSet;

/// Uniform Souping configuration (none needed).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSouping;

impl SoupStrategy for UniformSouping {
    fn name(&self) -> &'static str {
        "US"
    }

    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        reject_persist(ctx, self.name())?;
        let ingredients = ctx.ingredients;
        validate_ingredients(ingredients);
        // Partial pools degrade gracefully: the average renormalises over
        // however many ingredients survived (1/R' each).
        measure_soup(ingredients, ctx.dataset, ctx.cfg, || {
            let sets: Vec<&ParamSet> = ingredients.iter().map(|i| &i.params).collect();
            Ok(MixReport {
                params: ParamSet::average(&sets),
                forward_passes: 0,
                epochs: 0,
                spmm_saved: 0,
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
    use soup_gnn::ModelConfig;
    use soup_graph::{Dataset, DatasetKind};
    use soup_tensor::SplitMix64;

    fn make_ingredients(n: usize, _d: &Dataset, cfg: &ModelConfig) -> Vec<Ingredient> {
        let mut init_rng = SplitMix64::new(7);
        let shared = init_params(cfg, &mut init_rng);
        (0..n)
            .map(|i| {
                // Perturb the shared init a little per ingredient.
                let mut p = shared.clone();
                let mut rng = SplitMix64::new(100 + i as u64);
                for layer in &mut p.layers {
                    for t in &mut layer.tensors {
                        let noise = soup_tensor::Tensor::randn(t.rows(), t.cols(), 0.01, &mut rng);
                        t.axpy(1.0, &noise);
                    }
                }
                Ingredient::new(i, p, 0.5, i as u64)
            })
            .collect()
    }

    #[test]
    fn average_of_identical_ingredients_is_identity() {
        let d = DatasetKind::Flickr.generate_scaled(1, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(8);
        let mut rng = SplitMix64::new(1);
        let p = init_params(&cfg, &mut rng);
        let ingredients: Vec<Ingredient> = (0..3)
            .map(|i| Ingredient::new(i, p.clone(), 0.5, 0))
            .collect();
        let outcome = UniformSouping.soup(&ingredients, &d, &cfg, 0);
        for (a, b) in outcome.params.flat().zip(p.flat()) {
            assert!(a.allclose(b, 1e-6));
        }
    }

    #[test]
    fn no_forward_passes_counted() {
        let d = DatasetKind::Flickr.generate_scaled(2, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(8);
        let ingredients = make_ingredients(4, &d, &cfg);
        let outcome = UniformSouping.soup(&ingredients, &d, &cfg, 0);
        assert_eq!(outcome.stats.forward_passes, 0);
        assert_eq!(outcome.stats.epochs, 0);
    }

    #[test]
    fn soup_shape_matches_ingredients() {
        let d = DatasetKind::Flickr.generate_scaled(3, 0.15);
        let cfg = ModelConfig::sage(d.num_features(), d.num_classes()).with_hidden(8);
        let ingredients = make_ingredients(3, &d, &cfg);
        let outcome = UniformSouping.soup(&ingredients, &d, &cfg, 0);
        assert!(outcome.params.same_shape(&ingredients[0].params));
    }
}
