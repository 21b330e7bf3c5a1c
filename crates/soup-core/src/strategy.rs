//! The common souping interface and its measurement harness.
//!
//! Every algorithm runs inside [`measure_soup`], which wraps the mixing
//! phase in a wall-clock timer and a [`soup_tensor::MemoryScope`] — the
//! *measured* quantities behind Table III (time) and Fig. 4b (memory).
//! Validation/test accuracy of the finished soup is evaluated *outside*
//! the measured region so that all strategies are compared on the cost of
//! mixing alone (the paper does the same: US's memory is excluded from
//! Fig. 4b because it needs no forward passes at all, §V-C).
//!
//! A run ends by finishing or by returning an error. LS and PLS may write
//! durable Phase-2 state on the way ([`crate::resume`]); a process killed
//! mid-run continues from it with `--resume`.

use crate::ingredient::Ingredient;
use crate::resume::Phase2Persist;
use soup_gnn::model::PropOps;
use soup_gnn::{evaluate_accuracy, ModelConfig, ParamSet};
use soup_graph::Dataset;
use soup_partition::Partitioning;
use soup_tensor::memory::MemoryScope;
use std::time::{Duration, Instant};

/// Resource measurements of one souping run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoupStats {
    /// Wall-clock time of the mixing phase.
    pub wall_time: Duration,
    /// Peak device memory added during mixing (bytes above baseline).
    pub peak_mem_bytes: usize,
    /// Full-graph-equivalent forward passes performed (complexity model).
    /// Forwards that consumed a cached aggregation still count — the
    /// paper's `F_v` is a unit of work requested, not of SpMMs executed.
    pub forward_passes: usize,
    /// Optimisation epochs run (0 for search-based strategies).
    pub epochs: usize,
    /// SpMMs avoided by the Phase-2 evaluation engine (aggregation /
    /// subgraph caching), net of cache-build cost.
    pub spmm_saved: usize,
}

/// What a strategy's mixing closure reports back to [`measure_soup`].
#[derive(Debug, Clone)]
pub struct MixReport {
    /// The mixed parameters.
    pub params: ParamSet,
    /// Forward passes performed (cached ones included).
    pub forward_passes: usize,
    /// Optimisation epochs run.
    pub epochs: usize,
    /// Net SpMMs avoided via caching.
    pub spmm_saved: usize,
}

/// The result of souping a set of ingredients.
#[derive(Debug, Clone)]
pub struct SoupOutcome {
    /// The mixed model.
    pub params: ParamSet,
    /// Accuracy of the soup on the full validation split.
    pub val_accuracy: f64,
    /// Resource usage of the mixing phase.
    pub stats: SoupStats,
    /// Ordinals absent from the ingredient pool (gaps in `0..=max_id`) —
    /// non-empty when a fault-degraded Phase 1 delivered only `R' < R`
    /// ingredients and the soup was mixed from the survivors.
    pub missing: Vec<usize>,
}

impl SoupOutcome {
    /// Whether this soup was mixed from a partial ingredient set.
    pub fn is_degraded(&self) -> bool {
        !self.missing.is_empty()
    }
}

/// Ordinals missing from an ingredient pool: the gaps in `0..=max_id`.
/// A contiguous pool (the fault-free case) has none.
pub fn missing_ordinals(ingredients: &[Ingredient]) -> Vec<usize> {
    let Some(max_id) = ingredients.iter().map(|i| i.id).max() else {
        return Vec::new();
    };
    let mut present = vec![false; max_id + 1];
    for ing in ingredients {
        present[ing.id] = true;
    }
    (0..=max_id).filter(|&id| !present[id]).collect()
}

/// Everything a souping run consumes, bundled so every strategy exposes
/// one uniform entry point ([`SoupStrategy::try_soup`]) instead of the
/// divergent inherent signatures LS and PLS historically grew.
///
/// The required fields come from [`SoupCtx::new`]; the optional extras —
/// Phase-2 durability and a precomputed partitioning — are layered on with
/// the builder methods. Strategies that cannot honour an extra reject it
/// with [`soup_error::SoupError::Usage`] rather than silently dropping it
/// (except `partitioning`, which is documented as PLS-only preprocessing
/// and ignored by the full-graph strategies).
pub struct SoupCtx<'a> {
    /// The ingredient pool to mix.
    pub ingredients: &'a [Ingredient],
    /// Dataset supplying the validation signal (and test split later).
    pub dataset: &'a Dataset,
    /// Architecture the ingredients were trained with.
    pub cfg: &'a ModelConfig,
    /// Seed driving all of the strategy's internal randomness.
    pub seed: u64,
    /// Phase-2 durability: checkpoint the optimizer state through the
    /// crash-safe store and/or resume from it (LS/PLS only).
    pub persist: Option<&'a Phase2Persist>,
    /// A partitioning computed ahead of time, so repeated PLS soups on one
    /// dataset can amortise the preprocessing (PLS only; other strategies
    /// never consume it).
    pub partitioning: Option<&'a Partitioning>,
}

impl<'a> SoupCtx<'a> {
    /// A context with no optional extras — what [`SoupStrategy::soup`]
    /// builds internally.
    pub fn new(
        ingredients: &'a [Ingredient],
        dataset: &'a Dataset,
        cfg: &'a ModelConfig,
        seed: u64,
    ) -> Self {
        Self {
            ingredients,
            dataset,
            cfg,
            seed,
            persist: None,
            partitioning: None,
        }
    }

    /// Attach Phase-2 durability (LS/PLS); `None` leaves it off.
    pub fn with_persist(mut self, persist: Option<&'a Phase2Persist>) -> Self {
        self.persist = persist;
        self
    }

    /// Attach a precomputed partitioning (PLS).
    pub fn with_partitioning(mut self, partitioning: &'a Partitioning) -> Self {
        self.partitioning = Some(partitioning);
        self
    }
}

/// A souping algorithm.
///
/// [`Self::try_soup`] is the single fallible entry point every strategy
/// implements; [`Self::soup`] is the infallible convenience wrapper for
/// plain, non-persistent runs and keeps the historical 4-argument shape.
pub trait SoupStrategy {
    /// Short display name ("US", "GIS", "LS", "PLS", ...).
    fn name(&self) -> &'static str;

    /// Mix `ctx.ingredients` into a single model. The value is always
    /// `Ok(Some(outcome))` or an `Err` (storage, numeric watchdog,
    /// unsupported context extras). The `Option` stays only because the
    /// end-to-end benchmark matches on it; ROADMAP item 18 removes it.
    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>>;

    /// Infallible non-persistent wrapper around [`Self::try_soup`]. `seed`
    /// drives all of the strategy's internal randomness.
    fn soup(
        &self,
        ingredients: &[Ingredient],
        dataset: &Dataset,
        cfg: &ModelConfig,
        seed: u64,
    ) -> SoupOutcome {
        self.try_soup(&SoupCtx::new(ingredients, dataset, cfg, seed))
            .expect("souping without persistence cannot hit storage errors")
            .expect("try_soup always returns Some")
    }
}

/// Reject context extras a strategy does not support — the shared guard
/// for the full-graph strategies (US/Greedy/GIS), which have no optimizer
/// state to persist. Accepting-and-ignoring `--resume` would silently
/// recompute from scratch, so it is an error instead.
pub(crate) fn reject_persist(ctx: &SoupCtx<'_>, name: &str) -> crate::Result<()> {
    if ctx.persist.is_some() {
        return Err(soup_error::SoupError::usage(format!(
            "{name} has no phase-2 optimizer state to persist — \
             durability options apply to LS/PLS only"
        )));
    }
    Ok(())
}

/// Declarative strategy selection shared by `soupctl soup` and the serving
/// layer's re-soup path: name + the hyperparameters the CLI exposes,
/// buildable into a boxed [`SoupStrategy`].
#[derive(Debug, Clone)]
pub struct StrategySpec {
    /// Lowercase CLI name: `us`, `greedy`, `gis`, `ls`, `pls`.
    pub name: String,
    /// LS/PLS optimisation epochs.
    pub epochs: usize,
    /// GIS interpolation-grid granularity.
    pub granularity: usize,
    /// PLS partition count `K`.
    pub pls_k: usize,
    /// PLS per-epoch partition budget `R`.
    pub pls_r: usize,
}

impl StrategySpec {
    /// A spec with the CLI's default hyperparameters.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            epochs: 50,
            granularity: 20,
            pls_k: 16,
            pls_r: 4,
        }
    }

    /// Instantiate the named strategy, or a usage error for unknown names.
    pub fn build(&self) -> crate::Result<Box<dyn SoupStrategy>> {
        if matches!(self.name.as_str(), "ls" | "pls") && self.epochs == 0 {
            return Err(soup_error::SoupError::usage(
                "--epochs must be >= 1 for ls|pls",
            ));
        }
        let hyper = crate::learned::LearnedHyper {
            epochs: self.epochs,
            ..Default::default()
        };
        Ok(match self.name.as_str() {
            "us" => Box::new(crate::uniform::UniformSouping),
            "greedy" => Box::new(crate::greedy::GreedySouping),
            "gis" => {
                if self.granularity < 2 {
                    return Err(soup_error::SoupError::usage(
                        "--granularity must be >= 2 (both interpolation endpoints)",
                    ));
                }
                Box::new(crate::gis::GisSouping::new(self.granularity))
            }
            "ls" => Box::new(crate::learned::LearnedSouping::new(hyper)),
            "pls" => {
                if self.pls_k < 1 || self.pls_r < 1 || self.pls_r > self.pls_k {
                    return Err(soup_error::SoupError::usage(format!(
                        "PLS needs 1 <= R <= K (got R={}, K={})",
                        self.pls_r, self.pls_k
                    )));
                }
                Box::new(crate::pls::PartitionLearnedSouping::new(
                    hyper, self.pls_k, self.pls_r,
                ))
            }
            other => {
                return Err(soup_error::SoupError::usage(format!(
                    "unknown strategy '{other}' (expected us|greedy|gis|ls|pls)"
                )))
            }
        })
    }
}

/// Run `mix` under time/memory measurement, then evaluate the resulting
/// parameters on the full validation split. A failed mix (numeric watchdog
/// exhausted, storage error) is returned as is, with no accuracy.
///
/// `ingredients` is the pool being mixed; the outcome records which
/// ordinals (if any) are missing from it, so degraded soups — mixed from
/// the survivors of a faulty Phase 1 — carry that provenance.
pub fn measure_soup(
    ingredients: &[Ingredient],
    dataset: &Dataset,
    cfg: &ModelConfig,
    mix: impl FnOnce() -> crate::Result<MixReport>,
) -> crate::Result<SoupOutcome> {
    let missing = missing_ordinals(ingredients);
    if !missing.is_empty() {
        soup_obs::counter!("soup.degraded_runs").inc();
        soup_obs::warn!(
            "souping a degraded ingredient set: {} of {} ordinals missing {missing:?}",
            missing.len(),
            ingredients.len() + missing.len()
        );
    }
    let scope = MemoryScope::start();
    let start = Instant::now();
    let report = {
        let _mix_span = soup_obs::span!("soup.mix");
        mix()
    };
    let wall_time = start.elapsed();
    let mem = scope.finish();
    let MixReport {
        params,
        forward_passes,
        epochs,
        spmm_saved,
    } = report?;
    soup_obs::counter!("soup.forward_passes").add(forward_passes as u64);
    soup_obs::counter!("soup.spmm_saved").add(spmm_saved as u64);
    soup_obs::gauge!("soup.last_peak_mem_bytes").set(mem.peak_delta_bytes as f64);
    soup_obs::trace_event!("soup.measured",
        "wall_s" => wall_time.as_secs_f64(),
        "peak_mem_bytes" => mem.peak_delta_bytes as u64,
        "forward_passes" => forward_passes as u64,
        "epochs" => epochs as u64,
        "spmm_saved" => spmm_saved as u64,
        "missing" => missing.len() as u64);

    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    let val_accuracy = evaluate_accuracy(
        cfg,
        &ops,
        &params,
        &dataset.features,
        &dataset.labels,
        &dataset.splits.val,
    );
    Ok(SoupOutcome {
        params,
        val_accuracy,
        stats: SoupStats {
            wall_time,
            peak_mem_bytes: mem.peak_delta_bytes,
            forward_passes,
            epochs,
            spmm_saved,
        },
        missing,
    })
}

/// Evaluate a finished soup on the test split (the number Table II
/// reports).
pub fn test_accuracy(outcome: &SoupOutcome, dataset: &Dataset, cfg: &ModelConfig) -> f64 {
    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    evaluate_accuracy(
        cfg,
        &ops,
        &outcome.params,
        &dataset.features,
        &dataset.labels,
        &dataset.splits.test,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_gnn::model::init_params;
    use soup_graph::DatasetKind;
    use soup_tensor::SplitMix64;

    #[test]
    fn measure_soup_reports_resources() {
        let d = DatasetKind::Flickr.generate_scaled(1, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(8);
        let mut rng = SplitMix64::new(1);
        let params = init_params(&cfg, &mut rng);
        let outcome = measure_soup(&[], &d, &cfg, || {
            // Simulate a mixing phase that allocates something measurable.
            let tmp = soup_tensor::Tensor::zeros(256, 256);
            drop(tmp);
            Ok(MixReport {
                params: params.clone(),
                forward_passes: 3,
                epochs: 2,
                spmm_saved: 1,
            })
        })
        .unwrap();
        assert!(outcome.stats.peak_mem_bytes >= 256 * 256 * 4);
        assert_eq!(outcome.stats.forward_passes, 3);
        assert_eq!(outcome.stats.epochs, 2);
        assert_eq!(outcome.stats.spmm_saved, 1);
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
        assert!(!outcome.is_degraded());
    }

    #[test]
    fn missing_ordinals_finds_gaps() {
        let d = DatasetKind::Flickr.generate_scaled(3, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(8);
        let mut rng = SplitMix64::new(3);
        let p = init_params(&cfg, &mut rng);
        let pool: Vec<Ingredient> = [0usize, 1, 4]
            .iter()
            .map(|&id| Ingredient::new(id, p.clone(), 0.5, id as u64))
            .collect();
        assert_eq!(missing_ordinals(&pool), vec![2, 3]);
        assert_eq!(missing_ordinals(&[]), Vec::<usize>::new());
        let outcome = measure_soup(&pool, &d, &cfg, || {
            Ok(MixReport {
                params: p.clone(),
                forward_passes: 0,
                epochs: 0,
                spmm_saved: 0,
            })
        })
        .unwrap();
        assert_eq!(outcome.missing, vec![2, 3]);
        assert!(outcome.is_degraded());
    }

    #[test]
    fn test_accuracy_differs_from_val_split() {
        let d = DatasetKind::Flickr.generate_scaled(2, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(8);
        let mut rng = SplitMix64::new(2);
        let params = init_params(&cfg, &mut rng);
        let outcome = measure_soup(&[], &d, &cfg, || {
            Ok(MixReport {
                params,
                forward_passes: 0,
                epochs: 0,
                spmm_saved: 0,
            })
        })
        .unwrap();
        let t = test_accuracy(&outcome, &d, &cfg);
        assert!((0.0..=1.0).contains(&t));
    }
}
