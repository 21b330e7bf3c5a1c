//! Partition Learned Souping (PLS) — Algorithm 4, the paper's second
//! contribution.
//!
//! PLS is Learned Souping with partition sampling: the graph is first
//! partitioned into `K` parts (METIS-like, balancing validation nodes —
//! §III-C), and every epoch draws `R` random partitions, joins them into a
//! subgraph *with their mutual cut edges preserved* (Eq. 5), and runs the
//! α-optimisation step on that subgraph only. Activations therefore scale
//! with `R/K` of the graph — the source of the paper's 76-80% memory
//! reductions — while the random partition mix acts like minibatching and
//! regularises the soup (§V-A).
//!
//! §VI-B analyses the `R/K` ratio: with `binom(K, R)` possible subgraphs,
//! `R=8, K=32` gives >10M combinations, while `R=1` never exercises cut
//! edges and costs 2-3% accuracy.
//!
//! This module holds only what Alg. 4 adds to Alg. 3 — `K`/`R`, the
//! partitioner choice and the partition-drawing epoch source; the
//! α-optimisation loop itself is LS's, in [`crate::learned`], and so are its
//! durable state and resume. Each epoch's subgraph gets its own `PropCache`
//! for its one forward.

use crate::ingredient::validate_ingredients;
use crate::learned::{fit_and_monitor_masks, learn_soup, EpochData, EpochSource, LearnedHyper};
use crate::strategy::{measure_soup, SoupCtx, SoupOutcome, SoupStrategy};
use soup_gnn::cache::PropCache;
use soup_gnn::model::PropOps;
use soup_gnn::ModelConfig;
use soup_graph::subgraph::InducedSubgraph;
use soup_graph::Dataset;
use soup_obs::{to_value, Value};
use soup_partition::{
    bfs_partition, partition_graph, partition_val_balanced, random_partition, PartitionConfig,
    Partitioning,
};
use soup_tensor::SplitMix64;

/// Which partitioner prepares PLS's partition pool. The paper prescribes
/// METIS with validation balancing (§III-C); the alternatives exist for
/// the partition-quality ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionerKind {
    /// Multilevel k-way with validation-node-boosted vertex weights
    /// (the paper's setting).
    #[default]
    MultilevelValBalanced,
    /// Multilevel k-way with uniform vertex weights.
    Multilevel,
    /// Cheap BFS block growing (locality, no refinement).
    Bfs,
    /// Structure-blind random assignment (ablation lower bound).
    Random,
}

/// PLS configuration.
#[derive(Debug, Clone, Copy)]
pub struct PartitionLearnedSouping {
    pub hyper: LearnedHyper,
    /// Total number of partitions `K`.
    pub num_partitions: usize,
    /// Partitions selected per epoch `R` (the partition budget).
    pub budget: usize,
    /// Partitioner preparing the pool.
    pub partitioner: PartitionerKind,
}

impl Default for PartitionLearnedSouping {
    fn default() -> Self {
        // The paper's practical choice: R=8, K=32 (§VI-B).
        Self {
            hyper: LearnedHyper::default(),
            num_partitions: 32,
            budget: 8,
            partitioner: PartitionerKind::MultilevelValBalanced,
        }
    }
}

impl PartitionLearnedSouping {
    pub fn new(hyper: LearnedHyper, num_partitions: usize, budget: usize) -> Self {
        assert!(num_partitions >= 1, "K must be >= 1");
        assert!(
            (1..=num_partitions).contains(&budget),
            "R must be in 1..=K (got R={budget}, K={num_partitions})"
        );
        Self {
            hyper,
            num_partitions,
            budget,
            ..Self::default()
        }
    }

    pub fn with_partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    fn run_partitioner(&self, dataset: &Dataset, seed: u64) -> Partitioning {
        let pcfg = PartitionConfig::new(self.num_partitions).with_seed(seed);
        match self.partitioner {
            PartitionerKind::MultilevelValBalanced => {
                partition_val_balanced(&dataset.graph, &dataset.splits, &pcfg)
            }
            PartitionerKind::Multilevel => {
                partition_graph(&dataset.graph, &vec![1.0; dataset.num_nodes()], &pcfg)
            }
            PartitionerKind::Bfs => bfs_partition(&dataset.graph, self.num_partitions, seed),
            PartitionerKind::Random => {
                random_partition(dataset.num_nodes(), self.num_partitions, seed)
            }
        }
    }

    /// The partition ratio `R/K` (§III-D) — the expected fraction of graph
    /// nodes (and hence activation memory) touched per epoch.
    pub fn partition_ratio(&self) -> f64 {
        self.budget as f64 / self.num_partitions as f64
    }

    /// Number of distinct epoch subgraphs: `binom(K, R)` (§VI-B).
    pub fn num_possible_subgraphs(&self) -> f64 {
        let k = self.num_partitions;
        // Multiplicative formula on the smaller side of the symmetry.
        let r = self.budget.min(k - self.budget);
        let mut acc = 1.0f64;
        for i in 0..r {
            acc *= (k - i) as f64 / (i + 1) as f64;
        }
        acc
    }
}

impl SoupStrategy for PartitionLearnedSouping {
    fn name(&self) -> &'static str {
        "PLS"
    }

    /// Fallible, resumable PLS entry point. With `ctx.persist` set, the
    /// loop checkpoints through the crash-safe store and can continue
    /// bit-identically from the last durable epoch. When
    /// `ctx.partitioning` is provided the K-way preprocessing (Fig. 2
    /// step 1) is taken as given — partitioning is "a preprocessing step",
    /// so repeated soups from one dataset amortise it — and the measured
    /// souping time covers only the α-optimisation epochs; otherwise the
    /// configured partitioner runs inside the measured region.
    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        validate_ingredients(ctx.ingredients);
        assert!(self.hyper.epochs > 0, "PLS needs at least one epoch");
        if let Some(partitioning) = ctx.partitioning {
            assert_eq!(
                partitioning.assignment.len(),
                ctx.dataset.num_nodes(),
                "partitioning does not match dataset"
            );
            assert_eq!(
                partitioning.k, self.num_partitions,
                "partitioning k != configured K"
            );
        }
        measure_soup(ctx.ingredients, ctx.dataset, ctx.cfg, || {
            let computed;
            let partitioning = match ctx.partitioning {
                Some(p) => p,
                None => {
                    computed = self.run_partitioner(ctx.dataset, ctx.seed);
                    &computed
                }
            };
            let _pls_span = soup_obs::span!("soup.pls");
            let rng = SplitMix64::new(ctx.seed).derive(0x915);
            let mut source = PartitionSource::new(self, ctx, &partitioning.assignment);
            learn_soup(&self.hyper, ctx, rng, &mut source)
        })
        .map(Some)
    }
}

/// PLS's epoch source — Alg. 4's `partitionSelection`: every epoch draws
/// `R` of the `K` partitions and hands back their induced subgraph.
pub(crate) struct PartitionSource<'a> {
    pls: &'a PartitionLearnedSouping,
    dataset: &'a Dataset,
    cfg: &'a ModelConfig,
    assignment: &'a [u32],
    /// Per node: is it one of the validation nodes α is fitted on?
    fit_is_val: Vec<bool>,
    /// The current epoch's prepared data — the only one resident.
    data: Option<EpochData<'static>>,
    /// The last draw, and the node count of its subgraph (telemetry).
    selected: Vec<u32>,
    sub_nodes: usize,
}

impl<'a> PartitionSource<'a> {
    pub(crate) fn new(
        pls: &'a PartitionLearnedSouping,
        ctx: &SoupCtx<'a>,
        assignment: &'a [u32],
    ) -> Self {
        let mut fit_is_val = vec![false; ctx.dataset.num_nodes()];
        for i in fit_and_monitor_masks(&pls.hyper, ctx).0 {
            fit_is_val[i] = true;
        }
        Self {
            pls,
            dataset: ctx.dataset,
            cfg: ctx.cfg,
            assignment,
            fit_is_val,
            data: None,
            selected: Vec::new(),
            sub_nodes: 0,
        }
    }
}

impl EpochSource for PartitionSource<'_> {
    const STRATEGY: &'static str = "pls";
    const RETRY_COUNTS_AS_FORWARD: bool = false;

    fn partition_budget(&self) -> (usize, usize) {
        (self.pls.num_partitions, self.pls.budget)
    }

    fn next_epoch(&mut self, rng: &mut SplitMix64) -> Option<&EpochData<'_>> {
        self.selected = rng
            .sample_indices(self.pls.num_partitions, self.pls.budget)
            .into_iter()
            .map(|p| p as u32)
            .collect();
        // Free the previous epoch before building this one, so only one
        // partition-union subgraph is ever resident (Fig. 4b). Every epoch
        // builds, so every epoch is a miss; the benchmark reads the
        // `subgraph_cache_{hits,misses}` counters by name.
        self.data = None;
        soup_obs::counter!("soup.pls.subgraph_cache_misses").inc();
        let (data, sub_nodes) = build_epoch(
            self.dataset,
            self.cfg,
            self.assignment,
            &self.selected,
            &self.fit_is_val,
        );
        self.sub_nodes = sub_nodes;
        if data.mask.is_empty() {
            // Degenerate draw: the selected partitions hold no fit nodes
            // (possible at tiny scales or under aggressive holdout). Drop
            // the empty epoch rather than stepping on a lossless subgraph.
            soup_obs::counter!("soup.pls.empty_partition_draws").inc();
            return None;
        }
        Some(self.data.insert(data))
    }

    fn trace_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("sub_nodes".to_string(), to_value(&(self.sub_nodes as u64))),
            ("selected".to_string(), to_value(&self.selected)),
        ]
    }
}

/// Prepare everything one PLS epoch needs from a partition draw. Returns it
/// with the node count of the induced subgraph, which is dropped as soon as
/// its operator, features and labels are gathered.
fn build_epoch(
    dataset: &Dataset,
    cfg: &ModelConfig,
    assignment: &[u32],
    selected: &[u32],
    fit_is_val: &[bool],
) -> (EpochData<'static>, usize) {
    let sub = InducedSubgraph::from_partitions(&dataset.graph, assignment, selected);
    // Validation nodes of the subgraph (local ids).
    let mask: Vec<usize> = sub
        .local_to_global
        .iter()
        .enumerate()
        .filter(|&(_, &g)| fit_is_val[g])
        .map(|(l, _)| l)
        .collect();
    let ops = PropOps::prepare(cfg.arch, &sub.graph);
    let features = sub.gather_features(&dataset.features);
    let labels = sub.gather_labels(&dataset.labels).into();
    let sub_nodes = sub.num_nodes();
    drop(sub);
    let data = EpochData {
        prop: Some(PropCache::new(&ops, &features)),
        ops,
        features,
        labels,
        mask,
    };
    (data, sub_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingredient::Ingredient;
    use crate::learned::{alpha_loop, materialize_soup, FullGraphSource, LearnedSouping};
    use soup_gnn::model::init_params;
    use soup_gnn::{train_single, TrainConfig};
    use soup_graph::DatasetKind;

    fn trained_ingredients(
        n: usize,
        seed: u64,
        scale: f64,
    ) -> (Dataset, ModelConfig, Vec<Ingredient>) {
        let d = DatasetKind::Flickr.generate_scaled(seed, scale);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(seed);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 15,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 200 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 200 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn partition_ratio_and_combinations() {
        let pls = PartitionLearnedSouping::default();
        assert_eq!(pls.partition_ratio(), 0.25);
        // binom(32, 8) = 10_518_300 — the ">10 million subgraphs" of §VI-B.
        assert!((pls.num_possible_subgraphs() - 10_518_300.0).abs() < 1.0);
    }

    #[test]
    fn binom_edge_cases() {
        let r1 = PartitionLearnedSouping::new(LearnedHyper::default(), 16, 1);
        assert!((r1.num_possible_subgraphs() - 16.0).abs() < 1e-9);
        let all = PartitionLearnedSouping::new(LearnedHyper::default(), 8, 8);
        assert!((all.num_possible_subgraphs() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "R must be")]
    fn budget_above_k_panics() {
        PartitionLearnedSouping::new(LearnedHyper::default(), 4, 5);
    }

    #[test]
    fn pls_produces_reasonable_soup() {
        let (d, cfg, ingredients) = trained_ingredients(4, 20, 0.25);
        let pls = PartitionLearnedSouping::new(
            LearnedHyper {
                epochs: 30,
                ..Default::default()
            },
            8,
            4,
        );
        let outcome = pls.soup(&ingredients, &d, &cfg, 3);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        assert!(
            outcome.val_accuracy >= best - 0.08,
            "PLS {} far below best ingredient {best}",
            outcome.val_accuracy
        );
        assert!(outcome.stats.epochs > 0, "every epoch was skipped");
    }

    #[test]
    fn pls_uses_less_memory_than_ls() {
        let (d, cfg, ingredients) = trained_ingredients(4, 21, 0.5);
        let h = LearnedHyper {
            epochs: 15,
            ..Default::default()
        };
        let ls = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 4);
        let pls = PartitionLearnedSouping::new(h, 16, 2).soup(&ingredients, &d, &cfg, 4);
        assert!(
            pls.stats.peak_mem_bytes < ls.stats.peak_mem_bytes,
            "PLS {} >= LS {}",
            pls.stats.peak_mem_bytes,
            ls.stats.peak_mem_bytes
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, cfg, ingredients) = trained_ingredients(3, 22, 0.2);
        let pls = PartitionLearnedSouping::new(
            LearnedHyper {
                epochs: 8,
                ..Default::default()
            },
            8,
            3,
        );
        let a = pls.soup(&ingredients, &d, &cfg, 9);
        let b = pls.soup(&ingredients, &d, &cfg, 9);
        assert_eq!(a.val_accuracy, b.val_accuracy);
    }

    #[test]
    fn prepartitioned_soup_matches_and_is_faster() {
        let (d, cfg, ingredients) = trained_ingredients(3, 24, 0.25);
        let hyper = LearnedHyper {
            epochs: 10,
            ..Default::default()
        };
        let pls = PartitionLearnedSouping::new(hyper, 8, 3);
        let partitioning = pls.run_partitioner(&d, 6);
        let pre = pls
            .try_soup(&SoupCtx::new(&ingredients, &d, &cfg, 6).with_partitioning(&partitioning))
            .unwrap()
            .unwrap();
        let full = pls.soup(&ingredients, &d, &cfg, 6);
        // Same seed + same partitioning path => identical soup.
        assert_eq!(pre.val_accuracy, full.val_accuracy);
        for (a, b) in pre.params.flat().zip(full.params.flat()) {
            assert_eq!(a, b);
        }
        // The prepartitioned variant excludes partitioning from its time.
        // Slack absorbs scheduler noise when the suite runs under load.
        assert!(
            pre.stats.wall_time <= full.stats.wall_time * 2 + std::time::Duration::from_millis(50)
        );
    }

    #[test]
    #[should_panic(expected = "partitioning k")]
    fn prepartitioned_k_mismatch_panics() {
        let (d, cfg, ingredients) = trained_ingredients(2, 25, 0.15);
        let hyper = LearnedHyper {
            epochs: 4,
            ..Default::default()
        };
        let pls8 = PartitionLearnedSouping::new(hyper, 8, 2);
        let pls4 = PartitionLearnedSouping::new(hyper, 4, 2);
        let partitioning = pls4.run_partitioner(&d, 1);
        let _ = pls8
            .try_soup(&SoupCtx::new(&ingredients, &d, &cfg, 1).with_partitioning(&partitioning));
    }

    #[test]
    fn one_partition_pls_is_ls_bitwise() {
        // Alg. 4 = Alg. 3 + partitionSelection: with K = R = 1 the draw is
        // always the whole graph, so the shared loop must walk the same α
        // trajectory from either source. The masked loss sums in mask
        // order — split order for LS, node-id order for PLS — hence the
        // sorted validation split.
        let (mut d, cfg, ingredients) = trained_ingredients(3, 27, 0.2);
        d.splits.val.sort_unstable();
        let h = LearnedHyper {
            epochs: 6,
            ..Default::default()
        };
        let ctx = SoupCtx::new(&ingredients, &d, &cfg, 5);
        let rng = SplitMix64::new(5).derive(0x15);
        let ls = alpha_loop(&h, &ctx, rng.clone(), &mut FullGraphSource::new(&h, &ctx)).unwrap();
        let assignment = vec![0u32; d.num_nodes()];
        let one = PartitionLearnedSouping::new(h, 1, 1);
        let mut source = PartitionSource::new(&one, &ctx, &assignment);
        let pls = alpha_loop(&h, &ctx, rng, &mut source).unwrap();
        assert_eq!(ls.alphas.raw, pls.alphas.raw, "α diverged");
        let (a, b) = (
            materialize_soup(&ingredients, &ls.alphas),
            materialize_soup(&ingredients, &pls.alphas),
        );
        assert!(a.flat().zip(b.flat()).all(|(x, y)| x == y), "soup diverged");
        assert_eq!((ls.epochs_run, ls.forwards), (pls.epochs_run, pls.forwards));
    }

    #[test]
    fn all_partitioner_kinds_run() {
        let (d, cfg, ingredients) = trained_ingredients(3, 23, 0.2);
        for kind in [
            PartitionerKind::MultilevelValBalanced,
            PartitionerKind::Multilevel,
            PartitionerKind::Bfs,
            PartitionerKind::Random,
        ] {
            let pls = PartitionLearnedSouping::new(
                LearnedHyper {
                    epochs: 6,
                    ..Default::default()
                },
                8,
                3,
            )
            .with_partitioner(kind);
            let outcome = pls.soup(&ingredients, &d, &cfg, 2);
            assert!(
                (0.0..=1.0).contains(&outcome.val_accuracy),
                "{kind:?}: {}",
                outcome.val_accuracy
            );
            assert!(outcome.stats.epochs > 0, "{kind:?} ran no epochs");
        }
    }
}
