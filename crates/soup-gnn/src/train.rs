//! Ingredient training (Phase 1, Fig. 1).
//!
//! Each ingredient starts from the *shared* initialisation (Graph Ladling's
//! key finding, which the paper adopts: replicas trained from the same
//! random parameter initialisation stay mixable) and diverges through its
//! own training randomness: dropout masks, minibatch composition and
//! shuffle order, all keyed by the ingredient's `train_seed`.
//!
//! Two modes, as in §IV-B:
//! - **full-batch**: one tape over the whole graph per epoch;
//! - **minibatch**: GraphSAGE-style fanout-sampled subgraphs per batch.

use crate::config::ModelConfig;
use crate::eval::evaluate_accuracy;
use crate::model::{forward, PropOps};
use crate::params::{ParamSet, ParamVars};
use soup_graph::sampling::{minibatches, NeighborSampler};
use soup_graph::Dataset;
use soup_tensor::optim::Adam;
use soup_tensor::tape::Tape;
use soup_tensor::SplitMix64;

/// Minibatch mode settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinibatchConfig {
    pub batch_size: usize,
    /// Neighbor fanout per hop, outermost first.
    pub fanouts: Vec<usize>,
}

/// Stochastic Weight Averaging (Izmailov et al. 2019 — the paper's
/// reference \[16\]: "averaging weights leads to wider optima and better
/// generalization"). When enabled, the returned parameters are the running
/// average of the checkpoints collected every `every` epochs from
/// `start_epoch` on — a *temporal* soup over one trajectory, complementary
/// to the *replica* soups of Phase 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwaConfig {
    /// First epoch (0-based) whose weights enter the average.
    pub start_epoch: usize,
    /// Collect a checkpoint every this many epochs.
    pub every: usize,
}

impl SwaConfig {
    pub fn new(start_epoch: usize, every: usize) -> Self {
        assert!(every > 0, "SWA collection interval must be positive");
        Self { start_epoch, every }
    }
}

/// Training-loop hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f32,
    pub weight_decay: f32,
    /// `None` = full-batch training.
    pub minibatch: Option<MinibatchConfig>,
    /// Early stopping on validation accuracy: stop after this many epochs
    /// without improvement, restoring the best parameters.
    pub early_stop_patience: Option<usize>,
    /// Validate every `eval_every` epochs (1 = every epoch).
    pub eval_every: usize,
    /// Stochastic Weight Averaging over the training trajectory.
    pub swa: Option<SwaConfig>,
}

impl TrainConfig {
    /// Fast settings for tests and examples.
    pub fn quick() -> Self {
        Self {
            epochs: 30,
            lr: 0.01,
            weight_decay: 5e-4,
            minibatch: None,
            early_stop_patience: None,
            eval_every: 5,
            swa: None,
        }
    }

    /// The settings experiments use by default.
    pub fn standard() -> Self {
        Self {
            epochs: 80,
            lr: 0.01,
            weight_decay: 5e-4,
            minibatch: None,
            early_stop_patience: Some(20),
            eval_every: 2,
            swa: None,
        }
    }

    pub fn with_minibatch(mut self, batch_size: usize, fanouts: Vec<usize>) -> Self {
        self.minibatch = Some(MinibatchConfig {
            batch_size,
            fanouts,
        });
        self
    }
}

/// A trained ingredient.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    pub params: ParamSet,
    pub val_accuracy: f64,
    pub epochs_run: usize,
}

/// Train one model from `init` on `dataset`, with all training randomness
/// derived from `train_seed`.
pub fn train_single(
    dataset: &Dataset,
    cfg: &ModelConfig,
    tc: &TrainConfig,
    init: &ParamSet,
    train_seed: u64,
) -> TrainedModel {
    assert!(tc.epochs > 0, "need at least one epoch");
    assert!(tc.eval_every > 0, "eval_every must be positive");
    let _train_span = soup_obs::span!("train");
    soup_obs::trace_event!("train.start",
        "train_seed" => train_seed,
        "epochs" => tc.epochs as u64,
        "minibatch" => tc.minibatch.is_some());
    let root = SplitMix64::new(train_seed);
    let mut params: Vec<soup_tensor::Tensor> = init.flat().cloned().collect();
    let layout = init.clone(); // shapes + names for rebuilds
    let mut opt = Adam::new(tc.lr, tc.weight_decay);
    let full_ops = PropOps::prepare(cfg.arch, &dataset.graph);

    let rebuild = |flat: &[soup_tensor::Tensor]| -> ParamSet {
        let mut it = flat.iter().cloned();
        ParamSet {
            layers: layout
                .layers
                .iter()
                .map(|l| crate::params::LayerParams {
                    name: l.name.clone(),
                    tensors: l
                        .tensors
                        .iter()
                        .map(|_| it.next().expect("flat underrun"))
                        .collect(),
                })
                .collect(),
        }
    };

    let mut best: Option<(f64, Vec<soup_tensor::Tensor>)> = None;
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    // SWA running sum + checkpoint count.
    let mut swa_acc: Option<(Vec<soup_tensor::Tensor>, usize)> = None;

    for epoch in 0..tc.epochs {
        epochs_run = epoch + 1;
        let _epoch_span = soup_obs::span!("epoch");
        let epoch_start = std::time::Instant::now();
        soup_obs::counter!("gnn.epochs").inc();
        // Live progress for the metrics sampler (1-based; 0 = not started).
        soup_obs::gauge!("train.epoch").set(epochs_run as f64);
        soup_obs::gauge!("train.epochs_total").set(tc.epochs as f64);
        let mut epoch_loss = 0.0f64;
        let mut drop_rng = root.derive(1000 + epoch as u64);
        match &tc.minibatch {
            None => {
                let tape = Tape::new();
                let set = rebuild(&params);
                let vars = ParamVars::register(&tape, &set, true);
                let x = tape.constant(dataset.features.clone());
                let layers = &vars.layers;
                let logits = forward(&tape, cfg, &full_ops, None, x, layers, true, &mut drop_rng);
                let loss =
                    tape.cross_entropy_masked(logits, &dataset.labels, &dataset.splits.train);
                epoch_loss = tape.value(loss).data()[0] as f64;
                let grads = tape.backward(loss);
                let flat_vars = vars.flat();
                let grad_list: Vec<Option<soup_tensor::Tensor>> =
                    flat_vars.iter().map(|&v| grads.get(v).cloned()).collect();
                opt.step(&mut params, &grad_list);
            }
            Some(mb) => {
                let mut batch_rng = root.derive(2000 + epoch as u64);
                let sampler = NeighborSampler::new(mb.fanouts.clone());
                let mut batches = 0usize;
                for batch in minibatches(&dataset.splits.train, mb.batch_size, &mut batch_rng) {
                    soup_obs::counter!("gnn.minibatches").inc();
                    let sampled = sampler.sample(&dataset.graph, &batch, &mut batch_rng);
                    let sub_ops = PropOps::prepare(cfg.arch, &sampled.sub.graph);
                    let sub_x = sampled.sub.gather_features(&dataset.features);
                    let sub_labels = sampled.sub.gather_labels(&dataset.labels);
                    let tape = Tape::new();
                    let set = rebuild(&params);
                    let vars = ParamVars::register(&tape, &set, true);
                    let x = tape.constant(sub_x);
                    let layers = &vars.layers;
                    let logits =
                        forward(&tape, cfg, &sub_ops, None, x, layers, true, &mut drop_rng);
                    let loss = tape.cross_entropy_masked(logits, &sub_labels, &sampled.seeds_local);
                    epoch_loss += tape.value(loss).data()[0] as f64;
                    batches += 1;
                    let grads = tape.backward(loss);
                    let flat_vars = vars.flat();
                    let grad_list: Vec<Option<soup_tensor::Tensor>> =
                        flat_vars.iter().map(|&v| grads.get(v).cloned()).collect();
                    opt.step(&mut params, &grad_list);
                }
                if batches > 0 {
                    epoch_loss /= batches as f64;
                }
            }
        }
        soup_obs::trace_event!("train.epoch",
            "epoch" => epoch as u64,
            "loss" => epoch_loss,
            "dur_us" => epoch_start.elapsed().as_micros() as u64);

        // SWA checkpoint collection.
        if let Some(swa) = &tc.swa {
            if epoch >= swa.start_epoch && (epoch - swa.start_epoch) % swa.every == 0 {
                match &mut swa_acc {
                    None => swa_acc = Some((params.clone(), 1)),
                    Some((acc, count)) => {
                        for (a, p) in acc.iter_mut().zip(&params) {
                            a.axpy(1.0, p);
                        }
                        *count += 1;
                    }
                }
            }
        }

        // Periodic validation for early stopping.
        if let Some(patience) = tc
            .early_stop_patience
            .filter(|_| epoch % tc.eval_every == 0 || epoch + 1 == tc.epochs)
        {
            let _eval_span = soup_obs::span!("eval");
            let set = rebuild(&params);
            let acc = evaluate_accuracy(
                cfg,
                &full_ops,
                &set,
                &dataset.features,
                &dataset.labels,
                &dataset.splits.val,
            );
            soup_obs::trace_event!("train.eval",
                "epoch" => epoch as u64,
                "val_accuracy" => acc);
            match &best {
                Some((b, _)) if acc <= *b => {
                    since_best += 1;
                    if since_best * tc.eval_every >= patience {
                        break;
                    }
                }
                _ => {
                    best = Some((acc, params.clone()));
                    since_best = 0;
                }
            }
        }
    }

    // SWA takes precedence over early-stop restoration: the averaged
    // trajectory is the model SWA training produces.
    let final_params = match (swa_acc, best) {
        (Some((acc, count)), _) => acc
            .into_iter()
            .map(|t| t.scale(1.0 / count as f32))
            .collect(),
        (None, Some((_, p))) => p,
        (None, None) => params,
    };
    let set = rebuild(&final_params);
    let val_accuracy = evaluate_accuracy(
        cfg,
        &full_ops,
        &set,
        &dataset.features,
        &dataset.labels,
        &dataset.splits.val,
    );
    soup_obs::trace_event!("train.done",
        "train_seed" => train_seed,
        "epochs_run" => epochs_run as u64,
        "val_accuracy" => val_accuracy);
    TrainedModel {
        params: set,
        val_accuracy,
        epochs_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::init_params;
    use soup_graph::DatasetKind;

    fn tiny_dataset() -> Dataset {
        DatasetKind::Flickr.generate_scaled(11, 0.25)
    }

    fn quick_cfg(d: &Dataset) -> ModelConfig {
        ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(16)
    }

    #[test]
    fn training_beats_random_baseline() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(1);
        let init = init_params(&cfg, &mut rng);
        let tm = train_single(&d, &cfg, &TrainConfig::quick(), &init, 42);
        let random_baseline = 1.0 / d.num_classes() as f64;
        assert!(
            tm.val_accuracy > random_baseline * 1.8,
            "val acc {} vs random {random_baseline}",
            tm.val_accuracy
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(2);
        let init = init_params(&cfg, &mut rng);
        let a = train_single(&d, &cfg, &TrainConfig::quick(), &init, 7);
        let b = train_single(&d, &cfg, &TrainConfig::quick(), &init, 7);
        assert_eq!(a.val_accuracy, b.val_accuracy);
        for (x, y) in a.params.flat().zip(b.params.flat()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_train_seeds_diverge() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(3);
        let init = init_params(&cfg, &mut rng);
        let a = train_single(&d, &cfg, &TrainConfig::quick(), &init, 1);
        let b = train_single(&d, &cfg, &TrainConfig::quick(), &init, 2);
        assert!(
            a.params.l2_distance(&b.params) > 1e-3,
            "ingredients did not diverge"
        );
    }

    #[test]
    fn minibatch_training_runs_and_learns() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(4);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 8,
            ..TrainConfig::quick()
        }
        .with_minibatch(64, vec![8, 8]);
        let tm = train_single(&d, &cfg, &tc, &init, 5);
        assert!(
            tm.val_accuracy > 1.0 / d.num_classes() as f64 * 1.5,
            "{}",
            tm.val_accuracy
        );
    }

    #[test]
    fn early_stopping_can_halt() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(5);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 200,
            early_stop_patience: Some(2),
            eval_every: 1,
            ..TrainConfig::quick()
        };
        let tm = train_single(&d, &cfg, &tc, &init, 6);
        assert!(
            tm.epochs_run < 200,
            "never stopped early ({} epochs)",
            tm.epochs_run
        );
    }

    #[test]
    fn swa_averages_trajectory() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(7);
        let init = init_params(&cfg, &mut rng);
        // SWA over every epoch from 0 with lr 0 would be the init itself;
        // instead check: SWA result differs from final-epoch weights and
        // lies "between" trajectory extremes in norm.
        let plain = train_single(
            &d,
            &cfg,
            &TrainConfig {
                epochs: 12,
                ..TrainConfig::quick()
            },
            &init,
            9,
        );
        let swa = train_single(
            &d,
            &cfg,
            &TrainConfig {
                epochs: 12,
                swa: Some(SwaConfig::new(4, 2)),
                ..TrainConfig::quick()
            },
            &init,
            9,
        );
        assert!(
            plain.params.l2_distance(&swa.params) > 1e-5,
            "SWA had no effect"
        );
        // SWA model still learns.
        assert!(
            swa.val_accuracy > 1.5 / d.num_classes() as f64,
            "{}",
            swa.val_accuracy
        );
    }

    #[test]
    fn swa_single_checkpoint_equals_that_epoch() {
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(8);
        let init = init_params(&cfg, &mut rng);
        // Collect exactly one checkpoint at the last epoch: SWA average ==
        // the plain final weights of the same run.
        let plain = train_single(
            &d,
            &cfg,
            &TrainConfig {
                epochs: 5,
                ..TrainConfig::quick()
            },
            &init,
            10,
        );
        let swa = train_single(
            &d,
            &cfg,
            &TrainConfig {
                epochs: 5,
                swa: Some(SwaConfig::new(4, 100)),
                ..TrainConfig::quick()
            },
            &init,
            10,
        );
        for (a, b) in plain.params.flat().zip(swa.params.flat()) {
            assert!(a.allclose(b, 1e-6));
        }
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn swa_zero_interval_panics() {
        SwaConfig::new(0, 0);
    }

    #[test]
    fn swa_ingredients_remain_soupable() {
        // SWA'd replicas share the same init and stay in the same basin —
        // their average should still be a working model.
        let d = tiny_dataset();
        let cfg = quick_cfg(&d);
        let mut rng = SplitMix64::new(9);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 12,
            swa: Some(SwaConfig::new(6, 2)),
            ..TrainConfig::quick()
        };
        let a = train_single(&d, &cfg, &tc, &init, 1);
        let b = train_single(&d, &cfg, &tc, &init, 2);
        let avg = ParamSet::average(&[&a.params, &b.params]);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let acc = evaluate_accuracy(&cfg, &ops, &avg, &d.features, &d.labels, &d.splits.val);
        assert!(
            acc > 1.0 / d.num_classes() as f64 * 1.5,
            "averaged SWA models broken: {acc}"
        );
    }

    #[test]
    fn sage_gat_and_gin_train() {
        let d = tiny_dataset();
        for cfg in [
            ModelConfig::sage(d.num_features(), d.num_classes()).with_hidden(16),
            ModelConfig::gat(d.num_features(), d.num_classes())
                .with_hidden(4)
                .with_heads(2),
            ModelConfig::gin(d.num_features(), d.num_classes()).with_hidden(16),
        ] {
            let mut rng = SplitMix64::new(6);
            let init = init_params(&cfg, &mut rng);
            let tc = TrainConfig {
                epochs: 12,
                ..TrainConfig::quick()
            };
            let tm = train_single(&d, &cfg, &tc, &init, 3);
            assert!(
                tm.val_accuracy > 1.0 / d.num_classes() as f64,
                "{:?}: {}",
                cfg.arch,
                tm.val_accuracy
            );
        }
    }
}
