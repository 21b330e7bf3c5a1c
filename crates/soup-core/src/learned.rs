//! Learned Souping (LS) — Algorithm 3, the paper's first contribution.
//!
//! LS treats the per-layer interpolation ratios `α_i^l` as *learnable
//! parameters*: each epoch builds the soup `W_soup^l = Σ_i α_i^l W_i^l`
//! (Eq. 3, with α softmax-normalised across ingredients per layer), runs a
//! forward pass on the validation set, and backpropagates the loss into the
//! α's only (Eq. 4) — the ingredient weights stay frozen. Optimisation uses
//! SGD with momentum under cosine annealing and Xavier-normal α
//! initialisation, exactly as §III-B prescribes.
//!
//! Cost: `O(e · (F_v + B_v))` — e epochs of one forward + one (α-only)
//! backward each, versus GIS's `N·g` forwards (§III-E).
//!
//! The epoch loop lives here once, for LS and PLS both (`alpha_loop`):
//! Alg. 4 is Alg. 3 plus one `partitionSelection` line, so an
//! `EpochSource` says what to step on this epoch — the full validation
//! graph, or a partition draw ([`crate::pls`]) — and the loop owns the
//! rest. RNG order is the resume/retry contract: stream tag → Xavier α
//! init → per epoch: watchdog snapshot, the source's draw, any cache lookup.
//! The loop ends by finishing its schedule or by an error; with
//! `ctx.persist` it writes a durable state at the cadence and at the end
//! ([`crate::resume`]).

use crate::ingredient::{validate_ingredients, Ingredient};
use crate::resume::{Phase2Session, RunShape};
use crate::strategy::{measure_soup, MixReport, SoupCtx, SoupOutcome, SoupStrategy};
use soup_error::SoupError;
use soup_gnn::cache::PropCache;
use soup_gnn::model::{forward, PropOps};
use soup_gnn::params::{LayerParams, ParamVars};
use soup_gnn::{ModelConfig, ParamSet};
use soup_obs::{to_value, Value};
use soup_tensor::optim::{CosineAnnealing, Sgd};
use soup_tensor::tape::{Tape, Var};
use soup_tensor::{SplitMix64, Tensor};
use std::borrow::Cow;

/// Hyperparameters shared by LS and PLS.
#[derive(Debug, Clone, Copy)]
pub struct LearnedHyper {
    /// Optimisation epochs `e`.
    pub epochs: usize,
    /// Base learning rate of the cosine schedule. The paper observes that
    /// "relatively large base learning rates often yielded the best
    /// results" (§VI-A).
    pub base_lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay on the raw α parameters.
    pub weight_decay: f32,
    /// Cosine-annealing floor.
    pub eta_min: f32,
    /// Fraction of the validation set held out from α-fitting (§IV-C:
    /// hyperparameters are tuned "by randomly splitting the validation
    /// set"). 0.0 fits on the whole validation set.
    pub holdout_ratio: f64,
    /// §VI-A: "standard techniques to combat overfitting, such as early
    /// stopping, may prove valuable" — stop LS when the monitored split's
    /// accuracy has not improved for this many epochs, restoring the best
    /// α's. (LS only; PLS's per-epoch subgraphs make full-graph monitoring
    /// defeat its memory savings.)
    pub early_stop_patience: Option<usize>,
    /// §VI-A future work: "techniques like minibatching to stabilize
    /// training" — fit each epoch on a random subsample of this many
    /// validation nodes instead of all of them.
    pub val_batch: Option<usize>,
    /// §VIII future work: "methods ... to more easily 'drop-out' poor
    /// performing ingredients" — halfway through training, ingredients
    /// whose mean softmax ratio is below this threshold are hard-dropped
    /// (raw α pushed to −∞ territory so softmax assigns ≈0, which the
    /// smooth optimisation cannot do on its own, §V-A).
    pub prune_threshold: Option<f32>,
    /// Numeric-watchdog retry budget: on a NaN/Inf epoch loss the loop
    /// restores the pre-epoch α/optimizer/RNG snapshot, halves the
    /// effective learning rate, and retries the epoch — at most this many
    /// times per epoch before surfacing [`soup_error::SoupError::Numeric`]
    /// through the fallible souping entry points.
    pub nan_retry_budget: u32,
    /// Chaos knob for the watchdog tests: `(epoch, times)` poisons the
    /// loss (and the α state, as a diverged step would) on the first
    /// `times` attempts of that epoch. `None` in production.
    pub nan_inject: Option<(usize, u32)>,
}

impl Default for LearnedHyper {
    fn default() -> Self {
        Self {
            epochs: 50,
            base_lr: 1.0,
            momentum: 0.9,
            weight_decay: 0.0,
            eta_min: 1e-2,
            holdout_ratio: 0.0,
            early_stop_patience: None,
            val_batch: None,
            prune_threshold: None,
            nan_retry_budget: 4,
            nan_inject: None,
        }
    }
}

/// Per-layer raw interpolation parameters (pre-softmax), `(N, 1)` each.
#[derive(Debug, Clone)]
pub struct AlphaState {
    pub raw: Vec<Tensor>,
}

impl AlphaState {
    /// Xavier-normal initialisation over the `(N, 1)` fan (Alg. 3 line 1).
    pub fn init(num_ingredients: usize, num_layers: usize, rng: &mut SplitMix64) -> Self {
        let sigma = (2.0 / (num_ingredients + 1) as f32).sqrt();
        let raw = (0..num_layers)
            .map(|_| Tensor::randn(num_ingredients, 1, sigma, rng))
            .collect();
        Self { raw }
    }

    /// The softmax-normalised ratios of layer `l` (diagnostics / tests).
    pub fn ratios(&self, l: usize) -> Vec<f32> {
        let raw = self.raw[l].data();
        let m = raw.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f32> = raw.iter().map(|&v| (v - m).exp()).collect();
        let total: f32 = exps.iter().sum();
        exps.iter().map(|e| e / total).collect()
    }
}

/// Record the soup construction (Eq. 3) on a tape: returns the mixed
/// parameter variables and the raw-α variables to optimise.
pub(crate) fn build_soup_on_tape(
    tape: &Tape,
    ingredients: &[Ingredient],
    alphas: &AlphaState,
) -> (ParamVars, Vec<Var>) {
    let num_layers = ingredients[0].params.num_layers();
    debug_assert_eq!(alphas.raw.len(), num_layers);
    let mut raw_vars = Vec::with_capacity(num_layers);
    let mut layers = Vec::with_capacity(num_layers);
    for l in 0..num_layers {
        let raw_var = tape.param(alphas.raw[l].clone());
        raw_vars.push(raw_var);
        let slots = ingredients[0].params.layers[l].tensors.len();
        let layer_vars: Vec<Var> = (0..slots)
            .map(|t| {
                let weights: Vec<Tensor> = ingredients
                    .iter()
                    .map(|i| i.params.layers[l].tensors[t].clone())
                    .collect();
                tape.soup_layer(&weights, raw_var)
            })
            .collect();
        layers.push(layer_vars);
    }
    (ParamVars { layers }, raw_vars)
}

/// Materialise the soup parameters for the current α values (no tape) —
/// one fused N-way blend per tensor instead of an axpy chain.
pub(crate) fn materialize_soup(ingredients: &[Ingredient], alphas: &AlphaState) -> ParamSet {
    let template = &ingredients[0].params;
    let layers = template
        .layers
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let ratios = alphas.ratios(l);
            LayerParams {
                name: layer.name.clone(),
                tensors: (0..layer.tensors.len())
                    .map(|t| {
                        let parts: Vec<&Tensor> = ingredients
                            .iter()
                            .map(|i| &i.params.layers[l].tensors[t])
                            .collect();
                        soup_tensor::ops::soup::blend(&ratios, &parts)
                    })
                    .collect(),
            }
        })
        .collect();
    ParamSet { layers }
}

/// Hard-drop weak ingredients (§VIII): any ingredient whose mean softmax
/// ratio across layers falls below `threshold` gets its raw α shifted by
/// −30, which saturates the softmax to ≈0 — something gradient descent
/// alone cannot reach (§V-A). The best ingredient is always kept.
#[allow(clippy::needless_range_loop)] // parallel-array walk over n ingredients
pub(crate) fn prune_weak_ingredients(alphas: &mut AlphaState, threshold: f32) -> usize {
    let n = alphas.raw[0].rows();
    let mean_ratio = mean_ratios(alphas);
    let best = mean_ratio
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut pruned = 0usize;
    for i in 0..n {
        if i != best && mean_ratio[i] < threshold {
            for raw in alphas.raw.iter_mut() {
                raw.make_mut()[i] -= 30.0;
            }
            pruned += 1;
        }
    }
    pruned
}

/// Mean softmax ratio of each ingredient across layers — the per-epoch
/// soup-weight telemetry emitted into traces by LS and PLS.
pub(crate) fn mean_ratios(alphas: &AlphaState) -> Vec<f32> {
    let num_layers = alphas.raw.len();
    let n = alphas.raw[0].rows();
    let mut mean = vec![0.0f32; n];
    for l in 0..num_layers {
        for (i, r) in alphas.ratios(l).into_iter().enumerate() {
            mean[i] += r / num_layers as f32;
        }
    }
    mean
}

/// One epoch's inputs — everything [`learned_step`] needs: a graph prepared
/// for eval-mode forwards and the nodes the loss is taken over. LS prepares
/// the full validation graph once; PLS prepares one per partition draw and
/// frees it before the next.
#[derive(Debug)]
pub(crate) struct EpochData<'a> {
    /// Propagation operator prepared on the (sub)graph.
    pub ops: PropOps,
    /// First-hop aggregation cache over `features`. LS and PLS always build
    /// one: every LS epoch saves one SpMM, a PLS epoch's cache serves its
    /// one forward. `None` only in the uncached reference of the bitwise
    /// tests.
    pub prop: Option<PropCache>,
    /// Node features (gathered into local order for a subgraph).
    pub features: Tensor,
    pub labels: Cow<'a, [u32]>,
    /// Fit nodes, as ids local to `features`.
    pub mask: Vec<usize>,
}

/// One α-optimisation step on prepared epoch data. Returns the loss.
///
/// The forward consumes `data.prop`'s cached first-hop aggregation (the
/// soup evaluation runs in eval mode, where that hop is weight-independent;
/// α gradients flow through the downstream transform only, so caching does
/// not touch the backward pass).
pub(crate) fn learned_step(
    ingredients: &[Ingredient],
    alphas: &mut AlphaState,
    cfg: &ModelConfig,
    data: &EpochData<'_>,
    opt: &mut Sgd,
) -> f32 {
    let tape = Tape::new();
    let (soup_vars, raw_vars) = build_soup_on_tape(&tape, ingredients, alphas);
    let x = tape.constant(data.features.clone());
    // Eval-mode forward: the soup evaluation of Alg. 3 has no dropout.
    let mut no_rng = SplitMix64::new(0);
    let (ops, prop, layers) = (&data.ops, data.prop.as_ref(), &soup_vars.layers);
    let logits = forward(&tape, cfg, ops, prop, x, layers, false, &mut no_rng);
    let loss = tape.cross_entropy_masked(logits, &data.labels, &data.mask);
    let loss_val = tape.value(loss).item();
    let grads = tape.backward(loss);
    let grad_list: Vec<Option<Tensor>> = raw_vars.iter().map(|&v| grads.get(v).cloned()).collect();
    opt.step(&mut alphas.raw, &grad_list);
    loss_val
}

/// Where an epoch's data comes from — the only thing Alg. 4 changes about
/// Alg. 3. LS hands back the full validation graph every epoch; PLS
/// ([`crate::pls`]) draws `R` of `K` partitions (`partitionSelection`).
pub(crate) trait EpochSource {
    /// `"ls"` / `"pls"`: names the state file, the `soup.<strategy>.*`
    /// metrics and trace event, and (upper-cased) the watchdog's messages.
    const STRATEGY: &'static str;
    /// Whether a watchdog-retried attempt's forward is charged to
    /// `forwards` (LS) or the count stays one per stepped epoch (PLS, whose
    /// state files say `forwards == epochs_run`).
    const RETRY_COUNTS_AS_FORWARD: bool;

    /// PLS `(K, R)` — part of the resume identity.
    fn partition_budget(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Consume this epoch's randomness from `rng`, *then* prepare the data
    /// to step on. The loop calls this right after its watchdog snapshot,
    /// so a retried epoch replays the same draw. `None` means the draw
    /// left nothing to fit on: the epoch index advances (and checkpoints)
    /// without a step.
    fn next_epoch(&mut self, rng: &mut SplitMix64) -> Option<&EpochData<'_>>;

    /// Fields the per-epoch trace event carries about the last draw.
    fn trace_fields(&self) -> Vec<(String, Value)> {
        Vec::new()
    }

    /// Early stopping: `(patience, accuracy of the current soup on the
    /// monitored split)` for a source that monitors one — one extra
    /// forward per epoch.
    fn monitor(&self, _ingredients: &[Ingredient], _alphas: &AlphaState) -> Option<(usize, f64)> {
        None
    }

    /// SpMMs the source's caches avoided, net of their build cost. None by
    /// default: a PLS epoch's `PropCache` is built for, and consumed by, one
    /// forward, so it skips exactly the SpMM its build spent.
    fn spmm_saved(&self) -> usize {
        0
    }
}

/// Everything the α-loop mutates. Cloned for the watchdog snapshot and
/// converted to/from the on-disk [`crate::resume::Phase2State`] for resume.
#[derive(Debug, Clone)]
pub(crate) struct LoopState {
    /// First epoch index that has not run yet (counts empty PLS draws).
    pub epoch: usize,
    /// Epochs that actually stepped.
    pub epochs_run: usize,
    pub forwards: usize,
    pub rng: SplitMix64,
    pub alphas: AlphaState,
    /// SGD momentum buffers between steps.
    pub velocity: Vec<Option<Tensor>>,
    /// Best monitored accuracy so far and the α's that reached it.
    pub best: Option<(f64, AlphaState)>,
    pub since_best: usize,
    /// Cumulative learning-rate multiplier applied by the watchdog.
    pub lr_scale: f32,
    pub nan_retries: u64,
}

/// The α-optimisation loop of Alg. 3 and Alg. 4: SGD with momentum under
/// cosine annealing on Xavier-initialised α's, one [`learned_step`] per
/// epoch on whatever `source` hands back, with the numeric watchdog,
/// half-way pruning, early stopping and durable checkpoints around it.
/// `rng` is the souping seed's stream under the strategy's tag.
pub(crate) fn alpha_loop<S: EpochSource>(
    h: &LearnedHyper,
    ctx: &SoupCtx<'_>,
    mut rng: SplitMix64,
    source: &mut S,
) -> crate::Result<LoopState> {
    let (ingredients, strategy) = (ctx.ingredients, S::STRATEGY);
    let (partitions, budget) = source.partition_budget();
    let shape = RunShape {
        strategy,
        seed: ctx.seed,
        total_epochs: h.epochs,
        num_ingredients: ingredients.len(),
        partitions,
        budget,
    };
    let (session, resumed) = Phase2Session::begin(ctx.persist, shape)?;
    // Looked up per run: the `counter!`/`gauge!` macros cache their handle
    // per call site, which would pin these to the first strategy to run.
    let epochs_counter = soup_obs::registry::counter(&format!("soup.{strategy}.epochs"));
    let epoch_gauge = soup_obs::registry::gauge(&format!("soup.{strategy}.epoch"));
    let alphas = AlphaState::init(
        ingredients.len(),
        ingredients[0].params.num_layers(),
        &mut rng,
    );
    let mut st = match resumed {
        Some(state) => state.into_loop_state(),
        None => LoopState {
            epoch: 0,
            epochs_run: 0,
            forwards: 0,
            rng,
            alphas,
            velocity: Vec::new(),
            best: None,
            since_best: 0,
            lr_scale: 1.0,
            nan_retries: 0,
        },
    };
    let sched = CosineAnnealing::new(h.base_lr, h.eta_min, h.epochs);
    let mut attempts = 0u32;
    while st.epoch < h.epochs {
        // Watchdog snapshot: taken before the epoch consumes any
        // randomness, so a retry replays the epoch deterministically.
        let snap = st.clone();
        let Some(data) = source.next_epoch(&mut st.rng) else {
            attempts = 0;
            st.epoch += 1;
            session.after_epoch(&st)?;
            continue;
        };
        let lr = (sched.lr(st.epoch) * st.lr_scale).max(1e-6);
        let mut opt = Sgd::new(lr, h.momentum, h.weight_decay);
        opt.set_velocity(std::mem::take(&mut st.velocity));
        let mut loss = learned_step(ingredients, &mut st.alphas, ctx.cfg, data, &mut opt);
        st.velocity = opt.velocity().to_vec();
        st.forwards += 1;
        if let Some((e, times)) = h.nan_inject {
            if st.epoch == e && attempts < times {
                // Poison both the loss and the α state, as a genuinely
                // diverged step would.
                loss = f32::NAN;
                st.alphas.raw[0].make_mut()[0] = f32::NAN;
            }
        }
        if !loss.is_finite() {
            let (name, epoch) = (strategy.to_uppercase(), st.epoch);
            if attempts >= h.nan_retry_budget {
                return Err(SoupError::numeric(format!(
                    "{name} epoch {epoch}: non-finite loss persisted after {attempts} \
                     watchdog retries (lr_scale {})",
                    st.lr_scale
                )));
            }
            attempts += 1;
            st = LoopState {
                forwards: snap.forwards + usize::from(S::RETRY_COUNTS_AS_FORWARD),
                lr_scale: st.lr_scale * 0.5,
                nan_retries: st.nan_retries + 1,
                ..snap
            };
            soup_obs::counter!("soup.watchdog.retries").inc();
            soup_obs::warn!(
                "{name} epoch {epoch}: non-finite loss; restored last good α, \
                 retrying with lr_scale {} (attempt {attempts}/{})",
                st.lr_scale,
                h.nan_retry_budget
            );
            continue;
        }
        attempts = 0;
        st.epochs_run += 1;
        epochs_counter.inc();
        epoch_gauge.set(st.epochs_run as f64);
        if soup_obs::trace::active() {
            let mut fields = vec![
                ("epoch".to_string(), to_value(&(st.epoch as u64))),
                ("loss".to_string(), to_value(&loss)),
                ("lr".to_string(), to_value(&lr)),
            ];
            fields.extend(source.trace_fields());
            fields.push((
                "mean_ratios".to_string(),
                to_value(&mean_ratios(&st.alphas)),
            ));
            soup_obs::trace::emit_event(&format!("soup.{strategy}.epoch"), fields);
        }
        // §VIII ingredient drop-out at the half-way point.
        if let Some(threshold) = h.prune_threshold {
            if st.epoch + 1 == h.epochs / 2 {
                prune_weak_ingredients(&mut st.alphas, threshold);
            }
        }
        st.epoch += 1;
        // §VI-A early stopping on the monitored split.
        if let Some((patience, acc)) = source.monitor(ingredients, &st.alphas) {
            st.forwards += 1;
            match &st.best {
                Some((b, _)) if acc <= *b => {
                    st.since_best += 1;
                    if st.since_best >= patience {
                        // Jump to the schedule end: the checkpoint below
                        // marks the run complete, so a later resume
                        // reproduces the restored-best soup without
                        // replaying the patience window.
                        st.epoch = h.epochs;
                    }
                }
                _ => {
                    st.best = Some((acc, st.alphas.clone()));
                    st.since_best = 0;
                }
            }
        }
        session.after_epoch(&st)?;
    }
    if let Some((_, best)) = st.best.take() {
        st.alphas = best;
    }
    Ok(st)
}

/// Run [`alpha_loop`] and materialise the soup it learned.
pub(crate) fn learn_soup(
    h: &LearnedHyper,
    ctx: &SoupCtx<'_>,
    rng: SplitMix64,
    source: &mut impl EpochSource,
) -> crate::Result<MixReport> {
    let st = alpha_loop(h, ctx, rng, source)?;
    Ok(MixReport {
        params: materialize_soup(ctx.ingredients, &st.alphas),
        forward_passes: st.forwards,
        epochs: st.epochs_run,
        spmm_saved: source.spmm_saved(),
    })
}

/// LS's epoch source: the full validation graph, prepared once.
pub(crate) struct FullGraphSource<'a> {
    cfg: &'a ModelConfig,
    data: EpochData<'a>,
    /// §VI-A minibatched validation: `(batch size, fit nodes)` when each
    /// epoch fits on a fresh subsample of the fit nodes.
    val_batch: Option<(usize, Vec<usize>)>,
    /// `(patience, monitored split)` when early stopping is on.
    monitor: Option<(usize, Vec<usize>)>,
}

/// The validation nodes α is fitted on and the ones early stopping
/// monitors: `holdout_ratio`'s random split of the validation set (§IV-C),
/// or all of it for both.
pub(crate) fn fit_and_monitor_masks(
    h: &LearnedHyper,
    ctx: &SoupCtx<'_>,
) -> (Vec<usize>, Vec<usize>) {
    let splits = &ctx.dataset.splits;
    if h.holdout_ratio > 0.0 {
        splits.split_val(h.holdout_ratio, ctx.seed)
    } else {
        (splits.val.clone(), splits.val.clone())
    }
}

impl<'a> FullGraphSource<'a> {
    pub(crate) fn new(h: &LearnedHyper, ctx: &SoupCtx<'a>) -> Self {
        let dataset = ctx.dataset;
        let (fit_mask, monitor_mask) = fit_and_monitor_masks(h, ctx);
        let ops = PropOps::prepare(ctx.cfg.arch, &dataset.graph);
        let prop = Some(PropCache::new(&ops, &dataset.features));
        let val_batch = h.val_batch.filter(|&b| b < fit_mask.len());
        Self {
            cfg: ctx.cfg,
            val_batch: val_batch.map(|b| (b, fit_mask.clone())),
            monitor: h.early_stop_patience.map(|p| (p, monitor_mask)),
            data: EpochData {
                ops,
                prop,
                features: dataset.features.clone(),
                labels: Cow::Borrowed(&dataset.labels),
                mask: fit_mask,
            },
        }
    }
}

impl EpochSource for FullGraphSource<'_> {
    const STRATEGY: &'static str = "ls";
    const RETRY_COUNTS_AS_FORWARD: bool = true;

    fn next_epoch(&mut self, rng: &mut SplitMix64) -> Option<&EpochData<'_>> {
        if let Some((b, fit)) = &self.val_batch {
            let batch = rng.sample_indices(fit.len(), *b);
            self.data.mask = batch.into_iter().map(|k| fit[k]).collect();
        }
        Some(&self.data)
    }

    fn monitor(&self, ingredients: &[Ingredient], alphas: &AlphaState) -> Option<(usize, f64)> {
        let (patience, mask) = self.monitor.as_ref()?;
        let soup = materialize_soup(ingredients, alphas);
        let d = &self.data;
        let prop = d.prop.as_ref().expect("LS always builds its PropCache");
        let acc =
            soup_gnn::evaluate_accuracy_cached(self.cfg, &d.ops, prop, &soup, &d.labels, mask);
        Some((*patience, acc))
    }

    fn spmm_saved(&self) -> usize {
        // Every cache-consuming forward skipped one SpMM, minus the one
        // spent building the cache.
        let hits = self.data.prop.as_ref().map_or(0, PropCache::hits);
        hits.saturating_sub(1)
    }
}

/// Learned Souping (Algorithm 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct LearnedSouping {
    pub hyper: LearnedHyper,
}

impl LearnedSouping {
    pub fn new(hyper: LearnedHyper) -> Self {
        Self { hyper }
    }
}

impl SoupStrategy for LearnedSouping {
    fn name(&self) -> &'static str {
        "LS"
    }

    /// Fallible, resumable LS entry point. With `ctx.persist` set the loop
    /// checkpoints its optimizer state through the crash-safe store and can
    /// continue bit-identically from the last durable epoch.
    /// Numeric-watchdog exhaustion surfaces as [`SoupError::Numeric`]
    /// instead of panicking. A precomputed `ctx.partitioning` is PLS
    /// preprocessing and ignored here.
    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        validate_ingredients(ctx.ingredients);
        assert!(self.hyper.epochs > 0, "LS needs at least one epoch");
        // A partial pool needs no special handling: the softmax over the
        // R' surviving ingredients renormalises the ratios by construction.
        measure_soup(ctx.ingredients, ctx.dataset, ctx.cfg, || {
            let _ls_span = soup_obs::span!("soup.ls");
            let rng = SplitMix64::new(ctx.seed).derive(0x15);
            let mut source = FullGraphSource::new(&self.hyper, ctx);
            learn_soup(&self.hyper, ctx, rng, &mut source)
        })
        .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_gnn::model::init_params;
    use soup_gnn::{train_single, TrainConfig};
    use soup_graph::{Dataset, DatasetKind};

    fn trained_ingredients(n: usize, seed: u64) -> (Dataset, ModelConfig, Vec<Ingredient>) {
        let d = DatasetKind::Flickr.generate_scaled(seed, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(seed);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 15,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 90 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 90 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn alpha_init_statistics() {
        let mut rng = SplitMix64::new(1);
        let a = AlphaState::init(50, 3, &mut rng);
        assert_eq!(a.raw.len(), 3);
        assert_eq!(a.raw[0].rows(), 50);
        let sigma = (2.0f32 / 51.0).sqrt();
        assert!(a.raw[0].max_abs() < 6.0 * sigma);
    }

    #[test]
    fn ratios_sum_to_one_and_positive() {
        let mut rng = SplitMix64::new(2);
        let a = AlphaState::init(8, 2, &mut rng);
        for l in 0..2 {
            let r = a.ratios(l);
            assert!((r.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            // §V-A: softmax can never assign exactly zero.
            assert!(r.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn materialized_soup_is_convex_combination() {
        let (_, _, ingredients) = trained_ingredients(3, 7);
        let mut rng = SplitMix64::new(3);
        let alphas = AlphaState::init(3, ingredients[0].params.num_layers(), &mut rng);
        let soup = materialize_soup(&ingredients, &alphas);
        // Every soup entry lies within the convex hull of ingredient entries.
        for (slot, s) in soup.flat().enumerate() {
            let parts: Vec<&Tensor> = ingredients
                .iter()
                .map(|i| i.params.flat().nth(slot).unwrap())
                .collect();
            for e in 0..s.len() {
                let lo = parts
                    .iter()
                    .map(|t| t.data()[e])
                    .fold(f32::INFINITY, f32::min);
                let hi = parts
                    .iter()
                    .map(|t| t.data()[e])
                    .fold(f32::NEG_INFINITY, f32::max);
                assert!(s.data()[e] >= lo - 1e-4 && s.data()[e] <= hi + 1e-4);
            }
        }
    }

    #[test]
    fn tape_soup_matches_materialized() {
        let (_, _, ingredients) = trained_ingredients(3, 8);
        let mut rng = SplitMix64::new(4);
        let alphas = AlphaState::init(3, ingredients[0].params.num_layers(), &mut rng);
        let tape = Tape::new();
        let (vars, _) = build_soup_on_tape(&tape, &ingredients, &alphas);
        let materialized = materialize_soup(&ingredients, &alphas);
        let mut mat_iter = materialized.flat();
        for layer in &vars.layers {
            for &v in layer {
                let expect = mat_iter.next().unwrap();
                assert!(tape.value(v).allclose(expect, 1e-5));
            }
        }
    }

    #[test]
    fn ls_reduces_validation_loss() {
        let (d, cfg, ingredients) = trained_ingredients(4, 9);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let mut rng = SplitMix64::new(5);
        let mut alphas = AlphaState::init(4, ingredients[0].params.num_layers(), &mut rng);
        let mut opt = Sgd::new(0.5, 0.9, 0.0);
        let data = EpochData {
            prop: Some(PropCache::new(&ops, &d.features)),
            ops,
            features: d.features.clone(),
            labels: Cow::Borrowed(&d.labels),
            mask: d.splits.val.clone(),
        };
        let first = learned_step(&ingredients, &mut alphas, &cfg, &data, &mut opt);
        let mut last = first;
        for _ in 0..20 {
            last = learned_step(&ingredients, &mut alphas, &cfg, &data, &mut opt);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        let hits = data.prop.as_ref().unwrap().hits();
        assert_eq!(hits, 21, "every step should consume the cache");
    }

    #[test]
    fn cached_step_matches_uncached_bitwise() {
        let (d, cfg, ingredients) = trained_ingredients(3, 16);
        let mut rng = SplitMix64::new(6);
        let init = AlphaState::init(3, ingredients[0].params.num_layers(), &mut rng);
        let run = |cached: bool| {
            let ops = PropOps::prepare(cfg.arch, &d.graph);
            let data = EpochData {
                prop: cached.then(|| PropCache::new(&ops, &d.features)),
                ops,
                features: d.features.clone(),
                labels: Cow::Borrowed(&d.labels),
                mask: d.splits.val.clone(),
            };
            let mut alphas = init.clone();
            let mut opt = Sgd::new(0.5, 0.9, 0.0);
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(learned_step(
                    &ingredients,
                    &mut alphas,
                    &cfg,
                    &data,
                    &mut opt,
                ));
            }
            (losses, alphas)
        };
        let (la, aa) = run(true);
        let (lb, ab) = run(false);
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.to_bits(), y.to_bits(), "losses diverge");
        }
        for (x, y) in aa.raw.iter().zip(&ab.raw) {
            assert_eq!(x, y, "alpha trajectories diverge");
        }
    }

    #[test]
    fn ls_soups_competitively() {
        let (d, cfg, ingredients) = trained_ingredients(4, 10);
        let outcome = LearnedSouping::default().soup(&ingredients, &d, &cfg, 1);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        // LS is not monotone like greedy, but must stay in the ballpark of
        // the best ingredient on validation data.
        assert!(
            outcome.val_accuracy >= best - 0.05,
            "LS {} far below best ingredient {best}",
            outcome.val_accuracy
        );
        assert_eq!(outcome.stats.epochs, LearnedHyper::default().epochs);
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, cfg, ingredients) = trained_ingredients(3, 11);
        let a = LearnedSouping::default().soup(&ingredients, &d, &cfg, 5);
        let b = LearnedSouping::default().soup(&ingredients, &d, &cfg, 5);
        assert_eq!(a.val_accuracy, b.val_accuracy);
        for (x, y) in a.params.flat().zip(b.params.flat()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn early_stopping_halts_and_counts_extra_forwards() {
        let (d, cfg, ingredients) = trained_ingredients(3, 13);
        let h = LearnedHyper {
            epochs: 200,
            early_stop_patience: Some(3),
            holdout_ratio: 0.3,
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 3);
        assert!(
            outcome.stats.epochs < 200,
            "never stopped ({})",
            outcome.stats.epochs
        );
        // One monitoring forward per epoch on top of the fitting forward.
        assert_eq!(outcome.stats.forward_passes, 2 * outcome.stats.epochs);
    }

    #[test]
    fn val_batch_subsamples_fit_nodes() {
        let (d, cfg, ingredients) = trained_ingredients(3, 14);
        let h = LearnedHyper {
            epochs: 10,
            val_batch: Some(8),
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 4);
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
        assert_eq!(outcome.stats.epochs, 10);
    }

    #[test]
    fn pruning_zeroes_weak_ingredients() {
        let mut rng = SplitMix64::new(20);
        let mut alphas = AlphaState::init(4, 2, &mut rng);
        // Bias ingredient 2 to dominate.
        for raw in alphas.raw.iter_mut() {
            raw.make_mut()[2] += 5.0;
        }
        let pruned = prune_weak_ingredients(&mut alphas, 0.2);
        assert_eq!(pruned, 3, "all non-dominant ingredients below threshold");
        for l in 0..2 {
            let r = alphas.ratios(l);
            assert!(r[2] > 0.999, "dominant ingredient kept: {r:?}");
            for (i, &v) in r.iter().enumerate() {
                if i != 2 {
                    assert!(v < 1e-6, "ingredient {i} not pruned: {r:?}");
                }
            }
        }
    }

    #[test]
    fn pruning_always_keeps_the_best() {
        let mut rng = SplitMix64::new(21);
        let mut alphas = AlphaState::init(3, 1, &mut rng);
        // Threshold of 1.0 would prune everything — best must survive.
        prune_weak_ingredients(&mut alphas, 1.0);
        let r = alphas.ratios(0);
        assert!(
            r.iter().any(|&v| v > 0.99),
            "no surviving ingredient: {r:?}"
        );
    }

    #[test]
    fn ls_with_pruning_still_soups() {
        let (d, cfg, ingredients) = trained_ingredients(4, 15);
        let h = LearnedHyper {
            epochs: 20,
            prune_threshold: Some(0.05),
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 5);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        assert!(
            outcome.val_accuracy >= best - 0.08,
            "{}",
            outcome.val_accuracy
        );
    }

    #[test]
    fn holdout_fitting_uses_subset() {
        let (d, cfg, ingredients) = trained_ingredients(3, 12);
        let h = LearnedHyper {
            holdout_ratio: 0.5,
            epochs: 10,
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 2);
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
    }

    #[test]
    fn watchdog_recovers_from_injected_nans() {
        let (d, cfg, ingredients) = trained_ingredients(3, 16);
        let clean_h = LearnedHyper {
            epochs: 8,
            ..Default::default()
        };
        let clean = LearnedSouping::new(clean_h).soup(&ingredients, &d, &cfg, 6);
        // Poison epoch 3 twice; the watchdog restores the snapshot and
        // retries with a halved LR, so the run completes.
        let chaotic_h = LearnedHyper {
            nan_inject: Some((3, 2)),
            ..clean_h
        };
        let chaotic = LearnedSouping::new(chaotic_h)
            .try_soup(&SoupCtx::new(&ingredients, &d, &cfg, 6))
            .unwrap()
            .unwrap();
        assert!((0.0..=1.0).contains(&chaotic.val_accuracy));
        // Retries cost extra forwards but epochs_run matches the schedule.
        assert_eq!(chaotic.stats.epochs, clean.stats.epochs);
        assert_eq!(chaotic.stats.forward_passes, clean.stats.forward_passes + 2);
    }

    #[test]
    fn watchdog_exhaustion_is_numeric_error() {
        let (d, cfg, ingredients) = trained_ingredients(3, 17);
        let h = LearnedHyper {
            epochs: 6,
            nan_retry_budget: 2,
            nan_inject: Some((1, u32::MAX)), // never stops firing
            ..Default::default()
        };
        let err = LearnedSouping::new(h)
            .try_soup(&SoupCtx::new(&ingredients, &d, &cfg, 4))
            .unwrap_err();
        assert_eq!(err.kind(), "numeric");
        assert!(err.to_string().contains("LS epoch 1"), "{err}");
    }

    #[test]
    fn pls_watchdog_recovers_too() {
        let (d, cfg, ingredients) = trained_ingredients(3, 18);
        let h = LearnedHyper {
            epochs: 8,
            nan_inject: Some((2, 1)),
            ..Default::default()
        };
        let outcome = crate::pls::PartitionLearnedSouping::new(h, 8, 3)
            .try_soup(&SoupCtx::new(&ingredients, &d, &cfg, 7))
            .unwrap()
            .unwrap();
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
        let clean = crate::pls::PartitionLearnedSouping::new(
            LearnedHyper {
                nan_inject: None,
                ..h
            },
            8,
            3,
        )
        .soup(&ingredients, &d, &cfg, 7);
        // The retry replays the same draw with a scaled LR; apart from the
        // watchdog detour the schedule is unchanged.
        assert_eq!(outcome.stats.epochs, clean.stats.epochs);
        // PLS reports one forward per stepped epoch, retries excluded.
        assert_eq!(outcome.stats.forward_passes, outcome.stats.epochs);
    }
}
