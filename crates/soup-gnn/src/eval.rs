//! Model evaluation: eval-mode predictions and accuracy, for f32 and
//! quantized parameter sets, all through one logits helper over
//! [`crate::model::forward`].

use crate::cache::PropCache;
use crate::config::ModelConfig;
use crate::model::{forward, LayerWeights, PropOps};
use crate::params::{ParamSet, ParamVars};
use crate::quant::QuantParamSet;
use soup_graph::metrics::accuracy;
use soup_tensor::tape::Tape;
use soup_tensor::{SplitMix64, Tensor};

/// Eval-mode (no dropout) logits of `layers` over `features` on `tape`.
fn logits<W: LayerWeights>(
    tape: &Tape,
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    layers: &[W],
    features: &Tensor,
) -> Tensor {
    let x = tape.constant(features.clone());
    let mut rng = SplitMix64::new(0); // unused: eval mode skips dropout
    tape.value(forward(tape, cfg, ops, cache, x, layers, false, &mut rng))
}

/// Argmax class predictions for every node (eval mode, no dropout).
pub fn predict(
    cfg: &ModelConfig,
    ops: &PropOps,
    params: &ParamSet,
    features: &Tensor,
) -> Vec<usize> {
    let tape = Tape::new();
    let vars = ParamVars::register(&tape, params, false);
    logits(&tape, cfg, ops, None, &vars.layers, features).argmax_rows()
}

/// Accuracy over the nodes in `mask`.
pub fn evaluate_accuracy(
    cfg: &ModelConfig,
    ops: &PropOps,
    params: &ParamSet,
    features: &Tensor,
    labels: &[u32],
    mask: &[usize],
) -> f64 {
    accuracy(&predict(cfg, ops, params, features), labels, mask)
}

/// [`predict`] with the first-hop aggregation taken from a [`PropCache`].
/// The cache carries the feature tensor it was built from, so cached and
/// uncached evaluation can never disagree about their inputs.
pub fn predict_cached(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: &PropCache,
    params: &ParamSet,
) -> Vec<usize> {
    let tape = Tape::new();
    let vars = ParamVars::register(&tape, params, false);
    logits(&tape, cfg, ops, Some(cache), &vars.layers, cache.features()).argmax_rows()
}

/// [`evaluate_accuracy`] with a [`PropCache`] — bit-identical result, one
/// SpMM cheaper per call for GCN/SAGE/GIN.
pub fn evaluate_accuracy_cached(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: &PropCache,
    params: &ParamSet,
    labels: &[u32],
    mask: &[usize],
) -> f64 {
    accuracy(&predict_cached(cfg, ops, cache, params), labels, mask)
}

/// Argmax class predictions with int8/bf16 weight matmuls.
pub fn predict_quant(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    qparams: &QuantParamSet,
    features: &Tensor,
) -> Vec<usize> {
    logits(&Tape::new(), cfg, ops, cache, qparams.layers(), features).argmax_rows()
}

/// Accuracy of the quantized forward over the nodes in `mask`.
pub fn evaluate_accuracy_quant(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    qparams: &QuantParamSet,
    features: &Tensor,
    labels: &[u32],
    mask: &[usize],
) -> f64 {
    let preds = predict_quant(cfg, ops, cache, qparams, features);
    accuracy(&preds, labels, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::init_params;
    use crate::Arch;
    use soup_graph::CsrGraph;

    fn setup() -> (CsrGraph, ModelConfig, ParamSet, Tensor, Vec<u32>) {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let cfg = ModelConfig::gcn(4, 3).with_hidden(8);
        let mut rng = SplitMix64::new(1);
        let params = init_params(&cfg, &mut rng);
        let features = Tensor::randn(6, 4, 1.0, &mut rng);
        let labels = vec![0u32, 1, 2, 0, 1, 2];
        (g, cfg, params, features, labels)
    }

    #[test]
    fn predictions_are_valid_classes() {
        let (g, cfg, params, features, _) = setup();
        let ops = PropOps::prepare(Arch::Gcn, &g);
        let preds = predict(&cfg, &ops, &params, &features);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn accuracy_in_unit_range() {
        let (g, cfg, params, features, labels) = setup();
        let ops = PropOps::prepare(Arch::Gcn, &g);
        let acc = evaluate_accuracy(&cfg, &ops, &params, &features, &labels, &[0, 1, 2, 3, 4, 5]);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn cached_eval_matches_uncached_bitwise() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin, Arch::Gat] {
            let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
            let cfg = match arch {
                Arch::Gcn => ModelConfig::gcn(4, 3),
                Arch::Sage => ModelConfig::sage(4, 3),
                Arch::Gat => ModelConfig::gat(4, 3),
                Arch::Gin => ModelConfig::gin(4, 3),
            }
            .with_hidden(8);
            let mut rng = SplitMix64::new(7);
            let params = init_params(&cfg, &mut rng);
            let features = Tensor::randn(6, 4, 1.0, &mut rng);
            let ops = PropOps::prepare(arch, &g);
            let cache = crate::cache::PropCache::new(&ops, &features);
            assert_eq!(
                predict(&cfg, &ops, &params, &features),
                predict_cached(&cfg, &ops, &cache, &params),
                "{arch:?} predictions diverge"
            );
            let f32_logits = |cache| {
                let tape = Tape::new();
                let vars = ParamVars::register(&tape, &params, false);
                logits(&tape, &cfg, &ops, cache, &vars.layers, &features)
            };
            assert_eq!(
                f32_logits(None),
                f32_logits(Some(&cache)),
                "{arch:?} logits"
            );
            if arch == Arch::Gat {
                assert_eq!(cache.hits(), 0, "GAT must not claim cache hits");
            } else {
                assert!(cache.hits() >= 2, "{arch:?} recorded no cache hits");
            }
        }
    }

    #[test]
    fn eval_is_deterministic() {
        let (g, cfg, params, features, _) = setup();
        let ops = PropOps::prepare(Arch::Gcn, &g);
        assert_eq!(
            predict(&cfg, &ops, &params, &features),
            predict(&cfg, &ops, &params, &features)
        );
    }
}
