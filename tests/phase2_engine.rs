//! Integration tests for the Phase-2 evaluation engine: propagation-cache
//! bit-identity across architectures, PLS subgraph memoisation equivalence
//! through the public facade, and the Phase-1→Phase-2 pool-trim ledger.

use enhanced_soups::gnn::model::LayerWeights;
use enhanced_soups::gnn::{
    evaluate_accuracy, evaluate_accuracy_cached, forward, init_params, predict, predict_cached,
    predict_quant, ParamVars, PropCache, PropOps, QuantParamSet,
};
use enhanced_soups::prelude::*;
use enhanced_soups::soup::LearnedHyper;
use enhanced_soups::tensor::quant::QuantKind;
use enhanced_soups::tensor::{pool, Tape, DEVICE_MEMORY};
use std::sync::Mutex;

/// The workspace pool, the device-memory meter and the obs counters are all
/// process-global; serialise the tests in this binary so the ledger and
/// counter-delta assertions can't race each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    enhanced_soups::obs::registry::counter(name).get()
}

/// Eval-mode logits through the one public forward, as raw bit patterns.
fn logit_bits<W: LayerWeights>(
    tape: &Tape,
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    layers: &[W],
    features: &Tensor,
) -> Vec<u32> {
    let x = tape.constant(features.clone());
    let mut no_rng = SplitMix64::new(0);
    let y = forward(tape, cfg, ops, cache, x, layers, false, &mut no_rng);
    tape.value(y).data().iter().map(|v| v.to_bits()).collect()
}

/// Cached evaluation must replay the exact bytes of the uncached forward on
/// every architecture with a weight-independent first hop — for f32, int8
/// and bf16 weights alike — and degrade to a transparent no-op on GAT (whose
/// attention coefficients depend on the parameters, so there is nothing
/// weight-independent to cache).
#[test]
fn cached_evaluation_is_bit_identical_across_architectures() {
    let _serial = SERIAL.lock().unwrap();
    let dataset = DatasetKind::Flickr.generate_scaled(5, 0.1);
    let val = &dataset.splits.val;
    let configs = [
        ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(12),
        ModelConfig::sage(dataset.num_features(), dataset.num_classes()).with_hidden(12),
        ModelConfig::gin(dataset.num_features(), dataset.num_classes()).with_hidden(12),
        ModelConfig::gat(dataset.num_features(), dataset.num_classes()).with_hidden(12),
    ];
    let features = &dataset.features;
    for cfg in &configs {
        let arch = cfg.arch;
        let ops = PropOps::prepare(arch, &dataset.graph);
        let cache = PropCache::new(&ops, features);
        if matches!(arch, Arch::Gat) {
            assert!(cache.cached_agg().is_none(), "GAT must not cache a hop");
        } else {
            assert!(cache.cached_agg().is_some(), "{arch:?} must cache");
        }
        // Several candidate parameter sets, as a souping loop would probe.
        for seed in [1u64, 2, 3] {
            let mut rng = SplitMix64::new(seed);
            let params = init_params(cfg, &mut rng);
            let preds = predict(cfg, &ops, &params, features);
            let preds_cached = predict_cached(cfg, &ops, &cache, &params);
            assert_eq!(preds, preds_cached, "{arch:?} predictions diverge");
            let acc = evaluate_accuracy(cfg, &ops, &params, features, &dataset.labels, val);
            let acc_cached =
                evaluate_accuracy_cached(cfg, &ops, &cache, &params, &dataset.labels, val);
            assert_eq!(acc, acc_cached, "{arch:?} accuracy diverges");
            // The logits bytes themselves: the strictest check there is.
            let f32_bits = |cache| {
                let tape = Tape::new();
                let vars = ParamVars::register(&tape, &params, false);
                logit_bits(&tape, cfg, &ops, cache, &vars.layers, features)
            };
            assert_eq!(
                f32_bits(None),
                f32_bits(Some(&cache)),
                "{arch:?} f32 logits"
            );
            for kind in [QuantKind::Int8, QuantKind::Bf16] {
                let q = QuantParamSet::quantize(cfg, &params, kind);
                assert_eq!(
                    predict_quant(cfg, &ops, None, &q, features),
                    predict_quant(cfg, &ops, Some(&cache), &q, features),
                    "{arch:?} {kind} predictions diverge"
                );
                let q_bits =
                    |cache| logit_bits(&Tape::new(), cfg, &ops, cache, q.layers(), features);
                assert_eq!(q_bits(None), q_bits(Some(&cache)), "{arch:?} {kind} logits");
            }
        }
        if matches!(arch, Arch::Gat) {
            assert_eq!(cache.hits(), 0, "GAT must not claim cache hits");
        } else {
            assert!(cache.hits() > 0, "{arch:?} cache never consumed");
        }
    }
}

/// PLS with the memoisation engine on (subgraph LRU + per-entry PropCache)
/// must produce the same soup, bitwise, as the engine-off run under the
/// same seed — and must actually hit the cache while doing it.
#[test]
fn pls_subgraph_memoisation_matches_uncached_run() {
    let _serial = SERIAL.lock().unwrap();
    let dataset = DatasetKind::Flickr.generate_scaled(9, 0.15);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(8);
    let tc = TrainConfig {
        epochs: 6,
        early_stop_patience: None,
        ..TrainConfig::quick()
    };
    let ingredients = train_ingredients(&dataset, &cfg, &tc, 4, 2, 17);
    let hyper = LearnedHyper {
        epochs: 40,
        ..Default::default()
    };
    // K = 5, R = 2 -> binom(5, 2) = 10 distinct subsets: small enough for
    // the adaptive policy to engage the default LRU capacity.
    let hits_before = counter("soup.pls.subgraph_cache_hits");
    let cached = PartitionLearnedSouping::new(hyper, 5, 2).soup(&ingredients, &dataset, &cfg, 23);
    let hits_after = counter("soup.pls.subgraph_cache_hits");
    assert!(
        hits_after > hits_before,
        "subgraph cache never hit ({hits_before} -> {hits_after})"
    );

    let uncached = PartitionLearnedSouping::new(
        LearnedHyper {
            prop_cache: false,
            ..hyper
        },
        5,
        2,
    )
    .with_subgraph_cache(0)
    .soup(&ingredients, &dataset, &cfg, 23);

    assert_eq!(cached.val_accuracy, uncached.val_accuracy);
    assert!(
        cached
            .params
            .flat()
            .zip(uncached.params.flat())
            .all(|(a, b)| a == b),
        "memoised PLS soup is not bitwise identical"
    );
    assert!(cached.stats.spmm_saved > 0, "engine run saved no SpMMs");
    assert_eq!(uncached.stats.spmm_saved, 0, "baseline must not save SpMMs");
}

/// `pool::trim()` at the Phase-1 -> Phase-2 boundary must hand every idle
/// byte back to the allocator and re-balance the `DEVICE_MEMORY` pooled
/// ledger to exactly zero.
#[test]
fn pool_trim_balances_memory_ledger() {
    let _serial = SERIAL.lock().unwrap();
    pool::trim(); // start from a clean pool regardless of test order
    assert_eq!(pool::idle_bytes(), 0);
    assert_eq!(DEVICE_MEMORY.pooled(), 0);

    // A Phase-1-sized buffer: dropped tensors return to the pool.
    {
        let mut rng = SplitMix64::new(41);
        let _phase1 = Tensor::randn(512, 64, 1.0, &mut rng);
    }
    let idle = pool::idle_bytes();
    assert!(idle > 0, "dropped tensor buffer was not pooled");
    assert_eq!(DEVICE_MEMORY.pooled(), idle);

    let freed = pool::trim();
    assert_eq!(freed, idle, "trim must report exactly the idle bytes");
    assert_eq!(pool::idle_bytes(), 0);
    assert_eq!(DEVICE_MEMORY.pooled(), 0, "pooled ledger must re-balance");
}
