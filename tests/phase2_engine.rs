//! Integration tests for the Phase-2 evaluation engine: propagation-cache
//! bit-identity across architectures and the Phase-1→Phase-2 pool-trim
//! ledger.

use enhanced_soups::gnn::{
    evaluate_accuracy, evaluate_accuracy_cached, forward, init_params, predict, predict_cached,
    ParamVars, PropCache, PropOps,
};
use enhanced_soups::prelude::*;
use enhanced_soups::tensor::{pool, Tape, Var, DEVICE_MEMORY};
use std::sync::Mutex;

/// The workspace pool and the device-memory meter are process-global;
/// serialise the tests in this binary so the ledger assertions can't race
/// each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Eval-mode logits through the one public forward, as raw bit patterns.
fn logit_bits(
    tape: &Tape,
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    layers: &[Vec<Var>],
    features: &Tensor,
) -> Vec<u32> {
    let x = tape.constant(features.clone());
    let mut no_rng = SplitMix64::new(0);
    let y = forward(tape, cfg, ops, cache, x, layers, false, &mut no_rng);
    tape.value(y).data().iter().map(|v| v.to_bits()).collect()
}

/// Cached evaluation must replay the exact bytes of the uncached forward on
/// every architecture with a weight-independent first hop, and degrade to a
/// transparent no-op on GAT (whose attention coefficients depend on the
/// parameters, so there is nothing weight-independent to cache).
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
        }
        if matches!(arch, Arch::Gat) {
            assert_eq!(cache.hits(), 0, "GAT must not claim cache hits");
        } else {
            assert!(cache.hits() > 0, "{arch:?} cache never consumed");
        }
    }
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
