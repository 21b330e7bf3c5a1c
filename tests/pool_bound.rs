//! The tensor pool's idle memory is bounded by how many buffers were ever
//! live at once, not by how long a run lasts.
//!
//! Every training epoch drops buffers it built itself (dropout masks among
//! them). A pool that kept every returned vector would grow one idle
//! buffer per epoch; the minted bound keeps it flat. The check reads the
//! process-global pool, so it is the only test in its binary.

use enhanced_soups::gnn::{init_params, train_single};
use enhanced_soups::prelude::*;
use enhanced_soups::tensor::pool;

#[test]
fn idle_pool_bytes_do_not_grow_with_epochs() {
    let d = DatasetKind::Flickr.generate_scaled(11, 0.12);
    let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(16);
    assert!(cfg.dropout > 0.0, "the run must draw dropout masks");
    let mut rng = SplitMix64::new(11);
    let init = init_params(&cfg, &mut rng);

    let idle_after = |epochs: usize| {
        pool::trim();
        let tc = TrainConfig {
            epochs,
            eval_every: 1,
            ..TrainConfig::quick()
        };
        drop(train_single(&d, &cfg, &tc, &init, 1));
        pool::idle_bytes()
    };
    let short = idle_after(3);
    let long = idle_after(12);
    assert!(short > 0, "a training run should leave buffers in the pool");
    assert!(
        long <= short,
        "idle pool bytes grew with the epoch count: {short} after 3 epochs, \
         {long} after 12"
    );
}
