//! Steady-state allocation behaviour of the view-fed GEMM path.
//!
//! Lives in its own test binary (like `pool_accounting`) because the
//! assertions read process-global pool counters: another test thread
//! churning the pool would make "misses stayed flat" flaky. With a single
//! `#[test]` here, the binary is effectively single-threaded.

use soup_tensor::{SplitMix64, Tensor};

#[test]
fn view_path_allocates_nothing_fresh_at_steady_state() {
    let mut rng = SplitMix64::new(8);
    let a = Tensor::randn(128, 96, 1.0, &mut rng);
    let b = Tensor::randn(128, 96, 1.0, &mut rng);
    let w = Tensor::randn(96, 64, 1.0, &mut rng);
    let step = || {
        // Transpose and slice are O(1) metadata ops; the products and the
        // strided materialisation recycle pooled buffers of fixed shapes.
        let p = a.t().matmul(&b.view());
        let s = a.slice_rows(16, 112).matmul(&w.view().slice_cols(0, 48));
        let m = a.t().to_tensor();
        (p, s, m)
    };
    drop(step()); // warm-up populates the pool buckets
    let misses = soup_obs::counter!("tensor.pool.misses").get();
    let bypass = soup_obs::counter!("tensor.pool.bypass").get();
    let copies_avoided = soup_obs::counter!("tensor.view.copies_avoided").get();
    for _ in 0..3 {
        drop(step());
    }
    assert_eq!(
        soup_obs::counter!("tensor.pool.misses").get(),
        misses,
        "steady-state view step missed the pool"
    );
    assert_eq!(
        soup_obs::counter!("tensor.pool.bypass").get(),
        bypass,
        "steady-state view step bypassed the pool"
    );
    // Each step performs 4 counted zero-copy view ops (t, slice_rows,
    // slice_cols, t) — the transposes/slices really went through views.
    assert!(
        soup_obs::counter!("tensor.view.copies_avoided").get() >= copies_avoided + 12,
        "steady-state step stopped routing through zero-copy views"
    );
}
