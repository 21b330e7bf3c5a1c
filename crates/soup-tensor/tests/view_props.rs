//! Property tests for the strided-view GEMM path.
//!
//! The view layer's contract is *bitwise* equivalence: a `MatRef` with
//! arbitrary (row, col) strides describing the same logical matrix as an
//! owned row-major tensor must produce byte-identical products, because the
//! stride-aware pack routines gather the same values in the same order as
//! the contiguous ones and the microkernel never changes. Out-of-view
//! buffer slots are filled with NaN so any stray read poisons the result
//! instead of passing silently.

use proptest::prelude::*;
use soup_tensor::view::MatRef;
use soup_tensor::{SplitMix64, Tensor};

/// Scatter a row-major `(rows, cols)` matrix into a larger buffer with
/// column stride `cs` and `rpad` extra slots per row; every slot not
/// covered by the view is NaN.
fn embed(data: &[f32], rows: usize, cols: usize, cs: usize, rpad: usize) -> (Vec<f32>, usize) {
    let rs = cols * cs + rpad;
    let mut buf = vec![f32::NAN; rows * rs + 1];
    for r in 0..rows {
        for c in 0..cols {
            buf[r * rs + c * cs] = data[r * cols + c];
        }
    }
    (buf, rs)
}

fn check_strided_matmul(m: usize, n: usize, k: usize, acs: usize, bcs: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let a = Tensor::randn(m, k, 1.0, &mut rng);
    let b = Tensor::randn(k, n, 1.0, &mut rng);
    let want = a.matmul(&b);

    let (abuf, ars) = embed(a.data(), m, k, acs, (seed % 3) as usize);
    let (bbuf, brs) = embed(b.data(), k, n, bcs, (seed % 5) as usize);
    let av = MatRef::from_strided(&abuf, 0, m, k, ars, acs);
    let bv = MatRef::from_strided(&bbuf, 0, k, n, brs, bcs);
    let got = av.matmul(&bv);
    assert_eq!(
        got.data(),
        want.data(),
        "strided view product diverged at m={m} n={n} k={k} acs={acs} bcs={bcs}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary-stride views over both operands, shapes crossing the
    /// naive-product cutoff and the MR/NR/KC remainder classes.
    #[test]
    fn strided_view_matmul_is_bitwise_identical(
        m in 1usize..60,
        n in 1usize..60,
        k in 1usize..100,
        acs in 1usize..4,
        bcs in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        check_strided_matmul(m, n, k, acs, bcs, seed);
    }

    /// O(1) transposed views feeding the GEMM match products of owned
    /// transposed copies, bitwise.
    #[test]
    fn transposed_view_matmul_is_bitwise_identical(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        // Store Aᵀ (k, m) and Bᵀ (n, k); view-transpose them back.
        let at = Tensor::randn(k, m, 1.0, &mut rng);
        let bt = Tensor::randn(n, k, 1.0, &mut rng);
        let want = at.transpose().matmul(&bt.transpose());
        let got = at.t().matmul(&bt.t());
        prop_assert_eq!(got.data(), want.data());
    }

    /// Row/column slices of a bigger matrix match products of materialised
    /// sub-tensors, bitwise.
    #[test]
    fn sliced_view_matmul_is_bitwise_identical(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..64,
        top in 0usize..8,
        bottom in 0usize..8,
        left in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let big_a = Tensor::randn(top + m + bottom, k, 1.0, &mut rng);
        let big_b = Tensor::randn(k, left + n, 1.0, &mut rng);
        // Owned reference: copy the slices out element by element.
        let a_owned = Tensor::from_vec(
            m,
            k,
            (0..m * k).map(|i| big_a.get(top + i / k, i % k)).collect(),
        );
        let b_owned = Tensor::from_vec(
            k,
            n,
            (0..k * n).map(|i| big_b.get(i / n, left + i % n)).collect(),
        );
        let want = a_owned.matmul(&b_owned);
        let got = big_a
            .slice_rows(top, top + m)
            .matmul(&big_b.view().slice_cols(left, left + n));
        prop_assert_eq!(got.data(), want.data());
    }

}

/// Hot-path sweep (satellite of the view refactor): `matmul_nt`/`matmul_tn`
/// — the tape-backward drivers — now route through O(1) transposed views,
/// so every large product advances `tensor.view.copies_avoided` instead of
/// materialising a transposed copy.
#[test]
fn hot_path_transposes_advance_copies_avoided() {
    let mut rng = SplitMix64::new(7);
    let a = Tensor::randn(96, 80, 1.0, &mut rng); // above the naive cutoff
    let b = Tensor::randn(96, 80, 1.0, &mut rng);
    let counter = soup_obs::counter!("tensor.view.copies_avoided");
    let before = counter.get();
    let _ = a.matmul_nt(&b); // A·Bᵀ: one avoided transpose copy
    let _ = a.transpose().matmul_tn(&b.transpose()); // Aᵀ·B: one more
    assert!(
        counter.get() >= before + 2,
        "matmul_nt/matmul_tn no longer route through views"
    );
}

// The steady-state zero-allocation assertion lives in its own binary
// (`tests/view_steady_state.rs`): it needs quiet global pool counters,
// which the concurrently-running proptests here would churn.
