//! Property tests for the cache-blocked GEMM and nnz-balanced SpMM
//! kernels, checking them against independent scalar references across
//! deliberately awkward shapes: dimensions that are not multiples of the
//! MR/NR/KC tile sizes, degenerate 1×N and N×1 matrices, graphs with empty
//! rows, and a single hub row holding >90% of the nonzeros.
//!
//! The references here are written from scratch (triple loop / per-edge
//! saxpy) so a bug shared between the tiled kernel and its packing helpers
//! cannot cancel out.

use proptest::prelude::*;
use soup_tensor::gemm::{KC, MR, NR, SMALL_GEMM_MACS};
use soup_tensor::ops::sparse::SparseMat;
use soup_tensor::{SplitMix64, Tensor};

/// Scalar triple-loop C = A(m×k) · B(k×n), independent of the crate's
/// kernels and packing.
fn gemm_ref(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for t in 0..k {
            let av = a[i * k + t];
            for j in 0..n {
                out[i * n + j] += av * b[t * n + j];
            }
        }
    }
    out
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (idx, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-3 * (1.0 + w.abs()),
            "{what}: idx {idx}: got {g}, want {w}"
        );
    }
}

/// Check all three matmul entry points on one (m, n, k) shape. Operands for
/// the nt/tn variants are stored transposed so every driver computes the
/// same logical product and can share the reference.
fn check_matmuls(m: usize, n: usize, k: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
    let want = gemm_ref(m, n, k, &a, &b);

    let ta = Tensor::from_vec(m, k, a.clone());
    let tb = Tensor::from_vec(k, n, b.clone());
    assert_close(ta.matmul(&tb).data(), &want, "matmul");

    // matmul_nt(A, Bt) with Bt = B stored (n, k).
    let mut bt = vec![0.0f32; n * k];
    for t in 0..k {
        for j in 0..n {
            bt[j * k + t] = b[t * n + j];
        }
    }
    let tbt = Tensor::from_vec(n, k, bt);
    assert_close(ta.matmul_nt(&tbt).data(), &want, "matmul_nt");

    // matmul_tn(At, B) with At = A stored (k, m).
    let mut at = vec![0.0f32; k * m];
    for i in 0..m {
        for t in 0..k {
            at[t * m + i] = a[i * k + t];
        }
    }
    let tat = Tensor::from_vec(k, m, at);
    assert_close(tat.matmul_tn(&tb).data(), &want, "matmul_tn");

    // On the blocked path the transposed operands are absorbed by the
    // packers, which must produce the panel bytes of the materialised
    // transpose: nt and tn equal `transpose()` then `matmul`, bitwise.
    if m * n * k >= SMALL_GEMM_MACS {
        assert_eq!(
            ta.matmul_nt(&tbt),
            ta.matmul(&tbt.transpose()),
            "matmul_nt bits"
        );
        assert_eq!(
            tat.matmul_tn(&tb),
            tat.transpose().matmul(&tb),
            "matmul_tn bits"
        );
    }
}

/// Per-edge saxpy SpMM reference, independent of chunk plans and the
/// unrolled kernel.
fn spmm_ref(indptr: &[usize], indices: &[u32], values: &[f32], x: &Tensor) -> Vec<f32> {
    let rows = indptr.len() - 1;
    let c = x.cols();
    let xs = x.data();
    let mut out = vec![0.0f32; rows * c];
    for r in 0..rows {
        for e in indptr[r]..indptr[r + 1] {
            let col = indices[e] as usize;
            let v = values[e];
            for j in 0..c {
                out[r * c + j] += v * xs[col * c + j];
            }
        }
    }
    out
}

fn check_spmm(rows: usize, cols: usize, degrees: &[usize], c: usize, seed: u64) {
    assert_eq!(degrees.len(), rows);
    let mut rng = SplitMix64::new(seed);
    let mut indptr = vec![0usize; rows + 1];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (r, &deg) in degrees.iter().enumerate() {
        for _ in 0..deg.min(cols) {
            indices.push(rng.next_below(cols) as u32);
            values.push(rng.normal());
        }
        indptr[r + 1] = indices.len();
    }
    let x = Tensor::randn(cols, c, 1.0, &mut rng);
    let want = spmm_ref(&indptr, &indices, &values, &x);
    let a = SparseMat::new(rows, cols, indptr, indices, values, false);
    assert_close(a.matvec_dense(&x).data(), &want, "spmm");
}

/// The pre-engine souping baseline: materialise `Σ_i coeffs[i]·parts[i]`
/// as a chain of two-way interpolations, each step a fresh temporary —
/// `acc_i = acc_{i-1} + coeffs[i]·parts[i]` in plain scalar f32.
fn chained_interpolate_ref(coeffs: &[f32], parts: &[&Tensor]) -> Vec<f32> {
    let mut acc = vec![0.0f32; parts[0].data().len()];
    for (c, p) in coeffs.iter().zip(parts) {
        let next: Vec<f32> = acc.iter().zip(p.data()).map(|(a, x)| a + c * x).collect();
        acc = next;
    }
    acc
}

/// Fused R-way blend vs the chained-interpolation chain it replaced: the
/// fused kernel accumulates in the same order, so only FMA contraction
/// (AVX2 path) can perturb the result — bounded well inside 1e-6 relative.
fn check_blend(rows: usize, cols: usize, r: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let parts: Vec<Tensor> = (0..r)
        .map(|_| Tensor::randn(rows, cols, 1.0, &mut rng))
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    // Softmax-like convex coefficients, as GIS/LS produce.
    let raw: Vec<f32> = (0..r).map(|_| rng.normal().abs() + 0.05).collect();
    let total: f32 = raw.iter().sum();
    let coeffs: Vec<f32> = raw.iter().map(|c| c / total).collect();
    let want = chained_interpolate_ref(&coeffs, &refs);

    let mut dst = Tensor::zeros(rows, cols);
    soup_tensor::ops::soup::blend_into(&mut dst, &coeffs, &refs);
    for (idx, (&g, &w)) in dst.data().iter().zip(&want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-6 * (1.0 + w.abs()),
            "blend r={r} idx {idx}: got {g}, want {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes spanning the tile-remainder classes: each dimension
    /// independently lands on/off MR/NR/KC multiples and crosses the
    /// small-product naive cutoff. `k` reaches past one KC slab, where the
    /// blocked and naive kernels stop summing in the same order.
    #[test]
    fn matmul_matches_reference_on_random_shapes(
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..2 * KC,
        seed in 0u64..1_000_000,
    ) {
        check_matmuls(m, n, k, seed);
    }

    /// Random sparse structures: degree 0 (empty rows) is common by
    /// construction, feature widths cross the unroll remainder classes.
    #[test]
    fn spmm_matches_reference_on_random_graphs(
        rows in 1usize..40,
        cols in 1usize..40,
        c in 1usize..33,
        seed in 0u64..1_000_000,
        density in 0usize..6,
    ) {
        let mut rng = SplitMix64::new(seed ^ 0x9e37);
        let degrees: Vec<usize> = (0..rows).map(|_| rng.next_below(density + 1)).collect();
        check_spmm(rows, cols, &degrees, c, seed);
    }

    /// Fused soup blend vs chained interpolation for every soup size GIS
    /// probes (R ∈ {2..8}), crossing the parallel-chunk threshold.
    #[test]
    fn blend_into_matches_chained_interpolation(
        rows in 1usize..80,
        cols in 1usize..48,
        r in 2usize..=8,
        seed in 0u64..1_000_000,
    ) {
        check_blend(rows, cols, r, seed);
    }
}

#[test]
fn matmul_tile_boundary_shapes() {
    // Exact multiples, ±1 remainders, degenerate vectors, and a k that
    // spans multiple KC slabs.
    let shapes = [
        (MR, NR, KC),
        (MR * 2, NR * 3, KC * 2),
        (MR * 2 + 1, NR + 7, KC + 1),
        (MR - 1, NR - 1, KC - 1),
        (1, 1, 1),
        (1, 64, 64), // 1×N row vector times matrix
        (64, 1, 64), // matrix times N×1 column vector
        (1, 1, KC * 2 + 3),
        (3, 5, 7),
        (65, 33, KC * 2 + 17),
    ];
    for (i, &(m, n, k)) in shapes.iter().enumerate() {
        check_matmuls(m, n, k, 1000 + i as u64);
    }
}

#[test]
fn spmm_hub_row_dominates_nnz() {
    // One hub row holds >90% of the edges; the chunk plan must isolate it
    // and the result must still match the per-edge reference.
    let rows = 32;
    let mut degrees = vec![1usize; rows];
    degrees[7] = 400; // 400 / (400 + 31) ≈ 93% of nnz
    check_spmm(rows, 24, &degrees, 16, 42);
}

#[test]
fn spmm_empty_and_all_empty_rows() {
    // Alternating empty rows.
    let degrees: Vec<usize> = (0..20).map(|r| if r % 2 == 0 { 3 } else { 0 }).collect();
    check_spmm(20, 10, &degrees, 5, 7);
    // Entirely empty matrix: output must be exactly zero.
    check_spmm(8, 8, &[0; 8], 4, 8);
}

#[test]
fn spmm_single_row_and_single_col() {
    check_spmm(1, 16, &[12], 8, 9); // 1×N structure
    let degrees = vec![1usize; 16];
    check_spmm(16, 1, &degrees, 8, 10); // N×1: every edge hits column 0
}
