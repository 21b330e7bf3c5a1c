//! CSR sparse × dense products — the message-passing kernel behind GCN
//! (symmetric-normalised adjacency) and GraphSAGE (row-normalised mean
//! aggregation).
//!
//! A [`SparseMat`] is an immutable CSR matrix shared via `Arc`. Its
//! structural arrays are registered with the device-memory meter so that
//! experiments account for graph storage the same way the paper's GPU
//! measurements do. Non-symmetric matrices eagerly build their transpose,
//! which the backward pass needs (`∂L/∂X = Aᵀ G`); symmetric matrices
//! (GCN's `D^{-1/2} A D^{-1/2}`) reuse the forward arrays.
//!
//! SpMM dispatch is *nnz-balanced*: each CSR caches a `ChunkPlan` cutting
//! its rows into chunks of approximately equal nnz (binary search over
//! `indptr`), built once per matrix and reused by every product — every
//! training epoch and every souping candidate evaluation. Within a chunk,
//! output rows are computed in register-resident column tiles
//! (`spmm_row_tile`): the edge list streams once per tile while the
//! output stays in accumulator registers, eliminating the per-edge
//! output-row reload of the naive saxpy formulation.

use crate::memory::MemGuard;
use crate::parallel::{self, PAR_THRESHOLD};
use crate::pool;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Row ranges of approximately equal nnz, built once per CSR and reused by
/// every SpMM dispatch over that matrix (every epoch, every souping
/// candidate evaluation). Power-law graphs (Reddit, ogbn-products) have hub
/// vertices whose rows hold orders of magnitude more entries than the
/// median, so chunks are cut at nnz quantiles
/// ([`parallel::balanced_bounds`]) rather than by row count. The cut
/// depends on the matrix alone, never on the thread count.
#[derive(Debug)]
struct ChunkPlan {
    /// Row boundaries: chunk `i` covers rows `bounds[i]..bounds[i+1]`.
    bounds: Vec<usize>,
    /// Largest per-chunk nnz, for the imbalance metric.
    max_chunk_nnz: usize,
    /// Total nnz of the matrix the plan was built for.
    total_nnz: usize,
}

impl ChunkPlan {
    fn build(indptr: &[usize]) -> Self {
        let nnz = *indptr.last().unwrap();
        let bounds = parallel::balanced_bounds(indptr, parallel::BALANCED_CHUNKS);
        let max_chunk_nnz = bounds
            .windows(2)
            .map(|w| indptr[w[1]] - indptr[w[0]])
            .max()
            .unwrap_or(0);
        let plan = Self {
            bounds,
            max_chunk_nnz,
            total_nnz: nnz,
        };
        soup_obs::counter!("tensor.spmm.plan.builds").inc();
        soup_obs::gauge!("tensor.spmm.plan.chunks").set(plan.chunks() as f64);
        soup_obs::gauge!("tensor.spmm.plan.imbalance").set(plan.imbalance());
        plan
    }

    fn chunks(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Max chunk nnz over the ideal (mean) chunk nnz; 1.0 is perfectly
    /// balanced. Row-count chunking on a Zipf graph scores ≫ 1 here.
    fn imbalance(&self) -> f64 {
        let chunks = self.chunks();
        if chunks == 0 || self.total_nnz == 0 {
            return 1.0;
        }
        let mean = self.total_nnz as f64 / chunks as f64;
        self.max_chunk_nnz as f64 / mean
    }
}

#[derive(Debug)]
struct Csr {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Lazily-built row-chunk plan, cached for the matrix lifetime.
    plan: OnceLock<ChunkPlan>,
}

impl Csr {
    fn new(indptr: Vec<usize>, indices: Vec<u32>, values: Vec<f32>) -> Self {
        Self {
            indptr,
            indices,
            values,
            plan: OnceLock::new(),
        }
    }

    fn plan(&self) -> &ChunkPlan {
        self.plan.get_or_init(|| ChunkPlan::build(&self.indptr))
    }

    fn bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    fn transpose(&self, rows: usize, cols: usize) -> Csr {
        let nnz = self.indices.len();
        let mut counts = vec![0usize; cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = counts;
        for r in 0..rows {
            for e in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[e] as usize;
                let pos = cursor[c];
                cursor[c] += 1;
                indices[pos] = r as u32;
                values[pos] = self.values[e];
            }
        }
        Csr::new(indptr, indices, values)
    }
}

#[derive(Debug)]
struct Inner {
    rows: usize,
    cols: usize,
    fwd: Csr,
    /// Transposed CSR for backward; `None` means the matrix is symmetric
    /// and `fwd` doubles as its own transpose.
    bwd: Option<Csr>,
    _mem: MemGuard,
}

/// Immutable CSR sparse matrix, cheaply cloneable.
#[derive(Debug, Clone)]
pub struct SparseMat {
    inner: Arc<Inner>,
}

impl SparseMat {
    /// Build from CSR arrays.
    ///
    /// `symmetric` declares that the matrix equals its transpose (values
    /// included) — the caller's responsibility; debug builds verify it.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
        symmetric: bool,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows+1");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr[-1] must equal nnz"
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be non-decreasing"
        );
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        if symmetric {
            assert_eq!(rows, cols, "symmetric matrix must be square");
        }
        let fwd = Csr::new(indptr, indices, values);
        let bwd = if symmetric {
            None
        } else {
            Some(fwd.transpose(rows, cols))
        };
        let bytes = fwd.bytes() + bwd.as_ref().map_or(0, Csr::bytes);
        let mat = Self {
            inner: Arc::new(Inner {
                rows,
                cols,
                fwd,
                bwd,
                _mem: MemGuard::new(bytes),
            }),
        };
        #[cfg(debug_assertions)]
        if symmetric {
            debug_assert!(
                mat.is_value_symmetric(),
                "matrix declared symmetric but is not"
            );
        }
        mat
    }

    pub fn rows(&self) -> usize {
        self.inner.rows
    }

    pub fn cols(&self) -> usize {
        self.inner.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.inner.fwd.indices.len()
    }

    pub fn is_symmetric(&self) -> bool {
        self.inner.bwd.is_none()
    }

    pub fn indptr(&self) -> &[usize] {
        &self.inner.fwd.indptr
    }

    pub fn indices(&self) -> &[u32] {
        &self.inner.fwd.indices
    }

    pub fn values(&self) -> &[f32] {
        &self.inner.fwd.values
    }

    /// Dense materialisation (tests / tiny matrices only).
    pub fn to_dense(&self) -> Tensor {
        let mut out = pool::take_zeroed(self.rows() * self.cols());
        for r in 0..self.rows() {
            for e in self.inner.fwd.indptr[r]..self.inner.fwd.indptr[r + 1] {
                out[r * self.cols() + self.inner.fwd.indices[e] as usize] +=
                    self.inner.fwd.values[e];
            }
        }
        Tensor::from_vec(self.rows(), self.cols(), out)
    }

    /// Exact check that values form a symmetric matrix (O(nnz log nnz)).
    pub fn is_value_symmetric(&self) -> bool {
        if self.rows() != self.cols() {
            return false;
        }
        let mut entries: Vec<(u32, u32, f32)> = Vec::with_capacity(self.nnz());
        for r in 0..self.rows() {
            for e in self.inner.fwd.indptr[r]..self.inner.fwd.indptr[r + 1] {
                entries.push((
                    r as u32,
                    self.inner.fwd.indices[e],
                    self.inner.fwd.values[e],
                ));
            }
        }
        let mut flipped: Vec<(u32, u32, f32)> =
            entries.iter().map(|&(r, c, v)| (c, r, v)).collect();
        entries.sort_by_key(|a| (a.0, a.1));
        flipped.sort_by_key(|a| (a.0, a.1));
        entries.len() == flipped.len()
            && entries
                .iter()
                .zip(&flipped)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && (a.2 - b.2).abs() < 1e-6)
    }

    /// `self × x` as raw tensors (no autograd). Row-parallel.
    pub fn matvec_dense(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            x.rows(),
            "spmm dims: {}x{} × {}",
            self.rows(),
            self.cols(),
            x.shape()
        );
        spmm_kernel(&self.inner.fwd, self.rows(), x)
    }

    fn backward_csr(&self) -> &Csr {
        self.inner.bwd.as_ref().unwrap_or(&self.inner.fwd)
    }
}

fn record_spmm_metrics(nnz: usize, rows: usize, c: usize) {
    soup_obs::counter!("tensor.spmm.calls").inc();
    soup_obs::counter!("tensor.spmm.nnz").add(nnz as u64);
    soup_obs::counter!("tensor.spmm.flops").add(2 * (nnz * c) as u64);
    // CSR entry reads (value + index) plus gathered x rows plus the output.
    soup_obs::counter!("tensor.spmm.bytes").add((nnz * 8 + nnz * c * 4 + rows * c * 4) as u64);
}

/// One `T`-lane column tile of one output row: stream the row's whole edge
/// list once, accumulating into a `T`-element register tile, then store.
/// With `T = 64` the accumulator is eight 8-lane vectors — the entire
/// output tile lives in registers across every edge, so the kernel does
/// *zero* output-row loads (the naive saxpy reloads and restores the output
/// row once per edge). Empty rows fall out naturally: the tile stays zero.
#[inline(always)]
fn spmm_row_tile<const T: usize>(
    csr: &Csr,
    row_beg: usize,
    row_end: usize,
    c: usize,
    j0: usize,
    xs: &[f32],
    otile: &mut [f32],
) {
    let mut acc = [0.0f32; T];
    for e in row_beg..row_end {
        let col = csr.indices[e] as usize;
        let v = csr.values[e];
        let xrow = &xs[col * c + j0..][..T];
        for j in 0..T {
            acc[j] += v * xrow[j];
        }
    }
    otile[..T].copy_from_slice(&acc);
}

/// Compute rows `r0..r1` of `A × X` into `out` (row `r0` of the product at
/// `out[0..c]`). Every output element is written — `out` may hold stale
/// pool contents, sparing the caller an up-front memset of the output.
///
/// Each output row is processed in register-resident column tiles
/// ([`spmm_row_tile`]), 64 lanes at a time with narrower tiles for the
/// remainder; sub-4-lane leftovers use per-lane scalar accumulators.
#[inline(always)]
fn spmm_rows_body(csr: &Csr, r0: usize, r1: usize, c: usize, xs: &[f32], out: &mut [f32]) {
    for r in r0..r1 {
        let orow = &mut out[(r - r0) * c..(r - r0 + 1) * c];
        let row_beg = csr.indptr[r];
        let row_end = csr.indptr[r + 1];
        let mut j0 = 0;
        while j0 + 64 <= c {
            spmm_row_tile::<64>(csr, row_beg, row_end, c, j0, xs, &mut orow[j0..]);
            j0 += 64;
        }
        if j0 + 32 <= c {
            spmm_row_tile::<32>(csr, row_beg, row_end, c, j0, xs, &mut orow[j0..]);
            j0 += 32;
        }
        if j0 + 16 <= c {
            spmm_row_tile::<16>(csr, row_beg, row_end, c, j0, xs, &mut orow[j0..]);
            j0 += 16;
        }
        if j0 + 8 <= c {
            spmm_row_tile::<8>(csr, row_beg, row_end, c, j0, xs, &mut orow[j0..]);
            j0 += 8;
        }
        if j0 + 4 <= c {
            spmm_row_tile::<4>(csr, row_beg, row_end, c, j0, xs, &mut orow[j0..]);
            j0 += 4;
        }
        for j in j0..c {
            let mut a = 0.0f32;
            for e in row_beg..row_end {
                a += csr.values[e] * xs[csr.indices[e] as usize * c + j];
            }
            orow[j] = a;
        }
    }
}

/// Baseline-ISA compilation of [`spmm_rows_body`].
fn spmm_rows_generic(csr: &Csr, r0: usize, r1: usize, c: usize, xs: &[f32], out: &mut [f32]) {
    spmm_rows_body(csr, r0, r1, c, xs, out);
}

/// [`spmm_rows_body`] compiled with AVX2 + FMA enabled (runtime-selected
/// via [`crate::parallel::cpu_has_avx2_fma`]): the 8-wide edge combine
/// runs on 8-lane vectors, still as a separate multiply and add per edge,
/// because Rust never contracts `a * b + c` into a fused multiply-add, so
/// both compilations give the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn spmm_rows_avx2(csr: &Csr, r0: usize, r1: usize, c: usize, xs: &[f32], out: &mut [f32]) {
    spmm_rows_body(csr, r0, r1, c, xs, out);
}

#[inline(always)]
fn spmm_rows(csr: &Csr, r0: usize, r1: usize, c: usize, xs: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::parallel::cpu_has_avx2_fma() {
        // SAFETY: the required target features were verified at runtime.
        unsafe { spmm_rows_avx2(csr, r0, r1, c, xs, out) };
        return;
    }
    spmm_rows_generic(csr, r0, r1, c, xs, out);
}

/// SpMM over the cached nnz-balanced chunk plan: the output is split into
/// per-chunk row ranges (disjoint by construction) and the chunks run on
/// the fork-join pool, so a hub vertex occupies one chunk instead of
/// stalling a whole row-count chunk.
fn spmm_kernel(csr: &Csr, rows: usize, x: &Tensor) -> Tensor {
    let c = x.cols();
    let nnz = csr.indices.len();
    record_spmm_metrics(nnz, rows, c);
    let xs = x.data();
    // Scratch, not zeroed: `spmm_rows` fully initialises every output row.
    let mut out = pool::take_scratch(rows * c);
    if (nnz + rows) * c >= PAR_THRESHOLD && csr.plan().chunks() > 1 {
        let bounds = &csr.plan().bounds;
        let slices = parallel::split_at_cuts(&mut out, bounds.iter().map(|&r| r * c));
        parallel::for_each(slices, |i, slice| {
            spmm_rows(csr, bounds[i], bounds[i + 1], c, xs, slice);
        });
    } else {
        spmm_rows(csr, 0, rows, c, xs, &mut out);
    }
    Tensor::from_vec(rows, c, out)
}

/// The pre-plan row-parallel kernel (one saxpy per edge, rows chunked by
/// count), kept as the baseline the `kernels` bench compares the
/// nnz-balanced kernel against.
#[doc(hidden)]
pub fn spmm_rowpar_reference(a: &SparseMat, x: &Tensor) -> Tensor {
    let csr = &a.inner.fwd;
    let rows = a.rows();
    let c = x.cols();
    record_spmm_metrics(csr.indices.len(), rows, c);
    let xs = x.data();
    let mut out = pool::take_zeroed(rows * c);
    let row_work = |r: usize, orow: &mut [f32]| {
        for e in csr.indptr[r]..csr.indptr[r + 1] {
            let col = csr.indices[e] as usize;
            let v = csr.values[e];
            let xrow = &xs[col * c..(col + 1) * c];
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    };
    parallel::for_each_row(&mut out, c, row_work);
    Tensor::from_vec(rows, c, out)
}

impl Tape {
    /// Differentiable `A × x` for a constant sparse `A`.
    pub fn spmm(&self, a: &SparseMat, x: Var) -> Var {
        let out = a.matvec_dense(&self.value(x));
        let a = a.clone();
        self.push_op(
            out,
            vec![x],
            Box::new(move |g, _, _| {
                let gx = spmm_kernel(a.backward_csr(), a.cols(), g);
                vec![Some(gx)]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DEVICE_MEMORY;
    use crate::rng::SplitMix64;
    use crate::tape::gradcheck;

    /// 3×3 asymmetric test matrix:
    /// [0 2 0]
    /// [1 0 3]
    /// [0 4 0]
    fn asym() -> SparseMat {
        SparseMat::new(
            3,
            3,
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![2.0, 1.0, 3.0, 4.0],
            false,
        )
    }

    /// Symmetric matrix [0 1; 1 0] scaled.
    fn sym() -> SparseMat {
        SparseMat::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![0.5, 0.5], true)
    }

    /// The AVX2 + FMA copy of the SpMM row kernel and the baseline one
    /// agree bit for bit: every column tile width, empty rows included.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_spmm_rows_match_the_baseline_bitwise() {
        if !crate::parallel::cpu_has_avx2_fma() {
            eprintln!("no AVX2 + FMA on this CPU: only the baseline copy exists to run");
            return;
        }
        let (rows, cols, c) = (50, 40, 64 + 32 + 16 + 8 + 4 + 3);
        let mut rng = SplitMix64::new(11);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..rows {
            for _ in 0..(r * 7) % 9 {
                indices.push(rng.next_below(cols) as u32);
                values.push(rng.normal());
            }
            indptr.push(indices.len());
        }
        // A bare `Csr`, not a `SparseMat`: it registers no device memory,
        // so it cannot disturb tests that read the process-wide meter.
        let csr = Csr::new(indptr, indices, values);
        let xs: Vec<f32> = (0..cols * c).map(|_| rng.normal()).collect();
        let (mut generic, mut avx2) = (vec![f32::NAN; rows * c], vec![f32::NAN; rows * c]);
        spmm_rows_generic(&csr, 0, rows, c, &xs, &mut generic);
        // SAFETY: the required target features were verified above.
        unsafe { spmm_rows_avx2(&csr, 0, rows, c, &xs, &mut avx2) };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&generic), bits(&avx2));
    }

    #[test]
    fn dense_roundtrip() {
        let a = asym();
        let d = a.to_dense();
        assert_eq!(d.data(), &[0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        assert_eq!(a.nnz(), 4);
        assert!(!a.is_symmetric());
        assert!(sym().is_symmetric());
    }

    #[test]
    fn spmm_matches_dense() {
        let a = asym();
        let mut rng = SplitMix64::new(1);
        let x = Tensor::randn(3, 5, 1.0, &mut rng);
        let sparse = a.matvec_dense(&x);
        let dense = a.to_dense().matmul(&x);
        assert!(sparse.allclose(&dense, 1e-5));
    }

    #[test]
    fn spmm_large_parallel_matches_dense() {
        // Random sparse 200×200 with ~5 entries/row, wide enough feature dim
        // to hit the parallel path.
        let mut rng = SplitMix64::new(2);
        let n = 200;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for _ in 0..n {
            for _ in 0..5 {
                indices.push(rng.next_below(n) as u32);
                values.push(rng.normal());
            }
            indptr.push(indices.len());
        }
        let a = SparseMat::new(n, n, indptr, indices, values, false);
        let x = Tensor::randn(n, 64, 1.0, &mut rng);
        let sparse = a.matvec_dense(&x);
        let dense = a.to_dense().matmul(&x);
        assert!(sparse.allclose(&dense, 1e-3));
    }

    #[test]
    fn spmm_gradcheck_asymmetric() {
        let a = asym();
        let mut rng = SplitMix64::new(3);
        let x = Tensor::randn(3, 2, 1.0, &mut rng);
        let w = Tensor::randn(3, 2, 1.0, &mut rng);
        gradcheck(
            &|t, v| {
                let y = t.spmm(&a, v[0]);
                let wc = t.constant(w.clone());
                t.sum(t.mul(y, wc))
            },
            &[x],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn spmm_gradcheck_symmetric() {
        let a = sym();
        let mut rng = SplitMix64::new(4);
        let x = Tensor::randn(2, 3, 1.0, &mut rng);
        let w = Tensor::randn(2, 3, 1.0, &mut rng);
        gradcheck(
            &|t, v| {
                let y = t.spmm(&a, v[0]);
                let wc = t.constant(w.clone());
                t.sum(t.mul(y, wc))
            },
            &[x],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn transpose_is_correct() {
        let a = asym();
        let at_dense = a.to_dense().transpose();
        // Backward of spmm with grad seed e_i recovers rows of A^T.
        let tape = Tape::new();
        let x = tape.param(Tensor::eye(3));
        let y = tape.spmm(&a, x);
        let loss = tape.sum(y);
        let g = tape.backward(loss);
        // dL/dX = A^T * ones(3,3) -> each column is A^T row-sums.
        let expect = at_dense.matmul(&Tensor::ones(3, 3));
        assert!(g.get(x).unwrap().allclose(&expect, 1e-5));
    }

    #[test]
    fn chunk_plan_balances_nnz_quantiles() {
        // 8 rows: row 0 is a hub with 90 entries, the rest have 1–2.
        let mut indptr = vec![0usize, 90];
        for r in 1..8 {
            indptr.push(indptr[r] + 1 + (r % 2));
        }
        let plan = ChunkPlan::build(&indptr);
        assert!(plan.chunks() >= 1);
        assert_eq!(*plan.bounds.first().unwrap(), 0);
        assert_eq!(*plan.bounds.last().unwrap(), 8);
        assert!(plan.bounds.windows(2).all(|w| w[0] < w[1]));
        // The hub row cannot be split further, so it must sit alone in its
        // chunk when there is more than one chunk.
        if plan.chunks() > 1 {
            assert_eq!(plan.bounds[1], 1, "hub row isolated in its own chunk");
        }
        assert!(plan.imbalance() >= 1.0);
    }

    #[test]
    fn chunk_plan_handles_empty_and_uniform() {
        let empty = ChunkPlan::build(&[0]);
        assert_eq!(empty.chunks(), 0);
        assert_eq!(empty.imbalance(), 1.0);
        let uniform = ChunkPlan::build(&(0..=100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(*uniform.bounds.last().unwrap(), 100);
        assert!(uniform.imbalance() < 1.5);
    }

    #[test]
    fn balanced_spmm_matches_dense_on_hub_graph() {
        // Single hub row holding >90% of nnz, wide features to force the
        // parallel chunked path.
        let mut rng = SplitMix64::new(9);
        let n = 64;
        let hub_deg = 600;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for _ in 0..hub_deg {
            indices.push(rng.next_below(n) as u32);
            values.push(rng.normal());
        }
        indptr.push(indices.len());
        for _ in 1..n {
            indices.push(rng.next_below(n) as u32);
            values.push(rng.normal());
            indptr.push(indices.len());
        }
        let a = SparseMat::new(n, n, indptr, indices, values, false);
        let x = Tensor::randn(n, 48, 1.0, &mut rng);
        let got = a.matvec_dense(&x);
        let want = a.to_dense().matmul(&x);
        assert!(got.allclose(&want, 1e-3));
        let reference = spmm_rowpar_reference(&a, &x);
        assert!(got.allclose(&reference, 1e-4));
    }

    #[test]
    fn plan_is_cached_per_matrix() {
        let a = asym();
        let p1 = a.inner.fwd.plan() as *const ChunkPlan;
        let _ = a.matvec_dense(&Tensor::ones(3, 2));
        let p2 = a.inner.fwd.plan() as *const ChunkPlan;
        assert_eq!(p1, p2, "plan must be built once and cached");
    }

    #[test]
    fn memory_registered_and_released() {
        let before = DEVICE_MEMORY.current();
        let a = asym();
        assert!(DEVICE_MEMORY.current() > before);
        drop(a);
        assert_eq!(DEVICE_MEMORY.current(), before);
    }

    #[test]
    #[should_panic(expected = "indptr length")]
    fn bad_indptr_panics() {
        SparseMat::new(3, 3, vec![0, 1], vec![0], vec![1.0], false);
    }

    #[test]
    #[should_panic(expected = "column index")]
    fn bad_column_panics() {
        SparseMat::new(2, 2, vec![0, 1, 1], vec![5], vec![1.0], false);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn nonsquare_symmetric_panics() {
        SparseMat::new(2, 3, vec![0, 0, 0], vec![], vec![], true);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn spmm_equals_dense_matmul(seed in 0u64..200, n in 2usize..20, c in 1usize..6) {
                let mut rng = SplitMix64::new(seed);
                let mut indptr = vec![0usize];
                let mut indices = Vec::new();
                let mut values = Vec::new();
                for _ in 0..n {
                    let deg = rng.next_below(4);
                    for _ in 0..deg {
                        indices.push(rng.next_below(n) as u32);
                        values.push(rng.normal());
                    }
                    indptr.push(indices.len());
                }
                let a = SparseMat::new(n, n, indptr, indices, values, false);
                let x = Tensor::randn(n, c, 1.0, &mut rng);
                prop_assert!(a.matvec_dense(&x).allclose(&a.to_dense().matmul(&x), 1e-4));
            }
        }
    }
}
