//! Immutable, reference-counted dense matrices.
//!
//! A [`Tensor`] is a `(rows, cols)` row-major `f32` matrix behind an
//! `Arc<Buf>`: clones are O(1), mutation goes through copy-on-write
//! ([`Tensor::make_mut`]) so optimizer updates are in-place when the buffer
//! is uniquely owned (the common case) and copy otherwise.
//!
//! Kernels that dominate runtime split their output into disjoint chunks
//! and run them on the fork-join pool ([`crate::parallel`]); the split
//! depends on the shape alone, so results are bitwise independent of the
//! thread count. The GEMM family (`matmul` / `matmul_nt` / `matmul_tn`) is
//! a set of thin drivers over the shared cache-blocked kernel in
//! [`crate::gemm`]; output buffers are recycled through [`crate::pool`].

use crate::gemm::{self, Operand};
use crate::parallel::{self, PAR_THRESHOLD};
use crate::pool;
use crate::rng::SplitMix64;
use crate::shape::Shape;
use crate::storage::Buf;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::sync::Arc;

/// One bump per GEMM-family call (`matmul`/`matmul_nt`/`matmul_tn`), with
/// dims given as (output rows, inner, output cols).
#[inline]
fn record_matmul_metrics(m: usize, k: usize, n: usize) {
    soup_obs::counter!("tensor.matmul.calls").inc();
    soup_obs::counter!("tensor.matmul.flops").add(2 * (m * k * n) as u64);
    soup_obs::counter!("tensor.matmul.bytes")
        .add(((m * k + k * n + m * n) * std::mem::size_of::<f32>()) as u64);
}

/// A dense 2-D `f32` tensor with cheap clones.
#[derive(Clone)]
pub struct Tensor {
    buf: Arc<Buf>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Build from a row-major vector. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(
            rows.checked_mul(cols) == Some(data.len()),
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Self {
            buf: Arc::new(Buf::from_vec(data)),
            shape: Shape::new(rows, cols),
        }
    }

    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            buf: Arc::new(Buf::zeros(rows * cols)),
            shape: Shape::new(rows, cols),
        }
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            buf: Arc::new(Buf::full(rows * cols, value)),
            shape: Shape::new(rows, cols),
        }
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// 1×1 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::full(1, 1, value)
    }

    /// I.i.d. standard-normal entries scaled by `sigma`.
    pub fn randn(rows: usize, cols: usize, sigma: f32, rng: &mut SplitMix64) -> Self {
        let mut data = pool::take_scratch(rows * cols);
        data.iter_mut().for_each(|x| *x = rng.normal() * sigma);
        Self::from_vec(rows, cols, data)
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut SplitMix64) -> Self {
        let mut data = pool::take_scratch(rows * cols);
        data.iter_mut().for_each(|x| *x = rng.uniform(lo, hi));
        Self::from_vec(rows, cols, data)
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        let s = t.make_mut();
        for i in 0..n {
            s[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------ accessors

    pub fn shape(&self) -> Shape {
        self.shape
    }

    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    pub fn len(&self) -> usize {
        self.shape.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Flat row-major view.
    pub fn data(&self) -> &[f32] {
        self.buf.as_slice()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data()[self.shape.idx(r, c)]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.shape.cols;
        &self.data()[r * c..(r + 1) * c]
    }

    /// Scalar value of a 1×1 tensor.
    pub fn item(&self) -> f32 {
        assert!(
            self.shape.is_scalar(),
            "item() on non-scalar tensor {}",
            self.shape
        );
        self.data()[0]
    }

    /// Copy-on-write mutable access to the underlying buffer.
    pub fn make_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.buf).as_mut_slice()
    }

    /// Number of strong references sharing this buffer (diagnostics).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    // ----------------------------------------------------- elementwise maps

    /// New tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut out = pool::take_scratch(self.len());
        let chunks = out
            .chunks_mut(PAR_THRESHOLD)
            .zip(self.data().chunks(PAR_THRESHOLD));
        parallel::for_each(chunks, |_, (out, xs)| {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x);
            }
        });
        Self::from_vec(self.rows(), self.cols(), out)
    }

    /// New tensor with `f(a, b)` applied elementwise. Shapes must match.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch {} vs {}",
            self.shape, other.shape
        );
        let mut out = pool::take_scratch(self.len());
        let chunks = out
            .chunks_mut(PAR_THRESHOLD)
            .zip(self.data().chunks(PAR_THRESHOLD))
            .zip(other.data().chunks(PAR_THRESHOLD));
        parallel::for_each(chunks, |_, ((out, xs), ys)| {
            for ((o, &a), &b) in out.iter_mut().zip(xs).zip(ys) {
                *o = f(a, b);
            }
        });
        Self::from_vec(self.rows(), self.cols(), out)
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Scale every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` (copy-on-write if shared).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        let rhs = other.buf.clone();
        let dst = self.make_mut();
        for (d, &s) in dst.iter_mut().zip(rhs.as_slice()) {
            *d += alpha * s;
        }
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, in index order (sequential on purpose: a split
    /// sum would round differently at every thread count).
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Squared Frobenius norm, summed in index order like [`Self::sum`].
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element in each row (ties: first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    // ---------------------------------------------------------- linear algebra

    /// Dense matrix product `self × other` via the cache-blocked GEMM
    /// ([`crate::gemm`]); tiny products fall back to [`Self::matmul_naive`].
    pub fn matmul(&self, other: &Tensor) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dims {} vs {}", self.shape, other.shape);
        record_matmul_metrics(m, k, n);
        if m * n * k < gemm::SMALL_GEMM_MACS {
            return self.matmul_naive(other);
        }
        let mut out = pool::take_zeroed(m * n);
        gemm::gemm(self.operand(), other.operand(), &mut out);
        Self::from_vec(m, n, out)
    }

    /// `self × otherᵀ` without materialising the transpose: out `(m, n)`
    /// from `self (m, k)` and `other (n, k)` — the matmul backward's
    /// `g Bᵀ`. The transposition is absorbed into the GEMM's B-panel
    /// packing gather, so the microkernel is the same as [`Self::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul_nt inner dims {} vs {}",
            self.shape(),
            other.shape()
        );
        record_matmul_metrics(m, k, n);
        if m * n * k < gemm::SMALL_GEMM_MACS {
            return self.matmul_nt_naive(other);
        }
        let mut out = pool::take_zeroed(m * n);
        let bt = Operand::transposed(other.data(), n, k);
        gemm::gemm(self.operand(), bt, &mut out);
        Self::from_vec(m, n, out)
    }

    /// `selfᵀ × other` without materialising the transpose: out `(k, n)`
    /// from `self (m, k)` and `other (m, n)` — the matmul backward's
    /// `Aᵀ g`. The transposition is absorbed into the GEMM's A-panel
    /// packing gather.
    pub fn matmul_tn(&self, other: &Tensor) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let (m2, n) = (other.rows(), other.cols());
        assert_eq!(
            m,
            m2,
            "matmul_tn outer dims {} vs {}",
            self.shape(),
            other.shape()
        );
        record_matmul_metrics(k, m, n);
        if k * n * m < gemm::SMALL_GEMM_MACS {
            return self.matmul_tn_naive(other);
        }
        let mut out = pool::take_zeroed(k * n);
        let at = Operand::transposed(self.data(), m, k);
        gemm::gemm(at, other.operand(), &mut out);
        Self::from_vec(k, n, out)
    }

    /// Row-parallel saxpy matmul — the pre-tiling kernel, kept as the
    /// small-product fast path and as the baseline the `kernels` bench
    /// compares the blocked GEMM against. Shapes must already be checked.
    #[doc(hidden)]
    pub fn matmul_naive(&self, other: &Tensor) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let n = other.cols();
        debug_assert_eq!(k, other.rows());
        let a = self.data();
        let b = other.data();
        let mut out = pool::take_zeroed(m * n);
        let work = |r: usize, out_row: &mut [f32]| {
            let a_row = &a[r * k..(r + 1) * k];
            // k-outer loop keeps the inner loop a contiguous saxpy over the
            // output row: good auto-vectorisation, B read row-wise.
            for (kk, &av) in a_row.iter().enumerate() {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        };
        parallel::for_each_row(&mut out, n, work);
        Self::from_vec(m, n, out)
    }

    /// Row-dot-product `self × otherᵀ` — pre-tiling kernel, see
    /// [`Self::matmul_naive`].
    #[doc(hidden)]
    pub fn matmul_nt_naive(&self, other: &Tensor) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let n = other.rows();
        debug_assert_eq!(k, other.cols());
        let a = self.data();
        let b = other.data();
        let mut out = pool::take_scratch(m * n);
        let work = |r: usize, out_row: &mut [f32]| {
            let a_row = &a[r * k..(r + 1) * k];
            for (c, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[c * k..(c + 1) * k];
                *o = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
            }
        };
        parallel::for_each_row(&mut out, n, work);
        Self::from_vec(m, n, out)
    }

    /// Column-gather `selfᵀ × other` — pre-tiling kernel, see
    /// [`Self::matmul_naive`].
    #[doc(hidden)]
    pub fn matmul_tn_naive(&self, other: &Tensor) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let n = other.cols();
        debug_assert_eq!(m, other.rows());
        let a = self.data();
        let b = other.data();
        let mut out = pool::take_zeroed(k * n);
        let work = |kk: usize, out_row: &mut [f32]| {
            for r in 0..m {
                let av = a[r * k + kk];
                let b_row = &b[r * n..(r + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        };
        parallel::for_each_row(&mut out, n, work);
        Self::from_vec(k, n, out)
    }

    /// This tensor as a row-major GEMM operand.
    fn operand(&self) -> Operand<'_> {
        Operand::row_major(self.data(), self.rows(), self.cols())
    }

    /// Transpose (materialised). The GEMM drivers never call it:
    /// [`Self::matmul_nt`] and [`Self::matmul_tn`] read the transpose
    /// through the packing gather instead.
    pub fn transpose(&self) -> Self {
        let (m, n) = (self.rows(), self.cols());
        let src = self.data();
        let mut out = pool::take_scratch(m * n);
        for r in 0..m {
            for c in 0..n {
                out[c * m + r] = src[r * n + c];
            }
        }
        Self::from_vec(n, m, out)
    }

    /// Gather rows by index into a new tensor.
    pub fn gather_rows(&self, idx: &[usize]) -> Self {
        let c = self.cols();
        let mut out = pool::take_scratch(idx.len() * c);
        for (o, &i) in out.chunks_mut(c).zip(idx) {
            o.copy_from_slice(self.row(i));
        }
        Self::from_vec(idx.len(), c, out)
    }

    /// Column-wise sum, returning a `(1, cols)` row tensor.
    pub fn sum_rows(&self) -> Self {
        let c = self.cols();
        let mut out = pool::take_zeroed(c);
        for r in 0..self.rows() {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        Self::from_vec(1, c, out)
    }

    /// Approximate elementwise equality within `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data()
                .iter()
                .zip(other.data())
                .all(|(&a, &b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data())
        } else {
            write!(f, " [{} elems, norm {:.4}]", self.len(), self.norm())
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Serialize for Tensor {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.rows(), self.cols(), self.data()).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Tensor {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (rows, cols, data): (usize, usize, Vec<f32>) = Deserialize::deserialize(deserializer)?;
        // Checked: the shape comes from a file, and a product that wraps
        // would pass an empty payload off as a 2^64-element tensor.
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(D::Error::custom(format!(
                "tensor payload {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Tensor::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, data.to_vec())
    }

    #[test]
    fn construction_and_access() {
        let x = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(x.get(0, 2), 3.0);
        assert_eq!(x.get(1, 0), 4.0);
        assert_eq!(x.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(x.rows(), 2);
        assert_eq!(x.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SplitMix64::new(1);
        let a = Tensor::randn(5, 5, 1.0, &mut rng);
        let i = Tensor::eye(5);
        assert!(a.matmul(&i).allclose(&a, 1e-6));
        assert!(i.matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough to take the parallel path.
        let mut rng = SplitMix64::new(2);
        let a = Tensor::randn(150, 120, 1.0, &mut rng);
        let b = Tensor::randn(120, 130, 1.0, &mut rng);
        let c = a.matmul(&b);
        // Spot-check a handful of entries against a scalar loop.
        for &(r, cc) in &[(0, 0), (7, 99), (149, 129), (80, 64)] {
            let mut expect = 0.0f32;
            for k in 0..120 {
                expect += a.get(r, k) * b.get(k, cc);
            }
            assert!((c.get(r, cc) - expect).abs() < 1e-3, "({r},{cc})");
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = SplitMix64::new(21);
        let a = Tensor::randn(7, 5, 1.0, &mut rng);
        let b = Tensor::randn(9, 5, 1.0, &mut rng);
        assert!(a.matmul_nt(&b).allclose(&a.matmul(&b.transpose()), 1e-4));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = SplitMix64::new(22);
        let a = Tensor::randn(6, 4, 1.0, &mut rng);
        let b = Tensor::randn(6, 8, 1.0, &mut rng);
        assert!(a.matmul_tn(&b).allclose(&a.transpose().matmul(&b), 1e-4));
    }

    #[test]
    fn fused_transposed_kernels_parallel_path() {
        let mut rng = SplitMix64::new(23);
        let a = Tensor::randn(160, 90, 1.0, &mut rng);
        let b = Tensor::randn(170, 90, 1.0, &mut rng);
        assert!(a.matmul_nt(&b).allclose(&a.matmul(&b.transpose()), 1e-3));
        let c = Tensor::randn(160, 140, 1.0, &mut rng);
        assert!(a.matmul_tn(&c).allclose(&a.transpose().matmul(&c), 1e-3));
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner dims")]
    fn matmul_nt_dim_mismatch_panics() {
        Tensor::zeros(2, 3).matmul_nt(&Tensor::zeros(2, 4));
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = SplitMix64::new(3);
        let a = Tensor::randn(4, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 3), a.get(3, 2));
    }

    #[test]
    fn elementwise_ops() {
        let a = t(1, 3, &[1.0, -2.0, 3.0]);
        let b = t(1, 3, &[4.0, 5.0, -6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 3.0, -3.0]);
        assert_eq!(a.sub(&b).data(), &[-3.0, -7.0, 9.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, -10.0, -18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.norm_sq(), 30.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_ties_first() {
        let a = t(2, 3, &[0.1, 0.9, 0.9, 3.0, 1.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_rows() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn cow_semantics() {
        let mut a = Tensor::zeros(2, 2);
        let b = a.clone();
        a.make_mut()[0] = 9.0;
        assert_eq!(a.get(0, 0), 9.0);
        assert_eq!(b.get(0, 0), 0.0, "clone must be unaffected by CoW write");
    }

    #[test]
    fn axpy() {
        let mut a = t(1, 3, &[1.0, 1.0, 1.0]);
        let b = t(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = SplitMix64::new(4);
        let a = Tensor::randn(3, 5, 1.0, &mut rng);
        let json = serde_json::to_string(&a).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn serde_rejects_bad_payload() {
        let r: Result<Tensor, _> = serde_json::from_str("[2, 2, [1.0, 2.0, 3.0]]");
        assert!(r.is_err());
    }

    #[test]
    fn randn_statistics() {
        let mut rng = SplitMix64::new(5);
        let a = Tensor::randn(100, 100, 2.0, &mut rng);
        assert!(a.mean().abs() < 0.1);
        let var = a.norm_sq() / a.len() as f32;
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_tensor(max: usize) -> impl Strategy<Value = Tensor> {
            (1..max, 1..max).prop_flat_map(|(r, c)| {
                proptest::collection::vec(-10.0f32..10.0, r * c)
                    .prop_map(move |v| Tensor::from_vec(r, c, v))
            })
        }

        proptest! {
            #[test]
            fn transpose_involution(a in arb_tensor(12)) {
                prop_assert_eq!(a.transpose().transpose(), a);
            }

            #[test]
            fn add_commutes(r in 1usize..8, c in 1usize..8, seed in 0u64..1000) {
                let mut rng = SplitMix64::new(seed);
                let a = Tensor::randn(r, c, 1.0, &mut rng);
                let b = Tensor::randn(r, c, 1.0, &mut rng);
                prop_assert!(a.add(&b).allclose(&b.add(&a), 1e-6));
            }

            #[test]
            fn matmul_distributes_over_add(seed in 0u64..500) {
                let mut rng = SplitMix64::new(seed);
                let a = Tensor::randn(4, 5, 1.0, &mut rng);
                let b = Tensor::randn(5, 3, 1.0, &mut rng);
                let c = Tensor::randn(5, 3, 1.0, &mut rng);
                let lhs = a.matmul(&b.add(&c));
                let rhs = a.matmul(&b).add(&a.matmul(&c));
                prop_assert!(lhs.allclose(&rhs, 1e-4));
            }

            #[test]
            fn matmul_transpose_identity(seed in 0u64..500) {
                // (A B)^T == B^T A^T
                let mut rng = SplitMix64::new(seed);
                let a = Tensor::randn(3, 6, 1.0, &mut rng);
                let b = Tensor::randn(6, 4, 1.0, &mut rng);
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                prop_assert!(lhs.allclose(&rhs, 1e-4));
            }

            #[test]
            fn scale_linearity(a in arb_tensor(10), s in -3.0f32..3.0) {
                let lhs = a.scale(s).sum();
                let rhs = a.sum() * s;
                prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
            }
        }
    }
}
