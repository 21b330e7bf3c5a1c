//! The blocked GEMM's output bits, pinned.
//!
//! Each product's output is hashed (FNV-1a over the little-endian bits of
//! every element), so any change to the microkernel's rounding, the
//! summation order across depth slabs or the packers shows up here. A
//! deliberate change of rounding updates these pins once, and says so: they
//! are the bits of the 6×16 microkernel with fused multiply-adds.
//!
//! Every product is also checked against an f64 reference within the
//! worst-case bound of any f32 summation order, `γ_k · Σ_t |a_it · b_tj|`
//! with `γ_k = k·u / (1 − k·u)` and `u = 2⁻²⁴`. Fused multiply-adds round
//! once per step instead of twice and stay inside the same bound.

use enhanced_soups::tensor::{SplitMix64, Tensor};

/// FNV-1a (64-bit) over the little-endian bytes of every element.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn randn(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::randn(rows, cols, 1.0, &mut SplitMix64::new(seed))
}

/// Element `(r, c)` of `t`, or of its transpose.
fn at(t: &Tensor, r: usize, c: usize, transposed: bool) -> f64 {
    let (r, c) = if transposed { (c, r) } else { (r, c) };
    f64::from(t.data()[r * t.cols() + c])
}

/// Check every entry of `out = op(a) · op(b)` against an f64 reference.
fn check_error(out: &Tensor, a: (&Tensor, bool), b: (&Tensor, bool), k: usize) {
    let (m, n) = (out.rows(), out.cols());
    let u = f64::powi(2.0, -24);
    let gamma = k as f64 * u / (1.0 - k as f64 * u);
    for i in 0..m {
        for j in 0..n {
            let (mut exact, mut magnitude) = (0.0f64, 0.0f64);
            for t in 0..k {
                let p = at(a.0, i, t, a.1) * at(b.0, t, j, b.1);
                exact += p;
                magnitude += p.abs();
            }
            let err = (f64::from(out.data()[i * n + j]) - exact).abs();
            let bound = gamma * magnitude;
            assert!(
                err <= bound,
                "({i},{j}) of {m}x{n}x{k}: error {err:e} above bound {bound:e}"
            );
        }
    }
}

#[test]
fn matmul_bits_are_pinned() {
    let (a, b) = (randn(144, 512, 1), randn(512, 64, 2));
    let out = a.matmul(&b);
    assert_eq!((out.rows(), out.cols()), (144, 64));
    check_error(&out, (&a, false), (&b, false), 512);
    assert_eq!(
        fnv1a(out.data()),
        0x2756_a49b_0910_3b60,
        "matmul 144x512 · 512x64"
    );
}

#[test]
fn matmul_nt_bits_are_pinned() {
    let (a, b) = (randn(144, 128, 3), randn(96, 128, 4));
    let out = a.matmul_nt(&b);
    assert_eq!((out.rows(), out.cols()), (144, 96));
    check_error(&out, (&a, false), (&b, true), 128);
    assert_eq!(
        fnv1a(out.data()),
        0x1231_ad9b_bc6e_7052,
        "matmul_nt 144x128 · (96x128)ᵀ"
    );
}

#[test]
fn matmul_tn_bits_are_pinned() {
    let (a, b) = (randn(300, 72, 5), randn(300, 64, 6));
    let out = a.matmul_tn(&b);
    assert_eq!((out.rows(), out.cols()), (72, 64));
    check_error(&out, (&a, true), (&b, false), 300);
    assert_eq!(
        fnv1a(out.data()),
        0x4787_69ea_0cc7_1dd1,
        "matmul_tn (300x72)ᵀ · 300x64"
    );
}

/// m, n and k are multiples of no tile size (MR, NR) and no depth (KC), so
/// every edge path of the packers and the writeback runs, across slabs.
#[test]
fn ragged_matmul_bits_are_pinned() {
    let (a, b) = (randn(101, 523, 7), randn(523, 37, 8));
    let out = a.matmul(&b);
    assert_eq!((out.rows(), out.cols()), (101, 37));
    check_error(&out, (&a, false), (&b, false), 523);
    assert_eq!(
        fnv1a(out.data()),
        0x71e3_6e9d_4695_a815,
        "matmul 101x523 · 523x37"
    );
}

#[test]
fn empty_inner_dimension_gives_zeros() {
    // A pooled buffer of the output's size is dirty before the call.
    drop(randn(40, 50, 9).matmul(&randn(50, 60, 10)));
    let out = Tensor::zeros(40, 0).matmul(&Tensor::zeros(0, 60));
    assert_eq!((out.rows(), out.cols()), (40, 60));
    assert!(
        out.data().iter().all(|v| v.to_bits() == 0),
        "k = 0 gives +0.0"
    );
}
