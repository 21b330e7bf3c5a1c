//! The souping kernel: interpolation-weighted parameter sums.
//!
//! Learned Souping (Alg. 3) builds each soup layer as
//! `W_soup^l = Σ_i α_i^l W_i^l` (Eq. 3) and optimises the α by gradient
//! descent, which needs `∂L/∂α_i^l = ⟨∂L/∂W_soup^l, W_i^l⟩` (Eq. 4).
//! [`Tape::weighted_param_sum`] implements exactly that contraction: the
//! ingredient weights are constants (they were trained in Phase 1 and are
//! frozen), so backward only produces an α-gradient — a length-N vector per
//! layer — making LS's backward dramatically cheaper than retraining.

use crate::parallel::PAR_THRESHOLD;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Per-element fused R-way combine: `dst[j] = Σ_i coeffs[i] · srcs[i][j]`.
///
/// One pass over `dst` with every source resident, instead of R axpy
/// sweeps — the accumulation order over `i` matches the axpy chain
/// (`0 + c₀x₀ + c₁x₁ + …`), so the baseline-ISA compilation is bit-identical
/// to chained `axpy`. The AVX2+FMA compilation vectorises the same steps
/// and still emits a separate multiply and add per step: Rust never
/// contracts `a * b + c` into a fused multiply-add (real FMAs are a
/// declared numeric break, see ROADMAP.md, "GEMM at its roofline").
#[inline(always)]
fn blend_body(dst: &mut [f32], coeffs: &[f32], srcs: &[&[f32]]) {
    match srcs {
        [a] => {
            let c0 = coeffs[0];
            for (j, d) in dst.iter_mut().enumerate() {
                *d = c0 * a[j];
            }
        }
        [a, b] => {
            let (c0, c1) = (coeffs[0], coeffs[1]);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = c0 * a[j] + c1 * b[j];
            }
        }
        _ => {
            for (j, d) in dst.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (c, s) in coeffs.iter().zip(srcs) {
                    acc += c * s[j];
                }
                *d = acc;
            }
        }
    }
}

/// Baseline-ISA compilation of [`blend_body`].
fn blend_range_generic(dst: &mut [f32], coeffs: &[f32], srcs: &[&[f32]]) {
    blend_body(dst, coeffs, srcs);
}

/// [`blend_body`] compiled with AVX2 + FMA codegen (runtime-selected via
/// [`crate::parallel::cpu_has_avx2_fma`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn blend_range_avx2(dst: &mut [f32], coeffs: &[f32], srcs: &[&[f32]]) {
    blend_body(dst, coeffs, srcs);
}

#[inline(always)]
fn blend_range(dst: &mut [f32], coeffs: &[f32], srcs: &[&[f32]]) {
    #[cfg(target_arch = "x86_64")]
    if crate::parallel::cpu_has_avx2_fma() {
        // SAFETY: the required target features were verified at runtime.
        unsafe { blend_range_avx2(dst, coeffs, srcs) };
        return;
    }
    blend_range_generic(dst, coeffs, srcs);
}

/// Fused `Σ_i coeffs[i] · srcs[i]` into a raw slice, split into chunks on
/// the fork-join pool above the parallel threshold. All slices must share
/// `dst`'s length.
pub fn blend_slices(dst: &mut [f32], coeffs: &[f32], srcs: &[&[f32]]) {
    assert!(!srcs.is_empty(), "blend needs at least one source");
    assert_eq!(
        coeffs.len(),
        srcs.len(),
        "{} coefficients for {} sources",
        coeffs.len(),
        srcs.len()
    );
    for (i, s) in srcs.iter().enumerate() {
        assert_eq!(
            s.len(),
            dst.len(),
            "source {i} length {} != dst length {}",
            s.len(),
            dst.len()
        );
    }
    let n = dst.len();
    if n * srcs.len() >= PAR_THRESHOLD {
        crate::parallel::for_each(dst.chunks_mut(PAR_THRESHOLD), |k, d| {
            let off = k * PAR_THRESHOLD;
            let subs: Vec<&[f32]> = srcs.iter().map(|s| &s[off..off + d.len()]).collect();
            blend_range(d, coeffs, &subs);
        });
    } else {
        blend_range(dst, coeffs, srcs);
    }
    soup_obs::counter!("tensor.soup.blends_fused").inc();
}

/// Pool-backed fused blend `Σ_i coeffs[i] · parts[i]` into a fresh tensor.
pub fn blend(coeffs: &[f32], parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "blend needs at least one ingredient");
    let shape = parts[0].shape();
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(
            p.shape(),
            shape,
            "ingredient {i} shape {} != {shape}",
            p.shape()
        );
    }
    let mut out = crate::pool::take_scratch(shape.rows * shape.cols);
    let srcs: Vec<&[f32]> = parts.iter().map(|p| p.data()).collect();
    blend_slices(&mut out, coeffs, &srcs);
    Tensor::from_vec(shape.rows, shape.cols, out)
}

/// Fused blend writing into an existing tensor, reusing its buffer when
/// uniquely owned (the steady state of a candidate-evaluation loop: zero
/// allocations after the first iteration).
pub fn blend_into(dst: &mut Tensor, coeffs: &[f32], parts: &[&Tensor]) {
    assert!(!parts.is_empty(), "blend needs at least one ingredient");
    assert_eq!(
        dst.shape(),
        parts[0].shape(),
        "blend destination shape {} != ingredient shape {}",
        dst.shape(),
        parts[0].shape()
    );
    if dst.ref_count() == 1 {
        soup_obs::counter!("tensor.soup.blend_allocs_avoided").inc();
    }
    // `make_mut` copies-on-write when shared, so after this the destination
    // buffer cannot alias any source buffer.
    let srcs: Vec<&[f32]> = parts.iter().map(|p| p.data()).collect();
    blend_slices(dst.make_mut(), coeffs, &srcs);
}

impl Tape {
    /// `Σ_i alpha[i] · weights[i]` where `alpha` is an `(N, 1)` variable and
    /// `weights` are `N` equally-shaped constant tensors.
    pub fn weighted_param_sum(&self, weights: &[Tensor], alpha: Var) -> Var {
        assert!(
            !weights.is_empty(),
            "weighted_param_sum needs at least one ingredient"
        );
        let av = self.value(alpha);
        assert_eq!(
            av.cols(),
            1,
            "alpha must be a column vector, got {}",
            av.shape()
        );
        assert_eq!(
            av.rows(),
            weights.len(),
            "alpha has {} entries for {} ingredients",
            av.rows(),
            weights.len()
        );
        let parts: Vec<&Tensor> = weights.iter().collect();
        let out = blend(av.data(), &parts);
        let weights: Vec<Tensor> = weights.to_vec();
        self.push_op(
            out,
            vec![alpha],
            Box::new(move |g, _, _| {
                let ga: Vec<f32> = weights
                    .iter()
                    .map(|w| g.data().iter().zip(w.data()).map(|(&a, &b)| a * b).sum())
                    .collect();
                vec![Some(Tensor::from_vec(weights.len(), 1, ga))]
            }),
        )
    }

    /// Convenience used by LS/PLS: softmax-normalise raw interpolation
    /// parameters, then mix. Returns the mixed tensor variable.
    pub fn soup_layer(&self, weights: &[Tensor], raw_alpha: Var) -> Var {
        let alpha = self.softmax_vec(raw_alpha);
        self.weighted_param_sum(weights, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::tape::gradcheck;

    #[test]
    fn forward_is_linear_combination() {
        let w1 = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let w2 = Tensor::from_vec(2, 2, vec![0.0, 2.0, 2.0, 0.0]);
        let tape = Tape::new();
        let alpha = tape.param(Tensor::from_vec(2, 1, vec![0.5, 0.25]));
        let y = tape.value(tape.weighted_param_sum(&[w1, w2], alpha));
        assert_eq!(y.data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn alpha_gradient_is_inner_product() {
        let w1 = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let w2 = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 1.0]);
        let tape = Tape::new();
        let alpha = tape.param(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let y = tape.weighted_param_sum(&[w1, w2], alpha);
        let loss = tape.sum(y);
        let g = tape.backward(loss);
        // dL/dalpha_i = sum of W_i entries.
        assert_eq!(g.get(alpha).unwrap().data(), &[6.0, 0.0]);
    }

    #[test]
    fn gradcheck_through_softmax_mix() {
        let mut rng = SplitMix64::new(1);
        let weights: Vec<Tensor> = (0..4).map(|_| Tensor::randn(3, 3, 1.0, &mut rng)).collect();
        let raw = Tensor::randn(4, 1, 0.5, &mut rng);
        let probe = Tensor::randn(3, 3, 1.0, &mut rng);
        gradcheck(
            &|t, v| {
                let mixed = t.soup_layer(&weights, v[0]);
                let p = t.constant(probe.clone());
                t.sum(t.mul(mixed, p))
            },
            &[raw],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn uniform_alpha_equals_average() {
        let mut rng = SplitMix64::new(2);
        let weights: Vec<Tensor> = (0..5).map(|_| Tensor::randn(2, 4, 1.0, &mut rng)).collect();
        let tape = Tape::new();
        // Equal raw alphas -> softmax gives 1/5 each.
        let raw = tape.param(Tensor::zeros(5, 1));
        let y = tape.value(tape.soup_layer(&weights, raw));
        let mut avg = Tensor::zeros(2, 4);
        for w in &weights {
            avg.axpy(0.2, w);
        }
        assert!(y.allclose(&avg, 1e-5));
    }

    #[test]
    fn saturated_alpha_selects_single_ingredient() {
        let mut rng = SplitMix64::new(3);
        let weights: Vec<Tensor> = (0..3).map(|_| Tensor::randn(2, 2, 1.0, &mut rng)).collect();
        let tape = Tape::new();
        let raw = tape.param(Tensor::from_vec(3, 1, vec![0.0, 50.0, 0.0]));
        let y = tape.value(tape.soup_layer(&weights, raw));
        assert!(y.allclose(&weights[1], 1e-4));
    }

    #[test]
    #[should_panic(expected = "at least one ingredient")]
    fn empty_ingredients_panic() {
        let tape = Tape::new();
        let alpha = tape.param(Tensor::zeros(0, 1));
        tape.weighted_param_sum(&[], alpha);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn mismatched_shapes_panic() {
        let tape = Tape::new();
        let alpha = tape.param(Tensor::from_vec(2, 1, vec![0.5, 0.5]));
        tape.weighted_param_sum(&[Tensor::zeros(2, 2), Tensor::zeros(3, 2)], alpha);
    }

    #[test]
    fn blend_matches_axpy_chain() {
        let mut rng = SplitMix64::new(4);
        for r in 1..=8 {
            let parts: Vec<Tensor> = (0..r)
                .map(|_| Tensor::randn(7, 13, 1.0, &mut rng))
                .collect();
            let coeffs: Vec<f32> = (0..r).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut expect = Tensor::zeros(7, 13);
            for (c, p) in coeffs.iter().zip(&parts) {
                expect.axpy(*c, p);
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            let got = blend(&coeffs, &refs);
            assert!(got.allclose(&expect, 1e-5), "R={r}");
        }
    }

    #[test]
    fn blend_into_reuses_unique_buffer() {
        let mut rng = SplitMix64::new(5);
        let a = Tensor::randn(64, 64, 1.0, &mut rng);
        let b = Tensor::randn(64, 64, 1.0, &mut rng);
        let mut dst = Tensor::zeros(64, 64);
        let before = dst.data().as_ptr();
        blend_into(&mut dst, &[0.25, 0.75], &[&a, &b]);
        assert_eq!(dst.data().as_ptr(), before, "unique buffer was reallocated");
        let mut expect = a.scale(0.25);
        expect.axpy(0.75, &b);
        assert!(dst.allclose(&expect, 1e-5));
    }

    #[test]
    fn blend_into_copies_shared_buffer() {
        let mut rng = SplitMix64::new(6);
        let a = Tensor::randn(8, 8, 1.0, &mut rng);
        let b = Tensor::randn(8, 8, 1.0, &mut rng);
        // dst starts as a clone of `a`: the blend must not corrupt `a`.
        let mut dst = a.clone();
        let a_before = a.clone();
        blend_into(&mut dst, &[0.5, 0.5], &[&a, &b]);
        assert_eq!(a, a_before, "source corrupted by aliased blend");
        let mut expect = a.scale(0.5);
        expect.axpy(0.5, &b);
        assert!(dst.allclose(&expect, 1e-5));
    }

    #[test]
    fn blend_parallel_path_matches_serial() {
        // Large enough to cross the parallel threshold.
        let mut rng = SplitMix64::new(7);
        let parts: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(300, 200, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let coeffs = [0.2f32, 0.3, 0.5];
        let got = blend(&coeffs, &refs);
        let mut expect = Tensor::zeros(300, 200);
        for (c, p) in coeffs.iter().zip(&parts) {
            expect.axpy(*c, p);
        }
        assert!(got.allclose(&expect, 1e-5));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn blend_slices_length_mismatch_panics() {
        let mut dst = vec![0.0f32; 4];
        blend_slices(&mut dst, &[1.0], &[&[1.0, 2.0]]);
    }
}
