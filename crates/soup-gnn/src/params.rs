//! Layered parameter sets.
//!
//! A [`ParamSet`] is the unit that souping algorithms manipulate: a list of
//! named layers, each holding the layer's tensors (weight, bias, attention
//! vectors, ...). Learned Souping attaches one interpolation parameter per
//! (ingredient, layer) pair — Eq. 3 mixes *all tensors of a layer* with the
//! same α — so the layer grouping here defines the α granularity.
//!
//! Arithmetic over parameter sets (averaging, pairwise interpolation) backs
//! the Uniform and Greedy-Interpolated baselines.

use serde::{Deserialize, Serialize};
use soup_tensor::tape::{Tape, Var};
use soup_tensor::Tensor;

/// One layer's parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerParams {
    pub name: String,
    pub tensors: Vec<Tensor>,
}

/// All parameters of a model, layer by layer.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ParamSet {
    pub layers: Vec<LayerParams>,
}

impl ParamSet {
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| &l.tensors)
            .map(Tensor::len)
            .sum()
    }

    /// Bytes of all parameter tensors (the paper quotes ingredient model
    /// sizes in MB, §IV-B).
    pub fn size_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    /// Flat view over all tensors in deterministic (layer, slot) order.
    pub fn flat(&self) -> impl Iterator<Item = &Tensor> {
        self.layers.iter().flat_map(|l| l.tensors.iter())
    }

    /// Structural equality of shapes (same architecture).
    pub fn same_shape(&self, other: &ParamSet) -> bool {
        self.layers.len() == other.layers.len()
            && self.layers.iter().zip(&other.layers).all(|(a, b)| {
                a.tensors.len() == b.tensors.len()
                    && a.tensors
                        .iter()
                        .zip(&b.tensors)
                        .all(|(x, y)| x.shape() == y.shape())
            })
    }

    /// Elementwise average of several parameter sets (Uniform Souping and
    /// the running average in Greedy Souping, Alg. 1).
    pub fn average(sets: &[&ParamSet]) -> ParamSet {
        assert!(!sets.is_empty(), "average of zero parameter sets");
        let first = sets[0];
        for s in sets {
            assert!(first.same_shape(s), "parameter sets differ in shape");
        }
        let scale = 1.0 / sets.len() as f32;
        let layers = first
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| LayerParams {
                name: layer.name.clone(),
                tensors: layer
                    .tensors
                    .iter()
                    .enumerate()
                    .map(|(ti, t)| {
                        let mut acc = Tensor::zeros(t.rows(), t.cols());
                        for s in sets {
                            acc.axpy(scale, &s.layers[li].tensors[ti]);
                        }
                        acc
                    })
                    .collect(),
            })
            .collect();
        ParamSet { layers }
    }

    /// Pairwise interpolation `(1-alpha)·self + alpha·other` — the update
    /// GIS searches over (Alg. 2: `interpolate(soup, M_i, α)`).
    pub fn interpolate(&self, other: &ParamSet, alpha: f32) -> ParamSet {
        assert!(
            self.same_shape(other),
            "interpolating mismatched parameter sets"
        );
        let layers = self
            .layers
            .iter()
            .zip(&other.layers)
            .map(|(a, b)| LayerParams {
                name: a.name.clone(),
                tensors: a
                    .tensors
                    .iter()
                    .zip(&b.tensors)
                    .map(|(x, y)| {
                        let mut t = x.scale(1.0 - alpha);
                        t.axpy(alpha, y);
                        t
                    })
                    .collect(),
            })
            .collect();
        ParamSet { layers }
    }

    /// Fused R-way convex blend `Σ αᵢ·setsᵢ` via
    /// [`soup_tensor::ops::soup::blend`] — one pass over each tensor
    /// instead of GIS's chain of pairwise [`Self::interpolate`] calls.
    pub fn blend(coeffs: &[f32], sets: &[&ParamSet]) -> ParamSet {
        assert_eq!(coeffs.len(), sets.len(), "one coefficient per set");
        assert!(!sets.is_empty(), "blend of zero parameter sets");
        let first = sets[0];
        for s in sets {
            assert!(first.same_shape(s), "parameter sets differ in shape");
        }
        let layers = first
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| LayerParams {
                name: layer.name.clone(),
                tensors: (0..layer.tensors.len())
                    .map(|ti| {
                        let parts: Vec<&Tensor> =
                            sets.iter().map(|s| &s.layers[li].tensors[ti]).collect();
                        soup_tensor::ops::soup::blend(coeffs, &parts)
                    })
                    .collect(),
            })
            .collect();
        ParamSet { layers }
    }

    /// [`Self::blend`] into an existing same-shaped set, reusing its tensor
    /// buffers when they are not shared (GIS's per-candidate scratch soup).
    pub fn blend_into(dst: &mut ParamSet, coeffs: &[f32], sets: &[&ParamSet]) {
        assert_eq!(coeffs.len(), sets.len(), "one coefficient per set");
        assert!(!sets.is_empty(), "blend of zero parameter sets");
        for s in sets {
            assert!(dst.same_shape(s), "parameter sets differ in shape");
        }
        for li in 0..dst.layers.len() {
            for ti in 0..dst.layers[li].tensors.len() {
                let parts: Vec<&Tensor> = sets.iter().map(|s| &s.layers[li].tensors[ti]).collect();
                soup_tensor::ops::soup::blend_into(&mut dst.layers[li].tensors[ti], coeffs, &parts);
            }
        }
    }

    /// L2 distance between two same-shaped parameter sets (diagnostics:
    /// ingredient diversity).
    pub fn l2_distance(&self, other: &ParamSet) -> f32 {
        assert!(self.same_shape(other), "distance between mismatched sets");
        self.flat()
            .zip(other.flat())
            .map(|(a, b)| a.sub(b).norm_sq())
            .sum::<f32>()
            .sqrt()
    }
}

/// Tape variables for a parameter set, preserving the layer structure.
#[derive(Debug, Clone)]
pub struct ParamVars {
    pub layers: Vec<Vec<Var>>,
}

impl ParamVars {
    /// Register every tensor on `tape` — as trainable parameters when
    /// `trainable`, else as constants (e.g. a frozen soup for evaluation).
    pub fn register(tape: &Tape, params: &ParamSet, trainable: bool) -> Self {
        let layers = params
            .layers
            .iter()
            .map(|l| {
                l.tensors
                    .iter()
                    .map(|t| {
                        if trainable {
                            tape.param(t.clone())
                        } else {
                            tape.constant(t.clone())
                        }
                    })
                    .collect()
            })
            .collect();
        Self { layers }
    }

    /// Flat list of vars in (layer, slot) order — matches `ParamSet::flat`.
    pub fn flat(&self) -> Vec<Var> {
        self.layers.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_tensor::SplitMix64;

    fn small_set(seed: u64) -> ParamSet {
        let mut rng = SplitMix64::new(seed);
        ParamSet {
            layers: vec![
                LayerParams {
                    name: "layer0".into(),
                    tensors: vec![
                        Tensor::randn(3, 4, 1.0, &mut rng),
                        Tensor::randn(1, 4, 1.0, &mut rng),
                    ],
                },
                LayerParams {
                    name: "layer1".into(),
                    tensors: vec![Tensor::randn(4, 2, 1.0, &mut rng)],
                },
            ],
        }
    }

    #[test]
    fn counting() {
        let p = small_set(1);
        assert_eq!(p.num_layers(), 2);
        assert_eq!(p.num_params(), 12 + 4 + 8);
        assert_eq!(p.size_bytes(), 24 * 4);
    }

    #[test]
    fn same_shape_detects_mismatch() {
        let a = small_set(1);
        let b = small_set(2);
        assert!(a.same_shape(&b));
        let mut c = b.clone();
        c.layers[1].tensors[0] = Tensor::zeros(5, 5);
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn average_of_identical_is_identity() {
        let a = small_set(3);
        let avg = ParamSet::average(&[&a, &a, &a]);
        for (x, y) in a.flat().zip(avg.flat()) {
            assert!(x.allclose(y, 1e-6));
        }
    }

    #[test]
    fn average_is_mean() {
        let a = small_set(4);
        let b = small_set(5);
        let avg = ParamSet::average(&[&a, &b]);
        for ((x, y), m) in a.flat().zip(b.flat()).zip(avg.flat()) {
            let expect = x.add(y).scale(0.5);
            assert!(m.allclose(&expect, 1e-6));
        }
    }

    #[test]
    fn interpolation_endpoints() {
        let a = small_set(6);
        let b = small_set(7);
        let at_zero = a.interpolate(&b, 0.0);
        let at_one = a.interpolate(&b, 1.0);
        for (x, y) in a.flat().zip(at_zero.flat()) {
            assert!(x.allclose(y, 1e-6));
        }
        for (x, y) in b.flat().zip(at_one.flat()) {
            assert!(x.allclose(y, 1e-6));
        }
    }

    #[test]
    fn interpolation_midpoint_equals_average() {
        let a = small_set(8);
        let b = small_set(9);
        let mid = a.interpolate(&b, 0.5);
        let avg = ParamSet::average(&[&a, &b]);
        for (x, y) in mid.flat().zip(avg.flat()) {
            assert!(x.allclose(y, 1e-6));
        }
    }

    #[test]
    fn l2_distance_properties() {
        let a = small_set(10);
        let b = small_set(11);
        assert_eq!(a.l2_distance(&a), 0.0);
        assert!(a.l2_distance(&b) > 0.0);
        assert!((a.l2_distance(&b) - b.l2_distance(&a)).abs() < 1e-5);
    }

    #[test]
    fn register_trainable_vs_constant() {
        let p = small_set(12);
        let tape = Tape::new();
        let trainable = ParamVars::register(&tape, &p, true);
        let frozen = ParamVars::register(&tape, &p, false);
        assert!(tape.requires_grad(trainable.layers[0][0]));
        assert!(!tape.requires_grad(frozen.layers[0][0]));
        assert_eq!(trainable.flat().len(), 3);
    }

    #[test]
    fn serde_roundtrip() {
        let p = small_set(13);
        let json = serde_json::to_string(&p).unwrap();
        let back: ParamSet = serde_json::from_str(&json).unwrap();
        assert!(p.same_shape(&back));
        for (a, b) in p.flat().zip(back.flat()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "zero parameter sets")]
    fn empty_average_panics() {
        ParamSet::average(&[]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn average_commutes(s1 in 0u64..100, s2 in 0u64..100) {
                let a = small_set(s1);
                let b = small_set(s2);
                let ab = ParamSet::average(&[&a, &b]);
                let ba = ParamSet::average(&[&b, &a]);
                for (x, y) in ab.flat().zip(ba.flat()) {
                    prop_assert!(x.allclose(y, 1e-6));
                }
            }

            #[test]
            fn blend_matches_chained_interpolate(
                seed in 0u64..50,
                r in 2usize..=8,
                alphas in proptest::collection::vec(0.05f32..0.95, 7),
            ) {
                // GIS builds its soup by chaining pairwise interpolations;
                // the fused blend must reproduce that chain from the
                // equivalent convex coefficients (ragged shapes: small_set
                // mixes 3×4, 1×4 and 4×2 tensors).
                let sets: Vec<ParamSet> = (0..r).map(|i| small_set(seed + i as u64)).collect();
                let refs: Vec<&ParamSet> = sets.iter().collect();
                let mut coeffs = vec![0.0f32; r];
                coeffs[0] = 1.0;
                let mut chained = sets[0].clone();
                for i in 1..r {
                    let a = alphas[i - 1];
                    chained = chained.interpolate(&sets[i], a);
                    for c in coeffs[..i].iter_mut() {
                        *c *= 1.0 - a;
                    }
                    coeffs[i] = a;
                }
                let blended = ParamSet::blend(&coeffs, &refs);
                for (x, y) in chained.flat().zip(blended.flat()) {
                    prop_assert!(x.allclose(y, 1e-6));
                }
                // blend_into must agree with blend bitwise, and must not
                // corrupt the aliased source (dst shares sets[0]'s Arcs).
                let mut dst = sets[0].clone();
                ParamSet::blend_into(&mut dst, &coeffs, &refs);
                for (x, y) in dst.flat().zip(blended.flat()) {
                    prop_assert!(x == y);
                }
                for (x, y) in sets[0].flat().zip(small_set(seed).flat()) {
                    prop_assert!(x == y);
                }
            }

            #[test]
            fn interpolation_is_convex(s1 in 0u64..50, s2 in 0u64..50, alpha in 0.0f32..1.0) {
                // Every interpolated tensor entry lies between the endpoints.
                let a = small_set(s1);
                let b = small_set(s2);
                let m = a.interpolate(&b, alpha);
                for ((x, y), z) in a.flat().zip(b.flat()).zip(m.flat()) {
                    for i in 0..x.len() {
                        let (lo, hi) = if x.data()[i] <= y.data()[i] {
                            (x.data()[i], y.data()[i])
                        } else {
                            (y.data()[i], x.data()[i])
                        };
                        prop_assert!(z.data()[i] >= lo - 1e-5 && z.data()[i] <= hi + 1e-5);
                    }
                }
            }
        }
    }
}
