//! Post-soup weight quantization for inference.
//!
//! Souping produces one frozen [`ParamSet`]; serving it is pure inference.
//! This module quantizes the large weight matrices of that set **once**
//! (int8 with per-output-column scales, or bf16). A [`QuantParamSet`]'s
//! layers are a [`LayerWeights`] backend: the one [`crate::model::forward`]
//! runs them with its weight matmuls through
//! [`soup_tensor::quant::qmatmul`]'s int8×f32 kernel and everything else
//! unchanged. Activations, biases and attention vectors stay f32 — they are
//! tiny next to the weights and keeping them full-precision bounds the
//! accuracy cost. The quantized-accuracy gate (≤ 0.5 pp vs f32 on the
//! standard preset) lives in the workspace `quant_accuracy` integration test
//! and the `soupctl soup --quant-check` smoke.

use crate::config::{Arch, ModelConfig};
use crate::model::LayerWeights;
use crate::params::ParamSet;
use soup_tensor::quant::{QuantKind, QuantMat};
use soup_tensor::tape::{Tape, Var};
use soup_tensor::Tensor;

/// One parameter slot of a quantized layer: either a quantized weight
/// matrix or a tensor kept in f32 (biases, attention vectors).
#[derive(Debug, Clone)]
pub(crate) enum QuantSlot {
    Quantized(QuantMat),
    Full(Tensor),
}

/// One layer of a [`QuantParamSet`], slot-for-slot parallel to the source
/// [`crate::params::LayerParams`].
#[derive(Debug, Clone)]
pub(crate) struct QuantLayer {
    name: String,
    slots: Vec<QuantSlot>,
}

/// A souped [`ParamSet`] with its weight matrices quantized for inference.
#[derive(Debug, Clone)]
pub struct QuantParamSet {
    layers: Vec<QuantLayer>,
    kind: QuantKind,
    f32_bytes: usize,
}

/// Indices of the slots that hold large weight matrices (the quantization
/// targets) for each architecture. Everything else stays f32.
fn weight_slots(arch: Arch) -> &'static [usize] {
    match arch {
        Arch::Gcn | Arch::Sage | Arch::Gat => &[0],
        Arch::Gin => &[0, 2],
    }
}

impl QuantParamSet {
    /// Quantize the weight matrices of a frozen soup. Called once,
    /// post-soup; the result serves arbitrarily many forwards without
    /// re-packing.
    pub fn quantize(cfg: &ModelConfig, params: &ParamSet, kind: QuantKind) -> Self {
        let wslots = weight_slots(cfg.arch);
        let layers = params
            .layers
            .iter()
            .map(|layer| QuantLayer {
                name: layer.name.clone(),
                slots: layer
                    .tensors
                    .iter()
                    .enumerate()
                    .map(|(ti, t)| {
                        if wslots.contains(&ti) {
                            QuantSlot::Quantized(QuantMat::quantize(t, kind))
                        } else {
                            QuantSlot::Full(t.clone())
                        }
                    })
                    .collect(),
            })
            .collect();
        Self {
            layers,
            kind,
            f32_bytes: params.size_bytes(),
        }
    }

    /// The layers as [`crate::model::forward`]'s weight backend.
    pub fn layers(&self) -> &[impl LayerWeights] {
        &self.layers
    }

    pub fn kind(&self) -> QuantKind {
        self.kind
    }

    /// Bytes held by the quantized set (packed weights + scales + the f32
    /// tensors kept as-is).
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| &l.slots)
            .map(|s| match s {
                QuantSlot::Quantized(q) => q.memory_bytes(),
                QuantSlot::Full(t) => t.len() * std::mem::size_of::<f32>(),
            })
            .sum()
    }

    /// Bytes of the f32 set this was quantized from.
    pub fn f32_bytes(&self) -> usize {
        self.f32_bytes
    }
}

/// Slot layouts are fixed per architecture, so asking a quantized slot for
/// its f32 tensor (or the reverse) is a logic error and panics.
impl LayerWeights for QuantLayer {
    fn matmul(&self, tape: &Tape, x: Var, slot: usize) -> Var {
        match &self.slots[slot] {
            QuantSlot::Quantized(q) => tape.matmul_quant(x, q),
            QuantSlot::Full(_) => panic!("slot {slot} of {} is not quantized", self.name),
        }
    }

    fn full(&self, tape: &Tape, slot: usize) -> Var {
        match &self.slots[slot] {
            QuantSlot::Full(t) => tape.constant(t.clone()),
            QuantSlot::Quantized(_) => panic!("slot {slot} of {} is quantized", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PropCache;
    use crate::model::{forward, init_params, PropOps};
    use crate::params::ParamVars;
    use soup_graph::CsrGraph;
    use soup_tensor::quant::qmatmul;
    use soup_tensor::SplitMix64;

    /// Reference product: dequantize the weights and run the plain f32
    /// GEMM. Any gap between this and the int8 kernel output is kernel
    /// error; any gap between this and the original f32 product is rounding
    /// error.
    fn qmatmul_reference(a: &Tensor, q: &QuantMat) -> Tensor {
        a.matmul(&q.dequantize())
    }

    fn toy_graph() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    }

    fn cfg_for(arch: Arch) -> ModelConfig {
        match arch {
            Arch::Gcn => ModelConfig::gcn(8, 3),
            Arch::Sage => ModelConfig::sage(8, 3),
            Arch::Gat => ModelConfig::gat(8, 3),
            Arch::Gin => ModelConfig::gin(8, 3),
        }
        .with_hidden(16)
    }

    fn f32_logits(cfg: &ModelConfig, ops: &PropOps, params: &ParamSet, x: &Tensor) -> Tensor {
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, params, false);
        let xv = tape.constant(x.clone());
        let mut rng = SplitMix64::new(0);
        let y = forward(&tape, cfg, ops, None, xv, &vars.layers, false, &mut rng);
        tape.value(y)
    }

    fn quant_logits(
        cfg: &ModelConfig,
        ops: &PropOps,
        cache: Option<&PropCache>,
        qp: &QuantParamSet,
        x: &Tensor,
    ) -> Tensor {
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let mut rng = SplitMix64::new(0);
        let y = forward(&tape, cfg, ops, cache, xv, qp.layers(), false, &mut rng);
        tape.value(y)
    }

    #[test]
    fn bf16_forward_tracks_f32_closely_all_archs() {
        for arch in Arch::ALL {
            let cfg = cfg_for(arch);
            let g = toy_graph();
            let mut rng = SplitMix64::new(3);
            let params = init_params(&cfg, &mut rng);
            let ops = PropOps::prepare(arch, &g);
            let x = Tensor::randn(6, cfg.in_dim, 1.0, &mut rng);
            let full = f32_logits(&cfg, &ops, &params, &x);
            let qp = QuantParamSet::quantize(&cfg, &params, QuantKind::Bf16);
            let quant = quant_logits(&cfg, &ops, None, &qp, &x);
            assert_eq!(full.shape(), quant.shape(), "{arch:?}");
            assert!(
                full.allclose(&quant, 0.05),
                "{arch:?} bf16 logits drifted: max|Δ| {}",
                full.sub(&quant).max_abs()
            );
        }
    }

    #[test]
    fn int8_forward_produces_finite_logits_all_archs() {
        for arch in Arch::ALL {
            let cfg = cfg_for(arch);
            let g = toy_graph();
            let mut rng = SplitMix64::new(4);
            let params = init_params(&cfg, &mut rng);
            let ops = PropOps::prepare(arch, &g);
            let x = Tensor::randn(6, cfg.in_dim, 1.0, &mut rng);
            let qp = QuantParamSet::quantize(&cfg, &params, QuantKind::Int8);
            let y = quant_logits(&cfg, &ops, None, &qp, &x);
            assert_eq!(y.rows(), 6, "{arch:?}");
            assert_eq!(y.cols(), 3, "{arch:?}");
            assert!(y.data().iter().all(|v| v.is_finite()), "{arch:?}");
        }
    }

    #[test]
    fn cached_and_uncached_quant_forward_agree_bitwise() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            let cfg = cfg_for(arch);
            let g = toy_graph();
            let mut rng = SplitMix64::new(5);
            let params = init_params(&cfg, &mut rng);
            let ops = PropOps::prepare(arch, &g);
            let x = Tensor::randn(6, cfg.in_dim, 1.0, &mut rng);
            let cache = PropCache::new(&ops, &x);
            let qp = QuantParamSet::quantize(&cfg, &params, QuantKind::Int8);
            let plain = quant_logits(&cfg, &ops, None, &qp, &x);
            let cached = quant_logits(&cfg, &ops, Some(&cache), &qp, &x);
            assert_eq!(plain, cached, "{arch:?}");
            assert!(cache.hits() >= 1, "{arch:?} recorded no cache hit");
        }
    }

    #[test]
    fn int8_set_is_much_smaller_than_f32() {
        // Realistic dims: output widths are multiples of the packing panel
        // (QNR = 16) so padding doesn't distort the comparison the way a
        // 3-class toy head would.
        let cfg = ModelConfig::gcn(128, 16).with_hidden(64);
        let mut rng = SplitMix64::new(6);
        let params = init_params(&cfg, &mut rng);
        let qp = QuantParamSet::quantize(&cfg, &params, QuantKind::Int8);
        assert!(
            (qp.memory_bytes() as f64) < 0.5 * qp.f32_bytes() as f64,
            "int8 set {} B not well below f32 {} B",
            qp.memory_bytes(),
            qp.f32_bytes()
        );
        assert_eq!(qp.kind(), QuantKind::Int8);
    }

    #[test]
    fn dequantized_reference_matches_quant_matmul() {
        let mut rng = SplitMix64::new(7);
        let a = Tensor::randn(5, 12, 1.0, &mut rng);
        let w = Tensor::randn(12, 4, 1.0, &mut rng);
        let q = QuantMat::quantize(&w, QuantKind::Int8);
        let via_kernel = qmatmul(&a, &q);
        let via_f32 = qmatmul_reference(&a, &q);
        assert!(via_kernel.allclose(&via_f32, 1e-4));
    }
}
