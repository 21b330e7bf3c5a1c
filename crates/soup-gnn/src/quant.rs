//! Post-soup weight quantization for inference.
//!
//! Souping produces one frozen [`ParamSet`]; serving it is pure inference.
//! This module quantizes the large weight matrices of that set **once**
//! (int8 with per-output-column scales, or bf16) and runs an eval-mode
//! forward pass through [`soup_tensor::quant::qmatmul`]'s int8×f32 kernel.
//! Activations, biases and attention vectors stay f32 — they are tiny next
//! to the weights and keeping them full-precision bounds the accuracy cost.
//!
//! [`forward_quant`] mirrors [`crate::model::forward_cached`]'s eval-mode
//! structure exactly (aggregate-first first hop for GCN/SAGE/GIN, ReLU/ELU
//! activations, GIN row normalisation), differing only in the weight
//! matmuls; the quantized-accuracy gate (≤ 0.5 pp vs f32 on the standard
//! preset) lives in the workspace `quant_accuracy` integration test and the
//! `soupctl soup --quant-check` smoke.

use crate::cache::PropCache;
use crate::config::{Arch, ModelConfig};
use crate::model::PropOps;
use crate::params::ParamSet;
use soup_graph::metrics::accuracy;
use soup_tensor::quant::{QuantKind, QuantMat};
use soup_tensor::tape::{Tape, Var};
use soup_tensor::Tensor;

/// GIN's fixed ε, matching [`crate::model::forward_cached`]'s call sites.
const GIN_EPSILON: f32 = 0.0;

/// One parameter slot of a quantized layer: either a quantized weight
/// matrix or a tensor kept in f32 (biases, attention vectors).
#[derive(Debug, Clone)]
pub enum QuantSlot {
    Quantized(QuantMat),
    Full(Tensor),
}

/// One layer of a [`QuantParamSet`], slot-for-slot parallel to the source
/// [`crate::params::LayerParams`].
#[derive(Debug, Clone)]
pub struct QuantLayer {
    pub name: String,
    pub slots: Vec<QuantSlot>,
}

/// A souped [`ParamSet`] with its weight matrices quantized for inference.
#[derive(Debug, Clone)]
pub struct QuantParamSet {
    pub layers: Vec<QuantLayer>,
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
    /// post-soup; the result serves arbitrarily many [`forward_quant`]
    /// calls without re-packing.
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

    fn layer(&self, l: usize) -> &QuantLayer {
        &self.layers[l]
    }
}

impl QuantLayer {
    /// The quantized matrix at `slot` (panics if the slot was kept f32 —
    /// slot layouts are fixed per architecture, so that is a logic error).
    fn qmat(&self, slot: usize) -> &QuantMat {
        match &self.slots[slot] {
            QuantSlot::Quantized(q) => q,
            QuantSlot::Full(_) => panic!("slot {slot} of {} is not quantized", self.name),
        }
    }

    /// Register the f32 tensor at `slot` as a tape constant.
    fn full(&self, tape: &Tape, slot: usize) -> Var {
        match &self.slots[slot] {
            QuantSlot::Full(t) => tape.constant(t.clone()),
            QuantSlot::Quantized(_) => panic!("slot {slot} of {} is quantized", self.name),
        }
    }
}

/// Eval-mode forward pass with quantized weight matmuls, producing logits
/// `(n, out_dim)`.
///
/// Structure mirrors [`crate::model::forward_cached`] with
/// `training = false`: no dropout, aggregate-first layer 0 for GCN/SAGE/GIN
/// (from `cache` when provided), ReLU (ELU for GAT) between layers, GIN row
/// normalisation. Inference-only: the tape records constants throughout and
/// is dropped on return.
pub fn forward_quant(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    qparams: &QuantParamSet,
    features: &Tensor,
) -> Tensor {
    assert_eq!(
        qparams.layers.len(),
        cfg.layers,
        "quantized param layer count mismatch"
    );
    let tape = Tape::new();
    let mut h = tape.constant(features.clone());
    for l in 0..cfg.layers {
        let layer = qparams.layer(l);
        h = if l == 0 && cfg.arch != Arch::Gat {
            quant_first_hop(&tape, cfg, ops, cache, h, layer)
        } else {
            match (ops, cfg.arch) {
                (PropOps::Gcn(adj), Arch::Gcn) => {
                    let hw = tape.matmul_quant(h, layer.qmat(0));
                    let agg = tape.spmm(adj, hw);
                    tape.add_bias(agg, layer.full(&tape, 1))
                }
                (PropOps::Sage(mean), Arch::Sage) => {
                    let agg = tape.spmm(mean, h);
                    sage_preagg_quant(&tape, h, agg, layer)
                }
                (PropOps::Gat(idx), Arch::Gat) => {
                    let heads = cfg.layer_heads(l);
                    let x = tape.matmul_quant(h, layer.qmat(0));
                    let al = tape.block_rowsum(tape.mul_row(x, layer.full(&tape, 1)), heads);
                    let ar = tape.block_rowsum(tape.mul_row(x, layer.full(&tape, 2)), heads);
                    let agg = tape.gat_aggregate(idx, x, al, ar, heads, cfg.negative_slope);
                    tape.add_bias(agg, layer.full(&tape, 3))
                }
                (PropOps::Gin(sum), Arch::Gin) => {
                    let agg = tape.spmm(sum, h);
                    gin_preagg_quant(&tape, h, agg, layer)
                }
                _ => panic!("PropOps does not match architecture {:?}", cfg.arch),
            }
        };
        if l + 1 < cfg.layers {
            h = match cfg.arch {
                Arch::Gat => tape.elu(h, 1.0),
                _ => tape.relu(h),
            };
            if cfg.arch == Arch::Gin {
                h = tape.l2_normalize_rows(h, 1e-8);
            }
        }
    }
    tape.value(h)
}

/// Aggregate-first layer 0 for the cacheable architectures, mirroring
/// `model::eval_first_hop` with quantized weight matmuls.
fn quant_first_hop(
    tape: &Tape,
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    h: Var,
    layer: &QuantLayer,
) -> Var {
    let m = match (ops, cfg.arch) {
        (PropOps::Gcn(m), Arch::Gcn)
        | (PropOps::Sage(m), Arch::Sage)
        | (PropOps::Gin(m), Arch::Gin) => m,
        _ => panic!("PropOps does not match architecture {:?}", cfg.arch),
    };
    let agg = match cache {
        Some(c) => {
            let a = c
                .cached_agg()
                .expect("PropCache built for a cacheable architecture");
            c.record_hit();
            tape.constant(a.clone())
        }
        None => tape.spmm(m, h),
    };
    match cfg.arch {
        Arch::Gcn => {
            let out = tape.matmul_quant(agg, layer.qmat(0));
            tape.add_bias(out, layer.full(tape, 1))
        }
        Arch::Sage => sage_preagg_quant(tape, h, agg, layer),
        Arch::Gin => gin_preagg_quant(tape, h, agg, layer),
        Arch::Gat => unreachable!("GAT never takes the aggregate-first path"),
    }
}

fn sage_preagg_quant(tape: &Tape, h: Var, agg: Var, layer: &QuantLayer) -> Var {
    let cat = tape.concat_cols(h, agg);
    let out = tape.matmul_quant(cat, layer.qmat(0));
    tape.add_bias(out, layer.full(tape, 1))
}

fn gin_preagg_quant(tape: &Tape, h: Var, agg: Var, layer: &QuantLayer) -> Var {
    let self_term = tape.scale(h, 1.0 + GIN_EPSILON);
    let combined = tape.add(self_term, agg);
    let h1 = tape.matmul_quant(combined, layer.qmat(0));
    let hidden = tape.relu(tape.add_bias(h1, layer.full(tape, 1)));
    let h2 = tape.matmul_quant(hidden, layer.qmat(2));
    tape.add_bias(h2, layer.full(tape, 3))
}

/// Argmax class predictions through the quantized forward path.
pub fn predict_quant(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    qparams: &QuantParamSet,
    features: &Tensor,
) -> Vec<usize> {
    forward_quant(cfg, ops, cache, qparams, features).argmax_rows()
}

/// Accuracy of the quantized forward path over the nodes in `mask`.
pub fn evaluate_accuracy_quant(
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    qparams: &QuantParamSet,
    features: &Tensor,
    labels: &[u32],
    mask: &[usize],
) -> f64 {
    let preds = predict_quant(cfg, ops, cache, qparams, features);
    accuracy(&preds, labels, mask)
}

/// Reference product for tests and diagnostics: dequantize the weights and
/// run the plain f32 GEMM. Any gap between this and the int8 kernel output
/// is kernel error; any gap between this and the original f32 product is
/// rounding error.
pub fn qmatmul_reference(a: &Tensor, q: &QuantMat) -> Tensor {
    a.matmul(&q.dequantize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{init_params, PropOps};
    use crate::params::ParamVars;
    use soup_graph::CsrGraph;
    use soup_tensor::quant::qmatmul;
    use soup_tensor::SplitMix64;

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
        let y = crate::model::forward(&tape, cfg, ops, xv, &vars, false, &mut rng);
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
            let quant = forward_quant(&cfg, &ops, None, &qp, &x);
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
            let y = forward_quant(&cfg, &ops, None, &qp, &x);
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
            let plain = forward_quant(&cfg, &ops, None, &qp, &x);
            let cached = forward_quant(&cfg, &ops, Some(&cache), &qp, &x);
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
