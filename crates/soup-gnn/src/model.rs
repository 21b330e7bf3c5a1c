//! Architecture dispatch: parameter initialisation, propagation-operator
//! preparation, and the one multi-layer forward pass.

use crate::cache::PropCache;
use crate::config::{Arch, ModelConfig};
use crate::params::ParamSet;
use crate::{gat, gcn, gin, sage};
use soup_error::{Result, SoupError};
use soup_graph::CsrGraph;
use soup_tensor::ops::{EdgeIndex, SparseMat};
use soup_tensor::tape::{Tape, Var};
use soup_tensor::SplitMix64;

/// Architecture-specific propagation operator, prepared once per graph
/// (full graph, PLS partition-union subgraph, or sampled minibatch
/// subgraph) and reused across layers and epochs.
#[derive(Debug, Clone)]
pub enum PropOps {
    Gcn(SparseMat),
    Sage(SparseMat),
    Gat(EdgeIndex),
    Gin(SparseMat),
}

impl PropOps {
    /// Build the operator the architecture needs from a graph.
    pub fn prepare(arch: Arch, graph: &CsrGraph) -> Self {
        match arch {
            Arch::Gcn => PropOps::Gcn(graph.gcn_norm()),
            Arch::Sage => PropOps::Sage(graph.mean_agg()),
            Arch::Gat => PropOps::Gat(graph.edge_index()),
            Arch::Gin => PropOps::Gin(graph.sum_agg()),
        }
    }

    /// The weight-independent first-hop operator (`Â`, `D⁻¹A`, `A`), or
    /// `None` for GAT, whose attention coefficients depend on the weights.
    pub(crate) fn propagation(&self) -> Option<&SparseMat> {
        match self {
            PropOps::Gcn(m) | PropOps::Sage(m) | PropOps::Gin(m) => Some(m),
            PropOps::Gat(_) => None,
        }
    }

    pub fn num_nodes(&self) -> usize {
        match self {
            PropOps::Gcn(m) | PropOps::Sage(m) | PropOps::Gin(m) => m.rows(),
            PropOps::Gat(idx) => idx.num_nodes(),
        }
    }
}

/// Glorot-initialise all layers of a model (§III-B).
pub fn init_params(cfg: &ModelConfig, rng: &mut SplitMix64) -> ParamSet {
    let layers = (0..cfg.layers)
        .map(|l| match cfg.arch {
            Arch::Gcn => gcn::init_layer(cfg, l, rng),
            Arch::Sage => sage::init_layer(cfg, l, rng),
            Arch::Gat => gat::init_layer(cfg, l, rng),
            Arch::Gin => gin::init_layer(cfg, l, rng),
        })
        .collect();
    ParamSet { layers }
}

/// Refuse `params` whose layer and tensor shapes are not the ones `cfg`
/// describes (another architecture, width or depth), before any forward
/// runs on them.
pub fn check_params(cfg: &ModelConfig, params: &ParamSet) -> Result<()> {
    if params.same_shape(&init_params(cfg, &mut SplitMix64::new(0))) {
        return Ok(());
    }
    Err(SoupError::shape(format!(
        "parameters do not fit the configured {} architecture (hidden {}, {} layers)",
        cfg.arch.name(),
        cfg.hidden,
        cfg.layers
    )))
}

/// Full forward pass producing logits `(n, out_dim)` — the one forward that
/// training and (cached) evaluation both run. `layers` holds each layer's
/// parameter slots as tape variables, in [`crate::params::LayerParams`]
/// order.
///
/// Dropout is applied to each layer's input when `training`; hidden
/// activations are ReLU for GCN/GraphSAGE/GIN and ELU for GAT (the original
/// papers' choices).
///
/// In eval mode (no dropout, so the layer-0 input *is* the raw feature
/// tensor) GCN/SAGE/GIN run layer 0 aggregate-first: the weight-independent
/// `op·X` is taken from `cache` when one is provided, or computed by the
/// same `spmm` op otherwise — the two are bit-identical because
/// [`PropCache::new`] calls the exact kernel `spmm`'s forward uses. GAT's
/// first hop is weight-dependent and always recomputes. In training mode
/// the cache is ignored entirely (dropout perturbs the layer-0 input).
#[allow(clippy::too_many_arguments)]
pub fn forward(
    tape: &Tape,
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    x: Var,
    layers: &[Vec<Var>],
    training: bool,
    rng: &mut SplitMix64,
) -> Var {
    assert_eq!(layers.len(), cfg.layers, "param layer count mismatch");
    let mut h = x;
    for (l, w) in layers.iter().enumerate() {
        h = tape.dropout(h, cfg.dropout, training, rng);
        let agg = match ops.propagation() {
            Some(m) if l == 0 && !training => Some(match cache {
                Some(c) => {
                    let a = c
                        .cached_agg()
                        .expect("PropCache built for a cacheable architecture");
                    c.record_hit();
                    tape.constant(a.clone())
                }
                None => tape.spmm(m, h),
            }),
            _ => None,
        };
        h = match (ops, cfg.arch) {
            (PropOps::Gcn(adj), Arch::Gcn) => gcn::layer(tape, adj, h, agg, w),
            (PropOps::Sage(mean), Arch::Sage) => sage::layer(tape, mean, h, agg, w),
            (PropOps::Gat(idx), Arch::Gat) => {
                gat::layer(tape, idx, h, w, cfg.layer_heads(l), cfg.negative_slope)
            }
            (PropOps::Gin(sum), Arch::Gin) => gin::layer(tape, sum, h, agg, w, gin::EPSILON),
            _ => panic!("PropOps does not match architecture {:?}", cfg.arch),
        };
        if l + 1 < cfg.layers {
            h = match cfg.arch {
                Arch::Gat => tape.elu(h, 1.0),
                _ => tape.relu(h),
            };
            // GIN's sum aggregation scales activations with node degree;
            // row normalisation replaces the BatchNorm of the original
            // paper (deterministic, batch-independent).
            if cfg.arch == Arch::Gin {
                h = tape.l2_normalize_rows(h, 1e-8);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamVars;
    use soup_tensor::Tensor;

    fn toy_graph() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    }

    fn run_forward(cfg: &ModelConfig, training: bool, seed: u64) -> Tensor {
        let g = toy_graph();
        let mut rng = SplitMix64::new(seed);
        let params = init_params(cfg, &mut rng);
        let ops = PropOps::prepare(cfg.arch, &g);
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(6, cfg.in_dim, 1.0, &mut rng));
        let mut drng = SplitMix64::new(seed).derive(99);
        let y = forward(&tape, cfg, &ops, None, x, &vars.layers, training, &mut drng);
        tape.value(y)
    }

    #[test]
    fn all_archs_produce_logits() {
        for arch in Arch::ALL {
            let cfg = match arch {
                Arch::Gcn => ModelConfig::gcn(8, 3),
                Arch::Sage => ModelConfig::sage(8, 3),
                Arch::Gat => ModelConfig::gat(8, 3),
                Arch::Gin => ModelConfig::gin(8, 3),
            };
            let y = run_forward(&cfg, false, 1);
            assert_eq!(y.rows(), 6, "{arch:?}");
            assert_eq!(y.cols(), 3, "{arch:?}");
            assert!(
                y.data().iter().all(|v| v.is_finite()),
                "{arch:?} produced non-finite"
            );
        }
    }

    #[test]
    fn param_count_matches_layers() {
        let cfg = ModelConfig::gcn(10, 4).with_layers(3);
        let mut rng = SplitMix64::new(2);
        let p = init_params(&cfg, &mut rng);
        assert_eq!(p.num_layers(), 3);
        // 10*64+64 + 64*64+64 + 64*4+4
        assert_eq!(p.num_params(), 10 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4);
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let cfg = ModelConfig::sage(8, 3);
        let a = run_forward(&cfg, false, 3);
        let b = run_forward(&cfg, false, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn training_mode_dropout_changes_output() {
        let cfg = ModelConfig::gcn(8, 3).with_dropout(0.5);
        let eval = run_forward(&cfg, false, 4);
        let train = run_forward(&cfg, true, 4);
        assert_ne!(eval, train, "dropout had no effect in training mode");
    }

    #[test]
    fn deeper_models_run() {
        let cfg = ModelConfig::gat(6, 4)
            .with_layers(3)
            .with_heads(2)
            .with_hidden(4);
        let y = run_forward(&cfg, false, 5);
        assert_eq!(y.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match architecture")]
    fn mismatched_ops_panics() {
        let g = toy_graph();
        let cfg = ModelConfig::gcn(4, 2);
        let mut rng = SplitMix64::new(6);
        let params = init_params(&cfg, &mut rng);
        let ops = PropOps::prepare(Arch::Gat, &g); // wrong operator
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(6, 4, 1.0, &mut rng));
        forward(&tape, &cfg, &ops, None, x, &vars.layers, false, &mut rng);
    }
}
