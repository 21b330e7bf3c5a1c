//! Graph Isomorphism Network layer (Xu et al. 2019) — an *extension*
//! architecture beyond the paper's three, included because Graph Ladling
//! (the paper's baseline work) evaluates GIN and souping should transfer.
//!
//! `h' = MLP((1 + ε)·h_v + Σ_{u∈N(v)} h_u)` with a 2-layer ReLU MLP. The
//! model runs GIN-0: ε is the fixed `EPSILON` = 0, not a config field and
//! not learned.

use crate::config::ModelConfig;
use crate::model::LayerWeights;
use crate::params::LayerParams;
use soup_tensor::init::{xavier_normal, zeros_bias};
use soup_tensor::ops::SparseMat;
use soup_tensor::tape::{Tape, Var};
use soup_tensor::SplitMix64;

/// Parameter layout: `[W1 (in×out), b1 (1×out), W2 (out×out), b2 (1×out)]`.
pub fn init_layer(cfg: &ModelConfig, l: usize, rng: &mut SplitMix64) -> LayerParams {
    let (din, dout) = (cfg.layer_in_dim(l), cfg.layer_out_dim(l));
    LayerParams {
        name: format!("gin{l}"),
        tensors: vec![
            xavier_normal(din, dout, 1.0, rng),
            zeros_bias(dout),
            xavier_normal(dout, dout, 1.0, rng),
            zeros_bias(dout),
        ],
    }
}

/// GIN-0's ε: fixed, not learned.
pub(crate) const EPSILON: f32 = 0.0;

/// One GIN layer forward. `sum` is the plain adjacency operator; `agg`,
/// when given, is the neighbor sum `A·H` already computed (possibly by a
/// [`crate::cache::PropCache`]).
pub(crate) fn layer(
    tape: &Tape,
    sum: &SparseMat,
    h: Var,
    agg: Option<Var>,
    w: &impl LayerWeights,
    epsilon: f32,
) -> Var {
    let agg = agg.unwrap_or_else(|| tape.spmm(sum, h));
    let combined = tape.add(tape.scale(h, 1.0 + epsilon), agg);
    let hidden = tape.relu(tape.add_bias(w.matmul(tape, combined, 0), w.full(tape, 1)));
    tape.add_bias(w.matmul(tape, hidden, 2), w.full(tape, 3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamSet, ParamVars};
    use soup_graph::CsrGraph;
    use soup_tensor::Tensor;

    #[test]
    fn layer_shapes() {
        let cfg = ModelConfig::gin(6, 3).with_hidden(8).with_layers(2);
        let mut rng = SplitMix64::new(1);
        let l0 = init_layer(&cfg, 0, &mut rng);
        assert_eq!(l0.tensors[0].shape(), soup_tensor::Shape::new(6, 8));
        assert_eq!(l0.tensors[2].shape(), soup_tensor::Shape::new(8, 8));
        let l1 = init_layer(&cfg, 1, &mut rng);
        assert_eq!(l1.tensors[0].shape(), soup_tensor::Shape::new(8, 3));
        assert_eq!(l1.tensors[3].shape(), soup_tensor::Shape::new(1, 3));
    }

    #[test]
    fn layer_shape_and_grads() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cfg = ModelConfig::gin(4, 3).with_layers(1);
        let mut rng = SplitMix64::new(2);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(5, 4, 1.0, &mut rng));
        let y = layer(&tape, &g.sum_agg(), x, None, &vars.layers[0], EPSILON);
        assert_eq!(tape.value(y).rows(), 5);
        assert_eq!(tape.value(y).cols(), 3);
        let loss = tape.sum(tape.mul(y, y));
        let grads = tape.backward(loss);
        for (i, name) in ["W1", "b1", "W2", "b2"].iter().enumerate() {
            assert!(grads.get(vars.layers[0][i]).is_some(), "no grad for {name}");
        }
    }

    #[test]
    fn epsilon_weights_the_self_term() {
        // Single isolated node: output depends only on (1+eps)·h.
        let g = CsrGraph::from_edges(1, &[]);
        let tape = Tape::new();
        let w1 = tape.param(Tensor::eye(1));
        let b1 = tape.param(Tensor::zeros(1, 1));
        let w2 = tape.param(Tensor::eye(1));
        let b2 = tape.param(Tensor::zeros(1, 1));
        let x = tape.constant(Tensor::scalar(2.0));
        let params = vec![w1, b1, w2, b2];
        let y0 = tape.value(layer(&tape, &g.sum_agg(), x, None, &params, EPSILON));
        let y1 = tape.value(layer(&tape, &g.sum_agg(), x, None, &params, 0.5));
        assert!((y0.item() - 2.0).abs() < 1e-6);
        assert!((y1.item() - 3.0).abs() < 1e-6);
    }
}
