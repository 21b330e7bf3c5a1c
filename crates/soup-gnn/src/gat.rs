//! Graph Attention Network layer (Veličković et al. 2018).
//!
//! Per layer: transform `X = H W` into `heads` blocked columns, compute the
//! per-node attention terms `al = aₗᵀ x`, `ar = aᵣᵀ x` per head, then run
//! the fused edge-softmax aggregation kernel.

use crate::config::ModelConfig;
use crate::params::LayerParams;
use soup_tensor::init::{xavier_normal, xavier_normal_shaped, zeros_bias};
use soup_tensor::ops::EdgeIndex;
use soup_tensor::tape::{Tape, Var};
use soup_tensor::SplitMix64;

/// Parameter layout: `[W (in×heads·dh), a_l (1×heads·dh), a_r (1×heads·dh),
/// b (1×heads·dh)]`.
pub fn init_layer(cfg: &ModelConfig, l: usize, rng: &mut SplitMix64) -> LayerParams {
    let din = cfg.layer_in_dim(l);
    let dout = cfg.layer_out_dim(l);
    let heads = cfg.layer_heads(l);
    debug_assert_eq!(dout % heads, 0);
    let dh = dout / heads;
    LayerParams {
        name: format!("gat{l}"),
        tensors: vec![
            xavier_normal(din, dout, 1.0, rng),
            xavier_normal_shaped(1, dout, dh, 1, 1.0, rng),
            xavier_normal_shaped(1, dout, dh, 1, 1.0, rng),
            zeros_bias(dout),
        ],
    }
}

/// One GAT layer forward over a prepared edge index.
pub(crate) fn layer(
    tape: &Tape,
    idx: &EdgeIndex,
    h: Var,
    w: &[Var],
    heads: usize,
    negative_slope: f32,
) -> Var {
    let x = tape.matmul(h, w[0]);
    let al = tape.block_rowsum(tape.mul_row(x, w[1]), heads);
    let ar = tape.block_rowsum(tape.mul_row(x, w[2]), heads);
    let agg = tape.gat_aggregate(idx, x, al, ar, heads, negative_slope);
    tape.add_bias(agg, w[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamSet, ParamVars};
    use soup_graph::CsrGraph;
    use soup_tensor::Tensor;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn layer_shapes_hidden_and_output() {
        let cfg = ModelConfig::gat(10, 3)
            .with_hidden(4)
            .with_heads(2)
            .with_layers(2);
        let mut rng = SplitMix64::new(1);
        let l0 = init_layer(&cfg, 0, &mut rng);
        assert_eq!(l0.tensors[0].shape(), soup_tensor::Shape::new(10, 8));
        assert_eq!(l0.tensors[1].shape(), soup_tensor::Shape::new(1, 8));
        // Output layer: 1 head, out_dim 3.
        let l1 = init_layer(&cfg, 1, &mut rng);
        assert_eq!(l1.tensors[0].shape(), soup_tensor::Shape::new(8, 3));
        assert_eq!(l1.tensors[3].shape(), soup_tensor::Shape::new(1, 3));
    }

    #[test]
    fn layer_output_shape() {
        let g = ring(6);
        let cfg = ModelConfig::gat(5, 4)
            .with_hidden(3)
            .with_heads(2)
            .with_layers(1);
        // Single layer: 1 head (output layer), out 4.
        let mut rng = SplitMix64::new(2);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(6, 5, 1.0, &mut rng));
        let idx = g.edge_index();
        let y = layer(&tape, &idx, x, &vars.layers[0], cfg.layer_heads(0), 0.2);
        assert_eq!(tape.value(y).rows(), 6);
        assert_eq!(tape.value(y).cols(), 4);
    }

    #[test]
    fn gradients_reach_attention_vectors() {
        let g = ring(5);
        let cfg = ModelConfig::gat(4, 6)
            .with_hidden(3)
            .with_heads(2)
            .with_layers(2);
        let mut rng = SplitMix64::new(3);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(5, 4, 1.0, &mut rng));
        let idx = g.edge_index();
        let y = layer(&tape, &idx, x, &vars.layers[0], 2, 0.2);
        let loss = tape.sum(tape.mul(y, y));
        let grads = tape.backward(loss);
        for (i, name) in ["W", "a_l", "a_r", "b"].iter().enumerate() {
            assert!(grads.get(vars.layers[0][i]).is_some(), "no grad for {name}");
        }
        // Attention gradients must be non-trivial.
        assert!(grads.get(vars.layers[0][1]).unwrap().max_abs() > 0.0);
    }

    #[test]
    fn constant_features_are_fixed_point_of_attention() {
        // If all nodes share the same features, attention weighting cannot
        // change the aggregation: output rows are identical.
        let g = ring(8);
        let cfg = ModelConfig::gat(3, 4)
            .with_heads(2)
            .with_hidden(2)
            .with_layers(2);
        let mut rng = SplitMix64::new(4);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, false);
        let x = tape.constant(Tensor::full(8, 3, 0.7));
        let idx = g.edge_index();
        let y = tape.value(layer(&tape, &idx, x, &vars.layers[0], 2, 0.2));
        for r in 1..8 {
            for c in 0..y.cols() {
                assert!((y.get(r, c) - y.get(0, c)).abs() < 1e-4);
            }
        }
    }
}
