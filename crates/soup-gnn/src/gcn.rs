//! Graph Convolutional Network layer (Kipf & Welling 2017).
//!
//! `H' = Â H W + b` with `Â = D̃^{-1/2}(A+I)D̃^{-1/2}` prepared once per
//! graph by [`soup_graph::CsrGraph::gcn_norm`].

use crate::config::ModelConfig;
use crate::params::LayerParams;
use soup_tensor::init::{xavier_normal, zeros_bias};
use soup_tensor::ops::SparseMat;
use soup_tensor::tape::{Tape, Var};
use soup_tensor::SplitMix64;

/// Parameter layout: `[W (in×out), b (1×out)]`.
pub fn init_layer(cfg: &ModelConfig, l: usize, rng: &mut SplitMix64) -> LayerParams {
    let (din, dout) = (cfg.layer_in_dim(l), cfg.layer_out_dim(l));
    LayerParams {
        name: format!("gcn{l}"),
        tensors: vec![xavier_normal(din, dout, 1.0, rng), zeros_bias(dout)],
    }
}

/// One GCN layer forward. With `agg = None` the dense transform runs first
/// (`Â(HW)`: `HW` is `n×out`, usually narrower than `H`); with the
/// propagation already applied (`agg = Â·H`, the eval-mode first hop,
/// possibly from a [`crate::cache::PropCache`]) it is `(ÂH)W`. The two are
/// equal in linear algebra but not bitwise in f32, so cached and uncached
/// eval both take the aggregate-first order.
pub(crate) fn layer(tape: &Tape, adj: &SparseMat, h: Var, agg: Option<Var>, w: &[Var]) -> Var {
    let out = match agg {
        Some(agg) => tape.matmul(agg, w[0]),
        None => tape.spmm(adj, tape.matmul(h, w[0])),
    };
    tape.add_bias(out, w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamVars;
    use crate::ParamSet;
    use soup_graph::CsrGraph;
    use soup_tensor::Tensor;

    fn setup() -> (CsrGraph, ModelConfig) {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cfg = ModelConfig::gcn(3, 2).with_hidden(5).with_layers(1);
        (g, cfg)
    }

    #[test]
    fn layer_shapes() {
        let (_, cfg) = setup();
        let mut rng = SplitMix64::new(1);
        let lp = init_layer(&cfg, 0, &mut rng);
        assert_eq!(lp.tensors[0].shape(), soup_tensor::Shape::new(3, 2));
        assert_eq!(lp.tensors[1].shape(), soup_tensor::Shape::new(1, 2));
        assert_eq!(lp.name, "gcn0");
    }

    #[test]
    fn layer_output_shape() {
        let (g, cfg) = setup();
        let mut rng = SplitMix64::new(2);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(4, 3, 1.0, &mut rng));
        let adj = g.gcn_norm();
        let y = layer(&tape, &adj, x, None, &vars.layers[0]);
        let yv = tape.value(y);
        assert_eq!(yv.rows(), 4);
        assert_eq!(yv.cols(), 2);
    }

    #[test]
    fn propagation_mixes_neighbors() {
        // With identity weights and zero bias, a node's output is the
        // normalised neighborhood average of its features.
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let cfg = ModelConfig::gcn(2, 2).with_layers(1);
        let tape = Tape::new();
        let w = tape.param(Tensor::eye(2));
        let b = tape.param(Tensor::zeros(1, 2));
        let x = tape.constant(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let y = layer(&tape, &g.gcn_norm(), x, None, &[w, b]);
        let yv = tape.value(y);
        // Â for the single edge graph: all entries 1/2.
        assert!((yv.get(0, 0) - 0.5).abs() < 1e-5);
        assert!((yv.get(0, 1) - 0.5).abs() < 1e-5);
        let _ = cfg;
    }

    #[test]
    fn gradients_reach_weights() {
        let (g, cfg) = setup();
        let mut rng = SplitMix64::new(3);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(4, 3, 1.0, &mut rng));
        let y = layer(&tape, &g.gcn_norm(), x, None, &vars.layers[0]);
        let loss = tape.sum(tape.mul(y, y));
        let grads = tape.backward(loss);
        assert!(grads.get(vars.layers[0][0]).is_some(), "no grad for W");
        assert!(grads.get(vars.layers[0][1]).is_some(), "no grad for b");
    }
}
