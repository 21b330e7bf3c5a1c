//! GraphSAGE layer with mean aggregation (Hamilton et al. 2018).
//!
//! `H' = [H ‖ D^{-1} A H] W + b`: each node's own representation is
//! concatenated with the mean of its neighbors' before the linear
//! transform, so isolated nodes degrade gracefully to a self-transform.

use crate::config::ModelConfig;
use crate::model::LayerWeights;
use crate::params::LayerParams;
use soup_tensor::init::{xavier_normal, zeros_bias};
use soup_tensor::ops::SparseMat;
use soup_tensor::tape::{Tape, Var};
use soup_tensor::SplitMix64;

/// Parameter layout: `[W (2·in×out), b (1×out)]`.
pub fn init_layer(cfg: &ModelConfig, l: usize, rng: &mut SplitMix64) -> LayerParams {
    let (din, dout) = (cfg.layer_in_dim(l), cfg.layer_out_dim(l));
    LayerParams {
        name: format!("sage{l}"),
        tensors: vec![xavier_normal(2 * din, dout, 1.0, rng), zeros_bias(dout)],
    }
}

/// One GraphSAGE layer forward. `mean` is the `D^{-1}A` operator; `agg`,
/// when given, is the neighbor mean `D^{-1}A·H` already computed (possibly
/// by a [`crate::cache::PropCache`]).
pub(crate) fn layer(
    tape: &Tape,
    mean: &SparseMat,
    h: Var,
    agg: Option<Var>,
    w: &impl LayerWeights,
) -> Var {
    let agg = agg.unwrap_or_else(|| tape.spmm(mean, h));
    let cat = tape.concat_cols(h, agg);
    tape.add_bias(w.matmul(tape, cat, 0), w.full(tape, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamSet, ParamVars};
    use soup_graph::CsrGraph;
    use soup_tensor::Tensor;

    #[test]
    fn layer_shapes() {
        let cfg = ModelConfig::sage(6, 3).with_layers(1);
        let mut rng = SplitMix64::new(1);
        let lp = init_layer(&cfg, 0, &mut rng);
        assert_eq!(lp.tensors[0].shape(), soup_tensor::Shape::new(12, 3));
        assert_eq!(lp.tensors[1].shape(), soup_tensor::Shape::new(1, 3));
    }

    #[test]
    fn layer_shape_and_grads() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cfg = ModelConfig::sage(4, 3).with_layers(1);
        let mut rng = SplitMix64::new(2);
        let params = ParamSet {
            layers: vec![init_layer(&cfg, 0, &mut rng)],
        };
        let tape = Tape::new();
        let vars = ParamVars::register(&tape, &params, true);
        let x = tape.constant(Tensor::randn(5, 4, 1.0, &mut rng));
        let y = layer(&tape, &g.mean_agg(), x, None, &vars.layers[0]);
        assert_eq!(tape.value(y).rows(), 5);
        assert_eq!(tape.value(y).cols(), 3);
        let loss = tape.sum(tape.mul(y, y));
        let grads = tape.backward(loss);
        assert!(grads.get(vars.layers[0][0]).is_some());
    }

    #[test]
    fn isolated_node_uses_self_features_only() {
        // Node 2 is isolated: its aggregated half is zero, so its output
        // depends only on the self block of W.
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let tape = Tape::new();
        // W = [I ; I] so output = self + mean(neighbors).
        let mut wdata = vec![0.0f32; 4 * 2];
        wdata[0] = 1.0; // self block
        wdata[3] = 1.0;
        wdata[4] = 1.0; // agg block
        wdata[7] = 1.0;
        let w = tape.param(Tensor::from_vec(4, 2, wdata));
        let b = tape.param(Tensor::zeros(1, 2));
        let x = tape.constant(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = tape.value(layer(&tape, &g.mean_agg(), x, None, &vec![w, b]));
        // Node 0: self (1,2) + neighbor 1 (3,4) -> (4,6).
        assert_eq!(y.row(0), &[4.0, 6.0]);
        // Node 2: self only.
        assert_eq!(y.row(2), &[5.0, 6.0]);
    }
}
