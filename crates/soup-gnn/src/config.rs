//! Model architecture configuration.

use serde::{Deserialize, Serialize};

/// The GNN architectures: the three evaluated in the paper (§IV-A), which
/// [`Arch::ALL`] lists, plus GIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Graph Convolutional Network (Kipf & Welling 2017).
    Gcn,
    /// GraphSAGE with mean aggregation (Hamilton et al. 2018).
    Sage,
    /// Graph Attention Network (Veličković et al. 2018).
    Gat,
    /// Graph Isomorphism Network (Xu et al. 2019) — extension beyond the
    /// paper's grid; Graph Ladling evaluates GIN, so souping must transfer.
    Gin,
}

impl Arch {
    pub const ALL: [Arch; 3] = [Arch::Gcn, Arch::Sage, Arch::Gat];

    pub fn name(&self) -> &'static str {
        match self {
            Arch::Gcn => "GCN",
            Arch::Sage => "GraphSAGE",
            Arch::Gat => "GAT",
            Arch::Gin => "GIN",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "gcn" => Some(Arch::Gcn),
            "sage" | "graphsage" => Some(Arch::Sage),
            "gat" => Some(Arch::Gat),
            "gin" => Some(Arch::Gin),
            _ => None,
        }
    }
}

/// Hyperparameters of one model instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    pub arch: Arch,
    /// Input feature dimensionality.
    pub in_dim: usize,
    /// Hidden width (per head for GAT).
    pub hidden: usize,
    /// Output classes.
    pub out_dim: usize,
    /// Number of message-passing layers (≥ 1).
    pub layers: usize,
    /// Attention heads on hidden GAT layers (output layer uses 1 head).
    pub heads: usize,
    /// Dropout probability between layers.
    pub dropout: f32,
    /// LeakyReLU slope for GAT attention scores.
    pub negative_slope: f32,
}

impl ModelConfig {
    pub fn gcn(in_dim: usize, out_dim: usize) -> Self {
        Self {
            arch: Arch::Gcn,
            in_dim,
            hidden: 64,
            out_dim,
            layers: 2,
            heads: 1,
            dropout: 0.5,
            negative_slope: 0.2,
        }
    }

    pub fn sage(in_dim: usize, out_dim: usize) -> Self {
        Self {
            arch: Arch::Sage,
            ..Self::gcn(in_dim, out_dim)
        }
    }

    pub fn gat(in_dim: usize, out_dim: usize) -> Self {
        Self {
            arch: Arch::Gat,
            heads: 4,
            hidden: 16,
            ..Self::gcn(in_dim, out_dim)
        }
    }

    pub fn gin(in_dim: usize, out_dim: usize) -> Self {
        Self {
            arch: Arch::Gin,
            ..Self::gcn(in_dim, out_dim)
        }
    }

    /// The default config of `arch`: the one constructor every caller that
    /// picks an architecture by name goes through.
    pub fn for_arch(arch: Arch, in_dim: usize, out_dim: usize) -> Self {
        match arch {
            Arch::Gcn => Self::gcn(in_dim, out_dim),
            Arch::Sage => Self::sage(in_dim, out_dim),
            Arch::Gat => Self::gat(in_dim, out_dim),
            Arch::Gin => Self::gin(in_dim, out_dim),
        }
    }

    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    pub fn with_layers(mut self, layers: usize) -> Self {
        assert!(layers >= 1, "need at least one layer");
        self.layers = layers;
        self
    }

    pub fn with_dropout(mut self, dropout: f32) -> Self {
        self.dropout = dropout;
        self
    }

    pub fn with_heads(mut self, heads: usize) -> Self {
        assert!(heads >= 1, "need at least one head");
        self.heads = heads;
        self
    }

    /// Input width of layer `l`.
    pub fn layer_in_dim(&self, l: usize) -> usize {
        if l == 0 {
            self.in_dim
        } else if self.arch == Arch::Gat {
            self.heads * self.hidden
        } else {
            self.hidden
        }
    }

    /// Output width of layer `l` (logits width for the last layer).
    pub fn layer_out_dim(&self, l: usize) -> usize {
        if l + 1 == self.layers {
            self.out_dim
        } else if self.arch == Arch::Gat {
            self.heads * self.hidden
        } else {
            self.hidden
        }
    }

    /// Heads used by layer `l` (GAT's output layer collapses to one head).
    pub fn layer_heads(&self, l: usize) -> usize {
        if self.arch == Arch::Gat && l + 1 < self.layers {
            self.heads
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names_roundtrip() {
        for a in Arch::ALL {
            assert_eq!(Arch::from_name(a.name()), Some(a));
        }
        assert_eq!(Arch::from_name("graphsage"), Some(Arch::Sage));
        assert_eq!(Arch::from_name("mlp"), None);
    }

    #[test]
    fn for_arch_keeps_each_architectures_defaults() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat, Arch::Gin] {
            let cfg = ModelConfig::for_arch(arch, 12, 3);
            assert_eq!((cfg.arch, cfg.in_dim, cfg.out_dim), (arch, 12, 3));
        }
        assert_eq!(
            ModelConfig::for_arch(Arch::Gat, 12, 3),
            ModelConfig::gat(12, 3)
        );
        assert_eq!(ModelConfig::for_arch(Arch::Gat, 12, 3).heads, 4);
    }

    #[test]
    fn layer_dims_gcn() {
        let cfg = ModelConfig::gcn(100, 7).with_hidden(32).with_layers(3);
        assert_eq!(cfg.layer_in_dim(0), 100);
        assert_eq!(cfg.layer_out_dim(0), 32);
        assert_eq!(cfg.layer_in_dim(1), 32);
        assert_eq!(cfg.layer_out_dim(2), 7);
    }

    #[test]
    fn layer_dims_gat_with_heads() {
        let cfg = ModelConfig::gat(50, 10)
            .with_hidden(8)
            .with_heads(4)
            .with_layers(2);
        assert_eq!(cfg.layer_in_dim(0), 50);
        assert_eq!(cfg.layer_out_dim(0), 32); // 4 heads × 8
        assert_eq!(cfg.layer_heads(0), 4);
        assert_eq!(cfg.layer_in_dim(1), 32);
        assert_eq!(cfg.layer_out_dim(1), 10);
        assert_eq!(cfg.layer_heads(1), 1);
    }

    #[test]
    fn single_layer_model() {
        let cfg = ModelConfig::gcn(20, 5).with_layers(1);
        assert_eq!(cfg.layer_in_dim(0), 20);
        assert_eq!(cfg.layer_out_dim(0), 5);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = ModelConfig::gat(10, 3);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(serde_json::from_str::<ModelConfig>(&json).unwrap(), cfg);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        ModelConfig::gcn(4, 2).with_layers(0);
    }
}
