//! # soup-gnn
//!
//! Four GNN architectures on the `soup-tensor` autograd tape: the three the
//! paper evaluates (§IV-A) — GCN (Kipf & Welling), GraphSAGE (Hamilton et
//! al.) and GAT (Veličković et al.) — plus GIN (Xu et al.), with the
//! ingredient training loop of Phase 1 (full-batch and sampled-minibatch)
//! and evaluation helpers.
//!
//! Architecture notes:
//! - Parameters live in a [`params::ParamSet`]: a list of named layers,
//!   each a list of tensors. The *layer* granularity is what Learned
//!   Souping's per-layer interpolation parameters α_i^l attach to (Eq. 3).
//! - There is one forward, [`model::forward`]: it dispatches to one layer
//!   function per architecture over a prepared propagation operator
//!   ([`model::PropOps`]), so the same code serves full graphs, PLS
//!   partition-union subgraphs and sampled minibatch subgraphs. Its weights
//!   are plain tape variables, and it takes an optional [`PropCache`] for
//!   the eval-mode first hop.

pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod gat;
pub mod gcn;
pub mod gin;
pub mod model;
pub mod params;
pub mod sage;
pub mod train;

pub use cache::PropCache;
pub use checkpoint::{
    checkpoint_name, checkpoint_path, decode_checkpoint, encode_checkpoint, find_checkpoint,
    legacy_checkpoint_path, load_checkpoint, save_checkpoint, save_checkpoint_v1,
    validate_checkpoint, Checkpoint,
};
pub use config::{Arch, ModelConfig};
pub use eval::{evaluate_accuracy, evaluate_accuracy_cached, predict, predict_cached};
pub use model::{check_params, forward, init_params, PropOps};
pub use params::{ParamSet, ParamVars};
pub use train::{train_single, TrainConfig, TrainedModel};
