//! # soup-gnn
//!
//! The three GNN architectures the paper evaluates (§IV-A) — GCN (Kipf &
//! Welling), GraphSAGE (Hamilton et al.) and GAT (Veličković et al.) —
//! implemented on the `soup-tensor` autograd tape, plus the ingredient
//! training loop of Phase 1 (full-batch and sampled-minibatch) and
//! evaluation helpers.
//!
//! Architecture notes:
//! - Parameters live in a [`params::ParamSet`]: a list of named layers,
//!   each a list of tensors. The *layer* granularity is what Learned
//!   Souping's per-layer interpolation parameters α_i^l attach to (Eq. 3).
//! - Forward passes are architecture-dispatched through
//!   [`model::forward`] over a prepared propagation operator
//!   ([`model::PropOps`]), so the same code path serves full graphs,
//!   PLS partition-union subgraphs and sampled minibatch subgraphs.

pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod gat;
pub mod gcn;
pub mod gin;
pub mod model;
pub mod params;
pub mod quant;
pub mod sage;
pub mod train;

pub use cache::PropCache;
pub use checkpoint::{
    checkpoint_name, checkpoint_path, decode_checkpoint, encode_checkpoint, find_checkpoint,
    legacy_checkpoint_path, load_checkpoint, save_checkpoint, save_checkpoint_v1,
    validate_checkpoint, Checkpoint,
};
pub use config::{Arch, ModelConfig};
pub use eval::{
    evaluate_accuracy, evaluate_accuracy_cached, predict, predict_cached, validation_loss,
    validation_loss_cached,
};
pub use model::{forward, forward_cached, init_params, PropOps};
pub use params::{ParamSet, ParamVars};
pub use quant::{
    evaluate_accuracy_quant, forward_quant, predict_quant, QuantLayer, QuantParamSet, QuantSlot,
};
pub use train::{train_single, TrainConfig, TrainedModel};
