//! # enhanced-soups
//!
//! Facade crate for the Rust reproduction of *Enhanced Soups for Graph
//! Neural Networks* (Zuber, Sarkar, Jennings, Jannesari — IPPS 2025).
//!
//! The workspace implements the paper's full stack from scratch:
//!
//! - [`tensor`] — dense tensors, autograd, optimizers, device-memory meter
//! - [`graph`] — CSR graphs, synthetic OGB-like datasets, sampling
//! - [`partition`] — METIS-like multilevel k-way partitioner
//! - [`gnn`] — GCN / GraphSAGE / GAT models and training loops
//! - [`soup`] — the souping algorithms: US, Greedy, GIS, **LS**, **PLS**
//! - [`distrib`] — zero-communication distributed ingredient training
//! - [`serve`] — online serving: TCP queries answered from the soup's
//!   prediction table, admission control, hot model swap
//! - [`store`] — crash-safe artifact store: atomic durable writes,
//!   checksummed envelopes, test-armed fault points
//! - [`obs`] — metrics registry, timing spans, JSONL tracing, reporting
//!
//! ## Quickstart
//!
//! ```no_run
//! use enhanced_soups::prelude::*;
//!
//! // 1. A synthetic dataset shaped like the paper's Flickr benchmark.
//! let dataset = DatasetKind::Flickr.generate(42);
//!
//! // 2. Phase 1 — train ingredients in parallel with zero communication.
//! let config = ModelConfig::gcn(dataset.num_features(), dataset.num_classes());
//! let ingredients = train_ingredients(&dataset, &config, &TrainConfig::quick(), 8, 4, 42);
//!
//! // 3. Phase 2 — mix them with Learned Souping.
//! let ls = LearnedSouping::default();
//! let outcome = ls.soup(&ingredients, &dataset, &config, 42);
//! println!("soup val acc: {:.4}", outcome.val_accuracy);
//! ```

pub mod cli;

pub use soup_core as soup;
pub use soup_distrib as distrib;
pub use soup_gnn as gnn;
pub use soup_graph as graph;
pub use soup_obs as obs;
pub use soup_partition as partition;
pub use soup_serve as serve;
pub use soup_store as store;
pub use soup_tensor as tensor;

/// The workspace-wide error type and result alias (also re-exported from
/// [`soup_core`]).
pub use soup_error::{Result, SoupError};

/// Convenience re-exports covering the common end-to-end pipeline.
pub mod prelude {
    pub use soup_core::{
        GisSouping, GreedySouping, Ingredient, LearnedSouping, PartitionLearnedSouping,
        Phase2Persist, SoupOutcome, SoupStrategy, UniformSouping,
    };
    pub use soup_distrib::{train_ingredients, train_ingredients_opts, TrainOpts, TrainRun};
    pub use soup_error::{Result, SoupError};
    pub use soup_gnn::{Arch, ModelConfig, TrainConfig};
    pub use soup_graph::{CsrGraph, Dataset, DatasetKind};
    pub use soup_partition::PartitionConfig;
    pub use soup_store::Store;
    pub use soup_tensor::{SplitMix64, Tensor};
}
