//! # soup-graph
//!
//! Graph substrate for the *Enhanced Soups for GNNs* reproduction: CSR
//! graph storage, message-passing operator construction (GCN normalisation,
//! mean aggregation, GAT edge indexes), synthetic counterparts of the
//! paper's four benchmark datasets, train/val/test splits, GraphSAGE-style
//! neighbor sampling and the induced-subgraph machinery that Partition
//! Learned Souping builds its epoch subgraphs with (Eq. 5).
//!
//! The paper evaluates on Flickr, ogbn-arxiv, Reddit and ogbn-products;
//! those datasets cannot be redistributed here, so [`DatasetKind`]
//! generates *shape-preserving synthetic counterparts*: degree-corrected
//! stochastic-block-model graphs with the paper's class counts and split
//! ratios, scaled down uniformly (see DESIGN.md §2 for the substitution
//! argument).

pub mod csr;
pub mod datasets;
pub mod io;
pub mod metrics;
pub mod mmap;
pub mod sampling;
pub mod splits;
pub mod stats;
pub mod subgraph;
pub mod synth;

pub use csr::CsrGraph;

/// Read access to an adjacency structure, satisfied both by the in-memory
/// [`CsrGraph`] and the out-of-core [`mmap::MmapDataset`]. Algorithms that
/// must run at paper scale (streaming partitioners, quality metrics, halo
/// discovery) are generic over this so they never force materialisation.
pub trait NeighborAccess {
    fn num_nodes(&self) -> usize;
    /// Sorted neighbor list of `v`.
    fn neighbors(&self, v: usize) -> &[u32];
    /// Directed adjacency entries (2× undirected edges).
    fn num_directed_edges(&self) -> usize;
}

impl NeighborAccess for CsrGraph {
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }
    fn neighbors(&self, v: usize) -> &[u32] {
        CsrGraph::neighbors(self, v)
    }
    fn num_directed_edges(&self) -> usize {
        CsrGraph::num_directed_edges(self)
    }
}

impl NeighborAccess for mmap::MmapDataset {
    fn num_nodes(&self) -> usize {
        mmap::MmapDataset::num_nodes(self)
    }
    fn neighbors(&self, v: usize) -> &[u32] {
        mmap::MmapDataset::neighbors(self, v)
    }
    fn num_directed_edges(&self) -> usize {
        mmap::MmapDataset::num_directed_edges(self)
    }
}
pub use datasets::{Dataset, DatasetKind};
pub use mmap::{save_mmap_dataset, write_mmap_dataset, Mmap, MmapDataset, MmapMeta, MmapWriter};
pub use sampling::{NeighborSampler, SampledSubgraph};
pub use splits::Splits;
pub use subgraph::InducedSubgraph;
pub use synth::SbmConfig;
