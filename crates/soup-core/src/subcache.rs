//! Bounded LRU memoisation of PLS epoch subgraphs.
//!
//! Every PLS epoch draws `R` of `K` partitions and rebuilds the induced
//! subgraph, its propagation operator, its gathered features/labels and its
//! local fit mask from scratch — yet only `binom(K, R)` distinct subsets
//! exist (§VI-B), and at practical bench settings (small `K`, many epochs)
//! the same subsets recur constantly. [`SubgraphCache`] keys prepared
//! epochs by [`soup_graph::subset_key`] (sorted, deduplicated), which is
//! valid because [`InducedSubgraph::from_partitions`] retains nodes in
//! global-id order regardless of the draw's permutation — any two draws of
//! the same subset produce bit-identical subgraphs.
//!
//! Each entry also carries a per-subgraph `PropCache`, so a cache hit
//! saves the subgraph construction, operator preparation, gathers *and* the
//! first-hop SpMM of that epoch's forward. The build of a fresh entry costs
//! exactly the SpMM the epoch's forward then consumes, so a miss is
//! net-neutral and `spmm_saved` counts hits only.

use crate::learned::EpochData;
use soup_graph::InducedSubgraph;

/// One fully prepared PLS epoch.
#[derive(Debug)]
pub(crate) struct SubgraphEntry {
    /// The induced partition-union subgraph the data was prepared from.
    /// Lives as long as the entry: its buffers are tracked memory, so
    /// releasing it earlier would move `peak_mem_bytes` (Fig. 4b).
    pub sub: InducedSubgraph,
    /// What `learned_step` consumes, in subgraph-local order.
    pub data: EpochData<'static>,
}

/// A bounded least-recently-used cache of [`SubgraphEntry`]s keyed by the
/// canonical partition subset. Capacity 0 disables memoisation: only the
/// current epoch's entry is held.
///
/// Lookups are O(capacity) linear scans — capacities are small (tens of
/// entries; sizing guidance vs. `binom(K, R)` in DESIGN.md §9), and each
/// entry holds megabytes, so pointer-chasing map structures buy nothing.
#[derive(Debug, Default)]
pub(crate) struct SubgraphCache {
    capacity: usize,
    /// Most-recently-used last.
    entries: Vec<(Vec<u32>, SubgraphEntry)>,
    /// Lookups served from memory — each one skipped a subgraph build and
    /// one SpMM.
    pub hits: usize,
}

impl SubgraphCache {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Look up the entry for `key` (a [`soup_graph::subset_key`] output),
    /// building and inserting it via `build` on a miss. With memoisation
    /// disabled every call builds, after freeing the previous epoch's
    /// entry — peak memory stays at one subgraph.
    pub fn get_or_insert_with(
        &mut self,
        key: Vec<u32>,
        build: impl FnOnce() -> SubgraphEntry,
    ) -> &SubgraphEntry {
        if self.capacity == 0 {
            self.entries.clear();
            self.entries.push((key, build()));
            return &self.entries[0].1;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            soup_obs::counter!("soup.pls.subgraph_cache_hits").inc();
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
        } else {
            soup_obs::counter!("soup.pls.subgraph_cache_misses").inc();
            if self.entries.len() >= self.capacity {
                self.entries.remove(0);
                soup_obs::counter!("soup.pls.subgraph_cache_evictions").inc();
            }
            self.entries.push((key, build()));
        }
        soup_obs::gauge!("soup.pls.subcache_occupancy").set(self.entries.len() as f64);
        &self.entries.last().expect("just pushed or promoted").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_gnn::cache::PropCache;
    use soup_gnn::model::PropOps;
    use soup_gnn::Arch;
    use soup_graph::CsrGraph;
    use soup_tensor::{SplitMix64, Tensor};

    fn entry_for(sub: InducedSubgraph, features: &Tensor, labels: &[u32]) -> SubgraphEntry {
        let ops = PropOps::prepare(Arch::Gcn, &sub.graph);
        let sub_x = sub.gather_features(features);
        let data = EpochData {
            prop: Some(PropCache::new(&ops, &sub_x)),
            ops,
            features: sub_x,
            labels: sub.gather_labels(labels).into(),
            mask: vec![0],
        };
        SubgraphEntry { sub, data }
    }

    fn setup() -> (CsrGraph, Tensor, Vec<u32>, Vec<u32>) {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut rng = SplitMix64::new(1);
        let x = Tensor::randn(6, 3, 1.0, &mut rng);
        let labels = vec![0u32, 1, 0, 1, 0, 1];
        let assignment = vec![0u32, 0, 1, 1, 2, 2];
        (g, x, labels, assignment)
    }

    #[test]
    fn hit_returns_same_entry_for_permuted_key() {
        let (g, x, labels, assignment) = setup();
        let mut cache = SubgraphCache::new(4);
        let build = |sel: &[u32]| {
            let sub = InducedSubgraph::from_partitions(&g, &assignment, sel);
            entry_for(sub, &x, &labels)
        };
        let first = cache
            .get_or_insert_with(soup_graph::subset_key(&[0, 1]), || build(&[0, 1]))
            .data
            .features
            .clone();
        let again = cache
            .get_or_insert_with(soup_graph::subset_key(&[1, 0]), || build(&[1, 0]))
            .data
            .features
            .clone();
        assert_eq!(first, again);
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.entries.len(), 1, "one miss, one build");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (g, x, labels, assignment) = setup();
        let mut cache = SubgraphCache::new(2);
        for sel in [&[0u32][..], &[1u32][..], &[0u32][..], &[2u32][..]] {
            cache.get_or_insert_with(soup_graph::subset_key(sel), || {
                let sub = InducedSubgraph::from_partitions(&g, &assignment, sel);
                entry_for(sub, &x, &labels)
            });
        }
        // [0] was refreshed before [2] arrived, so [1] got evicted.
        assert_eq!(cache.entries.len(), 2);
        cache.get_or_insert_with(soup_graph::subset_key(&[0]), || {
            panic!("[0] should still be cached")
        });
        assert_eq!(cache.hits, 2);
    }

    #[test]
    fn zero_capacity_holds_only_the_current_epoch() {
        let (g, x, labels, assignment) = setup();
        let mut cache = SubgraphCache::new(0);
        let mut builds = 0;
        for sel in [&[0u32][..], &[1u32][..], &[1u32][..]] {
            let entry = cache.get_or_insert_with(soup_graph::subset_key(sel), || {
                builds += 1;
                let sub = InducedSubgraph::from_partitions(&g, &assignment, sel);
                entry_for(sub, &x, &labels)
            });
            assert_eq!(entry.sub.local_to_global.len(), 2);
            assert_eq!(cache.entries.len(), 1);
        }
        assert_eq!(builds, 3, "a disabled cache never serves a repeat draw");
        assert_eq!(cache.hits, 0);
    }
}
