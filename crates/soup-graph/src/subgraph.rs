//! Induced subgraphs and partition-union subgraphs.
//!
//! Partition Learned Souping builds, per epoch, a subgraph from R randomly
//! selected partitions, "preserving the edges cut during partitioning to
//! retain the graph's structural integrity" (§III-C / Eq. 5). That is an
//! *induced* subgraph on the union of the selected partitions: any edge
//! whose both endpoints fall in selected partitions survives, including
//! edges that cross between two different selected partitions.
//!
//! PLS builds one such subgraph per epoch, gathers its features and labels,
//! and drops it; nothing keeps it past that epoch. Construction is therefore
//! on the per-epoch path, and filters the source graph's CSR rows directly
//! instead of re-sorting an edge list.

use crate::csr::CsrGraph;
use crate::splits::Splits;
use soup_tensor::Tensor;

/// A node-induced subgraph with bidirectional index maps.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The subgraph itself (local node ids `0..k`).
    pub graph: CsrGraph,
    /// `local_to_global[new] = old`.
    pub local_to_global: Vec<usize>,
    /// `global_to_local[old] = Some(new)` for retained nodes.
    pub global_to_local: Vec<Option<usize>>,
}

impl InducedSubgraph {
    /// Induce on an arbitrary node set (order defines local ids; duplicates
    /// are rejected).
    ///
    /// Builds the CSR rows directly: each retained node's neighbour row is
    /// filtered through `global_to_local` and remapped. Because the source
    /// graph is symmetric, deduplicated and loop-free, so is every induced
    /// row set; remapping keeps rows sorted whenever `nodes` ascends, so
    /// rows are only re-sorted for an arbitrary order.
    pub fn new(graph: &CsrGraph, nodes: &[usize]) -> Self {
        let n = graph.num_nodes();
        let mut global_to_local: Vec<Option<usize>> = vec![None; n];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < n, "node {old} out of range");
            assert!(global_to_local[old].is_none(), "duplicate node {old}");
            global_to_local[old] = Some(new);
        }
        let ascending = nodes.windows(2).all(|w| w[0] < w[1]);
        let mut indptr = Vec::with_capacity(nodes.len() + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(nodes.iter().map(|&v| graph.degree(v)).sum());
        for &old in nodes {
            let start = indices.len();
            let row = graph.neighbors(old).iter();
            indices.extend(row.filter_map(|&u| global_to_local[u as usize].map(|l| l as u32)));
            if !ascending {
                indices[start..].sort_unstable();
            }
            indptr.push(indices.len());
        }
        Self {
            graph: CsrGraph::from_parts_unchecked(nodes.len(), indptr, indices),
            local_to_global: nodes.to_vec(),
            global_to_local,
        }
    }

    /// Induce on the union of the partitions listed in `selected`, given a
    /// node→partition assignment. Cut edges between selected partitions are
    /// preserved (Eq. 5). Nodes are retained in global-id order, whatever
    /// the order of `selected`.
    pub fn from_partitions(graph: &CsrGraph, assignment: &[u32], selected: &[u32]) -> Self {
        assert_eq!(
            assignment.len(),
            graph.num_nodes(),
            "assignment length mismatch"
        );
        let nodes: Vec<usize> = (0..graph.num_nodes())
            .filter(|&v| selected.contains(&assignment[v]))
            .collect();
        Self::new(graph, &nodes)
    }

    /// Number of retained nodes.
    pub fn num_nodes(&self) -> usize {
        self.local_to_global.len()
    }

    /// Gather global node features into subgraph-local order.
    pub fn gather_features(&self, features: &Tensor) -> Tensor {
        features.gather_rows(&self.local_to_global)
    }

    /// Gather global labels into subgraph-local order.
    pub fn gather_labels(&self, labels: &[u32]) -> Vec<u32> {
        self.local_to_global.iter().map(|&v| labels[v]).collect()
    }

    /// Localise global splits onto the subgraph.
    pub fn localise_splits(&self, splits: &Splits) -> Splits {
        splits.localise(&self.global_to_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0-1-2-3-4 plus chord 0-4.
    fn path5() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    }

    #[test]
    fn induces_internal_edges_only() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 2); // 0-1, 1-2; chord to 4 cut
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(1, 2));
    }

    #[test]
    fn index_maps_are_inverse() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[4, 2, 0]);
        assert_eq!(sub.local_to_global, vec![4, 2, 0]);
        assert_eq!(sub.global_to_local[4], Some(0));
        assert_eq!(sub.global_to_local[2], Some(1));
        assert_eq!(sub.global_to_local[0], Some(2));
        assert_eq!(sub.global_to_local[1], None);
        // Edge 0-4 survives with local ids 2-0.
        assert!(sub.graph.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_nodes_panic() {
        InducedSubgraph::new(&path5(), &[0, 0]);
    }

    #[test]
    fn partition_union_preserves_cut_edges() {
        let g = path5();
        // Partitions: {0,1} / {2,3} / {4}.
        let assignment = vec![0u32, 0, 1, 1, 2];
        let sub = InducedSubgraph::from_partitions(&g, &assignment, &[0, 1]);
        assert_eq!(sub.num_nodes(), 4);
        // Edge 1-2 crosses partitions 0 and 1 but both are selected: kept.
        let l1 = sub.global_to_local[1].unwrap();
        let l2 = sub.global_to_local[2].unwrap();
        assert!(
            sub.graph.has_edge(l1, l2),
            "cut edge between selected partitions lost"
        );
        // Edges to node 4 (unselected) are dropped.
        assert_eq!(sub.graph.num_edges(), 3);
    }

    #[test]
    fn single_partition_has_no_cut_edges() {
        // The §VI-B observation: R=1 never uses cut edges.
        let g = path5();
        let assignment = vec![0u32, 0, 1, 1, 2];
        let sub = InducedSubgraph::from_partitions(&g, &assignment, &[1]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.graph.num_edges(), 1); // only 2-3 internal
    }

    #[test]
    fn gather_features_and_labels() {
        let g = path5();
        let feats = Tensor::from_vec(5, 2, (0..10).map(|x| x as f32).collect());
        let labels = vec![0u32, 1, 2, 3, 4];
        let sub = InducedSubgraph::new(&g, &[3, 1]);
        let f = sub.gather_features(&feats);
        assert_eq!(f.data(), &[6.0, 7.0, 2.0, 3.0]);
        assert_eq!(sub.gather_labels(&labels), vec![3, 1]);
    }

    #[test]
    fn localise_splits() {
        let g = path5();
        let splits = Splits {
            train: vec![0, 2],
            val: vec![1, 3],
            test: vec![4],
        };
        let sub = InducedSubgraph::new(&g, &[1, 2, 3]);
        let local = sub.localise_splits(&splits);
        assert_eq!(local.train, vec![1]); // node 2 -> local 1
        assert_eq!(local.val, vec![0, 2]); // nodes 1,3 -> local 0,2
        assert!(local.test.is_empty());
    }

    #[test]
    fn from_partitions_is_order_independent() {
        // Any permutation of the same subset yields a bit-identical
        // subgraph and index maps, so a PLS epoch depends only on which
        // partitions were drawn.
        let g = path5();
        let assignment = vec![0u32, 0, 1, 1, 2];
        let a = InducedSubgraph::from_partitions(&g, &assignment, &[0, 1]);
        let b = InducedSubgraph::from_partitions(&g, &assignment, &[1, 0]);
        assert_eq!(a.local_to_global, b.local_to_global);
        assert_eq!(a.global_to_local, b.global_to_local);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for v in 0..a.num_nodes() {
            assert_eq!(a.graph.neighbors(v), b.graph.neighbors(v));
        }
    }

    #[test]
    fn full_node_set_is_identity() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[0, 1, 2, 3, 4]);
        assert_eq!(sub.graph.num_edges(), g.num_edges());
        for v in 0..5 {
            assert_eq!(sub.global_to_local[v], Some(v));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use soup_tensor::SplitMix64;

        /// Reference build: collect each retained edge once, then let
        /// `from_edges` symmetrise, sort and deduplicate.
        fn reference(graph: &CsrGraph, nodes: &[usize]) -> CsrGraph {
            let mut local = vec![None; graph.num_nodes()];
            for (new, &old) in nodes.iter().enumerate() {
                local[old] = Some(new);
            }
            let mut edges = Vec::new();
            for (new, &old) in nodes.iter().enumerate() {
                for &u in graph.neighbors(old) {
                    if let Some(nu) = local[u as usize] {
                        if new < nu {
                            edges.push((new as u32, nu as u32));
                        }
                    }
                }
            }
            CsrGraph::from_edges(nodes.len(), &edges)
        }

        fn random_graph(rng: &mut SplitMix64, n: usize, m: usize) -> CsrGraph {
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.next_below(n) as u32, rng.next_below(n) as u32))
                .collect();
            CsrGraph::from_edges(n, &edges)
        }

        fn assert_matches_reference(graph: &CsrGraph, sub: &InducedSubgraph) {
            let want = reference(graph, &sub.local_to_global);
            assert_eq!(sub.graph.num_nodes(), want.num_nodes());
            assert_eq!(sub.graph.indptr(), want.indptr());
            assert_eq!(sub.graph.indices(), want.indices());
        }

        proptest! {
            #[test]
            fn direct_rows_match_edge_list_build(
                seed in 0u64..1000, n in 1usize..40, m in 0usize..120, k in 0usize..40
            ) {
                let mut rng = SplitMix64::new(seed);
                let g = random_graph(&mut rng, n, m);
                let mut nodes = rng.sample_indices(n, k.min(n));
                nodes.sort_unstable();
                assert_matches_reference(&g, &InducedSubgraph::new(&g, &nodes));
                rng.shuffle(&mut nodes);
                assert_matches_reference(&g, &InducedSubgraph::new(&g, &nodes));
            }

            #[test]
            fn partition_unions_match_edge_list_build(
                seed in 0u64..1000, n in 1usize..40, m in 0usize..120, k in 1usize..6
            ) {
                let mut rng = SplitMix64::new(seed);
                let g = random_graph(&mut rng, n, m);
                let assignment: Vec<u32> = (0..n).map(|_| rng.next_below(k) as u32).collect();
                let r = 1 + rng.next_below(k);
                let selected: Vec<u32> =
                    rng.sample_indices(k, r).into_iter().map(|p| p as u32).collect();
                let sub = InducedSubgraph::from_partitions(&g, &assignment, &selected);
                assert_matches_reference(&g, &sub);
            }
        }
    }
}
