//! Compressed-sparse-row graph storage and message-passing operators.
//!
//! A [`CsrGraph`] is an undirected simple graph stored as a symmetric CSR
//! adjacency (each undirected edge appears in both endpoint lists). From it
//! the three GNN architectures obtain their propagation operators:
//!
//! - [`CsrGraph::gcn_norm`] — `D̃^{-1/2} (A + I) D̃^{-1/2}` (Kipf & Welling),
//!   symmetric, so its SpMM backward reuses the forward arrays.
//! - [`CsrGraph::mean_agg`] — `D^{-1} A` row-normalised mean aggregation
//!   (GraphSAGE), asymmetric.
//! - [`CsrGraph::edge_index`] — directed edge list with self-loops for GAT
//!   edge-softmax attention.

use soup_error::SoupError;
use soup_tensor::memory::MemGuard;
use soup_tensor::ops::{EdgeIndex, SparseMat};
use std::sync::Arc;

#[derive(Debug)]
struct Inner {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    _mem: MemGuard,
}

/// Undirected simple graph in CSR form. Cheap to clone (`Arc`-shared).
#[derive(Debug, Clone)]
pub struct CsrGraph {
    inner: Arc<Inner>,
}

impl CsrGraph {
    /// Build from an undirected edge list. Self-loops and duplicate edges
    /// are removed; each surviving edge is stored in both directions.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut directed: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of {n} nodes"
            );
            if a == b {
                continue;
            }
            directed.push((a, b));
            directed.push((b, a));
        }
        directed.sort_unstable();
        directed.dedup();
        let mut indptr = vec![0usize; n + 1];
        for &(a, _) in &directed {
            indptr[a as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let indices = directed.iter().map(|&(_, b)| b).collect();
        Self::from_parts_unchecked(n, indptr, indices)
    }

    /// Build directly from CSR arrays, validating every invariant first —
    /// the ingestion path for graphs deserialized from untrusted storage.
    pub fn from_raw_parts(
        n: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
    ) -> Result<Self, SoupError> {
        validate_parts(n, &indptr, &indices)?;
        Ok(Self::from_parts_unchecked(n, indptr, indices))
    }

    /// Wrap CSR arrays the caller already knows to be symmetric, with
    /// sorted, deduplicated rows and no self-loops.
    pub(crate) fn from_parts_unchecked(n: usize, indptr: Vec<usize>, indices: Vec<u32>) -> Self {
        let bytes = indptr.len() * std::mem::size_of::<usize>()
            + indices.len() * std::mem::size_of::<u32>();
        Self {
            inner: Arc::new(Inner {
                n,
                indptr,
                indices,
                _mem: MemGuard::new(bytes),
            }),
        }
    }

    /// Check the CSR structural invariants: `indptr` length, monotonicity,
    /// nnz agreement, and column indices in range. Every violation is a
    /// [`SoupError::Corrupt`] — the graph came from damaged storage, not a
    /// programming error. Construction via [`Self::from_edges`] upholds
    /// these by design; load paths call this after deserializing.
    pub fn validate(&self) -> Result<(), SoupError> {
        validate_parts(self.inner.n, &self.inner.indptr, &self.inner.indices)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.n
    }

    /// Number of *directed* adjacency entries (2× undirected edge count).
    pub fn num_directed_edges(&self) -> usize {
        self.inner.indices.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.inner.indices.len() / 2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.inner.indptr[v + 1] - self.inner.indptr[v]
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.inner.indices[self.inner.indptr[v]..self.inner.indptr[v + 1]]
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.inner.n == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.inner.n as f64
        }
    }

    pub fn indptr(&self) -> &[usize] {
        &self.inner.indptr
    }

    pub fn indices(&self) -> &[u32] {
        &self.inner.indices
    }

    /// `true` if `(a, b)` is an edge (binary search).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// GCN propagation operator `D̃^{-1/2} (A + I) D̃^{-1/2}` where
    /// `D̃ = D + I`. Symmetric by construction.
    pub fn gcn_norm(&self) -> SparseMat {
        let n = self.inner.n;
        let inv_sqrt: Vec<f32> = (0..n)
            .map(|v| 1.0 / ((self.degree(v) + 1) as f32).sqrt())
            .collect();
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::with_capacity(self.num_directed_edges() + n);
        let mut values = Vec::with_capacity(self.num_directed_edges() + n);
        for v in 0..n {
            // Merge the self-loop into the sorted neighbor run so column
            // indices stay sorted.
            let mut inserted_self = false;
            for &u in self.neighbors(v) {
                if !inserted_self && (u as usize) >= v {
                    indices.push(v as u32);
                    values.push(inv_sqrt[v] * inv_sqrt[v]);
                    inserted_self = true;
                }
                indices.push(u);
                values.push(inv_sqrt[v] * inv_sqrt[u as usize]);
            }
            if !inserted_self {
                indices.push(v as u32);
                values.push(inv_sqrt[v] * inv_sqrt[v]);
            }
            indptr[v + 1] = indices.len();
        }
        SparseMat::new(n, n, indptr, indices, values, true)
    }

    /// GraphSAGE mean aggregation operator `D^{-1} A` (isolated nodes get a
    /// zero row; GraphSAGE then falls back to the node's own features via
    /// the concatenated self term).
    pub fn mean_agg(&self) -> SparseMat {
        let n = self.inner.n;
        let mut values = Vec::with_capacity(self.num_directed_edges());
        for v in 0..n {
            let d = self.degree(v);
            let inv = if d == 0 { 0.0 } else { 1.0 / d as f32 };
            values.extend(std::iter::repeat_n(inv, d));
        }
        SparseMat::new(
            n,
            n,
            self.inner.indptr.clone(),
            self.inner.indices.clone(),
            values,
            false,
        )
    }

    /// GIN sum-aggregation operator: the plain (unnormalised) adjacency
    /// `A`, symmetric by construction.
    pub fn sum_agg(&self) -> SparseMat {
        let n = self.inner.n;
        SparseMat::new(
            n,
            n,
            self.inner.indptr.clone(),
            self.inner.indices.clone(),
            vec![1.0; self.num_directed_edges()],
            true,
        )
    }

    /// GAT edge index: all directed adjacency entries plus one self-loop
    /// per node (GAT conventionally attends over `N(v) ∪ {v}`).
    pub fn edge_index(&self) -> EdgeIndex {
        let mut edges = Vec::with_capacity(self.num_directed_edges() + self.inner.n);
        for v in 0..self.inner.n {
            edges.push((v as u32, v as u32));
            for &u in self.neighbors(v) {
                edges.push((u, v as u32)); // message u -> v
            }
        }
        EdgeIndex::from_edges(self.inner.n, &edges)
    }

    /// Connected-component labels (BFS), used by partitioner tests and
    /// dataset sanity checks.
    pub fn components(&self) -> Vec<u32> {
        let n = self.inner.n;
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = next;
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for &u in self.neighbors(v) {
                    if comp[u as usize] == u32::MAX {
                        comp[u as usize] = next;
                        queue.push_back(u as usize);
                    }
                }
            }
            next += 1;
        }
        comp
    }
}

/// The invariant checks behind [`CsrGraph::validate`] /
/// [`CsrGraph::from_raw_parts`].
pub(crate) fn validate_parts(n: usize, indptr: &[usize], indices: &[u32]) -> Result<(), SoupError> {
    if indptr.len() != n + 1 {
        return Err(SoupError::corrupt(format!(
            "csr: row_ptr length {} != nodes + 1 ({})",
            indptr.len(),
            n + 1
        )));
    }
    if indptr[0] != 0 {
        return Err(SoupError::corrupt(format!(
            "csr: row_ptr[0] is {}, expected 0",
            indptr[0]
        )));
    }
    if let Some(v) = indptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(SoupError::corrupt(format!(
            "csr: row_ptr not monotone at node {v} ({} > {})",
            indptr[v],
            indptr[v + 1]
        )));
    }
    if indptr[n] != indices.len() {
        return Err(SoupError::corrupt(format!(
            "csr: row_ptr end {} != nnz {}",
            indptr[n],
            indices.len()
        )));
    }
    if let Some(pos) = indices.iter().position(|&c| c as usize >= n) {
        return Err(SoupError::corrupt(format!(
            "csr: column index {} at position {pos} out of range for {n} nodes",
            indices[pos]
        )));
    }
    // Sorted neighbor lists are part of the representation contract
    // (`has_edge` binary-searches them).
    for v in 0..n {
        let row = &indices[indptr[v]..indptr[v + 1]];
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SoupError::corrupt(format!(
                "csr: neighbor list of node {v} is not strictly sorted"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_tensor::Tensor;

    /// Triangle + pendant: 0-1, 1-2, 2-0, 2-3.
    fn small() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn validate_accepts_constructed_graphs() {
        small().validate().unwrap();
        CsrGraph::from_edges(0, &[]).validate().unwrap();
        CsrGraph::from_edges(3, &[]).validate().unwrap();
    }

    #[test]
    fn from_raw_parts_roundtrips() {
        let g = small();
        let back = CsrGraph::from_raw_parts(4, g.indptr().to_vec(), g.indices().to_vec()).unwrap();
        for v in 0..4 {
            assert_eq!(back.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn from_raw_parts_rejects_corruption() {
        let g = small();
        let indptr = g.indptr().to_vec();
        let indices = g.indices().to_vec();
        let cases: Vec<(&str, Vec<usize>, Vec<u32>)> = vec![
            (
                "row_ptr length",
                indptr[..indptr.len() - 1].to_vec(),
                indices.clone(),
            ),
            (
                "row_ptr not monotone",
                {
                    let mut p = indptr.clone();
                    p[2] = p[3] + 1;
                    p
                },
                indices.clone(),
            ),
            (
                "row_ptr end",
                indptr.clone(),
                indices[..indices.len() - 1].to_vec(),
            ),
            ("column index", indptr.clone(), {
                let mut c = indices.clone();
                c[0] = 99;
                c
            }),
            (
                "row_ptr[0]",
                {
                    let mut p = indptr.clone();
                    p[0] = 1;
                    p
                },
                indices.clone(),
            ),
            ("not strictly sorted", indptr.clone(), {
                // Node 2 has degree 3: reverse its list.
                let mut c = indices.clone();
                let (s, e) = (indptr[2], indptr[3]);
                c[s..e].reverse();
                c
            }),
        ];
        for (what, p, c) in cases {
            let err = CsrGraph::from_raw_parts(4, p, c).unwrap_err();
            assert_eq!(err.kind(), "corrupt", "{what}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn construction_basics() {
        let g = small();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_directed_edges(), 8);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn dedupe_and_self_loop_removal() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn gcn_norm_is_symmetric_with_unit_rows_on_regular_graph() {
        // 4-cycle: every node degree 2, so normalisation is uniform.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = g.gcn_norm();
        assert!(a.is_symmetric());
        assert!(a.is_value_symmetric());
        // Each row: self + 2 neighbors, all coefficient 1/3.
        let dense = a.to_dense();
        for r in 0..4 {
            let row_sum: f32 = dense.row(r).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5, "row {r} sums to {row_sum}");
        }
    }

    #[test]
    fn gcn_norm_columns_sorted() {
        let g = small();
        let a = g.gcn_norm();
        for v in 0..4 {
            let cols: Vec<u32> = a.indices()[a.indptr()[v]..a.indptr()[v + 1]].to_vec();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted, "row {v} columns not sorted");
        }
    }

    #[test]
    fn gcn_norm_includes_self_loops() {
        let g = small();
        let dense = g.gcn_norm().to_dense();
        for v in 0..4 {
            assert!(dense.get(v, v) > 0.0, "missing self-loop at {v}");
        }
    }

    #[test]
    fn mean_agg_averages_neighbors() {
        let g = small();
        let a = g.mean_agg();
        let x = Tensor::from_vec(4, 1, vec![10.0, 20.0, 30.0, 40.0]);
        let y = a.matvec_dense(&x);
        // Node 0 neighbors {1, 2} -> mean 25.
        assert!((y.get(0, 0) - 25.0).abs() < 1e-5);
        // Node 3 neighbor {2} -> 30.
        assert!((y.get(3, 0) - 30.0).abs() < 1e-5);
    }

    #[test]
    fn mean_agg_isolated_node_zero_row() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let y = g.mean_agg().matvec_dense(&Tensor::ones(3, 2));
        assert_eq!(y.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn sum_agg_sums_neighbors() {
        let g = small();
        let a = g.sum_agg();
        assert!(a.is_symmetric());
        let x = Tensor::from_vec(4, 1, vec![10.0, 20.0, 30.0, 40.0]);
        let y = a.matvec_dense(&x);
        // Node 2 neighbors {0, 1, 3} -> 10+20+40.
        assert!((y.get(2, 0) - 70.0).abs() < 1e-5);
        // Node 3 neighbor {2} -> 30.
        assert!((y.get(3, 0) - 30.0).abs() < 1e-5);
    }

    #[test]
    fn edge_index_has_self_loops() {
        let g = small();
        let idx = g.edge_index();
        assert_eq!(idx.num_edges(), g.num_directed_edges() + 4);
        for v in 0..4 {
            assert!(
                idx.in_edges(v).contains(&(v as u32)),
                "node {v} missing self-loop"
            );
        }
    }

    #[test]
    fn components_counts() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let comp = g.components();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn clone_is_shallow() {
        let g = small();
        let h = g.clone();
        assert_eq!(g.indptr().as_ptr(), h.indptr().as_ptr());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use soup_tensor::SplitMix64;

        fn random_graph(seed: u64, n: usize, m: usize) -> CsrGraph {
            let mut rng = SplitMix64::new(seed);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.next_below(n) as u32, rng.next_below(n) as u32))
                .collect();
            CsrGraph::from_edges(n, &edges)
        }

        proptest! {
            #[test]
            fn adjacency_is_symmetric(seed in 0u64..500, n in 2usize..30, m in 0usize..60) {
                let g = random_graph(seed, n, m);
                for v in 0..n {
                    for &u in g.neighbors(v) {
                        prop_assert!(g.has_edge(u as usize, v), "asymmetric edge {v}-{u}");
                    }
                }
            }

            #[test]
            fn degree_sum_equals_directed_edges(seed in 0u64..500, n in 2usize..30, m in 0usize..60) {
                let g = random_graph(seed, n, m);
                let total: usize = (0..n).map(|v| g.degree(v)).sum();
                prop_assert_eq!(total, g.num_directed_edges());
            }

            #[test]
            fn gcn_norm_entries_match_degrees(seed in 0u64..200, n in 2usize..20, m in 0usize..40) {
                // Every entry must be exactly 1/sqrt(d̃_v d̃_u) at edge or
                // self-loop positions and zero elsewhere.
                let g = random_graph(seed, n, m);
                let dense = g.gcn_norm().to_dense();
                for v in 0..n {
                    for u in 0..n {
                        let expected = if v == u || g.has_edge(v, u) {
                            1.0 / (((g.degree(v) + 1) * (g.degree(u) + 1)) as f32).sqrt()
                        } else {
                            0.0
                        };
                        prop_assert!(
                            (dense.get(v, u) - expected).abs() < 1e-5,
                            "entry ({v},{u}) = {} expected {expected}", dense.get(v, u)
                        );
                    }
                }
            }

            #[test]
            fn validate_accepts_every_generated_graph(seed in 0u64..500, n in 2usize..30, m in 0usize..60) {
                let g = random_graph(seed, n, m);
                prop_assert!(g.validate().is_ok());
            }

            #[test]
            fn mutated_graphs_are_rejected(seed in 0u64..500, n in 2usize..30, m in 1usize..60, kind in 0u8..4) {
                let g = random_graph(seed, n, m);
                let mut indptr = g.indptr().to_vec();
                let mut indices = g.indices().to_vec();
                let nnz = indices.len();
                let applied = match kind {
                    // Out-of-range column index.
                    0 if nnz > 0 => { indices[seed as usize % nnz] = n as u32; true }
                    // Length/nnz mismatch: drop one index, keep row_ptr.
                    1 if nnz > 0 => { indices.pop(); true }
                    // Non-monotone (or end-mismatched) row_ptr.
                    2 => { indptr[1] = indptr[n] + 1; true }
                    // row_ptr does not start at zero.
                    3 => { indptr[0] = 1; true }
                    // Empty graph: index mutations not applicable.
                    _ => false,
                };
                if applied {
                    let err = CsrGraph::from_raw_parts(n, indptr, indices);
                    prop_assert!(err.is_err(), "mutation kind {kind} slipped through");
                    prop_assert_eq!(err.unwrap_err().kind(), "corrupt");
                }
            }

            #[test]
            fn mean_agg_row_sums_are_zero_or_one(seed in 0u64..200, n in 2usize..20, m in 0usize..40) {
                let g = random_graph(seed, n, m);
                let dense = g.mean_agg().to_dense();
                for r in 0..n {
                    let s: f32 = dense.row(r).iter().sum();
                    let ok = s.abs() < 1e-5 || (s - 1.0).abs() < 1e-5;
                    prop_assert!(ok, "row {r} sums to {s}");
                }
            }
        }
    }
}
