//! Weight-independent aggregation caching for Phase-2 souping loops.
//!
//! Every candidate evaluation in GIS (`N·g` forwards, §III-E) and every
//! LS/PLS epoch runs an eval-mode forward over the *same* graph and the
//! *same* node features — only the parameters change. But the first hop of
//! GCN/GraphSAGE/GIN applies a weight-independent propagation operator to
//! the raw features (`Â·X`, `D⁻¹A·X`, `A·X` respectively), so that one
//! large SpMM is identical across all candidates. [`PropCache`] computes it
//! once per (operator, features) pair and feeds it to
//! [`crate::model::forward`] as a tape constant.
//!
//! Bit-identity: [`soup_tensor::tape::Tape::spmm`]'s forward *is*
//! [`soup_tensor::ops::SparseMat::matvec_dense`], the very kernel the cache
//! calls at build time — a cache hit replays the exact bytes the uncached
//! forward would compute.
//!
//! GAT is the exception: its first hop is an attention-weighted aggregation
//! whose edge coefficients depend on the layer parameters (`Â` is not
//! weight-independent), so a GAT cache holds nothing and every forward
//! recomputes — see DESIGN.md §9.

use crate::model::PropOps;
use soup_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cached first-hop aggregation for one (propagation operator, features)
/// pair. `Sync`: one cache may be read by any number of evaluating threads.
#[derive(Debug)]
pub struct PropCache {
    /// The features the aggregation was computed from; cached evaluation
    /// entry points feed exactly this tensor into the forward, so the
    /// cached hop can never be paired with mismatched inputs.
    features: Tensor,
    /// `op · features`, or `None` for GAT (weight-dependent first hop).
    agg0: Option<Tensor>,
    /// SpMMs avoided so far (forwards that consumed the cached hop).
    hits: AtomicUsize,
}

impl PropCache {
    /// Build the cache: one SpMM for GCN/SAGE/GIN, nothing for GAT.
    pub fn new(ops: &PropOps, features: &Tensor) -> Self {
        let agg0 = ops.propagation().map(|m| {
            soup_obs::counter!("soup.cache.prop_builds").inc();
            m.matvec_dense(features)
        });
        Self {
            features: features.clone(),
            agg0,
            hits: AtomicUsize::new(0),
        }
    }

    /// The features this cache was built from.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The cached first-hop aggregation, when the architecture has one.
    pub fn cached_agg(&self) -> Option<&Tensor> {
        self.agg0.as_ref()
    }

    /// Record one avoided SpMM (called by the forward on a cache hit).
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        soup_obs::counter!("soup.cache.prop_hits").inc();
    }

    /// SpMMs avoided so far — the source of `SoupStats::spmm_saved`.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use soup_graph::CsrGraph;
    use soup_tensor::SplitMix64;

    fn setup(arch: Arch) -> (PropOps, Tensor) {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let mut rng = SplitMix64::new(1);
        let x = Tensor::randn(6, 4, 1.0, &mut rng);
        (PropOps::prepare(arch, &g), x)
    }

    #[test]
    fn cache_matches_direct_spmm_bitwise() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            let (ops, x) = setup(arch);
            let cache = PropCache::new(&ops, &x);
            let direct = match &ops {
                PropOps::Gcn(m) | PropOps::Sage(m) | PropOps::Gin(m) => m.matvec_dense(&x),
                PropOps::Gat(_) => unreachable!(),
            };
            assert_eq!(cache.cached_agg().unwrap(), &direct, "{arch:?}");
        }
    }

    #[test]
    fn gat_cache_is_empty() {
        let (ops, x) = setup(Arch::Gat);
        let cache = PropCache::new(&ops, &x);
        assert!(cache.cached_agg().is_none());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn hits_accumulate() {
        let (ops, x) = setup(Arch::Gcn);
        let cache = PropCache::new(&ops, &x);
        cache.record_hit();
        cache.record_hit();
        assert_eq!(cache.hits(), 2);
    }
}
