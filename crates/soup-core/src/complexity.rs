//! The analytic cost model of §III-E.
//!
//! - GIS: `O(N · g · F_v)` — N ingredients, g interpolation ratios, one
//!   full-graph validation forward each.
//! - LS:  `O(e · (F_v + B_v))` — e epochs of one forward + one backward.
//! - PLS: `O(e · (R + F_v' + B_v'))` — partition selection is `O(R)` and
//!   the passes run on a subgraph holding ~`R/K` of the nodes.
//!
//! Outside this module only `tests/paper_claims.rs` uses the model; no
//! bench or experiment compares measured souping costs against it yet.

/// Cost of one full-graph validation forward pass, in arbitrary units
/// (e.g. measured seconds, or nnz-proportional work units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassCost {
    pub forward: f64,
    pub backward: f64,
}

impl PassCost {
    pub fn new(forward: f64, backward: f64) -> Self {
        assert!(
            forward >= 0.0 && backward >= 0.0,
            "costs must be non-negative"
        );
        Self { forward, backward }
    }

    /// Conventional estimate: a backward pass costs about twice a forward.
    pub fn from_forward(forward: f64) -> Self {
        Self::new(forward, 2.0 * forward)
    }
}

/// Predicted GIS cost: `N · g · F_v` (the seed evaluation is absorbed in
/// the constant).
pub fn gis_cost(num_ingredients: usize, granularity: usize, pass: PassCost) -> f64 {
    num_ingredients as f64 * granularity as f64 * pass.forward
}

/// Predicted LS cost: `e · (F_v + B_v)`.
pub fn ls_cost(epochs: usize, pass: PassCost) -> f64 {
    epochs as f64 * (pass.forward + pass.backward)
}

/// Predicted PLS cost: `e · (R·c_sel + F_v' + B_v')` where the subgraph
/// passes are scaled by the partition ratio `R/K` and `c_sel` is the
/// per-partition selection cost (negligible next to a pass; exposed for
/// completeness).
pub fn pls_cost(
    epochs: usize,
    budget: usize,
    num_partitions: usize,
    selection_unit: f64,
    pass: PassCost,
) -> f64 {
    assert!(budget <= num_partitions, "R must be <= K");
    let ratio = budget as f64 / num_partitions as f64;
    epochs as f64 * (budget as f64 * selection_unit + ratio * (pass.forward + pass.backward))
}

/// Predicted speedup of LS over GIS with matched settings.
pub fn predicted_ls_speedup(
    num_ingredients: usize,
    granularity: usize,
    epochs: usize,
    pass: PassCost,
) -> f64 {
    gis_cost(num_ingredients, granularity, pass) / ls_cost(epochs, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gis_scales_linearly_in_both_factors() {
        let p = PassCost::from_forward(1.0);
        assert_eq!(gis_cost(10, 20, p), 200.0);
        assert_eq!(gis_cost(20, 20, p), 2.0 * gis_cost(10, 20, p));
        assert_eq!(gis_cost(10, 40, p), 2.0 * gis_cost(10, 20, p));
    }

    #[test]
    fn ls_independent_of_ingredient_count() {
        // The paper's core scaling argument: LS cost has no N term.
        let p = PassCost::from_forward(1.0);
        assert_eq!(ls_cost(50, p), 150.0);
    }

    #[test]
    fn pls_cheaper_than_ls_by_partition_ratio() {
        let p = PassCost::from_forward(1.0);
        let ls = ls_cost(50, p);
        let pls = pls_cost(50, 8, 32, 0.0, p);
        assert!((pls / ls - 0.25).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_speedup_is_large() {
        // 50 ingredients × granularity 20 vs 50 LS epochs: the shape behind
        // Table III's order-of-magnitude gaps.
        let p = PassCost::from_forward(1.0);
        let s = predicted_ls_speedup(50, 20, 50, p);
        assert!(s > 5.0, "predicted speedup {s}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        PassCost::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "R must be")]
    fn pls_budget_check() {
        pls_cost(10, 9, 8, 0.0, PassCost::from_forward(1.0));
    }
}
