//! GAT edge-softmax aggregation.
//!
//! Graph Attention Networks (Veličković et al., 2018) compute, per head
//! `h` and edge `u → v`:
//!
//! ```text
//! s_e  = aₗᵀ x_u + aᵣᵀ x_v          (split into per-node terms al, ar)
//! z_e  = LeakyReLU(s_e)
//! α_e  = softmax over the in-edges of v
//! out_v = Σ_{e: u→v} α_e · x_u
//! ```
//!
//! [`Tape::gat_aggregate`] fuses this into one traced op with a hand-derived
//! backward. The forward runs parallel over destination nodes; the backward
//! runs two passes — destination-parallel for the softmax/score gradients
//! (`∂L/∂ar`, per-edge `∂L/∂s`), then source-parallel over the transposed
//! edge index for the scatter gradients (`∂L/∂x`, `∂L/∂al`) — so neither
//! pass ever writes one output row from two threads. Each pass cuts its
//! rows into edge-balanced chunks on the fork-join pool
//! ([`crate::parallel`]); a row is computed the same way in any chunk, so
//! the result is bitwise independent of the thread count.

use crate::memory::MemGuard;
use crate::parallel::{self, split_at_cuts, BALANCED_CHUNKS, PAR_THRESHOLD};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::sync::Arc;

/// Row ranges for one pass over a prefix array (`in_ptr` or `out_ptr`):
/// edge-balanced chunks when the pass is big enough to fork, else one.
fn pass_bounds(ptr: &[usize], work: usize) -> Vec<usize> {
    let chunks = if work >= PAR_THRESHOLD {
        BALANCED_CHUNKS
    } else {
        1
    };
    parallel::balanced_bounds(ptr, chunks)
}

/// Edge connectivity prepared for attention: edges grouped by destination
/// (`in_*`, defining edge ids) plus the transposed grouping by source
/// (`out_*`) carrying the in-order edge id of each entry.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    inner: Arc<EdgeIndexInner>,
}

#[derive(Debug)]
struct EdgeIndexInner {
    n: usize,
    in_ptr: Vec<usize>,
    in_src: Vec<u32>,
    out_ptr: Vec<usize>,
    out_dst: Vec<u32>,
    out_eid: Vec<u32>,
    _mem: MemGuard,
}

impl EdgeIndex {
    /// Build from a directed edge list `(src, dst)`. Edge ids follow the
    /// destination-grouped order.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let m = edges.len();
        assert!(
            edges
                .iter()
                .all(|&(s, d)| (s as usize) < n && (d as usize) < n),
            "edge endpoint out of range"
        );
        // Group by dst.
        let mut in_ptr = vec![0usize; n + 1];
        for &(_, d) in edges {
            in_ptr[d as usize + 1] += 1;
        }
        for i in 0..n {
            in_ptr[i + 1] += in_ptr[i];
        }
        let mut in_src = vec![0u32; m];
        let mut cursor = in_ptr.clone();
        // Track (src, dst) per edge id for the transpose below.
        let mut eid_dst = vec![0u32; m];
        for &(s, d) in edges {
            let pos = cursor[d as usize];
            cursor[d as usize] += 1;
            in_src[pos] = s;
            eid_dst[pos] = d;
        }
        // Group by src, remembering edge ids.
        let mut out_ptr = vec![0usize; n + 1];
        for &s in &in_src {
            out_ptr[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_ptr[i + 1] += out_ptr[i];
        }
        let mut out_dst = vec![0u32; m];
        let mut out_eid = vec![0u32; m];
        let mut cursor = out_ptr.clone();
        for e in 0..m {
            let s = in_src[e] as usize;
            let pos = cursor[s];
            cursor[s] += 1;
            out_dst[pos] = eid_dst[e];
            out_eid[pos] = e as u32;
        }
        let bytes = (in_ptr.len() + out_ptr.len()) * std::mem::size_of::<usize>()
            + (in_src.len() + out_dst.len() + out_eid.len()) * std::mem::size_of::<u32>();
        Self {
            inner: Arc::new(EdgeIndexInner {
                n,
                in_ptr,
                in_src,
                out_ptr,
                out_dst,
                out_eid,
                _mem: MemGuard::new(bytes),
            }),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.inner.n
    }

    pub fn num_edges(&self) -> usize {
        self.inner.in_src.len()
    }

    /// In-edge sources of node `v` (defines edge-id order).
    pub fn in_edges(&self, v: usize) -> &[u32] {
        &self.inner.in_src[self.inner.in_ptr[v]..self.inner.in_ptr[v + 1]]
    }
}

impl Tape {
    /// Fused GAT aggregation. `x` is `(n, heads*dim)` with head-blocked
    /// columns; `al`/`ar` are `(n, heads)` pre-computed attention terms
    /// (`aₗᵀ x_u` and `aᵣᵀ x_v`). Returns `(n, heads*dim)`.
    ///
    /// Nodes with no in-edges produce zero rows; callers add self-loops.
    pub fn gat_aggregate(
        &self,
        idx: &EdgeIndex,
        x: Var,
        al: Var,
        ar: Var,
        heads: usize,
        slope: f32,
    ) -> Var {
        let xv = self.value(x);
        let alv = self.value(al);
        let arv = self.value(ar);
        let n = idx.num_nodes();
        let m = idx.num_edges();
        assert_eq!(xv.rows(), n, "x rows != node count");
        assert_eq!(alv.rows(), n, "al rows != node count");
        assert_eq!(arv.rows(), n, "ar rows != node count");
        assert_eq!(alv.cols(), heads, "al cols != heads");
        assert_eq!(arv.cols(), heads, "ar cols != heads");
        assert!(
            heads > 0 && xv.cols().is_multiple_of(heads),
            "x cols {} not divisible by heads {heads}",
            xv.cols()
        );
        let dim = xv.cols() / heads;
        soup_obs::counter!("tensor.attention.calls").inc();
        soup_obs::counter!("tensor.attention.edges").add((m * heads) as u64);
        soup_obs::counter!("tensor.attention.bytes")
            .add(((m * heads * 2 + n * heads * (dim + 2)) * 4) as u64);

        // Forward: per-dst softmax + weighted sum. Stored for backward:
        // raw scores s and attention weights alpha, both (m, heads).
        let mut s_buf = crate::pool::take_zeroed(m * heads);
        let mut alpha_buf = crate::pool::take_zeroed(m * heads);
        let mut out = crate::pool::take_zeroed(n * heads * dim);

        let inner = idx.inner.clone();
        {
            let xs = xv.data();
            let als = alv.data();
            let ars = arv.data();
            // Destination-parallel: each chunk owns a range of destination
            // rows of `out` and their in-edge runs of `s` and `alpha`.
            let bounds = pass_bounds(&inner.in_ptr, m * heads * dim);
            let edge_cut = |&v: &usize| inner.in_ptr[v] * heads;
            let chunks = split_at_cuts(&mut out, bounds.iter().map(|&v| v * heads * dim))
                .into_iter()
                .zip(split_at_cuts(&mut s_buf, bounds.iter().map(edge_cut)))
                .zip(split_at_cuts(&mut alpha_buf, bounds.iter().map(edge_cut)));
            parallel::for_each(chunks, |c, ((orows, s_run), alpha_run)| {
                let v0 = bounds[c];
                let e_base = inner.in_ptr[v0];
                for v in v0..bounds[c + 1] {
                    let e0 = inner.in_ptr[v];
                    let deg = inner.in_ptr[v + 1] - e0;
                    if deg == 0 {
                        continue;
                    }
                    let orow = &mut orows[(v - v0) * heads * dim..(v - v0 + 1) * heads * dim];
                    let edges = (e0 - e_base) * heads..(e0 - e_base + deg) * heads;
                    let s_v = &mut s_run[edges.clone()];
                    let alpha_v = &mut alpha_run[edges];
                    for h in 0..heads {
                        // Scores.
                        let mut maxz = f32::NEG_INFINITY;
                        for k in 0..deg {
                            let u = inner.in_src[e0 + k] as usize;
                            let s = als[u * heads + h] + ars[v * heads + h];
                            s_v[k * heads + h] = s;
                            let z = if s > 0.0 { s } else { slope * s };
                            maxz = maxz.max(z);
                        }
                        // Softmax over LeakyReLU(scores).
                        let mut total = 0.0f32;
                        for k in 0..deg {
                            let s = s_v[k * heads + h];
                            let z = if s > 0.0 { s } else { slope * s };
                            let e = (z - maxz).exp();
                            alpha_v[k * heads + h] = e;
                            total += e;
                        }
                        let inv = 1.0 / total;
                        // Weighted aggregation.
                        let od = &mut orow[h * dim..(h + 1) * dim];
                        for k in 0..deg {
                            let a = alpha_v[k * heads + h] * inv;
                            alpha_v[k * heads + h] = a;
                            let u = inner.in_src[e0 + k] as usize;
                            let xrow =
                                &xs[u * heads * dim + h * dim..u * heads * dim + (h + 1) * dim];
                            for (o, &xval) in od.iter_mut().zip(xrow) {
                                *o += a * xval;
                            }
                        }
                    }
                }
            });
        }

        let s_t = Tensor::from_vec(
            m.max(1),
            heads,
            if m == 0 { vec![0.0; heads] } else { s_buf },
        );
        let alpha_t = Tensor::from_vec(
            m.max(1),
            heads,
            if m == 0 { vec![0.0; heads] } else { alpha_buf },
        );
        let out_t = Tensor::from_vec(n, heads * dim, out);

        let idx_b = idx.clone();
        self.push_op(
            out_t,
            vec![x, al, ar],
            Box::new(move |g, parents, _| {
                soup_obs::counter!("tensor.attention.backward_calls").inc();
                let inner = &idx_b.inner;
                let n = inner.n;
                let m = inner.in_src.len();
                let xv = &parents[0];
                let gs = g.data();
                let xs = xv.data();
                let ss = s_t.data();
                let avs = alpha_t.data();
                let dim = xv.cols() / heads;

                // Pass 1: dst-parallel. Compute grad_s per edge and grad_ar.
                // `grad_s` is scratch that dies with this closure: a plain
                // allocation, since the pool would keep one idle per edge
                // count (every PLS subgraph has its own).
                let mut grad_s = vec![0.0f32; m * heads];
                let mut grad_ar = crate::pool::take_zeroed(n * heads);
                let bounds = pass_bounds(&inner.in_ptr, m * heads * dim);
                let edge_cut = |&v: &usize| inner.in_ptr[v] * heads;
                let chunks = split_at_cuts(&mut grad_ar, bounds.iter().map(|&v| v * heads))
                    .into_iter()
                    .zip(split_at_cuts(&mut grad_s, bounds.iter().map(edge_cut)));
                parallel::for_each(chunks, |c, (gar_rows, gs_run)| {
                    let (v0, v1) = (bounds[c], bounds[c + 1]);
                    let e_base = inner.in_ptr[v0];
                    // One ∂L/∂α scratch per chunk, reused by every
                    // (destination, head): each slot is written before it
                    // is read.
                    let max_deg = (v0..v1)
                        .map(|v| inner.in_ptr[v + 1] - inner.in_ptr[v])
                        .max()
                        .unwrap_or(0);
                    let mut galpha = vec![0.0f32; max_deg];
                    for v in v0..v1 {
                        let e0 = inner.in_ptr[v];
                        let deg = inner.in_ptr[v + 1] - e0;
                        if deg == 0 {
                            continue;
                        }
                        let gar_row = &mut gar_rows[(v - v0) * heads..(v - v0 + 1) * heads];
                        let gsv = &mut gs_run[(e0 - e_base) * heads..(e0 - e_base + deg) * heads];
                        for h in 0..heads {
                            let gv =
                                &gs[v * heads * dim + h * dim..v * heads * dim + (h + 1) * dim];
                            // grad wrt alpha, then softmax + leakyrelu backward.
                            let mut dot_sum = 0.0f32;
                            for k in 0..deg {
                                let u = inner.in_src[e0 + k] as usize;
                                let xrow =
                                    &xs[u * heads * dim + h * dim..u * heads * dim + (h + 1) * dim];
                                let ga: f32 = gv.iter().zip(xrow).map(|(&a, &b)| a * b).sum();
                                galpha[k] = ga;
                                dot_sum += ga * avs[(e0 + k) * heads + h];
                            }
                            let mut gar_acc = 0.0f32;
                            for k in 0..deg {
                                let a = avs[(e0 + k) * heads + h];
                                let gz = a * (galpha[k] - dot_sum);
                                let s = ss[(e0 + k) * heads + h];
                                let gsc = if s > 0.0 { gz } else { slope * gz };
                                gsv[k * heads + h] = gsc;
                                gar_acc += gsc;
                            }
                            gar_row[h] = gar_acc;
                        }
                    }
                });

                // Pass 2: src-parallel over the transposed index.
                let mut grad_x = crate::pool::take_zeroed(n * heads * dim);
                let mut grad_al = crate::pool::take_zeroed(n * heads);
                let bounds = pass_bounds(&inner.out_ptr, m * heads * dim);
                let chunks = split_at_cuts(&mut grad_x, bounds.iter().map(|&u| u * heads * dim))
                    .into_iter()
                    .zip(split_at_cuts(
                        &mut grad_al,
                        bounds.iter().map(|&u| u * heads),
                    ));
                parallel::for_each(chunks, |c, (gx_rows, gal_rows)| {
                    let u0 = bounds[c];
                    for u in u0..bounds[c + 1] {
                        let gx_row =
                            &mut gx_rows[(u - u0) * heads * dim..(u - u0 + 1) * heads * dim];
                        let gal_row = &mut gal_rows[(u - u0) * heads..(u - u0 + 1) * heads];
                        for p in inner.out_ptr[u]..inner.out_ptr[u + 1] {
                            let v = inner.out_dst[p] as usize;
                            let e = inner.out_eid[p] as usize;
                            for h in 0..heads {
                                let a = avs[e * heads + h];
                                let gv =
                                    &gs[v * heads * dim + h * dim..v * heads * dim + (h + 1) * dim];
                                let gxd = &mut gx_row[h * dim..(h + 1) * dim];
                                for (o, &gval) in gxd.iter_mut().zip(gv) {
                                    *o += a * gval;
                                }
                                gal_row[h] += grad_s[e * heads + h];
                            }
                        }
                    }
                });

                vec![
                    Some(Tensor::from_vec(n, heads * dim, grad_x)),
                    Some(Tensor::from_vec(n, heads, grad_al)),
                    Some(Tensor::from_vec(n, heads, grad_ar)),
                ]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::tape::gradcheck;

    /// Small graph: edges src→dst including self-loops.
    fn ring_with_loops(n: usize) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for v in 0..n as u32 {
            edges.push((v, v));
            edges.push(((v + 1) % n as u32, v));
            edges.push(((v + n as u32 - 1) % n as u32, v));
        }
        edges
    }

    #[test]
    fn edge_index_construction() {
        let edges = vec![(0u32, 1u32), (2, 1), (1, 0)];
        let idx = EdgeIndex::from_edges(3, &edges);
        assert_eq!(idx.num_nodes(), 3);
        assert_eq!(idx.num_edges(), 3);
        assert_eq!(idx.in_edges(1), &[0, 2]);
        assert_eq!(idx.in_edges(0), &[1]);
        assert_eq!(idx.in_edges(2), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        EdgeIndex::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn uniform_scores_average_neighbors() {
        // al = ar = 0 -> alpha uniform -> aggregation is a mean.
        let edges = vec![(0u32, 2u32), (1, 2)];
        let idx = EdgeIndex::from_edges(3, &edges);
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(3, 2, vec![2.0, 4.0, 6.0, 8.0, 0.0, 0.0]));
        let al = tape.constant(Tensor::zeros(3, 1));
        let ar = tape.constant(Tensor::zeros(3, 1));
        let y = tape.value(tape.gat_aggregate(&idx, x, al, ar, 1, 0.2));
        assert_eq!(y.row(2), &[4.0, 6.0]); // mean of rows 0 and 1
        assert_eq!(y.row(0), &[0.0, 0.0]); // no in-edges
    }

    #[test]
    fn attention_weights_sum_to_one_effect() {
        // Constant features: output equals the feature regardless of scores.
        let mut rng = SplitMix64::new(1);
        let edges = ring_with_loops(5);
        let idx = EdgeIndex::from_edges(5, &edges);
        let tape = Tape::new();
        let x = tape.constant(Tensor::full(5, 3, 7.0));
        let al = tape.constant(Tensor::randn(5, 1, 1.0, &mut rng));
        let ar = tape.constant(Tensor::randn(5, 1, 1.0, &mut rng));
        let y = tape.value(tape.gat_aggregate(&idx, x, al, ar, 1, 0.2));
        for r in 0..5 {
            for &v in y.row(r) {
                assert!((v - 7.0).abs() < 1e-4, "row {r} = {:?}", y.row(r));
            }
        }
    }

    #[test]
    fn multihead_blocks_are_independent() {
        // Head 1's scores must not affect head 0's output.
        let edges = vec![(0u32, 1u32), (1, 1)];
        let idx = EdgeIndex::from_edges(2, &edges);
        let x = Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let run = |ar_h1: f32| {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let al = tape.constant(Tensor::zeros(2, 2));
            let ar = tape.constant(Tensor::from_vec(2, 2, vec![0.0, ar_h1, 0.0, ar_h1]));
            tape.value(tape.gat_aggregate(&idx, xv, al, ar, 2, 0.2))
        };
        let a = run(0.0);
        let b = run(5.0);
        // Head 0 columns (0..2) identical; ar shifts are dst-constant so in
        // fact the whole output matches — check head-0 strictly.
        for r in 0..2 {
            assert!((a.get(r, 0) - b.get(r, 0)).abs() < 1e-5);
            assert!((a.get(r, 1) - b.get(r, 1)).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_all_inputs() {
        let mut rng = SplitMix64::new(2);
        let n = 6;
        let edges = ring_with_loops(n);
        let idx = EdgeIndex::from_edges(n, &edges);
        let heads = 2;
        let dim = 2;
        let x = Tensor::randn(n, heads * dim, 0.7, &mut rng);
        let al = Tensor::randn(n, heads, 0.7, &mut rng);
        let ar = Tensor::randn(n, heads, 0.7, &mut rng);
        let w = Tensor::randn(n, heads * dim, 1.0, &mut rng);
        gradcheck(
            &|t, v| {
                let y = t.gat_aggregate(&idx, v[0], v[1], v[2], heads, 0.2);
                let wc = t.constant(w.clone());
                t.sum(t.mul(y, wc))
            },
            &[x, al, ar],
            5e-3,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn deterministic_output() {
        let mut rng = SplitMix64::new(3);
        let n = 20;
        let edges = ring_with_loops(n);
        let idx = EdgeIndex::from_edges(n, &edges);
        let x = Tensor::randn(n, 8, 1.0, &mut rng);
        let al = Tensor::randn(n, 2, 1.0, &mut rng);
        let ar = Tensor::randn(n, 2, 1.0, &mut rng);
        let run = || {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let a = tape.constant(al.clone());
            let b = tape.constant(ar.clone());
            tape.value(tape.gat_aggregate(&idx, xv, a, b, 2, 0.2))
        };
        assert_eq!(run(), run());
    }
}
