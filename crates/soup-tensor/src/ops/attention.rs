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
//! backward, and keeps only `α` for it. The forward walks each
//! destination's in-edges for every head at once (max, `exp` with totals,
//! scale), then per head sums `Σ α·x_u` in a tile and stores the row once.
//! Backward pass 1, per destination and head, turns `∂L/∂α` into a per-edge
//! `∂L/∂s` and `∂L/∂ar`, recomputing a raw score as `al + ar`. Pass 2, per
//! source over the transposed index, sums `∂L/∂x` in a tile and `∂L/∂al`.
//! Every sum runs in edge order per (row, head), so the bits do not depend
//! on where a partial sum lives (`tests/gat_kernel.rs` pins them; DESIGN.md
//! §8 has the details). Each pass cuts its rows into edge-balanced chunks
//! on the fork-join pool ([`crate::parallel`]) and no row is written by two
//! threads, so the result is bitwise independent of the thread count.

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

/// Widest head slice a register tile holds; a wider head runs in slices.
const TILE: usize = 64;

/// The terms `(w_t, at_t)` of a weighted sum of `src` rows.
trait Terms: Iterator<Item = (f32, usize)> + Clone {}
impl<T: Iterator<Item = (f32, usize)> + Clone> Terms for T {}

/// `out[..dim] = Σ_t w_t · src[at_t..at_t + dim]`, summed in `t` order in
/// a tile and stored once. The common head widths fold to constants in the
/// one body below, so their tile lives in registers.
fn weighted_sum(out: &mut [f32], src: &[f32], terms: impl Terms, dim: usize) {
    match dim {
        8 => tile_sum(out, src, terms, 8),
        16 => tile_sum(out, src, terms, 16),
        d => tile_sum(out, src, terms, d),
    }
}

/// The body of [`weighted_sum`], inlined into each arm of its `match`.
#[inline(always)]
fn tile_sum(out: &mut [f32], src: &[f32], terms: impl Terms, dim: usize) {
    for j0 in (0..dim).step_by(TILE) {
        let width = (dim - j0).min(TILE);
        let mut tile = [0.0f32; TILE];
        let tile = &mut tile[..width];
        for (w, at) in terms.clone() {
            for (t, &x) in tile.iter_mut().zip(&src[at + j0..at + j0 + width]) {
                *t += w * x;
            }
        }
        out[j0..j0 + width].copy_from_slice(tile);
    }
}

/// What every row reads: `x`, `al`, the shape and the LeakyReLU slope. Row
/// work takes plain slices: read through a closure's captures, it ran slower.
#[derive(Clone, Copy)]
struct Layer<'a> {
    xs: &'a [f32],
    als: &'a [f32],
    heads: usize,
    dim: usize,
    slope: f32,
}

impl Layer<'_> {
    /// The raw score `al_u + ar` of head `h`, the forward's and backward's.
    fn score(&self, u: u32, ar: f32, h: usize) -> f32 {
        self.als[u as usize * self.heads + h] + ar
    }

    /// Forward of one destination with in-edges `srcs`: the softmax
    /// weights into `alpha` (edge-major, `heads` per edge), then per head
    /// the weighted sum into `out`. `st` is `2·heads` scratch.
    fn forward(self, srcs: &[u32], ar: &[f32], alpha: &mut [f32], st: &mut [f32], out: &mut [f32]) {
        let (heads, dim) = (self.heads, self.dim);
        let (maxz, total) = st.split_at_mut(heads);
        maxz.fill(f32::NEG_INFINITY);
        for (&u, a) in srcs.iter().zip(alpha.chunks_exact_mut(heads)) {
            for h in 0..heads {
                let s = self.score(u, ar[h], h);
                a[h] = if s > 0.0 { s } else { self.slope * s };
                maxz[h] = maxz[h].max(a[h]);
            }
        }
        total.fill(0.0);
        for a in alpha.chunks_exact_mut(heads) {
            for h in 0..heads {
                a[h] = (a[h] - maxz[h]).exp();
                total[h] += a[h];
            }
        }
        for t in total.iter_mut() {
            *t = 1.0 / *t;
        }
        for a in alpha.chunks_exact_mut(heads) {
            for h in 0..heads {
                a[h] *= total[h];
            }
        }
        for h in 0..heads {
            let terms = (srcs.iter().enumerate())
                .map(|(k, &u)| (alpha[k * heads + h], (u as usize * heads + h) * dim));
            weighted_sum(&mut out[h * dim..], self.xs, terms, dim);
        }
    }

    /// Backward pass 1 of one destination's head `h`: `∂L/∂α` by dot
    /// products of its output gradient `g` with the source rows, then the
    /// per-edge `∂L/∂s` into `gs`. Returns `∂L/∂ar`; `galpha` is scratch.
    fn score_grads(
        self,
        g: &[f32],
        srcs: &[u32],
        (ar, h): (f32, usize),
        alpha: &[f32],
        galpha: &mut [f32],
        gs: &mut [f32],
    ) -> f32 {
        let (heads, dim) = (self.heads, self.dim);
        let g = &g[..dim];
        let mut dot_sum = 0.0f32;
        for (k, &u) in srcs.iter().enumerate() {
            let xrow = &self.xs[(u as usize * heads + h) * dim..][..dim];
            let ga: f32 = g.iter().zip(xrow).map(|(&a, &b)| a * b).sum();
            galpha[k] = ga;
            dot_sum += ga * alpha[k * heads + h];
        }
        let mut gar = 0.0f32;
        for (k, &u) in srcs.iter().enumerate() {
            let gz = alpha[k * heads + h] * (galpha[k] - dot_sum);
            let s = self.score(u, ar, h);
            let gsc = if s > 0.0 { gz } else { self.slope * gz };
            gs[k * heads + h] = gsc;
            gar += gsc;
        }
        gar
    }
}

/// Backward pass 2 of one source with out-edges `(dst, eid)`, per head:
/// `∂L/∂x = Σ α·g_dst` into `gx` and `∂L/∂al = Σ ∂L/∂s` into `gal`, from
/// the per-edge `alpha` and `grad_s` and the output gradient `g`.
fn source_grads(
    (dsts, eids): (&[u32], &[u32]),
    (alpha, grad_s, g): (&[f32], &[f32], &[f32]),
    (gx, gal): (&mut [f32], &mut [f32]),
) {
    let (heads, dim) = (gal.len(), gx.len() / gal.len());
    let edges = (dsts.iter().zip(eids)).map(|(&v, &e)| (v as usize, e as usize));
    gal.fill(0.0);
    for (_, e) in edges.clone() {
        for (gal, &gs) in gal.iter_mut().zip(&grad_s[e * heads..][..heads]) {
            *gal += gs;
        }
    }
    for h in 0..heads {
        let terms = (edges.clone()).map(|(v, e)| (alpha[e * heads + h], (v * heads + h) * dim));
        weighted_sum(&mut gx[h * dim..], g, terms, dim);
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
        let hd = heads * dim;
        soup_obs::counter!("tensor.attention.calls").inc();
        soup_obs::counter!("tensor.attention.edges").add((m * heads) as u64);
        // The per-edge weights stored for the backward, the output rows and
        // the `al`/`ar` terms.
        soup_obs::counter!("tensor.attention.bytes")
            .add(((m * heads + n * heads * (dim + 2)) * 4) as u64);

        // Forward, destination-parallel: each chunk owns a range of rows of
        // `out` and their in-edge runs of `alpha`, the (m, heads) weights
        // kept for the backward. Every slot is written: no zero fill.
        let mut alpha_buf = crate::pool::take_scratch(m * heads);
        let mut out = crate::pool::take_scratch(n * hd);

        let inner = idx.inner.clone();
        let layer = Layer {
            xs: xv.data(),
            als: alv.data(),
            heads,
            dim,
            slope,
        };
        let ars = arv.data();
        let bounds = pass_bounds(&inner.in_ptr, m * hd);
        let chunks = split_at_cuts(&mut out, bounds.iter().map(|&v| v * hd))
            .into_iter()
            .zip(split_at_cuts(
                &mut alpha_buf,
                bounds.iter().map(|&v| inner.in_ptr[v] * heads),
            ));
        parallel::for_each(chunks, |c, (orows, alpha_run)| {
            let v0 = bounds[c];
            let e_base = inner.in_ptr[v0];
            let mut stat = vec![0.0f32; 2 * heads];
            for v in v0..bounds[c + 1] {
                let (e0, e1) = (inner.in_ptr[v], inner.in_ptr[v + 1]);
                let orow = &mut orows[(v - v0) * hd..(v - v0 + 1) * hd];
                if e0 == e1 {
                    orow.fill(0.0);
                    continue;
                }
                let alpha = &mut alpha_run[(e0 - e_base) * heads..(e1 - e_base) * heads];
                let ar = &ars[v * heads..(v + 1) * heads];
                layer.forward(&inner.in_src[e0..e1], ar, alpha, &mut stat, orow);
            }
        });

        let alpha_t = Tensor::from_vec(
            m.max(1),
            heads,
            if m == 0 { vec![0.0; heads] } else { alpha_buf },
        );
        let out_t = Tensor::from_vec(n, hd, out);

        let idx_b = idx.clone();
        self.push_op(
            out_t,
            vec![x, al, ar],
            Box::new(move |g, parents, _| {
                soup_obs::counter!("tensor.attention.backward_calls").inc();
                let inner = &idx_b.inner;
                let n = inner.n;
                let m = inner.in_src.len();
                let gs = g.data();
                let ars = parents[2].data();
                let avs = alpha_t.data();
                let layer = Layer {
                    xs: parents[0].data(),
                    als: parents[1].data(),
                    heads,
                    dim,
                    slope,
                };

                // Pass 1: dst-parallel. Compute grad_s per edge and grad_ar.
                // `grad_s` is scratch that dies with this closure: a plain
                // allocation, since the pool would keep one idle per edge
                // count (every PLS subgraph has its own).
                let mut grad_s = vec![0.0f32; m * heads];
                let mut grad_ar = crate::pool::take_scratch(n * heads);
                let bounds = pass_bounds(&inner.in_ptr, m * hd);
                let edge_cut = |&v: &usize| inner.in_ptr[v] * heads;
                let chunks = split_at_cuts(&mut grad_ar, bounds.iter().map(|&v| v * heads))
                    .into_iter()
                    .zip(split_at_cuts(&mut grad_s, bounds.iter().map(edge_cut)));
                parallel::for_each(chunks, |c, (gar_rows, gs_run)| {
                    let (v0, v1) = (bounds[c], bounds[c + 1]);
                    let e_base = inner.in_ptr[v0];
                    // ∂L/∂α scratch, grown to the chunk's largest in-degree:
                    // every slot is written before it is read.
                    let mut galpha = Vec::new();
                    for v in v0..v1 {
                        let (e0, e1) = (inner.in_ptr[v], inner.in_ptr[v + 1]);
                        galpha.resize(galpha.len().max(e1 - e0), 0.0);
                        let srcs = &inner.in_src[e0..e1];
                        let alpha = &avs[e0 * heads..e1 * heads];
                        let gsv = &mut gs_run[(e0 - e_base) * heads..(e1 - e_base) * heads];
                        let gar = &mut gar_rows[(v - v0) * heads..(v - v0 + 1) * heads];
                        for (h, gar) in gar.iter_mut().enumerate() {
                            let g = &gs[v * hd + h * dim..];
                            let ar = (ars[v * heads + h], h);
                            *gar = layer.score_grads(g, srcs, ar, alpha, &mut galpha, gsv);
                        }
                    }
                });

                // Pass 2: src-parallel over the transposed index.
                let mut grad_x = crate::pool::take_scratch(n * hd);
                let mut grad_al = crate::pool::take_scratch(n * heads);
                let bounds = pass_bounds(&inner.out_ptr, m * hd);
                let chunks = split_at_cuts(&mut grad_x, bounds.iter().map(|&u| u * hd))
                    .into_iter()
                    .zip(split_at_cuts(
                        &mut grad_al,
                        bounds.iter().map(|&u| u * heads),
                    ));
                parallel::for_each(chunks, |c, (gx_rows, gal_rows)| {
                    let u0 = bounds[c];
                    for u in u0..bounds[c + 1] {
                        let run = inner.out_ptr[u]..inner.out_ptr[u + 1];
                        let edges = (&inner.out_dst[run.clone()], &inner.out_eid[run]);
                        let gx = &mut gx_rows[(u - u0) * hd..(u - u0 + 1) * hd];
                        let gal = &mut gal_rows[(u - u0) * heads..(u - u0 + 1) * heads];
                        source_grads(edges, (avs, &grad_s, gs), (gx, gal));
                    }
                });

                vec![
                    Some(Tensor::from_vec(n, hd, grad_x)),
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
