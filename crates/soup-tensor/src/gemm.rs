//! Cache-blocked dense GEMM shared by `matmul`, `matmul_nt` and
//! `matmul_tn`.
//!
//! Structure follows the classic BLIS/faer decomposition (faer-rs is the
//! reference exemplar for this workspace):
//!
//! - an **MR×NR register-blocked microkernel** ([`MR`] = 4 rows × [`NR`] =
//!   8 columns of `f32` accumulators) whose inner loop is written so LLVM
//!   keeps the accumulator tile in vector registers and auto-vectorises the
//!   column dimension;
//! - **KC-depth panel packing**: both operands are repacked into
//!   microkernel-ready panels ([`KC`] elements deep) held in pooled
//!   workspaces, so the innermost loops read contiguous, transpose-free
//!   memory regardless of the operand's strides;
//! - **MC row-blocking**, parallel over row blocks ([`MC`] rows each) on
//!   the fork-join pool ([`crate::parallel`]) rather than over single
//!   rows: the packed B slab is shared read-only across all row blocks of
//!   a KC slab, which is where packing pays for itself (each B panel is
//!   reused `m / MC` times). B-panel packing itself also goes parallel on
//!   large slabs ([`gemm_views`]), so the pack phase does not serialise
//!   the threads that are about to consume the slab. Each row block packs
//!   its own A block, so a block's output never depends on which thread
//!   ran it.
//!
//! Operands arrive as borrowed strided views ([`MatRef`]): the packing
//! gathers read straight through `(row_stride, col_stride)`, so logical
//! transposes (`A·Bᵀ`, `Aᵀ·B`) and row/column slices feed the kernel with
//! zero copies. The legacy [`Layout`]-based [`gemm`] entry point wraps
//! [`gemm_views`] for callers holding plain slices.

use crate::parallel::{self, PAR_THRESHOLD};
use crate::pool::Workspace;
use crate::view::MatRef;

/// Microkernel rows: independent accumulator chains, enough to hide FMA
/// latency without spilling the accumulator tile out of registers.
pub const MR: usize = 4;
/// Microkernel columns: one or two SIMD vectors wide on SSE/AVX baselines.
pub const NR: usize = 8;
/// Panel depth: a KC×NR B panel (8 KiB) stays resident in L1 while a row
/// block streams over it.
pub const KC: usize = 256;
/// Rows per parallel block; an MC×KC A block (64 KiB) fits in L2 alongside
/// the B slab being streamed.
pub const MC: usize = 64;

/// Below this many multiply-adds the blocked path's packing overhead is not
/// worth it and drivers use the naive kernels directly.
pub const SMALL_GEMM_MACS: usize = 32 * 1024;

/// Storage orientation of an operand relative to its logical shape: a
/// logical `(r, c)` matrix is stored either row-major (`r*cols + c`) or as
/// its transpose (`c*rows + r`). Kept as a thin compatibility wrapper over
/// the strided-view entry point ([`gemm_views`]), which subsumes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    RowMajor,
    Transposed,
}

/// `out += A(m×k) · B(k×n)`, with `out` row-major `m×n` (caller zeroes it
/// for a plain product). `la`/`lb` give the storage orientation of the
/// logical operands. Thin wrapper building strided views for
/// [`gemm_views`].
#[allow(clippy::too_many_arguments)] // BLAS-style signature: dims + operands
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let av = match la {
        Layout::RowMajor => MatRef::from_row_major(a, m, k),
        Layout::Transposed => MatRef::from_row_major(a, k, m).transposed(),
    };
    let bv = match lb {
        Layout::RowMajor => MatRef::from_row_major(b, k, n),
        Layout::Transposed => MatRef::from_row_major(b, n, k).transposed(),
    };
    gemm_views(av, bv, out);
}

/// `out += A · B` where both operands are strided views; `out` is
/// row-major `a.rows() × b.cols()`. Strides are absorbed by the packing
/// gathers, so the microkernel (and therefore the result, bitwise) is
/// identical for every storage orientation of the inputs.
pub fn gemm_views(a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    debug_assert_eq!(k, b.rows(), "gemm_views inner dims");
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let n_panels = n.div_ceil(NR);
    let row_blocks = m.div_ceil(MC);
    let slabs = k.div_ceil(KC);
    soup_obs::counter!("tensor.matmul.packed_panels").add((n_panels * slabs) as u64);
    soup_obs::counter!("tensor.matmul.panel_reuse")
        .add((n_panels * slabs * row_blocks.saturating_sub(1)) as u64);
    let mut bpack = Workspace::scratch(n_panels * NR * KC.min(k));
    let parallel = m * n >= PAR_THRESHOLD && row_blocks > 1;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        // Pack the B slab in parallel when the slab itself is big enough
        // to amortise the fork: each chunk is a run of whole NR-column
        // panels, disjoint in the workspace, so the packed bytes are
        // identical to the serial gather.
        let pack_parallel = parallel && n_panels > 1 && kc * n >= PAR_THRESHOLD;
        if pack_parallel {
            soup_obs::counter!("tensor.matmul.parallel_packs").inc();
            let per_chunk = PAR_THRESHOLD.div_ceil(kc * NR);
            let panels = &mut bpack[..n_panels * kc * NR];
            parallel::for_each(panels.chunks_mut(per_chunk * kc * NR), |c, run| {
                for (i, panel) in run.chunks_exact_mut(kc * NR).enumerate() {
                    pack_b_panel(panel, b, c * per_chunk + i, pc, kc);
                }
            });
        } else {
            bpack
                .chunks_exact_mut(kc * NR)
                .take(n_panels)
                .enumerate()
                .for_each(|(jp, panel)| pack_b_panel(panel, b, jp, pc, kc));
        }
        let bpack = &*bpack;
        let row_block = |blk: usize, out_block: &mut [f32]| {
            let ic = blk * MC;
            let mc = MC.min(m - ic);
            let mut apack = Workspace::scratch(mc.div_ceil(MR) * MR * kc);
            pack_a(&mut apack, a, ic, mc, pc, kc);
            for jp in 0..n_panels {
                let jc = jp * NR;
                let nr = NR.min(n - jc);
                let bp = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                for ip in 0..mc.div_ceil(MR) {
                    let ir = ip * MR;
                    let mr = MR.min(mc - ir);
                    let ap = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    microkernel(ap, bp, &mut acc);
                    for (i, acc_row) in acc.iter().enumerate().take(mr) {
                        let orow = &mut out_block[(ir + i) * n + jc..(ir + i) * n + jc + nr];
                        for (o, &v) in orow.iter_mut().zip(acc_row) {
                            *o += v;
                        }
                    }
                }
            }
        };
        if parallel {
            parallel::for_each(out.chunks_mut(MC * n), row_block);
        } else {
            for (blk, out_block) in out.chunks_mut(MC * n).enumerate() {
                row_block(blk, out_block);
            }
        }
    }
}

/// The register-blocked inner kernel: `acc[MR][NR] += Ap · Bp` over a
/// packed depth of `ap.len() / MR` (== `bp.len() / NR`). Panels are padded
/// with zeros to full MR/NR width by the packers, so no edge handling
/// happens here — the loop body is branch-free and LLVM vectorises the
/// `NR`-wide accumulate.
#[inline(always)]
fn microkernel_body(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = a_col[i];
            for (j, acc_v) in acc_row.iter_mut().enumerate() {
                *acc_v += ai * b_row[j];
            }
        }
    }
}

/// Baseline-ISA compilation of [`microkernel_body`].
fn microkernel_generic(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    microkernel_body(ap, bp, acc);
}

/// [`microkernel_body`] compiled with AVX2 + FMA codegen: each accumulator
/// row becomes one 8-lane YMM register and the multiply-add fuses, roughly
/// doubling throughput over the baseline-ISA build. Selected at runtime by
/// [`crate::parallel::cpu_has_avx2_fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn microkernel_avx2(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    microkernel_body(ap, bp, acc);
}

#[inline(always)]
fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if crate::parallel::cpu_has_avx2_fma() {
        // SAFETY: the required target features were verified at runtime.
        unsafe { microkernel_avx2(ap, bp, acc) };
        return;
    }
    microkernel_generic(ap, bp, acc);
}

/// Pack the `mc`-row, `kc`-deep block of A starting at `(ic, pc)` into
/// MR-row panels: `apack[ip*kc*MR + kk*MR + i] = A(ic+ip*MR+i, pc+kk)`,
/// zero-padding rows past `mc` so the microkernel always sees full panels.
/// Reads through the view's strides: unit *row* stride (a transposed
/// row-major operand) packs with contiguous `copy_from_slice` runs, every
/// other geometry takes the generic strided gather.
fn pack_a(apack: &mut [f32], a: MatRef<'_>, ic: usize, mc: usize, pc: usize, kc: usize) {
    debug_assert!(ic + mc <= a.rows());
    debug_assert!(pc + kc <= a.cols());
    let src = a.raw();
    for (ip, panel) in apack.chunks_exact_mut(kc * MR).enumerate() {
        let row0 = ic + ip * MR;
        let mr = MR.min(mc.saturating_sub(ip * MR));
        if a.row_stride() == 1 {
            // Each depth step is a contiguous run of MR logical rows.
            for kk in 0..kc {
                let src_base = a.index(row0, pc + kk);
                let dst = &mut panel[kk * MR..kk * MR + MR];
                dst[..mr].copy_from_slice(&src[src_base..src_base + mr]);
                dst[mr..].fill(0.0);
            }
        } else {
            for kk in 0..kc {
                let dst = &mut panel[kk * MR..kk * MR + MR];
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = if i < mr {
                        src[a.index(row0 + i, pc + kk)]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Pack one NR-column, `kc`-deep panel of B starting at depth `pc`:
/// `panel[kk*NR + j] = B(pc+kk, jp*NR+j)`, zero-padding columns past
/// `b.cols()`. Unit *column* stride copies row-runs contiguously, unit
/// *row* stride copies depth-runs column by column, anything else gathers
/// element-wise — all three produce identical panel bytes.
fn pack_b_panel(panel: &mut [f32], b: MatRef<'_>, jp: usize, pc: usize, kc: usize) {
    let n = b.cols();
    let col0 = jp * NR;
    let nr = NR.min(n - col0);
    let src = b.raw();
    if b.col_stride() == 1 {
        for kk in 0..kc {
            let src_base = b.index(pc + kk, col0);
            let dst = &mut panel[kk * NR..kk * NR + NR];
            dst[..nr].copy_from_slice(&src[src_base..src_base + nr]);
            dst[nr..].fill(0.0);
        }
    } else if b.row_stride() == 1 {
        for j in 0..NR {
            if j < nr {
                let src_base = b.index(pc, col0 + j);
                for kk in 0..kc {
                    panel[kk * NR + j] = src[src_base + kk];
                }
            } else {
                for kk in 0..kc {
                    panel[kk * NR + j] = 0.0;
                }
            }
        }
    } else {
        for kk in 0..kc {
            let dst = &mut panel[kk * NR..kk * NR + NR];
            for (j, d) in dst.iter_mut().enumerate() {
                *d = if j < nr {
                    src[b.index(pc + kk, col0 + j)]
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar triple-loop reference, independent of any packing logic.
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        la: Layout,
        b: &[f32],
        lb: Layout,
    ) -> Vec<f32> {
        let at = |i: usize, t: usize| match la {
            Layout::RowMajor => a[i * k + t],
            Layout::Transposed => a[t * m + i],
        };
        let bt = |t: usize, j: usize| match lb {
            Layout::RowMajor => b[t * n + j],
            Layout::Transposed => b[j * k + t],
        };
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for t in 0..k {
                    s += at(i, t) * bt(t, j);
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn check(m: usize, n: usize, k: usize, la: Layout, lb: Layout) {
        let mut rng = crate::rng::SplitMix64::new((m * 31 + n * 7 + k) as u64);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut out = vec![0.0f32; m * n];
        gemm(m, n, k, &a, la, &b, lb, &mut out);
        let expect = reference(m, n, k, &a, la, &b, lb);
        for (idx, (&got, &want)) in out.iter().zip(&expect).enumerate() {
            assert!(
                (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                "({m}x{n}x{k} {la:?}/{lb:?}) idx {idx}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn blocked_gemm_matches_reference_all_layouts() {
        for &(la, lb) in &[
            (Layout::RowMajor, Layout::RowMajor),
            (Layout::RowMajor, Layout::Transposed),
            (Layout::Transposed, Layout::RowMajor),
        ] {
            // Exercise exact-multiple and every remainder class of MR/NR/KC.
            check(MR * 3, NR * 2, KC, la, lb);
            check(MR * 3 + 1, NR * 2 + 3, KC + 5, la, lb);
            check(1, 1, 1, la, lb);
            check(1, NR + 1, 17, la, lb);
            check(MR + 2, 1, KC * 2 + 1, la, lb);
            check(65, 33, 70, la, lb);
        }
    }

    #[test]
    fn gemm_accumulates_into_out() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut out = vec![10.0f32; 4];
        gemm(
            2,
            2,
            2,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut out,
        );
        assert_eq!(out, vec![12.0; 4]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut out = vec![0.0f32; 0];
        gemm(
            0,
            0,
            0,
            &[],
            Layout::RowMajor,
            &[],
            Layout::RowMajor,
            &mut out,
        );
        let mut out = vec![7.0f32; 6];
        gemm(
            2,
            3,
            0,
            &[],
            Layout::RowMajor,
            &[],
            Layout::RowMajor,
            &mut out,
        );
        assert_eq!(out, vec![7.0; 6], "k=0 leaves out untouched");
    }

    #[test]
    fn strided_views_match_layout_wrapper_bitwise() {
        // A sliced, transposed view must produce exactly the bytes the
        // Layout-based entry produces for the equivalent dense operands.
        let (m, n, k) = (70, 40, KC + 9);
        let mut rng = crate::rng::SplitMix64::new(99);
        let big: Vec<f32> = (0..(m + 3) * (k + 5)).map(|_| rng.normal()).collect();
        let a = MatRef::from_row_major(&big, m + 3, k + 5)
            .slice_rows(2, 2 + m)
            .slice_cols(5, 5 + k);
        let b: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
        let bv = MatRef::from_row_major(&b, n, k).t();

        let mut out_view = vec![0.0f32; m * n];
        gemm_views(a, bv, &mut out_view);

        let a_dense: Vec<f32> = (0..m)
            .flat_map(|r| (0..k).map(move |c| (r, c)))
            .map(|(r, c)| a.get(r, c))
            .collect();
        let mut out_ref = vec![0.0f32; m * n];
        gemm(
            m,
            n,
            k,
            &a_dense,
            Layout::RowMajor,
            &b,
            Layout::Transposed,
            &mut out_ref,
        );
        assert_eq!(out_view, out_ref);
    }
}
