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
//!   memory whichever way the operand is stored;
//! - **MC row-blocking**, parallel over row blocks ([`MC`] rows each) on
//!   the fork-join pool ([`crate::parallel`]) rather than over single
//!   rows: the packed B slab is shared read-only across all row blocks of
//!   a KC slab, which is where packing pays for itself (each B panel is
//!   reused `m / MC` times). B-panel packing itself also goes parallel on
//!   large slabs, so the pack phase does not serialise the threads that
//!   are about to consume the slab. Each row block packs its own A block,
//!   so a block's output never depends on which thread ran it.
//!
//! An operand (`Operand`) is a row-major buffer read either as stored or
//! as its transpose; the packers absorb the transpose, so `A·Bᵀ` and
//! `Aᵀ·B` never materialise one and the microkernel sees the same panel
//! bytes for either geometry.

use crate::parallel::{self, PAR_THRESHOLD};
use crate::pool::Workspace;

/// Microkernel rows: independent accumulator chains, enough to hide
/// multiply-add latency without spilling the accumulator tile out of
/// registers.
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

/// A logical `rows × cols` GEMM operand over a row-major buffer: element
/// `(r, c)` lives at `data[r * row_stride + c * col_stride]`. The two
/// constructors are the only geometries: the buffer as stored, or its
/// transpose.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> Operand<'a> {
    /// A row-major `rows × cols` buffer, read as stored.
    pub(crate) fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "operand {rows}x{cols} over {}",
            data.len()
        );
        Self {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// A row-major `rows × cols` buffer, read as its `cols × rows`
    /// transpose.
    pub(crate) fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self {
            rows: cols,
            cols: rows,
            row_stride: 1,
            col_stride: cols,
            ..Self::row_major(data, rows, cols)
        }
    }

    #[inline(always)]
    fn index(&self, r: usize, c: usize) -> usize {
        r * self.row_stride + c * self.col_stride
    }
}

/// `out += A · B`, with `out` row-major `a.rows × b.cols` (callers zero it
/// for a plain product). The packers absorb each operand's geometry, so
/// the microkernel (and therefore the result, bitwise) is the same for
/// either storage orientation of the inputs.
pub(crate) fn gemm(a: Operand<'_>, b: Operand<'_>, out: &mut [f32]) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows, "gemm inner dims");
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

/// [`microkernel_body`] compiled with AVX2 + FMA enabled: each accumulator
/// row becomes one 8-lane YMM register. The body still compiles to a
/// separate multiply and add per step, because Rust never contracts
/// `a * b + c` into a fused multiply-add; real FMAs would round
/// differently, so they wait for a declared numeric break (ROADMAP.md,
/// "GEMM at its roofline"). Selected at runtime by
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
/// A transposed operand (unit row stride) packs with contiguous
/// `copy_from_slice` runs; a row-major one gathers element-wise.
fn pack_a(apack: &mut [f32], a: Operand<'_>, ic: usize, mc: usize, pc: usize, kc: usize) {
    debug_assert!(ic + mc <= a.rows);
    debug_assert!(pc + kc <= a.cols);
    let src = a.data;
    for (ip, panel) in apack.chunks_exact_mut(kc * MR).enumerate() {
        let row0 = ic + ip * MR;
        let mr = MR.min(mc.saturating_sub(ip * MR));
        if a.row_stride == 1 {
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
/// `b.cols`. A row-major operand (unit column stride) copies row-runs
/// contiguously, a transposed one (unit row stride) copies depth-runs
/// column by column; both produce identical panel bytes.
fn pack_b_panel(panel: &mut [f32], b: Operand<'_>, jp: usize, pc: usize, kc: usize) {
    let col0 = jp * NR;
    let nr = NR.min(b.cols - col0);
    let src = b.data;
    if b.col_stride == 1 {
        for kk in 0..kc {
            let src_base = b.index(pc + kk, col0);
            let dst = &mut panel[kk * NR..kk * NR + NR];
            dst[..nr].copy_from_slice(&src[src_base..src_base + nr]);
            dst[nr..].fill(0.0);
        }
    } else {
        debug_assert_eq!(b.row_stride, 1);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Storage of a test operand: row-major as logically shaped, or the
    /// row-major buffer of its transpose.
    #[derive(Debug, Clone, Copy)]
    enum Store {
        RowMajor,
        Transposed,
    }

    /// The operand for a logical `rows × cols` matrix stored as `s`.
    fn operand(data: &[f32], rows: usize, cols: usize, s: Store) -> Operand<'_> {
        match s {
            Store::RowMajor => Operand::row_major(data, rows, cols),
            Store::Transposed => Operand::transposed(data, cols, rows),
        }
    }

    /// Scalar triple-loop reference, independent of any packing logic.
    fn reference(a: Operand<'_>, b: Operand<'_>) -> Vec<f32> {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for t in 0..k {
                    s += a.data[a.index(i, t)] * b.data[b.index(t, j)];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn check(m: usize, n: usize, k: usize, la: Store, lb: Store) {
        let mut rng = crate::rng::SplitMix64::new((m * 31 + n * 7 + k) as u64);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let (a, b) = (operand(&a, m, k, la), operand(&b, k, n, lb));
        let mut out = vec![0.0f32; m * n];
        gemm(a, b, &mut out);
        let expect = reference(a, b);
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
            (Store::RowMajor, Store::RowMajor),
            (Store::RowMajor, Store::Transposed),
            (Store::Transposed, Store::RowMajor),
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
        let ones = vec![1.0f32; 4];
        let mut out = vec![10.0f32; 4];
        let a = Operand::row_major(&ones, 2, 2);
        gemm(a, a, &mut out);
        assert_eq!(out, vec![12.0; 4]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut out = vec![0.0f32; 0];
        gemm(
            Operand::row_major(&[], 0, 0),
            Operand::row_major(&[], 0, 0),
            &mut out,
        );
        let mut out = vec![7.0f32; 6];
        let (a, b) = (Operand::row_major(&[], 2, 0), Operand::row_major(&[], 0, 3));
        gemm(a, b, &mut out);
        assert_eq!(out, vec![7.0; 6], "k=0 leaves out untouched");
    }

    #[test]
    #[should_panic(expected = "operand 3x4 over 10")]
    fn operand_checks_its_buffer_length() {
        let _ = Operand::transposed(&[0.0; 10], 3, 4);
    }

    /// Row-major copy of `src (rows × cols)` transposed to `cols × rows`.
    fn materialise_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols * rows)
            .map(|i| src[(i % rows) * cols + i / rows])
            .collect()
    }

    #[test]
    fn transposed_operands_match_materialised_transpose_bitwise() {
        // Each transposed pack branch must produce exactly the bytes its
        // row-major counterpart produces for the materialised transpose.
        let (m, n, k) = (70, 40, KC + 9);
        let mut rng = crate::rng::SplitMix64::new(99);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let (a_t, b_t) = (
            materialise_transpose(&a, m, k),
            materialise_transpose(&b, k, n),
        );
        let (a_rm, b_rm) = (Operand::row_major(&a, m, k), Operand::row_major(&b, k, n));
        let mut want = vec![0.0f32; m * n];
        gemm(a_rm, b_rm, &mut want);

        let mut got_ta = vec![0.0f32; m * n];
        gemm(Operand::transposed(&a_t, k, m), b_rm, &mut got_ta);
        assert_eq!(got_ta, want, "transposed A");

        let mut got_tb = vec![0.0f32; m * n];
        gemm(a_rm, Operand::transposed(&b_t, n, k), &mut got_tb);
        assert_eq!(got_tb, want, "transposed B");
    }
}
