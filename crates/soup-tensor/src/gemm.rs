//! Cache-blocked dense GEMM shared by `matmul`, `matmul_nt` and
//! `matmul_tn`.
//!
//! Structure follows the classic BLIS/faer decomposition (faer-rs is the
//! reference exemplar for this workspace; the tile shape is Goto and van de
//! Geijn's, "Anatomy of High-Performance Matrix Multiplication"):
//!
//! - an **MR×NR register-blocked microkernel** ([`MR`] = 6 rows × [`NR`] =
//!   16 columns of `f32` accumulators, twelve 8-lane vectors) whose inner
//!   loop is written so LLVM keeps the accumulator tile in vector registers
//!   and auto-vectorises the column dimension. It writes its tile straight
//!   into the output: the first KC slab stores, later slabs add, so the
//!   output needs no zeroing beforehand;
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

/// Microkernel rows: each depth step broadcasts MR values of A.
pub const MR: usize = 6;
/// Microkernel columns: two 8-lane YMM vectors per row, so the MR×NR tile
/// is twelve accumulators, leaving two registers for the B row and one for
/// the broadcast.
pub const NR: usize = 16;
/// Panel depth: a KC×NR B panel (16 KiB) stays resident in L1 while a row
/// block streams over it.
pub const KC: usize = 256;
/// Rows per parallel block, a multiple of [`MR`]; an MC×KC A block (72 KiB)
/// fits in L2 alongside the B slab being streamed.
pub const MC: usize = 72;

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

/// `out = A · B`, with `out` row-major `a.rows × b.cols`; its prior
/// contents are never read, so callers pass scratch. The packers absorb
/// each operand's geometry, so the microkernel (and therefore the result,
/// bitwise) is the same for either storage orientation of the inputs.
pub(crate) fn gemm(a: Operand<'_>, b: Operand<'_>, out: &mut [f32]) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows, "gemm inner dims");
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
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
        // The first slab stores its tiles, later slabs add theirs.
        let first = pc == 0;
        let row_block = |blk: usize, out_block: &mut [f32]| {
            let ic = blk * MC;
            let mc = MC.min(m - ic);
            let mut apack = Workspace::scratch(mc.div_ceil(MR) * MR * kc);
            pack_a(&mut apack, a, ic, mc, pc, kc);
            for jp in 0..n_panels {
                let jc = jp * NR;
                let bp = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                for ip in 0..mc.div_ceil(MR) {
                    let ir = ip * MR;
                    let dst = TileDst {
                        ld: n,
                        rows: MR.min(mc - ir),
                        cols: NR.min(n - jc),
                        first,
                    };
                    let ap = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                    microkernel(ap, bp, &mut out_block[ir * n + jc..], dst);
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

/// Where a microkernel writes its tile: the top-left `rows × cols` of it,
/// into an output whose rows are `ld` apart. The first depth slab stores
/// the tile and later slabs add to what is there. A tile starts at +0.0
/// and so never holds −0.0, which makes the store bitwise equal to adding
/// the tile to a zeroed output.
#[derive(Clone, Copy)]
struct TileDst {
    ld: usize,
    rows: usize,
    cols: usize,
    first: bool,
}

/// The register-blocked inner kernel: `Ap · Bp` over a packed depth of
/// `ap.len() / MR` (== `bp.len() / NR`), accumulated from +0.0 in an
/// `MR × NR` tile and then written to `out` as `dst` says. Panels are
/// padded with zeros to full MR/NR width by the packers, so the depth
/// loop has no edge handling: each step broadcasts `MR` values of A
/// against one `NR`-wide row of B, one fused multiply-add per accumulator.
#[inline(always)]
fn microkernel_body(ap: &[f32], bp: &[f32], out: &mut [f32], dst: TileDst) {
    let mut acc = [[0.0f32; NR]; MR];
    for (a_col, b_row) in ap.as_chunks::<MR>().0.iter().zip(bp.as_chunks::<NR>().0) {
        for (acc_row, &ai) in acc.iter_mut().zip(a_col) {
            for (acc_v, &bj) in acc_row.iter_mut().zip(b_row) {
                *acc_v = ai.mul_add(bj, *acc_v);
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(dst.rows) {
        let orow = &mut out[i * dst.ld..];
        if dst.cols == NR {
            // Full width: a fixed-length row the vector registers cover.
            let orow: &mut [f32; NR] = (&mut orow[..NR]).try_into().unwrap();
            write_row(orow, acc_row, dst.first);
        } else {
            write_row(&mut orow[..dst.cols], acc_row, dst.first);
        }
    }
}

#[inline(always)]
fn write_row(orow: &mut [f32], acc_row: &[f32; NR], first: bool) {
    if first {
        orow.copy_from_slice(&acc_row[..orow.len()]);
    } else {
        for (o, &v) in orow.iter_mut().zip(acc_row) {
            *o += v;
        }
    }
}

/// Baseline-ISA compilation of [`microkernel_body`].
fn microkernel_generic(ap: &[f32], bp: &[f32], out: &mut [f32], dst: TileDst) {
    microkernel_body(ap, bp, out, dst);
}

/// [`microkernel_body`] compiled with AVX2 + FMA enabled: each
/// accumulator row becomes two 8-lane YMM registers, twelve in all, and a
/// depth step is 2 loads of B, 6 broadcasts of A and 12 `vfmadd231ps`,
/// with no spills. `f32::mul_add` rounds once, so this copy and the
/// baseline one (which calls libm's `fmaf`) agree bit for bit. Selected
/// at runtime by [`crate::parallel::cpu_has_avx2_fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn microkernel_avx2(ap: &[f32], bp: &[f32], out: &mut [f32], dst: TileDst) {
    microkernel_body(ap, bp, out, dst);
}

#[inline(always)]
fn microkernel(ap: &[f32], bp: &[f32], out: &mut [f32], dst: TileDst) {
    #[cfg(target_arch = "x86_64")]
    if crate::parallel::cpu_has_avx2_fma() {
        // SAFETY: the required target features were verified at runtime.
        unsafe { microkernel_avx2(ap, bp, out, dst) };
        return;
    }
    microkernel_generic(ap, bp, out, dst);
}

/// Pack the `mc`-row, `kc`-deep block of A starting at `(ic, pc)` into
/// MR-row panels: `apack[ip*kc*MR + kk*MR + i] = A(ic+ip*MR+i, pc+kk)`,
/// zero-padding rows past `mc` so the microkernel always sees full panels.
/// Full panels take a fixed-width path: for a transposed operand (unit row
/// stride) each depth step is one contiguous run of the block's rows,
/// copied MR at a time into every panel; for a row-major one each panel
/// interleaves its MR row slices. A partial last panel gathers element by
/// element.
fn pack_a(apack: &mut [f32], a: Operand<'_>, ic: usize, mc: usize, pc: usize, kc: usize) {
    debug_assert!(ic + mc <= a.rows);
    debug_assert!(pc + kc <= a.cols);
    let src = a.data;
    let full = mc / MR;
    let (full_panels, rest) = apack.split_at_mut(full * kc * MR);
    if a.row_stride == 1 {
        for kk in 0..kc {
            let run = &src[a.index(ic, pc + kk)..][..full * MR];
            let runs = run.as_chunks::<MR>().0;
            for (panel, rows) in full_panels.chunks_exact_mut(kc * MR).zip(runs) {
                panel.as_chunks_mut::<MR>().0[kk] = *rows;
            }
        }
    } else {
        for (ip, panel) in full_panels.chunks_exact_mut(kc * MR).enumerate() {
            let rows: [&[f32]; MR] = std::array::from_fn(|i| {
                let base = a.index(ic + ip * MR + i, pc);
                &src[base..base + kc]
            });
            let steps = &mut panel.as_chunks_mut::<MR>().0[..kc];
            for (kk, step) in steps.iter_mut().enumerate() {
                *step = std::array::from_fn(|i| rows[i][kk]);
            }
        }
    }
    let (row0, mr) = (ic + full * MR, mc - full * MR);
    for (kk, step) in rest.as_chunks_mut::<MR>().0.iter_mut().enumerate() {
        *step = std::array::from_fn(|i| {
            if i < mr {
                src[a.index(row0 + i, pc + kk)]
            } else {
                0.0
            }
        });
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
        let steps = panel.as_chunks_mut::<NR>().0.iter_mut().take(kc);
        for (kk, dst) in steps.enumerate() {
            let src_row = &src[b.index(pc + kk, col0)..];
            if nr == NR {
                *dst = src_row[..NR].try_into().unwrap();
            } else {
                dst[..nr].copy_from_slice(&src_row[..nr]);
                dst[nr..].fill(0.0);
            }
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
    fn gemm_overwrites_out() {
        // Two slabs deep, so the first slab's store and the second's add
        // both run over a dirty output.
        let (m, n, k) = (MR + 1, NR + 1, KC + 3);
        let ones = vec![1.0f32; m.max(n) * k];
        let mut out = vec![f32::NAN; m * n];
        let (a, b) = (
            Operand::row_major(&ones[..m * k], m, k),
            Operand::row_major(&ones[..k * n], k, n),
        );
        gemm(a, b, &mut out);
        assert_eq!(out, vec![k as f32; m * n]);
    }

    #[test]
    fn empty_dims_write_zeros() {
        let mut out = vec![0.0f32; 0];
        gemm(
            Operand::row_major(&[], 0, 0),
            Operand::row_major(&[], 0, 0),
            &mut out,
        );
        let mut out = vec![7.0f32; 6];
        let (a, b) = (Operand::row_major(&[], 2, 0), Operand::row_major(&[], 0, 3));
        gemm(a, b, &mut out);
        assert_eq!(out, vec![0.0; 6], "k=0 gives zeros");
    }

    /// The AVX2 + FMA copy of the microkernel and the baseline one agree
    /// bit for bit, on full and edge tiles, storing and adding.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_microkernel_matches_the_baseline_bitwise() {
        if !crate::parallel::cpu_has_avx2_fma() {
            eprintln!("no AVX2 + FMA on this CPU: only the baseline copy exists to run");
            return;
        }
        let kc = KC - 3;
        let mut rng = crate::rng::SplitMix64::new(7);
        let ap: Vec<f32> = (0..kc * MR).map(|_| rng.normal()).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|_| rng.normal()).collect();
        let ld = NR + 5;
        for (rows, cols) in [(MR, NR), (MR - 1, NR - 3)] {
            for first in [true, false] {
                let dst = TileDst {
                    ld,
                    rows,
                    cols,
                    first,
                };
                let dirty: Vec<f32> = (0..MR * ld).map(|_| rng.normal()).collect();
                let (mut generic, mut avx2) = (dirty.clone(), dirty);
                microkernel_generic(&ap, &bp, &mut generic, dst);
                // SAFETY: the required target features were verified above.
                unsafe { microkernel_avx2(&ap, &bp, &mut avx2, dst) };
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&generic), bits(&avx2), "{rows}x{cols} first={first}");
            }
        }
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
