//! Out-of-core datasets: memory-mapped CSR + feature files.
//!
//! At paper scale (synthetic ogbn-products, 2.4M nodes) a materialised
//! [`Dataset`] no longer fits comfortably in one address space: the feature
//! matrix alone is `n × d × 4` bytes. This module stores the whole dataset
//! in a single flat file (`soup-graphmmap/1`) that processes map read-only
//! and share through the page cache — a shard worker that only dereferences
//! its own partition's rows only faults in its own partition's pages, which
//! is what makes the sharded-PLS ≈ R/K resident-set claim measurable
//! (DESIGN.md §12).
//!
//! ## File layout (`soup-graphmmap/1`, little-endian)
//!
//! ```text
//! header (112 B): magic "SOUPMMAP" | version u32 | crc32(header[16..]) u32
//!                 | n u64 | nnz u64 | feature_dim u64 | num_classes u64
//!                 | train_len u64 | val_len u64 | test_len u64 | reserved
//! sections (each 8-byte aligned, zero-padded, in this order):
//!   indptr   u64 × (n+1)      CSR row pointers
//!   indices  u32 × nnz        CSR column indices (strictly sorted per row)
//!   features f32 × n × d      row-major node features
//!   labels   u32 × n
//!   train    u32 × train_len  sorted split node ids
//!   val      u32 × val_len
//!   test     u32 × test_len
//! ```
//!
//! Files are written durably (tmp → fsync → rename → dir fsync) through
//! [`soup_store::write_durable_streamed`], and opening validates the same
//! CSR invariants as [`CsrGraph::validate`] — truncated or corrupted files
//! are rejected as `SoupError::Corrupt` before any graph math sees them.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use soup_error::SoupError;
use soup_tensor::Tensor;

use crate::csr::{validate_parts, CsrGraph};
use crate::datasets::Dataset;
use crate::splits::Splits;

type Result<T> = std::result::Result<T, SoupError>;

pub const MAGIC: &[u8; 8] = b"SOUPMMAP";
pub const VERSION: u32 = 1;
pub const HEADER_LEN: usize = 112;

// ---------------------------------------------------------------------------
// Read-only memory map (raw mmap(2); falls back to a heap read elsewhere)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::fd::AsRawFd;

    // Bind mmap/munmap directly: the workspace builds fully offline with no
    // libc crate, and std already links the platform libc that provides
    // these symbols on every unix target.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    // MAP_SHARED: every process mapping the same file shares one set of
    // physical pages — the "shared memory" that the shard halo fast path
    // reads through.
    const MAP_SHARED: i32 = 1;

    pub struct RawMap {
        ptr: *const u8,
        len: usize,
    }

    // Read-only mapping of an immutable (rename-published) file.
    unsafe impl Send for RawMap {}
    unsafe impl Sync for RawMap {}

    impl RawMap {
        pub fn map(file: &std::fs::File, len: usize) -> std::io::Result<Self> {
            if len == 0 {
                return Ok(Self {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for RawMap {
        fn drop(&mut self) {
            if self.len > 0 {
                unsafe {
                    munmap(self.ptr as *mut core::ffi::c_void, self.len);
                }
            }
        }
    }
}

/// A read-only byte view of a file: a true `mmap(2)` on unix, a plain heap
/// read elsewhere (correct, just without the out-of-core property).
pub struct Mmap {
    #[cfg(unix)]
    inner: sys::RawMap,
    #[cfg(not(unix))]
    inner: Vec<u8>,
}

impl Mmap {
    /// Map `path` read-only in its entirety.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| SoupError::io_at(path, e))?;
        let len = file
            .metadata()
            .map_err(|e| SoupError::io_at(path, e))?
            .len();
        if len > usize::MAX as u64 {
            return Err(SoupError::corrupt(format!(
                "mmap: {} is larger than the address space",
                path.display()
            )));
        }
        #[cfg(unix)]
        {
            let inner =
                sys::RawMap::map(&file, len as usize).map_err(|e| SoupError::io_at(path, e))?;
            Ok(Self { inner })
        }
        #[cfg(not(unix))]
        {
            let inner = std::fs::read(path).map_err(|e| SoupError::io_at(path, e))?;
            Ok(Self { inner })
        }
    }

    pub fn bytes(&self) -> &[u8] {
        #[cfg(unix)]
        {
            self.inner.bytes()
        }
        #[cfg(not(unix))]
        {
            &self.inner
        }
    }

    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Typed section views
// ---------------------------------------------------------------------------

/// View an 8-byte-aligned byte range as a `T` slice. Alignment holds by
/// construction: the mmap base is page-aligned and every section offset is
/// a multiple of 8 (checked again here defensively).
fn typed_slice<T: Copy>(bytes: &[u8], off: usize, count: usize) -> &[T] {
    let size = std::mem::size_of::<T>();
    let end = off + count * size;
    assert!(end <= bytes.len(), "section out of bounds");
    let ptr = bytes[off..].as_ptr();
    assert_eq!(
        ptr as usize % std::mem::align_of::<T>(),
        0,
        "misaligned section"
    );
    unsafe { std::slice::from_raw_parts(ptr as *const T, count) }
}

fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

#[derive(Debug, Clone, Copy)]
struct Layout {
    n: usize,
    nnz: usize,
    dim: usize,
    classes: usize,
    train_len: usize,
    val_len: usize,
    test_len: usize,
    off_indptr: usize,
    off_indices: usize,
    off_features: usize,
    off_labels: usize,
    off_train: usize,
    off_val: usize,
    off_test: usize,
    total_len: usize,
}

impl Layout {
    /// Section offsets for the declared counts; `None` when they overflow
    /// the address space (a header can declare any count).
    fn compute(
        n: usize,
        nnz: usize,
        dim: usize,
        classes: usize,
        train_len: usize,
        val_len: usize,
        test_len: usize,
    ) -> Option<Self> {
        // Offset of the section after one of `count` `size`-byte values
        // that starts at `off`.
        let next = |off: usize, count: usize, size: usize| {
            off.checked_add(count.checked_mul(size)?.checked_next_multiple_of(8)?)
        };
        let off_indptr = HEADER_LEN;
        let off_indices = next(off_indptr, n.checked_add(1)?, 8)?;
        let off_features = next(off_indices, nnz, 4)?;
        let off_labels = next(off_features, n.checked_mul(dim)?, 4)?;
        let off_train = next(off_labels, n, 4)?;
        let off_val = next(off_train, train_len, 4)?;
        let off_test = next(off_val, val_len, 4)?;
        let total_len = next(off_test, test_len, 4)?;
        Some(Self {
            n,
            nnz,
            dim,
            classes,
            train_len,
            val_len,
            test_len,
            off_indptr,
            off_indices,
            off_features,
            off_labels,
            off_train,
            off_val,
            off_test,
            total_len,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A memory-mapped `soup-graphmmap/1` dataset. Opening checks the header
/// (magic, version, crc) and the exact file length; [`Self::validate`] runs
/// the full [`CsrGraph::validate`] rules over the mapped CSR arrays.
///
/// All accessors return zero-copy views into the map — dereferencing a row
/// faults in only that row's pages.
pub struct MmapDataset {
    map: Mmap,
    layout: Layout,
}

impl std::fmt::Debug for MmapDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapDataset")
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

impl MmapDataset {
    /// Open and header-check `path`. Cheap: O(header), no section is read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        if cfg!(target_endian = "big") {
            return Err(SoupError::usage(
                "soup-graphmmap files are little-endian; big-endian hosts are unsupported",
            ));
        }
        let map = Mmap::open(path)?;
        let bytes = map.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(SoupError::corrupt(format!(
                "mmap dataset {}: {} bytes is shorter than the {HEADER_LEN}-byte header",
                path.display(),
                bytes.len()
            )));
        }
        if &bytes[0..8] != MAGIC {
            return Err(SoupError::corrupt(format!(
                "mmap dataset {}: bad magic",
                path.display()
            )));
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(SoupError::corrupt(format!(
                "mmap dataset {}: version {version}, expected {VERSION}",
                path.display()
            )));
        }
        let stored_crc = u32_at(12);
        let actual_crc = soup_store::crc::crc32(&bytes[16..HEADER_LEN]);
        if stored_crc != actual_crc {
            return Err(SoupError::corrupt(format!(
                "mmap dataset {}: header crc mismatch (stored {stored_crc:#x}, computed {actual_crc:#x})",
                path.display()
            )));
        }
        let as_usize = |v: u64, what: &str| -> Result<usize> {
            usize::try_from(v).map_err(|_| {
                SoupError::corrupt(format!("mmap dataset: {what} {v} overflows usize"))
            })
        };
        let n = as_usize(u64_at(16), "node count")?;
        let nnz = as_usize(u64_at(24), "nnz")?;
        let dim = as_usize(u64_at(32), "feature dim")?;
        let classes = as_usize(u64_at(40), "class count")?;
        let train_len = as_usize(u64_at(48), "train split length")?;
        let val_len = as_usize(u64_at(56), "val split length")?;
        let test_len = as_usize(u64_at(64), "test split length")?;
        let layout = Layout::compute(n, nnz, dim, classes, train_len, val_len, test_len)
            .ok_or_else(|| {
                SoupError::corrupt(format!(
                    "mmap dataset {}: section sizes overflow the address space",
                    path.display()
                ))
            })?;
        if bytes.len() != layout.total_len {
            return Err(SoupError::corrupt(format!(
                "mmap dataset {}: file is {} bytes, header implies {} (truncated or padded)",
                path.display(),
                bytes.len(),
                layout.total_len
            )));
        }
        Ok(Self { map, layout })
    }

    pub fn num_nodes(&self) -> usize {
        self.layout.n
    }

    pub fn num_directed_edges(&self) -> usize {
        self.layout.nnz
    }

    pub fn feature_dim(&self) -> usize {
        self.layout.dim
    }

    pub fn num_classes(&self) -> usize {
        self.layout.classes
    }

    /// CSR row pointers (u64 on disk).
    pub fn indptr(&self) -> &[u64] {
        typed_slice(self.map.bytes(), self.layout.off_indptr, self.layout.n + 1)
    }

    /// All CSR column indices.
    pub fn indices(&self) -> &[u32] {
        typed_slice(self.map.bytes(), self.layout.off_indices, self.layout.nnz)
    }

    /// Sorted neighbor list of `v` — touches only `v`'s index pages.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let ip = self.indptr();
        let (a, b) = (ip[v] as usize, ip[v + 1] as usize);
        &self.indices()[a..b]
    }

    /// Feature row of `v` — touches only `v`'s feature pages.
    pub fn feature_row(&self, v: usize) -> &[f32] {
        let base = self.layout.off_features + v * self.layout.dim * 4;
        typed_slice(self.map.bytes(), base, self.layout.dim)
    }

    pub fn labels(&self) -> &[u32] {
        typed_slice(self.map.bytes(), self.layout.off_labels, self.layout.n)
    }

    /// Sorted train split node ids.
    pub fn train_ids(&self) -> &[u32] {
        typed_slice(
            self.map.bytes(),
            self.layout.off_train,
            self.layout.train_len,
        )
    }

    /// Sorted val split node ids.
    pub fn val_ids(&self) -> &[u32] {
        typed_slice(self.map.bytes(), self.layout.off_val, self.layout.val_len)
    }

    /// Sorted test split node ids.
    pub fn test_ids(&self) -> &[u32] {
        typed_slice(self.map.bytes(), self.layout.off_test, self.layout.test_len)
    }

    /// Gather feature rows for `nodes` into a dense tensor (bitwise equal
    /// to the rows a materialised [`Dataset`] would hold).
    pub fn gather_features(&self, nodes: &[usize]) -> Tensor {
        let dim = self.layout.dim;
        let mut data = Vec::with_capacity(nodes.len() * dim);
        for &v in nodes {
            data.extend_from_slice(self.feature_row(v));
        }
        Tensor::from_vec(nodes.len(), dim, data)
    }

    /// Run the full CSR invariant checks ([`CsrGraph::validate`] rules) plus
    /// label/split range checks over the mapped sections.
    pub fn validate(&self) -> Result<()> {
        let n = self.layout.n;
        let indptr = self.indptr();
        // On 64-bit hosts a u64 section *is* a usize section; elsewhere,
        // fall back to a checked copy.
        #[cfg(target_pointer_width = "64")]
        let indptr_usize: std::borrow::Cow<'_, [usize]> = std::borrow::Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(indptr.as_ptr() as *const usize, indptr.len())
        });
        #[cfg(not(target_pointer_width = "64"))]
        let indptr_usize: std::borrow::Cow<'_, [usize]> = std::borrow::Cow::Owned(
            indptr
                .iter()
                .map(|&v| {
                    usize::try_from(v).expect("indptr value overflows usize on this platform")
                })
                .collect(),
        );
        validate_parts(n, &indptr_usize, self.indices())?;
        let classes = self.layout.classes as u32;
        if let Some(pos) = self.labels().iter().position(|&l| l >= classes) {
            return Err(SoupError::corrupt(format!(
                "mmap dataset: label {} at node {pos} out of range for {classes} classes",
                self.labels()[pos]
            )));
        }
        for (name, ids) in [
            ("train", self.train_ids()),
            ("val", self.val_ids()),
            ("test", self.test_ids()),
        ] {
            if ids.iter().any(|&v| v as usize >= n) {
                return Err(SoupError::corrupt(format!(
                    "mmap dataset: {name} split id out of range for {n} nodes"
                )));
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SoupError::corrupt(format!(
                    "mmap dataset: {name} split ids not strictly sorted"
                )));
            }
        }
        Ok(())
    }

    /// Fully materialise into an in-memory [`Dataset`] (feature bytes are
    /// copied verbatim — bitwise round-trip with [`save_mmap_dataset`]).
    pub fn load(&self) -> Result<Dataset> {
        let n = self.layout.n;
        self.validate()?;
        let indptr: Vec<usize> = self.indptr().iter().map(|&v| v as usize).collect();
        let graph = CsrGraph::from_raw_parts(n, indptr, self.indices().to_vec())?;
        let features = Tensor::from_vec(n, self.layout.dim, {
            let all: &[f32] = typed_slice(
                self.map.bytes(),
                self.layout.off_features,
                n * self.layout.dim,
            );
            all.to_vec()
        });
        let to_usize = |ids: &[u32]| ids.iter().map(|&v| v as usize).collect::<Vec<_>>();
        let splits = Splits {
            train: to_usize(self.train_ids()),
            val: to_usize(self.val_ids()),
            test: to_usize(self.test_ids()),
        };
        Ok(Dataset::from_parts(
            graph,
            features,
            self.labels().to_vec(),
            splits,
            self.layout.classes,
        ))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Shape declaration for a dataset about to be streamed to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmapMeta {
    pub n: usize,
    /// Directed adjacency entries (2× undirected edges).
    pub nnz: usize,
    pub feature_dim: usize,
    pub num_classes: usize,
    pub train_len: usize,
    pub val_len: usize,
    pub test_len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Indptr,
    Indices,
    Features,
    Labels,
    Train,
    Val,
    Test,
    Done,
}

/// Sequential section writer handed to the `fill` callback of
/// [`write_mmap_dataset`]. Values are pushed one at a time (buffered
/// underneath); sections must be filled in file order and the writer
/// enforces the exact counts declared in [`MmapMeta`], inserting alignment
/// padding at each section boundary.
pub struct MmapWriter<'w, 'f> {
    w: &'w mut std::io::BufWriter<&'f mut File>,
    layout: Layout,
    stage: Stage,
    in_stage: usize,
}

impl MmapWriter<'_, '_> {
    fn stage_quota(&self, stage: Stage) -> usize {
        match stage {
            Stage::Indptr => self.layout.n + 1,
            Stage::Indices => self.layout.nnz,
            Stage::Features => self.layout.n * self.layout.dim,
            Stage::Labels => self.layout.n,
            Stage::Train => self.layout.train_len,
            Stage::Val => self.layout.val_len,
            Stage::Test => self.layout.test_len,
            Stage::Done => 0,
        }
    }

    fn stage_elem_size(stage: Stage) -> usize {
        match stage {
            Stage::Indptr => 8,
            Stage::Indices | Stage::Labels | Stage::Train | Stage::Val | Stage::Test => 4,
            Stage::Features => 4,
            Stage::Done => 0,
        }
    }

    fn advance_to(&mut self, want: Stage) -> std::io::Result<()> {
        while self.stage < want {
            let quota = self.stage_quota(self.stage);
            assert_eq!(
                self.in_stage, quota,
                "mmap writer: section {:?} got {} values, declared {}",
                self.stage, self.in_stage, quota
            );
            let bytes = quota * Self::stage_elem_size(self.stage);
            let pad = pad8(bytes) - bytes;
            if pad > 0 {
                self.w.write_all(&[0u8; 8][..pad])?;
            }
            self.stage = match self.stage {
                Stage::Indptr => Stage::Indices,
                Stage::Indices => Stage::Features,
                Stage::Features => Stage::Labels,
                Stage::Labels => Stage::Train,
                Stage::Train => Stage::Val,
                Stage::Val => Stage::Test,
                Stage::Test => Stage::Done,
                Stage::Done => unreachable!(),
            };
            self.in_stage = 0;
        }
        assert_eq!(
            self.stage, want,
            "mmap writer: sections must be written in file order ({want:?} after {:?})",
            self.stage
        );
        Ok(())
    }

    fn put(&mut self, stage: Stage, bytes: &[u8]) -> std::io::Result<()> {
        self.advance_to(stage)?;
        assert!(
            self.in_stage < self.stage_quota(stage),
            "mmap writer: section {stage:?} overflow past {} values",
            self.stage_quota(stage)
        );
        self.in_stage += 1;
        self.w.write_all(bytes)
    }

    pub fn put_indptr(&mut self, v: u64) -> std::io::Result<()> {
        self.put(Stage::Indptr, &v.to_le_bytes())
    }

    pub fn put_index(&mut self, v: u32) -> std::io::Result<()> {
        self.put(Stage::Indices, &v.to_le_bytes())
    }

    pub fn put_feature(&mut self, v: f32) -> std::io::Result<()> {
        self.put(Stage::Features, &v.to_le_bytes())
    }

    /// Push a whole feature row at once.
    pub fn put_feature_row(&mut self, row: &[f32]) -> std::io::Result<()> {
        for &v in row {
            self.put_feature(v)?;
        }
        Ok(())
    }

    pub fn put_label(&mut self, v: u32) -> std::io::Result<()> {
        self.put(Stage::Labels, &v.to_le_bytes())
    }

    pub fn put_train_id(&mut self, v: u32) -> std::io::Result<()> {
        self.put(Stage::Train, &v.to_le_bytes())
    }

    pub fn put_val_id(&mut self, v: u32) -> std::io::Result<()> {
        self.put(Stage::Val, &v.to_le_bytes())
    }

    pub fn put_test_id(&mut self, v: u32) -> std::io::Result<()> {
        self.put(Stage::Test, &v.to_le_bytes())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.advance_to(Stage::Test)?;
        // Walk the final boundary too (writes trailing pad, checks count).
        let quota = self.stage_quota(Stage::Test);
        assert_eq!(
            self.in_stage, quota,
            "mmap writer: test split got {} values, declared {quota}",
            self.in_stage
        );
        let bytes = quota * 4;
        let pad = pad8(bytes) - bytes;
        if pad > 0 {
            self.w.write_all(&[0u8; 8][..pad])?;
        }
        self.stage = Stage::Done;
        Ok(())
    }
}

/// Stream a `soup-graphmmap/1` file to `path` durably. `fill` pushes every
/// section's values through the [`MmapWriter`]; counts are enforced against
/// `meta` and the file only becomes visible (rename) once fully written and
/// fsynced.
pub fn write_mmap_dataset(
    path: impl AsRef<Path>,
    meta: &MmapMeta,
    fill: impl FnOnce(&mut MmapWriter<'_, '_>) -> std::io::Result<()>,
) -> Result<()> {
    let layout = Layout::compute(
        meta.n,
        meta.nnz,
        meta.feature_dim,
        meta.num_classes,
        meta.train_len,
        meta.val_len,
        meta.test_len,
    )
    .ok_or_else(|| SoupError::usage("mmap writer: dataset sizes overflow the address space"))?;
    soup_store::write_durable_streamed(path, |w| {
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[16..24].copy_from_slice(&(meta.n as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(meta.nnz as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(meta.feature_dim as u64).to_le_bytes());
        header[40..48].copy_from_slice(&(meta.num_classes as u64).to_le_bytes());
        header[48..56].copy_from_slice(&(meta.train_len as u64).to_le_bytes());
        header[56..64].copy_from_slice(&(meta.val_len as u64).to_le_bytes());
        header[64..72].copy_from_slice(&(meta.test_len as u64).to_le_bytes());
        let crc = soup_store::crc::crc32(&header[16..HEADER_LEN]);
        header[12..16].copy_from_slice(&crc.to_le_bytes());
        w.write_all(&header)?;
        let mut mw = MmapWriter {
            w,
            layout,
            stage: Stage::Indptr,
            in_stage: 0,
        };
        fill(&mut mw)?;
        mw.finish()?;
        Ok(())
    })
}

/// Convert an in-memory [`Dataset`] to the mmap format (split ids are
/// sorted, as the format requires; everything else is bitwise-preserved).
pub fn save_mmap_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    let g = &dataset.graph;
    let sorted_u32 = |ids: &[usize]| {
        let mut v: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
        v.sort_unstable();
        v
    };
    let train = sorted_u32(&dataset.splits.train);
    let val = sorted_u32(&dataset.splits.val);
    let test = sorted_u32(&dataset.splits.test);
    let meta = MmapMeta {
        n: g.num_nodes(),
        nnz: g.num_directed_edges(),
        feature_dim: dataset.features.cols(),
        num_classes: dataset.num_classes,
        train_len: train.len(),
        val_len: val.len(),
        test_len: test.len(),
    };
    write_mmap_dataset(path, &meta, |w| {
        for &p in g.indptr() {
            w.put_indptr(p as u64)?;
        }
        for &c in g.indices() {
            w.put_index(c)?;
        }
        for v in 0..meta.n {
            w.put_feature_row(dataset.features.row(v))?;
        }
        for &l in &dataset.labels {
            w.put_label(l)?;
        }
        for &v in &train {
            w.put_train_id(v)?;
        }
        for &v in &val {
            w.put_val_id(v)?;
        }
        for &v in &test {
            w.put_test_id(v)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("soup-graph-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let d = DatasetKind::Flickr.generate_scaled(7, 0.02);
        let path = tmp("roundtrip.gmm");
        save_mmap_dataset(&d, &path).unwrap();
        let m = MmapDataset::open(&path).unwrap();
        m.validate().unwrap();
        assert_eq!(m.num_nodes(), d.num_nodes());
        assert_eq!(m.num_directed_edges(), d.graph.num_directed_edges());
        let back = m.load().unwrap();
        assert_eq!(back.graph.indptr(), d.graph.indptr());
        assert_eq!(back.graph.indices(), d.graph.indices());
        // Feature bytes preserved exactly (bitwise, not approximately).
        assert_eq!(back.features.data(), d.features.data());
        assert_eq!(back.labels, d.labels);
        assert_eq!(back.num_classes, d.num_classes);
        // Splits are sorted by the format; compare as sets.
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(d.splits.train.clone()), back.splits.train);
        assert_eq!(sorted(d.splits.val.clone()), back.splits.val);
        assert_eq!(sorted(d.splits.test.clone()), back.splits.test);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let d = DatasetKind::Flickr.generate_scaled(8, 0.02);
        let path = tmp("trunc.gmm");
        save_mmap_dataset(&d, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();
        let err = MmapDataset::open(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let d = DatasetKind::Flickr.generate_scaled(9, 0.02);
        let path = tmp("hdr.gmm");
        save_mmap_dataset(&d, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff; // flip a bit in the node count
        std::fs::write(&path, bytes).unwrap();
        let err = MmapDataset::open(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.to_string().contains("crc"), "{err}");
    }

    #[test]
    fn corrupt_indices_fail_validate() {
        let d = DatasetKind::Flickr.generate_scaled(10, 0.02);
        let path = tmp("idx.gmm");
        save_mmap_dataset(&d, &path).unwrap();
        let m = MmapDataset::open(&path).unwrap();
        let off = m.layout.off_indices;
        drop(m);
        let mut bytes = std::fs::read(&path).unwrap();
        // Out-of-range column index.
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let m = MmapDataset::open(&path).unwrap();
        let err = m.validate().unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    #[test]
    fn neighbor_and_feature_views_match_memory() {
        let d = DatasetKind::OgbnArxiv.generate_scaled(11, 0.01);
        let path = tmp("views.gmm");
        save_mmap_dataset(&d, &path).unwrap();
        let m = MmapDataset::open(&path).unwrap();
        for v in (0..d.num_nodes()).step_by(17) {
            assert_eq!(m.neighbors(v), d.graph.neighbors(v));
            assert_eq!(m.feature_row(v), d.features.row(v));
        }
        let nodes: Vec<usize> = (0..d.num_nodes()).step_by(13).collect();
        let g = m.gather_features(&nodes);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(g.row(i), d.features.row(v));
        }
    }
}
