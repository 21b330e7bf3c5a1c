//! Workspace buffer pool: a thread-safe, size-bucketed free list for the
//! `Vec<f32>` buffers behind tensors and kernel workspaces.
//!
//! Training is shape-periodic: every epoch allocates the same set of
//! activation, gradient and packing buffers, drops them, and allocates them
//! again. Without a pool each kernel call pays a fresh heap allocation (and,
//! for large buffers, fresh page faults); with it, steady-state epochs
//! recycle the previous epoch's buffers and the hot path performs zero
//! fresh allocations.
//!
//! Design:
//! - **Exact-size buckets.** Buffers are keyed by their `Vec` capacity.
//!   Training workloads use a small, fixed set of shapes, so exact keys give
//!   perfect reuse with *zero over-allocation* — important because tensor
//!   memory accounting feeds the paper's Fig. 4b comparisons.
//! - **Minted bound.** Each bucket counts the buffers it *minted*: takes
//!   that missed and allocated fresh. [`put`] keeps a buffer only while its
//!   bucket holds fewer idle buffers than it minted; anything else — a
//!   vector the pool never handed out, an odd capacity, a surplus return —
//!   goes back to the allocator. So idle buffers of a size never exceed the
//!   most buffers of that size ever live at once, whatever callers hand
//!   back, and no knob sets the pool's size. The hot constructors
//!   (`Buf::zeros`/`full`/`Clone`, `Tensor::randn`/`rand_uniform`, the
//!   dropout mask, kernel outputs and workspaces) therefore take their
//!   buffers from the pool: a vector built outside it is usually refused on
//!   return, so it would cost a fresh allocation every time.
//! - **Separate accounting.** Bytes sitting idle in the pool are tracked in
//!   [`MemoryMeter`](crate::memory::MemoryMeter) via the `pooled` counter,
//!   *not* in `current` (live bytes): a pooled buffer is memory the process
//!   holds but no tensor owns. [`trim`] releases everything back to the
//!   allocator and forgets the minted counts, after which
//!   `DEVICE_MEMORY.pooled()` reads zero.
//! - **Observability.** `tensor.pool.hits` / `misses` / `returns` /
//!   `refused` / `bypass` counters and the `tensor.pool.idle_bytes` gauge
//!   expose pool behaviour; a steady-state epoch shows hits only.

use crate::memory::{MemGuard, DEVICE_MEMORY};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Buffers smaller than this (in elements) bypass the pool: the allocator
/// handles tiny blocks faster than a lock + hash probe.
const MIN_POOL_LEN: usize = 64;

/// The idle buffers of one exact capacity, and how many buffers of that
/// capacity the pool has minted since the last [`trim`].
#[derive(Debug, Default)]
struct Bucket {
    free: Vec<Vec<f32>>,
    minted: usize,
}

fn buckets() -> MutexGuard<'static, HashMap<usize, Bucket>> {
    static POOL: OnceLock<Mutex<HashMap<usize, Bucket>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn bytes_of_cap(cap: usize) -> usize {
    cap * std::mem::size_of::<f32>()
}

/// Pop an idle buffer with capacity exactly `len` (contents stale), or
/// return `None` after counting the fresh buffer the caller will mint.
fn draw(len: usize) -> Option<Vec<f32>> {
    if len < MIN_POOL_LEN {
        soup_obs::counter!("tensor.pool.bypass").inc();
        return None;
    }
    let mut map = buckets();
    let bucket = map.entry(len).or_default();
    let Some(v) = bucket.free.pop() else {
        bucket.minted += 1;
        soup_obs::counter!("tensor.pool.misses").inc();
        return None;
    };
    DEVICE_MEMORY.pool_sub(bytes_of_cap(v.capacity()));
    soup_obs::counter!("tensor.pool.hits").inc();
    soup_obs::gauge!("tensor.pool.idle_bytes").set(DEVICE_MEMORY.pooled() as f64);
    Some(v)
}

/// Take a zero-filled buffer of `len` elements (for accumulation outputs).
pub fn take_zeroed(len: usize) -> Vec<f32> {
    match draw(len) {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0; len],
    }
}

/// Take a buffer of `len` elements whose contents are arbitrary (but
/// initialised). For workspaces that overwrite every slot before reading —
/// packing buffers, `map`/`zip` outputs — this skips the zero fill.
pub fn take_scratch(len: usize) -> Vec<f32> {
    match draw(len) {
        Some(mut v) => {
            // Capacity equals `len` (the bucket key), so this only adjusts
            // the length; stale contents are deliberately kept.
            v.resize(len, 0.0);
            v.truncate(len);
            v
        }
        None => vec![0.0; len],
    }
}

/// Take a buffer initialised as a copy of `src` (one pass, no zero fill).
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    match draw(src.len()) {
        Some(mut v) => {
            v.clear();
            v.extend_from_slice(src);
            v
        }
        None => src.to_vec(),
    }
}

/// Return a buffer to the pool. It is kept only if its capacity's bucket
/// holds fewer idle buffers than it minted; otherwise (a tiny buffer, a
/// foreign or odd-capacity vector, a surplus return) it goes back to the
/// allocator. Called by `Buf::drop` and workspace drops.
pub fn put(v: Vec<f32>) {
    let cap = v.capacity();
    if cap < MIN_POOL_LEN {
        return;
    }
    let mut map = buckets();
    match map.get_mut(&cap) {
        Some(bucket) if bucket.free.len() < bucket.minted => {
            bucket.free.push(v);
            DEVICE_MEMORY.pool_add(bytes_of_cap(cap));
            soup_obs::counter!("tensor.pool.returns").inc();
            soup_obs::gauge!("tensor.pool.idle_bytes").set(DEVICE_MEMORY.pooled() as f64);
        }
        // The guard drops before `v`, so the deallocation runs unlocked.
        _ => soup_obs::counter!("tensor.pool.refused").inc(),
    }
}

/// Release every idle buffer back to the allocator and forget the minted
/// counts, returning the number of bytes freed. The bench harness calls
/// this between experiments so that memory comparisons (Fig. 4b) never
/// attribute one experiment's pooled buffers to another, and
/// `DEVICE_MEMORY` pooled accounting re-balances to zero.
pub fn trim() -> usize {
    let drained: Vec<Vec<f32>> = buckets()
        .drain()
        .flat_map(|(_, bucket)| bucket.free)
        .collect();
    let bytes: usize = drained.iter().map(|v| bytes_of_cap(v.capacity())).sum();
    DEVICE_MEMORY.pool_sub(bytes);
    soup_obs::counter!("tensor.pool.trimmed_bytes").add(bytes as u64);
    soup_obs::gauge!("tensor.pool.idle_bytes").set(DEVICE_MEMORY.pooled() as f64);
    bytes
}

/// Bytes currently sitting idle in the pool.
pub fn idle_bytes() -> usize {
    DEVICE_MEMORY.pooled()
}

/// RAII kernel workspace: a pooled `Vec<f32>` that counts as live device
/// memory while held (via [`MemGuard`], like CSR arrays) and returns to the
/// pool on drop. Used for GEMM packing buffers.
#[derive(Debug)]
pub struct Workspace {
    data: Vec<f32>,
    _mem: MemGuard,
}

impl Workspace {
    /// Workspace with arbitrary (initialised) contents; the caller must
    /// overwrite before reading.
    pub fn scratch(len: usize) -> Self {
        let data = take_scratch(len);
        let bytes = bytes_of_cap(data.capacity());
        Self {
            data,
            _mem: MemGuard::new(bytes),
        }
    }

    /// Zero-filled workspace.
    pub fn zeroed(len: usize) -> Self {
        let data = take_zeroed(len);
        let bytes = bytes_of_cap(data.capacity());
        Self {
            data,
            _mem: MemGuard::new(bytes),
        }
    }
}

impl std::ops::Deref for Workspace {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for Workspace {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        put(std::mem::take(&mut self.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pool state is process-global; tests in this module must tolerate
    // other tests' buffers being present. They therefore assert relative
    // behaviour (deltas, recycling of a marked buffer) rather than absolute
    // pool contents.

    #[test]
    fn round_trip_recycles_buffer() {
        let len = 1 << 14; // distinctive size, unlikely shared with others
        let mut v = take_zeroed(len + 3);
        assert!(v.iter().all(|&x| x == 0.0));
        v[0] = 42.0;
        let cap = v.capacity();
        put(v);
        let w = take_scratch(len + 3);
        assert_eq!(w.capacity(), cap, "exact-size bucket must recycle");
        put(w);
    }

    #[test]
    fn zeroed_take_clears_stale_contents() {
        let len = (1 << 14) + 7;
        let mut v = take_zeroed(len);
        v.iter_mut().for_each(|x| *x = 1.5);
        put(v);
        let w = take_zeroed(len);
        assert!(
            w.iter().all(|&x| x == 0.0),
            "recycled buffer must be zeroed"
        );
        put(w);
    }

    #[test]
    fn copy_take_matches_source() {
        let src: Vec<f32> = (0..12_347).map(|i| i as f32).collect();
        let v = take_copy(&src);
        assert_eq!(v, src);
        put(v);
        let w = take_copy(&src);
        assert_eq!(w, src);
        put(w);
    }

    #[test]
    fn tiny_takes_are_fresh_and_zeroed() {
        let v = take_scratch(MIN_POOL_LEN - 1);
        assert!(v.iter().all(|&x| x == 0.0), "bypassed takes are fresh vecs");
        let w = take_zeroed(MIN_POOL_LEN - 1);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn workspace_overwrites_and_reads_back() {
        let mut ws = Workspace::scratch(1 << 13);
        ws.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32);
        assert_eq!(ws[17], 17.0);
        assert_eq!(ws.len(), 1 << 13);
    }

    fn bucket_state(cap: usize) -> Option<(usize, usize)> {
        buckets().get(&cap).map(|b| (b.free.len(), b.minted))
    }

    #[test]
    fn foreign_vec_of_unminted_capacity_is_refused() {
        let cap = 9_973; // no other test takes this capacity
        put(vec![1.0; cap]);
        assert_eq!(bucket_state(cap), None, "put must not create a bucket");
    }

    #[test]
    fn bucket_never_holds_more_than_it_minted() {
        let cap = 9_967; // no other test takes this capacity
        let minted = take_scratch(cap);
        assert_eq!(bucket_state(cap), Some((0, 1)));
        put(minted);
        put(vec![0.0; cap]);
        assert_eq!(bucket_state(cap), Some((1, 1)), "second put is refused");
    }

    // Precise DEVICE_MEMORY / trim balance assertions live in the
    // single-threaded integration test `tests/pool_accounting.rs` — they
    // need a process where no other test is churning the global pool.
}
