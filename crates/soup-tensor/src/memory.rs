//! Global "device memory" accounting.
//!
//! The paper measures GPU memory consumed by each souping algorithm
//! (Fig. 4b). Our workers are CPU threads, so we model device memory as the
//! total bytes of live tensor buffers: [`crate::storage::Buf`] registers its
//! allocation here on creation and releases it on drop. The meter keeps a
//! `current` counter and a monotonically-updated `peak`, both lock-free.
//!
//! Ordering: counters are statistics, not synchronisation — `Relaxed` is
//! sufficient for `current` (per *Rust Atomics and Locks* ch. 2/3, a counter
//! with no happens-before obligations). The peak is maintained with a
//! `fetch_max`, which is also fine as `Relaxed` because readers only need an
//! eventually-consistent high-water mark and experiments read it after
//! joining all workers (the join provides the happens-before edge).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide memory meter. Usually accessed through [`DEVICE_MEMORY`].
#[derive(Debug)]
pub struct MemoryMeter {
    current: AtomicUsize,
    peak: AtomicUsize,
    /// Bytes held by the workspace pool ([`crate::pool`]) but owned by no
    /// live tensor. Tracked separately from `current` so the paper's
    /// Fig. 4b memory comparisons report live tensor bytes honestly:
    /// pooled-but-idle memory is an allocator optimisation, not algorithm
    /// working set. `current + pooled` is the total the process holds.
    pooled: AtomicUsize,
}

/// The global meter tracking all tensor buffers in the process.
pub static DEVICE_MEMORY: MemoryMeter = MemoryMeter::new();

impl MemoryMeter {
    pub const fn new() -> Self {
        Self {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            pooled: AtomicUsize::new(0),
        }
    }

    /// Register an allocation of `bytes`.
    pub fn alloc(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        // Credit the allocating thread so spans can attribute memory churn
        // to pipeline phases (a thread-local add; no-op when disabled).
        soup_obs::attrib::on_alloc(bytes);
    }

    /// Register a deallocation of `bytes`.
    pub fn free(&self, bytes: usize) {
        let prev = self.current.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(
            prev >= bytes,
            "memory meter underflow: freeing {bytes} of {prev}"
        );
    }

    /// Bytes currently live.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark since process start or the last [`Self::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the peak to the current live size. Call between experiments;
    /// callers must ensure no concurrent allocation is mid-flight (the
    /// harness runs souping algorithms serially, so this holds).
    pub fn reset_peak(&self) {
        self.peak.store(self.current(), Ordering::Relaxed);
    }

    /// Register `bytes` as entering the idle workspace pool.
    pub fn pool_add(&self, bytes: usize) {
        self.pooled.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Register `bytes` as leaving the idle workspace pool (reused by a
    /// tensor, or released by [`crate::pool::trim`]).
    pub fn pool_sub(&self, bytes: usize) {
        let prev = self.pooled.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(
            prev >= bytes,
            "pool accounting underflow: removing {bytes} of {prev}"
        );
    }

    /// Bytes sitting idle in the workspace pool — held by the process but
    /// owned by no live tensor. Not included in [`Self::current`] or
    /// [`Self::peak`].
    pub fn pooled(&self) -> usize {
        self.pooled.load(Ordering::Relaxed)
    }
}

impl Default for MemoryMeter {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII scope that measures the peak device memory consumed while it is
/// alive, *relative to the memory live at scope entry*.
///
/// ```
/// use soup_tensor::{MemoryScope, Tensor};
/// let scope = MemoryScope::start();
/// let t = Tensor::zeros(128, 128);
/// let report = scope.finish();
/// assert!(report.peak_delta_bytes >= 128 * 128 * 4);
/// drop(t);
/// ```
#[derive(Debug)]
pub struct MemoryScope {
    baseline: usize,
}

/// Result of a [`MemoryScope`] measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Live bytes when the scope started.
    pub baseline_bytes: usize,
    /// Peak live bytes observed during the scope.
    pub peak_bytes: usize,
    /// Peak minus baseline: memory the scoped computation added.
    pub peak_delta_bytes: usize,
}

impl MemoryScope {
    /// Begin a measurement scope. Resets the global peak to `current`.
    pub fn start() -> Self {
        DEVICE_MEMORY.reset_peak();
        Self {
            baseline: DEVICE_MEMORY.current(),
        }
    }

    /// End the scope, returning the observed peak.
    pub fn finish(self) -> MemoryReport {
        let peak = DEVICE_MEMORY.peak();
        MemoryReport {
            baseline_bytes: self.baseline,
            peak_bytes: peak,
            peak_delta_bytes: peak.saturating_sub(self.baseline),
        }
    }
}

/// Registers a fixed byte count against [`DEVICE_MEMORY`] for its own
/// lifetime. Used by non-tensor device-resident structures (CSR arrays,
/// edge indexes) so that graph storage is accounted like the paper's GPU
/// measurements.
#[derive(Debug)]
pub struct MemGuard {
    bytes: usize,
}

impl MemGuard {
    pub fn new(bytes: usize) -> Self {
        DEVICE_MEMORY.alloc(bytes);
        Self { bytes }
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemGuard {
    fn drop(&mut self) {
        DEVICE_MEMORY.free(self.bytes);
    }
}

/// Register a metrics-sampler probe publishing [`DEVICE_MEMORY`]
/// as `tensor.mem.live_bytes` / `tensor.mem.peak_bytes` /
/// `tensor.mem.pooled_bytes` gauges. The probe runs on the sampler thread
/// before every tick, so the trace's samples carry pool occupancy without
/// `soup-obs` depending on this crate. Idempotent — safe to call from
/// every entry point that might start a sampler.
pub fn install_obs_probe() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        soup_obs::series::register_probe(|| {
            soup_obs::gauge!("tensor.mem.live_bytes").set(DEVICE_MEMORY.current() as f64);
            soup_obs::gauge!("tensor.mem.peak_bytes").set(DEVICE_MEMORY.peak() as f64);
            soup_obs::gauge!("tensor.mem.pooled_bytes").set(DEVICE_MEMORY.pooled() as f64);
        });
    });
}

/// Pretty-print a byte count (for harness tables).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn alloc_free_roundtrip() {
        let m = MemoryMeter::new();
        m.alloc(100);
        m.alloc(50);
        assert_eq!(m.current(), 150);
        assert_eq!(m.peak(), 150);
        m.free(100);
        assert_eq!(m.current(), 50);
        assert_eq!(m.peak(), 150);
        m.reset_peak();
        assert_eq!(m.peak(), 50);
    }

    #[test]
    fn scope_measures_tensor_allocations() {
        let scope = MemoryScope::start();
        let t = Tensor::zeros(64, 64);
        let u = Tensor::zeros(32, 32);
        let report = scope.finish();
        let expected = (64 * 64 + 32 * 32) * std::mem::size_of::<f32>();
        assert!(
            report.peak_delta_bytes >= expected,
            "peak_delta={} expected>={expected}",
            report.peak_delta_bytes
        );
        drop((t, u));
    }

    #[test]
    fn scope_peak_survives_drop_inside_scope() {
        let scope = MemoryScope::start();
        {
            let _t = Tensor::zeros(256, 256);
        } // dropped before finish
        let report = scope.finish();
        assert!(report.peak_delta_bytes >= 256 * 256 * 4);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn alloc_credits_thread_attribution() {
        soup_obs::attrib::set_enabled(true);
        // Run on a fresh thread so other tests' allocations can't interfere
        // with the per-thread counter.
        std::thread::spawn(|| {
            let before = soup_obs::attrib::thread_alloc_bytes();
            let _t = Tensor::zeros(64, 64);
            let delta = soup_obs::attrib::thread_alloc_bytes() - before;
            assert!(
                delta >= 64 * 64 * 4,
                "tensor alloc not attributed: delta={delta}"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn obs_probe_publishes_memory_gauges() {
        install_obs_probe();
        install_obs_probe(); // idempotent
        let _t = Tensor::zeros(16, 16);
        soup_obs::series::run_probes();
        let live = soup_obs::registry::gauge("tensor.mem.live_bytes").get();
        assert!(live >= (16 * 16 * 4) as f64, "live gauge {live}");
        let peak = soup_obs::registry::gauge("tensor.mem.peak_bytes").get();
        assert!(peak >= live, "peak {peak} < live {live}");
    }

    #[test]
    fn concurrent_counting_is_consistent() {
        let m = std::sync::Arc::new(MemoryMeter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.alloc(16);
                        m.free(16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.current(), 0);
        assert!(m.peak() >= 16);
        assert!(m.peak() <= 8 * 16);
    }
}
