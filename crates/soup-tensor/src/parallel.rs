//! Kernel threading: a small std-only fork-join pool, the thread budget
//! and the dispatch tunables every kernel shares.
//!
//! - **Static chunks.** A kernel splits its output into disjoint chunks at
//!   boundaries fixed by the data alone and hands them to [`for_each`];
//!   chunk `i` always runs the same code on the same inputs. Which thread
//!   runs a chunk is decided at run time, but nothing a chunk computes
//!   depends on it, so every output is bitwise independent of the thread
//!   count. Reductions whose order would follow the split (`Tensor::sum`,
//!   `Tensor::norm_sq`) stay sequential.
//! - **Workers.** At most `available_parallelism − 1` persistent workers,
//!   spawned on first need. The calling thread always claims chunks too,
//!   so a kernel finishes even when every worker is busy with another
//!   caller's job. Idle workers park on a condvar: an idle pool costs no
//!   CPU.
//! - **Nesting and panics.** A call made from inside a chunk runs inline.
//!   A panicking chunk does not stop the others; once every chunk has run,
//!   the first panic resumes on the caller, and the pool stays usable.
//! - **Thread budget.** [`with_threads`] caps the threads that kernels
//!   called on this thread may use; the default is every core. There is no
//!   environment variable or config field. Phase-1 trainer workers run
//!   under their caller's budget divided by the worker count, and a shard
//!   worker under `cores / K`, so workers that already fill the cores keep
//!   one kernel thread each.
//!
//! The module also holds the parallel cutoff and the runtime SIMD probe.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Whether this x86-64 CPU supports AVX2 and FMA, probed once. The hot
/// kernels (GEMM microkernel, SpMM edge loop) carry `#[target_feature]`
/// variants selected through this check, so portable baseline builds still
/// use wide vectors on machines that have them. Override with
/// `SOUP_NO_SIMD=1` to force the baseline-ISA kernels (useful for A/B
/// measurements).
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn cpu_has_avx2_fma() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if std::env::var("SOUP_NO_SIMD").is_ok_and(|v| v == "1") {
            return false;
        }
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    })
}

/// Non-x86-64 targets have no runtime-dispatched kernel variants.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn cpu_has_avx2_fma() -> bool {
    false
}

/// Minimum work (output elements) before a kernel splits into parallel
/// chunks, and the size of an elementwise chunk: below this, the fork
/// costs more than it saves.
pub const PAR_THRESHOLD: usize = 16 * 1024;

/// Chunks per nnz-balanced split ([`balanced_bounds`]): a few per core on
/// the boxes this runs on, so one slow chunk does not stall the join.
pub(crate) const BALANCED_CHUNKS: usize = 16;

thread_local! {
    /// This thread's [`with_threads`] cap, if any.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread runs chunks: nested calls run inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
    /// Set on the pool's own workers.
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Chunks run on a pool worker rather than on the calling thread.
static WORKER_CHUNKS: AtomicU64 = AtomicU64::new(0);

/// Cores this process may use, probed once.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads a kernel called here may use: 1 inside a chunk, otherwise the
/// innermost [`with_threads`] cap (every core by default), never more than
/// [`cores`].
pub fn current_threads() -> usize {
    if IN_JOB.get() {
        return 1;
    }
    BUDGET.get().unwrap_or(usize::MAX).min(cores())
}

/// Run `f` with kernels on this thread capped at `n` threads (at least 1).
/// The previous cap is restored when `f` returns or unwinds. A cap above
/// [`cores`] starts no extra workers.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.set(self.0);
        }
    }
    let _restore = Restore(BUDGET.replace(Some(n.max(1))));
    f()
}

/// Chunks that ran on a pool worker since the process started.
pub fn worker_chunks() -> u64 {
    WORKER_CHUNKS.load(Relaxed)
}

/// Run `f(i, chunk)` for every chunk `items` yields, spreading the chunks
/// over the caller and up to `current_threads() − 1` pool workers. The
/// chunks are the static split: they must not depend on the thread count.
/// Returns once every chunk has run; a panic in any chunk resumes here
/// afterwards.
pub fn for_each<I, F>(items: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: Send,
    F: Fn(usize, I::Item) + Sync,
{
    let items = items.into_iter().enumerate();
    let helpers = (current_threads() - 1).min(items.size_hint().0.saturating_sub(1));
    if helpers == 0 {
        items.for_each(|(i, x)| f(i, x));
        return;
    }
    let items = Mutex::new(items);
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let claim_all = || loop {
        let next = lock(&items).next();
        let Some((i, x)) = next else { break };
        if WORKER.get() {
            WORKER_CHUNKS.fetch_add(1, Relaxed);
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, x))) {
            lock(&panic).get_or_insert(payload);
        }
    };
    POOL.run(helpers, &claim_all);
    let payload = panic.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// [`for_each`] over the `width`-wide rows of `out`: `f(r, row)` for every
/// row, grouped into chunks of at least [`PAR_THRESHOLD`] elements.
pub(crate) fn for_each_row(out: &mut [f32], width: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if width == 0 {
        return;
    }
    let rows = PAR_THRESHOLD.div_ceil(width);
    for_each(out.chunks_mut(rows * width), |b, block| {
        for (i, row) in block.chunks_mut(width).enumerate() {
            f(b * rows + i, row);
        }
    });
}

/// Row boundaries cutting a CSR-style prefix array `ptr` (`rows + 1`
/// entries) into at most `chunks` ranges of about equal entry count:
/// range `i` is `bounds[i]..bounds[i + 1]`. Hub rows hold orders of
/// magnitude more entries than the median, so a count-based split would
/// hand one chunk the hub and stall the join; the quantiles are found by
/// binary search. The cut depends on `ptr` and `chunks` only.
pub(crate) fn balanced_bounds(ptr: &[usize], chunks: usize) -> Vec<usize> {
    let rows = ptr.len() - 1;
    let nnz = ptr[rows];
    let chunks = chunks.clamp(1, rows.max(1));
    let mut bounds = Vec::with_capacity(chunks + 1);
    bounds.push(0usize);
    for c in 1..chunks {
        let target = nnz * c / chunks;
        // First row whose prefix count reaches the quantile.
        let row = ptr.partition_point(|&p| p < target).min(rows);
        if row > *bounds.last().unwrap() && row < rows {
            bounds.push(row);
        }
    }
    if rows > 0 {
        bounds.push(rows);
    }
    bounds
}

/// Cut `buf` into consecutive pieces at the increasing offsets `cuts`:
/// piece `i` spans `cuts[i]..cuts[i + 1]`. Builds the disjoint chunks a
/// kernel hands to [`for_each`] from boundaries like [`balanced_bounds`].
pub(crate) fn split_at_cuts<T>(
    buf: &mut [T],
    cuts: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut cuts = cuts.into_iter();
    let mut at = cuts.next().unwrap_or(0);
    let mut rest = &mut buf[at..];
    let mut pieces = Vec::new();
    for cut in cuts {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cut - at);
        pieces.push(piece);
        rest = tail;
        at = cut;
    }
    pieces
}

/// Lock, recovering from poison: no chunk code runs under these locks, and
/// every update made under them leaves the data valid at each step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool.
static POOL: Pool = Pool {
    state: Mutex::new(State {
        queue: VecDeque::new(),
        next_id: 0,
        workers: 0,
    }),
    wake: Condvar::new(),
};

struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is queued; idle workers wait on it.
    wake: Condvar,
}

struct State {
    /// Jobs still wanting helpers, oldest first.
    queue: VecDeque<Entry>,
    next_id: u64,
    workers: usize,
}

/// A queued job. `job` is borrowed from a [`Pool::run`] frame that does not
/// return before the entry is withdrawn and `latch` reads zero.
struct Entry {
    id: u64,
    job: &'static (dyn Fn() + Sync),
    /// Workers that may still join.
    wanted: usize,
    latch: Arc<Latch>,
}

/// Counts the workers running one job. It is shared through an `Arc`, so a
/// worker's final decrement never touches the caller's stack frame.
#[derive(Default)]
struct Latch {
    running: Mutex<usize>,
    idle: Condvar,
}

impl Latch {
    fn finish(&self) {
        let mut running = lock(&self.running);
        *running -= 1;
        if *running == 0 {
            self.idle.notify_all();
        }
    }
}

/// Withdraws a job from the queue and waits until no worker runs it. Runs
/// on drop, so it also holds when the caller's share unwinds.
struct Join<'a> {
    id: u64,
    latch: &'a Latch,
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        lock(&POOL.state).queue.retain(|e| e.id != self.id);
        let mut running = lock(&self.latch.running);
        while *running > 0 {
            running = self
                .latch
                .idle
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Marks the calling thread as running chunks until dropped.
struct InJob(bool);

impl InJob {
    fn enter() -> Self {
        Self(IN_JOB.replace(true))
    }
}

impl Drop for InJob {
    fn drop(&mut self) {
        IN_JOB.set(self.0);
    }
}

impl Pool {
    /// Run `job` on the calling thread and on up to `helpers` workers, and
    /// return once no thread runs it any more. `job` must claim its own
    /// work, so it is correct whether 0 or `helpers` workers join.
    fn run(&'static self, helpers: usize, job: &(dyn Fn() + Sync)) {
        let latch = Arc::new(Latch::default());
        // SAFETY: the erased `job` is only called by a worker that took it
        // from the queue, and it must not be called once this frame is
        // gone. A worker takes an entry and bumps `latch.running` under the
        // queue lock. `_join` is built right after the push, with nothing
        // that can unwind in between, and its drop runs on both return and
        // unwind: it removes the entry under the queue lock, so no worker
        // can take it afterwards, then blocks until `running` is zero,
        // which counts every worker that took it before the removal.
        let job: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };
        let id = {
            let mut state = lock(&self.state);
            let want = helpers.min(cores() - 1);
            while state.workers < want {
                let name = format!("soup-kernel-{}", state.workers);
                match std::thread::Builder::new()
                    .name(name)
                    .spawn(move || self.work())
                {
                    Ok(_) => state.workers += 1,
                    // The caller runs every chunk itself if need be.
                    Err(_) => break,
                }
            }
            let id = state.next_id;
            state.next_id += 1;
            state.queue.push_back(Entry {
                id,
                job,
                wanted: helpers,
                latch: Arc::clone(&latch),
            });
            id
        };
        let _join = Join { id, latch: &latch };
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        let _in_job = InJob::enter();
        job();
    }

    /// A worker's life: take the oldest queued job, run it, repeat; park
    /// on `wake` while the queue is empty. Workers live as long as the
    /// process and are never joined; nothing a job does can end one.
    fn work(&self) {
        WORKER.set(true);
        IN_JOB.set(true);
        let mut state = lock(&self.state);
        loop {
            let Some(entry) = state.queue.front_mut() else {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            entry.wanted -= 1;
            let (job, latch) = (entry.job, Arc::clone(&entry.latch));
            *lock(&latch.running) += 1;
            if entry.wanted == 0 {
                state.queue.pop_front();
            }
            drop(state);
            // `for_each` catches chunk panics itself; this keeps a worker
            // alive (and the latch balanced) whatever a job does.
            let _ = catch_unwind(AssertUnwindSafe(job));
            latch.finish();
            state = lock(&self.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_nested_call_runs_inline_without_deadlock() {
        let total = AtomicUsize::new(0);
        let inline = AtomicUsize::new(0);
        with_threads(2, || {
            for_each(0..8, |_, _| {
                let me = std::thread::current().id();
                for_each(0..8, |_, _| {
                    total.fetch_add(1, Relaxed);
                    if std::thread::current().id() == me {
                        inline.fetch_add(1, Relaxed);
                    }
                });
            });
        });
        assert_eq!(total.load(Relaxed), 64);
        assert_eq!(inline.load(Relaxed), 64, "nested chunks must run inline");
    }

    #[test]
    fn parallel_panicking_chunk_propagates_and_pool_stays_usable() {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                for_each(0..16, |i, _| {
                    if i == 3 {
                        panic!("chunk 3 fails");
                    }
                    ran.fetch_add(1, Relaxed);
                });
            });
        }));
        let payload = result.expect_err("the chunk's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 3 fails"));
        assert_eq!(ran.load(Relaxed), 15, "every other chunk still runs");

        let mut out = vec![0usize; 64];
        with_threads(2, || for_each(out.chunks_mut(4), |i, c| c.fill(i)));
        let expect: Vec<usize> = (0..64).map(|j| j / 4).collect();
        assert_eq!(out, expect, "the next call succeeds");
    }

    #[test]
    fn parallel_budget_above_pool_size_starts_no_extra_threads() {
        for n in [1, 2, 3, 4] {
            let ran = AtomicUsize::new(0);
            with_threads(cores() + n, || {
                for_each(0..32, |_, _| {
                    ran.fetch_add(1, Relaxed);
                });
            });
            assert_eq!(ran.load(Relaxed), 32);
            let workers = lock(&POOL.state).workers;
            assert!(workers < cores(), "{workers} workers on {} cores", cores());
        }
    }

    #[test]
    fn parallel_budget_is_scoped_and_one_thread_runs_inline() {
        assert_eq!(current_threads(), cores());
        let me = std::thread::current().id();
        with_threads(1, || {
            assert_eq!(current_threads(), 1);
            for_each(0..16, |_, _| assert_eq!(std::thread::current().id(), me));
        });
        assert_eq!(current_threads(), cores());
    }

    #[test]
    fn parallel_chunks_are_independent_of_the_thread_count() {
        let run = |threads: usize| {
            // Several chunks of PAR_THRESHOLD elements or more.
            let mut out = vec![0.0f32; 100_000];
            with_threads(threads, || {
                for_each_row(&mut out, 7, |r, row| {
                    for (c, o) in row.iter_mut().enumerate() {
                        *o = (r * 7 + c) as f32 * 0.5;
                    }
                });
            });
            out
        };
        let one = run(1);
        assert_eq!(one[99_999], 99_999.0 * 0.5);
        assert_eq!(one, run(2));
    }

    #[test]
    fn parallel_balanced_bounds_cut_at_entry_quantiles() {
        // Row 2 is a hub holding most entries.
        let ptr = [0, 1, 2, 90, 91, 92, 100];
        let bounds = balanced_bounds(&ptr, 4);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&6));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(balanced_bounds(&[0], 4), vec![0]);
        assert_eq!(balanced_bounds(&[0, 3, 5], 1), vec![0, 2]);
    }
}
