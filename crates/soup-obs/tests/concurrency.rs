//! Contention tests: the registry's lock-free record paths must not lose
//! updates when hammered from many threads at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 20_000;

#[test]
fn counters_are_exact_under_contention() {
    let counter = soup_obs::registry::counter("test.concurrency.counter");
    counter.reset();
    let adder = soup_obs::registry::counter("test.concurrency.adder");
    adder.reset();
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Fetch through the registry from inside the thread too, so
                // concurrent get-or-insert lookups race with the updates.
                let counter = soup_obs::registry::counter("test.concurrency.counter");
                let adder = soup_obs::registry::counter("test.concurrency.adder");
                barrier.wait();
                for i in 0..OPS_PER_THREAD {
                    counter.inc();
                    adder.add(i % 7);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.get(), THREADS as u64 * OPS_PER_THREAD);
    let per_thread: u64 = (0..OPS_PER_THREAD).map(|i| i % 7).sum();
    assert_eq!(adder.get(), THREADS as u64 * per_thread);
}

#[test]
fn histograms_are_lossless_under_contention() {
    let hist = soup_obs::registry::histogram("test.concurrency.hist");
    hist.reset();
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let hist = soup_obs::registry::histogram("test.concurrency.hist");
                barrier.wait();
                let mut sum = 0u64;
                for i in 0..OPS_PER_THREAD {
                    let v = (t as u64 * 31 + i * 17) % 10_000;
                    hist.record(v);
                    sum += v;
                }
                sum
            })
        })
        .collect();
    let expected_sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let s = hist.summary();
    assert_eq!(s.count, THREADS as u64 * OPS_PER_THREAD, "dropped samples");
    assert_eq!(s.sum, expected_sum, "lost precision in the sum");
    assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
}

#[test]
fn gauges_settle_on_a_written_value() {
    let gauge = soup_obs::registry::gauge("test.concurrency.gauge");
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let gauge = soup_obs::registry::gauge("test.concurrency.gauge");
                while !stop.load(Ordering::Relaxed) {
                    gauge.set(t as f64 + 1.0);
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Stores of f64 bits are atomic: no torn value, only one of the written
    // ones can be observed.
    let v = gauge.get();
    assert!((1..=THREADS).any(|t| v == t as f64), "torn gauge value {v}");
}

#[test]
fn snapshots_stay_consistent_while_writers_and_sampler_race() {
    // Satellite: registry `snapshot()` must return internally consistent
    // digests while writer threads hammer the instruments *and* the
    // metrics sampler thread snapshots into the trace on its own cadence.
    let counter = soup_obs::registry::counter("test.concurrency.snap.counter");
    counter.reset();
    let hist = soup_obs::registry::histogram("test.concurrency.snap.hist");
    hist.reset();
    let trace_path = std::env::temp_dir().join(format!(
        "soup_concurrency_trace_{}.jsonl",
        std::process::id()
    ));
    soup_obs::trace::init(&trace_path).unwrap();
    soup_obs::series::start(std::time::Duration::from_millis(2)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let counter = soup_obs::registry::counter("test.concurrency.snap.counter");
                let hist = soup_obs::registry::histogram("test.concurrency.snap.hist");
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    counter.inc();
                    hist.record((t as u64 * 13 + ops) % 1_000);
                    ops += 1;
                }
                ops
            })
        })
        .collect();

    // Foreground snapshots race with both the writers and the sampler.
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
    let mut prev_count = 0u64;
    while std::time::Instant::now() < deadline {
        let snap = soup_obs::registry::snapshot();
        let c = snap
            .counters
            .iter()
            .find(|(k, _)| k == "test.concurrency.snap.counter")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(c >= prev_count, "counter went backwards across snapshots");
        prev_count = c;
        if let Some((_, h)) = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "test.concurrency.snap.hist")
        {
            // Digest invariants hold at every instant, not just at rest.
            assert!(h.min <= h.p50 && h.p50 <= h.p95 && h.p95 <= h.p99);
            assert!(h.p99 <= h.max.max(h.p99));
            if h.count > 0 {
                assert!(h.mean >= h.min as f64 && h.mean <= h.max as f64);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    soup_obs::trace::finish().expect("sink was open");

    // Nothing was lost despite the three-way race…
    assert_eq!(counter.get(), total_ops);
    assert_eq!(hist.summary().count, total_ops);
    // …and the sampler's own view was a valid, monotonic series.
    let stats = soup_obs::trace::validate_file(&trace_path).expect("trace validates");
    assert!(stats.has_metrics);
    let totals: Vec<u64> = stats
        .samples
        .iter()
        .filter_map(|s| s.counter_total("test.concurrency.snap.counter"))
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] <= w[1]),
        "sampler saw counter regress"
    );
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn registry_lookup_races_return_the_same_instrument() {
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let c = soup_obs::registry::counter("test.concurrency.race");
                c.inc();
                Arc::as_ptr(&c) as usize
            })
        })
        .collect();
    let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        ptrs.iter().all(|&p| p == ptrs[0]),
        "racing get-or-insert created duplicate instruments"
    );
    assert_eq!(
        soup_obs::registry::counter("test.concurrency.race").get(),
        THREADS as u64
    );
}
