//! Zero-communication ingredient training over a fault-tolerant worker pool.
//!
//! The paper's Phase 1 (Fig. 1) assumes flawless workers; this module does
//! not. Each worker's training runs inside a panic boundary, failed or
//! corrupted attempts are re-queued with a bounded retry budget, finished
//! ingredients can be checkpointed to disk and resumed, and the
//! `train.{panic,nan}` fault points ([`soup_store::fault`]) let tests
//! strike any attempt to prove the whole machinery preserves the paper's
//! central determinism property: ingredient `i`'s training seed is keyed by
//! its *ordinal* (never by worker identity or attempt number), so a run
//! that survives faults produces ingredients bit-identical to a fault-free
//! run.

use crate::queue::{FailAction, TaskQueue};
use parking_lot::Mutex;
use soup_core::Ingredient;
use soup_error::{Result, SoupError};
use soup_gnn::model::init_params;
use soup_gnn::{
    checkpoint_name, checkpoint_path, encode_checkpoint, load_checkpoint, train_single,
    validate_checkpoint, Checkpoint, ModelConfig, TrainConfig,
};
use soup_graph::Dataset;
use soup_store::{fault, Store};
use soup_tensor::{parallel, SplitMix64};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Panic payload marker for injected faults, so the quiet panic hook can
/// distinguish them from genuine worker panics (which still print).
struct InjectedFault;

static QUIET_HOOK: OnceLock<()> = OnceLock::new();

/// Install (once, process-wide) a panic hook that stays silent for
/// [`InjectedFault`] payloads and defers to the previous hook otherwise.
/// Without this, every injected panic would spray a backtrace over the
/// fault-injection tests' output.
fn install_quiet_panic_hook() {
    QUIET_HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedFault>() {
                return;
            }
            prev(info);
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if payload.is::<InjectedFault>() {
        "injected fault".to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Options for a Phase-1 run. Construct with [`TrainOpts::default`] and
/// chain `with_*` setters:
///
/// ```ignore
/// let opts = TrainOpts::default()
///     .with_workers(8)
///     .with_seed(42)
///     .with_checkpoint_dir("soup_out")
///     .with_resume(true);
/// let run = train_ingredients_opts(&dataset, &cfg, &tc, 30, &opts)?;
/// ```
#[derive(Debug, Clone)]
pub struct TrainOpts {
    /// Worker threads (the paper's GPU count). Must be ≥ 1.
    pub workers: usize,
    /// Root seed; ingredient `i` trains with `derive(i + 1)` of it.
    pub seed: u64,
    /// Re-tries allowed per ingredient after a failed attempt (0 = fail
    /// permanently on the first error).
    pub retry_budget: u32,
    /// Directory to persist per-ingredient checkpoints into (created if
    /// absent). `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// With `checkpoint_dir` set: validate existing checkpoints and train
    /// only the missing or invalid ingredients.
    pub resume: bool,
}

impl Default for TrainOpts {
    fn default() -> Self {
        Self {
            workers: 4,
            seed: 42,
            retry_budget: 2,
            checkpoint_dir: None,
            resume: false,
        }
    }
}

impl TrainOpts {
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Per-worker activity summary.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    pub worker_id: usize,
    pub ingredients_trained: Vec<usize>,
    pub busy_time: Duration,
}

/// An ingredient that permanently failed (retry budget exhausted).
#[derive(Debug)]
pub struct FailedTask {
    pub ordinal: usize,
    /// Attempts consumed, including the first.
    pub attempts: u32,
    /// The terminal [`SoupError::Exhausted`] chaining the last cause.
    pub error: SoupError,
}

/// Result of one Phase-1 run.
#[derive(Debug)]
pub struct TrainRun {
    /// Successfully trained (or resumed) ingredients, ordered by id. Under
    /// failures this may hold fewer than the requested `n` — the soup
    /// strategies accept such partial sets and degrade gracefully.
    pub ingredients: Vec<Ingredient>,
    pub reports: Vec<WorkerReport>,
    /// Wall-clock of the whole phase (the measured `T_total` of Eq. 1).
    pub wall_time: Duration,
    /// Ordinals satisfied from validated checkpoints instead of training.
    pub resumed: Vec<usize>,
    /// Ordinals that exhausted their retry budget.
    pub failed: Vec<FailedTask>,
    /// Total requeues performed (failure retries).
    pub retries: u64,
}

impl TrainRun {
    /// Ordinals requested but not present in `ingredients`.
    pub fn missing_ordinals(&self) -> Vec<usize> {
        self.failed.iter().map(|f| f.ordinal).collect()
    }
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

/// Train `n` ingredients on a fault-tolerant worker pool with zero
/// inter-worker communication.
///
/// Results are bit-identical regardless of worker count, retries, faults
/// survived, or resume: ingredient `i` always derives its training seed as
/// `derive(i + 1)` from the shared root, and all ingredients share one
/// initialisation (created before distribution, per Fig. 1).
///
/// Fault handling per attempt: training runs inside a panic boundary;
/// panics and non-finite parameters (the acceptance scan) fail the attempt
/// and re-queue the ordinal until its retry budget is spent, after which it
/// lands in [`TrainRun::failed`]. With `checkpoint_dir` set, every accepted
/// ingredient is persisted; with `resume` also set, existing checkpoints
/// are validated (format version, ordinal, seed, shape, NaN/Inf scan) and
/// valid ones skip training entirely.
///
/// Errors are reserved for setup problems (e.g. an unusable checkpoint
/// directory); per-ingredient failures degrade into `TrainRun::failed`.
pub fn train_ingredients_opts(
    dataset: &Dataset,
    cfg: &ModelConfig,
    tc: &TrainConfig,
    n: usize,
    opts: &TrainOpts,
) -> Result<TrainRun> {
    assert!(n > 0, "need at least one ingredient");
    assert!(opts.workers > 0, "need at least one worker");
    let _phase_span = soup_obs::span!("distrib.phase1");
    soup_obs::trace_event!("distrib.start",
        "ingredients" => n as u64,
        "workers" => opts.workers as u64,
        "retry_budget" => opts.retry_budget as u64,
        "resume" => opts.resume);
    let start = Instant::now();

    // Shared initialisation, performed once before distribution.
    let mut init_rng = SplitMix64::new(opts.seed).derive(0x1417);
    let init = init_params(cfg, &mut init_rng);

    let queue = TaskQueue::with_retry_budget(n, opts.retry_budget);
    let slots: Mutex<Vec<Option<Ingredient>>> = Mutex::new((0..n).map(|_| None).collect());
    let reports: Mutex<Vec<WorkerReport>> = Mutex::new(Vec::new());
    let failed_tasks: Mutex<Vec<FailedTask>> = Mutex::new(Vec::new());
    let root = SplitMix64::new(opts.seed);

    // All checkpoint writes flow through the crash-safe store: envelope
    // sealing, atomic tmp+fsync+rename, read-back healing. The checkpoints
    // themselves are the run's progress.
    let store: Option<Store> = opts.checkpoint_dir.as_ref().map(Store::open).transpose()?;

    // Resume: satisfy ordinals from validated checkpoints before any worker
    // starts, so the queue only hands out missing or invalid ones.
    let mut resumed = Vec::new();
    if opts.resume {
        if let Some(dir) = &opts.checkpoint_dir {
            for id in 0..n {
                let path = checkpoint_path(dir, id);
                if !path.exists() {
                    continue;
                }
                let expected_seed = root.derive(id as u64 + 1).next_u64_peek();
                let valid = load_checkpoint(&path).and_then(|ck| {
                    validate_checkpoint(&ck, id, Some(expected_seed), &init).map(|()| ck)
                });
                match valid {
                    Ok(ck) => {
                        slots.lock()[id] = Some(Ingredient::new(
                            id,
                            ck.params,
                            ck.val_accuracy,
                            ck.train_seed,
                        ));
                        queue.mark_done(id);
                        resumed.push(id);
                        soup_obs::counter!("distrib.resume.skipped").inc();
                    }
                    Err(err) => {
                        soup_obs::warn!("ingredient {id}: checkpoint rejected ({err}); retraining");
                        soup_obs::counter!("distrib.resume.invalid").inc();
                    }
                }
            }
            soup_obs::trace_event!("distrib.resume",
                "skipped" => resumed.len() as u64,
                "remaining" => (n - resumed.len()) as u64);
        }
    }

    // Each worker's kernels get an equal share of the caller's thread
    // budget, so W workers on W cores keep one kernel thread each.
    let kernel_threads = (parallel::current_threads() / opts.workers).max(1);
    std::thread::scope(|scope| {
        for worker_id in 0..opts.workers {
            let queue = &queue;
            let slots = &slots;
            let reports = &reports;
            let failed_tasks = &failed_tasks;
            let init = &init;
            let root = &root;
            let store = &store;
            scope.spawn(move || {
                let _worker_span = soup_obs::span!("worker");
                let mut trained = Vec::new();
                let busy_start = Instant::now();
                let mut task_time = Duration::ZERO;
                // Live heartbeat for the metrics sampler: when this worker
                // last made progress, and which ingredient it holds (-1
                // when idle). A stuck worker shows up as a frozen
                // heartbeat_s in the trace's `sample` records.
                let heartbeat =
                    soup_obs::registry::gauge(&format!("distrib.worker.{worker_id}.heartbeat_s"));
                let current_task =
                    soup_obs::registry::gauge(&format!("distrib.worker.{worker_id}.current_task"));
                let unix_now_s = || {
                    std::time::SystemTime::now()
                        .duration_since(std::time::SystemTime::UNIX_EPOCH)
                        .map(|d| d.as_secs_f64())
                        .unwrap_or(0.0)
                };
                heartbeat.set(unix_now_s());
                current_task.set(-1.0);
                loop {
                    let claim_start = Instant::now();
                    let Some(task) = queue.claim() else { break };
                    soup_obs::histogram!("distrib.queue.claim_wait_ns")
                        .record(claim_start.elapsed().as_nanos() as u64);
                    let task_start = Instant::now();
                    let ordinal = task.ordinal;
                    heartbeat.set(unix_now_s());
                    current_task.set(ordinal as f64);
                    soup_obs::debug!(
                        "worker {worker_id} claimed ingredient {ordinal} (attempt {})",
                        task.attempt
                    );
                    let _task_span = soup_obs::span!("ingredient");
                    // Seed keyed by ordinal only: retries and resumes
                    // reproduce the exact same ingredient.
                    let train_seed = root.derive(ordinal as u64 + 1).next_u64_peek();

                    // Panic boundary: a panicking attempt (injected or
                    // genuine) fails this task, never the worker.
                    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if fault::damage("train.panic") {
                            install_quiet_panic_hook();
                            std::panic::panic_any(InjectedFault);
                        }
                        let mut tm = parallel::with_threads(kernel_threads, || {
                            train_single(dataset, cfg, tc, init, train_seed)
                        });
                        // Poisoned output: the acceptance scan must catch it.
                        if fault::damage("train.nan") {
                            tm.params.layers[0].tensors[0].make_mut()[0] = f32::NAN;
                        }
                        tm
                    }));

                    let error = match attempt {
                        Err(payload) => {
                            soup_obs::counter!("distrib.worker_panics").inc();
                            Some(SoupError::WorkerPanic {
                                ordinal,
                                message: panic_message(payload.as_ref()),
                            })
                        }
                        Ok(tm) => {
                            // Acceptance scan: reject non-finite results
                            // before they can poison a soup or checkpoint.
                            let finite = tm
                                .params
                                .flat()
                                .all(|t| t.data().iter().all(|v| v.is_finite()));
                            if !finite {
                                Some(SoupError::corrupt(format!(
                                    "ingredient {ordinal}: training produced non-finite \
                                     parameters"
                                )))
                            } else {
                                if let Some(store) = &store {
                                    let ck = Checkpoint::new(
                                        ordinal,
                                        train_seed,
                                        tm.val_accuracy,
                                        tm.params.clone(),
                                    );
                                    let written = encode_checkpoint(&ck).and_then(|payload| {
                                        store.write_envelope(&checkpoint_name(ordinal), &payload)
                                    });
                                    match written {
                                        Ok(()) => {
                                            soup_obs::counter!("distrib.checkpoints_written").inc()
                                        }
                                        Err(err) => soup_obs::warn!(
                                            "ingredient {ordinal}: checkpoint write failed \
                                             ({err}); continuing without"
                                        ),
                                    }
                                }
                                if queue.complete(ordinal) {
                                    slots.lock()[ordinal] = Some(Ingredient::new(
                                        ordinal,
                                        tm.params,
                                        tm.val_accuracy,
                                        train_seed,
                                    ));
                                    trained.push(ordinal);
                                    soup_obs::counter!("distrib.tasks_completed").inc();
                                }
                                None
                            }
                        }
                    };
                    if let Some(err) = error {
                        match queue.fail(ordinal) {
                            FailAction::Requeued { next_attempt } => {
                                soup_obs::counter!("distrib.retries").inc();
                                soup_obs::warn!(
                                    "ingredient {ordinal} attempt {} failed ({err}); \
                                     requeued as attempt {next_attempt}",
                                    task.attempt
                                );
                            }
                            FailAction::Exhausted { attempts } => {
                                soup_obs::counter!("distrib.tasks_failed").inc();
                                soup_obs::warn!(
                                    "ingredient {ordinal} failed permanently after \
                                     {attempts} attempts ({err})"
                                );
                                failed_tasks.lock().push(FailedTask {
                                    ordinal,
                                    attempts,
                                    error: SoupError::Exhausted {
                                        ordinal,
                                        attempts,
                                        last: Box::new(err),
                                    },
                                });
                            }
                        }
                    }
                    task_time += task_start.elapsed();
                    heartbeat.set(unix_now_s());
                    current_task.set(-1.0);
                }
                let busy_time = busy_start.elapsed();
                // Time inside the claim loop but not spent training is
                // scheduling overhead / idle tail for this worker.
                let idle = busy_time.saturating_sub(task_time);
                soup_obs::registry::counter(&format!("distrib.worker.{worker_id}.tasks"))
                    .add(trained.len() as u64);
                soup_obs::registry::gauge(&format!("distrib.worker.{worker_id}.busy_s"))
                    .set(task_time.as_secs_f64());
                soup_obs::registry::gauge(&format!("distrib.worker.{worker_id}.idle_s"))
                    .set(idle.as_secs_f64());
                soup_obs::trace_event!("distrib.worker.done",
                    "worker_id" => worker_id as u64,
                    "tasks" => trained.len() as u64,
                    "busy_s" => task_time.as_secs_f64(),
                    "idle_s" => idle.as_secs_f64());
                reports.lock().push(WorkerReport {
                    worker_id,
                    ingredients_trained: trained,
                    busy_time,
                });
            });
        }
    });

    let ingredients: Vec<Ingredient> = slots.into_inner().into_iter().flatten().collect();
    let mut failed = failed_tasks.into_inner();
    failed.sort_by_key(|f| f.ordinal);
    let mut reports = reports.into_inner();
    reports.sort_by_key(|r| r.worker_id);
    let retries = queue.requeues();
    let wall_time = start.elapsed();
    soup_obs::gauge!("distrib.phase1.wall_s").set(wall_time.as_secs_f64());
    soup_obs::trace_event!("distrib.done",
        "ingredients" => ingredients.len() as u64,
        "resumed" => resumed.len() as u64,
        "failed" => failed.len() as u64,
        "retries" => retries,
        "workers" => opts.workers as u64,
        "wall_s" => wall_time.as_secs_f64());
    Ok(TrainRun {
        ingredients,
        reports,
        wall_time,
        resumed,
        failed,
        retries,
    })
}

/// Train `n` ingredients and return the detailed run record. Convenience
/// over [`train_ingredients_opts`] for callers that only vary worker count
/// and seed.
pub fn train_ingredients_detailed(
    dataset: &Dataset,
    cfg: &ModelConfig,
    tc: &TrainConfig,
    n: usize,
    workers: usize,
    seed: u64,
) -> TrainRun {
    let opts = TrainOpts::default().with_workers(workers).with_seed(seed);
    let run = train_ingredients_opts(dataset, cfg, tc, n, &opts)
        .expect("phase-1 setup failed without a checkpoint directory");
    assert!(
        run.failed.is_empty(),
        "worker pool left a task untrained: {:?}",
        run.missing_ordinals()
    );
    run
}

/// Convenience wrapper returning just the ingredients.
pub fn train_ingredients(
    dataset: &Dataset,
    cfg: &ModelConfig,
    tc: &TrainConfig,
    n: usize,
    workers: usize,
    seed: u64,
) -> Vec<Ingredient> {
    train_ingredients_detailed(dataset, cfg, tc, n, workers, seed).ingredients
}

/// Small extension trait: peek the first output of a derived stream as the
/// ingredient's seed without mutating the parent.
trait PeekSeed {
    fn next_u64_peek(self) -> u64;
}

impl PeekSeed for SplitMix64 {
    fn next_u64_peek(mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_gnn::checkpoint_path;
    use soup_graph::DatasetKind;

    fn setup() -> (Dataset, ModelConfig, TrainConfig) {
        let d = DatasetKind::Flickr.generate_scaled(30, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let tc = TrainConfig {
            epochs: 10,
            ..TrainConfig::quick()
        };
        (d, cfg, tc)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("soup_distrib_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trains_requested_count_in_id_order() {
        let (d, cfg, tc) = setup();
        let run = train_ingredients_detailed(&d, &cfg, &tc, 5, 3, 1);
        assert_eq!(run.ingredients.len(), 5);
        for (i, ing) in run.ingredients.iter().enumerate() {
            assert_eq!(ing.id, i);
        }
        assert!(run.failed.is_empty());
        assert!(run.resumed.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (d, cfg, tc) = setup();
        let serial = train_ingredients(&d, &cfg, &tc, 4, 1, 2);
        let parallel = train_ingredients(&d, &cfg, &tc, 4, 4, 2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.val_accuracy, b.val_accuracy, "ingredient {}", a.id);
            for (x, y) in a.params.flat().zip(b.params.flat()) {
                assert_eq!(x, y, "ingredient {} diverged across worker counts", a.id);
            }
        }
    }

    #[test]
    fn ingredients_are_diverse() {
        let (d, cfg, tc) = setup();
        let ingredients = train_ingredients(&d, &cfg, &tc, 3, 2, 3);
        assert!(ingredients[0].params.l2_distance(&ingredients[1].params) > 1e-4);
        assert!(ingredients[1].params.l2_distance(&ingredients[2].params) > 1e-4);
    }

    #[test]
    fn all_workers_report() {
        let (d, cfg, tc) = setup();
        let run = train_ingredients_detailed(&d, &cfg, &tc, 6, 3, 4);
        assert_eq!(run.reports.len(), 3);
        let total: usize = run
            .reports
            .iter()
            .map(|r| r.ingredients_trained.len())
            .sum();
        assert_eq!(total, 6);
        // Dynamic queue: every claimed set is disjoint.
        let mut all: Vec<usize> = run
            .reports
            .iter()
            .flat_map(|r| r.ingredients_trained.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_not_slower_wallclock() {
        // Soft check: with 4 ingredients, 4 workers should not be slower
        // than 1 worker by more than noise (they should be faster, but CI
        // variance makes a strict assertion flaky).
        let (d, cfg, tc) = setup();
        let one = train_ingredients_detailed(&d, &cfg, &tc, 4, 1, 5).wall_time;
        let four = train_ingredients_detailed(&d, &cfg, &tc, 4, 4, 5).wall_time;
        assert!(
            four.as_secs_f64() < one.as_secs_f64() * 1.5,
            "4 workers {four:?} much slower than 1 worker {one:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let (d, cfg, tc) = setup();
        train_ingredients(&d, &cfg, &tc, 2, 0, 1);
    }

    #[test]
    fn checkpoint_roundtrip_and_resume_trains_only_missing() {
        let (d, cfg, tc) = setup();
        let dir = tmpdir("resume");
        let opts = TrainOpts::default()
            .with_workers(2)
            .with_seed(21)
            .with_checkpoint_dir(&dir);
        let first = train_ingredients_opts(&d, &cfg, &tc, 4, &opts).unwrap();
        assert_eq!(first.ingredients.len(), 4);
        for id in 0..4 {
            assert!(
                checkpoint_path(&dir, id).exists(),
                "missing checkpoint {id}"
            );
        }

        // Simulate a killed run: one checkpoint missing, one corrupted.
        std::fs::remove_file(checkpoint_path(&dir, 1)).unwrap();
        std::fs::write(checkpoint_path(&dir, 3), "{truncated").unwrap();

        let resumed =
            train_ingredients_opts(&d, &cfg, &tc, 4, &opts.clone().with_resume(true)).unwrap();
        assert_eq!(resumed.resumed, vec![0, 2]);
        let trained: usize = resumed
            .reports
            .iter()
            .map(|r| r.ingredients_trained.len())
            .sum();
        assert_eq!(trained, 2, "resume must train exactly the missing two");
        assert_eq!(resumed.ingredients.len(), 4);
        for (a, b) in first.ingredients.iter().zip(&resumed.ingredients) {
            assert_eq!(a.val_accuracy, b.val_accuracy, "ingredient {}", a.id);
            for (x, y) in a.params.flat().zip(b.params.flat()) {
                assert_eq!(x, y, "ingredient {} diverged across resume", a.id);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_checkpoint_from_other_seed() {
        let (d, cfg, tc) = setup();
        let dir = tmpdir("seedswap");
        let opts = TrainOpts::default()
            .with_workers(1)
            .with_seed(31)
            .with_checkpoint_dir(&dir);
        train_ingredients_opts(&d, &cfg, &tc, 2, &opts).unwrap();
        // Same layout, different root seed: checkpoints must be rejected
        // (their train seeds no longer match) and everything retrained.
        let other = TrainOpts::default()
            .with_workers(1)
            .with_seed(32)
            .with_checkpoint_dir(&dir)
            .with_resume(true);
        let run = train_ingredients_opts(&d, &cfg, &tc, 2, &other).unwrap();
        assert!(
            run.resumed.is_empty(),
            "foreign checkpoints must not resume"
        );
        assert_eq!(run.ingredients.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
