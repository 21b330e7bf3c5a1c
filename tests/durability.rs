//! Crash-safe Phase-2: crash-at-every-epoch resume, storage-fault healing,
//! a damaged state file, and checkpoint-cadence invariants.
//!
//! The headline invariant: an LS or PLS run that dies after *any* durable
//! epoch and is resumed with `--resume` must produce the final α mix and
//! accuracy **bit-identically** to an uninterrupted run — the checkpoint
//! carries the full optimizer state (α, momentum velocity, RNG stream,
//! best-so-far, watchdog budget), so resumption replays exactly the
//! arithmetic the original run would have performed.
//!
//! A run dies at the store's armed crash point: `durable.rename` armed at
//! the `n`-th state write fails that write, so the state before it is the
//! last durable one, as if the process had been killed there. The pool is
//! trained without a checkpoint directory, so every `durable.*` and
//! `store.*` hit in this suite is a Phase-2 state write.

use enhanced_soups::prelude::*;
use enhanced_soups::soup::{
    load_state, LearnedHyper, LearnedSouping, PartitionLearnedSouping, SoupCtx, SoupOutcome,
};
use enhanced_soups::store::fault;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The fault arm is global to the process: every test holds this lock, so
/// an arm never strikes another test's writes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool every run in this suite soups, with one seed; what varies is
/// the persistence handle and the armed fault.
struct Pool {
    dataset: Dataset,
    cfg: ModelConfig,
    ingredients: Vec<Ingredient>,
}

impl Pool {
    fn new() -> Self {
        let dataset = DatasetKind::Flickr.generate_scaled(11, 0.15);
        let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(12);
        let tc = TrainConfig {
            epochs: 6,
            ..TrainConfig::quick()
        };
        let ingredients = train_ingredients(&dataset, &cfg, &tc, 4, 2, 7);
        Self {
            dataset,
            cfg,
            ingredients,
        }
    }

    /// One soup through the unified `SoupStrategy::try_soup` entry point.
    fn soup(
        &self,
        strategy: &dyn SoupStrategy,
        persist: Option<&Phase2Persist>,
    ) -> Result<SoupOutcome> {
        let ctx = SoupCtx::new(&self.ingredients, &self.dataset, &self.cfg, 42);
        let outcome = strategy.try_soup(&ctx.with_persist(persist))?;
        Ok(outcome.expect("try_soup always returns Some"))
    }

    /// Soup persisting every epoch into `dir` (resuming from it when asked)
    /// with the `hit`-th state write crashing before its rename. The run
    /// must fail with the injected `io` error.
    fn crash_at_write(&self, strategy: &dyn SoupStrategy, dir: &Path, resume: bool, hit: u64) {
        let persist = Phase2Persist::new(dir).every(1).resume(resume);
        fault::arm("durable.rename", hit, false);
        let crashed = self.soup(strategy, Some(&persist));
        let hits = fault::disarm();
        assert!(
            hits.get("durable.rename") >= Some(&hit),
            "state write #{hit} was never reached"
        );
        let err = crashed.expect_err("a crashed state write must fail the run");
        assert_eq!(err.kind(), "io", "{err}");
    }
}

/// The epoch a resume from `dir`'s durable `strategy` state continues at.
fn durable_epoch(dir: &Path, strategy: &str) -> u64 {
    let state = load_state(Phase2Persist::state_path(dir, strategy)).unwrap();
    state.expect("a durable state").next_epoch
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soup_dur_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bit_identical(a: &SoupOutcome, b: &SoupOutcome) -> bool {
    a.val_accuracy == b.val_accuracy
        && a.params
            .flat()
            .zip(b.params.flat())
            .all(|(x, y)| x.data() == y.data())
}

const EPOCHS: usize = 5;

fn hyper() -> LearnedHyper {
    LearnedHyper {
        epochs: EPOCHS,
        ..Default::default()
    }
}

fn resuming(dir: &Path) -> Phase2Persist {
    Phase2Persist::new(dir).every(1).resume(true)
}

/// LS killed after every epoch 1..EPOCHS, resumed, must match the
/// uninterrupted run bit for bit.
#[test]
fn ls_kill_at_every_epoch_resumes_bit_identically() {
    let _serial = serial();
    let pool = Pool::new();
    let ls = LearnedSouping::new(hyper());
    let baseline = pool.soup(&ls, None).unwrap();

    for kill_after in 1..EPOCHS as u64 {
        let dir = tmpdir(&format!("ls_kill_{kill_after}"));
        pool.crash_at_write(&ls, &dir, false, kill_after + 1);
        assert_eq!(durable_epoch(&dir, "ls"), kill_after);
        let resumed = pool.soup(&ls, Some(&resuming(&dir))).unwrap();
        assert!(
            bit_identical(&baseline, &resumed),
            "LS resumed from epoch {kill_after} diverged from the uninterrupted run \
             (acc {} vs {})",
            baseline.val_accuracy,
            resumed.val_accuracy
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Same bar for PLS: the draw sequence (partition subsets per epoch) is
/// part of the persisted RNG state, so resumption replays identical draws.
#[test]
fn pls_kill_at_every_epoch_resumes_bit_identically() {
    let _serial = serial();
    let pool = Pool::new();
    let pls = PartitionLearnedSouping::new(hyper(), 4, 2);
    let baseline = pool.soup(&pls, None).unwrap();

    for kill_after in 1..EPOCHS as u64 {
        let dir = tmpdir(&format!("pls_kill_{kill_after}"));
        pool.crash_at_write(&pls, &dir, false, kill_after + 1);
        assert_eq!(durable_epoch(&dir, "pls"), kill_after);
        let resumed = pool.soup(&pls, Some(&resuming(&dir))).unwrap();
        assert!(
            bit_identical(&baseline, &resumed),
            "PLS resumed from epoch {kill_after} diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A double kill (die after epoch 1, resume and die after epoch 3, resume
/// to completion) also lands on the uninterrupted result — resume composes.
#[test]
fn ls_double_kill_composes() {
    let _serial = serial();
    let pool = Pool::new();
    let ls = LearnedSouping::new(hyper());
    let baseline = pool.soup(&ls, None).unwrap();
    let dir = tmpdir("ls_double");

    pool.crash_at_write(&ls, &dir, false, 2);
    assert_eq!(durable_epoch(&dir, "ls"), 1);
    // Resumed at epoch 1, the run's writes are epochs 2, 3, 4, ...
    pool.crash_at_write(&ls, &dir, true, 3);
    assert_eq!(durable_epoch(&dir, "ls"), 3);
    let resumed = pool.soup(&ls, Some(&resuming(&dir))).unwrap();
    assert!(bit_identical(&baseline, &resumed), "double kill diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Storage faults on the Phase-2 state file heal through the store's
/// read-back verification: with each state write of an uninterrupted run
/// torn or flipped in turn, the final state on disk is the fault-free
/// run's, and a resume from it reaches the fault-free result.
#[test]
fn ls_resume_survives_storage_faults() {
    let _serial = serial();
    let pool = Pool::new();
    let ls = LearnedSouping::new(hyper());
    let baseline = pool.soup(&ls, None).unwrap();
    let persist = |dir: &Path| Phase2Persist::new(dir).every(1);

    // Count the state writes a run makes, then strike each one.
    let dir = tmpdir("ls_faults_census");
    fault::census();
    let clean = pool.soup(&ls, Some(&persist(&dir)));
    let writes = fault::disarm().get("store.tear").copied().unwrap_or(0);
    assert!(bit_identical(&baseline, &clean.unwrap()));
    assert_eq!(writes, EPOCHS as u64, "every(1) writes one state per epoch");
    let clean_state = std::fs::read(Phase2Persist::state_path(&dir, "ls")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    for site in ["store.tear", "store.flip"] {
        for hit in 1..=writes {
            let dir = tmpdir(&format!("ls_faults_{site}_{hit}"));
            fault::arm(site, hit, false);
            let armed = pool.soup(&ls, Some(&persist(&dir)));
            let hits = fault::disarm();
            assert!(
                hits.get(site) >= Some(&hit),
                "{site} #{hit} was never reached"
            );
            assert!(bit_identical(&baseline, &armed.unwrap()), "{site} #{hit}");
            let state = std::fs::read(Phase2Persist::state_path(&dir, "ls")).unwrap();
            assert!(state == clean_state, "{site} #{hit}: not healed in-run");

            let resumed = pool.soup(&ls, Some(&resuming(&dir))).unwrap();
            assert!(
                bit_identical(&baseline, &resumed),
                "{site} #{hit}: damaged writes on the state file must heal, not corrupt the resume"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A corrupt state file (a crash left it on disk, then it was damaged)
/// falls back to a fresh run instead of propagating garbage — and a fresh
/// run is still the fault-free answer.
#[test]
fn corrupt_state_file_falls_back_to_fresh_run() {
    let _serial = serial();
    let pool = Pool::new();
    let ls = LearnedSouping::new(hyper());
    let baseline = pool.soup(&ls, None).unwrap();
    let dir = tmpdir("ls_corrupt");

    pool.crash_at_write(&ls, &dir, false, 3);
    assert_eq!(durable_epoch(&dir, "ls"), 2);
    // Flip one payload byte of the durable state.
    let state_path = Phase2Persist::state_path(&dir, "ls");
    let mut bytes = std::fs::read(&state_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&state_path, bytes).unwrap();

    let resumed = pool.soup(&ls, Some(&resuming(&dir))).unwrap();
    assert!(
        bit_identical(&baseline, &resumed),
        "corrupt state must restart cleanly and reach the fault-free result"
    );
    std::fs::remove_dir_all(&dir).ok();
}
