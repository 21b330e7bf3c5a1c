//! Crash-safe Phase-2: kill-at-every-epoch resume, storage-fault healing,
//! a damaged state file, and checkpoint-cadence invariants.
//!
//! The headline invariant (ISSUE 5's acceptance bar): an LS or PLS run
//! killed after *any* durable epoch and resumed with `--resume` must
//! produce the final α mix and accuracy **bit-identically** to an
//! uninterrupted run — the checkpoint carries the full optimizer state
//! (α, momentum velocity, RNG stream, best-so-far, watchdog budget), so
//! resumption replays exactly the arithmetic the original run would have
//! performed.

use enhanced_soups::prelude::*;
use enhanced_soups::soup::{
    LearnedHyper, LearnedSouping, PartitionLearnedSouping, SoupCtx, SoupOutcome,
};
use enhanced_soups::store::fault;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The fault arm is global to the process: every test holds this lock, so
/// an arm never strikes another test's writes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// All runs in this suite share one seed; what varies is the persistence
/// handle. Routes through the unified `SoupStrategy::try_soup` entry point.
fn try_soup(
    strategy: &dyn SoupStrategy,
    ingredients: &[Ingredient],
    dataset: &Dataset,
    cfg: &ModelConfig,
    persist: Option<&Phase2Persist>,
) -> Result<Option<SoupOutcome>> {
    strategy.try_soup(&SoupCtx::new(ingredients, dataset, cfg, 42).with_persist_opt(persist))
}

fn setup() -> (Dataset, ModelConfig, Vec<Ingredient>) {
    let dataset = DatasetKind::Flickr.generate_scaled(11, 0.15);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(12);
    let tc = TrainConfig {
        epochs: 6,
        ..TrainConfig::quick()
    };
    let ingredients = train_ingredients(&dataset, &cfg, &tc, 4, 2, 7);
    (dataset, cfg, ingredients)
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

/// LS killed after every epoch 1..EPOCHS, resumed, must match the
/// uninterrupted run bit for bit.
#[test]
fn ls_kill_at_every_epoch_resumes_bit_identically() {
    let _serial = serial();
    let (dataset, cfg, ingredients) = setup();
    let ls = LearnedSouping::new(hyper());
    let baseline = try_soup(&ls, &ingredients, &dataset, &cfg, None)
        .unwrap()
        .unwrap();

    for kill_after in 1..EPOCHS {
        let dir = tmpdir(&format!("ls_kill_{kill_after}"));
        let stopping = Phase2Persist::new(&dir)
            .every(1)
            .stop_after(Some(kill_after));
        let stopped = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&stopping)).unwrap();
        assert!(
            stopped.is_none(),
            "stop_after({kill_after}) must terminate before the mix completes"
        );

        let resuming = Phase2Persist::new(&dir).every(1).resume(true);
        let resumed = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&resuming))
            .unwrap()
            .expect("resumed run must complete");
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
    let (dataset, cfg, ingredients) = setup();
    let pls = PartitionLearnedSouping::new(hyper(), 4, 2);
    let baseline = try_soup(&pls, &ingredients, &dataset, &cfg, None)
        .unwrap()
        .unwrap();

    for kill_after in 1..EPOCHS {
        let dir = tmpdir(&format!("pls_kill_{kill_after}"));
        let stopping = Phase2Persist::new(&dir)
            .every(1)
            .stop_after(Some(kill_after));
        let stopped = try_soup(&pls, &ingredients, &dataset, &cfg, Some(&stopping)).unwrap();
        assert!(stopped.is_none(), "stop_after({kill_after}) must stop PLS");

        let resuming = Phase2Persist::new(&dir).every(1).resume(true);
        let resumed = try_soup(&pls, &ingredients, &dataset, &cfg, Some(&resuming))
            .unwrap()
            .expect("resumed PLS run must complete");
        assert!(
            bit_identical(&baseline, &resumed),
            "PLS resumed from epoch {kill_after} diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A double kill (stop at 1, resume-and-stop at 3, resume to completion)
/// also lands on the uninterrupted result — resume composes.
#[test]
fn ls_double_kill_composes() {
    let _serial = serial();
    let (dataset, cfg, ingredients) = setup();
    let ls = LearnedSouping::new(hyper());
    let baseline = try_soup(&ls, &ingredients, &dataset, &cfg, None)
        .unwrap()
        .unwrap();
    let dir = tmpdir("ls_double");

    let first = Phase2Persist::new(&dir).every(1).stop_after(Some(1));
    assert!(try_soup(&ls, &ingredients, &dataset, &cfg, Some(&first))
        .unwrap()
        .is_none());
    let second = Phase2Persist::new(&dir)
        .every(1)
        .resume(true)
        .stop_after(Some(3));
    assert!(try_soup(&ls, &ingredients, &dataset, &cfg, Some(&second))
        .unwrap()
        .is_none());
    let last = Phase2Persist::new(&dir).every(1).resume(true);
    let resumed = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&last))
        .unwrap()
        .unwrap();
    assert!(bit_identical(&baseline, &resumed), "double kill diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Storage faults on the Phase-2 state file heal through the store's
/// read-back verification: with each state write of a stopped run torn or
/// flipped in turn, the state on disk is the fault-free run's, and the
/// resume reaches the fault-free result.
#[test]
fn ls_resume_survives_storage_faults() {
    let _serial = serial();
    let (dataset, cfg, ingredients) = setup();
    let ls = LearnedSouping::new(hyper());
    let baseline = try_soup(&ls, &ingredients, &dataset, &cfg, None)
        .unwrap()
        .unwrap();
    let stopping = |dir: &PathBuf| Phase2Persist::new(dir).every(1).stop_after(Some(2));

    // Count the state writes a stopped run makes, then strike each one.
    let dir = tmpdir("ls_faults_census");
    fault::census();
    let stopped = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&stopping(&dir)));
    let writes = fault::disarm().get("store.tear").copied().unwrap_or(0);
    assert!(stopped.unwrap().is_none());
    assert!(
        writes >= 2,
        "stop_after(2) with every(1) wrote {writes} states"
    );
    let clean_state = std::fs::read(Phase2Persist::state_path(&dir, "ls")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    for site in ["store.tear", "store.flip"] {
        for hit in 1..=writes {
            let dir = tmpdir(&format!("ls_faults_{site}_{hit}"));
            fault::arm(site, hit, false);
            let stopped = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&stopping(&dir)));
            let hits = fault::disarm();
            assert!(
                hits.get(site) >= Some(&hit),
                "{site} #{hit} was never reached"
            );
            assert!(stopped.unwrap().is_none(), "{site} #{hit}");
            let state = std::fs::read(Phase2Persist::state_path(&dir, "ls")).unwrap();
            assert!(state == clean_state, "{site} #{hit}: not healed in-run");

            let resuming = Phase2Persist::new(&dir).every(1).resume(true);
            let resumed = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&resuming))
                .unwrap()
                .unwrap();
            assert!(
                bit_identical(&baseline, &resumed),
                "{site} #{hit}: damaged writes on the state file must heal, not corrupt the resume"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A corrupt state file (damaged on disk after the run stopped) falls back
/// to a fresh run instead of propagating garbage — and a fresh run is
/// still the fault-free answer.
#[test]
fn corrupt_state_file_falls_back_to_fresh_run() {
    let _serial = serial();
    let (dataset, cfg, ingredients) = setup();
    let ls = LearnedSouping::new(hyper());
    let baseline = try_soup(&ls, &ingredients, &dataset, &cfg, None)
        .unwrap()
        .unwrap();
    let dir = tmpdir("ls_corrupt");

    let stopping = Phase2Persist::new(&dir).every(1).stop_after(Some(2));
    assert!(try_soup(&ls, &ingredients, &dataset, &cfg, Some(&stopping))
        .unwrap()
        .is_none());
    // Flip one payload byte of the durable state.
    let state_path = Phase2Persist::state_path(&dir, "ls");
    let mut bytes = std::fs::read(&state_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&state_path, bytes).unwrap();

    let resuming = Phase2Persist::new(&dir).every(1).resume(true);
    let resumed = try_soup(&ls, &ingredients, &dataset, &cfg, Some(&resuming))
        .unwrap()
        .unwrap();
    assert!(
        bit_identical(&baseline, &resumed),
        "corrupt state must restart cleanly and reach the fault-free result"
    );
    std::fs::remove_dir_all(&dir).ok();
}
