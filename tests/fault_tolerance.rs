//! Fault-tolerant Phase-1 integration: injected faults, kill-then-resume,
//! and degraded souping over a partial ingredient pool.
//!
//! The invariant under test throughout is the paper's determinism
//! property: ingredient `i`'s training seed is keyed by its ordinal, never
//! by worker identity or attempt number, so every recovery path must
//! reproduce the fault-free parameters bit for bit.

use enhanced_soups::prelude::*;
use enhanced_soups::soup::LearnedHyper;
use enhanced_soups::store::fault;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The fault arm is global to the process: every test holds this lock, so
/// an arm never strikes another test's attempts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn setup(seed: u64) -> (Dataset, ModelConfig, TrainConfig) {
    let dataset = DatasetKind::Flickr.generate_scaled(seed, 0.15);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(12);
    let tc = TrainConfig {
        epochs: 8,
        ..TrainConfig::quick()
    };
    (dataset, cfg, tc)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soup_ft_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bit_identical(a: &Ingredient, b: &Ingredient) -> bool {
    a.id == b.id
        && a.train_seed == b.train_seed
        && a.params.flat().zip(b.params.flat()).all(|(x, y)| x == y)
}

/// A fault struck into any one of the first six attempts, a panic or a
/// poisoned (NaN) result, must not change a single bit of any ingredient
/// once the retries settle.
#[test]
fn fault_rate_survivors_are_bit_identical() {
    let _serial = serial();
    let (dataset, cfg, tc) = setup(3);
    let clean = train_ingredients(&dataset, &cfg, &tc, 6, 3, 21);
    let opts = TrainOpts::default()
        .with_workers(3)
        .with_seed(21)
        .with_retry_budget(2);
    for site in ["train.panic", "train.nan"] {
        for hit in 1..=6 {
            fault::arm(site, hit, false);
            let faulty = train_ingredients_opts(&dataset, &cfg, &tc, 6, &opts).unwrap();
            let hits = fault::disarm();
            assert!(
                hits.get(site) >= Some(&hit),
                "{site} #{hit} was never reached"
            );
            assert!(
                faulty.failed.is_empty(),
                "{site} #{hit}: a struck attempt with budget 2 must recover: {:?}",
                faulty.failed
            );
            assert!(faulty.retries > 0, "{site} #{hit}: nothing was retried");
            assert_eq!(faulty.ingredients.len(), clean.len());
            for (a, b) in clean.iter().zip(&faulty.ingredients) {
                assert!(
                    bit_identical(a, b),
                    "{site} #{hit}: ingredient {} diverged",
                    a.id
                );
            }
        }
    }
}

/// Kill-then-resume round trip: a run that dies after checkpointing some
/// ingredients is resumed, retrains only the missing/corrupt ones, and
/// ends bit-identical to an uninterrupted run.
#[test]
fn kill_then_resume_round_trip() {
    let _serial = serial();
    let (dataset, cfg, tc) = setup(4);
    let dir = tmpdir("resume");
    let opts = TrainOpts::default()
        .with_workers(2)
        .with_seed(33)
        .with_checkpoint_dir(&dir);
    let full = train_ingredients_opts(&dataset, &cfg, &tc, 5, &opts).unwrap();
    assert_eq!(full.ingredients.len(), 5);

    // Simulate the kill: ingredient 1 never got written, ingredient 3 was
    // truncated mid-write.
    std::fs::remove_file(dir.join("ingredient_1.ck")).unwrap();
    let intact = std::fs::read(dir.join("ingredient_3.ck")).unwrap();
    std::fs::write(dir.join("ingredient_3.ck"), &intact[..intact.len() / 2]).unwrap();

    let resumed_run =
        train_ingredients_opts(&dataset, &cfg, &tc, 5, &opts.clone().with_resume(true)).unwrap();
    assert_eq!(
        resumed_run.resumed,
        vec![0, 2, 4],
        "intact checkpoints must be adopted, missing/corrupt retrained"
    );
    assert_eq!(resumed_run.ingredients.len(), 5);
    for (a, b) in full.ingredients.iter().zip(&resumed_run.ingredients) {
        assert!(
            bit_identical(a, b),
            "resume diverged on ingredient {}",
            a.id
        );
    }

    // The retrained checkpoints are valid again: a second resume adopts all.
    let third = train_ingredients_opts(&dataset, &cfg, &tc, 5, &opts.with_resume(true)).unwrap();
    assert_eq!(third.resumed, vec![0, 1, 2, 3, 4]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint directory from a different root seed must be rejected on
/// resume rather than silently poisoning the run.
#[test]
fn resume_ignores_foreign_seed_checkpoints() {
    let _serial = serial();
    let (dataset, cfg, tc) = setup(5);
    let dir = tmpdir("foreign");
    let opts = |seed: u64| {
        TrainOpts::default()
            .with_workers(2)
            .with_seed(seed)
            .with_checkpoint_dir(&dir)
    };
    train_ingredients_opts(&dataset, &cfg, &tc, 3, &opts(1)).unwrap();
    let other = train_ingredients_opts(&dataset, &cfg, &tc, 3, &opts(2).with_resume(true)).unwrap();
    assert!(
        other.resumed.is_empty(),
        "seed-1 checkpoints must not satisfy a seed-2 resume"
    );
    let fresh = train_ingredients(&dataset, &cfg, &tc, 3, 2, 2);
    for (a, b) in fresh.iter().zip(&other.ingredients) {
        assert!(
            bit_identical(a, b),
            "ingredient {} poisoned by resume",
            a.id
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every strategy must accept a partial pool (R' < R): the mix
/// renormalises over the survivors and the outcome records who was
/// missing.
#[test]
fn degraded_soup_over_partial_pool() {
    let _serial = serial();
    let (dataset, cfg, tc) = setup(6);
    let full: Vec<Ingredient> = train_ingredients(&dataset, &cfg, &tc, 5, 3, 9);
    // Ordinals 1 and 3 failed permanently; the pool degrades to R' = 3.
    let partial: Vec<Ingredient> = full
        .iter()
        .filter(|ing| ing.id != 1 && ing.id != 3)
        .cloned()
        .collect();
    let hyper = LearnedHyper {
        epochs: 10,
        ..Default::default()
    };
    let strategies: Vec<Box<dyn SoupStrategy>> = vec![
        Box::new(UniformSouping),
        Box::new(GisSouping::new(5)),
        Box::new(LearnedSouping::new(hyper)),
        Box::new(PartitionLearnedSouping::new(hyper, 6, 2)),
    ];
    let random = 1.0 / dataset.num_classes() as f64;
    for s in strategies {
        let outcome = s.soup(&partial, &dataset, &cfg, 13);
        assert_eq!(
            outcome.missing,
            vec![1, 3],
            "{} must record the missing ordinals",
            s.name()
        );
        assert!(outcome.is_degraded(), "{}", s.name());
        assert!(
            outcome.params.same_shape(&full[0].params),
            "{} shape after degradation",
            s.name()
        );
        assert!(
            outcome
                .params
                .flat()
                .all(|t| t.data().iter().all(|v| v.is_finite())),
            "{} produced non-finite parameters from a partial pool",
            s.name()
        );
        assert!(
            outcome.val_accuracy > random * 0.8,
            "{} collapsed on a partial pool: {:.3}",
            s.name(),
            outcome.val_accuracy
        );
    }

    // A full pool is not degraded.
    let outcome = UniformSouping.soup(&full, &dataset, &cfg, 13);
    assert!(outcome.missing.is_empty() && !outcome.is_degraded());
}
