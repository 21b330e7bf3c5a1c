//! Every crash point of a small run, tried in turn.
//!
//! A clean run counts how often each fault point of `soup_store::fault` is
//! hit (its census); then every `(site, n)` is armed on its own, the run
//! repeats, and a resume must end bit-identical to the clean run. This is
//! ALICE's technique (Pillai et al., OSDI 2014) at the scale of one small
//! pipeline: the durable state is a few checkpoints, so every point in it
//! can be enumerated rather than sampled.
//!
//! 1. In-process: Phase 1 (GCN, R=3 on W=2 threads, checkpointed) then
//!    Learned Souping with a durable state every epoch. A crash point
//!    returns an injected `io` error; a damage point spoils its output.
//! 2. Sharded, K=2: `soupctl shard-worker` processes that arm themselves
//!    from the plan; a crash point ends the worker with exit code 86, as a
//!    kill would, and the supervisor must respawn it.
//! 3. Damage on disk: every checkpoint truncated or bit-flipped after a
//!    clean run; resume must detect it and recompute.
//!
//! Besides this binary, only `tests/durability.rs` (`store.*` on the LS
//! state writes) and `tests/fault_tolerance.rs` (`train.*` on Phase-1
//! attempts) arm the hook. The arm is global to the process, so every test
//! of these binaries holds its binary's [`serial`] lock for its whole run.

use enhanced_soups::distrib::{
    prepare_sharded_dataset, run_sharded, FaultArm, ShardPlan, ShardResult, ShardRunReport,
    WorkerLaunch,
};
use enhanced_soups::gnn::load_checkpoint;
use enhanced_soups::graph::mmap::save_mmap_dataset;
use enhanced_soups::prelude::*;
use enhanced_soups::soup::{load_manifest, LearnedHyper, SoupCtx};
use enhanced_soups::store::fault;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soup-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every regular file of `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Copy the regular files of `src`, recursively.
fn copy_run(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap().flatten() {
        let ty = e.file_type().unwrap();
        if ty.is_dir() {
            copy_run(&e.path(), &dst.join(e.file_name()));
        } else if ty.is_file() {
            std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
        }
    }
}

/// The two kinds of damage a file gets on disk: torn at half its length,
/// or one bit flipped — in the middle byte of a checkpoint (its payload,
/// behind the checksum), in the opening brace of a JSON file.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Truncate,
    Flip,
}

impl Damage {
    fn apply(self, path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        let json = path.extension().is_some_and(|e| e == "json");
        match self {
            Damage::Truncate => bytes.truncate(mid),
            Damage::Flip => bytes[if json { 0 } else { mid }] ^= 0x01,
        }
        std::fs::write(path, bytes).unwrap();
    }
}

fn is_checkpoint(name: &str) -> bool {
    (name.starts_with("ingredient_") || name.starts_with("phase2_")) && name.ends_with(".ck")
}

/// A durable write's temp files (`.NAME.tmp.PID.SEQ`) left in `dir` or the
/// directories below it: once a run has recovered there must be none, even
/// where a writer died between creating one and its rename.
fn temp_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for e in std::fs::read_dir(dir).unwrap().flatten() {
        if e.file_type().unwrap().is_dir() {
            found.extend(temp_files(&e.path()));
        } else if e.file_name().to_string_lossy().contains(".tmp.") {
            found.push(e.path());
        }
    }
    found
}

// ---------------------------------------------------------------------------
// In-process: Phase 1 + Learned Souping
// ---------------------------------------------------------------------------

const R: usize = 3;
const SEED: u64 = 21;

struct Pipeline {
    dataset: Dataset,
    cfg: ModelConfig,
    tc: TrainConfig,
}

/// What a run leaves behind: the Phase-1 record and the soup (`Err` when a
/// crash point aborted Phase 2).
struct Outcome {
    run: TrainRun,
    soup: Result<SoupOutcome>,
}

impl Pipeline {
    fn new() -> Self {
        let dataset = DatasetKind::Flickr.generate_scaled(3, 0.08);
        let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(8);
        let tc = TrainConfig {
            epochs: 4,
            ..TrainConfig::quick()
        };
        Self { dataset, cfg, tc }
    }

    fn train(&self, opts: &TrainOpts, n: usize) -> TrainRun {
        train_ingredients_opts(&self.dataset, &self.cfg, &self.tc, n, opts).unwrap()
    }

    /// Phase 1 checkpointed into `dir`, then LS persisting its state there
    /// every epoch; with `resume`, both continue from what `dir` holds.
    fn run(&self, dir: &Path, resume: bool) -> Outcome {
        let opts = TrainOpts::default()
            .with_workers(2)
            .with_seed(SEED)
            .with_checkpoint_dir(dir)
            .with_resume(resume);
        let run = self.train(&opts, R);
        let persist = Phase2Persist::new(dir).every(1).resume(resume);
        let ls = LearnedSouping::new(LearnedHyper {
            epochs: 4,
            ..Default::default()
        });
        let ctx = SoupCtx::new(&run.ingredients, &self.dataset, &self.cfg, SEED);
        let soup = ls.try_soup(&ctx.with_persist(Some(&persist)));
        let soup = soup.map(|s| s.expect("try_soup always returns Some"));
        Outcome { run, soup }
    }
}

fn soup_bits(soup: &SoupOutcome) -> (u64, Vec<u32>) {
    let params = soup.params.flat();
    let bits = params.flat_map(|t| t.data().iter().map(|v| v.to_bits()));
    (soup.val_accuracy.to_bits(), bits.collect())
}

fn ingredient_bits(ingredients: &[Ingredient]) -> Vec<(usize, Vec<u32>)> {
    let bits = |i: &Ingredient| {
        let params = i.params.flat();
        params
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect()
    };
    ingredients.iter().map(|i| (i.id, bits(i))).collect()
}

/// The clean run's checkpoints and soup, and its census.
struct Clean {
    checkpoints: BTreeMap<String, Vec<u8>>,
    soup: (u64, Vec<u32>),
    census: BTreeMap<&'static str, u64>,
}

fn clean_run(p: &Pipeline, dir: &Path) -> Clean {
    fault::census();
    let out = p.run(dir, false);
    let census = fault::disarm();
    let soup = soup_bits(&out.soup.unwrap());
    let mut checkpoints = files(dir);
    checkpoints.retain(|name, _| is_checkpoint(name));
    assert_eq!(checkpoints.len(), R + 1, "{:?}", checkpoints.keys());
    Clean {
        checkpoints,
        soup,
        census,
    }
}

/// Resume in `dir` with nothing armed; every checkpoint and the soup must
/// equal the clean run's bytes.
fn assert_resumes_to(p: &Pipeline, dir: &Path, clean: &Clean, what: &str) -> Outcome {
    let out = p.run(dir, true);
    let soup = out.soup.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(out.run.failed.is_empty(), "{what}: {:?}", out.run.failed);
    assert!(soup_bits(soup) == clean.soup, "{what}: soup diverged");
    let mut on_disk = files(dir);
    on_disk.retain(|name, _| is_checkpoint(name));
    assert!(on_disk == clean.checkpoints, "{what}: checkpoints diverged");
    assert_eq!(temp_files(dir), Vec::<PathBuf>::new(), "{what}");
    out
}

/// Arm every point the clean run's census counts, one at a time: the armed
/// run, then a resume, must end with the clean run's checkpoints and soup.
#[test]
fn in_process_pipeline_recovers_at_every_point() {
    let _serial = serial();
    let p = Pipeline::new();
    let root = tmpdir("inproc");
    let clean = clean_run(&p, &root.join("clean"));
    for site in [
        "durable.write",
        "durable.rename",
        "store.tear",
        "train.panic",
    ] {
        assert!(clean.census.contains_key(site), "{site} never hit");
    }
    let mut points = 0;
    for (&site, &count) in &clean.census {
        for hit in 1..=count {
            let what = format!("{site} #{hit}");
            let dir = root.join(format!("{site}-{hit}"));
            fault::arm(site, hit, false);
            let armed = p.run(&dir, false);
            let hits = fault::disarm();
            assert!(hits.get(site) >= Some(&hit), "{what} was never reached");
            if site.starts_with("train.") {
                // Retried in the same run: a failed attempt is requeued.
                assert!(
                    armed.run.failed.is_empty(),
                    "{what}: {:?}",
                    armed.run.failed
                );
                assert!(armed.run.retries > 0, "{what}: nothing was retried");
            }
            if site.starts_with("store.") {
                // Healed in the same run by the read-back verification.
                assert!(armed.soup.is_ok(), "{what}: {:?}", armed.soup.err());
                let mut on_disk = files(&dir);
                on_disk.retain(|name, _| is_checkpoint(name));
                assert!(on_disk == clean.checkpoints, "{what}: not healed in-run");
            }
            assert_resumes_to(&p, &dir, &clean, &what);
            let _ = std::fs::remove_dir_all(&dir);
            points += 1;
        }
    }
    println!("in-process: {points} points over {:?}", clean.census);
    let _ = std::fs::remove_dir_all(&root);
}

/// Each checkpoint of a clean run torn or bit-flipped on disk: resume must
/// reject every one, retrain or re-optimise, and end bit-identical.
#[test]
fn damaged_checkpoints_are_recomputed() {
    let _serial = serial();
    let p = Pipeline::new();
    let root = tmpdir("ondisk");
    let clean_dir = root.join("clean");
    let clean = clean_run(&p, &clean_dir);
    for damage in [Damage::Truncate, Damage::Flip] {
        let dir = root.join(format!("{damage:?}"));
        copy_run(&clean_dir, &dir);
        for name in clean.checkpoints.keys() {
            damage.apply(&dir.join(name));
        }
        let out = assert_resumes_to(&p, &dir, &clean, &format!("{damage:?}"));
        assert!(
            out.run.resumed.is_empty(),
            "{damage:?}: a damaged checkpoint was trusted: {:?}",
            out.run.resumed
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// With no retries left, a struck attempt is a permanent, typed failure,
/// and the survivors are still the canonical ingredients.
#[test]
fn exhausted_budget_degrades_into_failed_list() {
    let _serial = serial();
    let p = Pipeline::new();
    let clean = p.train(&TrainOpts::default().with_workers(2).with_seed(12), 4);
    for site in ["train.panic", "train.nan"] {
        let opts = TrainOpts::default()
            .with_workers(2)
            .with_seed(12)
            .with_retry_budget(0);
        fault::arm(site, 2, false);
        let run = p.train(&opts, 4);
        fault::disarm();
        assert_eq!(run.failed.len(), 1, "{site}");
        assert_eq!(run.ingredients.len(), 3, "{site}");
        for f in &run.failed {
            assert_eq!(f.attempts, 1);
            assert_eq!(f.error.kind(), "exhausted");
        }
        let survivors = ingredient_bits(&run.ingredients);
        let canonical = ingredient_bits(&clean.ingredients);
        for ing in &survivors {
            assert!(
                canonical.contains(ing),
                "{site}: survivor {} diverged",
                ing.0
            );
        }
    }
}

/// A torn or flipped first write reads back damaged and is rewritten
/// clean; the write after it is not struck.
#[test]
fn store_heals_torn_and_flipped_writes() {
    let _serial = serial();
    let dir = tmpdir("store");
    let store = Store::open(&dir).unwrap();
    for site in ["store.tear", "store.flip"] {
        for hit in 1..=4 {
            fault::arm(site, hit, false);
            for i in 0..4 {
                let name = format!("ingredient_{i}.ck");
                let payload = format!("{{\"id\":{i}}}").into_bytes();
                store.write_envelope(&name, &payload).unwrap();
                assert_eq!(
                    store.read_envelope(&name).unwrap(),
                    payload,
                    "{site} #{hit}"
                );
            }
            assert_eq!(fault::disarm()[site], 4);
        }
        fault::arm(site, 1, false);
        store.write_envelope("x.ck", b"v1").unwrap();
        store.write_envelope("x.ck", b"v2").unwrap();
        fault::disarm();
        assert_eq!(store.read_envelope("x.ck").unwrap(), b"v2");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Sharded, K=2: worker processes armed through the plan
// ---------------------------------------------------------------------------

/// A prepared K=2 dataset and the plan every run starts from.
struct Sharded {
    root: PathBuf,
    plan: ShardPlan,
    launch: WorkerLaunch,
}

/// What a sharded run must reproduce: per shard, the ingredient parameters
/// and the `correct` / `val_accuracy` bits of its result.
type ShardBits = Vec<(Vec<(String, Vec<u32>)>, u64, u64)>;

impl Sharded {
    fn new(tag: &str) -> Self {
        let root = tmpdir(tag);
        let src = root.join("ds.gmm");
        save_mmap_dataset(&DatasetKind::Flickr.generate_scaled(33, 0.08), &src).unwrap();
        let sharded = root.join("sharded.gmm");
        let report = prepare_sharded_dataset(&src, 2, &sharded).unwrap();
        let plan = ShardPlan {
            version: 1,
            dataset: sharded.display().to_string(),
            k: 2,
            ranges: report.ranges,
            seed: 7,
            rounds: 2,
            arch: "gcn".into(),
            hidden: 8,
            layers: 2,
            dropout: 0.5,
            epochs: 4,
            lr: 0.01,
            strategy: "pls".into(),
            soup_epochs: 3,
            pls_k: 4,
            pls_r: 2,
            out_dir: String::new(),
            no_shm: false,
            resume: false,
            worker_timeout_ms: 10_000,
            restart_budget: 2,
            chaos: None,
        };
        let launch = WorkerLaunch::new(env!("CARGO_BIN_EXE_soupctl").into(), &["shard-worker"]);
        Self { root, plan, launch }
    }

    fn run(&self, name: &str, edit: impl FnOnce(&mut ShardPlan)) -> (PathBuf, ShardRunReport) {
        let mut plan = self.plan.clone();
        plan.out_dir = self.root.join(name).display().to_string();
        edit(&mut plan);
        let report = run_sharded(&plan, &self.launch).unwrap_or_else(|e| panic!("{name}: {e}"));
        (plan.out_dir_path(), report)
    }
}

fn shard_bits(out_dir: &Path, report: &ShardRunReport) -> ShardBits {
    report
        .per_shard
        .iter()
        .map(|r| {
            let dir = out_dir.join(format!("shard-{}", r.shard));
            let mut names: Vec<String> = files(&dir)
                .into_keys()
                .filter(|n| n.starts_with("ingredient_") && n.ends_with(".ck"))
                .collect();
            names.sort();
            let checkpoints = names
                .into_iter()
                .map(|name| {
                    let ck = load_checkpoint(dir.join(&name)).unwrap();
                    let params = ck.params.flat();
                    let bits = params.flat_map(|t| t.data().iter().map(|v| v.to_bits()));
                    (name, bits.collect())
                })
                .collect();
            (checkpoints, r.correct, r.val_accuracy.to_bits())
        })
        .collect()
}

/// The durable `run.json` provenance the supervisor writes.
fn provenance(out_dir: &Path) -> serde_json::JsonValue {
    let text = std::fs::read_to_string(out_dir.join("run.json")).unwrap();
    serde_json::from_str(&text).expect("run.json parses")
}

fn arm(shard: usize, site: &str, hit: u64) -> Option<FaultArm> {
    Some(FaultArm {
        shard,
        site: site.into(),
        hit,
        every_incarnation: false,
    })
}

/// A worker struck at any point — each step on each shard, and each
/// durable step of shard 0's first checkpoint and of its `result.json` —
/// is respawned from its checkpoints, the finished run is bit-identical to
/// a clean one, and no durable write's temp file is left behind.
#[test]
fn sharded_run_recovers_at_every_point() {
    let _serial = serial();
    let env = Sharded::new("sharded");
    let (clean_dir, clean) = env.run("clean", |_| {});
    assert!(!clean.is_degraded() && clean.restarts == 0);
    let clean_bits = shard_bits(&clean_dir, &clean);
    assert_eq!(clean_bits.len(), 2);

    // Shard 0 writes its checkpoints, its manifest, then result.json, each
    // through one durable write: the last write is hit `rounds + 2`. One
    // hit further is never reached, so that run must need no respawn.
    let result_write = env.plan.rounds as u64 + 2;
    let (past, report) = env.run("past-result", |plan| {
        plan.chaos = arm(0, "durable.rename", result_write + 1);
    });
    assert_eq!(
        report.restarts, 0,
        "result.json is not shard 0's last write"
    );
    let _ = std::fs::remove_dir_all(&past);

    let mut cases: Vec<(String, Option<FaultArm>)> = Vec::new();
    for shard in 0..2 {
        for step in ["spawn", "fetch", "train", "soup", "report"] {
            let site = format!("worker.{step}");
            cases.push((format!("{site} on shard {shard}"), arm(shard, &site, 1)));
        }
    }
    for step in ["write", "fsync", "rename", "dir_fsync"] {
        let site = format!("durable.{step}");
        for (file, hit) in [("first checkpoint", 1), ("result.json", result_write)] {
            cases.push((format!("{site} of shard 0's {file}"), arm(0, &site, hit)));
        }
    }
    let points = cases.len();
    for (i, (what, chaos)) in cases.into_iter().enumerate() {
        let (dir, report) = env.run(&format!("case-{i}"), |plan| plan.chaos = chaos);
        assert!(!report.is_degraded(), "{what} degraded the run");
        assert!(report.restarts >= 1, "{what} recorded no respawn");
        let prov = provenance(&dir);
        assert_eq!(
            prov.get("degraded"),
            Some(&serde_json::JsonValue::Bool(false))
        );
        assert!(
            shard_bits(&dir, &report) == clean_bits,
            "{what}: recovered run diverged from the clean run"
        );
        assert_eq!(temp_files(&dir), Vec::<PathBuf>::new(), "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("sharded: {points} points");
    let _ = std::fs::remove_dir_all(&env.root);
}

/// Every shard's checkpoints torn or bit-flipped, plus a damaged manifest,
/// result and plan: the readers fail typed, and a resume recomputes every
/// checkpoint bit-identically.
#[test]
fn damaged_shard_artifacts_are_recomputed() {
    let _serial = serial();
    let env = Sharded::new("shard-ondisk");
    let (clean_dir, clean) = env.run("clean", |_| {});
    let clean_bits = shard_bits(&clean_dir, &clean);
    let clean_manifest = std::fs::read(clean_dir.join("shard-0/manifest.json")).unwrap();
    for damage in [Damage::Truncate, Damage::Flip] {
        let dir = env.root.join(format!("{damage:?}"));
        copy_run(&clean_dir, &dir);
        for shard in 0..2 {
            let shard_dir = dir.join(format!("shard-{shard}"));
            for name in files(&shard_dir).into_keys() {
                if is_checkpoint(&name) || name.ends_with(".json") {
                    damage.apply(&shard_dir.join(name));
                }
            }
        }
        damage.apply(&dir.join("plan.json"));

        // Every reader of these files fails typed, without a panic.
        let shard0 = dir.join("shard-0");
        let err = load_manifest(&shard0).unwrap_err();
        assert!(
            matches!(err.kind(), "parse" | "corrupt"),
            "{damage:?}: {err}"
        );
        let err = ShardPlan::load(dir.join("plan.json")).unwrap_err();
        assert_eq!(err.kind(), "corrupt", "{damage:?}: {err}");
        let err = ShardResult::load(&shard0.join("result.json"), 0).unwrap_err();
        assert_eq!(err.kind(), "corrupt", "{damage:?}: {err}");
        let verify = std::process::Command::new(env!("CARGO_BIN_EXE_soupctl"))
            .arg("verify")
            .arg(&shard0)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&verify.stderr);
        assert_eq!(verify.status.code(), Some(1), "{damage:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");

        let (dir, report) = env.run(&format!("{damage:?}"), |plan| plan.resume = true);
        assert!(!report.is_degraded() && report.restarts == 0);
        for r in &report.per_shard {
            assert_eq!(
                r.resumed, 0,
                "{damage:?}: shard {} trusted a damaged file",
                r.shard
            );
        }
        assert!(
            shard_bits(&dir, &report) == clean_bits,
            "{damage:?} diverged"
        );
        let manifest = std::fs::read(dir.join("shard-0/manifest.json")).unwrap();
        assert_eq!(
            manifest, clean_manifest,
            "{damage:?}: manifest not rewritten"
        );
    }
    let _ = std::fs::remove_dir_all(&env.root);
}

/// When a shard defeats its restart budget the run must *finish* — souping
/// over the surviving shards — and say exactly what is missing in the
/// durable run.json.
#[test]
fn budget_exhaustion_degrades_with_explicit_provenance() {
    let _serial = serial();
    let env = Sharded::new("degraded");
    let (run, report) = env.run("run", |plan| {
        plan.restart_budget = 1;
        plan.chaos = Some(FaultArm {
            every_incarnation: true,
            ..arm(0, "worker.spawn", 1).unwrap()
        });
    });
    assert!(report.is_degraded());
    assert_eq!(report.missing, vec![0]);
    assert_eq!(report.restarts, 1);

    let prov = provenance(&run);
    assert_eq!(
        prov.get("degraded"),
        Some(&serde_json::JsonValue::Bool(true))
    );
    let ids = |key: &str| -> Vec<u64> {
        let list = prov.get(key).and_then(|v| v.as_array()).expect(key);
        list.iter().map(|v| v.as_u64().unwrap()).collect()
    };
    assert_eq!(ids("missing"), vec![0]);
    assert_eq!(ids("surviving_shards"), vec![1]);

    // The survivor's artifacts are complete and audit clean; the lost
    // shard reported nothing.
    assert_eq!(report.per_shard.len(), 1);
    assert_eq!(report.per_shard[0].shard, 1);
    assert_eq!(report.per_shard[0].ingredients, 2);
    assert!(
        !run.join("shard-0/result.json").exists(),
        "a shard that never ran must not report a result"
    );
    let audit = std::process::Command::new(env!("CARGO_BIN_EXE_soupctl"))
        .arg("verify")
        .arg(run.join("shard-1"))
        .output()
        .unwrap();
    assert!(audit.status.success());
    assert!(String::from_utf8_lossy(&audit.stdout).contains("all clean"));
    let _ = std::fs::remove_dir_all(&env.root);
}
