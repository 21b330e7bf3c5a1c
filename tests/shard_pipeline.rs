//! Multi-process sharded pipeline, end to end through the `soupctl`
//! binary: generate a dataset, feed the same file to every command,
//! partition it, run K worker processes through Phase-1 + souping, and
//! audit the artifacts — plus
//! the shard layer's determinism guarantee: runs are bit-identical across
//! repetitions at a fixed seed. Recovery from a worker killed at any point
//! is `tests/crash_points.rs`'s job.

use enhanced_soups::distrib::{run_sharded, ShardPlan, ShardResult, WorkerLaunch};
use enhanced_soups::gnn::{check_params, load_checkpoint};
use enhanced_soups::graph::mmap::{save_mmap_dataset, MmapDataset};
use enhanced_soups::graph::DatasetKind;
use enhanced_soups::soup::load_manifest;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn soupctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_soupctl"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn soupctl");
    assert!(
        out.status.success(),
        "soupctl failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soup-shardpipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_dataset(dir: &Path) -> PathBuf {
    let ds = dir.join("ds.gmm");
    run_ok(soupctl().args([
        "generate",
        "--dataset",
        "flickr",
        "--scale",
        "0.08",
        "--seed",
        "33",
        "--out",
        ds.to_str().unwrap(),
    ]));
    ds
}

/// One small K=2 sharded run; returns its stdout.
fn shard_run(ds: &Path, out_dir: &Path) -> String {
    let mut cmd = soupctl();
    cmd.args([
        "shard",
        "--data",
        ds.to_str().unwrap(),
        "--k",
        "2",
        "--out-dir",
        out_dir.to_str().unwrap(),
        "--ingredients",
        "2",
        "--epochs",
        "4",
        "--hidden",
        "8",
        "--strategy",
        "pls",
        "--soup-epochs",
        "3",
        "--pls-k",
        "4",
        "--pls-r",
        "2",
        "--seed",
        "7",
    ]);
    run_ok(&mut cmd)
}

fn shard_result(out_dir: &Path, shard: usize) -> ShardResult {
    let path = out_dir.join(format!("shard-{shard}/result.json"));
    ShardResult::load(&path, shard).unwrap_or_else(|e| panic!("{e}"))
}

/// Every ingredient checkpoint's parameters, as raw f32 bit patterns, in
/// filename order. Envelope bytes are not compared (they carry metadata);
/// the parameters are what determinism is about.
fn checkpoint_bits(shard_dir: &Path) -> Vec<(String, Vec<u32>)> {
    let mut names: Vec<String> = std::fs::read_dir(shard_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ingredient_") && n.ends_with(".ck"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no checkpoints in {shard_dir:?}");
    names
        .into_iter()
        .map(|name| {
            let ck = load_checkpoint(shard_dir.join(&name)).expect("checkpoint loads");
            let bits: Vec<u32> = ck
                .params
                .flat()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect();
            (name, bits)
        })
        .collect()
}

#[test]
fn mmap_dataset_round_trips_bitwise_against_in_memory() {
    let dir = tmpdir("roundtrip");
    let d = DatasetKind::Flickr.generate_scaled(5, 0.05);
    let path = dir.join("rt.gmm");
    save_mmap_dataset(&d, &path).unwrap();
    let m = MmapDataset::open(&path).unwrap();
    m.validate().unwrap();
    // Structure and features must survive the disk trip bit-for-bit.
    for v in 0..d.num_nodes() {
        assert_eq!(m.neighbors(v), d.graph.neighbors(v), "row {v}");
        let mem: Vec<u32> = d.features.row(v).iter().map(|x| x.to_bits()).collect();
        let mapped: Vec<u32> = m.feature_row(v).iter().map(|x| x.to_bits()).collect();
        assert_eq!(mem, mapped, "features {v}");
    }
    let back = m.load().unwrap();
    assert_eq!(back.labels, d.labels);
    assert_eq!(back.splits.test.len(), d.splits.test.len());
    // Truncation is caught by the exact-length check.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
    assert!(MmapDataset::open(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_pipeline_round_trips_through_soupctl() {
    let dir = tmpdir("e2e");
    let ds = generate_dataset(&dir);

    // Partition quality report prints the metric triplet.
    let report = run_ok(soupctl().args(["partition", "--data", ds.to_str().unwrap(), "--k", "2"]));
    assert!(report.contains("edge-cut:"), "{report}");
    assert!(report.contains("halo fraction:"), "{report}");
    assert!(report.contains("balance:"), "{report}");

    // Train → soup across two worker processes.
    let run_dir = dir.join("run");
    let stdout = shard_run(&ds, &run_dir);
    assert!(stdout.contains("sharded pls (k=2)"), "{stdout}");

    // Both shards reported, with coherent test-count bookkeeping.
    let ds_nodes = MmapDataset::open(&ds).unwrap();
    let total_test = ds_nodes.test_ids().len() as u64;
    let results = [shard_result(&run_dir, 0), shard_result(&run_dir, 1)];
    assert_eq!(results[0].test_total + results[1].test_total, total_test);
    for r in &results {
        assert!(
            r.ingredients == 2,
            "shard {}: {} ingredients",
            r.shard,
            r.ingredients
        );
        assert!(r.correct <= r.test_total);
    }

    // The per-shard artifact directories pass the offline integrity audit.
    for shard in 0..2 {
        let shard_dir = run_dir.join(format!("shard-{shard}"));
        let audit = run_ok(soupctl().args(["verify", shard_dir.to_str().unwrap()]));
        assert!(audit.contains("all clean"), "{audit}");
    }

    // Resume in the run directory's new home after it moved: every
    // ingredient comes from its checkpoint, the souped accuracy agrees, and
    // nothing is written at the old path.
    let moved = dir.join("moved");
    std::fs::rename(&run_dir, &moved).unwrap();
    let resume = |extra: &[&str]| {
        let mut cmd = soupctl();
        cmd.args(["shard", "--data", ds.to_str().unwrap(), "--out-dir"])
            .arg(&moved)
            .arg("--resume")
            .args(extra);
        cmd.output().expect("spawn soupctl")
    };
    let out = resume(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "moved resume failed:\n{stderr}");
    for (shard, before) in results.iter().enumerate() {
        let resumed = shard_result(&moved, shard);
        assert_eq!(resumed.resumed, 2, "shard {shard} retrained on resume");
        assert_eq!(resumed.test_accuracy, before.test_accuracy);
    }
    assert!(!run_dir.exists(), "resume wrote into the old run directory");

    // The socket halo transport is gone: its flag is a usage error, not a
    // panic.
    let out = resume(&["--no-shm"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // A plan whose ranges overrun the dataset is refused before any worker
    // is forked, not crashed into and reported as degraded.
    let mut plan = ShardPlan::load(moved.join("plan.json")).unwrap();
    plan.ranges[1].1 += 1;
    plan.save().unwrap();
    let out = resume(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("corrupt data: shard plan"), "{stderr}");
    assert!(!stderr.contains("respawning"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `generate`d file feeds every command, and one checkpoint format
/// carries ingredients and soups alike: `eval` reads both, and the soup
/// `soup --out` writes is what a SWAP loads.
#[test]
fn one_dataset_file_feeds_every_command() {
    let dir = tmpdir("onefile");
    let ds = generate_dataset(&dir);
    let data = ds.to_str().unwrap();
    let (ckpts, soup) = (dir.join("ckpts"), dir.join("s.ck"));
    run_ok(
        soupctl()
            .args(["train", "--data", data, "--arch", "gcn", "--hidden", "8"])
            .args(["--ingredients", "2", "--workers", "1", "--epochs", "3"])
            .arg("--out-dir")
            .arg(&ckpts),
    );
    run_ok(
        soupctl()
            .args(["soup", "--data", data, "--strategy", "us", "--ckpt-dir"])
            .arg(&ckpts)
            .arg("--out")
            .arg(&soup),
    );
    for params in [soup.clone(), ckpts.join("ingredient_0.ck")] {
        let acc = run_ok(
            soupctl()
                .args(["eval", "--data", data, "--ckpt-dir"])
                .arg(&ckpts)
                .arg("--params")
                .arg(&params),
        );
        assert!(acc.starts_with("test accuracy:"), "{params:?}: {acc}");
    }
    let report = run_ok(soupctl().args(["partition", "--data", data, "--k", "2"]));
    assert!(report.contains("edge-cut:"), "{report}");
    // What SWAP runs on the file.
    let (cfg, _) = load_manifest(&ckpts).unwrap();
    check_params(&cfg, &load_checkpoint(&soup).unwrap().params).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shard --arch gat` trains the same model as `train --arch gat`: both
/// take the architecture's default config, four heads included.
#[test]
fn shard_and_train_build_the_same_model_per_arch() {
    let dir = tmpdir("gatheads");
    let ds = generate_dataset(&dir);
    let data = ds.to_str().unwrap();
    let (ckpts, run) = (dir.join("ckpts"), dir.join("run"));
    let tiny = [
        "--arch",
        "gat",
        "--hidden",
        "4",
        "--ingredients",
        "1",
        "--epochs",
        "1",
    ];
    run_ok(
        soupctl()
            .args(["train", "--data", data, "--workers", "1"])
            .args(tiny)
            .arg("--out-dir")
            .arg(&ckpts),
    );
    run_ok(
        soupctl()
            .args(["shard", "--data", data, "--k", "2", "--strategy", "us"])
            .args(tiny)
            .arg("--out-dir")
            .arg(&run),
    );
    let (trained, _) = load_manifest(&ckpts).unwrap();
    let (sharded, _) = load_manifest(&run.join("shard-0")).unwrap();
    assert_eq!(trained.heads, 4);
    assert_eq!(sharded.heads, trained.heads);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that hangs up early (`soupctl partition … | head -1`) ends the
/// command quietly instead of panicking on the failed write.
#[test]
fn closed_stdout_ends_a_command_quietly() {
    let dir = tmpdir("epipe");
    let ds = dir.join("ds.gmm");
    save_mmap_dataset(&DatasetKind::Flickr.generate_scaled(5, 0.05), &ds).unwrap();
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = soupctl()
        .args(["partition", "--data", ds.to_str().unwrap(), "--k", "2"])
        .stdout(writer)
        .output()
        .expect("spawn soupctl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero worker or ingredient count is a usage error (exit 2) caught
/// before anything trains or spawns, not a panic in the trainer or a
/// sharded run whose every worker dies.
#[test]
fn zero_counts_are_usage_errors() {
    let dir = tmpdir("zero");
    let ds = dir.join("ds.gmm");
    save_mmap_dataset(&DatasetKind::Flickr.generate_scaled(5, 0.02), &ds).unwrap();
    let data = ds.to_str().unwrap();
    let run = dir.join("run");
    let calls: [&[&str]; 3] = [
        &["train", "--data", data, "--arch", "gcn", "--workers", "0"],
        &[
            "train",
            "--data",
            data,
            "--arch",
            "gcn",
            "--ingredients",
            "0",
        ],
        &["shard", "--data", data, "--ingredients", "0"],
    ];
    for args in calls {
        let out = soupctl()
            .args(args)
            .arg("--out-dir")
            .arg(&run)
            .output()
            .expect("spawn soupctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("must be positive"), "{args:?}: {stderr}");
    }
    let shard_dirs = std::fs::read_dir(&dir)
        .unwrap()
        .chain(std::fs::read_dir(&run).into_iter().flatten())
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
        .count();
    assert_eq!(shard_dirs, 0, "a refused shard run forked workers");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_command_still_prints_metrics_summary() {
    let dir = tmpdir("summary");
    let missing = dir.join("missing.gmm");
    let out = soupctl()
        .args(["eval", "--data", missing.to_str().unwrap()])
        .args(["--ckpt-dir", dir.to_str().unwrap(), "--params", "x.ck"])
        .arg("--metrics-summary")
        .output()
        .expect("spawn soupctl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: io error"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("== metrics summary =="));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_runs_are_bit_identical_at_fixed_seed() {
    let dir = tmpdir("determinism");
    let ds = generate_dataset(&dir);
    let (run_a, run_b) = (dir.join("a"), dir.join("b"));
    shard_run(&ds, &run_a);
    shard_run(&ds, &run_b);
    for shard in 0..2 {
        let a = checkpoint_bits(&run_a.join(format!("shard-{shard}")));
        let b = checkpoint_bits(&run_b.join(format!("shard-{shard}")));
        assert_eq!(a, b, "shard {shard} ingredients differ across runs");
        let (ra, rb) = (shard_result(&run_a, shard), shard_result(&run_b, shard));
        assert_eq!(ra.correct, rb.correct);
        assert_eq!(ra.val_accuracy.to_bits(), rb.val_accuracy.to_bits());
        // The shared map is the only halo source, and it copies the same
        // out-of-shard rows every run.
        assert!(ra.used_shm && rb.used_shm, "shard {shard}");
        assert!(ra.halo_nodes > 0, "shard {shard} has no halo");
        assert_eq!(ra.halo_nodes, rb.halo_nodes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker needs no coordinator: run by hand with stdin from `/dev/null`
/// it sends no heartbeats, runs to completion, and leaves the
/// `result.json` and checkpoints of the supervised run, bit for bit.
#[test]
fn a_worker_run_by_hand_needs_no_coordinator() {
    let dir = tmpdir("byhand");
    let ds = generate_dataset(&dir);
    let run_dir = dir.join("run");
    shard_run(&ds, &run_dir);
    assert!(!run_dir.join("control.sock").exists());
    let supervised = shard_result(&run_dir, 0);
    let checkpoints = checkpoint_bits(&run_dir.join("shard-0"));
    std::fs::remove_file(run_dir.join("shard-0/result.json")).unwrap();

    let out = soupctl()
        .args(["shard-worker", "--plan"])
        .arg(run_dir.join("plan.json"))
        .args(["--shard", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn soupctl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "worker by hand: {stderr}");
    let by_hand = shard_result(&run_dir, 0);
    assert_eq!(by_hand.resumed, 0, "epoch 0 of a fresh plan retrains");
    let bits = |r: &ShardResult| {
        let accuracies = (r.val_accuracy.to_bits(), r.test_accuracy.to_bits());
        (
            r.correct,
            r.test_total,
            accuracies,
            r.ingredients,
            r.halo_nodes,
        )
    };
    assert_eq!(bits(&by_hand), bits(&supervised));
    assert_eq!(checkpoint_bits(&run_dir.join("shard-0")), checkpoints);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A K=2 plan over a small dataset that its ranges tile, with workers
/// that run the one-epoch `us` pipeline.
fn tiny_plan(dir: &Path) -> ShardPlan {
    let ds = dir.join("ds.gmm");
    save_mmap_dataset(&DatasetKind::Flickr.generate_scaled(5, 0.02), &ds).unwrap();
    let n = MmapDataset::open(&ds).unwrap().num_nodes() as u64;
    ShardPlan {
        version: 1,
        dataset: ds.display().to_string(),
        k: 2,
        ranges: vec![(0, n / 2), (n / 2, n)],
        seed: 1,
        rounds: 1,
        arch: "gcn".into(),
        hidden: 8,
        layers: 2,
        dropout: 0.0,
        epochs: 1,
        lr: 0.01,
        strategy: "us".into(),
        soup_epochs: 1,
        pls_k: 2,
        pls_r: 1,
        out_dir: dir.display().to_string(),
        no_shm: false,
        resume: false,
        worker_timeout_ms: 400,
        restart_budget: 0,
        chaos: None,
    }
}

/// A worker that exits 0 without writing a result is lost, though its
/// shard directory holds a valid `result.json` from an earlier run: the
/// supervisor deletes that file before every spawn.
#[test]
fn a_stale_result_is_not_taken_for_a_fresh_one() {
    let dir = tmpdir("stale");
    let mut plan = tiny_plan(&dir);
    plan.restart_budget = 1;
    for shard in 0..2 {
        let stale = format!(
            r#"{{"shard":{shard},"correct":1,"test_total":2,"val_accuracy":0.5,"test_accuracy":0.5,"wall_ms":1,"peak_rss_bytes":1,"ingredients":1,"resumed":0,"halo_nodes":1,"used_shm":true}}"#
        );
        let path = plan.result_path(shard);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, stale).unwrap();
        ShardResult::load(&path, shard).unwrap();
    }
    let launch = WorkerLaunch::new("/bin/true".into(), &[]);
    let err = run_sharded(&plan, &launch).unwrap_err();
    assert_eq!(err.kind(), "shard_degraded", "{err}");
    assert!((0..2).all(|shard| !plan.result_path(shard).exists()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Heartbeats keep a working worker alive: with a 100 ms deadline and no
/// respawn to spare, workers that train for many deadlines still finish,
/// because each writes a byte to its stdin every 25 ms.
#[test]
fn heartbeats_outlast_a_short_deadline() {
    let dir = tmpdir("heartbeats");
    let mut plan = tiny_plan(&dir);
    plan.worker_timeout_ms = 100;
    plan.epochs = 3_000;
    let launch = WorkerLaunch::new(env!("CARGO_BIN_EXE_soupctl").into(), &["shard-worker"]);
    let report = run_sharded(&plan, &launch).unwrap_or_else(|e| panic!("{e}"));
    assert!(!report.is_degraded() && report.restarts == 0);
    let slowest = report.per_shard.iter().map(|r| r.wall_ms).max().unwrap();
    assert!(
        slowest > 200,
        "workers ran {slowest} ms: too short to need a heartbeat"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zombie children of `ppid`: `/proc/<pid>/stat` state `Z` entries.
fn zombie_children_of(ppid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesised comm: state, ppid, ...
        let Some(idx) = stat.rfind(')') else { continue };
        let fields: Vec<&str> = stat[idx + 1..].split_whitespace().collect();
        if fields.len() >= 2 && fields[0] == "Z" && fields[1] == ppid.to_string() {
            out.push(pid);
        }
    }
    out
}

/// An aborted run must kill AND reap every worker it forked: killing
/// without `wait` leaks zombies for the coordinator's lifetime, which in
/// a long-lived caller (serve, notebooks) exhausts the PID table.
#[test]
fn aborted_runs_leave_no_zombie_children() {
    use std::time::{Duration, Instant};

    // `run_sharded` checks the plan against the dataset's header before it
    // forks, so the plan names a real dataset that its ranges tile.
    let dir = tmpdir("zombies");
    let mut plan = tiny_plan(&dir);
    let n = plan.ranges[1].1;
    // Plans refused before anything is written or forked: the socket halo
    // opt-out, and ranges that end short of or past the dataset. A spawn
    // of the missing executable would fail as `io` instead.
    let nowhere = WorkerLaunch::new(dir.join("no-such-worker"), &[]);
    plan.no_shm = true;
    assert_eq!(run_sharded(&plan, &nowhere).unwrap_err().kind(), "usage");
    plan.no_shm = false;
    for end in [n - 1, n + 1] {
        plan.ranges[1].1 = end;
        let err = run_sharded(&plan, &nowhere).unwrap_err();
        assert_eq!(err.kind(), "corrupt", "end {end}: {err}");
    }
    plan.ranges[1].1 = n;
    assert!(!dir.join("plan.json").exists());

    // Workers that never heartbeat: the supervisor must declare them hung,
    // kill them, and abort the run as fully degraded.
    // `exec` so the kill hits the sleep itself — a sh child would survive
    // as an orphan holding this binary's stdio open.
    let launch = WorkerLaunch::new("/bin/sh".into(), &["-c", "exec sleep 1000", "sh"]);
    let err = run_sharded(&plan, &launch).unwrap_err();
    assert_eq!(err.kind(), "shard_degraded", "{err}");

    // Every killed worker must also have been waited on. Tolerate a
    // short grace window for unrelated tests' children mid-exit.
    let me = std::process::id();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let zombies = zombie_children_of(me);
        if zombies.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "zombie children leaked after an aborted run: {zombies:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
