//! `soupctl` — command-line driver for the Enhanced-Soups pipeline.
//!
//! ```text
//! soupctl generate  --dataset flickr --scale 0.5 --seed 42 --out ds.gmm
//! soupctl train     --data ds.gmm --arch gcn --ingredients 8 --workers 4 \
//!                   --epochs 30 --seed 42 --out-dir ckpts/
//! soupctl train     --data ds.gmm --arch gcn --out-dir ckpts/ --resume
//! soupctl soup      --data ds.gmm --ckpt-dir ckpts/ --strategy ls \
//!                   --epochs 50 --seed 7 --out soup.ck
//! soupctl eval      --data ds.gmm --ckpt-dir ckpts/ --params soup.ck --split test
//! soupctl serve     --data ds.gmm --ckpt-dir ckpts/ --params soup.ck --port 7450
//! soupctl query     --addr 127.0.0.1:7450 --nodes 0,17,42
//! soupctl diversity --data ds.gmm --ckpt-dir ckpts/
//! soupctl partition --data ds.gmm --k 4
//! soupctl shard     --data ds.gmm --k 4 --out-dir run/ --strategy pls
//! ```
//!
//! Every subcommand's flag surface is a declarative typed spec
//! ([`enhanced_soups::cli`]): unknown flags and type mismatches are usage
//! errors (exit 2), and per-command `--help` is generated from the same
//! spec the parser runs.
//!
//! Every command reads and writes one format per artifact: datasets are
//! `soup-graphmmap/1` files, and ingredients and soups alike are
//! checksummed `soup-ckpt/2` checkpoints. `train` writes each ingredient
//! atomically through the crash-safe store, plus a `manifest.json`
//! recording the model configuration and per-ingredient metadata, which
//! `soup`/`eval`/`serve`/`diversity` read back so the architecture never
//! has to be re-specified. A killed run is picked up with `--resume`:
//! existing checkpoints are validated and only missing or corrupt
//! ingredients retrain. Phase 2 is resumable too: `soup --strategy ls
//! --resume` continues the α-optimisation bit-identically from the last
//! durable epoch checkpoint. `serve` exposes the souped model over a TCP
//! loop with admission control and hot model swap; `query` is the
//! matching client.
//!
//! The sharded path maps the same dataset file out of core: `partition`
//! reports k-way quality (edge-cut, halo fraction, balance) or rewrites
//! the dataset shard-ordered, and `shard` runs multi-process Phase-1 +
//! souping — one OS process per shard, halo features copied from the
//! shared map, ≈R/K peak memory per worker. The workers it forks are the
//! hidden `shard-worker` subcommand.

use enhanced_soups::cli::{CommandSpec, FlagDef, Flags};
use enhanced_soups::distrib::{
    analyze_sharding, prepare_sharded_dataset, run_shard_worker, run_sharded, ShardPlan,
    WorkerLaunch,
};
use enhanced_soups::gnn::model::PropOps;
use enhanced_soups::gnn::{
    check_params, checkpoint_name, evaluate_accuracy, load_checkpoint, save_checkpoint, Checkpoint,
};
use enhanced_soups::gnn::{ModelConfig, TrainConfig};
use enhanced_soups::graph::mmap::{save_mmap_dataset, MmapDataset};
use enhanced_soups::prelude::*;
use enhanced_soups::serve::{Client, PredictResult, ServeConfig, Server};
use enhanced_soups::soup::resume::load_state;
use enhanced_soups::soup::strategy::test_accuracy;
use enhanced_soups::soup::{
    diversity_report, load_manifest, write_manifest, Manifest, ManifestEntry, SoupCtx, StrategySpec,
};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

/// `print!` that returns a failed write as an `io` error instead of
/// panicking. Everything soupctl writes to stdout goes through here.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))?
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// Where a closed stdout is reported from, so `main` can tell it apart from
/// a broken socket.
const STDOUT: &str = "<stdout>";

fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<()> {
    use std::io::Write;
    std::io::stdout()
        .lock()
        .write_fmt(args)
        .map_err(|e| SoupError::io_at(STDOUT, e))
}

fn stdout_closed(e: &SoupError) -> bool {
    matches!(e, SoupError::Io { path: Some(p), source }
        if p.as_os_str() == STDOUT && source.kind() == std::io::ErrorKind::BrokenPipe)
}

const GENERATE: CommandSpec = CommandSpec {
    name: "generate",
    summary: "synthesize a dataset shaped like one of the paper's benchmarks",
    positional: "",
    flags: &[
        FlagDef::str("dataset", "NAME", "flickr | arxiv | reddit | products").required(),
        FlagDef::f64("scale", "node-count multiplier").default("1.0"),
        FlagDef::u64("seed", "generator seed").default("42"),
        FlagDef::str("out", "FILE", "output soup-graphmmap/1 dataset file").required(),
    ],
};

const PARTITION: CommandSpec = CommandSpec {
    name: "partition",
    summary: "k-way shard quality report; --out rewrites the dataset shard-ordered",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::u64("k", "shard count").default("4"),
        FlagDef::str(
            "out",
            "FILE",
            "write the shard-ordered rewrite here (default: analyze only)",
        ),
    ],
};

const SHARD: CommandSpec = CommandSpec {
    name: "shard",
    summary: "multi-process sharded phase 1 + souping (one worker per shard)",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::u64("k", "shard count = worker process count").default("2"),
        FlagDef::str(
            "out-dir",
            "DIR",
            "run directory: plan, per-shard checkpoints and results",
        )
        .required(),
        FlagDef::str("arch", "NAME", "gcn | sage | gat | gin").default("gcn"),
        FlagDef::u64("hidden", "hidden width").default("64"),
        FlagDef::u64("layers", "model depth").default("2"),
        FlagDef::f64("dropout", "dropout rate").default("0.5"),
        FlagDef::u64("ingredients", "pool size per shard").default("4"),
        FlagDef::u64("epochs", "training epochs per ingredient").default("30"),
        FlagDef::f64("lr", "ingredient learning rate").default("0.01"),
        FlagDef::str("strategy", "NAME", "us | greedy | gis | ls | pls").default("pls"),
        FlagDef::u64("soup-epochs", "LS/PLS optimisation epochs").default("50"),
        FlagDef::u64("pls-k", "PLS partition count K").default("16"),
        FlagDef::u64("pls-r", "PLS partitions per epoch R").default("4"),
        FlagDef::u64("seed", "root seed (shard i derives its own stream)").default("42"),
        FlagDef::switch(
            "resume",
            "reuse the run directory's plan and valid per-shard checkpoints",
        ),
        FlagDef::f64(
            "worker-timeout",
            "heartbeat deadline in seconds: a worker silent this long is \
             declared lost and respawned",
        )
        .default("30"),
        FlagDef::u64(
            "restart-budget",
            "respawns per shard before the run degrades without it",
        )
        .default("2"),
    ],
};

/// Hidden: the worker half of `shard`. Not listed in `soupctl help`; the
/// coordinator launches `soupctl shard-worker --plan ... --shard i`.
const SHARD_WORKER: CommandSpec = CommandSpec {
    name: "shard-worker",
    summary: "(internal) one shard worker process, forked by `shard`",
    positional: "",
    flags: &[
        FlagDef::str("plan", "FILE", "plan.json written by the coordinator").required(),
        FlagDef::u64("shard", "this worker's shard index").required(),
        FlagDef::u64(
            "epoch",
            "session epoch (incarnation counter, bumped on respawn)",
        )
        .default("0"),
    ],
};

const TRAIN: CommandSpec = CommandSpec {
    name: "train",
    summary: "phase 1: train the ingredient pool (crash-safe, resumable)",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::str("arch", "NAME", "gcn | sage | gat | gin").required(),
        FlagDef::u64("hidden", "hidden width").default("64"),
        FlagDef::u64("ingredients", "pool size").default("8"),
        FlagDef::u64("workers", "parallel trainers").default("4"),
        FlagDef::u64("epochs", "training epochs per ingredient").default("30"),
        FlagDef::u64("seed", "base seed (ingredient i trains with seed+i)").default("42"),
        FlagDef::str("out-dir", "DIR", "checkpoint directory").required(),
        FlagDef::switch(
            "resume",
            "revalidate checkpoints, retrain only missing/corrupt",
        ),
        FlagDef::u64(
            "retry-budget",
            "retries per ingredient before permanent failure",
        )
        .default("2"),
    ],
};

const SOUP: CommandSpec = CommandSpec {
    name: "soup",
    summary: "phase 2: mix the pool with a souping strategy",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::str("ckpt-dir", "DIR", "checkpoint directory from `train`").required(),
        FlagDef::str("strategy", "NAME", "us | greedy | gis | ls | pls").required(),
        FlagDef::u64("epochs", "LS/PLS optimisation epochs").default("50"),
        FlagDef::u64("granularity", "GIS interpolation steps").default("20"),
        FlagDef::u64("pls-k", "PLS partition count K").default("16"),
        FlagDef::u64("pls-r", "PLS partitions per epoch R").default("4"),
        FlagDef::u64("seed", "phase-2 seed").default("7"),
        FlagDef::str("out", "FILE", "write the soup as a soup-ckpt/2 checkpoint"),
        FlagDef::switch(
            "resume",
            "continue from the last durable phase-2 checkpoint (ls/pls)",
        ),
        FlagDef::u64("ckpt-every", "persist optimizer state every N epochs").default("1"),
    ],
};

const EVAL: CommandSpec = CommandSpec {
    name: "eval",
    summary: "evaluate saved parameters on a dataset split",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::str(
            "ckpt-dir",
            "DIR",
            "checkpoint directory (for the architecture)",
        )
        .required(),
        FlagDef::str("params", "FILE", "checkpoint from `soup --out` or `train`").required(),
        FlagDef::str("split", "NAME", "train | val | test").default("test"),
    ],
};

const SERVE: CommandSpec = CommandSpec {
    name: "serve",
    summary: "serve node-classification queries over a souped model (TCP)",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::str("ckpt-dir", "DIR", "checkpoint directory from `train`").required(),
        FlagDef::str(
            "params",
            "FILE",
            "checkpoint to serve (default: soup the pool at startup)",
        ),
        FlagDef::str(
            "strategy",
            "NAME",
            "startup souping strategy when --params is absent",
        )
        .default("us"),
        FlagDef::u64("seed", "startup souping seed").default("7"),
        FlagDef::u64("port", "TCP port (0 = ephemeral, printed at startup)").default("7450"),
        FlagDef::u64(
            "queue-depth",
            "PREDICTs answered at once (one more => OVERLOADED)",
        )
        .default("128"),
        FlagDef::u64("workers", "accept-loop threads = max live connections").default("4"),
        FlagDef::u64(
            "idle-timeout-ms",
            "reap a connection idle this long (stalled mid-frame: 2x)",
        )
        .default("60000"),
    ],
};

const QUERY: CommandSpec = CommandSpec {
    name: "query",
    summary: "client for a running `soupctl serve`",
    positional: "",
    flags: &[
        FlagDef::str("addr", "HOST:PORT", "server address").required(),
        FlagDef::str("nodes", "IDS", "comma-separated node ids to classify"),
        FlagDef::switch("ping", "liveness probe; prints the model version"),
        FlagDef::switch("stats", "print the server's metrics snapshot (JSON)"),
        FlagDef::str(
            "swap",
            "FILE",
            "hot-swap: promote this checkpoint to the live model",
        ),
        FlagDef::str(
            "resoup",
            "NAME",
            "re-soup --ckpt-dir with this strategy and promote",
        ),
        FlagDef::str("ckpt-dir", "DIR", "pool directory for --resoup"),
        FlagDef::u64("seed", "souping seed for --resoup").default("7"),
        FlagDef::switch("shutdown", "stop the server"),
    ],
};

const DIVERSITY: CommandSpec = CommandSpec {
    name: "diversity",
    summary: "report ingredient-pool diversity (§V-A)",
    positional: "",
    flags: &[
        FlagDef::str("data", "FILE", "dataset from `generate`").required(),
        FlagDef::str("ckpt-dir", "DIR", "checkpoint directory from `train`").required(),
    ],
};

const VERIFY: CommandSpec = CommandSpec {
    name: "verify",
    summary: "offline integrity audit of an artifact directory",
    positional: "DIR",
    flags: &[FlagDef::str(
        "ckpt-dir",
        "DIR",
        "directory to audit (alternative to positional)",
    )],
};

const TRACE_VALIDATE: CommandSpec = CommandSpec {
    name: "trace-validate",
    summary: "check a --trace-out file against the soup-trace/1 schema",
    positional: "FILE",
    flags: &[FlagDef::str(
        "file",
        "FILE",
        "trace to validate (alternative to positional)",
    )],
};

const OBS: CommandSpec = CommandSpec {
    name: "obs",
    summary: "offline tooling over --trace-out traces",
    positional: "<report|tail|diff|flame> FILE...",
    flags: &[
        FlagDef::u64("last", "samples to show (tail)").default("5"),
        FlagDef::f64("noise", "noise band for diff (fraction)"),
        FlagDef::switch(
            "fail-on-regress",
            "non-zero exit if diff regresses beyond the band",
        ),
        FlagDef::str("out", "FILE", "output file (flame)").default("flame.folded"),
    ],
};

const COMMANDS: &[&CommandSpec] = &[
    &GENERATE,
    &TRAIN,
    &SOUP,
    &EVAL,
    &SERVE,
    &QUERY,
    &DIVERSITY,
    &VERIFY,
    &TRACE_VALIDATE,
    &OBS,
    &PARTITION,
    &SHARD,
    &SHARD_WORKER,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            usage();
            return;
        }
        _ => {}
    }
    let Some(spec) = COMMANDS.iter().find(|s| s.name == command.as_str()) else {
        eprintln!("unknown command '{command}'");
        usage();
        exit(2);
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{}", spec.usage());
        return;
    }
    let flags = match spec.parse(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    // Observability flags apply to every command: --trace-out streams a
    // JSONL trace of the run with a registry sample every
    // --metrics-interval-ms, --metrics-summary prints the span/counter
    // report at exit.
    if let Some(path) = flags.str("trace-out") {
        // Pool/memory gauges ride the sampler via the probe hook.
        enhanced_soups::tensor::memory::install_obs_probe();
        let interval = Duration::from_millis(flags.req_u64("metrics-interval-ms"));
        let traced = enhanced_soups::obs::trace::init(path)
            .map_err(|e| SoupError::io_at(path, e))
            .and_then(|()| enhanced_soups::obs::series::start(interval));
        if let Err(e) = traced {
            eprintln!("error: {e}");
            exit(1);
        }
    }
    let result = match spec.name {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "soup" => cmd_soup(&flags),
        "eval" => cmd_eval(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "diversity" => cmd_diversity(&flags),
        "verify" => cmd_verify(&flags),
        "trace-validate" => cmd_trace_validate(&flags),
        "obs" => cmd_obs(&flags),
        "partition" => cmd_partition(&flags),
        "shard" => cmd_shard(&flags),
        "shard-worker" => cmd_shard_worker(&flags),
        _ => unreachable!("command table covers every spec"),
    };
    if let Some(path) = enhanced_soups::obs::trace::finish() {
        soup_obs::info!("wrote trace {}", path.display());
    }
    // The summary prints on failure too; the command's own error stays first.
    let printed = if flags.switch("metrics-summary") {
        write_stdout(format_args!("{}", enhanced_soups::obs::report::render()))
    } else {
        Ok(())
    };
    let result = result.and(printed);
    if let Err(e) = result {
        // The reader hung up (`soupctl obs tail t.jsonl | head -4`): it has
        // all the output it wanted, so the command ends quietly.
        if stdout_closed(&e) {
            return;
        }
        eprintln!("error: {e}");
        exit(if e.kind() == "usage" { 2 } else { 1 });
    }
}

fn usage() {
    eprintln!("soupctl — GNN model souping (Enhanced Soups reproduction)\n");
    for spec in COMMANDS {
        // shard-worker is an implementation detail of `shard`, not a
        // user-facing command.
        if spec.name == SHARD_WORKER.name {
            continue;
        }
        eprintln!("  {:<16} {}", spec.name, spec.summary);
    }
    eprintln!(
        "\nrun `soupctl <command> --help` for the command's flags\n\
         \n\
         global flags (any command):"
    );
    for def in enhanced_soups::cli::GLOBAL_FLAGS {
        eprintln!(
            "  --{:<26} {}",
            format!("{} {}", def.name, def.value_name),
            def.help
        );
    }
    eprintln!(
        "  (SOUP_LOG=debug|info|warn|off controls stderr log verbosity;\n\
         \x20  SOUP_LOG=off yields silent machine-readable runs)"
    );
}

fn cmd_generate(flags: &Flags) -> Result<()> {
    let name = flags.req_str("dataset");
    let kind = DatasetKind::from_name(name)
        .ok_or_else(|| SoupError::usage(format!("unknown dataset '{name}'")))?;
    let out = flags.req_str("out");
    let dataset = kind.generate_scaled(flags.req_u64("seed"), flags.req_f64("scale"));
    save_mmap_dataset(&dataset, out)?;
    soup_obs::info!(
        "wrote {} ({} nodes, {} edges, {} classes)",
        out,
        dataset.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes(),
    );
    Ok(())
}

/// `--name`'s count, which must be at least one.
fn positive(flags: &Flags, name: &str) -> Result<usize> {
    match flags.req_usize(name) {
        0 => Err(SoupError::usage(format!("--{name} must be positive"))),
        n => Ok(n),
    }
}

/// The dataset behind `--data`: every command reads the one
/// `soup-graphmmap/1` file `generate` writes, validated before use.
fn load_data(flags: &Flags) -> Result<Dataset> {
    MmapDataset::open(flags.req_str("data"))?.load()
}

fn cmd_train(flags: &Flags) -> Result<()> {
    let n = positive(flags, "ingredients")?;
    let workers = positive(flags, "workers")?;
    let dataset = load_data(flags)?;
    let arch_name = flags.req_str("arch");
    let arch = enhanced_soups::gnn::Arch::from_name(arch_name)
        .ok_or_else(|| SoupError::usage(format!("unknown architecture '{arch_name}'")))?;
    let cfg = ModelConfig::for_arch(arch, dataset.num_features(), dataset.num_classes())
        .with_hidden(flags.req_usize("hidden"));
    let seed = flags.req_u64("seed");
    let resume = flags.switch("resume");
    let out_dir = PathBuf::from(flags.req_str("out-dir"));

    let tc = TrainConfig {
        epochs: flags.req_usize("epochs"),
        early_stop_patience: None,
        ..TrainConfig::quick()
    };
    let opts = TrainOpts::default()
        .with_workers(workers)
        .with_seed(seed)
        .with_retry_budget(flags.req_u64("retry-budget") as u32)
        .with_checkpoint_dir(&out_dir)
        .with_resume(resume);
    soup_obs::info!(
        "training {n} {} ingredients on {workers} workers{} ...",
        cfg.arch.name(),
        if resume { " (resuming)" } else { "" }
    );
    let run = train_ingredients_opts(&dataset, &cfg, &tc, n, &opts)?;
    for f in &run.failed {
        soup_obs::warn!(
            "ingredient {} failed permanently after {} attempts: {}",
            f.ordinal,
            f.attempts,
            f.error
        );
    }
    if run.ingredients.is_empty() {
        // Nothing survived: surface the first terminal failure.
        return Err(run
            .failed
            .into_iter()
            .next()
            .map(|f| f.error)
            .unwrap_or_else(|| SoupError::checkpoint("training produced no ingredients")));
    }
    let mut manifest = Manifest {
        config: cfg,
        ingredients: Vec::new(),
    };
    for ing in &run.ingredients {
        let file = checkpoint_name(ing.id);
        soup_obs::info!(
            "  ingredient {} — val acc {:.2}%{} -> {file}",
            ing.id,
            ing.val_accuracy * 100.0,
            if run.resumed.contains(&ing.id) {
                " (resumed)"
            } else {
                ""
            }
        );
        manifest.ingredients.push(ManifestEntry {
            id: ing.id,
            val_accuracy: ing.val_accuracy,
            train_seed: ing.train_seed,
            file,
        });
    }
    let manifest_path = out_dir.join("manifest.json");
    write_manifest(&manifest_path, &manifest)?;
    soup_obs::info!(
        "wrote {} ({} trained, {} resumed, {} failed, {} requeues)",
        manifest_path.display(),
        run.ingredients.len() - run.resumed.len(),
        run.resumed.len(),
        run.failed.len(),
        run.retries,
    );
    // Training is over; don't let its pooled buffers linger into whatever
    // runs next in this process or distort an immediately following soup.
    enhanced_soups::tensor::pool::trim();
    Ok(())
}

/// Build the [`StrategySpec`] shared by `soup` and `serve` from flags.
fn strategy_spec(flags: &Flags, name: &str) -> StrategySpec {
    let mut spec = StrategySpec::new(name);
    spec.epochs = flags.req_usize("epochs");
    spec.granularity = flags.req_usize("granularity");
    spec.pls_k = flags.req_usize("pls-k");
    spec.pls_r = flags.req_usize("pls-r");
    spec
}

fn cmd_soup(flags: &Flags) -> Result<()> {
    let dataset = load_data(flags)?;
    let dir = PathBuf::from(flags.req_str("ckpt-dir"));
    let (cfg, ingredients) = load_manifest(&dir)?;
    // Phase-1 -> Phase-2 boundary: buffers pooled while loading/validating
    // checkpoints would otherwise count against the souping phase's peak
    // memory (the paper's Table III/Fig. 4 quantity).
    let trimmed = enhanced_soups::tensor::pool::trim();
    if trimmed > 0 {
        soup_obs::info!(
            "trimmed {} of pooled phase-1 buffers",
            enhanced_soups::tensor::memory::format_bytes(trimmed)
        );
    }
    let seed = flags.req_u64("seed");
    let strategy_name = flags.req_str("strategy");
    // Phase-2 durability (LS/PLS only): --resume or --ckpt-every turns on
    // durable optimizer-state checkpoints in the checkpoint directory.
    let resume = flags.switch("resume");
    let persist = (resume || flags.provided("ckpt-every")).then(|| {
        Phase2Persist::new(&dir)
            .every(flags.req_usize("ckpt-every"))
            .resume(resume)
    });
    if persist.is_some() && !matches!(strategy_name, "ls" | "pls") {
        return Err(SoupError::usage(
            "--resume/--ckpt-every apply to --strategy ls|pls only",
        ));
    }
    // All five strategies route through the unified trait entry point; the
    // spec's build() turns bad hyperparameters into usage errors.
    let strategy = strategy_spec(flags, strategy_name).build()?;
    soup_obs::info!(
        "souping {} ingredients with {strategy_name} ...",
        ingredients.len()
    );
    let ctx = SoupCtx::new(&ingredients, &dataset, &cfg, seed).with_persist(persist.as_ref());
    let outcome = strategy
        .try_soup(&ctx)?
        .expect("try_soup always returns Some");
    if outcome.is_degraded() {
        soup_obs::warn!("degraded soup — missing ordinals {:?}", outcome.missing);
    }
    let test = test_accuracy(&outcome, &dataset, &cfg);
    soup_obs::info!(
        "{}: val {:.2}%  test {:.2}%  time {:.3}s  peak-mem {}  spmm-saved {}",
        strategy_name,
        outcome.val_accuracy * 100.0,
        test * 100.0,
        outcome.stats.wall_time.as_secs_f64(),
        enhanced_soups::tensor::memory::format_bytes(outcome.stats.peak_mem_bytes),
        outcome.stats.spmm_saved,
    );
    if let Some(out) = flags.str("out") {
        let ck = Checkpoint::new(0, seed, outcome.val_accuracy, outcome.params);
        save_checkpoint(&ck, out)?;
        soup_obs::info!("wrote {out}");
    }
    Ok(())
}

fn cmd_eval(flags: &Flags) -> Result<()> {
    let dataset = load_data(flags)?;
    let dir = PathBuf::from(flags.req_str("ckpt-dir"));
    let (cfg, _) = load_manifest(&dir)?;
    let params = load_checkpoint(flags.req_str("params"))?.params;
    check_params(&cfg, &params)?;
    let split = flags.req_str("split");
    let mask = match split {
        "train" => &dataset.splits.train,
        "val" => &dataset.splits.val,
        "test" => &dataset.splits.test,
        other => return Err(SoupError::usage(format!("unknown split '{other}'"))),
    };
    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    let acc = evaluate_accuracy(
        &cfg,
        &ops,
        &params,
        &dataset.features,
        &dataset.labels,
        mask,
    );
    outln!("{split} accuracy: {:.4} ({:.2}%)", acc, acc * 100.0);
    Ok(())
}

/// `serve`: load the pool's architecture, pick the model (saved `--params`
/// or a startup soup), and run the TCP loop until a SHUTDOWN request
/// arrives.
fn cmd_serve(flags: &Flags) -> Result<()> {
    let dataset = load_data(flags)?;
    let dir = PathBuf::from(flags.req_str("ckpt-dir"));
    let (cfg, ingredients) = load_manifest(&dir)?;
    let params = match flags.str("params") {
        // `Server::start` runs `check_params` on whichever model it gets.
        Some(path) => load_checkpoint(path)?.params,
        None => {
            let name = flags.req_str("strategy");
            let mut spec = StrategySpec::new(name);
            spec.epochs = 50;
            let strategy = spec.build()?;
            soup_obs::info!(
                "no --params: souping {} ingredients with {name} for serving ...",
                ingredients.len()
            );
            let ctx = SoupCtx::new(&ingredients, &dataset, &cfg, flags.req_u64("seed"));
            strategy
                .try_soup(&ctx)?
                .expect("try_soup always returns Some")
                .params
        }
    };
    let port = flags.req_u64("port");
    if port > u16::MAX as u64 {
        return Err(SoupError::usage(format!("--port {port} exceeds 65535")));
    }
    let config = ServeConfig {
        port: port as u16,
        queue_depth: flags.req_usize("queue-depth"),
        workers: flags.req_usize("workers"),
        idle_timeout: Duration::from_millis(flags.req_u64("idle-timeout-ms").max(1)),
    };
    if config.queue_depth == 0 {
        return Err(SoupError::usage("--queue-depth must be positive"));
    }
    let server = Server::start(dataset, cfg, params, config)?;
    // Machine-readable so scripts (and CI) can discover an ephemeral port.
    outln!("SERVING {}", server.addr());
    server.join();
    soup_obs::info!("serve loop exited");
    Ok(())
}

/// `query`: one-shot client. Actions run in flag order: ping, predict,
/// swap, resoup, stats, shutdown — any subset may be combined.
fn cmd_query(flags: &Flags) -> Result<()> {
    let addr = flags.req_str("addr");
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| SoupError::usage(format!("--addr: cannot parse '{addr}' as HOST:PORT")))?;
    let mut client = Client::connect(addr)?;
    let mut acted = false;
    if flags.switch("ping") {
        outln!("version {}", client.ping()?);
        acted = true;
    }
    if let Some(list) = flags.str("nodes") {
        let nodes = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| SoupError::usage(format!("--nodes: bad node id '{s}'")))
            })
            .collect::<Result<Vec<u32>>>()?;
        match client.predict(&nodes)? {
            PredictResult::Classes { version, classes } => {
                for (node, class) in nodes.iter().zip(&classes) {
                    outln!("node {node} -> class {class}");
                }
                outln!("(model version {version})");
            }
            PredictResult::Overloaded => {
                return Err(SoupError::usage("server overloaded — retry later"))
            }
        }
        acted = true;
    }
    if let Some(path) = flags.str("swap") {
        outln!("promoted version {}", client.swap(path)?);
        acted = true;
    }
    if let Some(strategy) = flags.str("resoup") {
        let dir = flags
            .str("ckpt-dir")
            .ok_or_else(|| SoupError::usage("--resoup needs --ckpt-dir"))?;
        outln!(
            "resouped version {}",
            client.resoup(strategy, dir, flags.req_u64("seed"))?
        );
        acted = true;
    }
    if flags.switch("stats") {
        outln!("{}", client.stats()?);
        acted = true;
    }
    if flags.switch("shutdown") {
        client.shutdown()?;
        outln!("server stopping");
        acted = true;
    }
    if !acted {
        return Err(SoupError::usage(
            "query: nothing to do — give --ping, --nodes, --swap, --resoup, --stats, or --shutdown",
        ));
    }
    Ok(())
}

/// Offline integrity audit of an artifact directory: the manifest,
/// envelope checksums, format versions, NaN scans of every parameter
/// payload, and the phase-2 optimizer states. Prints one line per
/// artifact and fails (non-zero exit) if anything is corrupt.
fn cmd_verify(flags: &Flags) -> Result<()> {
    let dir = flags
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| flags.str("ckpt-dir"))
        .ok_or_else(|| SoupError::usage("usage: soupctl verify DIR"))?;
    let dir = PathBuf::from(dir);
    if !dir.is_dir() {
        return Err(SoupError::usage(format!(
            "{} is not a directory",
            dir.display()
        )));
    }
    let mut problems: Vec<String> = Vec::new();
    let mut checked = 0usize;
    let note = |ok: bool, what: String, problems: &mut Vec<String>| -> Result<()> {
        outln!("  [{}] {what}", if ok { "ok" } else { "CORRUPT" });
        if !ok {
            problems.push(what);
        }
        Ok(())
    };

    // Manifest: must parse.
    let manifest_path = dir.join("manifest.json");
    let mut manifest: Option<Manifest> = None;
    if manifest_path.exists() {
        checked += 1;
        match std::fs::read_to_string(&manifest_path)
            .map_err(|e| SoupError::io_at(&manifest_path, e))
            .and_then(|json| {
                serde_json::from_str::<Manifest>(&json)
                    .map_err(|e| SoupError::parse(format!("manifest: {e}")))
            }) {
            Ok(m) => {
                note(
                    true,
                    format!("manifest.json ({} entries)", m.ingredients.len()),
                    &mut problems,
                )?;
                manifest = Some(m);
            }
            Err(e) => note(false, format!("manifest.json: {e}"), &mut problems)?,
        }
    }

    // Ingredient checkpoints: every manifest entry plus any stray
    // ingredient_* file on disk. load_checkpoint verifies the envelope
    // checksum and format version; the scan rejects non-finite parameters.
    let mut files: Vec<String> = manifest
        .as_ref()
        .map(|m| m.ingredients.iter().map(|e| e.file.clone()).collect())
        .unwrap_or_default();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("ingredient_") && !files.contains(&name) {
                files.push(name);
            }
        }
    }
    files.sort();
    for file in &files {
        checked += 1;
        let verdict = load_checkpoint(dir.join(file)).and_then(|ck| {
            if ck
                .params
                .flat()
                .all(|t| t.data().iter().all(|v| v.is_finite()))
            {
                Ok(ck)
            } else {
                Err(SoupError::corrupt("non-finite parameters"))
            }
        });
        match verdict {
            Ok(ck) => note(
                true,
                format!(
                    "{file} (ingredient {}, val acc {:.4})",
                    ck.id, ck.val_accuracy
                ),
                &mut problems,
            )?,
            Err(e) => note(false, format!("{file}: {e}"), &mut problems)?,
        }
    }

    // Phase-2 optimizer states.
    for strategy in ["ls", "pls"] {
        let path = enhanced_soups::soup::Phase2Persist::state_path(&dir, strategy);
        match load_state(&path) {
            Ok(None) => {}
            Ok(Some(state)) => {
                checked += 1;
                let finite = state
                    .alphas
                    .iter()
                    .chain(state.best_alphas.iter().flatten())
                    .all(|t| t.data().iter().all(|v| v.is_finite()));
                note(
                    finite,
                    format!(
                        "phase2_{strategy}.ck (epoch {}/{}{})",
                        state.next_epoch,
                        state.total_epochs,
                        if finite { "" } else { ": non-finite α" }
                    ),
                    &mut problems,
                )?;
            }
            Err(e) => {
                checked += 1;
                note(false, format!("phase2_{strategy}.ck: {e}"), &mut problems)?;
            }
        }
    }

    if checked == 0 {
        return Err(SoupError::usage(format!(
            "{}: nothing to verify (no manifest, checkpoints, or phase-2 states)",
            dir.display()
        )));
    }
    if problems.is_empty() {
        outln!("{}: {checked} artifacts verified, all clean", dir.display());
        Ok(())
    } else {
        Err(SoupError::corrupt(format!(
            "{}: {} of {checked} artifacts corrupt: {}",
            dir.display(),
            problems.len(),
            problems.join("; ")
        )))
    }
}

fn cmd_trace_validate(flags: &Flags) -> Result<()> {
    let file = flags
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| flags.str("file"))
        .ok_or_else(|| SoupError::usage("usage: soupctl trace-validate FILE"))?;
    let stats = enhanced_soups::obs::trace::validate_file(file)?;
    outln!(
        "{file}: valid {} trace — {} lines, {} spans ({} distinct), {} events ({} distinct), \
         {} logs, {} samples, metrics record: {}",
        enhanced_soups::obs::trace::SCHEMA,
        stats.lines,
        stats.spans,
        stats.span_paths.len(),
        stats.events,
        stats.event_names.len(),
        stats.logs,
        stats.samples.len(),
        if stats.has_metrics { "yes" } else { "no" },
    );
    Ok(())
}

/// Offline observability tooling over `--trace-out` traces: `report`
/// re-renders the end-of-run summary, `tail` inspects the trace's
/// `sample` records, `diff` compares two runs with a noise band, and
/// `flame` exports an inferno-compatible folded-stack file. The rendered
/// output is the command's product, so it goes to stdout unconditionally
/// (not through `SOUP_LOG`).
fn cmd_obs(flags: &Flags) -> Result<()> {
    let usage = "usage: soupctl obs <report|tail|diff|flame> FILE...";
    let Some((sub, files)) = flags.positional.split_first() else {
        return Err(SoupError::usage(usage));
    };
    match sub.as_str() {
        "report" => {
            let file = files
                .first()
                .ok_or_else(|| SoupError::usage("usage: soupctl obs report <trace.jsonl>"))?;
            let content =
                std::fs::read_to_string(file).map_err(|e| SoupError::io_at(Path::new(file), e))?;
            // The metrics record is the registry snapshot `finish()` wrote.
            let snapshot = content
                .lines()
                .filter_map(|line| serde_json::from_str::<serde::Value>(line).ok())
                .find(|v| v.get("type").and_then(serde::Value::as_str) == Some("metrics"))
                .and_then(|v| enhanced_soups::obs::registry::snapshot_from_value(&v))
                .ok_or_else(|| {
                    SoupError::parse(format!("{file}: no parseable `metrics` record"))
                })?;
            out!(
                "{}",
                enhanced_soups::obs::report::render_snapshot(&snapshot)
            );
            Ok(())
        }
        "tail" => {
            let file = files.first().ok_or_else(|| {
                SoupError::usage("usage: soupctl obs tail <trace.jsonl> [--last N]")
            })?;
            let last = flags.req_usize("last");
            let stats = enhanced_soups::obs::trace::validate_file(file)?;
            outln!(
                "{file}: {} samples{}",
                stats.samples.len(),
                if stats.has_metrics {
                    ""
                } else {
                    " (no metrics record: run still live or crashed)"
                }
            );
            let skip = stats.samples.len().saturating_sub(last);
            for sample in &stats.samples[skip..] {
                // The busiest counters this tick tell you what the run is
                // actually doing right now.
                let mut deltas: Vec<(&str, u64)> = sample
                    .counters
                    .iter()
                    .filter(|(_, _, d)| *d > 0)
                    .map(|(n, _, d)| (n.as_str(), *d))
                    .collect();
                deltas.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
                let top: Vec<String> = deltas
                    .iter()
                    .take(3)
                    .map(|(n, d)| format!("{n}+{d}"))
                    .collect();
                outln!(
                    "  #{:<5} t={:>9.3}s rss={:>10} {}",
                    sample.seq,
                    sample.ts_us as f64 / 1e6,
                    enhanced_soups::obs::report::fmt_bytes(sample.rss_bytes),
                    top.join(" ")
                );
            }
            if let Some(sample) = stats.samples.last() {
                for (name, value) in &sample.gauges {
                    outln!("  {name:<52} {value:>14.4}");
                }
            }
            Ok(())
        }
        "diff" => {
            let (base, new) = match files {
                [base, new, ..] => (base, new),
                _ => {
                    return Err(SoupError::usage(
                        "usage: soupctl obs diff <base.jsonl> <new.jsonl> [--noise F]",
                    ))
                }
            };
            let noise = flags
                .f64("noise")
                .unwrap_or(enhanced_soups::obs::diff::DEFAULT_NOISE);
            let report = enhanced_soups::obs::diff::diff_traces(base, new, noise)?;
            out!("{}", report.render());
            if report.has_regressions() && flags.switch("fail-on-regress") {
                return Err(SoupError::corrupt(format!(
                    "{} span(s) regressed beyond the ±{:.0}% noise band",
                    report.regressions().count(),
                    noise * 100.0
                )));
            }
            Ok(())
        }
        "flame" => {
            let file = files.first().ok_or_else(|| {
                SoupError::usage("usage: soupctl obs flame <trace.jsonl> [--out FILE]")
            })?;
            let out = flags.req_str("out");
            let stacks = enhanced_soups::obs::flame::write_folded(file, out)?;
            outln!("wrote {out} ({stacks} stacks)");
            Ok(())
        }
        other => Err(SoupError::usage(format!(
            "unknown obs subcommand '{other}' — {usage}"
        ))),
    }
}

/// `partition`: open an out-of-core dataset, run the streaming LDG
/// partitioner, and print the quality triplet the sharded pipeline lives
/// and dies by — edge-cut, halo fraction, balance — plus per-shard halo
/// counts. With `--out`, also rewrite the dataset shard-ordered (the
/// prepare step `shard` otherwise performs itself). The metrics are
/// exported as gauges so a `--trace-out` trace and `soupctl obs` see them.
fn cmd_partition(flags: &Flags) -> Result<()> {
    let data = flags.req_str("data");
    let k = positive(flags, "k")?;
    let src = MmapDataset::open(data)?;
    src.validate()?;
    if k > src.num_nodes() {
        return Err(SoupError::usage(format!(
            "--k {k} exceeds the dataset's {} nodes",
            src.num_nodes()
        )));
    }
    let (nodes, nnz) = (src.num_nodes(), src.num_directed_edges());
    let quality = match flags.str("out") {
        Some(out) => {
            drop(src); // prepare re-opens the source; don't hold two maps
            let report = prepare_sharded_dataset(data, k, out)?;
            soup_obs::info!("wrote {out} — shard-ordered, ranges {:?}", report.ranges);
            report.quality
        }
        None => analyze_sharding(&src, k).1,
    };
    quality.export_gauges();
    outln!("{data}: {nodes} nodes, {nnz} directed edges, k = {k}");
    outln!(
        "  edge-cut:      {} ({:.2}% of undirected edges)",
        quality.edge_cut,
        200.0 * quality.edge_cut as f64 / nnz.max(1) as f64
    );
    outln!(
        "  halo fraction: {:.4} (out-of-shard feature rows per node)",
        quality.halo_fraction
    );
    outln!(
        "  balance:       {:.4} (largest shard / ideal n/k)",
        quality.balance
    );
    outln!("  halo counts:   {:?}", quality.halo_counts);
    Ok(())
}

/// `shard`: the end-to-end multi-process pipeline. Partitions + rewrites
/// the dataset shard-ordered (unless resuming an existing run directory),
/// forks one `shard-worker` per shard, and aggregates their shard-local
/// test counts into a global accuracy. Each worker's peak RSS covers only
/// its own shard's pages — the ≈R/K memory behaviour `bench_shard`
/// measures.
fn cmd_shard(flags: &Flags) -> Result<()> {
    let data = flags.req_str("data");
    let k = positive(flags, "k")?;
    positive(flags, "ingredients")?;
    let arch = flags.req_str("arch");
    if enhanced_soups::gnn::Arch::from_name(arch).is_none() {
        return Err(SoupError::usage(format!("unknown architecture '{arch}'")));
    }
    let out_dir = PathBuf::from(flags.req_str("out-dir"));
    std::fs::create_dir_all(&out_dir).map_err(|e| SoupError::io_at(&out_dir, e))?;
    let sharded = out_dir.join("sharded.gmm");
    let plan_path = out_dir.join("plan.json");
    let resume = flags.switch("resume");

    let worker_timeout_ms = (flags.req_f64("worker-timeout").max(0.1) * 1000.0) as u64;
    let restart_budget = flags.req_u64("restart-budget") as u32;
    // A resumed run must keep its original plan (seeds, ranges, shard
    // count) — only the resume bit flips, supervision knobs may be
    // re-tuned, and a fault arm never carries over into a recovery run. Paths
    // are rebased onto `--out-dir`, so a moved run directory resumes in
    // place instead of writing into (or failing on) its old location.
    let plan = if resume && plan_path.exists() && sharded.exists() {
        let mut plan = ShardPlan::load(&plan_path)?;
        plan.out_dir = out_dir.display().to_string();
        plan.dataset = sharded.display().to_string();
        if plan.k != k && flags.provided("k") {
            return Err(SoupError::usage(format!(
                "--resume: run directory was sharded with k={}, not k={k}",
                plan.k
            )));
        }
        plan.resume = true;
        if flags.provided("worker-timeout") {
            plan.worker_timeout_ms = worker_timeout_ms;
        }
        if flags.provided("restart-budget") {
            plan.restart_budget = restart_budget;
        }
        plan.chaos = None;
        soup_obs::info!(
            "resuming sharded run in {} (k={})",
            out_dir.display(),
            plan.k
        );
        plan
    } else {
        soup_obs::info!("partitioning {data} into {k} shards ...");
        let report = prepare_sharded_dataset(data, k, &sharded)?;
        report.quality.export_gauges();
        soup_obs::info!(
            "shard-ordered {} nodes — edge-cut {}, halo fraction {:.4}, balance {:.3}",
            report.nodes,
            report.quality.edge_cut,
            report.quality.halo_fraction,
            report.quality.balance
        );
        ShardPlan {
            version: 1,
            dataset: sharded.display().to_string(),
            k,
            ranges: report.ranges,
            seed: flags.req_u64("seed"),
            rounds: flags.req_usize("ingredients"),
            arch: arch.to_string(),
            hidden: flags.req_usize("hidden"),
            layers: flags.req_usize("layers"),
            dropout: flags.req_f64("dropout") as f32,
            epochs: flags.req_usize("epochs"),
            lr: flags.req_f64("lr") as f32,
            strategy: flags.req_str("strategy").to_string(),
            soup_epochs: flags.req_usize("soup-epochs"),
            pls_k: flags.req_usize("pls-k"),
            pls_r: flags.req_usize("pls-r"),
            out_dir: out_dir.display().to_string(),
            no_shm: false,
            resume,
            worker_timeout_ms,
            restart_budget,
            chaos: None,
        }
    };
    // Catch a bad strategy name here, not as a cryptic worker exit.
    let mut spec = StrategySpec::new(plan.strategy.clone());
    spec.epochs = plan.soup_epochs;
    spec.pls_k = plan.pls_k;
    spec.pls_r = plan.pls_r;
    spec.build()?;

    let exe = std::env::current_exe().map_err(SoupError::from)?;
    let launch = WorkerLaunch::new(exe, &["shard-worker"]);
    soup_obs::info!(
        "launching {} shard workers ({} ingredients each, strategy {}) ...",
        plan.k,
        plan.rounds,
        plan.strategy
    );
    let report = run_sharded(&plan, &launch)?;
    if report.is_degraded() {
        soup_obs::warn!(
            "run degraded: shards {:?} exhausted their restart budget; \
             accuracy covers the {} surviving shard(s) only (see {}/run.json)",
            report.missing,
            report.per_shard.len(),
            out_dir.display()
        );
    }
    if report.restarts > 0 {
        soup_obs::info!(
            "supervisor recovered {} worker crash(es)/hang(s) via respawn",
            report.restarts
        );
    }
    for r in &report.per_shard {
        soup_obs::info!(
            "  shard {} — val {:.2}% test {:.2}% ({}/{} test nodes), \
             {} ingredients ({} resumed), halo {} rows, peak rss {}",
            r.shard,
            r.val_accuracy * 100.0,
            r.test_accuracy * 100.0,
            r.correct,
            r.test_total,
            r.ingredients,
            r.resumed,
            r.halo_nodes,
            enhanced_soups::obs::report::fmt_bytes(r.peak_rss_bytes),
        );
    }
    outln!(
        "sharded {} (k={}{}): test {:.2}%  wall {:.3}s  max worker peak rss {}",
        plan.strategy,
        plan.k,
        if report.is_degraded() {
            format!(", DEGRADED — missing shards {:?}", report.missing)
        } else {
            String::new()
        },
        report.test_accuracy * 100.0,
        report.wall_ms as f64 / 1000.0,
        enhanced_soups::obs::report::fmt_bytes(report.max_worker_peak_rss),
    );
    Ok(())
}

/// `shard-worker` (hidden): the process `shard` forks, one per shard. All
/// behaviour lives in [`run_shard_worker`]; stdout stays quiet because the
/// coordinator owns user-facing reporting.
fn cmd_shard_worker(flags: &Flags) -> Result<()> {
    let plan = PathBuf::from(flags.req_str("plan"));
    let epoch = flags.req_u64("epoch") as u32;
    let result = run_shard_worker(&plan, flags.req_usize("shard"), epoch)?;
    soup_obs::info!(
        "shard {} done — val {:.2}% test {:.2}%, {} ingredients",
        result.shard,
        result.val_accuracy * 100.0,
        result.test_accuracy * 100.0,
        result.ingredients
    );
    Ok(())
}

fn cmd_diversity(flags: &Flags) -> Result<()> {
    let dataset = load_data(flags)?;
    let dir = PathBuf::from(flags.req_str("ckpt-dir"));
    let (cfg, ingredients) = load_manifest(&dir)?;
    let report = diversity_report(&ingredients, &dataset, &cfg);
    outln!(
        "ingredient pool diversity ({} ingredients):",
        ingredients.len()
    );
    outln!(
        "  mean pairwise weight distance: {:.4}",
        report.mean_weight_distance
    );
    outln!(
        "  mean prediction disagreement:  {:.2}%",
        report.mean_disagreement * 100.0
    );
    outln!(
        "  val-accuracy std:              {:.3}%",
        report.val_acc_std * 100.0
    );
    outln!("  (§V-A: pools with tiny spread favour uninformed US; dispersed pools favour GIS/LS)");
    Ok(())
}
