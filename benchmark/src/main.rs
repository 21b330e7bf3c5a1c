//! End-to-end benchmark of the enhanced-soups workspace.
//!
//! `soup-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload as a sequence of fixed-work repetitions, prints every
//! timed quantity with its quartiles, checks the outputs, and ends with one
//! JSON line holding the metrics `BENCHMARK.json` names: the end-to-end
//! ones from an untraced run, the per-layer ones from a traced run. See
//! `benchmark/README.md` for the workloads and the metric definitions.

mod pipeline;
mod probe;
mod serve;
mod shard;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use trace::Tracer;

/// A seed for one purpose (`stream`), derived from the run's `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    soup_tensor::SplitMix64::new(seed).derive(stream).next_u64()
}

/// Timed reps are sized to last about this long on the reference box; the
/// rep count of a run follows from `--seconds`, never the size of a rep.
const NOMINAL_REP_S: f64 = 4.0;
const MIN_REPS: usize = 5;
/// Set-up passes of an untraced run; `setup_s` is their median. The first
/// two passes of a run are slower than the rest (cold files and arenas);
/// seven keep the median among the warm ones.
const SETUP_PASSES: usize = 7;

/// What one repetition measured and produced.
#[derive(Default)]
pub struct Rep {
    /// Named quantities, keyed by the metric they feed.
    pub values: BTreeMap<String, f64>,
    /// Operations tried and failed (ingredients, soups, shards, requests).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Raw samples the run pools before taking percentiles.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub traced: bool,
}

impl Rep {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Shared state handed to every workload call.
pub struct Ctx {
    pub seed: u64,
    pub tracer: Tracer,
    /// Scratch directory of this run, under `benchmark/out/`.
    pub work: PathBuf,
    /// Per-layer quantities of the latest set-up pass.
    pub setup: BTreeMap<String, f64>,
}

pub trait Workload {
    /// One full set-up pass, replacing what the previous pass built.
    fn setup(&mut self, ctx: &mut Ctx);
    /// One repetition; every repetition of a run does the same work.
    fn rep(&mut self, ctx: &mut Ctx) -> Rep;
    /// Direct calls into the inner layers on this workload's data and
    /// shapes (traced run only).
    fn probe(&mut self, ctx: &mut Ctx, reps: &[Rep], out: &mut Rep);
    /// Values taken over all reps of the run (pooled percentiles).
    fn finish(&mut self, _ctx: &mut Ctx, _reps: &[Rep], _out: &mut Rep) {}
    /// Outputs that must be bit-identical in every rep of a run.
    fn identical_across_reps(&self) -> &'static [&'static str];
    /// Release sockets, threads and files.
    fn teardown(&mut self) {}
}

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric lists of `BENCHMARK.json`: the one place names and units are
/// written down.
struct Contract {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Contract {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root: serde_json::JsonValue =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str, field: &str| -> Result<Vec<(String, String)>, String> {
            root.get(key)
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(|v| v.as_str());
                    let other = m.get(field).and_then(|v| v.as_str());
                    match (name, other) {
                        (Some(n), Some(o)) => Ok((n.to_string(), o.to_string())),
                        _ => Err(format!("BENCHMARK.json: malformed entry in {key}")),
                    }
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads", "why")?
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
            end_to_end: list("end_to_end", "unit")?,
            per_layer: list("per_layer", "unit")?,
        })
    }

    fn unit_of(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
            .unwrap_or_else(|| {
                let leaf = name.rsplit('.').next().unwrap_or(name);
                if leaf.ends_with("_ms") {
                    "ms"
                } else if leaf.ends_with("_s") {
                    "s"
                } else if leaf.ends_with("_bytes") {
                    "bytes"
                } else {
                    "-"
                }
            })
    }
}

fn make_workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "pipeline_dense_gcn" => Some(Box::new(pipeline::Pipeline::new(pipeline::DENSE_GCN))),
        "pipeline_sparse_gat" => Some(Box::new(pipeline::Pipeline::new(pipeline::SPARSE_GAT))),
        "shard_k2" => Some(Box::new(shard::ShardK2::new())),
        "serve_swap" => Some(Box::new(serve::ServeSwap::new())),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-worker") {
        std::process::exit(shard::worker_main(&args[1..]));
    }
    // Library progress lines are not part of the benchmark's output.
    if std::env::var_os("SOUP_LOG").is_none() {
        std::env::set_var("SOUP_LOG", "warn");
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("soup-e2e-bench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    std::process::exit(match run(&opts) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("soup-e2e-bench: {e}");
            2
        }
    });
}

fn run(opts: &Options) -> Result<bool, String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo_root = bench_dir
        .parent()
        .ok_or("benchmark has no parent directory")?;
    let contract = Contract::load(&repo_root.join("BENCHMARK.json"))?;
    if !contract.workloads.contains(&opts.workload) {
        return Err(format!(
            "workload {} is not in BENCHMARK.json ({})",
            opts.workload,
            contract.workloads.join(", ")
        ));
    }
    let mut workload =
        make_workload(&opts.workload).ok_or(format!("workload {} has no driver", opts.workload))?;

    let out_dir = bench_dir.join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let provenance = sys::Provenance::collect(repo_root);
    println!("provenance {}", provenance.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );

    let mut ctx = Ctx {
        seed: opts.seed,
        tracer: Tracer::new(),
        work: work.clone(),
        setup: BTreeMap::new(),
    };
    let run_start = Instant::now();

    // Set-up. The traced run sets up once, with spans; it does not report
    // `setup_s`.
    let passes = if opts.trace { 1 } else { SETUP_PASSES };
    let mut setup_s = Vec::new();
    ctx.tracer.on = opts.trace;
    for pass in 0..passes {
        workload.teardown();
        let open = ctx.tracer.open("bench", format!("setup.{pass}"));
        workload.setup(&mut ctx);
        setup_s.push(ctx.tracer.close(open));
    }
    ctx.tracer.on = false;

    // Untimed warm-up rep: page cache, allocator arenas, lazy statics.
    soup_tensor::pool::trim();
    let warm = workload.rep(&mut ctx);
    soup_tensor::pool::trim();
    sys::release_free_heap();
    let peak_reset = sys::reset_peak_rss();

    let reps_wanted = if opts.trace {
        // Traced and untraced reps alternate; their ratio is the overhead.
        4
    } else {
        ((opts.seconds as f64 / NOMINAL_REP_S).round() as usize).max(MIN_REPS)
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut calib_ms = Vec::new();
    let mut calibration = sys::Calibration::new();
    for i in 0..reps_wanted {
        calib_ms.push(calibration.run_ms());
        // The tensor pool keeps every buffer a rep returned; emptied here,
        // each rep starts from the same state and resident memory does not
        // grow with the number of reps.
        soup_tensor::pool::trim();
        let traced = opts.trace && i % 2 == 0;
        ctx.tracer.rep = i;
        ctx.tracer.on = traced;
        if traced {
            let sink = out_dir.join(format!("{}.obs.jsonl", opts.workload));
            soup_obs::trace::init(&sink).map_err(|e| format!("{}: {e}", sink.display()))?;
        }
        let open = ctx.tracer.open("bench", "rep");
        let mut rep = workload.rep(&mut ctx);
        let rep_s = ctx.tracer.close(open);
        if traced {
            soup_obs::trace::finish();
            let by_layer = ctx.tracer.self_seconds_by_layer(i);
            let own = by_layer.get("bench").copied().unwrap_or(0.0);
            rep.set("bench.unattributed_share", own / rep_s.max(1e-9));
        }
        ctx.tracer.on = false;
        rep.traced = traced;
        reps.push(rep);
    }

    // Run-level values and checks.
    let mut run_level = Rep::default();
    run_level.problems.extend(warm.problems);
    workload.finish(&mut ctx, &reps, &mut run_level);
    for name in workload.identical_across_reps() {
        let series: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.values.get(*name).copied())
            .collect();
        run_level.check(
            series.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()),
            || format!("{name} differs between reps of one run: {series:?}"),
        );
    }
    if opts.trace {
        ctx.tracer.on = true;
        ctx.tracer.rep = reps_wanted;
        let open = ctx.tracer.open("bench", "probe");
        workload.probe(&mut ctx, &reps, &mut run_level);
        ctx.tracer.close(open);
        ctx.tracer.on = false;
    }
    workload.teardown();

    // Series per quantity: one value per rep (per traced rep for the
    // quantities only a traced rep records).
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rep in &reps {
        for (name, value) in &rep.values {
            series.entry(name.clone()).or_default().push(*value);
        }
    }
    series.insert("setup_s".into(), setup_s);
    series.insert("bench.calib_ms".into(), calib_ms);
    let wall: Vec<f64> = series.get("wall_s").cloned().unwrap_or_default();
    if !wall.is_empty() {
        run_level.set("bench.rep_iqr_share", stats::summarize(&wall).iqr_share());
    }
    if opts.trace {
        let of = |traced: bool| -> Vec<f64> {
            reps.iter()
                .filter(|r| r.traced == traced)
                .filter_map(|r| r.values.get("wall_s").copied())
                .collect()
        };
        run_level.set(
            "soup-obs.trace_overhead_share",
            stats::median(&of(true)) / stats::median(&of(false)) - 1.0,
        );
    }
    // Unless the workload measured its own (the largest shard worker's).
    series
        .entry("peak_rss_bytes".into())
        .or_insert_with(|| vec![sys::peak_rss_bytes() as f64]);
    for (name, value) in &ctx.setup {
        series.entry(name.clone()).or_insert_with(|| vec![*value]);
    }
    for (name, value) in &run_level.values {
        series.insert(name.clone(), vec![*value]);
    }

    println!(
        "{:<40} {:>6} {:>3} {:>13} {:>13} {:>13} {:>13} {:>13}  series",
        "quantity", "unit", "n", "min", "q1", "median", "q3", "max"
    );
    for (name, values) in &series {
        let s = stats::summarize(values);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        println!(
            "{:<40} {:>6} {:>3} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6}  [{}]",
            name,
            contract.unit_of(name),
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            shown.join(", ")
        );
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut problems: Vec<String> = run_level.problems.clone();
    for (i, rep) in reps.iter().enumerate() {
        problems.extend(rep.problems.iter().map(|p| format!("rep {i}: {p}")));
    }

    // The metrics of the contract, in its order.
    let wanted = if opts.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match series.get(name) {
            Some(values) => stats::median(values),
            // A layer this workload does not exercise reports zero work.
            None if opts.trace => 0.0,
            None => {
                problems.push(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
            continue;
        }
        fields.push(format!(
            "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
        ));
    }

    if opts.trace {
        let path = out_dir.join(format!("{}.trace.jsonl", opts.workload));
        let header = format!(
            "{{\"schema\":\"soup-e2e-bench-trace/1\",\"workload\":{:?},\"seed\":{},\"provenance\":{}}}",
            opts.workload,
            opts.seed,
            provenance.to_json()
        );
        ctx.tracer
            .write_jsonl(&path, &header)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} spans to {}",
            ctx.tracer.span_count(),
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&work);

    println!(
        "timed reps {} | timed wall {:.1} s | run wall {:.1} s | VmHWM restarted after set-up: {}",
        reps.len(),
        wall.iter().sum::<f64>(),
        run_start.elapsed().as_secs_f64(),
        peak_reset
    );
    for p in &problems {
        println!("PROBLEM {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}
