//! `serve_swap`: an in-process `soup-serve` server on a GCN soup, read by
//! two connections while one of them keeps promoting checkpoints.
//!
//! One rep is a closed-loop segment (each connection sends its next
//! PREDICT when the previous reply lands; connection 0 also sends a SWAP
//! every [`SWAP_EVERY`] requests, alternating two checkpoints) followed by
//! three open-loop segments without swaps at fixed rates, where every
//! request has a due time and is timed from it. The open-loop generator
//! lives here: `soup_serve::load` only has a closed loop.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use soup_core::{SoupCtx, StrategySpec};
use soup_distrib::{train_ingredients_opts, TrainOpts};
use soup_gnn::{
    predict_cached, save_checkpoint, Arch, Checkpoint, ModelConfig, ParamSet, PropCache, PropOps,
};
use soup_graph::SbmConfig;
use soup_serve::{Client, PredictResult, ServeConfig, Server, ZipfSampler};
use soup_tensor::SplitMix64;

use crate::pipeline::{setup_dataset, train_config};
use crate::stats;
use crate::sys::Stopwatch;
use crate::trace::{Counters, Tracer};
use crate::{probe, sub_seed, Ctx, Rep, Workload};

/// Connections = load-generating threads = server workers (≤ two cores).
const CONNECTIONS: usize = 2;
/// PREDICTs per connection in the closed-loop segment.
const CLOSED_REQUESTS: usize = 520;
/// Connection 0 promotes the other checkpoint after this many requests.
/// [`CLOSED_REQUESTS`] holds an even number of swaps, so a rep ends on the
/// checkpoint it started on and every rep does the same work.
const SWAP_EVERY: usize = 40;
const _: () = assert!(((CLOSED_REQUESTS - 1) / SWAP_EVERY).is_multiple_of(2));
/// Ids per request: 1..=16, below half the server's `max_batch` of 64, so
/// a batch closes on its delay and not because one request filled it.
const MAX_IDS: usize = 16;
/// The open-loop segments: rates in requests per second over both
/// connections — about a quarter, a half and three quarters of what the
/// closed loop sustains on the reference box — and the requests each
/// connection sends at each.
const OPEN_SEGMENTS: [OpenSegment; 3] = [
    OpenSegment::new(0, 130.0, 40),
    OpenSegment::new(1, 260.0, 140),
    OpenSegment::new(2, 390.0, 120),
];
/// Latency limit on the open-loop p99 for `max_ok_rps`.
const LATENCY_LIMIT_MS: f64 = 25.0;

/// One open-loop segment: its position, its rate over both connections,
/// and the requests each connection sends.
struct OpenSegment {
    index: usize,
    rate: f64,
    requests: usize,
}

impl OpenSegment {
    const fn new(index: usize, rate: f64, requests: usize) -> Self {
        Self {
            index,
            rate,
            requests,
        }
    }

    fn tag(&self) -> String {
        format!("r{}", self.index + 1)
    }
}

fn sbm() -> SbmConfig {
    crate::pipeline::sbm(5_000, 12.0, 128, 0.12)
}

struct Env {
    server: Server,
    addr: SocketAddr,
    labels: Vec<u32>,
    /// Popularity of the node ids requests ask for.
    zipf: ZipfSampler,
    /// The two checkpoints SWAP alternates, and what each predicts offline.
    checkpoints: [PathBuf; 2],
    offline: [Vec<u32>; 2],
    /// Which checkpoint each promoted version holds; index = version − 1.
    versions: Vec<usize>,
    // Kept for the probe section.
    cfg: ModelConfig,
    ops: PropOps,
    cache: PropCache,
    params: ParamSet,
}

pub struct ServeSwap {
    env: Option<Env>,
}

impl ServeSwap {
    pub fn new() -> Self {
        Self { env: None }
    }
}

/// One request's outcome as a client thread saw it.
struct Sample {
    nodes: Vec<u32>,
    /// `None`: refused or failed.
    reply: Option<(u64, Vec<u32>)>,
    latency_ms: f64,
    late_ms: f64,
}

/// What one connection did in one segment.
struct ConnLog {
    samples: Vec<Sample>,
    /// `(request index, new version, checkpoint, seconds)` of each SWAP.
    swaps: Vec<(usize, Option<u64>, usize, f64)>,
}

/// The ids of request `i` on connection `conn`: a pure function of the
/// seed, so every rep sends the same requests.
fn request_ids(zipf: &ZipfSampler, seed: u64, segment: u64, conn: usize, i: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed)
        .derive(segment)
        .derive(conn as u64)
        .derive(i as u64);
    let count = 1 + rng.next_below(MAX_IDS);
    (0..count).map(|_| zipf.sample(&mut rng) as u32).collect()
}

fn predict(client: &mut Client, nodes: &[u32]) -> Option<(u64, Vec<u32>)> {
    match client.predict(nodes) {
        Ok(PredictResult::Classes { version, classes }) => Some((version, classes)),
        Ok(PredictResult::Overloaded) | Err(_) => None,
    }
}

/// Closed loop on one connection; connection 0 also swaps.
fn closed_loop(
    addr: SocketAddr,
    zipf: &ZipfSampler,
    seed: u64,
    conn: usize,
    checkpoints: &[PathBuf; 2],
    mut tracer: Tracer,
) -> (ConnLog, Tracer) {
    let mut client = Client::connect(addr).expect("connecting to the server");
    let mut samples = Vec::with_capacity(CLOSED_REQUESTS);
    let mut swaps = Vec::new();
    let mut live = 0usize;
    for i in 0..CLOSED_REQUESTS {
        if conn == 0 && i > 0 && i % SWAP_EVERY == 0 {
            live = 1 - live;
            let path = checkpoints[live].display().to_string();
            let (version, s) = tracer.call("soup-serve", "swap", || client.swap(&path).ok());
            swaps.push((i, version, live, s));
        }
        let nodes = request_ids(zipf, seed, 0, conn, i);
        let (reply, s) = tracer.call("soup-serve", "predict", || predict(&mut client, &nodes));
        samples.push(Sample {
            nodes,
            reply,
            latency_ms: s * 1e3,
            late_ms: 0.0,
        });
    }
    (ConnLog { samples, swaps }, tracer)
}

/// Open loop on one connection: the segment's requests with exponential
/// gaps at this connection's share of the rate, each due at a time fixed
/// before the segment starts. A request is sent when it is due or, if the
/// previous reply is still outstanding then, as soon as that lands; its
/// latency runs from the due time either way.
fn open_loop(
    addr: SocketAddr,
    zipf: &ZipfSampler,
    seed: u64,
    segment: &OpenSegment,
    conn: usize,
    mut tracer: Tracer,
) -> (ConnLog, Tracer) {
    let mut client = Client::connect(addr).expect("connecting to the server");
    let mut gaps = SplitMix64::new(seed)
        .derive(100 + segment.index as u64)
        .derive(conn as u64);
    let rate = segment.rate / CONNECTIONS as f64;
    let mut due_s = 0.0f64;
    let schedule: Vec<f64> = (0..segment.requests)
        .map(|_| {
            due_s += -(1.0 - gaps.next_f64()).ln() / rate;
            due_s
        })
        .collect();
    let mut samples = Vec::with_capacity(segment.requests);
    let start = Instant::now();
    for (i, due_s) in schedule.into_iter().enumerate() {
        let due = start + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let nodes = request_ids(zipf, seed, 1 + segment.index as u64, conn, i);
        let sent = Instant::now();
        let (reply, _) = tracer.call("soup-serve", "predict", || predict(&mut client, &nodes));
        samples.push(Sample {
            nodes,
            reply,
            latency_ms: due.elapsed().as_secs_f64() * 1e3,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        });
    }
    let swaps = Vec::new();
    (ConnLog { samples, swaps }, tracer)
}

/// Run `per_conn` on every connection at once and collect the logs in
/// connection order.
fn on_all_connections(
    tracer: &mut Tracer,
    per_conn: impl Fn(usize, Tracer) -> (ConnLog, Tracer) + Sync,
) -> Vec<ConnLog> {
    let forks: Vec<Tracer> = (0..CONNECTIONS).map(|_| tracer.fork()).collect();
    let done: Vec<(ConnLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(conn, fork)| {
                let per_conn = &per_conn;
                scope.spawn(move || per_conn(conn, fork))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect()
    });
    done.into_iter()
        .map(|(log, fork)| {
            tracer.absorb(fork);
            log
        })
        .collect()
}

impl Env {
    /// Count every request of `logs` as an operation: it fails when it was
    /// refused or errored, when its reply is not what the checkpoint of
    /// its stamped version predicts offline, or when the version went
    /// backwards on its connection.
    fn verify(&self, logs: &[ConnLog], rep: &mut Rep, segment: &str) {
        for (conn, log) in logs.iter().enumerate() {
            let mut last_version = 0u64;
            for (i, sample) in log.samples.iter().enumerate() {
                let verdict = match &sample.reply {
                    None => Err("refused or failed".to_string()),
                    Some((version, classes)) => {
                        let checkpoint = self.versions.get(*version as usize - 1);
                        let monotonic = *version >= last_version;
                        last_version = last_version.max(*version);
                        match checkpoint {
                            None => Err(format!("unknown version {version}")),
                            Some(_) if !monotonic => Err(format!("version went back to {version}")),
                            Some(&ck) => {
                                let expected =
                                    sample.nodes.iter().map(|&n| self.offline[ck][n as usize]);
                                if classes.iter().copied().eq(expected) {
                                    Ok(())
                                } else {
                                    Err(format!("reply differs from offline version {version}"))
                                }
                            }
                        }
                    }
                };
                rep.op(verdict.is_ok(), || {
                    format!(
                        "{segment} connection {conn} request {i}: {}",
                        verdict.unwrap_err()
                    )
                });
            }
        }
    }
}

impl Workload for ServeSwap {
    fn setup(&mut self, ctx: &mut Ctx) {
        let (dataset, ops, cache) = setup_dataset(ctx, &sbm(), Arch::Gcn);
        let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(32);
        // A small pool and its uniform soup: the served model and the
        // checkpoint it alternates with.
        let tc = train_config(10, 0.02);
        let opts = TrainOpts::default()
            .with_workers(CONNECTIONS)
            .with_seed(sub_seed(ctx.seed, 1));
        let (run, _) = ctx
            .tracer
            .call("soup-distrib", "train_ingredients_opts", || {
                train_ingredients_opts(&dataset, &cfg, &tc, 2, &opts)
            });
        let pool = run.expect("training the served pool").ingredients;
        let strategy = StrategySpec::new("us").build().expect("known strategy");
        let soup_ctx = SoupCtx::new(&pool, &dataset, &cfg, sub_seed(ctx.seed, 2));
        let (soup, _) = ctx
            .tracer
            .call("soup-core", "try_soup.us", || strategy.try_soup(&soup_ctx));
        let soup = soup
            .expect("souping")
            .expect("uniform souping completes")
            .params;
        let served = [soup, pool[0].params.clone()];
        let checkpoints = [ctx.work.join("a.ck"), ctx.work.join("b.ck")];
        let (_, write_s) = ctx.tracer.call("soup-store", "save_checkpoint", || {
            for (i, (params, path)) in served.iter().zip(&checkpoints).enumerate() {
                save_checkpoint(&Checkpoint::new(i, 0, 0.0, params.clone()), path)
                    .expect("writing a served checkpoint");
            }
        });
        ctx.setup
            .insert("soup-store.ckpt_write_ms".into(), write_s * 1e3 / 2.0);
        let offline = served.each_ref().map(|params| {
            predict_cached(&cfg, &ops, &cache, params)
                .into_iter()
                .map(|c| c as u32)
                .collect::<Vec<u32>>()
        });
        let labels = dataset.labels.clone();
        let zipf = ZipfSampler::new(dataset.num_nodes(), 1.0);
        let config = ServeConfig {
            workers: CONNECTIONS,
            ..ServeConfig::default()
        };
        let [soup, _] = served;
        let (server, start_s) = ctx.tracer.call("soup-serve", "Server::start", || {
            Server::start(dataset, cfg.clone(), soup.clone(), config)
        });
        let server = server.expect("starting the server");
        ctx.setup.insert("soup-serve.start_s".into(), start_s);
        self.env = Some(Env {
            addr: server.addr(),
            server,
            labels,
            zipf,
            checkpoints,
            offline,
            versions: vec![0],
            cfg,
            ops,
            cache,
            params: soup,
        });
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Rep {
        let env = self.env.as_mut().expect("set-up ran");
        let mut rep = Rep::default();
        let traced = ctx.tracer.on;
        let seed = sub_seed(ctx.seed, 3);
        let before = traced.then(Counters::now);
        let batch_sizes = soup_obs::registry::histogram("serve.batch_size");
        let (batch_count, batch_sum) = (batch_sizes.count(), batch_sizes.sum());

        // Closed loop with swaps.
        let watch = Stopwatch::start();
        let open = ctx.tracer.open("bench", "closed_loop");
        let (addr, checkpoints, zipf) = (env.addr, env.checkpoints.clone(), &env.zipf);
        let logs = on_all_connections(&mut ctx.tracer, |conn, fork| {
            closed_loop(addr, zipf, seed, conn, &checkpoints, fork)
        });
        ctx.tracer.close(open);
        rep.set("wall_s", watch.wall_s());
        rep.set("cpu_s", watch.cpu_s());
        let mut swap_ms = Vec::new();
        for &(i, version, checkpoint, s) in &logs[0].swaps {
            let expected = env.versions.len() as u64 + 1;
            rep.op(version == Some(expected), || {
                format!("swap before request {i} returned {version:?}, expected version {expected}")
            });
            env.versions.push(checkpoint);
            swap_ms.push(s * 1e3);
        }
        env.verify(&logs, &mut rep, "closed loop");
        rep.set("soup-serve.swap_ms", stats::median(&swap_ms));
        let closed: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.samples.iter().map(|s| s.latency_ms))
            .collect();
        rep.set("soup-serve.closed_p50_ms", stats::median(&closed));
        rep.set(
            "soup-serve.closed_rps",
            (CONNECTIONS * CLOSED_REQUESTS) as f64 / rep.values["wall_s"],
        );

        // Open loop at three fixed rates, no swaps. Which checkpoint
        // answers a closed-loop request depends on how it races the swaps,
        // so served accuracy is taken here, where the model is fixed: over
        // the distinct nodes served, against their labels.
        let mut served: Vec<(u32, u32)> = Vec::new();
        for segment in &OPEN_SEGMENTS {
            let tag = segment.tag();
            let open = ctx.tracer.open("bench", format!("open_loop.{tag}"));
            let logs = on_all_connections(&mut ctx.tracer, |conn, fork| {
                open_loop(addr, zipf, seed, segment, conn, fork)
            });
            ctx.tracer.close(open);
            env.verify(&logs, &mut rep, "open loop");
            let count = segment.requests;
            let mut latency: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.samples.iter().map(|s| s.latency_ms))
                .collect();
            latency.sort_by(f64::total_cmp);
            let mut late: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.samples.iter().map(|s| s.late_ms))
                .collect();
            // A backlog that grows shows as lateness rising through the
            // segment: compare its last quarter with its first.
            let quarter = (count / 4).max(1);
            let drift = logs
                .iter()
                .map(|l| {
                    let head: Vec<f64> = l.samples[..quarter].iter().map(|s| s.late_ms).collect();
                    let tail: Vec<f64> = l.samples[count - quarter..]
                        .iter()
                        .map(|s| s.late_ms)
                        .collect();
                    stats::median(&tail) - stats::median(&head)
                })
                .fold(0.0f64, f64::max);
            late.sort_by(f64::total_cmp);
            rep.set(
                &format!("soup-serve.p50_ms.{tag}"),
                stats::percentile_sorted(&latency, 0.50),
            );
            rep.set(
                &format!("soup-serve.p99_ms.{tag}"),
                stats::percentile_sorted(&latency, 0.99),
            );
            rep.set(&format!("open.backlog_drift_ms.{tag}"), drift);
            if segment.index == 1 {
                rep.set(
                    "soup-serve.gen_late_p99_ms",
                    stats::percentile_sorted(&late, 0.99),
                );
            }
            served.extend(logs.iter().flat_map(|l| &l.samples).flat_map(|s| {
                let classes = s.reply.as_ref().map_or(&[][..], |(_, c)| c);
                s.nodes.iter().copied().zip(classes.iter().copied())
            }));
            rep.samples.insert(tag, latency);
        }

        served.sort_unstable();
        served.dedup();
        let right = served
            .iter()
            .filter(|&&(node, class)| env.labels[node as usize] == class)
            .count();
        rep.set("test_acc", right as f64 / served.len().max(1) as f64);

        if let Some(before) = before {
            let after = Counters::now();
            let d = |name: &str| after.delta(&before, name);
            rep.set("soup-serve.requests", d("serve.requests"));
            rep.set("soup-serve.batches", d("serve.batches"));
            rep.set("soup-serve.rejected", d("serve.rejected"));
            rep.set("soup-serve.swaps", d("serve.swaps"));
            let batches = (batch_sizes.count() - batch_count).max(1);
            rep.set(
                "soup-serve.mean_batch_size",
                (batch_sizes.sum() - batch_sum) as f64 / batches as f64,
            );
            crate::pipeline::record_tensor_counters(&mut rep, &before, &after);
            crate::pipeline::record_tensor_memory(&mut rep);
            let stats_json = Client::connect(env.addr).and_then(|mut c| c.stats());
            let server_p50 = stats_json
                .ok()
                .and_then(|text| serde_json::from_str::<serde_json::JsonValue>(&text).ok())
                .and_then(|v| v.get("latency_p50_us").and_then(|p| p.as_f64()));
            rep.check(server_p50.is_some(), || "STATS did not answer".into());
            rep.set("soup-serve.server_p50_us", server_p50.unwrap_or(0.0));
        }
        rep
    }

    fn probe(&mut self, ctx: &mut Ctx, _reps: &[Rep], out: &mut Rep) {
        let env = self.env.as_ref().expect("set-up ran");
        let mut client = Client::connect(env.addr).expect("connecting to the server");
        let pings: Vec<f64> = (0..200)
            .map(|_| {
                ctx.tracer
                    .call("soup-serve", "probe.ping", || client.ping())
                    .1
                    * 1e6
            })
            .collect();
        out.set("soup-serve.ping_us", stats::median(&pings));
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                ctx.tracer
                    .call("soup-gnn", "probe.predict_cached", || {
                        std::hint::black_box(predict_cached(
                            &env.cfg,
                            &env.ops,
                            &env.cache,
                            &env.params,
                        ))
                    })
                    .1
            })
            .collect();
        out.set("soup-gnn.forward_cached_ms", stats::median(&samples) * 1e3);
        let path = env.checkpoints[0].clone();
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                ctx.tracer
                    .call("soup-store", "probe.load_checkpoint", || {
                        std::hint::black_box(
                            soup_gnn::load_checkpoint(&path).expect("reading a checkpoint"),
                        )
                    })
                    .1
            })
            .collect();
        out.set("soup-store.ckpt_read_ms", stats::median(&samples) * 1e3);
        probe::tensor_kernels(
            ctx,
            env.cache.features(),
            &env.cfg,
            &env.ops,
            &mut out.values,
        );
    }

    fn finish(&mut self, _ctx: &mut Ctx, reps: &[Rep], out: &mut Rep) {
        // Percentiles at each rate over the samples of every rep, and the
        // highest rate that keeps its p99 under the limit without a
        // backlog that grows.
        let mut max_ok = 0.0f64;
        for segment in &OPEN_SEGMENTS {
            let tag = segment.tag();
            let mut pooled: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.samples.get(&tag))
                .flatten()
                .copied()
                .collect();
            if pooled.is_empty() {
                continue;
            }
            pooled.sort_by(f64::total_cmp);
            let p50 = stats::percentile_sorted(&pooled, 0.50);
            let p99 = stats::percentile_sorted(&pooled, 0.99);
            out.set(&format!("soup-serve.p50_ms.{tag}"), p50);
            out.set(&format!("soup-serve.p99_ms.{tag}"), p99);
            out.set(&format!("open.pooled_samples.{tag}"), pooled.len() as f64);
            let drift: Vec<f64> = reps
                .iter()
                .filter_map(|r| {
                    r.values
                        .get(&format!("open.backlog_drift_ms.{tag}"))
                        .copied()
                })
                .collect();
            if p99 <= LATENCY_LIMIT_MS && stats::median(&drift) <= LATENCY_LIMIT_MS / 2.0 {
                max_ok = max_ok.max(segment.rate);
            }
        }
        out.set("soup-serve.max_ok_rps", max_ok);
    }

    fn identical_across_reps(&self) -> &'static [&'static str] {
        &["test_acc"]
    }

    fn teardown(&mut self) {
        if let Some(env) = self.env.take() {
            env.server.stop();
        }
    }
}
