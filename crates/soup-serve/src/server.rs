//! The serve loop: worker-pool TCP accept, admission control, dispatch,
//! and hot model swap.
//!
//! `workers` OS threads share one `TcpListener`; each accepted connection
//! is handled inline by its accepting thread (clients are expected to hold
//! a connection and pipeline requests over it, so a thread-per-live-
//! connection pool is the right shape at this scale). A PREDICT is
//! answered on that thread too: admission counts it against
//! `queue_depth`, and once that many are already being answered a new one
//! gets `OVERLOADED` at once instead of waiting — latency under overload
//! stays flat and the client decides whether to retry.
//!
//! The live model is an `Arc<ServeModel>` behind a `parking_lot::RwLock`.
//! On the transductive benchmarks every answer is a pure function of
//! (graph, features, parameters), so a version carries its answers with
//! it: promotion (startup / SWAP / RESOUP) builds the new model — the
//! argmax class of every node through the one full-graph forward that
//! version will ever run — *outside* the lock, takes the write lock only
//! for the pointer swap, and acks the client after the guard drops.
//! PREDICT clones the live `Arc` once, after its request is decoded, and
//! gathers version and classes from it. A request sent after a promote
//! ack therefore reads the new model; one in flight keeps its old `Arc`
//! (alive until the last reference drops), so traffic is never paused, no
//! request is dropped by a swap, and no reply pairs one version with
//! another's table.

use crate::proto::{self, Request, Response};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use soup_core::{load_manifest, SoupCtx, StrategySpec};
use soup_error::SoupError;
use soup_gnn::{
    check_params, load_checkpoint, predict_cached, ModelConfig, ParamSet, PropCache, PropOps,
};
use soup_graph::Dataset;
use soup_store::frame::{is_stall, write_frame, FrameBuf, Next};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs, mirrored one-to-one by `soupctl serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind (0 = ephemeral, the bound port is reported back).
    pub port: u16,
    /// PREDICTs answered at once; beyond this a new one is answered
    /// `OVERLOADED`.
    pub queue_depth: usize,
    /// Accept-loop worker threads (= max concurrently served connections).
    pub workers: usize,
    /// Reap a connection idle this long between requests; a connection
    /// that *stalls mid-frame* is cut after at most twice this. Also the
    /// per-connection write timeout.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            queue_depth: 128,
            workers: 4,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// One immutable promoted model. Swaps replace the whole `Arc`.
pub struct ServeModel {
    /// Monotonic promotion counter; version 1 is the model served at
    /// startup.
    pub version: u64,
    /// The promoted parameters; a later promotion must match their shape.
    pub params: ParamSet,
    /// Predicted class of every node under this version: the output of the
    /// offline `predict_cached`, computed once when the version is built.
    /// PREDICT gathers from it.
    table: Vec<u32>,
}

impl ServeModel {
    /// Run the version's one full-graph forward. Called before any lock is
    /// taken. The result is stamped version 1, the startup model; `promote`
    /// restamps it under the write lock.
    fn build(cfg: &ModelConfig, ops: &PropOps, cache: &PropCache, params: ParamSet) -> ServeModel {
        let t0 = Instant::now();
        let preds = predict_cached(cfg, ops, cache, &params);
        soup_obs::histogram!("serve.table_build_us").record(t0.elapsed().as_micros() as u64);
        ServeModel {
            version: 1,
            params,
            table: preds.into_iter().map(|c| c as u32).collect(),
        }
    }
}

/// State shared by every worker and promotions.
struct ServeShared {
    config: ServeConfig,
    cfg: ModelConfig,
    ops: PropOps,
    cache: PropCache,
    dataset: Dataset,
    model: RwLock<Arc<ServeModel>>,
    /// PREDICTs admitted and not yet answered.
    queue_len: AtomicUsize,
    shutdown: AtomicBool,
    swaps: AtomicU64,
    /// Socket handles of live connections, keyed by an accept sequence
    /// number. Workers block in `read_frame` on persistent connections, so
    /// shutdown must actively `Shutdown::Both` these to unpark them — the
    /// self-connect nudge only reaches workers parked in `accept()`.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
}

impl ServeShared {
    /// Build (outside any lock) and promote a new model; returns the new
    /// version. The shape check comes first so a checkpoint of another
    /// architecture is an ERROR, not a panic inside the table's forward.
    /// The write lock is held only for the pointer swap.
    fn promote(&self, params: ParamSet) -> soup_error::Result<u64> {
        if !params.same_shape(&self.model.read().params) {
            return Err(SoupError::shape(
                "promoted parameters do not match the serving architecture",
            ));
        }
        let mut next = ServeModel::build(&self.cfg, &self.ops, &self.cache, params);
        let mut live = self.model.write();
        let version = live.version + 1;
        next.version = version;
        *live = Arc::new(next);
        drop(live);
        self.swaps.fetch_add(1, Ordering::AcqRel);
        soup_obs::counter!("serve.swaps").inc();
        Ok(version)
    }
}

/// STATS response payload.
#[derive(Serialize)]
struct StatsBody {
    version: u64,
    num_nodes: usize,
    requests: u64,
    batches: u64,
    rejected: u64,
    swaps: u64,
    queue_len: usize,
    latency_p50_us: u64,
    latency_p99_us: u64,
    table_build_p50_us: u64,
}

/// A running server: bound address plus the thread handles needed to join
/// or stop it.
pub struct Server {
    shared: Arc<ServeShared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept workers, and return.
    ///
    /// `params` must fit `cfg` ([`check_params`]): a soup of another
    /// architecture or width is a `shape` error before anything binds or
    /// runs. The initial model is promoted as version 1 (filling its
    /// prediction table); the [`PropCache`] is built once here and shared
    /// by every promotion's forward for the server's lifetime.
    pub fn start(
        dataset: Dataset,
        cfg: ModelConfig,
        params: ParamSet,
        config: ServeConfig,
    ) -> soup_error::Result<Server> {
        check_params(&cfg, &params)?;
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;

        let ops = PropOps::prepare(cfg.arch, &dataset.graph);
        let cache = PropCache::new(&ops, &dataset.features);
        let model = ServeModel::build(&cfg, &ops, &cache, params);
        let shared = Arc::new(ServeShared {
            config,
            cfg,
            ops,
            cache,
            dataset,
            model: RwLock::new(Arc::new(model)),
            queue_len: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
        });

        let listener = Arc::new(listener);
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                let listener = listener.clone();
                std::thread::Builder::new()
                    .name(format!("soup-serve-worker-{i}"))
                    .spawn(move || accept_loop(shared, listener))
                    .map_err(SoupError::from)
            })
            .collect::<soup_error::Result<Vec<_>>>()?;

        soup_obs::info!("serving on {addr} ({} workers)", workers.len());
        Ok(Server {
            shared,
            addr,
            workers,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live model version.
    pub fn version(&self) -> u64 {
        self.shared.model.read().version
    }

    /// Block until the serve loop exits (a SHUTDOWN request arrived or
    /// [`Server::stop`] was called from another thread's clone of the
    /// address).
    pub fn join(self) {
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Ask the server to stop and block until every thread exits.
    pub fn stop(self) {
        request_stop(&self.shared, self.addr);
        self.join();
    }
}

/// Flip the shutdown flag, kick handlers off their live connections, and
/// nudge every worker out of `accept()` with throwaway self-connections.
fn request_stop(shared: &ServeShared, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    // Handlers parked in `read_frame` on persistent connections only wake
    // when their socket dies; responses already written are not discarded
    // by the half-close semantics, so the SHUTDOWN ack still reaches its
    // client.
    for conn in shared.conns.lock().values() {
        let _ = conn.shutdown(Shutdown::Both);
    }
    for _ in 0..shared.config.workers.max(1) {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

fn accept_loop(shared: Arc<ServeShared>, listener: Arc<TcpListener>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        // Register the socket so `request_stop` can unpark this handler,
        // then re-check the flag: either `request_stop` saw the entry and
        // shut it, or this load sees the flag — no interleaving leaves a
        // blocked, unkillable read.
        let id = shared.conn_seq.fetch_add(1, Ordering::AcqRel);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            shared.conns.lock().remove(&id);
            return;
        }
        let outcome = handle_conn(&shared, stream);
        shared.conns.lock().remove(&id);
        if let Err(err) = outcome {
            soup_obs::debug!("connection ended: {err}");
        }
    }
}

/// Serve one connection until EOF, idle expiry, a fatal I/O error, or
/// shutdown. Reads run under `FrameBuf::read_frame`'s idle budget, so a
/// parked client is reaped after `idle_timeout` and a mid-frame staller
/// after at most twice that; writes carry the same timeout, so a client
/// that stops draining its socket cannot pin a worker thread either.
fn handle_conn(shared: &Arc<ServeShared>, mut stream: TcpStream) -> soup_error::Result<()> {
    let idle = Some(shared.config.idle_timeout);
    stream.set_nodelay(true)?;
    stream.set_write_timeout(idle)?;
    let mut buf = FrameBuf::new(proto::MAX_FRAME);
    loop {
        let (resp, stop_after) = match buf.read_frame(&mut stream, idle) {
            Ok(Next::Frame(payload)) => match proto::decode_request(payload) {
                Ok(req) => dispatch(shared, req),
                // Malformed frame: answer with the decode error, keep
                // serving — the framing layer is still synchronized.
                Err(err) => (Response::Error(err.to_string()), false),
            },
            // Idle past the deadline between requests: reap quietly.
            Ok(Next::Idle) => {
                soup_obs::counter!("serve.idle_reaped").inc();
                soup_obs::debug!("reaped idle connection");
                return Ok(());
            }
            // EOF between frames is the normal way a client hangs up.
            Ok(Next::Closed) => return Ok(()),
            Err(err) => {
                if is_stall(&err) {
                    soup_obs::counter!("serve.stalled").inc();
                }
                return Err(err);
            }
        };
        let payload = proto::encode_response(&resp);
        write_frame(&mut stream, proto::MAX_FRAME, &[&payload])?;
        if stop_after {
            request_stop(shared, stream.local_addr()?);
            return Ok(());
        }
    }
}

/// Execute one request; the bool asks the connection loop to initiate
/// server shutdown after the response is written.
fn dispatch(shared: &Arc<ServeShared>, req: Request) -> (Response, bool) {
    soup_obs::counter!("serve.requests").inc();
    match req {
        Request::Ping => {
            let version = shared.model.read().version;
            (Response::Ok(version.to_le_bytes().to_vec()), false)
        }
        Request::Predict(nodes) => (predict(shared, nodes), false),
        Request::Stats => match stats(shared) {
            Ok(json) => (Response::Ok(json.into_bytes()), false),
            Err(err) => (Response::Error(err.to_string()), false),
        },
        Request::Swap(path) => {
            let outcome = load_checkpoint(&path).and_then(|ck| shared.promote(ck.params));
            match outcome {
                Ok(v) => (Response::Ok(v.to_le_bytes().to_vec()), false),
                Err(err) => (Response::Error(err.to_string()), false),
            }
        }
        Request::Resoup {
            strategy,
            dir,
            seed,
        } => match resoup(shared, &strategy, &dir, seed) {
            Ok(v) => (Response::Ok(v.to_le_bytes().to_vec()), false),
            Err(err) => (Response::Error(err.to_string()), false),
        },
        Request::Shutdown => (Response::Ok(Vec::new()), true),
    }
}

fn predict(shared: &ServeShared, nodes: Vec<u32>) -> Response {
    let num_nodes = shared.dataset.num_nodes();
    if let Some(&bad) = nodes.iter().find(|&&n| n as usize >= num_nodes) {
        return Response::Error(format!(
            "node id {bad} out of range (graph has {num_nodes})"
        ));
    }
    // Admission: count this PREDICT before the check, so concurrent
    // handlers see each other, and roll the increment back on rejection.
    let admitted = Instant::now();
    if shared.queue_len.fetch_add(1, Ordering::AcqRel) >= shared.config.queue_depth {
        shared.queue_len.fetch_sub(1, Ordering::AcqRel);
        soup_obs::counter!("serve.rejected").inc();
        return Response::Overloaded;
    }
    // One read of the live model: version and classes come from the same
    // `Arc`, and the read happens-after any promote acked before the
    // request was sent.
    let model = shared.model.read().clone();
    let classes: Vec<u32> = nodes.iter().map(|&n| model.table[n as usize]).collect();
    let body = proto::encode_predictions(model.version, &classes);
    let depth = shared.queue_len.fetch_sub(1, Ordering::AcqRel) - 1;
    soup_obs::gauge!("serve.queue_depth").set(depth as f64);
    soup_obs::histogram!("serve.batch_size").record(nodes.len() as u64);
    soup_obs::counter!("serve.batches").inc();
    soup_obs::histogram!("serve.latency_us").record(admitted.elapsed().as_micros() as u64);
    Response::Ok(body)
}

fn stats(shared: &Arc<ServeShared>) -> soup_error::Result<String> {
    // One digest, so p50 ≤ p99 holds even while handlers record.
    let latency = soup_obs::histogram!("serve.latency_us").summary();
    let body = StatsBody {
        version: shared.model.read().version,
        num_nodes: shared.dataset.num_nodes(),
        requests: soup_obs::counter!("serve.requests").get(),
        batches: soup_obs::counter!("serve.batches").get(),
        rejected: soup_obs::counter!("serve.rejected").get(),
        swaps: shared.swaps.load(Ordering::Acquire),
        queue_len: shared.queue_len.load(Ordering::Acquire),
        latency_p50_us: latency.p50,
        latency_p99_us: latency.p99,
        table_build_p50_us: soup_obs::histogram!("serve.table_build_us").quantile(0.5),
    };
    serde_json::to_string(&body).map_err(|e| SoupError::parse(format!("stats encoding: {e}")))
}

/// RESOUP: load the ingredient pool at `dir`, soup it with `strategy`
/// (resolved through [`StrategySpec`], so the guards match `soupctl soup`),
/// and promote the result.
fn resoup(
    shared: &Arc<ServeShared>,
    strategy: &str,
    dir: &str,
    seed: u64,
) -> soup_error::Result<u64> {
    let (pool_cfg, ingredients) = load_manifest(std::path::Path::new(dir))?;
    if pool_cfg.arch != shared.cfg.arch {
        return Err(SoupError::shape(format!(
            "pool at {dir} was trained as {:?}, server runs {:?}",
            pool_cfg.arch, shared.cfg.arch
        )));
    }
    let strategy = StrategySpec::new(strategy).build()?;
    let outcome = strategy
        .try_soup(&SoupCtx::new(
            &ingredients,
            &shared.dataset,
            &shared.cfg,
            seed,
        ))?
        .expect("try_soup always returns Some");
    soup_obs::info!(
        "resoup({}) reached val acc {:.4}, promoting",
        strategy.name(),
        outcome.val_accuracy
    );
    shared.promote(outcome.params)
}
