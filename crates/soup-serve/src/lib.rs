//! # soup-serve — request serving over a souped model
//!
//! Online node-classification over the Phase-2 soup: a multi-threaded TCP
//! server whose every answer is the output of the same cached inference
//! path the offline pipeline uses (`predict_cached`), with the serving
//! concerns layered on top:
//!
//! - **Prediction table** ([`server`]) — a soup deploys as one parameter
//!   set and the graph is fixed, so every answer changes only when a
//!   promotion acks. The full-graph forward runs once per promoted version
//!   (startup, `SWAP`, `RESOUP`) and `PREDICT` is a gather from its result;
//!   answers are bit-identical to offline evaluation because they *are*
//!   its output. The connection thread answers a `PREDICT` itself, with
//!   one read of the live version.
//! - **Admission control** ([`server`]) — at most `queue_depth` PREDICTs
//!   are answered at once; one more gets an explicit `OVERLOADED` response
//!   instead of unbounded queueing.
//! - **Hot model swap** — `SWAP` (promote a checkpoint file) and `RESOUP`
//!   (re-soup a pool through the [`soup_core::SoupStrategy`] registry and
//!   promote the winner) build the next `Arc<ServeModel>` — parameters
//!   and prediction table — off the lock and swap it in
//!   without pausing traffic; requests sent after the promote ack are
//!   guaranteed the new model.
//! - **Observability** — `serve.*` counters, latency / request-size /
//!   table-build histograms, and a queue-depth gauge in the soup-obs
//!   registry, surfaced by the `STATS` opcode.
//!
//! The wire format ([`proto`]) is deliberately tiny: an opcode table over
//! the workspace's one length-prefixed frame codec, `soup_store::frame`
//! (shared with the shard control plane), no external
//! protocol dependencies. [`client`] is the matching blocking client and
//! [`load`] a deterministic Zipf sampler for skewed request streams.

pub mod client;
pub mod load;
pub mod proto;
pub mod server;

pub use client::{Client, PredictResult};
pub use load::ZipfSampler;
pub use proto::{Opcode, Request, Response, Status, MAX_FRAME};
pub use server::{ServeConfig, ServeModel, Server};
