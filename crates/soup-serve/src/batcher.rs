//! Dynamic micro-batching: coalesce queued PREDICT requests and answer
//! them from the live version's prediction table.
//!
//! A single thread drains the bounded admission queue, closing a batch
//! when either `max_batch` node ids have accumulated or `max_delay` has
//! elapsed since the batch's first request, then gathers each job's
//! classes from the live `ServeModel`'s `table` and sends them back
//! through the job's reply channel. No forward runs here: the table was
//! filled once when its version was promoted, so the requests of a batch
//! share one `Arc` clone and a lookup each. Coalescing amortises nothing —
//! a batch has no fixed cost left to share — and costs a lone request up
//! to `max_delay`; the thread, `max_batch` and `max_delay` are kept only
//! because `ServeConfig` and the `serve.batches` / `serve.batch_size`
//! metrics are a frozen surface. Answering inline on the connection thread
//! is the follow-up.
//!
//! **Hot-swap ordering.** The live model `Arc` is read *after* the batch
//! is fully collected. A promote acks only once the model lock's write
//! guard is released, so any request enqueued after the ack lands in a
//! batch whose model read happens-after the swap — the old model can never
//! serve it, and since version and table sit in the one `Arc` no reply can
//! pair a version with another version's classes. (A request already in
//! flight when the promote lands may get either version; that is the
//! documented semantics.)

use crate::server::ServeShared;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One admitted PREDICT request: the node ids to classify and the channel
/// the connection handler blocks on for the answer.
pub(crate) struct PredictJob {
    pub nodes: Vec<u32>,
    pub reply: SyncSender<PredictReply>,
    pub enqueued: Instant,
}

/// The batcher's answer to one job.
#[derive(Debug, Clone)]
pub struct PredictReply {
    /// Version of the model that produced these classes.
    pub version: u64,
    /// Predicted class per requested node, in request order.
    pub classes: Vec<u32>,
}

/// Batcher loop: runs until the shutdown flag is set and the queue drains,
/// or every sender hangs up.
pub(crate) fn run(shared: Arc<ServeShared>, rx: Receiver<PredictJob>) {
    let idle = Duration::from_millis(50);
    loop {
        // Block for the first job of the next batch.
        let first = match rx.recv_timeout(idle) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let deadline = Instant::now() + shared.config.max_delay;
        let mut jobs = vec![first];
        let mut batched_nodes = jobs[0].nodes.len();

        // Coalesce until the batch is full or the first job's delay
        // budget is spent.
        while batched_nodes < shared.config.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => {
                    batched_nodes += job.nodes.len();
                    jobs.push(job);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        shared.queue_len.fetch_sub(jobs.len(), Ordering::AcqRel);
        soup_obs::gauge!("serve.queue_depth").set(shared.queue_len.load(Ordering::Acquire) as f64);
        soup_obs::histogram!("serve.batch_size").record(batched_nodes as u64);
        soup_obs::counter!("serve.batches").inc();

        // Read the live model only now that the batch is closed — see the
        // module docs for why this ordering carries the swap guarantee.
        let model = shared.model.read().clone();
        for job in jobs {
            let classes = job.nodes.iter().map(|&n| model.table[n as usize]).collect();
            soup_obs::histogram!("serve.latency_us")
                .record(job.enqueued.elapsed().as_micros() as u64);
            // A handler that gave up (connection died) just drops the
            // receiver; ignore the send failure.
            let _ = job.reply.send(PredictReply {
                version: model.version,
                classes,
            });
        }
    }
}
