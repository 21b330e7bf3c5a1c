//! # soup-distrib
//!
//! Phase 1 of the paper's workflow (Fig. 1): *distributed zero-communication
//! ingredient training*. A shared model initialisation is created once and
//! handed to `W` workers; each worker repeatedly claims the next untrained
//! ingredient from a shared dynamic task queue (§III-A) and trains it
//! independently — no gradient synchronisation, no message passing, which
//! is what makes the process embarrassingly parallel.
//!
//! The paper's workers are 8 A100 GPUs; here they are OS threads. Each
//! worker's kernels run on an equal share of its caller's kernel-thread
//! budget (`soup_tensor::parallel`): `max(1, budget / W)` threads, so W
//! workers on W cores keep one kernel thread each, and a shard worker
//! process runs under `max(1, cores / K)`. Determinism is preserved
//! because each ingredient's training randomness is keyed by its ordinal,
//! not by the worker that happens to claim it, and kernel results do not
//! depend on the thread count.
//!
//! [`schedule`] provides the analytic makespan model of Eq. (1)/(2) plus a
//! greedy list-scheduling simulator for the load-imbalance discussion.

pub mod queue;
pub mod schedule;
pub mod shard;
pub mod shard_worker;
pub mod supervisor;
pub mod trainer;

pub use queue::{Claim, FailAction, TaskQueue};
pub use schedule::{predicted_min_time, predicted_total_time, simulate_schedule, ScheduleResult};
pub use shard::{
    analyze_sharding, prepare_sharded_dataset, run_sharded, FaultArm, PrepareReport, ShardPlan,
    ShardQuality, ShardResult, ShardRunReport, WorkerLaunch,
};
pub use shard_worker::{run_shard_worker, shard_seed};
pub use trainer::{
    train_ingredients, train_ingredients_detailed, train_ingredients_opts, FailedTask, TrainOpts,
    TrainRun, WorkerReport,
};
