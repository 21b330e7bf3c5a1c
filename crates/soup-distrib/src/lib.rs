//! # soup-distrib
//!
//! Phase 1 of the paper's workflow (Fig. 1): *distributed zero-communication
//! ingredient training*. A shared model initialisation is created once and
//! handed to `W` workers; each worker repeatedly claims the next untrained
//! ingredient from a shared dynamic task queue (§III-A) and trains it
//! independently — no gradient synchronisation, no message passing, which
//! is what makes the process embarrassingly parallel.
//!
//! The paper's workers are 8 A100 GPUs; here they are OS threads whose
//! kernels are written against rayon's API and run on one thread under the
//! sequential `vendor/rayon` shim. Determinism is preserved because
//! each ingredient's training randomness is keyed by its ordinal, not by
//! the worker that happens to claim it.
//!
//! [`schedule`] provides the analytic makespan model of Eq. (1)/(2) plus a
//! greedy list-scheduling simulator for the load-imbalance discussion, and
//! [`gather`] models the reduce-style collection of trained ingredients
//! onto the souping device.

pub mod chaos;
pub mod control;
pub mod gather;
pub mod queue;
pub mod schedule;
pub mod shard;
pub mod shard_worker;
pub mod supervisor;
pub mod trainer;

pub use chaos::{parse_kill_list, parse_shard_list, ChaosPhase, ChaosPlan, FrameFault};
pub use gather::{gather_ingredients, GatherReport};
pub use queue::{Claim, FailAction, TaskQueue};
pub use schedule::{predicted_min_time, predicted_total_time, simulate_schedule, ScheduleResult};
pub use shard::{
    analyze_sharding, prepare_sharded_dataset, run_sharded, PrepareReport, ShardPlan, ShardQuality,
    ShardResult, ShardRunReport, WorkerLaunch,
};
pub use shard_worker::{run_shard_worker, shard_seed};
pub use trainer::{
    train_ingredients, train_ingredients_detailed, train_ingredients_opts, FailedTask, FaultKind,
    FaultPlan, TrainOpts, TrainRun, WorkerReport,
};
