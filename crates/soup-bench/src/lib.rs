//! # soup-bench
//!
//! The experiment harness that regenerates every table and figure of
//! *Enhanced Soups for Graph Neural Networks*. The `experiments` binary
//! runs the named sections of [`experiments::SECTIONS`] (Table I, the
//! 3×4 grid behind Table II–III and Fig. 3–4, and the §VI ablations) and
//! writes each table to `results/`; `bench_shard` and `regress` measure
//! and gate the sharded path, and `benches/` carries Criterion
//! microbenchmarks of the underlying kernels.
//!
//! Every section takes a preset (`quick` | `standard` | `full`)
//! controlling dataset scale, ingredient counts and soup repetitions;
//! `quick` finishes in seconds per cell, `full` approaches the paper's
//! settings (50 ingredients, 4 soups).

pub mod experiments;
pub mod harness;
pub mod regress;
pub mod scale;
