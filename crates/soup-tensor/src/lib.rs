//! # soup-tensor
//!
//! A small, self-contained dense-tensor and reverse-mode autograd library
//! built for the Rust reproduction of *Enhanced Soups for Graph Neural
//! Networks* (IPPS 2025).
//!
//! The paper's stack is PyTorch + DGL on CUDA; this crate replaces the parts
//! of that stack the souping algorithms actually exercise:
//!
//! - **Dense 2-D `f32` tensors** ([`Tensor`]) backed by reference-counted,
//!   allocation-tracked buffers. Every live buffer is accounted against a
//!   global "device memory" meter ([`memory`]), which is how the
//!   reproduction measures the peak-memory numbers behind Fig. 4b. Buffers
//!   recycle through a workspace pool ([`pool`]) so steady-state training
//!   epochs allocate nothing fresh on the hot path.
//! - **Cache-blocked GEMM** ([`gemm`]): one register-blocked, panel-packed
//!   kernel behind `matmul`/`matmul_nt`/`matmul_tn`. Its operands are
//!   tensor buffers read as stored or as their transpose, and the packing
//!   gathers absorb the transpose; the crate exports no view type.
//! - **Define-by-run autograd** ([`tape::Tape`]): each training step records
//!   operations on a fresh tape and calls [`tape::Tape::backward`]. Tape
//!   construction is single-threaded, mirroring one CUDA stream per
//!   worker; the kernels inside each op split their output into static
//!   chunks on a small fork-join pool ([`parallel`]), so every result is
//!   bitwise independent of the thread count. [`parallel::with_threads`]
//!   caps the kernel threads of a scope (default: every core).
//! - **Graph kernels** used by GCN / GraphSAGE / GAT: CSR sparse-dense
//!   matmul ([`ops::sparse`]), GAT edge-softmax aggregation
//!   ([`ops::attention`]).
//! - **Souping kernels** ([`ops::soup`]): the softmax-weighted parameter sum
//!   of Eq. (3) with the analytic gradient of Eq. (4) that Learned Souping
//!   optimises.
//! - **Optimizers** ([`optim`]): SGD with momentum (used for the soup's
//!   interpolation parameters, §III-B), Adam/AdamW (ingredient training) and
//!   a cosine-annealing schedule.
//!
//! Determinism: all randomness flows through [`rng::SplitMix64`], seeded
//! explicitly; no global RNG state exists anywhere in the workspace.

pub mod gemm;
pub mod init;
pub mod memory;
pub mod ops;
pub mod optim;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod storage;
pub mod tape;
pub mod tensor;

pub use memory::{MemoryScope, DEVICE_MEMORY};
pub use rng::SplitMix64;
pub use shape::Shape;
pub use tape::{Grads, Tape, Var};
pub use tensor::Tensor;

/// Crate-wide numeric tolerance used by tests and debug assertions.
pub const EPS: f32 = 1e-6;
