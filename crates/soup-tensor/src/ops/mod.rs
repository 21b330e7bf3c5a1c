//! Differentiable operations, implemented as methods on [`crate::Tape`].
//!
//! Each module contributes an `impl Tape` block: the forward kernel runs
//! eagerly (its static chunks on the fork-join pool, [`crate::parallel`])
//! and a backward closure is recorded when some ancestor requires
//! gradients.
//!
//! Modules:
//! - [`elementwise`] — add/sub/mul/scale/bias broadcast
//! - [`matmul`] — dense GEMM
//! - [`normalize`] — row L2 normalization (GIN/GraphSAGE stabiliser)
//! - [`activation`] — ReLU family, sigmoid, tanh
//! - [`softmax`] — row log-softmax and vector softmax (for soup alphas)
//! - [`loss`] — masked negative log-likelihood / cross-entropy
//! - [`dropout`] — inverted dropout
//! - [`mod@concat`] — column concatenation (GraphSAGE self‖neighbor)
//! - [`reduce`] — sum / mean to scalar
//! - [`sparse`] — CSR sparse×dense product (GCN/SAGE aggregation)
//! - [`attention`] — GAT edge-softmax aggregation
//! - [`soup`] — ingredient-weighted parameter sum (Eq. 3 / Eq. 4)

pub mod activation;
pub mod attention;
pub mod concat;
pub mod dropout;
pub mod elementwise;
pub mod loss;
pub mod matmul;
pub mod normalize;
pub mod reduce;
pub mod softmax;
pub mod soup;
pub mod sparse;

pub use attention::EdgeIndex;
pub use sparse::SparseMat;
