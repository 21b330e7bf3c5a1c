//! # soup-core
//!
//! The souping algorithms of *Enhanced Soups for Graph Neural Networks*:
//!
//! | Algorithm | Paper ref | Module |
//! |---|---|---|
//! | Uniform Souping (US) | §II-B | [`uniform`] |
//! | Greedy Souping | Alg. 1 | [`greedy`] |
//! | Greedy Interpolated Souping (GIS) | Alg. 2 (Graph Ladling) | [`gis`] |
//! | **Learned Souping (LS)** | Alg. 3, Eq. 3–4 | [`learned`] |
//! | **Partition Learned Souping (PLS)** | Alg. 4, Eq. 5–6 | [`pls`] |
//!
//! All strategies implement [`SoupStrategy`]; every run returns a
//! [`SoupOutcome`] carrying the mixed parameters plus *measured* wall time
//! and peak device memory of the souping phase — the quantities behind the
//! paper's Table III and Fig. 4.
//!
//! The analytic cost model of §III-E lives in [`complexity`].

pub mod complexity;
pub mod diversity;
pub mod ensemble;
pub mod gis;
pub mod greedy;
pub mod ingredient;
pub mod learned;
pub mod pls;
pub mod pool;
pub mod resume;
pub mod strategy;
mod subcache;
pub mod uniform;

/// The workspace-wide typed error enum, re-exported so downstream users can
/// write `soup_core::SoupError` / `soup_core::Result<T>`.
pub use soup_error::SoupError;

/// Workspace-wide result alias over [`SoupError`].
pub type Result<T> = std::result::Result<T, SoupError>;

pub use diversity::{diversity_report, DiversityReport};
pub use ensemble::{compare_soup_vs_ensemble, ensemble_accuracy, SoupVsEnsemble};
pub use gis::GisSouping;
pub use greedy::GreedySouping;
pub use ingredient::Ingredient;
pub use learned::{LearnedHyper, LearnedSouping};
pub use pls::{PartitionLearnedSouping, PartitionerKind};
pub use pool::{load_manifest, write_manifest, Manifest, ManifestEntry};
pub use resume::{load_state, Phase2Persist, Phase2State, PHASE2_STATE_VERSION};
pub use strategy::{
    measure_soup, measure_soup_try, missing_ordinals, MixReport, SoupCtx, SoupOutcome, SoupStats,
    SoupStrategy, StrategySpec,
};
pub use uniform::UniformSouping;
