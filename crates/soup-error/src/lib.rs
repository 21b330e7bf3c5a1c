//! # soup-error
//!
//! The workspace-wide typed error enum. Every crate in the Enhanced Soups
//! stack that can fail at a public API boundary returns [`SoupError`]
//! (usually through the [`Result`] alias) instead of `String` or a bare
//! `std::io::Error`, so callers — `soupctl`, the fault-tolerant Phase-1
//! trainer, the bench harness — can match on *what* failed and decide
//! whether to retry, skip, degrade, or abort.
//!
//! The variants mirror the failure domains of the pipeline:
//!
//! | variant | raised by |
//! |---|---|
//! | [`SoupError::Io`] | filesystem access (datasets, checkpoints, traces) |
//! | [`SoupError::Parse`] | JSON/flag/schema decoding |
//! | [`SoupError::Shape`] | tensor/architecture mismatches |
//! | [`SoupError::Checkpoint`] | checkpoint format/version problems |
//! | [`SoupError::Corrupt`] | NaN/Inf or garbage payloads that parsed but are unusable |
//! | [`SoupError::WorkerPanic`] | a Phase-1 worker died inside `train_single` |
//! | [`SoupError::Exhausted`] | a task failed more times than its retry budget |
//! | [`SoupError::Numeric`] | numeric validation (gradcheck disagreement, divergence) |
//! | [`SoupError::Usage`] | CLI / builder misuse (missing or unparsable options) |
//! | [`SoupError::ShardDegraded`] | every shard exhausted its restart budget (a partially degraded run finishes `Ok`) |

use std::fmt;
use std::path::{Path, PathBuf};

/// Workspace-wide result alias. Re-exported as `soup_core::Result`.
pub type Result<T> = std::result::Result<T, SoupError>;

/// The unified error type of the Enhanced Soups workspace.
#[derive(Debug)]
pub enum SoupError {
    /// Filesystem-level failure, with the path that was being accessed
    /// when it happened (when known).
    Io {
        path: Option<PathBuf>,
        source: std::io::Error,
    },
    /// Decoding failure: invalid JSON, an unknown enum name, a malformed
    /// trace line, an unparsable CLI value.
    Parse(String),
    /// Structural mismatch: tensor shapes, layer counts, architecture
    /// disagreements between ingredients.
    Shape(String),
    /// A checkpoint exists but cannot be used: wrong format version,
    /// missing fields, metadata that contradicts the run.
    Checkpoint(String),
    /// A payload parsed but its contents are unusable — non-finite
    /// parameters, truncated tensors, corrupted bytes.
    Corrupt(String),
    /// A Phase-1 worker panicked while training an ingredient. Carries the
    /// ingredient ordinal and the captured panic message.
    WorkerPanic { ordinal: usize, message: String },
    /// A task failed more times than its retry budget allows. Carries the
    /// last underlying error.
    Exhausted {
        ordinal: usize,
        attempts: u32,
        last: Box<SoupError>,
    },
    /// Numeric validation failure: gradient-check disagreement, diverged
    /// optimisation, out-of-tolerance comparisons.
    Numeric(String),
    /// API or CLI misuse: missing required flag, invalid option combination.
    Usage(String),
    /// One or more shards exhausted their restart budget. Carries the shard
    /// ordinals that are missing from the run. Not retryable: the supervisor
    /// only raises it once every respawn avenue is spent (a partially
    /// degraded run finishes `Ok` with provenance instead).
    ShardDegraded { shards: Vec<usize>, message: String },
}

impl SoupError {
    /// An [`SoupError::Io`] tagged with the path being accessed.
    pub fn io_at(path: impl AsRef<Path>, source: std::io::Error) -> Self {
        Self::Io {
            path: Some(path.as_ref().to_path_buf()),
            source,
        }
    }

    pub fn parse(msg: impl Into<String>) -> Self {
        Self::Parse(msg.into())
    }

    pub fn shape(msg: impl Into<String>) -> Self {
        Self::Shape(msg.into())
    }

    pub fn checkpoint(msg: impl Into<String>) -> Self {
        Self::Checkpoint(msg.into())
    }

    pub fn corrupt(msg: impl Into<String>) -> Self {
        Self::Corrupt(msg.into())
    }

    pub fn numeric(msg: impl Into<String>) -> Self {
        Self::Numeric(msg.into())
    }

    pub fn usage(msg: impl Into<String>) -> Self {
        Self::Usage(msg.into())
    }

    /// A [`SoupError::ShardDegraded`] naming the missing shards.
    pub fn shard_degraded(shards: Vec<usize>, message: impl Into<String>) -> Self {
        Self::ShardDegraded {
            shards,
            message: message.into(),
        }
    }

    /// Whether retrying the failed operation could plausibly succeed —
    /// the predicate the Phase-1 requeue logic uses. Structural errors
    /// (shape, usage) are deterministic and not worth a retry slot.
    pub fn is_retryable(&self) -> bool {
        match self {
            SoupError::Io { .. }
            | SoupError::WorkerPanic { .. }
            | SoupError::Corrupt(_)
            | SoupError::Checkpoint(_) => true,
            SoupError::Parse(_)
            | SoupError::Shape(_)
            | SoupError::Numeric(_)
            | SoupError::Usage(_)
            | SoupError::Exhausted { .. }
            | SoupError::ShardDegraded { .. } => false,
        }
    }

    /// Short stable kind tag ("io", "parse", ...) for metrics/trace labels.
    pub fn kind(&self) -> &'static str {
        match self {
            SoupError::Io { .. } => "io",
            SoupError::Parse(_) => "parse",
            SoupError::Shape(_) => "shape",
            SoupError::Checkpoint(_) => "checkpoint",
            SoupError::Corrupt(_) => "corrupt",
            SoupError::WorkerPanic { .. } => "worker_panic",
            SoupError::Exhausted { .. } => "exhausted",
            SoupError::Numeric(_) => "numeric",
            SoupError::Usage(_) => "usage",
            SoupError::ShardDegraded { .. } => "shard_degraded",
        }
    }
}

impl fmt::Display for SoupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoupError::Io { path: Some(p), source } => {
                write!(f, "io error at {}: {source}", p.display())
            }
            SoupError::Io { path: None, source } => write!(f, "io error: {source}"),
            SoupError::Parse(m) => write!(f, "parse error: {m}"),
            SoupError::Shape(m) => write!(f, "shape mismatch: {m}"),
            SoupError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            SoupError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            SoupError::WorkerPanic { ordinal, message } => {
                write!(f, "worker panicked on ingredient {ordinal}: {message}")
            }
            SoupError::Exhausted {
                ordinal,
                attempts,
                last,
            } => write!(
                f,
                "ingredient {ordinal} failed {attempts} attempts (retry budget exhausted); last error: {last}"
            ),
            SoupError::Numeric(m) => write!(f, "numeric error: {m}"),
            SoupError::Usage(m) => write!(f, "{m}"),
            SoupError::ShardDegraded { shards, message } => {
                write!(f, "shards {shards:?} degraded: {message}")
            }
        }
    }
}

impl std::error::Error for SoupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoupError::Io { source, .. } => Some(source),
            SoupError::Exhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SoupError {
    fn from(source: std::io::Error) -> Self {
        Self::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SoupError::io_at(
            "/tmp/x.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(s.contains("/tmp/x.json") && s.contains("gone"), "{s}");

        let e = SoupError::WorkerPanic {
            ordinal: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("ingredient 3"));
    }

    #[test]
    fn exhausted_chains_source() {
        let last = SoupError::WorkerPanic {
            ordinal: 1,
            message: "x".into(),
        };
        let e = SoupError::Exhausted {
            ordinal: 1,
            attempts: 3,
            last: Box::new(last),
        };
        let src = std::error::Error::source(&e).expect("has source");
        assert!(src.to_string().contains("panicked"));
    }

    #[test]
    fn retryability_classification() {
        assert!(SoupError::corrupt("nan").is_retryable());
        assert!(SoupError::WorkerPanic {
            ordinal: 0,
            message: String::new()
        }
        .is_retryable());
        assert!(!SoupError::usage("missing --out").is_retryable());
        assert!(!SoupError::shape("2x2 vs 3x3").is_retryable());
    }

    #[test]
    fn from_io_error() {
        let e: SoupError = std::io::Error::other("disk").into();
        assert_eq!(e.kind(), "io");
    }

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(SoupError::parse("x").kind(), "parse");
        assert_eq!(SoupError::checkpoint("x").kind(), "checkpoint");
        assert_eq!(SoupError::numeric("x").kind(), "numeric");
        assert_eq!(
            SoupError::shard_degraded(vec![0], "x").kind(),
            "shard_degraded"
        );
    }

    #[test]
    fn supervision_kinds_classify_and_display() {
        // A degraded run is final.
        let degraded = SoupError::shard_degraded(vec![0, 3], "restart budget exhausted");
        assert!(!degraded.is_retryable());
        let s = degraded.to_string();
        assert!(s.contains("[0, 3]") && s.contains("budget"), "{s}");
    }
}
