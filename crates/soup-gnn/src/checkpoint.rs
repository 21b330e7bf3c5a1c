//! Per-ingredient checkpoint persistence and validation.
//!
//! Phase-1 fault tolerance rests on checkpoints being *independently
//! verifiable*: a resumed run must be able to tell a usable checkpoint from
//! a truncated, corrupted, version-skewed or foreign one without trusting
//! anything but the file itself. A [`Checkpoint`] therefore carries, next
//! to the parameters, everything needed to re-validate it:
//!
//! - `version` — the checkpoint format version ([`FORMAT_VERSION`]);
//!   mismatches are a hard [`SoupError::Checkpoint`], never a best-effort
//!   parse;
//! - `id` / `train_seed` — the ingredient ordinal and the seed that drove
//!   its training, so a resume can detect checkpoints written by a run
//!   with a different root seed (they would silently break the
//!   bit-identical-to-fault-free guarantee);
//! - `val_accuracy` — the greedy sort key, so souping never needs to
//!   re-evaluate resumed ingredients.
//!
//! [`validate_checkpoint`] performs the three checks the fault-injection
//! harness exercises: format version, architecture shape (against a
//! reference [`ParamSet`], usually the shared Phase-1 initialisation), and
//! a NaN/Inf scan over every tensor.
//!
//! ## On-disk format
//!
//! Checkpoints are written as `ingredient_{id}.ck`: the JSON document
//! wrapped in a crash-safe, CRC32-checksummed `soup-ckpt/2` envelope
//! ([`soup_store::envelope`]) and replaced atomically with
//! [`soup_store::write_durable`]. The same format carries a souped model
//! (`soupctl soup --out`), so one reader serves `eval`, `serve` and a
//! live SWAP.

use crate::params::ParamSet;
use serde::{Deserialize, Serialize};
use soup_error::{Result, SoupError};
use soup_store::{open_envelope, write_durable};
use std::path::{Path, PathBuf};

/// Version tag written into (and required from) every checkpoint payload.
pub const FORMAT_VERSION: u32 = 1;

/// One trained ingredient, as persisted on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    pub version: u32,
    /// Ingredient ordinal in the Phase-1 run.
    pub id: usize,
    /// Seed that drove this ingredient's training randomness.
    pub train_seed: u64,
    /// Validation accuracy measured after training.
    pub val_accuracy: f64,
    pub params: ParamSet,
}

impl Checkpoint {
    pub fn new(id: usize, train_seed: u64, val_accuracy: f64, params: ParamSet) -> Self {
        Self {
            version: FORMAT_VERSION,
            id,
            train_seed,
            val_accuracy,
            params,
        }
    }
}

/// Canonical checkpoint filename (envelope format) for ingredient `id`.
pub fn checkpoint_path(dir: impl AsRef<Path>, id: usize) -> PathBuf {
    dir.as_ref().join(checkpoint_name(id))
}

/// Bare file name of the envelope checkpoint for ingredient `id` — the
/// artifact id used by storage-fault plans and manifests.
pub fn checkpoint_name(id: usize) -> String {
    format!("ingredient_{id}.ck")
}

/// Serialize a checkpoint to its JSON payload (the envelope content).
pub fn encode_checkpoint(ck: &Checkpoint) -> Result<Vec<u8>> {
    serde_json::to_string(ck)
        .map(String::into_bytes)
        .map_err(|e| SoupError::parse(format!("serializing checkpoint {}: {e}", ck.id)))
}

/// Parse and version-check a checkpoint JSON payload. `context` names the
/// source (file name) in error messages.
pub fn decode_checkpoint(payload: &[u8], context: &str) -> Result<Checkpoint> {
    let json = std::str::from_utf8(payload)
        .map_err(|_| SoupError::corrupt(format!("checkpoint {context}: payload is not UTF-8")))?;
    let ck: Checkpoint = serde_json::from_str(json)
        .map_err(|e| SoupError::corrupt(format!("checkpoint {context} is not valid JSON: {e}")))?;
    if ck.version != FORMAT_VERSION {
        return Err(SoupError::checkpoint(format!(
            "checkpoint {context} has format version {} (expected {FORMAT_VERSION})",
            ck.version
        )));
    }
    Ok(ck)
}

/// Durably persist a checkpoint as a `soup-ckpt/2` envelope (atomic
/// replace + fsync; see [`soup_store::write_durable`]).
pub fn save_checkpoint(ck: &Checkpoint, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let payload = encode_checkpoint(ck)?;
    write_durable(path, &soup_store::seal_envelope(&payload))
}

/// Load a checkpoint: the envelope's length and CRC are verified before
/// the payload is parsed. Run [`validate_checkpoint`] afterwards for the
/// shape/finiteness checks that need run context.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SoupError::io_at(path, e))?;
    let context = path.display().to_string();
    decode_checkpoint(open_envelope(&bytes, &context)?, &context)
}

/// Validate a checkpoint against its run: format version, ordinal, expected
/// training seed, architecture shape (against `reference`, usually the
/// shared initialisation) and a NaN/Inf scan.
pub fn validate_checkpoint(
    ck: &Checkpoint,
    expected_id: usize,
    expected_seed: Option<u64>,
    reference: &ParamSet,
) -> Result<()> {
    if ck.version != FORMAT_VERSION {
        return Err(SoupError::checkpoint(format!(
            "format version {} != {FORMAT_VERSION}",
            ck.version
        )));
    }
    if ck.id != expected_id {
        return Err(SoupError::checkpoint(format!(
            "checkpoint is for ingredient {} but was found in slot {expected_id}",
            ck.id
        )));
    }
    if let Some(seed) = expected_seed {
        if ck.train_seed != seed {
            return Err(SoupError::checkpoint(format!(
                "ingredient {expected_id}: train seed {} != expected {seed} \
                 (checkpoint from a different run?)",
                ck.train_seed
            )));
        }
    }
    if !ck.params.same_shape(reference) {
        return Err(SoupError::shape(format!(
            "ingredient {expected_id}: checkpoint architecture does not match the run's model"
        )));
    }
    for (slot, t) in ck.params.flat().enumerate() {
        if !t.data().iter().all(|v| v.is_finite()) {
            return Err(SoupError::corrupt(format!(
                "ingredient {expected_id}: non-finite parameter in tensor slot {slot}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::init_params;
    use soup_tensor::SplitMix64;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("soup_gnn_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn params(seed: u64) -> ParamSet {
        let cfg = ModelConfig::gcn(6, 3).with_hidden(4);
        init_params(&cfg, &mut SplitMix64::new(seed))
    }

    #[test]
    fn roundtrip_and_validate() {
        let p = params(1);
        let ck = Checkpoint::new(2, 99, 0.61, p.clone());
        let path = checkpoint_path(tmpdir(), 2);
        save_checkpoint(&ck, &path).unwrap();
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.id, 2);
        assert_eq!(back.train_seed, 99);
        assert_eq!(back.val_accuracy, 0.61);
        validate_checkpoint(&back, 2, Some(99), &p).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_rejected() {
        let path = tmpdir().join("ck_wrong_version.ck");
        let ck = Checkpoint {
            version: FORMAT_VERSION + 1,
            ..Checkpoint::new(0, 1, 0.5, params(2))
        };
        save_checkpoint(&ck, &path).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        assert!(err.to_string().contains("format version"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_envelope_is_corrupt() {
        let dir = tmpdir();
        let path = dir.join("ck_torn.ck");
        let ck = Checkpoint::new(1, 2, 0.5, params(9));
        save_checkpoint(&ck, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap_err().kind(), "corrupt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flipped_envelope_is_corrupt() {
        let dir = tmpdir();
        let path = dir.join("ck_flip.ck");
        let ck = Checkpoint::new(1, 2, 0.5, params(10));
        save_checkpoint(&ck, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap_err().kind(), "corrupt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_is_corrupt() {
        let path = tmpdir().join("ck_garbage.ck");
        std::fs::write(&path, "{definitely not an envelope").unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        // A sound envelope around a payload that is not a checkpoint.
        std::fs::write(&path, soup_store::seal_envelope(b"{definitely not json")).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        let err = load_checkpoint("/nonexistent/ck.ck").unwrap_err();
        assert_eq!(err.kind(), "io");
    }

    #[test]
    fn nan_scan_catches_poisoned_params() {
        let mut p = params(3);
        p.layers[0].tensors[0].make_mut()[0] = f32::NAN;
        let ck = Checkpoint::new(0, 1, 0.5, p);
        let err = validate_checkpoint(&ck, 0, Some(1), &params(3)).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    #[test]
    fn shape_mismatch_detected() {
        let ck = Checkpoint::new(0, 1, 0.5, params(4));
        let cfg = ModelConfig::gcn(6, 3).with_hidden(8); // different hidden size
        let other = init_params(&cfg, &mut SplitMix64::new(4));
        let err = validate_checkpoint(&ck, 0, Some(1), &other).unwrap_err();
        assert_eq!(err.kind(), "shape");
    }

    #[test]
    fn seed_and_slot_mismatches_detected() {
        let p = params(5);
        let ck = Checkpoint::new(3, 42, 0.5, p.clone());
        assert_eq!(
            validate_checkpoint(&ck, 3, Some(43), &p)
                .unwrap_err()
                .kind(),
            "checkpoint"
        );
        assert_eq!(
            validate_checkpoint(&ck, 4, Some(42), &p)
                .unwrap_err()
                .kind(),
            "checkpoint"
        );
    }
}
