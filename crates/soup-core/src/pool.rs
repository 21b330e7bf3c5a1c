//! Checkpoint-directory pool loading, shared by `soupctl` and the serving
//! layer.
//!
//! Phase 1 persists every ingredient as a checksummed `soup-ckpt/2`
//! envelope plus a `manifest.json` recording the model configuration and
//! per-ingredient metadata. Loading the pool back is deliberately lenient
//! about checkpoints: unreadable or corrupt ones, and ones whose
//! parameters do not fit the manifest's configuration, are skipped with a
//! warning — souping degrades to the surviving pool — and only an
//! entirely unusable directory is an error. The manifest itself is
//! strict: one that does not parse, or that names a file outside its
//! directory, is an error.

use crate::ingredient::Ingredient;
use serde::{Deserialize, Serialize};
use soup_error::SoupError;
use soup_gnn::{check_params, load_checkpoint, ModelConfig};
use soup_store::write_durable;
use std::ffi::OsStr;
use std::path::Path;

/// Checkpoint-directory manifest written by `soupctl train`.
#[derive(Serialize, Deserialize)]
pub struct Manifest {
    /// Architecture every ingredient in the directory was trained with.
    pub config: ModelConfig,
    /// Per-ingredient metadata, one entry per checkpoint file.
    pub ingredients: Vec<ManifestEntry>,
}

/// One trained ingredient's manifest record.
#[derive(Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Ingredient ordinal.
    pub id: usize,
    /// Validation accuracy at the end of training.
    pub val_accuracy: f64,
    /// Seed the ingredient was trained with.
    pub train_seed: u64,
    /// Checkpoint file name, relative to the manifest's directory.
    pub file: String,
}

/// Durably write the manifest (atomic replace).
pub fn write_manifest(path: &Path, manifest: &Manifest) -> crate::Result<()> {
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| SoupError::parse(format!("serializing manifest: {e}")))?;
    write_durable(path, json.as_bytes())
}

/// Load the manifest and every usable ingredient checkpoint: one that
/// loads, holds the ingredient its entry names, is finite and fits the
/// manifest's configuration ([`check_params`]). Others are skipped with a
/// warning and only an entirely unusable directory is an error; so is a
/// manifest whose entry names anything but a file in `dir`.
pub fn load_manifest(dir: &Path) -> crate::Result<(ModelConfig, Vec<Ingredient>)> {
    let path = dir.join("manifest.json");
    let bytes = std::fs::read(&path).map_err(|e| SoupError::io_at(&path, e))?;
    let bad =
        |e: &dyn std::fmt::Display| SoupError::parse(format!("manifest {}: {e}", path.display()));
    let json = std::str::from_utf8(&bytes).map_err(|e| bad(&e))?;
    let manifest: Manifest = serde_json::from_str(json).map_err(|e| bad(&e))?;
    for entry in &manifest.ingredients {
        if Path::new(&entry.file).file_name() != Some(OsStr::new(&entry.file)) {
            return Err(SoupError::corrupt(format!(
                "manifest {}: ingredient {} names {:?}, not a file in its directory",
                path.display(),
                entry.id,
                entry.file
            )));
        }
    }
    let mut ingredients: Vec<Ingredient> = Vec::new();
    let mut skipped = Vec::new();
    for entry in &manifest.ingredients {
        let usable = load_checkpoint(dir.join(&entry.file)).and_then(|ck| {
            if ck.id != entry.id {
                return Err(SoupError::checkpoint(format!(
                    "{} holds ingredient {} but manifest says {}",
                    entry.file, ck.id, entry.id
                )));
            }
            if !ck
                .params
                .flat()
                .all(|t| t.data().iter().all(|v| v.is_finite()))
            {
                return Err(SoupError::corrupt("non-finite parameters"));
            }
            check_params(&manifest.config, &ck.params)?;
            Ok(ck)
        });
        match usable {
            Ok(ck) => ingredients.push(Ingredient::new(
                ck.id,
                ck.params,
                ck.val_accuracy,
                ck.train_seed,
            )),
            Err(err) => {
                soup_obs::warn!("skipping ingredient {}: {err}", entry.id);
                skipped.push(entry.id);
            }
        }
    }
    if ingredients.is_empty() {
        return Err(SoupError::checkpoint(format!(
            "no usable ingredient checkpoints in {}",
            dir.display()
        )));
    }
    if !skipped.is_empty() {
        soup_obs::warn!(
            "degraded pool — {} of {} ingredients usable (missing {skipped:?})",
            ingredients.len(),
            manifest.ingredients.len()
        );
    }
    Ok((manifest.config, ingredients))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_gnn::model::init_params;
    use soup_gnn::{checkpoint_name, save_checkpoint, Checkpoint};
    use soup_tensor::SplitMix64;

    fn write_pool(dir: &Path, n: usize) -> ModelConfig {
        let cfg = ModelConfig::gcn(4, 3).with_hidden(8);
        let mut manifest = Manifest {
            config: cfg.clone(),
            ingredients: Vec::new(),
        };
        for id in 0..n {
            let mut rng = SplitMix64::new(id as u64 + 1);
            let params = init_params(&cfg, &mut rng);
            let file = checkpoint_name(id);
            let ck = Checkpoint::new(id, id as u64, 0.5, params);
            save_checkpoint(&ck, dir.join(&file)).unwrap();
            manifest.ingredients.push(ManifestEntry {
                id,
                val_accuracy: 0.5,
                train_seed: id as u64,
                file,
            });
        }
        write_manifest(&dir.join("manifest.json"), &manifest).unwrap();
        cfg
    }

    #[test]
    fn round_trips_a_full_pool() {
        let dir = std::env::temp_dir().join(format!("soup-pool-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = write_pool(&dir, 3);
        let (loaded_cfg, ingredients) = load_manifest(&dir).unwrap();
        assert_eq!(loaded_cfg.arch, cfg.arch);
        assert_eq!(ingredients.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_degrades_instead_of_failing() {
        let dir = std::env::temp_dir().join(format!("soup-pool-deg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_pool(&dir, 3);
        std::fs::write(dir.join(checkpoint_name(1)), b"garbage").unwrap();
        let (_, ingredients) = load_manifest(&dir).unwrap();
        assert_eq!(ingredients.len(), 2);
        assert!(ingredients.iter().all(|i| i.id != 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_must_fit_the_manifest_and_stay_in_its_directory() {
        let dir = std::env::temp_dir().join(format!("soup-pool-fit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_pool(&dir, 2);
        let path = dir.join("manifest.json");
        let mut manifest: Manifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        manifest.config.hidden = 9;
        write_manifest(&path, &manifest).unwrap();
        let err = load_manifest(&dir).unwrap_err();
        assert_eq!(err.kind(), "checkpoint", "{err}");
        manifest.config.hidden = 8;
        manifest.ingredients[1].file = "../ingredient_1.ck".into();
        write_manifest(&path, &manifest).unwrap();
        let err = load_manifest(&dir).unwrap_err();
        assert_eq!(err.kind(), "corrupt", "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("soup-pool-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
