//! The artifact [`Store`]: a directory of `soup-ckpt/2` envelopes written
//! durably and verified by read-back.
//!
//! Every write follows *seal → write durable → read back and verify →
//! heal*. Because the clean payload is still in memory when a torn or
//! flipped write is detected, recovery is a clean durable rewrite. The
//! `store.tear` and `store.flip` fault points damage the first write so
//! tests can show that the heal converges to the undamaged bytes.

use std::path::{Path, PathBuf};

use soup_error::SoupError;

use crate::atomic::{remove_orphaned_temps, write_durable};
use crate::{envelope, fault};

type Result<T> = std::result::Result<T, SoupError>;

/// A crash-safe envelope store rooted at one artifact directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) the artifact directory at `root`, and
    /// remove the temp files that writers which died mid-write left there.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| SoupError::io_at(&root, e))?;
        remove_orphaned_temps(&root);
        Ok(Self { root })
    }

    /// The artifact directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of the artifact named `name`.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Durably write `payload` as a sealed envelope under `name`.
    ///
    /// A write that reads back damaged (torn or flipped on its way to
    /// disk) is detected by the read-back verification and healed with a
    /// clean durable rewrite.
    pub fn write_envelope(&self, name: &str, payload: &[u8]) -> Result<()> {
        let sealed = envelope::seal(payload);
        let path = self.path(name);
        soup_obs::counter!("store.writes").inc();

        let (tear, flip) = (fault::damage("store.tear"), fault::damage("store.flip"));
        let damaged = (tear || flip).then(|| {
            let mut bytes = sealed.clone();
            let mid = bytes.len() / 2;
            if flip {
                bytes[mid] ^= 0x10;
            }
            if tear {
                bytes.truncate(mid);
            }
            bytes
        });
        write_durable(&path, damaged.as_deref().unwrap_or(&sealed))?;

        // Read-back verification: the write only counts once the bytes on
        // disk open cleanly. A detected tear/flip is healed immediately —
        // the clean payload is still in hand.
        match std::fs::read(&path) {
            Ok(bytes) if envelope::open(&bytes, name).is_ok() && bytes == sealed => Ok(()),
            Ok(_) => {
                soup_obs::counter!("store.corrupt_detected").inc();
                soup_obs::warn!("store: {name} failed read-back verification; rewriting");
                write_durable(&path, &sealed)?;
                let healed = std::fs::read(&path).map_err(|e| SoupError::io_at(&path, e))?;
                envelope::open(&healed, name)?;
                soup_obs::counter!("store.rewrites").inc();
                Ok(())
            }
            Err(e) => Err(SoupError::io_at(&path, e)),
        }
    }

    /// Read and validate the envelope named `name`, returning its payload.
    pub fn read_envelope(&self, name: &str) -> Result<Vec<u8>> {
        read_payload(self.path(name))
    }

    /// True when the artifact exists on disk (no validation).
    pub fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }
}

/// Read a `soup-ckpt/2` file and return its validated payload.
pub fn read_payload(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SoupError::io_at(path, e))?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
    envelope::open(&bytes, name).map(|p| p.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> Store {
        let d = std::env::temp_dir().join(format!("soup-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        Store::open(d).unwrap()
    }

    #[test]
    fn round_trip() {
        let s = store("rt");
        s.write_envelope("a.ck", b"{\"x\":1}").unwrap();
        assert_eq!(s.read_envelope("a.ck").unwrap(), b"{\"x\":1}");
        assert!(s.exists("a.ck"));
        assert!(!s.exists("b.ck"));
    }

    #[test]
    fn read_missing_is_io() {
        let s = store("missing");
        assert_eq!(s.read_envelope("nope.ck").unwrap_err().kind(), "io");
    }

    #[test]
    fn read_corrupt_is_corrupt() {
        let s = store("corrupt");
        s.write_envelope("a.ck", b"payload").unwrap();
        let p = s.path("a.ck");
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(s.read_envelope("a.ck").unwrap_err().kind(), "corrupt");
    }
}
