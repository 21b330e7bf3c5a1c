//! Atomic, durable file replacement.
//!
//! `write_durable` guarantees that after it returns Ok, the destination
//! holds exactly the new bytes even across a crash or power loss at any
//! point during the call, and that a crash mid-call leaves the *old*
//! content (or no file) — never a torn mix. The ordering is the classic
//! four-step dance:
//!
//! 1. write the bytes to a fresh temp file in the **same directory**
//!    (rename is only atomic within a filesystem),
//! 2. `fsync` the temp file (data hits the platter before the name does),
//! 3. `rename` over the destination (atomic replace on POSIX),
//! 4. `fsync` the parent directory (the rename itself is durable).
//!
//! A process that dies between steps 1 and 3 leaves its temp file behind;
//! [`remove_orphaned_temps`] deletes those of writers that are gone.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use soup_error::SoupError;

use crate::fault;

type Result<T> = std::result::Result<T, SoupError>;

/// Per-process counter so concurrent writers to the same destination get
/// distinct temp names (the pid alone is not enough inside one process).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temp name `publish` writes `name` through: `.NAME.tmp.PID.SEQ`.
fn temp_name(name: &str, seq: u64) -> String {
    format!(".{name}.tmp.{}.{seq}", std::process::id())
}

/// The writer PID of a `publish` temp file name, `None` for any other name.
fn temp_writer(name: &str) -> Option<u32> {
    let (_, tail) = name.strip_prefix('.')?.rsplit_once(".tmp.")?;
    let (pid, seq) = tail.split_once('.')?;
    seq.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// Remove the temp files in `dir` whose writer died mid-`publish`: those
/// whose PID is no live process in this process's `/proc` (a writer in
/// another PID namespace sharing `dir` would look dead). A live writer's,
/// this process's included, are kept, and so is everything where `/proc`
/// is not mounted, since liveness cannot be told there. Best effort: a file that
/// cannot be listed or removed is left as it is.
pub(crate) fn remove_orphaned_temps(dir: &Path) {
    let proc = Path::new("/proc");
    if !proc.join("self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(temp_writer) else {
            continue;
        };
        if !proc.join(pid.to_string()).exists() && std::fs::remove_file(entry.path()).is_ok() {
            soup_obs::warn!("store: removed {name:?}, left by dead writer {pid}");
        }
    }
}

/// Durably replace `path` with `bytes` (tmp → write → fsync → rename →
/// fsync dir). See the module docs for the crash-consistency argument.
pub fn write_durable(path: impl AsRef<Path>, bytes: &[u8]) -> Result<()> {
    publish(path.as_ref(), |f| f.write_all(bytes))
}

/// [`write_durable`] for content too large to hold in memory: the caller
/// streams bytes into a buffered temp-file writer and the same four-step
/// dance publishes the result. The writer callback gets a `BufWriter`
/// sized for large sequential output (mmap dataset files are written
/// through this path); flush + fsync + rename + dir-fsync happen after it
/// returns. An `Err` from the callback aborts the write and removes the
/// temp file, leaving any previous destination content untouched.
pub fn write_durable_streamed(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut std::io::BufWriter<&mut File>) -> std::io::Result<()>,
) -> Result<()> {
    publish(path.as_ref(), |f| {
        let mut w = std::io::BufWriter::with_capacity(1 << 20, f);
        write(&mut w)?;
        w.flush()
    })
}

/// The four steps, each behind its crash point (`durable.write`,
/// `durable.fsync`, `durable.rename`, `durable.dir_fsync`); `fill` writes
/// the content into the temp file.
fn publish(path: &Path, fill: impl FnOnce(&mut File) -> std::io::Result<()>) -> Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| SoupError::usage(format!("write_durable: bad path {}", path.display())))?;
    let tmp = {
        let tmp_name = temp_name(name, TMP_SEQ.fetch_add(1, Ordering::Relaxed));
        match dir {
            Some(d) => d.join(tmp_name),
            None => tmp_name.into(),
        }
    };

    let write_steps = (|| -> std::io::Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        fault::crash("durable.write")?;
        fill(&mut f)?;
        // Data must be on stable storage before the rename publishes it.
        fault::crash("durable.fsync")?;
        f.sync_all()
    })();
    if let Err(e) = write_steps {
        let _ = std::fs::remove_file(&tmp);
        return Err(SoupError::io_at(&tmp, e));
    }

    if let Err(e) = fault::crash("durable.rename").and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(SoupError::io_at(path, e));
    }

    // Make the rename itself durable: fsync the containing directory.
    // Directory handles are only fsync-able on unix; elsewhere the rename
    // is still atomic, just not guaranteed durable across power loss.
    #[cfg(unix)]
    if let Some(d) = dir {
        fault::crash("durable.dir_fsync")
            .and_then(|()| File::open(d)?.sync_all())
            .map_err(|e| SoupError::io_at(d, e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;

    soup_obs::counter!("store.durable_writes").inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("soup-store-atomic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_and_replaces() {
        let dir = tmpdir("replace");
        let p = dir.join("x.bin");
        write_durable(&p, b"first").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        write_durable(&p, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"second, longer payload");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    }

    #[test]
    fn streamed_write_roundtrips_and_cleans_up() {
        let dir = tmpdir("streamed");
        let p = dir.join("big.bin");
        write_durable_streamed(&p, |w| {
            for chunk in 0..64u8 {
                w.write_all(&vec![chunk; 4096])?;
            }
            Ok(())
        })
        .unwrap();
        let got = std::fs::read(&p).unwrap();
        assert_eq!(got.len(), 64 * 4096);
        assert_eq!(got[0], 0);
        assert_eq!(got[got.len() - 1], 63);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    }

    #[test]
    fn streamed_write_error_preserves_old_content() {
        let dir = tmpdir("streamed-err");
        let p = dir.join("x.bin");
        write_durable(&p, b"original").unwrap();
        let err = write_durable_streamed(&p, |w| {
            w.write_all(b"partial")?;
            Err(std::io::Error::other("generator failed"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(std::fs::read(&p).unwrap(), b"original");
    }

    #[test]
    fn only_temp_files_of_dead_writers_are_removed() {
        let dir = tmpdir("orphans");
        // Above any kernel's pid_max, so never a live process.
        let dead = format!(".x.ck.tmp.{}.0", 4_000_000_000u32);
        let names = [
            dead.as_str(),
            &temp_name("x.ck", 7),
            "x.ck",
            ".x.ck.tmp.no.0",
        ];
        for name in names {
            std::fs::write(dir.join(name), b"partial").unwrap();
        }
        assert_eq!(temp_writer(&dead), Some(4_000_000_000));
        assert_eq!(temp_writer("x.ck"), None);
        remove_orphaned_temps(&dir);
        let left = |name: &str| dir.join(name).exists();
        assert!(!left(&dead), "a dead writer's temp file survived");
        assert!(
            names[1..].iter().all(|n| left(n)),
            "a live or foreign file went"
        );
    }

    #[test]
    fn missing_parent_dir_is_io_error() {
        let dir = tmpdir("noparent");
        let p = dir.join("nope").join("x.bin");
        let err = write_durable(&p, b"data").unwrap_err();
        assert_eq!(err.kind(), "io");
    }

    #[test]
    fn concurrent_writers_leave_one_intact_value() {
        let dir = tmpdir("concurrent");
        let p = dir.join("shared.bin");
        let handles: Vec<_> = (0..8u8)
            .map(|i| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let payload = vec![i; 1024];
                    write_durable(&p, &payload).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let got = std::fs::read(&p).unwrap();
        assert_eq!(got.len(), 1024);
        assert!(got.iter().all(|&b| b == got[0]), "torn interleaving");
    }
}
