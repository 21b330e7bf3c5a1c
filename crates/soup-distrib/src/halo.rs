//! Halo feature transport between shard-worker processes.
//!
//! Sharded Phase-1 gives every worker process exclusive ownership of one
//! contiguous node range of the shard-ordered mmap dataset. Training a
//! GNN on a shard still needs the *features* of the 1-hop out-of-shard
//! neighbors ("halo" nodes); this module moves them with the same framing
//! code as `soup-serve::proto`, `soup_store::frame` (u32-LE length), and
//! keeps only its opcode table on top (one opcode byte, fixed
//! little-endian payload layout, total decoding):
//!
//! ```text
//! frame     := len:u32-LE  op:u8  payload[len-1]
//! FETCH     := op=1  epoch:u8  count:u32  ids:u32×count   (global node ids)
//! ROWS      := op=2  epoch:u8  count:u32  dim:u32  rows:f32×count×dim
//! BYE       := op=3
//! READY     := op=10 shard:u32 epoch:u32   worker → coordinator (halo server up)
//! GO        := op=11                       coordinator → worker (all servers up)
//! FETCHED   := op=12 shard:u32 epoch:u32   worker → coordinator (halo resident)
//! PROCEED   := op=13                       coordinator → worker (training may start)
//! RESULT    := op=14 shard:u32 epoch:u32 json:u8×rest   worker → coordinator
//! ACK       := op=15                       coordinator → worker (exit)
//! HEARTBEAT := op=16 shard:u32 epoch:u32   worker → coordinator (liveness)
//! ```
//!
//! The **session epoch** is the worker's incarnation counter: 0 on first
//! spawn, bumped by the supervisor on every respawn. Worker→coordinator
//! frames carry it so the supervisor can reject stale frames left in a
//! socket buffer by a pre-crash incarnation; halo FETCH/ROWS carry a
//! truncated epoch byte that the server echoes, so a fetcher never
//! accounts rows against a reply it did not request this incarnation.
//!
//! Two transports deliver identical bytes:
//!
//! - **shared-memory fast path** (default): the dataset file is mapped
//!   `MAP_SHARED` by every process, so the owner's feature pages *are*
//!   shared memory — the fetcher dereferences them directly. Costs: the
//!   halo pages join the fetcher's RSS.
//! - **Unix-domain sockets** (`SOUP_SHARD_NO_SHM=1` or `no_shm` in the
//!   plan): the fetcher asks each owning shard over its `halo-<i>.sock`
//!   and only ever touches its own pages.
//!
//! The determinism test in `tests/shard_pipeline.rs` holds the two paths
//! bit-identical.

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use soup_error::SoupError;
use soup_graph::mmap::MmapDataset;
use soup_store::frame::{write_frame, FrameBuf, Next};

type Result<T> = std::result::Result<T, SoupError>;

/// Frames above this size are rejected as corrupt (largest legal frame is
/// a ROWS response for one id chunk: `FETCH_CHUNK × dim × 4` plus header).
pub const MAX_FRAME: usize = 16 << 20;

/// Ids per FETCH frame; bounds peak frame size at any feature_dim ≤ 1024.
pub const FETCH_CHUNK: usize = 4096;

pub const OP_FETCH: u8 = 1;
pub const OP_ROWS: u8 = 2;
pub const OP_BYE: u8 = 3;
pub const OP_READY: u8 = 10;
pub const OP_GO: u8 = 11;
pub const OP_FETCHED: u8 = 12;
pub const OP_PROCEED: u8 = 13;
pub const OP_RESULT: u8 = 14;
pub const OP_ACK: u8 = 15;
pub const OP_HEARTBEAT: u8 = 16;

/// Write one frame, the concatenation of `parts`, to a blocking stream.
pub fn send(w: &mut impl std::io::Write, parts: &[&[u8]]) -> Result<()> {
    write_frame(w, MAX_FRAME, parts, None)
}

/// Split a frame payload into its opcode and body.
pub fn split_op(payload: &[u8]) -> Result<(u8, &[u8])> {
    payload
        .split_first()
        .map(|(&op, body)| (op, body))
        .ok_or_else(|| SoupError::corrupt("halo protocol: a frame with no opcode"))
}

/// The body of a frame that must carry opcode `want`.
pub fn expect_op(payload: &[u8], want: u8) -> Result<&[u8]> {
    match split_op(payload)? {
        (op, body) if op == want => Ok(body),
        (op, _) => Err(SoupError::corrupt(format!(
            "halo protocol: expected opcode {want}, got {op}"
        ))),
    }
}

/// Encode the `shard:u32 epoch:u32` prefix carried by every
/// worker→coordinator control frame (READY/FETCHED/RESULT/HEARTBEAT).
pub fn shard_epoch_payload(shard: u32, epoch: u32) -> [u8; 8] {
    let mut p = [0u8; 8];
    p[0..4].copy_from_slice(&shard.to_le_bytes());
    p[4..8].copy_from_slice(&epoch.to_le_bytes());
    p
}

/// Decode a worker→coordinator control frame into `(op, shard, epoch,
/// rest)`; RESULT carries its JSON in `rest`, the others carry nothing.
pub fn decode_control(payload: &[u8]) -> Result<(u8, u32, u32, &[u8])> {
    let (op, body) = split_op(payload)?;
    if body.len() < 8 {
        return Err(SoupError::corrupt(format!(
            "halo protocol: shard+epoch prefix needs 8 bytes, got {}",
            body.len()
        )));
    }
    Ok((op, le_u32(body, 0), le_u32(body, 4), &body[8..]))
}

/// FETCH payload: the fetcher's truncated session epoch and global ids.
pub fn encode_fetch(epoch: u8, ids: &[u32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(6 + ids.len() * 4);
    p.extend_from_slice(&[OP_FETCH, epoch]);
    p.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    p.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
    p
}

/// Decode a FETCH payload into `(epoch, ids)`.
pub fn decode_fetch(payload: &[u8]) -> Result<(u8, Vec<u32>)> {
    let body = expect_op(payload, OP_FETCH)?;
    if body.len() < 5 {
        return Err(SoupError::corrupt("halo FETCH shorter than its header"));
    }
    let count = le_u32(body, 1) as usize;
    if body.len() - 5 != count * 4 {
        return Err(SoupError::corrupt(format!(
            "halo FETCH declares {count} ids but carries {} bytes",
            body.len() - 5
        )));
    }
    let ids = (0..count).map(|i| le_u32(body, 5 + 4 * i)).collect();
    Ok((body[0], ids))
}

/// ROWS payload: the echoed epoch, `count × dim`, then the rows' f32s.
pub fn encode_rows(epoch: u8, dim: usize, rows: &[&[f32]]) -> Vec<u8> {
    let mut p = Vec::with_capacity(10 + rows.len() * dim * 4);
    p.extend_from_slice(&[OP_ROWS, epoch]);
    p.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    p.extend_from_slice(&(dim as u32).to_le_bytes());
    rows.iter()
        .for_each(|r| r.iter().for_each(|x| p.extend_from_slice(&x.to_le_bytes())));
    p
}

/// Decode a ROWS payload into `(epoch, count, dim, row-major values)`.
pub fn decode_rows(payload: &[u8]) -> Result<(u8, usize, usize, Vec<f32>)> {
    let body = expect_op(payload, OP_ROWS)?;
    if body.len() < 9 {
        return Err(SoupError::corrupt("halo ROWS shorter than its header"));
    }
    let (count, dim) = (le_u32(body, 1) as usize, le_u32(body, 5) as usize);
    if Some(body.len() - 9) != count.checked_mul(dim).and_then(|n| n.checked_mul(4)) {
        return Err(SoupError::corrupt("halo ROWS payload size mismatch"));
    }
    let values = body[9..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok((body[0], count, dim, values))
}

/// Little-endian `u32` at `at`; callers have checked the length.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Socket path of shard `i`'s halo server inside the run directory.
pub fn halo_socket_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("halo-{shard}.sock"))
}

/// Socket path of the coordinator's control plane.
pub fn control_socket_path(dir: &Path) -> PathBuf {
    dir.join("control.sock")
}

/// Serve this shard's owned feature rows on `listener` until the process
/// exits. Each FETCH is answered with one ROWS frame; ids outside
/// `owned` are a protocol violation and close the connection.
///
/// Runs on a detached thread: the listener accepts for the worker's whole
/// lifetime, so a slow peer can fetch at any point before the coordinator's
/// PROCEED barrier releases training.
pub fn serve_halo(
    listener: UnixListener,
    dataset: std::sync::Arc<MmapDataset>,
    owned: std::ops::Range<usize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let dataset = std::sync::Arc::clone(&dataset);
            let owned = owned.clone();
            std::thread::spawn(move || {
                let _ = serve_halo_conn(stream, &dataset, owned);
            });
        }
    })
}

fn serve_halo_conn(
    mut stream: UnixStream,
    dataset: &MmapDataset,
    owned: std::ops::Range<usize>,
) -> Result<()> {
    let mut buf = FrameBuf::new(MAX_FRAME);
    let dim = dataset.feature_dim();
    while let Next::Frame(payload) = buf.read_frame(&mut stream, None)? {
        if split_op(payload)?.0 == OP_BYE {
            return Ok(());
        }
        let (epoch, ids) = decode_fetch(payload)?;
        let mut rows = Vec::with_capacity(ids.len());
        for id in ids {
            if !owned.contains(&(id as usize)) {
                return Err(SoupError::usage(format!(
                    "halo FETCH for node {id} outside owned range {owned:?}"
                )));
            }
            rows.push(dataset.feature_row(id as usize));
        }
        // Echo the fetcher's session epoch.
        send(&mut stream, &[&encode_rows(epoch, dim, &rows)])?;
    }
    Ok(())
}

/// Retry/timeout policy for halo fetches. Fetches are pure idempotent
/// reads, so a failed chunk is simply re-requested over a fresh
/// connection with exponential backoff between attempts.
#[derive(Debug, Clone, Copy)]
pub struct FetchOpts {
    /// Session epoch of the fetching incarnation; the server echoes its
    /// low byte so stale replies are detected.
    pub epoch: u32,
    /// Per-read/write socket timeout. A peer that stops mid-frame fails
    /// the chunk within this bound instead of pinning the fetcher.
    pub io_timeout: std::time::Duration,
    /// Total attempts per chunk (first try included).
    pub attempts: u32,
    /// Backoff before retry `n` is `base_backoff × 2^(n-1)`.
    pub base_backoff: std::time::Duration,
}

impl Default for FetchOpts {
    fn default() -> Self {
        Self {
            epoch: 0,
            io_timeout: std::time::Duration::from_secs(30),
            attempts: 3,
            base_backoff: std::time::Duration::from_millis(50),
        }
    }
}

struct FetchConn {
    stream: UnixStream,
    buf: FrameBuf,
}

fn connect_fetch(sock: &Path, opts: &FetchOpts) -> Result<FetchConn> {
    let stream = UnixStream::connect(sock).map_err(|e| SoupError::io_at(sock, e))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    let buf = FrameBuf::new(MAX_FRAME);
    Ok(FetchConn { stream, buf })
}

/// One FETCH→ROWS exchange. Rows are stored only after the whole reply
/// validates, so a failed attempt never leaves partial state behind.
fn fetch_chunk(
    conn: &mut FetchConn,
    chunk: &[u32],
    dim: usize,
    opts: &FetchOpts,
    store_row: &mut impl FnMut(usize, &[f32]),
) -> Result<()> {
    let epoch = (opts.epoch & 0xff) as u8;
    let FetchConn { stream, buf } = conn;
    send(stream, &[&encode_fetch(epoch, chunk)])?;
    let reply = buf.read_frame(stream, Some(opts.io_timeout))?;
    let Next::Frame(payload) = reply else {
        return Err(SoupError::corrupt(format!(
            "halo: no ROWS reply ({reply:?})"
        )));
    };
    let (got_epoch, count, got_dim, values) = decode_rows(payload)?;
    if got_epoch != epoch {
        return Err(SoupError::corrupt(format!(
            "halo ROWS from stale session epoch {got_epoch} (want {epoch})"
        )));
    }
    if count != chunk.len() || got_dim != dim {
        return Err(SoupError::corrupt(format!(
            "halo ROWS shape {count}×{got_dim}, expected {}×{dim}",
            chunk.len()
        )));
    }
    for (i, &id) in chunk.iter().enumerate() {
        store_row(id as usize, &values[i * dim..(i + 1) * dim]);
    }
    Ok(())
}

/// Fetch feature rows for `ids` (global, sorted or not) over the socket of
/// their owning shard, in [`FETCH_CHUNK`]-sized frames. Rows are handed to
/// `store_row(id, row)` — the caller picks the destination layout. Each
/// chunk is retried up to `opts.attempts` times over a fresh connection
/// with exponential backoff; only `Usage` errors (a fetch outside the
/// owned range — a deterministic bug) fail fast.
pub fn fetch_rows_with(
    sock: &Path,
    ids: &[u32],
    dim: usize,
    opts: &FetchOpts,
    mut store_row: impl FnMut(usize, &[f32]),
) -> Result<()> {
    let mut conn: Option<FetchConn> = None;
    for chunk in ids.chunks(FETCH_CHUNK) {
        let mut attempt = 0u32;
        loop {
            let result = match &mut conn {
                Some(c) => fetch_chunk(c, chunk, dim, opts, &mut store_row),
                None => match connect_fetch(sock, opts) {
                    Ok(c) => {
                        let c = conn.insert(c);
                        fetch_chunk(c, chunk, dim, opts, &mut store_row)
                    }
                    Err(e) => Err(e),
                },
            };
            match result {
                Ok(()) => break,
                // Out-of-range fetches are deterministic bugs, not flakes.
                Err(e) if e.kind() == "usage" => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt >= opts.attempts {
                        return Err(e);
                    }
                    soup_obs::counter!("halo.fetch_retries").inc();
                    conn = None; // reconnect on the next attempt
                    std::thread::sleep(opts.base_backoff * (1 << (attempt - 1).min(8)));
                }
            }
        }
    }
    if let Some(mut c) = conn {
        // Best-effort goodbye; the data already landed.
        let _ = send(&mut c.stream, &[&[OP_BYE]]);
    }
    Ok(())
}

/// Connect to a unix socket, retrying while the peer is still binding.
pub fn connect_retry(path: &Path, timeout: std::time::Duration) -> Result<UnixStream> {
    let start = std::time::Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() > timeout {
                    return Err(SoupError::io_at(path, e));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_graph::mmap::save_mmap_dataset;
    use soup_graph::DatasetKind;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("soup-halo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn opcode_table_roundtrips() {
        let ids = [3u32, 9, 4096];
        assert_eq!(
            decode_fetch(&encode_fetch(7, &ids)).unwrap(),
            (7, ids.to_vec())
        );
        let rows: [&[f32]; 2] = [&[1.0, -2.5], &[0.0, f32::MAX]];
        assert_eq!(
            decode_rows(&encode_rows(7, 2, &rows)).unwrap(),
            (7, 2, 2, vec![1.0, -2.5, 0.0, f32::MAX])
        );
        let mut wire = Vec::new();
        send(&mut wire, &[&[OP_GO]]).unwrap();
        assert_eq!(wire, [1, 0, 0, 0, OP_GO]);
    }

    #[test]
    fn frames_without_an_opcode_or_of_the_wrong_opcode_are_corrupt() {
        assert_eq!(split_op(&[]).unwrap_err().kind(), "corrupt");
        assert_eq!(decode_control(&[]).unwrap_err().kind(), "corrupt");
        let rows = encode_rows(0, 0, &[]);
        assert_eq!(decode_fetch(&rows).unwrap_err().kind(), "corrupt");
        assert_eq!(expect_op(&rows, OP_ROWS).unwrap(), &rows[1..]);
    }

    #[test]
    fn fetch_roundtrips_rows_over_uds() {
        let dir = tmpdir("fetch");
        let ds_path = dir.join("ds.gmm");
        let d = DatasetKind::Flickr.generate_scaled(5, 0.02);
        save_mmap_dataset(&d, &ds_path).unwrap();
        let m = std::sync::Arc::new(MmapDataset::open(&ds_path).unwrap());
        let n = m.num_nodes();
        let dim = m.feature_dim();
        let sock = halo_socket_path(&dir, 0);
        let listener = UnixListener::bind(&sock).unwrap();
        let _server = serve_halo(listener, std::sync::Arc::clone(&m), 0..n);

        let ids: Vec<u32> = (0..n as u32).step_by(7).collect();
        let mut got: std::collections::HashMap<usize, Vec<f32>> = Default::default();
        fetch_rows_with(&sock, &ids, dim, &FetchOpts::default(), |id, row| {
            got.insert(id, row.to_vec());
        })
        .unwrap();
        assert_eq!(got.len(), ids.len());
        for &id in &ids {
            // Transport is bit-exact with the shared-memory path.
            assert_eq!(got[&(id as usize)], m.feature_row(id as usize));
        }
    }

    #[test]
    fn control_prefix_roundtrips_with_tail() {
        let mut p = vec![OP_RESULT];
        p.extend_from_slice(&shard_epoch_payload(7, 42));
        p.extend_from_slice(b"{\"x\":1}");
        let (op, shard, epoch, rest) = decode_control(&p).unwrap();
        assert_eq!((op, shard, epoch), (OP_RESULT, 7, 42));
        assert_eq!(rest, b"{\"x\":1}");
        assert_eq!(
            decode_control(&[OP_READY; 8]).unwrap_err().kind(),
            "corrupt"
        );
    }

    #[test]
    fn fetch_retries_over_a_flaky_connection() {
        let dir = tmpdir("retry");
        let ds_path = dir.join("ds.gmm");
        let d = DatasetKind::Flickr.generate_scaled(5, 0.02);
        save_mmap_dataset(&d, &ds_path).unwrap();
        let m = std::sync::Arc::new(MmapDataset::open(&ds_path).unwrap());
        let n = m.num_nodes();
        let dim = m.feature_dim();
        let sock = halo_socket_path(&dir, 0);
        let listener = UnixListener::bind(&sock).unwrap();
        // First connection is dropped on the floor; later ones are served.
        let srv = std::sync::Arc::clone(&m);
        std::thread::spawn(move || {
            let mut first = true;
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                if std::mem::take(&mut first) {
                    drop(stream); // simulated mid-handshake crash
                    continue;
                }
                let dataset = std::sync::Arc::clone(&srv);
                std::thread::spawn(move || {
                    let _ = serve_halo_conn(stream, &dataset, 0..dataset.num_nodes());
                });
            }
        });
        let ids: Vec<u32> = (0..n as u32).step_by(5).collect();
        let opts = FetchOpts {
            epoch: 1,
            io_timeout: std::time::Duration::from_secs(5),
            attempts: 3,
            base_backoff: std::time::Duration::from_millis(5),
        };
        let mut got = 0usize;
        fetch_rows_with(&sock, &ids, dim, &opts, |id, row| {
            assert_eq!(row, m.feature_row(id));
            got += 1;
        })
        .unwrap();
        assert_eq!(got, ids.len());
    }

    #[test]
    fn fetch_outside_owned_range_closes_connection() {
        let dir = tmpdir("range");
        let ds_path = dir.join("ds.gmm");
        let d = DatasetKind::Flickr.generate_scaled(6, 0.02);
        save_mmap_dataset(&d, &ds_path).unwrap();
        let m = std::sync::Arc::new(MmapDataset::open(&ds_path).unwrap());
        let dim = m.feature_dim();
        let sock = halo_socket_path(&dir, 1);
        let listener = UnixListener::bind(&sock).unwrap();
        // Server owns only the first half.
        let _server = serve_halo(listener, std::sync::Arc::clone(&m), 0..m.num_nodes() / 2);
        let bad = vec![(m.num_nodes() - 1) as u32];
        let err = fetch_rows_with(&sock, &bad, dim, &FetchOpts::default(), |_, _| {}).unwrap_err();
        // The server drops the connection; the client sees a protocol error.
        assert!(matches!(err.kind(), "corrupt" | "io"), "{err}");
    }
}
