//! The control wire between shard-worker processes and their coordinator.
//!
//! Each worker holds one Unix-socket connection to the coordinator's
//! `control.sock`. Framing is `soup_store::frame` (u32-LE length), the same
//! code as `soup-serve::proto`; this module keeps only its opcode table on
//! top (one opcode byte, fixed little-endian payload layout, total
//! decoding):
//!
//! ```text
//! frame     := len:u32-LE  op:u8  payload[len-1]
//! READY     := op=10 shard:u32 epoch:u32   worker → coordinator (incarnation up)
//! RESULT    := op=14 shard:u32 epoch:u32 json:u8×rest   worker → coordinator
//! ACK       := op=15                       coordinator → worker (exit)
//! HEARTBEAT := op=16 shard:u32 epoch:u32   worker → coordinator (liveness)
//! ```
//!
//! A worker speaks READY → HEARTBEAT* → RESULT and exits on ACK. Workers
//! never talk to each other and never wait for each other: each copies
//! its halo feature rows from the `MAP_SHARED` dataset
//! ([`crate::shard_worker`]).
//!
//! The **session epoch** is the worker's incarnation counter: 0 on first
//! spawn, bumped by the supervisor on every respawn. Worker→coordinator
//! frames carry it so the supervisor can reject stale frames left in a
//! socket buffer by a pre-crash incarnation.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use soup_error::SoupError;
use soup_store::frame::write_frame;

type Result<T> = std::result::Result<T, SoupError>;

/// Frames above this size are rejected as corrupt. The largest legal frame
/// is a RESULT carrying one `ShardResult` as JSON, a few hundred bytes.
pub const MAX_FRAME: usize = 1 << 16;

pub const OP_READY: u8 = 10;
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
        .ok_or_else(|| SoupError::corrupt("control protocol: a frame with no opcode"))
}

/// The body of a frame that must carry opcode `want`.
pub fn expect_op(payload: &[u8], want: u8) -> Result<&[u8]> {
    match split_op(payload)? {
        (op, body) if op == want => Ok(body),
        (op, _) => Err(SoupError::corrupt(format!(
            "control protocol: expected opcode {want}, got {op}"
        ))),
    }
}

/// Encode the `shard:u32 epoch:u32` prefix carried by every
/// worker→coordinator frame (READY/RESULT/HEARTBEAT).
pub fn shard_epoch_payload(shard: u32, epoch: u32) -> [u8; 8] {
    let mut p = [0u8; 8];
    p[0..4].copy_from_slice(&shard.to_le_bytes());
    p[4..8].copy_from_slice(&epoch.to_le_bytes());
    p
}

/// Decode a worker→coordinator frame into `(op, shard, epoch, rest)`;
/// RESULT carries its JSON in `rest`, the others carry nothing.
pub fn decode_control(payload: &[u8]) -> Result<(u8, u32, u32, &[u8])> {
    let (op, body) = split_op(payload)?;
    let Some((prefix, rest)) = body.split_first_chunk::<8>() else {
        return Err(SoupError::corrupt(format!(
            "control protocol: shard+epoch prefix needs 8 bytes, got {}",
            body.len()
        )));
    };
    let le = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    Ok((op, le(&prefix[..4]), le(&prefix[4..]), rest))
}

/// Socket path of the coordinator's control plane.
pub fn control_socket_path(dir: &Path) -> PathBuf {
    dir.join("control.sock")
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

    #[test]
    fn opcode_table_roundtrips() {
        let mut wire = Vec::new();
        send(&mut wire, &[&[OP_READY], &shard_epoch_payload(3, 7)]).unwrap();
        assert_eq!(wire, [9, 0, 0, 0, OP_READY, 3, 0, 0, 0, 7, 0, 0, 0]);
        assert_eq!(
            decode_control(&wire[4..]).unwrap(),
            (OP_READY, 3, 7, &[][..])
        );
        let mut wire = Vec::new();
        send(&mut wire, &[&[OP_ACK]]).unwrap();
        assert_eq!(wire, [1, 0, 0, 0, OP_ACK]);
    }

    #[test]
    fn frames_without_an_opcode_or_of_the_wrong_opcode_are_corrupt() {
        assert_eq!(split_op(&[]).unwrap_err().kind(), "corrupt");
        assert_eq!(decode_control(&[]).unwrap_err().kind(), "corrupt");
        let ready = [&[OP_READY][..], &shard_epoch_payload(0, 0)].concat();
        assert_eq!(expect_op(&ready, OP_ACK).unwrap_err().kind(), "corrupt");
        assert_eq!(expect_op(&ready, OP_READY).unwrap(), &ready[1..]);
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
}
