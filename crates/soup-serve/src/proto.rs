//! Wire protocol: the serve opcode table over `soup_store::frame`.
//!
//! Every message — request or response — is one frame of the shared
//! length-prefixed codec, capped at [`MAX_FRAME`] before allocation, so a
//! hostile or corrupt length prefix cannot OOM the server. A request
//! payload starts with an opcode byte, a response payload with a status
//! byte; everything after is opcode-specific and fixed-layout (no
//! self-describing encoding on the hot path).
//!
//! | opcode | body | OK body |
//! |---|---|---|
//! | `PING` | — | `u64` model version |
//! | `PREDICT` | `u32` count, count × `u32` node id | `u64` version, `u32` count, count × `u32` class |
//! | `STATS` | — | UTF-8 JSON |
//! | `SWAP` | UTF-8 checkpoint path | `u64` new version |
//! | `RESOUP` | `u64` seed, `u8` strategy len, strategy, UTF-8 dir | `u64` new version |
//! | `SHUTDOWN` | — | — |
//!
//! Response status [`Status::Overloaded`] (empty body) is the explicit
//! backpressure signal: the admission queue was full and the request was
//! *not* processed; the client may retry. Malformed input of any kind
//! decodes to a clean [`SoupError`] — never a panic — and the server
//! answers [`Status::Error`] with a message body.

use soup_error::SoupError;

/// Hard cap on frame payload size (1 MiB ≈ 260k node ids per request).
pub const MAX_FRAME: usize = 1 << 20;

/// Most node ids one PREDICT may carry: its OK reply (status, version,
/// count, one class per id — `13 + 4n` bytes) must fit in a frame too.
pub const MAX_PREDICT: usize = (MAX_FRAME - 13) / 4;

/// Request opcodes (first payload byte of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; returns the live model version.
    Ping = 0,
    /// Classify a batch of node ids.
    Predict = 1,
    /// Serving metrics snapshot as JSON.
    Stats = 2,
    /// Promote the checkpoint at a path to the live model.
    Swap = 3,
    /// Re-soup a checkpoint directory and promote the result.
    Resoup = 4,
    /// Stop accepting connections and exit the serve loop.
    Shutdown = 5,
}

/// Response status (first payload byte of a response frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request processed; body is opcode-specific.
    Ok = 0,
    /// Request failed; body is a UTF-8 error message.
    Error = 1,
    /// Admission queue full — request was rejected, retry later.
    Overloaded = 2,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Ping,
    Predict(Vec<u32>),
    Stats,
    Swap(String),
    Resoup {
        strategy: String,
        dir: String,
        seed: u64,
    },
    Shutdown,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok(Vec<u8>),
    Error(String),
    Overloaded,
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => vec![Opcode::Ping as u8],
        Request::Predict(nodes) => {
            let mut buf = Vec::with_capacity(5 + 4 * nodes.len());
            buf.push(Opcode::Predict as u8);
            buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            for &n in nodes {
                buf.extend_from_slice(&n.to_le_bytes());
            }
            buf
        }
        Request::Stats => vec![Opcode::Stats as u8],
        Request::Swap(path) => {
            let mut buf = vec![Opcode::Swap as u8];
            buf.extend_from_slice(path.as_bytes());
            buf
        }
        Request::Resoup {
            strategy,
            dir,
            seed,
        } => {
            let mut buf = vec![Opcode::Resoup as u8];
            buf.extend_from_slice(&seed.to_le_bytes());
            buf.push(strategy.len() as u8);
            buf.extend_from_slice(strategy.as_bytes());
            buf.extend_from_slice(dir.as_bytes());
            buf
        }
        Request::Shutdown => vec![Opcode::Shutdown as u8],
    }
}

/// Decode a request frame payload. Any malformed input — empty payload,
/// unknown opcode, short body, non-UTF-8 text — is a typed error.
pub fn decode_request(payload: &[u8]) -> soup_error::Result<Request> {
    let (&op, body) = payload
        .split_first()
        .ok_or_else(|| SoupError::parse("empty request frame"))?;
    match op {
        x if x == Opcode::Ping as u8 => Ok(Request::Ping),
        x if x == Opcode::Predict as u8 => {
            if body.len() < 4 {
                return Err(SoupError::parse("predict body shorter than its count"));
            }
            let count = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
            if count > MAX_PREDICT {
                return Err(SoupError::parse(format!(
                    "predict of {count} ids exceeds {MAX_PREDICT}: the reply would not fit a frame"
                )));
            }
            let ids = &body[4..];
            if ids.len() != 4 * count {
                return Err(SoupError::parse(format!(
                    "predict declares {count} ids but carries {} bytes",
                    ids.len()
                )));
            }
            Ok(Request::Predict(
                ids.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
        x if x == Opcode::Stats as u8 => Ok(Request::Stats),
        x if x == Opcode::Swap as u8 => Ok(Request::Swap(utf8(body, "swap path")?)),
        x if x == Opcode::Resoup as u8 => {
            if body.len() < 9 {
                return Err(SoupError::parse("resoup body shorter than its header"));
            }
            let seed = u64::from_le_bytes(body[..8].try_into().unwrap());
            let strat_len = body[8] as usize;
            let rest = &body[9..];
            if rest.len() < strat_len {
                return Err(SoupError::parse("resoup strategy name truncated"));
            }
            Ok(Request::Resoup {
                strategy: utf8(&rest[..strat_len], "resoup strategy")?,
                dir: utf8(&rest[strat_len..], "resoup dir")?,
                seed,
            })
        }
        x if x == Opcode::Shutdown as u8 => Ok(Request::Shutdown),
        other => Err(SoupError::parse(format!("unknown opcode {other}"))),
    }
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok(body) => {
            let mut buf = Vec::with_capacity(1 + body.len());
            buf.push(Status::Ok as u8);
            buf.extend_from_slice(body);
            buf
        }
        Response::Error(msg) => {
            let mut buf = vec![Status::Error as u8];
            buf.extend_from_slice(msg.as_bytes());
            buf
        }
        Response::Overloaded => vec![Status::Overloaded as u8],
    }
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> soup_error::Result<Response> {
    let (&status, body) = payload
        .split_first()
        .ok_or_else(|| SoupError::parse("empty response frame"))?;
    match status {
        x if x == Status::Ok as u8 => Ok(Response::Ok(body.to_vec())),
        x if x == Status::Error as u8 => Ok(Response::Error(utf8(body, "error message")?)),
        x if x == Status::Overloaded as u8 => Ok(Response::Overloaded),
        other => Err(SoupError::parse(format!("unknown status {other}"))),
    }
}

/// Encode the PREDICT success body.
pub fn encode_predictions(version: u64, classes: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + 4 * classes.len());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(classes.len() as u32).to_le_bytes());
    for &c in classes {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

/// Decode the PREDICT success body back into `(version, classes)`.
pub fn decode_predictions(body: &[u8]) -> soup_error::Result<(u64, Vec<u32>)> {
    if body.len() < 12 {
        return Err(SoupError::parse("predict reply shorter than its header"));
    }
    let version = u64::from_le_bytes(body[..8].try_into().unwrap());
    let count = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    let rest = &body[12..];
    if rest.len() != 4 * count {
        return Err(SoupError::parse(format!(
            "predict reply declares {count} classes but carries {} bytes",
            rest.len()
        )));
    }
    Ok((
        version,
        rest.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    ))
}

fn utf8(bytes: &[u8], what: &str) -> soup_error::Result<String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| SoupError::parse(format!("{what} is not UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Ping,
            Request::Predict(vec![0, 7, 42, u32::MAX]),
            Request::Predict(vec![]),
            Request::Stats,
            Request::Swap("/tmp/ck.bin".into()),
            Request::Resoup {
                strategy: "ls".into(),
                dir: "/tmp/pool".into(),
                seed: 42,
            },
            Request::Shutdown,
        ];
        for req in cases {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Ok(encode_predictions(3, &[1, 2, 9])),
            Response::Error("boom".into()),
            Response::Overloaded,
        ];
        for resp in cases {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn predictions_round_trip() {
        let body = encode_predictions(17, &[0, 5, 5, 2]);
        assert_eq!(decode_predictions(&body).unwrap(), (17, vec![0, 5, 5, 2]));
    }

    #[test]
    fn garbage_never_panics() {
        // Every short prefix and a few mutations of a valid frame must
        // decode to Err, not panic.
        let valid = encode_request(&Request::Predict(vec![1, 2, 3]));
        for cut in 0..valid.len() {
            let _ = decode_request(&valid[..cut]);
        }
        for i in 0..valid.len() {
            let mut mutated = valid.clone();
            mutated[i] ^= 0xFF;
            let _ = decode_request(&mutated);
        }
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[]).is_err());
    }

    #[test]
    fn predict_count_mismatch_is_an_error() {
        let mut bad = vec![Opcode::Predict as u8];
        bad.extend_from_slice(&10u32.to_le_bytes()); // claims 10 ids
        bad.extend_from_slice(&7u32.to_le_bytes()); // carries 1
        assert!(decode_request(&bad).is_err());
    }
}
