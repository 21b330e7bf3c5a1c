//! One fuzz harness for every wire decoder: serve requests/responses and
//! predictions bodies, shard control frames, halo FETCH/ROWS.
//!
//! Each valid frame is truncated at every offset and has every bit flipped.
//! Every result is framed two ways — the blocking reader over a byte slice,
//! and a `FrameBuf` filled one byte per poll — which must agree frame for
//! frame and end the same way; then every payload goes through every
//! decoder of its protocol. Nothing may panic, and every error must be
//! typed.

use enhanced_soups::distrib::halo::{self, OP_ACK, OP_FETCHED, OP_GO, OP_HEARTBEAT, OP_PROCEED};
use enhanced_soups::distrib::halo::{OP_READY, OP_RESULT};
use enhanced_soups::serve::proto::{self, Request, Response};
use enhanced_soups::store::frame::{write_frame, FrameBuf, Next};
use enhanced_soups::SoupError;
use std::io::Read;

/// How a byte stream ended: cleanly at a boundary, or with an error.
#[derive(Debug, PartialEq)]
enum End {
    Closed,
    Error(String),
}

fn error_kind(e: &SoupError) -> String {
    match e {
        SoupError::Io { source, .. } => format!("io:{:?}", source.kind()),
        other => other.kind().to_string(),
    }
}

/// Frames through the blocking reader over a byte slice.
fn blocking(wire: &[u8], cap: usize) -> (Vec<Vec<u8>>, End) {
    let (mut r, mut buf, mut frames) = (wire, FrameBuf::new(cap), Vec::new());
    loop {
        match buf.read_frame(&mut r, None) {
            Ok(Next::Frame(p)) => frames.push(p.to_vec()),
            Ok(Next::Closed) => return (frames, End::Closed),
            Ok(Next::Idle) => panic!("a byte slice never idles"),
            Err(e) => return (frames, End::Error(error_kind(&e))),
        }
    }
}

/// A nonblocking stream with one byte ready per poll.
struct Drip<'a> {
    bytes: &'a [u8],
    ready: bool,
}

impl Read for Drip<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if !std::mem::replace(&mut self.ready, false) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let Some((&b, rest)) = self.bytes.split_first() else {
            return Ok(0);
        };
        (out[0], self.bytes) = (b, rest);
        Ok(1)
    }
}

/// Frames through a `FrameBuf` filled from a nonblocking stream one byte
/// at a time; the end of input is classified by the blocking reader over
/// an exhausted stream.
fn bytewise(wire: &[u8], cap: usize) -> (Vec<Vec<u8>>, End) {
    let (mut buf, mut frames) = (FrameBuf::new(cap), Vec::new());
    let mut drip = Drip {
        bytes: wire,
        ready: false,
    };
    loop {
        drip.ready = true;
        let open = buf.fill(&mut drip).unwrap();
        loop {
            match buf.pop() {
                Ok(Some(p)) => frames.push(p.to_vec()),
                Ok(None) => break,
                Err(e) => return (frames, End::Error(error_kind(&e))),
            }
        }
        if !open {
            break;
        }
    }
    match buf.read_frame(&mut &[][..], None) {
        Ok(Next::Closed) => (frames, End::Closed),
        Ok(other) => panic!("exhausted stream yielded {other:?}"),
        Err(e) => (frames, End::Error(error_kind(&e))),
    }
}

fn assert_typed<T>(result: enhanced_soups::Result<T>, what: &str) {
    if let Err(e) = result {
        assert!(
            matches!(e.kind(), "parse" | "corrupt"),
            "{what}: untyped error {e}"
        );
    }
}

/// Every mutation of `payload`'s frame frames identically both ways, and
/// every payload it yields survives `decode`.
fn fuzz(payload: &[u8], cap: usize, decode: &dyn Fn(&[u8])) -> usize {
    let mut wire = Vec::new();
    write_frame(&mut wire, cap, &[payload], None).unwrap();
    assert_eq!(blocking(&wire, cap), (vec![payload.to_vec()], End::Closed));
    let mut cases: Vec<Vec<u8>> = (0..wire.len()).map(|cut| wire[..cut].to_vec()).collect();
    for bit in 0..wire.len() * 8 {
        let mut flipped = wire.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        cases.push(flipped);
    }
    for case in &cases {
        let got = blocking(case, cap);
        assert_eq!(got, bytewise(case, cap), "framings disagree on {case:?}");
        let (frames, end) = got;
        if let End::Error(kind) = &end {
            assert!(
                kind == "corrupt" || kind == "io:UnexpectedEof",
                "untyped framing error {kind}"
            );
        }
        frames.iter().for_each(|p| decode(p));
    }
    cases.len()
}

fn serve_decoders(p: &[u8]) {
    assert_typed(proto::decode_request(p), "request");
    assert_typed(proto::decode_response(p), "response");
    assert_typed(proto::decode_predictions(p), "predictions");
}

fn halo_decoders(p: &[u8]) {
    assert_typed(halo::split_op(p), "opcode");
    assert_typed(halo::decode_control(p), "control");
    assert_typed(halo::decode_fetch(p), "fetch");
    assert_typed(halo::decode_rows(p), "rows");
    if let Ok((_, count, dim, values)) = halo::decode_rows(p) {
        assert_eq!(values.len(), count * dim);
    }
}

#[test]
fn every_serve_frame_survives_truncation_and_bit_flips() {
    let requests = [
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
    let predictions = proto::encode_predictions(3, &[1, 2, 9]);
    let responses = [
        Response::Ok(predictions.clone()),
        Response::Ok(Vec::new()),
        Response::Error("boom".into()),
        Response::Overloaded,
    ];
    let mut payloads: Vec<Vec<u8>> = requests.iter().map(proto::encode_request).collect();
    payloads.extend(responses.iter().map(proto::encode_response));
    payloads.push(predictions);
    for req in &requests {
        assert_eq!(
            &proto::decode_request(&proto::encode_request(req)).unwrap(),
            req
        );
    }
    let cases: usize = payloads
        .iter()
        .map(|p| fuzz(p, proto::MAX_FRAME, &serve_decoders))
        .sum();
    assert!(cases > 1_000, "only {cases} cases");
}

#[test]
fn every_control_and_halo_frame_survives_truncation_and_bit_flips() {
    let prefix = halo::shard_epoch_payload(3, 1);
    let mut payloads: Vec<Vec<u8>> = [OP_READY, OP_FETCHED, OP_HEARTBEAT]
        .iter()
        .map(|&op| [&[op][..], &prefix].concat())
        .collect();
    payloads.push([&[OP_RESULT][..], &prefix, br#"{"shard":3}"#].concat());
    payloads.extend([OP_GO, OP_PROCEED, OP_ACK].map(|op| vec![op]));
    payloads.push(halo::encode_fetch(1, &[0, 5, 1 << 20]));
    let rows: [&[f32]; 2] = [&[1.5, -0.0, f32::NAN], &[f32::MIN, 2.0, 3.0]];
    payloads.push(halo::encode_rows(1, 3, &rows));
    let (op, shard, epoch, rest) = halo::decode_control(&payloads[3]).unwrap();
    assert_eq!(
        (op, shard, epoch, rest),
        (OP_RESULT, 3, 1, &br#"{"shard":3}"#[..])
    );
    let cases: usize = payloads
        .iter()
        .map(|p| fuzz(p, halo::MAX_FRAME, &halo_decoders))
        .sum();
    assert!(cases > 1_000, "only {cases} cases");
}
