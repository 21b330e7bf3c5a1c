//! One fuzz harness for every wire decoder: serve requests/responses and
//! predictions bodies, shard control frames, the shard `plan.json` every
//! worker loads, the `soup-graphmmap/1` dataset every `--data` flag reads,
//! the `soup-ckpt/2` checkpoint that `eval --params`, `serve --params` and
//! `query --swap` read — and the `soup-trace/1` reader behind `soupctl
//! trace-validate` and `soupctl obs`.
//!
//! Each valid frame is truncated at every offset and has every bit flipped.
//! Every result is framed two ways — the blocking reader over a byte slice,
//! and a `FrameBuf` filled one byte per poll — which must agree frame for
//! frame and end the same way; then every payload goes through every
//! decoder of its protocol. Nothing may panic, and every error must be
//! typed. `plan.json`, the dataset, the checkpoint and the trace are
//! files, not frames:
//! each mutation is written to disk and loaded the way the program loads
//! it.

use enhanced_soups::distrib::control::{self, OP_ACK, OP_HEARTBEAT, OP_READY, OP_RESULT};
use enhanced_soups::distrib::{FaultArm, ShardPlan};
use enhanced_soups::gnn::model::init_params;
use enhanced_soups::gnn::{
    check_params, load_checkpoint, save_checkpoint, Checkpoint, ModelConfig,
};
use enhanced_soups::graph::{save_mmap_dataset, CsrGraph, Dataset, MmapDataset, Splits};
use enhanced_soups::obs::{diff, flame, trace};
use enhanced_soups::serve::proto::{self, Request, Response};
use enhanced_soups::store::frame::{write_frame, FrameBuf, Next};
use enhanced_soups::tensor::{SplitMix64, Tensor};
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

fn control_decoders(p: &[u8]) {
    assert_typed(control::split_op(p), "opcode");
    assert_typed(control::decode_control(p), "control");
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

/// A RESULT body as a worker sends it: one `ShardResult` as JSON.
const RESULT_JSON: &[u8] = br#"{"shard":3,"correct":11,"test_total":20,"val_accuracy":0.55,"test_accuracy":0.55,"wall_ms":812,"peak_rss_bytes":104857600,"ingredients":2,"resumed":0,"halo_nodes":37,"used_shm":true}"#;

#[test]
fn every_control_frame_survives_truncation_and_bit_flips() {
    let prefix = control::shard_epoch_payload(3, 1);
    let mut payloads: Vec<Vec<u8>> = [OP_READY, OP_HEARTBEAT]
        .iter()
        .map(|&op| [&[op][..], &prefix].concat())
        .collect();
    payloads.push([&[OP_RESULT][..], &prefix, RESULT_JSON].concat());
    payloads.push(vec![OP_ACK]);
    let (op, shard, epoch, rest) = control::decode_control(&payloads[2]).unwrap();
    assert_eq!((op, shard, epoch), (OP_RESULT, 3, 1));
    assert_eq!(rest, RESULT_JSON);
    let cases: usize = payloads
        .iter()
        .map(|p| fuzz(p, control::MAX_FRAME, &control_decoders))
        .sum();
    assert!(cases > 1_000, "only {cases} cases");
}

/// `plan.json` is the one file every worker trusts. Each truncation and
/// each single-bit flip of a valid plan, and each way ranges can fail to
/// tile the graph, must load as a typed `corrupt` error or as a plan
/// whose ranges still tile from node 0 — never as a panic.
#[test]
fn every_plan_json_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("soup-planfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut plan = ShardPlan {
        version: 1,
        dataset: "sharded.gmm".into(),
        k: 2,
        ranges: vec![(0, 86), (86, 176)],
        seed: 7,
        rounds: 2,
        arch: "gcn".into(),
        hidden: 8,
        layers: 2,
        dropout: 0.5,
        epochs: 4,
        lr: 0.01,
        strategy: "pls".into(),
        soup_epochs: 3,
        pls_k: 4,
        pls_r: 2,
        out_dir: dir.display().to_string(),
        no_shm: false,
        resume: false,
        worker_timeout_ms: 10_000,
        restart_budget: 2,
        chaos: Some(FaultArm {
            shard: 0,
            site: "durable.rename".into(),
            hit: 1,
            every_incarnation: false,
        }),
    };
    let path = plan.save().unwrap();
    let valid = std::fs::read(&path).unwrap();
    assert_eq!(ShardPlan::load(&path).unwrap().ranges, plan.ranges);

    let mut cases: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        cases.push(flipped);
    }
    let (mut ok, mut rejected) = (0, 0);
    for case in &cases {
        std::fs::write(&path, case).unwrap();
        match ShardPlan::load(&path) {
            Ok(p) => {
                ok += 1;
                assert_eq!(p.ranges.len(), p.k);
                assert_eq!(p.ranges.first().map_or(0, |r| r.0), 0);
                assert!(p.ranges.windows(2).all(|w| w[0].1 == w[1].0));
                assert!(p.ranges.iter().all(|&(s, e)| s <= e));
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(e.kind(), "corrupt", "untyped plan error {e}");
            }
        }
    }
    // Ranges that do not tile the graph: a gap, an overlap, a reversed
    // range, and a first range that does not start at node 0.
    let untiled = [
        vec![(0, 80), (86, 176)],
        vec![(0, 90), (86, 176)],
        vec![(0, 86), (176, 86)],
        vec![(1, 86), (86, 176)],
    ];
    for ranges in &untiled {
        plan.ranges = ranges.clone();
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let err = ShardPlan::load(&path).unwrap_err();
        assert!(err.to_string().contains("do not tile"), "{ranges:?}: {err}");
    }
    assert!(
        ok > 0 && rejected > 1_000,
        "{ok} loaded, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `soup-graphmmap/1` dataset is what every `--data` flag reads. Each
/// truncation and each single-bit flip of a valid file must open and load
/// as a valid dataset or fail with a typed `corrupt` error — never panic.
/// So must a header whose section counts overflow the address space
/// behind a valid header checksum.
#[test]
fn every_mmap_dataset_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("soup-mmapfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ds.gmm");
    let n = 12;
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
    let features = Tensor::from_vec(n, 3, (0..n * 3).map(|i| i as f32 * 0.25).collect());
    let labels = (0..n as u32).map(|v| v % 3).collect();
    let splits = Splits {
        train: (0..6).collect(),
        val: (6..9).collect(),
        test: (9..n).collect(),
    };
    let graph = CsrGraph::from_edges(n, &edges);
    let dataset = Dataset::from_parts(graph, features, labels, splits, 3);
    save_mmap_dataset(&dataset, &path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let load = |p: &std::path::Path| MmapDataset::open(p).and_then(|m| m.load());
    assert_eq!(load(&path).unwrap().labels, dataset.labels);

    let mut cases: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        cases.push(flipped);
    }
    // Counts that overflow once multiplied out, resealed with a valid crc.
    for (field, value) in [
        (16, u64::MAX),
        (16, u64::MAX / 8),
        (24, u64::MAX / 2),
        (32, 1 << 62),
    ] {
        let mut crafted = valid.clone();
        crafted[field..field + 8].copy_from_slice(&value.to_le_bytes());
        let crc = enhanced_soups::store::crc::crc32(&crafted[16..112]);
        crafted[12..16].copy_from_slice(&crc.to_le_bytes());
        cases.push(crafted);
    }
    let (mut ok, mut rejected) = (0, 0);
    for case in &cases {
        std::fs::write(&path, case).unwrap();
        match load(&path) {
            Ok(d) => {
                ok += 1;
                assert_eq!(d.num_nodes(), n);
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(e.kind(), "corrupt", "untyped dataset error {e}");
            }
        }
    }
    assert!(
        ok > 0 && rejected > 1_000,
        "{ok} loaded, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `soup-ckpt/2` checkpoint is what `eval --params`, `serve --params`
/// and `query --swap` read from a user's file. Each truncation and each
/// single-bit flip of a valid file, each bit flip of its payload behind a
/// resealed (valid) checksum, and a tensor shape whose element count
/// overflows must load as a typed error or as a checkpoint whose
/// parameters `check_params` judges — accepted (a flipped digit of a
/// weight is still a valid checkpoint) or rejected as a typed `shape`
/// error. Nothing may panic.
#[test]
fn every_checkpoint_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("soup-ckptfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.ck");
    let cfg = ModelConfig::gcn(2, 2).with_hidden(1);
    let params = init_params(&cfg, &mut SplitMix64::new(3));
    save_checkpoint(&Checkpoint::new(0, 9, 0.5, params), &path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let payload = enhanced_soups::store::open_envelope(&valid, "tiny.ck")
        .unwrap()
        .to_vec();
    check_params(&cfg, &load_checkpoint(&path).unwrap().params).unwrap();

    let flips = |bytes: &[u8]| -> Vec<Vec<u8>> {
        (0..bytes.len() * 8)
            .map(|bit| {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            })
            .collect()
    };
    let seal = enhanced_soups::store::seal_envelope;
    let mut cases: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    cases.extend(flips(&valid));
    cases.extend(flips(&payload).iter().map(|p| seal(p)));
    let text = String::from_utf8(payload.clone()).unwrap();
    let first = text.find("\"tensors\":[[").unwrap() + "\"tensors\":[".len();
    let end = first + text[first..].find("]]").unwrap() + 2;
    let huge = format!(
        "{}[4294967296,4294967296,[]]{}",
        &text[..first],
        &text[end..]
    );
    cases.push(seal(huge.as_bytes()));

    let (mut ok, mut rejected) = (0, 0);
    for case in &cases {
        std::fs::write(&path, case).unwrap();
        match load_checkpoint(&path).and_then(|ck| check_params(&cfg, &ck.params)) {
            Ok(()) => ok += 1,
            Err(e) => {
                rejected += 1;
                assert!(
                    matches!(e.kind(), "corrupt" | "checkpoint" | "shape"),
                    "untyped checkpoint error {e}"
                );
            }
        }
    }
    std::fs::write(&path, cases.last().unwrap()).unwrap();
    let err = load_checkpoint(&path).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "overflowing shape: {err}");
    assert!(
        ok > 0 && rejected > 1_000,
        "{ok} loaded, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const TRACE_HEADER: &str =
    "{\"type\":\"header\",\"schema\":\"soup-trace/1\",\"pid\":1,\"unix_time_s\":1}\n";
const DIGEST: &str = r#"{"count":1,"sum":5,"min":5,"max":5,"mean":5.0,"p50":5,"p95":5,"p99":5}"#;

/// A trace is external input to `soupctl trace-validate` and `soupctl obs`.
/// Each truncation and each single-bit flip of a valid trace holding one
/// record of every type must read as a typed `parse` error (or an `io`
/// error for bytes that are not UTF-8) or as a valid trace — never panic.
#[test]
fn every_trace_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("soup-tracefuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.trace.jsonl");
    let valid = format!(
        "{TRACE_HEADER}\
         {{\"type\":\"span\",\"path\":\"run/step\",\"ts_us\":10,\"dur_us\":5,\"tid\":0,\"cpu_us\":4,\"alloc_b\":64}}\n\
         {{\"type\":\"event\",\"name\":\"train.epoch\",\"ts_us\":20,\"tid\":0,\"fields\":{{\"epoch\":1,\"loss\":0.5}}}}\n\
         {{\"type\":\"log\",\"level\":\"info\",\"msg\":\"hi\",\"ts_us\":21,\"tid\":0}}\n\
         {{\"type\":\"sample\",\"seq\":0,\"ts_us\":30,\"tid\":1,\"rss_bytes\":4096,\
         \"counters\":{{\"c\":{{\"total\":3,\"delta\":3}}}},\"gauges\":{{\"g\":1.5}},\
         \"histograms\":{{\"h\":{DIGEST}}},\"spans\":{{\"run\":{DIGEST}}}}}\n\
         {{\"type\":\"metrics\",\"ts_us\":40,\"counters\":{{\"c\":3}},\"gauges\":{{\"g\":1.5}},\
         \"histograms\":{{\"h\":{DIGEST}}},\"spans\":{{\"run\":{DIGEST}}}}}\n"
    )
    .into_bytes();
    std::fs::write(&path, &valid).unwrap();
    let stats = trace::validate_file(&path).unwrap();
    assert_eq!((stats.spans, stats.events, stats.logs), (1, 1, 1));
    assert_eq!(stats.samples.len(), 1);
    assert!(stats.has_metrics);
    assert_eq!(trace::read_spans(&path).unwrap().len(), 1);

    let mut cases: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        cases.push(flipped);
    }
    let typed = |e: SoupError, what: &str| match &e {
        SoupError::Io { source, .. } => assert_eq!(
            source.kind(),
            std::io::ErrorKind::InvalidData,
            "{what}: untyped io error {e}"
        ),
        _ => assert_eq!(e.kind(), "parse", "{what}: untyped error {e}"),
    };
    let (mut ok, mut rejected) = (0, 0);
    for case in &cases {
        std::fs::write(&path, case).unwrap();
        match trace::validate_file(&path) {
            Ok(_) => ok += 1,
            Err(e) => {
                rejected += 1;
                typed(e, "validate_file");
            }
        }
        if let Err(e) = trace::read_spans(&path) {
            typed(e, "read_spans");
        }
    }
    assert!(
        ok > 0 && rejected > 1_000,
        "{ok} validated, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Numbers read from a trace are external input: `u64::MAX` durations, CPU
/// times and byte counts must saturate in every reader, not overflow.
#[test]
fn trace_readers_saturate_u64_max_values() {
    let dir = std::env::temp_dir().join(format!("soup-tracemax-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("max.trace.jsonl");
    let max = u64::MAX;
    // One tid per span keeps the per-thread ordering and nesting checks
    // out of the way: every sum below adds two u64::MAX values.
    let span = |path: &str, tid: u64| {
        format!(
            "{{\"type\":\"span\",\"path\":\"{path}\",\"ts_us\":0,\"dur_us\":{max},\
             \"tid\":{tid},\"cpu_us\":{max},\"alloc_b\":{max}}}\n"
        )
    };
    let content = [span("a/b", 0), span("a/c", 1), span("a", 2), span("a", 3)].concat();
    std::fs::write(&path, format!("{TRACE_HEADER}{content}")).unwrap();

    assert_eq!(trace::validate_file(&path).unwrap().spans, 4);
    let folded = flame::fold_trace(&path).unwrap();
    let self_us: Vec<(&str, u64)> = folded
        .iter()
        .map(|f| (f.stack.as_str(), f.self_us))
        .collect();
    assert_eq!(self_us, [("a", 0), ("a;b", max), ("a;c", max)]);
    let folded_stats = flame::validate_folded(&flame::render_folded(&folded)).unwrap();
    assert_eq!(folded_stats.total_us, max);
    let a = &diff::span_totals(&path).unwrap()["a"];
    assert_eq!(
        (a.calls, a.total_us, a.cpu_us, a.alloc_b),
        (2, max, max, max)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
