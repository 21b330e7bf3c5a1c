//! One fuzz harness for every wire decoder: serve requests/responses and
//! predictions bodies, the shard `plan.json` every worker loads and the
//! `result.json` every worker leaves for the supervisor, the
//! `soup-graphmmap/1` dataset every `--data` flag reads, the `soup-ckpt/2`
//! checkpoint that `eval --params`, `serve --params` and `query --swap`
//! read, the `manifest.json` of every pool — and the `soup-trace/1` reader
//! behind `soupctl trace-validate` and `soupctl obs`.
//!
//! Each valid frame is truncated at every offset and has every bit flipped.
//! Every result is framed two ways — the blocking reader over a byte slice,
//! and the same reader over a stream that hands out one byte per read —
//! which must agree frame for frame and end the same way; then every
//! payload goes through every decoder of its protocol. Nothing may panic,
//! and every error must be typed. The other inputs are files, not frames:
//! each mutation is written to disk and loaded the way the program loads
//! it.

use enhanced_soups::distrib::{FaultArm, ShardPlan, ShardResult};
use enhanced_soups::gnn::model::init_params;
use enhanced_soups::gnn::{
    check_params, checkpoint_name, load_checkpoint, save_checkpoint, Checkpoint, ModelConfig,
};
use enhanced_soups::graph::{save_mmap_dataset, CsrGraph, Dataset, MmapDataset, Splits};
use enhanced_soups::obs::{diff, flame, trace};
use enhanced_soups::serve::proto::{self, Request, Response};
use enhanced_soups::soup::{load_manifest, write_manifest, Manifest, ManifestEntry};
use enhanced_soups::store::frame::{write_frame, FrameBuf, Next, TimedRead};
use enhanced_soups::tensor::{SplitMix64, Tensor};
use enhanced_soups::SoupError;
use std::io::Read;
use std::path::Path;
use std::time::Duration;

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

/// A stream that hands out one byte per read.
struct Drip<'a>(&'a [u8]);

impl Read for Drip<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let Some((&b, rest)) = self.0.split_first() else {
            return Ok(0);
        };
        (out[0], self.0) = (b, rest);
        Ok(1)
    }
}

impl TimedRead for Drip<'_> {
    fn set_read_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

/// Frames through the blocking reader over a stream one byte at a time.
fn bytewise(wire: &[u8], cap: usize) -> (Vec<Vec<u8>>, End) {
    let (mut r, mut buf, mut frames) = (Drip(wire), FrameBuf::new(cap), Vec::new());
    loop {
        match buf.read_frame(&mut r, None) {
            Ok(Next::Frame(p)) => frames.push(p.to_vec()),
            Ok(Next::Closed) => return (frames, End::Closed),
            Ok(Next::Idle) => panic!("a drip never idles"),
            Err(e) => return (frames, End::Error(error_kind(&e))),
        }
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
    write_frame(&mut wire, cap, &[payload]).unwrap();
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

/// Every truncation and every single-bit flip of `valid`, each written to
/// `path` in turn and handed to `load`.
fn each_mutation(path: &Path, valid: &[u8], mut load: impl FnMut(&Path)) {
    let truncations = (0..valid.len()).map(|cut| valid[..cut].to_vec());
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut flipped = valid.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    for case in truncations.chain(flips) {
        std::fs::write(path, case).unwrap();
        load(path);
    }
}

/// A `result.json` as a worker leaves it: one `ShardResult` as JSON.
const RESULT_JSON: &[u8] = br#"{"shard":3,"correct":11,"test_total":20,"val_accuracy":0.55,"test_accuracy":0.55,"wall_ms":812,"peak_rss_bytes":104857600,"ingredients":2,"resumed":0,"halo_nodes":37,"used_shm":true}"#;

/// `result.json` is how a worker reports: the supervisor takes a worker
/// that exits 0 as done only if the file decodes to shard 3's result.
/// Each truncation and each single-bit flip must read as a typed
/// `corrupt` error or as shard 3's result with no more correct than test
/// nodes — never a panic.
#[test]
fn every_shard_result_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("soup-resultfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("result.json");
    std::fs::write(&path, RESULT_JSON).unwrap();
    assert_eq!(ShardResult::load(&path, 3).unwrap().correct, 11);
    let err = ShardResult::load(&path, 2).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "another shard's result: {err}");

    let (mut ok, mut rejected) = (0, 0);
    each_mutation(&path, RESULT_JSON, |path| {
        match ShardResult::load(path, 3) {
            Ok(r) => {
                ok += 1;
                assert_eq!(r.shard, 3);
                assert!(r.correct <= r.test_total, "{r:?}");
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(e.kind(), "corrupt", "untyped result error {e}");
            }
        }
    });
    assert!(
        ok > 0 && rejected > 1_000,
        "{ok} loaded, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `manifest.json` is what every pool reader (`soup`, `eval`, `serve`,
/// `verify`, a resoup) loads first. Each truncation and each single-bit
/// flip of a valid manifest must load as a typed error or as a
/// configuration and ingredients that `check_params` accepts — never a
/// panic, and never parameters that do not fit the configuration.
#[test]
fn every_manifest_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("soup-manifestfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ModelConfig::gcn(2, 2).with_hidden(1);
    let mut manifest = Manifest {
        config: cfg.clone(),
        ingredients: Vec::new(),
    };
    for id in 0..2 {
        let params = init_params(&cfg, &mut SplitMix64::new(id as u64));
        let file = checkpoint_name(id);
        save_checkpoint(&Checkpoint::new(id, 9, 0.5, params), dir.join(&file)).unwrap();
        manifest.ingredients.push(ManifestEntry {
            id,
            val_accuracy: 0.5,
            train_seed: 9,
            file,
        });
    }
    let path = dir.join("manifest.json");
    write_manifest(&path, &manifest).unwrap();
    let valid = std::fs::read(&path).unwrap();
    assert_eq!(load_manifest(&dir).unwrap().1.len(), 2);

    let (mut ok, mut rejected) = (0, 0);
    each_mutation(&path, &valid, |_| match load_manifest(&dir) {
        Ok((cfg, ingredients)) => {
            ok += 1;
            assert!(!ingredients.is_empty());
            for ing in &ingredients {
                check_params(&cfg, &ing.params)
                    .unwrap_or_else(|e| panic!("ingredient {} does not fit: {e}", ing.id));
            }
        }
        Err(e) => {
            rejected += 1;
            assert!(
                matches!(e.kind(), "parse" | "corrupt" | "checkpoint"),
                "untyped manifest error {e}"
            );
        }
    });
    assert!(
        ok > 0 && rejected > 1_000,
        "{ok} loaded, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
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

    let (mut ok, mut rejected) = (0, 0);
    each_mutation(&path, &valid, |path| match ShardPlan::load(path) {
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
    });
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
