//! Serving-layer integration: protocol robustness against a live server,
//! concurrent-vs-offline bitwise identity, admission backpressure,
//! Zipf-skewed requests against the offline reference, and the
//! hot-swap-under-load guarantee.

use enhanced_soups::gnn::model::init_params;
use enhanced_soups::gnn::{
    predict_cached, save_checkpoint, Checkpoint, ModelConfig, PropCache, PropOps,
};
use enhanced_soups::prelude::*;
use enhanced_soups::serve::{Client, PredictResult, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_dataset() -> Dataset {
    DatasetKind::Flickr.generate_scaled(11, 0.12)
}

fn start_server(config: ServeConfig) -> (Server, Dataset, ModelConfig, ParamsFixture) {
    let dataset = small_dataset();
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(8);
    let mut rng = SplitMix64::new(7);
    let params = init_params(&cfg, &mut rng);
    let fixture = ParamsFixture {
        reference: {
            let ops = PropOps::prepare(cfg.arch, &dataset.graph);
            let cache = PropCache::new(&ops, &dataset.features);
            predict_cached(&cfg, &ops, &cache, &params)
        },
    };
    let server = Server::start(dataset.clone(), cfg.clone(), params, config).unwrap();
    (server, dataset, cfg, fixture)
}

struct ParamsFixture {
    /// Full-graph predictions of the served params through the offline
    /// cached path — the ground truth every served answer must match.
    reference: Vec<usize>,
}

#[test]
fn served_answers_are_bitwise_identical_to_unbatched_forwards() {
    let (server, dataset, _cfg, fixture) = start_server(ServeConfig::default());
    let addr = server.addr();
    let n = dataset.num_nodes() as u32;

    // Hammer from several threads so handlers answer concurrently, then
    // check every answer against the offline forward.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let reference = fixture.reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = SplitMix64::new(100 + t);
                for _ in 0..25 {
                    let nodes: Vec<u32> =
                        (0..3).map(|_| rng.next_below(n as usize) as u32).collect();
                    match client.predict(&nodes).unwrap() {
                        PredictResult::Classes { classes, .. } => {
                            let expected: Vec<u32> = nodes
                                .iter()
                                .map(|&id| reference[id as usize] as u32)
                                .collect();
                            assert_eq!(classes, expected, "served answer diverged for {nodes:?}");
                        }
                        PredictResult::Overloaded => panic!("default queue should not overflow"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    server.stop();
}

#[test]
fn garbage_frames_get_clean_errors_and_the_connection_survives() {
    use enhanced_soups::serve::proto::{self, decode_predictions, MAX_PREDICT};
    use enhanced_soups::serve::{Opcode, Request, Response, MAX_FRAME};
    use enhanced_soups::store::frame::{write_frame, FrameBuf, Next};

    let (server, _dataset, _cfg, _fixture) = start_server(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut buf = FrameBuf::new(MAX_FRAME);
    let mut call = |payload: &[u8]| {
        write_frame(&mut stream, MAX_FRAME, &[payload], None).unwrap();
        match buf.read_frame(&mut stream, None).unwrap() {
            Next::Frame(reply) => proto::decode_response(reply).unwrap(),
            other => panic!("no reply: {other:?}"),
        }
    };

    // Unknown opcode, empty payload, a truncated PREDICT body, and the
    // largest PREDICT the frame cap admits (whose reply would not fit a
    // frame) must all come back as ERROR frames — and the same
    // connection keeps working.
    let mut too_many = vec![Opcode::Predict as u8];
    too_many.extend_from_slice(&(MAX_PREDICT as u32 + 1).to_le_bytes());
    too_many.resize(too_many.len() + 4 * (MAX_PREDICT + 1), 0);
    for garbage in [vec![99u8], vec![], vec![1u8, 10, 0, 0, 0, 7], too_many] {
        let reply = call(&garbage);
        assert!(
            matches!(reply, Response::Error(_)),
            "payload of {} bytes got {reply:?}",
            garbage.len()
        );
    }
    assert!(
        matches!(
            call(&proto::encode_request(&Request::Ping)),
            Response::Ok(_)
        ),
        "connection died after garbage"
    );
    // Exactly MAX_PREDICT ids get a readable OK reply.
    let reply = call(&proto::encode_request(&Request::Predict(vec![
        0;
        MAX_PREDICT
    ])));
    let Response::Ok(body) = reply else {
        panic!("largest legal PREDICT got {reply:?}")
    };
    assert_eq!(decode_predictions(&body).unwrap().1.len(), MAX_PREDICT);
    server.stop();
}

#[test]
fn out_of_range_node_is_an_error_not_a_panic() {
    let (server, dataset, _cfg, _fixture) = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.predict(&[dataset.num_nodes() as u32]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    // Server still serves valid requests afterwards.
    assert!(matches!(
        client.predict(&[0]).unwrap(),
        PredictResult::Classes { .. }
    ));
    server.stop();
}

#[test]
fn zipf_skewed_requests_match_the_offline_reference() {
    // The end-to-end benchmark imports this sampler from the `soup_serve`
    // crate root; moving or deleting it must fail here, not only there.
    use enhanced_soups::serve::ZipfSampler;

    let (server, dataset, _cfg, fixture) = start_server(ServeConfig::default());
    let zipf = ZipfSampler::new(dataset.num_nodes(), 1.0);
    let mut rng = SplitMix64::new(42);
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..50 {
        let nodes: Vec<u32> = (0..4).map(|_| zipf.sample(&mut rng) as u32).collect();
        let PredictResult::Classes { classes, .. } = client.predict(&nodes).unwrap() else {
            panic!("default queue should not overflow");
        };
        let expected: Vec<u32> = nodes
            .iter()
            .map(|&id| fixture.reference[id as usize] as u32)
            .collect();
        assert_eq!(classes, expected, "answer diverged for {nodes:?}");
    }
    server.stop();
}

#[test]
fn overload_answers_overloaded_and_recovers() {
    use enhanced_soups::serve::proto::MAX_PREDICT;

    // One PREDICT at a time: concurrent requests must overflow it. Each is
    // the largest one a frame admits, so admitted answers overlap.
    let (server, dataset, _cfg, _fixture) = start_server(ServeConfig {
        queue_depth: 1,
        workers: 8,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let nodes: Arc<Vec<u32>> = Arc::new(
        (0..MAX_PREDICT)
            .map(|i| (i % dataset.num_nodes()) as u32)
            .collect(),
    );
    let overloaded = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let overloaded = overloaded.clone();
            let nodes = nodes.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..20 {
                    if client.predict(&nodes).unwrap() == PredictResult::Overloaded {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "a one-deep admission limit under 8 concurrent clients never overflowed"
    );
    // Recovery: once the burst is gone a fresh request is served.
    let mut client = Client::connect(addr).unwrap();
    let mut served = false;
    for _ in 0..50 {
        if matches!(client.predict(&[0]).unwrap(), PredictResult::Classes { .. }) {
            served = true;
            break;
        }
    }
    assert!(served, "server did not recover after overload");
    server.stop();
}

#[test]
fn hot_swap_under_load_loses_nothing_and_never_serves_stale() {
    let (server, dataset, cfg, fixture) = start_server(ServeConfig {
        queue_depth: 256,
        // 4 loader connections are persistent; the admin connection needs
        // its own worker or the swap request never gets accepted.
        workers: 6,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // The checkpoint that will be promoted mid-flight, and the offline
    // forward of each version: v1 serves the fixture's params, v2 the
    // checkpoint's.
    let dir = std::env::temp_dir().join(format!("soup-serve-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck_path = dir.join("promoted.ck");
    let mut rng = SplitMix64::new(999);
    let new_params = init_params(&cfg, &mut rng);
    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    let cache = PropCache::new(&ops, &dataset.features);
    let promoted = predict_cached(&cfg, &ops, &cache, &new_params);
    save_checkpoint(&Checkpoint::new(0, 999, 0.9, new_params), &ck_path).unwrap();
    let references = Arc::new([fixture.reference, promoted]);

    let swapped = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let n = dataset.num_nodes();

    // Sustained load: every request must be served (no drops, no errors),
    // every reply's classes must be its reported version's, and any request
    // *started after the promote ack* must be answered by the new version.
    let loaders: Vec<_> = (0..4)
        .map(|t| {
            let swapped = swapped.clone();
            let stop = stop.clone();
            let references = references.clone();
            std::thread::spawn(move || -> (u64, u64) {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = SplitMix64::new(313 + t);
                let (mut served, mut after_ack_old) = (0u64, 0u64);
                while !stop.load(Ordering::Acquire) {
                    let sent_after_ack = swapped.load(Ordering::Acquire);
                    let nodes: Vec<u32> = (0..3).map(|_| rng.next_below(n) as u32).collect();
                    match client.predict(&nodes).unwrap() {
                        PredictResult::Classes { version, classes } => {
                            served += 1;
                            if sent_after_ack && version < 2 {
                                after_ack_old += 1;
                            }
                            assert!((1..=2).contains(&version), "unknown version {version}");
                            let reference = &references[version as usize - 1];
                            let expected: Vec<u32> = nodes
                                .iter()
                                .map(|&id| reference[id as usize] as u32)
                                .collect();
                            assert_eq!(
                                classes, expected,
                                "version {version} answered with another version's classes"
                            );
                        }
                        PredictResult::Overloaded => {
                            // Deep queue: treat as a failure, nothing may drop.
                            panic!("request rejected during swap test");
                        }
                    }
                }
                (served, after_ack_old)
            })
        })
        .collect();

    // Let traffic build up, then promote.
    std::thread::sleep(Duration::from_millis(100));
    let mut admin = Client::connect(addr).unwrap();
    let version = admin.swap(ck_path.to_str().unwrap()).unwrap();
    assert_eq!(version, 2, "first promotion must be version 2");
    swapped.store(true, Ordering::Release);

    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);
    let mut total_served = 0;
    for h in loaders {
        let (served, after_ack_old) = h.join().unwrap();
        assert_eq!(
            after_ack_old, 0,
            "a request sent after the promote ack was served by the old model"
        );
        total_served += served;
    }
    assert!(
        total_served > 0,
        "load generators never got a request through"
    );

    // The promoted model is actually the checkpoint's.
    let reference = &references[1];
    match admin.predict(&[0, 1, 2, 3]).unwrap() {
        PredictResult::Classes { version, classes } => {
            assert_eq!(version, 2);
            let expected: Vec<u32> = [0usize, 1, 2, 3]
                .iter()
                .map(|&i| reference[i] as u32)
                .collect();
            assert_eq!(
                classes, expected,
                "promoted model does not serve the checkpoint"
            );
        }
        PredictResult::Overloaded => panic!("post-swap request rejected"),
    }
    std::fs::remove_dir_all(&dir).ok();
    server.stop();
}

#[test]
fn shutdown_opcode_stops_the_server() {
    let (server, _dataset, _cfg, _fixture) = start_server(ServeConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.join(); // must return, not hang
                   // New connections are refused or die immediately.
    let alive = Client::connect(addr).and_then(|mut c| c.ping()).is_ok();
    assert!(!alive, "server still answering after shutdown");
}

#[test]
fn stalled_and_idle_clients_are_reaped_not_pinned() {
    // One worker thread: if a dead client pinned its handler forever, the
    // healthy client that follows could never be served.
    let (server, _dataset, _cfg, _fixture) = start_server(ServeConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut buf = [0u8; 8];

    // Slow-loris: declare a 100-byte frame, deliver 3 bytes, go silent.
    // The server must cut the connection after at most ~2x idle_timeout.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut stalled, &100u32.to_le_bytes()).unwrap();
    std::io::Write::write_all(&mut stalled, b"abc").unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    let n = std::io::Read::read(&mut stalled, &mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server answered a stalled half-frame");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stalled connection held for {:?}",
        t0.elapsed()
    );

    // The lone worker is free again: a healthy client gets served.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    drop(client);

    // A connection that never sends anything is reaped as idle, too.
    let mut idle = std::net::TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    let n = std::io::Read::read(&mut idle, &mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server answered a connection that sent nothing");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "idle connection held for {:?}",
        t0.elapsed()
    );

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    drop(client);
    server.stop();
}
