//! The serving read path is a table lookup: the full-graph forward runs once
//! per promoted version (startup, SWAP, RESOUP) and never per request, and
//! parameters of the wrong architecture are refused before any forward is
//! attempted, at start-up and on promotion.
//!
//! One `#[test]` on purpose: part (a) counts forwards through the
//! process-global `soup.cache.prop_hits` counter, which any other test in
//! the same binary would also bump.

use enhanced_soups::gnn::model::init_params;
use enhanced_soups::gnn::{
    predict_cached, save_checkpoint, Checkpoint, ModelConfig, ParamSet, PropCache, PropOps,
};
use enhanced_soups::prelude::*;
use enhanced_soups::serve::{Client, PredictResult, ServeConfig, Server};
use enhanced_soups::soup::{write_manifest, Manifest, ManifestEntry};
use std::path::Path;

fn save(path: &Path, id: usize, params: &ParamSet) -> String {
    save_checkpoint(
        &Checkpoint::new(id, 40 + id as u64, 0.5, params.clone()),
        path,
    )
    .unwrap();
    path.to_str().unwrap().to_string()
}

/// PREDICT every node in one request; the reply must carry `version` and
/// exactly the offline `reference` classes.
fn assert_serves(client: &mut Client, version: u64, reference: &[usize], what: &str) {
    let all: Vec<u32> = (0..reference.len() as u32).collect();
    match client.predict(&all).unwrap() {
        PredictResult::Classes {
            version: got,
            classes,
        } => {
            assert_eq!(got, version, "{what}: wrong version");
            let expected: Vec<u32> = reference.iter().map(|&c| c as u32).collect();
            assert_eq!(classes, expected, "{what}: classes differ from offline");
        }
        PredictResult::Overloaded => panic!("{what}: request refused"),
    }
}

#[test]
fn predictions_come_from_one_forward_per_promoted_version() {
    let dataset = DatasetKind::Flickr.generate_scaled(11, 0.12);
    let n = dataset.num_nodes();
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(8);
    // Three distinct parameter sets: start-up, SWAP and the RESOUP pool.
    let params: Vec<ParamSet> = (0..3)
        .map(|i| init_params(&cfg, &mut SplitMix64::new(5 + i)))
        .collect();
    let dir = std::env::temp_dir().join(format!("soup-serve-table-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Every offline reference is computed up front, so the forwards counted
    // below are the server's alone.
    let ops = PropOps::prepare(cfg.arch, &dataset.graph);
    let cache = PropCache::new(&ops, &dataset.features);
    let reference: Vec<Vec<usize>> = params
        .iter()
        .map(|p| predict_cached(&cfg, &ops, &cache, p))
        .collect();
    let pool: Vec<Ingredient> = [&params[1], &params[2]]
        .iter()
        .enumerate()
        .map(|(id, p)| Ingredient::new(id, (*p).clone(), 0.5, 40 + id as u64))
        .collect();
    let us_params = UniformSouping.soup(&pool, &dataset, &cfg, 3).params;
    let us_reference = predict_cached(&cfg, &ops, &cache, &us_params);
    // The RESOUP pool is parameter sets 1 and 2; SWAP promotes the first.
    let swap_path = save(&dir.join("ingredient-0.ck"), 0, &params[1]);
    save(&dir.join("ingredient-1.ck"), 1, &params[2]);
    let entry = |id: usize| ManifestEntry {
        id,
        val_accuracy: 0.5,
        train_seed: 40 + id as u64,
        file: format!("ingredient-{id}.ck"),
    };
    write_manifest(
        &dir.join("manifest.json"),
        &Manifest {
            config: cfg.clone(),
            ingredients: vec![entry(0), entry(1)],
        },
    )
    .unwrap();
    let wide = init_params(&cfg.clone().with_hidden(16), &mut SplitMix64::new(1));
    let wide_path = save(&dir.join("wide.ck"), 0, &wide);

    let server = Server::start(
        dataset.clone(),
        cfg.clone(),
        params[0].clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    let forwards = enhanced_soups::obs::registry::counter("soup.cache.prop_hits");

    // (a) No forward on the read path: 200 PREDICTs over two connections
    // leave the cached-forward counter where start-up put it.
    let before = forwards.get();
    let readers: Vec<_> = (0..2u64)
        .map(|t| {
            let reference = reference[0].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = SplitMix64::new(100 + t);
                for _ in 0..100 {
                    let nodes: Vec<u32> = (0..3).map(|_| rng.next_below(n) as u32).collect();
                    let expected: Vec<u32> = nodes
                        .iter()
                        .map(|&id| reference[id as usize] as u32)
                        .collect();
                    assert_eq!(
                        client.predict(&nodes).unwrap(),
                        PredictResult::Classes {
                            version: 1,
                            classes: expected
                        }
                    );
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(forwards.get(), before, "a PREDICT ran a forward");

    // (b) SWAP: exactly one forward, and the next request gets the promoted
    // checkpoint's offline predictions for every node.
    let mut client = Client::connect(addr).unwrap();
    assert_serves(&mut client, 1, &reference[0], "startup");
    assert_eq!(client.swap(&swap_path).unwrap(), 2);
    assert_eq!(forwards.get(), before + 1, "SWAP is one forward");
    assert_serves(&mut client, 2, &reference[1], "after SWAP");

    // (c) Reject before forward: another hidden width is an ERROR, the live
    // version and its answers are untouched, the connection survives. A
    // server started on such parameters is a `shape` error, not a panic.
    let err = client.swap(&wide_path).unwrap_err().to_string();
    assert!(err.contains("architecture"), "unexpected error: {err}");
    let err = Server::start(dataset, cfg, wide, ServeConfig::default())
        .err()
        .expect("a server started on parameters that do not fit its config");
    assert_eq!(err.kind(), "shape", "unexpected error: {err}");
    assert_eq!(
        forwards.get(),
        before + 1,
        "a refused SWAP or start-up ran a forward"
    );
    assert_eq!(server.version(), 2);
    assert_serves(&mut client, 2, &reference[1], "after refused SWAP");

    // (b) RESOUP promotes through the same funnel.
    assert_eq!(client.resoup("us", dir.to_str().unwrap(), 3).unwrap(), 3);
    assert_serves(&mut client, 3, &us_reference, "after RESOUP");

    // STATS reports where the forward's cost now lives, from one digest.
    let stats = client.stats().unwrap();
    let json: serde_json::JsonValue = serde_json::from_str(&stats).unwrap();
    let field = |key: &str| json.get(key).and_then(|v| v.as_u64()).expect(key);
    assert!(field("table_build_p50_us") > 0, "{stats}");
    assert!(
        field("latency_p50_us") <= field("latency_p99_us"),
        "{stats}"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
