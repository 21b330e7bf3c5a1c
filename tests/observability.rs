//! Golden-file test of the observability layer: drive the full pipeline
//! (Phase-1 distributed training, then LS and PLS souping) with a trace sink
//! open and the metrics sampler writing into it, then check the emitted
//! JSONL against the documented schema — record types, required fields,
//! span paths, event names, per-span resource attribution, the `sample`
//! records, the folded-stack flamegraph export and the span diff.

use enhanced_soups::obs;
use enhanced_soups::prelude::*;
use soup_core::LearnedHyper;

#[test]
fn end_to_end_trace_matches_documented_schema() {
    let dir = std::env::temp_dir().join(format!("soup_obs_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("run.trace.jsonl");

    obs::trace::init(&trace_path).unwrap();
    enhanced_soups::tensor::memory::install_obs_probe();
    obs::series::start(std::time::Duration::from_millis(5)).unwrap();
    let dataset = DatasetKind::Flickr.generate_scaled(11, 0.15);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(8);
    let tc = TrainConfig {
        epochs: 4,
        early_stop_patience: None,
        ..TrainConfig::quick()
    };
    let ingredients = train_ingredients(&dataset, &cfg, &tc, 3, 2, 7);
    // LS first, then PLS, in one process: both run the same α-loop, whose
    // per-strategy metric handles must not stick to whichever ran first.
    let ls = LearnedSouping::new(LearnedHyper {
        epochs: 3,
        ..Default::default()
    });
    let ls_outcome = ls.soup(&ingredients, &dataset, &cfg, 3);
    assert_eq!(ls_outcome.stats.epochs, 3);
    let pls = PartitionLearnedSouping::new(
        LearnedHyper {
            epochs: 5,
            ..Default::default()
        },
        4,
        2,
    );
    let outcome = pls.soup(&ingredients, &dataset, &cfg, 3);
    assert!((0.0..=1.0).contains(&outcome.val_accuracy));
    obs::info!("golden run complete");
    let written = obs::trace::finish().expect("sink was active");
    assert_eq!(written, trace_path);

    let stats = obs::trace::validate_file(&trace_path).expect("trace must be schema-valid");

    // Phase 1 span tree: per-worker roots with per-task training spans.
    for path in [
        "distrib.phase1",
        "worker",
        "worker/ingredient",
        "worker/ingredient/train",
        "worker/ingredient/train/epoch",
    ] {
        assert!(
            stats.span_paths.iter().any(|p| p == path),
            "missing span path {path}"
        );
    }
    // Phase 2 span tree: measured mixing with partitioner phases inside.
    for path in [
        "soup.mix",
        "soup.mix/soup.ls",
        "soup.mix/soup.pls",
        "soup.mix/partition.coarsen",
        "soup.mix/partition.initial",
        "soup.mix/partition.refine",
    ] {
        assert!(
            stats.span_paths.iter().any(|p| p == path),
            "missing span path {path}"
        );
    }
    // Structured events from both phases.
    for name in [
        "distrib.start",
        "train.start",
        "train.epoch",
        "train.done",
        "distrib.worker.done",
        "distrib.done",
        "partition.done",
        "soup.ls.epoch",
        "soup.pls.epoch",
        "soup.measured",
    ] {
        assert!(
            stats.event_names.iter().any(|e| e == name),
            "missing event {name}"
        );
    }
    // 3 ingredients × 4 epochs of per-epoch telemetry, 3 LS + 5 PLS epochs.
    assert!(
        stats.events >= 12 + 3 + 5,
        "too few events: {}",
        stats.events
    );
    assert!(stats.logs >= 1, "log line was not mirrored into the trace");
    assert!(stats.has_metrics, "final metrics record missing");

    // The final metrics record carries the kernel counters and the
    // per-worker queue metrics accumulated during the run.
    let metrics = obs::registry::snapshot();
    let counter = |n: &str| {
        metrics
            .counters
            .iter()
            .find(|(name, _)| name == n)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert!(counter("tensor.matmul.calls") > 0);
    assert!(counter("tensor.spmm.calls") > 0);
    assert_eq!(counter("distrib.tasks_completed"), 3);
    assert_eq!(counter("soup.ls.epochs"), 3);
    assert_eq!(counter("soup.pls.epochs"), 5);
    assert!(
        metrics
            .counters
            .iter()
            .any(|(n, _)| n.starts_with("distrib.worker.") && n.ends_with(".tasks")),
        "per-worker task counters missing"
    );
    assert!(
        metrics
            .histograms
            .iter()
            .any(|(n, _)| n == "distrib.queue.claim_wait_ns"),
        "queue wait histogram missing"
    );

    // The summary report renders the span tree with the latency and
    // resource-attribution columns.
    let report = obs::report::render();
    assert!(report.contains("soup.mix"));
    assert!(report.contains("P95"));
    assert!(report.contains("CPU"));
    assert!(report.contains("ALLOC"));

    // Per-span resource attribution made it into the trace: training spans
    // carry thread-CPU and tensor-allocation deltas alongside wall time.
    let spans = obs::trace::read_spans(&trace_path).expect("span records parse");
    let train_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.path == "worker/ingredient/train")
        .collect();
    assert_eq!(train_spans.len(), 3, "one train span per ingredient");
    assert!(
        train_spans.iter().all(|s| s.cpu_us.is_some()),
        "train spans missing CPU attribution"
    );
    assert!(
        train_spans.iter().all(|s| s.alloc_b.is_some_and(|b| b > 0)),
        "train spans allocated tensors, attribution must be non-zero"
    );

    // The samples are schema-valid, all precede the closing `metrics`
    // record, and saw the kernels: summed matmul counter deltas equal the
    // final counter total.
    let content = std::fs::read_to_string(&trace_path).unwrap();
    assert!(
        content
            .lines()
            .last()
            .unwrap()
            .contains(r#""type":"metrics""#),
        "`metrics` must be the last record"
    );
    assert!(!stats.samples.is_empty());
    let delta_sum: u64 = stats
        .samples
        .iter()
        .flat_map(|s| &s.counters)
        .filter(|(n, _, _)| n == "tensor.matmul.calls")
        .map(|(_, _, delta)| delta)
        .sum();
    assert_eq!(delta_sum, counter("tensor.matmul.calls"));
    let last = stats.samples.last().unwrap();
    assert!(last.rss_bytes > 0, "RSS gauge missing");
    assert!(
        last.gauge("tensor.mem.peak_bytes").is_some_and(|v| v > 0.0),
        "pool probe gauges missing from the samples"
    );

    // The trace folds into a validator-clean flamegraph whose stacks cover
    // both phases.
    let folded_path = dir.join("run.folded");
    let stacks = obs::flame::write_folded(&trace_path, &folded_path).expect("flame export");
    assert!(stacks > 0);
    let folded = std::fs::read_to_string(&folded_path).unwrap();
    let flame_stats = obs::flame::validate_folded(&folded).expect("folded output round-trips");
    assert_eq!(flame_stats.stacks, stacks);
    assert!(folded.contains("worker;ingredient;train;epoch"));
    assert!(folded.contains("soup.mix;soup.pls"));

    // A self-diff of the trace is all-noise: nothing regresses against
    // itself.
    let diff = obs::diff::diff_traces(&trace_path, &trace_path, obs::diff::DEFAULT_NOISE)
        .expect("diff parses both traces");
    assert!(!diff.has_regressions());
    assert!(diff.entries.iter().all(|e| e.ratio == 1.0));

    std::fs::remove_dir_all(&dir).ok();
}
