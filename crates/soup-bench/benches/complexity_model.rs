//! Ablation bench (A5): measured full-graph forward and forward+backward
//! pass costs on flickr and reddit, the `F_v` and `B_v` terms of the §III-E
//! complexity model. Nothing combines them with `soup_core::complexity`
//! yet; the model is checked only by `tests/paper_claims.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soup_gnn::model::{forward, init_params, PropOps};
use soup_gnn::params::ParamVars;
use soup_gnn::{Arch, ModelConfig};
use soup_graph::DatasetKind;
use soup_tensor::tape::Tape;
use soup_tensor::SplitMix64;

fn bench_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_graph_pass");
    group.sample_size(10);
    for kind in [DatasetKind::Flickr, DatasetKind::Reddit] {
        let d = kind.generate_scaled(42, 0.2);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(64);
        let mut rng = SplitMix64::new(1);
        let params = init_params(&cfg, &mut rng);
        let ops = PropOps::prepare(Arch::Gcn, &d.graph);

        group.bench_with_input(
            BenchmarkId::new("forward", kind.name()),
            &kind,
            |bench, _| {
                bench.iter(|| {
                    let tape = Tape::new();
                    let vars = ParamVars::register(&tape, &params, false);
                    let x = tape.constant(d.features.clone());
                    let mut no_rng = SplitMix64::new(0);
                    std::hint::black_box(tape.value(forward(
                        &tape,
                        &cfg,
                        &ops,
                        None,
                        x,
                        &vars.layers,
                        false,
                        &mut no_rng,
                    )))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("forward_backward", kind.name()),
            &kind,
            |bench, _| {
                bench.iter(|| {
                    let tape = Tape::new();
                    let vars = ParamVars::register(&tape, &params, true);
                    let x = tape.constant(d.features.clone());
                    let mut no_rng = SplitMix64::new(0);
                    let logits =
                        forward(&tape, &cfg, &ops, None, x, &vars.layers, false, &mut no_rng);
                    let loss = tape.cross_entropy_masked(logits, &d.labels, &d.splits.val);
                    std::hint::black_box(tape.backward(loss))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_passes);
criterion_main!(benches);
