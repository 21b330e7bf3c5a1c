//! The §III-E scaling claim, measured: GIS souping time is `O(N·g·F_v)` —
//! linear in the ingredient count — while LS is `O(e·(F_v+B_v))`,
//! *independent of N* (the per-epoch cost gains only the cheap Eq. 3
//! parameter mix per extra ingredient). Criterion output should show GIS
//! time roughly doubling from N=4 to N=8 to N=16 while LS stays nearly
//! flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soup_bench::harness::{train_pool, ExperimentPreset};
use soup_core::{GisSouping, LearnedHyper, LearnedSouping, SoupStrategy};
use soup_gnn::{Arch, ModelConfig};
use soup_graph::DatasetKind;

fn bench_scaling(c: &mut Criterion) {
    let mut preset = ExperimentPreset::quick();
    preset.train_epochs = 6;
    preset.ingredients = 16;
    let dataset = DatasetKind::Flickr.generate_scaled(42, preset.dataset_scale);
    let cfg = ModelConfig::for_arch(Arch::Gcn, dataset.num_features(), dataset.num_classes());
    let pool = train_pool(&dataset, &cfg, &preset, 42);

    let hyper = LearnedHyper {
        epochs: 10,
        ..Default::default()
    };
    let mut group = c.benchmark_group("ingredient_scaling");
    group.sample_size(10);
    for &n in &[4usize, 8, 16] {
        let ingredients = &pool[..n];
        group.bench_with_input(BenchmarkId::new("GIS_g10", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(GisSouping::new(10).soup(ingredients, &dataset, &cfg, 1))
            })
        });
        group.bench_with_input(BenchmarkId::new("LS_e10", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(LearnedSouping::new(hyper).soup(
                    ingredients,
                    &dataset,
                    &cfg,
                    1,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
