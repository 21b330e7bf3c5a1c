//! The paper's evaluation as named sections. Each section runs its
//! experiment once and returns the tables it feeds; the `experiments`
//! binary prints them as markdown and writes them to `results/`.

use crate::harness::{mixed_pool, run_cell, train_config, train_pool};
use crate::harness::{ExperimentPreset, StrategyResult, Table};
use crate::row;
use soup_core::diversity::diversity_report;
use soup_core::ensemble::{compare_soup_vs_ensemble, InferenceCost};
use soup_core::strategy::test_accuracy;
use soup_core::{GisSouping, LearnedHyper, LearnedSouping, PartitionLearnedSouping};
use soup_core::{PartitionerKind, SoupStrategy};
use soup_distrib::{predicted_total_time, simulate_schedule, train_ingredients_opts, TrainOpts};
use soup_gnn::{Arch, ModelConfig};
use soup_graph::stats::{clustering_coefficient, degree_stats};
use soup_graph::synth::edge_homophily;
use soup_graph::{Dataset, DatasetKind};
use soup_partition::quality::subset_counts;
use soup_partition::PartitionConfig;
use soup_partition::{bfs_partition, edge_cut, partition_val_balanced, random_partition};

/// A section: one experiment and the tables it writes.
pub type Section = fn(&ExperimentPreset) -> Vec<Table>;

/// Every section, in the order `experiments` runs them when none is named.
pub const SECTIONS: &[(&str, Section)] = &[
    ("table1", table1),
    ("grid", grid),
    ("rk", rk),
    ("granularity", granularity),
    ("lr", lr),
    ("workers", workers),
    ("dropout", dropout),
    ("diversity", diversity),
    ("partitioner", partitioner),
    ("ensemble", ensemble),
];

/// Dataset, training and partitioning seed of every section.
const SEED: u64 = 42;

fn f4(x: f64) -> String {
    format!("{x:.4}")
}

fn secs(outcome: &soup_core::SoupOutcome) -> String {
    f4(outcome.stats.wall_time.as_secs_f64())
}

/// `kind` at the preset's scale with the GCN of the grid, which every
/// ablation uses.
fn gcn(kind: DatasetKind, p: &ExperimentPreset) -> (Dataset, ModelConfig) {
    let d = kind.generate_scaled(SEED, p.dataset_scale);
    let cfg = ModelConfig::for_arch(Arch::Gcn, d.num_features(), d.num_classes());
    (d, cfg)
}

/// Table I: dataset details of the four synthetic benchmarks.
fn table1(p: &ExperimentPreset) -> Vec<Table> {
    let header = "dataset,nodes,edges,classes,split,homophily,max_degree,degree_gini,clustering";
    let mut t = Table::new("table1", header);
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, p.dataset_scale);
        let (name, nodes, edges, classes, split) = d.table1_row();
        let deg = degree_stats(&d.graph);
        let cc = clustering_coefficient(&d.graph, 500, SEED);
        let h = f4(edge_homophily(&d.graph, &d.labels));
        let shape = row![name, nodes, edges, classes, split];
        t.push([shape, row![h, deg.max, f4(deg.gini), f4(cc)]].concat());
    }
    vec![t]
}

/// The 3×4 grid of §IV–V: each cell trains one pool, and every strategy
/// soups it. Feeds Table II (accuracy), Table III (souping time), Fig. 3
/// (strategies and Greedy against the ingredient mean) and Fig. 4 (speedup
/// and peak memory relative to GIS; US has no memory bar, as in §V-C).
fn grid(p: &ExperimentPreset) -> Vec<Table> {
    let cells: Vec<_> = Arch::ALL
        .into_iter()
        .flat_map(|arch| DatasetKind::ALL.map(|kind| run_cell(arch, kind, SEED, p)))
        .collect();
    let mut t2 = Table::new(
        "table2",
        "model,dataset,ing_mean,ing_std,us_mean,us_std,gis_mean,gis_std,ls_mean,ls_std,pls_mean,pls_std",
    );
    let mut t3 = Table::new("table3", "model,dataset,us_s,gis_s,ls_s,pls_s");
    let mut f3 = Table::new("fig3", "dataset,model,series,test_acc");
    let mut f4a = Table::new("fig4a", "model,dataset,us_speedup,ls_speedup,pls_speedup");
    let mut f4b = Table::new(
        "fig4b",
        "model,dataset,ls_rel_mem,pls_rel_mem,gis_bytes,ls_bytes,pls_bytes",
    );
    for r in &cells {
        let key = |cols: Vec<String>| [row![r.arch.name(), r.dataset.name()], cols].concat();
        let [us, gis, ls, pls] = &r.strategies;
        let ing = [r.ingredient_test_mean, r.ingredient_test_std];
        let accs = r
            .strategies
            .iter()
            .flat_map(|s| [s.test_acc_mean, s.test_acc_std]);
        t2.push(key(ing.into_iter().chain(accs).map(f4).collect()));
        let times = r.strategies.iter().map(|s| format!("{:.5}", s.time_mean_s));
        t3.push(key(times.collect()));
        let speedup = |s: &StrategyResult| {
            format!("{:.3}", gis.time_mean_s.max(1e-9) / s.time_mean_s.max(1e-9))
        };
        f4a.push(key(row![speedup(us), speedup(ls), speedup(pls)]));
        let rel = |s: &StrategyResult| f4(s.peak_mem_mean / gis.peak_mem_mean.max(1.0));
        let bytes = [gis, ls, pls].map(|s| format!("{:.0}", s.peak_mem_mean));
        f4b.push(key([rel(ls), rel(pls)].into_iter().chain(bytes).collect()));
    }
    for kind in DatasetKind::ALL {
        for r in cells.iter().filter(|r| r.dataset == kind) {
            let series = r.strategies.iter().map(|s| (s.name, s.test_acc_mean));
            let greedy = ("Greedy", r.greedy_test_acc);
            let ing = ("ingredients", r.ingredient_test_mean);
            for (name, acc) in series.chain([greedy, ing]) {
                f3.push(row![kind.name(), r.arch.name(), name, f4(acc)]);
            }
        }
    }
    vec![t2, t3, f3, f4a, f4b]
}

/// §VI-B: PLS on reddit/GCN across partition ratios R/K.
fn rk(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::Reddit, p);
    let pool = train_pool(&d, &cfg, p, SEED);
    let header = "r,k,ratio,combinations,test_acc,time_s,peak_mem_bytes";
    let mut t = Table::new("ablation_rk", header);
    // R and K of each sweep point.
    let rs = [1, 2, 4, 1, 4, 8, 16, 2, 8];
    let ks = [8, 8, 8, 16, 16, 16, 16, 32, 32];
    for (r, k) in rs.into_iter().zip(ks).filter(|&(_, k)| d.num_nodes() >= k) {
        let pls = PartitionLearnedSouping::new(p.learned(), k, r);
        let o = pls.soup(&pool, &d, &cfg, 7);
        let shape = row![r, k, f4(pls.partition_ratio())];
        let combinations = format!("{:.0}", pls.num_possible_subgraphs());
        let acc = f4(test_accuracy(&o, &d, &cfg));
        let cols = row![combinations, acc, secs(&o), o.stats.peak_mem_bytes];
        t.push([shape, cols].concat());
    }
    vec![t]
}

/// §II/III-E: GIS on flickr/GCN across granularities `g`; its cost is
/// `O(N·g·F_v)`.
fn granularity(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::Flickr, p);
    let pool = train_pool(&d, &cfg, p, SEED);
    let header = "granularity,forwards,test_acc,time_s";
    let mut t = Table::new("ablation_granularity", header);
    for g in [2, 4, 8, 16, 32, 64] {
        let o = GisSouping::new(g).soup(&pool, &d, &cfg, 3);
        let acc = f4(test_accuracy(&o, &d, &cfg));
        t.push(row![g, o.stats.forward_passes, acc, secs(&o)]);
    }
    vec![t]
}

/// §VI-A: LS base learning rate on a mixed-quality ogbn-arxiv/GCN pool,
/// where the α's have strong and weak ingredients to separate.
fn lr(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::OgbnArxiv, p);
    let epochs = |i: usize| {
        if i.is_multiple_of(3) {
            3
        } else {
            p.train_epochs
        }
    };
    let pool = mixed_pool(&d, &cfg, p.ingredients.max(6), 600, epochs);
    let mut t = Table::new("ablation_lr", "base_lr,test_acc,val_acc");
    for base_lr in [0.01f32, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0] {
        let hyper = LearnedHyper {
            base_lr,
            ..p.learned()
        };
        let o = LearnedSouping::new(hyper).soup(&pool, &d, &cfg, 11);
        let acc = f4(test_accuracy(&o, &d, &cfg));
        t.push(row![base_lr, acc, f4(o.val_accuracy)]);
    }
    vec![t]
}

/// §III-A, Eq. (1)/(2): measured Phase-1 wall time on flickr/GCN against
/// the schedule model. The model is calibrated by one-worker runs of one
/// and two ingredients ([`fit_fixed_cost`]) after one warm-up run, so a
/// run's fixed start-up cost is not charged to every ingredient. Each
/// worker's kernels get `cores / W` threads, the one-GPU-per-worker
/// analogue.
fn workers(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::Flickr, p);
    let tc = train_config(p.train_epochs);
    let n = p.ingredients.max(8);
    let run = |n, w| {
        let opts = TrainOpts::default().with_workers(w).with_seed(7);
        let run = train_ingredients_opts(&d, &cfg, &tc, n, &opts);
        let run = run.expect("trains without a checkpoint dir");
        run.wall_time.as_secs_f64()
    };
    run(1, 1); // warm-up: the first run of a process also fills the pool
    let (fixed, per) = fit_fixed_cost(run(1, 1), run(2, 1));
    let header = "workers,measured_s,eq1_s,eq1_err,simulated_s,imbalance";
    let mut t = Table::new("ablation_workers", header);
    for w in [1usize, 2, 4, 8] {
        let measured = run(n, w);
        let eq1 = fixed + predicted_total_time(n, w, per);
        let sim = simulate_schedule(&vec![per; n], w);
        let model = row![f4(eq1), f4(eq1 / measured - 1.0)];
        let simulated = row![f4(fixed + sim.makespan), f4(sim.imbalance())];
        t.push([row![w, f4(measured)], model, simulated].concat());
    }
    vec![t]
}

/// Split Phase-1 wall time `t(n) = fixed + n · per` into its fixed
/// start-up cost and its per-ingredient cost, from one-worker runs of one
/// ingredient (`t1`) and two (`t2`). Noise can put `t2 − t1` outside
/// `[0, t1]`; it is clamped there, so neither part is negative.
fn fit_fixed_cost(t1: f64, t2: f64) -> (f64, f64) {
    let per = (t2 - t1).clamp(0.0, t1);
    (t1 - per, per)
}

/// §V-A/§VIII: on a flickr/GCN pool of half strong, half barely trained
/// ingredients, GIS's hard selection against LS, whose softmax cannot zero
/// a ratio, and LS's pruning and early-stopping extensions.
fn dropout(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::Flickr, p);
    let n = p.ingredients.max(6);
    let epochs = |i: usize| {
        if i.is_multiple_of(2) {
            p.train_epochs
        } else {
            2
        }
    };
    let pool = mixed_pool(&d, &cfg, n, 500, epochs);
    let base = p.learned();
    // Pruning drops what sank clearly below the uniform ratio 1/N.
    let prune = LearnedHyper {
        prune_threshold: Some(0.9 / n as f32),
        ..base
    };
    let early = LearnedHyper {
        epochs: p.learned_epochs * 4,
        early_stop_patience: Some(5),
        holdout_ratio: 0.3,
        ..base
    };
    let variants: [(&str, Box<dyn SoupStrategy>); 5] = [
        ("US", p.strategy("us")),
        ("GIS", p.strategy("gis")),
        ("LS", p.strategy("ls")),
        ("LS+prune", Box::new(LearnedSouping::new(prune))),
        ("LS+earlystop", Box::new(LearnedSouping::new(early))),
    ];
    let mut t = Table::new("ablation_dropout", "variant,val_acc,test_acc,epochs");
    for (name, s) in variants {
        let o = s.soup(&pool, &d, &cfg, 9);
        let acc = f4(test_accuracy(&o, &d, &cfg));
        t.push(row![name, f4(o.val_accuracy), acc, o.stats.epochs]);
    }
    vec![t]
}

/// §V-A/§VIII: pool diversity on ogbn-arxiv/GCN against which of US, GIS
/// and LS wins, on pools of growing training divergence.
fn diversity(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::OgbnArxiv, p);
    let e = p.train_epochs;
    let header = "regime,weight_dist,disagreement,acc_std,us,gis,ls,winner";
    let mut t = Table::new("ablation_diversity", header);
    let regimes = [
        ("homogeneous", vec![e]),
        ("mild", vec![e, e / 2]),
        ("dispersed", vec![e, 3]),
    ];
    for (regime, mix) in regimes {
        let pool = mixed_pool(&d, &cfg, p.ingredients.max(6), 700, |i| mix[i % mix.len()]);
        let report = diversity_report(&pool, &d, &cfg);
        let mut cols = row![
            f4(report.mean_weight_distance),
            f4(report.mean_disagreement)
        ];
        cols.push(format!("{:.5}", report.val_acc_std));
        let scores = ["us", "gis", "ls"].map(|name| {
            let s = p.strategy(name);
            (
                s.name(),
                test_accuracy(&s.soup(&pool, &d, &cfg, 3), &d, &cfg),
            )
        });
        cols.extend(scores.map(|s| f4(s.1)));
        let winner = scores.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        t.push([row![regime], cols, row![winner]].concat());
    }
    vec![t]
}

/// §III-C: PLS on reddit/GCN under partitioners of falling cut quality,
/// down to structure-blind random assignment.
fn partitioner(p: &ExperimentPreset) -> Vec<Table> {
    let (d, cfg) = gcn(DatasetKind::Reddit, p);
    let pool = train_pool(&d, &cfg, p, SEED);
    let (k, r) = (p.pls_k, p.pls_r);
    let pcfg = PartitionConfig::new(k).with_seed(SEED);
    let header = "partitioner,edge_cut,val_min,val_max";
    let mut cut = Table::new("ablation_partitioner_cut", header);
    let ml = partition_val_balanced(&d.graph, &d.splits, &pcfg);
    let bfs = bfs_partition(&d.graph, k, SEED);
    let random = random_partition(d.num_nodes(), k, SEED);
    for (name, part) in [("ml+valbal", ml), ("bfs", bfs), ("random", random)] {
        let counts = subset_counts(&part.assignment, &d.splits.val, k);
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        cut.push(row![name, edge_cut(&d.graph, &part.assignment), lo, hi]);
    }
    let header = "partitioner,val_acc,test_acc,time_s";
    let mut t = Table::new("ablation_partitioner", header);
    for kind in [
        PartitionerKind::MultilevelValBalanced,
        PartitionerKind::Multilevel,
        PartitionerKind::Bfs,
        PartitionerKind::Random,
    ] {
        let pls = PartitionLearnedSouping::new(p.learned(), k, r).with_partitioner(kind);
        let o = pls.soup(&pool, &d, &cfg, 5);
        let acc = f4(test_accuracy(&o, &d, &cfg));
        t.push(row![format!("{kind:?}"), f4(o.val_accuracy), acc, secs(&o)]);
    }
    vec![cut, t]
}

/// §I/§II: the LS soup against the soft-voting ensemble of its pool, in
/// accuracy and inference time, peak memory and resident parameters.
fn ensemble(p: &ExperimentPreset) -> Vec<Table> {
    let header =
        "dataset,n,soup_acc,soup_time_s,soup_mem,soup_params,ens_acc,ens_time_s,ens_mem,ens_params";
    let mut t = Table::new("ablation_ensemble", header);
    let cost = |c: &InferenceCost| {
        let time = format!("{:.6}", c.wall_time.as_secs_f64());
        row![time, c.peak_mem_bytes, c.param_bytes]
    };
    for kind in [DatasetKind::Flickr, DatasetKind::OgbnArxiv] {
        let (d, cfg) = gcn(kind, p);
        let pool = train_pool(&d, &cfg, p, SEED);
        let soup = p.strategy("ls").soup(&pool, &d, &cfg, 3);
        let cmp = compare_soup_vs_ensemble(&soup.params, &pool, &d, &cfg);
        let soup_cols = [row![f4(cmp.soup_test_acc)], cost(&cmp.soup_cost)].concat();
        let ens_cols = [row![f4(cmp.ensemble_test_acc)], cost(&cmp.ensemble_cost)].concat();
        t.push([row![kind.name(), pool.len()], soup_cols, ens_cols].concat());
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cost_fit_recovers_synthetic_times() {
        let t = |n: f64| 0.3 + n * 0.05;
        let (fixed, per) = fit_fixed_cost(t(1.0), t(2.0));
        assert!((fixed - 0.3).abs() < 1e-12 && (per - 0.05).abs() < 1e-12);
        // Eq. (1) with the fit predicts 12 ingredients on one worker exactly.
        let eq1 = fixed + predicted_total_time(12, 1, per);
        assert!((eq1 - t(12.0)).abs() < 1e-12, "{eq1}");
        // Noise that makes two ingredients look cheaper than one, or more
        // than twice as dear, is clamped to a non-negative split.
        assert_eq!(fit_fixed_cost(1.0, 0.9), (1.0, 0.0));
        assert_eq!(fit_fixed_cost(1.0, 2.5), (0.0, 1.0));
    }

    #[test]
    fn every_section_writes_its_tables() {
        let micro = ExperimentPreset {
            name: "micro",
            dataset_scale: 0.05,
            ingredients: 2,
            soups: 1,
            train_epochs: 3,
            gis_granularity: 3,
            learned_epochs: 3,
            pls_k: 4,
            pls_r: 2,
            workers: 2,
        };
        let expected = [
            ("table1", "dataset,nodes,edges,classes,split,homophily,max_degree,degree_gini,clustering", 4),
            ("table2", "model,dataset,ing_mean,ing_std,us_mean,us_std,gis_mean,gis_std,ls_mean,ls_std,pls_mean,pls_std", 12),
            ("table3", "model,dataset,us_s,gis_s,ls_s,pls_s", 12),
            ("fig3", "dataset,model,series,test_acc", 72),
            ("fig4a", "model,dataset,us_speedup,ls_speedup,pls_speedup", 12),
            ("fig4b", "model,dataset,ls_rel_mem,pls_rel_mem,gis_bytes,ls_bytes,pls_bytes", 12),
            ("ablation_rk", "r,k,ratio,combinations,test_acc,time_s,peak_mem_bytes", 9),
            ("ablation_granularity", "granularity,forwards,test_acc,time_s", 6),
            ("ablation_lr", "base_lr,test_acc,val_acc", 7),
            ("ablation_workers", "workers,measured_s,eq1_s,eq1_err,simulated_s,imbalance", 4),
            ("ablation_dropout", "variant,val_acc,test_acc,epochs", 5),
            ("ablation_diversity", "regime,weight_dist,disagreement,acc_std,us,gis,ls,winner", 3),
            ("ablation_partitioner_cut", "partitioner,edge_cut,val_min,val_max", 3),
            ("ablation_partitioner", "partitioner,val_acc,test_acc,time_s", 4),
            ("ablation_ensemble", "dataset,n,soup_acc,soup_time_s,soup_mem,soup_params,ens_acc,ens_time_s,ens_mem,ens_params", 2),
        ];
        let dir = std::env::temp_dir().join(format!("soup-bench-sections-{}", std::process::id()));
        let mut written = Vec::new();
        for (_, section) in SECTIONS {
            for table in section(&micro) {
                table.write(&dir).unwrap();
                written.push(table.name);
            }
        }
        assert_eq!(written, expected.map(|(name, _, _)| name));
        for (name, header, rows) in expected {
            let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
            let lines: Vec<&str> = csv.lines().collect();
            assert_eq!(lines[0], header, "{name}");
            assert_eq!(lines.len() - 1, rows, "{name}");
            let width = header.split(',').count();
            assert!(
                lines.iter().all(|l| l.split(',').count() == width),
                "{name}: {csv}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
