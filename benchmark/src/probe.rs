//! The `bench.probe` section of a traced run: direct calls into the inner
//! layers on the workload's own data and shapes, to measure the rates the
//! estimated shares divide by.

use std::collections::BTreeMap;
use std::time::Instant;

use soup_gnn::model::init_params;
use soup_gnn::{
    load_checkpoint, predict, predict_cached, save_checkpoint, train_single, Arch, Checkpoint,
    ModelConfig, ParamSet, PropCache, PropOps, TrainConfig,
};
use soup_graph::{Dataset, InducedSubgraph};
use soup_partition::Partitioning;
use soup_tensor::{SplitMix64, Tape, Tensor};

use crate::pipeline::INGREDIENTS;
use crate::stats;
use crate::trace::Counters;
use crate::{Ctx, Rep};

const PROBE_ITERS: usize = 3;

/// Median seconds of `PROBE_ITERS` calls of `f`, each inside a span.
fn timed(ctx: &mut Ctx, layer: &'static str, name: &str, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_ITERS)
        .map(|_| ctx.tracer.call(layer, format!("probe.{name}"), &mut f).1)
        .collect();
    stats::median(&samples)
}

/// GEMM at the first layer's shape, the aggregation kernel of the
/// architecture (SpMM, or GAT attention forward and backward), and the
/// R-way parameter blend.
pub fn tensor_kernels(
    ctx: &mut Ctx,
    features: &Tensor,
    cfg: &ModelConfig,
    ops: &PropOps,
    out: &mut BTreeMap<String, f64>,
) {
    let mut rng = SplitMix64::new(ctx.seed).derive(0xbe);
    let (n, k, m) = (features.rows(), cfg.layer_in_dim(0), cfg.layer_out_dim(0));
    let w = Tensor::randn(k, m, 0.1, &mut rng);
    let s = timed(ctx, "soup-tensor", "matmul", || {
        std::hint::black_box(features.matmul(&w));
    });
    out.insert(
        "soup-tensor.matmul_gflops".into(),
        2.0 * (n * k * m) as f64 / s / 1e9,
    );

    match ops {
        PropOps::Gcn(a) | PropOps::Sage(a) | PropOps::Gin(a) => {
            let before = Counters::now();
            let s = timed(ctx, "soup-tensor", "spmm", || {
                std::hint::black_box(a.matvec_dense(features));
            });
            let bytes = Counters::now().delta(&before, "tensor.spmm.bytes") / PROBE_ITERS as f64;
            out.insert("soup-tensor.spmm_gbps".into(), bytes / s / 1e9);
        }
        PropOps::Gat(idx) => {
            let heads = cfg.layer_heads(0);
            let x = Tensor::randn(n, m, 0.5, &mut rng);
            let al = Tensor::randn(n, heads, 0.5, &mut rng);
            let ar = Tensor::randn(n, heads, 0.5, &mut rng);
            let mut forward_s = Vec::new();
            let both_s = timed(ctx, "soup-tensor", "gat_aggregate+backward", || {
                let tape = Tape::new();
                let (x, al, ar) = (
                    tape.param(x.clone()),
                    tape.param(al.clone()),
                    tape.param(ar.clone()),
                );
                let start = Instant::now();
                let y = tape.gat_aggregate(idx, x, al, ar, heads, cfg.negative_slope);
                forward_s.push(start.elapsed().as_secs_f64());
                std::hint::black_box(tape.backward(tape.sum(y)));
            });
            let edge_heads = (idx.num_edges() * heads) as f64;
            let forward = stats::median(&forward_s);
            out.insert("soup-tensor.attention_ms".into(), both_s * 1e3);
            out.insert(
                "probe.attention_fwd_s_per_edge".into(),
                forward / edge_heads,
            );
            out.insert(
                "probe.attention_bwd_s_per_edge".into(),
                (both_s - forward).max(0.0) / edge_heads,
            );
        }
    }

    let parts: Vec<Tensor> = (0..INGREDIENTS)
        .map(|_| Tensor::randn(k, m, 0.1, &mut rng))
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    let coeffs = vec![1.0 / INGREDIENTS as f32; INGREDIENTS];
    // A blend of one weight matrix lasts microseconds; time a batch.
    const BLENDS: usize = 200;
    let s = timed(ctx, "soup-tensor", "blend", || {
        for _ in 0..BLENDS {
            std::hint::black_box(soup_tensor::ops::soup::blend(&coeffs, &refs));
        }
    });
    let bytes = (BLENDS * (INGREDIENTS + 1) * k * m * 4) as f64;
    out.insert("soup-tensor.blend_gbps".into(), bytes / s / 1e9);
}

/// One training epoch, an uncached and a cached eval forward, and a
/// checkpoint write and read of this architecture's parameters.
pub fn gnn_and_store(
    ctx: &mut Ctx,
    dataset: &Dataset,
    cfg: &ModelConfig,
    tc: &TrainConfig,
    ops: &PropOps,
    cache: &PropCache,
    out: &mut BTreeMap<String, f64>,
) {
    let mut rng = SplitMix64::new(ctx.seed).derive(0xbf);
    let params: ParamSet = init_params(cfg, &mut rng);
    let one_epoch = TrainConfig {
        epochs: 1,
        eval_every: 1,
        ..tc.clone()
    };
    let s = timed(ctx, "soup-gnn", "train_single.1epoch", || {
        std::hint::black_box(train_single(dataset, cfg, &one_epoch, &params, 7));
    });
    out.insert("soup-gnn.train_epoch_ms".into(), s * 1e3);
    let s = timed(ctx, "soup-gnn", "predict", || {
        std::hint::black_box(predict(cfg, ops, &params, &dataset.features));
    });
    out.insert("soup-gnn.forward_ms".into(), s * 1e3);
    let s = timed(ctx, "soup-gnn", "predict_cached", || {
        std::hint::black_box(predict_cached(cfg, ops, cache, &params));
    });
    out.insert("soup-gnn.forward_cached_ms".into(), s * 1e3);

    let path = ctx.work.join("probe.ck");
    let ck = Checkpoint::new(0, 7, 0.5, params);
    let s = timed(ctx, "soup-store", "save_checkpoint", || {
        save_checkpoint(&ck, &path).expect("probe checkpoint write");
    });
    out.insert("soup-store.ckpt_write_ms".into(), s * 1e3);
    let s = timed(ctx, "soup-store", "load_checkpoint", || {
        std::hint::black_box(load_checkpoint(&path).expect("probe checkpoint read"));
    });
    out.insert("soup-store.ckpt_read_ms".into(), s * 1e3);
    let _ = std::fs::remove_file(&path);
}

/// The induced subgraph PLS builds for one epoch's partition draw.
pub fn subgraph(
    ctx: &mut Ctx,
    dataset: &Dataset,
    partitioning: &Partitioning,
    out: &mut BTreeMap<String, f64>,
) {
    let selected: Vec<u32> = (0..crate::pipeline::PLS_R as u32).collect();
    let s = timed(
        ctx,
        "soup-graph",
        "InducedSubgraph::from_partitions",
        || {
            std::hint::black_box(InducedSubgraph::from_partitions(
                &dataset.graph,
                &partitioning.assignment,
                &selected,
            ));
        },
    );
    out.insert("soup-graph.subgraph_ms".into(), s * 1e3);
}

/// Counted work of the traced reps over the probed rate, as a share of the
/// rep's CPU seconds. CPU rather than wall seconds, because two trainer
/// threads (or two shard processes) run their kernels side by side. An
/// estimate: the kernels were not timed inside the program.
pub fn estimated_shares(reps: &[Rep], out: &mut BTreeMap<String, f64>) {
    let med = |name: &str| -> f64 {
        let v: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced)
            .filter_map(|r| r.values.get(name).copied())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let cpu_s = med("cpu_s").max(1e-9);
    let rate = |out: &BTreeMap<String, f64>, name: &str| out.get(name).copied().unwrap_or(0.0);
    let gflops = rate(out, "soup-tensor.matmul_gflops");
    if gflops > 0.0 {
        let est = med("soup-tensor.matmul_flops") / (gflops * 1e9);
        out.insert("soup-tensor.matmul_est_share".into(), est / cpu_s);
    }
    let gbps = rate(out, "soup-tensor.spmm_gbps");
    if gbps > 0.0 {
        let est = med("soup-tensor.spmm_bytes") / (gbps * 1e9);
        out.insert("soup-tensor.spmm_est_share".into(), est / cpu_s);
    }
    let fwd = rate(out, "probe.attention_fwd_s_per_edge");
    if fwd > 0.0 {
        let bwd = rate(out, "probe.attention_bwd_s_per_edge");
        let edges = med("soup-tensor.attention_edges");
        let est = edges * (fwd + bwd * med("probe.attention_backward_share"));
        out.insert("soup-tensor.attention_est_share".into(), est / cpu_s);
    }
}

/// Which architecture's aggregation a workload leans on, for the
/// separation check printed by the traced run.
pub fn separation_check(arch: Arch, values: &BTreeMap<String, f64>) -> Result<String, String> {
    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let matmul = get("soup-tensor.matmul_est_share");
    let spmm = get("soup-tensor.spmm_est_share");
    let attention = get("soup-tensor.attention_est_share");
    let line = format!(
        "estimated shares of rep CPU: matmul {matmul:.3}, spmm {spmm:.3}, attention {attention:.3}"
    );
    let ok = match arch {
        Arch::Gat => attention > matmul && attention > spmm && matmul < 0.2,
        _ => matmul > spmm && matmul > attention,
    };
    if ok {
        Ok(line)
    } else {
        Err(format!("workload separation does not hold: {line}"))
    }
}
