//! The GAT edge-softmax kernel's bits, pinned.
//!
//! `Tape::gat_aggregate`'s forward output and its three gradients (`∂x`,
//! `∂al`, `∂ar`) are hashed (FNV-1a over the little-endian bits of every
//! element) at four head shapes: 4×8 and 1×8 (the two layers of the
//! sparse-GAT workload), 3×5 (a head width no register tile is specialised
//! for) and 2×24. The graph has a node with no in-edges and a hub of
//! in-degree 240, and it is large enough that every pass forks into
//! edge-balanced chunks. Each shape runs on 1 and on 2 threads, and both
//! must give the pinned bits. So any change to the summation order of the
//! softmax, the weighted sums or the gradient scatters shows up here.
//!
//! The forward output is also checked against an f64 reference. Per
//! destination `v` and head, with `u = 2⁻²⁴`, `d` the in-degree and `Z`
//! the largest `|LeakyReLU(s)|` among `v`'s edges, a first-order error
//! analysis gives `|out − ref| ≤ (2·d + 12·Z + 8)·u · Σ_k α_k |x_k|`: the
//! score add, the LeakyReLU scale and the max shift cost `6·Z·u` in each
//! exponent's argument, `expf` one ulp, the softmax total and the weighted
//! sum `d·u` each, and the reciprocal and the scale one rounding each.

use enhanced_soups::tensor::ops::EdgeIndex;
use enhanced_soups::tensor::{parallel, SplitMix64, Tape, Tensor};

const NODES: usize = 600;
const HUB: usize = 0;
const HUB_DEGREE: usize = 240;
/// Receives no edge.
const SINK: usize = NODES - 1;
const SLOPE: f32 = 0.2;

/// FNV-1a (64-bit) over the little-endian bytes of every element.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every node but the sink has a self-loop and 0–11 random in-edges; the
/// hub also has `HUB_DEGREE` of them. No edge enters the sink.
fn graph() -> EdgeIndex {
    let mut rng = SplitMix64::new(11);
    let mut edges = Vec::new();
    for v in 0..NODES {
        if v == SINK {
            continue;
        }
        edges.push((v as u32, v as u32));
        let extra = if v == HUB {
            HUB_DEGREE
        } else {
            rng.next_below(12)
        };
        for _ in 0..extra {
            edges.push((rng.next_below(NODES) as u32, v as u32));
        }
    }
    let idx = EdgeIndex::from_edges(NODES, &edges);
    assert!(idx.in_edges(HUB).len() > HUB_DEGREE);
    assert!(idx.in_edges(SINK).is_empty());
    idx
}

/// The forward output and the gradients of `sum(out ⊙ w)` w.r.t. `x`, `al`
/// and `ar`, on `threads` threads.
fn run(idx: &EdgeIndex, inputs: &[Tensor; 4], heads: usize, threads: usize) -> [Tensor; 4] {
    parallel::with_threads(threads, || {
        let tape = Tape::new();
        let x = tape.param(inputs[0].clone());
        let al = tape.param(inputs[1].clone());
        let ar = tape.param(inputs[2].clone());
        let y = tape.gat_aggregate(idx, x, al, ar, heads, SLOPE);
        let w = tape.constant(inputs[3].clone());
        let grads = tape.backward(tape.sum(tape.mul(y, w)));
        let grad = |v| grads.get(v).expect("gradient flows").clone();
        [tape.value(y), grad(x), grad(al), grad(ar)]
    })
}

/// Check every output entry against the f64 reference within the bound in
/// the module doc.
fn check_error(idx: &EdgeIndex, inputs: &[Tensor; 4], out: &Tensor, heads: usize) {
    let (x, al, ar) = (&inputs[0], &inputs[1], &inputs[2]);
    let dim = x.cols() / heads;
    let u = f64::powi(2.0, -24);
    let leaky = |s: f64| if s > 0.0 { s } else { f64::from(SLOPE) * s };
    for v in 0..NODES {
        let srcs = idx.in_edges(v);
        for h in 0..heads {
            let z: Vec<f64> = srcs
                .iter()
                .map(|&s| leaky(f64::from(al.get(s as usize, h)) + f64::from(ar.get(v, h))))
                .collect();
            let zmax = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let zabs = z.iter().fold(0.0f64, |m, z| m.max(z.abs()));
            let e: Vec<f64> = z.iter().map(|z| (z - zmax).exp()).collect();
            let total: f64 = e.iter().sum();
            let factor = (2 * srcs.len()) as f64 + 12.0 * zabs + 8.0;
            for j in 0..dim {
                let c = h * dim + j;
                let (mut exact, mut magnitude) = (0.0f64, 0.0f64);
                for (&s, &e) in srcs.iter().zip(&e) {
                    let p = e / total * f64::from(x.get(s as usize, c));
                    exact += p;
                    magnitude += p.abs();
                }
                let err = (f64::from(out.get(v, c)) - exact).abs();
                let bound = factor * u * magnitude;
                assert!(
                    err <= bound,
                    "({v},{c}) at {heads}x{dim}: error {err:e} above bound {bound:e}"
                );
            }
        }
    }
}

/// Run one shape on 1 and 2 threads, check the output against f64 and
/// return the hashes of `[out, ∂x, ∂al, ∂ar]`.
fn hashes(heads: usize, dim: usize, seed: u64) -> [u64; 4] {
    let idx = graph();
    let mut rng = SplitMix64::new(seed);
    let inputs = [
        Tensor::randn(NODES, heads * dim, 1.0, &mut rng),
        Tensor::randn(NODES, heads, 1.0, &mut rng),
        Tensor::randn(NODES, heads, 1.0, &mut rng),
        Tensor::randn(NODES, heads * dim, 1.0, &mut rng),
    ];
    let one = run(&idx, &inputs, heads, 1);
    let two = run(&idx, &inputs, heads, 2);
    assert!(
        one[0].row(SINK).iter().all(|v| v.to_bits() == 0),
        "a node with no in-edges gives a +0.0 row"
    );
    check_error(&idx, &inputs, &one[0], heads);
    let hash = |t: &[Tensor; 4]| t.each_ref().map(|t| fnv1a(t.data()));
    assert_eq!(hash(&one), hash(&two), "{heads}x{dim}: 1 vs 2 threads");
    hash(&one)
}

#[test]
fn four_heads_of_eight_bits_are_pinned() {
    assert_eq!(
        hashes(4, 8, 1),
        [
            0x4879_f4ed_51ed_2006,
            0xb5a7_608a_1de4_e79c,
            0x62ac_db85_cc53_36da,
            0xb294_afaa_23be_19c1
        ],
        "4x8"
    );
}

#[test]
fn one_head_of_eight_bits_are_pinned() {
    assert_eq!(
        hashes(1, 8, 2),
        [
            0x0893_96e6_6286_60f5,
            0x22c4_b0f6_2a1f_d3db,
            0x64c5_c479_4846_5627,
            0x64d6_e45c_551e_1d41
        ],
        "1x8"
    );
}

#[test]
fn three_heads_of_five_bits_are_pinned() {
    assert_eq!(
        hashes(3, 5, 3),
        [
            0xbadd_a46b_b3c2_801c,
            0xf467_b88a_87d8_2d1d,
            0xcca7_7d0f_20b8_a0e8,
            0x3507_aae9_51b8_fb6c
        ],
        "3x5"
    );
}

#[test]
fn two_heads_of_twenty_four_bits_are_pinned() {
    assert_eq!(
        hashes(2, 24, 4),
        [
            0x045d_43f8_26bc_5354,
            0xdb8e_d790_cc1d_f05e,
            0x10b2_7567_0e96_1890,
            0x13c6_1a58_ab50_6e74
        ],
        "2x24"
    );
}
