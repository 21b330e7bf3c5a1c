//! Baseline partitioners for ablating PLS's dependence on partition
//! quality.
//!
//! The paper prescribes METIS-style partitioning (§III-C); these baselines
//! answer "does that matter?": a structure-blind random partitioner (high
//! edge cut — epoch subgraphs lose most structure) and a cheap BFS
//! block partitioner (locality without refinement). The `partitioner`
//! section of the `experiments` binary compares PLS accuracy across all
//! three.

use crate::kway::Partitioning;
use soup_graph::CsrGraph;
use soup_tensor::SplitMix64;

/// Structure-blind uniform random assignment (balanced counts).
pub fn random_partition(n: usize, k: usize, seed: u64) -> Partitioning {
    assert!(k >= 1 && n >= k, "need n >= k >= 1");
    // Deal nodes like cards so sizes differ by at most one, then shuffle.
    let mut assignment: Vec<u32> = (0..n).map(|i| (i % k) as u32).collect();
    SplitMix64::new(seed)
        .derive(0x4a2d)
        .shuffle(&mut assignment);
    Partitioning { assignment, k }
}

/// BFS block partitioner: grow parts of ~n/k nodes by breadth-first
/// traversal from random seeds. Captures locality but performs no
/// balancing refinement and ignores vertex weights.
pub fn bfs_partition(graph: &CsrGraph, k: usize, seed: u64) -> Partitioning {
    let n = graph.num_nodes();
    assert!(k >= 1 && n >= k, "need n >= k >= 1");
    let target = n.div_ceil(k);
    let mut assignment = vec![u32::MAX; n];
    let mut rng = SplitMix64::new(seed).derive(0xbf5);
    let mut part = 0u32;
    let mut count = 0usize;
    let mut queue = std::collections::VecDeque::new();
    let mut assigned = 0usize;
    while assigned < n {
        if queue.is_empty() {
            // New seed from the unassigned set.
            let unassigned: Vec<usize> = (0..n).filter(|&v| assignment[v] == u32::MAX).collect();
            let s = unassigned[rng.next_below(unassigned.len())];
            queue.push_back(s);
        }
        let Some(v) = queue.pop_front() else { continue };
        if assignment[v] != u32::MAX {
            continue;
        }
        assignment[v] = part;
        assigned += 1;
        count += 1;
        if count >= target && (part as usize) + 1 < k {
            part += 1;
            count = 0;
            queue.clear();
            continue;
        }
        for &u in graph.neighbors(v) {
            if assignment[u as usize] == u32::MAX {
                queue.push_back(u as usize);
            }
        }
    }
    Partitioning { assignment, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::edge_cut;

    fn grid(w: usize, h: usize) -> CsrGraph {
        let mut edges = Vec::new();
        let id = |x: usize, y: usize| (y * w + x) as u32;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        CsrGraph::from_edges(w * h, &edges)
    }

    #[test]
    fn random_partition_is_balanced() {
        let p = random_partition(100, 4, 1);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        for &s in &sizes {
            assert_eq!(s, 25);
        }
    }

    #[test]
    fn random_partition_deterministic() {
        assert_eq!(
            random_partition(50, 4, 9).assignment,
            random_partition(50, 4, 9).assignment
        );
        assert_ne!(
            random_partition(50, 4, 9).assignment,
            random_partition(50, 4, 10).assignment
        );
    }

    #[test]
    fn bfs_covers_all_nodes_roughly_balanced() {
        let g = grid(12, 12);
        let p = bfs_partition(&g, 4, 2);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 144);
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
        assert!(*sizes.iter().max().unwrap() <= 2 * 144 / 4, "{sizes:?}");
    }

    #[test]
    fn bfs_cut_beats_random_on_grid() {
        let g = grid(16, 16);
        let bfs = edge_cut(&g, &bfs_partition(&g, 4, 3).assignment);
        let random = edge_cut(&g, &random_partition(256, 4, 3).assignment);
        assert!(
            bfs < random,
            "BFS cut {bfs} not better than random {random}"
        );
    }

    #[test]
    fn multilevel_beats_bfs_on_grid() {
        let g = grid(16, 16);
        let ml = crate::kway::partition_graph(
            &g,
            &[1.0; 256],
            &crate::kway::PartitionConfig::new(4).with_seed(4),
        );
        let ml_cut = edge_cut(&g, &ml.assignment);
        let bfs_cut = edge_cut(&g, &bfs_partition(&g, 4, 4).assignment);
        assert!(
            ml_cut <= bfs_cut,
            "multilevel cut {ml_cut} worse than BFS {bfs_cut}"
        );
    }

    #[test]
    #[should_panic(expected = "need n >= k")]
    fn random_too_many_parts_panics() {
        random_partition(3, 5, 1);
    }

    #[test]
    fn bfs_handles_disconnected_graph() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3)]); // nodes 4,5 isolated
        let p = bfs_partition(&g, 3, 5);
        assert!(p.assignment.iter().all(|&a| a < 3));
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 6);
    }
}
