//! Synthetic counterparts of the paper's four benchmarks (Table I).
//!
//! | Paper dataset | Nodes  | Edges | Classes | split             |
//! |---------------|--------|-------|---------|-------------------|
//! | Flickr        | 89.3K  | 0.9M  | 7       | 0.50/0.25/0.25    |
//! | ogbn-arxiv    | 169.3K | 1.2M  | 40      | 0.54/0.18/0.28    |
//! | Reddit        | 233K   | 11.6M | 41      | 0.66/0.10/0.24    |
//! | ogbn-products | 2.4M   | 61.9M | 47      | 0.10/0.02/0.88    |
//!
//! The synthetic counterparts keep the class counts and split ratios exactly
//! and scale node/edge counts down while preserving the relative ordering
//! (products ≫ reddit > arxiv > flickr in nodes; reddit densest). Dataset
//! difficulty knobs (homophily, noise) are tuned so the four tasks land at
//! distinct accuracy levels, mirroring the spread in the paper's Table II.

use crate::csr::CsrGraph;
use crate::splits::Splits;
use crate::synth::SbmConfig;
use soup_tensor::Tensor;

/// The four benchmark datasets of the paper (synthetic counterparts),
/// plus `Custom` for user-supplied data assembled with
/// [`Dataset::from_parts`] — which is also what every dataset loaded from
/// a `soup-graphmmap/1` file is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    Flickr,
    OgbnArxiv,
    Reddit,
    OgbnProducts,
    Custom,
}

impl DatasetKind {
    pub const ALL: [DatasetKind; 4] = [
        Self::Flickr,
        Self::OgbnArxiv,
        Self::Reddit,
        Self::OgbnProducts,
    ];

    /// Canonical lowercase name (used in harness tables and CLI).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Flickr => "flickr",
            Self::OgbnArxiv => "ogbn-arxiv",
            Self::Reddit => "reddit",
            Self::OgbnProducts => "ogbn-products",
            Self::Custom => "custom",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "flickr" => Some(Self::Flickr),
            "ogbn-arxiv" | "arxiv" => Some(Self::OgbnArxiv),
            "reddit" => Some(Self::Reddit),
            "ogbn-products" | "products" => Some(Self::OgbnProducts),
            "custom" => Some(Self::Custom),
            _ => None,
        }
    }

    /// Train/val/test ratios from Table I.
    pub fn split_ratios(&self) -> (f64, f64, f64) {
        match self {
            Self::Flickr => (0.50, 0.25, 0.25),
            Self::OgbnArxiv => (0.54, 0.18, 0.28),
            Self::Reddit => (0.66, 0.10, 0.24),
            Self::OgbnProducts => (0.10, 0.02, 0.88),
            Self::Custom => panic!("custom datasets carry their own splits"),
        }
    }

    /// Synthetic generator configuration at unit scale.
    pub fn sbm_config(&self) -> SbmConfig {
        match self {
            // Flickr: small, noisy, hard (paper accuracies ~51-54%).
            Self::Flickr => SbmConfig {
                nodes: 2_200,
                classes: 7,
                avg_degree: 10.0,
                homophily: 0.45,
                hub_fraction: 0.04,
                hub_boost: 6.0,
                feature_dim: 64,
                centroid_scale: 0.55,
                feature_noise: 1.0,
                label_noise: 0.30,
            },
            // ogbn-arxiv: mid-size, 40 classes, moderate difficulty (~70%).
            Self::OgbnArxiv => SbmConfig {
                nodes: 3_600,
                classes: 40,
                avg_degree: 7.0,
                homophily: 0.60,
                hub_fraction: 0.05,
                hub_boost: 6.0,
                feature_dim: 96,
                centroid_scale: 0.80,
                feature_noise: 1.0,
                label_noise: 0.12,
            },
            // Reddit: dense, highly homophilous, easy (~93-96%).
            Self::Reddit => SbmConfig {
                nodes: 5_200,
                classes: 41,
                avg_degree: 50.0,
                homophily: 0.82,
                hub_fraction: 0.06,
                hub_boost: 8.0,
                feature_dim: 96,
                centroid_scale: 0.95,
                feature_noise: 1.0,
                label_noise: 0.045,
            },
            // ogbn-products: largest, moderately easy (~74-80%), tiny train
            // fraction.
            Self::OgbnProducts => SbmConfig {
                nodes: 13_000,
                classes: 47,
                avg_degree: 26.0,
                homophily: 0.72,
                hub_fraction: 0.05,
                hub_boost: 10.0,
                feature_dim: 100,
                centroid_scale: 0.85,
                feature_noise: 1.0,
                label_noise: 0.08,
            },
            Self::Custom => panic!("custom datasets are loaded, not generated"),
        }
    }

    /// Generate the dataset at unit scale.
    pub fn generate(&self, seed: u64) -> Dataset {
        self.generate_scaled(seed, 1.0)
    }

    /// Generate with node count scaled by `scale` (edges scale with it).
    /// Used by benches to trade fidelity for wall-clock.
    pub fn generate_scaled(&self, seed: u64, scale: f64) -> Dataset {
        assert!(scale > 0.0, "scale must be positive");
        let mut cfg = self.sbm_config();
        cfg.nodes = ((cfg.nodes as f64 * scale).round() as usize).max(cfg.classes * 4);
        let synth = cfg.generate(seed ^ dataset_salt(*self));
        let (tr, va, te) = self.split_ratios();
        let splits = Splits::random(cfg.nodes, tr, va, te, seed ^ dataset_salt(*self));
        Dataset {
            kind: *self,
            graph: synth.graph,
            features: synth.features,
            labels: synth.labels,
            splits,
            num_classes: cfg.classes,
        }
    }
}

fn dataset_salt(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::Flickr => 0xF11C4,
        DatasetKind::OgbnArxiv => 0xA4C817,
        DatasetKind::Reddit => 0x4EDD17,
        DatasetKind::OgbnProducts => 0x9400DC,
        DatasetKind::Custom => panic!("custom datasets are loaded, not generated"),
    }
}

/// A fully materialised node-classification dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub kind: DatasetKind,
    pub graph: CsrGraph,
    pub features: Tensor,
    pub labels: Vec<u32>,
    pub splits: Splits,
    pub num_classes: usize,
}

impl Dataset {
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Assemble a dataset from raw parts, validating consistency.
    pub fn from_parts(
        graph: CsrGraph,
        features: Tensor,
        labels: Vec<u32>,
        splits: Splits,
        num_classes: usize,
    ) -> Self {
        let n = graph.num_nodes();
        assert_eq!(
            features.rows(),
            n,
            "features rows {} != nodes {n}",
            features.rows()
        );
        assert_eq!(
            labels.len(),
            n,
            "labels length {} != nodes {n}",
            labels.len()
        );
        assert!(
            labels.iter().all(|&l| (l as usize) < num_classes),
            "label out of range for {num_classes} classes"
        );
        let check = |name: &str, idx: &[usize]| {
            assert!(idx.iter().all(|&v| v < n), "{name} split node out of range");
        };
        check("train", &splits.train);
        check("val", &splits.val);
        check("test", &splits.test);
        Self {
            kind: DatasetKind::Custom,
            graph,
            features,
            labels,
            splits,
            num_classes,
        }
    }

    /// One row of the Table I counterpart: (name, nodes, edges, classes,
    /// split string).
    pub fn table1_row(&self) -> (String, usize, usize, usize, String) {
        let (tr, va, te) = self.kind.split_ratios();
        (
            self.kind.name().to_string(),
            self.num_nodes(),
            self.graph.num_edges(),
            self.num_classes,
            format!("{tr}/{va}/{te}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(
            DatasetKind::from_name("arxiv"),
            Some(DatasetKind::OgbnArxiv)
        );
        assert_eq!(DatasetKind::from_name("nope"), None);
    }

    #[test]
    fn relative_ordering_matches_paper() {
        // Nodes: products > reddit > arxiv > flickr. Density: reddit densest.
        let sizes: Vec<usize> = DatasetKind::ALL
            .iter()
            .map(|k| k.sbm_config().nodes)
            .collect();
        assert!(sizes[3] > sizes[2] && sizes[2] > sizes[1] && sizes[1] > sizes[0]);
        let degs: Vec<f64> = DatasetKind::ALL
            .iter()
            .map(|k| k.sbm_config().avg_degree)
            .collect();
        assert!(degs[2] > degs[3] && degs[3] > degs[0] && degs[0] > degs[1]);
    }

    #[test]
    fn class_counts_match_table1() {
        assert_eq!(DatasetKind::Flickr.sbm_config().classes, 7);
        assert_eq!(DatasetKind::OgbnArxiv.sbm_config().classes, 40);
        assert_eq!(DatasetKind::Reddit.sbm_config().classes, 41);
        assert_eq!(DatasetKind::OgbnProducts.sbm_config().classes, 47);
    }

    #[test]
    fn generation_is_consistent() {
        let d = DatasetKind::Flickr.generate_scaled(7, 0.3);
        assert_eq!(d.labels.len(), d.num_nodes());
        assert_eq!(d.features.rows(), d.num_nodes());
        assert!(d.labels.iter().all(|&l| (l as usize) < d.num_classes));
        assert_eq!(d.num_classes(), 7);
    }

    #[test]
    fn scaled_generation_shrinks() {
        let full = DatasetKind::OgbnArxiv.generate_scaled(7, 0.5);
        let cfg = DatasetKind::OgbnArxiv.sbm_config();
        assert_eq!(full.num_nodes(), (cfg.nodes as f64 * 0.5).round() as usize);
    }

    #[test]
    fn products_split_is_mostly_test() {
        let d = DatasetKind::OgbnProducts.generate_scaled(3, 0.2);
        assert!(d.splits.test.len() > d.splits.train.len() * 5);
        assert!(d.splits.val.len() < d.splits.train.len());
    }

    #[test]
    fn datasets_are_distinct_given_same_seed() {
        let a = DatasetKind::Flickr.generate_scaled(5, 0.3);
        let b = DatasetKind::Reddit.generate_scaled(5, 0.3);
        assert_ne!(a.num_nodes(), b.num_nodes());
    }

    #[test]
    fn table1_row_fields() {
        let d = DatasetKind::Reddit.generate_scaled(1, 0.2);
        let (name, nodes, edges, classes, split) = d.table1_row();
        assert_eq!(name, "reddit");
        assert_eq!(nodes, d.num_nodes());
        assert!(edges > 0);
        assert_eq!(classes, 41);
        assert_eq!(split, "0.66/0.1/0.24");
    }

    #[test]
    fn from_parts_validates() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let f = Tensor::ones(3, 4);
        let labels = vec![0u32, 1, 0];
        let splits = Splits {
            train: vec![0],
            val: vec![1],
            test: vec![2],
        };
        let d = Dataset::from_parts(g, f, labels, splits, 2);
        assert_eq!(d.kind, DatasetKind::Custom);
        assert_eq!(d.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "labels length")]
    fn from_parts_rejects_bad_labels() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        Dataset::from_parts(
            g,
            Tensor::ones(3, 2),
            vec![0u32],
            Splits {
                train: vec![],
                val: vec![],
                test: vec![],
            },
            2,
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn from_parts_rejects_out_of_range_class() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        Dataset::from_parts(
            g,
            Tensor::ones(2, 2),
            vec![0u32, 5],
            Splits {
                train: vec![],
                val: vec![],
                test: vec![],
            },
            2,
        );
    }

    #[test]
    fn custom_dataset_trains() {
        // End-to-end check that a hand-assembled dataset works downstream.
        let synth = crate::synth::SbmConfig {
            nodes: 200,
            classes: 3,
            ..Default::default()
        }
        .generate(5);
        let splits = Splits::random(200, 0.6, 0.2, 0.2, 5);
        let d = Dataset::from_parts(synth.graph, synth.features, synth.labels, splits, 3);
        assert_eq!(d.kind.name(), "custom");
        assert!(d.splits.train.len() > 100);
    }
}
