//! Isolation Forest outlier detection (Liu et al., ICDM 2008).
//!
//! The paper removes a tiny fraction of anomalous training rows before
//! fitting PCA + k-means (§6.4.1): 172 of ~205k rows, none of which matched
//! a legitimate browser's feature values. This is the standard isolation
//! forest: an ensemble of random isolation trees; anomalies are points with
//! short average path lengths.
//!
//! Scoring a matrix walks the forest once per *distinct* row: a score is a
//! pure function of the row, training windows are mostly repeated rows
//! (coarse-grained fingerprints collide by design), and a leaf already
//! holds the path length it credits. [`IsolationForest::score_row`] is the
//! one traversal; [`IsolationForest::score`] and the outlier cut decide
//! which rows it runs on. The `*_grouped` entry points take a window
//! already partitioned ([`RowGroups`]); the `&Matrix` ones partition and
//! delegate.

use crate::error::MlError;
use crate::matrix::{Matrix, RowGroups};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`IsolationForest::fit`].
#[derive(Debug, Clone, Copy)]
pub struct IsolationForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Sub-sample size per tree (clamped to the dataset size).
    pub sample_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IsolationForestConfig {
    fn default() -> Self {
        // 100 trees x 256 samples are the constants from the original paper.
        Self {
            n_trees: 100,
            sample_size: 256,
            seed: 0x1F05E57,
        }
    }
}

/// A fitted isolation forest.
#[derive(Debug, Clone)]
pub struct IsolationForest {
    trees: Vec<Tree>,
    /// Average path length normaliser `c(sample_size)`.
    c_norm: f64,
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    /// Internal split: feature index, split value, left child, right child.
    Split {
        feature: usize,
        value: f64,
        left: usize,
        right: usize,
    },
    /// Leaf, holding the path length a row that ends here is credited:
    /// the leaf's depth plus [`c_factor`] of the training points it holds
    /// (an unbuilt subtree counts as the average BST search over them).
    /// Computed once at build: `c_factor` is an `ln`, and a leaf is visited
    /// once per row and tree.
    Leaf { path_length: f64 },
}

impl Node {
    fn leaf(size: usize, depth: usize) -> Self {
        Node::Leaf {
            path_length: depth as f64 + c_factor(size),
        }
    }
}

impl IsolationForest {
    /// Fits an isolation forest on the rows of `x`.
    ///
    /// Each tree draws from its own ChaCha stream (same key, stream id =
    /// tree index), so a tree does not depend on the ones built before it.
    pub fn fit(x: &Matrix, config: IsolationForestConfig) -> Result<Self, MlError> {
        Self::fit_grouped(&RowGroups::of(x), config)
    }

    /// [`IsolationForest::fit`] on the rows `groups` partitions: a tree
    /// subsamples row indices, and reads each sampled row through its
    /// group.
    pub fn fit_grouped(groups: &RowGroups, config: IsolationForestConfig) -> Result<Self, MlError> {
        if config.n_trees == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_trees",
                reason: "must be at least 1".into(),
            });
        }
        if config.sample_size < 2 {
            return Err(MlError::InvalidParameter {
                name: "sample_size",
                reason: "must be at least 2".into(),
            });
        }
        let n = groups.rows();
        let sample = config.sample_size.min(n);
        let height_limit = (sample as f64).log2().ceil() as usize;

        let trees = (0..config.n_trees)
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
                rng.set_stream(t as u64);
                let indices: Vec<usize> = (0..sample).map(|_| rng.gen_range(0..n)).collect();
                Tree::build(groups, indices, height_limit, &mut rng)
            })
            .collect();

        Ok(Self {
            trees,
            c_norm: c_factor(sample),
        })
    }

    /// Anomaly score in `(0, 1)` for one sample; higher is more anomalous.
    ///
    /// Scores near 1 indicate isolation after very few splits; scores well
    /// below 0.5 indicate normal points.
    pub fn score_row(&self, row: &[f64]) -> f64 {
        let avg_path: f64 =
            self.trees.iter().map(|t| t.path_length(row)).sum::<f64>() / self.trees.len() as f64;
        (-avg_path / self.c_norm).exp2()
    }

    /// Anomaly scores for every row of `x`.
    ///
    /// A score is a pure function of one row, so the forest is walked
    /// once per group of bit-identical rows — [`IsolationForest::score_row`]
    /// on the group's row — and every row reads its group's score: the
    /// same bits as walking the forest for each row.
    pub fn score(&self, x: &Matrix) -> Vec<f64> {
        let groups = RowGroups::of(x);
        let scores = groups.map(|row| self.score_row(row));
        groups.group_of().iter().map(|&g| scores[g]).collect()
    }

    /// Returns the indices of the `contamination` fraction of rows with the
    /// highest anomaly scores (at least one row if `contamination > 0`).
    ///
    /// This mirrors the paper's usage: a 0.002-ish contamination removes the
    /// handful of rows that match no legitimate browser.
    pub fn outlier_indices(&self, x: &Matrix, contamination: f64) -> Result<Vec<usize>, MlError> {
        self.outlier_indices_grouped(&RowGroups::of(x), contamination)
    }

    /// [`IsolationForest::outlier_indices`] of the rows `groups`
    /// partitions, ascending. The cut is the one a stable sort of every
    /// row by descending score would make — every row scoring above the
    /// `n_out`-th highest score, then the first rows, in row order, of
    /// those scoring exactly that — found from the scores and sizes of the
    /// groups, so a cut may split a group.
    pub fn outlier_indices_grouped(
        &self,
        groups: &RowGroups,
        contamination: f64,
    ) -> Result<Vec<usize>, MlError> {
        if !(0.0..=0.5).contains(&contamination) {
            return Err(MlError::InvalidParameter {
                name: "contamination",
                reason: format!("must be in [0, 0.5], got {contamination}"),
            });
        }
        if contamination == 0.0 {
            return Ok(Vec::new());
        }
        let n = groups.rows();
        let n_out = ((n as f64 * contamination).round() as usize).clamp(1, n);
        let scores = groups.map(|row| self.score_row(row));
        let sizes = groups.counts();
        let mut ranked: Vec<usize> = (0..scores.len()).collect();
        ranked.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("scores are finite")
        });
        // The `n_out`-th highest score, counting every row of a group.
        let mut taken = 0;
        let cut = ranked
            .iter()
            .find(|&&g| {
                taken += sizes[g];
                taken >= n_out
            })
            .map(|&g| scores[g])
            .expect("n_out <= n");
        let above: usize = (0..scores.len())
            .filter(|&g| scores[g] > cut)
            .map(|g| sizes[g])
            .sum();
        let mut at_cut = n_out - above;
        let mut out = Vec::with_capacity(n_out);
        for (r, &g) in groups.group_of().iter().enumerate() {
            let keep = if scores[g] == cut && at_cut > 0 {
                at_cut -= 1;
                true
            } else {
                scores[g] > cut
            };
            if keep {
                out.push(r);
            }
        }
        Ok(out)
    }
}

impl Tree {
    fn build(
        x: &RowGroups,
        indices: Vec<usize>,
        height_limit: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let mut nodes = Vec::new();
        Self::build_node(x, indices, 0, height_limit, rng, &mut nodes);
        Tree { nodes }
    }

    /// Builds the subtree for `indices`, pushes its nodes, and returns the
    /// root index of the subtree.
    fn build_node(
        x: &RowGroups,
        indices: Vec<usize>,
        depth: usize,
        height_limit: usize,
        rng: &mut ChaCha8Rng,
        nodes: &mut Vec<Node>,
    ) -> usize {
        if indices.len() <= 1 || depth >= height_limit {
            nodes.push(Node::leaf(indices.len(), depth));
            return nodes.len() - 1;
        }
        // Pick a random feature with spread; fall back to a leaf if every
        // feature is constant over this partition.
        let cols = x.distinct().cols();
        let start = rng.gen_range(0..cols);
        let mut chosen = None;
        for off in 0..cols {
            let f = (start + off) % cols;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in &indices {
                let v = x.row(i)[f];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi > lo {
                chosen = Some((f, lo, hi));
                break;
            }
        }
        let Some((feature, lo, hi)) = chosen else {
            nodes.push(Node::leaf(indices.len(), depth));
            return nodes.len() - 1;
        };
        let value = rng.gen_range(lo..hi);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x.row(i)[feature] < value);

        // Reserve our slot before recursing so children follow the parent.
        let slot = nodes.len();
        nodes.push(Node::Leaf { path_length: 0.0 }); // placeholder
        let left = Self::build_node(x, left_idx, depth + 1, height_limit, rng, nodes);
        let right = Self::build_node(x, right_idx, depth + 1, height_limit, rng, nodes);
        nodes[slot] = Node::Split {
            feature,
            value,
            left,
            right,
        };
        slot
    }

    fn path_length(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Split {
                    feature,
                    value,
                    left,
                    right,
                } => {
                    node = if row[*feature] < *value {
                        *left
                    } else {
                        *right
                    };
                }
                Node::Leaf { path_length } => return *path_length,
            }
        }
    }
}

/// Average path length of an unsuccessful BST search over `n` points —
/// the normalisation constant from the isolation forest paper.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    // 2 H(n-1) - 2(n-1)/n with H via the Euler-Mascheroni approximation.
    2.0 * ((nf - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (nf - 1.0) / nf
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dataset_with_outlier() -> Matrix {
        // Tight cluster around (0, 0) plus one far outlier.
        let mut rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
            .collect();
        rows.push(vec![100.0, -100.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn outlier_scores_higher_than_inliers() {
        let x = dataset_with_outlier();
        let f = IsolationForest::fit(
            &x,
            IsolationForestConfig {
                n_trees: 50,
                sample_size: 64,
                seed: 1,
            },
        )
        .unwrap();
        let scores = f.score(&x);
        let outlier_score = scores[100];
        let max_inlier = scores[..100].iter().cloned().fold(0.0, f64::max);
        assert!(
            outlier_score > max_inlier,
            "outlier {outlier_score} must exceed max inlier {max_inlier}"
        );
        assert!(outlier_score > 0.6);
    }

    #[test]
    fn outlier_indices_finds_planted_outlier() {
        let x = dataset_with_outlier();
        let f = IsolationForest::fit(
            &x,
            IsolationForestConfig {
                n_trees: 50,
                sample_size: 64,
                seed: 2,
            },
        )
        .unwrap();
        let idx = f.outlier_indices(&x, 0.01).unwrap();
        assert!(
            idx.contains(&100),
            "planted outlier must be flagged, got {idx:?}"
        );
    }

    #[test]
    fn zero_contamination_returns_empty() {
        let x = dataset_with_outlier();
        let f = IsolationForest::fit(&x, IsolationForestConfig::default()).unwrap();
        assert!(f.outlier_indices(&x, 0.0).unwrap().is_empty());
        assert!(f.outlier_indices(&x, 0.6).is_err());
        assert!(f.outlier_indices(&x, -0.1).is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let x = dataset_with_outlier();
        assert!(IsolationForest::fit(
            &x,
            IsolationForestConfig {
                n_trees: 0,
                sample_size: 64,
                seed: 0
            }
        )
        .is_err());
        assert!(IsolationForest::fit(
            &x,
            IsolationForestConfig {
                n_trees: 10,
                sample_size: 1,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn constant_data_scores_uniformly() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 50]).unwrap();
        let f = IsolationForest::fit(
            &x,
            IsolationForestConfig {
                n_trees: 20,
                sample_size: 32,
                seed: 3,
            },
        )
        .unwrap();
        let scores = f.score(&x);
        let first = scores[0];
        assert!(scores.iter().all(|&s| (s - first).abs() < 1e-12));
    }

    #[test]
    fn c_factor_monotone() {
        assert_eq!(c_factor(0), 0.0);
        assert_eq!(c_factor(1), 0.0);
        let mut prev = 0.0;
        for n in 2..1000 {
            let c = c_factor(n);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let x = dataset_with_outlier();
        let f = IsolationForest::fit(&x, IsolationForestConfig::default()).unwrap();
        for s in f.score(&x) {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    proptest! {
        /// Every row is one of at most eight vectors, so almost every row
        /// repeats another — the input no bit-exact test in this module has.
        /// `score_row` walks the forest for the one row it is given, so it
        /// is the reference for whatever `score` does with equal rows.
        #[test]
        fn grouped_scores_equal_per_row_scores(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, 3..4), 1..9),
            picks in proptest::collection::vec(0usize..8, 2..300),
            seed in any::<u64>(),
        ) {
            let rows: Vec<Vec<f64>> = picks
                .iter()
                .map(|&p| vectors[p % vectors.len()].clone())
                .collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let cfg = IsolationForestConfig { n_trees: 20, sample_size: 32, seed };
            let forest = IsolationForest::fit(&x, cfg).unwrap();
            let scores = forest.score(&x);
            prop_assert_eq!(scores.len(), x.rows());
            for (r, s) in scores.iter().enumerate() {
                prop_assert_eq!(s.to_bits(), forest.score_row(x.row(r)).to_bits(), "row {}", r);
            }
        }
    }
}
