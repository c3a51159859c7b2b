//! Isolation Forest outlier detection (Liu et al., ICDM 2008).
//!
//! The paper removes a tiny fraction of anomalous training rows before
//! fitting PCA + k-means (§6.4.1): 172 of ~205k rows, none of which matched
//! a legitimate browser's feature values. This is the standard isolation
//! forest: an ensemble of random isolation trees; anomalies are points with
//! short average path lengths.
//!
//! The training windows are mostly repeated rows (coarse-grained
//! fingerprints collide by design), so the forest works per *distinct*
//! row ([`RowGroups`]). A tree still draws its subsample as row indices,
//! but is built over the distinct rows drawn, each with its multiplicity;
//! a score is a pure function of the row, so each group is scored once,
//! every tree walked as a flat node array; and the outlier cut is found
//! from the groups' scores and sizes ([`IsolationForest::outlier_cut`])
//! and applied in one pass over the rows. Each is the same bits as its
//! per-row form, which the test module keeps as the reference. The
//! `&Matrix` entry points partition and delegate.

use crate::error::MlError;
use crate::matrix::{Matrix, RowGroups};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

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

/// One isolation tree, its nodes in build order: a node, then its left
/// subtree, then its right one.
#[derive(Debug, Clone, Default)]
struct Tree {
    nodes: Vec<Node>,
    /// The depth of the deepest leaf: a walk of that many steps from the
    /// root ends on the leaf of any row.
    depth: usize,
}

/// A node of a [`Tree`], flat. A step from a split goes to `children[0]`
/// when the row's value at `feature` is below `value`, and to
/// `children[1]` otherwise (a NaN included). A leaf's children are itself,
/// so a step from a leaf stays there and a walk needs no test for its end;
/// its `value` is the path length a row that ends there is credited: its
/// depth plus [`c_factor`] of the draws it holds (an unbuilt subtree counts
/// as the average BST search over them), computed once at build —
/// `c_factor` is an `ln`, and a leaf is reached once per group and tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    feature: usize,
    value: f64,
    children: [usize; 2],
}

/// Rows a tree walks at once when scoring many: their steps do not depend
/// on each other, so the walks overlap instead of each waiting on its own
/// chain of loads.
const LANES: usize = 8;

impl IsolationForest {
    /// Fits an isolation forest on the rows of `x`.
    ///
    /// Each tree draws from its own ChaCha stream (same key, stream id =
    /// tree index), so a tree does not depend on the ones built before it.
    pub fn fit(x: &Matrix, config: IsolationForestConfig) -> Result<Self, MlError> {
        Self::fit_grouped(&RowGroups::of(x), config)
    }

    /// [`IsolationForest::fit`] on the rows `groups` partitions. A tree
    /// draws its subsample as row indices, one `gen_range(0..n)` each, and
    /// reads each draw's group; the draws are then collapsed to (group,
    /// multiplicity) pairs in order of first draw, and the tree is built
    /// over the pairs ([`Tree::grow`]): the same RNG calls and split values
    /// as a build over the drawn rows, so the same tree, at a cost of the
    /// distinct rows drawn rather than the draws.
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
        let group_of = groups.group_of();
        // `slot[g]` is group `g`'s pair in the tree being drawn.
        let mut slot = vec![usize::MAX; groups.distinct().rows()];
        let mut scratch = Vec::new();

        let trees = (0..config.n_trees)
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
                rng.set_stream(t as u64);
                let mut draws: Vec<(usize, usize)> = Vec::with_capacity(sample);
                for _ in 0..sample {
                    let g = group_of[rng.gen_range(0..n)];
                    match slot[g] {
                        usize::MAX => {
                            slot[g] = draws.len();
                            draws.push((g, 1));
                        }
                        s => draws[s].1 += 1,
                    }
                }
                for &(g, _) in &draws {
                    slot[g] = usize::MAX;
                }
                Tree::grow(
                    groups.distinct(),
                    &mut draws,
                    height_limit,
                    &mut rng,
                    &mut scratch,
                )
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
        self.score_of(self.trees.iter().fold(0.0, |s, t| s + t.path_length(row)))
    }

    /// The score of a row whose path lengths, summed in tree order, are
    /// `path_sum`.
    fn score_of(&self, path_sum: f64) -> f64 {
        let avg_path = path_sum / self.trees.len() as f64;
        (-avg_path / self.c_norm).exp2()
    }

    /// [`IsolationForest::score_row`] of every row of `rows`, tree by
    /// tree, [`LANES`] rows walking each tree together: each row's path
    /// lengths are added in tree order, as `score_row` adds them, so the
    /// scores are the same bits.
    fn scores(&self, rows: &Matrix) -> Vec<f64> {
        let mut sums = vec![0.0; rows.rows()];
        let mut at = [0usize; LANES];
        for tree in &self.trees {
            for (chunk, sums) in sums.chunks_mut(LANES).enumerate() {
                let at = &mut at[..sums.len()];
                at.fill(0);
                for _ in 0..tree.depth {
                    for (lane, node) in at.iter_mut().enumerate() {
                        *node = tree.step(*node, rows.row(chunk * LANES + lane));
                    }
                }
                for (sum, &leaf) in sums.iter_mut().zip(at.iter()) {
                    *sum += tree.nodes[leaf].value;
                }
            }
        }
        sums.into_iter().map(|s| self.score_of(s)).collect()
    }

    /// Returns the indices of the `contamination` fraction of rows with the
    /// highest anomaly scores (at least one row if `contamination > 0`),
    /// ascending: the rows [`IsolationForest::outlier_cut`] drops.
    ///
    /// This mirrors the paper's usage: a 0.002-ish contamination removes the
    /// handful of rows that match no legitimate browser.
    pub fn outlier_indices(&self, x: &Matrix, contamination: f64) -> Result<Vec<usize>, MlError> {
        let groups = RowGroups::of(x);
        let mut cut = self.outlier_cut(&groups, contamination)?;
        let rows = groups.group_of().iter().enumerate();
        Ok(rows
            .filter(|&(_, &g)| cut.drops(g))
            .map(|(r, _)| r)
            .collect())
    }

    /// The outlier cut of the rows `groups` partitions: the one a stable
    /// sort of every row by descending score would make — every row
    /// scoring above the `n_out`-th highest score, then the first rows, in
    /// row order, of those scoring exactly that. It is found from the
    /// scores and sizes of the groups, each group scored once, so a cut
    /// may split a group; [`OutlierCut::drops`] applies it in one pass
    /// over the rows.
    pub fn outlier_cut(
        &self,
        groups: &RowGroups,
        contamination: f64,
    ) -> Result<OutlierCut, MlError> {
        if !(0.0..=0.5).contains(&contamination) {
            return Err(MlError::InvalidParameter {
                name: "contamination",
                reason: format!("must be in [0, 0.5], got {contamination}"),
            });
        }
        let sizes = groups.counts();
        if contamination == 0.0 {
            return Ok(OutlierCut {
                side: vec![Ordering::Less; sizes.len()],
                at_cut: 0,
            });
        }
        let n = groups.rows();
        let n_out = ((n as f64 * contamination).round() as usize).clamp(1, n);
        let scores = self.scores(groups.distinct());
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
        let side: Vec<Ordering> = scores
            .iter()
            .map(|s| s.partial_cmp(&cut).expect("scores are finite"))
            .collect();
        let above: usize = side
            .iter()
            .zip(sizes)
            .filter(|(&s, _)| s == Ordering::Greater)
            .map(|(_, &size)| size)
            .sum();
        Ok(OutlierCut {
            side,
            at_cut: n_out - above,
        })
    }
}

/// Which rows an outlier cut drops, group by group
/// ([`IsolationForest::outlier_cut`]).
#[derive(Debug, Clone)]
pub struct OutlierCut {
    /// How each group's score compares with the cut's.
    side: Vec<Ordering>,
    /// Rows still to drop of those scoring exactly the cut.
    at_cut: usize,
}

impl OutlierCut {
    /// Whether the cut drops the next row, of group `g`. Call it once per
    /// row of the window, in row order: a row scoring above the cut goes,
    /// and of the rows scoring exactly the cut the first ones go.
    ///
    /// # Panics
    /// Panics if `g` is not a group of the partition the cut was made on.
    #[inline]
    pub fn drops(&mut self, g: usize) -> bool {
        match self.side[g] {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal if self.at_cut > 0 => {
                self.at_cut -= 1;
                true
            }
            Ordering::Equal => false,
        }
    }
}

impl Tree {
    /// Builds a tree over `draws`: each distinct group drawn, with how
    /// often it was drawn, in order of first draw. `rows` holds each
    /// group's row. It is the build over the drawn rows in draw order
    /// (the test module's `reference`), node for node: a feature's min
    /// and max over the pairs are those over the rows, a split moves whole
    /// pairs and keeps their order, a leaf's size is the sum of its
    /// multiplicities, and a node holding one group draws its `start`
    /// before it becomes a leaf, as the row build does before finding
    /// every feature constant — so every RNG call is made in turn.
    fn grow(
        rows: &Matrix,
        draws: &mut [(usize, usize)],
        height_limit: usize,
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<(usize, usize)>,
    ) -> Self {
        let mut tree = Tree::default();
        tree.grow_node(rows, draws, 0, height_limit, rng, scratch);
        tree
    }

    /// Builds the subtree for `draws` (reordered in place), pushes its
    /// nodes, and returns the index of its root.
    fn grow_node(
        &mut self,
        rows: &Matrix,
        draws: &mut [(usize, usize)],
        depth: usize,
        height_limit: usize,
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<(usize, usize)>,
    ) -> usize {
        let size: usize = draws.iter().map(|&(_, m)| m).sum();
        if size <= 1 || depth >= height_limit {
            return self.push_leaf(size, depth);
        }
        // Pick a random feature with spread; fall back to a leaf if every
        // feature is constant over this partition, as it is over one row.
        let cols = rows.cols();
        let start = rng.gen_range(0..cols);
        let chosen = (draws.len() > 1)
            .then(|| {
                (0..cols).find_map(|off| {
                    let f = (start + off) % cols;
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &(g, _) in draws.iter() {
                        let v = rows.row(g)[f];
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    (hi > lo).then_some((f, lo, hi))
                })
            })
            .flatten();
        let Some((feature, lo, hi)) = chosen else {
            return self.push_leaf(size, depth);
        };
        let value = rng.gen_range(lo..hi);
        let below = partition(draws, |g| rows.row(g)[feature] < value, scratch);

        // Reserve our slot before recursing so children follow the parent.
        let slot = self.nodes.len();
        self.nodes.push(Node {
            feature,
            value,
            children: [0; 2],
        });
        let (left, right) = draws.split_at_mut(below);
        let left = self.grow_node(rows, left, depth + 1, height_limit, rng, scratch);
        let right = self.grow_node(rows, right, depth + 1, height_limit, rng, scratch);
        self.nodes[slot].children = [left, right];
        slot
    }

    fn push_leaf(&mut self, size: usize, depth: usize) -> usize {
        let slot = self.nodes.len();
        self.nodes.push(Node {
            feature: 0,
            value: depth as f64 + c_factor(size),
            children: [slot; 2],
        });
        self.depth = self.depth.max(depth);
        slot
    }

    /// One step of a walk: the child of `node` that `row` goes to, or the
    /// leaf `node` itself.
    #[inline]
    fn step(&self, node: usize, row: &[f64]) -> usize {
        let node = &self.nodes[node];
        let below = row[node.feature] < node.value;
        node.children[usize::from(!below)]
    }

    fn path_length(&self, row: &[f64]) -> f64 {
        let leaf = (0..self.depth).fold(0, |node, _| self.step(node, row));
        self.nodes[leaf].value
    }
}

/// Moves the draws whose group `below` holds to the front of `draws`,
/// keeping the order on each side, and returns how many there are.
fn partition(
    draws: &mut [(usize, usize)],
    below: impl Fn(usize) -> bool,
    scratch: &mut Vec<(usize, usize)>,
) -> usize {
    scratch.clear();
    let mut kept = 0;
    for i in 0..draws.len() {
        let draw = draws[i];
        if below(draw.0) {
            draws[kept] = draw;
            kept += 1;
        } else {
            scratch.push(draw);
        }
    }
    draws[kept..].copy_from_slice(scratch);
    kept
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

    /// `score_row` of every row of `x`.
    fn scores_of(forest: &IsolationForest, x: &Matrix) -> Vec<f64> {
        x.iter_rows().map(|row| forest.score_row(row)).collect()
    }

    /// The forest as it was built and walked before the grouped build and
    /// the flat nodes: each tree built over its drawn row indices, in draw
    /// order, and walked as an enum. The grouped build and the flat walk
    /// must equal it bit for bit.
    mod reference {
        use super::*;

        #[derive(Debug)]
        pub(super) enum Node {
            Split {
                feature: usize,
                value: f64,
                left: usize,
                right: usize,
            },
            Leaf {
                path_length: f64,
            },
        }

        pub(super) struct Forest {
            pub(super) trees: Vec<Vec<Node>>,
            c_norm: f64,
        }

        impl Forest {
            pub(super) fn fit(groups: &RowGroups, config: IsolationForestConfig) -> Self {
                let n = groups.rows();
                let sample = config.sample_size.min(n);
                let height_limit = (sample as f64).log2().ceil() as usize;
                let trees = (0..config.n_trees)
                    .map(|t| {
                        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
                        rng.set_stream(t as u64);
                        let indices: Vec<usize> =
                            (0..sample).map(|_| rng.gen_range(0..n)).collect();
                        let mut nodes = Vec::new();
                        build_node(groups, indices, 0, height_limit, &mut rng, &mut nodes);
                        nodes
                    })
                    .collect();
                Self {
                    trees,
                    c_norm: c_factor(sample),
                }
            }

            pub(super) fn score_row(&self, row: &[f64]) -> f64 {
                let avg_path: f64 = self.trees.iter().map(|t| path_length(t, row)).sum::<f64>()
                    / self.trees.len() as f64;
                (-avg_path / self.c_norm).exp2()
            }
        }

        fn build_node(
            x: &RowGroups,
            indices: Vec<usize>,
            depth: usize,
            height_limit: usize,
            rng: &mut ChaCha8Rng,
            nodes: &mut Vec<Node>,
        ) -> usize {
            let leaf = |size: usize| Node::Leaf {
                path_length: depth as f64 + c_factor(size),
            };
            if indices.len() <= 1 || depth >= height_limit {
                nodes.push(leaf(indices.len()));
                return nodes.len() - 1;
            }
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
                nodes.push(leaf(indices.len()));
                return nodes.len() - 1;
            };
            let value = rng.gen_range(lo..hi);
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| x.row(i)[feature] < value);
            let slot = nodes.len();
            nodes.push(Node::Leaf { path_length: 0.0 });
            let left = build_node(x, left_idx, depth + 1, height_limit, rng, nodes);
            let right = build_node(x, right_idx, depth + 1, height_limit, rng, nodes);
            nodes[slot] = Node::Split {
                feature,
                value,
                left,
                right,
            };
            slot
        }

        fn path_length(nodes: &[Node], row: &[f64]) -> f64 {
            let mut node = 0usize;
            loop {
                match &nodes[node] {
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

    /// Marks a leaf in [`flat_bits`] and [`reference_bits`].
    const LEAF: usize = usize::MAX;

    /// Node `i` as `(feature, value bits, children)`, a leaf as `(LEAF,
    /// path length bits, [0, 0])`, for either build.
    fn flat_bits((i, node): (usize, &Node)) -> (usize, u64, [usize; 2]) {
        if node.children == [i; 2] {
            (LEAF, node.value.to_bits(), [0; 2])
        } else {
            (node.feature, node.value.to_bits(), node.children)
        }
    }

    fn reference_bits(node: &reference::Node) -> (usize, u64, [usize; 2]) {
        match *node {
            reference::Node::Split {
                feature,
                value,
                left,
                right,
            } => (feature, value.to_bits(), [left, right]),
            reference::Node::Leaf { path_length } => (LEAF, path_length.to_bits(), [0; 2]),
        }
    }

    /// A duplicate-heavy window: every row is one of at most eight
    /// `width`-wide vectors, picked by `picks`. A vector's values are
    /// `0.0`, `-0.0` or `1.0` where `codes` says so and `noise` elsewhere.
    fn duplicate_heavy(width: usize, codes: &[u8], noise: &[f64], picks: &[usize]) -> Matrix {
        let value = |i: usize| match codes[i] {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            _ => noise[i],
        };
        let vectors: Vec<Vec<f64>> = (0..8)
            .map(|v| (0..width).map(|c| value(v * 4 + c)).collect())
            .collect();
        let rows: Vec<Vec<f64>> = picks.iter().map(|&p| vectors[p].clone()).collect();
        Matrix::from_rows(&rows).unwrap()
    }

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
        let scores = scores_of(&f, &x);
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
        let scores = scores_of(&f, &x);
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
        for s in scores_of(&f, &x) {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    proptest! {
        /// Every row is one of at most eight vectors, so almost every row
        /// repeats another. `score_row` walks the forest for the one row it
        /// is given, so it is the reference for the group scores the cut
        /// reads, each row reading its group's.
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
            let groups = RowGroups::of(&x);
            let scores = forest.scores(groups.distinct());
            for (r, &g) in groups.group_of().iter().enumerate() {
                let want = forest.score_row(x.row(r));
                prop_assert_eq!(scores[g].to_bits(), want.to_bits(), "row {}", r);
            }
        }

        /// The grouped build is the row build node for node, bit for bit:
        /// every split's feature, value and children and every leaf's path
        /// length, on windows where almost every draw repeats another.
        #[test]
        fn prop_oracle_grouped_forest_nodes_equal_the_row_build(
            width in 1usize..5,
            codes in proptest::collection::vec(0u8..6, 32..33),
            noise in proptest::collection::vec(-50.0f64..50.0, 32..33),
            picks in proptest::collection::vec(0usize..8, 2..400),
            n_trees in 1usize..12,
            sample_size in 2usize..300,
            seed in any::<u64>(),
        ) {
            let x = duplicate_heavy(width, &codes, &noise, &picks);
            let groups = RowGroups::of(&x);
            let cfg = IsolationForestConfig { n_trees, sample_size, seed };
            let forest = IsolationForest::fit_grouped(&groups, cfg).unwrap();
            let reference = reference::Forest::fit(&groups, cfg);
            prop_assert_eq!(forest.trees.len(), reference.trees.len());
            for (t, (tree, want)) in forest.trees.iter().zip(&reference.trees).enumerate() {
                let got: Vec<_> = tree.nodes.iter().enumerate().map(flat_bits).collect();
                let want: Vec<_> = want.iter().map(reference_bits).collect();
                prop_assert_eq!(got, want, "tree {}", t);
            }
        }

        /// Flat scoring is the enum walk bit for bit: `score_row` on every
        /// row, and the group scores the cut reads, on every group.
        #[test]
        fn prop_oracle_flat_scores_equal_the_enum_walk(
            width in 1usize..5,
            codes in proptest::collection::vec(0u8..6, 32..33),
            noise in proptest::collection::vec(-50.0f64..50.0, 32..33),
            picks in proptest::collection::vec(0usize..8, 2..400),
            n_trees in 1usize..30,
            seed in any::<u64>(),
        ) {
            let x = duplicate_heavy(width, &codes, &noise, &picks);
            let groups = RowGroups::of(&x);
            let cfg = IsolationForestConfig { n_trees, sample_size: 64, seed };
            let forest = IsolationForest::fit_grouped(&groups, cfg).unwrap();
            let reference = reference::Forest::fit(&groups, cfg);
            for (r, row) in x.iter_rows().enumerate() {
                prop_assert_eq!(
                    forest.score_row(row).to_bits(),
                    reference.score_row(row).to_bits(),
                    "row {}", r
                );
            }
            let scores = forest.scores(groups.distinct());
            for (g, row) in groups.distinct().iter_rows().enumerate() {
                let want = reference.score_row(row);
                prop_assert_eq!(scores[g].to_bits(), want.to_bits(), "group {}", g);
            }
        }
    }
}
