//! Semi-supervised clustering metrics (Appendix-4, Formula 1).
//!
//! The paper's accuracy metric: for each *label* (user-agent string), the
//! cluster holding the majority of that label's samples is "its" cluster;
//! a sample is correct iff it lands in its label's majority cluster.
//! Accuracy is the fraction of correctly-assigned samples.

use crate::error::MlError;
use crate::memo::{Memo, WordHasher, MEMO_SLOTS};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Outcome of a majority-cluster evaluation.
///
/// Labels are kept in a `BTreeMap` so every walk over the per-label
/// clusters happens in sorted key order: retraining the pipeline on the
/// same data yields the same iteration order, which the semi-supervised
/// cluster table and the drift detector both depend on.
#[derive(Debug, Clone)]
pub struct ClusterAccuracy<L: Ord> {
    /// Fraction of samples assigned to their label's majority cluster.
    pub accuracy: f64,
    /// Majority cluster per label.
    pub label_clusters: BTreeMap<L, usize>,
    /// Samples per label.
    pub label_totals: BTreeMap<L, usize>,
    /// Number of misclustered samples.
    pub miscount: usize,
    /// Total samples evaluated.
    pub total: usize,
}

impl<L: Ord + Clone> ClusterAccuracy<L> {
    /// Per-label accuracy: fraction of that label's samples in its majority
    /// cluster. Used by the drift detector, which tracks accuracy of *new
    /// releases* individually (Table 6's "Accuracy" column).
    pub fn label_accuracy(labels: &[L], clusters: &[usize], label: &L) -> Option<f64> {
        let indices: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| *l == label)
            .map(|(i, _)| i)
            .collect();
        if indices.is_empty() {
            return None;
        }
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for &i in &indices {
            *counts.entry(clusters[i]).or_default() += 1;
        }
        let majority = counts.values().copied().max().unwrap_or(0);
        Some(majority as f64 / indices.len() as f64)
    }
}

/// Cells a label × cluster count table may always take; beyond this and
/// the sample count, the tally counts sparsely instead.
const DENSE_CELLS: usize = 1 << 16;

/// Computes the paper's majority-cluster accuracy (Formula 1).
///
/// `labels[i]` is the ground-truth label (user-agent) of sample `i`;
/// `clusters[i]` its predicted cluster. The slices must be equal-length and
/// non-empty.
///
/// One pass numbers the labels densely by first appearance (a seedless
/// memo in front of an ordered map, as in [`crate::DistinctRows`]), and a
/// flat label × cluster table counts the samples; only the distinct
/// labels are put in order, at the end. Cluster ids too sparse for that
/// table (more cells than samples and than `DENSE_CELLS`) are counted in
/// an ordered map instead. Either way a label's majority is its cluster
/// with the most samples, the lowest on a tie, and a label is keyed by
/// its first sample's value — which matters when `Eq` ignores part of it,
/// as a `UserAgent`'s ignores its OS.
pub fn majority_cluster_accuracy<L: Ord + Hash + Clone>(
    labels: &[L],
    clusters: &[usize],
) -> Result<ClusterAccuracy<L>, MlError> {
    if labels.is_empty() {
        return Err(MlError::EmptyInput);
    }
    if labels.len() != clusters.len() {
        return Err(MlError::DimensionMismatch {
            got: clusters.len(),
            expected: labels.len(),
            what: "cluster assignments",
        });
    }

    let mut ids = LabelIds::new(Memo::new(MEMO_SLOTS));
    let label_of: Vec<usize> = labels.iter().map(|l| ids.intern(l)).collect();
    let mut tallies = vec![Majority::default(); ids.labels.len()];
    let width = clusters.iter().max().map_or(0, |&c| c.saturating_add(1));
    let cells = tallies.len().saturating_mul(width);
    if cells <= DENSE_CELLS.max(labels.len()) {
        let mut counts = vec![0usize; cells];
        for (&id, &c) in label_of.iter().zip(clusters) {
            counts[id * width + c] += 1;
        }
        for (tally, row) in tallies.iter_mut().zip(counts.chunks_exact(width)) {
            for (c, &n) in row.iter().enumerate() {
                tally.offer(c, n);
            }
        }
    } else {
        let mut counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (&id, &c) in label_of.iter().zip(clusters) {
            *counts.entry((id, c)).or_default() += 1;
        }
        for ((id, c), n) in counts {
            tallies[id].offer(c, n);
        }
    }

    let by_label = || ids.map.iter().map(|(l, &id)| (l.clone(), &tallies[id]));
    let correct: usize = tallies.iter().map(|t| t.count).sum();
    let total = labels.len();
    Ok(ClusterAccuracy {
        accuracy: correct as f64 / total as f64,
        label_clusters: by_label().map(|(l, t)| (l, t.cluster)).collect(),
        label_totals: by_label().map(|(l, t)| (l, t.total)).collect(),
        miscount: total - correct,
        total,
    })
}

/// Labels numbered densely by first appearance. The ordered map decides
/// every id; the memo, whose hits are guarded by `==`, spares a repeated
/// label the map walk.
struct LabelIds<L> {
    map: BTreeMap<L, usize>,
    /// Label `id`, as its first sample had it.
    labels: Vec<L>,
    memo: Memo,
}

impl<L: Ord + Hash + Clone> LabelIds<L> {
    fn new(memo: Memo) -> Self {
        Self {
            map: BTreeMap::new(),
            labels: Vec::new(),
            memo,
        }
    }

    fn intern(&mut self, label: &L) -> usize {
        let mut hasher = WordHasher::default();
        label.hash(&mut hasher);
        let hash = hasher.finish();
        if let Some(id) = self.memo.get(hash) {
            if self.labels[id] == *label {
                return id;
            }
        }
        let id = match self.map.get(label) {
            Some(&id) => id,
            None => {
                let id = self.labels.len();
                self.map.insert(label.clone(), id);
                self.labels.push(label.clone());
                id
            }
        };
        self.memo.set(hash, id);
        id
    }
}

/// One label's running majority, offered its clusters in increasing
/// order so that the first of equal counts — the lowest cluster — stays.
#[derive(Debug, Clone, Copy, Default)]
struct Majority {
    cluster: usize,
    count: usize,
    total: usize,
}

impl Majority {
    fn offer(&mut self, cluster: usize, count: usize) {
        self.total += count;
        if count > self.count {
            self.cluster = cluster;
            self.count = count;
        }
    }
}

/// Inverts a label→cluster map into cluster→labels (sorted for stable
/// display) — the shape of the paper's Table 3.
pub fn clusters_to_labels<L: Clone + Ord>(
    label_clusters: &BTreeMap<L, usize>,
) -> Vec<(usize, Vec<L>)> {
    let mut by_cluster: BTreeMap<usize, Vec<L>> = BTreeMap::new();
    for (l, &c) in label_clusters {
        by_cluster.entry(c).or_default().push(l.clone());
    }
    let mut out: Vec<(usize, Vec<L>)> = by_cluster
        .into_iter()
        .map(|(c, mut ls)| {
            ls.sort();
            (c, ls)
        })
        .collect();
    out.sort_by_key(|(c, _)| *c);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tally before it was dense: a map per label of counts per
    /// cluster. Returns each label's majority cluster and sample count,
    /// the label keyed as its first sample had it, and the correct count.
    fn reference_tally<L: Ord + Clone>(
        labels: &[L],
        clusters: &[usize],
    ) -> (Vec<(L, usize, usize)>, usize) {
        let mut per_label: BTreeMap<L, BTreeMap<usize, usize>> = BTreeMap::new();
        for (l, &c) in labels.iter().zip(clusters) {
            *per_label
                .entry(l.clone())
                .or_default()
                .entry(c)
                .or_default() += 1;
        }
        let mut correct = 0;
        let tally = per_label
            .into_iter()
            .map(|(l, counts)| {
                let (&cluster, &count) = counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .expect("non-empty counts");
                correct += count;
                (l, cluster, counts.values().sum())
            })
            .collect();
        (tally, correct)
    }

    /// A label whose equality, order and hash ignore `variant`, as a
    /// `UserAgent`'s ignore its OS.
    #[derive(Debug, Clone, Copy)]
    struct Claim {
        release: u8,
        variant: u8,
    }

    impl PartialEq for Claim {
        fn eq(&self, other: &Self) -> bool {
            self.release == other.release
        }
    }
    impl Eq for Claim {}
    impl PartialOrd for Claim {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Claim {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.release.cmp(&other.release)
        }
    }
    impl Hash for Claim {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.release.hash(state);
        }
    }

    #[test]
    fn label_ids_sharing_one_memo_slot_keep_their_first_appearance_ids() {
        // Every label in one slot: each repeat whose slot another label
        // took is answered by the ordered map, never by the slot.
        let mut ids = LabelIds::new(Memo::new(1));
        let got: Vec<usize> = ["b", "a", "b", "c", "a", "a", "c", "b"]
            .iter()
            .map(|l| ids.intern(l))
            .collect();
        assert_eq!(got, [0, 1, 0, 2, 1, 1, 2, 0]);
        assert_eq!(ids.labels, ["b", "a", "c"]);
    }

    proptest! {
        /// The dense tally equals the per-label maps on every field:
        /// majority clusters, with ties to the lowest and each label as
        /// its first sample had it; the accuracy's bits; the miscount;
        /// the per-label totals. `tied` appends, per entry, equal runs of
        /// one label in two clusters; `spread` moves the cluster ids far
        /// apart, onto the sparse count.
        #[test]
        fn prop_dense_tally_equals_the_per_label_maps(
            samples in proptest::collection::vec(0usize..6 * 4 * 5, 1..300),
            tied in proptest::collection::vec(0usize..3 * 4 * 5 * 5 * 3, 0..4),
            spread in any::<bool>(),
        ) {
            // Each draw is a mixed-radix number: its digits pick release,
            // variant, cluster(s) and run length.
            let digit = |x: &mut usize, radix: usize| {
                let d = *x % radix;
                *x /= radix;
                d
            };
            let mut labels = Vec::new();
            let mut clusters = Vec::new();
            for mut x in samples {
                let (release, variant) = (digit(&mut x, 6) as u8, digit(&mut x, 4) as u8);
                labels.push(Claim { release, variant });
                clusters.push(digit(&mut x, 5));
            }
            for mut x in tied {
                let (release, variant) = (6 + digit(&mut x, 3) as u8, digit(&mut x, 4) as u8);
                let (a, b, n) = (digit(&mut x, 5), digit(&mut x, 5), 1 + digit(&mut x, 3));
                for _ in 0..n {
                    labels.extend([Claim { release, variant }; 2]);
                    clusters.extend([a, b]);
                }
            }
            if spread {
                clusters.iter_mut().for_each(|c| *c = c.wrapping_mul(1 << 40).wrapping_sub(1));
            }
            let got = majority_cluster_accuracy(&labels, &clusters).unwrap();
            let (want, correct) = reference_tally(&labels, &clusters);
            let keyed = |l: &Claim| (l.release, l.variant);
            prop_assert_eq!(
                got.label_clusters.iter().map(|(l, &c)| (keyed(l), c)).collect::<Vec<_>>(),
                want.iter().map(|(l, c, _)| (keyed(l), *c)).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                got.label_totals.iter().map(|(l, &n)| (keyed(l), n)).collect::<Vec<_>>(),
                want.iter().map(|(l, _, n)| (keyed(l), *n)).collect::<Vec<_>>()
            );
            prop_assert_eq!(got.miscount, labels.len() - correct);
            prop_assert_eq!(got.total, labels.len());
            prop_assert_eq!(
                got.accuracy.to_bits(),
                (correct as f64 / labels.len() as f64).to_bits()
            );
        }
    }

    #[test]
    fn perfect_clustering_is_100_percent() {
        let labels = vec!["a", "a", "b", "b", "b"];
        let clusters = vec![0, 0, 1, 1, 1];
        let acc = majority_cluster_accuracy(&labels, &clusters).unwrap();
        assert_eq!(acc.accuracy, 1.0);
        assert_eq!(acc.miscount, 0);
        assert_eq!(acc.label_clusters["a"], 0);
        assert_eq!(acc.label_clusters["b"], 1);
    }

    #[test]
    fn minority_samples_count_as_misclustered() {
        // 3 of 4 "a" in cluster 0, 1 stray in cluster 1.
        let labels = vec!["a", "a", "a", "a"];
        let clusters = vec![0, 0, 0, 1];
        let acc = majority_cluster_accuracy(&labels, &clusters).unwrap();
        assert_eq!(acc.accuracy, 0.75);
        assert_eq!(acc.miscount, 1);
    }

    #[test]
    fn two_labels_sharing_a_cluster_is_fine() {
        // The paper's clusters hold several user-agents (e.g. Chrome 110-113
        // and Edge 110-113 share cluster 0); accuracy only requires each
        // label's samples to be *together*.
        let labels = vec!["chrome110", "chrome110", "edge110", "edge110"];
        let clusters = vec![0, 0, 0, 0];
        let acc = majority_cluster_accuracy(&labels, &clusters).unwrap();
        assert_eq!(acc.accuracy, 1.0);
    }

    #[test]
    fn tie_breaks_to_lowest_cluster() {
        let labels = vec!["a", "a"];
        let clusters = vec![1, 0];
        let acc = majority_cluster_accuracy(&labels, &clusters).unwrap();
        assert_eq!(acc.label_clusters["a"], 0);
        assert_eq!(acc.accuracy, 0.5);
    }

    #[test]
    fn input_validation() {
        let empty: Vec<&str> = vec![];
        assert!(majority_cluster_accuracy(&empty, &[]).is_err());
        assert!(majority_cluster_accuracy(&["a"], &[0, 1]).is_err());
    }

    #[test]
    fn label_accuracy_per_label() {
        let labels = vec!["a", "a", "a", "b"];
        let clusters = vec![0, 0, 1, 2];
        let a = ClusterAccuracy::label_accuracy(&labels, &clusters, &"a").unwrap();
        assert!((a - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            ClusterAccuracy::label_accuracy(&labels, &clusters, &"b"),
            Some(1.0)
        );
        assert_eq!(
            ClusterAccuracy::label_accuracy(&labels, &clusters, &"zz"),
            None
        );
    }

    #[test]
    fn clusters_to_labels_inverts_and_sorts() {
        let labels = vec!["b", "a", "c"];
        let clusters = vec![1, 1, 0];
        let acc = majority_cluster_accuracy(&labels, &clusters).unwrap();
        let table = clusters_to_labels(&acc.label_clusters);
        assert_eq!(table, vec![(0, vec!["c"]), (1, vec!["a", "b"])]);
    }
}
