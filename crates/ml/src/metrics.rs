//! The paper's majority-cluster accuracy (Appendix-4, Formula 1), one
//! sample at a time.
//!
//! For each *label* (user-agent), the cluster holding most of that
//! label's samples is "its" cluster; a sample is correct iff it lands
//! there, and the accuracy is the share of correct samples. This is the
//! per-sample form, for callers holding one cluster per sample (the
//! `baselines` clusterings, `exp_discussion`) and the reference the
//! product's counts are tested against; the fit, the drift checkpoint and
//! the sweeps count sessions per (distinct row, release) instead
//! (`polygraph-core`'s tally).

use crate::error::MlError;
use std::collections::BTreeMap;

/// Outcome of a majority-cluster evaluation.
///
/// Labels are kept in a `BTreeMap`, so every walk over the per-label
/// clusters happens in sorted key order, the same on every run.
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

/// Computes the paper's majority-cluster accuracy (Formula 1).
///
/// `labels[i]` is the ground-truth label (user-agent) of sample `i`;
/// `clusters[i]` its predicted cluster. The slices must be equal-length and
/// non-empty. A label's majority is its cluster with the most samples, the
/// lowest on a tie, and a label is keyed by its first sample's value —
/// which matters when `Eq` ignores part of it, as a `UserAgent`'s ignores
/// its OS.
pub fn majority_cluster_accuracy<L: Ord + Clone>(
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

    // An occupied entry keeps the key it was made with: the first sample's.
    let mut per_label: BTreeMap<L, BTreeMap<usize, usize>> = BTreeMap::new();
    for (label, &c) in labels.iter().zip(clusters) {
        *per_label
            .entry(label.clone())
            .or_default()
            .entry(c)
            .or_default() += 1;
    }
    let (mut label_clusters, mut label_totals) = (BTreeMap::new(), BTreeMap::new());
    let mut correct = 0;
    for (label, counts) in per_label {
        // Clusters ascend, and only a strictly larger count moves the
        // majority: the lowest of equal counts stays.
        let (mut cluster, mut most) = (0, 0);
        for (&c, &n) in &counts {
            if n > most {
                (cluster, most) = (c, n);
            }
        }
        correct += most;
        label_totals.insert(label.clone(), counts.values().sum());
        label_clusters.insert(label, cluster);
    }
    let total = labels.len();
    Ok(ClusterAccuracy {
        accuracy: correct as f64 / total as f64,
        label_clusters,
        label_totals,
        miscount: total - correct,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A label whose equality and order ignore `variant`, as a
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

    #[test]
    fn a_label_is_keyed_as_its_first_sample_had_it() {
        let labels = [
            Claim {
                release: 2,
                variant: 7,
            },
            Claim {
                release: 1,
                variant: 3,
            },
            Claim {
                release: 2,
                variant: 0,
            },
            Claim {
                release: 1,
                variant: 9,
            },
        ];
        let acc = majority_cluster_accuracy(&labels, &[4, 1, 4, 2]).unwrap();
        let keyed: Vec<(u8, u8, usize, usize)> = acc
            .label_clusters
            .iter()
            .zip(acc.label_totals.values())
            .map(|((l, &c), &n)| (l.release, l.variant, c, n))
            .collect();
        assert_eq!(keyed, [(1, 3, 1, 2), (2, 7, 4, 2)]);
        assert_eq!((acc.miscount, acc.total), (1, 4));
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
}
