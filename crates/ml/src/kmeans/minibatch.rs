//! Mini-batch k-means (Sculley, WWW 2010) for the streaming retrain path.
//!
//! The paper's §6.6 drift story refits the full window from scratch; the
//! streaming pipeline instead keeps a live candidate that absorbs the
//! reservoir window one seeded mini-batch epoch per checkpoint. Each
//! batch freezes the centroids, assigns its points, and then applies the
//! per-center learning-rate update `c ← c + (1/count)(x − c)` in batch
//! order — with `batch_size == n` and zero prior counts this is exactly
//! one Lloyd iteration (the running mean of each cluster's batch
//! members), which the property tests pin.
//!
//! Determinism follows the same discipline as the full fit: batch order
//! is a ChaCha-seeded permutation derived from `(seed, epoch)`, and the
//! stateful centroid updates apply in batch order.
//!
//! An epoch runs on a [`RowGroups`] partition of its window
//! ([`MiniBatchKMeans::step_grouped`]; the matrix entry points partition
//! and delegate). The assignment is a pure function of one row under the
//! batch's frozen centroids, so a batch searches once per group *present
//! in it*; the grouping is per batch because the centroids move between
//! batches. The updates are an order-dependent reduction — every row
//! moves its centroid by a learning rate that row itself lowered — so
//! they still take one step per row, in the permutation's order, and only
//! read the row through its group.

use super::{kmeans_pp_init, nearest_centroid, wcss_of, KMeans};
use crate::error::MlError;
use crate::matrix::{Matrix, RowGroups};
use crate::ThreadPool;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration for a [`MiniBatchKMeans`] run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MiniBatchConfig {
    /// Number of clusters.
    pub k: usize,
    /// Points per mini-batch. `batch_size >= n` degenerates to one full
    /// Lloyd-style pass per epoch.
    pub batch_size: usize,
    /// RNG seed for the k-means++ init and the per-epoch batch order.
    pub seed: u64,
}

impl MiniBatchConfig {
    /// A default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            batch_size: 256,
            seed: 0x9e3779b9,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the mini-batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.k == 0 {
            return Err(MlError::InvalidParameter {
                name: "k",
                reason: "must be at least 1".into(),
            });
        }
        if self.batch_size == 0 {
            return Err(MlError::InvalidParameter {
                name: "batch_size",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// An incrementally trained k-means model.
///
/// Unlike [`KMeans::fit`] this type is a *state*: centroids plus the
/// per-center update counts that act as decaying learning rates. Feed it
/// epochs of the current training window with [`MiniBatchKMeans::step`]
/// and freeze it into a servable [`KMeans`] with
/// [`MiniBatchKMeans::into_kmeans_grouped`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MiniBatchKMeans {
    config: MiniBatchConfig,
    centroids: Matrix,
    /// Per-center update counts; `1/counts[c]` is center `c`'s current
    /// learning rate.
    counts: Vec<u64>,
    /// Epochs absorbed so far; also salts each epoch's batch order.
    epochs: u64,
}

impl MiniBatchKMeans {
    /// Seeds a fresh model with k-means++ on `x`.
    pub fn init(x: &Matrix, config: MiniBatchConfig) -> Result<Self, MlError> {
        config.validate()?;
        if config.k > x.rows() {
            return Err(MlError::InvalidParameter {
                name: "k",
                reason: format!("k={} exceeds the {} samples", config.k, x.rows()),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let centroids = kmeans_pp_init(&RowGroups::of(x), config.k, &mut rng);
        Ok(Self {
            counts: vec![0; config.k],
            config,
            centroids,
            epochs: 0,
        })
    }

    /// Warm-starts from existing centroids (e.g. the serving model's),
    /// with zeroed counts so the first batch moves centers aggressively.
    pub fn warm_start(centroids: Matrix, config: MiniBatchConfig) -> Result<Self, MlError> {
        config.validate()?;
        if centroids.rows() != config.k {
            return Err(MlError::InvalidParameter {
                name: "k",
                reason: format!(
                    "k={} does not match the {} warm-start centroids",
                    config.k,
                    centroids.rows()
                ),
            });
        }
        Ok(Self {
            counts: vec![0; config.k],
            config,
            centroids,
            epochs: 0,
        })
    }

    /// One epoch of mini-batch updates over `x`.
    ///
    /// The epoch visits every row exactly once in a seeded
    /// without-replacement order and returns the number of batches
    /// applied.
    pub fn step(&mut self, x: &Matrix) -> Result<usize, MlError> {
        self.step_grouped(&RowGroups::of(x))
    }

    /// [`MiniBatchKMeans::step`]; `_pool` is ignored (see [`ThreadPool`]).
    pub fn step_with_pool(&mut self, x: &Matrix, _pool: &ThreadPool) -> Result<usize, MlError> {
        self.step(x)
    }

    /// One epoch over an already partitioned window — the body every
    /// `step*` runs; same centroids and counts, bit for bit, as visiting
    /// the window row by row.
    pub fn step_grouped(&mut self, groups: &RowGroups) -> Result<usize, MlError> {
        let (distinct, group_of) = (groups.distinct(), groups.group_of());
        if distinct.cols() != self.centroids.cols() {
            return Err(MlError::DimensionMismatch {
                got: distinct.cols(),
                expected: self.centroids.cols(),
                what: "columns",
            });
        }
        if group_of.is_empty() {
            return Err(MlError::InvalidParameter {
                name: "rows",
                reason: "mini-batch epoch needs at least one sample".into(),
            });
        }
        // Each epoch draws its own permutation stream so consecutive
        // epochs see different batch orders while the whole run replays
        // from `config.seed` alone.
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed.wrapping_add(self.epochs));
        let mut order: Vec<usize> = (0..group_of.len()).collect();
        order.shuffle(&mut rng);

        // `searched_in[g]` stamps the last batch (counted from 1) that
        // searched group `g`; `nearest[g]` is what that search found.
        let mut searched_in = vec![0usize; distinct.rows()];
        let mut nearest = vec![0usize; distinct.rows()];
        let mut batches = 0usize;
        for batch in order.chunks(self.config.batch_size) {
            batches += 1;
            // Assignment under frozen centroids, one search per group
            // present in the batch.
            for &r in batch {
                let g = group_of[r];
                if searched_in[g] != batches {
                    searched_in[g] = batches;
                    nearest[g] = nearest_centroid(distinct.row(g), &self.centroids).0;
                }
            }
            // Per-center learning-rate updates, one per row in batch
            // order, so how many rows repeat cannot change the result.
            for &r in batch {
                let g = group_of[r];
                let c = nearest[g];
                self.counts[c] += 1;
                let eta = 1.0 / self.counts[c] as f64;
                for (ctr, &v) in self.centroids.row_mut(c).iter_mut().zip(distinct.row(g)) {
                    *ctr += eta * (v - *ctr);
                }
            }
        }
        self.epochs += 1;
        Ok(batches)
    }

    /// Current centroids.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Per-center update counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Epochs absorbed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Freezes the state into a servable [`KMeans`], scoring WCSS on the
    /// partitioned window `groups`.
    pub fn into_kmeans_grouped(self, groups: &RowGroups) -> Result<KMeans, MlError> {
        if groups.distinct().cols() != self.centroids.cols() {
            return Err(MlError::DimensionMismatch {
                got: groups.distinct().cols(),
                expected: self.centroids.cols(),
                what: "columns",
            });
        }
        let wcss = wcss_of(groups, &self.centroids);
        Ok(KMeans {
            wcss,
            iterations: self.epochs as usize,
            centroids: self.centroids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        for &(cx, cy) in &centers {
            for i in 0..20 {
                rows.push(vec![cx + (i % 5) as f64 * 0.1, cy + (i / 5) as f64 * 0.1]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    /// One Lloyd update (assign under frozen centroids, then replace each
    /// populated center with the mean of its members) with no
    /// empty-cluster reseeding — the closed form a full-window mini-batch
    /// epoch must reproduce.
    fn one_lloyd_update(x: &Matrix, centroids: &Matrix) -> Matrix {
        let k = centroids.rows();
        let mut sums = vec![vec![0.0f64; x.cols()]; k];
        let mut counts = vec![0usize; k];
        for row in x.iter_rows() {
            let c = nearest_centroid(row, centroids).0;
            counts[c] += 1;
            for (s, &v) in sums[c].iter_mut().zip(row) {
                *s += v;
            }
        }
        let mut next = centroids.clone();
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for (ctr, &s) in next.row_mut(c).iter_mut().zip(&sums[c]) {
                *ctr = s * inv;
            }
        }
        next
    }

    /// One epoch visiting the window row by row — the body `step` had
    /// before it searched once per group: the same seeded permutation,
    /// one nearest-centroid search per row under the batch's frozen
    /// centroids, one learning-rate update per row in batch order.
    fn row_wise_epoch(
        x: &Matrix,
        config: MiniBatchConfig,
        epoch: u64,
        centroids: &mut Matrix,
        counts: &mut [u64],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(epoch));
        let mut order: Vec<usize> = (0..x.rows()).collect();
        order.shuffle(&mut rng);
        for batch in order.chunks(config.batch_size) {
            let assignment: Vec<usize> = batch
                .iter()
                .map(|&r| nearest_centroid(x.row(r), centroids).0)
                .collect();
            for (&r, &c) in batch.iter().zip(&assignment) {
                counts[c] += 1;
                let eta = 1.0 / counts[c] as f64;
                for (ctr, &v) in centroids.row_mut(c).iter_mut().zip(x.row(r)) {
                    *ctr += eta * (v - *ctr);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let x = blobs();
        let cfg = MiniBatchConfig::new(3).with_seed(42).with_batch_size(7);
        let mut a = MiniBatchKMeans::init(&x, cfg).unwrap();
        let mut b = MiniBatchKMeans::init(&x, cfg).unwrap();
        for _ in 0..5 {
            a.step(&x).unwrap();
            b.step(&x).unwrap();
        }
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn epochs_advance_the_batch_order() {
        // Two epochs from the same state must not replay the same
        // permutation: the second epoch keeps moving centroids even
        // after the first converged on this tiny window.
        let x = blobs();
        let cfg = MiniBatchConfig::new(3).with_seed(9).with_batch_size(4);
        let mut m = MiniBatchKMeans::init(&x, cfg).unwrap();
        m.step(&x).unwrap();
        assert_eq!(m.epochs(), 1);
        m.step(&x).unwrap();
        assert_eq!(m.epochs(), 2);
        let total: u64 = m.counts().iter().sum();
        assert_eq!(total, 2 * x.rows() as u64);
    }

    #[test]
    fn warm_start_converges_toward_blob_centers() {
        let x = blobs();
        let cfg = MiniBatchConfig::new(3).with_seed(3).with_batch_size(16);
        let full = KMeans::fit(&x, super::super::KMeansConfig::new(3).with_seed(3)).unwrap();
        let mut m = MiniBatchKMeans::warm_start(full.centroids().clone(), cfg).unwrap();
        for _ in 0..4 {
            m.step(&x).unwrap();
        }
        // Warm-started from the converged solution, every centroid stays
        // inside its blob (spread is 0.4; blobs are 10+ apart).
        for (a, b) in m.centroids().iter_rows().zip(full.centroids().iter_rows()) {
            assert!(Matrix::sq_dist(a, b) < 1.0);
        }
    }

    #[test]
    fn into_kmeans_scores_wcss_on_the_window() {
        let x = blobs();
        let cfg = MiniBatchConfig::new(3)
            .with_seed(7)
            .with_batch_size(x.rows());
        let mut m = MiniBatchKMeans::init(&x, cfg).unwrap();
        for _ in 0..8 {
            m.step(&x).unwrap();
        }
        let frozen = m.clone().into_kmeans_grouped(&RowGroups::of(&x)).unwrap();
        let pred = frozen.predict(&x).unwrap();
        let recomputed: f64 = x
            .iter_rows()
            .enumerate()
            .map(|(i, row)| Matrix::sq_dist(row, frozen.centroids().row(pred[i])))
            .sum();
        assert!((recomputed - frozen.wcss()).abs() < 1e-9);
        assert_eq!(frozen.iterations(), 8);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let x = blobs();
        assert!(MiniBatchKMeans::init(&x, MiniBatchConfig::new(0)).is_err());
        assert!(MiniBatchKMeans::init(&x, MiniBatchConfig::new(x.rows() + 1)).is_err());
        assert!(MiniBatchKMeans::init(&x, MiniBatchConfig::new(3).with_batch_size(0)).is_err());
        let centroids = Matrix::zeros(2, 2).unwrap();
        assert!(MiniBatchKMeans::warm_start(centroids, MiniBatchConfig::new(3)).is_err());
        let mut m = MiniBatchKMeans::init(&x, MiniBatchConfig::new(3)).unwrap();
        let narrow = Matrix::zeros(4, 3).unwrap();
        assert!(m.step(&narrow).is_err());
    }

    proptest! {
        /// Grouped epochs against [`row_wise_epoch`], bit for bit, on
        /// windows where nearly every row repeats another: up to eight
        /// distinct vectors, two of them a `0.0` / `-0.0` pair (equal
        /// values, different rows), `k` up to ten (so sometimes more
        /// clusters than distinct rows), batches of one row, of a few, of
        /// the default size and of the whole window, and a second epoch
        /// (non-zero counts, the next permutation).
        #[test]
        fn prop_grouped_epoch_equals_row_wise_epoch(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 2..3), 0..7),
            picks in proptest::collection::vec(0usize..8, 2..400),
            centres in proptest::collection::vec(-9.0f64..9.0, 20..21),
            k in 1usize..11,
            seed in any::<u64>(),
        ) {
            let mut vectors = vectors;
            vectors.push(vec![0.0, 2.5]);
            vectors.push(vec![-0.0, 2.5]);
            let rows: Vec<Vec<f64>> = picks
                .iter()
                .map(|&p| vectors[p % vectors.len()].clone())
                .collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let start = Matrix::from_vec(k, 2, centres[..2 * k].to_vec()).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for batch_size in [1, 7, 256, x.rows() + 3] {
                let cfg = MiniBatchConfig::new(k).with_seed(seed).with_batch_size(batch_size);
                let mut grouped = MiniBatchKMeans::warm_start(start.clone(), cfg).unwrap();
                let (mut centroids, mut counts) = (start.clone(), vec![0u64; k]);
                for epoch in 0..2 {
                    grouped.step(&x).unwrap();
                    row_wise_epoch(&x, cfg, epoch, &mut centroids, &mut counts);
                    prop_assert_eq!(
                        bits(grouped.centroids()), bits(&centroids),
                        "batch {}, epoch {}", batch_size, epoch
                    );
                    prop_assert_eq!(grouped.counts(), &counts[..]);
                }
            }
        }

        /// With `batch_size == n` and zero counts, one epoch is exactly
        /// one Lloyd iteration: the running-mean update over a full
        /// permutation equals each cluster's member mean (empty clusters
        /// keep their centroid — Lloyd's reseed heuristic is a full-fit
        /// concern, so the reference omits it too).
        #[test]
        fn prop_full_batch_epoch_is_one_lloyd_iteration(
            seed in any::<u64>(), k in 1usize..6
        ) {
            let x = blobs();
            let cfg = MiniBatchConfig::new(k).with_seed(seed).with_batch_size(x.rows());
            let mut m = MiniBatchKMeans::init(&x, cfg).unwrap();
            let expected = one_lloyd_update(&x, m.centroids());
            m.step(&x).unwrap();
            for (got, want) in m.centroids().iter_rows().zip(expected.iter_rows()) {
                for (g, w) in got.iter().zip(want) {
                    prop_assert!((g - w).abs() < 1e-9, "centroid drifted: {g} vs {w}");
                }
            }
        }
    }
}
