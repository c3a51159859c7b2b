//! k-means clustering with k-means++ seeding (§6.4.3, Figures 3 and 4).
//!
//! The paper selects `k` with the elbow method: plot the Within-Cluster Sum
//! of Squares (WCSS) against `k` (Figure 3) and the *relative* WCSS
//! improvement (Figure 4), picking the `k` after which additional clusters
//! stop paying for themselves. [`elbow_scan`] computes both series.
//!
//! ## Equal rows are searched once and summed once
//!
//! Training windows are mostly repeated rows (coarse-grained fingerprints
//! collide by design), so a fit runs on a partition of its rows by
//! bit-identical content ([`KMeans::fit_grouped`]; [`KMeans::fit`]
//! partitions once), shares it between restarts, and runs every
//! *pure per-row function* — the k-means++ distance to the nearest chosen
//! centroid, Lloyd's nearest-centroid search, the WCSS distance, the
//! farthest-point search — once per group. Every *sum* — Lloyd's
//! per-cluster Σc·x and Σc, the WCSS Σc·d² — is taken once per group, its
//! term times the group's row count `c`, in group order. So is every
//! k-means++ *draw*: a centroid is a group drawn with weight c·D², its
//! total and walk taken in group order, which on an all-distinct window
//! is the textbook per-row walk bit for bit. No step reads the order of
//! the rows, so a fit depends only on the distinct rows, numbered by
//! first appearance, and their counts.

use crate::error::MlError;
use crate::matrix::{Matrix, RowGroups};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

pub mod minibatch;

/// A fitted k-means model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeans {
    /// Cluster centroids, one per row.
    centroids: Matrix,
    /// Final within-cluster sum of squares on the training data.
    wcss: f64,
    /// Iterations Lloyd's algorithm ran before converging.
    iterations: usize,
}

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Number of k-means++ restarts; the best (lowest-WCSS) run wins.
    pub n_init: usize,
    /// RNG seed for reproducible seeding.
    pub seed: u64,
    /// Convergence threshold on centroid movement (squared distance).
    pub tol: f64,
}

impl KMeansConfig {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iter: 300,
            n_init: 4,
            seed: 0x9e3779b9,
            tol: 1e-8,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of restarts.
    pub fn with_n_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init;
        self
    }
}

impl KMeans {
    /// Fits k-means on the rows of `x`.
    ///
    /// Runs `config.n_init` k-means++-seeded restarts of Lloyd's algorithm
    /// (restart `r` seeded with `seed + r`) and keeps the solution with the
    /// lowest WCSS.
    pub fn fit(x: &Matrix, config: KMeansConfig) -> Result<Self, MlError> {
        Self::fit_grouped(&RowGroups::of(x), config)
    }

    /// [`KMeans::fit`] on the rows `groups` partitions (see the module
    /// docs for what is taken per group and what per row).
    pub fn fit_grouped(groups: &RowGroups, config: KMeansConfig) -> Result<Self, MlError> {
        Self::best_restart(groups, &config, false).map(|(best, _)| best)
    }

    /// Like [`KMeans::fit`], but also returns the winning restart's WCSS
    /// after every Lloyd iteration — the series is non-increasing, which
    /// the property tests assert.
    pub fn fit_traced(x: &Matrix, config: KMeansConfig) -> Result<(Self, Vec<f64>), MlError> {
        Self::best_restart(&RowGroups::of(x), &config, true)
    }

    /// Every restart in order, the first of the lowest WCSS kept, with its
    /// per-iteration WCSS if `traced` (empty otherwise).
    fn best_restart(
        groups: &RowGroups,
        config: &KMeansConfig,
        traced: bool,
    ) -> Result<(Self, Vec<f64>), MlError> {
        validate(groups.rows(), config)?;
        let mut best: Option<(KMeans, Vec<f64>)> = None;
        for restart in 0..config.n_init {
            let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(restart as u64));
            let mut trace = Vec::new();
            let run = Self::fit_once(groups, config, &mut rng, traced.then_some(&mut trace))?;
            if best.as_ref().is_none_or(|(b, _)| run.wcss < b.wcss) {
                best = Some((run, trace));
            }
        }
        Ok(best.expect("n_init >= 1 guarantees at least one run"))
    }

    /// One k-means++-seeded run of Lloyd's algorithm over the rows
    /// `groups` partitions (see the module docs for what is taken per
    /// group and what per row).
    fn fit_once(
        groups: &RowGroups,
        config: &KMeansConfig,
        rng: &mut ChaCha8Rng,
        trace: Option<&mut Vec<f64>>,
    ) -> Result<Self, MlError> {
        let centroids = kmeans_pp_init(groups, config.k, rng);
        let (centroids, iterations) = lloyd(groups, centroids, config, trace)?;
        let wcss = wcss_of(groups, &centroids);
        Ok(KMeans {
            centroids,
            wcss,
            iterations,
        })
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Cluster centroids (one per row).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Final training WCSS.
    pub fn wcss(&self) -> f64 {
        self.wcss
    }

    /// Lloyd iterations used by the winning restart.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Predicts the cluster for one sample.
    pub fn predict_row(&self, row: &[f64]) -> Result<usize, MlError> {
        if row.len() != self.centroids.cols() {
            return Err(MlError::DimensionMismatch {
                got: row.len(),
                expected: self.centroids.cols(),
                what: "row length",
            });
        }
        Ok(nearest_centroid(row, &self.centroids).0)
    }

    /// Predicts the cluster for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        if x.cols() != self.centroids.cols() {
            return Err(MlError::DimensionMismatch {
                got: x.cols(),
                expected: self.centroids.cols(),
                what: "columns",
            });
        }
        Ok(x.iter_rows()
            .map(|row| nearest_centroid(row, &self.centroids).0)
            .collect())
    }
}

/// One `k`'s entry in an elbow scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElbowPoint {
    /// Number of clusters.
    pub k: usize,
    /// WCSS at that `k` (Figure 3's y-axis).
    pub wcss: f64,
    /// Relative improvement over the previous `k`
    /// (`(prev - cur) / prev`; Figure 4's y-axis). Zero for the first `k`.
    pub relative_improvement: f64,
}

/// Result of scanning a range of `k` values (Figures 3 and 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElbowReport {
    /// One point per scanned `k`, ascending.
    pub points: Vec<ElbowPoint>,
}

impl ElbowReport {
    /// The `k` whose *relative* WCSS improvement is the largest local spike
    /// late in the scan — the heuristic the paper uses to justify `k = 11`
    /// (Figure 4): among candidate elbows, pick the largest `k` whose
    /// relative improvement exceeds `threshold`.
    pub fn suggested_k(&self, threshold: f64) -> Option<usize> {
        self.points
            .iter()
            .rev()
            .find(|p| p.relative_improvement >= threshold)
            .map(|p| p.k)
    }

    /// The knee of the WCSS curve: the scanned `k` farthest below the
    /// chord from the first to the last point (the "kneedle" reading of
    /// Figure 3). More robust than a threshold when clusters have internal
    /// spread. Returns `None` for scans of fewer than three points.
    pub fn knee(&self) -> Option<usize> {
        if self.points.len() < 3 {
            return None;
        }
        let first = self.points.first().expect("len >= 3");
        let last = self.points.last().expect("len >= 3");
        let k_span = (last.k as f64 - first.k as f64).max(1.0);
        let w_span = (first.wcss - last.wcss).max(1e-12);
        let mut best: Option<(usize, f64)> = None;
        for p in &self.points {
            // Normalised coordinates: x in [0,1] rising, y in [0,1] falling.
            let x = (p.k as f64 - first.k as f64) / k_span;
            let y = (p.wcss - last.wcss) / w_span;
            // Distance below the descending chord y = 1 - x.
            let d = (1.0 - x) - y;
            if best.is_none_or(|(_, bd)| d > bd) {
                best = Some((p.k, d));
            }
        }
        best.map(|(k, _)| k)
    }
}

/// Fits k-means for every `k` in `ks` and reports the WCSS curve.
pub fn elbow_scan(x: &Matrix, ks: &[usize], seed: u64) -> Result<ElbowReport, MlError> {
    let mut points = Vec::with_capacity(ks.len());
    let mut prev: Option<f64> = None;
    for &k in ks {
        let wcss = KMeans::fit(x, KMeansConfig::new(k).with_seed(seed))?.wcss();
        let relative_improvement = match prev {
            Some(p) if p > 0.0 => (p - wcss) / p,
            _ => 0.0,
        };
        points.push(ElbowPoint {
            k,
            wcss,
            relative_improvement,
        });
        prev = Some(wcss);
    }
    Ok(ElbowReport { points })
}

/// Lloyd's algorithm from `centroids` until the centroids move by at
/// most `config.tol` or `config.max_iter` iterations ran; returns the
/// centroids and the iterations. The assignment is one nearest-centroid
/// search per group; the update sums each group's row times its count
/// into its cluster, in group order, and divides by the cluster's rows.
fn lloyd(
    groups: &RowGroups,
    mut centroids: Matrix,
    config: &KMeansConfig,
    mut trace: Option<&mut Vec<f64>>,
) -> Result<(Matrix, usize), MlError> {
    let distinct = groups.distinct();
    let mut iterations = 0;
    for it in 0..config.max_iter {
        iterations = it + 1;
        let nearest = groups.map(|row| nearest_centroid(row, &centroids).0);
        let mut sums = Matrix::zeros(config.k, distinct.cols())?;
        let mut counts = vec![0usize; config.k];
        for ((row, &count), &c) in distinct.iter_rows().zip(groups.counts()).zip(&nearest) {
            counts[c] += count;
            let w = count as f64;
            for (s, &v) in sums.row_mut(c).iter_mut().zip(row) {
                *s += w * v;
            }
        }
        let mut movement = 0.0f64;
        #[allow(clippy::needless_range_loop)] // indexes three parallel buffers
        for c in 0..config.k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the point farthest from
                // its assigned centroid; keeps k populated clusters.
                let row = farthest_point(groups, &centroids, &nearest);
                movement += Matrix::sq_dist(centroids.row(c), row);
                centroids.row_mut(c).copy_from_slice(row);
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            let old = centroids.row(c).to_vec();
            for (ctr, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                *ctr = s * inv;
            }
            movement += Matrix::sq_dist(&old, centroids.row(c));
        }
        if let Some(t) = trace.as_deref_mut() {
            t.push(wcss_of(groups, &centroids));
        }
        if movement <= config.tol {
            break;
        }
    }
    Ok((centroids, iterations))
}

fn validate(rows: usize, config: &KMeansConfig) -> Result<(), MlError> {
    if config.k == 0 {
        return Err(MlError::InvalidParameter {
            name: "k",
            reason: "must be at least 1".into(),
        });
    }
    if config.k > rows {
        return Err(MlError::InvalidParameter {
            name: "k",
            reason: format!("k={} exceeds the {rows} samples", config.k),
        });
    }
    if config.n_init == 0 {
        return Err(MlError::InvalidParameter {
            name: "n_init",
            reason: "must be at least 1".into(),
        });
    }
    Ok(())
}

/// Total squared distance from each row to its nearest centroid: each
/// group's distance, found once, times its count, summed in group order.
fn wcss_of(groups: &RowGroups, centroids: &Matrix) -> f64 {
    groups
        .map(|row| nearest_centroid(row, centroids).1)
        .iter()
        .zip(groups.counts())
        .map(|(&d, &count)| count as f64 * d)
        .sum()
}

fn nearest_centroid(row: &[f64], centroids: &Matrix) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter_rows().enumerate() {
        let d = Matrix::sq_dist(row, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// The first row, in row order, farthest from the centroid it is assigned
/// (`nearest`, per group). Rows of a group are equally far and groups are
/// numbered by first row, so that is the row of the first farthest group.
fn farthest_point<'a>(groups: &'a RowGroups, centroids: &Matrix, nearest: &[usize]) -> &'a [f64] {
    let distinct = groups.distinct();
    let mut best = (distinct.row(0), -1.0f64);
    for (row, &c) in distinct.iter_rows().zip(nearest) {
        let d = Matrix::sq_dist(row, centroids.row(c));
        if d > best.1 {
            best = (row, d);
        }
    }
    best.0
}

/// k-means++ seeding: the first centroid is uniform over the rows, each
/// subsequent one is sampled proportionally to the squared distance from
/// the nearest centroid chosen so far. Every draw picks a group, so each
/// pick costs O(distinct rows) whatever the window's size: group `g` is
/// drawn with probability `counts[g] · D²[g] / Σ counts · D²`, the chance
/// that a per-row walk lands on one of its rows, the weights summed and
/// walked in group order. On an all-distinct window every count is one
/// and group order is row order, so this is the per-row walk, bit for
/// bit.
///
/// A uniform draw (the first centroid, or every remaining distance zero)
/// takes row `r` of the window laid out group by group ([`group_at`]), so
/// no draw reads the order of the rows: the seeding, and the fit after
/// it, depend only on the distinct rows in id order and their counts.
fn kmeans_pp_init(groups: &RowGroups, k: usize, rng: &mut ChaCha8Rng) -> Matrix {
    let (distinct, counts) = (groups.distinct(), groups.counts());
    let n = groups.rows();
    let mut centroids = Matrix::zeros(k, distinct.cols()).expect("k >= 1, cols >= 1");
    let first = group_at(counts, rng.gen_range(0..n));
    centroids.row_mut(0).copy_from_slice(distinct.row(first));

    let mut dist: Vec<f64> = distinct
        .iter_rows()
        .map(|row| Matrix::sq_dist(row, centroids.row(0)))
        .collect();
    let mut weight = vec![0.0f64; dist.len()];

    for c in 1..k {
        for ((w, &d), &count) in weight.iter_mut().zip(&dist).zip(counts) {
            *w = count as f64 * d;
        }
        let total: f64 = weight.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            group_at(counts, rng.gen_range(0..n))
        } else {
            weighted_pick(&weight, rng.gen::<f64>() * total)
        };
        centroids.row_mut(c).copy_from_slice(distinct.row(chosen));
        for (known, row) in dist.iter_mut().zip(distinct.iter_rows()) {
            let d = Matrix::sq_dist(row, centroids.row(c));
            if d < *known {
                *known = d;
            }
        }
    }
    centroids
}

/// The group holding row `r` of the window laid out group by group: every
/// row of group 0, then every row of group 1, and so on.
fn group_at(counts: &[usize], mut r: usize) -> usize {
    for (g, &count) in counts.iter().enumerate() {
        if r < count {
            return g;
        }
        r -= count;
    }
    panic!("row {r} past the window's end")
}

/// The first group, in group order, at which `target` falls below the
/// group's weight after the weights before it are taken off. When
/// rounding leaves `target` at or above the walk's total, the last group
/// of positive weight: a weight of zero is a group on a chosen centroid.
fn weighted_pick(weight: &[f64], mut target: f64) -> usize {
    weight
        .iter()
        .position(|&w| {
            if target < w {
                return true;
            }
            target -= w;
            false
        })
        .or_else(|| weight.iter().rposition(|&w| w > 0.0))
        .expect("a positive total has a positive weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Three well-separated blobs in 2-D.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        for (li, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                let dx = (i % 5) as f64 * 0.1;
                let dy = (i / 5) as f64 * 0.1;
                rows.push(vec![cx + dx, cy + dy]);
                labels.push(li);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (x, labels) = blobs();
        let model = KMeans::fit(&x, KMeansConfig::new(3).with_seed(7)).unwrap();
        let pred = model.predict(&x).unwrap();
        // Every ground-truth blob must map to a single distinct cluster.
        let mut mapping = [usize::MAX; 3];
        for (p, &l) in pred.iter().zip(&labels) {
            if mapping[l] == usize::MAX {
                mapping[l] = *p;
            }
            assert_eq!(mapping[l], *p, "blob {l} split across clusters");
        }
        let mut sorted = mapping;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2]);
    }

    #[test]
    fn wcss_decreases_with_k() {
        let (x, _) = blobs();
        let report = elbow_scan(&x, &[1, 2, 3, 4, 5], 7).unwrap();
        for w in report.points.windows(2) {
            assert!(
                w[1].wcss <= w[0].wcss + 1e-9,
                "WCSS must be non-increasing in k: {} -> {}",
                w[0].wcss,
                w[1].wcss
            );
        }
    }

    #[test]
    fn elbow_detects_true_cluster_count() {
        // Three point-masses: WCSS collapses to ~0 exactly at k = 3, so the
        // relative-improvement series has a single unambiguous spike.
        let mut rows = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)] {
            for _ in 0..20 {
                rows.push(vec![cx, cy]);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let report = elbow_scan(&x, &[1, 2, 3, 4, 5, 6], 7).unwrap();
        let at3 = report.points.iter().find(|p| p.k == 3).unwrap();
        let at4 = report.points.iter().find(|p| p.k == 4).unwrap();
        assert!(
            at3.relative_improvement > 0.9,
            "got {}",
            at3.relative_improvement
        );
        assert!(
            at4.relative_improvement < 0.1,
            "got {}",
            at4.relative_improvement
        );
        assert_eq!(report.suggested_k(0.5), Some(3));
        assert_eq!(report.knee(), Some(3));
    }

    #[test]
    fn knee_is_robust_to_intra_cluster_spread() {
        // Blobs with internal structure: threshold heuristics get confused
        // by late splits of the spread; the chord distance does not.
        let (x, _) = blobs();
        let report = elbow_scan(&x, &[1, 2, 3, 4, 5, 6, 7, 8], 7).unwrap();
        assert_eq!(report.knee(), Some(3));
    }

    #[test]
    fn knee_needs_three_points() {
        let (x, _) = blobs();
        let report = elbow_scan(&x, &[1, 2], 7).unwrap();
        assert_eq!(report.knee(), None);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let (x, _) = blobs();
        assert!(KMeans::fit(&x, KMeansConfig::new(0)).is_err());
        assert!(KMeans::fit(&x, KMeansConfig::new(x.rows() + 1)).is_err());
        let mut cfg = KMeansConfig::new(2);
        cfg.n_init = 0;
        assert!(KMeans::fit(&x, cfg).is_err());
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (x, _) = blobs();
        let model = KMeans::fit(&x, KMeansConfig::new(2)).unwrap();
        assert!(model.predict_row(&[1.0]).is_err());
        let y = Matrix::zeros(2, 3).unwrap();
        assert!(model.predict(&y).is_err());
    }

    #[test]
    fn k_equals_n_gives_zero_wcss() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]]).unwrap();
        let model = KMeans::fit(&x, KMeansConfig::new(3).with_seed(3)).unwrap();
        assert!(model.wcss() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, _) = blobs();
        let a = KMeans::fit(&x, KMeansConfig::new(3).with_seed(42)).unwrap();
        let b = KMeans::fit(&x, KMeansConfig::new(3).with_seed(42)).unwrap();
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn traced_fit_agrees_with_plain_fit() {
        let (x, _) = blobs();
        let cfg = KMeansConfig::new(3).with_seed(42);
        let plain = KMeans::fit(&x, cfg).unwrap();
        let (traced, trace) = KMeans::fit_traced(&x, cfg).unwrap();
        assert_eq!(plain.centroids(), traced.centroids());
        assert_eq!(trace.len(), traced.iterations());
        assert_eq!(
            trace.last().copied().map(f64::to_bits),
            Some(plain.wcss().to_bits())
        );
    }

    /// `copies.len()` distinct `dims`-wide vectors, vector `v` repeated
    /// `copies[v]` times, the copies scattered by a fixed stride so equal
    /// rows are never neighbours. The values are sevenths, so sums of
    /// copies round, and the mean of equal rows is a few ulps off the rows
    /// themselves.
    fn duplicated(copies: &[usize], dims: usize) -> Matrix {
        let mut ids: Vec<usize> = Vec::new();
        for (v, &n) in copies.iter().enumerate() {
            ids.extend(std::iter::repeat_n(v, n));
        }
        let n = ids.len();
        // 7919 is prime and divides neither row count used below, so the
        // stride visits every position once.
        assert_ne!(n % 7919, 0);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = ids[i * 7919 % n];
                (0..dims)
                    .map(|d| ((v + 1) * (10 * d + 7) % 101) as f64 / 7.0 - 1.3)
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    /// What a fit is pinned by: `fnv1a64` of the centroid bits, the WCSS
    /// bits, the winning restart's iteration count.
    fn fit_pin(x: &Matrix, cfg: KMeansConfig) -> (u64, u64, usize) {
        let model = KMeans::fit(x, cfg).unwrap();
        let bytes: Vec<u8> = model
            .centroids()
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        (
            fingerprint::fnv1a64(&bytes),
            model.wcss().to_bits(),
            model.iterations(),
        )
    }

    /// Fits on matrices that are almost all repeated rows, pinned to
    /// constants recorded when k-means++ began to draw groups. The oracle
    /// proptests hold Lloyd's sums to per-row loops within a tolerance and
    /// the draw to the per-row walk exactly; these constants hold their
    /// bits, so a change of summation order or of the walk shows here
    /// first.
    #[test]
    fn duplicate_heavy_fits_are_pinned() {
        // 37 vectors, unequal multiplicities, 2 170 rows.
        let mut copies = vec![50usize; 37];
        copies[0] = 400;
        copies[36] = 20;
        let heavy = duplicated(&copies, 3);
        assert_eq!(heavy.rows(), 2170);
        // Fewer distinct rows than `k`: k-means++ runs out of distance
        // (`total <= 0.0`, the uniform draw), duplicate centroids leave
        // clusters empty, and `farthest_point` re-seeds them. A cluster
        // of equal rows has them as its weighted mean to the bit here, so
        // every distance it re-seeds from is zero.
        let starved = duplicated(&[50; 6], 2);
        // Rows: seeds 1, 42, 0xDEAD_BEEF, each with `n_init` 1 then 4.
        let heavy_pins = [
            (0x1f98232eac004824, 0x40e043b3b5b23691, 4),
            (0xc8e8b80f3a2e91b3, 0x40dded845a100cd5, 5),
            (0x2d71e623016653e6, 0x40df6eef2c10ad18, 4),
            (0x2cc7b97193a107ad, 0x40de686566fd9edd, 10),
            (0x997c674d3f1ed3f7, 0x40e0191bba3ac4c2, 7),
            (0xe52d07e535ced02c, 0x40de460c570b06a2, 6),
        ];
        let starved_pins = [
            (0x0817b1bb62e7c21e, 0x0, 5),
            (0x0817b1bb62e7c21e, 0x0, 5),
            (0x1d09289affd7306e, 0x0, 5),
            (0x1d09289affd7306e, 0x0, 5),
            (0xf8e29f5e69c29d22, 0x0, 5),
            (0xf8e29f5e69c29d22, 0x0, 5),
        ];
        for (x, k, expected) in [(&heavy, 5, heavy_pins), (&starved, 8, starved_pins)] {
            let mut got = Vec::new();
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                for n_init in [1usize, 4] {
                    let cfg = KMeansConfig::new(k).with_seed(seed).with_n_init(n_init);
                    got.push(fit_pin(x, cfg));
                }
            }
            assert_eq!(got, expected, "k = {k}: {got:#x?}");
        }
    }

    /// How far the weighted Lloyd may sit from the per-row one: this share
    /// of the window's largest |value| for a centroid coordinate, of the
    /// per-row WCSS for the WCSS.
    const LLOYD_TOLERANCE: f64 = 1e-9;

    /// Textbook Lloyd over `rows`, one row at a time in the order given,
    /// from `centroids`, with [`KMeans`]'s stopping rule and its
    /// empty-cluster re-seed at the first farthest row: each row's final
    /// cluster, the centroids, the iterations and the WCSS.
    fn per_row_lloyd(
        rows: &[Vec<f64>],
        mut centroids: Matrix,
        config: &KMeansConfig,
    ) -> (Vec<usize>, Matrix, usize, f64) {
        let assign = |centroids: &Matrix| -> Vec<(usize, f64)> {
            rows.iter()
                .map(|row| nearest_centroid(row, centroids))
                .collect()
        };
        let mut iterations = 0;
        for it in 0..config.max_iter {
            iterations = it + 1;
            let nearest = assign(&centroids);
            let mut sums = vec![vec![0.0; centroids.cols()]; config.k];
            let mut counts = vec![0usize; config.k];
            for (row, &(c, _)) in rows.iter().zip(&nearest) {
                counts[c] += 1;
                for (s, &v) in sums[c].iter_mut().zip(row) {
                    *s += v;
                }
            }
            let mut movement = 0.0;
            for c in 0..config.k {
                let new: Vec<f64> = if counts[c] == 0 {
                    let mut far = (0, -1.0);
                    for (r, (row, &(assigned, _))) in rows.iter().zip(&nearest).enumerate() {
                        let d = Matrix::sq_dist(row, centroids.row(assigned));
                        if d > far.1 {
                            far = (r, d);
                        }
                    }
                    rows[far.0].clone()
                } else {
                    sums[c].iter().map(|s| s / counts[c] as f64).collect()
                };
                movement += Matrix::sq_dist(centroids.row(c), &new);
                centroids.row_mut(c).copy_from_slice(&new);
            }
            if movement <= config.tol {
                break;
            }
        }
        let last = assign(&centroids);
        let wcss = last.iter().map(|&(_, d)| d).sum();
        (
            last.iter().map(|&(c, _)| c).collect(),
            centroids,
            iterations,
            wcss,
        )
    }

    /// A window of `picks` drawn from `vectors`, and its partition.
    fn picked(vectors: &[Vec<f64>], picks: &[usize]) -> (Vec<Vec<f64>>, RowGroups) {
        let rows: Vec<Vec<f64>> = picks
            .iter()
            .map(|&p| vectors[p % vectors.len()].clone())
            .collect();
        let groups = RowGroups::of(&Matrix::from_rows(&rows).unwrap());
        (rows, groups)
    }

    /// k-means++ seeding as it was when the total and the walk took one
    /// operand per row, in row order, falling back to the last row: the
    /// reference the grouped draw is held to.
    fn per_row_pp_init(groups: &RowGroups, k: usize, rng: &mut ChaCha8Rng) -> Matrix {
        let (distinct, group_of) = (groups.distinct(), groups.group_of());
        let n = groups.rows();
        let mut centroids = Matrix::zeros(k, distinct.cols()).unwrap();
        let first = rng.gen_range(0..n);
        centroids.row_mut(0).copy_from_slice(groups.row(first));
        let mut dist: Vec<f64> = distinct
            .iter_rows()
            .map(|row| Matrix::sq_dist(row, centroids.row(0)))
            .collect();
        for c in 1..k {
            let total: f64 = group_of.iter().map(|&g| dist[g]).sum();
            let chosen = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut idx = n - 1;
                for (i, &g) in group_of.iter().enumerate() {
                    let d = dist[g];
                    if target < d {
                        idx = i;
                        break;
                    }
                    target -= d;
                }
                idx
            };
            centroids.row_mut(c).copy_from_slice(groups.row(chosen));
            for (known, row) in dist.iter_mut().zip(distinct.iter_rows()) {
                let d = Matrix::sq_dist(row, centroids.row(c));
                if d < *known {
                    *known = d;
                }
            }
        }
        centroids
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Forces the walk past its end: in group order the weights sum to
    /// 0.30000000000000004, and taking 0.1 and 0.2 off that leaves
    /// ≈2.8e-17, which is not below the zero weights after them. The
    /// zero-weight groups lie on chosen centroids; the last row's group
    /// is one of them, so a per-row fallback to the last row would pick a
    /// centroid twice.
    #[test]
    fn pp_draw_fallback_never_picks_a_group_at_zero_distance() {
        let weight = [0.1, 0.2, 0.0, 0.0];
        let total: f64 = weight.iter().sum();
        assert_eq!(weighted_pick(&weight, 0.05), 0);
        assert_eq!(weighted_pick(&weight, 0.25), 1);
        let picked = weighted_pick(&weight, total);
        assert!(weight[picked] > 0.0, "picked group {picked} at D² = 0");
        assert_eq!(picked, 1);
        assert_eq!(weighted_pick(&[0.0, 0.3, 0.0], 0.5), 1);
    }

    proptest! {
        /// On an all-distinct window every count is one and groups are
        /// rows, so the grouped draw is the per-row walk bit for bit.
        #[test]
        fn prop_oracle_pp_draw_is_the_per_row_walk_on_distinct_rows(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 3..4), 1..80),
            k in 1usize..10,
            seed in any::<u64>(),
        ) {
            let distinct = RowGroups::of(&Matrix::from_rows(&vectors).unwrap()).distinct().clone();
            let groups = RowGroups::of(&distinct);
            prop_assert!(groups.counts().iter().all(|&c| c == 1));
            let k = k.min(groups.rows());
            let want = per_row_pp_init(&groups, k, &mut ChaCha8Rng::seed_from_u64(seed));
            let got = kmeans_pp_init(&groups, k, &mut ChaCha8Rng::seed_from_u64(seed));
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// On a duplicate-heavy window of small integers every c·D², every
        /// total and every partial sum of the walk is an integer below
        /// 2⁵³, and taking an integer off the drawn target is exact, so
        /// subtracting a group's weight once is subtracting its D² once
        /// per row. With the window laid out group by group, the group
        /// each draw picks (every centroid is a distinct group's row) is
        /// the group of the row the per-row walk picks from the same RNG,
        /// uniform draws included (`k` may exceed the distinct rows).
        #[test]
        fn prop_oracle_pp_draw_lands_in_the_group_of_the_per_row_pick(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-20i32..20, 3..4), 1..9),
            copies in proptest::collection::vec(1usize..300, 9..10),
            k in 1usize..12,
            seed in any::<u64>(),
        ) {
            let mut unique: Vec<Vec<f64>> = Vec::new();
            for v in &vectors {
                let row: Vec<f64> = v.iter().map(|&x| f64::from(x)).collect();
                if !unique.contains(&row) {
                    unique.push(row);
                }
            }
            let laid: Vec<Vec<f64>> = unique
                .iter()
                .zip(&copies)
                .flat_map(|(row, &c)| std::iter::repeat_n(row.clone(), c))
                .collect();
            let groups = RowGroups::of(&Matrix::from_rows(&laid).unwrap());
            prop_assert!(groups.group_of().windows(2).all(|w| w[0] <= w[1]));
            let k = k.min(groups.rows());
            let want = per_row_pp_init(&groups, k, &mut ChaCha8Rng::seed_from_u64(seed));
            let got = kmeans_pp_init(&groups, k, &mut ChaCha8Rng::seed_from_u64(seed));
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// A fit reads the distinct rows, numbered by first appearance,
        /// and their counts, never the order of the rows: re-laying the
        /// window at random — each step takes another row of a group seen
        /// already or the first row of the next group — leaves the
        /// centroids, the WCSS and the iterations the same bits.
        #[test]
        fn prop_oracle_pp_draw_fit_ignores_row_order_within_first_appearance(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 2..3), 1..9),
            picks in proptest::collection::vec(0usize..8, 2..800),
            k in 1usize..9,
            n_init in 1usize..4,
            seed in any::<u64>(),
        ) {
            let (rows, groups) = picked(&vectors, &picks);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 2);
            let mut left = groups.counts().to_vec();
            let mut seen = 0;
            let mut relaid = Vec::with_capacity(rows.len());
            while relaid.len() < rows.len() {
                let open: Vec<usize> = (0..seen)
                    .filter(|&g| left[g] > 0)
                    .chain((seen < left.len()).then_some(seen))
                    .collect();
                let g = open[rng.gen_range(0..open.len())];
                if g == seen {
                    seen += 1;
                }
                left[g] -= 1;
                relaid.push(groups.distinct().row(g).to_vec());
            }
            let regrouped = RowGroups::of(&Matrix::from_rows(&relaid).unwrap());
            prop_assert_eq!(regrouped.distinct(), groups.distinct());
            prop_assert_eq!(regrouped.counts(), groups.counts());
            let config = KMeansConfig::new(k.min(rows.len())).with_seed(seed).with_n_init(n_init);
            let a = KMeans::fit_grouped(&groups, config).unwrap();
            let b = KMeans::fit_grouped(&regrouped, config).unwrap();
            prop_assert_eq!(bits(a.centroids()), bits(b.centroids()));
            prop_assert_eq!(a.wcss().to_bits(), b.wcss().to_bits());
            prop_assert_eq!(a.iterations(), b.iterations());
        }

        /// The oracle of the weighted Lloyd. On a duplicate-heavy window,
        /// from the centroids a seeded k-means++ draw picks, the grouped
        /// Lloyd and the textbook one over the window expanded from the
        /// counts and shuffled give every row the same cluster after the
        /// same number of iterations; the centroids and the WCSS agree
        /// within [`LLOYD_TOLERANCE`].
        #[test]
        fn prop_oracle_weighted_lloyd_equals_per_row_lloyd_on_shuffled_rows(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 3..4), 1..9),
            picks in proptest::collection::vec(0usize..8, 2..1500),
            k in 1usize..7,
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            let (rows, groups) = picked(&vectors, &picks);
            let config = KMeansConfig::new(k.min(groups.distinct().rows())).with_seed(seed);
            let init = kmeans_pp_init(&groups, config.k, &mut ChaCha8Rng::seed_from_u64(seed));
            let (centroids, iterations) = lloyd(&groups, init.clone(), &config, None).unwrap();
            let nearest = groups.map(|row| nearest_centroid(row, &centroids).0);

            let mut expanded: Vec<(usize, Vec<f64>)> = (0..groups.distinct().rows())
                .flat_map(|g| {
                    std::iter::repeat_n((g, groups.distinct().row(g).to_vec()), groups.counts()[g])
                })
                .collect();
            expanded.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 1));
            let shuffled: Vec<Vec<f64>> = expanded.iter().map(|(_, row)| row.clone()).collect();
            let (assigned, want, want_iterations, want_wcss) =
                per_row_lloyd(&shuffled, init, &config);

            for ((g, _), &c) in expanded.iter().zip(&assigned) {
                prop_assert_eq!(nearest[*g], c, "group {}", g);
            }
            prop_assert_eq!(iterations, want_iterations);
            let scale = rows.iter().flatten().fold(1.0f64, |a, v| a.max(v.abs()));
            for (got, want) in centroids.as_slice().iter().zip(want.as_slice()) {
                prop_assert!((got - want).abs() <= LLOYD_TOLERANCE * scale, "{} {}", got, want);
            }
            let wcss = wcss_of(&groups, &centroids);
            prop_assert!((wcss - want_wcss).abs() <= LLOYD_TOLERANCE * want_wcss.max(scale * scale));
        }

        /// Repeating every row `m` times leaves the weighted Lloyd's
        /// assignment of every group and its iteration count unchanged,
        /// its centroids within [`LLOYD_TOLERANCE`] and its WCSS `m` times
        /// the window's.
        #[test]
        fn prop_oracle_repeating_every_row_leaves_lloyd_assignments(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 3..4), 1..9),
            picks in proptest::collection::vec(0usize..8, 2..600),
            k in 1usize..7,
            m in 2usize..6,
            seed in any::<u64>(),
        ) {
            let (rows, once) = picked(&vectors, &picks);
            let repeated: Vec<usize> =
                picks.iter().flat_map(|&p| std::iter::repeat_n(p, m)).collect();
            let (_, many) = picked(&vectors, &repeated);
            prop_assert_eq!(once.distinct(), many.distinct());
            let config = KMeansConfig::new(k.min(once.distinct().rows())).with_seed(seed);
            let init = kmeans_pp_init(&once, config.k, &mut ChaCha8Rng::seed_from_u64(seed));
            let (a, a_iterations) = lloyd(&once, init.clone(), &config, None).unwrap();
            let (b, b_iterations) = lloyd(&many, init, &config, None).unwrap();
            prop_assert_eq!(
                once.map(|row| nearest_centroid(row, &a).0),
                many.map(|row| nearest_centroid(row, &b).0)
            );
            prop_assert_eq!(a_iterations, b_iterations);
            let scale = rows.iter().flatten().fold(1.0f64, |a, v| a.max(v.abs()));
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert!((x - y).abs() <= LLOYD_TOLERANCE * scale, "{} {}", x, y);
            }
            let (wa, wb) = (wcss_of(&once, &a) * m as f64, wcss_of(&many, &b));
            prop_assert!((wa - wb).abs() <= LLOYD_TOLERANCE * wb.max(scale * scale));
        }

        /// The per-group kernels against their definitions, one row at a
        /// time, on matrices where nearly every row repeats another. Every
        /// row's distance equals its group's bit for bit, and the WCSS is
        /// exactly Σ count·d over the groups in id order; against the sum
        /// in row order it agrees within [`LLOYD_TOLERANCE`].
        #[test]
        fn prop_grouped_kernels_equal_per_row_evaluation(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 2..3), 1..7),
            picks in proptest::collection::vec(0usize..6, 2..200),
            centres in proptest::collection::vec(-9.0f64..9.0, 6..7),
        ) {
            let rows: Vec<Vec<f64>> = picks
                .iter()
                .map(|&p| vectors[p % vectors.len()].clone())
                .collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let centroids = Matrix::from_vec(3, 2, centres).unwrap();
            let groups = RowGroups::of(&x);

            let per_row: Vec<(usize, f64)> =
                x.iter_rows().map(|row| nearest_centroid(row, &centroids)).collect();
            let nearest = groups.map(|row| nearest_centroid(row, &centroids).0);
            for (r, &g) in groups.group_of().iter().enumerate() {
                prop_assert_eq!(nearest[g], per_row[r].0, "row {}", r);
            }
            let mut group_distance = vec![None; groups.distinct().rows()];
            for (r, &g) in groups.group_of().iter().enumerate() {
                let d = *group_distance[g].get_or_insert(per_row[r].1);
                prop_assert_eq!(d.to_bits(), per_row[r].1.to_bits(), "row {}", r);
            }
            let by_group: f64 = group_distance
                .iter()
                .zip(groups.counts())
                .map(|(d, &count)| count as f64 * d.unwrap())
                .sum();
            let grouped = wcss_of(&groups, &centroids);
            prop_assert_eq!(grouped.to_bits(), by_group.to_bits());
            let wcss: f64 = per_row.iter().map(|&(_, d)| d).sum();
            prop_assert!((grouped - wcss).abs() <= LLOYD_TOLERANCE * wcss, "{} {}", grouped, wcss);
            let mut far = (0usize, -1.0f64);
            for (r, &(_, d)) in per_row.iter().enumerate() {
                if d > far.1 {
                    far = (r, d);
                }
            }
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(farthest_point(&groups, &centroids, &nearest)),
                bits(x.row(far.0))
            );
        }

        #[test]
        fn prop_every_point_assigned_to_nearest_centroid(
            seed in any::<u64>(), k in 1usize..5
        ) {
            let (x, _) = blobs();
            let model = KMeans::fit(&x, KMeansConfig::new(k).with_seed(seed)).unwrap();
            let pred = model.predict(&x).unwrap();
            for (i, row) in x.iter_rows().enumerate() {
                let assigned_d = Matrix::sq_dist(row, model.centroids().row(pred[i]));
                for c in 0..k {
                    let d = Matrix::sq_dist(row, model.centroids().row(c));
                    prop_assert!(assigned_d <= d + 1e-9);
                }
            }
        }

        #[test]
        fn prop_wcss_never_increases_across_iterations(
            seed in any::<u64>(), k in 1usize..6
        ) {
            // Lloyd's algorithm is a coordinate descent on WCSS: the update
            // step minimises WCSS given the assignment, and the next
            // assignment minimises it given the centroids, so the traced
            // per-iteration series must be non-increasing.
            let (x, _) = blobs();
            let cfg = KMeansConfig::new(k).with_seed(seed).with_n_init(1);
            let (_, trace) = KMeans::fit_traced(&x, cfg).unwrap();
            prop_assert!(!trace.is_empty());
            for w in trace.windows(2) {
                prop_assert!(
                    w[1] <= w[0] + 1e-9,
                    "WCSS rose across an iteration: {} -> {}", w[0], w[1]
                );
            }
        }

        #[test]
        fn prop_wcss_matches_definition(seed in any::<u64>()) {
            let (x, _) = blobs();
            let model = KMeans::fit(&x, KMeansConfig::new(3).with_seed(seed)).unwrap();
            let pred = model.predict(&x).unwrap();
            let recomputed: f64 = x.iter_rows().enumerate()
                .map(|(i, row)| Matrix::sq_dist(row, model.centroids().row(pred[i])))
                .sum();
            prop_assert!((recomputed - model.wcss()).abs() < 1e-6);
        }
    }
}
