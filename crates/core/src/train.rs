//! Training (§6.4): scale → outlier removal → PCA → k-means → cluster
//! table.

use crate::dataset::TrainingSet;
use crate::error::PolygraphError;
use crate::tally::ReleaseTally;
use browser_engine::{BrowserInstance, UserAgent, Vendor};
use fingerprint::FeatureSet;
use polygraph_ml::iforest::IsolationForestConfig;
use polygraph_ml::kmeans::minibatch::{MiniBatchConfig, MiniBatchKMeans};
use polygraph_ml::kmeans::KMeansConfig;
use polygraph_ml::{IsolationForest, KMeans, Matrix, MlError, Pca, StandardScaler, ThreadPool};
use polygraph_obs::Registry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Metric names an observed fit ([`TrainedModel::fit_observed`]) records
/// into its registry: one span histogram per §6.4 phase plus a run
/// counter. The phases add up to the whole.
pub mod fit_metric_names {
    /// Fits completed (counter).
    pub const RUNS: &str = "fit.runs";
    /// Reading the set's partition, fitting the scaler and scaling the
    /// distinct rows, in µs (histogram).
    pub const SCALE_MICROS: &str = "fit.scale_micros";
    /// Outlier removal in µs (histogram): the Isolation-Forest build over
    /// each tree's distinct draws, the cut (every group scored once), and
    /// the one pass over the sessions that applies it, renumbers the kept
    /// groups and counts the kept sessions per (group, release).
    pub const OUTLIER_MICROS: &str = "fit.outlier_micros";
    /// PCA fit and projection of the kept distinct rows in µs (histogram).
    pub const PCA_MICROS: &str = "fit.pca_micros";
    /// k-means fit and the nearest centroid of each kept distinct row in
    /// µs (histogram).
    pub const KMEANS_MICROS: &str = "fit.kmeans_micros";
    /// The majority vote over the (group, release) counts, the lab
    /// alignments and the cluster table, in µs (histogram).
    pub const TABLE_MICROS: &str = "fit.table_micros";
    /// Whole-pipeline duration in µs (histogram).
    pub const TOTAL_MICROS: &str = "fit.total_micros";
}

/// Metric names an observed streaming refit
/// ([`TrainedModel::refit_observed`]) records into its registry: one span
/// histogram per stage, the three stages adding up to the whole.
pub mod refit_metric_names {
    /// Reading the window's partition by distinct row, then scaling and
    /// projecting the distinct rows, in µs (histogram).
    pub const GROUP_MICROS: &str = "retrain.stage.group_micros";
    /// The warm-started mini-batch epochs in µs (histogram).
    pub const EPOCHS_MICROS: &str = "retrain.stage.epochs_micros";
    /// WCSS, the nearest centroid of each distinct row, the count of the
    /// sessions per (group, release), the vote and the cluster table, in µs
    /// (histogram).
    pub const TABLE_MICROS: &str = "retrain.stage.table_micros";
    /// Whole-refit duration in µs (histogram).
    pub const TOTAL_MICROS: &str = "retrain.stage.total_micros";
}

/// Hyper-parameters of the training pipeline. The defaults are the
/// paper's chosen operating point: 7 PCA components, k = 11, and an
/// outlier fraction sized to the 172-of-205k rows the paper removed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of PCA components (7 in the paper — Figure 2).
    pub n_components: usize,
    /// Number of k-means clusters (11 in the paper — Figures 3/4).
    pub k: usize,
    /// Isolation-Forest contamination: fraction of rows removed as
    /// outliers before fitting. The paper quotes a "0.002%" threshold and
    /// removed 172 of ~205k rows (≈ 0.08%); we default to the measured
    /// fraction rather than the quoted one.
    pub contamination: f64,
    /// RNG seed for k-means++ and the isolation forest.
    pub seed: u64,
    /// User-agents with fewer training samples than this get their cluster
    /// aligned from a genuine lab instance instead of the (noisy) majority
    /// vote — the paper's manual adjustment for Chrome 81 / Edge 17 (§6.4.3).
    pub min_samples_for_majority: usize,
    /// k-means restarts.
    pub n_init: usize,
    /// Whether to align sparse/vanished user-agents from genuine lab
    /// instances (§6.4.3's manual adjustment). Disabled only by the
    /// ablation study; production keeps it on.
    pub lab_alignment: bool,
    /// Whether to standard-scale the time-based (binary) columns too.
    /// The paper deliberately leaves them raw (§6.4.1); scaling them blows
    /// rare bits up into dominant axes — kept as an ablation switch.
    pub scale_time_based: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            n_components: 7,
            k: 11,
            contamination: 172.0 / 205_000.0,
            seed: 0xB01D_FACE,
            min_samples_for_majority: 100,
            n_init: 4,
            lab_alignment: true,
            scale_time_based: false,
        }
    }
}

/// The cluster ↔ user-agent association of Table 3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTable {
    k: usize,
    /// `(user-agent, cluster)` pairs, sorted by user-agent.
    entries: Vec<(UserAgent, usize)>,
}

impl ClusterTable {
    /// Builds a table from explicit pairs.
    pub fn from_entries(k: usize, mut entries: Vec<(UserAgent, usize)>) -> Self {
        entries.sort_by_key(|(ua, _)| *ua);
        entries.dedup_by_key(|(ua, _)| *ua);
        Self { k, entries }
    }

    /// Number of clusters in the underlying model (including unpopulated
    /// ones).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The cluster a known user-agent belongs to.
    pub fn cluster_of(&self, ua: UserAgent) -> Option<usize> {
        self.entries
            .binary_search_by_key(&ua, |(u, _)| *u)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// The cluster a claim is *expected* to land in: the exact entry if
    /// known, otherwise the entry of the nearest same-vendor version (the
    /// rule the drift analysis of §6.6 applies to brand-new releases).
    pub fn expected_cluster(&self, ua: UserAgent) -> Option<usize> {
        if let Some(c) = self.cluster_of(ua) {
            return Some(c);
        }
        self.entries
            .iter()
            .filter(|(u, _)| u.vendor == ua.vendor)
            .min_by_key(|(u, _)| u.version.abs_diff(ua.version))
            .map(|(_, c)| *c)
    }

    /// Whether any user-agent is resident in `cluster`.
    pub fn is_populated(&self, cluster: usize) -> bool {
        self.entries.iter().any(|(_, c)| *c == cluster)
    }

    /// Every user-agent resident in `cluster`, ascending.
    pub fn user_agents_in(&self, cluster: usize) -> Vec<UserAgent> {
        self.entries
            .iter()
            .filter(|(_, c)| *c == cluster)
            .map(|(u, _)| *u)
            .collect()
    }

    /// All `(cluster, residents)` rows with at least one resident,
    /// ascending by cluster — the shape of Table 3.
    pub fn rows(&self) -> Vec<(usize, Vec<UserAgent>)> {
        (0..self.k)
            .map(|c| (c, self.user_agents_in(c)))
            .filter(|(_, uas)| !uas.is_empty())
            .collect()
    }

    /// Renders a cluster's residents in the paper's compact range form,
    /// e.g. `"Chrome 110-113, Edge 110-113"`.
    pub fn describe_cluster(&self, cluster: usize) -> String {
        let mut by_vendor: BTreeMap<Vendor, Vec<u32>> = BTreeMap::new();
        for ua in self.user_agents_in(cluster) {
            by_vendor.entry(ua.vendor).or_default().push(ua.version);
        }
        let mut parts = Vec::new();
        for vendor in Vendor::ALL {
            let Some(mut versions) = by_vendor.remove(&vendor) else {
                continue;
            };
            versions.sort_unstable();
            let mut start = versions[0];
            let mut prev = versions[0];
            for &v in &versions[1..] {
                if v == prev + 1 {
                    prev = v;
                    continue;
                }
                parts.push(render_range(vendor, start, prev));
                start = v;
                prev = v;
            }
            parts.push(render_range(vendor, start, prev));
        }
        parts.join(", ")
    }

    /// All entries as a slice.
    pub fn entries(&self) -> &[(UserAgent, usize)] {
        &self.entries
    }
}

fn render_range(vendor: Vendor, start: u32, end: u32) -> String {
    if start == end {
        format!("{vendor} {start}")
    } else {
        format!("{vendor} {start}-{end}")
    }
}

/// A fully trained Browser Polygraph model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    feature_set: FeatureSet,
    scaler: StandardScaler,
    pca: Pca,
    kmeans: KMeans,
    cluster_table: ClusterTable,
    /// Majority-cluster accuracy on the training data (the paper's 99.6%).
    train_accuracy: f64,
    /// Rows removed as outliers before fitting (the paper's 172).
    outliers_removed: usize,
    config: TrainConfig,
}

impl TrainedModel {
    /// Runs the full §6.4 pipeline on `data`, whose columns must follow
    /// `feature_set`.
    pub fn fit(
        feature_set: FeatureSet,
        data: &TrainingSet,
        config: TrainConfig,
    ) -> Result<Self, PolygraphError> {
        // Unobserved fits record into a throwaway registry: a handful of
        // atomic writes per phase, dropped on return.
        Self::fit_observed(
            feature_set,
            data,
            config,
            &ThreadPool::serial(),
            &Registry::monotonic(),
        )
    }

    /// [`TrainedModel::fit`] with per-phase span timers and a run counter
    /// recorded into `registry` (see [`fit_metric_names`]). The
    /// orchestrator passes the risk server's registry so retrain phase
    /// timings ride the same `STATS` snapshot as the serving metrics.
    /// `_pool` is ignored (see [`ThreadPool`]).
    pub fn fit_observed(
        feature_set: FeatureSet,
        data: &TrainingSet,
        config: TrainConfig,
        _pool: &ThreadPool,
        registry: &Registry,
    ) -> Result<Self, PolygraphError> {
        check_window(data, feature_set.len(), config.k)?;

        let total_span = registry.span(fit_metric_names::TOTAL_MICROS);

        // The set is its own partition by distinct row, and the partition
        // is carried through every stage, as in `refit_observed`: scaling,
        // scoring, projection and assignment run per group, and every sum
        // (scaler statistics, covariance, Lloyd's sums, the WCSS) and the
        // k-means++ draw once per group times its count. The forest's
        // subsamples draw rows but build over the groups drawn, and the
        // cluster table votes on counts per (group, release). The model is
        // the same bits as a fit on the full matrix, whose partition numbers
        // its groups the same way.
        //
        // 6.4.1: scale the deviation-based columns only — "the time-based
        // attributes were already in the binary format which was
        // suitable" — then drop Isolation-Forest outliers.
        let scale_span = registry.span(fit_metric_names::SCALE_MICROS);
        let groups = data.row_groups()?;
        let mut scaler = StandardScaler::fit_grouped(&groups)?;
        if !config.scale_time_based {
            scaler.neutralize_columns(
                &feature_set.indices_of_kind(fingerprint::FeatureKind::TimeBased),
            );
        }
        let scaled = scaler.transform(groups.distinct())?;
        let groups = groups.with_distinct(scaled)?;
        scale_span.finish();

        let outlier_span = registry.span(fit_metric_names::OUTLIER_MICROS);
        let forest = IsolationForest::fit_grouped(
            &groups,
            IsolationForestConfig {
                n_trees: 100,
                sample_size: 256,
                seed: config.seed,
            },
        )?;
        // One pass over the sessions applies the cut, renumbers the kept
        // groups by first kept session and counts the kept sessions per
        // (group, release); the dropped ones keep their release, in window
        // order, for the vanished-release alignment.
        let mut cut = forest.outlier_cut(&groups, config.contamination)?;
        let user_agents = data.user_agents();
        let mut tally = ReleaseTally::new();
        let mut dropped = Vec::new();
        let groups = groups.filter_rows_with(
            |r, g| {
                let out = cut.drops(g);
                if out {
                    dropped.push(user_agents[r]);
                }
                !out
            },
            |r, g| tally.add(g, user_agents[r], 1),
        )?;
        let outliers_removed = dropped.len();
        outlier_span.finish();

        // 6.4.2: PCA.
        let pca_span = registry.span(fit_metric_names::PCA_MICROS);
        let pca = Pca::fit_grouped(&groups, config.n_components)?;
        let projected = pca.transform(groups.distinct())?;
        let groups = groups.with_distinct(projected)?;
        pca_span.finish();

        // 6.4.3: k-means.
        let kmeans_span = registry.span(fit_metric_names::KMEANS_MICROS);
        let kmeans = KMeans::fit_grouped(
            &groups,
            KMeansConfig::new(config.k)
                .with_seed(config.seed)
                .with_n_init(config.n_init),
        )?;
        let nearest = kmeans.predict(groups.distinct())?;
        kmeans_span.finish();

        // Semi-supervised table + accuracy.
        let table_span = registry.span(fit_metric_names::TABLE_MICROS);
        let (cluster_table, train_accuracy) = build_cluster_table(
            &feature_set,
            &scaler,
            &pca,
            &kmeans,
            &tally,
            &dropped,
            &nearest,
            &config,
        )?;
        table_span.finish();
        total_span.finish();
        registry.counter(fit_metric_names::RUNS).inc();

        Ok(Self {
            feature_set,
            scaler,
            pca,
            kmeans,
            cluster_table,
            train_accuracy,
            outliers_removed,
            config,
        })
    }

    /// The streaming-checkpoint refit (§6.6 without the stop-the-world
    /// snapshot): freezes this model's scaler and PCA stages, warm-starts
    /// mini-batch k-means from the serving centroids, absorbs `epochs`
    /// seeded epochs of `data`, and rebuilds the cluster table and
    /// majority accuracy on the same window.
    ///
    /// It skips the Isolation-Forest pass and the PCA eigensolve and
    /// replaces `n_init` full Lloyd restarts with a few warm-started
    /// mini-batch epochs. The window is its own partition by distinct
    /// row ([`TrainingSet::row_groups`]; a reservoir hands its residents
    /// over by id), so nothing is interned here, and the partition is
    /// carried through every stage: the 50 000-session drift window holds
    /// 355–391 distinct rows, so the scaler, the projection, the WCSS
    /// distance and the final assignment run on those, and a mini-batch
    /// searches once per group present in it. Only the centroid updates
    /// still take one step per row — they are an order-dependent
    /// reduction — and the WCSS sums each group once times its count
    /// (`tests/fit_bytes.rs` pins the candidate's bytes). It is no longer
    /// the cheaper candidate: a full fit of that window is faster (README,
    /// the "streaming refit ≥ 2× a full fit" row). What it buys is
    /// continuity: the frozen scaler and PCA, and centroids that keep
    /// their indices from one candidate to the next. `_pool` is ignored
    /// (see [`ThreadPool`]).
    pub fn refit_streaming(
        &self,
        data: &TrainingSet,
        epochs: usize,
        _pool: &ThreadPool,
    ) -> Result<Self, PolygraphError> {
        self.refit_observed(data, epochs, &Registry::monotonic())
    }

    /// [`TrainedModel::refit_streaming`] with per-stage span timers
    /// recorded into `registry` (see [`refit_metric_names`]). The
    /// orchestrator passes the risk server's registry so the refit's
    /// stages ride the same `STATS` snapshot as the serving metrics.
    pub fn refit_observed(
        &self,
        data: &TrainingSet,
        epochs: usize,
        registry: &Registry,
    ) -> Result<Self, PolygraphError> {
        check_window(data, self.feature_set.len(), self.config.k)?;
        let total_span = registry.span(refit_metric_names::TOTAL_MICROS);

        // Scaling and projection are pure functions of one row: they run
        // on the distinct rows, and the partition of the raw window is
        // still a partition of the projected one.
        let group_span = registry.span(refit_metric_names::GROUP_MICROS);
        let groups = data.row_groups()?;
        let scaled = self.scaler.transform(groups.distinct())?;
        let groups = groups.with_distinct(self.pca.transform(&scaled)?)?;
        group_span.finish();

        let epochs_span = registry.span(refit_metric_names::EPOCHS_MICROS);
        let mut minibatch = MiniBatchKMeans::warm_start(
            self.kmeans.centroids().clone(),
            MiniBatchConfig::new(self.config.k).with_seed(self.config.seed),
        )?;
        for _ in 0..epochs {
            minibatch.step_grouped(&groups)?;
        }
        epochs_span.finish();

        let table_span = registry.span(refit_metric_names::TABLE_MICROS);
        let kmeans = minibatch.into_kmeans_grouped(&groups)?;
        let nearest = kmeans.predict(groups.distinct())?;
        let tally = ReleaseTally::of(data);
        let (cluster_table, train_accuracy) = build_cluster_table(
            &self.feature_set,
            &self.scaler,
            &self.pca,
            &kmeans,
            &tally,
            &[],
            &nearest,
            &self.config,
        )?;
        table_span.finish();
        total_span.finish();

        Ok(Self {
            feature_set: self.feature_set.clone(),
            scaler: self.scaler.clone(),
            pca: self.pca.clone(),
            kmeans,
            cluster_table,
            train_accuracy,
            outliers_removed: 0,
            config: self.config,
        })
    }

    /// The feature schema this model expects.
    pub fn feature_set(&self) -> &FeatureSet {
        &self.feature_set
    }

    /// The Table 3 association.
    pub fn cluster_table(&self) -> &ClusterTable {
        &self.cluster_table
    }

    /// Majority-cluster training accuracy (the paper's 99.6%).
    pub fn train_accuracy(&self) -> f64 {
        self.train_accuracy
    }

    /// Rows removed as Isolation-Forest outliers (the paper's 172).
    pub fn outliers_removed(&self) -> usize {
        self.outliers_removed
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The fitted PCA stage (for variance reporting — Figure 2).
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// The fitted scaler stage.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Compiles the scaler + PCA + k-means pipeline into the fused
    /// fixed-point form used by the serving fast path
    /// (see [`polygraph_ml::quant`]).
    pub fn quantize(&self) -> Result<polygraph_ml::QuantModel, PolygraphError> {
        Ok(polygraph_ml::QuantModel::compile(
            &self.scaler,
            &self.pca,
            &self.kmeans,
        )?)
    }

    /// The fitted k-means stage (for WCSS reporting — Figures 3/4).
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// Predicts the cluster of a raw fingerprint row.
    pub fn predict_cluster(&self, values: &[f64]) -> Result<usize, PolygraphError> {
        self.predict_cluster_with(values, &mut Vec::new())
    }

    /// [`TrainedModel::predict_cluster`] projecting into a buffer the
    /// caller keeps between rows, so a loop over sessions allocates
    /// nothing per prediction. `projected` is scratch: overwritten, and
    /// meaningless to the caller afterwards.
    pub(crate) fn predict_cluster_with(
        &self,
        values: &[f64],
        projected: &mut Vec<f64>,
    ) -> Result<usize, PolygraphError> {
        if values.len() != self.feature_set.len() {
            return Err(PolygraphError::FeatureWidthMismatch {
                got: values.len(),
                expected: self.feature_set.len(),
            });
        }
        predict_into(&self.scaler, &self.pca, &self.kmeans, values, projected)
    }

    /// The populated cluster whose centroid is nearest to `cluster`'s.
    ///
    /// With k = 11 over ~9 natural release groups, k-means' spare
    /// centroids settle on sub-structure (extension variants of a popular
    /// release) and end up holding no user-agent majority. A session
    /// landing there still deserves a *sized* risk factor — the paper
    /// attributes such flags to "certain extensions or browser
    /// configurations" and reports them at low risk — so Algorithm 1 runs
    /// against the nearest populated neighbourhood instead of an empty
    /// one. Returns `cluster` itself when it is populated (or nothing is).
    pub fn nearest_populated_cluster(&self, cluster: usize) -> usize {
        if self.cluster_table.is_populated(cluster) {
            return cluster;
        }
        let centroids = self.kmeans.centroids();
        if cluster >= centroids.rows() {
            return cluster;
        }
        let own = centroids.row(cluster);
        let mut best: Option<(usize, f64)> = None;
        for c in 0..centroids.rows() {
            if c == cluster || !self.cluster_table.is_populated(c) {
                continue;
            }
            let d = polygraph_ml::Matrix::sq_dist(own, centroids.row(c));
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        best.map_or(cluster, |(c, _)| c)
    }
}

/// The window check shared by the full fit and the streaming refit: the
/// columns must follow the feature schema and the rows must outnumber
/// the clusters.
fn check_window(data: &TrainingSet, width: usize, k: usize) -> Result<(), PolygraphError> {
    if data.width() != width {
        return Err(PolygraphError::FeatureWidthMismatch {
            got: data.width(),
            expected: width,
        });
    }
    if data.len() <= k {
        return Err(PolygraphError::BadTrainingSet(format!(
            "{} rows cannot support k={k}",
            data.len()
        )));
    }
    Ok(())
}

/// The semi-supervised table-building tail shared by the full fit and
/// the streaming refit: majority vote per user-agent, then the §6.4.3
/// manual alignments — sparse user-agents predicted from a genuine lab
/// fingerprint instead of a thin majority, and user-agents that vanished
/// from the kept sessions entirely (every session dropped as an outlier)
/// aligned from the lab instance too. `tally` counts the kept sessions per
/// (group, release), `nearest` is each group's cluster, and `dropped`
/// holds the user-agents of the sessions the fit dropped, in window order.
///
/// A release's majority is its cluster holding the most of its sessions,
/// the lowest on a tie; its total decides what is sparse; and the accuracy
/// is the share of kept sessions in their release's majority — the
/// paper's Formula 1, as `metrics::majority_cluster_accuracy` computes it
/// session by session. A release keeps the value its first kept session
/// claimed, or, for a vanished one, its first dropped session.
#[allow(clippy::too_many_arguments)] // the fitted stages travel together
fn build_cluster_table(
    feature_set: &FeatureSet,
    scaler: &StandardScaler,
    pca: &Pca,
    kmeans: &KMeans,
    tally: &ReleaseTally,
    dropped: &[UserAgent],
    nearest: &[usize],
    config: &TrainConfig,
) -> Result<(ClusterTable, f64), PolygraphError> {
    let mut projected = Vec::new();
    let mut predict_lab = |ua: UserAgent| {
        let lab = feature_set.extract(&BrowserInstance::genuine(ua));
        predict_into(scaler, pca, kmeans, &lab.as_f64(), &mut projected)
    };
    let k = kmeans.centroids().rows();
    let counts = tally.fold(k, |g| Ok(nearest[g]))?;
    let mut correct = 0;
    let mut entries: Vec<(UserAgent, usize)> = Vec::new();
    for (&ua, per_cluster) in tally.releases().iter().zip(counts.chunks_exact(k)) {
        let (mut cluster, mut most, mut sessions) = (0, 0, 0);
        for (c, &n) in per_cluster.iter().enumerate() {
            sessions += n;
            if n > most {
                (cluster, most) = (c, n);
            }
        }
        correct += most;
        let cluster = if config.lab_alignment && sessions < config.min_samples_for_majority {
            predict_lab(ua).unwrap_or(cluster)
        } else {
            cluster
        };
        entries.push((ua, cluster));
    }
    if config.lab_alignment {
        let mut vanished = BTreeSet::new();
        for &ua in dropped {
            if tally.release_id(ua).is_some() || !vanished.insert(ua) {
                continue;
            }
            if let Ok(cluster) = predict_lab(ua) {
                entries.push((ua, cluster));
            }
        }
    }
    Ok((
        ClusterTable::from_entries(config.k, entries),
        correct as f64 / tally.sessions() as f64,
    ))
}

/// The one prediction body: scale → centre → project in a single pass
/// over the features, accumulated into `projected` (overwritten), then the
/// nearest centroid. Feature by feature these are the operations of
/// [`StandardScaler::transform_row`] followed by [`Pca::transform_row`],
/// in their order — `(v − mean) / scale`, minus the PCA mean, skipped when
/// exactly zero, else added into every component in turn — so the
/// projection, and with it the cluster, is the same bits.
fn predict_into(
    scaler: &StandardScaler,
    pca: &Pca,
    kmeans: &KMeans,
    values: &[f64],
    projected: &mut Vec<f64>,
) -> Result<usize, PolygraphError> {
    let (means, scales, centre) = (scaler.means(), scaler.scales(), pca.means());
    if values.len() != means.len() || centre.len() != means.len() {
        return Err(MlError::DimensionMismatch {
            got: values.len(),
            expected: means.len(),
            what: "row length",
        }
        .into());
    }
    projected.clear();
    projected.resize(pca.n_components(), 0.0);
    let axes = pca.components();
    for (i, (((&v, &m), &s), &pm)) in values.iter().zip(means).zip(scales).zip(centre).enumerate() {
        let c = (v - m) / s - pm;
        if c == 0.0 {
            continue;
        }
        for (o, &axis) in projected.iter_mut().zip(axes.row(i)) {
            *o += c * axis;
        }
    }
    Ok(kmeans.predict_row(projected)?)
}

/// Picks the smallest component count whose cumulative explained variance
/// reaches `threshold` — the Figure 2 reading that chose 7 components.
pub fn pick_pca_components(scaled: &Matrix, threshold: f64) -> Result<usize, PolygraphError> {
    let spectrum = Pca::variance_spectrum(scaled)?;
    let mut acc = 0.0;
    for (i, r) in spectrum.iter().enumerate() {
        acc += r;
        if acc >= threshold {
            return Ok(i + 1);
        }
    }
    Ok(spectrum.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::Vendor;
    use polygraph_ml::metrics::majority_cluster_accuracy;
    use proptest::prelude::*;

    fn ua(vendor: Vendor, v: u32) -> UserAgent {
        UserAgent::new(vendor, v)
    }

    /// A compact but structured training set: three separable synthetic
    /// "eras" with two user-agents each.
    fn toy_training_set() -> TrainingSet {
        let mut set = TrainingSet::new(3);
        let eras: [(f64, Vec<UserAgent>); 3] = [
            (0.0, vec![ua(Vendor::Chrome, 60), ua(Vendor::Chrome, 61)]),
            (10.0, vec![ua(Vendor::Chrome, 100), ua(Vendor::Edge, 100)]),
            (
                20.0,
                vec![ua(Vendor::Firefox, 100), ua(Vendor::Firefox, 101)],
            ),
        ];
        for (base, uas) in eras {
            for u in uas {
                for j in 0..30 {
                    let jitter = (j % 3) as f64 * 0.1;
                    set.push(vec![base + jitter, base * 2.0, base + 1.0 - jitter], u)
                        .unwrap();
                }
            }
        }
        set
    }

    #[test]
    fn fit_produces_high_accuracy_on_separable_data() {
        let set = toy_training_set();
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            ..Default::default()
        };
        let model = TrainedModel::fit(FeatureSet::new(vec![]), &set, config);
        // Width mismatch: feature set is empty but data has 3 columns.
        assert!(model.is_err());

        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        assert!(
            model.train_accuracy() > 0.99,
            "got {}",
            model.train_accuracy()
        );
    }

    #[test]
    fn cluster_table_groups_same_era_uas() {
        let set = toy_training_set();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1, // no lab alignment for toy UAs
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        let t = model.cluster_table();
        assert_eq!(
            t.cluster_of(ua(Vendor::Chrome, 100)),
            t.cluster_of(ua(Vendor::Edge, 100)),
            "same-era Chrome and Edge must share a cluster"
        );
        assert_ne!(
            t.cluster_of(ua(Vendor::Chrome, 60)),
            t.cluster_of(ua(Vendor::Firefox, 100))
        );
    }

    #[test]
    fn predict_cluster_matches_training_assignment() {
        let set = toy_training_set();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        let c = model.predict_cluster(&[10.0, 20.0, 11.0]).unwrap();
        assert_eq!(
            Some(c),
            model.cluster_table().cluster_of(ua(Vendor::Chrome, 100))
        );
        assert!(model.predict_cluster(&[1.0]).is_err());
    }

    #[test]
    fn fused_prediction_equals_the_staged_transforms_bit_for_bit() {
        let set = toy_training_set();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        // Besides the training rows: one at the scaler's and the PCA's
        // means (centred coordinates at or next to the `c == 0.0` skip)
        // and one far outside the training range.
        let on_the_means: Vec<f64> = (0..3)
            .map(|i| {
                model.pca().means()[i] * model.scaler().scales()[i] + model.scaler().means()[i]
            })
            .collect();
        let mut projected = vec![f64::NAN; 5]; // stale scratch of another width
        for row in set
            .rows()
            .iter()
            .chain([on_the_means.as_slice(), &[1e6, -3.0, 0.5]])
        {
            let cluster = model.predict_cluster_with(row, &mut projected).unwrap();
            let scaled = model.scaler().transform_row(row).unwrap();
            let staged = model.pca().transform_row(&scaled).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&projected), bits(&staged), "{row:?}");
            assert_eq!(cluster, model.kmeans().predict_row(&staged).unwrap());
        }
    }

    #[test]
    fn expected_cluster_falls_back_to_nearest_version() {
        let t = ClusterTable::from_entries(
            4,
            vec![
                (ua(Vendor::Chrome, 100), 1),
                (ua(Vendor::Chrome, 110), 2),
                (ua(Vendor::Firefox, 100), 3),
            ],
        );
        assert_eq!(t.expected_cluster(ua(Vendor::Chrome, 100)), Some(1));
        // 104 is nearer 100 than 110.
        assert_eq!(t.expected_cluster(ua(Vendor::Chrome, 104)), Some(1));
        assert_eq!(t.expected_cluster(ua(Vendor::Chrome, 108)), Some(2));
        // No Edge entries at all.
        assert_eq!(t.expected_cluster(ua(Vendor::Edge, 100)), None);
    }

    #[test]
    fn describe_cluster_renders_ranges() {
        let t = ClusterTable::from_entries(
            2,
            vec![
                (ua(Vendor::Chrome, 110), 0),
                (ua(Vendor::Chrome, 111), 0),
                (ua(Vendor::Chrome, 112), 0),
                (ua(Vendor::Edge, 110), 0),
                (ua(Vendor::Chrome, 99), 1),
            ],
        );
        assert_eq!(t.describe_cluster(0), "Chrome 110-112, Edge 110");
        assert_eq!(t.describe_cluster(1), "Chrome 99");
        assert_eq!(t.describe_cluster(9), "");
    }

    #[test]
    fn rows_skip_empty_clusters() {
        let t = ClusterTable::from_entries(5, vec![(ua(Vendor::Chrome, 100), 4)]);
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows()[0].0, 4);
        assert!(t.is_populated(4));
        assert!(!t.is_populated(3) && !t.is_populated(9));
    }

    #[test]
    fn too_small_dataset_rejected() {
        let mut set = TrainingSet::new(2);
        for i in 0..5 {
            set.push(vec![i as f64, 0.0], ua(Vendor::Chrome, 100))
                .unwrap();
        }
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1]);
        let config = TrainConfig {
            k: 11,
            ..Default::default()
        };
        assert!(TrainedModel::fit(fs, &set, config).is_err());
    }

    #[test]
    fn refit_streaming_preserves_structure_on_a_stable_window() {
        let set = toy_training_set();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        let refit = model
            .refit_streaming(&set, 4, &ThreadPool::serial())
            .unwrap();
        // Warm-started on the very window the model was fit on, the
        // candidate keeps the era structure and the accuracy bar.
        assert!(refit.train_accuracy() > 0.99, "{}", refit.train_accuracy());
        assert_eq!(
            refit.cluster_table().cluster_of(ua(Vendor::Chrome, 100)),
            refit.cluster_table().cluster_of(ua(Vendor::Edge, 100)),
        );
        assert_eq!(refit.outliers_removed(), 0);
        // Deterministic: the same serving model + window give the same
        // candidate.
        let again = model
            .refit_streaming(&set, 4, &ThreadPool::serial())
            .unwrap();
        assert_eq!(again.cluster_table(), refit.cluster_table());
    }

    #[test]
    fn cluster_table_keeps_a_release_as_its_first_session_claimed_it() {
        // Two sessions claim Chrome 100 from different OSes; `UserAgent`
        // equality ignores the OS, so the release is one label, and the
        // table must hold it as the first session had it.
        let set = toy_training_set();
        let mut uas = set.user_agents().to_vec();
        let first = uas
            .iter()
            .position(|u| *u == ua(Vendor::Chrome, 100))
            .unwrap();
        uas[first].os = browser_engine::Os::Linux;
        let set =
            TrainingSet::from_rows(set.rows().iter().map(<[f64]>::to_vec).collect(), uas).unwrap();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        let refit = model
            .refit_streaming(&set, 4, &ThreadPool::serial())
            .unwrap();
        for table in [model.cluster_table(), refit.cluster_table()] {
            let chrome = table
                .entries
                .iter()
                .filter(|(u, _)| *u == ua(Vendor::Chrome, 100))
                .map(|(u, _)| u.os)
                .collect::<Vec<_>>();
            assert_eq!(chrome, [browser_engine::Os::Linux]);
        }
    }

    #[test]
    fn refit_streaming_rejects_bad_windows() {
        let set = toy_training_set();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        let narrow = TrainingSet::new(2);
        assert!(model
            .refit_streaming(&narrow, 1, &ThreadPool::serial())
            .is_err());
        let mut tiny = TrainingSet::new(3);
        for i in 0..3 {
            tiny.push(vec![i as f64, 0.0, 0.0], ua(Vendor::Chrome, 100))
                .unwrap();
        }
        assert!(model
            .refit_streaming(&tiny, 1, &ThreadPool::serial())
            .is_err());
    }

    #[test]
    fn model_serde_round_trip() {
        let set = toy_training_set();
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: TrainedModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cluster_table(), model.cluster_table());
        assert_eq!(
            back.predict_cluster(&[10.0, 20.0, 11.0]).unwrap(),
            model.predict_cluster(&[10.0, 20.0, 11.0]).unwrap()
        );
    }

    /// The fit as it ran before the keyed pass: the cut as a stable sort
    /// of every row by descending score, per-session `is_outlier`,
    /// `kept_uas` and `dropped_uas` vectors, `filter_rows`, a per-session
    /// assignment vector and `majority_cluster_accuracy`'s vote. The keyed
    /// pass and the vote on counts must give the same model, bit for bit.
    fn fit_per_session(
        feature_set: FeatureSet,
        data: &TrainingSet,
        config: TrainConfig,
    ) -> TrainedModel {
        let groups = data.row_groups().unwrap();
        let mut scaler = StandardScaler::fit_grouped(&groups).unwrap();
        if !config.scale_time_based {
            scaler.neutralize_columns(
                &feature_set.indices_of_kind(fingerprint::FeatureKind::TimeBased),
            );
        }
        let scaled = scaler.transform(groups.distinct()).unwrap();
        let groups = groups.with_distinct(scaled).unwrap();
        let forest = IsolationForest::fit_grouped(&groups, forest_config(&config)).unwrap();
        let scores: Vec<f64> = (0..groups.rows())
            .map(|r| forest.score_row(groups.row(r)))
            .collect();
        let mut is_outlier = vec![false; data.len()];
        for r in ranked_cut(&scores, config.contamination) {
            is_outlier[r] = true;
        }
        let (mut kept_uas, mut dropped_uas) = (Vec::new(), Vec::new());
        for (&ua, &out) in data.user_agents().iter().zip(&is_outlier) {
            if out {
                dropped_uas.push(ua);
            } else {
                kept_uas.push(ua);
            }
        }
        let groups = groups.filter_rows(|i| !is_outlier[i]).unwrap();
        let pca = Pca::fit_grouped(&groups, config.n_components).unwrap();
        let projected = pca.transform(groups.distinct()).unwrap();
        let groups = groups.with_distinct(projected).unwrap();
        let kmeans = KMeans::fit_grouped(
            &groups,
            KMeansConfig::new(config.k)
                .with_seed(config.seed)
                .with_n_init(config.n_init),
        )
        .unwrap();
        let nearest = kmeans.predict(groups.distinct()).unwrap();
        let assignments: Vec<usize> = groups.group_of().iter().map(|&g| nearest[g]).collect();

        let accuracy = majority_cluster_accuracy(&kept_uas, &assignments).unwrap();
        let mut projected = Vec::new();
        let mut predict_lab = |ua: UserAgent| {
            let lab = feature_set.extract(&BrowserInstance::genuine(ua));
            predict_into(&scaler, &pca, &kmeans, &lab.as_f64(), &mut projected)
        };
        let mut entries = Vec::new();
        let voted = accuracy
            .label_clusters
            .iter()
            .zip(accuracy.label_totals.values());
        for ((ua, &cluster), &sessions) in voted {
            let cluster = if config.lab_alignment && sessions < config.min_samples_for_majority {
                predict_lab(*ua).unwrap_or(cluster)
            } else {
                cluster
            };
            entries.push((*ua, cluster));
        }
        if config.lab_alignment {
            let mut vanished = BTreeSet::new();
            for &ua in &dropped_uas {
                if accuracy.label_clusters.contains_key(&ua) || !vanished.insert(ua) {
                    continue;
                }
                if let Ok(cluster) = predict_lab(ua) {
                    entries.push((ua, cluster));
                }
            }
        }
        TrainedModel {
            feature_set,
            scaler,
            pca,
            kmeans,
            cluster_table: ClusterTable::from_entries(config.k, entries),
            train_accuracy: accuracy.accuracy,
            outliers_removed: is_outlier.iter().filter(|&&o| o).count(),
            config,
        }
    }

    fn forest_config(config: &TrainConfig) -> IsolationForestConfig {
        IsolationForestConfig {
            n_trees: 100,
            sample_size: 256,
            seed: config.seed,
        }
    }

    /// The rows a stable sort of every row by descending score puts
    /// first, `round(n × contamination)` of them (at least one).
    fn ranked_cut(scores: &[f64], contamination: f64) -> Vec<usize> {
        if contamination == 0.0 {
            return Vec::new();
        }
        let n = scores.len();
        let n_out = ((n as f64 * contamination).round() as usize).clamp(1, n);
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        ranked.truncate(n_out);
        ranked
    }

    /// The values of a window's rows: `0.0` and `-0.0` are different rows
    /// but, in a column whose mean is not zero, the same scaled row — so
    /// their groups score exactly alike.
    const VALUES: [f64; 5] = [0.0, -0.0, 1.0, 2.5, 40.0];

    const OSES: [browser_engine::Os; 3] = [
        browser_engine::Os::Windows10,
        browser_engine::Os::Linux,
        browser_engine::Os::MacOsSonoma,
    ];

    proptest! {
        /// The keyed pass and the vote on counts hold to the per-session
        /// body: outliers removed, accuracy bits, table entries with their
        /// OS, and the model's bytes. Every window carries a rare pair of
        /// groups, `[40, ±0, …]`, equal once scaled, so ≥ 2 groups tie at
        /// their score; the contamination puts the cut strictly inside
        /// that tie, so it splits the tie, and a group of it whenever the
        /// rows it takes do not end one. The
        /// rare rows open the window and claim a common release from
        /// another OS than its other sessions, or a release no other
        /// session claims: dropping the tie's last rows instead of its
        /// first, or keeping a release's first value over all sessions
        /// instead of its first kept one, moves the table.
        #[test]
        fn prop_oracle_keyed_pass_and_vote_equal_the_per_session_body(
            vectors in proptest::collection::vec(
                proptest::collection::vec(0usize..4, 3..4), 2..6),
            picks in proptest::collection::vec(0usize..5, 120..400),
            releases in proptest::collection::vec(0usize..4, 400..401),
            oses in proptest::collection::vec(0usize..3, 400..401),
            rare in proptest::collection::vec(0usize..4, 3..9),
            tail in proptest::collection::vec(0usize..400, 0..4),
            take in any::<u64>(),
            min_samples in proptest::collection::vec(1usize..80, 1..2),
            seed in any::<u64>(),
        ) {
            // Common rows: vectors over 0.0, 1.0 and 2.5 (never -0.0, so
            // common rows never collide once scaled), column 1 never zero,
            // so its mean is not.
            let common: Vec<Vec<f64>> = vectors
                .iter()
                .map(|v| {
                    let mut row: Vec<f64> =
                        v.iter().map(|&c| VALUES[if c == 1 { 2 } else { c }]).collect();
                    row[1] = VALUES[2 + v[1] % 2];
                    row
                })
                .collect();
            // Release 3 is past the dense version table.
            let claim = |r: usize| {
                let mut ua = ua(Vendor::Chrome, [100, 101, 102, 100_000][releases[r]]);
                ua.os = OSES[oses[r]];
                ua
            };
            let mut rows = Vec::new();
            let mut uas = Vec::new();
            // The rare rows: `rare[i]` picks the sign of zero and the
            // release — 100 from Linux (a common release, whose other
            // sessions claim it from any OS), or 120, claimed nowhere else.
            let rare_row = |code: usize| {
                let zero = if code.is_multiple_of(2) { 0.0 } else { -0.0 };
                vec![40.0, zero, 1.0]
            };
            let rare_ua = |code: usize| {
                let mut ua = ua(Vendor::Chrome, if code < 2 { 100 } else { 120 });
                ua.os = browser_engine::Os::Linux;
                ua
            };
            for (i, &code) in rare.iter().enumerate() {
                // Both signs of zero among the first two.
                rows.push(rare_row(if i < 2 { i } else { code }));
                uas.push(rare_ua(code));
            }
            for (r, &p) in picks.iter().enumerate() {
                rows.push(common[p % common.len()].clone());
                uas.push(claim(r));
            }
            // A few more rare rows later in the window.
            for (i, &at) in tail.iter().enumerate() {
                let at = rare.len() + at % picks.len();
                rows.insert(at, rare_row(i));
                uas.insert(at, rare_ua(rare.len() + i));
            }
            let set = TrainingSet::from_rows(rows, uas).unwrap();
            let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
            let mut config = TrainConfig {
                k: 3,
                n_components: 2,
                seed,
                min_samples_for_majority: min_samples[0],
                ..Default::default()
            };

            // Where the rare rows score, and how many rows score above.
            let groups = set.row_groups().unwrap();
            let scaler = StandardScaler::fit_grouped(&groups).unwrap();
            let scaled = scaler.transform(groups.distinct()).unwrap();
            let groups = groups.with_distinct(scaled).unwrap();
            let forest = IsolationForest::fit_grouped(&groups, forest_config(&config)).unwrap();
            let tied = forest.score_row(groups.row(0));
            let scores: Vec<f64> =
                (0..set.len()).map(|r| forest.score_row(groups.row(r))).collect();
            let above = scores.iter().filter(|&&s| s > tied).count();
            let at = scores.iter().filter(|&&s| s == tied).count();
            let tied_groups: BTreeSet<usize> = (0..set.len())
                .filter(|&r| scores[r] == tied)
                .map(|r| groups.group_of()[r])
                .collect();
            prop_assert!(tied_groups.len() >= 2, "the rare pair ties");
            let n_out = above + 1 + (take as usize) % (at - 1);
            prop_assert!(2 * n_out <= set.len(), "the cut fits the contamination bound");
            config.contamination = n_out as f64 / set.len() as f64;
            prop_assert_eq!(ranked_cut(&scores, config.contamination).len(), n_out);

            let model = TrainedModel::fit(fs.clone(), &set, config).unwrap();
            let reference = fit_per_session(fs, &set, config);
            prop_assert_eq!(model.outliers_removed(), reference.outliers_removed());
            prop_assert_eq!(
                model.train_accuracy().to_bits(),
                reference.train_accuracy().to_bits()
            );
            let with_os = |t: &ClusterTable| {
                t.entries().iter().map(|&(u, c)| (u, u.os, c)).collect::<Vec<_>>()
            };
            prop_assert_eq!(
                with_os(model.cluster_table()),
                with_os(reference.cluster_table())
            );
            prop_assert_eq!(
                serde_json::to_string(&model).unwrap(),
                serde_json::to_string(&reference).unwrap()
            );
        }
    }

    #[test]
    fn tallies_hold_no_more_entries_than_sessions_on_an_all_distinct_window() {
        // Every row distinct, each claiming its own release past the dense
        // version table: a count dense over groups × releases would take
        // 16 M cells here; the fit's and the refit's tallies hold at most
        // one entry per session.
        const SESSIONS: usize = 4_000;
        let (rows, uas): (Vec<_>, Vec<_>) = (0..SESSIONS)
            .map(|i| {
                let x = i as f64;
                let release = ua(Vendor::ALL[i % 3], 1_024 + i as u32);
                (vec![x, (x * 7.0) % 13.0, (x * 3.0) % 17.0], release)
            })
            .unzip();
        let set = TrainingSet::from_rows(rows, uas).unwrap();
        assert_eq!(set.distinct_rows(), SESSIONS);
        let fs = fingerprint::FeatureSet::table8().subset(&[0, 1, 2]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            lab_alignment: false,
            ..Default::default()
        };
        let peak = || crate::tally::PEAK_ENTRIES.with(|peak| peak.replace(0));
        peak();
        let model = TrainedModel::fit(fs, &set, config).unwrap();
        assert_eq!(peak(), SESSIONS - model.outliers_removed());
        model
            .refit_streaming(&set, 1, &ThreadPool::serial())
            .unwrap();
        assert_eq!(peak(), SESSIONS);
    }

    #[test]
    fn pick_pca_components_thresholds() {
        // Two informative dimensions, one constant.
        let m = Matrix::from_rows(&[
            vec![0.0, 0.0, 5.0],
            vec![1.0, 10.0, 5.0],
            vec![2.0, 20.0, 5.0],
            vec![3.0, 29.0, 5.0],
        ])
        .unwrap();
        let n = pick_pca_components(&m, 0.985).unwrap();
        assert!(n <= 2, "two real dimensions suffice, got {n}");
        assert_eq!(pick_pca_components(&m, 1.1).unwrap(), 3);
    }
}
