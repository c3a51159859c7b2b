//! The training kernels' results, pinned to constants.
//!
//! Each kernel splits its work by index (restart, tree) with one RNG
//! stream per index, and takes every floating-point sum once per distinct
//! row, times the row's count, in group order, so a seed fixes every bit
//! of its result. These tests hold those bits, from the individual
//! kernels up to a full `TrainedModel::fit` → `predict_cluster` round
//! trip: each one hashes what it pins with `fnv1a64` over the values'
//! `to_bits()` and compares the hash with a recorded constant.
//!
//! The `polygraph-ml` oracle proptests (`prop_oracle_*`) bound those sums
//! against per-row loops over shuffled rows within a stated tolerance.

use browser_polygraph::core::{TrainConfig, TrainedModel, TrainingSet};
use browser_polygraph::fingerprint::{fnv1a64, FeatureSet};
use browser_polygraph::ml::iforest::IsolationForestConfig;
use browser_polygraph::ml::kmeans::{elbow_scan, KMeansConfig};
use browser_polygraph::ml::{IsolationForest, KMeans, Matrix, Pca};
use browser_polygraph::traffic::{generate, TrafficConfig};

/// `(seed, n_init, pin)`: centroids, WCSS and iterations of a `k = 5` fit.
const KMEANS_PINS: [(u64, usize, u64); 6] = [
    (1, 1, 0xf745_3f2d_6424_997d),
    (1, 4, 0x45b6_fbef_a3ef_470f),
    (42, 1, 0xf0c6_3f64_2c2c_c82b),
    (42, 4, 0xf0c6_3f64_2c2c_c82b),
    (0xDEAD_BEEF, 1, 0x52b7_b150_b4dc_8972),
    (0xDEAD_BEEF, 4, 0x77c3_ff6c_69ea_0e61),
];

/// `(seed, pin)`: every row's score, then the 1 % outlier set.
const FOREST_PINS: [(u64, u64); 3] = [
    (1, 0x1699_c3f5_1607_9bda),
    (42, 0x475d_5afe_ff5d_b6f0),
    (0xDEAD_BEEF, 0xd141_cd49_ef77_0057),
];

/// `(seed, pin)`: every point's WCSS and relative improvement, then every
/// point's `k` and the knee.
const ELBOW_PINS: [(u64, u64); 3] = [
    (1, 0x558a_6e9d_d539_aece),
    (42, 0x9b4f_e524_1436_9009),
    (0xDEAD_BEEF, 0x12e3_2164_359a_dbe2),
];

/// The covariance matrix of the 2 500-row matrix.
const COVARIANCE_PIN: u64 = 0x5c22_c29f_dfee_bf1a;

/// The 3-component PCA's eigenvalues, then its projections of 20 rows.
const PCA_PIN: u64 = 0x1d4c_4b20_d70e_2210;

/// The cluster table's JSON, the accuracy, the outliers removed and the
/// predicted cluster of 200 training rows.
const FIT_PIN: u64 = 0xa003_0924_3d1e_9e6b;

/// Deterministic synthetic data: all-distinct rows, so every group counts
/// one.
fn synthetic(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut state = salt | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f64 / 100.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("well-formed")
}

/// The little-endian bytes of what a test pins, hashed with `fnv1a64`.
#[derive(Default)]
struct Pin(Vec<u8>);

impl Pin {
    fn floats<'a>(mut self, values: impl IntoIterator<Item = &'a f64>) -> Self {
        for v in values {
            self.0.extend(v.to_bits().to_le_bytes());
        }
        self
    }

    fn counts(mut self, values: impl IntoIterator<Item = usize>) -> Self {
        for v in values {
            self.0.extend((v as u64).to_le_bytes());
        }
        self
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn hash(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

#[test]
fn kmeans_fit_bytes_match_the_recorded_constants() {
    let x = synthetic(1500, 4, 0xA11CE);
    for (seed, n_init, pinned) in KMEANS_PINS {
        let cfg = KMeansConfig::new(5).with_seed(seed).with_n_init(n_init);
        let fit = KMeans::fit(&x, cfg).expect("fit");
        let got = Pin::default()
            .floats(fit.centroids().as_slice())
            .floats(&[fit.wcss()])
            .counts([fit.iterations()])
            .hash();
        assert_eq!(got, pinned, "seed={seed} n_init={n_init}: {got:#018x}");
    }
}

#[test]
fn isolation_forest_bytes_match_the_recorded_constants() {
    let x = synthetic(1200, 3, 0xF0357);
    for (seed, pinned) in FOREST_PINS {
        let cfg = IsolationForestConfig {
            n_trees: 60,
            sample_size: 128,
            seed,
        };
        let forest = IsolationForest::fit(&x, cfg).expect("fit");
        let outliers = forest.outlier_indices(&x, 0.01).expect("outliers");
        let scores: Vec<f64> = x.iter_rows().map(|row| forest.score_row(row)).collect();
        let got = Pin::default().floats(&scores).counts(outliers).hash();
        assert_eq!(got, pinned, "seed={seed}: {got:#018x}");
    }
}

#[test]
fn elbow_scan_bytes_match_the_recorded_constants() {
    let x = synthetic(900, 3, 0xE1B0);
    let ks = [1usize, 2, 3, 4, 5, 6];
    for (seed, pinned) in ELBOW_PINS {
        let report = elbow_scan(&x, &ks, seed).expect("scan");
        let got = Pin::default()
            .floats(
                report
                    .points
                    .iter()
                    .flat_map(|p| [&p.wcss, &p.relative_improvement]),
            )
            .counts(report.points.iter().map(|p| p.k).chain(report.knee()))
            .hash();
        assert_eq!(got, pinned, "seed={seed}: {got:#018x}");
    }
}

#[test]
fn covariance_and_pca_bytes_match_the_recorded_constants() {
    let x = synthetic(2500, 5, 0xC0F3);
    let cov = x.covariance().expect("covariance");
    let got = Pin::default().floats(cov.as_slice()).hash();
    assert_eq!(got, COVARIANCE_PIN, "covariance: {got:#018x}");

    let pca = Pca::fit(&x, 3).expect("pca");
    let mut pin = Pin::default().floats(pca.explained_variance());
    for row in x.iter_rows().take(20) {
        pin = pin.floats(&pca.transform_row(row).expect("transform"));
    }
    let got = pin.hash();
    assert_eq!(got, PCA_PIN, "pca: {got:#018x}");
}

#[test]
fn full_training_round_trip_bytes_match_the_recorded_constants() {
    // End to end: traffic → TrainedModel::fit → the cluster table,
    // accuracy bits and per-row cluster predictions.
    let features = FeatureSet::table8();
    let data = generate(
        &features,
        &TrafficConfig::paper_training().with_sessions(4_000),
    );
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows, uas).expect("well-formed");
    let model = TrainedModel::fit(features, &training, TrainConfig::default()).expect("fit");
    let table = serde_json::to_vec(model.cluster_table()).expect("table serialises");
    let predictions = training
        .rows()
        .iter()
        .take(200)
        .map(|row| model.predict_cluster(row).expect("predict"));
    let got = Pin::default()
        .bytes(&table)
        .floats(&[model.train_accuracy()])
        .counts([model.outliers_removed()])
        .counts(predictions)
        .hash();
    assert_eq!(got, FIT_PIN, "{got:#018x}");
}
