//! Sensitivity sweeps (Appendix-4, Tables 10–12).
//!
//! Each sweep retrains the model with one hyper-parameter varied and
//! reports the majority-cluster accuracy, reproducing the paper's
//! demonstration that 28 features / 7 components / k = 11 is the
//! operating point.

use crate::dataset::TrainingSet;
use crate::error::PolygraphError;
use crate::tally::ReleaseTally;
use crate::train::{TrainConfig, TrainedModel};
use fingerprint::FeatureSet;
use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The varied parameter's value.
    pub value: usize,
    /// Majority-cluster accuracy at that setting.
    pub accuracy: f64,
    /// The k the run used (interesting when k itself is derived).
    pub k: usize,
    /// The PCA component count the run used.
    pub n_components: usize,
}

/// Formula 1 of `model` on `data`, whose sessions `tally` counts
/// ([`ReleaseTally::of`]): each distinct row is predicted once, and a
/// release's sessions in its majority cluster are correct.
fn accuracy_of(
    model: &TrainedModel,
    data: &TrainingSet,
    tally: &ReleaseTally,
) -> Result<f64, PolygraphError> {
    let (table, mut projected) = (data.table(), Vec::new());
    let k = model.kmeans().centroids().rows();
    let counts = tally.fold(k, |row| {
        model.predict_cluster_with(table.row(row), &mut projected)
    })?;
    let correct: usize = counts
        .chunks_exact(k)
        .map(|per_cluster| per_cluster.iter().max().copied().unwrap_or(0))
        .sum();
    Ok(correct as f64 / tally.sessions() as f64)
}

/// Table 10: accuracy versus the number of clusters, at fixed features and
/// PCA components.
pub fn sweep_clusters(
    feature_set: &FeatureSet,
    data: &TrainingSet,
    ks: &[usize],
    base: TrainConfig,
) -> Result<Vec<SweepPoint>, PolygraphError> {
    let tally = ReleaseTally::of(data);
    ks.iter()
        .map(|&k| {
            let config = TrainConfig { k, ..base };
            let model = TrainedModel::fit(feature_set.clone(), data, config)?;
            Ok(SweepPoint {
                value: k,
                accuracy: accuracy_of(&model, data, &tally)?,
                k,
                n_components: config.n_components,
            })
        })
        .collect()
}

/// Table 11: accuracy versus the number of PCA components, at fixed
/// features and k.
pub fn sweep_pca(
    feature_set: &FeatureSet,
    data: &TrainingSet,
    components: &[usize],
    base: TrainConfig,
) -> Result<Vec<SweepPoint>, PolygraphError> {
    let tally = ReleaseTally::of(data);
    components
        .iter()
        .map(|&n| {
            let config = TrainConfig {
                n_components: n,
                ..base
            };
            let model = TrainedModel::fit(feature_set.clone(), data, config)?;
            Ok(SweepPoint {
                value: n,
                accuracy: accuracy_of(&model, data, &tally)?,
                k: config.k,
                n_components: n,
            })
        })
        .collect()
}

/// One step of the Table 12 feature sweep: a feature set, the k it should
/// be clustered with, and the resulting accuracy.
#[derive(Debug, Clone)]
pub struct FeatureSweepStep {
    /// Names of features added relative to the previous step.
    pub added: Vec<String>,
    /// Total features at this step.
    pub n_features: usize,
    /// Accuracy.
    pub accuracy: f64,
    /// k used at this step.
    pub k: usize,
}

/// Table 12: accuracy as the feature count grows. Each entry of `steps`
/// supplies the extra probes to append and the k the paper's elbow
/// analysis found optimal at that width.
pub fn sweep_features(
    base_set: &FeatureSet,
    base_data: &TrainingSet,
    steps: &[(Vec<fingerprint::Probe>, usize)],
    extended_extractor: impl Fn(&FeatureSet) -> Result<TrainingSet, PolygraphError>,
    base: TrainConfig,
) -> Result<Vec<FeatureSweepStep>, PolygraphError> {
    let mut out = Vec::new();
    // Step 0: the base 28-feature configuration.
    let model = TrainedModel::fit(base_set.clone(), base_data, base)?;
    out.push(FeatureSweepStep {
        added: Vec::new(),
        n_features: base_set.len(),
        accuracy: accuracy_of(&model, base_data, &ReleaseTally::of(base_data))?,
        k: base.k,
    });

    let mut probes: Vec<fingerprint::Probe> = base_set.probes().to_vec();
    for (extra, k) in steps {
        probes.extend(extra.iter().cloned());
        let set = FeatureSet::new(probes.clone());
        let data = extended_extractor(&set)?;
        let config = TrainConfig { k: *k, ..base };
        let model = TrainedModel::fit(set.clone(), &data, config)?;
        out.push(FeatureSweepStep {
            added: extra.iter().map(|p| p.expression()).collect(),
            n_features: set.len(),
            accuracy: accuracy_of(&model, &data, &ReleaseTally::of(&data))?,
            k: *k,
        });
    }
    Ok(out)
}

/// The paper's Table 12 feature-addition schedule: three steps of four
/// probes each, with the optimal k the paper measured at each width.
pub fn table12_steps() -> Vec<(Vec<fingerprint::Probe>, usize)> {
    use fingerprint::Probe;
    vec![
        (
            vec![
                Probe::count("HTMLIFrameElement"),
                Probe::count("SVGAElement"),
                Probe::count("RemotePlayback"),
                Probe::count("StylePropertyMapReadOnly"),
            ],
            11,
        ),
        (
            vec![
                Probe::count("Screen"),
                Probe::count("Request"),
                Probe::count("TouchEvent"),
                Probe::count("TaskAttributionTiming"),
            ],
            12,
        ),
        (
            vec![
                Probe::count("PictureInPictureWindow"),
                Probe::count("ReportingObserver"),
                Probe::count("HTMLTemplateElement"),
                Probe::count("MediaSession"),
            ],
            14,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::{BrowserInstance, UserAgent, Vendor};
    use polygraph_ml::metrics::majority_cluster_accuracy;
    use proptest::prelude::*;

    /// Rows the proptest draws from: `-0.0` and `0.0` are two distinct
    /// rows that predict alike.
    const ROWS: [[f64; 3]; 6] = [
        [0.0, 1.0, 2.0],
        [-0.0, 1.0, 2.0],
        [0.5, 1.0, 2.5],
        [9.0, 8.0, 1.0],
        [9.5, 8.0, 1.0],
        [20.0, 0.0, 4.0],
    ];

    proptest! {
        /// The sweeps' accuracy is Formula 1 over one prediction per
        /// session, `majority_cluster_accuracy`'s, bit for bit. Releases
        /// share rows, so majorities fall short of every session, and one
        /// version is past the dense table.
        #[test]
        fn prop_oracle_accuracy_equals_the_per_session_form(
            picks in proptest::collection::vec(0usize..6 * 5, 20..200),
            k in 2usize..5,
            seed in any::<u64>(),
        ) {
            let claim = |r: usize| {
                let (vendor, version) =
                    [(Vendor::Chrome, 100), (Vendor::Chrome, 101), (Vendor::Edge, 100),
                     (Vendor::Firefox, 119), (Vendor::Chrome, 5_000)][r];
                UserAgent::new(vendor, version)
            };
            // Every row once, then the draws.
            let draws = (0..ROWS.len()).map(|row| (row, row % 5));
            let draws = draws.chain(picks.iter().map(|&x| (x % 6, x / 6)));
            let (rows, uas): (Vec<_>, Vec<_>) =
                draws.map(|(row, r)| (ROWS[row].to_vec(), claim(r))).unzip();
            let set = TrainingSet::from_rows(rows, uas).unwrap();
            let config = TrainConfig { k, n_components: 2, seed, n_init: 1, ..quick_config() };
            let fs = FeatureSet::table8().subset(&[0, 1, 2]);
            let model = TrainedModel::fit(fs, &set, config).unwrap();
            let per_session: Vec<usize> =
                set.rows().iter().map(|row| model.predict_cluster(row).unwrap()).collect();
            let want = majority_cluster_accuracy(set.user_agents(), &per_session).unwrap();
            let got = accuracy_of(&model, &set, &ReleaseTally::of(&set)).unwrap();
            prop_assert_eq!(got.to_bits(), want.accuracy.to_bits());
        }
    }

    /// Small lab dataset over the genuine catalog for a given feature set.
    fn lab_data(fs: &FeatureSet) -> TrainingSet {
        let mut set = TrainingSet::new(fs.len());
        for r in browser_engine::catalog::legitimate_releases() {
            let fp = fs.extract(&BrowserInstance::genuine(r.ua));
            for _ in 0..2 {
                set.push(fp.as_f64(), r.ua).unwrap();
            }
        }
        set
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            min_samples_for_majority: 1,
            n_init: 2,
            ..Default::default()
        }
    }

    #[test]
    fn cluster_sweep_produces_points_for_each_k() {
        let fs = FeatureSet::table8();
        let data = lab_data(&fs);
        let points = sweep_clusters(&fs, &data, &[5, 11], quick_config()).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].value, 5);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.accuracy));
        }
    }

    #[test]
    fn pca_sweep_varies_components() {
        let fs = FeatureSet::table8();
        let data = lab_data(&fs);
        let points = sweep_pca(&fs, &data, &[6, 7], quick_config()).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].n_components, 7);
    }

    #[test]
    fn feature_sweep_appends_table12_probes() {
        let fs = FeatureSet::table8();
        let data = lab_data(&fs);
        let steps = table12_steps();
        let result = sweep_features(
            &fs,
            &data,
            &steps[..1],
            |set| Ok(lab_data(set)),
            quick_config(),
        )
        .unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result[0].n_features, 28);
        assert_eq!(result[1].n_features, 32);
        assert!(result[1]
            .added
            .iter()
            .any(|n| n.contains("HTMLIFrameElement")));
    }

    #[test]
    fn table12_schedule_matches_paper() {
        let steps = table12_steps();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps.iter().map(|(p, _)| p.len()).sum::<usize>(), 12);
        assert_eq!(steps[0].1, 11);
        assert_eq!(steps[1].1, 12);
        assert_eq!(steps[2].1, 14);
    }
}
