//! Drift detection (§6.6): deciding when the model needs retraining.
//!
//! On designated dates — a few days after each vendor's latest release —
//! the drift module takes the new release's freshly collected fingerprints
//! and checks two things against the trained model:
//!
//! 1. the release's *predominant cluster* must equal the cluster of its
//!    closest release in the cluster table, and
//! 2. the fraction of its sessions landing in that cluster (its
//!    clustering accuracy) must stay at or above 98%.
//!
//! Either condition failing signals a shift in browser behaviour — the
//! paper observed exactly this in late October 2023, when Firefox 119's
//! Element-prototype overhaul flipped its cluster and Chrome 119's
//! accuracy dipped below threshold (Table 6).

use crate::dataset::TrainingSet;
use crate::drift_stream::DriftAccumulator;
use crate::error::PolygraphError;
use crate::train::TrainedModel;
use browser_engine::UserAgent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The accuracy floor below which retraining is triggered (§6.6).
pub const ACCURACY_THRESHOLD: f64 = 0.98;

/// Per-release drift measurement — one row of Table 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftObservation {
    /// The new release examined.
    pub release: UserAgent,
    /// Its predominant cluster in the new data.
    pub cluster: usize,
    /// The cluster its closest catalogued release maps to.
    pub expected_cluster: Option<usize>,
    /// Fraction of the release's sessions landing in its predominant
    /// cluster (Table 6's "Accuracy" column).
    pub accuracy: f64,
    /// Number of sessions observed for the release.
    pub sessions: usize,
}

impl DriftObservation {
    /// Whether this release, alone, would trigger retraining.
    pub fn triggers_retraining(&self) -> bool {
        self.expected_cluster != Some(self.cluster) || self.accuracy < ACCURACY_THRESHOLD
    }
}

/// The verdict of one drift checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriftDecision {
    /// All examined releases cluster as expected; no retraining.
    Stable,
    /// At least one release shifted; retraining should be initiated.
    Retrain {
        /// The releases that triggered the decision.
        triggers: Vec<UserAgent>,
    },
}

impl DriftDecision {
    /// The checkpoint rule: retrain when any examined release triggers,
    /// naming the triggers in observation order.
    pub(crate) fn from_observations(observations: &[DriftObservation]) -> Self {
        let triggers: Vec<UserAgent> = observations
            .iter()
            .filter(|o| o.triggers_retraining())
            .map(|o| o.release)
            .collect();
        if triggers.is_empty() {
            DriftDecision::Stable
        } else {
            DriftDecision::Retrain { triggers }
        }
    }
}

/// Evaluates new releases against a trained model.
#[derive(Debug, Clone)]
pub struct DriftDetector<'m> {
    model: &'m TrainedModel,
}

impl<'m> DriftDetector<'m> {
    /// Wraps the production model.
    pub fn new(model: &'m TrainedModel) -> Self {
        Self { model }
    }

    /// Measures one release from freshly collected data. `data` may
    /// contain many releases; only rows whose user-agent equals `release`
    /// are considered. This is the streaming measurement fed from a
    /// slice: the rows go, in order, through a fresh [`DriftAccumulator`].
    pub fn observe(
        &self,
        data: &TrainingSet,
        release: UserAgent,
    ) -> Result<DriftObservation, PolygraphError> {
        self.count(data, &[release])?.observe(self.model, release)
    }

    /// Runs a full checkpoint over several releases and renders the
    /// retrain/stable decision: one counting pass over `data`, then one
    /// observation per release.
    pub fn checkpoint(
        &self,
        data: &TrainingSet,
        releases: &[UserAgent],
    ) -> Result<(Vec<DriftObservation>, DriftDecision), PolygraphError> {
        self.count(data, releases)?.checkpoint(self.model, releases)
    }

    /// The rows of `data` claiming one of `releases`, counted in order
    /// through a fresh [`DriftAccumulator`].
    fn count(
        &self,
        data: &TrainingSet,
        releases: &[UserAgent],
    ) -> Result<DriftAccumulator, PolygraphError> {
        let wanted: BTreeSet<UserAgent> = releases.iter().copied().collect();
        let mut counters = DriftAccumulator::new();
        let mut projected = Vec::new();
        for (row, ua) in data.rows().iter().zip(data.user_agents()) {
            if wanted.contains(ua) {
                counters.ingest_with(self.model, row, *ua, &mut projected)?;
            }
        }
        Ok(counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainConfig;
    use browser_engine::Vendor;
    use fingerprint::FeatureSet;

    fn ua(vendor: Vendor, v: u32) -> UserAgent {
        UserAgent::new(vendor, v)
    }

    /// Model over two synthetic eras of Chrome.
    fn toy_model() -> TrainedModel {
        let mut set = TrainingSet::new(2);
        for (base, u) in [
            (0.0, ua(Vendor::Chrome, 100)),
            (10.0, ua(Vendor::Chrome, 110)),
        ] {
            for j in 0..40 {
                set.push(vec![base + (j % 2) as f64 * 0.1, base], u)
                    .unwrap();
            }
        }
        let fs = FeatureSet::table8().subset(&[0, 1]);
        TrainedModel::fit(
            fs,
            &set,
            TrainConfig {
                k: 2,
                n_components: 2,
                min_samples_for_majority: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn batch(rows: Vec<(Vec<f64>, UserAgent)>) -> TrainingSet {
        let (r, u): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        TrainingSet::from_rows(r, u).unwrap()
    }

    #[test]
    fn stable_release_is_not_flagged() {
        let model = toy_model();
        let d = DriftDetector::new(&model);
        // Chrome 111 shipping with era-110 features.
        let data = batch(
            (0..50)
                .map(|_| (vec![10.0, 10.0], ua(Vendor::Chrome, 111)))
                .collect(),
        );
        let obs = d.observe(&data, ua(Vendor::Chrome, 111)).unwrap();
        assert!(!obs.triggers_retraining());
        assert_eq!(obs.accuracy, 1.0);
        assert_eq!(obs.expected_cluster, Some(obs.cluster));
    }

    #[test]
    fn cluster_flip_triggers_retraining() {
        let model = toy_model();
        let d = DriftDetector::new(&model);
        // Chrome 111 shipping with era-100 features: lands in the old
        // cluster while its closest release (110) sits in the new one.
        let data = batch(
            (0..50)
                .map(|_| (vec![0.0, 0.0], ua(Vendor::Chrome, 111)))
                .collect(),
        );
        let obs = d.observe(&data, ua(Vendor::Chrome, 111)).unwrap();
        assert!(obs.triggers_retraining());
    }

    #[test]
    fn accuracy_drop_triggers_retraining() {
        let model = toy_model();
        let d = DriftDetector::new(&model);
        // 95% of Chrome 111 sessions in the right cluster, 5% scattered.
        let mut rows: Vec<(Vec<f64>, UserAgent)> = (0..95)
            .map(|_| (vec![10.0, 10.0], ua(Vendor::Chrome, 111)))
            .collect();
        rows.extend((0..5).map(|_| (vec![0.0, 0.0], ua(Vendor::Chrome, 111))));
        let obs = d.observe(&batch(rows), ua(Vendor::Chrome, 111)).unwrap();
        assert_eq!(
            obs.expected_cluster,
            Some(obs.cluster),
            "majority cluster still right"
        );
        assert!((obs.accuracy - 0.95).abs() < 1e-9);
        assert!(obs.triggers_retraining(), "95% < 98% threshold");
    }

    #[test]
    fn checkpoint_aggregates_releases() {
        let model = toy_model();
        let d = DriftDetector::new(&model);
        let mut rows: Vec<(Vec<f64>, UserAgent)> = (0..50)
            .map(|_| (vec![10.0, 10.0], ua(Vendor::Chrome, 111)))
            .collect();
        rows.extend((0..50).map(|_| (vec![0.0, 0.0], ua(Vendor::Chrome, 112))));
        let data = batch(rows);
        let (obs, decision) = d
            .checkpoint(&data, &[ua(Vendor::Chrome, 111), ua(Vendor::Chrome, 112)])
            .unwrap();
        assert_eq!(obs.len(), 2);
        match decision {
            DriftDecision::Retrain { triggers } => {
                assert_eq!(triggers, vec![ua(Vendor::Chrome, 112)]);
            }
            DriftDecision::Stable => panic!("Chrome 112 flipped clusters; must retrain"),
        }
    }

    #[test]
    fn missing_release_is_an_error() {
        let model = toy_model();
        let d = DriftDetector::new(&model);
        let data = batch(vec![(vec![0.0, 0.0], ua(Vendor::Chrome, 100))]);
        assert!(matches!(
            d.observe(&data, ua(Vendor::Firefox, 119)),
            Err(PolygraphError::NoObservations(_))
        ));
    }
}
