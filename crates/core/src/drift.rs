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
use crate::drift_stream::{DriftAccumulator, Pending};
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

/// Runs one checkpoint over a collected `window`: the observation of
/// each of `releases`, in order, and the retrain/stable decision. The
/// window's sessions are tallied by its own distinct-row ids, so no row
/// is interned again; rows claiming a release outside `releases` are
/// never predicted, and each distinct row that claims one is predicted
/// once, under `model`.
pub fn checkpoint(
    model: &TrainedModel,
    window: &TrainingSet,
    releases: &[UserAgent],
) -> Result<(Vec<DriftObservation>, DriftDecision), PolygraphError> {
    let wanted: BTreeSet<UserAgent> = releases.iter().copied().collect();
    let mut pending = Pending::default();
    for (&row, claimed) in window.group_of().iter().zip(window.user_agents()) {
        if wanted.contains(claimed) {
            pending.claim(row, *claimed);
        }
    }
    let table = window.table();
    let mut counters = DriftAccumulator::new();
    pending.count(model, |id| table.row(id), &mut counters, &mut Vec::new())?;
    counters.checkpoint(model, releases)
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

    /// The checkpoint of `release` alone.
    fn observe(
        model: &TrainedModel,
        data: &TrainingSet,
        release: UserAgent,
    ) -> Result<DriftObservation, PolygraphError> {
        checkpoint(model, data, &[release]).map(|(mut obs, _)| obs.remove(0))
    }

    #[test]
    fn stable_release_is_not_flagged() {
        let model = toy_model();
        // Chrome 111 shipping with era-110 features.
        let data = batch(
            (0..50)
                .map(|_| (vec![10.0, 10.0], ua(Vendor::Chrome, 111)))
                .collect(),
        );
        let obs = observe(&model, &data, ua(Vendor::Chrome, 111)).unwrap();
        assert!(!obs.triggers_retraining());
        assert_eq!(obs.accuracy, 1.0);
        assert_eq!(obs.expected_cluster, Some(obs.cluster));
    }

    #[test]
    fn cluster_flip_triggers_retraining() {
        let model = toy_model();
        // Chrome 111 shipping with era-100 features: lands in the old
        // cluster while its closest release (110) sits in the new one.
        let data = batch(
            (0..50)
                .map(|_| (vec![0.0, 0.0], ua(Vendor::Chrome, 111)))
                .collect(),
        );
        let obs = observe(&model, &data, ua(Vendor::Chrome, 111)).unwrap();
        assert!(obs.triggers_retraining());
    }

    #[test]
    fn accuracy_drop_triggers_retraining() {
        let model = toy_model();
        // 95% of Chrome 111 sessions in the right cluster, 5% scattered.
        let mut rows: Vec<(Vec<f64>, UserAgent)> = (0..95)
            .map(|_| (vec![10.0, 10.0], ua(Vendor::Chrome, 111)))
            .collect();
        rows.extend((0..5).map(|_| (vec![0.0, 0.0], ua(Vendor::Chrome, 111))));
        let obs = observe(&model, &batch(rows), ua(Vendor::Chrome, 111)).unwrap();
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
        let mut rows: Vec<(Vec<f64>, UserAgent)> = (0..50)
            .map(|_| (vec![10.0, 10.0], ua(Vendor::Chrome, 111)))
            .collect();
        rows.extend((0..50).map(|_| (vec![0.0, 0.0], ua(Vendor::Chrome, 112))));
        let data = batch(rows);
        let (obs, decision) = checkpoint(
            &model,
            &data,
            &[ua(Vendor::Chrome, 111), ua(Vendor::Chrome, 112)],
        )
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
        let data = batch(vec![(vec![0.0, 0.0], ua(Vendor::Chrome, 100))]);
        assert!(matches!(
            observe(&model, &data, ua(Vendor::Firefox, 119)),
            Err(PolygraphError::NoObservations(_))
        ));
    }

    #[test]
    fn window_of_the_wrong_width_is_refused() {
        let model = toy_model();
        let data = batch(vec![(vec![10.0, 10.0, 10.0], ua(Vendor::Chrome, 111))]);
        assert_eq!(
            checkpoint(&model, &data, &[ua(Vendor::Chrome, 111)]),
            Err(PolygraphError::FeatureWidthMismatch {
                got: 3,
                expected: 2
            })
        );
    }
}
