//! Online fraud detection (§6.5).
//!
//! The live path: extract the 28-feature fingerprint, predict its cluster,
//! compare against the cluster the claimed user-agent should land in, and
//! — on mismatch — run Algorithm 1 to size the divergence.

use crate::error::PolygraphError;
use crate::risk::risk_factor;
use crate::train::TrainedModel;
use browser_engine::{BrowserInstance, UserAgent};
use polygraph_ml::QuantModel;
use serde::{Deserialize, Serialize};

/// The verdict on one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assessment {
    /// Cluster the fingerprint landed in.
    pub predicted_cluster: usize,
    /// Cluster the claimed user-agent was expected to land in (`None` when
    /// the claim's vendor is entirely unknown to the model).
    pub expected_cluster: Option<usize>,
    /// Whether the session is flagged: predicted ≠ expected.
    pub flagged: bool,
    /// Algorithm 1's risk factor. Zero for unflagged sessions. Note that a
    /// *flagged* session can still score 0 when the claim sits within four
    /// versions of a resident of the predicted cluster (§6.5's tolerance
    /// for update inconsistencies).
    pub risk_factor: u32,
}

/// Whether two assessments of one session would reach the client as the
/// same verdict: `flagged` and `risk_factor` equal, or both errors. The
/// one agreement rule behind the serve path's shadow comparison and the
/// fleet rollout's divergence gate, so both measure the same thing.
pub fn verdicts_agree(
    a: &Result<Assessment, PolygraphError>,
    b: &Result<Assessment, PolygraphError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.flagged == b.flagged && a.risk_factor == b.risk_factor,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// What claim verification needs to know about one predicted cluster.
/// A pure function of the model, built once in [`Detector::new`].
#[derive(Debug, Clone)]
struct ClaimTarget {
    /// `nearest_populated_cluster(c)`: a spare centroid (k = 11 over ~9
    /// natural groups) can hold a configuration-variant *satellite* of a
    /// populated cluster — extension users of one popular release. Claim
    /// verification runs against the satellite's nearest populated
    /// cluster: a session in a satellite of its own expected cluster is
    /// consistent, not fraud (§7.1 attributes exactly these to "certain
    /// extensions or browser configurations").
    effective: usize,
    /// `cluster_table.user_agents_in(effective)`: what Algorithm 1 sizes
    /// a flagged claim against.
    residents: Vec<UserAgent>,
}

/// The online detector: a trained model plus the claim-verification rule.
///
/// Optionally carries the model's quantized compiled form
/// ([`Detector::quantize`]) used by [`Detector::assess_many`]; like the
/// per-cluster claim targets it is derived state and is deliberately not
/// serialized — a deserialized detector recompiles it on demand.
#[derive(Debug, Clone)]
pub struct Detector {
    model: TrainedModel,
    /// One entry per centroid, indexed by predicted cluster.
    targets: Vec<ClaimTarget>,
    quant: Option<QuantModel>,
}

// Hand-written (de)serialization keeping the original derived shape,
// `{"model": …}`: the vendored derive has no `#[serde(skip)]`, and the
// compiled quant state must not travel — it is recompiled from the
// model after deserialization when the serving config asks for it.
impl Serialize for Detector {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(String::from("model"), self.model.to_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for Detector {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Object(map) => Ok(Detector::new(serde::field(map, "model")?)),
            _ => Err(serde::DeError::new("Detector: expected object")),
        }
    }
}

impl Detector {
    /// Wraps a trained model.
    pub fn new(model: TrainedModel) -> Self {
        let targets = (0..model.kmeans().centroids().rows())
            .map(|cluster| {
                let effective = model.nearest_populated_cluster(cluster);
                ClaimTarget {
                    effective,
                    residents: model.cluster_table().user_agents_in(effective),
                }
            })
            .collect();
        Self {
            model,
            targets,
            quant: None,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Compiles (or refreshes) the quantized fast path from the model.
    ///
    /// Idempotent; fails only when the model cannot be compiled (see
    /// [`polygraph_ml::QuantModel::compile`]), leaving the detector
    /// serving on the staged path.
    pub fn quantize(&mut self) -> Result<(), PolygraphError> {
        self.quant = Some(self.model.quantize()?);
        Ok(())
    }

    /// Whether the quantized fast path is compiled in.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Assesses one session from its raw feature row and claimed
    /// user-agent.
    pub fn assess(&self, values: &[f64], claimed: UserAgent) -> Result<Assessment, PolygraphError> {
        Ok(self.verify_claim(self.model.predict_cluster(values)?, claimed))
    }

    /// The claim-verification rule, shared by the staged and quantized
    /// paths: `predicted` is a cluster either predictor returned, so it
    /// indexes `targets`.
    fn verify_claim(&self, predicted: usize, claimed: UserAgent) -> Assessment {
        let target = &self.targets[predicted];
        let expected = self.model.cluster_table().expected_cluster(claimed);
        let flagged = expected != Some(target.effective);
        Assessment {
            predicted_cluster: predicted,
            expected_cluster: expected,
            flagged,
            risk_factor: if flagged {
                risk_factor(claimed, &target.residents)
            } else {
                0
            },
        }
    }

    /// Assesses a batch of sessions in order, one result per session.
    ///
    /// This is the serving-side unit of work the risk server drains per
    /// lock acquisition: one detector borrow covers the whole slice, so a
    /// concurrent model swap lands between batches, never inside one.
    /// When the quantized fast path is compiled ([`Detector::quantize`]),
    /// the whole batch runs through one fused integer dispatch with
    /// shared scratch buffers; frames the fixed-point margin certificate
    /// cannot certify fall back to the staged f64 path individually, so
    /// the verdicts are identical either way — field for field,
    /// including error cases.
    pub fn assess_many(
        &self,
        sessions: &[(Vec<f64>, UserAgent)],
    ) -> Vec<Result<Assessment, PolygraphError>> {
        match &self.quant {
            Some(quant) => {
                let mut scratch = quant.scratch();
                sessions
                    .iter()
                    .map(|(values, claimed)| {
                        self.assess_quantized(quant, values, *claimed, &mut scratch)
                    })
                    .collect()
            }
            None => sessions
                .iter()
                .map(|(values, claimed)| self.assess(values, *claimed))
                .collect(),
        }
    }

    /// One frame on the quantized path. Width errors are raised exactly
    /// like [`TrainedModel::predict_cluster`] raises them, and any frame
    /// the certificate cannot vouch for reruns on the staged path.
    fn assess_quantized(
        &self,
        quant: &QuantModel,
        values: &[f64],
        claimed: UserAgent,
        scratch: &mut polygraph_ml::QuantScratch,
    ) -> Result<Assessment, PolygraphError> {
        let expected_width = self.model.feature_set().len();
        if values.len() != expected_width {
            return Err(PolygraphError::FeatureWidthMismatch {
                got: values.len(),
                expected: expected_width,
            });
        }
        let predicted = match quant.predict_row(values, scratch)? {
            Some(cluster) => cluster,
            None => self.model.predict_cluster(values)?,
        };
        Ok(self.verify_claim(predicted, claimed))
    }

    /// Assesses a batch of sessions in order, failing on the first
    /// malformed row (the server maps per-frame errors before batching).
    pub fn assess_batch(
        &self,
        sessions: &[(Vec<f64>, UserAgent)],
    ) -> Result<Vec<Assessment>, PolygraphError> {
        self.assess_many(sessions).into_iter().collect()
    }

    /// Convenience: probes a live browser instance end-to-end, exactly as
    /// the deployed JavaScript + backend pair would.
    pub fn assess_browser(&self, browser: &BrowserInstance) -> Result<Assessment, PolygraphError> {
        let fp = self.model.feature_set().extract(browser);
        self.assess(&fp.as_f64(), browser.claimed_user_agent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use crate::train::TrainConfig;
    use crate::train::TrainedModel;
    use browser_engine::Vendor;
    use fingerprint::FeatureSet;

    fn ua(vendor: Vendor, v: u32) -> UserAgent {
        UserAgent::new(vendor, v)
    }

    /// Synthetic model with three obvious clusters:
    /// era A (Chrome 60/61), era B (Chrome 100 + Edge 100), era C (Firefox 100).
    fn toy_detector() -> Detector {
        let mut set = TrainingSet::new(2);
        for (base, u) in [
            (0.0, ua(Vendor::Chrome, 60)),
            (0.0, ua(Vendor::Chrome, 61)),
            (10.0, ua(Vendor::Chrome, 100)),
            (10.0, ua(Vendor::Edge, 100)),
            (20.0, ua(Vendor::Firefox, 100)),
        ] {
            for j in 0..40 {
                set.push(vec![base + (j % 2) as f64 * 0.1, base], u)
                    .unwrap();
            }
        }
        let fs = FeatureSet::table8().subset(&[0, 1]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        Detector::new(TrainedModel::fit(fs, &set, config).unwrap())
    }

    #[test]
    fn honest_session_not_flagged() {
        let d = toy_detector();
        let a = d.assess(&[10.0, 10.0], ua(Vendor::Chrome, 100)).unwrap();
        assert!(!a.flagged);
        assert_eq!(a.risk_factor, 0);
        assert_eq!(a.expected_cluster, Some(a.predicted_cluster));
    }

    #[test]
    fn cross_vendor_lie_scores_max_risk() {
        let d = toy_detector();
        // Fingerprint of era C (Firefox) claiming Chrome 60.
        let a = d.assess(&[20.0, 20.0], ua(Vendor::Chrome, 60)).unwrap();
        assert!(a.flagged);
        assert_eq!(a.risk_factor, crate::risk::MAX_RISK);
    }

    #[test]
    fn same_vendor_version_lie_scores_scaled_risk() {
        let d = toy_detector();
        // Fingerprint of era A (Chrome 60/61) claiming Chrome 100:
        // floor(|100-61|/4) = 9.
        let a = d.assess(&[0.0, 0.0], ua(Vendor::Chrome, 100)).unwrap();
        assert!(a.flagged);
        assert_eq!(a.risk_factor, 9);
    }

    #[test]
    fn unknown_claim_near_known_version_uses_fallback() {
        let d = toy_detector();
        // Chrome 102 is not in the table; nearest Chrome is 100 (era B).
        let honest = d.assess(&[10.0, 10.0], ua(Vendor::Chrome, 102)).unwrap();
        assert!(!honest.flagged);
        let lying = d.assess(&[0.0, 0.0], ua(Vendor::Chrome, 102)).unwrap();
        assert!(lying.flagged);
    }

    #[test]
    fn assess_batch_matches_individual_assessments() {
        let d = toy_detector();
        let sessions = vec![
            (vec![10.0, 10.0], ua(Vendor::Chrome, 100)),
            (vec![20.0, 20.0], ua(Vendor::Chrome, 60)),
            (vec![0.0, 0.0], ua(Vendor::Chrome, 100)),
        ];
        let batch = d.assess_batch(&sessions).unwrap();
        assert_eq!(batch.len(), 3);
        for ((values, claimed), b) in sessions.iter().zip(&batch) {
            assert_eq!(*b, d.assess(values, *claimed).unwrap());
        }
        // A malformed row anywhere fails the whole batch.
        let bad = vec![(vec![1.0], ua(Vendor::Chrome, 100))];
        assert!(d.assess_batch(&bad).is_err());
        assert!(d.assess_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn quantized_assess_many_matches_staged_field_for_field() {
        let staged = toy_detector();
        let mut quantized = staged.clone();
        assert!(!quantized.is_quantized());
        quantized.quantize().unwrap();
        assert!(quantized.is_quantized());

        let mut sessions = Vec::new();
        for claimed in [
            ua(Vendor::Chrome, 60),
            ua(Vendor::Chrome, 100),
            ua(Vendor::Edge, 100),
            ua(Vendor::Firefox, 100),
            ua(Vendor::Firefox, 1),
        ] {
            for base in [0.0, 10.0, 20.0, 3.0, 15.0] {
                sessions.push((vec![base, base], claimed));
                sessions.push((vec![base + 0.1, base], claimed)); // fractional → fallback
            }
            sessions.push((vec![1.0], claimed)); // wrong width → identical error
        }
        let a = staged.assess_many(&sessions);
        let b = quantized.assess_many(&sessions);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn detector_serde_round_trips_without_the_compiled_state() {
        use serde::{Deserialize, Serialize};
        let mut d = toy_detector();
        d.quantize().unwrap();
        let v = d.to_value();
        // The derived shape is preserved: a single "model" field.
        match &v {
            serde::Value::Object(map) => {
                assert_eq!(map.keys().collect::<Vec<_>>(), ["model"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
        let back = Detector::from_value(&v).unwrap();
        assert!(!back.is_quantized(), "compiled state must not travel");
        let session = (vec![10.0, 10.0], ua(Vendor::Chrome, 100));
        assert_eq!(
            back.assess(&session.0, session.1).unwrap(),
            d.assess(&session.0, session.1).unwrap()
        );
    }

    #[test]
    fn assess_browser_runs_end_to_end() {
        // Full-size model over genuine lab data; a genuine browser must
        // pass and a category-2 fraud profile must flag.
        let fs = FeatureSet::table8();
        let mut set = TrainingSet::new(fs.len());
        for r in browser_engine::catalog::legitimate_releases() {
            let fp = fs.extract(&BrowserInstance::genuine(r.ua));
            for _ in 0..3 {
                set.push(fp.as_f64(), r.ua).unwrap();
            }
        }
        let config = TrainConfig {
            min_samples_for_majority: 1,
            ..Default::default()
        };
        let d = Detector::new(TrainedModel::fit(fs.clone(), &set, config).unwrap());

        let honest = BrowserInstance::genuine(ua(Vendor::Chrome, 112));
        assert!(!d.assess_browser(&honest).unwrap().flagged);

        // Blink 61 engine claiming Firefox 110 (Sphere-style).
        let fraud = BrowserInstance::with_engine(
            browser_engine::Engine::blink(61),
            ua(Vendor::Firefox, 110),
        );
        let a = d.assess_browser(&fraud).unwrap();
        assert!(a.flagged);
        assert!(a.risk_factor >= 1);
    }
}
