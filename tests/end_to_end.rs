//! Cross-crate integration: the full paper pipeline, start to finish.
//!
//! Candidate generation (§6.1) → real-world collection (§6.2) →
//! pre-processing (§6.3) → training (§6.4) → fraud detection (§6.5) →
//! drift detection (§6.6), each stage feeding the next.

use browser_polygraph::core::{
    drift, preprocess, Detector, DriftDecision, PreprocessConfig, TrainConfig, TrainedModel,
    TrainingSet,
};
use browser_polygraph::engine::catalog::legitimate_releases;
use browser_polygraph::engine::{BrowserInstance, UserAgent, Vendor};
use browser_polygraph::fingerprint::candidates::{
    generate_deviation_candidates, mdn_universe, DEVIATION_CANDIDATES,
};
use browser_polygraph::fingerprint::FeatureSet;
use browser_polygraph::fraud::{table1_products, FraudProfile, ProfilePlan};
use browser_polygraph::traffic::{generate, GroundTruth, TrafficConfig};

const SESSIONS: usize = 15_000;

fn spring_window(features: &FeatureSet) -> browser_polygraph::traffic::TrafficDataset {
    generate(
        features,
        &TrafficConfig::paper_training().with_sessions(SESSIONS),
    )
}

fn trained_model() -> (TrainedModel, browser_polygraph::traffic::TrafficDataset) {
    let features = FeatureSet::table8();
    let data = spring_window(&features);
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows, uas).expect("well-formed");
    let model = TrainedModel::fit(features, &training, TrainConfig::default()).expect("training");
    (model, data)
}

#[test]
fn candidate_generation_feeds_collection() {
    // §6.1: rank the MDN universe on a lab catalog; the kept 200 must be
    // exactly the probes the 513-candidate collection schema deploys.
    assert_eq!(mdn_universe().len(), 1006);
    let lab: Vec<BrowserInstance> = legitimate_releases()
        .into_iter()
        .map(|r| BrowserInstance::genuine(r.ua))
        .collect();
    let kept = generate_deviation_candidates(&lab);
    assert_eq!(kept.len(), DEVIATION_CANDIDATES);
    let collection_schema = FeatureSet::candidates_513();
    let deployed: std::collections::BTreeSet<String> =
        collection_schema.names().into_iter().collect();
    for name in kept.names() {
        assert!(
            deployed.contains(&name),
            "{name} missing from the deployed schema"
        );
    }
}

#[test]
fn preprocessing_of_collected_traffic_yields_table8() {
    // §6.2-6.3: collect the full candidate schema over real-ish traffic,
    // run the funnel, land on the 28 features of Table 8.
    let candidates = FeatureSet::candidates_513();
    let data = generate(
        &candidates,
        &TrafficConfig::paper_training().with_sessions(4_000),
    );
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows, uas).expect("well-formed");
    let report = preprocess(&candidates, &training, PreprocessConfig::default())
        .expect("preprocess succeeds");
    assert_eq!(report.feature_set.names(), FeatureSet::table8().names());
    assert!(
        report.constant_features.len() > 150,
        "most candidates are single-valued in the field (the paper found 186)"
    );
}

#[test]
fn trained_model_matches_table3_structure() {
    let (model, _) = trained_model();
    assert!(
        model.train_accuracy() > 0.985,
        "accuracy {}",
        model.train_accuracy()
    );

    let table = model.cluster_table();
    // Every release named below is in the window: a missing one fails
    // here rather than passing a comparison of two `None`s.
    let cluster = |vendor, v| {
        let release = UserAgent::new(vendor, v);
        table
            .cluster_of(release)
            .unwrap_or_else(|| panic!("{} is in the training window", release.label()))
    };
    // Chrome and Edge of the same Blink era share a cluster.
    assert_eq!(cluster(Vendor::Chrome, 111), cluster(Vendor::Edge, 111));
    // The newest era (114) is split from 110-113.
    assert_ne!(cluster(Vendor::Chrome, 114), cluster(Vendor::Chrome, 113));
    // Modern Firefox clusters apart from modern Chrome.
    assert_ne!(cluster(Vendor::Firefox, 110), cluster(Vendor::Chrome, 110));
    // The cross-vendor merge of cluster 2: old Chrome with Quantum Firefox.
    assert_eq!(
        cluster(Vendor::Chrome, 63),
        cluster(Vendor::Firefox, 78),
        "Chrome 59-68 and Firefox 51-92 share a cluster"
    );
}

#[test]
fn detector_separates_fraud_from_legitimate() {
    let (model, data) = trained_model();
    let detector = Detector::new(model);

    let mut fraud_flagged = 0usize;
    let mut fraud_total = 0usize;
    let mut legit_flagged = 0usize;
    let mut legit_total = 0usize;
    for s in &data.sessions {
        let verdict = detector.assess(&s.row(), s.claimed).expect("assess");
        match &s.truth {
            t if t.is_detectable_fraud() => {
                fraud_total += 1;
                fraud_flagged += verdict.flagged as usize;
            }
            GroundTruth::Legitimate { .. } => {
                legit_total += 1;
                legit_flagged += verdict.flagged as usize;
            }
            _ => {}
        }
    }
    let recall = fraud_flagged as f64 / fraud_total.max(1) as f64;
    let fpr = legit_flagged as f64 / legit_total.max(1) as f64;
    assert!(recall > 0.7, "detectable-fraud recall {recall} too low");
    assert!(fpr < 0.01, "legitimate false-positive rate {fpr} too high");
}

#[test]
fn every_category12_product_is_detectable_somewhere() {
    // §7.2: for each category-1/2 product, at least one plan profile must
    // flag (products whose embedded engine matches the claimed UA's
    // cluster are the known misses).
    let (model, _) = trained_model();
    let detector = Detector::new(model);
    for product in table1_products() {
        if !product.category.coarse_grained_detectable() {
            continue;
        }
        let plan = ProfilePlan::for_product(&product);
        let flagged = plan
            .profiles
            .iter()
            .filter(|p| {
                detector
                    .assess_browser(&p.instantiate())
                    .expect("assess")
                    .flagged
            })
            .count();
        assert!(
            flagged * 2 > plan.profiles.len(),
            "{}: only {flagged}/{} profiles flagged",
            product.name,
            plan.profiles.len()
        );
    }
}

#[test]
fn drift_monitoring_triggers_in_autumn_not_summer() {
    let (model, _) = trained_model();
    let features = FeatureSet::table8();
    let autumn = generate(
        &features,
        &TrafficConfig::drift_window().with_sessions(SESSIONS),
    );
    let (rows, uas) = autumn.rows_and_user_agents();
    let batch = TrainingSet::from_rows(rows, uas).expect("well-formed");

    // Summer releases: stable.
    let summer = [
        UserAgent::new(Vendor::Chrome, 115),
        UserAgent::new(Vendor::Firefox, 115),
        UserAgent::new(Vendor::Edge, 115),
    ];
    let (_, decision) = drift::checkpoint(&model, &batch, &summer).expect("observed");
    assert_eq!(
        decision,
        DriftDecision::Stable,
        "July releases must not trigger"
    );

    // Late-October releases: Firefox 119 flips.
    let autumn_releases = [
        UserAgent::new(Vendor::Chrome, 119),
        UserAgent::new(Vendor::Firefox, 119),
        UserAgent::new(Vendor::Edge, 119),
    ];
    let (observations, decision) =
        drift::checkpoint(&model, &batch, &autumn_releases).expect("observed");
    match decision {
        DriftDecision::Retrain { triggers } => {
            assert!(
                triggers.contains(&UserAgent::new(Vendor::Firefox, 119)),
                "Firefox 119 must be among the triggers, got {triggers:?}"
            );
        }
        DriftDecision::Stable => panic!("October checkpoint must trigger retraining"),
    }
    // Edge 119 keeps clustering with its predecessors.
    let edge = observations
        .iter()
        .find(|o| o.release.vendor == Vendor::Edge)
        .unwrap();
    assert!(
        !edge.triggers_retraining(),
        "Edge 119 stays stable (Table 6)"
    );
}

#[test]
fn category2_profile_fingerprint_is_claim_independent_end_to_end() {
    // The full fraud path: same product, two different stolen UAs, same
    // fingerprint — the mechanism the detector keys on.
    let features = FeatureSet::table8();
    let octo = browser_polygraph::fraud::catalog::product_by_name("Octo Browser").unwrap();
    let a = FraudProfile::new(octo.clone(), UserAgent::new(Vendor::Chrome, 70));
    let b = FraudProfile::new(octo, UserAgent::new(Vendor::Firefox, 119));
    assert_eq!(
        features.extract(&a.instantiate()),
        features.extract(&b.instantiate())
    );
}
