//! Drift monitor: keep a trained model honest as new browser releases
//! ship, and learn when to retrain (§6.6/§7.3).
//!
//! ```sh
//! cargo run --release --example drift_monitor
//! ```

use browser_polygraph::core::{drift, DriftDecision, TrainConfig, TrainedModel, TrainingSet};
use browser_polygraph::engine::{UserAgent, Vendor};
use browser_polygraph::fingerprint::FeatureSet;
use browser_polygraph::traffic::{generate, TrafficConfig};

fn main() {
    // Train on the spring window.
    let features = FeatureSet::table8();
    let data = generate(
        &features,
        &TrafficConfig::paper_training().with_sessions(20_000),
    );
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows, uas).expect("well-formed");
    let model =
        TrainedModel::fit(features.clone(), &training, TrainConfig::default()).expect("train");
    println!(
        "spring model trained ({:.2}% accuracy); monitoring the autumn window ...\n",
        model.train_accuracy() * 100.0
    );

    // Fresh traffic from the autumn window (new releases ship monthly).
    let autumn = generate(
        &features,
        &TrafficConfig::drift_window().with_sessions(30_000),
    );
    let (rows, uas) = autumn.rows_and_user_agents();
    let batch = TrainingSet::from_rows(rows, uas).expect("well-formed");

    // Checkpoints run a few days after each release wave.
    for (date, version) in [
        ("07/25", 115u32),
        ("08/25", 116),
        ("09/25", 117),
        ("10/23", 118),
        ("10/31", 119),
    ] {
        let releases = [
            UserAgent::new(Vendor::Chrome, version),
            UserAgent::new(Vendor::Firefox, version),
            UserAgent::new(Vendor::Edge, version),
        ];
        let (observations, decision) =
            drift::checkpoint(&model, &batch, &releases).expect("releases observed");
        println!("checkpoint {date}:");
        for obs in &observations {
            println!(
                "  {:<12} cluster {} (expected {:?}), accuracy {:.2}%{}",
                obs.release.label(),
                obs.cluster,
                obs.expected_cluster,
                obs.accuracy * 100.0,
                if obs.triggers_retraining() {
                    "  <-- shifted"
                } else {
                    ""
                },
            );
        }
        match decision {
            DriftDecision::Stable => println!("  -> stable, no retraining\n"),
            DriftDecision::Retrain { triggers } => {
                println!(
                    "  -> RETRAIN: {} shifted; refitting on fresh data ...",
                    triggers
                        .iter()
                        .map(|u| u.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                // The §6.6 response: retrain on the recent window.
                let new_model = TrainedModel::fit(features.clone(), &batch, TrainConfig::default())
                    .expect("retrain");
                println!(
                    "  -> retrained model: {:.2}% accuracy over the autumn window\n",
                    new_model.train_accuracy() * 100.0
                );
                return;
            }
        }
    }
    println!("no drift detected across the window (unexpected for late 2023)");
}
