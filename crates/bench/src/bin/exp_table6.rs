//! Table 6 (§7.3): drift analysis of the trained model over the late-July
//! to October 2023 window.
//!
//! The model trained on the March–mid-July window is evaluated at the
//! paper's five checkpoints, each a few days after a Firefox release. At
//! every checkpoint the drift detector measures each new release's
//! predominant cluster and accuracy; the run must stay stable until the
//! 10/31 checkpoint, where Firefox 119 flips clusters and Chrome 119's
//! accuracy dips — the retraining trigger.

use browser_engine::{UserAgent, Vendor};
use polygraph_bench::{header, parse_options, train_paper_model};
use polygraph_core::{drift, DriftDecision, TrainingSet};
use traffic::{generate, TrafficConfig};

fn main() {
    let opts = parse_options();
    println!(
        "training Browser Polygraph on {} simulated sessions ...",
        opts.sessions
    );
    let (model, _) = train_paper_model(opts);

    // Fresh traffic from the drift window (its size scales with the
    // training option so new releases get enough observations).
    let fs = fingerprint::FeatureSet::table8();
    let drift_cfg = TrafficConfig::drift_window().with_sessions(opts.sessions);
    let drift_data = generate(&fs, &drift_cfg);
    let (rows, uas) = drift_data.rows_and_user_agents();
    let batch = TrainingSet::from_rows(rows, uas).expect("well-formed");

    header("Table 6: drift analysis (late-July to October 2023)");
    println!(
        "  {:<14} {:>6} {:>9} {:>10}   paper (cluster, accuracy)",
        "browser", "date", "cluster", "accuracy"
    );
    type Checkpoint = (&'static str, u32, [(&'static str, &'static str); 3]);
    let checkpoints: [Checkpoint; 5] = [
        (
            "07/25",
            115,
            [
                ("Chrome", "3, 99.45"),
                ("Firefox", "1, 99.3"),
                ("Edge", "3, 100"),
            ],
        ),
        (
            "08/25",
            116,
            [
                ("Chrome", "3, 99.6"),
                ("Firefox", "1, 99.99"),
                ("Edge", "3, 99.88"),
            ],
        ),
        (
            "09/25",
            117,
            [
                ("Chrome", "3, 99.25"),
                ("Firefox", "1, 99.81"),
                ("Edge", "3, 99.94"),
            ],
        ),
        (
            "10/23",
            118,
            [
                ("Chrome", "3, 99.65"),
                ("Firefox", "1, 99.46"),
                ("Edge", "3, 99.91"),
            ],
        ),
        (
            "10/31",
            119,
            [
                ("Chrome", "3, 97.22"),
                ("Firefox", "10, 98.57"),
                ("Edge", "3, 99.84"),
            ],
        ),
    ];

    let mut final_decision = DriftDecision::Stable;
    for (date, version, paper_rows) in checkpoints {
        let releases = [
            UserAgent::new(Vendor::Chrome, version),
            UserAgent::new(Vendor::Firefox, version),
            UserAgent::new(Vendor::Edge, version),
        ];
        let (observations, decision) = drift::checkpoint(&model, &batch, &releases)
            .expect("all releases observed in the drift window");
        for (obs, (vendor, paper)) in observations.iter().zip(paper_rows) {
            let marker = if obs.triggers_retraining() {
                "  <-- drift"
            } else {
                ""
            };
            println!(
                "  {:<14} {date:>6} {:>9} {:>9.2}%   paper: ({paper}){marker}",
                format!("{vendor} {version}"),
                obs.cluster,
                obs.accuracy * 100.0,
            );
        }
        if let DriftDecision::Retrain { triggers } = &decision {
            println!(
                "  >> checkpoint {date}: RETRAIN triggered by {}",
                triggers
                    .iter()
                    .map(|u| u.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            final_decision = decision.clone();
        } else {
            println!("  >> checkpoint {date}: stable");
        }
    }

    header("outcome");
    match final_decision {
        DriftDecision::Retrain { .. } => println!(
            "  retraining signalled in late October, as the paper observed\n  \
             (Firefox 119's Element-prototype overhaul; Chrome 119 field-trial churn)"
        ),
        DriftDecision::Stable => {
            println!("  NO retraining signalled — does not match the paper")
        }
    }
}
