//! The fitted model's serialised bytes, pinned to constants.
//!
//! `TrainedModel::fit` evaluates its per-row kernels (isolation-forest
//! scoring, k-means++ distances, Lloyd assignment, WCSS) once per group
//! of bit-identical rows and leaves every reduction over rows as it was,
//! so the model it publishes must not change by a byte. Two things make
//! a recorded constant the only reference that can hold that:
//!
//! * `parallel_determinism.rs::synthetic()` and the kernel unit tests
//!   that compare bits draw (nearly) all-distinct values, and the few
//!   that do repeat a row (point masses, a constant matrix) assert a
//!   loose property, so nothing else holds the bits of a fit on repeated
//!   rows — the one input on which grouping does anything;
//! * serial-vs-pool equality cannot notice a grouping bug, because both
//!   sides run the same grouped body.
//!
//! The constants below were recorded from the per-row kernels (the
//! commit before the grouped ones) on simulated traffic, whose
//! coarse-grained fingerprints collide by design: 252 and 263 distinct
//! rows in the 20 500 fitted here. The `polygraph-ml` unit tests
//! `duplicate_heavy_fits_are_pinned` and
//! `grouped_scores_equal_per_row_scores` pin the two kernels on their own.

use browser_polygraph::core::{TrainConfig, TrainedModel, TrainingSet};
use browser_polygraph::fingerprint::{fnv1a64, FeatureSet};
use browser_polygraph::ml::ThreadPool;
use browser_polygraph::traffic::{generate, TrafficConfig};

/// Sessions per fit: a tenth of the paper's window, so the four fits
/// stay a few seconds in a debug build.
const SESSIONS: usize = 20_500;

/// `(traffic seed, fnv1a64 of the pretty-printed model JSON)`. The first
/// seed is `TrafficConfig::paper_training()`'s own.
const PINS: [(u64, u64); 2] = [
    (1_582_633_077, 0x09b9_b98b_2e9b_8194),
    (7001, 0x2b39_b6ac_e10c_d8a1),
];

#[test]
fn fitted_model_bytes_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    for (seed, pinned) in PINS {
        let traffic = TrafficConfig::paper_training()
            .with_sessions(SESSIONS)
            .with_seed(seed);
        let (rows, uas) = generate(&features, &traffic).rows_and_user_agents();
        let training = TrainingSet::from_rows(rows, uas).expect("well-formed");
        for pool in [ThreadPool::serial(), ThreadPool::new(2)] {
            let model = TrainedModel::fit_with_pool(
                features.clone(),
                &training,
                TrainConfig::default(),
                &pool,
            )
            .expect("fit");
            let bytes = serde_json::to_vec_pretty(&model).expect("model serialises");
            assert_eq!(
                fnv1a64(&bytes),
                pinned,
                "model bytes moved: traffic seed {seed}, {} thread(s)",
                pool.threads()
            );
        }
    }
}
