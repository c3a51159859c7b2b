//! The fitted model's serialised bytes, pinned to constants.
//!
//! `TrainedModel::fit` evaluates its per-row kernels (isolation-forest
//! scoring, k-means++ distances, Lloyd assignment, the scaler and PCA
//! transforms) once per group of bit-identical rows, takes every sum
//! (scaler statistics, covariance, Lloyd's sums, the WCSS) and every
//! k-means++ draw once per group times its count, and draws rows only for
//! the forest's subsamples. A recorded constant is what holds the bits of
//! that on repeated rows — the one input on which grouping does anything:
//! `kernel_bytes.rs::synthetic()` draws all-distinct values, and the
//! `polygraph-ml` oracle proptests (`prop_oracle_*`) hold the weighted
//! sums to per-row loops only within a tolerance.
//!
//! The model, streaming-candidate and checkpoint constants below were
//! recorded when k-means++ began to draw groups with weight count × D²
//! (the reservoir window's hashes did not move), on simulated traffic
//! whose coarse-grained fingerprints collide by design: 252 and 263
//! distinct rows in the 20 500 fitted here. The `polygraph-ml` unit tests
//! `duplicate_heavy_fits_are_pinned` and
//! `grouped_scores_equal_per_row_scores` pin the two kernels on their own.
//! The paper's own window (205 000 sessions, 543 distinct rows) is pinned
//! too, in an ignored test: a debug build fits it too slowly for tier-1,
//! so CI runs it in release with `--include-ignored`.
//!
//! The streaming side is pinned the same way. `refit_streaming` carries
//! one row partition through its stages, and `DriftStream` interns each
//! row at ingest and predicts each distinct row once at its checkpoint:
//! the candidate each full-fit model refits on a 5 000-session drift
//! window, and the checkpoint a stream returns after ingesting that
//! window. A second streaming pin sizes the reservoir to half the window,
//! so Algorithm R's replacement draws run, and checkpoints twice: the
//! materialised window, the candidate refit from it and both checkpoints.
//! The window's hashes were recorded from the stream that predicted every
//! session at ingest and copied every row into the reservoir.

use browser_polygraph::core::{
    drift, DriftObservation, DriftStream, TrainConfig, TrainedModel, TrainingSet,
};
use browser_polygraph::engine::UserAgent;
use browser_polygraph::fingerprint::{fnv1a64, FeatureSet};
use browser_polygraph::ml::ThreadPool;
use browser_polygraph::traffic::{generate, TrafficConfig};
use std::collections::BTreeSet;

/// Sessions per fit: a tenth of the paper's window, so the four fits
/// stay a few seconds in a debug build.
const SESSIONS: usize = 20_500;

/// `(traffic seed, fnv1a64 of the pretty-printed model JSON)`. The first
/// seed is `TrafficConfig::paper_training()`'s own.
const PINS: [(u64, u64); 2] = [
    (1_582_633_077, 0x2cb1_7809_de0f_8798),
    (7001, 0xae22_aece_4a6e_8f41),
];

/// `(traffic seed, fnv1a64 of the pretty-printed model JSON)` for the
/// paper's own window, `TrafficConfig::paper_training()` at 205 000
/// sessions (543 distinct rows at the first seed).
const PAPER_SCALE_PINS: [(u64, u64); 2] = [
    (1_582_633_077, 0xc9ef_8bd6_7b91_009f),
    (7001, 0x6177_6b72_5bc4_1641),
];

/// Sessions in the drift window the streaming pins run on.
const DRIFT_SESSIONS: usize = 5_000;

/// `(traffic seed, fnv1a64 of the pretty-printed streaming candidate,
/// fnv1a64 of the rendered checkpoint)`: the candidate is
/// `refit_streaming(.., 4, ..)` from the seed's full-fit model on a
/// `TrafficConfig::drift_window()` of [`DRIFT_SESSIONS`] sessions at
/// `seed + 2`; the checkpoint is what a [`DriftStream`] returns for every
/// release of that window after ingesting it, one
/// `release cluster accuracy-bits sessions` line per observation, and what
/// the batch checkpoint returns for the same window and releases.
const STREAMING_PINS: [(u64, u64, u64); 2] = [
    (1_582_633_077, 0xcb07_f369_8b00_459b, 0x0bd3_42e2_96b7_7d66),
    (7001, 0x9fea_dea3_eedf_0a4a, 0xcbad_7027_a862_cb49),
];

/// `(traffic seed, fnv1a64 of the materialised reservoir window, fnv1a64
/// of the pretty-printed candidate refit from it, fnv1a64 of the rendered
/// checkpoint after half the window, fnv1a64 of the rendered checkpoint
/// after all of it)`: the same model and drift window as
/// [`STREAMING_PINS`], streamed through a reservoir of half the window's
/// size. The window hash runs over every resident's values (`to_bits`, in
/// little-endian bytes) and its user-agent label.
const HALF_RESERVOIR_PINS: [(u64, u64, u64, u64, u64); 2] = [
    (
        1_582_633_077,
        0x207e_73c1_f219_07ed,
        0x4349_59da_e034_16ab,
        0xfbb8_9fba_0f07_2af9,
        0x0bd3_42e2_96b7_7d66,
    ),
    (
        7001,
        0xcd9f_7b3c_4296_e784,
        0x4be9_bd24_4e9a_b997,
        0x09d8_dfe3_71f8_aa3e,
        0xcbad_7027_a862_cb49,
    ),
];

fn training_window(features: &FeatureSet, seed: u64, sessions: usize) -> TrainingSet {
    let traffic = TrafficConfig::paper_training()
        .with_sessions(sessions)
        .with_seed(seed);
    let (rows, uas) = generate(features, &traffic).rows_and_user_agents();
    TrainingSet::from_rows(rows, uas).expect("well-formed")
}

fn model_hash(model: &TrainedModel) -> u64 {
    fnv1a64(&serde_json::to_vec_pretty(model).expect("model serialises"))
}

#[test]
fn fitted_model_bytes_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    for (seed, pinned) in PINS {
        let training = training_window(&features, seed, SESSIONS);
        let model =
            TrainedModel::fit(features.clone(), &training, TrainConfig::default()).expect("fit");
        let got = model_hash(&model);
        assert_eq!(
            got, pinned,
            "model bytes moved: traffic seed {seed}: {got:#018x}"
        );
    }
}

#[test]
#[ignore = "a debug 205 000-session fit is too slow for tier-1"]
fn paper_scale_fit_bytes_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    for (seed, pinned) in PAPER_SCALE_PINS {
        let training = training_window(&features, seed, 205_000);
        let model =
            TrainedModel::fit(features.clone(), &training, TrainConfig::default()).expect("fit");
        let got = model_hash(&model);
        assert_eq!(
            got, pinned,
            "model bytes moved: traffic seed {seed}: {got:#018x}"
        );
    }
}

/// The seed's full-fit model and its [`DRIFT_SESSIONS`]-session drift
/// window at `seed + 2`.
fn model_and_drift_window(features: &FeatureSet, seed: u64) -> (TrainedModel, TrainingSet) {
    let model = TrainedModel::fit(
        features.clone(),
        &training_window(features, seed, SESSIONS),
        TrainConfig::default(),
    )
    .expect("fit");
    let traffic = TrafficConfig::drift_window()
        .with_sessions(DRIFT_SESSIONS)
        .with_seed(seed + 2);
    let (rows, uas) = generate(features, &traffic).rows_and_user_agents();
    (
        model,
        TrainingSet::from_rows(rows, uas).expect("well-formed"),
    )
}

/// Every release of `user_agents`, in order.
fn releases(user_agents: &[UserAgent]) -> Vec<UserAgent> {
    user_agents
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// `fnv1a64` of a checkpoint, one `release cluster accuracy-bits
/// sessions` line per observation.
fn checkpoint_hash(observations: &[DriftObservation]) -> u64 {
    let rendered: String = observations
        .iter()
        .map(|o| {
            format!(
                "{} {} {:#018x} {}\n",
                o.release.label(),
                o.cluster,
                o.accuracy.to_bits(),
                o.sessions
            )
        })
        .collect();
    fnv1a64(rendered.as_bytes())
}

#[test]
fn streaming_candidate_and_checkpoint_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    for (seed, pinned_refit, pinned_checkpoint) in STREAMING_PINS {
        let (model, window) = model_and_drift_window(&features, seed);

        let candidate = model
            .refit_streaming(&window, 4, &ThreadPool::serial())
            .expect("refit");
        let got = model_hash(&candidate);
        assert_eq!(
            got, pinned_refit,
            "candidate bytes moved: traffic seed {seed}: {got:#018x}"
        );

        let mut stream =
            DriftStream::new(window.len(), window.width(), seed).expect("reservoir of the window");
        for (row, &claimed) in window.rows().iter().zip(window.user_agents()) {
            stream.ingest(&model, row, claimed).expect("row ingests");
        }
        let (observations, _) = stream
            .checkpoint(&model, &releases(window.user_agents()))
            .expect("checkpoint");
        let got = checkpoint_hash(&observations);
        assert_eq!(
            got, pinned_checkpoint,
            "checkpoint moved: traffic seed {seed}: {got:#018x}"
        );

        let (observations, _) = drift::checkpoint(&model, &window, &releases(window.user_agents()))
            .expect("batch checkpoint");
        let got = checkpoint_hash(&observations);
        assert_eq!(
            got, pinned_checkpoint,
            "batch checkpoint moved: traffic seed {seed}: {got:#018x}"
        );
    }
}

#[test]
fn half_reservoir_stream_matches_the_recorded_constants() {
    let features = FeatureSet::table8();
    for (seed, pinned_window, pinned_refit, pinned_first, pinned_second) in HALF_RESERVOIR_PINS {
        let (model, window) = model_and_drift_window(&features, seed);
        let half = window.len() / 2;
        let mut stream =
            DriftStream::new(half, window.width(), seed).expect("reservoir of half the window");
        let mut checkpoints = Vec::new();
        for end in [half, window.len()] {
            let done = stream.ingested();
            for (row, &claimed) in window
                .rows()
                .iter()
                .skip(done)
                .zip(&window.user_agents()[done..end])
            {
                stream.ingest(&model, row, claimed).expect("row ingests");
            }
            let (observations, _) = stream
                .checkpoint(&model, &releases(&window.user_agents()[..end]))
                .expect("checkpoint");
            checkpoints.push(checkpoint_hash(&observations));
        }

        let resident = stream.training_window().expect("reservoir materialises");
        assert_eq!(resident.len(), half);
        let mut bytes = Vec::new();
        for (row, claimed) in resident.rows().iter().zip(resident.user_agents()) {
            for v in row {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            bytes.extend_from_slice(claimed.label().as_bytes());
        }
        let candidate = model
            .refit_streaming(&resident, 4, &ThreadPool::serial())
            .expect("refit");
        let got = (
            fnv1a64(&bytes),
            model_hash(&candidate),
            checkpoints[0],
            checkpoints[1],
        );
        assert_eq!(
            got,
            (pinned_window, pinned_refit, pinned_first, pinned_second),
            "half-reservoir stream moved: traffic seed {seed}: {got:#018x?}"
        );
    }
}
