//! Common set-up: everything a workload needs before it starts a server,
//! derived from `--seed` alone. The program under test receives only
//! these generated inputs.

use fingerprint::{FeatureKind, FeatureSet, Submission};
use parking_lot::RwLock;
use polygraph_core::{fit_metric_names, Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_ml::ThreadPool;
use polygraph_obs::Registry;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{server::assess_frame, VerdictStatus};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use traffic::TrafficConfig;

/// Input sizes. `paper()` is the only scale numbers are reported at;
/// `quick()` is a tenth of it, for the name-drift test.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Sessions in the serving model's training window (the paper's 205k).
    pub train_sessions: usize,
    /// Sessions in the frame-pool window; each pool has this many frames.
    pub pool_sessions: usize,
    /// Sessions in the drift window (`serve_swap` candidate, retrain cycles).
    pub drift_sessions: usize,
    /// Frames per closed-loop leg on a hit-dominated / miss-dominated mix.
    pub leg_frames_hit: usize,
    pub leg_frames_miss: usize,
    /// Frames the traced in-process pipeline drives.
    pub pipeline_frames: usize,
    /// Calls per `fleet_rpc` leg.
    pub rpc_leg_calls: usize,
}

impl Scale {
    pub fn paper() -> Self {
        Self {
            train_sessions: 205_000,
            pool_sessions: 100_000,
            drift_sessions: 50_000,
            leg_frames_hit: 204_800,
            leg_frames_miss: 102_400,
            pipeline_frames: 204_800,
            rpc_leg_calls: 1_000,
        }
    }

    pub fn quick() -> Self {
        Self {
            train_sessions: 20_500,
            pool_sessions: 10_000,
            drift_sessions: 5_000,
            leg_frames_hit: 20_480,
            leg_frames_miss: 10_240,
            pipeline_frames: 20_480,
            rpc_leg_calls: 100,
        }
    }
}

/// How a workload's frame sequence mixes the two pools.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Repeat,
    Distinct,
    Half,
}

/// Frames in the seeded sequence; legs walk it cyclically.
pub const SEQUENCE_LEN: usize = 1 << 20;

pub struct World {
    pub seed: u64,
    pub scale: Scale,
    pub feature_set: FeatureSet,
    pub model: TrainedModel,
    /// u16-LE length-prefixed wire frames: `pool_repeat` (sessions as
    /// generated) followed by `pool_distinct` (the same sessions, feature
    /// values jittered by index so nearly every entry is its own key).
    pub frames: Vec<Vec<u8>>,
    /// Staged-f64 verdict bytes for every entry of `frames`.
    pub oracle: Vec<[u8; VERDICT_LEN]>,
    /// Seconds `TrainedModel::fit` took.
    pub fit_secs: f64,
    /// Sessions per second out of `traffic::generate` (training window).
    pub generate_per_s: f64,
    /// `fit.*_micros` histogram sums of the fit, in ms, by stage.
    pub fit_stage_ms: [f64; 5],
}

/// The payload of a length-prefixed wire frame.
pub fn payload(framed: &[u8]) -> &[u8] {
    &framed[2..]
}

fn framed(sub: &Submission) -> Vec<u8> {
    let body = fingerprint::encode_submission(sub).expect("generated submission encodes");
    let len = u16::try_from(body.len()).expect("submission frames are at most 1 KiB");
    let mut wire = Vec::with_capacity(2 + body.len());
    wire.extend_from_slice(&len.to_le_bytes());
    wire.extend_from_slice(&body);
    wire
}

impl World {
    pub fn build(seed: u64, scale: Scale) -> Self {
        let feature_set = FeatureSet::table8();

        let train_config = TrafficConfig::paper_training()
            .with_sessions(scale.train_sessions)
            .with_seed(seed);
        let started = Instant::now();
        let data = traffic::generate(&feature_set, &train_config);
        let generate_per_s = scale.train_sessions as f64 / started.elapsed().as_secs_f64();
        let (rows, uas) = data.rows_and_user_agents();
        drop(data);
        let training = TrainingSet::from_rows(rows, uas).expect("generated data is well-formed");

        // `fit_observed` with a serial pool is `TrainedModel::fit` plus
        // the per-stage histograms the per-layer metrics read.
        let fit_registry = Registry::monotonic();
        let started = Instant::now();
        let model = TrainedModel::fit_observed(
            feature_set.clone(),
            &training,
            TrainConfig::default(),
            &ThreadPool::serial(),
            &fit_registry,
        )
        .expect("training on generated traffic succeeds");
        let fit_secs = started.elapsed().as_secs_f64();
        drop(training);
        let histograms = fit_registry.snapshot().histograms;
        let fit_stage_ms = [
            fit_metric_names::SCALE_MICROS,
            fit_metric_names::OUTLIER_MICROS,
            fit_metric_names::PCA_MICROS,
            fit_metric_names::KMEANS_MICROS,
            fit_metric_names::TABLE_MICROS,
        ]
        .map(|name| histograms.get(name).map_or(0.0, |h| h.sum as f64 / 1e3));

        let pool_config = TrafficConfig::paper_training()
            .with_sessions(scale.pool_sessions)
            .with_seed(seed.wrapping_add(1));
        let pool = traffic::generate(&feature_set, &pool_config);
        let mut frames = Vec::with_capacity(2 * scale.pool_sessions);
        for s in &pool.sessions {
            frames.push(framed(&Submission {
                session_id: s.session_id,
                user_agent: s.claimed.to_ua_string(),
                values: s.values.clone(),
            }));
        }
        // The long tail: bit `b` of the session index adds 1 to the
        // deviation feature with the `b`-th largest training spread. A
        // step that small against that spread leaves every verdict as it
        // was (the flagged share stays the generator's ~0.5%), so the
        // distinct pool differs from the repeat pool in cache behaviour
        // only. Jittering the last two (binary, unscaled) features by up
        // to 255, as `bench_fleet` does, flags 63% of the frames.
        let mut by_spread = feature_set.indices_of_kind(FeatureKind::DeviationBased);
        let spread = model.scaler().scales();
        by_spread.sort_by(|&a, &b| spread[b].total_cmp(&spread[a]));
        assert!(scale.pool_sessions <= 1 << by_spread.len().min(17));
        for (i, s) in pool.sessions.iter().enumerate() {
            let mut values = s.values.clone();
            for (bit, &column) in by_spread.iter().take(17).enumerate() {
                values[column] += (i as u32 >> bit) & 1;
            }
            frames.push(framed(&Submission {
                session_id: s.session_id,
                user_agent: s.claimed.to_ua_string(),
                values,
            }));
        }
        drop(pool);

        // The oracle is the staged f64 path behind the product's own
        // wire mapping; no workload may contain a frame it cannot assess.
        let staged = RwLock::new(Detector::new(model.clone()));
        let oracle_registry = Registry::monotonic();
        let oracle: Vec<[u8; VERDICT_LEN]> = frames
            .iter()
            .map(|f| {
                let verdict = assess_frame(payload(f), &staged, &oracle_registry);
                assert_eq!(
                    verdict.status,
                    VerdictStatus::Assessed,
                    "pool frame must assess"
                );
                verdict.encode()
            })
            .collect();

        Self {
            seed,
            scale,
            feature_set,
            model,
            frames,
            oracle,
            fit_secs,
            generate_per_s,
            fit_stage_ms,
        }
    }

    /// The first `len` entries of the seeded frame-id sequence for `mix`
    /// (workloads take [`SEQUENCE_LEN`]). Every mix consumes the
    /// same draws, so position `i` names the same pool session in all
    /// three; only the pool it is taken from differs.
    pub fn sequence(&self, mix: Mix, len: usize) -> Vec<u32> {
        let pool = self.scale.pool_sessions as u32;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x5E9_0BE7);
        (0..len)
            .map(|_| {
                let idx = rng.gen_range(0..pool);
                let coin = rng.gen::<bool>();
                match mix {
                    Mix::Repeat => idx,
                    Mix::Distinct => pool + idx,
                    Mix::Half => idx + if coin { pool } else { 0 },
                }
            })
            .collect()
    }

    /// The drift window (late July to October 2023) both the
    /// `serve_swap` candidate and the retrain cycles are built from.
    pub fn drift_window(&self) -> TrainingSet {
        let config = TrafficConfig::drift_window()
            .with_sessions(self.scale.drift_sessions)
            .with_seed(self.seed.wrapping_add(2));
        let (rows, uas) = traffic::generate(&self.feature_set, &config).rows_and_user_agents();
        TrainingSet::from_rows(rows, uas).expect("generated window is well-formed")
    }
}
