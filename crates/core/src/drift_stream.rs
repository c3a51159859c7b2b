//! Drift counting (§6.6) over a live stream: every checkpoint predicts
//! each distinct row once.
//!
//! Coarse fingerprints collide: a 50 000-session drift window holds a few
//! hundred distinct rows. The serving loop ingests one session at a time.
//! Ingest interns the row into the reservoir's table of distinct rows,
//! tallies the session per (row id, claimed release) and offers the row's
//! id to the reservoir; it predicts nothing and copies nothing. A
//! checkpoint predicts each row tallied since the last one once, under
//! the model it is given, moves its sessions into a second tally keyed by
//! cluster, and then drops every row no resident references. So a session
//! is counted under the model of the first checkpoint after it arrived,
//! and the predominant cluster and accuracy of each release are read from
//! the counted tally alone, by the body the batch door
//! ([`crate::drift::checkpoint`]) runs too. Besides the reservoir's
//! resident ids, the state is at most one entry per (cluster, release)
//! counted and per (row, release) since the last checkpoint, never more
//! than the sessions behind them. The resident window is handed over, by
//! row id, only when a retrain actually triggers, which the
//! no-allocation-on-stable regression test pins.

use crate::dataset::TrainingSet;
use crate::drift::{self, DriftDecision, DriftObservation};
use crate::error::PolygraphError;
use crate::sampling::ReservoirWindow;
use crate::tally::ReleaseTally;
use crate::train::TrainedModel;
use browser_engine::UserAgent;

/// Drift counters plus the live training window, fed from one stream.
///
/// The serving loop calls [`DriftStream::ingest`] per session: the row is
/// interned, the session counted per (row, claimed release), and the
/// reservoir decides whether it joins the retrain window. Checkpoints
/// ([`DriftStream::checkpoint`]) predict each distinct row that arrived
/// since the last one and then read only the counters — the window is
/// neither cloned nor materialised on the stable path; a triggered
/// retrain takes it over once via [`DriftStream::training_window`].
#[derive(Debug, Clone)]
pub struct DriftStream {
    /// Every session a checkpoint has counted, per (cluster, release).
    counted: ReleaseTally,
    /// The retrain window; its table of distinct rows is the one the
    /// pending tally indexes.
    window: ReservoirWindow,
    /// Sessions since the last checkpoint, per (row id, release).
    pending: ReleaseTally,
    /// Projection scratch reused by every prediction of a checkpoint.
    projected: Vec<f64>,
}

impl DriftStream {
    /// An empty stream whose reservoir holds at most `capacity` sessions
    /// of `width` features each.
    pub fn new(capacity: usize, width: usize, seed: u64) -> Result<Self, PolygraphError> {
        Ok(Self {
            counted: ReleaseTally::new(),
            window: ReservoirWindow::new(capacity, width, seed)?,
            pending: ReleaseTally::new(),
            projected: Vec::new(),
        })
    }

    /// Ingests one session: interns its row, counts it for its claimed
    /// release and offers it to the reservoir window. Nothing is predicted
    /// here — the session is counted under the model of the next
    /// [`DriftStream::checkpoint`] — and `model` only sets the row width
    /// the session must have, as a prediction under it would. A row of
    /// the wrong width changes nothing.
    pub fn ingest(
        &mut self,
        model: &TrainedModel,
        values: &[f64],
        claimed: UserAgent,
    ) -> Result<(), PolygraphError> {
        let expected = model.feature_set().len();
        if values.len() != expected {
            return Err(PolygraphError::FeatureWidthMismatch {
                got: values.len(),
                expected,
            });
        }
        let row = self.window.offer(values, claimed)?;
        self.pending.add(row, claimed, 1);
        Ok(())
    }

    /// Total sessions ingested since the last reset.
    pub fn ingested(&self) -> usize {
        self.counted.sessions() + self.pending.sessions()
    }

    /// The checkpoint decision. Each distinct row ingested since the last
    /// checkpoint is predicted once, under `model`, and its sessions are
    /// counted in that cluster; rows no resident references are then
    /// dropped. A session is therefore counted under the model of the
    /// first checkpoint after it arrived, the model whose cluster table
    /// then judges the counts: pass the model the stream is measured
    /// against every time, and reset the counters when it changes (the
    /// orchestrator does both). The resident window is copied by nothing
    /// on this path.
    pub fn checkpoint(
        &mut self,
        model: &TrainedModel,
        releases: &[UserAgent],
    ) -> Result<(Vec<DriftObservation>, DriftDecision), PolygraphError> {
        let k = model.kmeans().centroids().rows();
        let (window, projected) = (&self.window, &mut self.projected);
        let pending = self.pending.fold(k, |row| {
            drift::populated_cluster(model, window.row(row), projected)
        })?;
        for (&release, per_cluster) in self.pending.releases().iter().zip(pending.chunks_exact(k)) {
            for (cluster, &sessions) in per_cluster.iter().enumerate() {
                if sessions > 0 {
                    self.counted.add(cluster, release, sessions);
                }
            }
        }
        self.pending.clear();
        self.retain_resident_rows();
        drift::decide(model, &self.counted, Ok, releases)
    }

    /// The resident reservoir window (borrowed).
    pub fn window(&self) -> &ReservoirWindow {
        &self.window
    }

    /// Hands the resident window over as a retrain [`TrainingSet`] —
    /// called only when a checkpoint actually triggered.
    pub fn training_window(&self) -> Result<TrainingSet, PolygraphError> {
        self.window.to_training_set()
    }

    /// Clears the drift counters, and the sessions no checkpoint has
    /// counted yet, after a promotion so the next window is measured
    /// against the new model only. The reservoir keeps its residents: the
    /// sample stays representative of the recent stream, which is exactly
    /// what the *next* candidate should train on.
    pub fn reset_counters(&mut self) {
        self.counted.clear();
        self.pending.clear();
        self.retain_resident_rows();
    }

    /// Drops the table rows no resident references; `pending` must be
    /// empty, since the surviving rows are renumbered.
    fn retain_resident_rows(&mut self) {
        debug_assert_eq!(self.pending.sessions(), 0, "pending rows renumbered");
        self.window.retain_resident_rows();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use crate::train::{TrainConfig, TrainedModel};
    use browser_engine::Vendor;
    use fingerprint::FeatureSet;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    // The counters both doors ran before they shared the core tally, kept
    // as the per-session reference: one map per release of sessions per
    // cluster, each session predicted on its own (`count_one`).

    /// Per-release cluster counters over a trained model.
    #[derive(Debug, Clone)]
    pub(crate) struct DriftAccumulator {
        /// (release → (cluster → sessions)) counters. BTreeMap: the majority
        /// scan in `observe` must break count ties identically on every run,
        /// or a 50/50 release would flip its predominant cluster between
        /// checkpoints.
        counts: BTreeMap<UserAgent, BTreeMap<usize, usize>>,
        /// Total sessions counted (all releases).
        ingested: usize,
    }

    impl DriftAccumulator {
        /// An empty accumulator.
        pub(crate) fn new() -> Self {
            Self {
                counts: BTreeMap::new(),
                ingested: 0,
            }
        }

        /// Total sessions counted since the last reset.
        pub(crate) fn ingested(&self) -> usize {
            self.ingested
        }

        /// Counts `sessions` sessions of `claimed` in `cluster`.
        fn add(&mut self, claimed: UserAgent, cluster: usize, sessions: usize) {
            *self
                .counts
                .entry(claimed)
                .or_default()
                .entry(cluster)
                .or_default() += sessions;
            self.ingested += sessions;
        }

        /// The checkpoint measurement for one release, from the counters.
        fn observe(
            &self,
            model: &TrainedModel,
            release: UserAgent,
        ) -> Result<DriftObservation, PolygraphError> {
            let Some(clusters) = self.counts.get(&release) else {
                return Err(PolygraphError::NoObservations(release.label()));
            };
            let sessions: usize = clusters.values().sum();
            let (&cluster, &majority) = clusters
                .iter()
                .max_by_key(|(_, &count)| count)
                .expect("a present release has at least one session");
            // "Closest release" excludes the release itself: the question is
            // whether the *new* release behaves like its predecessor.
            let expected_cluster = model
                .cluster_table()
                .entries()
                .iter()
                .filter(|(u, _)| u.vendor == release.vendor && *u != release)
                .min_by_key(|(u, _)| u.version.abs_diff(release.version))
                .map(|(_, c)| *c);
            Ok(DriftObservation {
                release,
                cluster,
                expected_cluster,
                accuracy: majority as f64 / sessions as f64,
                sessions,
            })
        }

        /// Observes each of `releases`, in order, and renders the decision.
        pub(crate) fn checkpoint(
            &self,
            model: &TrainedModel,
            releases: &[UserAgent],
        ) -> Result<(Vec<DriftObservation>, DriftDecision), PolygraphError> {
            let mut observations = Vec::with_capacity(releases.len());
            for &r in releases {
                observations.push(self.observe(model, r)?);
            }
            let decision = DriftDecision::from_observations(&observations);
            Ok((observations, decision))
        }

        /// Clears the counters — called after a retrain, so the next window
        /// is measured against the new model only.
        fn reset(&mut self) {
            self.counts.clear();
            self.ingested = 0;
        }
    }

    /// The per-session reference the doors must equal: each session
    /// predicted on its own and counted for its claimed release.
    fn count_one(
        acc: &mut DriftAccumulator,
        model: &TrainedModel,
        values: &[f64],
        claimed: UserAgent,
    ) {
        let cluster = model.nearest_populated_cluster(model.predict_cluster(values).unwrap());
        acc.add(claimed, cluster, 1);
    }

    fn ua(vendor: Vendor, v: u32) -> UserAgent {
        UserAgent::new(vendor, v)
    }

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

    #[test]
    fn batch_checkpoint_matches_the_per_session_reference() {
        let model = toy_model();
        // A mixed window: Chrome 111 stable, Chrome 112 shifted.
        let mut rows: Vec<(Vec<f64>, UserAgent)> = Vec::new();
        for i in 0..60 {
            rows.push((
                vec![10.0 + (i % 2) as f64 * 0.1, 10.0],
                ua(Vendor::Chrome, 111),
            ));
        }
        for _ in 0..40 {
            rows.push((vec![0.0, 0.0], ua(Vendor::Chrome, 112)));
        }
        // Chrome 113 split exactly 50/50 between the two eras: the count
        // tie must break the same way in the body and the reference.
        for i in 0..40 {
            let base = if i % 2 == 0 { 0.0 } else { 10.0 };
            rows.push((vec![base, base], ua(Vendor::Chrome, 113)));
        }

        let (r, u): (Vec<_>, Vec<_>) = rows.clone().into_iter().unzip();
        let batch = TrainingSet::from_rows(r, u).unwrap();
        let mut reference = DriftAccumulator::new();
        for (row, claimed) in &rows {
            count_one(&mut reference, &model, row, *claimed);
        }
        assert_eq!(reference.ingested(), rows.len());

        let releases = [
            ua(Vendor::Chrome, 111),
            ua(Vendor::Chrome, 112),
            ua(Vendor::Chrome, 113),
        ];
        let (observations, decision) = drift::checkpoint(&model, &batch, &releases).unwrap();
        assert_eq!(
            (observations.clone(), decision),
            reference.checkpoint(&model, &releases).unwrap()
        );
        let tied = &observations[2];
        assert_eq!((tied.sessions, tied.accuracy), (40, 0.5));

        // A release absent from the window: the same error from both.
        let absent = ua(Vendor::Firefox, 119);
        let expected = Err(PolygraphError::NoObservations(absent.label()));
        assert_eq!(drift::checkpoint(&model, &batch, &[absent]), expected);
        assert_eq!(reference.checkpoint(&model, &[absent]), expected);
    }

    #[test]
    fn an_exact_tie_reads_as_the_highest_cluster_at_both_doors() {
        // The drift checkpoint breaks an exact count tie to the highest
        // cluster (the last maximum `max_by_key` finds); the cluster
        // table's vote breaks it to the lowest. Pinned as it stands.
        let model = toy_model();
        let eras = [[0.0, 0.0], [10.0, 10.0]];
        let highest = eras
            .iter()
            .map(|row| model.predict_cluster(row).unwrap())
            .max()
            .unwrap();
        assert_ne!(
            model.predict_cluster(&eras[0]).unwrap(),
            model.predict_cluster(&eras[1]).unwrap(),
            "the two eras sit in two clusters"
        );
        let chrome = ua(Vendor::Chrome, 113);
        let mut stream = DriftStream::new(64, 2, 3).unwrap();
        let mut rows = Vec::new();
        for i in 0..10 {
            let row = eras[i % 2].to_vec();
            stream.ingest(&model, &row, chrome).unwrap();
            rows.push((row, chrome));
        }
        let (r, u): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let batch = TrainingSet::from_rows(r, u).unwrap();
        for (observations, _) in [
            stream.checkpoint(&model, &[chrome]).unwrap(),
            drift::checkpoint(&model, &batch, &[chrome]).unwrap(),
        ] {
            assert_eq!(observations[0].cluster, highest);
            assert_eq!(observations[0].accuracy, 0.5);
        }
    }

    #[test]
    fn checkpoint_decision_matches_the_reference_on_an_era_flip() {
        let model = toy_model();
        let chrome = ua(Vendor::Chrome, 111);
        let mut stream = DriftStream::new(16, 2, 9).unwrap();
        let mut acc = DriftAccumulator::new();
        for _ in 0..50 {
            stream.ingest(&model, &[0.0, 0.0], chrome).unwrap();
            count_one(&mut acc, &model, &[0.0, 0.0], chrome);
        }
        let (obs, decision) = stream.checkpoint(&model, &[chrome]).unwrap();
        assert_eq!(obs.len(), 1);
        assert!(
            matches!(decision, DriftDecision::Retrain { .. }),
            "era flip must trigger"
        );
        assert_eq!((obs, decision), acc.checkpoint(&model, &[chrome]).unwrap());
    }

    #[test]
    fn drift_stream_matches_plain_accumulator() {
        let model = toy_model();
        let mut stream = DriftStream::new(64, 2, 0xD1F7).unwrap();
        let mut acc = DriftAccumulator::new();
        for i in 0..50 {
            let row = vec![10.0 + (i % 2) as f64 * 0.1, 10.0];
            stream
                .ingest(&model, &row, ua(Vendor::Chrome, 111))
                .unwrap();
            count_one(&mut acc, &model, &row, ua(Vendor::Chrome, 111));
        }
        assert_eq!(stream.ingested(), 50);
        let (obs, decision) = stream
            .checkpoint(&model, &[ua(Vendor::Chrome, 111)])
            .unwrap();
        let (plain_obs, plain_decision) =
            acc.checkpoint(&model, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert_eq!(obs, plain_obs);
        assert_eq!(
            matches!(decision, DriftDecision::Stable),
            matches!(plain_decision, DriftDecision::Stable)
        );
    }

    /// Releases the proptest claims: two versions past the dense table.
    const RELEASES: [(Vendor, u32); 6] = [
        (Vendor::Chrome, 111),
        (Vendor::Chrome, 112),
        (Vendor::Firefox, 119),
        (Vendor::Edge, 1_024),
        (Vendor::Chrome, 70_000),
        (Vendor::Edge, 112),
    ];

    /// Rows the proptest draws from, around both eras and between them.
    const ROWS: [[f64; 2]; 6] = [
        [0.0, 0.0],
        [0.1, 0.0],
        [10.0, 10.0],
        [10.1, 10.0],
        [4.0, 6.0],
        [-0.0, 0.0],
    ];

    proptest! {
        /// Both doors equal the per-session reference, checkpoint after
        /// checkpoint: the stream through a small reservoir (evictions,
        /// then the renumbering of the rows that survive), the batch door
        /// on the sessions since the last reset; with 50/50 ties between
        /// the eras, counter resets, releases absent from the window and
        /// versions past the dense table.
        #[test]
        fn prop_oracle_both_doors_equal_the_per_session_counters(
            rounds in proptest::collection::vec(
                proptest::collection::vec(0usize..6 * 6 * 2, 0..60), 1..5),
            ties in proptest::collection::vec(0usize..6 * 4, 1..5),
            resets in proptest::collection::vec(any::<bool>(), 5..6),
            asked in proptest::collection::vec(0usize..6, 1..4),
            capacity in 1usize..12,
            seed in any::<u64>(),
        ) {
            let model = toy_model();
            let claim = |code: usize| {
                let (vendor, version) = RELEASES[code % 6];
                let mut ua = ua(vendor, version);
                if code / 6 == 1 {
                    ua.os = browser_engine::Os::Linux;
                }
                ua
            };
            let releases: Vec<UserAgent> = asked.iter().map(|&r| claim(r)).collect();
            let mut stream = DriftStream::new(capacity, 2, seed).unwrap();
            let mut reference = DriftAccumulator::new();
            let mut since_reset: Vec<(Vec<f64>, UserAgent)> = Vec::new();
            for (round, draws) in rounds.iter().enumerate() {
                let mut sessions: Vec<(Vec<f64>, UserAgent)> = draws
                    .iter()
                    .map(|&x| (ROWS[x % 6].to_vec(), claim(x / 6)))
                    .collect();
                // An exact tie: the release's sessions alternate between
                // an era-0 and an era-10 row.
                let (release, pairs) = (ties[round % ties.len()] % 6, 1 + ties[round % ties.len()] / 6);
                for i in 0..2 * pairs {
                    sessions.push((ROWS[2 * (i % 2)].to_vec(), claim(release)));
                }
                for (row, claimed) in &sessions {
                    stream.ingest(&model, row, *claimed).unwrap();
                    count_one(&mut reference, &model, row, *claimed);
                }
                since_reset.extend(sessions);
                prop_assert_eq!(stream.ingested(), reference.ingested());
                let want = reference.checkpoint(&model, &releases);
                prop_assert_eq!(stream.checkpoint(&model, &releases), want.clone());
                let (rows, uas): (Vec<_>, Vec<_>) = since_reset.iter().cloned().unzip();
                let batch = TrainingSet::from_rows(rows, uas).unwrap();
                prop_assert_eq!(drift::checkpoint(&model, &batch, &releases), want);
                prop_assert!(stream.window().distinct_rows() <= stream.window().len());
                if resets[round] {
                    stream.reset_counters();
                    reference.reset();
                    since_reset.clear();
                    prop_assert_eq!(stream.ingested(), 0);
                }
            }
        }
    }

    #[test]
    fn stable_checkpoints_never_materialize_the_window() {
        // The satellite-3 regression: checkpoints on a stable stream
        // must answer from the counters alone — zero window copies.
        let model = toy_model();
        let mut stream = DriftStream::new(32, 2, 0xD1F7).unwrap();
        for checkpoint in 0..10 {
            for i in 0..20 {
                stream
                    .ingest(
                        &model,
                        &[10.0 + (i % 2) as f64 * 0.1, 10.0],
                        ua(Vendor::Chrome, 111),
                    )
                    .unwrap();
            }
            let (_, decision) = stream
                .checkpoint(&model, &[ua(Vendor::Chrome, 111)])
                .unwrap();
            assert!(
                matches!(decision, DriftDecision::Stable),
                "checkpoint {checkpoint} unexpectedly drifted"
            );
        }
        assert_eq!(
            stream.window().materializations(),
            0,
            "a stable checkpoint copied the window"
        );
        // The drift path pays exactly one copy per retrain.
        let set = stream.training_window().unwrap();
        assert_eq!(set.len(), 32);
        assert_eq!(stream.window().materializations(), 1);
    }

    #[test]
    fn reset_counters_keeps_the_reservoir() {
        let model = toy_model();
        let mut stream = DriftStream::new(16, 2, 1).unwrap();
        for _ in 0..30 {
            stream
                .ingest(&model, &[10.0, 10.0], ua(Vendor::Chrome, 111))
                .unwrap();
        }
        assert_eq!(stream.window().len(), 16);
        stream.reset_counters();
        assert_eq!(stream.ingested(), 0);
        assert_eq!(stream.window().len(), 16, "residents survive the reset");
        assert_eq!(stream.window().seen(), 30);
    }

    #[test]
    fn hostile_stream_keeps_no_more_rows_than_residents() {
        // Untrusted traffic can make every row distinct: the table must
        // still shrink to the residents' rows at every checkpoint.
        let model = toy_model();
        let chrome = ua(Vendor::Chrome, 111);
        let mut stream = DriftStream::new(1_000, 2, 0xD1F7).unwrap();
        for i in 0..20_000u32 {
            stream
                .ingest(&model, &[10.0 + f64::from(i) * 1e-6, 10.0], chrome)
                .unwrap();
            if i % 2_000 == 1_999 {
                stream.checkpoint(&model, &[chrome]).unwrap();
                let window = stream.window();
                assert!(
                    window.distinct_rows() <= window.len(),
                    "{} rows for {} residents after {} sessions",
                    window.distinct_rows(),
                    window.len(),
                    i + 1
                );
            }
        }
        assert_eq!(stream.ingested(), 20_000);

        // A wrong-width row is refused as a prediction would refuse it,
        // and leaves the counters and the window as they were.
        let before = stream.training_window().unwrap();
        assert_eq!(
            stream.ingest(&model, &[1.0], chrome),
            Err(PolygraphError::FeatureWidthMismatch {
                got: 1,
                expected: 2
            })
        );
        assert_eq!(stream.ingested(), 20_000);
        assert_eq!(stream.window().seen(), 20_000);
        let after = stream.training_window().unwrap();
        assert_eq!(before.rows(), after.rows());
        assert_eq!(before.user_agents(), after.user_agents());
    }

    #[test]
    fn unseen_release_is_an_error_and_reset_clears() {
        let model = toy_model();
        let chrome = ua(Vendor::Chrome, 111);
        let mut stream = DriftStream::new(8, 2, 1).unwrap();
        let unseen = Err(PolygraphError::NoObservations(chrome.label()));
        assert_eq!(stream.checkpoint(&model, &[chrome]), unseen);
        stream.ingest(&model, &[10.0, 10.0], chrome).unwrap();
        assert!(stream.checkpoint(&model, &[chrome]).is_ok());
        stream.reset_counters();
        assert_eq!(stream.ingested(), 0);
        assert_eq!(stream.checkpoint(&model, &[chrome]), unseen);
    }
}
