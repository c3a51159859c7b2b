//! Drift counting (§6.6): every checkpoint predicts each distinct row once.
//!
//! Coarse fingerprints collide: a 50 000-session drift window holds a few
//! hundred distinct rows. So both checkpoint doors run one body,
//! `Pending`: sessions are tallied per (distinct row, claimed release),
//! and a checkpoint predicts each tallied row once, under the model it is
//! given, and adds its sessions in that cluster to per-(release, cluster)
//! counters, `DriftAccumulator`. The predominant cluster and accuracy of
//! each release are read from those counters alone.
//!
//! - [`crate::drift::checkpoint`] is the batch door. A collected window is
//!   already its own partition by distinct row ([`TrainingSet`]), so it
//!   tallies the sessions that claim one of the checkpoint's releases by
//!   their row ids and counts them once; no row is interned again.
//! - [`DriftStream`] is the streaming door. The serving loop ingests one
//!   session at a time. Ingest interns the row into the reservoir's table
//!   of distinct rows, tallies the session and offers the row's id to the
//!   reservoir; it predicts nothing and copies nothing. A checkpoint counts
//!   the rows tallied since the last one and then drops every row no
//!   resident references. So a session is counted under the model of the
//!   first checkpoint after it arrived. Besides the reservoir's resident
//!   ids, the state is O(releases × clusters + the reservoir's distinct
//!   rows + distinct rows since the last checkpoint), whatever the
//!   traffic. The resident window is handed over, by row id, only when a
//!   retrain actually triggers, which the no-allocation-on-stable
//!   regression test pins.

use crate::dataset::TrainingSet;
use crate::drift::{DriftDecision, DriftObservation};
use crate::error::PolygraphError;
use crate::sampling::ReservoirWindow;
use crate::train::TrainedModel;
use browser_engine::UserAgent;
use std::collections::BTreeMap;

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

/// Sessions no checkpoint has counted yet: for each distinct row id, the
/// releases that claimed it and how many sessions each. The one counting
/// body of both checkpoint doors.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending(Vec<Vec<(UserAgent, usize)>>);

impl Pending {
    /// Tallies one session of `release` on row `row_id`.
    pub(crate) fn claim(&mut self, row_id: usize, release: UserAgent) {
        if row_id >= self.0.len() {
            self.0.resize_with(row_id + 1, Vec::new);
        }
        let claims = &mut self.0[row_id];
        match claims.iter_mut().find(|(claimed, _)| *claimed == release) {
            Some((_, sessions)) => *sessions += 1,
            None => claims.push((release, 1)),
        }
    }

    /// Predicts each tallied row once under `model` (`row_of` gives a row
    /// id's values) and adds its sessions in that cluster, or in the
    /// nearest populated one: a session in an unpopulated
    /// configuration-variant cluster is an extension user, not release
    /// drift. Empties the tally and keeps its allocations, so a steady
    /// stream allocates nothing per session; `projected` is prediction
    /// scratch.
    pub(crate) fn count<'r>(
        &mut self,
        model: &TrainedModel,
        row_of: impl Fn(usize) -> &'r [f64],
        accumulator: &mut DriftAccumulator,
        projected: &mut Vec<f64>,
    ) -> Result<(), PolygraphError> {
        for (row, claims) in self.0.iter_mut().enumerate() {
            if claims.is_empty() {
                continue;
            }
            let cluster = model
                .nearest_populated_cluster(model.predict_cluster_with(row_of(row), projected)?);
            for (claimed, sessions) in claims.drain(..) {
                accumulator.add(claimed, cluster, sessions);
            }
        }
        Ok(())
    }
}

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
    /// Every session a checkpoint has counted, per (release, cluster).
    accumulator: DriftAccumulator,
    /// The retrain window; its table of distinct rows is the one the
    /// pending tally indexes.
    window: ReservoirWindow,
    /// Sessions since the last checkpoint.
    pending: Pending,
    /// Projection scratch reused by every prediction of a checkpoint.
    projected: Vec<f64>,
}

impl DriftStream {
    /// An empty stream whose reservoir holds at most `capacity` sessions
    /// of `width` features each.
    pub fn new(capacity: usize, width: usize, seed: u64) -> Result<Self, PolygraphError> {
        Ok(Self {
            accumulator: DriftAccumulator::new(),
            window: ReservoirWindow::new(capacity, width, seed)?,
            pending: Pending::default(),
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
        self.pending.claim(row, claimed);
        Ok(())
    }

    /// Total sessions ingested since the last reset.
    pub fn ingested(&self) -> usize {
        let pending: usize = self.pending.0.iter().flatten().map(|(_, n)| n).sum();
        self.accumulator.ingested() + pending
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
        self.pending.count(
            model,
            |row| self.window.row(row),
            &mut self.accumulator,
            &mut self.projected,
        )?;
        self.retain_resident_rows();
        self.accumulator.checkpoint(model, releases)
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
        self.accumulator.reset();
        self.pending.0.iter_mut().for_each(Vec::clear);
        self.retain_resident_rows();
    }

    /// Drops the table rows no resident references; `pending` must be
    /// empty, since the surviving rows are renumbered.
    fn retain_resident_rows(&mut self) {
        self.window.retain_resident_rows();
        self.pending.0.truncate(self.window.distinct_rows());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use crate::drift;
    use crate::train::{TrainConfig, TrainedModel};
    use browser_engine::Vendor;
    use fingerprint::FeatureSet;

    /// The per-session reference the shared body must equal: each session
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
    fn checkpoint_decision_matches_batch() {
        let model = toy_model();
        let mut acc = DriftAccumulator::new();
        for _ in 0..50 {
            count_one(&mut acc, &model, &[0.0, 0.0], ua(Vendor::Chrome, 111));
        }
        let (obs, decision) = acc.checkpoint(&model, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert_eq!(obs.len(), 1);
        assert!(
            matches!(decision, DriftDecision::Retrain { .. }),
            "era flip must trigger"
        );
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
    fn successive_checkpoints_match_the_plain_accumulator() {
        // Rows ingested between checkpoints are predicted once each, at
        // the checkpoint, and every session is counted — across evictions
        // and the renumbering that follows them.
        let model = toy_model();
        let mut stream = DriftStream::new(8, 2, 5).unwrap();
        let mut acc = DriftAccumulator::new();
        let releases = [ua(Vendor::Chrome, 111), ua(Vendor::Chrome, 112)];
        for round in 0..3 {
            for i in 0..30 {
                let row = [10.0 * f64::from(i % 2), 10.0 * f64::from((i + round) % 2)];
                let claimed = releases[i as usize % 2];
                stream.ingest(&model, &row, claimed).unwrap();
                count_one(&mut acc, &model, &row, claimed);
            }
            assert_eq!(stream.ingested(), acc.ingested());
            let (observations, _) = stream.checkpoint(&model, &releases).unwrap();
            assert_eq!(observations, acc.checkpoint(&model, &releases).unwrap().0);
            assert!(stream.window().distinct_rows() <= stream.window().len());
        }
    }

    #[test]
    fn unseen_release_is_an_error_and_reset_clears() {
        let model = toy_model();
        let mut acc = DriftAccumulator::new();
        assert!(acc.observe(&model, ua(Vendor::Firefox, 119)).is_err());
        count_one(&mut acc, &model, &[10.0, 10.0], ua(Vendor::Chrome, 111));
        assert!(acc.observe(&model, ua(Vendor::Chrome, 111)).is_ok());
        acc.reset();
        assert_eq!(acc.ingested(), 0);
        assert!(acc.observe(&model, ua(Vendor::Chrome, 111)).is_err());
    }
}
