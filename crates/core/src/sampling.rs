//! Stratified sampling for oversized training sets (§8, "Scale of the
//! database").
//!
//! When the collected dataset outgrows what retraining can chew through,
//! the paper proposes stratified sampling: shrink the data while keeping
//! every stratum — here, every user-agent — represented. Uniform
//! subsampling would do the opposite: the sparse old browsers that already
//! need lab alignment (Edge 17, the enterprise pins) would vanish first.
//!
//! [`stratified_sample`] keeps a fixed fraction of each user-agent's
//! sessions but never fewer than `min_per_stratum` (or the stratum's full
//! size, if smaller) — so a 10× reduction of the bulk leaves the rare
//! strata untouched.
//!
//! [`ReservoirWindow`] is the streaming counterpart: Vitter's Algorithm R
//! over the live serving traffic, so the retrain window is a uniform
//! sample of everything seen since the last promotion without ever
//! holding more than `capacity` sessions.

use crate::dataset::TrainingSet;
use crate::error::PolygraphError;
use browser_engine::UserAgent;
use polygraph_ml::DistinctRows;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for [`stratified_sample`].
#[derive(Debug, Clone, Copy)]
pub struct StratifiedConfig {
    /// Fraction of each stratum to keep (0, 1].
    pub fraction: f64,
    /// Keep at least this many sessions per user-agent (clamped to the
    /// stratum size).
    pub min_per_stratum: usize,
    /// RNG seed for the within-stratum choice.
    pub seed: u64,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        Self {
            fraction: 0.1,
            min_per_stratum: 200,
            seed: 0x57A7,
        }
    }
}

/// Draws a stratified subsample of `data`, stratified by user-agent.
pub fn stratified_sample(
    data: &TrainingSet,
    config: StratifiedConfig,
) -> Result<TrainingSet, PolygraphError> {
    if !(0.0..=1.0).contains(&config.fraction) || config.fraction == 0.0 {
        return Err(PolygraphError::BadTrainingSet(format!(
            "fraction must be in (0, 1], got {}",
            config.fraction
        )));
    }
    let mut strata: BTreeMap<UserAgent, Vec<usize>> = BTreeMap::new();
    for (i, ua) in data.user_agents().iter().enumerate() {
        strata.entry(*ua).or_default().push(i);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut keep = BTreeSet::new();
    for members in strata.values() {
        let target = ((members.len() as f64 * config.fraction).round() as usize)
            .max(config.min_per_stratum)
            .min(members.len());
        keep.extend(members.choose_multiple(&mut rng, target).copied());
    }
    Ok(data.filtered(|i| keep.contains(&i)))
}

/// A seeded uniform reservoir over streaming sessions (Algorithm R).
///
/// Every session ever offered has the same `capacity / seen` probability
/// of being resident, so the retrain window stays an unbiased sample of
/// the whole stream while memory stays bounded. All randomness comes
/// from one ChaCha stream seeded at construction: the same seed and the
/// same offer sequence reproduce the same window bit for bit.
///
/// A resident is a row id and its claimed release. The rows themselves
/// live once each in a table of distinct rows ([`DistinctRows`]): coarse
/// fingerprints collide, so a 50 000-session window holds a few hundred.
/// Every row offered is interned, resident or not, and stays in the table
/// until [`ReservoirWindow::retain_resident_rows`].
#[derive(Debug, Clone)]
pub struct ReservoirWindow {
    capacity: usize,
    width: usize,
    rng: ChaCha8Rng,
    rows: DistinctRows,
    residents: Vec<(usize, UserAgent)>,
    seen: u64,
    /// Times the window was handed over as a [`TrainingSet`]. The
    /// checkpoint loop must answer Stable decisions from counters alone;
    /// the no-allocation-on-stable regression test pins this at zero
    /// across stable checkpoints.
    materializations: Cell<u64>,
}

impl ReservoirWindow {
    /// An empty reservoir holding at most `capacity` sessions of `width`
    /// features each.
    pub fn new(capacity: usize, width: usize, seed: u64) -> Result<Self, PolygraphError> {
        if capacity == 0 {
            return Err(PolygraphError::BadTrainingSet(
                "reservoir capacity must be at least 1".into(),
            ));
        }
        Ok(Self {
            capacity,
            width,
            rng: ChaCha8Rng::seed_from_u64(seed),
            rows: DistinctRows::new(width),
            residents: Vec::new(),
            seen: 0,
            materializations: Cell::new(0),
        })
    }

    /// Offers one session to the reservoir. The first `capacity` offers
    /// always land; offer `t` then replaces a uniformly chosen resident
    /// with probability `capacity / t`. Returns the row's id in the table
    /// of distinct rows (whether or not the session landed), valid until
    /// the next [`ReservoirWindow::retain_resident_rows`].
    pub fn offer(&mut self, values: &[f64], claimed: UserAgent) -> Result<usize, PolygraphError> {
        if values.len() != self.width {
            return Err(PolygraphError::FeatureWidthMismatch {
                got: values.len(),
                expected: self.width,
            });
        }
        let row = self.rows.intern(values);
        self.seen += 1;
        if self.residents.len() < self.capacity {
            self.residents.push((row, claimed));
            return Ok(row);
        }
        let j = self.rng.gen_range(0..self.seen);
        if (j as usize) < self.capacity {
            self.residents[j as usize] = (row, claimed);
        }
        Ok(row)
    }

    /// The content of row `id` of the table of distinct rows.
    pub(crate) fn row(&self, id: usize) -> &[f64] {
        self.rows.row(id)
    }

    /// Rows in the table of distinct rows.
    #[cfg(test)]
    pub(crate) fn distinct_rows(&self) -> usize {
        self.rows.len()
    }

    /// Drops every row of the table that no resident references and
    /// renumbers the rest, so the table holds at most [`Self::len`] rows.
    /// Row ids returned by earlier offers are invalid afterwards.
    pub fn retain_resident_rows(&mut self) {
        let mut referenced = vec![false; self.rows.len()];
        for &(row, _) in &self.residents {
            referenced[row] = true;
        }
        if referenced.iter().all(|&r| r) {
            return;
        }
        let renumbered = self.rows.retain(&referenced);
        for (row, _) in &mut self.residents {
            *row = renumbered[*row];
        }
    }

    /// Sessions currently resident.
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// Whether no session has landed yet.
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    /// Maximum resident sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total sessions offered since construction.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Hands the resident window over as a [`TrainingSet`] — the
    /// drift-triggered path only. The residents go over by id: each
    /// distinct resident row is interned once into the set's table, on
    /// its first resident, and each resident adds one renumbered id, so
    /// no row is copied per session and the set is numbered exactly as
    /// copying every resident row out and partitioning them would number
    /// it.
    pub fn to_training_set(&self) -> Result<TrainingSet, PolygraphError> {
        self.materializations.set(self.materializations.get() + 1);
        Ok(TrainingSet::gather(
            &self.rows,
            self.residents.iter().copied(),
        ))
    }

    /// Times [`ReservoirWindow::to_training_set`] ran — the regression
    /// hook for the no-allocation-on-stable test.
    pub fn materializations(&self) -> u64 {
        self.materializations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift_stream::DriftStream;
    use crate::train::{TrainConfig, TrainedModel};
    use browser_engine::Vendor;
    use fingerprint::FeatureSet;
    use polygraph_ml::{Matrix, RowGroups};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn ua(v: u32) -> UserAgent {
        UserAgent::new(Vendor::Chrome, v)
    }

    /// 3000 sessions of a popular UA, 40 of a rare one.
    fn skewed_set() -> TrainingSet {
        let mut set = TrainingSet::new(1);
        for i in 0..3000 {
            set.push(vec![i as f64], ua(110)).unwrap();
        }
        for i in 0..40 {
            set.push(vec![i as f64], ua(17)).unwrap();
        }
        set
    }

    fn count(set: &TrainingSet, target: UserAgent) -> usize {
        set.user_agents().iter().filter(|&&u| u == target).count()
    }

    #[test]
    fn bulk_shrinks_but_rare_strata_survive_whole() {
        let data = skewed_set();
        let sampled = stratified_sample(
            &data,
            StratifiedConfig {
                fraction: 0.1,
                min_per_stratum: 200,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(count(&sampled, ua(110)), 300, "10% of the bulk");
        assert_eq!(
            count(&sampled, ua(17)),
            40,
            "the rare stratum is kept whole"
        );
    }

    #[test]
    fn min_per_stratum_floors_the_draw() {
        let data = skewed_set();
        let sampled = stratified_sample(
            &data,
            StratifiedConfig {
                fraction: 0.01,
                min_per_stratum: 100,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(count(&sampled, ua(110)), 100, "floored at min_per_stratum");
        assert_eq!(count(&sampled, ua(17)), 40);
    }

    #[test]
    fn fraction_one_is_identity_sized() {
        let data = skewed_set();
        let sampled = stratified_sample(
            &data,
            StratifiedConfig {
                fraction: 1.0,
                min_per_stratum: 1,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(sampled.len(), data.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = skewed_set();
        let cfg = StratifiedConfig {
            fraction: 0.2,
            min_per_stratum: 10,
            seed: 9,
        };
        let a = stratified_sample(&data, cfg).unwrap();
        let b = stratified_sample(&data, cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn reservoir_fills_then_stays_at_capacity() {
        let mut r = ReservoirWindow::new(8, 1, 7).unwrap();
        for i in 0..100u32 {
            r.offer(&[i as f64], ua(110)).unwrap();
            assert!(r.len() <= 8);
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.seen(), 100);
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    fn reservoir_inclusion_frequency_is_uniform() {
        // Algorithm R promises every item the same k/n residency
        // probability. Replay 10 000 independently seeded streams of
        // n = 50 items through a k = 10 reservoir and check each
        // position's empirical inclusion frequency against k/n = 0.2.
        const STREAMS: u64 = 10_000;
        const N: usize = 50;
        const K: usize = 10;
        let mut included = [0u32; N];
        for seed in 0..STREAMS {
            let mut r = ReservoirWindow::new(K, 1, seed).unwrap();
            for i in 0..N {
                r.offer(&[i as f64], ua(110)).unwrap();
            }
            for &(row, _) in &r.residents {
                included[r.row(row)[0] as usize] += 1;
            }
        }
        let expected = K as f64 / N as f64;
        // Binomial std-dev over 10k streams is ~0.004; 0.02 is 5 sigma.
        for (i, &count) in included.iter().enumerate() {
            let freq = count as f64 / STREAMS as f64;
            assert!(
                (freq - expected).abs() < 0.02,
                "position {i}: inclusion frequency {freq} vs expected {expected}"
            );
        }
    }

    #[test]
    fn reservoir_deterministic_given_seed() {
        let mut a = ReservoirWindow::new(16, 2, 0xDEED).unwrap();
        let mut b = ReservoirWindow::new(16, 2, 0xDEED).unwrap();
        for i in 0..500u32 {
            let row = [i as f64, (i * 3) as f64];
            a.offer(&row, ua(100 + i % 4)).unwrap();
            b.offer(&row, ua(100 + i % 4)).unwrap();
        }
        assert_eq!(a.residents, b.residents);
        let sa = a.to_training_set().unwrap();
        let sb = b.to_training_set().unwrap();
        assert_eq!(sa.rows(), sb.rows());
        assert_eq!(sa.user_agents(), sb.user_agents());
    }

    #[test]
    fn retaining_resident_rows_keeps_the_window_and_its_draws() {
        // Ten distinct rows, each offered many times, so residents share
        // rows and the draws evict some rows entirely.
        let mut pruned = ReservoirWindow::new(8, 1, 3).unwrap();
        let mut plain = ReservoirWindow::new(8, 1, 3).unwrap();
        for i in 0..400u32 {
            let row = [(i * 7 % 10) as f64];
            pruned.offer(&row, ua(100 + i % 3)).unwrap();
            plain.offer(&row, ua(100 + i % 3)).unwrap();
            if i % 50 == 49 {
                pruned.retain_resident_rows();
                assert!(pruned.distinct_rows() <= pruned.len());
            }
        }
        assert_eq!(plain.distinct_rows(), 10);
        let (a, b) = (
            pruned.to_training_set().unwrap(),
            plain.to_training_set().unwrap(),
        );
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.user_agents(), b.user_agents());
    }

    #[test]
    fn reservoir_counts_materializations_and_rejects_bad_input() {
        assert!(ReservoirWindow::new(0, 1, 1).is_err());
        let mut r = ReservoirWindow::new(4, 2, 1).unwrap();
        assert!(r.offer(&[1.0], ua(110)).is_err());
        r.offer(&[1.0, 2.0], ua(110)).unwrap();
        assert_eq!(r.materializations(), 0);
        let set = r.to_training_set().unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(r.materializations(), 1);
    }

    /// The values rows are drawn from: few enough that rows repeat, with
    /// both zeros and two NaN payloads, which only the bits tell apart.
    const ALPHABET: [f64; 6] = [
        0.0,
        -0.0,
        1.0,
        2.5,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff8_0000_0000_0002),
    ];

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// A two-feature model for a `DriftStream` to ingest under: ingest
    /// only checks a row's width against it.
    fn two_feature_model() -> &'static TrainedModel {
        static MODEL: OnceLock<TrainedModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let mut set = TrainingSet::new(2);
            for (base, version) in [(0.0, 100), (10.0, 110)] {
                for j in 0..40 {
                    set.push(vec![base + (j % 2) as f64 * 0.1, base], ua(version))
                        .unwrap();
                }
            }
            let config = TrainConfig {
                k: 2,
                n_components: 2,
                min_samples_for_majority: 1,
                ..Default::default()
            };
            TrainedModel::fit(FeatureSet::table8().subset(&[0, 1]), &set, config).unwrap()
        })
    }

    /// The hand-over by id equals the body it replaced: every resident
    /// row copied out in resident order, then the copies partitioned.
    fn assert_hands_over_as_copied(window: &ReservoirWindow) {
        let (rows, uas): (Vec<Vec<f64>>, Vec<UserAgent>) = window
            .residents
            .iter()
            .map(|&(row, claimed)| (window.row(row).to_vec(), claimed))
            .unzip();
        let copied = RowGroups::of(&Matrix::from_rows(&rows).unwrap());
        let set = window.to_training_set().unwrap();
        assert_eq!(set.user_agents(), &uas[..]);
        let read: Vec<Vec<u64>> = set.rows().iter().map(bits).collect();
        assert_eq!(read, rows.iter().map(|row| bits(row)).collect::<Vec<_>>());
        let handed = set.row_groups().unwrap();
        assert_eq!(handed.group_of(), copied.group_of());
        assert_eq!(
            bits(handed.distinct().as_slice()),
            bits(copied.distinct().as_slice())
        );
    }

    proptest! {
        /// `to_training_set` hands the residents over exactly as copying
        /// them out and partitioning the copies did, with Algorithm R
        /// replacing residents (the stream outgrows the capacity), after
        /// `retain_resident_rows` renumbers the reservoir's table, and
        /// after a `DriftStream::reset_counters` does.
        #[test]
        fn prop_hand_over_equals_copying_then_partitioning(
            width in 1usize..4,
            picks in proptest::collection::vec(0usize..6, 60..900),
            versions in proptest::collection::vec(100u32..103, 900..901),
            prunes in proptest::collection::vec(0u8..8, 900..901),
            capacity in 1usize..16,
            seed in any::<u64>(),
        ) {
            let mut window = ReservoirWindow::new(capacity, width, seed).unwrap();
            for (i, w) in picks.chunks_exact(width).enumerate() {
                let row: Vec<f64> = w.iter().map(|&p| ALPHABET[p]).collect();
                window.offer(&row, ua(versions[i])).unwrap();
                if prunes[i] == 0 {
                    window.retain_resident_rows();
                    assert_hands_over_as_copied(&window);
                }
            }
            prop_assert!(window.seen() > window.capacity() as u64);
            assert_hands_over_as_copied(&window);
            window.retain_resident_rows();
            assert_hands_over_as_copied(&window);

            let model = two_feature_model();
            let mut stream = DriftStream::new(capacity, 2, seed).unwrap();
            for (i, pair) in picks.chunks_exact(2).enumerate() {
                let row = [ALPHABET[pair[0]], ALPHABET[pair[1]]];
                stream.ingest(model, &row, ua(versions[i])).unwrap();
                if prunes[i] == 0 {
                    stream.reset_counters();
                    assert_hands_over_as_copied(stream.window());
                }
            }
            assert_hands_over_as_copied(stream.window());
            stream.reset_counters();
            assert_hands_over_as_copied(stream.window());
        }
    }

    #[test]
    fn invalid_fraction_rejected() {
        let data = skewed_set();
        for fraction in [0.0, -0.5, 1.5] {
            assert!(stratified_sample(
                &data,
                StratifiedConfig {
                    fraction,
                    min_per_stratum: 1,
                    seed: 1
                }
            )
            .is_err());
        }
    }
}
