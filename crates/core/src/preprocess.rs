//! Data pre-processing (§6.3): from 513 collected candidates to the 28
//! features of Table 8.
//!
//! The funnel, exactly as the paper ran it on its first real-world batch:
//!
//! 1. **Single-valued candidates** — features showing one value across all
//!    samples carry no signal (the paper found 186, including 40% of the
//!    time-based probes) → dropped.
//! 2. **Configuration-sensitive candidates** — features whose value swings
//!    *within* the same user-agent are being moved by user configuration
//!    (Firefox prefs zeroing `ServiceWorker*`, WebRTC blockers, privacy
//!    forks), not by the engine → dropped. The automated rule: some
//!    user-agent groups disagree internally *and* the disagreement is
//!    large relative to the feature's overall spread. Small shifts (the
//!    DuckDuckGo extension's +2 on `Element`) are tolerated, exactly as
//!    the paper tolerated them.
//! 3. **Deviation ranking + manual review** — surviving deviation-based
//!    candidates are ranked by standard deviation. The paper then applied
//!    a *manual* review (documented in §6.3) that removed features with
//!    minimal deviation or residual configuration exposure, landing on the
//!    22 of Table 8; [`PreprocessConfig::manual_review`] replays that
//!    recorded decision. Surviving time-based candidates are all kept
//!    (6 survive).

use crate::dataset::TrainingSet;
use crate::error::PolygraphError;
use browser_engine::protodb::TABLE8_PROTOTYPES;
use fingerprint::{FeatureKind, FeatureSet};
use std::collections::HashMap;

/// Tunables of the pre-processing funnel.
#[derive(Debug, Clone, Copy)]
pub struct PreprocessConfig {
    /// How many deviation-based features to keep after ranking (22 in the
    /// paper).
    pub keep_deviation: usize,
    /// A feature is a candidate for configuration sensitivity when at
    /// least this fraction of its (sufficiently large) per-user-agent
    /// groups show disagreeing values.
    pub min_disagreeing_fraction: f64,
    /// ... and the *typical* (median over disagreeing groups) relative
    /// deviation from the group's modal value is at least this large.
    /// Configuration switches that zero an interface score 1.0 here; an
    /// extension adding two properties to a 300-property prototype scores
    /// 0.007 and is tolerated, exactly as the paper tolerated it. The
    /// median makes the test robust to whole-row anomalies (Tor sessions,
    /// mid-update version skew), which the Isolation Forest handles later.
    pub relative_deviation_threshold: f64,
    /// User-agent groups smaller than this are ignored by the
    /// config-sensitivity test (too few samples to judge).
    pub min_group: usize,
    /// Replay the paper's §6.3 manual curation: restrict the final
    /// deviation block to the prototypes the authors kept after hand
    /// analysis (Table 8). With `false`, the funnel is fully automated and
    /// may keep a different (but structurally similar) deviation block.
    pub manual_review: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self {
            keep_deviation: 22,
            min_disagreeing_fraction: 0.05,
            relative_deviation_threshold: 0.25,
            min_group: 20,
            manual_review: true,
        }
    }
}

/// Outcome of pre-processing.
#[derive(Debug, Clone)]
pub struct PreprocessReport {
    /// Indices (into the candidate set) dropped as single-valued.
    pub constant_features: Vec<usize>,
    /// Indices dropped as configuration-sensitive.
    pub config_sensitive: Vec<usize>,
    /// Indices selected, in final feature order (deviation block first,
    /// then time-based block — Table 8's layout).
    pub selected: Vec<usize>,
    /// The selected probes as a feature set.
    pub feature_set: FeatureSet,
}

/// Runs the §6.3 funnel over candidate data.
///
/// `candidates` must be the feature set that produced `data`'s columns.
pub fn preprocess(
    candidates: &FeatureSet,
    data: &TrainingSet,
    config: PreprocessConfig,
) -> Result<PreprocessReport, PolygraphError> {
    if data.width() != candidates.len() {
        return Err(PolygraphError::FeatureWidthMismatch {
            got: data.width(),
            expected: candidates.len(),
        });
    }
    if data.is_empty() {
        return Err(PolygraphError::BadTrainingSet(
            "no rows to preprocess".into(),
        ));
    }

    let n_features = candidates.len();

    // Pass 1: constants.
    let mut constant_features = Vec::new();
    let mut is_constant = vec![false; n_features];
    for f in 0..n_features {
        let first = data.rows()[0][f];
        if data.rows().iter().all(|r| r[f] == first) {
            constant_features.push(f);
            is_constant[f] = true;
        }
    }

    // Overall std per feature (used by the pass-3 ranking).
    let n = data.len() as f64;
    let stds: Vec<f64> = (0..n_features)
        .map(|f| {
            let mean: f64 = data.rows().iter().map(|r| r[f]).sum::<f64>() / n;
            let var: f64 = data
                .rows()
                .iter()
                .map(|r| (r[f] - mean) * (r[f] - mean))
                .sum::<f64>()
                / n;
            var.sqrt()
        })
        .collect();

    // Pass 2: configuration sensitivity — per user-agent group, how far do
    // deviants sit from the group's modal value, relative to that value?
    //
    // A configuration switch moves a handful of *related* interfaces
    // (disabling Service Workers zeroes the ServiceWorker* family); a
    // lying browser disagrees with its group across hundreds of columns at
    // once. Rows deviating that broadly are anomalies for the Isolation
    // Forest and the detector — not evidence about a feature's
    // configuration sensitivity — so they are excluded here. The pass only
    // applies to deviation-based columns: the paper adjusted "particularly
    // the deviation-based attributes" for configuration effects, while the
    // time-based probes were filtered for constancy alone (§6.3).
    let mut groups: HashMap<_, Vec<usize>> = HashMap::new();
    for (i, ua) in data.user_agents().iter().enumerate() {
        groups.entry(*ua).or_default().push(i);
    }
    let big_groups: Vec<&Vec<usize>> = groups
        .values()
        .filter(|g| g.len() >= config.min_group)
        .collect();

    let mut config_sensitive = Vec::new();
    let mut is_config_sensitive = vec![false; n_features];
    if !big_groups.is_empty() {
        // Step A: modal value per (group, feature).
        let mut modes: Vec<Vec<f64>> = Vec::with_capacity(big_groups.len());
        for g in &big_groups {
            let mut group_modes = Vec::with_capacity(n_features);
            for f in 0..n_features {
                let mut counts: HashMap<u64, (f64, usize)> = HashMap::new();
                for &i in g.iter() {
                    let v = data.rows()[i][f];
                    let e = counts.entry(v.to_bits()).or_insert((v, 0));
                    e.1 += 1;
                }
                let (mode, _) = counts
                    .values()
                    .max_by_key(|(_, c)| *c)
                    .copied()
                    .expect("non-empty group");
                group_modes.push(mode);
            }
            modes.push(group_modes);
        }

        // Step B: whole-row anomalies (fraud browsers, Tor, mid-update
        // skew) deviate from their group mode on a large share of columns.
        let breadth_limit = (n_features as f64 * 0.15).ceil() as usize;
        let mut anomalous = vec![false; data.len()];
        for (gi, g) in big_groups.iter().enumerate() {
            for &i in g.iter() {
                let breadth = (0..n_features)
                    .filter(|&f| data.rows()[i][f] != modes[gi][f])
                    .count();
                if breadth > breadth_limit {
                    anomalous[i] = true;
                }
            }
        }

        // Step C: per deviation feature, the relative deviation of the
        // remaining (configuration-driven) deviants.
        let deviation_cols: std::collections::HashSet<usize> = candidates
            .indices_of_kind(FeatureKind::DeviationBased)
            .into_iter()
            .collect();
        for f in 0..n_features {
            if is_constant[f] || !deviation_cols.contains(&f) {
                continue;
            }
            let mut rel_deviations: Vec<f64> = Vec::new();
            for (gi, g) in big_groups.iter().enumerate() {
                let mode = modes[gi][f];
                let max_dev = g
                    .iter()
                    .filter(|&&i| !anomalous[i])
                    .map(|&i| (data.rows()[i][f] - mode).abs())
                    .fold(0.0f64, f64::max);
                if max_dev > 0.0 {
                    rel_deviations.push(max_dev / mode.abs().max(1.0));
                }
            }
            if rel_deviations.is_empty() {
                continue;
            }
            let frac = rel_deviations.len() as f64 / big_groups.len() as f64;
            rel_deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = rel_deviations[rel_deviations.len() / 2];
            if frac >= config.min_disagreeing_fraction
                && median >= config.relative_deviation_threshold
            {
                config_sensitive.push(f);
                is_config_sensitive[f] = true;
            }
        }
    }

    // Pass 3: rank surviving deviation features by standard deviation,
    // optionally replaying the paper's manual curation.
    let names = candidates.names();
    let mut deviation_survivors: Vec<(usize, f64)> = candidates
        .indices_of_kind(FeatureKind::DeviationBased)
        .into_iter()
        .filter(|&f| !is_constant[f] && !is_config_sensitive[f])
        .filter(|&f| {
            !config.manual_review
                || TABLE8_PROTOTYPES.iter().any(|p| {
                    names[f] == format!("Object.getOwnPropertyNames({p}.prototype).length")
                })
        })
        .map(|f| (f, stds[f]))
        .collect();
    deviation_survivors.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite std")
            .then(a.0.cmp(&b.0))
    });
    deviation_survivors.truncate(config.keep_deviation);
    // Restore candidate order within the block (Table 8 lists features in
    // candidate order, not ranked order).
    let mut selected: Vec<usize> = deviation_survivors.into_iter().map(|(f, _)| f).collect();
    selected.sort_unstable();

    let time_survivors: Vec<usize> = candidates
        .indices_of_kind(FeatureKind::TimeBased)
        .into_iter()
        .filter(|&f| !is_constant[f] && !is_config_sensitive[f])
        .collect();
    selected.extend(time_survivors);

    let feature_set = candidates.subset(&selected);
    Ok(PreprocessReport {
        constant_features,
        config_sensitive,
        selected,
        feature_set,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::catalog::legitimate_releases;
    use browser_engine::{BrowserInstance, Perturbation, UserAgent, Vendor};
    use fingerprint::FeatureSet;

    /// A small candidate-stage dataset: each catalogued release observed
    /// several times, with realistic configuration noise mixed in.
    fn candidate_data(candidates: &FeatureSet) -> TrainingSet {
        let mut set = TrainingSet::new(candidates.len());
        for (i, release) in legitimate_releases().into_iter().enumerate() {
            for copy in 0..4 {
                let mut b = BrowserInstance::genuine(release.ua);
                match (copy, i % 3) {
                    // One copy per third release disables privacy surfaces.
                    (0, 0) => {
                        b = b
                            .perturbed(Perturbation::FirefoxDisableServiceWorkers)
                            .perturbed(Perturbation::DisableWebRtc);
                    }
                    // One copy per third release runs a benign extension.
                    (1, 1) => {
                        b = b.perturbed(Perturbation::ChromeExtensionDuckDuckGo);
                    }
                    _ => {}
                }
                set.push(candidates.extract(&b).as_f64(), release.ua)
                    .unwrap();
            }
        }
        set
    }

    fn test_config(manual: bool) -> PreprocessConfig {
        PreprocessConfig {
            min_group: 4,
            manual_review: manual,
            ..Default::default()
        }
    }

    #[test]
    fn canonical_funnel_lands_exactly_on_table8() {
        let candidates = FeatureSet::candidates_513();
        let data = candidate_data(&candidates);
        let report = preprocess(&candidates, &data, test_config(true)).unwrap();
        assert_eq!(report.feature_set.names(), FeatureSet::table8().names());
    }

    #[test]
    fn automated_funnel_lands_on_28_features() {
        let candidates = FeatureSet::candidates_513();
        let data = candidate_data(&candidates);
        let report = preprocess(&candidates, &data, test_config(false)).unwrap();
        assert_eq!(report.feature_set.len(), 28, "22 deviation + 6 time-based");
        assert_eq!(
            report
                .feature_set
                .indices_of_kind(FeatureKind::DeviationBased)
                .len(),
            22
        );
        assert_eq!(
            report
                .feature_set
                .indices_of_kind(FeatureKind::TimeBased)
                .len(),
            6
        );
    }

    #[test]
    fn automated_funnel_overlaps_manual_outcome_on_big_movers() {
        // Without the manual-review replay, the automated ranking must
        // still pick up the high-deviation Table 8 prototypes.
        let candidates = FeatureSet::candidates_513();
        let data = candidate_data(&candidates);
        let report = preprocess(&candidates, &data, test_config(false)).unwrap();
        let got = report.feature_set.names();
        for big in [
            "Element",
            "Document",
            "HTMLElement",
            "WebGL2RenderingContext",
        ] {
            let expr = format!("Object.getOwnPropertyNames({big}.prototype).length");
            assert!(got.contains(&expr), "{big} must survive automated ranking");
        }
    }

    #[test]
    fn constants_are_detected() {
        let candidates = FeatureSet::candidates_513();
        let data = candidate_data(&candidates);
        let report = preprocess(&candidates, &data, test_config(true)).unwrap();
        // The stale BrowserPrint probes and absent/constant prototypes are
        // a large block — the paper found 186 single-valued features.
        assert!(
            report.constant_features.len() > 150,
            "expected a large constant block, got {}",
            report.constant_features.len()
        );
    }

    #[test]
    fn zeroing_configs_are_dropped_but_small_shifts_tolerated() {
        let candidates = FeatureSet::candidates_513();
        let data = candidate_data(&candidates);
        let report = preprocess(&candidates, &data, test_config(true)).unwrap();
        let names = candidates.names();
        // ServiceWorker*/RTC* are zeroed by privacy configs -> dropped.
        for proto in ["ServiceWorkerRegistration", "RTCPeerConnection"] {
            let idx = names
                .iter()
                .position(|n| n.contains(&format!("({proto}.")))
                .unwrap();
            assert!(
                report.config_sensitive.contains(&idx),
                "{proto} must be flagged config-sensitive"
            );
            assert!(!report.selected.contains(&idx));
        }
        // Element only shifts by ±2 under extensions -> kept.
        let element_idx = names
            .iter()
            .position(|n| n == "Object.getOwnPropertyNames(Element.prototype).length")
            .unwrap();
        assert!(!report.config_sensitive.contains(&element_idx));
        assert!(report.selected.contains(&element_idx));
    }

    #[test]
    fn width_mismatch_rejected() {
        let candidates = FeatureSet::candidates_513();
        let bad = TrainingSet::from_rows(
            vec![vec![1.0, 2.0]],
            vec![UserAgent::new(Vendor::Chrome, 100)],
        )
        .unwrap();
        assert!(preprocess(&candidates, &bad, PreprocessConfig::default()).is_err());
    }

    #[test]
    fn selected_indices_are_sorted_within_deviation_block() {
        let candidates = FeatureSet::candidates_513();
        let data = candidate_data(&candidates);
        let report = preprocess(&candidates, &data, test_config(true)).unwrap();
        let dev_block = &report.selected[..22];
        let mut sorted = dev_block.to_vec();
        sorted.sort_unstable();
        assert_eq!(dev_block, &sorted[..]);
    }
}
