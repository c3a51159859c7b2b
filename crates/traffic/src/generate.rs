//! The web-scale session generator — FinOrg's production traffic, in
//! simulation (§6.2, §7.1).
//!
//! The generator reproduces the *structure* the paper's evaluation
//! depends on:
//!
//! * a 4.5-month window of logged-in sessions over the live release
//!   market, with >100 distinct user-agents and a thin tail of sparse old
//!   releases;
//! * benign configuration noise (extensions, Firefox prefs, WebRTC
//!   blockers) plus privacy forks (Brave) and the Tor Browser — the §6.3
//!   sources of same-user-agent inconsistency;
//! * a small fraud-browser population loading stolen profiles (the
//!   detection target);
//! * FinOrg's risk tags with Table 4's base rates (≈51% `Untrusted_IP`,
//!   ≈49% `Untrusted_Cookie`, ≈0.43% `ATO`) and realistic enrichment on
//!   the fraud slice;
//! * the late-2023 drift window, where a slice of Chrome 119 runs a
//!   field-trial arm and Firefox 119 ships its Element overhaul
//!   (Table 6).

use crate::market::{market_at, sample_release};
use crate::session::{GroundTruth, Session, Tags};
use browser_engine::catalog::SimDate;
use browser_engine::{BrowserInstance, Engine, Perturbation, UserAgent, Vendor};
use fingerprint::FeatureSet;
use fraud_browsers::{table1_products, FraudProduct, FraudProfile};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::btree_map::{BTreeMap, Entry};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of sessions to generate (205k in the paper's training data).
    pub sessions: usize,
    /// First month of the window.
    pub start: SimDate,
    /// Window length in days (135 ≈ the paper's 4.5 months).
    pub days: u16,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of sessions produced by fraud browsers.
    pub fraud_rate: f64,
    /// Fraction of sessions from the Tor Browser (claims current ESR,
    /// runs an older Gecko).
    pub tor_rate: f64,
    /// Fraction of sessions from Brave (claims Chrome, small shield
    /// deltas).
    pub brave_rate: f64,
    /// Fraction of genuine sessions whose engine has updated one version
    /// ahead of the user-agent they report (benign "update
    /// inconsistencies", §7.1).
    pub update_skew_rate: f64,
    /// Probability that a Chrome/Edge 119 session runs the staged
    /// field-trial arm (drives Table 6's Chrome 119 accuracy dip).
    pub field_trial_rate: f64,
    /// Last month whose releases are visible to the market model. The
    /// paper's training window ends mid-July 2023 with Chrome/Firefox 114
    /// as the newest releases; capping the market at June models that a
    /// release a few days old has no measurable share yet.
    pub market_horizon: SimDate,
}

impl TrafficConfig {
    /// The paper's training window: March to mid-July 2023, 205k sessions.
    pub fn paper_training() -> Self {
        Self {
            sessions: 205_000,
            start: SimDate::new(2023, 3),
            days: 135,
            seed: 0x5E55_1075,
            fraud_rate: 0.0028,
            tor_rate: 0.0005,
            brave_rate: 0.005,
            update_skew_rate: 0.012,
            field_trial_rate: 0.03,
            market_horizon: SimDate::new(2023, 6),
        }
    }

    /// The drift-analysis window: late July through October 2023 (§7.3).
    pub fn drift_window() -> Self {
        Self {
            sessions: 60_000,
            start: SimDate::new(2023, 7),
            days: 110,
            seed: 0xD41F7,
            fraud_rate: 0.0028,
            tor_rate: 0.0005,
            brave_rate: 0.005,
            update_skew_rate: 0.012,
            field_trial_rate: 0.03,
            market_horizon: SimDate::new(2023, 12),
        }
    }

    /// Scales the session count (for fast tests and CI).
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A generated traffic window.
#[derive(Debug, Clone)]
pub struct TrafficDataset {
    /// The sessions, ordered by day.
    pub sessions: Vec<Session>,
    /// The feature schema `Session::values` follows.
    pub feature_set: FeatureSet,
}

impl TrafficDataset {
    /// The dataset as parallel `(rows, user-agents)` vectors — the shape
    /// `polygraph_core::TrainingSet::from_rows` consumes.
    pub fn rows_and_user_agents(&self) -> (Vec<Vec<f64>>, Vec<UserAgent>) {
        let rows = self.sessions.iter().map(Session::row).collect();
        let uas = self.sessions.iter().map(|s| s.claimed).collect();
        (rows, uas)
    }

    /// Number of distinct claimed user-agents (the paper's 113).
    pub fn distinct_user_agents(&self) -> usize {
        let mut uas: Vec<UserAgent> = self.sessions.iter().map(|s| s.claimed).collect();
        uas.sort();
        uas.dedup();
        uas.len()
    }
}

/// Generates a traffic window with the given feature schema.
pub fn generate(feature_set: &FeatureSet, config: &TrafficConfig) -> TrafficDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let products = table1_products();
    let mut sessions: Vec<Session> = Vec::with_capacity(config.sessions);

    // Market distributions are month-resolution; cache one per month.
    let months_spanned = (config.days as i32 / 30) + 1;
    let markets: Vec<Vec<(UserAgent, f64)>> = (0..=months_spanned)
        .map(|m| {
            let month = config.start.plus_months(m).min(config.market_horizon);
            market_at(month)
        })
        .collect();

    // Simulated browsers repeat (≈5 000 distinct instances in the paper's
    // 205 000 sessions), so each distinct one runs the probes once: the
    // map holds the index of the first session built from it, and later
    // sessions copy that session's values. Keyed by the whole instance,
    // so it stays right whatever fields a probe reads; only ever looked
    // up, never iterated, so its order cannot reach the output.
    let mut first_session: BTreeMap<BrowserInstance, usize> = BTreeMap::new();

    for i in 0..config.sessions {
        let day = (i as u64 * config.days as u64 / config.sessions.max(1) as u64) as u16;
        let month_idx = (day / 30) as usize;
        let date = config.start.plus_months(month_idx as i32);
        let market = &markets[month_idx.min(markets.len() - 1)];

        let class = rng.gen::<f64>();
        let (browser, truth) = if class < config.fraud_rate {
            fraud_session(&products, market, &mut rng)
        } else if class < config.fraud_rate + config.tor_rate {
            tor_session(market, date)
        } else if class < config.fraud_rate + config.tor_rate + config.brave_rate {
            brave_session(market, &mut rng)
        } else {
            legitimate_session(market, config, &mut rng)
        };

        let claimed = browser.claimed_user_agent();
        let tags = draw_tags(&truth, &browser, &mut rng);
        let values = match first_session.entry(browser) {
            Entry::Occupied(first) => sessions[*first.get()].values.clone(),
            Entry::Vacant(slot) => {
                let values = feature_set.extract(slot.key()).values().to_vec();
                slot.insert(sessions.len());
                values
            }
        };
        sessions.push(Session {
            session_id: rng.gen(),
            date,
            day,
            claimed,
            values,
            tags,
            truth,
        });
    }
    TrafficDataset {
        sessions,
        feature_set: feature_set.clone(),
    }
}

/// A genuine browser with population-realistic configuration noise.
fn legitimate_session(
    market: &[(UserAgent, f64)],
    config: &TrafficConfig,
    rng: &mut ChaCha8Rng,
) -> (BrowserInstance, GroundTruth) {
    let ua = sample_release(market, rng);
    // A slice of genuine traffic is mid-update: the engine has rolled one
    // version forward while the reported user-agent lags. At cluster-era
    // boundaries this produces the paper's benign low-risk-factor flags.
    if rng.gen::<f64>() < config.update_skew_rate {
        let engine = Engine::for_genuine(UserAgent::new(ua.vendor, ua.version + 1));
        let b = BrowserInstance::with_engine(engine, ua);
        return (b, GroundTruth::UpdateSkew);
    }
    // Chrome 119 shipped its shape changes behind a staged field trial: a
    // slice of its population still answers probes with the previous-era
    // shapes (Edge 119 took the finished shapes wholesale). This is the
    // Table 6 Chrome-119 accuracy dip.
    if ua.vendor == Vendor::Chrome
        && ua.version >= 119
        && rng.gen::<f64>() < config.field_trial_rate
    {
        let b = BrowserInstance::with_engine(Engine::blink(113), ua);
        return (b, GroundTruth::Legitimate { perturbed: true });
    }
    let mut b = BrowserInstance::genuine(ua);
    let mut perturbed = false;

    // The long tail of prototype-touching extensions: ~6% of users run
    // one, drawn from a population of 256 distinct extensions. This is
    // the within-user-agent diversity behind Figure 5's anonymity sets.
    if rng.gen::<f64>() < 0.06 {
        b = b.perturbed(Perturbation::MiscExtension { seed: rng.gen() });
        perturbed = true;
    }
    match ua.vendor {
        Vendor::Chrome | Vendor::Edge => {
            if rng.gen::<f64>() < 0.03 {
                b = b.perturbed(Perturbation::ChromeExtensionDuckDuckGo);
                perturbed = true;
            }
        }
        Vendor::Firefox => {
            if rng.gen::<f64>() < 0.015 {
                b = b.perturbed(Perturbation::FirefoxDisableServiceWorkers);
                perturbed = true;
            }
            if rng.gen::<f64>() < 0.008 {
                b = b.perturbed(Perturbation::FirefoxTransformGetters);
                perturbed = true;
            }
        }
    }
    if rng.gen::<f64>() < 0.01 {
        b = b.perturbed(Perturbation::DisableWebRtc);
        perturbed = true;
    }
    (b, GroundTruth::Legitimate { perturbed })
}

/// Brave: claims plain Chrome of the same version, runs Blink with shield
/// deltas (§6.3).
fn brave_session(
    market: &[(UserAgent, f64)],
    rng: &mut ChaCha8Rng,
) -> (BrowserInstance, GroundTruth) {
    // Brave users run recent Chromium; resample until a Chrome UA comes up.
    let mut ua = sample_release(market, rng);
    for _ in 0..16 {
        if ua.vendor == Vendor::Chrome {
            break;
        }
        ua = sample_release(market, rng);
    }
    let ua = UserAgent::new(Vendor::Chrome, ua.version);
    // Roughly a third of Brave users run the aggressive shield level,
    // whose heavier API trimming lands between release eras — the
    // benign-but-flagged population that dilutes the paper's flagged
    // batch (Table 4's 78%/75%/2% rates are far below the fraud slice's).
    let shields = if rng.gen::<f64>() < 0.3 {
        Perturbation::BraveAggressiveShields
    } else {
        Perturbation::BraveShields
    };
    let b = BrowserInstance::genuine(ua).perturbed(shields);
    (b, GroundTruth::PrivacyFork { product: "Brave" })
}

/// Tor: claims the Firefox 102 ESR while running a year-older Gecko with
/// privacy patches — exactly the §6.3 observation ("a user-agent string
/// aligning with Firefox version 102, yet the attribute values
/// significantly deviated... nearly a year behind"). Tor stayed on the
/// 102 line well into late 2023, covering both simulated windows.
fn tor_session(market: &[(UserAgent, f64)], date: SimDate) -> (BrowserInstance, GroundTruth) {
    let _ = (market, date);
    let claimed = UserAgent::new(Vendor::Firefox, 102);
    let engine = Engine::gecko(91); // the ESR base Tor actually tracked
    let b = BrowserInstance::with_engine(engine, claimed).perturbed(Perturbation::TorPatches);
    (b, GroundTruth::TorBrowser)
}

/// A fraud browser loading a stolen profile whose UA mirrors the victim
/// population.
fn fraud_session(
    products: &[FraudProduct],
    market: &[(UserAgent, f64)],
    rng: &mut ChaCha8Rng,
) -> (BrowserInstance, GroundTruth) {
    // Product popularity in underground usage: category-2 tools dominate.
    let weights: Vec<(usize, f64)> = products
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let w = match (p.name, p.category.number()) {
                ("GoLogin", _) => 0.18,
                ("Octo Browser", _) => 0.18,
                ("Incogniton", _) => 0.14,
                ("Sphere", _) => 0.09,
                ("Linken Sphere", _) => 0.09,
                ("ClonBrowser", _) => 0.09,
                ("VMLogin", _) => 0.05,
                ("CheBrowser", _) => 0.05,
                ("AntBrowser", _) => 0.03,
                ("AdsPower", _) => 0.05, // two catalog entries -> 0.10 total
                _ => 0.01,
            };
            (i, w)
        })
        .collect();
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut target = rng.gen::<f64>() * total;
    let mut chosen = 0usize;
    for &(i, w) in &weights {
        if target < w {
            chosen = i;
            break;
        }
        target -= w;
    }
    let product = products[chosen].clone();
    let victim_ua = sample_release(market, rng);
    let category = product.category.number();
    let name = product.name.to_string();
    let profile = FraudProfile::new(product, victim_ua);
    (
        profile.instantiate(),
        GroundTruth::FraudBrowser {
            product: name,
            category,
        },
    )
}

/// Draws FinOrg's risk tags conditioned on what the session actually is.
///
/// Base rates reproduce Table 4's "All users" row; the fraud slice gets
/// the enrichment that makes the flagged rows of Table 4 possible.
fn draw_tags(truth: &GroundTruth, browser: &BrowserInstance, rng: &mut ChaCha8Rng) -> Tags {
    let (p_ip, p_cookie, p_ato) = match truth {
        GroundTruth::Legitimate { .. }
        | GroundTruth::PrivacyFork { .. }
        | GroundTruth::UpdateSkew => (0.50, 0.48, 0.0042),
        // Tor exits are unfamiliar IPs almost by definition.
        GroundTruth::TorBrowser => (0.92, 0.75, 0.0042),
        GroundTruth::FraudBrowser { category, .. } => {
            let cross_vendor =
                browser.claimed_user_agent().vendor != browser.engine().default_user_agent().vendor;
            match (category, cross_vendor) {
                // Bolder spoofs correlate with confirmed ATO.
                (1 | 2, true) => (0.97, 0.92, 0.06),
                (1 | 2, false) => (0.96, 0.90, 0.032),
                // Category 3/4: still fraud infrastructure, still mostly
                // unfamiliar IPs/cookies, caught by other signals at times.
                _ => (0.92, 0.86, 0.03),
            }
        }
    };
    Tags {
        untrusted_ip: rng.gen::<f64>() < p_ip,
        untrusted_cookie: rng.gen::<f64>() < p_cookie,
        ato: rng.gen::<f64>() < p_ato,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TrafficConfig {
        TrafficConfig::paper_training().with_sessions(8_000)
    }

    #[test]
    fn generator_is_deterministic() {
        let fs = FeatureSet::table8();
        let a = generate(&fs, &small_config());
        let b = generate(&fs, &small_config());
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.session_id, y.session_id);
            assert_eq!(x.values, y.values);
            assert_eq!(x.tags, y.tags);
        }
    }

    #[test]
    fn base_tag_rates_match_table4_row1() {
        let fs = FeatureSet::table8();
        let data = generate(&fs, &TrafficConfig::paper_training().with_sessions(30_000));
        let n = data.sessions.len() as f64;
        let ip = data.sessions.iter().filter(|s| s.tags.untrusted_ip).count() as f64 / n;
        let cookie = data
            .sessions
            .iter()
            .filter(|s| s.tags.untrusted_cookie)
            .count() as f64
            / n;
        let ato = data.sessions.iter().filter(|s| s.tags.ato).count() as f64 / n;
        assert!((ip - 0.51).abs() < 0.02, "Untrusted_IP ≈ 51%, got {ip}");
        assert!(
            (cookie - 0.49).abs() < 0.02,
            "Untrusted_Cookie ≈ 49%, got {cookie}"
        );
        assert!((ato - 0.0043).abs() < 0.002, "ATO ≈ 0.43%, got {ato}");
    }

    #[test]
    fn fraud_slice_is_small_and_enriched() {
        let fs = FeatureSet::table8();
        let data = generate(&fs, &TrafficConfig::paper_training().with_sessions(50_000));
        let fraud: Vec<&Session> = data
            .sessions
            .iter()
            .filter(|s| s.truth.is_fraud())
            .collect();
        let frac = fraud.len() as f64 / data.sessions.len() as f64;
        assert!(
            (0.001..0.004).contains(&frac),
            "fraud rate ≈ 0.22%, got {frac}"
        );
        let fraud_ip =
            fraud.iter().filter(|s| s.tags.untrusted_ip).count() as f64 / fraud.len() as f64;
        assert!(
            fraud_ip > 0.9,
            "fraud sessions are overwhelmingly untrusted-IP"
        );
    }

    #[test]
    fn window_has_paper_scale_ua_diversity() {
        let fs = FeatureSet::table8();
        let data = generate(&fs, &TrafficConfig::paper_training().with_sessions(40_000));
        let distinct = data.distinct_user_agents();
        assert!(
            (90..160).contains(&distinct),
            "the paper saw 113 distinct releases; got {distinct}"
        );
    }

    #[test]
    fn detectable_fraud_has_inconsistent_fingerprints() {
        let fs = FeatureSet::table8();
        let data = generate(&fs, &TrafficConfig::paper_training().with_sessions(50_000));
        // Category-1/2 fraud sessions' fingerprints mostly differ from a
        // genuine browser with the same claimed UA. Not all: a category-2
        // product whose embedded core shares the claimed UA's coarse
        // feature cluster is indistinguishable — the paper's own false
        // negatives (Table 5) — so check the population rate rather than
        // a small draw-order-sensitive prefix.
        let detectable: Vec<&Session> = data
            .sessions
            .iter()
            .filter(|s| s.truth.is_detectable_fraud())
            .collect();
        assert!(
            detectable.len() >= 50,
            "need a meaningful fraud slice, got {}",
            detectable.len()
        );
        let differing = detectable
            .iter()
            .filter(|s| {
                let genuine = fs.extract(&BrowserInstance::genuine(s.claimed));
                genuine.values() != s.values.as_slice()
            })
            .count();
        let rate = differing as f64 / detectable.len() as f64;
        assert!(
            rate >= 0.7,
            "most detectable fraud must differ, got {differing}/{}",
            detectable.len()
        );
    }

    #[test]
    fn drift_window_contains_late_releases() {
        let fs = FeatureSet::table8();
        let data = generate(&fs, &TrafficConfig::drift_window().with_sessions(30_000));
        let has_119 = data
            .sessions
            .iter()
            .any(|s| s.claimed.vendor == Vendor::Chrome && s.claimed.version == 119);
        assert!(has_119, "late-October window must include Chrome 119");
        let has_fx119 = data
            .sessions
            .iter()
            .any(|s| s.claimed.vendor == Vendor::Firefox && s.claimed.version == 119);
        assert!(has_fx119, "window must include Firefox 119");
    }

    #[test]
    fn sessions_are_day_ordered_with_unique_ids() {
        let fs = FeatureSet::table8();
        let data = generate(&fs, &small_config());
        for w in data.sessions.windows(2) {
            assert!(w[0].day <= w[1].day);
        }
        let mut ids: Vec<[u8; 16]> = data.sessions.iter().map(|s| s.session_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), data.sessions.len(), "session ids must be unique");
    }
}
