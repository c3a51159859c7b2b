//! Release adoption: which browsers are actually in use on a given day.
//!
//! FinOrg's traffic is dominated by recent Chrome with a long tail of old
//! releases (the paper saw 113 distinct releases in 4.5 months, some with
//! fewer than 100 sessions — the Chrome 81 / Edge 17 problem of §6.4.3).
//! The model: a vendor share times an adoption curve that spikes on the
//! newest releases and decays into a heavy tail.

use browser_engine::catalog::{releases_by, SimDate};
use browser_engine::{UserAgent, Vendor};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Desktop vendor shares in the simulated traffic.
pub fn vendor_share(vendor: Vendor) -> f64 {
    match vendor {
        Vendor::Chrome => 0.62,
        Vendor::Firefox => 0.26,
        Vendor::Edge => 0.12,
    }
}

/// Relative adoption weight of a release at `date`.
///
/// Three regimes, matching what FinOrg-style traffic actually looks like:
/// a fast-decaying spike (auto-updating users on the newest releases), a
/// mid-age tail (update laggards), and *legacy pins* — a sparse set of old
/// versions kept alive by enterprise images and kiosks. Pins are what give
/// the paper its sparse old user-agents ("in some cases less than 100
/// instances", §6.4.3); EdgeHTML survives exclusively as a pin.
pub fn adoption_weight(ua: UserAgent, date: SimDate) -> f64 {
    let age = browser_engine::catalog::release_date(ua)
        .months_until(date)
        .max(0) as f64;
    let spike = (-age / 1.2).exp();
    let mid_tail = 0.01 * (-age / 9.0).exp();
    let pinned = if ua.vendor == Vendor::Edge && ua.version < 20 {
        0.004 // EdgeHTML kiosks
    } else if release_is_pinned(ua) {
        0.002
    } else {
        0.0
    };
    vendor_share(ua.vendor) * (spike + mid_tail + pinned)
}

/// Marks a release as enterprise-pinned: the well-known long-lived
/// builds (Firefox ESR line, last-XP Chrome, kiosk images) plus ~1 in 8
/// of the remaining releases, deterministically.
fn release_is_pinned(ua: UserAgent) -> bool {
    const KNOWN_PINS: [(Vendor, u32); 8] = [
        (Vendor::Chrome, 63),   // kiosk images
        (Vendor::Chrome, 72),   // last Win7-era enterprise rollout
        (Vendor::Chrome, 87),   // WebView-pinned
        (Vendor::Firefox, 52),  // last XP release
        (Vendor::Firefox, 68),  // ESR
        (Vendor::Firefox, 78),  // ESR
        (Vendor::Firefox, 91),  // ESR
        (Vendor::Firefox, 102), // ESR
    ];
    if KNOWN_PINS.contains(&(ua.vendor, ua.version)) {
        return true;
    }
    let code = match ua.vendor {
        Vendor::Chrome => 1u64,
        Vendor::Firefox => 2,
        Vendor::Edge => 3,
    } * 1_000
        + ua.version as u64;
    code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0
}

/// The distribution of releases in use at `date`: `(release, weight)`
/// pairs with weights summing to 1.
pub fn market_at(date: SimDate) -> Vec<(UserAgent, f64)> {
    let mut entries: Vec<(UserAgent, f64)> = releases_by(date)
        .into_iter()
        .map(|r| (r.ua, adoption_weight(r.ua, date)))
        .collect();
    let total: f64 = entries.iter().map(|(_, w)| w).sum();
    for (_, w) in &mut entries {
        *w /= total;
    }
    entries
}

/// Samples one release from the market distribution at `date`.
pub fn sample_release(market: &[(UserAgent, f64)], rng: &mut ChaCha8Rng) -> UserAgent {
    let mut target = rng.gen::<f64>();
    for &(ua, w) in market {
        if target < w {
            return ua;
        }
        target -= w;
    }
    market
        .last()
        .expect("market is never empty after the first release")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn market_weights_sum_to_one() {
        let m = market_at(SimDate::new(2023, 3));
        let sum: f64 = m.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(m.len() > 100, "long catalog by 2023, got {}", m.len());
    }

    #[test]
    fn newest_releases_dominate() {
        let date = SimDate::new(2023, 3);
        let m = market_at(date);
        let newest_chrome = m
            .iter()
            .filter(|(ua, _)| ua.vendor == Vendor::Chrome && ua.version >= 109)
            .map(|(_, w)| w)
            .sum::<f64>();
        assert!(
            newest_chrome > 0.3,
            "recent Chrome must dominate, got {newest_chrome}"
        );
    }

    #[test]
    fn old_releases_form_a_thin_tail() {
        let date = SimDate::new(2023, 3);
        let m = market_at(date);
        let edgehtml: f64 = m
            .iter()
            .filter(|(ua, _)| ua.vendor == Vendor::Edge && ua.version < 20)
            .map(|(_, w)| w)
            .sum();
        assert!(edgehtml > 0.0, "EdgeHTML never fully dies");
        assert!(
            edgehtml < 0.02,
            "EdgeHTML stays under 2% (§6.4.3), got {edgehtml}"
        );
    }

    #[test]
    fn sampling_respects_weights_roughly() {
        let date = SimDate::new(2023, 3);
        let m = market_at(date);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 20_000;
        let chrome_frac = (0..n)
            .filter(|_| sample_release(&m, &mut rng).vendor == Vendor::Chrome)
            .count() as f64
            / n as f64;
        assert!((chrome_frac - 0.62).abs() < 0.03, "got {chrome_frac}");
    }

    #[test]
    fn market_produces_many_distinct_uas_in_sampling() {
        // The paper saw 113 distinct releases in its window.
        let date = SimDate::new(2023, 5);
        let m = market_at(date);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50_000 {
            seen.insert(sample_release(&m, &mut rng));
        }
        assert!(
            seen.len() > 90,
            "expected ~100+ distinct releases, got {}",
            seen.len()
        );
    }
}
