//! The simulators' output, pinned to constants.
//!
//! Every fitted model in this repository is a function of generated
//! traffic, so a change to a generator moves `tests/fit_bytes.rs` and
//! `tests/kernel_bytes.rs` as surely as a kernel bug does, and looks like
//! one. These pins hold the generators on their own, so the next drift
//! fails here, at its cause: the session generator for both of its
//! windows, the two synthetic sweeps of Appendix-5, and every fraud
//! profile of the §7.2 plan. Each test renders what it pins as text, one
//! line per session, launch or profile, and hashes it with `fnv1a64`.

use browser_polygraph::fingerprint::{fnv1a64, FeatureSet};
use browser_polygraph::fraud::{table1_products, ProfilePlan};
use browser_polygraph::traffic::synthetic::{macos_sweep, windows_sweep, SyntheticSample};
use browser_polygraph::traffic::{generate, TrafficConfig};

/// Sessions per generated window.
const SESSIONS: usize = 2_000;

/// `paper_training()` then `drift_window()`, [`SESSIONS`] each: every
/// session's values, claimed user-agent and ground truth.
const GENERATE_PINS: [u64; 2] = [0x5c50_1825_c63b_9040, 0x3154_f6e1_0e5e_fcbf];

/// `windows_sweep()` then `macos_sweep()`: every launch's user-agent and
/// Table 8 values.
const SWEEP_PINS: [u64; 2] = [0xca7b_526c_8d9f_53c7, 0x9755_2a70_a103_242d];

/// Every profile of `ProfilePlan::for_product` over `table1_products()`:
/// product, claimed user-agent and the Table 8 values of the instance.
const PROFILE_PIN: u64 = 0xb44b_05ad_4e08_7302;

#[test]
fn generated_sessions_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    let windows = [
        TrafficConfig::paper_training(),
        TrafficConfig::drift_window(),
    ];
    let got: Vec<u64> = windows
        .iter()
        .map(|config| {
            let data = generate(&features, &config.clone().with_sessions(SESSIONS));
            let rendered: String = data
                .sessions
                .iter()
                .map(|s| format!("{:?} {:?} {:?}\n", s.values, s.claimed, s.truth))
                .collect();
            fnv1a64(rendered.as_bytes())
        })
        .collect();
    assert_eq!(got, GENERATE_PINS, "{got:#018x?}");
}

#[test]
fn synthetic_sweeps_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    let digest = |sweep: Vec<SyntheticSample>| {
        let rendered: String = sweep
            .iter()
            .map(|s| format!("{:?} {:?}\n", s.ua, features.extract(&s.instance).values()))
            .collect();
        fnv1a64(rendered.as_bytes())
    };
    let got = [digest(windows_sweep()), digest(macos_sweep())];
    assert_eq!(got, SWEEP_PINS, "{got:#018x?}");
}

#[test]
fn fraud_profiles_match_the_recorded_constant() {
    let features = FeatureSet::table8();
    let rendered: String = table1_products()
        .iter()
        .flat_map(|product| ProfilePlan::for_product(product).profiles)
        .map(|p| {
            let values = features.extract(&p.instantiate());
            format!("{} {:?} {:?}\n", p.product.name, p.claimed, values.values())
        })
        .collect();
    let got = fnv1a64(rendered.as_bytes());
    assert_eq!(got, PROFILE_PIN, "{got:#018x}");
}
