//! The simulators' output, pinned to constants.
//!
//! Every fitted model in this repository is a function of generated
//! traffic, so a change to a generator moves `tests/fit_bytes.rs` and
//! `tests/kernel_bytes.rs` as surely as a kernel bug does, and looks like
//! one. These pins hold the generators on their own, so the next drift
//! fails here, at its cause: the session generator for both of its
//! windows (as configured, and with every rare kind of browser made
//! common), the two synthetic sweeps of Appendix-5, every fraud profile
//! of the §7.2 plan, and the wire frames the generated sessions encode
//! to. Each test renders what it pins as text, one line per session,
//! launch or profile, and hashes it with `fnv1a64`; the frames are
//! hashed as the bytes they are.

use browser_polygraph::fingerprint::wire::{MAX_UA_LEN, MAX_VALUES};
use browser_polygraph::fingerprint::{
    encode_submission, fnv1a64, FeatureSet, Submission, WireError,
};
use browser_polygraph::fraud::{table1_products, ProfilePlan};
use browser_polygraph::traffic::synthetic::{macos_sweep, windows_sweep, SyntheticSample};
use browser_polygraph::traffic::{generate, Session, TrafficConfig};

/// Sessions per generated window.
const SESSIONS: usize = 2_000;

/// `paper_training()` then `drift_window()`, [`SESSIONS`] each: every
/// session's values, claimed user-agent and ground truth.
const GENERATE_PINS: [u64; 2] = [0x5c50_1825_c63b_9040, 0x3154_f6e1_0e5e_fcbf];

/// [`perturbation_heavy_windows`], rendered as [`GENERATE_PINS`] are.
const PERTURBED_PINS: [u64; 2] = [0x0a63_6733_e2ca_0cb6, 0x248c_720c_bfa5_d351];

/// `paper_training()` at its own 205 000 sessions, rendered as
/// [`GENERATE_PINS`] are.
const PAPER_SCALE_PIN: u64 = 0x606b_545d_c977_8dcb;

/// Every session of the [`SESSIONS`]-session `paper_training()` window,
/// encoded as the collection script submits it, frames concatenated.
const FRAMES_PIN: u64 = 0x342e_905c_5937_322b;

/// `windows_sweep()` then `macos_sweep()`: every launch's user-agent and
/// Table 8 values.
const SWEEP_PINS: [u64; 2] = [0xca7b_526c_8d9f_53c7, 0x9755_2a70_a103_242d];

/// Every profile of `ProfilePlan::for_product` over `table1_products()`:
/// product, claimed user-agent and the Table 8 values of the instance.
const PROFILE_PIN: u64 = 0xb44b_05ad_4e08_7302;

/// The digest of one generated window: every session's values, claimed
/// user-agent and ground truth.
fn window_digest(features: &FeatureSet, config: &TrafficConfig) -> u64 {
    let rendered: String = generate(features, config)
        .sessions
        .iter()
        .map(|s| format!("{:?} {:?} {:?}\n", s.values, s.claimed, s.truth))
        .collect();
    fnv1a64(rendered.as_bytes())
}

/// Both windows with every rare kind of simulated browser sixteen times
/// as common: `paper_training()` with fraud products, Tor, Brave's
/// shields and engine/user-agent skew ×16, and `drift_window()` with the
/// Chrome 119 field trial ×16 — so every instance the generator can build
/// (extensions and the Firefox/Chrome/WebRTC perturbations included)
/// occurs many times over in [`SESSIONS`] sessions.
fn perturbation_heavy_windows() -> [TrafficConfig; 2] {
    let mut paper = TrafficConfig::paper_training().with_sessions(SESSIONS);
    paper.fraud_rate *= 16.0;
    paper.tor_rate *= 16.0;
    paper.brave_rate *= 16.0;
    paper.update_skew_rate *= 16.0;
    let mut drift = TrafficConfig::drift_window().with_sessions(SESSIONS);
    drift.field_trial_rate *= 16.0;
    [paper, drift]
}

/// The submission the collection script sends for `session`.
fn submission(session: &Session) -> Submission {
    Submission {
        session_id: session.session_id,
        user_agent: session.claimed.to_ua_string(),
        values: session.values.clone(),
    }
}

#[test]
fn generated_sessions_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    let windows = [
        TrafficConfig::paper_training(),
        TrafficConfig::drift_window(),
    ];
    let got: Vec<u64> = windows
        .iter()
        .map(|config| window_digest(&features, &config.clone().with_sessions(SESSIONS)))
        .collect();
    assert_eq!(got, GENERATE_PINS, "{got:#018x?}");
}

#[test]
fn perturbation_heavy_sessions_match_the_recorded_constants() {
    let features = FeatureSet::table8();
    let got = perturbation_heavy_windows().map(|config| window_digest(&features, &config));
    assert_eq!(got, PERTURBED_PINS, "{got:#018x?}");
}

/// The whole paper-scale window. Ignored by default (a debug build takes
/// seconds); CI runs it in release beside the paper-scale fit pin.
#[test]
#[ignore = "paper scale: run with --release -- --include-ignored"]
fn paper_scale_sessions_match_the_recorded_constant() {
    let got = window_digest(&FeatureSet::table8(), &TrafficConfig::paper_training());
    assert_eq!(got, PAPER_SCALE_PIN, "{got:#018x}");
}

/// The encoder's bytes, not just its round trip: the decoder accepts
/// over-long varints, so a frame that changed but still decodes passes
/// every round-trip property and fails here. The three refusals are
/// pinned with their exact payloads.
#[test]
fn encoded_frames_and_refusals_match_the_recorded_constants() {
    let window = generate(
        &FeatureSet::table8(),
        &TrafficConfig::paper_training().with_sessions(SESSIONS),
    );
    let mut frames = Vec::new();
    for session in &window.sessions {
        frames.extend_from_slice(
            &encode_submission(&submission(session)).expect("a Table 8 session encodes"),
        );
    }
    let got = fnv1a64(&frames);
    assert_eq!(got, FRAMES_PIN, "{got:#018x}");

    let base = submission(&window.sessions[0]);
    let refusals = [
        Submission {
            user_agent: "u".repeat(MAX_UA_LEN + 1),
            ..base.clone()
        },
        Submission {
            values: vec![1; MAX_VALUES + 1],
            ..base.clone()
        },
        Submission {
            values: vec![u32::MAX; 300],
            ..base
        },
    ]
    .map(|sub| encode_submission(&sub).map(|frame| frame.len()));
    assert_eq!(
        refusals,
        [
            Err(WireError::UserAgentTooLong(513)),
            Err(WireError::TooManyValues(1025)),
            Err(WireError::OverBudget(1603)),
        ]
    );
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
