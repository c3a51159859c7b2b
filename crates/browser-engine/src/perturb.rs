//! Configuration perturbations: why identical browsers disagree.
//!
//! The paper's pre-processing stage (§6.3) traces inconsistent feature
//! values among *identical* browser versions to user configuration:
//! Firefox `about:config` switches, Chrome extensions, Chromium forks such
//! as Brave, and the Tor Browser. This module models each named example so
//! the pipeline has the same noise to contend with — and the same reason
//! to drop config-sensitive features.

use crate::engine::EngineFamily;
use crate::protodb::shape_class;
use crate::protodb::ShapeClass;
use serde::{Deserialize, Serialize};

/// A modification a user (or a derivative product) applies on top of a
/// stock engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Perturbation {
    /// Firefox `dom.serviceWorkers.enabled = false`: zeroes every
    /// `ServiceWorker*` interface (the paper's first example).
    FirefoxDisableServiceWorkers,
    /// Firefox `dom.element.transform-getters.enabled` toggled: shifts
    /// properties exposed through `Element` (the paper's second example).
    FirefoxTransformGetters,
    /// The DuckDuckGo Chrome extension: adds two custom properties to
    /// `Element` (the paper's measured example — "+2 on one feature").
    ChromeExtensionDuckDuckGo,
    /// A generic WebRTC-blocking configuration: zeroes `RTC*` interfaces.
    DisableWebRtc,
    /// Brave's fingerprinting shields: small deltas on a few interfaces
    /// while the UA still claims plain Chrome (§6.3 "Brave").
    BraveShields,
    /// Brave's *aggressive* shield level: heavier API trimming that can
    /// push the shape a whole release-era over — a benign source of
    /// flagged sessions.
    BraveAggressiveShields,
    /// Tor Browser patches on top of an (older) Gecko: aggressive API
    /// removal while the UA claims the current Firefox ESR (§6.3 "Tor").
    TorPatches,
    /// A staged Blink field-trial arm: Chrome rolls some shape changes out
    /// gradually, so a slice of a release's population reports shifted
    /// counts (models the Chrome 119 accuracy dip of Table 6).
    BlinkFieldTrial,
    /// One of the long tail of browser extensions that add properties to
    /// DOM prototypes (password managers, ad blockers, accessibility
    /// tools). Each `seed` stands for a different extension, bumping one
    /// or two interfaces by a couple of properties — the population-level
    /// diversity behind the paper's anonymity-set histogram (Figure 5).
    MiscExtension {
        /// Which extension of the tail this is.
        seed: u8,
    },
    /// A category-1 fraud product's home-grown spoofing layer: shifts many
    /// prototype counts by product-specific pseudo-random deltas, yielding
    /// a fingerprint that matches *no* legitimate browser (§2.3, Cat. 1).
    /// The seed distinguishes products (Linken Sphere vs ClonBrowser).
    FingerprintDistortion {
        /// Product-specific distortion seed.
        seed: u8,
    },
}

impl Perturbation {
    /// Whether this perturbation can occur on the given engine family.
    pub fn applies_to(self, family: EngineFamily) -> bool {
        match self {
            Perturbation::FirefoxDisableServiceWorkers | Perturbation::FirefoxTransformGetters => {
                family == EngineFamily::Gecko
            }
            Perturbation::ChromeExtensionDuckDuckGo
            | Perturbation::BraveShields
            | Perturbation::BraveAggressiveShields
            | Perturbation::BlinkFieldTrial => family == EngineFamily::Blink,
            Perturbation::DisableWebRtc => family != EngineFamily::EdgeHtml,
            Perturbation::TorPatches => family == EngineFamily::Gecko,
            Perturbation::MiscExtension { .. } => family != EngineFamily::EdgeHtml,
            Perturbation::FingerprintDistortion { .. } => true,
        }
    }

    /// The delta this perturbation applies to `proto`'s own-property count.
    ///
    /// `Zero` forces the count to 0 (interface removed); `Add` shifts it
    /// (clamped at zero by the caller).
    pub fn count_effect(self, proto: &str) -> CountEffect {
        use CountEffect::*;
        match self {
            Perturbation::FirefoxDisableServiceWorkers => {
                if proto.starts_with("ServiceWorker") {
                    Zero
                } else {
                    Add(0)
                }
            }
            Perturbation::FirefoxTransformGetters => match proto {
                "Element" => Add(-3),
                _ => Add(0),
            },
            Perturbation::ChromeExtensionDuckDuckGo => match proto {
                "Element" => Add(2),
                _ => Add(0),
            },
            Perturbation::DisableWebRtc => {
                if proto.starts_with("RTC") {
                    Zero
                } else {
                    Add(0)
                }
            }
            Perturbation::BraveShields => match proto {
                "Element" => Add(-4),
                "Navigator" => Add(-2),
                "CanvasRenderingContext2D" => Add(-1),
                _ => Add(0),
            },
            Perturbation::BraveAggressiveShields => match proto {
                "Element" => Add(-12),
                "Document" => Add(-7),
                "HTMLElement" => Add(-5),
                "SVGElement" => Add(-4),
                "CanvasRenderingContext2D" => Add(-3),
                "WebGL2RenderingContext" => Add(-6),
                "Navigator" => Add(-3),
                _ => Add(0),
            },
            Perturbation::TorPatches => {
                // Tor strips every config-sensitive surface and trims
                // fingerprinting-prone interfaces.
                if shape_class(proto) == ShapeClass::ConfigSensitive {
                    Zero
                } else {
                    match proto {
                        "Element" => Add(-6),
                        "Navigator" => Add(-5),
                        "CanvasRenderingContext2D" => Add(-4),
                        "WebGLRenderingContext" | "WebGL2RenderingContext" => Add(-8),
                        _ => Add(0),
                    }
                }
            }
            Perturbation::BlinkFieldTrial => match proto {
                // Mid-rollout shape churn on the hot interfaces.
                "Element" => Add(-9),
                "Document" => Add(-5),
                "HTMLElement" => Add(-4),
                "SVGElement" => Add(-3),
                _ => Add(0),
            },
            Perturbation::MiscExtension { seed } => {
                // Each extension touches one or two of the commonly
                // content-scripted interfaces by +1..+3 properties.
                const TOUCHABLE: [&str; 8] = [
                    "Element",
                    "Document",
                    "HTMLElement",
                    "HTMLInputElement",
                    "HTMLMediaElement",
                    "CanvasRenderingContext2D",
                    "ShadowRoot",
                    "Range",
                ];
                let h = crate::protodb::fnv1a_pair(seed as u64, 0xE87);
                let first = (h % 8) as usize;
                let second = ((h >> 8) % 8) as usize;
                let delta1 = 1 + (h >> 16) % 3;
                let delta2 = (h >> 24) % 2; // often zero: single-surface extensions
                if proto == TOUCHABLE[first] {
                    Add(delta1 as i32)
                } else if proto == TOUCHABLE[second] && second != first {
                    Add(delta2 as i32)
                } else {
                    Add(0)
                }
            }
            Perturbation::FingerprintDistortion { seed } => {
                // Product-specific pseudo-random shift in -3..=3 per
                // prototype; across the 22 deviation features this lands
                // the fingerprint between the legitimate shapes.
                let h = crate::protodb::fnv1a_pair(
                    crate::protodb::fnv1a(proto.as_bytes()),
                    seed as u64,
                );
                Add((h % 7) as i32 - 3)
            }
        }
    }
}

/// Effect of a perturbation on one prototype's count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountEffect {
    /// Remove the interface entirely.
    Zero,
    /// Shift the count by a signed delta.
    Add(i32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_worker_disable_zeroes_sw_interfaces() {
        let p = Perturbation::FirefoxDisableServiceWorkers;
        assert_eq!(
            p.count_effect("ServiceWorkerRegistration"),
            CountEffect::Zero
        );
        assert_eq!(p.count_effect("ServiceWorkerContainer"), CountEffect::Zero);
        assert_eq!(p.count_effect("Element"), CountEffect::Add(0));
    }

    #[test]
    fn duckduckgo_adds_two_to_element() {
        let p = Perturbation::ChromeExtensionDuckDuckGo;
        assert_eq!(p.count_effect("Element"), CountEffect::Add(2));
        assert_eq!(p.count_effect("Document"), CountEffect::Add(0));
    }

    #[test]
    fn family_applicability() {
        use EngineFamily::*;
        assert!(Perturbation::FirefoxDisableServiceWorkers.applies_to(Gecko));
        assert!(!Perturbation::FirefoxDisableServiceWorkers.applies_to(Blink));
        assert!(Perturbation::ChromeExtensionDuckDuckGo.applies_to(Blink));
        assert!(!Perturbation::ChromeExtensionDuckDuckGo.applies_to(Gecko));
        assert!(Perturbation::DisableWebRtc.applies_to(Blink));
        assert!(Perturbation::DisableWebRtc.applies_to(Gecko));
        assert!(!Perturbation::DisableWebRtc.applies_to(EdgeHtml));
    }

    #[test]
    fn tor_zeroes_config_sensitive_surfaces() {
        let p = Perturbation::TorPatches;
        assert_eq!(p.count_effect("RTCPeerConnection"), CountEffect::Zero);
        assert_eq!(p.count_effect("PushManager"), CountEffect::Zero);
        assert_eq!(p.count_effect("Element"), CountEffect::Add(-6));
    }

    #[test]
    fn brave_shields_touch_few_features() {
        let p = Perturbation::BraveShields;
        let touched = crate::protodb::DEVIATION_PROTOTYPES
            .iter()
            .filter(|proto| p.count_effect(proto) != CountEffect::Add(0))
            .count();
        assert!(
            touched <= 4,
            "Brave must stay a *small* deviation, touched {touched}"
        );
    }
}
