//! A concrete browser instance: the thing a fingerprinting script probes.
//!
//! [`BrowserInstance`] combines an engine build with any number of
//! configuration perturbations and answers the two probe primitives the
//! paper's script uses:
//!
//! * `Object.getOwnPropertyNames(X.prototype).length` →
//!   [`BrowserInstance::own_property_count`]
//! * `X.prototype.hasOwnProperty('y')` →
//!   [`BrowserInstance::has_own_property`]
//!
//! It also reports the user-agent the instance *claims*, which for a
//! genuine browser matches its engine and for a fraud browser is whatever
//! the operator configured.

use crate::engine::Engine;
use crate::eras::Era;
use crate::perturb::{CountEffect, Perturbation};
use crate::protodb;
use crate::timebased::{self, PresenceProbe};
use crate::useragent::UserAgent;
use serde::{Deserialize, Serialize};

/// A probe-able browser instance.
///
/// Ordered field by field — engine, claim, perturbations in the order
/// they were applied, pollution — so a whole instance can key an ordered
/// map: two instances that compare equal answer every probe alike. (The
/// claim compares as [`UserAgent`] does, without its OS, which no probe
/// reads.)
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BrowserInstance {
    engine: Engine,
    claimed_user_agent: UserAgent,
    perturbations: Vec<Perturbation>,
    /// Extra own properties injected into the global namespace by the
    /// product itself (e.g. AntBrowser's `ANTBROWSER` object, §8) — fraud
    /// browsers are often *more* fingerprintable than stock ones.
    namespace_pollution: Vec<String>,
}

impl BrowserInstance {
    /// A genuine, unmodified browser whose claim matches its engine.
    pub fn genuine(ua: UserAgent) -> Self {
        Self {
            engine: Engine::for_genuine(ua),
            claimed_user_agent: ua,
            perturbations: Vec::new(),
            namespace_pollution: Vec::new(),
        }
    }

    /// An instance with an explicit engine and claim — the fraud-browser
    /// constructor.
    pub fn with_engine(engine: Engine, claimed: UserAgent) -> Self {
        Self {
            engine,
            claimed_user_agent: claimed,
            perturbations: Vec::new(),
            namespace_pollution: Vec::new(),
        }
    }

    /// Adds a configuration perturbation. Perturbations that do not apply
    /// to this engine family are ignored (a Firefox pref cannot be set on
    /// Chrome).
    pub fn perturbed(mut self, p: Perturbation) -> Self {
        if p.applies_to(self.engine.family) {
            self.perturbations.push(p);
        }
        self
    }

    /// Injects a product-specific global (namespace pollution).
    pub fn polluted(mut self, name: &str) -> Self {
        self.namespace_pollution.push(name.to_string());
        self
    }

    /// The engine actually running.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The era of the running engine.
    pub fn era(&self) -> Era {
        Era::of(self.engine)
    }

    /// The user-agent this instance claims in `navigator.userAgent`.
    pub fn claimed_user_agent(&self) -> UserAgent {
        self.claimed_user_agent
    }

    /// Whether the claim matches the engine — false for category-1/2 fraud
    /// configurations.
    pub fn is_consistent(&self) -> bool {
        Engine::for_genuine(self.claimed_user_agent) == self.engine
    }

    /// Active perturbations.
    pub fn perturbations(&self) -> &[Perturbation] {
        &self.perturbations
    }

    /// Product-injected global names (empty for stock browsers).
    pub fn namespace_pollution(&self) -> &[String] {
        &self.namespace_pollution
    }

    /// Answers `Object.getOwnPropertyNames(<proto>.prototype).length`.
    ///
    /// Returns 0 for interfaces this engine does not implement, exactly as
    /// the collection script records a guarded probe.
    pub fn own_property_count(&self, proto: &str) -> u32 {
        let Some(base) = protodb::own_property_count(proto, self.era()) else {
            return 0;
        };
        let mut count = base as i64;
        for p in &self.perturbations {
            match p.count_effect(proto) {
                CountEffect::Zero => return 0,
                CountEffect::Add(d) => count += d as i64,
            }
        }
        count.max(0) as u32
    }

    /// Answers `<proto>.prototype.hasOwnProperty('<prop>')`.
    pub fn has_own_property(&self, probe: &PresenceProbe) -> bool {
        timebased::has_own_property(self.engine, probe)
    }

    /// Answers `typeof window.<name> !== "undefined"` for product-injected
    /// globals — the fingerprintable namespace pollution of §8.
    pub fn has_global(&self, name: &str) -> bool {
        self.namespace_pollution.iter().any(|n| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::useragent::Vendor;

    #[test]
    fn genuine_instance_is_consistent() {
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 112));
        assert!(b.is_consistent());
        assert_eq!(b.engine(), Engine::blink(112));
    }

    #[test]
    fn spoofed_instance_is_inconsistent() {
        let b =
            BrowserInstance::with_engine(Engine::blink(95), UserAgent::new(Vendor::Firefox, 110));
        assert!(!b.is_consistent());
    }

    #[test]
    fn chrome_and_edge_answer_probes_identically() {
        let chrome = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 111));
        let edge = BrowserInstance::genuine(UserAgent::new(Vendor::Edge, 111));
        for proto in protodb::DEVIATION_PROTOTYPES {
            assert_eq!(
                chrome.own_property_count(proto),
                edge.own_property_count(proto),
                "{proto} must match across Blink-branded browsers"
            );
        }
    }

    #[test]
    fn missing_interfaces_probe_as_zero() {
        let old_edge = BrowserInstance::genuine(UserAgent::new(Vendor::Edge, 18));
        assert_eq!(old_edge.own_property_count("WebGL2RenderingContext"), 0);
        assert_eq!(old_edge.own_property_count("StaticRange"), 0);
        assert!(old_edge.own_property_count("Element") > 0);
    }

    #[test]
    fn duckduckgo_extension_increments_element_by_two() {
        let stock = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 111));
        let with_ext = stock
            .clone()
            .perturbed(Perturbation::ChromeExtensionDuckDuckGo);
        assert_eq!(
            with_ext.own_property_count("Element"),
            stock.own_property_count("Element") + 2
        );
        // Everything else untouched.
        assert_eq!(
            with_ext.own_property_count("Document"),
            stock.own_property_count("Document")
        );
    }

    #[test]
    fn firefox_pref_zeroes_service_workers() {
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Firefox, 110))
            .perturbed(Perturbation::FirefoxDisableServiceWorkers);
        assert_eq!(b.own_property_count("ServiceWorkerRegistration"), 0);
        assert_eq!(b.own_property_count("ServiceWorkerContainer"), 0);
    }

    #[test]
    fn inapplicable_perturbation_is_ignored() {
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 111))
            .perturbed(Perturbation::FirefoxDisableServiceWorkers);
        assert!(b.perturbations().is_empty());
        assert!(b.own_property_count("ServiceWorkerRegistration") > 0);
    }

    #[test]
    fn brave_differs_from_chrome_on_element_only_slightly() {
        // §6.3: Brave reports a Chrome UA but diverges on interfaces such
        // as Element.
        let chrome = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 111));
        let brave = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 111))
            .perturbed(Perturbation::BraveShields);
        assert!(brave.is_consistent(), "Brave claims Chrome and runs Blink");
        let diff = chrome.own_property_count("Element") as i64
            - brave.own_property_count("Element") as i64;
        assert_eq!(diff, 4);
    }

    #[test]
    fn tor_claims_modern_firefox_with_old_engine() {
        // §6.3: Tor's UA said Firefox 102 while its engine lagged ~a year.
        let tor =
            BrowserInstance::with_engine(Engine::gecko(91), UserAgent::new(Vendor::Firefox, 102))
                .perturbed(Perturbation::TorPatches);
        assert!(!tor.is_consistent());
        let genuine_102 = BrowserInstance::genuine(UserAgent::new(Vendor::Firefox, 102));
        assert_ne!(
            tor.own_property_count("Element"),
            genuine_102.own_property_count("Element")
        );
    }

    #[test]
    fn perturbation_never_underflows() {
        // Stack every count-reducing perturbation; counts must clamp at 0.
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Firefox, 102))
            .perturbed(Perturbation::TorPatches)
            .perturbed(Perturbation::FirefoxTransformGetters);
        for proto in protodb::DEVIATION_PROTOTYPES {
            let _ = b.own_property_count(proto); // must not panic
        }
    }

    #[test]
    fn namespace_pollution_is_observable() {
        let ant =
            BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 110)).polluted("ANTBROWSER");
        assert!(ant.has_global("ANTBROWSER"));
        assert!(!ant.has_global("OTHER"));
        let stock = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 110));
        assert!(!stock.has_global("ANTBROWSER"));
    }

    #[test]
    fn perturbation_order_does_not_matter() {
        // Count effects are Adds plus saturating Zeros, so any ordering of
        // the same perturbation set must answer identically — sessions do
        // not depend on the order extensions were installed in.
        use Perturbation::*;
        let perturbations = [
            ChromeExtensionDuckDuckGo,
            DisableWebRtc,
            MiscExtension { seed: 7 },
            BraveShields,
        ];
        let ua = UserAgent::new(Vendor::Chrome, 110);
        let forward = perturbations
            .iter()
            .fold(BrowserInstance::genuine(ua), |b, &p| b.perturbed(p));
        let backward = perturbations
            .iter()
            .rev()
            .fold(BrowserInstance::genuine(ua), |b, &p| b.perturbed(p));
        for proto in protodb::DEVIATION_PROTOTYPES {
            assert_eq!(
                forward.own_property_count(proto),
                backward.own_property_count(proto),
                "{proto} depends on perturbation order"
            );
        }
    }

    #[test]
    fn presence_probe_dispatches_to_engine() {
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 110));
        assert!(b.has_own_property(&PresenceProbe::new("Navigator", "deviceMemory")));
        let f = BrowserInstance::genuine(UserAgent::new(Vendor::Firefox, 110));
        assert!(!f.has_own_property(&PresenceProbe::new("Navigator", "deviceMemory")));
    }
}
