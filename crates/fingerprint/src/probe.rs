//! Individual fingerprint probes.

use browser_engine::timebased::PresenceProbe;
use browser_engine::BrowserInstance;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The two feature families of the paper (Table 8's "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// `Object.getOwnPropertyNames(X.prototype).length` — selected by
    /// standard deviation across browsers.
    DeviationBased,
    /// `X.prototype.hasOwnProperty('y')` — selected because the property
    /// appears/disappears over browser history.
    TimeBased,
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FeatureKind::DeviationBased => "deviation-based",
            FeatureKind::TimeBased => "time-based",
        })
    }
}

/// One executable probe. Every probe yields a small non-negative integer:
/// a property count, or 0/1 for a presence bit — the only data the
/// collection script ever ships (Appendix A: "the fingerprints we
/// collected are only integer outputs").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Probe {
    /// Count the own properties of a prototype.
    Count {
        /// Interface name, e.g. `"Element"`.
        prototype: String,
    },
    /// Test a property's presence on a prototype.
    Presence(PresenceProbe),
}

impl Probe {
    /// A count probe for `prototype`.
    pub fn count(prototype: &str) -> Self {
        Probe::Count {
            prototype: prototype.into(),
        }
    }

    /// A presence probe.
    pub fn presence(prototype: &str, property: &str) -> Self {
        Probe::Presence(PresenceProbe::new(prototype, property))
    }

    /// Which feature family the probe belongs to.
    pub fn kind(&self) -> FeatureKind {
        match self {
            Probe::Count { .. } => FeatureKind::DeviationBased,
            Probe::Presence(_) => FeatureKind::TimeBased,
        }
    }

    /// The JavaScript expression this probe models (the paper's feature
    /// naming convention, e.g. Table 7/8).
    pub fn expression(&self) -> String {
        match self {
            Probe::Count { prototype } => {
                format!("Object.getOwnPropertyNames({prototype}.prototype).length")
            }
            Probe::Presence(p) => p.expression(),
        }
    }

    /// Executes the probe against a browser instance.
    pub fn execute(&self, browser: &BrowserInstance) -> u32 {
        match self {
            Probe::Count { prototype } => browser.own_property_count(prototype),
            Probe::Presence(p) => browser.has_own_property(p) as u32,
        }
    }
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.expression())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::{UserAgent, Vendor};

    #[test]
    fn count_probe_executes() {
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 110));
        let p = Probe::count("Element");
        let v = p.execute(&b);
        assert!(
            v.abs_diff(330) <= 2,
            "Element count near the authored 330, got {v}"
        );
        assert_eq!(p.kind(), FeatureKind::DeviationBased);
    }

    #[test]
    fn presence_probe_executes_as_bit() {
        let b = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 110));
        let p = Probe::presence("Navigator", "deviceMemory");
        assert_eq!(p.execute(&b), 1);
        let f = BrowserInstance::genuine(UserAgent::new(Vendor::Firefox, 110));
        assert_eq!(p.execute(&f), 0);
        assert_eq!(p.kind(), FeatureKind::TimeBased);
    }

    #[test]
    fn expressions_match_paper_convention() {
        assert_eq!(
            Probe::count("Element").expression(),
            "Object.getOwnPropertyNames(Element.prototype).length"
        );
        assert_eq!(
            Probe::presence("Screen", "orientation").expression(),
            "Screen.prototype.hasOwnProperty('orientation')"
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the test's subject is the Hash impl"
    )]
    fn probes_are_hashable_and_serializable() {
        use std::collections::HashSet;
        let set: HashSet<Probe> = [
            Probe::count("Element"),
            Probe::count("Element"),
            Probe::count("Range"),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        let json = serde_json::to_string(&Probe::count("Element")).unwrap();
        let back: Probe = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Probe::count("Element"));
    }
}
