//! User-agent strings: the identity a browser *claims*.
//!
//! The paper's threat model assumes the attacker always sets the victim's
//! user-agent correctly (§4), so the user-agent is the one field the
//! detector treats as a *claim* to be verified, never as evidence.
//!
//! We model the desktop browsers the paper covers (Chrome, Firefox, Edge —
//! §8 "Verification of new browsers" explicitly scopes out mobile and
//! exotic engines) with faithful UA string formatting and a tolerant
//! parser.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Browser vendor as reported in the user-agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Vendor {
    /// Google Chrome.
    Chrome,
    /// Mozilla Firefox.
    Firefox,
    /// Microsoft Edge (both EdgeHTML- and Chromium-based).
    Edge,
}

impl Vendor {
    /// All vendors the detector knows about.
    pub const ALL: [Vendor; 3] = [Vendor::Chrome, Vendor::Firefox, Vendor::Edge];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Vendor::Chrome => "Chrome",
            Vendor::Firefox => "Firefox",
            Vendor::Edge => "Edge",
        }
    }
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Operating system as reported in the user-agent.
///
/// The coarse-grained features do not depend on the OS (property counts are
/// an engine attribute), which is exactly why the paper's fingerprints stay
/// below the user-agent's entropy. The OS still matters for UA formatting
/// and for the synthetic multi-OS sweeps of Appendix-5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Os {
    /// Windows 10.
    Windows10,
    /// Windows 11 (reported identically to Windows 10 in real UAs; kept
    /// distinct here for the Appendix-5 environment sweeps).
    Windows11,
    /// macOS Sonoma.
    MacOsSonoma,
    /// macOS Sequoia.
    MacOsSequoia,
    /// Desktop Linux.
    Linux,
}

impl Os {
    /// The UA platform token for this OS.
    pub fn ua_token(self) -> &'static str {
        match self {
            // Windows 11 deliberately reports "Windows NT 10.0".
            Os::Windows10 | Os::Windows11 => "Windows NT 10.0; Win64; x64",
            Os::MacOsSonoma => "Macintosh; Intel Mac OS X 10_15_7",
            Os::MacOsSequoia => "Macintosh; Intel Mac OS X 10_15_7",
            Os::Linux => "X11; Linux x86_64",
        }
    }
}

/// A parsed user-agent claim: vendor + major version + OS.
///
/// ```
/// use browser_engine::{UserAgent, Vendor};
///
/// let ua = UserAgent::new(Vendor::Chrome, 112);
/// let raw = ua.to_ua_string();
/// assert!(raw.contains("Chrome/112"));
/// let parsed: UserAgent = raw.parse().unwrap();
/// assert_eq!(parsed, ua);
/// assert_eq!(parsed.label(), "Chrome 112");
/// ```
///
/// Equality and hashing ignore the OS on purpose: the paper's cluster table
/// (Table 3) and the risk-factor algorithm (Algorithm 1) key on
/// vendor+version only.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UserAgent {
    /// Claimed vendor.
    pub vendor: Vendor,
    /// Claimed major version.
    pub version: u32,
    /// Claimed operating system.
    pub os: Os,
}

impl PartialEq for UserAgent {
    fn eq(&self, other: &Self) -> bool {
        self.vendor == other.vendor && self.version == other.version
    }
}
impl Eq for UserAgent {}

impl std::hash::Hash for UserAgent {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.vendor.hash(state);
        self.version.hash(state);
    }
}

impl PartialOrd for UserAgent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for UserAgent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.vendor, self.version).cmp(&(other.vendor, other.version))
    }
}

impl UserAgent {
    /// Creates a user-agent claim on Windows 10 (the dominant desktop OS in
    /// the paper's traffic; ~11% of daily sessions shared one Chrome-on-
    /// Windows-10 UA).
    pub fn new(vendor: Vendor, version: u32) -> Self {
        Self {
            vendor,
            version,
            os: Os::Windows10,
        }
    }

    /// Same claim on a specific OS.
    pub fn with_os(mut self, os: Os) -> Self {
        self.os = os;
        self
    }

    /// Short label such as `"Chrome 112"` — the form the paper's tables use.
    pub fn label(&self) -> String {
        format!("{} {}", self.vendor, self.version)
    }

    /// Renders the full `navigator.userAgent` string.
    pub fn to_ua_string(&self) -> String {
        let os = self.os.ua_token();
        match self.vendor {
            Vendor::Chrome => format!(
                "Mozilla/5.0 ({os}) AppleWebKit/537.36 (KHTML, like Gecko) \
                 Chrome/{v}.0.0.0 Safari/537.36",
                v = self.version
            ),
            Vendor::Edge => {
                if self.version < 79 {
                    // EdgeHTML-era UA carries both Chrome and Edge tokens.
                    format!(
                        "Mozilla/5.0 ({os}) AppleWebKit/537.36 (KHTML, like Gecko) \
                         Chrome/64.0.3282.140 Safari/537.36 Edge/{v}.17134",
                        v = self.version
                    )
                } else {
                    format!(
                        "Mozilla/5.0 ({os}) AppleWebKit/537.36 (KHTML, like Gecko) \
                         Chrome/{v}.0.0.0 Safari/537.36 Edg/{v}.0.0.0",
                        v = self.version
                    )
                }
            }
            Vendor::Firefox => format!(
                "Mozilla/5.0 ({os}; rv:{v}.0) Gecko/20100101 Firefox/{v}.0",
                v = self.version
            ),
        }
    }
}

/// Error returned when a user-agent string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UaParseError {
    /// The offending input (truncated for display).
    pub input: String,
}

impl fmt::Display for UaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognised user-agent: {:?}", self.input)
    }
}
impl std::error::Error for UaParseError {}

impl FromStr for UserAgent {
    type Err = UaParseError;

    /// Parses a raw `navigator.userAgent` string.
    ///
    /// Token priority follows real-world sniffing rules: `Edg/` and `Edge/`
    /// beat `Chrome/` (Chromium Edge carries both), and `Firefox/` is
    /// checked against a `Gecko/` engine token.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn version_after(s: &str, token: &str) -> Option<u32> {
            let start = s.find(token)? + token.len();
            let rest = &s[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
        let os = if s.contains("Windows NT") {
            Os::Windows10
        } else if s.contains("Mac OS X") {
            Os::MacOsSonoma
        } else {
            Os::Linux
        };
        let err = || UaParseError {
            input: s.chars().take(120).collect(),
        };

        if let Some(v) = version_after(s, "Edg/").or_else(|| version_after(s, "Edge/")) {
            return Ok(UserAgent {
                vendor: Vendor::Edge,
                version: v,
                os,
            });
        }
        if s.contains("Gecko/20100101") {
            if let Some(v) = version_after(s, "Firefox/") {
                return Ok(UserAgent {
                    vendor: Vendor::Firefox,
                    version: v,
                    os,
                });
            }
            return Err(err());
        }
        if let Some(v) = version_after(s, "Chrome/") {
            return Ok(UserAgent {
                vendor: Vendor::Chrome,
                version: v,
                os,
            });
        }
        Err(err())
    }
}

impl fmt::Display for UserAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_round_trip() {
        let ua = UserAgent::new(Vendor::Chrome, 112);
        let parsed: UserAgent = ua.to_ua_string().parse().unwrap();
        assert_eq!(parsed, ua);
        assert_eq!(parsed.version, 112);
    }

    #[test]
    fn firefox_round_trip() {
        let ua = UserAgent::new(Vendor::Firefox, 102).with_os(Os::Linux);
        let parsed: UserAgent = ua.to_ua_string().parse().unwrap();
        assert_eq!(parsed.vendor, Vendor::Firefox);
        assert_eq!(parsed.version, 102);
        assert_eq!(parsed.os, Os::Linux);
    }

    #[test]
    fn chromium_edge_not_mistaken_for_chrome() {
        let ua = UserAgent::new(Vendor::Edge, 110);
        let s = ua.to_ua_string();
        assert!(
            s.contains("Chrome/110"),
            "Edge UA carries a Chrome token: {s}"
        );
        let parsed: UserAgent = s.parse().unwrap();
        assert_eq!(parsed.vendor, Vendor::Edge);
        assert_eq!(parsed.version, 110);
    }

    #[test]
    fn edgehtml_ua_parses_as_edge() {
        let ua = UserAgent::new(Vendor::Edge, 18);
        let parsed: UserAgent = ua.to_ua_string().parse().unwrap();
        assert_eq!(parsed.vendor, Vendor::Edge);
        assert_eq!(parsed.version, 18);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!("curl/8.0".parse::<UserAgent>().is_err());
        assert!("".parse::<UserAgent>().is_err());
        assert!("Mozilla/5.0 Gecko/20100101".parse::<UserAgent>().is_err());
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the test's subject is the Hash impl"
    )]
    fn equality_ignores_os() {
        let a = UserAgent::new(Vendor::Chrome, 100).with_os(Os::Windows10);
        let b = UserAgent::new(Vendor::Chrome, 100).with_os(Os::MacOsSonoma);
        assert_eq!(a, b);
        use std::collections::HashSet;
        let set: HashSet<UserAgent> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn label_matches_paper_table_format() {
        assert_eq!(UserAgent::new(Vendor::Firefox, 119).label(), "Firefox 119");
    }

    #[test]
    fn windows_11_reports_nt_10() {
        let ua = UserAgent::new(Vendor::Chrome, 119).with_os(Os::Windows11);
        assert!(ua.to_ua_string().contains("Windows NT 10.0"));
    }

    #[test]
    fn ordering_is_vendor_then_version() {
        let mut v = [
            UserAgent::new(Vendor::Firefox, 50),
            UserAgent::new(Vendor::Chrome, 100),
            UserAgent::new(Vendor::Chrome, 60),
        ];
        v.sort();
        assert_eq!(v[0].label(), "Chrome 60");
        assert_eq!(v[2].label(), "Firefox 50");
    }
}
