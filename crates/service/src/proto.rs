//! The verdict and stats wire formats.
//!
//! Requests reuse the fingerprint submission frame
//! ([`fingerprint::wire`]); the response is a fixed-size 8-byte verdict,
//! small enough that the whole exchange stays inside the paper's 1 KB /
//! 100 ms envelope with enormous margin.
//!
//! ```text
//! +------+-----+--------+---------+------+----------+----------+
//! | "BV" | ver | status | flagged | risk | pred. cl | exp. cl  |
//! | 2 B  | 1 B |  1 B   |   1 B   | 1 B  |   1 B    |   1 B    |
//! +------+-----+--------+---------+------+----------+----------+
//! ```
//!
//! A `STATS` request ([`fingerprint::wire::encode_stats_request`]) is
//! answered *in request order* with a variable-length snapshot frame
//! instead of a verdict:
//!
//! ```text
//! +------+-----+-------------+------------------+
//! | "BO" | ver | json length | snapshot JSON    |
//! | 2 B  | 1 B |   u32 LE    | ≤ 1 MiB          |
//! +------+-----+-------------+------------------+
//! ```

use polygraph_core::Assessment;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Magic prefix of a verdict frame.
pub const VERDICT_MAGIC: [u8; 2] = *b"BV";
/// Verdict wire version.
pub const VERDICT_VERSION: u8 = 1;
/// Encoded verdict size.
pub const VERDICT_LEN: usize = 8;
/// Sentinel for "no expected cluster" (unknown vendor).
const NO_CLUSTER: u8 = 0xFF;

/// Processing status of a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictStatus {
    /// The fingerprint was assessed.
    Assessed,
    /// The submission could not be decoded or its user-agent was
    /// unparseable; the session should be treated per policy for opaque
    /// clients.
    Malformed,
    /// The fingerprint's width did not match the serving model.
    SchemaMismatch,
    /// The server shed this frame under overload instead of queueing it
    /// behind the detector. No assessment was made; the login flow should
    /// treat the session per its unassessable policy
    /// ([`crate::RiskPolicy`]'s `on_unassessable`) — the fingerprint is
    /// one signal among many, and a busy risk server must never stall a
    /// login.
    Degraded,
}

impl VerdictStatus {
    fn to_byte(self) -> u8 {
        match self {
            VerdictStatus::Assessed => 0,
            VerdictStatus::Malformed => 1,
            VerdictStatus::SchemaMismatch => 2,
            VerdictStatus::Degraded => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(VerdictStatus::Assessed),
            1 => Some(VerdictStatus::Malformed),
            2 => Some(VerdictStatus::SchemaMismatch),
            3 => Some(VerdictStatus::Degraded),
            _ => None,
        }
    }
}

/// The service's answer to one fingerprint submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Processing status.
    pub status: VerdictStatus,
    /// Whether the session was flagged (meaningful only when `status` is
    /// [`VerdictStatus::Assessed`]).
    pub flagged: bool,
    /// Algorithm 1's risk factor (0–20).
    pub risk_factor: u8,
    /// Cluster the fingerprint landed in.
    pub predicted_cluster: u8,
    /// Cluster the claim was expected in, if the vendor was known.
    pub expected_cluster: Option<u8>,
}

impl Verdict {
    /// A non-assessment verdict (malformed / schema mismatch).
    pub fn error(status: VerdictStatus) -> Self {
        Self {
            status,
            flagged: false,
            risk_factor: 0,
            predicted_cluster: 0,
            expected_cluster: None,
        }
    }

    /// Encodes the fixed-size frame.
    pub fn encode(&self) -> [u8; VERDICT_LEN] {
        let [magic0, magic1] = VERDICT_MAGIC;
        [
            magic0,
            magic1,
            VERDICT_VERSION,
            self.status.to_byte(),
            self.flagged as u8,
            self.risk_factor,
            self.predicted_cluster,
            self.expected_cluster.unwrap_or(NO_CLUSTER),
        ]
    }

    /// Decodes a frame, validating every field. This parser faces the
    /// network, so it reads fields by destructuring the fixed-size array
    /// rather than indexing — there is no input that can make it panic.
    pub fn decode(frame: &[u8]) -> Result<Self, VerdictError> {
        let Ok([magic0, magic1, version, status, flag, risk, predicted, expected]) =
            <[u8; VERDICT_LEN]>::try_from(frame)
        else {
            return Err(VerdictError::BadLength(frame.len()));
        };
        if [magic0, magic1] != VERDICT_MAGIC {
            return Err(VerdictError::BadMagic);
        }
        if version != VERDICT_VERSION {
            return Err(VerdictError::BadVersion(version));
        }
        let status = VerdictStatus::from_byte(status).ok_or(VerdictError::BadStatus(status))?;
        if flag > 1 {
            return Err(VerdictError::BadFlag(flag));
        }
        Ok(Self {
            status,
            flagged: flag == 1,
            risk_factor: risk,
            predicted_cluster: predicted,
            expected_cluster: if expected == NO_CLUSTER {
                None
            } else {
                Some(expected)
            },
        })
    }
}

/// The one `Assessment` → wire-verdict conversion (the server's reply and
/// `polygraph assess` both go through it). The wire fields are one byte
/// each, so out-of-range values saturate at 255 instead of wrapping to a
/// different, valid-looking cluster or risk.
impl From<&Assessment> for Verdict {
    fn from(a: &Assessment) -> Self {
        Self {
            status: VerdictStatus::Assessed,
            flagged: a.flagged,
            risk_factor: a.risk_factor.min(u8::MAX as u32) as u8,
            predicted_cluster: a.predicted_cluster.min(u8::MAX as usize) as u8,
            expected_cluster: a.expected_cluster.map(|c| c.min(u8::MAX as usize) as u8),
        }
    }
}

/// Magic prefix of a stats response frame.
pub const STATS_RESPONSE_MAGIC: [u8; 2] = *b"BO";
/// Stats response wire version.
pub const STATS_RESPONSE_VERSION: u8 = 1;
/// Size of a stats response header (magic + version + u32 length).
pub const STATS_RESPONSE_HEADER_LEN: usize = 7;
/// Hard cap on a stats response body, to bound client allocations.
pub const MAX_STATS_RESPONSE_BYTES: usize = 1 << 20;

/// Encodes a stats response frame around a rendered snapshot JSON body.
/// Bodies above [`MAX_STATS_RESPONSE_BYTES`] are truncated to an empty
/// object — a registry that large indicates a bug, and the serve path
/// must not fail or unwind on it.
pub fn encode_stats_response(json: &[u8]) -> Vec<u8> {
    let body: &[u8] = if json.len() <= MAX_STATS_RESPONSE_BYTES {
        json
    } else {
        b"{}"
    };
    let mut out = Vec::with_capacity(STATS_RESPONSE_HEADER_LEN + body.len());
    out.extend_from_slice(&STATS_RESPONSE_MAGIC);
    out.push(STATS_RESPONSE_VERSION);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Decodes a stats response header, returning the body length to read
/// next.
pub fn decode_stats_response_header(
    header: &[u8; STATS_RESPONSE_HEADER_LEN],
) -> Result<usize, StatsResponseError> {
    let [m0, m1, version, l0, l1, l2, l3] = *header;
    if [m0, m1] != STATS_RESPONSE_MAGIC {
        return Err(StatsResponseError::BadMagic);
    }
    if version != STATS_RESPONSE_VERSION {
        return Err(StatsResponseError::BadVersion(version));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_STATS_RESPONSE_BYTES {
        return Err(StatsResponseError::TooLarge(len));
    }
    Ok(len)
}

/// Errors decoding a stats response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsResponseError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// Declared body length exceeds [`MAX_STATS_RESPONSE_BYTES`].
    TooLarge(usize),
}

impl fmt::Display for StatsResponseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsResponseError::BadMagic => write!(f, "bad stats response magic"),
            StatsResponseError::BadVersion(v) => write!(f, "unknown stats response version {v}"),
            StatsResponseError::TooLarge(n) => write!(
                f,
                "stats response length {n} exceeds {MAX_STATS_RESPONSE_BYTES}"
            ),
        }
    }
}

impl std::error::Error for StatsResponseError {}

/// Errors decoding a verdict frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictError {
    /// Frame length is not [`VERDICT_LEN`].
    BadLength(usize),
    /// Wrong magic bytes.
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// Flag byte not 0/1.
    BadFlag(u8),
}

impl fmt::Display for VerdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerdictError::BadLength(n) => write!(f, "verdict frame length {n} != {VERDICT_LEN}"),
            VerdictError::BadMagic => write!(f, "bad verdict magic"),
            VerdictError::BadVersion(v) => write!(f, "unknown verdict version {v}"),
            VerdictError::BadStatus(s) => write!(f, "unknown verdict status {s}"),
            VerdictError::BadFlag(b) => write!(f, "flag byte {b} not boolean"),
        }
    }
}

impl std::error::Error for VerdictError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_assessed() {
        let v = Verdict {
            status: VerdictStatus::Assessed,
            flagged: true,
            risk_factor: 20,
            predicted_cluster: 7,
            expected_cluster: Some(2),
        };
        assert_eq!(Verdict::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn round_trip_no_expected_cluster() {
        let v = Verdict {
            status: VerdictStatus::Assessed,
            flagged: true,
            risk_factor: 20,
            predicted_cluster: 7,
            expected_cluster: None,
        };
        assert_eq!(Verdict::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn out_of_range_assessment_fields_saturate() {
        let a = Assessment {
            predicted_cluster: 300,
            expected_cluster: Some(300),
            flagged: true,
            risk_factor: 1_000,
        };
        let v = Verdict::from(&a);
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert!(v.flagged);
        assert_eq!(
            (v.risk_factor, v.predicted_cluster, v.expected_cluster),
            (255, 255, Some(255))
        );
    }

    #[test]
    fn error_verdicts_encode() {
        for s in [
            VerdictStatus::Malformed,
            VerdictStatus::SchemaMismatch,
            VerdictStatus::Degraded,
        ] {
            let v = Verdict::error(s);
            let back = Verdict::decode(&v.encode()).unwrap();
            assert_eq!(back.status, s);
            assert!(!back.flagged);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Verdict::decode(&[]), Err(VerdictError::BadLength(0)));
        let mut f = Verdict::error(VerdictStatus::Assessed).encode();
        f[0] = b'X';
        assert_eq!(Verdict::decode(&f), Err(VerdictError::BadMagic));
        let mut f = Verdict::error(VerdictStatus::Assessed).encode();
        f[2] = 9;
        assert_eq!(Verdict::decode(&f), Err(VerdictError::BadVersion(9)));
        let mut f = Verdict::error(VerdictStatus::Assessed).encode();
        f[3] = 9;
        assert_eq!(Verdict::decode(&f), Err(VerdictError::BadStatus(9)));
        let mut f = Verdict::error(VerdictStatus::Assessed).encode();
        f[4] = 2;
        assert_eq!(Verdict::decode(&f), Err(VerdictError::BadFlag(2)));
    }

    #[test]
    fn stats_response_round_trips() {
        let body = br#"{"counters":{"server.batches":3}}"#;
        let frame = encode_stats_response(body);
        assert_eq!(frame.len(), STATS_RESPONSE_HEADER_LEN + body.len());
        let mut header = [0u8; STATS_RESPONSE_HEADER_LEN];
        header.copy_from_slice(&frame[..STATS_RESPONSE_HEADER_LEN]);
        let len = decode_stats_response_header(&header).unwrap();
        assert_eq!(len, body.len());
        assert_eq!(&frame[STATS_RESPONSE_HEADER_LEN..], body);
    }

    #[test]
    fn stats_response_header_rejects_malformed() {
        let mut h = [0u8; STATS_RESPONSE_HEADER_LEN];
        h.copy_from_slice(&encode_stats_response(b"{}")[..STATS_RESPONSE_HEADER_LEN]);
        let mut bad = h;
        bad[0] = b'X';
        assert_eq!(
            decode_stats_response_header(&bad),
            Err(StatsResponseError::BadMagic)
        );
        let mut bad = h;
        bad[2] = 9;
        assert_eq!(
            decode_stats_response_header(&bad),
            Err(StatsResponseError::BadVersion(9))
        );
        let mut bad = h;
        bad[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stats_response_header(&bad),
            Err(StatsResponseError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_stats_body_is_replaced_not_panicking() {
        let huge = vec![b'x'; MAX_STATS_RESPONSE_BYTES + 1];
        let frame = encode_stats_response(&huge);
        assert_eq!(&frame[STATS_RESPONSE_HEADER_LEN..], b"{}");
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
            let _ = Verdict::decode(&bytes);
        }

        #[test]
        fn prop_round_trip(
            flagged in any::<bool>(),
            risk in 0u8..=20,
            pred in 0u8..16,
            exp in proptest::option::of(0u8..16),
        ) {
            let v = Verdict {
                status: VerdictStatus::Assessed,
                flagged,
                risk_factor: risk,
                predicted_cluster: pred,
                expected_cluster: exp,
            };
            prop_assert_eq!(Verdict::decode(&v.encode()).unwrap(), v);
        }
    }
}
