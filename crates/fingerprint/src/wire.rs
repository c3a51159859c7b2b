//! The fingerprint submission wire format.
//!
//! FinOrg's deployment constraints (§3) cap the per-user payload at 1 KB.
//! The format below keeps even the full 513-probe collection payload under
//! that budget:
//!
//! ```text
//! +------+-----+------------------+---------+-----------+--------------+
//! | "BP" | ver | session id (16B) | ua-len  | ua bytes  | LEB128 vals  |
//! | 2 B  | 1 B |                  | u16 LE  | ≤ 512 B   | count + data |
//! +------+-----+------------------+---------+-----------+--------------+
//! ```
//!
//! Values are LEB128 varints: property counts are small integers, so the
//! common case is one byte per feature. Encoding is infallible for valid
//! submissions; decoding validates every field and never panics on
//! malformed input — this is the parser that faces the network.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Hard cap on an encoded submission, from the paper's §3 requirement.
pub const MAX_SUBMISSION_BYTES: usize = 1024;

/// Wire format version this library writes.
pub const WIRE_VERSION: u8 = 1;

/// Magic prefix of every submission frame.
pub const MAGIC: [u8; 2] = *b"BP";

/// Maximum user-agent string length accepted on decode.
pub const MAX_UA_LEN: usize = 512;

/// Maximum number of feature values accepted on decode.
pub const MAX_VALUES: usize = 1024;

/// Magic prefix of a `STATS` request frame (disjoint from the submission
/// [`MAGIC`], so the two request kinds can share one length-prefixed
/// stream).
pub const STATS_MAGIC: [u8; 2] = *b"BS";

/// Encoded size of a `STATS` request body.
pub const STATS_REQUEST_LEN: usize = 3;

/// Encodes a `STATS` request: asks the risk server for a metrics
/// snapshot instead of a verdict. Sent inside the same u16-length-prefixed
/// framing as submissions.
pub fn encode_stats_request() -> [u8; STATS_REQUEST_LEN] {
    let [m0, m1] = STATS_MAGIC;
    [m0, m1, WIRE_VERSION]
}

/// Whether a request frame body is a `STATS` request.
pub fn is_stats_request(frame: &[u8]) -> bool {
    matches!(frame, [m0, m1, v] if [*m0, *m1] == STATS_MAGIC && *v == WIRE_VERSION)
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hand-rolled FNV-1a over `bytes`: a fixed, platform-independent 64-bit
/// hash — never `RandomState` — so the same bytes hash the same in every
/// process and every replay (`clippy.toml` disallows the seeded std
/// hashers).
/// Public so the fleet ring's node tags and the fit's byte pins hash with
/// this one function instead of a copy of it. One multiply per *byte*:
/// right for a tag or a digest, too slow for anything hashed per frame —
/// the cache key and the server's user-agent memo go through
/// [`hash_words`], eight bytes at a time, instead.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Odd multiplier of the cache-key hash's per-word step (2^64 / φ, the
/// splitmix64 increment).
const KEY_WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The slot hash of the serve path — what [`submission_cache_key`] keys
/// a frame's suffix with and what the server's per-connection user-agent
/// memo picks a slot with: `bytes` taken as little-endian 64-bit words,
/// the last one zero-padded, the length folded into the starting state so
/// a padded tail cannot alias a longer input. Each word is absorbed by a
/// xor, an odd multiply and a xorshift — a bijection of the state, so two
/// inputs of one length that differ in a single word never collide — and
/// the splitmix64 finaliser then spreads the state over all 64 output
/// bits (the cache shards on the low ones).
///
/// A fixed, seedless *slot* hash, not a digest: the same bytes pick the
/// same slot on every machine, which replays need and which also
/// means a client can search for colliding inputs offline — as it could
/// under FNV-1a (DESIGN.md §5g) — so whatever it indexes must compare
/// what it finds, or bound what a collision costs. For a byte pin or a
/// stable tag use [`fnv1a64`].
pub fn hash_words(mut bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ (bytes.len() as u64).wrapping_mul(KEY_WORD_MUL);
    let mut absorb = |word: u64| {
        h = (h ^ word).wrapping_mul(KEY_WORD_MUL);
        h ^= h >> 32;
    };
    while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
        absorb(u64::from_le_bytes(*word));
        bytes = rest;
    }
    if !bytes.is_empty() {
        absorb(
            bytes
                .iter()
                .rev()
                .fold(0, |word, &b| (word << 8) | u64::from(b)),
        );
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The deterministic cache key of a submission frame, or `None` when the
/// frame cannot be a submission (wrong magic/version, or too short to
/// carry a session id) — such frames are not worth caching.
///
/// The key hashes the frame's *session-invariant* canonical suffix: the
/// encoded `(ua_len ‖ user-agent ‖ value-count ‖ LEB128 values)` bytes,
/// **excluding** the 16-byte session id. Two sessions submitting the same
/// (fingerprint, user-agent) pair therefore share one key — the coarse
/// fingerprint population is exactly what makes a verdict cache pay at
/// FinOrg scale — while the verdict itself never depends on the session
/// id. Because [`encode_submission`] is canonical (one byte sequence per
/// submission), equal keys mean equal suffix bytes up to collisions of
/// the 64-bit word hash above; see DESIGN.md §5g for the collision
/// budget.
pub fn submission_cache_key(frame: &[u8]) -> Option<u64> {
    match frame {
        [m0, m1, v, rest @ ..] if [*m0, *m1] == MAGIC && *v == WIRE_VERSION => {
            rest.get(16..).map(hash_words)
        }
        _ => None,
    }
}

/// A fingerprint submission: what the in-page script sends to the
/// collection endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submission {
    /// Opaque anonymised session identifier (Appendix A: "completely
    /// opaque and randomized").
    pub session_id: [u8; 16],
    /// The raw `navigator.userAgent` string as claimed by the browser.
    pub user_agent: String,
    /// The probe outputs, in feature-set order.
    pub values: Vec<u32>,
}

/// Errors produced when decoding a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than its declared contents.
    Truncated,
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported wire version.
    UnsupportedVersion(u8),
    /// User-agent length exceeds [`MAX_UA_LEN`].
    UserAgentTooLong(usize),
    /// User-agent bytes are not valid UTF-8.
    UserAgentNotUtf8,
    /// Value count exceeds [`MAX_VALUES`].
    TooManyValues(usize),
    /// A varint ran past 5 bytes (would overflow u32).
    VarintOverflow,
    /// Trailing bytes after the declared contents.
    TrailingBytes(usize),
    /// An encoded submission would exceed [`MAX_SUBMISSION_BYTES`].
    OverBudget(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UserAgentTooLong(n) => {
                write!(f, "user-agent length {n} exceeds {MAX_UA_LEN}")
            }
            WireError::UserAgentNotUtf8 => write!(f, "user-agent is not valid UTF-8"),
            WireError::TooManyValues(n) => write!(f, "value count {n} exceeds {MAX_VALUES}"),
            WireError::VarintOverflow => write!(f, "varint overflows u32"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::OverBudget(n) => {
                write!(
                    f,
                    "encoded size {n} exceeds the {MAX_SUBMISSION_BYTES}-byte budget"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a submission. Fails only when the result would blow the 1 KB
/// budget or a field exceeds its cap.
///
/// ```
/// use fingerprint::{decode_submission, encode_submission, Submission};
///
/// let sub = Submission {
///     session_id: [7u8; 16],
///     user_agent: "Mozilla/5.0 ... Chrome/112.0.0.0".into(),
///     values: vec![330, 270, 106, 1, 0, 1],
/// };
/// let frame = encode_submission(&sub).unwrap();
/// assert!(frame.len() <= fingerprint::MAX_SUBMISSION_BYTES);
/// assert_eq!(decode_submission(&frame).unwrap(), sub);
/// ```
pub fn encode_submission(sub: &Submission) -> Result<Vec<u8>, WireError> {
    let ua = sub.user_agent.as_bytes();
    if ua.len() > MAX_UA_LEN {
        return Err(WireError::UserAgentTooLong(ua.len()));
    }
    if sub.values.len() > MAX_VALUES {
        return Err(WireError::TooManyValues(sub.values.len()));
    }
    // Room for the longest frame these fields can make (five bytes per
    // varint), so the writes below never reallocate.
    let mut buf = Vec::with_capacity(HEADER_LEN + ua.len() + 2 + 5 * sub.values.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(WIRE_VERSION);
    buf.extend_from_slice(&sub.session_id);
    // Both lengths were capped above, so neither cast truncates.
    buf.extend_from_slice(&(ua.len() as u16).to_le_bytes());
    buf.extend_from_slice(ua);
    buf.extend_from_slice(&(sub.values.len() as u16).to_le_bytes());
    for mut v in sub.values.iter().copied() {
        while v >= 0x80 {
            buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }
    if buf.len() > MAX_SUBMISSION_BYTES {
        return Err(WireError::OverBudget(buf.len()));
    }
    Ok(buf)
}

/// A borrowed, fully validated view of a submission frame: everything
/// [`decode_submission`] checks, nothing it allocates.
///
/// The serve path decodes hundreds of thousands of frames per second;
/// this view hands the batch drain the user-agent as a borrowed `&str`
/// and streams the LEB128 values straight into the caller's reusable
/// buffer, so the only per-frame allocation left is whatever the caller
/// chooses to keep. Construction validates the *entire* frame — magic,
/// version, field caps, every varint, trailing bytes — so the value
/// iterator afterwards is infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmissionView<'a> {
    session_id: [u8; 16],
    user_agent: &'a str,
    /// The validated LEB128 region, exactly `count` varints long.
    values: &'a [u8],
    count: usize,
}

impl<'a> SubmissionView<'a> {
    /// The opaque session identifier.
    pub fn session_id(&self) -> [u8; 16] {
        self.session_id
    }

    /// The claimed `navigator.userAgent`, borrowed from the frame.
    pub fn user_agent(&self) -> &'a str {
        self.user_agent
    }

    /// Number of feature values in the frame.
    pub fn value_count(&self) -> usize {
        self.count
    }

    /// The decoded values, in feature-set order. Infallible: the varint
    /// region was validated when the view was constructed.
    pub fn values_u32(&self) -> impl Iterator<Item = u32> + 'a {
        let mut rest = self.values;
        (0..self.count).map(move |_| {
            let mut out = 0u32;
            let mut shift = 0u32;
            while let Some((&byte, tail)) = rest.split_first() {
                rest = tail;
                out |= u32::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            out
        })
    }
}

/// Bytes before the user-agent: magic, version, session id, its length.
const HEADER_LEN: usize = 2 + 1 + 16 + 2;

/// Decodes a submission frame into a borrowed [`SubmissionView`],
/// validating every field exactly as [`decode_submission`] does.
pub fn decode_submission_view(frame: &[u8]) -> Result<SubmissionView<'_>, WireError> {
    // A frame too short for its fixed header is truncated whatever its
    // first bytes say.
    let Some((&[m0, m1, version, session_id @ .., ua_lo, ua_hi], rest)) =
        frame.split_first_chunk::<HEADER_LEN>()
    else {
        return Err(WireError::Truncated);
    };
    if [m0, m1] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let ua_len = usize::from(u16::from_le_bytes([ua_lo, ua_hi]));
    if ua_len > MAX_UA_LEN {
        return Err(WireError::UserAgentTooLong(ua_len));
    }
    if rest.len() < ua_len {
        return Err(WireError::Truncated);
    }
    let (ua_bytes, rest) = rest.split_at(ua_len);
    let user_agent = std::str::from_utf8(ua_bytes).map_err(|_| WireError::UserAgentNotUtf8)?;
    let Some((&count, values)) = rest.split_first_chunk::<2>() else {
        return Err(WireError::Truncated);
    };
    let count = usize::from(u16::from_le_bytes(count));
    if count > MAX_VALUES {
        return Err(WireError::TooManyValues(count));
    }
    // Walk (and thereby validate) the whole varint region once, so the
    // view's value iterator can decode it infallibly.
    let mut rest = values;
    for _ in 0..count {
        get_varint(&mut rest)?;
    }
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes(rest.len()));
    }
    Ok(SubmissionView {
        session_id,
        user_agent,
        values,
        count,
    })
}

/// Decodes a submission frame, validating every field.
pub fn decode_submission(frame: &[u8]) -> Result<Submission, WireError> {
    let view = decode_submission_view(frame)?;
    let mut values = Vec::with_capacity(view.value_count());
    values.extend(view.values_u32());
    Ok(Submission {
        session_id: view.session_id(),
        user_agent: view.user_agent().to_string(),
        values,
    })
}

/// Reads one LEB128 `u32` off the front of `frame` and advances it — a
/// slice walk, no cursor trait in between: a frame's varints are most of
/// what decoding it costs.
fn get_varint(frame: &mut &[u8]) -> Result<u32, WireError> {
    let mut out: u32 = 0;
    for shift in 0..5 {
        let Some((&byte, rest)) = frame.split_first() else {
            return Err(WireError::Truncated);
        };
        *frame = rest;
        let chunk = u32::from(byte & 0x7f);
        // The 5th byte may only carry 4 bits.
        if shift == 4 && chunk > 0x0f {
            return Err(WireError::VarintOverflow);
        }
        out |= chunk << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(WireError::VarintOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Submission {
        Submission {
            session_id: [7u8; 16],
            user_agent: "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
                         (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36"
                .to_string(),
            values: vec![
                330, 270, 106, 70, 13, 13, 45, 7, 11, 28, 7, 17, 18, 11, 86, 16, 16, 26, 63, 576,
                412, 19, 1, 1, 1, 1, 0, 1,
            ],
        }
    }

    #[test]
    fn round_trip() {
        let sub = sample();
        let bytes = encode_submission(&sub).unwrap();
        let back = decode_submission(&bytes).unwrap();
        assert_eq!(back, sub);
    }

    #[test]
    fn table8_submission_fits_well_under_1kb() {
        let bytes = encode_submission(&sample()).unwrap();
        assert!(
            bytes.len() < 256,
            "28-feature payload is tiny, got {}",
            bytes.len()
        );
    }

    #[test]
    fn full_candidate_payload_fits_budget() {
        // 513 values with realistic magnitudes (most are small counts).
        let mut sub = sample();
        sub.values = (0..513).map(|i| (i % 120) as u32).collect();
        let bytes = encode_submission(&sub).unwrap();
        assert!(
            bytes.len() <= MAX_SUBMISSION_BYTES,
            "candidate payload must fit 1 KB, got {}",
            bytes.len()
        );
    }

    #[test]
    fn view_borrows_without_copying_and_matches_owned_decode() {
        let sub = sample();
        let bytes = encode_submission(&sub).unwrap();
        let view = decode_submission_view(&bytes).unwrap();
        assert_eq!(view.session_id(), sub.session_id);
        assert_eq!(view.user_agent(), sub.user_agent);
        assert_eq!(view.value_count(), sub.values.len());
        let values: Vec<u32> = view.values_u32().collect();
        assert_eq!(values, sub.values);
        // The user-agent is a borrow into the frame, not a copy.
        let frame_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(frame_range.contains(&(view.user_agent().as_ptr() as usize)));
    }

    /// The decoder written the slow, obvious way — one byte at a time
    /// off a cursor, every check in wire order — kept as the reference
    /// [`decode_submission`] must agree with on every input: same
    /// submission, or the same [`WireError`] with the same payload.
    fn reference_decode(frame: &[u8]) -> Result<Submission, WireError> {
        let mut at = 0usize;
        let next = |at: &mut usize| -> Result<u8, WireError> {
            let byte = *frame.get(*at).ok_or(WireError::Truncated)?;
            *at += 1;
            Ok(byte)
        };
        // A frame too short for its fixed header is truncated whatever
        // its first bytes say.
        if frame.len() < 2 + 1 + 16 + 2 {
            return Err(WireError::Truncated);
        }
        if [next(&mut at)?, next(&mut at)?] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = next(&mut at)?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let mut session_id = [0u8; 16];
        for byte in &mut session_id {
            *byte = next(&mut at)?;
        }
        let ua_len = usize::from(next(&mut at)?) | usize::from(next(&mut at)?) << 8;
        if ua_len > MAX_UA_LEN {
            return Err(WireError::UserAgentTooLong(ua_len));
        }
        let mut ua = Vec::new();
        for _ in 0..ua_len {
            ua.push(next(&mut at)?);
        }
        let user_agent = String::from_utf8(ua).map_err(|_| WireError::UserAgentNotUtf8)?;
        let count = usize::from(next(&mut at)?) | usize::from(next(&mut at)?) << 8;
        if count > MAX_VALUES {
            return Err(WireError::TooManyValues(count));
        }
        let mut values = Vec::new();
        for _ in 0..count {
            let mut value = 0u64;
            let mut bytes = 0;
            loop {
                let byte = next(&mut at)?;
                value |= u64::from(byte & 0x7f) << (7 * bytes);
                bytes += 1;
                if value > u64::from(u32::MAX) {
                    return Err(WireError::VarintOverflow);
                }
                if byte & 0x80 == 0 {
                    break;
                }
                if bytes == 5 {
                    return Err(WireError::VarintOverflow);
                }
            }
            values.push(value as u32);
        }
        if at < frame.len() {
            return Err(WireError::TrailingBytes(frame.len() - at));
        }
        Ok(Submission {
            session_id,
            user_agent,
            values,
        })
    }

    /// Both decoders against the reference on `frame`; returns the
    /// shared answer.
    fn decode_like_the_reference(frame: &[u8]) -> Result<Submission, WireError> {
        let want = reference_decode(frame);
        assert_eq!(decode_submission(frame), want, "owned decode of {frame:?}");
        let view = decode_submission_view(frame).map(|view| Submission {
            session_id: view.session_id(),
            user_agent: view.user_agent().to_string(),
            values: view.values_u32().collect(),
        });
        assert_eq!(view, want, "borrowed decode of {frame:?}");
        want
    }

    #[test]
    fn view_rejects_exactly_what_owned_decode_rejects() {
        let bytes = encode_submission(&sample()).unwrap();
        assert_eq!(decode_like_the_reference(&bytes), Ok(sample()));
        for cut in 0..bytes.len() {
            assert!(
                decode_like_the_reference(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_like_the_reference(&trailing),
            Err(WireError::TrailingBytes(1))
        );

        // The last value re-encoded every way a varint can go wrong (or
        // just long): the frame ends in that varint, so each tail below
        // is the whole of what follows the 27 good values.
        let stem = &bytes[..bytes.len() - 1];
        let tails: [(&[u8], Result<u32, WireError>); 9] = [
            (&[0x81, 0x00], Ok(1)), // over-long but in range
            (&[0x81, 0x80, 0x80, 0x80, 0x00], Ok(1)),
            (&[0xff, 0xff, 0xff, 0xff, 0x0f], Ok(u32::MAX)),
            (
                &[0xff, 0xff, 0xff, 0xff, 0x10],
                Err(WireError::VarintOverflow),
            ),
            (
                &[0xff, 0xff, 0xff, 0xff, 0x8f],
                Err(WireError::VarintOverflow),
            ),
            (
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
                Err(WireError::VarintOverflow),
            ),
            (&[0x80, 0x80, 0x80, 0x80], Err(WireError::Truncated)),
            (&[0x80], Err(WireError::Truncated)),
            (&[0x01, 0x80], Err(WireError::TrailingBytes(1))),
        ];
        for (tail, want) in tails {
            let frame = [stem, tail].concat();
            let got = decode_like_the_reference(&frame).map(|sub| sub.values[27]);
            assert_eq!(got, want, "tail {tail:02x?}");
        }

        // The header's checks, in the order the wire lists the fields.
        let with = |at: usize, patch: &[u8]| {
            let mut frame = bytes.clone();
            frame[at..at + patch.len()].copy_from_slice(patch);
            decode_like_the_reference(&frame).map(|_| ())
        };
        assert_eq!(with(1, b"X"), Err(WireError::BadMagic));
        assert_eq!(with(2, &[9]), Err(WireError::UnsupportedVersion(9)));
        assert_eq!(
            with(19, &[0x01, 0x02]),
            Err(WireError::UserAgentTooLong(513))
        );
        assert_eq!(with(19, &[0xff, 0x01]), Err(WireError::Truncated));
        assert_eq!(with(30, &[0xff]), Err(WireError::UserAgentNotUtf8));
        let count_at = 21 + sample().user_agent.len();
        assert_eq!(
            with(count_at, &[0x01, 0x04]),
            Err(WireError::TooManyValues(1025))
        );
        assert_eq!(with(count_at, &[0x00, 0x04]), Err(WireError::Truncated));
        assert_eq!(with(count_at, &[27, 0]), Err(WireError::TrailingBytes(1)));
        // Too short for the fixed header: truncated, whatever the magic.
        assert_eq!(decode_like_the_reference(b"XY"), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let bytes = encode_submission(&sample()).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_submission(&bad), Err(WireError::BadMagic));
        let mut badv = bytes;
        badv[2] = 99;
        assert_eq!(
            decode_submission(&badv),
            Err(WireError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode_submission(&sample()).unwrap();
        for cut in 0..bytes.len() {
            let r = decode_submission(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_submission(&sample()).unwrap();
        bytes.push(0);
        assert_eq!(decode_submission(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_oversized_fields() {
        let mut sub = sample();
        sub.user_agent = "x".repeat(MAX_UA_LEN + 1);
        assert!(matches!(
            encode_submission(&sub),
            Err(WireError::UserAgentTooLong(_))
        ));
        let mut sub = sample();
        sub.values = vec![0; MAX_VALUES + 1];
        assert!(matches!(
            encode_submission(&sub),
            Err(WireError::TooManyValues(_))
        ));
    }

    #[test]
    fn rejects_over_budget_payload() {
        let mut sub = sample();
        // Large values take 5 varint bytes each; 300 of them burst 1 KB.
        sub.values = vec![u32::MAX; 300];
        assert!(matches!(
            encode_submission(&sub),
            Err(WireError::OverBudget(_))
        ));
    }

    #[test]
    fn varint_boundaries() {
        let cases: [(u32, &[u8]); 7] = [
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (16383, &[0xff, 0x7f]),
            (16384, &[0x80, 0x80, 0x01]),
            (u32::MAX, &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ];
        for (v, leb128) in cases {
            let sub = Submission {
                values: vec![v],
                ..sample()
            };
            let frame = encode_submission(&sub).unwrap();
            let mut slice = &frame[HEADER_LEN + sub.user_agent.len() + 2..];
            assert_eq!(slice, leb128, "{v}");
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // 6 continuation bytes.
        let data = [0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut slice: &[u8] = &data;
        assert_eq!(get_varint(&mut slice), Err(WireError::VarintOverflow));
    }

    #[test]
    fn empty_input_is_truncated_not_panic() {
        assert_eq!(decode_submission(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn stats_request_is_disjoint_from_submissions() {
        let req = encode_stats_request();
        assert!(is_stats_request(&req));
        // A stats request can never decode as a submission…
        assert!(decode_submission(&req).is_err());
        // …and no valid submission frame reads as a stats request (the
        // magics differ, and submissions are longer anyway).
        let sub = encode_submission(&sample()).unwrap();
        assert!(!is_stats_request(&sub));
        // Wrong version or length is not a stats request.
        assert!(!is_stats_request(&[b'B', b'S', 99]));
        assert!(!is_stats_request(b"BS"));
        assert!(!is_stats_request(&[b'B', b'S', WIRE_VERSION, 0]));
    }

    #[test]
    fn cache_key_ignores_session_id_but_not_payload() {
        let a = encode_submission(&sample()).unwrap();
        let mut b_sub = sample();
        b_sub.session_id = [42u8; 16];
        let b = encode_submission(&b_sub).unwrap();
        assert_ne!(a, b);
        assert_eq!(
            submission_cache_key(&a),
            submission_cache_key(&b),
            "two sessions with the same (fingerprint, UA) pair share a key"
        );

        let mut c_sub = sample();
        c_sub.values[0] += 1;
        let c = encode_submission(&c_sub).unwrap();
        assert_ne!(
            submission_cache_key(&a),
            submission_cache_key(&c),
            "a different fingerprint must not share the key"
        );
        let mut d_sub = sample();
        d_sub.user_agent.push('X');
        let d = encode_submission(&d_sub).unwrap();
        assert_ne!(submission_cache_key(&a), submission_cache_key(&d));
    }

    #[test]
    fn cache_key_is_stable_across_calls_and_rejects_non_submissions() {
        let frame = encode_submission(&sample()).unwrap();
        let k1 = submission_cache_key(&frame);
        let k2 = submission_cache_key(&frame.to_vec());
        assert_eq!(k1, k2);
        assert!(k1.is_some());

        assert_eq!(submission_cache_key(&[]), None);
        assert_eq!(
            submission_cache_key(b"BS\x01"),
            None,
            "stats frames are not cacheable"
        );
        assert_eq!(
            submission_cache_key(&frame[..10]),
            None,
            "truncated prefix has no key"
        );
        let mut wrong_version = frame.clone();
        wrong_version[2] = 9;
        assert_eq!(submission_cache_key(&wrong_version), None);
    }

    /// The key hash is part of the replay contract (cache slot, fleet
    /// node): pinned on the empty suffix and on every tail length around
    /// one and two words, against an independent implementation. A
    /// zero-padded tail must not alias the next length up.
    #[test]
    fn key_hash_matches_its_reference_vectors() {
        const VECTORS: [u64; 18] = [
            0xF52A_15E9_A9B5_E89B,
            0xAAE1_FDC5_384C_1B41,
            0x35C0_69B3_E0DF_56E9,
            0xCA4A_17DF_63AE_A9B7,
            0x1DFE_7A58_D86D_B920,
            0x8CE2_3921_4E29_69C8,
            0x943F_853A_6FD7_6A0B,
            0xDCC1_C4F6_50E9_A955,
            0x9AF1_3AA5_62E3_96B4,
            0x6402_6168_2125_85DB,
            0xF886_2EC0_2A13_CEDE,
            0xD2F0_16DC_1F48_1BAC,
            0x6461_6F41_5EC8_9D8A,
            0xC466_AFE7_D339_DE95,
            0xB844_5162_4CF6_5F67,
            0x49C6_818F_88A7_BFC0,
            0x18B0_13ED_7CE2_343D,
            0xEDBE_8D12_5E59_C2D9,
        ];
        let bytes: Vec<u8> = (1..=17).collect();
        for (len, want) in VECTORS.iter().enumerate() {
            assert_eq!(hash_words(&bytes[..len]), *want, "suffix of {len} bytes");
        }
        let mut padded = bytes[..5].to_vec();
        padded.push(0);
        assert_ne!(hash_words(&padded), hash_words(&bytes[..5]));

        // Through the public door: a frame's key is the hash of what
        // follows its 19-byte header.
        let mut frame = vec![b'B', b'P', WIRE_VERSION];
        frame.extend_from_slice(&[0xAB; 16]);
        assert_eq!(submission_cache_key(&frame), Some(VECTORS[0]));
        frame.extend_from_slice(&bytes);
        assert_eq!(submission_cache_key(&frame), Some(VECTORS[17]));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    proptest! {
        #[test]
        fn prop_cache_key_depends_only_on_ua_and_values(
            id_a in any::<[u8; 16]>(),
            id_b in any::<[u8; 16]>(),
            ua in "[ -~]{0,64}",
            values in proptest::collection::vec(0u32..100_000, 0..64),
        ) {
            let a = Submission { session_id: id_a, user_agent: ua.clone(), values: values.clone() };
            let b = Submission { session_id: id_b, user_agent: ua, values };
            let fa = encode_submission(&a).unwrap();
            let fb = encode_submission(&b).unwrap();
            prop_assert_eq!(submission_cache_key(&fa), submission_cache_key(&fb));
            prop_assert!(submission_cache_key(&fa).is_some());
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip_arbitrary(
            id in any::<[u8; 16]>(),
            ua in "[ -~]{0,200}",
            values in proptest::collection::vec(0u32..100_000, 0..200),
        ) {
            let sub = Submission { session_id: id, user_agent: ua, values };
            if let Ok(bytes) = encode_submission(&sub) {
                let back = decode_submission(&bytes).unwrap();
                prop_assert_eq!(back, sub);
            }
        }

        #[test]
        fn prop_decoder_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..600)) {
            let _ = decode_submission(&noise);
        }

        /// The truncation-bug regression, from the encoder's side: for
        /// *any* input — including user-agents far beyond [`MAX_UA_LEN`]
        /// and value vectors that burst the budget — `encode_submission`
        /// either errors or yields a frame that round-trips and whose
        /// length fits the u16 length-prefixed framing without a lossy
        /// `as u16` cast. A silently truncated frame can never escape.
        #[test]
        fn prop_encode_rejects_rather_than_truncates(
            ua_len in 0usize..2048,
            values in proptest::collection::vec(any::<u32>(), 0..300),
        ) {
            let sub = Submission {
                session_id: [9u8; 16],
                user_agent: "u".repeat(ua_len),
                values,
            };
            if let Ok(bytes) = encode_submission(&sub) {
                prop_assert!(bytes.len() <= MAX_SUBMISSION_BYTES);
                prop_assert!(u16::try_from(bytes.len()).is_ok());
                prop_assert_eq!(decode_submission(&bytes).unwrap(), sub);
            }
        }

        /// One byte of a good frame overwritten, then the result cut
        /// short and padded: never a panic, and always the reference
        /// decoder's answer — the same submission or the same error.
        #[test]
        fn prop_mutated_frames_never_panic(
            flip in 0usize..200,
            byte in any::<u8>(),
            cut in 0usize..200,
        ) {
            let bytes = encode_submission(&sample()).unwrap();
            let mut mutated = bytes.clone();
            let idx = flip % mutated.len();
            mutated[idx] = byte;
            let _ = decode_like_the_reference(&mutated);
            let _ = decode_like_the_reference(&mutated[..cut % (mutated.len() + 1)]);
            mutated.push(byte);
            let _ = decode_like_the_reference(&mutated);
        }

        #[test]
        fn prop_decoder_agrees_with_the_reference_on_noise(
            noise in proptest::collection::vec(any::<u8>(), 0..300),
            values in 0u16..40,
        ) {
            // Behind a good header, so the noise reaches the length
            // fields and the varints instead of dying at the magic.
            let _ = decode_like_the_reference(&noise);
            let mut frame = vec![b'B', b'P', WIRE_VERSION];
            frame.extend_from_slice(&[3; 16]);
            frame.extend_from_slice(&[4, 0]);
            frame.extend_from_slice(b"ua/1");
            frame.extend_from_slice(&values.to_le_bytes());
            frame.extend_from_slice(&noise);
            let _ = decode_like_the_reference(&frame);
        }
    }
}
