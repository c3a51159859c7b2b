//! The two mappings at the edges of an assessment: a submission frame
//! into an assessable session (feature row plus parsed user-agent, the
//! parse memoised per connection), and an assessment result into the
//! wire verdict with its counters.

use super::metrics::LocalCounters;
use crate::proto::{Verdict, VerdictStatus};
use browser_engine::UserAgent;
use fingerprint::{decode_submission_view, hash_words};
use polygraph_core::{Assessment, PolygraphError};

/// Slots in a connection's [`UaMemo`]: room for the few hundred distinct
/// user-agent strings a traffic window holds (the paper's spans 113
/// releases; with operating systems, a generated one ≈135 strings) at
/// about half load.
const UA_MEMO_SLOTS: usize = 256;

/// Consecutive slots a string may sit in, from the one its hash picks.
/// At half load three strings in four sit in the first, and a run of
/// eight taken slots is rare enough that a window's whole population is
/// held at once: over eight generated windows no string was left out
/// (with four slots, one or two were in half the windows, and traded
/// places with a neighbour on every alternation; with the 64 slots and
/// one try this table had, one lookup in seven re-parsed).
const UA_MEMO_PROBE: usize = 8;

/// Per-connection memo of parsed user-agent strings: a fixed table
/// probed from the slot [`hash_words`] of the raw bytes picks.
///
/// Submission traffic repeats a tiny distinct UA population (the
/// paper's coarse-fingerprint premise), so the serve path pays the
/// multi-token sniffing parse once per distinct string per connection
/// instead of once per frame. Deterministic by construction: the fixed
/// hash picks the slots and an exact string comparison guards the hit,
/// so a collision merely re-parses — it can never mis-attribute a
/// result. Bounded whatever a client sends: at most [`UA_MEMO_SLOTS`]
/// strings of at most `fingerprint::wire::MAX_UA_LEN` (512) bytes each,
/// ≈134 KiB a connection, and nothing until the first one parses.
#[derive(Debug, Default)]
pub(super) struct UaMemo {
    /// Empty until the first string is memoised, then `UA_MEMO_SLOTS`.
    slots: Vec<Option<(String, UserAgent)>>,
}

impl UaMemo {
    /// The slots `ua` may sit in, in the order they are tried.
    fn probe(ua: &str) -> impl Iterator<Item = usize> {
        let home = hash_words(ua.as_bytes()) as usize;
        (0..UA_MEMO_PROBE).map(move |step| home.wrapping_add(step) % UA_MEMO_SLOTS)
    }

    /// The memoised parse of exactly `ua`, if one of `probe`'s slots
    /// holds it.
    fn lookup(&self, mut probe: impl Iterator<Item = usize>, ua: &str) -> Option<UserAgent> {
        probe.find_map(|at| match self.slots.get(at) {
            Some(Some((cached, parsed))) if cached == ua => Some(*parsed),
            _ => None,
        })
    }

    /// Parses `ua`, answering from the memo when the exact string was
    /// seen before. Parse failures are not memoised (malformed frames
    /// are the rare path and already charged as such).
    pub(super) fn parse(&mut self, ua: &str) -> Option<UserAgent> {
        if let Some(parsed) = self.lookup(Self::probe(ua), ua) {
            return Some(parsed);
        }
        let parsed = ua.parse::<UserAgent>().ok()?;
        if self.slots.is_empty() {
            self.slots.resize_with(UA_MEMO_SLOTS, || None);
        }
        // The first free slot of the probe, or — all taken — the first.
        let at = Self::probe(ua)
            .find(|&at| matches!(self.slots.get(at), Some(None)))
            .or_else(|| Self::probe(ua).next());
        if let Some(entry) = at.and_then(|at| self.slots.get_mut(at)) {
            *entry = Some((ua.to_string(), parsed));
        }
        Some(parsed)
    }
}

/// Decodes a submission frame into an assessable session: the feature
/// row written over `row`, and the claimed user-agent, which `parse`
/// makes of the frame's borrowed string, returned. `None` covers both
/// failure modes the single frame path answers `Malformed` for
/// (undecodable frame, unparseable user-agent string); `row` is then
/// unspecified. Works from the borrowed wire view into a row the caller
/// reuses, so the per-frame allocations are none after a connection's
/// first batch. A connection parses through its [`UaMemo`]; a single
/// frame in process parses the string directly, since a memo would be
/// built and dropped in one call.
pub(super) fn decode_session(
    frame: &[u8],
    parse: impl FnOnce(&str) -> Option<UserAgent>,
    row: &mut Vec<f64>,
) -> Option<UserAgent> {
    let view = decode_submission_view(frame).ok()?;
    let claimed = parse(view.user_agent())?;
    row.clear();
    row.extend(view.values_u32().map(f64::from));
    Some(claimed)
}

/// Maps one assessment result onto the wire verdict (the fields through
/// `Verdict::from`), charging the local counters — the single source of
/// the verdict/counter semantics for both the single-frame path and the
/// batched miss drain.
pub(super) fn verdict_from_assessment(
    result: Result<Assessment, PolygraphError>,
    local: &mut LocalCounters,
) -> Verdict {
    match result {
        Ok(a) => {
            local.assessed += 1;
            if a.flagged {
                local.flagged += 1;
            }
            Verdict::from(&a)
        }
        Err(_) => {
            local.malformed += 1;
            Verdict::error(VerdictStatus::SchemaMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::FeatureSet;
    use traffic::TrafficConfig;

    /// The memo holds the population it memoises: every user-agent
    /// string of a `paper_training` window, parsed in the order the
    /// generator emits them, is still there when it comes round again.
    #[test]
    fn memo_holds_every_user_agent_of_a_training_window() {
        for seed in [TrafficConfig::paper_training().seed, 7001, 20_261_002] {
            memo_holds_the_window_of(seed);
        }
    }

    fn memo_holds_the_window_of(seed: u64) {
        let mut config = TrafficConfig::paper_training().with_sessions(20_000);
        config.seed = seed;
        let window = traffic::generate(&FeatureSet::table8(), &config);
        let mut distinct: Vec<String> = Vec::new();
        for session in &window.sessions {
            let ua = session.claimed.to_ua_string();
            if !distinct.contains(&ua) {
                distinct.push(ua);
            }
        }
        assert!(
            distinct.len() > 64 && distinct.len() <= UA_MEMO_SLOTS / 2,
            "seed {seed}: {} distinct user-agents, not the population the memo is sized for",
            distinct.len()
        );
        let mut memo = UaMemo::default();
        for ua in &distinct {
            assert_eq!(memo.parse(ua), ua.parse().ok(), "{ua}");
        }
        for ua in &distinct {
            let held = memo.lookup(UaMemo::probe(ua), ua);
            assert_eq!(held, ua.parse().ok(), "seed {seed}: {ua} was displaced");
        }
    }

    #[test]
    fn memo_guards_hits_by_the_exact_string_and_never_outgrows_its_table() {
        let mut memo = UaMemo::default();
        assert_eq!(memo.parse("curl/8.0"), None);
        assert!(memo.slots.is_empty(), "a failed parse memoises nothing");
        // Far more distinct strings than slots: each parses as itself,
        // whatever it displaced, and the table stays the size it is.
        let ua = |n: u32| {
            UserAgent::new(browser_engine::Vendor::Chrome, 100 + n % 7).to_ua_string()
                + &" x".repeat(n as usize / 7)
        };
        for round in 0..2 {
            for n in 0..2_000 {
                let raw = ua(n);
                assert_eq!(memo.parse(&raw), raw.parse().ok(), "round {round}: {raw}");
            }
        }
        assert_eq!(memo.slots.len(), UA_MEMO_SLOTS);
    }
}
