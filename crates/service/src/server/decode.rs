//! The two mappings at the edges of an assessment: a submission frame
//! into an assessable session (feature row plus parsed user-agent, the
//! parse memoised per connection), and an assessment result into the
//! wire verdict with its counters.

use super::metrics::LocalCounters;
use crate::proto::{Verdict, VerdictStatus};
use browser_engine::UserAgent;
use fingerprint::{decode_submission_view, fnv1a64};
use polygraph_core::{Assessment, PolygraphError};

/// Slots in a connection's [`UaMemo`]. The distinct user-agent
/// population per connection is tiny (a few dozen catalogue releases),
/// so a small direct-mapped table hits almost always.
const UA_MEMO_SLOTS: usize = 64;

/// Per-connection memo of parsed user-agent strings, direct-mapped by
/// FNV-1a of the raw bytes.
///
/// Submission traffic repeats a tiny distinct UA population (the
/// paper's coarse-fingerprint premise), so the serve path pays the
/// multi-token sniffing parse once per distinct string per connection
/// instead of once per frame. Deterministic by construction: the fixed
/// hash picks a slot and an exact string comparison guards the hit, so
/// a collision merely re-parses — it can never mis-attribute a result.
#[derive(Debug)]
pub(super) struct UaMemo {
    slots: Vec<Option<(String, UserAgent)>>,
}

impl UaMemo {
    pub(super) fn new() -> Self {
        Self {
            slots: vec![None; UA_MEMO_SLOTS],
        }
    }

    /// Parses `ua`, answering from the memo when the exact string was
    /// seen before. Parse failures are not memoised (malformed frames
    /// are the rare path and already charged as such).
    fn parse(&mut self, ua: &str) -> Option<UserAgent> {
        let slot = (fnv1a64(ua.as_bytes()) % UA_MEMO_SLOTS as u64) as usize;
        if let Some(Some((cached, parsed))) = self.slots.get(slot) {
            if cached == ua {
                return Some(*parsed);
            }
        }
        let parsed = ua.parse::<UserAgent>().ok()?;
        if let Some(entry) = self.slots.get_mut(slot) {
            *entry = Some((ua.to_string(), parsed));
        }
        Some(parsed)
    }
}

/// Decodes a submission frame into an assessable session: feature row
/// plus claimed user-agent. `None` covers both failure modes the single
/// frame path answers `Malformed` for (undecodable frame, unparseable
/// user-agent string). Works from the borrowed wire view, so the only
/// per-frame allocation is the feature row itself.
pub(super) fn decode_session(frame: &[u8], memo: &mut UaMemo) -> Option<(Vec<f64>, UserAgent)> {
    let view = decode_submission_view(frame).ok()?;
    let claimed = memo.parse(view.user_agent())?;
    let mut values = Vec::with_capacity(view.value_count());
    values.extend(view.values_u32().map(f64::from));
    Some((values, claimed))
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
