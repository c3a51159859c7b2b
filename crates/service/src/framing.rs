//! Request-stream framing for the risk server.
//!
//! Requests arrive as u16-LE length-prefixed frames. These helpers parse
//! a connection's pending byte buffer without ever panicking (this code
//! sits in the `cargo xtask lint` panic-safety zone): they destructure
//! and `get` instead of indexing, and an oversize header is reported as
//! a status rather than unwinding, so the server can answer every frame
//! that preceded it before failing the connection.

use fingerprint::MAX_SUBMISSION_BYTES;

/// How far the parser got through the connection's pending bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// No complete frame buffered yet; keep reading.
    NeedMore,
    /// At least one complete frame is ready to assess.
    Ready,
    /// The next header declares an oversize body: answer what came before
    /// it, then fail the connection (no way to resynchronise past it).
    Oversize,
}

/// Classifies the front of `pending`.
pub fn frame_status(pending: &[u8]) -> FrameStatus {
    // Destructure instead of indexing: this parser faces the network, so
    // the panic-safety lint bans `pending[..]` on the serve path.
    let [len0, len1, body @ ..] = pending else {
        return FrameStatus::NeedMore;
    };
    let len = u16::from_le_bytes([*len0, *len1]) as usize;
    if len > MAX_SUBMISSION_BYTES {
        FrameStatus::Oversize
    } else if body.len() < len {
        FrameStatus::NeedMore
    } else {
        FrameStatus::Ready
    }
}

/// The declared body length of a buffered header, if two header bytes are
/// present.
fn header_len(pending: &[u8]) -> Option<usize> {
    match pending {
        [len0, len1, ..] => Some(u16::from_le_bytes([*len0, *len1]) as usize),
        _ => None,
    }
}

/// Splits up to `max` complete length-prefixed frames off the front of
/// `pending`, leaving any partial tail in place. The second return is true
/// when parsing stopped at an oversize header.
pub fn split_frames(pending: &mut Vec<u8>, max: usize) -> (Vec<Vec<u8>>, bool) {
    let mut frames = Vec::new();
    let mut offset = 0;
    let mut oversize = false;
    while frames.len() < max {
        let tail = pending.get(offset..).unwrap_or_default();
        match frame_status(tail) {
            FrameStatus::NeedMore => break,
            FrameStatus::Oversize => {
                oversize = true;
                break;
            }
            FrameStatus::Ready => {
                let Some(len) = header_len(tail) else { break };
                let Some(body) = tail.get(2..2 + len) else {
                    break;
                };
                frames.push(body.to_vec());
                offset += 2 + len;
            }
        }
    }
    pending.drain(..offset);
    (frames, oversize)
}

/// Number of complete frames buffered at the front of `pending` (stops
/// at a partial tail or an oversize header).
pub fn count_frames(pending: &[u8]) -> usize {
    let mut offset = 0;
    let mut n = 0;
    loop {
        let tail = pending.get(offset..).unwrap_or_default();
        if frame_status(tail) != FrameStatus::Ready {
            return n;
        }
        let Some(len) = header_len(tail) else {
            return n;
        };
        offset += 2 + len;
        n += 1;
    }
}

/// Resumable per-connection parse state: the pending byte buffer plus
/// the frame-boundary bookkeeping both server backends share.
///
/// The threaded backend owns one per connection worker; the reactor
/// backend owns one per connection slot and feeds it whatever each
/// scan's reads delivered — the parse position survives across
/// arbitrarily split reads, so a frame torn over many scans
/// reassembles exactly once.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    pending: Vec<u8>,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes after the current partial tail.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Classifies the front of the buffer (see [`frame_status`]).
    pub fn status(&self) -> FrameStatus {
        frame_status(&self.pending)
    }

    /// Complete frames currently buffered (see [`count_frames`]).
    pub fn ready_frames(&self) -> usize {
        count_frames(&self.pending)
    }

    /// Whether any bytes are buffered at all — a timeout with an empty
    /// accumulator is keep-alive idleness, with a non-empty one a
    /// stalled partial frame.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Bytes currently buffered (complete frames plus any partial tail).
    pub fn buffered_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Splits up to `max` complete frames off the front, leaving any
    /// partial tail in place (see [`split_frames`]).
    pub fn split(&mut self, max: usize) -> (Vec<Vec<u8>>, bool) {
        split_frames(&mut self.pending, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_resumes_across_arbitrary_chunk_boundaries() {
        let mut wire = Vec::new();
        for body in [&b"abc"[..], &b"defgh"[..], &b""[..]] {
            wire.extend_from_slice(&(body.len() as u16).to_le_bytes());
            wire.extend_from_slice(body);
        }
        // Feed one byte at a time: the accumulator must never lose its
        // place, and frames must pop out exactly once, in order.
        let mut acc = FrameAccumulator::new();
        let mut got = Vec::new();
        for b in &wire {
            acc.extend(&[*b]);
            let (frames, oversize) = acc.split(32);
            assert!(!oversize);
            got.extend(frames);
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"defgh".to_vec(), Vec::new()]);
        assert!(acc.is_empty());
        assert_eq!(acc.ready_frames(), 0);
    }

    #[test]
    fn accumulator_reports_partial_and_oversize_state() {
        let mut acc = FrameAccumulator::new();
        assert_eq!(acc.status(), FrameStatus::NeedMore);
        acc.extend(&5u16.to_le_bytes());
        acc.extend(b"xy");
        assert_eq!(acc.status(), FrameStatus::NeedMore);
        assert!(!acc.is_empty());
        assert_eq!(acc.buffered_bytes(), 4);
        assert_eq!(acc.ready_frames(), 0);
        acc.extend(b"zzz");
        assert_eq!(acc.status(), FrameStatus::Ready);
        let (frames, _) = acc.split(32);
        assert_eq!(frames, vec![b"xyzzz".to_vec()]);

        acc.extend(&u16::MAX.to_le_bytes());
        assert_eq!(acc.status(), FrameStatus::Oversize);
        let (frames, oversize) = acc.split(32);
        assert!(frames.is_empty());
        assert!(oversize);
    }

    #[test]
    fn split_frames_parses_and_preserves_partial_tail() {
        let mut pending = Vec::new();
        for body in [&b"abc"[..], &b"defgh"[..]] {
            pending.extend_from_slice(&(body.len() as u16).to_le_bytes());
            pending.extend_from_slice(body);
        }
        pending.extend_from_slice(&5u16.to_le_bytes());
        pending.extend_from_slice(b"xy"); // incomplete body

        let (frames, oversize) = split_frames(&mut pending, 32);
        assert_eq!(frames, vec![b"abc".to_vec(), b"defgh".to_vec()]);
        assert!(!oversize);
        assert_eq!(pending, [&5u16.to_le_bytes()[..], b"xy"].concat());

        // `max` caps the batch.
        let mut two = Vec::new();
        for _ in 0..3 {
            two.extend_from_slice(&1u16.to_le_bytes());
            two.push(7);
        }
        let (frames, _) = split_frames(&mut two, 2);
        assert_eq!(frames.len(), 2);
        assert_eq!(count_frames(&two), 1);
    }

    #[test]
    fn split_frames_stops_at_oversize_header() {
        let mut pending = Vec::new();
        pending.extend_from_slice(&3u16.to_le_bytes());
        pending.extend_from_slice(b"abc");
        pending.extend_from_slice(&u16::MAX.to_le_bytes()); // oversize
        let (frames, oversize) = split_frames(&mut pending, 32);
        assert_eq!(frames, vec![b"abc".to_vec()]);
        assert!(oversize, "parsing must stop at the oversize header");
    }

    #[test]
    fn empty_and_header_only_buffers_need_more() {
        assert_eq!(frame_status(&[]), FrameStatus::NeedMore);
        assert_eq!(frame_status(&[3]), FrameStatus::NeedMore);
        assert_eq!(frame_status(&3u16.to_le_bytes()), FrameStatus::NeedMore);
        assert_eq!(count_frames(&[]), 0);
    }

    #[test]
    fn zero_length_frames_are_valid() {
        let mut pending = 0u16.to_le_bytes().to_vec();
        pending.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(count_frames(&pending), 2);
        let (frames, oversize) = split_frames(&mut pending, 32);
        assert_eq!(frames, vec![Vec::<u8>::new(), Vec::<u8>::new()]);
        assert!(!oversize);
        assert!(pending.is_empty());
    }
}
