//! Request-stream framing for the risk server.
//!
//! Requests arrive as u16-LE length-prefixed frames. These helpers parse
//! a connection's pending byte buffer without ever panicking (the crate
//! denies clippy's panic and indexing lints): they destructure
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

/// The one frame parser: the first frame's body and what follows it, or
/// why there is no first frame yet (never [`FrameStatus::Ready`]).
/// Everything below that classifies or steps over frames goes through
/// this.
fn split_first_frame(pending: &[u8]) -> Result<(&[u8], &[u8]), FrameStatus> {
    // Destructure instead of indexing: this parser faces the network, so
    // `clippy::indexing_slicing` bans `pending[..]` on the serve path.
    let [len0, len1, rest @ ..] = pending else {
        return Err(FrameStatus::NeedMore);
    };
    let len = u16::from_le_bytes([*len0, *len1]) as usize;
    if len > MAX_SUBMISSION_BYTES {
        return Err(FrameStatus::Oversize);
    }
    rest.split_at_checked(len).ok_or(FrameStatus::NeedMore)
}

/// Classifies the front of `pending`.
pub fn frame_status(pending: &[u8]) -> FrameStatus {
    match split_first_frame(pending) {
        Ok(_) => FrameStatus::Ready,
        Err(status) => status,
    }
}

/// Splits up to `max` complete length-prefixed frames off the front of
/// `pending`, leaving any partial tail in place. The second return is true
/// when parsing stopped at an oversize header. Every body is copied out;
/// the server itself borrows them ([`FrameAccumulator::frames`]), and this
/// owning form is the reference that walk is tested against.
pub fn split_frames(pending: &mut Vec<u8>, max: usize) -> (Vec<Vec<u8>>, bool) {
    let mut frames = Vec::new();
    let mut rest = pending.as_slice();
    while frames.len() < max {
        let Ok((body, after)) = split_first_frame(rest) else {
            break;
        };
        frames.push(body.to_vec());
        rest = after;
    }
    let oversize = frames.len() < max && frame_status(rest) == FrameStatus::Oversize;
    let consumed = pending.len().saturating_sub(rest.len());
    pending.drain(..consumed);
    (frames, oversize)
}

/// Number of complete frames buffered at the front of `pending` (stops
/// at a partial tail or an oversize header).
pub fn count_frames(mut pending: &[u8]) -> usize {
    let mut n = 0;
    while let Ok((_, after)) = split_first_frame(pending) {
        pending = after;
        n += 1;
    }
    n
}

/// Resumable per-connection parse state: the pending byte buffer plus
/// the frame-boundary bookkeeping both server backends share.
///
/// The threaded backend owns one per connection worker; the reactor
/// backend owns one per connection slot and feeds it whatever each
/// scan's reads delivered — the parse position survives across
/// arbitrarily split reads, so a frame torn over many scans
/// reassembles exactly once.
///
/// Frames are handed out *borrowed* ([`Self::frames`]): the walk moves a
/// read cursor and the bytes stay where the socket read put them until
/// [`Self::compact`] — called once per drained backlog, when little or
/// nothing is left to move — so answering a frame copies none of it.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    pending: Vec<u8>,
    /// The read cursor: everything before it has been handed out.
    head: usize,
    /// How far [`Self::extend`] has counted complete frames (≥ `head`).
    scanned: usize,
    /// Complete frames between `head` and `scanned`.
    ready: usize,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes after the current partial tail and
    /// counts the frames they completed — each buffered byte is stepped
    /// over once here, however many reads a backlog arrives in.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
        let mut rest = self.pending.get(self.scanned..).unwrap_or_default();
        while let Ok((_, after)) = split_first_frame(rest) {
            rest = after;
            self.ready += 1;
        }
        self.scanned = self.pending.len().saturating_sub(rest.len());
    }

    /// The bytes not yet handed out.
    fn unread(&self) -> &[u8] {
        self.pending.get(self.head..).unwrap_or_default()
    }

    /// Classifies the front of the buffer (see [`frame_status`]).
    pub fn status(&self) -> FrameStatus {
        frame_status(self.unread())
    }

    /// Complete frames currently buffered, as [`Self::extend`] counted
    /// them (what [`count_frames`] would say of the unread bytes).
    pub fn ready_frames(&self) -> usize {
        self.ready
    }

    /// Whether any bytes are buffered at all — a timeout with an empty
    /// accumulator is keep-alive idleness, with a non-empty one a
    /// stalled partial frame.
    pub fn is_empty(&self) -> bool {
        self.unread().is_empty()
    }

    /// Bytes currently buffered (complete frames plus any partial tail).
    pub fn buffered_bytes(&self) -> usize {
        self.unread().len()
    }

    /// The borrowed walk: up to `max` complete frames from the read
    /// cursor on, each handed out as a slice of the buffer while the
    /// cursor moves past it. The bodies stay valid for as long as the
    /// accumulator stays borrowed — nothing moves before
    /// [`Self::compact`].
    pub fn frames(&mut self, max: usize) -> Frames<'_> {
        Frames {
            rest: self.pending.get(self.head..).unwrap_or_default(),
            head: &mut self.head,
            ready: &mut self.ready,
            left: max,
        }
    }

    /// Drops the bytes already handed out, moving what is left (a
    /// partial tail, or whatever follows an oversize header) to the
    /// front of the buffer.
    pub fn compact(&mut self) {
        if self.head == 0 {
            return; // nothing handed out since the last compaction
        }
        self.pending.drain(..self.head.min(self.pending.len()));
        self.scanned = self.scanned.saturating_sub(self.head);
        self.head = 0;
    }

    /// Splits up to `max` complete frames off the front as owned copies,
    /// leaving any partial tail in place: [`Self::frames`] collected,
    /// then [`Self::compact`] (see [`split_frames`]).
    pub fn split(&mut self, max: usize) -> (Vec<Vec<u8>>, bool) {
        let mut walk = self.frames(max);
        let frames = walk.by_ref().map(<[u8]>::to_vec).collect();
        let oversize = walk.oversize();
        self.compact();
        (frames, oversize)
    }
}

/// [`FrameAccumulator::frames`]: yields borrowed frame bodies in arrival
/// order, advancing the accumulator's read cursor as it goes.
#[derive(Debug)]
pub struct Frames<'a> {
    rest: &'a [u8],
    head: &'a mut usize,
    ready: &'a mut usize,
    /// Frames this walk may still hand out.
    left: usize,
}

impl Frames<'_> {
    /// Whether the walk stopped — short of its `max` — at an oversize
    /// header: everything before it has been handed out, and there is no
    /// way to resynchronise past it (what [`split_frames`] reports).
    pub fn oversize(&self) -> bool {
        self.left > 0 && frame_status(self.rest) == FrameStatus::Oversize
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        let (body, after) = split_first_frame(self.rest).ok()?;
        *self.head += self.rest.len().saturating_sub(after.len());
        *self.ready = self.ready.saturating_sub(1);
        self.left -= 1;
        self.rest = after;
        Some(body)
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
