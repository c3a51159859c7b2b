//! The per-connection state machine behind
//! [`crate::server::ServerBackend::Reactor`], and the interval its shard
//! loop parks for.
//!
//! There is no readiness layer here. The workspace vendors no `libc` and
//! the crate forbids `unsafe`, so there is no `poll(2)`/`epoll` to call;
//! a reactor shard (`server.rs::reactor_shard_loop`) instead scans the
//! non-blocking sockets it owns — one `read` per connection per pass —
//! and parks for [`SCAN_INTERVAL`] only after a pass that accepted
//! nothing and moved no byte.
//!
//! What this module keeps is the part worth testing without a socket:
//! [`ConnMachine`], the explicit per-connection state machine
//! (`Idle → Reading → Assessing → Writing → Idle`) that owns the
//! resumable [`FrameAccumulator`] parse state and the partially flushed
//! output buffer. It is pure with respect to I/O — bytes go in via
//! [`ConnMachine::on_bytes`] and come out via
//! [`ConnMachine::flush_into`] — so property tests drive it with
//! arbitrary interleavings of partial reads and partial writes.
//!
//! This module sits in both the determinism and panic-safety lint zones
//! (`cargo xtask lint`): it never reads a wall clock (the server tracks
//! idle deadlines through its injected `Clock`), and it never unwinds on
//! network input.

use crate::framing::{FrameAccumulator, FrameStatus};
use std::io::{self, Write};
use std::time::Duration;

/// How long a reactor shard parks after a scan that accepted no
/// connection and moved no byte. New connections, newly readable sockets
/// and the server's stop flag are all noticed within one interval.
pub const SCAN_INTERVAL: Duration = Duration::from_micros(500);

/// Where a connection currently sits in its serve cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnPhase {
    /// No buffered input, no pending output: waiting for the peer.
    #[default]
    Idle,
    /// Bytes buffered but no complete frame taken yet.
    Reading,
    /// A batch of complete frames has been taken and is being assessed.
    Assessing,
    /// Output is queued and not yet fully flushed.
    Writing,
}

/// Progress report of one [`ConnMachine::flush_into`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushProgress {
    /// Bytes written by this call.
    pub wrote: usize,
    /// Whether the output buffer fully drained.
    pub complete: bool,
}

/// The explicit per-connection state machine shared by the reactor
/// shard loop and the property tests.
///
/// All I/O stays outside: the shard's scan feeds bytes in through
/// [`ConnMachine::on_bytes`], the server takes batches with
/// [`ConnMachine::take_frames`], queues replies with
/// [`ConnMachine::queue_output`], and drains them with
/// [`ConnMachine::flush_into`] — which tolerates arbitrary partial
/// writes (`WouldBlock`) and resumes where it stopped. No frame is ever
/// dropped, duplicated, or reordered by construction: the accumulator
/// consumes input in order and the output buffer is append-only until
/// fully flushed.
#[derive(Debug, Default)]
pub struct ConnMachine {
    acc: FrameAccumulator,
    out: Vec<u8>,
    flushed: usize,
    phase: ConnPhase,
    close_after_flush: bool,
    eof: bool,
}

impl ConnMachine {
    /// A fresh connection in [`ConnPhase::Idle`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Current phase.
    pub fn phase(&self) -> ConnPhase {
        self.phase
    }

    /// Feeds bytes read off the socket into the resumable frame parser.
    pub fn on_bytes(&mut self, chunk: &[u8]) {
        if chunk.is_empty() {
            return;
        }
        self.acc.extend(chunk);
        if matches!(self.phase, ConnPhase::Idle) {
            self.phase = ConnPhase::Reading;
        }
    }

    /// Records that the peer half-closed: buffered frames are still
    /// answered, then the connection closes cleanly once flushed.
    pub fn on_eof(&mut self) {
        self.eof = true;
    }

    /// Whether the peer already half-closed.
    pub fn saw_eof(&self) -> bool {
        self.eof
    }

    /// Complete frames ready to take. Zero once the machine is closing.
    pub fn frames_ready(&self) -> usize {
        if self.close_after_flush {
            0
        } else {
            self.acc.ready_frames()
        }
    }

    /// Whether un-takeable bytes are buffered (a partial frame): a read
    /// timeout in this state is a stall, not keep-alive idleness.
    pub fn has_partial_input(&self) -> bool {
        !self.acc.is_empty()
    }

    /// Whether the front of the input buffer declares an oversize frame.
    pub fn input_oversize(&self) -> bool {
        self.acc.status() == FrameStatus::Oversize
    }

    /// Takes up to `max` complete frames (moving to
    /// [`ConnPhase::Assessing`]); the bool reports an oversize header.
    pub fn take_frames(&mut self, max: usize) -> (Vec<Vec<u8>>, bool) {
        let split = self.acc.split(max);
        if !split.0.is_empty() || split.1 {
            self.phase = ConnPhase::Assessing;
        }
        split
    }

    /// Direct access to the accumulator, for the server's shared
    /// batch-and-shed path.
    pub fn accumulator_mut(&mut self) -> &mut FrameAccumulator {
        &mut self.acc
    }

    /// Appends reply bytes; with `close_after` the connection closes as
    /// soon as everything queued so far has flushed (the oversize /
    /// cannot-resynchronise path).
    pub fn queue_output(&mut self, bytes: &[u8], close_after: bool) {
        self.out.extend_from_slice(bytes);
        if close_after {
            self.close_after_flush = true;
        }
        if self.pending_output() > 0 {
            self.phase = ConnPhase::Writing;
        } else {
            self.settle_phase();
        }
    }

    /// Bytes queued but not yet flushed.
    pub fn pending_output(&self) -> usize {
        self.out.len().saturating_sub(self.flushed)
    }

    /// Whether output is queued and not yet flushed.
    pub fn wants_write(&self) -> bool {
        self.pending_output() > 0
    }

    /// Whether a close has been requested (flushed or not). Once set, the
    /// machine accepts no further frames.
    pub fn close_requested(&self) -> bool {
        self.close_after_flush
    }

    /// Whether the slot should be torn down (close requested and every
    /// queued byte flushed).
    pub fn should_close(&self) -> bool {
        self.close_after_flush && self.pending_output() == 0
    }

    /// Writes as much pending output as `sink` accepts. `WouldBlock`
    /// pauses the flush (the machine keeps its position and retries on
    /// the next scan); any other error propagates.
    pub fn flush_into<W: Write>(&mut self, sink: &mut W) -> io::Result<FlushProgress> {
        let mut wrote = 0usize;
        loop {
            let pending = self.out.get(self.flushed..).unwrap_or_default();
            if pending.is_empty() {
                self.out.clear();
                self.flushed = 0;
                self.settle_phase();
                return Ok(FlushProgress {
                    wrote,
                    complete: true,
                });
            }
            match sink.write(pending) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.flushed += n;
                    wrote += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FlushProgress {
                        wrote,
                        complete: false,
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// After a full flush (or an empty queue), falls back to the phase
    /// the buffered input implies.
    fn settle_phase(&mut self) {
        self.phase = if self.acc.ready_frames() > 0 {
            ConnPhase::Assessing
        } else if !self.acc.is_empty() {
            ConnPhase::Reading
        } else {
            ConnPhase::Idle
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_machine_walks_reading_assessing_writing_idle() {
        let mut m = ConnMachine::new();
        assert_eq!(m.phase(), ConnPhase::Idle);

        let mut wire = Vec::new();
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(b"abc");
        m.on_bytes(&wire[..2]);
        assert_eq!(m.phase(), ConnPhase::Reading);
        assert_eq!(m.frames_ready(), 0);
        m.on_bytes(&wire[2..]);
        assert_eq!(m.frames_ready(), 1);

        let (frames, oversize) = m.take_frames(32);
        assert_eq!(m.phase(), ConnPhase::Assessing);
        assert!(!oversize);
        assert_eq!(frames, vec![b"abc".to_vec()]);

        m.queue_output(b"REPLY", false);
        assert_eq!(m.phase(), ConnPhase::Writing);
        let mut sink = Vec::new();
        let progress = m.flush_into(&mut sink).unwrap();
        assert!(progress.complete);
        assert_eq!(progress.wrote, 5);
        assert_eq!(sink, b"REPLY");
        assert_eq!(m.phase(), ConnPhase::Idle);
        assert!(!m.should_close());
    }

    /// A sink that accepts a bounded number of bytes, then `WouldBlock`s.
    struct ThrottledSink {
        accepted: Vec<u8>,
        budget: usize,
    }

    impl Write for ThrottledSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "throttled"));
            }
            let n = buf.len().min(self.budget);
            self.accepted
                .extend_from_slice(buf.get(..n).unwrap_or_default());
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_without_loss_or_duplication() {
        let mut m = ConnMachine::new();
        m.queue_output(b"0123456789", false);
        let mut sink = ThrottledSink {
            accepted: Vec::new(),
            budget: 4,
        };
        let p = m.flush_into(&mut sink).unwrap();
        assert!(!p.complete);
        assert_eq!(p.wrote, 4);
        assert!(m.wants_write());
        assert_eq!(m.phase(), ConnPhase::Writing);

        // More output queued while the first flush is stuck mid-buffer.
        m.queue_output(b"ABC", false);
        sink.budget = 64;
        let p = m.flush_into(&mut sink).unwrap();
        assert!(p.complete);
        assert_eq!(sink.accepted, b"0123456789ABC");
        assert!(!m.wants_write());
    }

    #[test]
    fn close_after_flush_waits_for_the_last_byte() {
        let mut m = ConnMachine::new();
        m.queue_output(b"BYE", true);
        assert!(!m.should_close(), "output still pending");
        assert_eq!(m.frames_ready(), 0, "a closing machine takes no frames");
        let mut sink = Vec::new();
        m.flush_into(&mut sink).unwrap();
        assert!(m.should_close());
    }
}
