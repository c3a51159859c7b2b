//! The per-connection state behind
//! [`crate::server::ServerBackend::Reactor`], and the interval its shard
//! loop parks for.
//!
//! There is no readiness layer here. The workspace vendors no `libc` and
//! the crate forbids `unsafe`, so there is no `poll(2)`/`epoll` to call;
//! a reactor shard (`server/shard.rs::reactor_shard_loop`) instead scans the
//! non-blocking sockets it owns — one `read` per connection per pass —
//! and parks for [`SCAN_INTERVAL`] only once a whole [`SCAN_INTERVAL`]
//! has gone by (on the server's injected clock) since a pass last
//! accepted a connection or moved a byte; until then an idle pass
//! yields and re-scans.
//!
//! What this module keeps is the part worth testing without a socket:
//! [`ConnMachine`], which owns a connection's resumable
//! [`FrameAccumulator`] parse state, its partially flushed reply buffer,
//! and the two flags (peer half-closed, close after flush) that decide
//! when the slot retires. There is no phase enum: where a connection
//! stands is read off what is buffered. It is pure with respect to I/O —
//! bytes go in through [`ConnMachine::accumulator_mut`] and come out via
//! [`ConnMachine::flush_into`] — so property tests drive it with
//! arbitrary interleavings of partial reads and partial writes.
//!
//! It never reads a wall clock (`clippy.toml`; the server tracks idle
//! deadlines through its injected `Clock`), and it never unwinds on
//! network input (the crate's clippy panic lints).

use crate::framing::FrameAccumulator;
use std::io::{self, Write};
use std::time::Duration;

/// How long a reactor shard parks after an idle scan — one that
/// accepted no connection and moved no byte — and also how long after
/// its last non-idle scan it keeps re-scanning before it parks at all:
/// a shard never sleeps in front of a peer that spoke within the last
/// interval. New connections, newly readable sockets and the server's
/// stop flag are all noticed within one interval.
pub const SCAN_INTERVAL: Duration = Duration::from_micros(500);

/// Progress report of one [`ConnMachine::flush_into`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushProgress {
    /// Bytes written by this call.
    pub wrote: usize,
    /// Whether the output buffer fully drained.
    pub complete: bool,
}

/// One reactor connection's buffered state, shared by the shard loop and
/// the property tests.
///
/// All I/O stays outside: the shard's scan reads into
/// [`ConnMachine::accumulator_mut`], the server's drive loop walks
/// frames off the same accumulator and appends its replies to the reply
/// buffer inside [`ConnMachine::answer_with`], and the shard drains them
/// with [`ConnMachine::flush_into`] — which tolerates arbitrary partial
/// writes (`WouldBlock`) and resumes where it stopped. No frame is ever
/// dropped, duplicated, or reordered by construction: the accumulator
/// consumes input in order and the output buffer is append-only until
/// fully flushed.
#[derive(Debug, Default)]
pub struct ConnMachine {
    acc: FrameAccumulator,
    out: Vec<u8>,
    flushed: usize,
    close_after_flush: bool,
    eof: bool,
}

impl ConnMachine {
    /// A fresh connection: nothing buffered, nothing queued.
    pub fn new() -> Self {
        Self::default()
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

    /// The connection's parse state, for socket reads to append to.
    pub fn accumulator_mut(&mut self) -> &mut FrameAccumulator {
        &mut self.acc
    }

    /// The one way replies get queued: lets `answer` take frames off the
    /// buffered input and append what it answers straight onto the
    /// reply buffer — no intermediate copy — and closes the connection,
    /// as soon as everything queued so far has flushed, when it returns
    /// `true` (the oversize / cannot-resynchronise path). A machine
    /// already closing takes no further frames, so `answer` is not
    /// called on one.
    pub fn answer_with(
        &mut self,
        answer: impl FnOnce(&mut FrameAccumulator, &mut Vec<u8>) -> bool,
    ) {
        if !self.close_after_flush && answer(&mut self.acc, &mut self.out) {
            self.close_after_flush = true;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `answer_with` body that queues `bytes` and takes no frame.
    fn reply(out: &mut Vec<u8>, bytes: &[u8], close: bool) -> bool {
        out.extend_from_slice(bytes);
        close
    }

    #[test]
    fn conn_machine_buffers_a_torn_frame_and_flushes_its_reply() {
        let mut m = ConnMachine::new();
        assert!(!m.has_partial_input());

        let mut wire = Vec::new();
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(b"abc");
        m.accumulator_mut().extend(&wire[..2]);
        assert!(m.has_partial_input());
        assert_eq!(m.frames_ready(), 0);
        m.accumulator_mut().extend(&wire[2..]);
        assert_eq!(m.frames_ready(), 1);

        let (frames, oversize) = m.accumulator_mut().split(32);
        assert!(!oversize);
        assert_eq!(frames, vec![b"abc".to_vec()]);
        assert!(!m.has_partial_input());

        m.answer_with(|_, out| reply(out, b"REPLY", false));
        assert!(m.wants_write());
        let mut sink = Vec::new();
        let progress = m.flush_into(&mut sink).unwrap();
        assert!(progress.complete);
        assert_eq!(progress.wrote, 5);
        assert_eq!(sink, b"REPLY");
        assert!(!m.wants_write());
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
        m.answer_with(|_, out| reply(out, b"0123456789", false));
        let mut sink = ThrottledSink {
            accepted: Vec::new(),
            budget: 4,
        };
        let p = m.flush_into(&mut sink).unwrap();
        assert!(!p.complete);
        assert_eq!(p.wrote, 4);
        assert!(m.wants_write());

        // More output queued while the first flush is stuck mid-buffer.
        m.answer_with(|_, out| reply(out, b"ABC", false));
        sink.budget = 64;
        let p = m.flush_into(&mut sink).unwrap();
        assert!(p.complete);
        assert_eq!(sink.accepted, b"0123456789ABC");
        assert!(!m.wants_write());
    }

    #[test]
    fn close_after_flush_waits_for_the_last_byte() {
        let mut m = ConnMachine::new();
        m.answer_with(|_, out| reply(out, b"BYE", true));
        assert!(!m.should_close(), "output still pending");
        assert_eq!(m.frames_ready(), 0, "a closing machine takes no frames");
        let mut sink = Vec::new();
        m.flush_into(&mut sink).unwrap();
        assert!(m.should_close());
    }
}
