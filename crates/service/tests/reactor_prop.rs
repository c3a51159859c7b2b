//! Property tests for the reactor's per-connection state
//! ([`ConnMachine`]): arbitrary seeded interleavings of partial reads,
//! bounded batch takes and partial writes must never drop, duplicate, or
//! reorder a frame — and the reply byte stream must come out exactly as
//! if the connection had been served synchronously.
//!
//! The machine is pure with respect to I/O, so these tests drive it
//! through the calls the reactor shard loop makes (bytes in through
//! `accumulator_mut()`, frames taken and replies queued inside
//! `answer_with`, replies out via `flush_into`) but with adversarial
//! schedules no real socket would reliably produce.

use polygraph_service::reactor::ConnMachine;
use proptest::prelude::*;
use std::io::{self, Write};

/// Deterministic pseudo-random byte for a (seed, index) pair.
fn mix(seed: u64, i: u64) -> u8 {
    (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u8
}

/// Builds the wire image of `lens` frames with deterministic bodies.
fn wire_image(lens: &[u16], seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut wire = Vec::new();
    let mut bodies = Vec::new();
    for (f, &len) in lens.iter().enumerate() {
        let body: Vec<u8> = (0..len as u64)
            .map(|i| mix(seed ^ ((f as u64) << 32), i))
            .collect();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&body);
        bodies.push(body);
    }
    (wire, bodies)
}

/// Splits `wire` into chunks at pseudo-random boundaries derived from
/// `seed` — each chunk is one simulated readable event's delivery.
fn chunked(wire: &[u8], seed: u64) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut at = 0usize;
    let mut i = 0u64;
    while at < wire.len() {
        let step = 1 + mix(seed, i) as usize % 7;
        let end = (at + step).min(wire.len());
        chunks.push(&wire[at..end]);
        at = end;
        i += 1;
    }
    chunks
}

/// The deterministic reply the simulated server writes for frame number
/// `idx` with body `frame` — variable length, so partial flushes tear
/// replies at every possible offset.
fn reply_for(frame: &[u8], idx: usize) -> Vec<u8> {
    let tag = frame.iter().fold(idx as u64, |acc, &b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    });
    (0..(1 + idx % 9)).map(|i| mix(tag, i as u64)).collect()
}

/// A sink that accepts a bounded number of bytes, then `WouldBlock`s —
/// the pure-logic stand-in for a socket whose send buffer fills.
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
        self.accepted.extend_from_slice(&buf[..n]);
        self.budget -= n;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    /// The core conformance property: under any interleaving of torn
    /// reads, bounded batch takes, and throttled partial writes, every
    /// frame is taken exactly once, in order, and the reply stream is
    /// byte-identical to a synchronous serve.
    #[test]
    fn no_frame_dropped_duplicated_or_reordered(
        lens in proptest::collection::vec(0u16..120, 0..12),
        body_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        let (wire, bodies) = wire_image(&lens, body_seed);
        let mut machine = ConnMachine::new();
        let mut sink = ThrottledSink { accepted: Vec::new(), budget: 0 };
        let mut taken: Vec<Vec<u8>> = Vec::new();
        let mut queued_total = 0usize;

        for (step, chunk) in chunked(&wire, chunk_seed).into_iter().enumerate() {
            // One readable event delivers this chunk.
            machine.accumulator_mut().extend(chunk);
            let r = mix(sched_seed, step as u64);

            // Sometimes the "server" takes a (bounded) batch and queues
            // replies; sometimes the event loop moves on and the frames
            // wait — both must be safe.
            if !r.is_multiple_of(3) {
                let max = 1 + r as usize % 4;
                let mut took = 0;
                machine.answer_with(|acc, out| {
                    let (frames, oversize) = acc.split(max);
                    took = frames.len();
                    for f in frames {
                        let reply = reply_for(&f, taken.len());
                        queued_total += reply.len();
                        out.extend_from_slice(&reply);
                        taken.push(f);
                    }
                    oversize
                });
                prop_assert!(took <= max);
                prop_assert!(!machine.close_requested(), "no oversize frames were sent");
            }

            // One writable event flushes under a random budget — often
            // tearing a reply mid-byte-stream.
            sink.budget += r as usize % 48;
            let progress = machine.flush_into(&mut sink).unwrap();
            prop_assert_eq!(
                machine.pending_output(),
                queued_total - sink.accepted.len(),
                "the machine's unflushed count must reconcile with the sink"
            );
            if !progress.complete {
                prop_assert!(machine.wants_write());
            }
        }

        // The stream has fully arrived: drain every remaining frame,
        // then flush without throttling.
        loop {
            let before = taken.len();
            machine.answer_with(|acc, out| {
                let (frames, oversize) = acc.split(32);
                for f in frames {
                    let reply = reply_for(&f, taken.len());
                    queued_total += reply.len();
                    out.extend_from_slice(&reply);
                    taken.push(f);
                }
                oversize
            });
            prop_assert!(!machine.close_requested());
            if taken.len() == before {
                break;
            }
        }
        sink.budget = usize::MAX;
        let progress = machine.flush_into(&mut sink).unwrap();
        prop_assert!(progress.complete);
        prop_assert_eq!(sink.accepted.len(), queued_total);

        // No frame dropped, duplicated, or reordered...
        prop_assert_eq!(&taken, &bodies);
        // ...and the reply bytes are exactly the synchronous serve's.
        let expected: Vec<u8> = bodies
            .iter()
            .enumerate()
            .flat_map(|(i, b)| reply_for(b, i))
            .collect();
        prop_assert_eq!(&sink.accepted, &expected);

        // The machine settles: nothing buffered, nothing pending.
        prop_assert!(!machine.wants_write());
        prop_assert!(!machine.has_partial_input());
        prop_assert_eq!(machine.frames_ready(), 0);
    }

    /// An oversize header mid-stream: every preceding frame is still
    /// taken and answered, then the machine closes — and once closing it
    /// never yields another frame, no matter what else arrives.
    #[test]
    fn oversize_closes_after_answering_preceding_frames(
        lens in proptest::collection::vec(0u16..120, 0..8),
        body_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
        oversize_len in 1025u16..u16::MAX,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (mut wire, bodies) = wire_image(&lens, body_seed);
        wire.extend_from_slice(&oversize_len.to_le_bytes());
        wire.extend_from_slice(&garbage);

        let mut machine = ConnMachine::new();
        let mut taken: Vec<Vec<u8>> = Vec::new();
        let mut saw_oversize = false;
        for chunk in chunked(&wire, chunk_seed) {
            machine.accumulator_mut().extend(chunk);
            loop {
                let before = taken.len();
                machine.answer_with(|acc, out| {
                    let (frames, oversize) = acc.split(4);
                    taken.extend(frames);
                    if oversize {
                        // The serve path answers what came before, then
                        // requests a close.
                        out.extend_from_slice(b"ERR");
                    }
                    oversize
                });
                saw_oversize = machine.close_requested();
                if saw_oversize || taken.len() == before {
                    break;
                }
            }
            if saw_oversize {
                break;
            }
        }
        prop_assert!(saw_oversize, "the oversize header must surface");
        prop_assert_eq!(&taken, &bodies);

        // A closing machine accepts no further frames, even if more
        // complete-looking bytes arrive after the poisoned header.
        machine.accumulator_mut().extend(&3u16.to_le_bytes());
        machine.accumulator_mut().extend(b"abc");
        prop_assert_eq!(machine.frames_ready(), 0);
        prop_assert!(machine.close_requested());
        prop_assert!(!machine.should_close(), "reply still unflushed");

        let mut sink = ThrottledSink { accepted: Vec::new(), budget: usize::MAX };
        let progress = machine.flush_into(&mut sink).unwrap();
        prop_assert!(progress.complete);
        prop_assert_eq!(&sink.accepted, b"ERR");
        prop_assert!(machine.should_close());
    }
}
