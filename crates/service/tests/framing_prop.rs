//! Property tests for the request-stream frame parser: arbitrary frame
//! sequences, arbitrarily chunked, must reassemble exactly — and an
//! oversize header must surface only after every preceding frame has
//! been answered.

use fingerprint::MAX_SUBMISSION_BYTES;
use polygraph_service::framing::{
    count_frames, frame_status, split_frames, FrameAccumulator, FrameStatus,
};
use proptest::prelude::*;

/// Deterministic pseudo-random byte for a (seed, index) pair.
fn body_byte(seed: u64, i: usize) -> u8 {
    (seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        >> 32) as u8
}

/// Builds the wire image of `lens` frames with deterministic bodies.
fn wire_image(lens: &[u16], seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut wire = Vec::new();
    let mut bodies = Vec::new();
    for (f, &len) in lens.iter().enumerate() {
        let body: Vec<u8> = (0..len as usize)
            .map(|i| body_byte(seed ^ (f as u64) << 32, i))
            .collect();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&body);
        bodies.push(body);
    }
    (wire, bodies)
}

/// Splits `wire` into chunks at pseudo-random boundaries derived from
/// `seed`, covering the whole stream.
fn chunked(wire: &[u8], seed: u64) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut at = 0usize;
    let mut i = 0u64;
    while at < wire.len() {
        let step =
            1 + (seed.wrapping_add(i).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as usize % 7;
        let end = (at + step).min(wire.len());
        chunks.push(&wire[at..end]);
        at = end;
        i += 1;
    }
    chunks
}

proptest! {
    #[test]
    fn chunked_streams_reassemble_exactly(
        lens in proptest::collection::vec(0u16..600, 0..10),
        body_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
        max in 1usize..6,
    ) {
        let (wire, bodies) = wire_image(&lens, body_seed);
        let mut pending: Vec<u8> = Vec::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut saw_oversize = false;

        for chunk in chunked(&wire, chunk_seed) {
            pending.extend_from_slice(chunk);
            // Drain in bounded batches, exactly as the server does.
            loop {
                let before = pending.len();
                let (frames, oversize) = split_frames(&mut pending, max);
                prop_assert!(frames.len() <= max);
                saw_oversize |= oversize;
                got.extend(frames);
                if oversize || (pending.len() == before) {
                    break;
                }
            }
        }
        prop_assert!(!saw_oversize, "no oversize frames were sent");
        prop_assert_eq!(got, bodies);
        prop_assert!(pending.is_empty(), "no bytes may be left behind");
        prop_assert_eq!(count_frames(&pending), 0);
    }

    #[test]
    fn oversize_header_yields_preceding_frames_first(
        lens in proptest::collection::vec(0u16..600, 0..6),
        body_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
        oversize_len in (MAX_SUBMISSION_BYTES as u16 + 1)..u16::MAX,
    ) {
        let (mut wire, bodies) = wire_image(&lens, body_seed);
        // A frame whose header declares more than MAX_SUBMISSION_BYTES,
        // followed by garbage the parser must never try to skip.
        wire.extend_from_slice(&oversize_len.to_le_bytes());
        wire.extend_from_slice(&[0xAA; 16]);

        let mut pending: Vec<u8> = Vec::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut saw_oversize = false;
        for chunk in chunked(&wire, chunk_seed) {
            pending.extend_from_slice(chunk);
            loop {
                let before = pending.len();
                let (frames, oversize) = split_frames(&mut pending, 32);
                got.extend(frames);
                if oversize {
                    saw_oversize = true;
                }
                if oversize || pending.len() == before {
                    break;
                }
            }
        }
        // Every frame sent before the oversize header is answered...
        prop_assert_eq!(got, bodies);
        // ...and the poisoned tail is still reported as oversize, with
        // the header left at the front of the buffer.
        prop_assert!(saw_oversize);
        prop_assert_eq!(frame_status(&pending), FrameStatus::Oversize);
    }

    /// The borrowed walk against the reference: fed the same chunks of
    /// an arbitrary stream — zero-length frames, a cut-off tail, an
    /// oversize header with complete-looking frames after it — and
    /// drained in the same bounded batches, the accumulator's cursor
    /// hands out exactly `split_frames`'s bodies and `oversize` flags and
    /// is left holding the same bytes, wherever it is compacted; and its
    /// owning `split` is that walk, copied.
    #[test]
    fn borrowed_walk_agrees_with_split_frames(
        lens in proptest::collection::vec(0u16..600, 0..10),
        oversize_at in proptest::option::of(0usize..10),
        oversize_len in (MAX_SUBMISSION_BYTES as u16 + 1)..u16::MAX,
        body_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
        truncate in 0usize..40,
        max in 1usize..6,
    ) {
        let mut wire = Vec::new();
        for (f, &len) in lens.iter().enumerate() {
            if oversize_at == Some(f) {
                wire.extend_from_slice(&oversize_len.to_le_bytes());
            }
            wire.extend_from_slice(&wire_image(&[len], body_seed ^ f as u64).0);
        }
        wire.truncate(wire.len().saturating_sub(truncate));

        let mut pending: Vec<u8> = Vec::new();
        let mut owned_pending: Vec<u8> = Vec::new();
        let mut acc = FrameAccumulator::new();
        let mut owned = FrameAccumulator::new();
        for (step, chunk) in chunked(&wire, chunk_seed).into_iter().enumerate() {
            pending.extend_from_slice(chunk);
            owned_pending.extend_from_slice(chunk);
            acc.extend(chunk);
            owned.extend(chunk);
            prop_assert_eq!(owned.split(max), split_frames(&mut owned_pending, max));
            loop {
                prop_assert_eq!(acc.ready_frames(), count_frames(&pending));
                prop_assert_eq!(acc.status(), frame_status(&pending));
                let (want, want_oversize) = split_frames(&mut pending, max);
                let mut walk = acc.frames(max);
                let got: Vec<&[u8]> = walk.by_ref().collect();
                prop_assert_eq!(walk.oversize(), want_oversize);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(acc.buffered_bytes(), pending.len());
                prop_assert_eq!(acc.is_empty(), pending.is_empty());
                if want.is_empty() {
                    break;
                }
            }
            // The server compacts once per drained backlog; any moment
            // between walks must do.
            if (chunk_seed >> (step % 64)) & 1 == 1 {
                acc.compact();
                prop_assert_eq!(acc.buffered_bytes(), pending.len());
                prop_assert_eq!(acc.status(), frame_status(&pending));
            }
        }
    }

    #[test]
    fn count_frames_agrees_with_split_frames(
        lens in proptest::collection::vec(0u16..600, 0..10),
        body_seed in any::<u64>(),
        truncate in 0usize..40,
    ) {
        let (mut wire, _) = wire_image(&lens, body_seed);
        // Possibly cut the stream mid-frame.
        let cut = wire.len().saturating_sub(truncate);
        wire.truncate(cut);
        let counted = count_frames(&wire);
        let mut pending = wire.clone();
        let (frames, oversize) = split_frames(&mut pending, usize::MAX);
        prop_assert!(!oversize);
        prop_assert_eq!(frames.len(), counted);
        // The tail that remains is exactly the partial frame.
        prop_assert_eq!(count_frames(&pending), 0);
    }
}
