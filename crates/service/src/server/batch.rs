//! The path both connection cores share, from buffered bytes to reply
//! bytes: [`read_buffered`] fills a connection's accumulator without
//! blocking, [`drive_buffered`] answers everything it holds — one
//! assess–reply–shed cycle ([`process_buffered`]) per ≤ 32-frame batch,
//! into the connection's one reply buffer, through the connection's one
//! [`ConnScratch`] — and [`assess_frame`] is the same assessment for one
//! frame in process. Every serve-path counter is
//! charged here, so the cores cannot disagree on one; they differ only
//! in how they wait for bytes and how the reply buffer reaches the
//! socket.
//!
//! A batch with misses loads the serving snapshot once and assesses
//! holding no lock; `assess_frame`, the one-frame door, assesses under
//! its caller's read guard.

use super::decode::{decode_session, verdict_from_assessment, UaMemo};
use super::handle::ConnContext;
use super::metrics::{metric_names, LocalCounters, ServerMetrics};
use super::serving::ShadowScorer;
use crate::framing::{FrameAccumulator, FrameStatus};
use crate::proto::{encode_stats_response, Verdict, VerdictStatus};
use browser_engine::UserAgent;
use fingerprint::is_stats_request;
use polygraph_core::detect::verdicts_agree;
use polygraph_core::{Assessment, Detector, PolygraphError};
use polygraph_obs::{Registry, Span};
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::Arc;

/// Frames a connection worker answers per batch, from one load of the
/// serving snapshot. Bounds verdict latency for the frames at the back
/// of a drained batch, and how many frames a busy connection answers
/// with a model that a publish has already replaced.
pub const MAX_BATCH_PER_GUARD: usize = 32;

/// One `read` of at most 4 KiB off `stream` into `acc`, charged to
/// `server.bytes.read`; returns the byte count (0 at end-of-stream). The
/// only socket read on the serve path: a threaded worker blocks in it,
/// [`read_buffered`] loops over it on a non-blocking socket.
pub(super) fn read_chunk(
    stream: &mut TcpStream,
    acc: &mut FrameAccumulator,
    ctx: &ConnContext,
) -> io::Result<usize> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    ctx.metrics.bytes_read.add(n as u64);
    acc.extend(chunk.get(..n).unwrap_or_default());
    Ok(n)
}

/// Pulls whatever the peer already sent off a non-blocking `stream` into
/// `acc`, a chunk at a time, until enough complete frames are buffered,
/// the socket would block, or the peer closed; returns the bytes read and
/// whether end-of-stream was seen. Both cores fill their accumulator
/// through this one loop.
///
/// "Enough" is one batch plus the shed threshold plus one, so an
/// overloaded connection's backlog becomes *visible* instead of queueing
/// invisibly (and unboundedly) in kernel buffers — and it is what bounds
/// the reply buffer [`drive_buffered`] fills before anything is written.
pub(super) fn read_buffered(
    stream: &mut TcpStream,
    acc: &mut FrameAccumulator,
    ctx: &ConnContext,
) -> io::Result<(usize, bool)> {
    let target = MAX_BATCH_PER_GUARD
        .saturating_add(ctx.shed_limit)
        .saturating_add(1);
    let mut total = 0usize;
    while acc.ready_frames() < target {
        match read_chunk(stream, acc, ctx) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => total += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok((total, false))
}

/// Answers everything `acc` holds: batch cycles for as long as a
/// complete frame or an oversize header is buffered, every reply
/// appended to `out` in frame order, then one compaction of what is left
/// (a partial frame at most). Returns `true` when the connection must
/// close once `out` is flushed.
///
/// Both cores call this once per drained backlog and write `out` once,
/// so a backlog of `n` batches costs one write and one peer wake-up, not
/// `n`. The price is that the first batch's verdicts wait for the last
/// batch's: at most `1 + shed_limit / 32` cycles (a backlog larger than
/// one batch plus the shed limit is shed down inside its first cycle),
/// which is what the reactor always did. The snapshot is still loaded once
/// per batch, so a publish reaches the next batch, not the end of the
/// backlog.
pub(super) fn drive_buffered(
    acc: &mut FrameAccumulator,
    scratch: &mut ConnScratch,
    ctx: &ConnContext,
    out: &mut Vec<u8>,
) -> bool {
    let mut close = false;
    while !close && acc.status() != FrameStatus::NeedMore {
        close = process_buffered(acc, scratch, ctx, out);
    }
    acc.compact();
    close
}

/// One reply of a batch cycle, in the order its frame arrived.
#[derive(Debug)]
enum Reply {
    /// A `STATS` frame: answered with a rendered metrics snapshot.
    Stats,
    /// A submission frame's verdict.
    Verdict(Verdict),
}

impl Reply {
    /// Appends the wire form to `out` — the one place a `STATS` frame is
    /// counted and answered and a verdict is encoded. `snapshot` caches
    /// the rendered JSON between calls: a batch shares one (rendered at
    /// its first `STATS` frame), a caller passing a fresh `None` gets a
    /// fresh snapshot.
    fn encode_into(
        &self,
        out: &mut Vec<u8>,
        metrics: &ServerMetrics,
        snapshot: &mut Option<Vec<u8>>,
    ) {
        match self {
            Reply::Stats => {
                metrics.stats_requests.inc();
                let json = snapshot.get_or_insert_with(|| {
                    metrics.registry().snapshot().render_json().into_bytes()
                });
                out.extend_from_slice(&encode_stats_response(json));
            }
            Reply::Verdict(v) => out.extend_from_slice(&v.encode()),
        }
    }
}

/// What a connection keeps from one batch cycle to the next, so that a
/// cache miss pays for its assessment and not for the allocator: the
/// user-agent memo, the session rows the detector reads, and the batch's
/// reply list. Each cycle refills them in place.
///
/// Retained capacity is bounded by one batch whatever a client sends:
/// the memo by its own table (see [`UaMemo`]), the reply list by
/// [`MAX_BATCH_PER_GUARD`] entries, the rows by [`MAX_BATCH_PER_GUARD`]
/// of them, each as long as the longest value list one frame has
/// carried in that position — at most `fingerprint::wire::MAX_VALUES`
/// (a 1 KB frame holds fewer), so ≤ 32 × 1 024 × 8 B = 256 KiB, and
/// 32 × 28 × 8 B = 7 KiB on Table-8 traffic.
#[derive(Debug, Default)]
pub(super) struct ConnScratch {
    memo: UaMemo,
    /// The first `live` are this batch's decoded misses, in frame order;
    /// the rest keep their buffers for the next batch.
    rows: Vec<(Vec<f64>, UserAgent)>,
    live: usize,
    replies: Vec<Reply>,
}

impl ConnScratch {
    /// Decodes a missed frame into the next free row; `false` (and no
    /// row taken) when the frame or its user-agent does not parse.
    fn decode_miss(&mut self, frame: &[u8]) -> bool {
        let decoded = match self.rows.get_mut(self.live) {
            Some((row, claimed)) => decode_session(frame, |ua| self.memo.parse(ua), row)
                .map(|parsed| *claimed = parsed)
                .is_some(),
            None => {
                let mut row = Vec::new();
                let claimed = decode_session(frame, |ua| self.memo.parse(ua), &mut row);
                self.rows.extend(claimed.map(|claimed| (row, claimed)));
                claimed.is_some()
            }
        };
        self.live += usize::from(decoded);
        decoded
    }

    /// This batch's decoded misses, as `Detector::assess_many` takes them.
    fn sessions(&self) -> &[(Vec<f64>, UserAgent)] {
        self.rows.get(..self.live).unwrap_or_default()
    }
}

/// The assess–reply–shed cycle both backends run while at least one
/// complete frame (or an oversize header) is buffered. Walks one batch
/// off `acc` — borrowed, no frame is copied — answers it (cache lookups,
/// then one snapshot load for the misses, replies in frame order),
/// sheds any backlog beyond the shed limit, and appends the closing
/// malformed verdict when parsing stopped at an oversize header, all
/// onto the end of `out`. Returns whether it did: after flushing `out`
/// the connection must then close — there is no way to resynchronise.
/// Every counter is charged here, per batch, identically for both cores.
fn process_buffered(
    acc: &mut FrameAccumulator,
    scratch: &mut ConnScratch,
    ctx: &ConnContext,
    out: &mut Vec<u8>,
) -> bool {
    let metrics = &ctx.metrics;
    let cache = ctx.cache.as_deref();
    let answered = out.len();

    // Lookup phase: one reply per frame, in frame order. A cache hit is
    // final; a miss holds `Malformed` until the detector phase says
    // otherwise, and is remembered as (reply index, cache key, frame) —
    // no key for an unkeyable frame or a disabled cache. One span covers
    // the whole pass: a clock pair costs more than the lookup it would
    // time.
    let mut local = LocalCounters::default();
    scratch.replies.clear();
    scratch.live = 0;
    let mut misses: Vec<(usize, Option<u64>, &[u8])> = Vec::new();
    let lookup_span = cache.map(|c| {
        Span::on(
            Arc::clone(&c.lookup_micros),
            Arc::clone(metrics.registry().clock()),
        )
    });
    let mut frames = acc.frames(MAX_BATCH_PER_GUARD);
    for f in frames.by_ref() {
        if is_stats_request(f) {
            scratch.replies.push(Reply::Stats);
            continue;
        }
        let (key, hit) = match cache {
            Some(cache) => cache.lookup_for_assess(f, &mut local),
            None => (None, None),
        };
        if hit.is_none() {
            misses.push((scratch.replies.len(), key, f));
        }
        scratch.replies.push(Reply::Verdict(
            hit.unwrap_or(Verdict::error(VerdictStatus::Malformed)),
        ));
    }
    let mut oversize = frames.oversize();
    let any_submission = local.hits > 0 || !misses.is_empty();
    if let Some(span) = lookup_span {
        if any_submission {
            span.finish();
        } else {
            span.cancel();
        }
    }

    // Detector phase: one snapshot load for whatever the cache could not
    // answer, so one model answers the whole batch.
    if !misses.is_empty() {
        let span = Span::on(
            Arc::clone(&metrics.batch_micros),
            Arc::clone(metrics.registry().clock()),
        );
        let n_misses = misses.len();
        // Decode the missed frames first: frames that fail to decode
        // never need the detector at all (they keep their `Malformed`),
        // and the surviving sessions feed one `assess_many` call per
        // batch — on a quantized server one fused fixed-point pass over
        // the whole batch.
        misses.retain(|&(_, _, f)| {
            let decoded = scratch.decode_miss(f);
            local.malformed += u64::from(!decoded);
            decoded
        });
        let sessions = scratch.sessions();
        // A verdict's cache tag and its model come from one load: the
        // batch assesses, shadow-compares and caches at the epoch
        // published with the detector that answers it. If a publish
        // lands meanwhile, these verdicts carry the old epoch and
        // harmlessly miss forever.
        let serving = ctx.serving.load();
        let assessments = serving.detector.assess_many(sessions);
        if let Some(shadow) = &serving.shadow {
            shadow_compare(shadow, sessions, &assessments);
        }
        // `assess_many` returns one result per session, in order.
        for ((at, key, _), result) in misses.into_iter().zip(assessments) {
            let v = verdict_from_assessment(result, &mut local);
            if let (Some(cache), Some(key)) = (cache, key) {
                local.evictions += u64::from(cache.store(key, serving.epoch, v));
            }
            if let Some(reply) = scratch.replies.get_mut(at) {
                *reply = Reply::Verdict(v);
            }
        }
        span.finish();
        metrics.batches.inc();
        metrics.batch_frames.record(n_misses as u64);
    }
    if any_submission {
        if let Some(cache) = cache {
            cache.publish_occupancy();
        }
        // Folded before the replies render, so a `STATS` frame sees
        // every assessment of its own batch — cache books included.
        local.fold_into(metrics, cache);
    }

    let mut batch_snapshot = None;
    for reply in &scratch.replies {
        reply.encode_into(out, metrics, &mut batch_snapshot);
    }
    metrics
        .bytes_written
        .add(out.len().saturating_sub(answered) as u64);

    // Overload shedding: complete frames still queued beyond the shed
    // threshold after this batch are answered *now* with `Degraded` —
    // no assessment — instead of waiting behind future batches. The
    // risk verdict is one signal in a risk-based authentication flow;
    // under overload a fast "could not assess" beats an unbounded
    // queue. `STATS` frames in the backlog are still answered, each with
    // a snapshot of its own (they are cheap) that holds every backlog
    // frame before it. A backlog frame the verdict cache can answer is
    // served from cache — also detector-free, so it respects the
    // shedding contract — while a cache-missed shed frame is never
    // assessed and therefore never cached.
    if !oversize && acc.ready_frames() > ctx.shed_limit {
        let answered = out.len();
        let mut backlog = acc.frames(usize::MAX);
        for f in backlog.by_ref() {
            let reply = if is_stats_request(f) {
                local.fold_into(metrics, cache);
                Reply::Stats
            } else if let Some(v) = cache.and_then(|c| c.lookup_shed(f, &mut local)) {
                Reply::Verdict(v)
            } else {
                local.shed += 1;
                Reply::Verdict(Verdict::error(VerdictStatus::Degraded))
            };
            reply.encode_into(out, metrics, &mut None);
        }
        oversize = backlog.oversize();
        local.fold_into(metrics, cache);
        metrics
            .bytes_written
            .add(out.len().saturating_sub(answered) as u64);
    }

    if oversize {
        metrics.malformed.inc();
        let err = Verdict::error(VerdictStatus::Malformed).encode();
        metrics.bytes_written.add(err.len() as u64);
        out.extend_from_slice(&err);
    }
    oversize
}

/// Double-scores one batch's decoded sessions against the shadow
/// candidate of the snapshot that assessed them. Shadow verdicts are
/// discarded after comparison — only the agreement counters survive.
fn shadow_compare(
    scorer: &ShadowScorer,
    sessions: &[(Vec<f64>, UserAgent)],
    live: &[Result<Assessment, PolygraphError>],
) {
    if sessions.is_empty() {
        return;
    }
    let shadow = scorer.detector.assess_many(sessions);
    let disagreements = live
        .iter()
        .zip(&shadow)
        .filter(|(a, b)| !verdicts_agree(a, b))
        .count();
    scorer.compared.add(sessions.len() as u64);
    if disagreements > 0 {
        scorer.diverged.add(disagreements as u64);
    }
}

/// Decodes a submission frame and assesses it against the serving model
/// — the single-frame form of the TCP path, for in-process callers (the
/// CLI). Takes the detector lock for the one assessment and charges the
/// counters in `registry`; the TCP path amortises both over whole batches.
#[expect(
    clippy::disallowed_types,
    reason = "the one-frame door's detector comes behind its caller's lock; the read guard \
              spans one pure-CPU `assess`, never I/O"
)]
pub fn assess_frame(
    frame: &[u8],
    detector: &parking_lot::RwLock<Detector>,
    registry: &Registry,
) -> Verdict {
    let mut local = LocalCounters::default();
    let mut values = Vec::new();
    let verdict = match decode_session(frame, |ua| ua.parse().ok(), &mut values) {
        Some(claimed) => {
            let result = {
                let guard = detector.read();
                guard.assess(&values, claimed)
            };
            verdict_from_assessment(result, &mut local)
        }
        None => {
            local.malformed += 1;
            Verdict::error(VerdictStatus::Malformed)
        }
    };
    for (count, name) in [
        (local.assessed, metric_names::ASSESSED),
        (local.flagged, metric_names::FLAGGED),
        (local.malformed, metric_names::MALFORMED),
    ] {
        if count > 0 {
            registry.counter(name).add(count);
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::cache::CacheLayer;
    use crate::server::serving::ServingSlot;
    use crate::server::test_support::{frame_for, tiny_detector};
    use browser_engine::Vendor;
    use fingerprint::{encode_submission, Submission};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn assess_frame_honest_and_lying() {
        let detector = tiny_detector().into();
        let registry = Registry::monotonic();

        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let v = assess_frame(&honest, &detector, &registry);
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert!(!v.flagged);

        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let v = assess_frame(&lying, &detector, &registry);
        assert!(v.flagged);
        assert_eq!(v.risk_factor, 20);
        assert_eq!(registry.counter(metric_names::ASSESSED).get(), 2);
        assert_eq!(registry.counter(metric_names::FLAGGED).get(), 1);
    }

    #[test]
    fn assess_frame_rejects_garbage_and_bad_ua() {
        let detector = tiny_detector().into();
        let registry = Registry::monotonic();
        let v = assess_frame(&[1, 2, 3], &detector, &registry);
        assert_eq!(v.status, VerdictStatus::Malformed);

        let sub = Submission {
            session_id: [0u8; 16],
            user_agent: "curl/8.0".into(),
            values: vec![1, 2],
        };
        let frame = encode_submission(&sub).unwrap();
        let v = assess_frame(&frame, &detector, &registry);
        assert_eq!(v.status, VerdictStatus::Malformed);
        assert_eq!(registry.counter(metric_names::MALFORMED).get(), 2);
    }

    #[test]
    fn assess_frame_schema_mismatch() {
        let detector = tiny_detector().into();
        let registry = Registry::monotonic();
        let frame = frame_for(vec![1, 2, 3, 4], UserAgent::new(Vendor::Chrome, 100));
        let v = assess_frame(&frame, &detector, &registry);
        assert_eq!(v.status, VerdictStatus::SchemaMismatch);
    }

    /// A connection context built by hand, so a test can drive
    /// `process_buffered` with no socket in the way.
    fn socketless_context(cache_capacity: usize, shed_limit: usize) -> ConnContext {
        let registry = Arc::new(Registry::monotonic());
        let cache =
            (cache_capacity > 0).then(|| Arc::new(CacheLayer::new(&registry, 8, cache_capacity)));
        ConnContext {
            serving: Arc::new(ServingSlot::boot(tiny_detector())),
            metrics: Arc::new(ServerMetrics::new(registry)),
            cache,
            stop: Arc::new(AtomicBool::new(false)),
            read_timeout: Duration::from_secs(5),
            shed_limit,
        }
    }

    /// One parsed element of a reply byte stream.
    #[derive(Debug, PartialEq)]
    enum Parsed {
        /// `(status, flagged)` of a verdict.
        Verdict(VerdictStatus, bool),
        /// The JSON body of a `STATS` response.
        Stats(String),
    }

    fn parse_replies(mut out: &[u8]) -> Vec<Parsed> {
        use crate::proto::{
            decode_stats_response_header, STATS_RESPONSE_HEADER_LEN, STATS_RESPONSE_MAGIC,
            VERDICT_LEN,
        };
        let mut replies = Vec::new();
        while !out.is_empty() {
            if out.starts_with(&STATS_RESPONSE_MAGIC) {
                let (header, rest) = out.split_at(STATS_RESPONSE_HEADER_LEN);
                let len = decode_stats_response_header(header.try_into().unwrap()).unwrap();
                let (body, rest) = rest.split_at(len);
                replies.push(Parsed::Stats(String::from_utf8(body.to_vec()).unwrap()));
                out = rest;
            } else {
                let (verdict, rest) = out.split_at(VERDICT_LEN);
                let v = Verdict::decode(verdict).unwrap();
                replies.push(Parsed::Verdict(v.status, v.flagged));
                out = rest;
            }
        }
        replies
    }

    /// Every branch of one batch cycle, fed from a hand-built
    /// accumulator: a full batch holding each kind of frame, then a
    /// backlog (shed at `shed_limit: 0`) holding a repeat, a `STATS`
    /// frame and a never-seen frame, then an oversize header. Pins the
    /// exact reply sequence and every counter, with the cache off and on.
    #[test]
    fn one_batch_cycle_answers_every_kind_of_frame_in_order() {
        use VerdictStatus::{Assessed, Degraded, Malformed, SchemaMismatch};
        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let never_seen = frame_for(vec![0, 0], UserAgent::new(Vendor::Chrome, 60));
        let wrong_width = frame_for(vec![1, 2, 3, 4], UserAgent::new(Vendor::Chrome, 100));
        let bad_ua = encode_submission(&Submission {
            session_id: [0u8; 16],
            user_agent: "curl/8.0".into(),
            values: vec![1, 2],
        })
        .unwrap()
        .to_vec();
        let stats_req = fingerprint::encode_stats_request().to_vec();

        let mut bodies: Vec<&[u8]> = vec![
            &honest[..],
            &stats_req[..],
            &honest[..],
            &[9u8, 9, 9][..], // undecodable
            &wrong_width[..],
            &bad_ua[..],
        ];
        // Fill the batch, so what follows is a backlog.
        bodies.resize(MAX_BATCH_PER_GUARD, &lying[..]);
        bodies.extend([&honest[..], &stats_req[..], &never_seen[..]]);
        let mut wire = length_prefixed(&bodies);
        wire.extend_from_slice(&2000u16.to_le_bytes()); // oversize header
        let filler = MAX_BATCH_PER_GUARD - 6;

        for cache_capacity in [0usize, 64] {
            let cached = cache_capacity > 0;
            let context = format!("cache capacity {cache_capacity}");
            let ctx = socketless_context(cache_capacity, 0);
            let mut acc = FrameAccumulator::new();
            acc.extend(&wire);
            let mut out = Vec::new();
            let close = process_buffered(&mut acc, &mut ConnScratch::default(), &ctx, &mut out);
            assert!(close, "[{context}] an oversize header closes");

            let replies = parse_replies(&out);
            // `STATS` bodies are checked below; compare the rest by shape.
            let shape: Vec<Parsed> = replies
                .iter()
                .map(|r| match r {
                    Parsed::Verdict(status, flagged) => Parsed::Verdict(*status, *flagged),
                    Parsed::Stats(_) => Parsed::Stats(String::new()),
                })
                .collect();
            let mut expected = vec![
                Parsed::Verdict(Assessed, false),
                Parsed::Stats(String::new()),
                Parsed::Verdict(Assessed, false),
                Parsed::Verdict(Malformed, false),
                Parsed::Verdict(SchemaMismatch, false),
                Parsed::Verdict(Malformed, false),
            ];
            expected.extend((0..filler).map(|_| Parsed::Verdict(Assessed, true)));
            // The backlog: a repeat is served from the cache when there
            // is one, `STATS` is always answered, a never-seen frame is
            // shed; then the oversize header's closing verdict.
            expected.push(if cached {
                Parsed::Verdict(Assessed, false)
            } else {
                Parsed::Verdict(Degraded, false)
            });
            expected.push(Parsed::Stats(String::new()));
            expected.push(Parsed::Verdict(Degraded, false));
            expected.push(Parsed::Verdict(Malformed, false));
            assert_eq!(shape, expected, "[{context}]");

            // The batch's `STATS` frame sees its own batch's assessments;
            // the backlog's is a fresh snapshot.
            let assessed = 2 + filler as u64;
            let stats_bodies: Vec<&String> = replies
                .iter()
                .filter_map(|r| match r {
                    Parsed::Stats(json) => Some(json),
                    Parsed::Verdict(..) => None,
                })
                .collect();
            assert_eq!(stats_bodies.len(), 2, "[{context}]");
            for (json, requests) in stats_bodies.iter().zip([1, 2]) {
                assert!(
                    json.contains(&format!("\"server.frames.assessed\":{assessed}")),
                    "[{context}] {json}"
                );
                assert!(
                    json.contains(&format!("\"server.stats_requests\":{requests}")),
                    "[{context}] {json}"
                );
            }

            let stats = ctx.metrics.stats();
            assert_eq!(stats.assessed, assessed, "[{context}]");
            assert_eq!(stats.flagged, filler as u64, "[{context}]");
            // Three in the batch plus the oversize header.
            assert_eq!(stats.malformed, 4, "[{context}]");
            assert_eq!(stats.shed, if cached { 1 } else { 2 }, "[{context}]");
            assert_eq!(stats.stats_requests, 2, "[{context}]");
            assert_eq!(stats.batches, 1, "[{context}]");
            assert_eq!(stats.bytes_written, out.len() as u64, "[{context}]");
            if let Some(cache) = ctx.cache.as_deref() {
                // Lookups all precede the detector phase, so the second
                // honest frame of the batch misses like the first.
                assert_eq!(cache.hits.get(), 1, "[{context}]");
                assert_eq!(cache.misses.get(), MAX_BATCH_PER_GUARD as u64 - 1);
                assert_eq!(cache.shed_exempt.get(), 1, "[{context}]");
                // The books balance over every frame that was looked up;
                // the oversize header is charged `malformed` with no
                // frame to look up.
                assert_eq!(
                    cache.hits.get() + cache.misses.get(),
                    stats.assessed + (stats.malformed - 1) + cache.shed_exempt.get(),
                    "[{context}]"
                );
            }

            // The lookup span: one sample per batch that looked a
            // submission up — not per frame, not for a batch of `STATS`
            // frames alone, and not at all on a server without a cache.
            let mut stats_only = FrameAccumulator::new();
            stats_only.extend(&(stats_req.len() as u16).to_le_bytes());
            stats_only.extend(&stats_req);
            assert!(!drive_buffered(
                &mut stats_only,
                &mut ConnScratch::default(),
                &ctx,
                &mut out
            ));
            assert!(stats_only.is_empty(), "[{context}]");
            let snapshot = ctx.metrics.registry().snapshot();
            let lookup_spans = snapshot
                .histograms
                .get(metric_names::STAGE_LOOKUP_MICROS)
                .map(|h| h.count);
            assert_eq!(lookup_spans, cached.then_some(1), "[{context}]");
        }
    }

    /// `bodies` as the socket carries them: each behind its u16 length.
    fn length_prefixed<B: AsRef<[u8]>>(bodies: &[B]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            let body = body.as_ref();
            wire.extend_from_slice(&(body.len() as u16).to_le_bytes());
            wire.extend_from_slice(body);
        }
        wire
    }

    /// Every buffer capacity a scratch retains: the row list's, each
    /// row's, the reply list's.
    fn retained(scratch: &ConnScratch) -> (usize, Vec<usize>, usize) {
        (
            scratch.rows.capacity(),
            scratch.rows.iter().map(|(row, _)| row.capacity()).collect(),
            scratch.replies.capacity(),
        )
    }

    /// Three full batches of never-seen frames through one scratch: the
    /// first sizes its rows and its reply list, the next two allocate
    /// nothing there.
    #[test]
    fn a_scratch_stops_growing_after_its_first_full_batch() {
        use crate::proto::VERDICT_LEN;
        for cache_capacity in [0usize, 256] {
            let ctx = socketless_context(cache_capacity, usize::MAX);
            let mut scratch = ConnScratch::default();
            let mut acc = FrameAccumulator::new();
            let mut after_first = None;
            for batch in 0..3u32 {
                let bodies: Vec<Vec<u8>> = (0..MAX_BATCH_PER_GUARD as u32)
                    .map(|n| {
                        let v = batch * 100 + n;
                        frame_for(vec![v, v], UserAgent::new(Vendor::Chrome, 100))
                    })
                    .collect();
                acc.extend(&length_prefixed(&bodies));
                let mut out = Vec::new();
                assert!(!drive_buffered(&mut acc, &mut scratch, &ctx, &mut out));
                assert_eq!(out.len(), MAX_BATCH_PER_GUARD * VERDICT_LEN);
                assert_eq!(scratch.live, MAX_BATCH_PER_GUARD, "every frame missed");
                let now = retained(&scratch);
                assert_eq!(
                    *after_first.get_or_insert(now.clone()),
                    now,
                    "batch {batch} grew the scratch"
                );
            }
            let stats = ctx.metrics.stats();
            assert_eq!((stats.batches, stats.assessed), (3, 96));
        }
    }

    /// A batch of frames carrying as many values as a 1 KB frame holds
    /// (each answered `SchemaMismatch`), then ordinary traffic through
    /// the same scratch: what the long rows left behind stays within the
    /// bound [`ConnScratch`] states, and every answer — before and after —
    /// is byte for byte what `assess_frame` gives the frame on its own.
    #[test]
    fn long_rows_stay_within_the_stated_bound_and_change_no_answer() {
        use crate::proto::VERDICT_LEN;
        use fingerprint::wire::{MAX_SUBMISSION_BYTES, MAX_VALUES};
        let chrome = UserAgent::new(Vendor::Chrome, 100);
        let longest = MAX_SUBMISSION_BYTES - (2 + 1 + 16 + 2 + 2) - chrome.to_ua_string().len();
        let long = frame_for(vec![1; longest], chrome);
        assert_eq!(long.len(), MAX_SUBMISSION_BYTES);
        let ordinary = [
            frame_for(vec![10, 10], chrome),
            frame_for(vec![20, 20], chrome),
            frame_for(vec![1, 2, 3, 4], chrome),
            frame_for(vec![0, 0], UserAgent::new(Vendor::Firefox, 100)),
            vec![9, 9, 9],
        ];
        let batches: [Vec<Vec<u8>>; 3] = [
            vec![long; MAX_BATCH_PER_GUARD],
            (0..MAX_BATCH_PER_GUARD)
                .map(|n| ordinary[n % ordinary.len()].clone())
                .collect(),
            ordinary[..3].to_vec(),
        ];

        let ctx = socketless_context(64, usize::MAX);
        let oracle = tiny_detector().into();
        let reference = Registry::monotonic();
        let mut scratch = ConnScratch::default();
        let mut acc = FrameAccumulator::new();
        for bodies in &batches {
            acc.extend(&length_prefixed(bodies));
            let mut out = Vec::new();
            assert!(!drive_buffered(&mut acc, &mut scratch, &ctx, &mut out));
            let want: Vec<u8> = bodies
                .iter()
                .flat_map(|f| assess_frame(f, &oracle, &reference).encode())
                .collect();
            assert_eq!(out.len(), bodies.len() * VERDICT_LEN);
            assert_eq!(out, want);

            let (rows, each, replies) = retained(&scratch);
            assert!(rows <= MAX_BATCH_PER_GUARD, "{rows} rows retained");
            assert!(replies <= MAX_BATCH_PER_GUARD, "{replies} replies retained");
            assert!(each.iter().all(|&values| values <= MAX_VALUES), "{each:?}");
        }
        // The long rows were really decoded into the scratch, and the
        // ordinary ones reused their buffers.
        assert!(scratch
            .rows
            .iter()
            .all(|(row, _)| row.capacity() >= longest));
        assert_eq!(ctx.metrics.stats().malformed, 32 + 6 + 6 + 1);
    }
}
