//! The served pipeline, driven in-process through the layers' public
//! functions in the order `process_buffered` runs them:
//! `FrameAccumulator` → `submission_cache_key` → `VerdictCache::lookup` →
//! `decode_submission_view` + user-agent parse → `Detector::assess_many`
//! → verdict mapping → `VerdictCache::insert` → `Verdict::encode`.
//! One span per stage per 32-frame batch; per-frame spans would cost
//! more than the 50 ns stages they time. Every output is compared with
//! the oracle bytes, so the traced pipeline is provably the served one.

use crate::trace::{Tracer, NO_PARENT};
use crate::world::World;
use browser_engine::UserAgent;
use fingerprint::{decode_submission_view, submission_cache_key};
use polygraph_cache::{Lookup, VerdictCache};
use polygraph_core::{Assessment, Detector};
use polygraph_service::framing::FrameAccumulator;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{Verdict, VerdictStatus, MAX_BATCH_PER_GUARD};
use std::time::Instant;

/// The production profile's cache geometry.
pub const CACHE_SHARDS: usize = 8;
pub const CACHE_CAPACITY: usize = 8192;

/// Missed frames remembered for the side passes (staged assess,
/// `predict_row`, `risk_factor`).
const MISS_SAMPLE: usize = 65_536;

/// The wire mapping of an assessment — the harness's copy of the
/// server's private `verdict_from_assessment`, checked against the
/// oracle (which goes through the product's own) on every frame.
pub fn verdict_of(a: &Assessment) -> Verdict {
    Verdict {
        status: VerdictStatus::Assessed,
        flagged: a.flagged,
        risk_factor: a.risk_factor.min(u32::from(u8::MAX)) as u8,
        predicted_cluster: a.predicted_cluster.min(usize::from(u8::MAX)) as u8,
        expected_cluster: a
            .expected_cluster
            .map(|c| c.min(usize::from(u8::MAX)) as u8),
    }
}

#[derive(Default)]
pub struct Outcome {
    pub frames: u64,
    pub hits: u64,
    pub misses: u64,
    pub stale: u64,
    pub evictions: u64,
    pub epoch_bumps: u64,
    pub flagged: u64,
    pub shadow_compared: u64,
    /// Outputs that differ from the oracle bytes (must be 0).
    pub mismatched: u64,
    /// `(span index, hits, misses)` of every lookup span.
    pub lookups: Vec<(u32, u8, u8)>,
    /// Frame ids of the first [`MISS_SAMPLE`] misses.
    pub miss_ids: Vec<u32>,
    pub elapsed_ns: u64,
}

/// Drives the first `frames` entries of `sequence` through the pipeline.
/// `shadow` double-scores every miss; `bump_every` advances the cache
/// epoch every that many batches (the in-process stand-in for the
/// `serve_swap` control thread — in frames, not wall time, so counts
/// repeat exactly).
pub fn run(
    world: &World,
    sequence: &[u32],
    frames: usize,
    detector: &Detector,
    shadow: Option<&Detector>,
    bump_every: Option<usize>,
    tracer: &mut Tracer,
) -> Outcome {
    let cache: VerdictCache<Verdict> = VerdictCache::new(CACHE_SHARDS, CACHE_CAPACITY);
    let mut acc = FrameAccumulator::new();
    let mut wire: Vec<u8> = Vec::with_capacity(MAX_BATCH_PER_GUARD * 256);
    let mut keys: Vec<Option<u64>> = Vec::with_capacity(MAX_BATCH_PER_GUARD);
    let mut claimed: Vec<UserAgent> = Vec::with_capacity(MAX_BATCH_PER_GUARD);
    let mut miss_at: Vec<usize> = Vec::with_capacity(MAX_BATCH_PER_GUARD);
    let mut out = Outcome::default();
    let started = Instant::now();
    for (b, ids) in sequence[..frames]
        .chunks_exact(MAX_BATCH_PER_GUARD)
        .enumerate()
    {
        let b = b as u32;
        wire.clear();
        for &id in ids {
            wire.extend_from_slice(&world.frames[id as usize]);
        }
        if bump_every.is_some_and(|every| b > 0 && (b as usize).is_multiple_of(every)) {
            cache.bump_epoch();
            out.epoch_bumps += 1;
        }

        let batch = tracer.open("service.server.batch", NO_PARENT, b);

        // The server reads the socket in 4 KiB chunks into the
        // accumulator, then splits one batch off.
        let span = tracer.open("service.framing.split", batch, b);
        for chunk in wire.chunks(4096) {
            acc.extend(chunk);
        }
        let (bodies, oversize) = acc.split(MAX_BATCH_PER_GUARD);
        tracer.close(span);
        assert!(
            !oversize && bodies.len() == ids.len(),
            "framing lost a frame"
        );

        let span = tracer.open("fingerprint.wire.cache_key", batch, b);
        keys.clear();
        keys.extend(bodies.iter().map(|f| submission_cache_key(f)));
        tracer.close(span);

        let span = tracer.open("cache.lookup", batch, b);
        let mut verdicts: Vec<Option<Verdict>> = Vec::with_capacity(bodies.len());
        miss_at.clear();
        for (at, key) in keys.iter().enumerate() {
            match key.map(|k| cache.lookup(k)) {
                Some(Lookup::Hit(v)) => verdicts.push(Some(v)),
                Some(Lookup::Stale) => {
                    out.stale += 1;
                    miss_at.push(at);
                    verdicts.push(None);
                }
                Some(Lookup::Miss) | None => {
                    miss_at.push(at);
                    verdicts.push(None);
                }
            }
        }
        tracer.close(span);
        let misses = miss_at.len();
        let hits = bodies.len() - misses;
        out.lookups.push((span, hits as u8, misses as u8));
        out.hits += hits as u64;
        out.misses += misses as u64;

        if misses > 0 {
            for &at in &miss_at {
                if out.miss_ids.len() < MISS_SAMPLE {
                    out.miss_ids.push(ids[at]);
                }
            }
            let mut uas: Vec<&str> = Vec::with_capacity(misses);
            let span = tracer.open("fingerprint.wire.decode", batch, b);
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(misses);
            for &at in &miss_at {
                let view = decode_submission_view(&bodies[at]).expect("pool frame decodes");
                let mut values = Vec::with_capacity(view.value_count());
                values.extend(view.values_u32().map(f64::from));
                rows.push(values);
                uas.push(view.user_agent());
            }
            tracer.close(span);

            // Unmemoised on purpose: the server memoises per connection
            // behind a private type, so this stage is an upper bound of
            // the served cost and `unattributed_ns` a lower bound.
            let span = tracer.open("browser_engine.useragent.parse", batch, b);
            claimed.clear();
            for ua in &uas {
                claimed.push(ua.parse().expect("pool user-agent parses"));
            }
            tracer.close(span);

            let sessions: Vec<(Vec<f64>, UserAgent)> =
                rows.into_iter().zip(claimed.iter().copied()).collect();
            // Read before assessing, as the server does.
            let epoch = cache.epoch();

            let span = tracer.open("core.detect.assess", batch, b);
            let assessments = detector.assess_many(&sessions);
            tracer.close(span);

            if let Some(shadow) = shadow {
                let span = tracer.open("core.detect.shadow_assess", batch, b);
                let shadowed = shadow.assess_many(&sessions);
                out.shadow_compared += shadowed.len() as u64;
                std::hint::black_box(shadowed);
                tracer.close(span);
            }

            let span = tracer.open("service.server.verdict_map", batch, b);
            for (&at, assessment) in miss_at.iter().zip(&assessments) {
                verdicts[at] = Some(verdict_of(assessment.as_ref().expect("pool row assesses")));
            }
            tracer.close(span);

            // `CacheLayer::store` hashes the frame a second time.
            let span = tracer.open("fingerprint.wire.cache_key", batch, b);
            for &at in &miss_at {
                keys[at] = submission_cache_key(&bodies[at]);
            }
            tracer.close(span);

            let span = tracer.open("cache.insert", batch, b);
            for &at in &miss_at {
                if let (Some(key), Some(verdict)) = (keys[at], verdicts[at]) {
                    if cache.insert(key, epoch, verdict).evicted {
                        out.evictions += 1;
                    }
                }
            }
            tracer.close(span);
        }

        let span = tracer.open("service.proto.encode", batch, b);
        let mut reply: Vec<u8> = Vec::with_capacity(verdicts.len() * VERDICT_LEN);
        for verdict in verdicts.iter().flatten() {
            reply.extend_from_slice(&verdict.encode());
        }
        tracer.close(span);

        tracer.close(batch);

        for ((bytes, &id), verdict) in reply.chunks_exact(VERDICT_LEN).zip(ids).zip(&verdicts) {
            if bytes != world.oracle[id as usize] {
                out.mismatched += 1;
            }
            out.flagged += u64::from(verdict.is_some_and(|v| v.flagged));
        }
        out.frames += ids.len() as u64;
    }
    out.elapsed_ns = started.elapsed().as_nanos() as u64;
    out
}
