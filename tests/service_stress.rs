//! Concurrency stress: pipelined clients hammering the risk server while
//! the detector is hot-swapped underneath them.
//!
//! Eight client threads each stream a pipelined burst of frames (write
//! everything, then read everything — exercising the server's
//! batch-per-guard drain) while the main thread swaps the serving
//! detector fifty times. No verdict may be lost, duplicated or
//! reordered, and the shared counters must reconcile exactly with what
//! the clients saw.
//!
//! A second, fully deterministic scenario drives the server with an
//! injected `TestClock` and a strictly sequential client, and pins the
//! complete metrics exposition against the committed golden file
//! `results/obs_exposition.txt` — byte for byte. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test service_stress`.
//!
//! A third scenario is a seeded connection-churn storm: hundreds of
//! short-lived connections opening and closing under a standing pool of
//! long-lived pipelined ones, run against both connection cores. Every
//! slot must be reaped while the server keeps serving, the
//! `server.connections.open` gauge must return to zero, and the reactor
//! must sustain at least 4x the threaded run's concurrent-connection
//! count with the same exact counter identities.

use browser_polygraph::core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use browser_polygraph::engine::{UserAgent, Vendor};
use browser_polygraph::fingerprint::{
    encode_stats_request, encode_submission, FeatureSet, Submission,
};
use browser_polygraph::obs::{Snapshot, TestClock};
use browser_polygraph::service::proto::{
    decode_stats_response_header, STATS_RESPONSE_HEADER_LEN, VERDICT_LEN,
};
use browser_polygraph::service::server::metric_names;
use browser_polygraph::service::{
    start_risk_server, start_risk_server_with, RiskServerConfig, ServerBackend, Verdict,
    VerdictStatus, MAX_BATCH_PER_GUARD,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const FRAMES_PER_CLIENT: usize = 200;
const SWAPS: usize = 50;

/// A model over three well-separated eras; `seed` varies the k-means
/// restarts without changing the learned geometry, so swapped-in models
/// agree on every probe the clients send.
fn era_model(seed: u64) -> TrainedModel {
    let mut set = TrainingSet::new(2);
    for (base, ua) in [
        (0.0, UserAgent::new(Vendor::Chrome, 60)),
        (10.0, UserAgent::new(Vendor::Chrome, 100)),
        (20.0, UserAgent::new(Vendor::Firefox, 100)),
    ] {
        for j in 0..40 {
            set.push(vec![base + (j % 2) as f64 * 0.1, base], ua)
                .expect("push");
        }
    }
    let fs = FeatureSet::table8().subset(&[0, 1]);
    let config = TrainConfig {
        k: 3,
        n_components: 2,
        min_samples_for_majority: 1,
        seed,
        ..Default::default()
    };
    TrainedModel::fit(fs, &set, config).expect("fit")
}

fn era_detector(seed: u64) -> Detector {
    Detector::new(era_model(seed))
}

fn frame_for(values: Vec<u32>, ua: UserAgent, session: u8) -> Vec<u8> {
    let sub = Submission {
        session_id: [session; 16],
        user_agent: ua.to_ua_string(),
        values,
    };
    encode_submission(&sub).expect("encode")
}

#[test]
fn pipelined_clients_survive_fifty_hot_swaps() {
    let server = start_risk_server("127.0.0.1:0", era_detector(1)).expect("bind");
    let addr = server.local_addr();

    let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100), 1);
    let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100), 2);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let honest = honest.clone();
            let lying = lying.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");

                // Pipeline the full burst before reading a single verdict,
                // so the server sees a deep backlog to drain in batches.
                let mut wire = Vec::new();
                for i in 0..FRAMES_PER_CLIENT {
                    let frame = if (c + i) % 2 == 0 { &honest } else { &lying };
                    wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
                    wire.extend_from_slice(frame);
                }
                stream.write_all(&wire).expect("write burst");

                let mut assessed = 0usize;
                let mut flagged = 0usize;
                for i in 0..FRAMES_PER_CLIENT {
                    let mut buf = [0u8; VERDICT_LEN];
                    stream.read_exact(&mut buf).expect("read verdict");
                    let v = Verdict::decode(&buf).expect("decode");
                    assert_eq!(v.status, VerdictStatus::Assessed, "client {c} frame {i}");
                    // Verdicts must come back in frame order regardless of
                    // how the server batched them: the honest/lying
                    // alternation is position-determined.
                    assert_eq!(
                        v.flagged,
                        (c + i) % 2 == 1,
                        "client {c} frame {i}: verdict out of order"
                    );
                    assessed += 1;
                    if v.flagged {
                        flagged += 1;
                    }
                }
                (assessed, flagged)
            })
        })
        .collect();

    // Hot-swap the serving detector while the bursts are in flight. The
    // swapped-in models are trained on the same eras (different k-means
    // seed), so every in-flight probe keeps its expected verdict.
    for s in 0..SWAPS {
        server.publish_model_versioned(era_model(2 + s as u64), 1 + s as u64);
        thread::sleep(Duration::from_millis(1));
    }

    let mut total_assessed = 0usize;
    let mut total_flagged = 0usize;
    for c in clients {
        let (assessed, flagged) = c.join().expect("client thread");
        assert_eq!(assessed, FRAMES_PER_CLIENT);
        total_assessed += assessed;
        total_flagged += flagged;
    }

    // Let the last connection workers fold their counters.
    thread::sleep(Duration::from_millis(50));
    let stats = server.stats();
    assert_eq!(
        stats.assessed as usize, total_assessed,
        "every client-observed verdict must be counted exactly once"
    );
    assert_eq!(total_assessed, CLIENTS * FRAMES_PER_CLIENT);
    assert_eq!(stats.flagged as usize, total_flagged);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.swaps as usize, SWAPS);

    let batches = stats.batches as usize;
    assert!(
        batches >= total_assessed / MAX_BATCH_PER_GUARD,
        "batches must cover all frames: {batches}"
    );
    assert!(
        batches <= total_assessed,
        "a batch holds at least one frame: {batches}"
    );

    // The batch histograms reconcile exactly with the counters even under
    // full concurrency: every assessed frame sits in exactly one batch.
    let snap = server.snapshot();
    let batch_frames = snap
        .histograms
        .get(metric_names::BATCH_FRAMES)
        .expect("batch_frames histogram");
    assert_eq!(batch_frames.sum as usize, total_assessed);
    assert_eq!(batch_frames.count as usize, batches);
    assert_eq!(
        batch_frames.buckets.iter().sum::<u64>(),
        batch_frames.count,
        "bucket counts must sum to the observation count"
    );
    server.shutdown();
}

const CHURN_SEED: u64 = 0x00C0_FFEE_D00D_F00D;
const SHORT_WORKERS: usize = 4;
const SHORT_PER_WORKER: usize = 60;
const LONG_LIVED_BASE: usize = 12;
const LONG_ROUNDS: usize = 3;

/// Deterministic schedule byte for the churn storm.
fn churn_byte(seed: u64, i: u64) -> u8 {
    (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u8
}

fn churn_round_trip(stream: &mut TcpStream, honest: &[u8], lying: &[u8], k: usize, tag: &str) {
    let frame = if k.is_multiple_of(2) { honest } else { lying };
    stream
        .write_all(&(frame.len() as u16).to_le_bytes())
        .expect("write len");
    stream.write_all(frame).expect("write frame");
    let mut buf = [0u8; VERDICT_LEN];
    stream.read_exact(&mut buf).expect("read verdict");
    let v = Verdict::decode(&buf).expect("decode");
    assert_eq!(v.status, VerdictStatus::Assessed, "{tag}");
    assert_eq!(v.flagged, k % 2 == 1, "{tag}: verdict out of order");
}

/// Runs the seeded open/close storm against one backend: `long_lived`
/// standing connections kept busy while `SHORT_WORKERS` threads churn
/// through short-lived ones. Returns the concurrent-connection count the
/// server sustained (read from the `server.connections.open` gauge while
/// the full standing pool was live), after asserting that every slot was
/// reaped, the gauge returned to zero, and the counters reconcile.
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock deadline on a live server"
)]
fn churn_storm(backend: ServerBackend, long_lived: usize) -> i64 {
    let config = RiskServerConfig {
        backend,
        read_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", era_detector(1), config).expect("bind");
    let addr = server.local_addr();
    let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100), 1);
    let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100), 2);

    // Stand up the long-lived pool, one confirmed round trip each.
    let mut long_conns = Vec::with_capacity(long_lived);
    for j in 0..long_lived {
        let mut stream = TcpStream::connect(addr).expect("connect long-lived");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        churn_round_trip(&mut stream, &honest, &lying, 0, &format!("long {j} warmup"));
        long_conns.push(stream);
    }
    let mut long_frames = long_lived;
    let concurrent = server.stats().connections_open;
    assert!(
        concurrent >= long_lived as i64,
        "the full standing pool must be visible in the gauge: {concurrent}"
    );

    // The short-lived storm: each worker opens, pipelines 1–3 frames,
    // reads its verdicts in order, and closes — all on a seeded schedule.
    let workers: Vec<_> = (0..SHORT_WORKERS)
        .map(|w| {
            let honest = honest.clone();
            let lying = lying.clone();
            thread::spawn(move || {
                let mut frames = 0usize;
                for i in 0..SHORT_PER_WORKER {
                    let conn_idx = (w * SHORT_PER_WORKER + i) as u64;
                    let mut stream = TcpStream::connect(addr).expect("connect short-lived");
                    stream.set_nodelay(true).expect("nodelay");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("timeout");
                    let n = 1 + churn_byte(CHURN_SEED, conn_idx) as usize % 3;
                    let mut wire = Vec::new();
                    for k in 0..n {
                        let frame = if k % 2 == 0 { &honest } else { &lying };
                        wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
                        wire.extend_from_slice(frame);
                    }
                    stream.write_all(&wire).expect("write burst");
                    for k in 0..n {
                        let mut buf = [0u8; VERDICT_LEN];
                        stream.read_exact(&mut buf).expect("read verdict");
                        let v = Verdict::decode(&buf).expect("decode");
                        assert_eq!(v.status, VerdictStatus::Assessed, "short {conn_idx}");
                        assert_eq!(v.flagged, k % 2 == 1, "short {conn_idx} frame {k}");
                    }
                    frames += n;
                    // The storm's whole point: the stream drops here.
                }
                frames
            })
        })
        .collect();

    // Keep the standing pool busy while the storm rages — a reaped slot
    // must never take a live neighbour's identity with it.
    for round in 1..=LONG_ROUNDS {
        for (j, stream) in long_conns.iter_mut().enumerate() {
            churn_round_trip(
                stream,
                &honest,
                &lying,
                round,
                &format!("long {j} round {round}"),
            );
            long_frames += 1;
        }
    }

    let mut short_frames = 0usize;
    for w in workers {
        short_frames += w.join().expect("short-lived worker");
    }

    // Every long-lived connection survived the churn around it.
    for (j, stream) in long_conns.iter_mut().enumerate() {
        churn_round_trip(stream, &honest, &lying, 0, &format!("long {j} after storm"));
        long_frames += 1;
    }
    drop(long_conns);

    // With every client gone, the server must retire each slot cleanly
    // *while still serving*: all reaped, the open gauge back to zero.
    let opened = long_lived + SHORT_WORKERS * SHORT_PER_WORKER;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.connections_closed as usize == opened
            && stats.connections_reaped as usize == opened
            && stats.connections_open == 0
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slots never fully retired: {stats:?}"
        );
        thread::sleep(Duration::from_millis(5));
    }

    // Counter identities under churn: nothing errored, nothing lost.
    let stats = server.stats();
    assert_eq!(stats.connections_opened as usize, opened);
    assert_eq!(stats.connections_errored, 0);
    assert_eq!(stats.malformed, 0);
    assert_eq!(
        stats.assessed as usize,
        long_frames + short_frames,
        "every client-observed verdict counted exactly once"
    );
    server.shutdown();
    concurrent
}

#[test]
fn connection_churn_storm_reaps_every_slot() {
    let threaded = churn_storm(ServerBackend::Threaded, LONG_LIVED_BASE);
    // The reactor run holds a 4x standing pool through the same storm.
    let reactor = churn_storm(ServerBackend::Reactor, LONG_LIVED_BASE * 4);
    assert!(
        reactor >= 4 * threaded,
        "the reactor must sustain at least 4x the threaded backend's \
         concurrent connections: reactor {reactor}, threaded {threaded}"
    );
}

const DET_FRAMES: usize = 50;

/// Runs the deterministic scenario once and returns the final text
/// exposition: injected `TestClock` stepping 7 µs per read, one strictly
/// sequential client (each batch is exactly one frame), one detector
/// swap, one `STATS` round trip.
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock deadline on a live server"
)]
fn deterministic_exposition() -> String {
    let clock = Arc::new(TestClock::with_step(7));
    let config = RiskServerConfig {
        read_timeout: Duration::from_secs(5),
        clock: clock.clone(),
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", era_detector(1), config).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100), 1);
    let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100), 2);

    for i in 0..DET_FRAMES {
        if i == DET_FRAMES / 2 {
            // One deterministic mid-run swap, between round trips so no
            // request is in flight.
            server.publish_model_versioned(era_model(99), 1);
        }
        let frame = if i % 2 == 0 { &honest } else { &lying };
        stream
            .write_all(&(frame.len() as u16).to_le_bytes())
            .expect("write len");
        stream.write_all(frame).expect("write frame");
        let mut buf = [0u8; VERDICT_LEN];
        stream.read_exact(&mut buf).expect("read verdict");
        let v = Verdict::decode(&buf).expect("decode");
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert_eq!(v.flagged, i % 2 == 1);
    }

    // One STATS round trip over the same socket; the response is parsed
    // and must already show every assessment.
    let req = encode_stats_request();
    stream
        .write_all(&(req.len() as u16).to_le_bytes())
        .expect("write stats len");
    stream.write_all(&req).expect("write stats");
    let mut header = [0u8; STATS_RESPONSE_HEADER_LEN];
    stream.read_exact(&mut header).expect("stats header");
    let len = decode_stats_response_header(&header).expect("stats header decode");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("stats body");
    let wire_snap =
        Snapshot::parse_json(&String::from_utf8(body).expect("utf8")).expect("parse snapshot");
    assert_eq!(
        wire_snap.counters.get(metric_names::ASSESSED),
        Some(&(DET_FRAMES as u64))
    );
    drop(stream);

    // Quiesce: wait until the connection worker has fully retired so the
    // snapshot's cross-metric identities are exact.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.connections_closed == 1 && stats.connections_reaped == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "worker never retired: {stats:?}");
        thread::sleep(Duration::from_millis(5));
    }

    let snap = server.snapshot();
    let stats = server.stats();
    let batch_frames = snap
        .histograms
        .get(metric_names::BATCH_FRAMES)
        .expect("batch_frames");
    assert_eq!(
        batch_frames.sum, stats.assessed,
        "histogram frame counts must sum exactly to `assessed`"
    );
    let batch_micros = snap
        .histograms
        .get(metric_names::BATCH_MICROS)
        .expect("batch_micros");
    // Every batch span covers exactly one 7 µs clock step.
    assert_eq!(batch_micros.sum, 7 * batch_micros.count);
    server.shutdown();
    snap.render_text()
}

#[test]
fn deterministic_exposition_matches_golden() {
    let first = deterministic_exposition();
    let second = deterministic_exposition();
    assert_eq!(
        first, second,
        "two runs under the injected clock must render byte-identical expositions"
    );

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/obs_exposition.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &first).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("missing results/obs_exposition.txt — run with UPDATE_GOLDEN=1 to create");
    assert_eq!(
        first, golden,
        "exposition drifted from results/obs_exposition.txt; \
         if the change is intended, regenerate with UPDATE_GOLDEN=1"
    );
}
