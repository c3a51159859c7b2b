//! Regression tests for the risk server's connection lifecycle, run
//! against **both** connection cores via `for_each_backend`:
//!
//! * finished connections are reaped while the server runs (not only at
//!   shutdown) — worker joins on the threaded core, slot removal on the
//!   reactor;
//! * an idle keep-alive client survives read-timeout ticks, while a
//!   stalled partial frame does not;
//! * a peer that pipelines and never reads a reply is stopped by
//!   back-pressure and errored after the read timeout, while its
//!   neighbours keep being served;
//! * an oversize length header is answered once, after every frame that
//!   preceded it, and then closes the connection cleanly;
//! * shutdown is bounded even with a connected-but-silent client;
//! * reactor shutdown latency is decoupled from the read timeout
//!   entirely: a shard reads the stop flag at the top of every scan, so
//!   even a multi-second timeout shuts down within one scan interval;
//! * the reactor's park rule, counted through `server.reactor.passes` /
//!   `server.reactor.parks` rather than timed: a shard does not park in
//!   front of a peer that spoke within the last scan interval, and an
//!   idle shard parks on every pass.

mod common;

use browser_engine::{UserAgent, Vendor};
use common::for_each_backend;
use fingerprint::{encode_submission, FeatureSet, Submission};
use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_obs::TestClock;
use polygraph_service::server::{start_risk_server_with, RiskServerConfig, RiskServerHandle};
use polygraph_service::{ServerBackend, Verdict, VerdictStatus};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_detector() -> Detector {
    let mut set = TrainingSet::new(2);
    for (base, ua) in [
        (0.0, UserAgent::new(Vendor::Chrome, 60)),
        (10.0, UserAgent::new(Vendor::Chrome, 100)),
    ] {
        for j in 0..40 {
            set.push(vec![base + (j % 2) as f64 * 0.1, base], ua)
                .unwrap();
        }
    }
    let fs = FeatureSet::table8().subset(&[0, 1]);
    let config = TrainConfig {
        k: 2,
        n_components: 2,
        min_samples_for_majority: 1,
        ..Default::default()
    };
    Detector::new(TrainedModel::fit(fs, &set, config).unwrap())
}

fn honest_frame() -> Vec<u8> {
    let sub = Submission {
        session_id: [7u8; 16],
        user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
        values: vec![10, 10],
    };
    encode_submission(&sub).unwrap()
}

fn send_frame(stream: &mut TcpStream, frame: &[u8]) {
    stream
        .write_all(&(frame.len() as u16).to_le_bytes())
        .unwrap();
    stream.write_all(frame).unwrap();
}

fn read_verdict(stream: &mut TcpStream) -> Verdict {
    let mut buf = [0u8; 8];
    stream.read_exact(&mut buf).unwrap();
    Verdict::decode(&buf).unwrap()
}

/// Polls `cond` against the server's stats until it holds or `deadline`
/// elapses.
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock deadline on a live server"
)]
fn wait_for(
    server: &RiskServerHandle,
    deadline: Duration,
    cond: impl Fn(u64) -> bool,
    read: impl Fn(&RiskServerHandle) -> u64,
) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond(read(server)) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "condition not reached within {deadline:?}; last value {}",
        read(server)
    );
}

#[test]
fn finished_connections_are_reaped_while_serving() {
    for_each_backend(|config, backend| {
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();

        // Open, use, and close a few connections sequentially.
        for _ in 0..3 {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            send_frame(&mut stream, &honest_frame());
            assert_eq!(
                read_verdict(&mut stream).status,
                VerdictStatus::Assessed,
                "[{backend}]"
            );
            drop(stream);
        }

        // The server must reclaim each finished connection while it keeps
        // running — worker joins (threaded) or slot removal (reactor) —
        // observable through the reap counter, which final shutdown joins
        // deliberately do not touch.
        wait_for(
            &server,
            Duration::from_secs(5),
            |reaped| reaped >= 3,
            |s| s.stats().connections_reaped,
        );
        let stats = server.stats();
        assert_eq!(stats.connections_opened, 3, "[{backend}]");
        assert_eq!(stats.connections_closed, 3, "[{backend}]");
        assert_eq!(stats.connections_errored, 0, "[{backend}]");
        assert_eq!(
            stats.connections_open, 0,
            "[{backend}] every retired connection must release the gauge"
        );
        server.shutdown();
    });
}

#[test]
fn idle_keepalive_client_survives_read_timeouts() {
    for_each_backend(|config, backend| {
        let config = RiskServerConfig {
            read_timeout: Duration::from_millis(100),
            ..config
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // Stay silent for several read-timeout ticks, then submit. Before
        // the fix the first tick returned Err and killed the connection.
        std::thread::sleep(Duration::from_millis(350));
        send_frame(&mut stream, &honest_frame());
        assert_eq!(
            read_verdict(&mut stream).status,
            VerdictStatus::Assessed,
            "[{backend}] the idle connection must still be alive after several timeouts"
        );
        let stats = server.stats();
        assert!(
            stats.idle_timeouts >= 1,
            "[{backend}] idle ticks must be counted, got {}",
            stats.idle_timeouts
        );
        assert_eq!(stats.connections_errored, 0, "[{backend}]");
        drop(stream);
        server.shutdown();
    });
}

#[test]
fn stalled_partial_frame_fails_the_connection() {
    for_each_backend(|config, backend| {
        let config = RiskServerConfig {
            read_timeout: Duration::from_millis(100),
            ..config
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();

        // Declare a 100-byte body but send only 3 bytes, then stall:
        // unlike pure idleness, a half-delivered frame past the timeout
        // is fatal.
        stream.write_all(&100u16.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        wait_for(
            &server,
            Duration::from_secs(5),
            |errored| errored >= 1,
            |s| s.stats().connections_errored,
        );
        assert_eq!(
            server.stats().connections_open,
            0,
            "[{backend}] the errored connection must release the gauge"
        );
        drop(stream);
        server.shutdown();
    });
}

/// A peer that pipelines frames and never reads a reply must be stopped
/// by back-pressure — its `write` fails (timeout, or a reset once the
/// server gives up on it) long before the cap — and the server must
/// count it errored once it has stalled for the read timeout, exactly
/// like a stalled partial frame. Before the fix the reactor kept reading
/// while replies were queued: it buffered them without bound, every read
/// refreshed the slot's activity stamp, and the stall sweep never fired.
#[test]
fn never_reading_peer_blocks_and_is_errored() {
    const CAP: usize = 128 << 20;
    for_each_backend(|config, backend| {
        let read_timeout = Duration::from_millis(300);
        let config = RiskServerConfig {
            read_timeout,
            reactor_shards: 1, // the flooder and the probe share one shard
            ..config
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();

        let addr = server.local_addr();
        let flooder = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_write_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let frame = honest_frame();
            let mut wire = Vec::new();
            for _ in 0..512 {
                wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
                wire.extend_from_slice(&frame);
            }
            let mut sent = 0usize;
            while sent < CAP {
                if stream.write_all(&wire).is_err() {
                    break;
                }
                sent += wire.len();
            }
            // The stream goes back to the caller still open and unread.
            (sent, stream)
        });

        // Meanwhile a well-behaved neighbour keeps getting real answers.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.set_nodelay(true).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut probes = 0u64;
        loop {
            let flood_over = flooder.is_finished();
            send_frame(&mut probe, &honest_frame());
            assert_eq!(
                read_verdict(&mut probe).status,
                VerdictStatus::Assessed,
                "[{backend}] probe {probes} during the flood"
            );
            probes += 1;
            if flood_over {
                break;
            }
        }

        let (sent, flood_stream) = flooder.join().unwrap();
        assert!(
            sent < CAP,
            "[{backend}] a peer that never reads pushed {sent} bytes without ever blocking"
        );
        wait_for(
            &server,
            3 * read_timeout,
            |errored| errored >= 1,
            |s| s.stats().connections_errored,
        );
        assert_eq!(server.stats().connections_errored, 1, "[{backend}]");
        drop(flood_stream);
        drop(probe);
        server.shutdown();
    });
}

#[test]
fn shutdown_is_bounded_with_silent_connected_client() {
    for_each_backend(|config, backend| {
        let config = RiskServerConfig {
            read_timeout: Duration::from_millis(200),
            ..config
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();

        // A connected client that never sends a byte. Threaded workers
        // notice the stop flag within one read-timeout tick; reactor
        // shards read it at the top of every scan.
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let the accept land

        #[expect(
            clippy::disallowed_methods,
            reason = "times a shutdown against its bound"
        )]
        let start = Instant::now();
        server.shutdown();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "[{backend}] shutdown must be bounded by ~one read-timeout tick, took {elapsed:?}"
        );
        drop(stream);
    });
}

/// An oversize length header cannot be resynchronised past: every frame
/// before it is still answered, the header itself gets one `Malformed`
/// verdict, and the server then closes the connection — a *clean* close
/// on both cores, never an error.
#[test]
fn oversize_header_answers_preceding_frames_then_closes_cleanly() {
    for_each_backend(|config, backend| {
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        for _ in 0..3 {
            send_frame(&mut stream, &honest_frame());
        }
        stream.write_all(&2000u16.to_le_bytes()).unwrap();

        for i in 0..3 {
            assert_eq!(
                read_verdict(&mut stream).status,
                VerdictStatus::Assessed,
                "[{backend}] frame {i}"
            );
        }
        assert_eq!(
            read_verdict(&mut stream).status,
            VerdictStatus::Malformed,
            "[{backend}] the oversize header is answered once"
        );
        let mut rest = Vec::new();
        assert_eq!(
            stream.read_to_end(&mut rest).unwrap(),
            0,
            "[{backend}] the server closes after the malformed verdict"
        );

        wait_for(
            &server,
            Duration::from_secs(5),
            |closed| closed >= 1,
            |s| s.stats().connections_closed,
        );
        let stats = server.stats();
        assert_eq!(stats.connections_closed, 1, "[{backend}]");
        assert_eq!(stats.connections_errored, 0, "[{backend}]");
        assert_eq!(stats.assessed, 3, "[{backend}]");
        assert_eq!(stats.malformed, 1, "[{backend}]");
        server.shutdown();
    });
}

/// What one connection's pipelined backlog must look like from outside,
/// whichever core serves it and however many batch cycles share a write:
/// 5 × 32 frames in one `write_all` — cache hits under fresh session
/// ids, four never-seen frames and one undecodable one (one miss at the
/// head of each 32-frame block, so five guard acquisitions, no more and
/// no fewer), and a `STATS` frame per block — answered in frame order,
/// byte for byte what `assess_frame` says in process; every `STATS`
/// snapshot sees every frame that preceded it and balanced cache books;
/// and the final counters reconcile with the bytes on the wire.
#[test]
#[expect(
    clippy::disallowed_types,
    reason = "`assess_frame` takes its detector behind a lock; its read guard spans one assess"
)]
fn pipelined_backlog_is_answered_in_order_with_balanced_books() {
    use polygraph_obs::{Registry, Snapshot};
    use polygraph_service::proto::{
        decode_stats_response_header, STATS_RESPONSE_HEADER_LEN, VERDICT_LEN,
    };
    use polygraph_service::server::{assess_frame, metric_names};

    const BLOCK: usize = 32;
    const BLOCKS: usize = 5;
    const STATS_AT: usize = 7;
    let chrome = UserAgent::new(Vendor::Chrome, 100).to_ua_string();
    let submission = |tag: u8, values: Vec<u32>| {
        let sub = Submission {
            session_id: [tag; 16],
            user_agent: chrome.clone(),
            values,
        };
        encode_submission(&sub).unwrap()
    };
    let oracle = parking_lot::RwLock::new(tiny_detector());
    let expect = |frame: &[u8]| assess_frame(frame, &oracle, &Registry::monotonic());

    for_each_backend(|config, backend| {
        let config = RiskServerConfig {
            cache_shards: 2,
            cache_capacity: 64,
            ..config
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // Two round trips put the honest and the lying pair in the cache.
        let primed = [submission(0, vec![10, 10]), submission(0, vec![0, 0])];
        for frame in &primed {
            send_frame(&mut stream, frame);
            assert_eq!(read_verdict(&mut stream), expect(frame), "[{backend}]");
        }
        assert!(expect(&primed[1]).flagged && !expect(&primed[0]).flagged);

        // `None` is a `STATS` frame.
        let mut burst: Vec<Option<Vec<u8>>> = Vec::new();
        for at in 0..BLOCK * BLOCKS {
            let block = at / BLOCK;
            burst.push(match at % BLOCK {
                0 if block == BLOCKS - 1 => Some(vec![9, 9, 9]), // undecodable
                0 => Some(submission(1, vec![10, 11 + block as u32])), // never seen
                STATS_AT => None,
                // A hit: a cached pair under a session id of its own.
                slot => Some(submission(at as u8, vec![[10, 0][slot % 2]; 2])),
            });
        }
        let stats_request = fingerprint::encode_stats_request();
        let mut wire = Vec::new();
        for frame in &burst {
            let body = frame.as_deref().unwrap_or(&stats_request);
            wire.extend_from_slice(&(body.len() as u16).to_le_bytes());
            wire.extend_from_slice(body);
        }
        stream.write_all(&wire).unwrap();

        let mut reply_bytes = 0usize;
        let (mut assessed, mut flagged) = (primed.len() as u64, 1u64);
        for (at, frame) in burst.iter().enumerate() {
            let Some(frame) = frame else {
                let mut header = [0u8; STATS_RESPONSE_HEADER_LEN];
                stream.read_exact(&mut header).unwrap();
                let mut body = vec![0u8; decode_stats_response_header(&header).unwrap()];
                stream.read_exact(&mut body).unwrap();
                reply_bytes += header.len() + body.len();
                let snap = Snapshot::parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
                let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
                // Its own batch is folded before a snapshot renders, so
                // it holds at least every frame sent before it …
                assert!(
                    count(metric_names::ASSESSED) >= assessed,
                    "[{backend}] STATS at {at}: {} assessed, {assessed} sent before it",
                    count(metric_names::ASSESSED)
                );
                // … and the cache books balance at every fold.
                assert_eq!(
                    count(metric_names::CACHE_HITS) + count(metric_names::CACHE_MISSES),
                    count(metric_names::ASSESSED)
                        + count(metric_names::MALFORMED)
                        + count(metric_names::CACHE_SHED_EXEMPT),
                    "[{backend}] STATS at {at}"
                );
                continue;
            };
            let want = expect(frame);
            let mut got = [0u8; VERDICT_LEN];
            stream.read_exact(&mut got).unwrap();
            assert_eq!(got, want.encode(), "[{backend}] frame {at}");
            reply_bytes += VERDICT_LEN;
            assessed += u64::from(want.status == VerdictStatus::Assessed);
            flagged += u64::from(want.flagged);
        }
        drop(stream);
        wait_for(
            &server,
            Duration::from_secs(5),
            |closed| closed >= 1,
            |s| s.stats().connections_closed,
        );

        let stats = server.stats();
        let misses = (primed.len() + BLOCKS) as u64;
        assert_eq!(stats.assessed, assessed, "[{backend}]");
        assert_eq!(stats.flagged, flagged, "[{backend}]");
        assert_eq!(stats.malformed, 1, "[{backend}]");
        assert_eq!(stats.shed, 0, "[{backend}]");
        assert_eq!(stats.stats_requests, BLOCKS as u64, "[{backend}]");
        // One miss per ≤ 32-frame batch: one guard acquisition each.
        assert_eq!(stats.batches, misses, "[{backend}]");
        assert_eq!(stats.cache_misses, misses, "[{backend}]");
        assert_eq!(
            stats.cache_hits,
            (BLOCKS * (BLOCK - 2)) as u64,
            "[{backend}]"
        );
        assert_eq!(stats.cache_stale_epoch, 0, "[{backend}]");
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            stats.assessed + stats.malformed + stats.cache_shed_exempt,
            "[{backend}]"
        );
        let snap = server.snapshot();
        let batch_frames = snap.histograms.get(metric_names::BATCH_FRAMES).unwrap();
        assert_eq!(batch_frames.count, stats.batches, "[{backend}]");
        assert_eq!(batch_frames.sum, stats.cache_misses, "[{backend}]");
        let primed_bytes: usize = primed.iter().map(|f| 2 + f.len()).sum();
        assert_eq!(
            stats.bytes_read as usize,
            primed_bytes + wire.len(),
            "[{backend}]"
        );
        assert_eq!(
            stats.bytes_written as usize,
            primed.len() * VERDICT_LEN + reply_bytes,
            "[{backend}]"
        );
        server.shutdown();
    });
}

/// Reactor shutdown is not coupled to the read timeout, pinned: with a
/// read timeout of ten seconds — long enough that any tick-coupled
/// shutdown would blow the assertion — the reactor still shuts down
/// within one scan interval, because every shard reads the stop flag at
/// the top of each pass and never parks longer than `SCAN_INTERVAL`.
#[test]
fn reactor_shutdown_completes_within_one_scan_interval() {
    let config = RiskServerConfig {
        read_timeout: Duration::from_secs(10),
        backend: ServerBackend::Reactor,
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();

    // A connected, mid-frame-stalled client: the worst case for any
    // timeout-coupled teardown path.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&100u16.to_le_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let accept + read land

    #[expect(
        clippy::disallowed_methods,
        reason = "times a shutdown against its bound"
    )]
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "reactor shutdown must be decoupled from the 10 s read timeout, \
         took {elapsed:?}"
    );
    drop(stream);
}

/// A one-shard reactor server: every connection and every pass belongs
/// to the one shard whose counters the park-rule tests read.
fn one_shard_reactor(config: RiskServerConfig) -> RiskServerHandle {
    let config = RiskServerConfig {
        backend: ServerBackend::Reactor,
        reactor_shards: 1,
        ..config
    };
    start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap()
}

/// `(passes, parks)` from a reactor server's snapshot, read while no
/// park completed in between. The shard charges a parking pass to
/// `passes` first, so `passes >= parks`, with one extra when the read
/// lands mid-pass.
fn passes_and_parks(server: &RiskServerHandle) -> (u64, u64) {
    let read = |name: &str| match server.snapshot().counters.get(name) {
        Some(&count) => count,
        None => panic!("{name} is not in the server's snapshot"),
    };
    loop {
        let parks = read("server.reactor.parks");
        let passes = read("server.reactor.passes");
        if read("server.reactor.parks") == parks {
            return (passes, parks);
        }
    }
}

/// The shard's counters exist on a reactor server only: a threaded
/// server's snapshot — and with it the exposition golden — has neither.
#[test]
fn park_counters_are_registered_on_reactor_servers_only() {
    for_each_backend(|config, backend| {
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let snapshot = server.snapshot();
        for name in ["server.reactor.passes", "server.reactor.parks"] {
            assert_eq!(
                snapshot.counters.contains_key(name),
                backend == "reactor",
                "[{backend}] {name}"
            );
        }
        server.shutdown();
    });
}

/// A request/response caller's next request follows the last reply by
/// well under a scan interval — here a 100 µs sleep, so the shard always
/// gets an idle pass in first — and the shard must meet it scanning:
/// parking on that idle pass (the rule this replaced did, once per round
/// trip) would put most of a scan interval into each call.
#[test]
fn sequential_round_trips_do_not_park_the_shard() {
    let server = one_shard_reactor(RiskServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let frame = honest_frame();

    // The first trip gets the connection accepted and the window open.
    send_frame(&mut stream, &frame);
    assert_eq!(read_verdict(&mut stream).status, VerdictStatus::Assessed);
    let (_, parks_before) = passes_and_parks(&server);
    for _ in 0..200 {
        std::thread::sleep(Duration::from_micros(100));
        send_frame(&mut stream, &frame);
        assert_eq!(read_verdict(&mut stream).status, VerdictStatus::Assessed);
    }
    let (_, parks_after) = passes_and_parks(&server);
    assert!(
        parks_after - parks_before < 20,
        "200 round trips 100 µs apart parked the shard {} times",
        parks_after - parks_before
    );
    drop(stream);
    server.shutdown();
}

/// The window is measured on the injected clock and closes: stepping
/// 50 µs per read, one round trip is followed by about ten yield passes
/// (500 µs of clock) and from then on by parks only — silence costs what
/// it cost before the rule changed.
#[test]
fn a_silent_peer_is_rescanned_for_one_interval_then_parked_on() {
    let server = one_shard_reactor(RiskServerConfig {
        clock: Arc::new(TestClock::with_step(50)),
        ..Default::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    send_frame(&mut stream, &honest_frame());
    assert_eq!(read_verdict(&mut stream).status, VerdictStatus::Assessed);

    // Every pass reads the clock at least once, so 500 µs of clock is
    // at most ten passes; 50 ms of wall time is far more than they take.
    std::thread::sleep(Duration::from_millis(50));
    let (passes, parks) = passes_and_parks(&server);
    let unparked = passes - parks;
    assert!(parks > 0, "the shard never parked after the round trip");

    std::thread::sleep(Duration::from_millis(50));
    let (passes, parks_later) = passes_and_parks(&server);
    assert!(parks_later > parks, "the shard stopped scanning");
    assert!(
        passes - parks_later <= unparked + 1,
        "un-parked passes kept growing in silence: {unparked} -> {}",
        passes - parks_later
    );
    // Accept, header, frame + reply: a handful of passes made progress
    // and about ten more were inside the window.
    assert!(unparked <= 40, "{unparked} un-parked passes for one trip");
    drop(stream);
    server.shutdown();
}

/// A shard nobody ever connected to has no window to be inside: every
/// pass parks, exactly as before.
#[test]
fn a_shard_that_never_saw_a_connection_parks_every_pass() {
    let server = one_shard_reactor(RiskServerConfig::default());
    std::thread::sleep(Duration::from_millis(50));
    let (passes, parks) = passes_and_parks(&server);
    assert!(parks > 0, "the shard is not scanning");
    assert!(passes - parks <= 1, "{passes} passes, {parks} parks");
    server.shutdown();
}
