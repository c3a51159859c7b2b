//! Regression test for the cached-verdict / model-epoch race.
//!
//! The hazard: a submission assessed and cached under model v1 must
//! never be answered from cache after the orchestrator `publish`es and
//! `swap`s in v2 — a stale `risk_factor` escaping the cache would make
//! model rollout silently non-atomic from the client's point of view.
//!
//! The fix under test: every cache entry carries the model epoch it was
//! assessed under, `RiskServerHandle::publish_model_versioned` — the only
//! way a model reaches the serving slot, so no swap can skip it — bumps
//! the epoch *after* the new detector is visible, and lookups from older
//! epochs report `Stale` and re-assess (counted by `cache.stale_epoch`).
//!
//! Both scenarios run against both connection cores via
//! `for_each_backend`: the cache layer sits behind the shared batch path,
//! so the epoch guarantees must be backend-independent.

mod common;

use browser_engine::{UserAgent, Vendor};
use common::for_each_backend;
use fingerprint::{encode_submission, FeatureSet, Submission};
use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_service::server::{start_risk_server_with, RiskServerConfig, RiskServerHandle};
use polygraph_service::{ModelRegistry, Verdict, VerdictStatus};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Chrome 60 lives at (0,0); the probe frame below is honest.
fn model_v1() -> TrainedModel {
    fit(&[
        (0.0, UserAgent::new(Vendor::Chrome, 60)),
        (10.0, UserAgent::new(Vendor::Chrome, 100)),
        (20.0, UserAgent::new(Vendor::Firefox, 100)),
    ])
}

/// Chrome 60 moves to (10,10); the same probe frame is now a lie.
fn model_v2() -> TrainedModel {
    fit(&[
        (10.0, UserAgent::new(Vendor::Chrome, 60)),
        (0.0, UserAgent::new(Vendor::Firefox, 60)),
        (20.0, UserAgent::new(Vendor::Firefox, 100)),
    ])
}

fn fit(clusters: &[(f64, UserAgent)]) -> TrainedModel {
    let mut set = TrainingSet::new(2);
    for &(base, ua) in clusters {
        for j in 0..40 {
            set.push(vec![base + (j % 2) as f64 * 0.1, base], ua)
                .unwrap();
        }
    }
    let fs = FeatureSet::table8().subset(&[0, 1]);
    let config = TrainConfig {
        k: 3,
        n_components: 2,
        min_samples_for_majority: 1,
        ..Default::default()
    };
    TrainedModel::fit(fs, &set, config).unwrap()
}

/// The probe: Chrome 60 claiming fingerprint (0,0). Honest under v1,
/// flagged under v2. The session id varies per ask so cache hits prove
/// session-invariant keying, not byte-identical frames.
fn ask(addr: std::net::SocketAddr, session_tag: u8) -> Verdict {
    let sub = Submission {
        session_id: [session_tag; 16],
        user_agent: UserAgent::new(Vendor::Chrome, 60).to_ua_string(),
        values: vec![0, 0],
    };
    let frame = encode_submission(&sub).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(&(frame.len() as u16).to_le_bytes())
        .unwrap();
    stream.write_all(&frame).unwrap();
    let mut buf = [0u8; polygraph_service::proto::VERDICT_LEN];
    stream.read_exact(&mut buf).unwrap();
    Verdict::decode(&buf).unwrap()
}

fn cached_server(base: RiskServerConfig) -> RiskServerHandle {
    let config = RiskServerConfig {
        cache_shards: 4,
        cache_capacity: 1024,
        ..base
    };
    start_risk_server_with("127.0.0.1:0", Detector::new(model_v1()), config).unwrap()
}

#[test]
fn cached_v1_verdict_never_survives_publish_and_swap_to_v2() {
    for_each_backend(|config, backend| {
        let server = cached_server(config);
        let addr = server.local_addr();
        assert_eq!(server.cache_epoch(), Some(0));

        // Two asks under v1 from *different sessions*: the first misses and
        // populates the cache, the second is answered from it.
        let first = ask(addr, 1);
        assert_eq!(first.status, VerdictStatus::Assessed);
        assert!(!first.flagged, "v1 knows Chrome 60 at (0,0)");
        let second = ask(addr, 2);
        assert_eq!(second, first, "a cache hit returns the identical verdict");
        let stats = server.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.assessed, 2, "a cached answer is still an assessment");

        // The orchestrator's rollout sequence: publish v2, swap it in.
        let dir = std::env::temp_dir().join(format!(
            "polygraph-cache-epoch-test-{}-{backend}",
            std::process::id()
        ));
        let registry = ModelRegistry::open(&dir).unwrap();
        let v2 = model_v2();
        let version = registry.publish(&v2).unwrap();
        server.publish_model_versioned(registry.load_latest().unwrap().unwrap(), version);
        assert_eq!(server.cache_epoch(), Some(1), "swap bumps the epoch");

        // The same (fingerprint, UA) pair must now be re-assessed under v2:
        // the v1 entry is stale, not served.
        let after = ask(addr, 3);
        assert_eq!(after.status, VerdictStatus::Assessed);
        assert!(after.flagged, "v2 says (0,0) is not Chrome 60 — flagged");
        assert_ne!(
            after.risk_factor, first.risk_factor,
            "no stale v1 risk_factor may escape the cache after the swap"
        );
        let stats = server.stats();
        assert_eq!(stats.cache_stale_epoch, 1, "the v1 entry was seen stale");
        assert_eq!(stats.cache_misses, 2, "stale lookups count as misses");
        assert_eq!(stats.cache_hits, 1, "no hit crossed the swap");

        // The re-assessment refreshed the entry at epoch 1: hits resume,
        // serving the v2 verdict.
        let refreshed = ask(addr, 4);
        assert_eq!(refreshed, after);
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_stale_epoch, 1);

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Regression: `cache.occupancy` must gauge *current-epoch* entries
/// only. The old gauge counted every resident slot, so after a swap the
/// stale v1 entries (which can never serve a hit, they await CLOCK
/// eviction) were reported as live cache — here that would read 2 where
/// the truth is 1.
#[test]
fn occupancy_gauge_excludes_stale_epoch_slots_across_a_swap() {
    let occupancy = |server: &RiskServerHandle| -> i64 {
        server
            .snapshot()
            .gauges
            .get("cache.occupancy")
            .copied()
            .unwrap_or(-1)
    };
    let ask_honest_chrome100 = |addr: std::net::SocketAddr, tag: u8| {
        let sub = Submission {
            session_id: [tag; 16],
            user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
            values: vec![10, 10],
        };
        let frame = encode_submission(&sub).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .write_all(&(frame.len() as u16).to_le_bytes())
            .unwrap();
        stream.write_all(&frame).unwrap();
        let mut buf = [0u8; polygraph_service::proto::VERDICT_LEN];
        stream.read_exact(&mut buf).unwrap();
        Verdict::decode(&buf).unwrap()
    };
    for_each_backend(|config, backend| {
        let server = cached_server(config);
        let addr = server.local_addr();

        // One key cached under v1 (a second session hits it): one live
        // entry on the gauge.
        ask(addr, 1);
        ask(addr, 2);
        assert_eq!(occupancy(&server), 1, "[{backend}] one v1 entry live");

        // Swap to v2, then cache a *different* key. The v1 slot stays
        // resident (stale, awaiting sweep) — only the v2 entry is live.
        server.publish_model_versioned(model_v2(), 1);
        ask_honest_chrome100(addr, 3);
        assert_eq!(
            occupancy(&server),
            1,
            "[{backend}] the stale v1 slot must not be gauged as occupancy"
        );

        // Re-asking the first key refreshes it at the new epoch: now two
        // entries are genuinely live.
        ask(addr, 4);
        assert_eq!(
            occupancy(&server),
            2,
            "[{backend}] refreshed entries count again"
        );
        let stats = server.stats();
        assert_eq!(stats.cache_stale_epoch, 1, "[{backend}] v1 slot seen stale");
        server.shutdown();
    });
}

#[test]
fn disabled_cache_reports_nothing_and_swap_is_unaffected() {
    for_each_backend(|config, backend| {
        // cache_capacity 0 (the default): no cache metrics, no epoch, and
        // repeated identical submissions are all assessed by the detector.
        let server =
            start_risk_server_with("127.0.0.1:0", Detector::new(model_v1()), config).unwrap();
        let addr = server.local_addr();
        assert_eq!(server.cache_epoch(), None);
        for tag in 0..3 {
            assert!(!ask(addr, tag).flagged);
        }
        server.publish_model_versioned(model_v2(), 1);
        assert!(ask(addr, 9).flagged);
        let stats = server.stats();
        assert_eq!(stats.assessed, 4);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
        let snapshot = server.snapshot();
        assert!(
            !snapshot.counters.keys().any(|k| k.starts_with("cache.")),
            "[{backend}] a disabled cache must not register metrics (exposition golden)"
        );
        server.shutdown();
    });
}
