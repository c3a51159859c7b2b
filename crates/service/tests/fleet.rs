//! Fleet failover and rollout invariants.
//!
//! The fleet layer must behave, observably, like one big risk server:
//! the merged verdict stream is byte-identical at every node count, a
//! killed node moves *only its own* key ranges to the next ring node,
//! every surviving node's cache books stay balanced through a storm, and
//! a model being rolled out canary → 50% → full is never allowed to
//! answer on a node the rollout has not reached.

mod common;

use browser_engine::{UserAgent, Vendor};
use common::for_each_backend;
use fingerprint::{encode_submission, submission_cache_key, FeatureSet, Submission};
use polygraph_core::{TrainConfig, TrainedModel, TrainingSet};
use polygraph_service::fleet::metric_names as fleet_metrics;
use polygraph_service::{
    start_chaos_proxy, FaultConfig, FaultPlan, FleetClient, FleetConfig, ModelRegistry, RiskClient,
    RiskClientConfig, RiskFleet, RiskServerConfig, RolloutController, RolloutStage, RolloutStep,
    VerdictStatus,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const CHAOS_SEED: u64 = 0xB10B;

/// Two-feature, two-cluster model: `base60` is where Chrome 60's era
/// clusters, `base100` where Chrome 100's does. Swapping the bases swaps
/// every claim-verification outcome — a maximally divergent "v2".
fn tiny_model_with(base60: f64, base100: f64) -> TrainedModel {
    let mut set = TrainingSet::new(2);
    for (base, ua) in [
        (base60, UserAgent::new(Vendor::Chrome, 60)),
        (base100, UserAgent::new(Vendor::Chrome, 100)),
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
    TrainedModel::fit(fs, &set, config).unwrap()
}

fn tiny_model() -> TrainedModel {
    tiny_model_with(0.0, 10.0)
}

/// Deterministic storm traffic: even `j` are honest Chrome 100 sessions
/// (values near the era-B centroid, expected unflagged), odd `j` lie
/// (era-A values under a Chrome 100 claim, expected flagged). Values
/// vary with `j` so the storm spreads over many cache keys.
fn storm_submission(j: u64) -> (Submission, bool) {
    let honest = j.is_multiple_of(2);
    let (a, b) = if honest {
        (8 + (j % 5) as u32, 9 + ((j / 2) % 4) as u32)
    } else {
        ((j % 4) as u32, ((j / 3) % 3) as u32)
    };
    let mut session_id = [0u8; 16];
    session_id[..8].copy_from_slice(&j.to_le_bytes());
    let sub = Submission {
        session_id,
        user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
        values: vec![a, b],
    };
    (sub, !honest)
}

fn fleet_client_config() -> RiskClientConfig {
    RiskClientConfig {
        request_timeout: Duration::from_millis(500),
        max_retries: 0, // fail over along the ring instead of retrying in place
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        retry_seed: CHAOS_SEED,
    }
}

fn cached_node_config(base: RiskServerConfig) -> RiskServerConfig {
    RiskServerConfig {
        cache_shards: 4,
        cache_capacity: 1024,
        ..base
    }
}

fn temp_registry(tag: &str) -> ModelRegistry {
    let dir =
        std::env::temp_dir().join(format!("polygraph-fleet-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelRegistry::open(&dir).unwrap()
}

/// `cache.hits + cache.misses == assessed + malformed + shed_exempt` on
/// one node — every frame the node accepted is accounted exactly once.
fn assert_books_balanced(fleet: &RiskFleet, node: usize, context: &str) {
    let stats = fleet.node_stats(node).expect("node is alive");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.assessed + stats.malformed + stats.cache_shed_exempt,
        "[{context}] node {node} books out of balance: {stats:?}"
    );
}

/// The fleet is observably one server: replaying the identical storm
/// through 1-, 2-, and 3-node fleets (both connection backends) yields
/// byte-identical verdicts frame for frame.
#[test]
fn merged_verdict_stream_is_identical_across_node_counts() {
    const FRAMES: u64 = 200;
    for_each_backend(|config, backend| {
        let model = tiny_model();
        let mut streams: Vec<Vec<[u8; 8]>> = Vec::new();
        for nodes in [1usize, 2, 3] {
            let fleet = RiskFleet::start(
                &model,
                FleetConfig {
                    nodes,
                    node: cached_node_config(config.clone()),
                    ..Default::default()
                },
            )
            .unwrap();
            let mut client = FleetClient::connect(&fleet, fleet_client_config());
            let mut verdicts = Vec::with_capacity(FRAMES as usize);
            for j in 0..FRAMES {
                let (sub, expect_flagged) = storm_submission(j);
                let v = client.assess_submission(&sub).unwrap();
                assert_eq!(v.status, VerdictStatus::Assessed);
                assert_eq!(
                    v.flagged, expect_flagged,
                    "[{backend}] wrong verdict at frame {j} on {nodes} nodes"
                );
                verdicts.push(v.encode());
            }
            for node in 0..fleet.node_count() {
                assert_books_balanced(&fleet, node, backend);
            }
            streams.push(verdicts);
            drop(client);
            fleet.shutdown();
        }
        let first = streams.first().unwrap();
        for (i, stream) in streams.iter().enumerate() {
            assert_eq!(
                stream, first,
                "[{backend}] merged stream at node-count leg {i} diverged"
            );
        }
    });
}

/// What adding a node buys without a second core: its cache. On a seeded
/// replay over a key population larger than one node's cache, with the
/// per-node capacity fixed, fleet-wide hits rise with every node added —
/// and once no node's share of the keys exceeds its capacity, every key
/// misses exactly once.
#[test]
fn fleet_wide_cache_hits_rise_with_node_count_at_fixed_node_capacity() {
    const KEYS: u32 = 90;
    const FRAMES: u64 = 1500;
    const NODE_CAPACITY: usize = 40;
    let model = tiny_model();
    let mut rng = ChaCha8Rng::seed_from_u64(CHAOS_SEED);
    let sequence: Vec<u32> = (0..FRAMES).map(|_| rng.gen_range(0..KEYS)).collect();
    let distinct = sequence.iter().collect::<BTreeSet<_>>().len() as u64;

    let mut hits_by_node_count = Vec::new();
    for nodes in [1usize, 2, 3] {
        let fleet = RiskFleet::start(
            &model,
            FleetConfig {
                nodes,
                node: RiskServerConfig {
                    cache_shards: 1,
                    cache_capacity: NODE_CAPACITY,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = FleetClient::connect(&fleet, fleet_client_config());
        for &key in &sequence {
            let sub = Submission {
                session_id: [0u8; 16],
                // One cache key per `key`: the frames differ only in
                // their last two bytes.
                user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
                values: vec![key / 10, key % 10],
            };
            let v = client.assess_submission(&sub).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed);
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for node in 0..nodes {
            assert_books_balanced(&fleet, node, &format!("{nodes} nodes"));
            let stats = fleet.node_stats(node).unwrap();
            hits += stats.cache_hits;
            misses += stats.cache_misses;
        }
        assert_eq!(hits + misses, FRAMES, "{nodes} nodes lost a frame");
        hits_by_node_count.push(hits);
        drop(client);
        fleet.shutdown();
    }
    assert!(
        hits_by_node_count.windows(2).all(|w| w[0] < w[1]),
        "fleet-wide hits must rise 1 -> 2 -> 3 nodes: {hits_by_node_count:?}"
    );
    assert_eq!(
        hits_by_node_count[2],
        FRAMES - distinct,
        "three nodes hold the whole population: one miss per distinct key"
    );
}

/// Satellite: seeded storm with one node killed at each rollout stage.
/// Every surviving node keeps its books balanced, no verdict is garbage
/// fleet-wide, and each live node receives exactly the keys the ring
/// (minus the dead node) assigns it — reassignment touches only the dead
/// node's keys.
#[test]
fn storm_with_a_node_killed_at_each_rollout_stage_keeps_books_balanced() {
    const FRAMES: u64 = 120;
    const NODES: usize = 3;
    // Stage 0: kill before any promotion; stage 1: after canary; stage
    // 2: after half; stage 3: after full coverage.
    for advances_before_kill in 0..=3usize {
        let context = format!("kill after {advances_before_kill} advances");
        let model = tiny_model();
        let registry = temp_registry(&format!("stage{advances_before_kill}"));
        // The "new" model is behaviourally identical (same training
        // data), so mid-rollout mixed fleets still agree on verdicts —
        // the storm can assert exact flags at every stage.
        let version = registry.publish(&tiny_model()).unwrap();
        let mut fleet = RiskFleet::start(
            &model,
            FleetConfig {
                nodes: NODES,
                node: cached_node_config(RiskServerConfig::default()),
                ..Default::default()
            },
        )
        .unwrap();
        let mut rollout = RolloutController::new(&registry, Vec::new(), 0.0).unwrap();
        for _ in 0..advances_before_kill {
            match rollout.advance(&fleet) {
                RolloutStep::Promoted { .. } | RolloutStep::Complete => {}
                RolloutStep::Blocked { .. } => panic!("[{context}] identical model blocked"),
            }
        }
        let victim = advances_before_kill % NODES;
        assert!(fleet.kill_node(victim), "[{context}] victim already dead");
        let live = fleet.live();

        // Replay the storm through the router-aware client and work out,
        // frame by frame, which live node the ring assigns each key to —
        // and how many keys the dead node would have owned.
        let mut expected_frames = [0u64; NODES];
        let mut victim_owned = 0u64;
        let mut client = FleetClient::connect(&fleet, fleet_client_config());
        for j in 0..FRAMES {
            let (sub, expect_flagged) = storm_submission(j);
            let frame = encode_submission(&sub).unwrap();
            let key = submission_cache_key(&frame).unwrap();
            if fleet.router().route(key) == victim {
                victim_owned += 1;
            }
            let owner = fleet.router().route_live(key, &live).unwrap();
            expected_frames[owner] += 1;
            let v = client
                .assess_submission(&sub)
                .unwrap_or_else(|e| panic!("[{context}] frame {j} failed fleet-wide: {e}"));
            assert_eq!(
                v.status,
                VerdictStatus::Assessed,
                "[{context}] garbage verdict for frame {j} (seed {CHAOS_SEED:#x})"
            );
            assert_eq!(v.flagged, expect_flagged, "[{context}] wrong flag at {j}");
        }

        for (node, &expected) in expected_frames.iter().enumerate() {
            if node == victim {
                assert!(fleet.node_stats(node).is_none());
                continue;
            }
            assert_books_balanced(&fleet, node, &context);
            let stats = fleet.node_stats(node).unwrap();
            assert_eq!(
                stats.cache_hits + stats.cache_misses,
                expected,
                "[{context}] node {node} served keys the ring does not assign it"
            );
        }

        // Exactly the dead node's keys hop — once each (connection
        // refused on the dead owner, answered by the next ring node) —
        // and no other key ever fails over.
        let snapshot = fleet.obs().snapshot();
        let failovers = snapshot
            .counters
            .get(fleet_metrics::FAILOVERS)
            .copied()
            .unwrap_or(0);
        assert_eq!(
            failovers, victim_owned,
            "[{context}] failover hops must match the dead node's key count"
        );
        assert_eq!(
            snapshot
                .counters
                .get(fleet_metrics::EXHAUSTED)
                .copied()
                .unwrap_or(0),
            0,
            "[{context}] no frame may fail on every node"
        );

        // The rollout completes around the failure: every surviving node
        // ends on the published version.
        loop {
            match rollout.advance(&fleet) {
                RolloutStep::Complete => break,
                RolloutStep::Promoted { .. } => {}
                RolloutStep::Blocked { .. } => panic!("[{context}] identical model blocked"),
            }
        }
        for node in 0..NODES {
            if node == victim {
                continue;
            }
            assert_eq!(
                fleet.node(node).unwrap().active_model_version(),
                version,
                "[{context}] live node {node} missed the rollout"
            );
        }
        drop(client);
        fleet.shutdown();
    }
}

/// Tentpole invariant: during a staged rollout of a *behaviourally
/// different* v2, a frame is never answered by v2 on a node the rollout
/// has not reached — probed directly on every node after every stage.
#[test]
fn v2_never_answers_on_a_node_the_rollout_has_not_reached() {
    const NODES: usize = 4;
    let v1 = tiny_model();
    let registry = temp_registry("v2-stages");
    // v2 swaps the eras: the probe below (era-A values claiming Chrome
    // 60) is unflagged under v1, flagged under v2.
    let version = registry.publish(&tiny_model_with(10.0, 0.0)).unwrap();
    let probe = Submission {
        session_id: [9u8; 16],
        user_agent: UserAgent::new(Vendor::Chrome, 60).to_ua_string(),
        values: vec![0, 0],
    };
    let fleet = RiskFleet::start(
        &v1,
        FleetConfig {
            nodes: NODES,
            ..Default::default()
        },
    )
    .unwrap();
    // The sample *does* diverge; the wide budget lets promotion proceed
    // while the per-node counters record the divergence.
    let sample = vec![(vec![0.0, 0.0], UserAgent::new(Vendor::Chrome, 60))];
    let mut rollout = RolloutController::new(&registry, sample, 1.0).unwrap();
    assert_eq!(rollout.version(), version);

    let probe_all = |fleet: &RiskFleet, covered: usize, stage: &str| {
        for node in 0..NODES {
            let mut client = RiskClient::connect(fleet.addr(node).unwrap()).unwrap();
            let v = client.assess_submission(&probe).unwrap();
            let on_v2 = node < covered;
            assert_eq!(
                v.flagged,
                on_v2,
                "[{stage}] node {node}: expected {} model, got the other one",
                if on_v2 { "v2" } else { "v1" }
            );
            assert_eq!(
                fleet.node(node).unwrap().active_model_version(),
                if on_v2 { version } else { 0 },
                "[{stage}] node {node} version tag out of step"
            );
        }
    };

    probe_all(&fleet, 0, "before rollout");
    for (expect_stage, expect_covered) in [
        (RolloutStage::Canary, 1usize),
        (RolloutStage::Half, 2),
        (RolloutStage::Full, NODES),
    ] {
        match rollout.advance(&fleet) {
            RolloutStep::Promoted { stage, .. } => assert_eq!(stage, expect_stage),
            other => panic!("expected promotion to {expect_stage:?}, got {other:?}"),
        }
        assert_eq!(rollout.covered_nodes(), expect_covered);
        probe_all(&fleet, expect_covered, &format!("{expect_stage:?}"));
    }
    assert!(matches!(rollout.advance(&fleet), RolloutStep::Complete));

    // The divergence the gate measured is on the books, per node.
    let snapshot = fleet.obs().snapshot();
    for node in 0..NODES {
        assert_eq!(
            snapshot.counters.get(&fleet_metrics::compared(node)),
            Some(&1),
            "node {node} comparison missing"
        );
        assert_eq!(
            snapshot.counters.get(&fleet_metrics::diverged(node)),
            Some(&1),
            "node {node} divergence not recorded"
        );
    }
    fleet.shutdown();
}

/// A zero-tolerance divergence budget blocks the very first promotion:
/// every node keeps serving v1 and the canary is never swapped.
#[test]
fn divergence_gate_blocks_a_diverging_canary() {
    let registry = temp_registry("gate-blocks");
    registry.publish(&tiny_model_with(10.0, 0.0)).unwrap();
    let fleet = RiskFleet::start(
        &tiny_model(),
        FleetConfig {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let sample = vec![(vec![0.0, 0.0], UserAgent::new(Vendor::Chrome, 60))];
    let mut rollout = RolloutController::new(&registry, sample, 0.0).unwrap();
    match rollout.advance(&fleet) {
        RolloutStep::Blocked {
            stage,
            node,
            diverged,
            compared,
        } => {
            assert_eq!(stage, RolloutStage::Canary);
            assert_eq!(node, 0);
            assert_eq!((diverged, compared), (1, 1));
        }
        other => panic!("expected the gate to block, got {other:?}"),
    }
    assert_eq!(rollout.covered_nodes(), 0);
    for node in 0..2 {
        assert_eq!(fleet.node(node).unwrap().active_model_version(), 0);
        let mut client = RiskClient::connect(fleet.addr(node).unwrap()).unwrap();
        let probe = Submission {
            session_id: [3u8; 16],
            user_agent: UserAgent::new(Vendor::Chrome, 60).to_ua_string(),
            values: vec![0, 0],
        };
        assert!(
            !client.assess_submission(&probe).unwrap().flagged,
            "node {node} must still serve v1"
        );
    }
    fleet.shutdown();
}

/// Chaos: a node stalled past the client deadline (not killed — its
/// socket accepts, then hangs) must fail over along the ring exactly
/// like a dead one, with zero garbage verdicts and balanced books on
/// the healthy node.
#[test]
fn stalled_node_fails_over_along_the_ring() {
    const FRAMES: u64 = 30;
    let model = tiny_model();
    let fleet = RiskFleet::start(
        &model,
        FleetConfig {
            nodes: 2,
            node: cached_node_config(RiskServerConfig::default()),
            ..Default::default()
        },
    )
    .unwrap();
    // Interpose a stall-everything proxy in front of node 0.
    let stall_all = FaultConfig {
        stall_per_mille: 1000,
        stall: Duration::from_millis(400),
        ..FaultConfig::none()
    };
    let proxy = start_chaos_proxy(
        fleet.addr(0).unwrap(),
        FaultPlan::symmetric(CHAOS_SEED, stall_all),
    )
    .unwrap();
    let addrs = vec![proxy.local_addr(), fleet.addr(1).unwrap()];
    let mut client = FleetClient::from_addrs(
        addrs,
        fleet.router().clone(),
        RiskClientConfig {
            request_timeout: Duration::from_millis(100),
            ..fleet_client_config()
        },
        Arc::clone(fleet.obs()),
    );

    let mut node0_keys = 0u64;
    for j in 0..FRAMES {
        let (sub, expect_flagged) = storm_submission(j);
        let frame = encode_submission(&sub).unwrap();
        let key = submission_cache_key(&frame).unwrap();
        if fleet.router().route(key) == 0 {
            node0_keys += 1;
        }
        let v = client.assess_submission(&sub).unwrap();
        assert_eq!(
            v.status,
            VerdictStatus::Assessed,
            "garbage verdict for frame {j} through the stall (seed {CHAOS_SEED:#x})"
        );
        assert_eq!(v.flagged, expect_flagged, "wrong flag at frame {j}");
    }
    assert!(
        node0_keys > 0,
        "storm never touched the stalled node's keys"
    );

    let snapshot = fleet.obs().snapshot();
    let failovers = snapshot
        .counters
        .get(fleet_metrics::FAILOVERS)
        .copied()
        .unwrap_or(0);
    assert!(
        failovers >= node0_keys,
        "every stalled-owner key must hop: {failovers} hops for {node0_keys} keys"
    );
    // The healthy node absorbed the whole storm with balanced books; the
    // stalled node never completed an exchange, so its books are empty
    // *and* balanced.
    for node in 0..2 {
        assert_books_balanced(&fleet, node, "stall");
    }
    let healthy = fleet.node_stats(1).unwrap();
    assert_eq!(healthy.cache_hits + healthy.cache_misses, FRAMES);
    proxy.shutdown();
    drop(client);
    fleet.shutdown();
}
