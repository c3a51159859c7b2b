//! Shadow-deployment invariants, end to end over the wire.
//!
//! The promotion pipeline's contract: a retrain candidate riding the
//! serve path as a shadow **never** answers a live frame before it is
//! promoted (cache epoch, registry version, and the verdict stream all
//! pinned); a divergent candidate is discarded without a registry
//! publish; and a promoted candidate reaches a fleet only through the
//! staged rollout gate — including across a node killed mid-shadow.

mod common;

use browser_engine::{UserAgent, Vendor};
use common::for_each_backend;
use fingerprint::{FeatureSet, Submission};
use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_service::orchestrator::metric_names as orch_metrics;
use polygraph_service::{
    start_risk_server_with, FleetClient, FleetConfig, ModelRegistry, Orchestrator,
    OrchestratorConfig, RetrainOutcome, RiskClient, RiskClientConfig, RiskFleet, RiskServerConfig,
    RolloutController, RolloutStep, ShadowConfig, SwapPolicy, VerdictStatus,
};
use std::time::Duration;
use traffic::TrafficConfig;

const CHAOS_SEED: u64 = 0x5EED;

fn ua(vendor: Vendor, v: u32) -> UserAgent {
    UserAgent::new(vendor, v)
}

fn train_config() -> TrainConfig {
    TrainConfig {
        k: 2,
        n_components: 2,
        min_samples_for_majority: 1,
        ..Default::default()
    }
}

/// v1: Chrome 60 clusters at era A (near 0), Chrome 100 at era B
/// (near 10). Chrome 101 is unknown, so a 101 claim is checked against
/// its nearest known release — Chrome 100's cluster.
fn serving_training() -> TrainingSet {
    let mut set = TrainingSet::new(2);
    for (base, u) in [
        (0.0, ua(Vendor::Chrome, 60)),
        (10.0, ua(Vendor::Chrome, 100)),
    ] {
        for j in 0..40 {
            set.push(vec![base + (j % 2) as f64 * 0.1, base], u)
                .unwrap();
        }
    }
    set
}

fn serving_model() -> TrainedModel {
    let fs = FeatureSet::table8().subset(&[0, 1]);
    TrainedModel::fit(fs, &serving_training(), train_config()).unwrap()
}

/// The retrain window: the v1 eras plus Chrome 101 shipping era-A
/// features. Under v1 a 101 claim with era-A values is *flagged*
/// (expected in Chrome 100's cluster); a candidate trained on this
/// window knows 101 belongs at era A and answers *unflagged* — a
/// behaviourally different model, so any pre-promotion leak onto the
/// serve path is observable in the verdict stream.
fn drift_window() -> TrainingSet {
    let mut fresh = serving_training();
    for j in 0..80 {
        fresh
            .push(
                vec![0.3 + (j % 3) as f64 * 0.1, 0.3],
                ua(Vendor::Chrome, 101),
            )
            .unwrap();
    }
    fresh
}

fn orch_config(shadow: ShadowConfig, swap: SwapPolicy) -> OrchestratorConfig {
    OrchestratorConfig {
        train: train_config(),
        min_accuracy: 0.9,
        keep_versions: 4,
        swap,
        refit_epochs: 4,
        shadow: Some(shadow),
    }
}

fn temp_registry(tag: &str) -> ModelRegistry {
    let dir = std::env::temp_dir().join(format!(
        "polygraph-shadow-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ModelRegistry::open(&dir).unwrap()
}

/// An honest session both v1 and the candidate agree on: era-A values
/// under a Chrome 60 claim (even `j`) or era-B values under Chrome 100
/// (odd `j`). The verdict cache keys on (user-agent, values), so each
/// parity walks a 5×5 grid — 25 distinct value pairs, all safely inside
/// the claimed era's cluster — keeping every frame with `j/2 < 25` a
/// genuine cache miss (and therefore shadow-compared).
fn honest_submission(j: u64) -> Submission {
    let i = j / 2;
    let (u, a, b) = if j.is_multiple_of(2) {
        (ua(Vendor::Chrome, 60), (i % 5) as u32, ((i / 5) % 5) as u32)
    } else {
        (
            ua(Vendor::Chrome, 100),
            8 + (i % 5) as u32,
            8 + ((i / 5) % 5) as u32,
        )
    };
    let mut session_id = [0u8; 16];
    session_id[..8].copy_from_slice(&j.to_le_bytes());
    Submission {
        session_id,
        user_agent: u.to_ua_string(),
        values: vec![a, b],
    }
}

/// A Chrome 101 claim with era-A values: flagged under v1, unflagged
/// under the drift-window candidate. Same 5×5 grid as
/// [`honest_submission`] so probes with `j < 25` are distinct cache
/// keys (the claimed user-agent separates them from honest era-A
/// frames).
fn probe_submission(j: u64) -> Submission {
    let mut session_id = [1u8; 16];
    session_id[..8].copy_from_slice(&j.to_le_bytes());
    Submission {
        session_id,
        user_agent: ua(Vendor::Chrome, 101).to_ua_string(),
        values: vec![(j % 5) as u32, ((j / 5) % 5) as u32],
    }
}

/// Tentpole invariant, both connection backends: while a candidate
/// shadows, the live verdict stream is exactly v1's, the cache epoch
/// never moves, the registry stays empty, and the versioned-publish tag
/// stays 0. Only promotion changes any of it — all at once.
#[test]
fn shadow_candidate_never_serves_before_promotion() {
    for_each_backend(|config, backend| {
        let config = RiskServerConfig {
            cache_shards: 2,
            cache_capacity: 256,
            ..config
        };
        let server =
            start_risk_server_with("127.0.0.1:0", Detector::new(serving_model()), config).unwrap();
        let registry = temp_registry(&format!("never-serves-{backend}"));
        let mut orch = Orchestrator::new(
            &server,
            registry,
            orch_config(
                ShadowConfig {
                    max_divergence: 0.2,
                    required_checkpoints: 2,
                    min_compared: 10,
                },
                SwapPolicy::PublishAndSwap,
            ),
        );
        let epoch0 = server.cache_epoch().expect("cache enabled");

        // Drift: the candidate attaches instead of publishing.
        let outcome = orch
            .checkpoint(&drift_window(), &[ua(Vendor::Chrome, 101)])
            .unwrap();
        assert!(
            matches!(outcome, RetrainOutcome::ShadowStarted { .. }),
            "[{backend}] got {outcome:?}"
        );
        assert!(server.shadow_attached());

        let mut client = RiskClient::connect(server.local_addr()).unwrap();
        let assert_serving_is_v1 = |client: &mut RiskClient, js: std::ops::Range<u64>| {
            for j in js {
                let v = client.assess_submission(&honest_submission(j)).unwrap();
                assert_eq!(v.status, VerdictStatus::Assessed);
                assert!(!v.flagged, "[{backend}] honest frame {j} flagged");
            }
        };

        // Live traffic while shadowing: honest frames agree between the
        // models; the 101 probes are where they differ — and the wire
        // answer must be v1's (flagged) every single time.
        assert_serving_is_v1(&mut client, 0..30);
        for j in 0..3u64 {
            let v = client.assess_submission(&probe_submission(j)).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed);
            assert!(
                v.flagged,
                "[{backend}] probe {j} answered by the shadow candidate pre-promotion"
            );
        }
        let (compared, diverged) = server.shadow_counts().expect("shadow attached");
        assert_eq!(compared, 33, "[{backend}] every miss is double-scored");
        assert_eq!(diverged, 3, "[{backend}] exactly the probes diverge");
        assert_eq!(
            server.cache_epoch(),
            Some(epoch0),
            "[{backend}] epoch moved"
        );
        assert_eq!(server.active_model_version(), 0);
        assert_eq!(orch.registry().versions().unwrap(), Vec::<u64>::new());
        assert_eq!(server.stats().swaps, 0);

        // Divergence 3/33 is under the 0.2 gate: first clean checkpoint.
        let outcome = orch.checkpoint(&drift_window(), &[]).unwrap();
        assert!(
            matches!(
                outcome,
                RetrainOutcome::ShadowPending {
                    clean_checkpoints: 1,
                    ..
                }
            ),
            "[{backend}] got {outcome:?}"
        );
        assert_serving_is_v1(&mut client, 30..50);

        // Second clean checkpoint: promoted — registry, version tag,
        // cache epoch and the serve path all flip together.
        let outcome = orch.checkpoint(&drift_window(), &[]).unwrap();
        assert!(
            matches!(
                outcome,
                RetrainOutcome::ShadowPromoted {
                    version: 1,
                    checkpoints: 2,
                }
            ),
            "[{backend}] got {outcome:?}"
        );
        assert!(!server.shadow_attached());
        assert_eq!(orch.registry().versions().unwrap(), vec![1]);
        assert_eq!(server.active_model_version(), 1);
        assert_eq!(server.stats().swaps, 1);
        assert_eq!(
            server.cache_epoch(),
            Some(epoch0 + 1),
            "[{backend}] promotion must invalidate cached v1 verdicts"
        );
        for j in 200..203u64 {
            let v = client.assess_submission(&probe_submission(j)).unwrap();
            assert!(
                !v.flagged,
                "[{backend}] probe {j} still on v1 after promotion"
            );
        }
        drop(client);
        server.shutdown();
    });
}

/// A candidate that disagrees with the serving model on live traffic is
/// discarded: no publish, no swap, no epoch bump — and the serve path
/// keeps answering with v1 afterwards.
#[test]
fn divergent_candidate_is_rejected_without_a_publish() {
    let config = RiskServerConfig {
        cache_shards: 2,
        cache_capacity: 256,
        ..Default::default()
    };
    let server =
        start_risk_server_with("127.0.0.1:0", Detector::new(serving_model()), config).unwrap();
    let registry = temp_registry("divergent");
    let mut orch = Orchestrator::new(
        &server,
        registry,
        orch_config(
            ShadowConfig {
                max_divergence: 0.1,
                required_checkpoints: 1,
                min_compared: 5,
            },
            SwapPolicy::PublishAndSwap,
        ),
    );
    let epoch0 = server.cache_epoch().expect("cache enabled");
    let outcome = orch
        .checkpoint(&drift_window(), &[ua(Vendor::Chrome, 101)])
        .unwrap();
    assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

    // The live window is all probes: the candidate disagrees on every
    // frame, and every frame is still answered by v1.
    let mut client = RiskClient::connect(server.local_addr()).unwrap();
    for j in 0..20u64 {
        let v = client.assess_submission(&probe_submission(j)).unwrap();
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert!(v.flagged, "probe {j} leaked a candidate verdict");
    }

    let outcome = orch.checkpoint(&drift_window(), &[]).unwrap();
    match outcome {
        RetrainOutcome::ShadowRejected { compared, diverged } => {
            assert_eq!(compared, 20);
            assert_eq!(diverged, 20);
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert!(!server.shadow_attached());
    assert!(!orch.shadow_in_flight());
    assert_eq!(
        orch.registry().versions().unwrap(),
        Vec::<u64>::new(),
        "a rejected candidate must leave no registry trace"
    );
    assert_eq!(server.stats().swaps, 0);
    assert_eq!(server.active_model_version(), 0);
    assert_eq!(server.cache_epoch(), Some(epoch0));
    assert_eq!(
        server
            .registry()
            .counter(orch_metrics::SHADOW_REJECTED)
            .get(),
        1
    );
    // v1 still serves.
    let v = client.assess_submission(&probe_submission(100)).unwrap();
    assert!(v.flagged);
    drop(client);
    server.shutdown();
}

/// The other side of the gate: a `refit_streaming` candidate trained on
/// a window drawn from the serving model's own traffic distribution,
/// shadowing a replay of that distribution, is compared on every frame
/// and stays inside the default divergence budget — so
/// [`ShadowConfig::default`] promotes the candidates it exists to
/// promote.
#[test]
fn same_distribution_candidate_stays_inside_the_default_divergence_budget() {
    const REPLAY: usize = 1_000;
    let features = FeatureSet::table8();
    let window = |sessions: usize, seed: u64| {
        traffic::generate(
            &features,
            &TrafficConfig::paper_training()
                .with_sessions(sessions)
                .with_seed(CHAOS_SEED + seed),
        )
    };
    let training_set = |data: &traffic::TrafficDataset| {
        let (rows, uas) = data.rows_and_user_agents();
        TrainingSet::from_rows(rows, uas).unwrap()
    };
    let serving = TrainedModel::fit(
        features.clone(),
        &training_set(&window(6_000, 0)),
        TrainConfig::default(),
    )
    .unwrap();
    let candidate = serving
        .refit_streaming(
            &training_set(&window(3_000, 1)),
            2,
            &polygraph_ml::ThreadPool::serial(),
        )
        .unwrap();

    // No verdict cache, so every replayed frame is assessed and therefore
    // double-scored.
    let server = start_risk_server_with(
        "127.0.0.1:0",
        Detector::new(serving),
        RiskServerConfig::default(),
    )
    .unwrap();
    server.attach_shadow(candidate);
    let mut client = RiskClient::connect(server.local_addr()).unwrap();
    for session in &window(REPLAY, 2).sessions {
        let sub = Submission {
            session_id: session.session_id,
            user_agent: session.claimed.to_ua_string(),
            values: session.values.clone(),
        };
        let v = client.assess_submission(&sub).unwrap();
        assert_eq!(v.status, VerdictStatus::Assessed);
    }
    let (compared, diverged) = server.shadow_counts().expect("shadow attached");
    assert_eq!(compared, REPLAY as u64);
    assert!(
        diverged as f64 <= ShadowConfig::default().max_divergence * compared as f64,
        "{diverged} of {compared} frames diverged"
    );
    drop(client);
    server.shutdown();
}

/// The control plane's books, over one scripted run that returns every
/// [`RetrainOutcome`] variant: each counter equals the number of
/// outcomes it is documented to count, and `active_model_version()`
/// names the version last served — after a direct retrain, a shadow
/// promotion, a fallback and a rollout stage alike. Five orchestrators,
/// differing only in the one config field each step needs, share one
/// server (a one-node fleet, so a rollout can reach it) and one
/// registry. Shadow windows are the serve path's own two counters,
/// ticked by hand.
#[test]
fn every_outcome_is_counted_once_and_the_version_names_what_serves() {
    let fleet = RiskFleet::start(
        &serving_model(),
        FleetConfig {
            nodes: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let server = fleet.node(0).unwrap();
    let registry = temp_registry("books");
    let gate = ShadowConfig {
        max_divergence: 0.05,
        required_checkpoints: 2,
        min_compared: 1,
    };
    let ungated = OrchestratorConfig {
        shadow: None,
        ..orch_config(gate, SwapPolicy::PublishAndSwap)
    };
    let orch = |config| Orchestrator::new(server, registry.clone(), config);
    let mut direct = orch(ungated);
    let mut strict = orch(OrchestratorConfig {
        min_accuracy: 1.1,
        ..ungated
    });
    let mut unfittable = orch(OrchestratorConfig {
        train: TrainConfig {
            k: 10_000,
            ..train_config()
        },
        ..ungated
    });
    let mut gated = orch(orch_config(gate, SwapPolicy::PublishAndSwap));
    let mut publish_only = orch(OrchestratorConfig {
        swap: SwapPolicy::PublishOnly,
        ..ungated
    });

    // Each window adds one release whose sessions land in the other era
    // than its predecessor's: drift against the model trained on the
    // window before it.
    let release = |v| ua(Vendor::Chrome, v);
    let with_release = |base: &TrainingSet, v: u32, at: f64| {
        let mut set = base.clone();
        for j in 0..80 {
            set.push(vec![at + (j % 3) as f64 * 0.1, at], release(v))
                .unwrap();
        }
        set
    };
    let stable = with_release(&serving_training(), 101, 10.0);
    let w1 = drift_window();
    let w2 = with_release(&w1, 102, 10.0);
    let w3 = with_release(&w2, 103, 0.3);
    let obs = server.registry();
    let shadow_traffic = |compared, diverged| {
        obs.counter(orch_metrics::SHADOW_COMPARED).add(compared);
        obs.counter(orch_metrics::SHADOW_DIVERGED).add(diverged);
    };

    let mut outcomes = Vec::new();
    let mut run = |o: Result<RetrainOutcome, _>| outcomes.push(o.unwrap());
    run(direct.checkpoint(&stable, &[release(101)])); // Stable
    run(strict.checkpoint(&w1, &[release(101)])); // RetrainRejected
    run(unfittable.checkpoint(&w1, &[release(101)])); // Fallback, nothing to serve
    assert_eq!(server.active_model_version(), 0);
    run(direct.checkpoint(&w1, &[release(101)])); // Retrained v1
    assert_eq!(server.active_model_version(), 1);
    run(gated.checkpoint(&w2, &[release(102)])); // ShadowStarted
    run(gated.checkpoint(&w2, &[])); // ShadowPending, quiet window
    shadow_traffic(100, 50);
    run(gated.checkpoint(&w2, &[])); // ShadowRejected
    run(gated.checkpoint(&w2, &[release(102)])); // ShadowStarted
    shadow_traffic(100, 0);
    run(gated.checkpoint(&w2, &[])); // ShadowPending, one clean window
    shadow_traffic(100, 5);
    run(gated.checkpoint(&w2, &[])); // ShadowPromoted v2
    assert_eq!(server.active_model_version(), 2);
    run(unfittable.checkpoint(&w3, &[release(103)])); // Fallback, re-serves v2
    assert_eq!(server.active_model_version(), 2);
    run(publish_only.checkpoint(&w3, &[release(103)])); // Retrained v3, unserved
    assert_eq!(server.active_model_version(), 2);

    let kinds: Vec<&str> = outcomes
        .iter()
        .map(|o| match o {
            RetrainOutcome::Stable { .. } => "Stable",
            RetrainOutcome::Retrained { .. } => "Retrained",
            RetrainOutcome::RetrainRejected { .. } => "RetrainRejected",
            RetrainOutcome::Fallback { .. } => "Fallback",
            RetrainOutcome::ShadowStarted { .. } => "ShadowStarted",
            RetrainOutcome::ShadowPending { .. } => "ShadowPending",
            RetrainOutcome::ShadowPromoted { .. } => "ShadowPromoted",
            RetrainOutcome::ShadowRejected { .. } => "ShadowRejected",
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "Stable",
            "RetrainRejected",
            "Fallback",
            "Retrained",
            "ShadowStarted",
            "ShadowPending",
            "ShadowRejected",
            "ShadowStarted",
            "ShadowPending",
            "ShadowPromoted",
            "Fallback",
            "Retrained",
        ]
    );
    let n = |kind: &str| kinds.iter().filter(|k| **k == kind).count() as u64;
    let counter = |name: &str| obs.counter(name).get();
    assert_eq!(counter(orch_metrics::CHECKPOINTS), kinds.len() as u64);
    assert_eq!(
        counter(orch_metrics::RETRAINS),
        n("Retrained") + n("ShadowPromoted")
    );
    assert_eq!(
        counter(orch_metrics::REGISTRY_PUBLISHES),
        counter(orch_metrics::RETRAINS)
    );
    assert_eq!(
        counter(orch_metrics::RETRAINS_REJECTED),
        n("RetrainRejected")
    );
    assert_eq!(counter(orch_metrics::FALLBACKS), n("Fallback"));
    assert_eq!(counter(orch_metrics::SHADOW_STARTED), n("ShadowStarted"));
    assert_eq!(counter(orch_metrics::SHADOW_REJECTED), n("ShadowRejected"));
    assert_eq!(counter(orch_metrics::SHADOW_PROMOTED), n("ShadowPromoted"));
    assert_eq!(
        obs.histogram(orch_metrics::RETRAIN_MICROS).count(),
        n("Retrained") + n("ShadowStarted")
    );
    // Served: the direct retrain, the promotion and the second fallback
    // — not the empty-registry fallback, not `PublishOnly`.
    assert_eq!(server.stats().swaps, 3);
    assert_eq!(registry.versions().unwrap(), vec![1, 2, 3]);

    // The published-only v3 reaches the server through a rollout stage,
    // the one remaining way a model gets to serve.
    let mut rollout = RolloutController::new(&registry, Vec::new(), 0.0).unwrap();
    assert!(matches!(
        rollout.advance(&fleet),
        RolloutStep::Promoted { .. }
    ));
    assert_eq!(server.stats().swaps, 4);
    assert_eq!(server.active_model_version(), 3);
    fleet.shutdown();
}

/// Fleet leg: a candidate shadows node 0 under `PublishOnly`, a node is
/// killed mid-shadow (seeded storm keeps flowing over the failover
/// ring, and a successor orchestrator adopts the in-flight candidate —
/// the restart-recovery path), promotion publishes a version that *no*
/// node serves yet, and only the staged rollout gate distributes it to
/// the survivors.
#[test]
fn promoted_candidate_rolls_out_through_the_fleet_gate() {
    const NODES: usize = 3;
    const VICTIM: usize = 2;
    let registry_dir =
        std::env::temp_dir().join(format!("polygraph-shadow-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry_dir);
    let mut fleet = RiskFleet::start(
        &serving_model(),
        FleetConfig {
            nodes: NODES,
            ..Default::default()
        },
    )
    .unwrap();
    let client_config = RiskClientConfig {
        request_timeout: Duration::from_millis(500),
        max_retries: 0, // fail over along the ring instead of retrying in place
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        retry_seed: CHAOS_SEED,
    };
    let shadow_gate = ShadowConfig {
        max_divergence: 0.2,
        required_checkpoints: 2,
        min_compared: 1,
    };

    // Phase 1: drift on node 0 attaches the candidate; storm part one.
    let candidate = {
        let node0 = fleet.node(0).unwrap();
        let mut orch = Orchestrator::new(
            node0,
            ModelRegistry::open(&registry_dir).unwrap(),
            orch_config(shadow_gate, SwapPolicy::PublishOnly),
        );
        let outcome = orch
            .checkpoint(&drift_window(), &[ua(Vendor::Chrome, 101)])
            .unwrap();
        assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));
        assert!(node0.shadow_attached());
        let mut client = FleetClient::connect(&fleet, client_config.clone());
        for j in 0..30u64 {
            let v = client.assess_submission(&honest_submission(j)).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed, "frame {j}");
            assert!(!v.flagged, "frame {j}");
        }
        orch.shadow_candidate().expect("in flight").clone()
    };

    // Mid-shadow chaos: kill a node. The candidate is still attached on
    // node 0; a successor orchestrator adopts it and the gate restarts.
    assert!(fleet.kill_node(VICTIM));
    assert!(fleet.node(0).unwrap().shadow_attached());

    let node0 = fleet.node(0).unwrap();
    let mut orch = Orchestrator::new(
        node0,
        ModelRegistry::open(&registry_dir).unwrap(),
        orch_config(shadow_gate, SwapPolicy::PublishOnly),
    );
    orch.adopt_shadow(candidate);

    // Phase 2: the seeded storm keeps flowing across the dead node's
    // failover ring while the candidate earns its clean checkpoints.
    let mut client = FleetClient::connect(&fleet, client_config);
    let mut storm = |js: std::ops::Range<u64>| {
        for j in js {
            let v = client
                .assess_submission(&honest_submission(j))
                .unwrap_or_else(|e| panic!("frame {j} failed fleet-wide: {e}"));
            assert_eq!(
                v.status,
                VerdictStatus::Assessed,
                "garbage verdict at frame {j} (seed {CHAOS_SEED:#x})"
            );
            assert!(!v.flagged, "wrong flag at frame {j}");
        }
    };
    storm(100..160);
    let outcome = orch.checkpoint(&drift_window(), &[]).unwrap();
    assert!(
        matches!(
            outcome,
            RetrainOutcome::ShadowPending {
                clean_checkpoints: 1,
                ..
            }
        ),
        "got {outcome:?}"
    );
    storm(200..260);
    let outcome = orch.checkpoint(&drift_window(), &[]).unwrap();
    let version = match outcome {
        RetrainOutcome::ShadowPromoted {
            version,
            checkpoints,
        } => {
            assert_eq!(checkpoints, 2);
            version
        }
        other => panic!("expected promotion, got {other:?}"),
    };
    assert_eq!(orch.registry().versions().unwrap(), vec![version]);

    // Promoted under `PublishOnly`: the version exists, but *no* live
    // node serves it until the rollout gate says so.
    for node in [0usize, 1] {
        assert_eq!(fleet.node(node).unwrap().active_model_version(), 0);
        let mut probe_client = RiskClient::connect(fleet.addr(node).unwrap()).unwrap();
        let v = probe_client
            .assess_submission(&probe_submission(500))
            .unwrap();
        assert!(v.flagged, "node {node} serves the candidate pre-rollout");
    }

    // The fleet gate distributes it: the divergence sample is a session
    // both models agree on, so a zero budget still promotes.
    let sample = vec![(vec![0.0, 0.0], ua(Vendor::Chrome, 60))];
    let mut rollout =
        RolloutController::new(&ModelRegistry::open(&registry_dir).unwrap(), sample, 0.0).unwrap();
    loop {
        match rollout.advance(&fleet) {
            RolloutStep::Complete => break,
            RolloutStep::Promoted { .. } => {}
            RolloutStep::Blocked { .. } => panic!("agreeing sample blocked the rollout"),
        }
    }
    for node in [0usize, 1] {
        assert_eq!(
            fleet.node(node).unwrap().active_model_version(),
            version,
            "live node {node} missed the rollout"
        );
        let mut probe_client = RiskClient::connect(fleet.addr(node).unwrap()).unwrap();
        let v = probe_client
            .assess_submission(&probe_submission(600))
            .unwrap();
        assert!(!v.flagged, "node {node} still on v1 after the rollout");
    }
    drop(client);
    fleet.shutdown();
}
