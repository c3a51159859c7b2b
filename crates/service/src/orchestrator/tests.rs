use super::*;
use crate::server::start_risk_server;
use browser_engine::Vendor;
use fingerprint::FeatureSet;
use polygraph_core::{refit_metric_names, Detector, TrainConfig};

fn ua(vendor: Vendor, v: u32) -> UserAgent {
    UserAgent::new(vendor, v)
}

/// Era A at (0,0) for Chrome 100, era B at (10,10) for Chrome 110.
fn training(base_a: f64) -> TrainingSet {
    let mut set = TrainingSet::new(2);
    for (base, u) in [
        (base_a, ua(Vendor::Chrome, 100)),
        (10.0, ua(Vendor::Chrome, 110)),
    ] {
        for j in 0..60 {
            set.push(vec![base + (j % 3) as f64 * 0.05, base], u)
                .unwrap();
        }
    }
    set
}

/// The training eras plus Chrome 111 shipping with a shape back near
/// era A: its sessions land in Chrome 100's cluster instead of its
/// predecessor's — drift.
fn drifting_window() -> TrainingSet {
    let mut fresh = training(0.0);
    for j in 0..80 {
        fresh
            .push(
                vec![-0.5 + (j % 3) as f64 * 0.05, -0.5],
                ua(Vendor::Chrome, 111),
            )
            .unwrap();
    }
    fresh
}

fn config() -> OrchestratorConfig {
    OrchestratorConfig {
        train: TrainConfig {
            k: 2,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        },
        min_accuracy: 0.95,
        keep_versions: 2,
        swap: SwapPolicy::PublishAndSwap,
        refit_epochs: 4,
        shadow: None,
    }
}

fn temp_registry(tag: &str) -> ModelRegistry {
    let dir =
        std::env::temp_dir().join(format!("polygraph-orch-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelRegistry::open(&dir).unwrap()
}

fn serving_model() -> TrainedModel {
    let fs = FeatureSet::table8().subset(&[0, 1]);
    TrainedModel::fit(fs, &training(0.0), config().train).unwrap()
}

#[test]
fn stable_checkpoint_keeps_the_model() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut orch = Orchestrator::new(&server, temp_registry("stable"), config());
    // Chrome 111 ships with era-B features: stable.
    let mut fresh = training(0.0);
    for _ in 0..60 {
        fresh
            .push(vec![10.0, 10.0], ua(Vendor::Chrome, 111))
            .unwrap();
    }
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(outcome, RetrainOutcome::Stable { .. }));
    assert_eq!(server.stats().swaps, 0);
    assert_eq!(orch.registry().versions().unwrap(), Vec::<u64>::new());
    server.shutdown();
}

/// A checkpoint measures against the detector it took from the server,
/// and holding that detector holds no lock: with it held, a publish
/// returns, the version and the cache epoch advance, and the held
/// detector still answers with the model it was taken from.
#[test]
fn a_held_serving_detector_does_not_hold_back_a_publish() {
    use crate::server::{start_risk_server_with, RiskServerConfig};

    let cached = RiskServerConfig {
        cache_capacity: 64,
        ..RiskServerConfig::default()
    };
    let server =
        start_risk_server_with("127.0.0.1:0", Detector::new(serving_model()), cached).unwrap();
    let held = server.serving_detector();
    assert_eq!(
        (server.active_model_version(), server.cache_epoch()),
        (0, Some(0))
    );

    // The republished model puts Chrome 100's era at (20,20), so (0,0)
    // falls in Chrome 110's cluster.
    let fs = FeatureSet::table8().subset(&[0, 1]);
    let moved = TrainedModel::fit(fs, &training(20.0), config().train).unwrap();
    server.publish_model_versioned(moved, 1);

    assert_eq!(
        (server.active_model_version(), server.cache_epoch()),
        (1, Some(1))
    );
    let chrome_100_at_origin = |detector: &Detector| {
        detector
            .assess(&[0.0, 0.0], ua(Vendor::Chrome, 100))
            .unwrap()
            .flagged
    };
    assert!(
        !chrome_100_at_origin(&held),
        "the held detector answers with the model it was taken from"
    );
    assert!(
        chrome_100_at_origin(&server.serving_detector()),
        "the server answers with the published one"
    );
    server.shutdown();
}

/// Under `SwapPolicy::PublishOnly` a drift-triggered retrain still
/// validates and publishes, but the serving detector is left to the
/// fleet rollout: zero swaps, version in the registry.
#[test]
fn publish_only_checkpoint_publishes_without_swapping() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let registry = temp_registry("publish-only");
    let mut orch = Orchestrator::new(
        &server,
        registry,
        OrchestratorConfig {
            swap: SwapPolicy::PublishOnly,
            ..config()
        },
    );
    let fresh = drifting_window();
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(
        outcome,
        RetrainOutcome::Retrained { version: 1, .. }
    ));
    assert_eq!(
        server.stats().swaps,
        0,
        "publish-only must not touch the serving detector"
    );
    assert_eq!(orch.registry().versions().unwrap(), vec![1]);
    server.shutdown();
}

#[test]
fn drift_triggers_retrain_publish_and_swap() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let registry = temp_registry("retrain");
    let mut orch = Orchestrator::new(&server, registry, config());
    let fresh = drifting_window();
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    match outcome {
        RetrainOutcome::Retrained {
            triggers,
            version,
            accuracy,
        } => {
            assert_eq!(triggers, vec![ua(Vendor::Chrome, 111)]);
            assert_eq!(version, 1);
            assert!(accuracy > 0.95);
        }
        other => panic!("expected retrain, got {other:?}"),
    }
    assert_eq!(server.stats().swaps, 1);
    assert_eq!(
        server.active_model_version(),
        1,
        "a direct retrain swaps versioned, like a shadow promotion"
    );
    // The published model is loadable and knows the new release.
    let restored = orch.registry().load_latest().unwrap().expect("published");
    assert!(restored
        .cluster_table()
        .cluster_of(ua(Vendor::Chrome, 111))
        .is_some());
    // And the serving detector now accepts the new shape.
    let verdict = server
        .serving_detector()
        .assess(&[-0.5, -0.5], ua(Vendor::Chrome, 111))
        .unwrap();
    assert!(!verdict.flagged, "after the swap the new shape is known");
    server.shutdown();
}

#[test]
fn failed_validation_keeps_the_old_model() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut cfg = config();
    cfg.min_accuracy = 1.1; // impossible bar
    let mut orch = Orchestrator::new(&server, temp_registry("reject"), cfg);
    let fresh = drifting_window();
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(outcome, RetrainOutcome::RetrainRejected { .. }));
    assert_eq!(server.stats().swaps, 0);
    assert!(orch.registry().versions().unwrap().is_empty());
    server.shutdown();
}

/// Drift plus an unusable retrain window: `k` far exceeds the rows in
/// the fresh set, so `fit_observed` errors after drift has already
/// fired — the corrupt-collection-run scenario.
fn drifting_but_unfittable() -> (TrainingSet, OrchestratorConfig) {
    let fresh = drifting_window();
    let mut cfg = config();
    cfg.train.k = 10_000;
    (fresh, cfg)
}

#[test]
fn corrupt_window_falls_back_to_last_good_registry_model() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let registry = temp_registry("fallback");
    // Seed the registry with a known-good published model.
    let last_good = serving_model();
    registry.publish(&last_good).unwrap();
    let (fresh, cfg) = drifting_but_unfittable();
    let mut orch = Orchestrator::new(&server, registry, cfg);
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    match outcome {
        RetrainOutcome::Fallback {
            triggers,
            version,
            error,
        } => {
            assert_eq!(triggers, vec![ua(Vendor::Chrome, 111)]);
            assert_eq!(version, Some(1));
            assert!(error.contains("cannot support k="), "got: {error}");
        }
        other => panic!("expected fallback, got {other:?}"),
    }
    assert_eq!(server.stats().swaps, 1, "last-good model was re-asserted");
    assert_eq!(server.active_model_version(), 1);
    // The serving detector is the registry model, not a half-trained
    // candidate: known shapes still assess cleanly.
    let verdict = server
        .serving_detector()
        .assess(&[0.0, 0.0], ua(Vendor::Chrome, 100))
        .unwrap();
    assert!(!verdict.flagged);
    server.shutdown();
}

#[test]
fn fallback_with_empty_registry_keeps_serving_in_memory_model() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let (fresh, cfg) = drifting_but_unfittable();
    let mut orch = Orchestrator::new(&server, temp_registry("fallback-empty"), cfg);
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    match outcome {
        RetrainOutcome::Fallback { version, .. } => assert_eq!(version, None),
        other => panic!("expected fallback, got {other:?}"),
    }
    assert_eq!(server.stats().swaps, 0, "nothing to fall back to: no swap");
    server.shutdown();
}

/// `min_compared: 0` lets these unit tests drive the gate without
/// live traffic: an empty window counts as clean.
fn shadow_config() -> OrchestratorConfig {
    OrchestratorConfig {
        shadow: Some(ShadowConfig {
            max_divergence: 0.05,
            required_checkpoints: 2,
            min_compared: 0,
        }),
        ..config()
    }
}

#[test]
fn shadow_gate_attaches_then_promotes_after_clean_checkpoints() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut orch = Orchestrator::new(&server, temp_registry("shadow-promote"), shadow_config());
    let fresh = drifting_window();

    // Drift: the candidate attaches as a shadow instead of publishing.
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));
    assert!(server.shadow_attached());
    assert!(orch.shadow_in_flight());
    assert_eq!(
        orch.registry().versions().unwrap(),
        Vec::<u64>::new(),
        "a shadowing candidate must not be in the registry"
    );
    assert_eq!(server.stats().swaps, 0);
    assert_eq!(server.active_model_version(), 0);

    // First clean checkpoint: still pending.
    let outcome = orch.checkpoint(&fresh, &[]).unwrap();
    assert!(matches!(
        outcome,
        RetrainOutcome::ShadowPending {
            clean_checkpoints: 1,
            ..
        }
    ));
    assert!(server.shadow_attached());

    // Second clean checkpoint: promoted — versioned publish + swap.
    let outcome = orch.checkpoint(&fresh, &[]).unwrap();
    match outcome {
        RetrainOutcome::ShadowPromoted {
            version,
            checkpoints,
        } => {
            assert_eq!(version, 1);
            assert_eq!(checkpoints, 2);
        }
        other => panic!("expected promotion, got {other:?}"),
    }
    assert!(!server.shadow_attached());
    assert!(!orch.shadow_in_flight());
    assert_eq!(orch.registry().versions().unwrap(), vec![1]);
    assert_eq!(server.stats().swaps, 1);
    assert_eq!(server.active_model_version(), 1);
    server.shutdown();
}

#[test]
fn diverging_shadow_is_rejected_without_publishing() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut cfg = shadow_config();
    cfg.shadow = Some(ShadowConfig {
        max_divergence: 0.05,
        required_checkpoints: 1,
        min_compared: 1,
    });
    let mut orch = Orchestrator::new(&server, temp_registry("shadow-reject"), cfg);
    let fresh = drifting_window();
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

    // Simulate a divergent traffic window by ticking the same
    // counters the serve path's shadow comparison ticks.
    let obs = server.registry();
    obs.counter(metric_names::SHADOW_COMPARED).add(100);
    obs.counter(metric_names::SHADOW_DIVERGED).add(50);

    let outcome = orch.checkpoint(&fresh, &[]).unwrap();
    match outcome {
        RetrainOutcome::ShadowRejected { compared, diverged } => {
            assert_eq!(compared, 100);
            assert_eq!(diverged, 50);
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert!(!server.shadow_attached(), "rejected candidate detached");
    assert!(!orch.shadow_in_flight());
    assert_eq!(
        orch.registry().versions().unwrap(),
        Vec::<u64>::new(),
        "a rejected candidate must never be published"
    );
    assert_eq!(server.stats().swaps, 0);
    assert_eq!(obs.counter(metric_names::SHADOW_REJECTED).get(), 1);
    server.shutdown();
}

#[test]
fn quiet_windows_keep_the_shadow_waiting() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut cfg = shadow_config();
    cfg.shadow = Some(ShadowConfig {
        min_compared: 5,
        ..ShadowConfig::default()
    });
    let mut orch = Orchestrator::new(&server, temp_registry("shadow-quiet"), cfg);
    let fresh = drifting_window();
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

    // No traffic at all: the gate neither advances nor rejects.
    for _ in 0..3 {
        let outcome = orch.checkpoint(&fresh, &[]).unwrap();
        assert!(matches!(
            outcome,
            RetrainOutcome::ShadowPending {
                compared: 0,
                clean_checkpoints: 0,
                ..
            }
        ));
        assert!(server.shadow_attached());
    }
    server.shutdown();
}

/// Promotion publishes before it takes the candidate: a registry
/// that cannot be written at the promoting checkpoint costs that
/// checkpoint, not the candidate that passed its whole gate.
#[test]
fn failed_publish_at_promotion_keeps_the_candidate_in_flight() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut cfg = shadow_config();
    cfg.shadow = cfg.shadow.map(|gate| ShadowConfig {
        required_checkpoints: 1,
        ..gate
    });
    let registry = temp_registry("promote-unwritable");
    let dir = registry.dir().to_path_buf();
    let mut orch = Orchestrator::new(&server, registry, cfg);
    let fresh = drifting_window();
    let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
    assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

    // The registry directory is replaced by a regular file: the
    // promoting checkpoint cannot publish.
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();
    let err = orch.checkpoint(&fresh, &[]).unwrap_err();
    assert!(matches!(err, OrchestratorError::Registry(_)), "got {err}");
    assert!(orch.shadow_in_flight());
    assert!(server.shadow_attached());
    assert!(orch.registry().versions().is_err());
    assert_eq!(server.stats().swaps, 0);
    assert_eq!(server.active_model_version(), 0);

    // Directory restored: the next clean checkpoint promotes it.
    std::fs::remove_file(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    let outcome = orch.checkpoint(&fresh, &[]).unwrap();
    assert!(
        matches!(outcome, RetrainOutcome::ShadowPromoted { version: 1, .. }),
        "got {outcome:?}"
    );
    assert!(!orch.shadow_in_flight());
    assert!(!server.shadow_attached());
    assert_eq!(orch.registry().versions().unwrap(), vec![1]);
    assert_eq!(server.active_model_version(), 1);
    server.shutdown();
}

/// Pruning is the last third of the promote step: when it fails, the
/// version just published already serves and the retrain is charged.
#[test]
fn failed_prune_is_reported_after_the_published_model_serves() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let registry = temp_registry("prune-fails");
    // A directory where version 1's file would be: listed as a
    // version, publishable past, but not removable as a file.
    std::fs::create_dir(registry.dir().join("model-v1.json")).unwrap();
    let mut orch = Orchestrator::new(
        &server,
        registry,
        OrchestratorConfig {
            keep_versions: 1,
            ..config()
        },
    );
    let err = orch
        .checkpoint(&drifting_window(), &[ua(Vendor::Chrome, 111)])
        .unwrap_err();
    assert!(matches!(err, OrchestratorError::Registry(_)), "got {err}");
    assert_eq!(server.stats().swaps, 1);
    assert_eq!(server.active_model_version(), 2);
    let obs = server.registry();
    assert_eq!(obs.counter(metric_names::REGISTRY_PUBLISHES).get(), 1);
    assert_eq!(obs.counter(metric_names::RETRAINS).get(), 1);
    server.shutdown();
}

/// Whether a checkpoint judges a shadow depends on one being in
/// flight, not on the orchestrator having been built with a gate: an
/// adopted candidate on `shadow: None` is judged under
/// `ShadowConfig::default()` (two clean checkpoints, at least one
/// comparison each), and a quiet window leaves its streak alone.
#[test]
fn adopted_candidate_is_judged_without_a_configured_gate() {
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
    let mut orch = Orchestrator::new(&server, temp_registry("adopt-ungated"), config());
    let fresh = drifting_window();
    orch.adopt_shadow(serving_model());
    assert!(server.shadow_attached());

    let obs = server.registry();
    let releases = [ua(Vendor::Chrome, 111)];
    let mut pending = |compared: u64, want_clean: usize| {
        obs.counter(metric_names::SHADOW_COMPARED).add(compared);
        let outcome = orch.checkpoint(&fresh, &releases).unwrap();
        match outcome {
            RetrainOutcome::ShadowPending {
                compared: seen,
                clean_checkpoints,
                ..
            } => assert_eq!((seen, clean_checkpoints), (compared, want_clean)),
            other => panic!("expected a pending shadow, got {other:?}"),
        }
        assert!(server.shadow_attached());
    };
    pending(0, 0);
    pending(100, 1);
    pending(0, 1);
    obs.counter(metric_names::SHADOW_COMPARED).add(100);
    let outcome = orch.checkpoint(&fresh, &releases).unwrap();
    assert!(
        matches!(
            outcome,
            RetrainOutcome::ShadowPromoted {
                version: 1,
                checkpoints: 2
            }
        ),
        "got {outcome:?}"
    );
    assert!(!server.shadow_attached());
    assert!(!orch.shadow_in_flight());
    assert_eq!(server.stats().swaps, 1);
    assert_eq!(server.active_model_version(), 1);
    server.shutdown();
}

#[test]
fn streaming_checkpoint_retrains_from_the_reservoir() {
    let serving = serving_model();
    let server = start_risk_server("127.0.0.1:0", Detector::new(serving.clone())).unwrap();
    let mut orch = Orchestrator::new(&server, temp_registry("stream"), config());
    let mut stream = DriftStream::new(512, 2, 7).unwrap();

    // Stable era: the training window plus Chrome 111 shipping with
    // era-B features — it lands in its predecessor's cluster.
    let stable = training(0.0);
    for (row, u) in stable.rows().iter().zip(stable.user_agents()) {
        stream.ingest(&serving, row, *u).unwrap();
    }
    for _ in 0..60 {
        stream
            .ingest(&serving, &[10.0, 10.0], ua(Vendor::Chrome, 111))
            .unwrap();
    }
    let outcome = orch
        .checkpoint_stream(&mut stream, &[ua(Vendor::Chrome, 111)])
        .unwrap();
    assert!(matches!(outcome, RetrainOutcome::Stable { .. }));
    assert_eq!(
        stream.window().materializations(),
        0,
        "a stable checkpoint must not copy the reservoir"
    );

    // Chrome 112 arrives with a drifted shape, back near era A.
    for j in 0..80 {
        stream
            .ingest(
                &serving,
                &[-0.5 + (j % 3) as f64 * 0.05, -0.5],
                ua(Vendor::Chrome, 112),
            )
            .unwrap();
    }
    let outcome = orch
        .checkpoint_stream(&mut stream, &[ua(Vendor::Chrome, 112)])
        .unwrap();
    assert!(
        matches!(outcome, RetrainOutcome::Retrained { version: 1, .. }),
        "got {outcome:?}"
    );
    assert_eq!(server.stats().swaps, 1);
    assert_eq!(
        stream.window().materializations(),
        1,
        "exactly one reservoir copy, for the retrain itself"
    );
    assert_eq!(stream.ingested(), 0, "drift counters reset after the swap");
    // The refit's stages ride the server's registry, one sample each.
    let obs = server.registry();
    for stage in [
        refit_metric_names::GROUP_MICROS,
        refit_metric_names::EPOCHS_MICROS,
        refit_metric_names::TABLE_MICROS,
        refit_metric_names::TOTAL_MICROS,
    ] {
        assert_eq!(obs.histogram(stage).count(), 1, "{stage}");
    }
    server.shutdown();
}
