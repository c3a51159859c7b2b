//! `retrain_cycle`: the control plane at paper scale. Identical cycles
//! against a live production-profile server — ingest the drift window,
//! checkpoint, materialise the reservoir, streaming refit (always from
//! the boot model, so every cycle does identical work), registry
//! publish + prune, versioned swap, and a 256-frame wire probe that the
//! new version must answer.

use crate::alloc::thread_allocs;
use crate::load::{connect, Tally};
use crate::spec::{median, range, undisturbed, Metrics};
use crate::trace::{timer_pair_ns, Tracer, NO_PARENT};
use crate::world::{payload, Mix, World};
use crate::{common_layer_metrics, serve, Report};
use browser_engine::UserAgent;
use parking_lot::RwLock;
use polygraph_core::drift::ACCURACY_THRESHOLD;
use polygraph_core::{Detector, DriftStream, TrainedModel, TrainingSet};
use polygraph_ml::{Matrix, MiniBatchConfig, MiniBatchKMeans, ThreadPool};
use polygraph_obs::Registry;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::server::assess_frame;
use polygraph_service::{
    ModelRegistry, Orchestrator, OrchestratorConfig, RiskServerHandle, SwapPolicy,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const REFIT_EPOCHS: usize = 4;
const KEEP_VERSIONS: usize = 3;
const PROBE_FRAMES: usize = 256;

pub struct Rig {
    server: RiskServerHandle,
    drift: TrainingSet,
    /// Every release seen in the drift window; all have observations, so
    /// a checkpoint over them cannot fail.
    releases: Vec<UserAgent>,
    registry_dir: PathBuf,
    registry: ModelRegistry,
    /// Frame ids of the probe: the head of the half-and-half sequence.
    probe: Vec<usize>,
}

/// What must be identical across cycles for the candidates to count as
/// byte-identical: centroids, cluster table and accuracy, bit for bit.
#[derive(PartialEq)]
struct CandidatePrint {
    centroids: Matrix,
    table: Vec<(UserAgent, usize)>,
    accuracy_bits: u64,
}

impl CandidatePrint {
    fn of(model: &TrainedModel) -> Self {
        Self {
            centroids: model.kmeans().centroids().clone(),
            table: model.cluster_table().entries().to_vec(),
            accuracy_bits: model.train_accuracy().to_bits(),
        }
    }
}

/// State carried from the first cycle to the later ones.
#[derive(Default)]
struct Reference {
    print: Option<CandidatePrint>,
    /// The candidate's own staged verdicts for the probe frames.
    probe_oracle: Vec<[u8; VERDICT_LEN]>,
}

/// Stage timings of one cycle, seconds.
#[derive(Default)]
struct Cycle {
    total: f64,
    swap_call: f64,
    swap_to_verdict: f64,
    ingest_allocs: u64,
    accuracy: f64,
    ok: bool,
}

impl Rig {
    pub fn prepare(world: &World, out_dir: &Path) -> Self {
        let drift = world.drift_window();
        let releases: Vec<UserAgent> = drift
            .user_agents()
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let registry_dir = out_dir.join(format!("registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&registry_dir);
        let registry = ModelRegistry::open(&registry_dir).expect("open the bench registry");
        let probe = world
            .sequence(Mix::Half, PROBE_FRAMES)
            .into_iter()
            .map(|id| id as usize)
            .collect();
        Self {
            server: serve::start_server(&world.model, serve::production_profile()),
            drift,
            releases,
            registry_dir,
            registry,
            probe,
        }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.registry_dir);
    }

    /// One cycle, ingest to the last probe verdict. Work the harness
    /// does only to check the cycle (the candidate's print, its probe
    /// oracle) is left out of the timings.
    fn cycle(
        &self,
        world: &World,
        index: u32,
        reference: &mut Reference,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Cycle {
        let mut out = Cycle::default();
        let root = tracer.open("retrain.cycle", NO_PARENT, index);
        let cycle_started = Instant::now();

        let span = tracer.open("core.drift_stream.ingest", root, index);
        let allocs_before = thread_allocs();
        let mut stream = DriftStream::new(self.drift.len(), self.drift.width(), world.seed)
            .expect("reservoir of the window's size");
        for (row, &claimed) in self.drift.rows().iter().zip(self.drift.user_agents()) {
            stream
                .ingest(&world.model, row, claimed)
                .expect("drift row ingests");
        }
        out.ingest_allocs = thread_allocs() - allocs_before;
        tracer.close(span);

        let span = tracer.open("core.drift_stream.checkpoint", root, index);
        let decision = stream
            .checkpoint(&world.model, &self.releases)
            .expect("every release has observations");
        std::hint::black_box(decision);
        tracer.close(span);

        let span = tracer.open("core.sampling.materialize", root, index);
        let window = stream.training_window().expect("reservoir materialises");
        tracer.close(span);

        let span = tracer.open("core.train.refit_streaming", root, index);
        let candidate = world
            .model
            .refit_streaming(&window, REFIT_EPOCHS, &ThreadPool::serial())
            .expect("streaming refit on the window");
        tracer.close(span);
        let mut timed = cycle_started.elapsed();

        // Untimed: what the checks below compare against.
        let print = CandidatePrint::of(&candidate);
        out.accuracy = candidate.train_accuracy();
        if reference.print.is_none() {
            let slot = RwLock::new(Detector::new(candidate.clone()));
            let scratch = Registry::monotonic();
            reference.probe_oracle = self
                .probe
                .iter()
                .map(|&id| assess_frame(payload(&world.frames[id]), &slot, &scratch).encode())
                .collect();
        }
        let same_candidate = match &reference.print {
            Some(first) => *first == print,
            None => {
                reference.print = Some(print);
                true
            }
        };

        let resumed = Instant::now();
        let span = tracer.open("service.registry.publish", root, index);
        let version = self.registry.publish(&candidate).expect("registry publish");
        tracer.close(span);
        let span = tracer.open("service.registry.prune", root, index);
        self.registry.prune(KEEP_VERSIONS).expect("registry prune");
        tracer.close(span);

        let span = tracer.open("service.server.swap_call", root, index);
        let swap_started = Instant::now();
        self.server.publish_model_versioned(candidate, version);
        out.swap_call = swap_started.elapsed().as_secs_f64();
        tracer.close(span);

        // The probe: every frame on the wire at once — one batch of 32
        // and a backlog of 224, under `shed_limit` — with the first
        // verdict timed from the swap.
        let span = tracer.open("service.server.probe", root, index);
        let mut stream = connect(self.server.local_addr());
        let mut wire = Vec::new();
        for &id in &self.probe {
            wire.extend_from_slice(&world.frames[id]);
        }
        let mut replies = vec![0u8; PROBE_FRAMES * VERDICT_LEN];
        let answered = stream.write_all(&wire).is_ok()
            && stream.read_exact(&mut replies[..VERDICT_LEN]).is_ok();
        out.swap_to_verdict = swap_started.elapsed().as_secs_f64();
        let answered = answered && stream.read_exact(&mut replies[VERDICT_LEN..]).is_ok();
        tracer.close(span);
        timed += resumed.elapsed();
        tracer.close(root);
        out.total = timed.as_secs_f64();

        tally.sent += PROBE_FRAMES as u64;
        if answered {
            for (reply, expected) in replies
                .chunks_exact(VERDICT_LEN)
                .zip(&reference.probe_oracle)
            {
                tally.check(reply, expected);
            }
        } else {
            tally.missing += PROBE_FRAMES as u64;
        }
        out.ok = answered
            && out.accuracy >= ACCURACY_THRESHOLD
            && same_candidate
            && self.server.active_model_version() == version;
        out
    }

    /// Cycles until `seconds` have elapsed (at least five). With an
    /// enabled tracer, alternate cycles are traced.
    fn run_cycles(
        &self,
        world: &World,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> (Vec<Cycle>, Vec<Cycle>, Tally) {
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut reference = Reference::default();
        let mut tally = Tally::default();
        let mut off = Tracer::new(false, 0);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut index = 0;
        while index < 5 || started.elapsed() < budget {
            let with_spans = tracer.is_enabled() && index % 2 == 1;
            let cycle = self.cycle(
                world,
                index,
                &mut reference,
                &mut tally,
                if with_spans { &mut *tracer } else { &mut off },
            );
            if with_spans { &mut traced } else { &mut plain }.push(cycle);
            index += 1;
        }
        (plain, traced, tally)
    }

    fn report(&self, metrics: Metrics, cycles: &[&Cycle], tally: Tally) -> Report {
        // A failed cycle fails the run: it is charged as a whole probe.
        let failed_cycles = cycles.iter().filter(|c| !c.ok).count();
        if failed_cycles > 0 {
            eprintln!(
                "{failed_cycles} of {} cycles failed their checks",
                cycles.len()
            );
        }
        let stats = self.server.stats();
        Report {
            metrics,
            gated_ok: failed_cycles == 0 && tally.failed_share() <= crate::FAILED_SHARE_LIMIT,
            books_ok: serve::books_balance(&stats, tally.sent),
            tally,
        }
    }

    pub fn measure(&self, world: &World, seconds: f64) -> Report {
        let (plain, _, tally) = self.run_cycles(world, seconds, &mut Tracer::new(false, 0));
        let sessions = self.drift.len() as f64;
        let per_s: Vec<f64> = plain.iter().map(|c| sessions / c.total).collect();
        let rate = undisturbed(&per_s);
        let mut metrics = Metrics::default();
        metrics.set("throughput_per_s", rate);
        eprintln!(
            "retrain: {} cycles, undisturbed {rate:.0} sessions/s ({:.1} ms per cycle; median {:.1} ms, slowest {:.1} ms)",
            per_s.len(),
            sessions / rate * 1e3,
            sessions / median(&per_s) * 1e3,
            sessions / range(&per_s).0 * 1e3
        );
        self.report(metrics, &plain.iter().collect::<Vec<_>>(), tally)
    }

    pub fn trace(&self, world: &World, seconds: f64, out_dir: &Path, name: &str) -> Report {
        let mut metrics = Metrics::default();
        let timer_ns = timer_pair_ns();
        common_layer_metrics(world, &self.server.registry(), timer_ns, &mut metrics);

        let mut tracer = Tracer::new(true, 4096);
        let (plain, traced, tally) = self.run_cycles(world, seconds * 0.6, &mut tracer);
        let totals = tracer.totals(timer_ns);
        let cycles = traced.len().max(1) as f64;
        let sessions = self.drift.len() as f64;
        let stage_ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e6 / cycles)
        };
        metrics.set(
            "core.drift_stream.ingest_ns",
            stage_ms("core.drift_stream.ingest") * 1e6 / sessions,
        );
        metrics.set(
            "core.drift_stream.ingest_allocs",
            traced
                .first()
                .map_or(0.0, |c| c.ingest_allocs as f64 / sessions),
        );
        metrics.set(
            "core.drift_stream.checkpoint_ms",
            stage_ms("core.drift_stream.checkpoint"),
        );
        metrics.set(
            "core.sampling.materialize_ms",
            stage_ms("core.sampling.materialize"),
        );
        let refit_ms = stage_ms("core.train.refit_streaming");
        metrics.set("core.train.refit_streaming_ms", refit_ms);
        metrics.set(
            "service.registry.publish_ms",
            stage_ms("service.registry.publish"),
        );
        metrics.set(
            "service.registry.prune_ms",
            stage_ms("service.registry.prune"),
        );
        let swap_us: Vec<f64> = traced.iter().map(|c| c.swap_call * 1e6).collect();
        let verdict_us: Vec<f64> = traced.iter().map(|c| c.swap_to_verdict * 1e6).collect();
        metrics.set("service.server.swap_call_us", median(&swap_us));
        metrics.set("service.server.swap_to_verdict_us", median(&verdict_us));
        metrics.set("service.server.swaps", (plain.len() + traced.len()) as f64);
        let plain_s: Vec<f64> = plain.iter().map(|c| c.total).collect();
        let traced_s: Vec<f64> = traced.iter().map(|c| c.total).collect();
        metrics.set("bench.retrain_cycle_ms", median(&plain_s) * 1e3);
        metrics.set(
            "bench.trace_overhead_share",
            median(&traced_s) / median(&plain_s) - 1.0,
        );

        // The refit's own stages, re-run through the ml crate's public
        // functions on the same window; what is left of the refit is
        // the cluster-table rebuild.
        let serial = ThreadPool::serial();
        let reps = 3;
        let (mut scaler_ms, mut pca_ms, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..reps {
            let root = tracer.open("side.refit_stages", NO_PARENT, rep);
            let raw = self.drift.to_matrix().expect("window is rectangular");
            let span = tracer.open("ml.scaler.transform", root, rep);
            let scaled = world.model.scaler().transform(&raw).expect("scaler width");
            tracer.close(span);
            scaler_ms.push(tracer.duration_ns(span) / 1e6);
            let span = tracer.open("ml.pca.transform", root, rep);
            let projected = world.model.pca().transform(&scaled).expect("pca width");
            tracer.close(span);
            pca_ms.push(tracer.duration_ns(span) / 1e6);
            let config = world.model.config();
            let mut minibatch = MiniBatchKMeans::warm_start(
                world.model.kmeans().centroids().clone(),
                MiniBatchConfig::new(config.k).with_seed(config.seed),
            )
            .expect("warm start from the serving centroids");
            for _ in 0..REFIT_EPOCHS {
                let span = tracer.open("ml.kmeans.minibatch_epoch", root, rep);
                minibatch
                    .step_with_pool(&projected, &serial)
                    .expect("mini-batch epoch");
                tracer.close(span);
                epoch_ms.push(tracer.duration_ns(span) / 1e6);
            }
            tracer.close(root);
        }
        metrics.set("ml.scaler.transform_ms", median(&scaler_ms));
        metrics.set("ml.pca.transform_ms", median(&pca_ms));
        metrics.set("ml.kmeans.minibatch_epoch_ms", median(&epoch_ms));
        metrics.set(
            "core.train.refit_other_ms",
            refit_ms
                - median(&scaler_ms)
                - median(&pca_ms)
                - REFIT_EPOCHS as f64 * median(&epoch_ms),
        );
        metrics.set(
            "core.train.refit_accuracy",
            traced.first().map_or(0.0, |c| c.accuracy),
        );

        let latest = self
            .registry
            .latest_version()
            .expect("list versions")
            .expect("cycles published");
        let span = tracer.open("service.registry.load", NO_PARENT, 0);
        std::hint::black_box(self.registry.load(latest).expect("load the latest version"));
        tracer.close(span);
        metrics.set("service.registry.load_ms", tracer.duration_ns(span) / 1e6);

        let mut detector = Detector::new(world.model.clone());
        let started = Instant::now();
        detector.quantize().expect("paper model compiles");
        metrics.set(
            "core.detect.quantize_us",
            started.elapsed().as_secs_f64() * 1e6,
        );

        // Once through the orchestrator's own streaming checkpoint
        // (publish-and-swap, no shadow), on a second server so the
        // cycles' books stay closed.
        let orchestrated = serve::start_server(&world.model, serve::production_profile());
        let orchestrator_dir = self.registry_dir.join("orchestrator");
        let mut orchestrator = Orchestrator::new(
            &orchestrated,
            ModelRegistry::open(&orchestrator_dir).expect("open the orchestrator registry"),
            OrchestratorConfig {
                swap: SwapPolicy::PublishAndSwap,
                refit_epochs: REFIT_EPOCHS,
                keep_versions: KEEP_VERSIONS,
                shadow: None,
                ..Default::default()
            },
        );
        let mut stream = DriftStream::new(self.drift.len(), self.drift.width(), world.seed)
            .expect("reservoir of the window's size");
        for (row, &claimed) in self.drift.rows().iter().zip(self.drift.user_agents()) {
            stream
                .ingest(&world.model, row, claimed)
                .expect("drift row ingests");
        }
        let span = tracer.open("service.orchestrator.checkpoint_stream", NO_PARENT, 0);
        let outcome = orchestrator
            .checkpoint_stream(&mut stream, &self.releases)
            .expect("streaming checkpoint");
        tracer.close(span);
        eprintln!("orchestrator checkpoint_stream: {}", outcome_kind(&outcome));
        metrics.set(
            "service.orchestrator.checkpoint_stream_ms",
            tracer.duration_ns(span) / 1e6,
        );
        orchestrated.shutdown();

        let trace_path = out_dir.join(format!("trace-{name}.json"));
        tracer
            .write_json(&trace_path)
            .expect("write the trace file");
        eprintln!(
            "{} spans written to {}",
            tracer.spans.len(),
            trace_path.display()
        );

        metrics.set("bench.failed_share", tally.failed_share());
        metrics.set("bench.frames_checked", tally.sent as f64);
        let all: Vec<&Cycle> = plain.iter().chain(&traced).collect();
        self.report(metrics, &all, tally)
    }
}

fn outcome_kind(outcome: &polygraph_service::RetrainOutcome) -> String {
    let text = format!("{outcome:?}");
    text.split([' ', '{', '(']).next().unwrap_or("").to_string()
}
