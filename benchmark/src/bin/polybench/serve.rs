//! The three `serve_*` workloads: one production-profile server, one
//! generator thread, one connection at a time; a closed loop for capacity
//! and, in the traced run, an open loop for latency. `serve_swap` adds a shadow candidate and a
//! control thread re-publishing the serving model every 20 ms.

use crate::load::{closed_phase, open_phase, ClosedPhase, Cursor, OpenPhase, Tally};
use crate::pipeline::{self, CACHE_CAPACITY, CACHE_SHARDS};
use crate::spec::{median, Metrics};
use crate::trace::{timer_pair_ns, StageTotal, Tracer, NO_PARENT};
use crate::world::{payload, Mix, World, SEQUENCE_LEN};
use crate::{common_layer_metrics, Report};
use browser_engine::UserAgent;
use fingerprint::decode_submission_view;
use parking_lot::RwLock;
use polygraph_core::{risk_factor, Detector, TrainedModel};
use polygraph_ml::ThreadPool;
use polygraph_obs::Registry;
use polygraph_service::server::assess_frame;
use polygraph_service::{
    start_risk_server_with, RiskServerConfig, RiskServerHandle, RiskServerStats, ServerBackend,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the `serve_swap` control thread re-publishes the model.
const SWAP_PERIOD: Duration = Duration::from_millis(20);

/// Batches between cache-epoch bumps in the traced `serve_swap`
/// pipeline: 20 ms of frames at roughly the workload's capacity.
const PIPELINE_BUMP_EVERY: usize = 256;

/// The "production profile": threaded core, 8 × 8192 cache, quantized,
/// default `shed_limit` and `read_timeout`.
pub fn production_profile() -> RiskServerConfig {
    RiskServerConfig {
        cache_shards: CACHE_SHARDS,
        cache_capacity: CACHE_CAPACITY,
        quantized: true,
        ..Default::default()
    }
}

pub fn start_server(model: &TrainedModel, config: RiskServerConfig) -> RiskServerHandle {
    start_risk_server_with("127.0.0.1:0", Detector::new(model.clone()), config)
        .expect("start the server under test")
}

/// Frames the server has answered, one way or another.
pub fn answered(stats: &RiskServerStats) -> u64 {
    stats.assessed + stats.malformed + stats.shed
}

/// `cache.hits + cache.misses == assessed + malformed + shed_exempt`.
pub fn cache_books_balance(stats: &RiskServerStats) -> bool {
    stats.cache_hits + stats.cache_misses
        == stats.assessed + stats.malformed + stats.cache_shed_exempt
}

/// The cache books balance and every frame sent was answered.
pub fn books_balance(stats: &RiskServerStats, sent: u64) -> bool {
    cache_books_balance(stats) && answered(stats) == sent
}

pub struct Rig {
    mix: Mix,
    server: RiskServerHandle,
    sequence: Vec<u32>,
    /// `serve_swap` only: the shadow candidate, a streaming refit of the
    /// serving model on the drift window.
    candidate: Option<TrainedModel>,
}

#[derive(Default)]
struct SwapLog {
    call_us: Vec<f64>,
}

/// A closed-loop and an open-loop phase on one server.
struct WireLegs {
    closed: ClosedPhase,
    open: OpenPhase,
    swaps: SwapLog,
    closed_tally: Tally,
    open_tally: Tally,
    books_ok: bool,
}

/// What the in-process passes established.
struct PipelineCheck {
    stage_sum_ns: f64,
    /// Outputs compared with the oracle, and how many differed.
    frames: u64,
    mismatched: u64,
    twins_agree: bool,
}

fn swap_loop(server: &RiskServerHandle, model: &TrainedModel, stop: &AtomicBool) -> SwapLog {
    let mut log = SwapLog::default();
    let mut due = Instant::now();
    let mut version = 1;
    while !stop.load(Ordering::SeqCst) {
        let started = Instant::now();
        server.publish_model_versioned(model.clone(), version);
        log.call_us.push(started.elapsed().as_secs_f64() * 1e6);
        version += 1;
        due += SWAP_PERIOD;
        match due.checked_duration_since(Instant::now()) {
            Some(wait) => std::thread::sleep(wait),
            None => due = Instant::now(),
        }
    }
    log
}

impl Rig {
    pub fn prepare(world: &World, mix: Mix) -> Self {
        let candidate = (mix == Mix::Half).then(|| {
            world
                .model
                .refit_streaming(&world.drift_window(), 4, &ThreadPool::serial())
                .expect("streaming refit on the drift window")
        });
        let server = start_server(&world.model, production_profile());
        if let Some(candidate) = &candidate {
            server.attach_shadow(candidate.clone());
        }
        Self {
            mix,
            server,
            sequence: world.sequence(mix, SEQUENCE_LEN),
            candidate,
        }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }

    fn leg_frames(&self, world: &World) -> usize {
        match self.mix {
            Mix::Repeat => world.scale.leg_frames_hit,
            Mix::Distinct | Mix::Half => world.scale.leg_frames_miss,
        }
    }

    /// Runs `f` with the `serve_swap` control thread alive (a no-op on
    /// the other two workloads).
    fn with_swapper<T>(
        &self,
        server: &RiskServerHandle,
        world: &World,
        f: impl FnOnce() -> T,
    ) -> (T, SwapLog) {
        if self.mix != Mix::Half {
            return (f(), SwapLog::default());
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let swapper = scope.spawn(|| swap_loop(server, &world.model, &stop));
            let out = f();
            stop.store(true, Ordering::SeqCst);
            (out, swapper.join().expect("swap thread"))
        })
    }

    /// The untraced run: closed-loop capacity for `seconds`.
    pub fn measure(&self, world: &World, seconds: f64) -> Report {
        let mut cursor = Cursor::new(&self.sequence);
        let mut tally = Tally::default();
        let (closed, _) = self.with_swapper(&self.server, world, || {
            closed_phase(
                self.server.local_addr(),
                world,
                &mut cursor,
                self.leg_frames(world),
                Duration::from_secs_f64(seconds),
                &mut tally,
            )
        });
        eprintln!(
            "closed loop: {} legs, undisturbed {:.0} fps (median {:.0}, slowest {:.0}, fastest {:.0})",
            closed.legs,
            closed.undisturbed_fps,
            closed.median_fps,
            closed.range_fps.0,
            closed.range_fps.1
        );
        let mut metrics = Metrics::default();
        metrics.set("throughput_per_s", closed.undisturbed_fps);
        Report {
            metrics,
            gated_ok: tally.failed_share() <= crate::FAILED_SHARE_LIMIT,
            books_ok: books_balance(&self.server.stats(), tally.sent),
            tally,
        }
    }

    /// A closed-loop phase and then an open-loop phase against `server`,
    /// with the `serve_swap` control thread alive where there is one.
    fn closed_then_open(
        &self,
        server: &RiskServerHandle,
        world: &World,
        each: Duration,
    ) -> WireLegs {
        let mut cursor = Cursor::new(&self.sequence);
        let (mut closed_tally, mut open_tally) = (Tally::default(), Tally::default());
        let ((closed, open), swaps) = self.with_swapper(server, world, || {
            let addr = server.local_addr();
            let frames = self.leg_frames(world);
            let closed = closed_phase(addr, world, &mut cursor, frames, each, &mut closed_tally);
            let open = open_phase(addr, world, &mut cursor, each, &mut open_tally);
            (closed, open)
        });
        WireLegs {
            closed,
            open,
            swaps,
            books_ok: books_balance(&server.stats(), closed_tally.sent + open_tally.sent),
            closed_tally,
            open_tally,
        }
    }

    /// The traced run: the in-process pipeline with spans (and its
    /// untraced twins), the unit-cost side passes, and short wire legs
    /// that give the per-frame wall time the stage sum is reconciled
    /// against.
    pub fn trace(&self, world: &World, seconds: f64, out_dir: &Path, name: &str) -> Report {
        let mut metrics = Metrics::default();
        let timer_ns = timer_pair_ns();
        common_layer_metrics(world, &self.server.registry(), timer_ns, &mut metrics);
        let mut tracer = Tracer::new(true, world.scale.pipeline_frames / 32 * 12 + 1024);
        let pipeline = self.trace_pipeline(world, timer_ns, &mut tracer, &mut metrics);

        // The production profile on the wire: what the stage sum is
        // reconciled against.
        let budget = Duration::from_secs_f64(seconds);
        let wire = self.closed_then_open(&self.server, world, budget / 5);
        let stats = self.server.stats();
        let per_frame_ns = 1e9 / wire.closed.median_fps;
        let unattributed = per_frame_ns - pipeline.stage_sum_ns;
        metrics.set("service.server.capacity_fps", wire.closed.median_fps);
        metrics.set("service.server.unattributed_ns", unattributed);
        metrics.set(
            "service.server.frames_per_batch",
            stats.cache_misses as f64 / stats.batches.max(1) as f64,
        );
        metrics.set(
            "service.server.bytes_per_frame",
            stats.bytes_read as f64 / (stats.assessed + stats.shed).max(1) as f64,
        );
        metrics.set("service.server.open_p50_us", wire.open.p50_us);
        metrics.set("service.server.open_p99_us", wire.open.p99_us);
        metrics.set("service.server.open_p999_us", wire.open.p999_us);
        metrics.set("service.server.open_shed_share", wire.open.shed_share);
        metrics.set("bench.gen_late_p99_us", wire.open.late_p99_us);
        eprintln!(
            "reconciliation: stage_sum {:.0} ns ({:.0}%) + unattributed {unattributed:.0} ns \
             ({:.0}%) = {per_frame_ns:.0} ns per frame (1e9 / capacity_fps)",
            pipeline.stage_sum_ns,
            100.0 * pipeline.stage_sum_ns / per_frame_ns,
            100.0 * unattributed / per_frame_ns
        );
        if unattributed < 0.0 {
            eprintln!("warning: unattributed_ns is negative: the stages overstate their share");
        } else if unattributed > 0.6 * per_frame_ns {
            eprintln!("warning: unattributed_ns is above 60% of the per-frame time");
        }
        let mut books_ok = wire.books_ok;
        let (mut closed_tally, mut open_tally) = (wire.closed_tally, wire.open_tally);

        // The same sequence against the other connection core.
        let reactor = start_server(
            &world.model,
            RiskServerConfig {
                backend: ServerBackend::Reactor,
                reactor_shards: 1,
                ..production_profile()
            },
        );
        if let Some(candidate) = &self.candidate {
            reactor.attach_shadow(candidate.clone());
        }
        let other = self.closed_then_open(&reactor, world, budget / 8);
        reactor.shutdown();
        metrics.set("service.reactor.capacity_fps", other.closed.median_fps);
        metrics.set("service.reactor.open_p50_us", other.open.p50_us);
        books_ok &= other.books_ok;
        closed_tally.add(&other.closed_tally);
        open_tally.add(&other.open_tally);

        // `serve_swap` only: the control thread and the shadow tax,
        // itemised — the mixed sequence with no control thread, without
        // and then with a shadow.
        if let Some(candidate) = &self.candidate {
            metrics.set("service.server.swaps", wire.swaps.call_us.len() as f64);
            metrics.set("service.server.swap_call_us", median(&wire.swaps.call_us));
            let compared = self
                .server
                .shadow_counts()
                .map_or(0, |(compared, _)| compared);
            metrics.set(
                "service.server.shadow_compared_share",
                compared as f64 / stats.cache_misses.max(1) as f64,
            );
            let mixed = start_server(&world.model, production_profile());
            let mut mixed_tally = Tally::default();
            let mut cursor = Cursor::new(&self.sequence);
            let mut capacity = || {
                let frames = self.leg_frames(world);
                let each = budget / 10;
                closed_phase(
                    mixed.local_addr(),
                    world,
                    &mut cursor,
                    frames,
                    each,
                    &mut mixed_tally,
                )
                .median_fps
            };
            metrics.set("service.server.mixed_plain_fps", capacity());
            mixed.attach_shadow(candidate.clone());
            metrics.set("service.server.mixed_shadow_fps", capacity());
            books_ok &= books_balance(&mixed.stats(), mixed_tally.sent);
            mixed.shutdown();
            closed_tally.add(&mixed_tally);
        }

        let trace_path = out_dir.join(format!("trace-{name}.json"));
        tracer
            .write_json(&trace_path)
            .expect("write the trace file");
        eprintln!(
            "{} spans written to {}",
            tracer.spans.len(),
            trace_path.display()
        );

        let mut tally = closed_tally;
        tally.add(&open_tally);
        // Pipeline outputs count as checked frames too.
        tally.sent += pipeline.frames;
        tally.matched += pipeline.frames - pipeline.mismatched;
        tally.mismatched += pipeline.mismatched;
        metrics.set("bench.failed_share", tally.failed_share());
        metrics.set("bench.frames_checked", tally.sent as f64);
        Report {
            metrics,
            gated_ok: closed_tally.failed_share() <= crate::FAILED_SHARE_LIMIT
                && pipeline.mismatched == 0
                && pipeline.twins_agree,
            books_ok,
            tally,
        }
    }

    /// Drives the head of the sequence through the in-process pipeline —
    /// untraced, traced, untraced — and turns the traced pass's spans
    /// into the per-stage metrics.
    fn trace_pipeline(
        &self,
        world: &World,
        timer_ns: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> PipelineCheck {
        let frames = world.scale.pipeline_frames;
        let mut serving = Detector::new(world.model.clone());
        let started = Instant::now();
        serving.quantize().expect("paper model compiles");
        metrics.set(
            "core.detect.quantize_us",
            started.elapsed().as_secs_f64() * 1e6,
        );
        let shadow = self.candidate.as_ref().map(|c| {
            let mut d = Detector::new(c.clone());
            d.quantize().expect("candidate compiles");
            d
        });
        let bump_every = (self.mix == Mix::Half).then_some(PIPELINE_BUMP_EVERY);
        let run = |tracer: &mut Tracer| {
            pipeline::run(
                world,
                &self.sequence,
                frames,
                &serving,
                shadow.as_ref(),
                bump_every,
                tracer,
            )
        };
        // The traced pass is compared with the mean of its untraced
        // neighbours, so warm-up does not read as overhead.
        let before = run(&mut Tracer::new(false, 0));
        let traced = run(tracer);
        let after = run(&mut Tracer::new(false, 0));
        metrics.set(
            "bench.trace_overhead_share",
            2.0 * traced.elapsed_ns as f64 / (before.elapsed_ns + after.elapsed_ns) as f64 - 1.0,
        );

        let totals = tracer.totals(timer_ns);
        let n = traced.frames as f64;
        let misses = traced.misses as f64;
        // (self ns, allocations) per `count` of a stage.
        let per = |stage: &str, count: f64| {
            totals.get(stage).map_or((0.0, 0.0), |t: &StageTotal| {
                (
                    t.self_ns as f64 / count.max(1.0),
                    t.allocs as f64 / count.max(1.0),
                )
            })
        };
        let (split_ns, split_allocs) = per("service.framing.split", n);
        metrics.set("service.framing.split_ns", split_ns);
        metrics.set("service.framing.split_allocs", split_allocs);
        // One key per frame plus a second one per miss (`store`).
        let (key_ns, _) = per("fingerprint.wire.cache_key", n + misses);
        metrics.set("fingerprint.wire.cache_key_ns", key_ns);
        let (decode_ns, decode_allocs) = per("fingerprint.wire.decode", misses);
        metrics.set("fingerprint.wire.decode_ns", decode_ns);
        metrics.set("fingerprint.wire.decode_allocs", decode_allocs);
        let (parse_ns, _) = per("browser_engine.useragent.parse", misses);
        metrics.set("browser_engine.useragent.parse_ns", parse_ns);
        let (insert_ns, insert_allocs) = per("cache.insert", misses);
        metrics.set("cache.insert_ns", insert_ns);
        metrics.set("cache.insert_allocs", insert_allocs);
        let (assess_ns, assess_allocs) = per("core.detect.assess", misses);
        metrics.set("core.detect.assess_quant_ns", assess_ns);
        metrics.set("core.detect.assess_allocs", assess_allocs);
        let (encode_ns, _) = per("service.proto.encode", n);
        metrics.set("service.proto.encode_ns", encode_ns);
        let (hit_ns, miss_ns) = lookup_unit_costs(tracer, &traced.lookups, timer_ns);
        metrics.set("cache.lookup_hit_ns", hit_ns);
        metrics.set("cache.lookup_miss_ns", miss_ns);
        metrics.set("cache.hit_share", traced.hits as f64 / n);
        metrics.set(
            "cache.evictions_per_kframe",
            traced.evictions as f64 * 1e3 / n,
        );
        metrics.set(
            "cache.stale_epoch_per_swap",
            traced.stale as f64 / traced.epoch_bumps.max(1) as f64,
        );
        metrics.set("core.detect.flagged_share", traced.flagged as f64 / n);
        let stage_sum_ns = totals
            .iter()
            .filter(|(name, _)| **name != "service.server.batch")
            .map(|(_, t)| t.self_ns as f64)
            .sum::<f64>()
            / n;
        metrics.set("service.server.stage_sum_ns", stage_sum_ns);
        let distinct_uas: BTreeSet<&str> = self.sequence[..frames]
            .iter()
            .map(|&id| {
                decode_submission_view(payload(&world.frames[id as usize]))
                    .expect("pool frame decodes")
                    .user_agent()
            })
            .collect();
        metrics.set(
            "browser_engine.useragent.distinct_uas",
            distinct_uas.len() as f64,
        );

        self.side_passes(world, &traced.miss_ids, tracer, metrics);

        PipelineCheck {
            stage_sum_ns,
            frames: before.frames + traced.frames + after.frames,
            mismatched: before.mismatched + traced.mismatched + after.mismatched,
            // Exact counts of seeded work: tracing must not change them.
            twins_agree: [&before, &after].iter().all(|plain| {
                plain.hits == traced.hits
                    && plain.evictions == traced.evictions
                    && plain.flagged == traced.flagged
            }),
        }
    }

    /// Unit costs the pipeline cannot split from outside: the staged and
    /// fixed-point assess on the workload's missed sessions, Algorithm 1
    /// on its flagged ones, and the public single-frame entry point.
    fn side_passes(
        &self,
        world: &World,
        miss_ids: &[u32],
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) {
        let sessions: Vec<(Vec<f64>, UserAgent)> = miss_ids
            .iter()
            .map(|&id| {
                let view = decode_submission_view(payload(&world.frames[id as usize]))
                    .expect("pool frame decodes");
                let claimed = view.user_agent().parse().expect("pool user-agent parses");
                (view.values_u32().map(f64::from).collect(), claimed)
            })
            .collect();
        if sessions.is_empty() {
            return;
        }
        let count = sessions.len() as f64;
        let staged = Detector::new(world.model.clone());
        let span = tracer.open("side.assess_staged", NO_PARENT, 0);
        let assessments = staged.assess_many(&sessions);
        tracer.close(span);
        metrics.set(
            "core.detect.assess_staged_ns",
            tracer.duration_ns(span) / count,
        );

        let quant = world.model.quantize().expect("paper model compiles");
        let mut scratch = quant.scratch();
        let mut certified = 0u64;
        let span = tracer.open("side.predict_row", NO_PARENT, 0);
        for (values, _) in &sessions {
            certified += u64::from(
                quant
                    .predict_row(values, &mut scratch)
                    .expect("row width matches")
                    .is_some(),
            );
        }
        tracer.close(span);
        metrics.set("ml.quant.predict_row_ns", tracer.duration_ns(span) / count);
        metrics.set("ml.quant.certified_share", certified as f64 / count);

        // Algorithm 1 on the flagged sessions, residents looked up
        // beforehand as the compiled detector does.
        let residents: BTreeMap<usize, Vec<UserAgent>> = assessments
            .iter()
            .flatten()
            .filter(|a| a.flagged)
            .map(|a| {
                let effective = world.model.nearest_populated_cluster(a.predicted_cluster);
                (
                    a.predicted_cluster,
                    world.model.cluster_table().user_agents_in(effective),
                )
            })
            .collect();
        let flagged: Vec<(UserAgent, &[UserAgent])> = sessions
            .iter()
            .zip(&assessments)
            .filter_map(|((_, claimed), a)| {
                let a = a.as_ref().ok()?;
                a.flagged
                    .then(|| (*claimed, residents[&a.predicted_cluster].as_slice()))
            })
            .collect();
        if !flagged.is_empty() {
            let span = tracer.open("side.risk_factor", NO_PARENT, 0);
            let mut sum = 0u64;
            for (claimed, cluster) in &flagged {
                sum += u64::from(risk_factor(*claimed, cluster));
            }
            std::hint::black_box(sum);
            tracer.close(span);
            metrics.set(
                "core.risk.risk_factor_ns",
                tracer.duration_ns(span) / flagged.len() as f64,
            );
        }

        let slot = RwLock::new(Detector::new(world.model.clone()));
        let registry = Registry::monotonic();
        let sample = &miss_ids[..miss_ids.len().min(16_384)];
        let span = tracer.open("side.assess_frame", NO_PARENT, 0);
        for &id in sample {
            std::hint::black_box(assess_frame(
                payload(&world.frames[id as usize]),
                &slot,
                &registry,
            ));
        }
        tracer.close(span);
        let allocs = f64::from(tracer.spans[span as usize].allocs);
        metrics.set(
            "service.server.assess_frame_ns",
            tracer.duration_ns(span) / sample.len() as f64,
        );
        metrics.set(
            "service.server.assess_frame_allocs",
            allocs / sample.len() as f64,
        );
    }
}

/// Splits the per-batch lookup spans into a per-hit and a per-miss cost
/// by least squares over `T_b = hit_ns * hits_b + miss_ns * misses_b`.
/// A class with fewer than 1024 lookups in the whole pass is reported
/// as 0: the workload does not exercise it.
fn lookup_unit_costs(tracer: &Tracer, lookups: &[(u32, u8, u8)], timer_ns: f64) -> (f64, f64) {
    const ENOUGH: f64 = 1024.0;
    let (mut shh, mut smm, mut shm, mut sht, mut smt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut hits, mut misses) = (0.0, 0.0);
    for &(span, h, m) in lookups {
        let (h, m) = (f64::from(h), f64::from(m));
        let t = (tracer.duration_ns(span) - timer_ns / 2.0).max(0.0);
        shh += h * h;
        smm += m * m;
        shm += h * m;
        sht += h * t;
        smt += m * t;
        hits += h;
        misses += m;
    }
    let det = shh * smm - shm * shm;
    if hits >= ENOUGH && misses >= ENOUGH && det.abs() > 1e-9 {
        (
            ((sht * smm - smt * shm) / det).max(0.0),
            ((smt * shh - sht * shm) / det).max(0.0),
        )
    } else if hits >= ENOUGH {
        (sht / shh, 0.0)
    } else if misses >= ENOUGH {
        (0.0, smt / smm)
    } else {
        (0.0, 0.0)
    }
}
