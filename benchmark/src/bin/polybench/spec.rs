//! The one table every name comes from: workloads, end-to-end metrics and
//! per-layer metrics, with units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root mirrors it; `tests/names.rs`
//! fails when the two drift apart.

use std::collections::BTreeMap;

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_repeat",
        why: "frames drawn from ~1.5k cache keys per 100k sessions, hit share ~0.999: framing, key hash, cache hit, encode and the socket do the work; decode and assess do none",
    },
    Workload {
        name: "serve_distinct",
        why: "same draws but every frame its own key, 100k keys on 8192 slots: nearly every frame misses, decodes, is assessed quantized, inserted and evicts",
    },
    Workload {
        name: "serve_swap",
        why: "half repeat, half distinct, shadow candidate attached, same model re-published every 20 ms: detector slot written while read, cache epoch-invalidated while hot",
    },
    Workload {
        name: "fleet_rpc",
        why: "one caller, one request outstanding, through FleetClient to a 2-node reactor fleet: client encode, ring routing, reactor wake-up and socket turn-around, server work negligible",
    },
    Workload {
        name: "retrain_cycle",
        why: "control plane at paper scale: ingest 50k drift sessions, checkpoint, streaming refit, registry publish+prune, versioned swap, 256-frame probe answered by the new model",
    },
];

/// An end-to-end metric: emitted by every workload when tracing is off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Checked against `BENCHMARK.json` by `tests/names.rs`, which
    /// compiles this file too; the binary itself never reads it.
    #[allow(dead_code)]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// `throughput_per_s` is the closed-loop capacity: frames/s for
/// `serve_*` and drift sessions absorbed per second over the whole
/// ingest-to-last-probe-verdict cycle for `retrain_cycle`, both read from
/// the run's [`undisturbed`] legs; calls/s of the median leg for
/// `fleet_rpc`, whose caller mostly waits and is not slowed by a busy host.
/// `full_fit_s` is the median paper-scale `TrainedModel::fit` of the
/// run's set-ups. Open-loop and per-call latencies are per-layer metrics:
/// on this box their medians move by 2-3x with the host's state (see
/// `README.md`), which no bound of at most 0.25 can gate.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "full_fit_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// A per-layer metric: emitted by every workload's traced run, 0 where
/// the workload does not exercise the layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: [PerLayer; 79] = [
    lo("service.framing.split_ns", "ns"),
    lo("service.framing.split_allocs", "count"),
    lo("fingerprint.wire.cache_key_ns", "ns"),
    lo("fingerprint.wire.decode_ns", "ns"),
    lo("fingerprint.wire.decode_allocs", "count"),
    lo("fingerprint.wire.encode_ns", "ns"),
    lo("browser_engine.useragent.parse_ns", "ns"),
    lo("browser_engine.useragent.distinct_uas", "count"),
    lo("cache.lookup_hit_ns", "ns"),
    lo("cache.lookup_miss_ns", "ns"),
    lo("cache.insert_ns", "ns"),
    lo("cache.insert_allocs", "count"),
    hi("cache.hit_share", "share"),
    lo("cache.evictions_per_kframe", "count"),
    lo("cache.stale_epoch_per_swap", "count"),
    lo("core.detect.assess_quant_ns", "ns"),
    lo("core.detect.assess_staged_ns", "ns"),
    lo("core.detect.assess_allocs", "count"),
    lo("core.detect.flagged_share", "share"),
    lo("core.detect.quantize_us", "us"),
    lo("ml.quant.predict_row_ns", "ns"),
    hi("ml.quant.certified_share", "share"),
    lo("core.risk.risk_factor_ns", "ns"),
    lo("service.proto.encode_ns", "ns"),
    lo("service.server.assess_frame_ns", "ns"),
    lo("service.server.assess_frame_allocs", "count"),
    hi("service.server.capacity_fps", "1/s"),
    lo("service.server.stage_sum_ns", "ns"),
    lo("service.server.unattributed_ns", "ns"),
    hi("service.server.frames_per_batch", "count"),
    lo("service.server.bytes_per_frame", "B"),
    lo("service.server.open_p50_us", "us"),
    lo("service.server.open_p99_us", "us"),
    lo("service.server.open_p999_us", "us"),
    lo("service.server.open_shed_share", "share"),
    hi("service.server.swaps", "count"),
    lo("service.server.swap_call_us", "us"),
    hi("service.server.shadow_compared_share", "share"),
    hi("service.server.mixed_plain_fps", "1/s"),
    hi("service.server.mixed_shadow_fps", "1/s"),
    lo("service.server.swap_to_verdict_us", "us"),
    hi("service.reactor.capacity_fps", "1/s"),
    lo("service.reactor.open_p50_us", "us"),
    lo("obs.counter_inc_ns", "ns"),
    lo("obs.span_ns", "ns"),
    lo("obs.snapshot_us", "us"),
    lo("service.client.rtt_p50_us", "us"),
    lo("service.fleet.route_ns", "ns"),
    lo("service.fleet.node_share_max", "share"),
    hi("service.fleet.hit_share", "share"),
    lo("service.fleet.failovers", "count"),
    lo("service.fleet.rpc_p50_us", "us"),
    lo("service.fleet.rpc_p99_us", "us"),
    hi("traffic.generate_per_s", "1/s"),
    lo("core.train.fit_scale_ms", "ms"),
    lo("core.train.fit_outlier_ms", "ms"),
    lo("core.train.fit_pca_ms", "ms"),
    lo("core.train.fit_kmeans_ms", "ms"),
    lo("core.train.fit_table_ms", "ms"),
    lo("core.drift_stream.ingest_ns", "ns"),
    lo("core.drift_stream.ingest_allocs", "count"),
    lo("core.drift_stream.checkpoint_ms", "ms"),
    lo("core.sampling.materialize_ms", "ms"),
    lo("ml.scaler.transform_ms", "ms"),
    lo("ml.pca.transform_ms", "ms"),
    lo("ml.kmeans.minibatch_epoch_ms", "ms"),
    lo("core.train.refit_streaming_ms", "ms"),
    lo("core.train.refit_other_ms", "ms"),
    hi("core.train.refit_accuracy", "share"),
    lo("service.registry.publish_ms", "ms"),
    lo("service.registry.prune_ms", "ms"),
    lo("service.registry.load_ms", "ms"),
    lo("service.orchestrator.checkpoint_stream_ms", "ms"),
    lo("bench.retrain_cycle_ms", "ms"),
    lo("bench.gen_late_p99_us", "us"),
    lo("bench.timer_ns", "ns"),
    lo("bench.trace_overhead_share", "share"),
    lo("bench.failed_share", "share"),
    hi("bench.frames_checked", "count"),
];

/// The metric values of one run, keyed by table name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be a name of the table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Smallest and largest of `values`.
pub fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, 0.0), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// The rate of a run's undisturbed legs (or cycles): the one nine in ten
/// are slower than. Work that keeps its threads busy is only ever slowed
/// by a busy host, in bursts that hit a fifth to a half of a run's legs,
/// so the median leg moves with the host — between ten runs of the same
/// code it spread 16-33% on `retrain_cycle` — and the fastest tenth does
/// not (see `README.md`).
pub fn undisturbed(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.9)
}

/// The `p`-quantile (nearest rank) of an already sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}
