//! The risk-assessment TCP service.
//!
//! Each connection streams length-prefixed fingerprint submission frames
//! (the same format the collection service accepts) and receives one
//! fixed-size [`Verdict`] per frame. The serving detector sits behind an
//! `Arc<RwLock<…>>` so the [`crate::orchestrator`] can swap in a
//! retrained model without interrupting traffic — the paper's "ongoing
//! system enhancements … minimises delays during user interaction"
//! property (§6.5).
//!
//! ## Backends
//!
//! Two interchangeable connection cores sit behind
//! [`RiskServerConfig::backend`]:
//!
//! * [`ServerBackend::Threaded`] — one OS thread per connection (the
//!   original core, still the default).
//! * [`ServerBackend::Reactor`] — per-core acceptor shards, each one
//!   thread that scans the non-blocking sockets it accepted: a `read`
//!   per connection per pass into an explicit per-connection state
//!   machine ([`crate::reactor::ConnMachine`]), parking for
//!   [`crate::reactor::SCAN_INTERVAL`] only after a pass that accepted
//!   nothing and moved no byte. No thread per idle connection.
//!
//! Both backends run the same private batch path (`process_buffered`)
//! over the same [`crate::framing::FrameAccumulator`] parse state, so
//! their verdict byte streams and counter identities are exactly equal —
//! pinned by the backend-parametrized conformance suites
//! (`tests/common::for_each_backend`) and `tests/reactor_prop.rs`.
//!
//! ## Observability
//!
//! Every counter and latency measurement lives in a `polygraph-obs`
//! [`Registry`] (see [`metric_names`] for the full catalogue). Clients
//! can pull a snapshot over the wire with a `STATS` request frame
//! ([`fingerprint::wire::encode_stats_request`]), answered in request
//! order with a JSON snapshot; in-process callers use
//! [`RiskServerHandle::snapshot`]. The registry's clock is injected
//! ([`RiskServerConfig::clock`]), so tests drive a deterministic
//! `TestClock` and production uses the monotonic wall clock.
//!
//! ## Connection lifecycle
//!
//! * Finished connection workers are reaped (joined and counted) on
//!   every acceptor iteration — a long-running server does not
//!   accumulate dead `JoinHandle`s.
//! * An idle keep-alive client that triggers the read timeout with *no
//!   partial frame buffered* stays connected (`server.idle_timeouts`
//!   counts the ticks); only a stalled partial frame fails the
//!   connection.
//! * Workers observe the server's stop flag each loop, so shutdown is
//!   bounded by roughly one read-timeout tick even with connected
//!   clients.
//!
//! ## Overload shedding
//!
//! A connection may pipeline more frames than the detector can assess
//! promptly. Instead of queueing unboundedly, each guard cycle assesses
//! up to [`MAX_BATCH_PER_GUARD`] frames and then answers any backlog
//! beyond [`RiskServerConfig::shed_limit`] immediately with
//! [`VerdictStatus::Degraded`] (`server.frames.shed`) — the degradation
//! ladder's "fast non-answer beats a slow answer" rung, consumed by
//! `RiskPolicy::on_unassessable`.

use crate::framing::{FrameAccumulator, FrameStatus};
use crate::proto::{encode_stats_response, Verdict, VerdictStatus};
use crate::reactor::{ConnMachine, SCAN_INTERVAL};
use browser_engine::UserAgent;
use fingerprint::{decode_submission_view, fnv1a64, is_stats_request, submission_cache_key};
use parking_lot::RwLock;
use polygraph_cache::{Lookup, VerdictCache};
use polygraph_core::detect::verdicts_agree;
use polygraph_core::{Assessment, Detector, PolygraphError, TrainedModel};
use polygraph_obs::{Clock, Counter, Gauge, Histogram, MonotonicClock, Registry, Snapshot};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Frames a connection worker may assess under a single read-guard
/// acquisition. Bounds both verdict latency for the frames at the back of
/// a drained batch and how long a pending model swap can be starved by
/// one busy connection.
pub const MAX_BATCH_PER_GUARD: usize = 32;

/// The metric names the risk server registers, grouped here so the wire
/// consumers and the docs share one catalogue.
pub mod metric_names {
    /// Submissions assessed (counter).
    pub const ASSESSED: &str = "server.frames.assessed";
    /// Assessments that flagged the session (counter).
    pub const FLAGGED: &str = "server.frames.flagged";
    /// Malformed frames answered with an error verdict (counter).
    pub const MALFORMED: &str = "server.frames.malformed";
    /// Detector swaps performed (counter).
    pub const SWAPS: &str = "server.swaps";
    /// Detector read-guard acquisitions taken to assess frames (counter).
    pub const BATCHES: &str = "server.batches";
    /// Per-batch assessment latency in µs (histogram).
    pub const BATCH_MICROS: &str = "server.assess.batch_micros";
    /// Submission frames per drained batch (histogram).
    pub const BATCH_FRAMES: &str = "server.assess.batch_frames";
    /// Bytes read off client sockets (counter).
    pub const BYTES_READ: &str = "server.bytes.read";
    /// Bytes written back to clients (counter).
    pub const BYTES_WRITTEN: &str = "server.bytes.written";
    /// Connections accepted (counter).
    pub const CONNECTIONS_OPENED: &str = "server.connections.opened";
    /// Connections that ended cleanly (counter).
    pub const CONNECTIONS_CLOSED: &str = "server.connections.closed";
    /// Connections that ended with an I/O or framing error (counter).
    pub const CONNECTIONS_ERRORED: &str = "server.connections.errored";
    /// Finished worker handles reaped by the acceptor loop (counter).
    pub const CONNECTIONS_REAPED: &str = "server.connections.reaped";
    /// Currently connected clients (gauge): incremented on accept,
    /// decremented when the worker thread or reactor slot retires.
    pub const CONNECTIONS_OPEN: &str = "server.connections.open";
    /// Read-timeout ticks survived by idle keep-alive clients (counter).
    pub const IDLE_TIMEOUTS: &str = "server.idle_timeouts";
    /// `STATS` request frames answered (counter).
    pub const STATS_REQUESTS: &str = "server.stats_requests";
    /// Frames answered `Degraded` by overload shedding instead of being
    /// queued behind the detector (counter).
    pub const SHED: &str = "server.frames.shed";
    /// Submission frames answered straight from the verdict cache
    /// (counter). Only registered when the cache is enabled
    /// ([`super::RiskServerConfig::cache_capacity`] > 0).
    pub const CACHE_HITS: &str = "cache.hits";
    /// Normal-path submission frames that had to be assessed by the
    /// detector: no cache entry, a stale-epoch entry, or an unkeyable
    /// frame (counter). Every normal-path submission is either a hit or
    /// a miss, so `hits + misses` balances against the verdict counters
    /// (see DESIGN.md §5g).
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Entries evicted by the CLOCK sweep to make room (counter).
    pub const CACHE_EVICTIONS: &str = "cache.evictions";
    /// Lookups that found an entry from an older model epoch (counter);
    /// a sub-count of `cache.misses`. Grows after every detector swap
    /// until the working set is re-assessed.
    pub const CACHE_STALE_EPOCH: &str = "cache.stale_epoch";
    /// Backlog frames the shed path answered from the cache instead of
    /// answering `Degraded` (counter); a sub-count of `cache.hits`.
    pub const CACHE_SHED_EXEMPT: &str = "cache.shed_exempt";
    /// Cache entries at the *current* model epoch — the only ones a
    /// lookup can hit (gauge). Drops to zero at a detector swap and
    /// refills as the working set is re-assessed; stale slots awaiting
    /// CLOCK eviction are deliberately excluded (they used to be
    /// counted, overreporting live entries after every swap).
    pub const CACHE_OCCUPANCY: &str = "cache.occupancy";
    /// Per-hit cache lookup latency in µs (histogram).
    pub const CACHE_HIT_MICROS: &str = "cache.hit_micros";
}

/// Which connection core serves accepted sockets. Both cores run the
/// identical batch/cache/shed path, so verdict byte streams and counter
/// identities are equal — only the concurrency model differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerBackend {
    /// One OS thread per connection with blocking reads (the original
    /// core). Simple, and still the default; caps out at a few thousand
    /// concurrent connections.
    #[default]
    Threaded,
    /// Multiplexed scan loops: [`RiskServerConfig::reactor_shards`]
    /// acceptor shards, each a single thread serving every connection it
    /// accepted through an explicit per-connection state machine
    /// ([`crate::reactor::ConnMachine`]) over non-blocking sockets.
    Reactor,
}

/// Configuration of a risk server.
#[derive(Debug, Clone)]
pub struct RiskServerConfig {
    /// Socket read timeout: the idle-tick length. Also bounds how long a
    /// worker can take to notice shutdown, and the write timeout.
    pub read_timeout: Duration,
    /// Time source for every latency metric. Production keeps the
    /// default monotonic clock; tests inject a deterministic
    /// `TestClock` so snapshots are byte-reproducible.
    pub clock: Arc<dyn Clock>,
    /// Overload-shedding threshold: after a batch is taken, any complete
    /// frames still queued beyond this count are answered immediately
    /// with a [`VerdictStatus::Degraded`] verdict (no assessment, no
    /// detector lock) instead of queueing unboundedly. Each guard cycle
    /// still assesses up to [`MAX_BATCH_PER_GUARD`] frames normally, so a
    /// flooding connection keeps bounded goodput while its backlog drains
    /// in constant time.
    pub shed_limit: usize,
    /// Shard count of the verdict cache (rounded up to a power of two,
    /// clamped to [`polygraph_cache::MAX_SHARDS`]). Ignored while the
    /// cache is disabled.
    pub cache_shards: usize,
    /// Total verdict-cache capacity in entries across all shards. `0`
    /// (the default) disables the cache entirely: no cache metrics are
    /// registered, so snapshots — including the byte-diffed exposition
    /// golden — are unchanged, and every frame takes the detector path.
    pub cache_capacity: usize,
    /// Which connection core serves accepted sockets (default
    /// [`ServerBackend::Threaded`]).
    pub backend: ServerBackend,
    /// Acceptor-shard count for [`ServerBackend::Reactor`]: each shard is
    /// one scan-loop thread with its own clone of the listener. `0` (the
    /// default) sizes to the machine's available parallelism, capped at 8.
    /// Ignored by the threaded backend.
    pub reactor_shards: usize,
    /// Serve cache-missing frames on the quantized fast path: the
    /// detector is compiled ([`Detector::quantize`]) at startup and on
    /// every [`RiskServerHandle::publish_model`], and the batch drain
    /// dispatches each miss batch through the fused fixed-point kernel.
    /// Off by default. Verdict streams are byte-identical either way —
    /// the fixed-point margin certificate falls any uncertain frame back
    /// to the staged f64 path (see `polygraph_ml::quant`).
    pub quantized: bool,
}

impl Default for RiskServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(5),
            clock: Arc::new(MonotonicClock::new()),
            shed_limit: 8 * MAX_BATCH_PER_GUARD,
            cache_shards: 8,
            cache_capacity: 0,
            backend: ServerBackend::Threaded,
            reactor_shards: 0,
            quantized: false,
        }
    }
}

/// Point-in-time counters of a running risk server, read from the
/// metrics registry. Plain values — a comparison or assertion needs no
/// atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiskServerStats {
    /// Submissions assessed.
    pub assessed: u64,
    /// Assessments that flagged the session.
    pub flagged: u64,
    /// Malformed frames answered with an error verdict.
    pub malformed: u64,
    /// Detector swaps performed.
    pub swaps: u64,
    /// Detector read-guard acquisitions taken to assess frames. With
    /// pipelined clients this grows slower than `assessed`: each batch of
    /// up to [`MAX_BATCH_PER_GUARD`] queued frames shares one acquisition.
    pub batches: u64,
    /// Read-timeout ticks survived by idle keep-alive clients.
    pub idle_timeouts: u64,
    /// `STATS` request frames answered.
    pub stats_requests: u64,
    /// Frames answered `Degraded` by overload shedding.
    pub shed: u64,
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections that ended cleanly.
    pub connections_closed: u64,
    /// Connections that ended with an error.
    pub connections_errored: u64,
    /// Finished worker handles reaped by the acceptor loop.
    pub connections_reaped: u64,
    /// Currently connected clients (gauge: returns to zero once every
    /// connection has retired).
    pub connections_open: i64,
    /// Bytes read off client sockets.
    pub bytes_read: u64,
    /// Bytes written back to clients.
    pub bytes_written: u64,
    /// Submission frames answered straight from the verdict cache
    /// (0 while the cache is disabled; likewise below).
    pub cache_hits: u64,
    /// Normal-path submission frames the cache could not answer.
    pub cache_misses: u64,
    /// Cache entries evicted by the CLOCK sweep.
    pub cache_evictions: u64,
    /// Lookups that found a stale-epoch entry (sub-count of misses).
    pub cache_stale_epoch: u64,
    /// Shed-path frames answered from cache instead of `Degraded`
    /// (sub-count of hits).
    pub cache_shed_exempt: u64,
}

/// The server's registered metric handles: resolved once at startup so
/// the per-frame path touches only atomics, never the registry map lock.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Arc<Registry>,
    assessed: Arc<Counter>,
    flagged: Arc<Counter>,
    malformed: Arc<Counter>,
    swaps: Arc<Counter>,
    batches: Arc<Counter>,
    batch_micros: Arc<Histogram>,
    batch_frames: Arc<Histogram>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    connections_opened: Arc<Counter>,
    connections_closed: Arc<Counter>,
    connections_errored: Arc<Counter>,
    connections_reaped: Arc<Counter>,
    connections_open: Arc<Gauge>,
    idle_timeouts: Arc<Counter>,
    stats_requests: Arc<Counter>,
    shed: Arc<Counter>,
}

impl ServerMetrics {
    /// Registers (or re-resolves) every server metric in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self {
            assessed: registry.counter(metric_names::ASSESSED),
            flagged: registry.counter(metric_names::FLAGGED),
            malformed: registry.counter(metric_names::MALFORMED),
            swaps: registry.counter(metric_names::SWAPS),
            batches: registry.counter(metric_names::BATCHES),
            batch_micros: registry.histogram(metric_names::BATCH_MICROS),
            batch_frames: registry.histogram(metric_names::BATCH_FRAMES),
            bytes_read: registry.counter(metric_names::BYTES_READ),
            bytes_written: registry.counter(metric_names::BYTES_WRITTEN),
            connections_opened: registry.counter(metric_names::CONNECTIONS_OPENED),
            connections_closed: registry.counter(metric_names::CONNECTIONS_CLOSED),
            connections_errored: registry.counter(metric_names::CONNECTIONS_ERRORED),
            connections_reaped: registry.counter(metric_names::CONNECTIONS_REAPED),
            connections_open: registry.gauge(metric_names::CONNECTIONS_OPEN),
            idle_timeouts: registry.counter(metric_names::IDLE_TIMEOUTS),
            stats_requests: registry.counter(metric_names::STATS_REQUESTS),
            shed: registry.counter(metric_names::SHED),
            registry,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn stats(&self) -> RiskServerStats {
        RiskServerStats {
            assessed: self.assessed.get(),
            flagged: self.flagged.get(),
            malformed: self.malformed.get(),
            swaps: self.swaps.get(),
            batches: self.batches.get(),
            idle_timeouts: self.idle_timeouts.get(),
            stats_requests: self.stats_requests.get(),
            shed: self.shed.get(),
            connections_opened: self.connections_opened.get(),
            connections_closed: self.connections_closed.get(),
            connections_errored: self.connections_errored.get(),
            connections_reaped: self.connections_reaped.get(),
            connections_open: self.connections_open.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            // The cache counters live in the cache layer, when there is
            // one: `RiskServerHandle::stats` fills them in.
            ..Default::default()
        }
    }
}

/// The verdict cache plus its resolved metric handles. Constructed (and
/// its metrics registered) only when [`RiskServerConfig::cache_capacity`]
/// is non-zero, so a cache-disabled server's snapshot is byte-identical
/// to the pre-cache exposition golden.
#[derive(Debug)]
struct CacheLayer {
    cache: VerdictCache<Verdict>,
    clock: Arc<dyn Clock>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    stale_epoch: Arc<Counter>,
    shed_exempt: Arc<Counter>,
    occupancy: Arc<Gauge>,
    hit_micros: Arc<Histogram>,
}

impl CacheLayer {
    fn new(registry: &Registry, shards: usize, capacity: usize) -> Self {
        Self {
            cache: VerdictCache::new(shards, capacity),
            clock: Arc::clone(registry.clock()),
            hits: registry.counter(metric_names::CACHE_HITS),
            misses: registry.counter(metric_names::CACHE_MISSES),
            evictions: registry.counter(metric_names::CACHE_EVICTIONS),
            stale_epoch: registry.counter(metric_names::CACHE_STALE_EPOCH),
            shed_exempt: registry.counter(metric_names::CACHE_SHED_EXEMPT),
            occupancy: registry.gauge(metric_names::CACHE_OCCUPANCY),
            hit_micros: registry.histogram(metric_names::CACHE_HIT_MICROS),
        }
    }

    /// A cache lookup that charges a hit (`cache.hits`, `cache.hit_micros`)
    /// where it happens; what a non-hit costs is the caller's to charge.
    fn lookup(&self, key: u64) -> Lookup<Verdict> {
        let start = self.clock.now_micros();
        let found = self.cache.lookup(key);
        if matches!(found, Lookup::Hit(_)) {
            self.hits.inc();
            self.hit_micros
                .record(self.clock.now_micros().saturating_sub(start));
        }
        found
    }

    /// Normal-path lookup: every submission frame is charged as exactly
    /// one hit or one miss (unkeyable and stale-epoch frames are misses),
    /// so the cache counters balance against the verdict counters. A hit
    /// also charges `local` — to the client a cached answer *is* an
    /// assessment. The frame's key comes back with the answer, so a miss
    /// is stored under it without hashing the frame again.
    fn lookup_for_assess(
        &self,
        frame: &[u8],
        local: &mut LocalCounters,
    ) -> (Option<u64>, Option<Verdict>) {
        let Some(key) = submission_cache_key(frame) else {
            self.misses.inc();
            return (None, None);
        };
        let found = self.lookup(key);
        if let Lookup::Hit(v) = found {
            local.assessed += 1;
            if v.flagged {
                local.flagged += 1;
            }
            return (Some(key), Some(v));
        }
        if matches!(found, Lookup::Stale) {
            self.stale_epoch.inc();
        }
        self.misses.inc();
        (Some(key), None)
    }

    /// Shed-path lookup: a backlog frame the cache can answer is served
    /// (hit + shed-exempt) with no detector lock — consistent with the
    /// shedding contract, which only promises not to *queue*. A frame
    /// the cache cannot answer charges nothing here; the caller answers
    /// `Degraded` and charges `server.frames.shed`.
    fn lookup_shed(&self, frame: &[u8]) -> Option<Verdict> {
        match self.lookup(submission_cache_key(frame)?) {
            Lookup::Hit(v) => {
                self.shed_exempt.inc();
                Some(v)
            }
            Lookup::Stale | Lookup::Miss => None,
        }
    }

    /// Caches an assessed verdict under the key its lookup returned and
    /// the epoch read *before* the detector guard was taken. Error
    /// verdicts are never cached — a malformed frame must stay
    /// malformed-on-arrival, and a shed frame is never cached at all (it
    /// is never assessed).
    fn store(&self, key: u64, epoch: u64, verdict: Verdict) {
        if verdict.status != VerdictStatus::Assessed {
            return;
        }
        if self.cache.insert(key, epoch, verdict).evicted {
            self.evictions.inc();
        }
    }

    fn publish_occupancy(&self) {
        // Current-epoch entries only: stale slots cannot serve a hit, so
        // gauging them would overreport the live cache after every swap.
        let occ = self.cache.current_occupancy().min(i64::MAX as usize) as i64;
        self.occupancy.set(occ);
    }
}

/// Per-connection counters, folded into the shared [`ServerMetrics`]
/// once per drained batch instead of once per frame.
#[derive(Debug, Default)]
struct LocalCounters {
    assessed: usize,
    flagged: usize,
    malformed: usize,
}

impl LocalCounters {
    fn fold_into(&self, metrics: &ServerMetrics) {
        if self.assessed > 0 {
            metrics.assessed.add(self.assessed as u64);
        }
        if self.flagged > 0 {
            metrics.flagged.add(self.flagged as u64);
        }
        if self.malformed > 0 {
            metrics.malformed.add(self.malformed as u64);
        }
    }
}

/// Handle to a running risk server.
pub struct RiskServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    detector: Arc<RwLock<Detector>>,
    metrics: Arc<ServerMetrics>,
    cache: Option<Arc<CacheLayer>>,
    /// The shadow-candidate slot shared with every connection worker;
    /// `None` (the common case) costs one uncontended read-guard check
    /// per batch.
    shadow: Arc<RwLock<Option<ShadowScorer>>>,
    /// Whether published models are compiled onto the quantized fast
    /// path ([`RiskServerConfig::quantized`]).
    quantized: bool,
    /// Registry version of the serving model; `0` while the server still
    /// serves its boot detector (no versioned publish yet). Stored after
    /// the swap, so a reader observing version `v` is guaranteed the
    /// serving detector is at least `v` — fleet rollout relies on this
    /// to prove a node has (or has not) been reached.
    model_version: Arc<AtomicU64>,
    /// The acceptor thread (threaded backend) or the shard scan-loop
    /// threads (reactor backend).
    workers: Vec<thread::JoinHandle<()>>,
}

impl RiskServerHandle {
    /// The listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time copy of the shared counters.
    pub fn stats(&self) -> RiskServerStats {
        let mut stats = self.metrics.stats();
        if let Some(cache) = &self.cache {
            stats.cache_hits = cache.hits.get();
            stats.cache_misses = cache.misses.get();
            stats.cache_evictions = cache.evictions.get();
            stats.cache_stale_epoch = cache.stale_epoch.get();
            stats.cache_shed_exempt = cache.shed_exempt.get();
        }
        stats
    }

    /// The verdict-cache model epoch, or `None` while the cache is
    /// disabled. Advances on every [`Self::swap_detector`].
    pub fn cache_epoch(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.cache.epoch())
    }

    /// The server's metrics registry (counters, histograms, spans). The
    /// orchestrator records its drift/retrain metrics here so one `STATS`
    /// frame exposes the whole pipeline.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.metrics.registry())
    }

    /// A full metrics snapshot for in-process callers — the same data a
    /// `STATS` wire frame returns.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.registry().snapshot()
    }

    /// A handle to the serving detector slot (for the orchestrator).
    pub fn detector_slot(&self) -> Arc<RwLock<Detector>> {
        Arc::clone(&self.detector)
    }

    /// A copy of the serving model, cloned out so the slot's read guard
    /// is released before the caller measures against it: a drift
    /// checkpoint or a rollout replay under the guard would starve
    /// [`Self::swap_detector`] and every serving writer for its whole
    /// duration (POLY-L002).
    pub(crate) fn serving_model(&self) -> TrainedModel {
        self.detector.read().model().clone()
    }

    /// Atomically replaces the serving detector. In-flight assessments
    /// finish on the old model; the next frame uses the new one. With the
    /// verdict cache enabled this also invalidates every cached verdict
    /// by bumping the model epoch — O(1), no shard draining; stale
    /// entries lazily miss.
    ///
    /// Ordering matters: the epoch is bumped *after* the detector write
    /// guard is released. A concurrent batch that assessed under the old
    /// model read its insert epoch before taking the detector read guard
    /// — i.e. before this write guard could have been acquired — so its
    /// entries always carry a pre-bump epoch and can never be served at
    /// the new one. The benign race (a new-model verdict tagged with the
    /// old epoch) costs one extra miss, never a stale answer.
    pub fn swap_detector(&self, detector: Detector) {
        *self.detector.write() = detector;
        self.metrics.swaps.inc();
        if let Some(cache) = &self.cache {
            cache.cache.bump_epoch();
        }
    }

    /// Builds and publishes a fresh serving detector from a trained
    /// model — the quantize-at-publish step. On a server configured
    /// with [`RiskServerConfig::quantized`] the detector is compiled
    /// onto the fused fixed-point path before the swap; compilation is
    /// best-effort here, because a retrained model the compiler rejects
    /// must still replace the old one — it then serves on the staged
    /// path, which answers identically (just slower). Everything
    /// [`Self::swap_detector`] guarantees (atomic swap, epoch bump)
    /// applies unchanged.
    pub fn publish_model(&self, model: TrainedModel) {
        self.swap_detector(self.prepare_detector(model));
    }

    /// A detector for `model`, compiled onto the quantized fast path on a
    /// [`RiskServerConfig::quantized`] server — best-effort, see
    /// [`Self::publish_model`].
    fn prepare_detector(&self, model: TrainedModel) -> Detector {
        let mut detector = Detector::new(model);
        if self.quantized {
            let _ = detector.quantize();
        }
        detector
    }

    /// [`Self::publish_model`] tagged with the registry version the
    /// model was published under, so fleet rollout (and its tests) can
    /// ask which model a node is serving. The version is stored *after*
    /// the swap: observing `active_model_version() == v` proves the
    /// serving detector is at least version `v`.
    pub fn publish_model_versioned(&self, model: TrainedModel, version: u64) {
        self.publish_model(model);
        self.model_version.store(version, Ordering::SeqCst);
    }

    /// The registry version stored by the last
    /// [`Self::publish_model_versioned`], or `0` while the server still
    /// serves its boot detector.
    pub fn active_model_version(&self) -> u64 {
        self.model_version.load(Ordering::SeqCst)
    }

    /// Attaches `model` as a shadow candidate on the live serve path.
    /// From the next batch on, every decoded session is scored by both
    /// the serving detector and the candidate; the candidate's verdicts
    /// are discarded after comparison, so nothing the client observes
    /// changes — only the `orchestrator.shadow.compared` /
    /// `orchestrator.shadow.diverged` counters move. On a
    /// [`RiskServerConfig::quantized`] server the candidate is compiled
    /// onto the same fast path (best-effort, exactly as
    /// [`Self::publish_model`] does), so the comparison exercises the
    /// code path the candidate would serve on if promoted.
    pub fn attach_shadow(&self, model: TrainedModel) {
        let registry = self.metrics.registry();
        let scorer = ShadowScorer {
            detector: Arc::new(self.prepare_detector(model)),
            compared: registry.counter(crate::orchestrator::metric_names::SHADOW_COMPARED),
            diverged: registry.counter(crate::orchestrator::metric_names::SHADOW_DIVERGED),
        };
        *self.shadow.write() = Some(scorer);
    }

    /// Detaches the shadow candidate, if any; double-scoring stops with
    /// the next batch. The shadow counters stay registered and keep
    /// their totals — callers track a candidate's window by delta from
    /// the values read at attach time.
    pub fn detach_shadow(&self) {
        *self.shadow.write() = None;
    }

    /// Whether a shadow candidate is currently attached.
    pub fn shadow_attached(&self) -> bool {
        self.shadow.read().is_some()
    }

    /// Cumulative `(compared, diverged)` shadow counters, or `None`
    /// when no candidate is attached.
    pub fn shadow_counts(&self) -> Option<(u64, u64)> {
        self.shadow
            .read()
            .as_ref()
            .map(|s| (s.compared.get(), s.diverged.get()))
    }

    /// Stops the acceptor *and* every connection worker, then joins them.
    /// Threaded workers check the stop flag on every loop, so this
    /// returns within roughly one read-timeout tick even with
    /// connected-but-silent clients; reactor shards read the flag at the
    /// top of every scan and exit within one scan interval.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A retrain candidate riding the live serve path. The candidate
/// assesses the same decoded sessions as the serving detector; its
/// verdicts are compared and then discarded — a shadow verdict never
/// reaches the wire. Both counters are resolved at attach time, so a
/// server that never shadows registers nothing and its metrics
/// exposition is byte-identical to a build without this feature.
#[derive(Clone)]
struct ShadowScorer {
    /// Behind an `Arc` so the batch path can clone the scorer out of
    /// the slot and assess with no lock held.
    detector: Arc<Detector>,
    /// `orchestrator.shadow.compared` — sessions double-scored.
    compared: Arc<Counter>,
    /// `orchestrator.shadow.diverged` — double-scored sessions where
    /// the candidate disagreed with the serving verdict.
    diverged: Arc<Counter>,
}

/// Everything a connection worker needs, cloned per accept.
#[derive(Clone)]
struct ConnContext {
    detector: Arc<RwLock<Detector>>,
    metrics: Arc<ServerMetrics>,
    cache: Option<Arc<CacheLayer>>,
    shadow: Arc<RwLock<Option<ShadowScorer>>>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
    shed_limit: usize,
}

/// Starts a risk server on `addr` (use `127.0.0.1:0` for an ephemeral
/// port) serving `detector`, with the default production configuration.
pub fn start_risk_server(addr: &str, detector: Detector) -> io::Result<RiskServerHandle> {
    start_risk_server_with(addr, detector, RiskServerConfig::default())
}

/// [`start_risk_server`] with explicit timeouts and an injected clock.
pub fn start_risk_server_with(
    addr: &str,
    detector: Detector,
    config: RiskServerConfig,
) -> io::Result<RiskServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;

    let mut detector = detector;
    if config.quantized {
        // The initial model is compiled up front; failure here is a
        // configuration error (the operator asked for the fast path and
        // this model cannot provide it), not something to paper over.
        detector
            .quantize()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let detector = Arc::new(RwLock::new(detector));
    let registry = Arc::new(Registry::new(Arc::clone(&config.clock)));
    let cache = (config.cache_capacity > 0).then(|| {
        Arc::new(CacheLayer::new(
            &registry,
            config.cache_shards,
            config.cache_capacity,
        ))
    });
    let metrics = Arc::new(ServerMetrics::new(registry));
    let shadow: Arc<RwLock<Option<ShadowScorer>>> = Arc::new(RwLock::new(None));

    let ctx = ConnContext {
        detector: Arc::clone(&detector),
        metrics: Arc::clone(&metrics),
        cache: cache.clone(),
        shadow: Arc::clone(&shadow),
        stop: Arc::clone(&stop),
        read_timeout: config.read_timeout,
        shed_limit: config.shed_limit,
    };

    let mut workers = Vec::new();
    match config.backend {
        ServerBackend::Threaded => {
            workers.push(thread::spawn(move || acceptor_loop(listener, ctx)));
        }
        ServerBackend::Reactor => {
            for _ in 0..resolve_reactor_shards(config.reactor_shards) {
                let shard_listener = listener.try_clone()?;
                let shard_ctx = ctx.clone();
                workers.push(thread::spawn(move || {
                    reactor_shard_loop(shard_listener, shard_ctx)
                }));
            }
        }
    }

    Ok(RiskServerHandle {
        addr: local,
        stop,
        detector,
        metrics,
        cache,
        shadow,
        quantized: config.quantized,
        model_version: Arc::new(AtomicU64::new(0)),
        workers,
    })
}

/// Shard count for the reactor backend: the configured value, or (at 0)
/// one shard per available core, capped at 8.
fn resolve_reactor_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

fn acceptor_loop(listener: TcpListener, ctx: ConnContext) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !ctx.stop.load(Ordering::SeqCst) {
        // Reap finished workers every iteration so a long-running server
        // holds handles only for live connections.
        reap_finished(&mut workers, &ctx.metrics);
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.metrics.connections_opened.inc();
                ctx.metrics.connections_open.add(1);
                let conn = ctx.clone();
                workers.push(thread::spawn(move || {
                    match serve_connection(stream, &conn) {
                        Ok(()) => conn.metrics.connections_closed.inc(),
                        Err(_) => conn.metrics.connections_errored.inc(),
                    }
                    conn.metrics.connections_open.add(-1);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    // Final joins at shutdown: workers observe the stop flag within one
    // read-timeout tick. These are not counted as reaps — `reaped` means
    // reclaimed while the server kept running.
    for w in workers {
        let _ = w.join();
    }
}

fn reap_finished(workers: &mut Vec<thread::JoinHandle<()>>, metrics: &ServerMetrics) {
    if workers.iter().all(|h| !h.is_finished()) {
        return;
    }
    let mut live = Vec::with_capacity(workers.len());
    for handle in workers.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
            metrics.connections_reaped.inc();
        } else {
            live.push(handle);
        }
    }
    *workers = live;
}

/// Whether a read error is the socket timeout firing (Unix reports
/// `WouldBlock` for `SO_RCVTIMEO`, Windows `TimedOut`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Pulls whatever the peer already sent off a non-blocking `stream` into
/// `acc`, in 4 KiB chunks, until enough complete frames are buffered, the
/// socket would block, or the peer closed; returns the bytes read and
/// whether end-of-stream was seen. Both cores fill their accumulator
/// through this one loop.
///
/// "Enough" is one batch plus the shed threshold plus one, so an
/// overloaded connection's backlog becomes *visible* instead of queueing
/// invisibly (and unboundedly) in kernel buffers.
fn read_buffered(
    stream: &mut TcpStream,
    acc: &mut FrameAccumulator,
    ctx: &ConnContext,
) -> io::Result<(usize, bool)> {
    let target = MAX_BATCH_PER_GUARD
        .saturating_add(ctx.shed_limit)
        .saturating_add(1);
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    while acc.ready_frames() < target {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => {
                ctx.metrics.bytes_read.add(n as u64);
                acc.extend(chunk.get(..n).unwrap_or_default());
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok((total, false))
}

fn serve_connection(mut stream: TcpStream, ctx: &ConnContext) -> io::Result<()> {
    stream.set_read_timeout(Some(ctx.read_timeout))?;
    // A peer that stops reading must not block shutdown forever either.
    stream.set_write_timeout(Some(ctx.read_timeout))?;
    stream.set_nodelay(true)?;
    let metrics = &ctx.metrics;
    let mut acc = FrameAccumulator::new();
    let mut memo = UaMemo::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Blocking phase: wait until at least one complete frame (or an
        // oversize header) is buffered. Timeout ticks with an empty
        // buffer are keep-alive idleness, not failures; a timeout with a
        // stalled partial frame is.
        while acc.status() == FrameStatus::NeedMore {
            if ctx.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // peer closed at (or mid-) frame boundary
                Ok(n) => {
                    metrics.bytes_read.add(n as u64);
                    acc.extend(chunk.get(..n).unwrap_or_default());
                }
                Err(e) if is_timeout(&e) => {
                    if acc.is_empty() {
                        metrics.idle_timeouts.inc();
                        continue;
                    }
                    return Err(e); // partial frame stalled past the timeout
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if ctx.stop.load(Ordering::SeqCst) {
            return Ok(());
        }

        // Drain phase: pull in whatever else the client already pipelined,
        // without blocking, so the whole backlog shares one read guard.
        // (End-of-stream seen here is met again by the next blocking read.)
        stream.set_nonblocking(true)?;
        let drained = read_buffered(&mut stream, &mut acc, ctx);
        stream.set_nonblocking(false)?;
        drained?;

        let outcome = process_buffered(&mut acc, &mut memo, ctx);
        if outcome.close {
            // Cannot resynchronise past an unread oversize body: flush the
            // answered frames best-effort, then close cleanly.
            let _ = stream.write_all(&outcome.out);
            return Ok(());
        }
        stream.write_all(&outcome.out)?;
    }
}

/// Outcome of one shared batch cycle over a connection's buffered input.
struct BatchOutcome {
    /// Reply bytes in frame order: batch verdicts, then any shed-path
    /// answers, then (on oversize) the final malformed verdict.
    out: Vec<u8>,
    /// Parsing stopped at an oversize header: after flushing `out` the
    /// connection must close — there is no way to resynchronise.
    close: bool,
}

/// One reply of a batch cycle, in the order its frame arrived.
enum Reply {
    /// A `STATS` frame: answered with a rendered metrics snapshot.
    Stats,
    /// A submission frame's verdict.
    Verdict(Verdict),
}

impl Reply {
    /// Appends the wire form to `out` — the one place a `STATS` frame is
    /// counted and answered and a verdict is encoded. `snapshot` caches
    /// the rendered JSON between calls: a batch shares one (rendered at
    /// its first `STATS` frame), a caller passing a fresh `None` gets a
    /// fresh snapshot.
    fn encode_into(
        &self,
        out: &mut Vec<u8>,
        metrics: &ServerMetrics,
        snapshot: &mut Option<Vec<u8>>,
    ) {
        match self {
            Reply::Stats => {
                metrics.stats_requests.inc();
                let json = snapshot.get_or_insert_with(|| {
                    metrics.registry().snapshot().render_json().into_bytes()
                });
                out.extend_from_slice(&encode_stats_response(json));
            }
            Reply::Verdict(v) => out.extend_from_slice(&v.encode()),
        }
    }
}

/// The assess–reply–shed cycle both backends run once at least one
/// complete frame (or an oversize header) is buffered. Splits one batch
/// off `acc`, answers it (cache lookups, then one detector read guard for
/// the misses, replies in frame order), sheds any backlog beyond the shed
/// limit, and appends the closing malformed verdict when parsing stopped
/// at an oversize header. Every counter is charged here, identically for
/// both cores — the backends differ only in how `out` reaches the socket.
fn process_buffered(
    acc: &mut FrameAccumulator,
    memo: &mut UaMemo,
    ctx: &ConnContext,
) -> BatchOutcome {
    let metrics = &ctx.metrics;
    let cache = ctx.cache.as_deref();
    let (frames, mut oversize) = acc.split(MAX_BATCH_PER_GUARD);

    // Lookup phase: one reply per frame, in frame order. A cache hit is
    // final; a miss holds `Malformed` until the detector phase says
    // otherwise, and is remembered as (reply index, cache key) — no key
    // for an unkeyable frame or a disabled cache.
    let mut local = LocalCounters::default();
    let mut replies: Vec<Reply> = Vec::with_capacity(frames.len());
    let mut misses: Vec<(usize, Option<u64>)> = Vec::new();
    let mut any_submission = false;
    for f in &frames {
        if is_stats_request(f) {
            replies.push(Reply::Stats);
            continue;
        }
        any_submission = true;
        let (key, hit) = match cache {
            Some(cache) => cache.lookup_for_assess(f, &mut local),
            None => (None, None),
        };
        if hit.is_none() {
            misses.push((replies.len(), key));
        }
        replies.push(Reply::Verdict(
            hit.unwrap_or(Verdict::error(VerdictStatus::Malformed)),
        ));
    }

    // Detector phase: one read guard for whatever the cache could not
    // answer; a model swap therefore lands between batches, never inside
    // one.
    if !misses.is_empty() {
        let span = polygraph_obs::Span::on(
            Arc::clone(&metrics.batch_micros),
            Arc::clone(metrics.registry().clock()),
        );
        let n_misses = misses.len();
        // Decode the missed frames BEFORE taking the guard: frames that
        // fail to decode never need the detector at all (they keep their
        // `Malformed`), and the surviving sessions feed one batched
        // dispatch, so the read guard is held for exactly one
        // `assess_many` call per batch — on a quantized server that is
        // one fused fixed-point pass over the whole batch.
        let mut sessions: Vec<(Vec<f64>, UserAgent)> = Vec::with_capacity(n_misses);
        misses.retain(
            |&(at, _)| match frames.get(at).and_then(|f| decode_session(f, memo)) {
                Some(session) => {
                    sessions.push(session);
                    true
                }
                None => {
                    local.malformed += 1;
                    false
                }
            },
        );
        // The insert epoch is read BEFORE the detector guard is taken: if
        // a swap lands in between, these verdicts are tagged with the
        // pre-swap epoch and harmlessly miss forever — a stale verdict
        // can never be served at the new epoch (see
        // `RiskServerHandle::swap_detector`).
        let insert_epoch = cache.map(|c| c.cache.epoch());
        let assessments = {
            let guard = ctx.detector.read();
            guard.assess_many(&sessions)
        };
        shadow_compare(ctx, &sessions, &assessments);
        // `assess_many` returns one result per session, in order.
        for ((at, key), result) in misses.into_iter().zip(assessments) {
            let v = verdict_from_assessment(result, &mut local);
            if let (Some(cache), Some(epoch), Some(key)) = (cache, insert_epoch, key) {
                cache.store(key, epoch, v);
            }
            if let Some(reply) = replies.get_mut(at) {
                *reply = Reply::Verdict(v);
            }
        }
        span.finish();
        metrics.batches.inc();
        metrics.batch_frames.record(n_misses as u64);
    }
    if any_submission {
        if let Some(cache) = cache {
            cache.publish_occupancy();
        }
        // Folded before the replies render, so a `STATS` frame sees
        // every assessment of its own batch.
        local.fold_into(metrics);
    }

    let mut out = Vec::with_capacity(replies.len() * crate::proto::VERDICT_LEN);
    let mut batch_snapshot = None;
    for reply in &replies {
        reply.encode_into(&mut out, metrics, &mut batch_snapshot);
    }
    metrics.bytes_written.add(out.len() as u64);

    // Overload shedding: complete frames still queued beyond the shed
    // threshold after this batch are answered *now* with `Degraded` —
    // no assessment, no detector lock — instead of waiting behind
    // future batches. The risk verdict is one signal in a risk-based
    // authentication flow; under overload a fast "could not assess"
    // beats an unbounded queue. `STATS` frames in the backlog are
    // still answered, each with a snapshot of its own (they are cheap
    // and lock nothing). A backlog frame the verdict cache can answer
    // is served from cache — also detector-free, so it respects the
    // shedding contract — while a cache-missed shed frame is never
    // assessed and therefore never cached.
    if !oversize && acc.ready_frames() > ctx.shed_limit {
        let (backlog, backlog_oversize) = acc.split(usize::MAX);
        let answered = out.len();
        let mut shed_count = 0u64;
        for f in &backlog {
            let reply = if is_stats_request(f) {
                Reply::Stats
            } else if let Some(v) = cache.and_then(|c| c.lookup_shed(f)) {
                Reply::Verdict(v)
            } else {
                shed_count += 1;
                Reply::Verdict(Verdict::error(VerdictStatus::Degraded))
            };
            reply.encode_into(&mut out, metrics, &mut None);
        }
        metrics.shed.add(shed_count);
        metrics
            .bytes_written
            .add(out.len().saturating_sub(answered) as u64);
        oversize = backlog_oversize;
    }

    if oversize {
        metrics.malformed.inc();
        let err = Verdict::error(VerdictStatus::Malformed).encode();
        metrics.bytes_written.add(err.len() as u64);
        out.extend_from_slice(&err);
    }
    BatchOutcome {
        out,
        close: oversize,
    }
}

/// Double-scores one batch's decoded sessions against the shadow
/// candidate, if one is attached. The slot guard is released before the
/// candidate assesses (the detector handle is cloned out), so shadow
/// scoring never holds a lock and can never extend a pending model
/// swap's wait. Shadow verdicts are discarded after comparison — only
/// the agreement counters survive.
fn shadow_compare(
    ctx: &ConnContext,
    sessions: &[(Vec<f64>, UserAgent)],
    live: &[Result<Assessment, PolygraphError>],
) {
    if sessions.is_empty() {
        return;
    }
    let Some(scorer) = ctx.shadow.read().clone() else {
        return;
    };
    let shadow = scorer.detector.assess_many(sessions);
    let disagreements = live
        .iter()
        .zip(&shadow)
        .filter(|(a, b)| !verdicts_agree(a, b))
        .count();
    scorer.compared.add(sessions.len() as u64);
    if disagreements > 0 {
        scorer.diverged.add(disagreements as u64);
    }
}

/// One reactor connection slot: the owned non-blocking socket plus its
/// state machine and activity bookkeeping.
struct ConnSlot {
    stream: TcpStream,
    machine: ConnMachine,
    /// Per-connection user-agent parse memo (see [`UaMemo`]).
    memo: UaMemo,
    /// Clock micros of the last read/write progress (or idle tick).
    last_activity: u64,
}

/// How a slot leaves (or stays in) the shard's connection list.
enum SlotFate {
    Keep,
    Closed,
    Errored,
}

/// One reactor shard: accepts from its clone of the shared non-blocking
/// listener and serves every accepted connection on this single thread
/// through per-connection [`ConnMachine`]s. Each pass drains the
/// listener, drives every slot once, and parks for [`SCAN_INTERVAL`]
/// only when it accepted nothing and moved no byte; the stop flag is
/// read at the top of every pass, so shutdown takes one scan interval.
/// Counter semantics mirror the threaded backend exactly: idle
/// keep-alive ticks survive, stalled partial frames and stuck writes
/// error, slots reclaimed while serving count as reaped, and slots
/// closed by shutdown count only as closed.
fn reactor_shard_loop(listener: TcpListener, ctx: ConnContext) {
    // The injected server clock: idle deadlines never read a wall clock.
    let clock = Arc::clone(ctx.metrics.registry().clock());
    let mut conns: Vec<ConnSlot> = Vec::new();
    let timeout_us = ctx.read_timeout.as_micros().min(u64::MAX as u128) as u64;
    'run: while !ctx.stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // Accept every pending connection. All shards share the
        // non-blocking listener, so `WouldBlock` may just mean another
        // shard got there first.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    ctx.metrics.connections_opened.inc();
                    let prepared = stream
                        .set_nonblocking(true)
                        .and_then(|()| stream.set_nodelay(true));
                    if prepared.is_err() {
                        ctx.metrics.connections_errored.inc();
                        continue;
                    }
                    ctx.metrics.connections_open.add(1);
                    conns.push(ConnSlot {
                        stream,
                        machine: ConnMachine::new(),
                        memo: UaMemo::new(),
                        last_activity: clock.now_micros(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break 'run,
            }
        }

        let now = clock.now_micros();
        conns.retain_mut(|slot| {
            let mut fate = drive_slot(slot, &ctx, now, &mut progressed);
            // Idle / stall sweep — the reactor mirror of the threaded
            // backend's read-timeout semantics: an idle keep-alive client
            // survives (and is counted); a stalled partial frame or a
            // write the peer will not drain fails the connection.
            if matches!(fate, SlotFate::Keep)
                && now.saturating_sub(slot.last_activity) >= timeout_us
            {
                if slot.machine.has_partial_input() || slot.machine.wants_write() {
                    fate = SlotFate::Errored;
                } else {
                    ctx.metrics.idle_timeouts.inc();
                    slot.last_activity = now;
                }
            }
            match fate {
                SlotFate::Keep => return true,
                SlotFate::Closed => ctx.metrics.connections_closed.inc(),
                SlotFate::Errored => ctx.metrics.connections_errored.inc(),
            }
            ctx.metrics.connections_open.add(-1);
            // Reclaimed while the shard kept serving — the reactor's
            // analogue of the threaded backend's worker reap.
            ctx.metrics.connections_reaped.inc();
            false
        });

        if !progressed {
            thread::sleep(SCAN_INTERVAL);
        }
    }

    // Shutdown (or a fatal listener error): remaining connections close
    // cleanly, exactly like threaded workers observing the stop flag.
    // Not counted as reaped — `reaped` means reclaimed while the server
    // kept running.
    for _slot in conns {
        ctx.metrics.connections_closed.inc();
        ctx.metrics.connections_open.add(-1);
    }
}

/// Runs one scan's worth of work on a slot: non-blocking reads into the
/// state machine, the shared batch path over whatever frames became
/// complete, and a flush of queued output. Sets `progressed` when a byte
/// moved in either direction.
fn drive_slot(slot: &mut ConnSlot, ctx: &ConnContext, now: u64, progressed: &mut bool) -> SlotFate {
    // Nothing is read while replies are still queued: a peer that
    // pipelines and never reads must fill its own socket and stall
    // (caught by the sweep), not grow the reply buffer without bound —
    // the threaded core's blocking `write_all` gives the same
    // back-pressure.
    if !slot.machine.saw_eof() && !slot.machine.close_requested() && !slot.machine.wants_write() {
        match read_buffered(&mut slot.stream, slot.machine.accumulator_mut(), ctx) {
            Ok((bytes, eof)) => {
                if bytes > 0 {
                    slot.last_activity = now;
                    *progressed = true;
                }
                if eof {
                    slot.machine.on_eof();
                }
            }
            Err(_) => return SlotFate::Errored,
        }
    }

    // Process every complete frame now buffered, one batch cycle at a
    // time — identical batch/shed accounting to the threaded backend.
    while (slot.machine.frames_ready() > 0 || slot.machine.input_oversize())
        && !slot.machine.close_requested()
    {
        let outcome = process_buffered(slot.machine.accumulator_mut(), &mut slot.memo, ctx);
        slot.machine.queue_output(&outcome.out, outcome.close);
    }

    // Flush whatever is queued; `WouldBlock` pauses until the next scan,
    // so a slow reader never blocks the shard.
    if slot.machine.wants_write() {
        let mut sink = &slot.stream;
        match slot.machine.flush_into(&mut sink) {
            Ok(progress) => {
                if progress.wrote > 0 {
                    slot.last_activity = now;
                    *progressed = true;
                }
            }
            Err(_) => {
                // A write failure after a close was requested matches the
                // threaded path's best-effort final flush: a clean close.
                return if slot.machine.close_requested() {
                    SlotFate::Closed
                } else {
                    SlotFate::Errored
                };
            }
        }
    }

    if slot.machine.should_close() {
        return SlotFate::Closed;
    }
    if slot.machine.saw_eof() && !slot.machine.wants_write() && slot.machine.frames_ready() == 0 {
        // Peer closed and everything answerable is answered — a clean
        // close even mid-partial-frame, matching the threaded `Ok(0)`.
        return SlotFate::Closed;
    }
    SlotFate::Keep
}

/// Decodes a submission frame and assesses it against the serving model
/// — the single-frame form of the TCP path, for in-process callers (the
/// CLI). Takes the detector lock for the one assessment and charges the
/// counters in `registry`; the TCP path amortises both over whole batches.
pub fn assess_frame(frame: &[u8], detector: &RwLock<Detector>, registry: &Registry) -> Verdict {
    let mut local = LocalCounters::default();
    let verdict = match decode_session(frame, &mut UaMemo::new()) {
        Some((values, claimed)) => {
            let result = {
                let guard = detector.read();
                guard.assess(&values, claimed)
            };
            verdict_from_assessment(result, &mut local)
        }
        None => {
            local.malformed += 1;
            Verdict::error(VerdictStatus::Malformed)
        }
    };
    for (count, name) in [
        (local.assessed, metric_names::ASSESSED),
        (local.flagged, metric_names::FLAGGED),
        (local.malformed, metric_names::MALFORMED),
    ] {
        if count > 0 {
            registry.counter(name).add(count as u64);
        }
    }
    verdict
}

/// Slots in a connection's [`UaMemo`]. The distinct user-agent
/// population per connection is tiny (a few dozen catalogue releases),
/// so a small direct-mapped table hits almost always.
const UA_MEMO_SLOTS: usize = 64;

/// Per-connection memo of parsed user-agent strings, direct-mapped by
/// FNV-1a of the raw bytes.
///
/// Submission traffic repeats a tiny distinct UA population (the
/// paper's coarse-fingerprint premise), so the serve path pays the
/// multi-token sniffing parse once per distinct string per connection
/// instead of once per frame. Deterministic by construction: the fixed
/// hash picks a slot and an exact string comparison guards the hit, so
/// a collision merely re-parses — it can never mis-attribute a result.
#[derive(Debug)]
struct UaMemo {
    slots: Vec<Option<(String, UserAgent)>>,
}

impl UaMemo {
    fn new() -> Self {
        Self {
            slots: vec![None; UA_MEMO_SLOTS],
        }
    }

    /// Parses `ua`, answering from the memo when the exact string was
    /// seen before. Parse failures are not memoised (malformed frames
    /// are the rare path and already charged as such).
    fn parse(&mut self, ua: &str) -> Option<UserAgent> {
        let slot = (fnv1a64(ua.as_bytes()) % UA_MEMO_SLOTS as u64) as usize;
        if let Some(Some((cached, parsed))) = self.slots.get(slot) {
            if cached == ua {
                return Some(*parsed);
            }
        }
        let parsed = ua.parse::<UserAgent>().ok()?;
        if let Some(entry) = self.slots.get_mut(slot) {
            *entry = Some((ua.to_string(), parsed));
        }
        Some(parsed)
    }
}

/// Decodes a submission frame into an assessable session: feature row
/// plus claimed user-agent. `None` covers both failure modes the single
/// frame path answers `Malformed` for (undecodable frame, unparseable
/// user-agent string). Works from the borrowed wire view, so the only
/// per-frame allocation is the feature row itself.
fn decode_session(frame: &[u8], memo: &mut UaMemo) -> Option<(Vec<f64>, UserAgent)> {
    let view = decode_submission_view(frame).ok()?;
    let claimed = memo.parse(view.user_agent())?;
    let mut values = Vec::with_capacity(view.value_count());
    values.extend(view.values_u32().map(f64::from));
    Some((values, claimed))
}

/// Maps one assessment result onto the wire verdict, charging the local
/// counters — the single source of the verdict/counter semantics for
/// both the single-frame path and the batched miss drain.
fn verdict_from_assessment(
    result: Result<Assessment, PolygraphError>,
    local: &mut LocalCounters,
) -> Verdict {
    match result {
        Ok(a) => {
            local.assessed += 1;
            if a.flagged {
                local.flagged += 1;
            }
            Verdict {
                status: VerdictStatus::Assessed,
                flagged: a.flagged,
                risk_factor: a.risk_factor.min(u8::MAX as u32) as u8,
                predicted_cluster: a.predicted_cluster.min(u8::MAX as usize) as u8,
                expected_cluster: a.expected_cluster.map(|c| c.min(u8::MAX as usize) as u8),
            }
        }
        Err(_) => {
            local.malformed += 1;
            Verdict::error(VerdictStatus::SchemaMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::Vendor;
    use fingerprint::{encode_submission, FeatureSet, Submission};
    use polygraph_core::{TrainConfig, TrainedModel, TrainingSet};

    fn tiny_detector() -> Detector {
        let mut set = TrainingSet::new(2);
        for (base, ua) in [
            (0.0, UserAgent::new(Vendor::Chrome, 60)),
            (10.0, UserAgent::new(Vendor::Chrome, 100)),
            (20.0, UserAgent::new(Vendor::Firefox, 100)),
        ] {
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
        Detector::new(TrainedModel::fit(fs, &set, config).unwrap())
    }

    fn frame_for(values: Vec<u32>, ua: UserAgent) -> Vec<u8> {
        let sub = Submission {
            session_id: [9u8; 16],
            user_agent: ua.to_ua_string(),
            values,
        };
        encode_submission(&sub).unwrap().to_vec()
    }

    #[test]
    fn assess_frame_honest_and_lying() {
        let detector = RwLock::new(tiny_detector());
        let registry = Registry::monotonic();

        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let v = assess_frame(&honest, &detector, &registry);
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert!(!v.flagged);

        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let v = assess_frame(&lying, &detector, &registry);
        assert!(v.flagged);
        assert_eq!(v.risk_factor, 20);
        assert_eq!(registry.counter(metric_names::ASSESSED).get(), 2);
        assert_eq!(registry.counter(metric_names::FLAGGED).get(), 1);
    }

    #[test]
    fn assess_frame_rejects_garbage_and_bad_ua() {
        let detector = RwLock::new(tiny_detector());
        let registry = Registry::monotonic();
        let v = assess_frame(&[1, 2, 3], &detector, &registry);
        assert_eq!(v.status, VerdictStatus::Malformed);

        let sub = Submission {
            session_id: [0u8; 16],
            user_agent: "curl/8.0".into(),
            values: vec![1, 2],
        };
        let frame = encode_submission(&sub).unwrap();
        let v = assess_frame(&frame, &detector, &registry);
        assert_eq!(v.status, VerdictStatus::Malformed);
        assert_eq!(registry.counter(metric_names::MALFORMED).get(), 2);
    }

    #[test]
    fn assess_frame_schema_mismatch() {
        let detector = RwLock::new(tiny_detector());
        let registry = Registry::monotonic();
        let frame = frame_for(vec![1, 2, 3, 4], UserAgent::new(Vendor::Chrome, 100));
        let v = assess_frame(&frame, &detector, &registry);
        assert_eq!(v.status, VerdictStatus::SchemaMismatch);
    }

    #[test]
    fn pipelined_frames_drain_in_batches() {
        // Write many frames before reading a single verdict: the server
        // should answer all of them, in order, using far fewer guard
        // acquisitions than frames.
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();

        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let total = 100usize;
        let mut wire = Vec::new();
        for i in 0..total {
            let frame = if i % 2 == 0 { &honest } else { &lying };
            wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        stream.write_all(&wire).unwrap();

        for i in 0..total {
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            let v = Verdict::decode(&buf).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed, "frame {i}");
            assert_eq!(v.flagged, i % 2 == 1, "verdicts must come back in order");
        }
        drop(stream);

        // Let the connection worker finish folding before reading stats.
        thread::sleep(Duration::from_millis(20));
        let stats = server.stats();
        assert_eq!(stats.assessed, total as u64);
        assert_eq!(stats.flagged, (total / 2) as u64);
        assert!(
            stats.batches >= 1 && stats.batches <= total as u64,
            "got {} batches",
            stats.batches
        );
        // The batch-size histogram reconciles with the counters exactly.
        let snap = server.snapshot();
        let h = snap.histograms.get(metric_names::BATCH_FRAMES).unwrap();
        assert_eq!(h.sum, stats.assessed);
        assert_eq!(h.count, stats.batches);
        assert!(stats.bytes_read as usize >= wire.len());
        assert!(stats.bytes_written as usize >= total * crate::proto::VERDICT_LEN);
        server.shutdown();
    }

    /// A server on the quantized fast path, with or without the verdict
    /// cache, must answer the exact same reply bytes — and charge the
    /// exact same counters — as the staged, uncached default, across
    /// honest, lying, malformed, bad-UA, and wrong-width traffic that
    /// repeats every frame eight times.
    #[test]
    fn quantized_server_answers_byte_identically() {
        const ROUNDS: usize = 8;
        let frames = [
            frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100)),
            frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100)),
            frame_for(vec![0, 0], UserAgent::new(Vendor::Firefox, 100)),
            vec![9, 9, 9], // undecodable → Malformed
            frame_for(vec![1, 2, 3, 4], UserAgent::new(Vendor::Chrome, 100)), // width → SchemaMismatch
            frame_for(vec![10, 10], UserAgent::new(Vendor::Firefox, 100)),
        ];
        let run = |quantized: bool, cache_capacity: usize| {
            let config = RiskServerConfig {
                quantized,
                cache_capacity,
                ..Default::default()
            };
            let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut replies = Vec::new();
            // Round one is answered before the repeats are sent, so a
            // cache has every cacheable verdict by then and the hit
            // count asserted below is exact.
            for rounds in [1, ROUNDS - 1] {
                let mut wire = Vec::new();
                for frame in frames.iter().cycle().take(rounds * frames.len()) {
                    wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
                    wire.extend_from_slice(frame);
                }
                stream.write_all(&wire).unwrap();
                let mut chunk = vec![0u8; rounds * frames.len() * crate::proto::VERDICT_LEN];
                stream.read_exact(&mut chunk).unwrap();
                replies.extend(chunk);
            }
            drop(stream);
            thread::sleep(Duration::from_millis(20));
            let stats = server.stats();
            server.shutdown();
            (replies, stats)
        };
        let (staged_bytes, staged_stats) = run(false, 0);
        for (quantized, cache_capacity) in [(true, 0), (false, 64), (true, 64)] {
            let context = format!("quantized {quantized}, cache capacity {cache_capacity}");
            let (bytes, stats) = run(quantized, cache_capacity);
            assert_eq!(
                bytes, staged_bytes,
                "[{context}] verdict streams must be byte-identical"
            );
            assert_eq!(stats.assessed, staged_stats.assessed, "[{context}]");
            assert_eq!(stats.flagged, staged_stats.flagged, "[{context}]");
            assert_eq!(stats.malformed, staged_stats.malformed, "[{context}]");
            // Four of the six frames are `Assessed`, and only those are
            // ever cached: every repeat of them is a hit.
            let cached_rounds = if cache_capacity > 0 { ROUNDS - 1 } else { 0 };
            assert_eq!(stats.cache_hits, 4 * cached_rounds as u64, "[{context}]");
        }
    }

    /// A connection context built by hand, so a test can drive
    /// `process_buffered` with no socket in the way.
    fn socketless_context(cache_capacity: usize, shed_limit: usize) -> ConnContext {
        let registry = Arc::new(Registry::monotonic());
        let cache =
            (cache_capacity > 0).then(|| Arc::new(CacheLayer::new(&registry, 8, cache_capacity)));
        ConnContext {
            detector: Arc::new(RwLock::new(tiny_detector())),
            metrics: Arc::new(ServerMetrics::new(registry)),
            cache,
            shadow: Arc::new(RwLock::new(None)),
            stop: Arc::new(AtomicBool::new(false)),
            read_timeout: Duration::from_secs(5),
            shed_limit,
        }
    }

    /// One parsed element of a reply byte stream.
    #[derive(Debug, PartialEq)]
    enum Parsed {
        /// `(status, flagged)` of a verdict.
        Verdict(VerdictStatus, bool),
        /// The JSON body of a `STATS` response.
        Stats(String),
    }

    fn parse_replies(mut out: &[u8]) -> Vec<Parsed> {
        use crate::proto::{
            decode_stats_response_header, STATS_RESPONSE_HEADER_LEN, STATS_RESPONSE_MAGIC,
            VERDICT_LEN,
        };
        let mut replies = Vec::new();
        while !out.is_empty() {
            if out.starts_with(&STATS_RESPONSE_MAGIC) {
                let (header, rest) = out.split_at(STATS_RESPONSE_HEADER_LEN);
                let len = decode_stats_response_header(header.try_into().unwrap()).unwrap();
                let (body, rest) = rest.split_at(len);
                replies.push(Parsed::Stats(String::from_utf8(body.to_vec()).unwrap()));
                out = rest;
            } else {
                let (verdict, rest) = out.split_at(VERDICT_LEN);
                let v = Verdict::decode(verdict).unwrap();
                replies.push(Parsed::Verdict(v.status, v.flagged));
                out = rest;
            }
        }
        replies
    }

    /// Every branch of one batch cycle, fed from a hand-built
    /// accumulator: a full batch holding each kind of frame, then a
    /// backlog (shed at `shed_limit: 0`) holding a repeat, a `STATS`
    /// frame and a never-seen frame, then an oversize header. Pins the
    /// exact reply sequence and every counter, with the cache off and on.
    #[test]
    fn one_batch_cycle_answers_every_kind_of_frame_in_order() {
        use VerdictStatus::{Assessed, Degraded, Malformed, SchemaMismatch};
        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let never_seen = frame_for(vec![0, 0], UserAgent::new(Vendor::Chrome, 60));
        let wrong_width = frame_for(vec![1, 2, 3, 4], UserAgent::new(Vendor::Chrome, 100));
        let bad_ua = encode_submission(&Submission {
            session_id: [0u8; 16],
            user_agent: "curl/8.0".into(),
            values: vec![1, 2],
        })
        .unwrap()
        .to_vec();
        let stats_req = fingerprint::encode_stats_request().to_vec();

        let mut bodies: Vec<&[u8]> = vec![
            &honest[..],
            &stats_req[..],
            &honest[..],
            &[9u8, 9, 9][..], // undecodable
            &wrong_width[..],
            &bad_ua[..],
        ];
        // Fill the batch, so what follows is a backlog.
        bodies.resize(MAX_BATCH_PER_GUARD, &lying[..]);
        bodies.extend([&honest[..], &stats_req[..], &never_seen[..]]);
        let mut wire = Vec::new();
        for body in &bodies {
            wire.extend_from_slice(&(body.len() as u16).to_le_bytes());
            wire.extend_from_slice(body);
        }
        wire.extend_from_slice(&2000u16.to_le_bytes()); // oversize header
        let filler = MAX_BATCH_PER_GUARD - 6;

        for cache_capacity in [0usize, 64] {
            let cached = cache_capacity > 0;
            let context = format!("cache capacity {cache_capacity}");
            let ctx = socketless_context(cache_capacity, 0);
            let mut acc = FrameAccumulator::new();
            acc.extend(&wire);
            let outcome = process_buffered(&mut acc, &mut UaMemo::new(), &ctx);
            assert!(outcome.close, "[{context}] an oversize header closes");

            let replies = parse_replies(&outcome.out);
            // `STATS` bodies are checked below; compare the rest by shape.
            let shape: Vec<Parsed> = replies
                .iter()
                .map(|r| match r {
                    Parsed::Verdict(status, flagged) => Parsed::Verdict(*status, *flagged),
                    Parsed::Stats(_) => Parsed::Stats(String::new()),
                })
                .collect();
            let mut expected = vec![
                Parsed::Verdict(Assessed, false),
                Parsed::Stats(String::new()),
                Parsed::Verdict(Assessed, false),
                Parsed::Verdict(Malformed, false),
                Parsed::Verdict(SchemaMismatch, false),
                Parsed::Verdict(Malformed, false),
            ];
            expected.extend((0..filler).map(|_| Parsed::Verdict(Assessed, true)));
            // The backlog: a repeat is served from the cache when there
            // is one, `STATS` is always answered, a never-seen frame is
            // shed; then the oversize header's closing verdict.
            expected.push(if cached {
                Parsed::Verdict(Assessed, false)
            } else {
                Parsed::Verdict(Degraded, false)
            });
            expected.push(Parsed::Stats(String::new()));
            expected.push(Parsed::Verdict(Degraded, false));
            expected.push(Parsed::Verdict(Malformed, false));
            assert_eq!(shape, expected, "[{context}]");

            // The batch's `STATS` frame sees its own batch's assessments;
            // the backlog's is a fresh snapshot.
            let assessed = 2 + filler as u64;
            let stats_bodies: Vec<&String> = replies
                .iter()
                .filter_map(|r| match r {
                    Parsed::Stats(json) => Some(json),
                    Parsed::Verdict(..) => None,
                })
                .collect();
            assert_eq!(stats_bodies.len(), 2, "[{context}]");
            for (json, requests) in stats_bodies.iter().zip([1, 2]) {
                assert!(
                    json.contains(&format!("\"server.frames.assessed\":{assessed}")),
                    "[{context}] {json}"
                );
                assert!(
                    json.contains(&format!("\"server.stats_requests\":{requests}")),
                    "[{context}] {json}"
                );
            }

            let stats = ctx.metrics.stats();
            assert_eq!(stats.assessed, assessed, "[{context}]");
            assert_eq!(stats.flagged, filler as u64, "[{context}]");
            // Three in the batch plus the oversize header.
            assert_eq!(stats.malformed, 4, "[{context}]");
            assert_eq!(stats.shed, if cached { 1 } else { 2 }, "[{context}]");
            assert_eq!(stats.stats_requests, 2, "[{context}]");
            assert_eq!(stats.batches, 1, "[{context}]");
            assert_eq!(stats.bytes_written, outcome.out.len() as u64, "[{context}]");
            if let Some(cache) = ctx.cache.as_deref() {
                // Lookups all precede the detector phase, so the second
                // honest frame of the batch misses like the first.
                assert_eq!(cache.hits.get(), 1, "[{context}]");
                assert_eq!(cache.misses.get(), MAX_BATCH_PER_GUARD as u64 - 1);
                assert_eq!(cache.shed_exempt.get(), 1, "[{context}]");
                // The books balance over every frame that was looked up;
                // the oversize header is charged `malformed` with no
                // frame to look up.
                assert_eq!(
                    cache.hits.get() + cache.misses.get(),
                    stats.assessed + (stats.malformed - 1) + cache.shed_exempt.get(),
                    "[{context}]"
                );
            }
        }
    }

    #[test]
    fn overload_backlog_is_shed_with_degraded() {
        // shed_limit 0: after each assessed batch, every frame still
        // queued is answered `Degraded` instead of waiting.
        let config = RiskServerConfig {
            shed_limit: 0,
            ..Default::default()
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();

        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let total = 400usize;
        let mut wire = Vec::new();
        for i in 0..total {
            let frame = if i % 2 == 0 { &honest } else { &lying };
            wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        stream.write_all(&wire).unwrap();

        let mut assessed = 0usize;
        let mut degraded = 0usize;
        for i in 0..total {
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            let v = Verdict::decode(&buf).unwrap();
            match v.status {
                VerdictStatus::Assessed => {
                    // Responses stay in frame order, so an assessed
                    // frame's verdict is position-determined — shedding
                    // must never produce a garbage verdict.
                    assert_eq!(v.flagged, i % 2 == 1, "frame {i} out of order");
                    assessed += 1;
                }
                VerdictStatus::Degraded => {
                    assert!(!v.flagged);
                    degraded += 1;
                }
                other => panic!("frame {i}: unexpected status {other:?}"),
            }
        }
        assert_eq!(assessed + degraded, total);
        assert!(degraded > 0, "a 400-frame burst at shed_limit 0 must shed");
        assert!(assessed > 0, "each guard cycle still assesses a batch");

        drop(stream);
        thread::sleep(Duration::from_millis(20));
        let stats = server.stats();
        assert_eq!(stats.assessed as usize, assessed);
        assert_eq!(stats.shed as usize, degraded);
        assert_eq!(stats.malformed, 0);
        server.shutdown();
    }

    #[test]
    fn sequential_clients_never_shed() {
        let config = RiskServerConfig {
            shed_limit: 0,
            ..Default::default()
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let frame = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        // Strictly request/response: there is never a queued backlog, so
        // even the most aggressive shed_limit degrades nothing.
        for _ in 0..10 {
            stream
                .write_all(&(frame.len() as u16).to_le_bytes())
                .unwrap();
            stream.write_all(&frame).unwrap();
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            let v = Verdict::decode(&buf).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed);
        }
        drop(stream);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(server.stats().shed, 0);
        server.shutdown();
    }

    #[test]
    fn server_round_trip_over_tcp() {
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();

        let frame = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        stream
            .write_all(&(frame.len() as u16).to_le_bytes())
            .unwrap();
        stream.write_all(&frame).unwrap();
        let mut buf = [0u8; crate::proto::VERDICT_LEN];
        stream.read_exact(&mut buf).unwrap();
        let v = Verdict::decode(&buf).unwrap();
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert!(!v.flagged);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn stats_frame_returns_snapshot_in_order() {
        use crate::proto::{decode_stats_response_header, STATS_RESPONSE_HEADER_LEN};
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();

        // verdict, STATS, verdict — pipelined in one write.
        let frame = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let stats_req = fingerprint::encode_stats_request();
        let mut wire = Vec::new();
        for body in [&frame[..], &stats_req[..], &frame[..]] {
            wire.extend_from_slice(&(body.len() as u16).to_le_bytes());
            wire.extend_from_slice(body);
        }
        stream.write_all(&wire).unwrap();

        let mut buf = [0u8; crate::proto::VERDICT_LEN];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(
            Verdict::decode(&buf).unwrap().status,
            VerdictStatus::Assessed
        );

        let mut header = [0u8; STATS_RESPONSE_HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let len = decode_stats_response_header(&header).unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        let json = String::from_utf8(body).unwrap();
        assert!(json.contains("\"server.frames.assessed\""));
        assert!(json.contains("\"server.stats_requests\":1"));

        stream.read_exact(&mut buf).unwrap();
        assert_eq!(
            Verdict::decode(&buf).unwrap().status,
            VerdictStatus::Assessed,
            "the verdict after the STATS frame must still arrive, in order"
        );
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn detector_swap_changes_verdicts_live() {
        // Model A knows Chrome 60 at (0,0). Model B is trained with
        // Chrome 60 at (10,10) instead — after the swap the same frame
        // flips from honest to flagged.
        let detector_a = tiny_detector();
        let server = start_risk_server("127.0.0.1:0", detector_a).unwrap();

        let mut set = TrainingSet::new(2);
        for (base, ua) in [
            (10.0, UserAgent::new(Vendor::Chrome, 60)),
            (0.0, UserAgent::new(Vendor::Firefox, 60)),
            (20.0, UserAgent::new(Vendor::Firefox, 100)),
        ] {
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
        let detector_b = Detector::new(TrainedModel::fit(fs, &set, config).unwrap());

        let frame = frame_for(vec![0, 0], UserAgent::new(Vendor::Chrome, 60));
        let ask = |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .write_all(&(frame.len() as u16).to_le_bytes())
                .unwrap();
            stream.write_all(&frame).unwrap();
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            Verdict::decode(&buf).unwrap()
        };

        assert!(
            !ask(server.local_addr()).flagged,
            "model A: (0,0) is Chrome 60"
        );
        server.swap_detector(detector_b);
        assert!(
            ask(server.local_addr()).flagged,
            "model B: (0,0) is Firefox territory"
        );
        assert_eq!(server.stats().swaps, 1);
        server.shutdown();
    }
}
