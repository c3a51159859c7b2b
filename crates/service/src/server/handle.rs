//! The running server: [`RiskServerHandle`] (stats, the versioned
//! publish that is the only door into the serving slot, the shadow
//! slot, shutdown), the context every connection shares, and
//! [`start_risk_server_with`], which binds the listener and spawns the
//! chosen connection core.

use super::cache::CacheLayer;
use super::config::{RiskServerConfig, ServerBackend};
use super::metrics::{RiskServerStats, ServerMetrics};
use super::shard::{reactor_shard_loop, ShardCounters};
use super::threaded::acceptor_loop;
use parking_lot::RwLock;
use polygraph_core::{Detector, TrainedModel};
use polygraph_obs::{Counter, Registry, Snapshot};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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
    /// disabled. Advances on every [`Self::publish_model_versioned`].
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

    /// The serving detector slot, for unit tests that probe the lock. Not
    /// a way to swap: a write through it would skip the epoch bump.
    #[cfg(test)]
    pub(crate) fn detector_slot(&self) -> Arc<RwLock<Detector>> {
        Arc::clone(&self.detector)
    }

    /// A copy of the serving model, cloned out so the slot's read guard
    /// is released before the caller measures against it: a drift
    /// checkpoint or a rollout replay under the guard would starve
    /// [`Self::publish_model_versioned`] and every serving writer for
    /// its whole duration (POLY-L002).
    pub(crate) fn serving_model(&self) -> TrainedModel {
        self.detector.read().model().clone()
    }

    /// Atomically replaces the serving detector and invalidates the
    /// verdict cache.
    ///
    /// Ordering matters: the epoch is bumped *after* the detector write
    /// guard is released. A concurrent batch that assessed under the old
    /// model read its insert epoch before taking the detector read guard
    /// — i.e. before this write guard could have been acquired — so its
    /// entries always carry a pre-bump epoch and can never be served at
    /// the new one. The benign race (a new-model verdict tagged with the
    /// old epoch) costs one extra miss, never a stale answer.
    fn swap_detector(&self, detector: Detector) {
        *self.detector.write() = detector;
        self.metrics.swaps.inc();
        if let Some(cache) = &self.cache {
            cache.cache.bump_epoch();
        }
    }

    /// The one way a model reaches the serving slot: builds a detector
    /// for `model`, swaps it in, and records the registry `version` it
    /// was published under. In-flight assessments finish on the old
    /// model; the next frame uses the new one. With the verdict cache
    /// enabled the swap also invalidates every cached verdict by bumping
    /// the model epoch — O(1), no shard draining; stale entries lazily
    /// miss.
    ///
    /// This is also the quantize-at-publish step: on a
    /// [`RiskServerConfig::quantized`] server the detector is compiled
    /// onto the fused fixed-point path first — best-effort, because a
    /// retrained model the compiler rejects must still replace the old
    /// one; it then serves on the staged path, which answers identically
    /// (just slower). The version is stored *after* the swap: observing
    /// `active_model_version() == v` proves the serving detector is at
    /// least version `v`, which fleet rollout relies on.
    pub fn publish_model_versioned(&self, model: TrainedModel, version: u64) {
        self.swap_detector(self.prepare_detector(model));
        self.model_version.store(version, Ordering::SeqCst);
    }

    /// A detector for `model`, compiled onto the quantized fast path on a
    /// [`RiskServerConfig::quantized`] server — best-effort, see
    /// [`Self::publish_model_versioned`].
    fn prepare_detector(&self, model: TrainedModel) -> Detector {
        let mut detector = Detector::new(model);
        if self.quantized {
            let _ = detector.quantize();
        }
        detector
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
    /// [`Self::publish_model_versioned`] does), so the comparison
    /// exercises the code path the candidate would serve on if promoted.
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
pub(super) struct ShadowScorer {
    /// Behind an `Arc` so the batch path can clone the scorer out of
    /// the slot and assess with no lock held.
    pub(super) detector: Arc<Detector>,
    /// `orchestrator.shadow.compared` — sessions double-scored.
    pub(super) compared: Arc<Counter>,
    /// `orchestrator.shadow.diverged` — double-scored sessions where
    /// the candidate disagreed with the serving verdict.
    pub(super) diverged: Arc<Counter>,
}

/// Everything a connection worker needs, cloned per accept.
#[derive(Clone)]
pub(super) struct ConnContext {
    pub(super) detector: Arc<RwLock<Detector>>,
    pub(super) metrics: Arc<ServerMetrics>,
    pub(super) cache: Option<Arc<CacheLayer>>,
    pub(super) shadow: Arc<RwLock<Option<ShadowScorer>>>,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) read_timeout: Duration,
    pub(super) shed_limit: usize,
}

/// Starts a risk server on `addr` (use `127.0.0.1:0` for an ephemeral
/// port) serving `detector` under [`RiskServerConfig::default`] (no
/// cache, staged path — not [`RiskServerConfig::production`]).
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
            let counters = ShardCounters::register(metrics.registry());
            for _ in 0..resolve_reactor_shards(config.reactor_shards) {
                let shard_listener = listener.try_clone()?;
                let shard_ctx = ctx.clone();
                let shard_counters = counters.clone();
                workers.push(thread::spawn(move || {
                    reactor_shard_loop(shard_listener, shard_ctx, shard_counters)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Verdict, VerdictStatus};
    use crate::server::test_support::{frame_for, tiny_detector};
    use browser_engine::{UserAgent, Vendor};
    use fingerprint::FeatureSet;
    use polygraph_core::{TrainConfig, TrainingSet};
    use std::io::{Read, Write};
    use std::net::TcpStream;

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

    /// Runs on the production profile (cached, quantized) so the swap is
    /// checked with everything a versioned publish owes a server: the new
    /// model compiled like the boot one, cached verdicts of the old model
    /// unreachable, and the version naming what serves.
    #[test]
    fn detector_swap_changes_verdicts_live() {
        // Model A knows Chrome 60 at (0,0). Model B is trained with
        // Chrome 60 at (10,10) instead — after the swap the same frame
        // flips from honest to flagged.
        let server = start_risk_server_with(
            "127.0.0.1:0",
            tiny_detector(),
            RiskServerConfig::production(),
        )
        .unwrap();

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
        let model_b = TrainedModel::fit(fs, &set, config).unwrap();

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
        assert_eq!(server.cache_epoch(), Some(0));
        server.publish_model_versioned(model_b, 7);
        assert!(
            ask(server.local_addr()).flagged,
            "model B: (0,0) is Firefox territory"
        );
        assert_eq!(server.stats().swaps, 1);
        assert!(server.detector_slot().read().is_quantized());
        assert_eq!(server.cache_epoch(), Some(1));
        assert_eq!(server.active_model_version(), 7);
        server.shutdown();
    }
}
