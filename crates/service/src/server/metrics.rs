//! The server's metric catalogue ([`metric_names`]), the handles
//! resolved from it once at start-up ([`ServerMetrics`]), the plain-value
//! view tests and operators read ([`RiskServerStats`]), and the
//! per-batch counters folded into the shared ones once per batch.

use super::cache::CacheLayer;
use polygraph_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// The metric names the risk server registers, grouped here so the wire
/// consumers and the docs share one catalogue. A reactor server
/// additionally registers the shard loop's own `server.reactor.passes`
/// and `server.reactor.parks` counters (see `server/shard.rs`).
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
    /// ([`crate::server::RiskServerConfig::cache_capacity`] > 0).
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
    /// Time one batch spent in its lookup pass — key hash and cache
    /// probe of every submission frame in it — in µs (histogram; one
    /// sample per batch holding a submission, cache-enabled servers
    /// only). The first of the per-batch `server.stage.*` spans.
    pub const STAGE_LOOKUP_MICROS: &str = "server.stage.lookup_micros";
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
    /// up to [`super::MAX_BATCH_PER_GUARD`] queued frames shares one acquisition.
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
    pub(super) registry: Arc<Registry>,
    pub(super) assessed: Arc<Counter>,
    pub(super) flagged: Arc<Counter>,
    pub(super) malformed: Arc<Counter>,
    pub(super) swaps: Arc<Counter>,
    pub(super) batches: Arc<Counter>,
    pub(super) batch_micros: Arc<Histogram>,
    pub(super) batch_frames: Arc<Histogram>,
    pub(super) bytes_read: Arc<Counter>,
    pub(super) bytes_written: Arc<Counter>,
    pub(super) connections_opened: Arc<Counter>,
    pub(super) connections_closed: Arc<Counter>,
    pub(super) connections_errored: Arc<Counter>,
    pub(super) connections_reaped: Arc<Counter>,
    pub(super) connections_open: Arc<Gauge>,
    pub(super) idle_timeouts: Arc<Counter>,
    pub(super) stats_requests: Arc<Counter>,
    pub(super) shed: Arc<Counter>,
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

    pub(super) fn stats(&self) -> RiskServerStats {
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

/// One batch's counters, folded into the shared atomics once per batch
/// instead of once per frame — the only place a frame counter is
/// charged.
#[derive(Debug, Default)]
pub(super) struct LocalCounters {
    pub(super) assessed: u64,
    pub(super) flagged: u64,
    pub(super) malformed: u64,
    pub(super) shed: u64,
    /// The cache's books; they stay zero on a server without one.
    pub(super) hits: u64,
    pub(super) misses: u64,
    pub(super) stale_epoch: u64,
    pub(super) shed_exempt: u64,
    pub(super) evictions: u64,
}

impl LocalCounters {
    /// Adds every non-zero count to its shared counter and zeroes it.
    /// A fold is whole: `hits + misses == assessed + malformed +
    /// shed_exempt` holds of the shared counters after it if it held
    /// before.
    pub(super) fn fold_into(&mut self, metrics: &ServerMetrics, cache: Option<&CacheLayer>) {
        let counts = std::mem::take(self);
        for (count, counter) in [
            (counts.assessed, Some(&metrics.assessed)),
            (counts.flagged, Some(&metrics.flagged)),
            (counts.malformed, Some(&metrics.malformed)),
            (counts.shed, Some(&metrics.shed)),
            (counts.hits, cache.map(|c| &c.hits)),
            (counts.misses, cache.map(|c| &c.misses)),
            (counts.stale_epoch, cache.map(|c| &c.stale_epoch)),
            (counts.shed_exempt, cache.map(|c| &c.shed_exempt)),
            (counts.evictions, cache.map(|c| &c.evictions)),
        ] {
            if let (1.., Some(counter)) = (count, counter) {
                counter.add(count);
            }
        }
    }
}
