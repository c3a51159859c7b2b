//! What a caller chooses when starting a risk server: timeouts and
//! clock, the shed threshold, the verdict cache's geometry, the
//! connection core, and whether cache misses take the quantized path.

use super::batch::MAX_BATCH_PER_GUARD;
use polygraph_obs::{Clock, MonotonicClock};
use std::sync::Arc;
use std::time::Duration;

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
    ///
    /// A reactor shard also measures its park window on this clock (it
    /// re-scans instead of parking until a whole
    /// [`crate::reactor::SCAN_INTERVAL`] has passed since a byte last
    /// moved), so a *frozen* clock (`TestClock::new()`, never advanced)
    /// keeps a shard that has seen traffic scanning hot until the clock
    /// is advanced. Give a reactor server a stepping clock
    /// (`TestClock::with_step`) or advance it.
    pub clock: Arc<dyn Clock>,
    /// Overload-shedding threshold: after a batch is taken, any complete
    /// frames still queued beyond this count are answered immediately
    /// with a [`crate::proto::VerdictStatus::Degraded`] verdict (no
    /// assessment) instead of queueing unboundedly. Each batch cycle
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
    /// detector is compiled ([`polygraph_core::Detector::quantize`]) at startup and on
    /// every [`super::RiskServerHandle::publish_model_versioned`], and the batch drain
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

impl RiskServerConfig {
    /// The production profile, what `polygraph serve` runs and `polybench`
    /// measures: verdict cache on (8 shards, 8 192 entries in all), cache
    /// misses on the quantized fast path, everything else [`Default`].
    pub fn production() -> Self {
        Self {
            cache_shards: 8,
            cache_capacity: 8192,
            quantized: true,
            ..Self::default()
        }
    }
}
