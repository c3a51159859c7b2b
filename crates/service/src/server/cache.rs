//! The verdict cache as the serve path sees it: a
//! `polygraph_cache::VerdictCache` plus the counters that keep the
//! books — every looked-up frame is one hit or one miss, so
//! `cache.hits + cache.misses == assessed + malformed + shed_exempt`.
//! The lookups charge a batch's [`LocalCounters`]; the shared counters
//! move when the batch folds them.

use super::metrics::{metric_names, LocalCounters};
use crate::proto::{Verdict, VerdictStatus};
use fingerprint::submission_cache_key;
use polygraph_cache::{Lookup, VerdictCache};
use polygraph_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// The verdict cache plus its resolved metric handles. Constructed (and
/// its metrics registered) only when [`super::RiskServerConfig::cache_capacity`]
/// is non-zero, so a cache-disabled server's snapshot is byte-identical
/// to the pre-cache exposition golden.
#[derive(Debug)]
pub(super) struct CacheLayer {
    pub(super) cache: VerdictCache<Verdict>,
    pub(super) hits: Arc<Counter>,
    pub(super) misses: Arc<Counter>,
    pub(super) evictions: Arc<Counter>,
    pub(super) stale_epoch: Arc<Counter>,
    pub(super) shed_exempt: Arc<Counter>,
    pub(super) occupancy: Arc<Gauge>,
    /// `server.stage.lookup_micros`: one span per batch, around its
    /// whole lookup pass.
    pub(super) lookup_micros: Arc<Histogram>,
}

impl CacheLayer {
    pub(super) fn new(registry: &Registry, shards: usize, capacity: usize) -> Self {
        Self {
            cache: VerdictCache::new(shards, capacity),
            hits: registry.counter(metric_names::CACHE_HITS),
            misses: registry.counter(metric_names::CACHE_MISSES),
            evictions: registry.counter(metric_names::CACHE_EVICTIONS),
            stale_epoch: registry.counter(metric_names::CACHE_STALE_EPOCH),
            shed_exempt: registry.counter(metric_names::CACHE_SHED_EXEMPT),
            occupancy: registry.gauge(metric_names::CACHE_OCCUPANCY),
            lookup_micros: registry.histogram(metric_names::STAGE_LOOKUP_MICROS),
        }
    }

    /// Normal-path lookup: every submission frame is charged as exactly
    /// one hit or one miss (unkeyable and stale-epoch frames are misses),
    /// so the cache counters balance against the verdict counters. A hit
    /// also charges `assessed` — to the client a cached answer *is* an
    /// assessment. The frame's key comes back with the answer, so a miss
    /// is stored under it without hashing the frame again.
    pub(super) fn lookup_for_assess(
        &self,
        frame: &[u8],
        local: &mut LocalCounters,
    ) -> (Option<u64>, Option<Verdict>) {
        let key = submission_cache_key(frame);
        match key.map(|key| self.cache.lookup(key)) {
            Some(Lookup::Hit(v)) => {
                local.hits += 1;
                local.assessed += 1;
                local.flagged += u64::from(v.flagged);
                return (key, Some(v));
            }
            Some(Lookup::Stale) => local.stale_epoch += 1,
            Some(Lookup::Miss) | None => {}
        }
        local.misses += 1;
        (key, None)
    }

    /// Shed-path lookup: a backlog frame the cache can answer is served
    /// (hit + shed-exempt) with no detector lock — consistent with the
    /// shedding contract, which only promises not to *queue*. A frame
    /// the cache cannot answer charges nothing here; the caller answers
    /// `Degraded` and charges `server.frames.shed`.
    pub(super) fn lookup_shed(&self, frame: &[u8], local: &mut LocalCounters) -> Option<Verdict> {
        match self.cache.lookup(submission_cache_key(frame)?) {
            Lookup::Hit(v) => {
                local.hits += 1;
                local.shed_exempt += 1;
                Some(v)
            }
            Lookup::Stale | Lookup::Miss => None,
        }
    }

    /// Caches an assessed verdict under the key its lookup returned and
    /// the epoch read *before* the detector guard was taken. Error
    /// verdicts are never cached — a malformed frame must stay
    /// malformed-on-arrival, and a shed frame is never cached at all (it
    /// is never assessed). Returns whether the insert evicted an entry,
    /// for the batch's `cache.evictions` count.
    pub(super) fn store(&self, key: u64, epoch: u64, verdict: Verdict) -> bool {
        verdict.status == VerdictStatus::Assessed && self.cache.insert(key, epoch, verdict).evicted
    }

    pub(super) fn publish_occupancy(&self) {
        // Current-epoch entries only: stale slots cannot serve a hit, so
        // gauging them would overreport the live cache after every swap.
        let occ = self.cache.current_occupancy().min(i64::MAX as usize) as i64;
        self.occupancy.set(occ);
    }
}
