//! The metrics registry: named metric slots plus span timers.
//!
//! Hot paths call [`Registry::counter`] / [`Registry::histogram`] once at
//! startup, keep the returned `Arc`, and touch only atomics per event.
//! The registry's map lock is taken only at registration and snapshot
//! time, never per-frame.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, MutexGuard};

/// A named-metric registry with an injected [`Clock`].
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "the registration maps: a guard spans one lookup-or-insert or one snapshot copy \
              of its map, one map at a time, never I/O; recording a metric takes no lock"
)]
pub struct Registry {
    clock: Arc<dyn Clock>,
    counters: std::sync::Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: std::sync::Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: std::sync::Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A registry reading time from `clock`.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the three map locks `Registry` describes"
    )]
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            counters: std::sync::Mutex::new(BTreeMap::new()),
            gauges: std::sync::Mutex::new(BTreeMap::new()),
            histograms: std::sync::Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry on the production [`MonotonicClock`].
    pub fn monotonic() -> Self {
        Self::new(Arc::new(MonotonicClock::new()))
    }

    /// The injected clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::slot(lock_or_recover(&self.counters), name)
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::slot(lock_or_recover(&self.gauges), name)
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::slot(lock_or_recover(&self.histograms), name)
    }

    /// Starts a span whose duration is recorded into histogram `name`
    /// when the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span::start(self.histogram(name), Arc::clone(&self.clock))
    }

    /// A point-in-time copy of every metric, with names in lexicographic
    /// (BTreeMap) order. Each histogram's `count` is derived from the
    /// single bucket-array copy taken here, so `sum-of-buckets == count`
    /// holds in every snapshot — even mid-traffic. Distinct metrics (and
    /// a histogram's `sum`) are still read one atomic at a time, so
    /// quiesce first when exact *cross*-metric identities must hold.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_or_recover(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock_or_recover(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock_or_recover(&self.histograms)
            .iter()
            .map(|(k, v)| {
                (k.clone(), {
                    let buckets = v.bucket_counts();
                    HistogramSnapshot {
                        count: buckets.iter().sum(),
                        sum: v.sum(),
                        buckets,
                    }
                })
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    fn slot<M: Default>(mut map: MutexGuard<'_, BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
        Arc::clone(
            map.entry(sanitize_name(name))
                .or_insert_with(|| Arc::new(M::default())),
        )
    }
}

/// Metric names are restricted to `[a-z0-9_.]` so both renderings stay
/// trivially parseable; anything else is folded to `_` instead of
/// erroring, keeping registration infallible on the serve path.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | '.' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// The registry holds plain data; a panic while a map lock was held
/// cannot leave it inconsistent, so lock poisoning is safe to strip.
#[expect(
    clippy::disallowed_types,
    reason = "locks one of `Registry`'s maps for its caller's one map operation"
)]
fn lock_or_recover<T>(m: &std::sync::Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A live span: records `end - start` microseconds into its histogram on
/// drop.
#[derive(Debug)]
pub struct Span {
    histogram: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    start: u64,
    recorded: bool,
}

impl Span {
    /// Starts a span on an already-resolved histogram handle — the
    /// zero-lock variant of [`Registry::span`] for hot paths that cached
    /// their `Arc<Histogram>` at startup.
    pub fn on(histogram: Arc<Histogram>, clock: Arc<dyn Clock>) -> Self {
        Self::start(histogram, clock)
    }

    fn start(histogram: Arc<Histogram>, clock: Arc<dyn Clock>) -> Self {
        let start = clock.now_micros();
        Self {
            histogram,
            clock,
            start,
            recorded: false,
        }
    }

    /// Ends the span now (instead of at drop) and returns the measured
    /// duration in microseconds.
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    /// Abandons the span: nothing is recorded, now or at drop. Error paths
    /// use this so a latency histogram counts only *completed* operations
    /// and failures stay visible in their own error counters — the
    /// `count + errors == requests` identity the client asserts.
    pub fn cancel(mut self) {
        self.recorded = true;
    }

    fn record(&mut self) -> u64 {
        if self.recorded {
            return 0;
        }
        self.recorded = true;
        let elapsed = self.clock.now_micros().saturating_sub(self.start);
        self.histogram.record(elapsed);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::monotonic();
        let a = r.counter("requests");
        let b = r.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("requests").get(), 3);
    }

    #[test]
    fn names_are_sanitized() {
        let r = Registry::monotonic();
        r.counter("Weird Name!").inc();
        assert_eq!(r.snapshot().counters.get("weird_name_"), Some(&1));
    }

    #[test]
    fn span_records_test_clock_duration() {
        let clock = Arc::new(TestClock::new());
        let r = Registry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _span = r.span("phase_micros");
            clock.advance(9);
        }
        let snap = r.snapshot();
        let h = snap.histograms.get("phase_micros").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
        assert_eq!(h.buckets[4], 1, "9 µs lands in le_16");
    }

    #[test]
    fn finish_records_once() {
        let clock = Arc::new(TestClock::new());
        let r = Registry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let span = r.span("once_micros");
        clock.advance(3);
        assert_eq!(span.finish(), 3);
        let h = r.snapshot().histograms.get("once_micros").cloned().unwrap();
        assert_eq!(h.count, 1, "finish + drop must record exactly once");
    }

    #[test]
    fn cancel_records_nothing() {
        let clock = Arc::new(TestClock::new());
        let r = Registry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let span = r.span("cancelled_micros");
        clock.advance(12);
        span.cancel();
        let h = r
            .snapshot()
            .histograms
            .get("cancelled_micros")
            .cloned()
            .unwrap();
        assert_eq!(h.count, 0, "a cancelled span must not record at drop");
        assert_eq!(h.sum, 0);
    }

    /// Snapshots taken while writers hammer a histogram must satisfy
    /// `sum-of-buckets == count` every time — the identity the old
    /// three-independent-atomics `record` could break mid-traffic.
    #[test]
    fn mid_traffic_snapshots_keep_count_equal_to_bucket_sum() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let r = Arc::new(Registry::monotonic());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let h = r.histogram("latency_micros");
                    let mut v = t as u64;
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 4096);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for _ in 0..2000 {
            let snap = r.snapshot();
            if let Some(h) = snap.histograms.get("latency_micros") {
                assert_eq!(
                    h.count,
                    h.buckets.iter().sum::<u64>(),
                    "snapshot count must equal its own bucket total"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let h = r
            .snapshot()
            .histograms
            .get("latency_micros")
            .cloned()
            .unwrap();
        assert_eq!(h.count, total);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let r = Registry::monotonic();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.gauge("mid").set(-4);
        r.histogram("h").record(5);
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.gauges.get("mid"), Some(&-4));
        assert_eq!(snap.histograms.get("h").unwrap().count, 1);
    }
}
