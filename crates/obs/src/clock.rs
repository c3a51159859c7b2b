//! Injected time sources.
//!
//! Every duration the observability layer records flows through a
//! [`Clock`], never through `Instant::now()` at the call site. That one
//! inversion is what makes the whole layer testable to the byte: under a
//! [`TestClock`] the exact sequence of clock reads — and therefore every
//! histogram bucket — is reproducible run-to-run, while production swaps
//! in the [`MonotonicClock`] without touching the instrumented code.
//!
//! The workspace's `clippy.toml` disallows `Instant::now`, so the single
//! call below is the one audited wall-clock read of the library crates
//! (its `#[expect]` names the reason).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond time source.
///
/// Implementations must be monotone non-decreasing; the registry's span
/// timers subtract two reads with `saturating_sub`, so a buggy clock can
/// mis-measure but never underflow.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds elapsed since an arbitrary fixed epoch.
    fn now_micros(&self) -> u64;
}

/// Production clock: microseconds since construction, measured with
/// [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock anchored at the moment of construction.
    #[expect(
        clippy::disallowed_methods,
        reason = "MonotonicClock is the injected production Clock; all other code receives \
                  time via the Clock trait and tests use TestClock"
    )]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Deterministic clock for tests.
///
/// Two modes compose:
///
/// * **manual** — [`TestClock::advance`] moves time forward explicitly;
/// * **auto-step** — a clock built with [`TestClock::with_step`]
///   additionally advances itself by `step` microseconds *after every
///   read*, so a fixed sequence of clock reads yields a fixed sequence
///   of timestamps with no explicit driving.
///
/// Both modes make every span duration a pure function of the read
/// sequence, which is what the byte-identical exposition tests rely on.
#[derive(Debug, Default)]
pub struct TestClock {
    now: AtomicU64,
    step: u64,
}

impl TestClock {
    /// A clock frozen at 0 µs; advance it manually.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock that self-advances by `step` µs after every read.
    pub fn with_step(step: u64) -> Self {
        Self {
            now: AtomicU64::new(0),
            step,
        }
    }

    /// Moves time forward by `micros`.
    pub fn advance(&self, micros: u64) {
        self.now.fetch_add(micros, Ordering::SeqCst);
    }

    /// The current reading without consuming an auto-step.
    pub fn peek(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

impl Clock for TestClock {
    fn now_micros(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn test_clock_manual_advance() {
        let c = TestClock::new();
        assert_eq!(c.now_micros(), 0);
        c.advance(41);
        assert_eq!(c.now_micros(), 41);
        assert_eq!(c.now_micros(), 41, "no auto-step unless configured");
    }

    #[test]
    fn test_clock_auto_step() {
        let c = TestClock::with_step(7);
        assert_eq!(c.now_micros(), 0);
        assert_eq!(c.now_micros(), 7);
        assert_eq!(c.now_micros(), 14);
        assert_eq!(c.peek(), 21);
        c.advance(100);
        assert_eq!(c.now_micros(), 121);
    }
}
