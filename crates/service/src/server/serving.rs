//! The serving snapshot: the detector, the registry version it was
//! published under, the verdict-cache epoch its verdicts are tagged
//! with and the shadow candidate, published together as one immutable
//! [`Serving`] through a [`ServingSlot`].
//!
//! A reader [`ServingSlot::load`]s an `Arc<Serving>` and uses it holding
//! no lock. A writer [`ServingSlot::publish`]es the next snapshot,
//! computed from the current one under the slot's write lock, so a model
//! publish and a shadow attach or detach never lose each other's change.
//! Whatever is slow (building and quantizing a detector) is done before
//! the lock is taken. No lock guard leaves this module.

use polygraph_core::Detector;
use polygraph_obs::Counter;
use std::sync::Arc;

/// What serves, as one value: every batch that assesses reads all four
/// fields from the same load.
#[derive(Clone)]
pub(super) struct Serving {
    pub(super) detector: Arc<Detector>,
    /// Registry version of `detector`; `0` for the boot detector.
    pub(super) version: u64,
    /// The verdict-cache epoch bumped when `detector` was published
    /// (`0` without a cache). A verdict `detector` gives is cached at
    /// this epoch and no other, so it can never answer for another model.
    pub(super) epoch: u64,
    pub(super) shadow: Option<ShadowScorer>,
}

/// A retrain candidate riding the live serve path. The candidate
/// assesses the same decoded sessions as the serving detector; its
/// verdicts are compared and then discarded — a shadow verdict never
/// reaches the wire. Both counters are resolved at attach time, so a
/// server that never shadows registers nothing and its metrics
/// exposition is byte-identical to a build without this feature.
#[derive(Clone)]
pub(super) struct ShadowScorer {
    pub(super) detector: Arc<Detector>,
    /// `orchestrator.shadow.compared` — sessions double-scored.
    pub(super) compared: Arc<Counter>,
    /// `orchestrator.shadow.diverged` — double-scored sessions where
    /// the candidate disagreed with the serving verdict.
    pub(super) diverged: Arc<Counter>,
}

/// The one shared slot the serve path reads and the handle writes.
#[expect(
    clippy::disallowed_types,
    reason = "the serving slot: a read guard lives for one Arc clone, the write guard for \
              one snapshot build that at most bumps the cache's epoch atomic; neither spans \
              a blocking call, and neither leaves this module"
)]
pub(super) struct ServingSlot(parking_lot::RwLock<Arc<Serving>>);

impl ServingSlot {
    /// A slot serving `detector` as the boot model: version 0, the cache's
    /// first epoch, no shadow.
    pub(super) fn boot(detector: Detector) -> Self {
        Self(
            Arc::new(Serving {
                detector: Arc::new(detector),
                version: 0,
                epoch: 0,
                shadow: None,
            })
            .into(),
        )
    }

    /// The current snapshot. The read guard is released before this
    /// returns.
    pub(super) fn load(&self) -> Arc<Serving> {
        Arc::clone(&self.0.read())
    }

    /// Replaces the current snapshot with `next(&current)`, under the
    /// write lock: writers are serialised, so `next` sees every earlier
    /// publish. The replaced snapshot is dropped after the lock is
    /// released.
    pub(super) fn publish(&self, next: impl FnOnce(&Serving) -> Serving) {
        let _replaced = {
            let mut slot = self.0.write();
            let next = Arc::new(next(&slot));
            std::mem::replace(&mut *slot, next)
        };
    }
}
