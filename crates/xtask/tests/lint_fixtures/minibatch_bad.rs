//! Bad fixture: a mini-batch k-means refit that breaks the streaming
//! retrain's concurrency discipline — a warm-start refit run under the
//! serving detector's read guard.
pub fn refit_under_guard(slot: &RwLock<DetectorSlot>, window: &TrainingSet) {
    let guard = slot.read();
    guard.model().refit_streaming(window);
}
