//! Good twin of `minibatch_bad.rs`: the same refit plumbing, but the
//! serving model is cloned out of the detector guard before the refit
//! runs.
pub fn refit_outside_guard(slot: &RwLock<DetectorSlot>, window: &TrainingSet) {
    let serving = {
        let guard = slot.read();
        guard.model().clone()
    };
    serving.refit_streaming(window);
}
