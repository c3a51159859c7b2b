//! Good twin of `quant_bad.rs`: the same quantized drain, but the guard
//! is dropped before the batched assess, and the epoch publish uses
//! SeqCst.
pub fn drain_after_clone(slot: &RwLock<Detector>, frames: &[Frame]) {
    let detector = {
        let guard = slot.read();
        guard.clone()
    };
    detector.assess_many(frames);
}

pub fn publish_compiled_epoch(epoch: &AtomicU64) {
    epoch.store(1, Ordering::SeqCst);
}
