//! Bad fixture: a quantized batch drain that breaks the quant kernel's
//! concurrency discipline — the detector guard held across the batched
//! `assess_many` drain, and a Relaxed publish of the compiled model's
//! epoch.
pub fn drain_under_guard(slot: &RwLock<Detector>, frames: &[Frame]) {
    let detector = slot.read();
    detector.assess_many(frames);
}

pub fn publish_compiled_epoch(epoch: &AtomicU64) {
    epoch.store(1, Ordering::Relaxed);
}
