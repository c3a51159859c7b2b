//! Good twin of `guard_scope_bad.rs`: the same blocking calls, but
//! every guard is released first — cloned out of an inner block, or
//! dropped explicitly before the blocking call.
pub fn flush_after_clone(state: &RwLock<Vec<u8>>, sock: &mut TcpStream) {
    let snapshot = {
        let data = state.read();
        data.clone()
    };
    sock.write_all(&snapshot).ok();
}

pub fn drop_then_assess(slot: &RwLock<Detector>, values: &[u8]) {
    let detector = slot.read();
    let model = detector.clone();
    drop(detector);
    model.assess(values);
}
