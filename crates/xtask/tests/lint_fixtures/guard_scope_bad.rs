//! Bad fixture: lock guards held across blocking calls — directly
//! (socket flush, detector assess) and one propagated call level
//! through `nap_briefly`.
pub fn flush_under_guard(state: &RwLock<Vec<u8>>, sock: &mut TcpStream) {
    let snapshot = state.read();
    sock.write_all(&snapshot).ok();
}

pub fn assess_under_guard(slot: &RwLock<Detector>, values: &[u8]) {
    let detector = slot.read();
    detector.assess(values);
}

pub fn propagated_block(state: &RwLock<Vec<u8>>) {
    let snapshot = state.read();
    nap_briefly(snapshot.len());
}

pub fn nap_briefly(rounds: usize) {
    let tick = rounds;
    thread::sleep(tick);
}
