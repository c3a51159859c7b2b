//! Bad fixture: a fleet router that breaks the fleet's concurrency
//! discipline — a socket write under the ring guard, and a Relaxed
//! publish of a node's rollout model version.
pub fn failover_write(ring: &RwLock<Ring>, stream: &mut TcpStream, frame: &[u8]) {
    let guard = ring.read();
    stream.write_all(frame);
    guard.route(0);
}

pub fn publish_node_version(version: &AtomicU64) {
    version.store(2, Ordering::Relaxed);
}
