//! Good twin of `fleet_bad.rs`: the same router, but the socket write
//! happens only after the ring guard is dropped, and the version publish
//! uses SeqCst.
pub fn failover_write(ring: &RwLock<Ring>, stream: &mut TcpStream, frame: &[u8]) {
    let target = {
        let guard = ring.read();
        guard.route(0)
    };
    stream.write_all(frame);
    let _ = target;
}

pub fn publish_node_version(version: &AtomicU64) {
    version.store(2, Ordering::SeqCst);
}
