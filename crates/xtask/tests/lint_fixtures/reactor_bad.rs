//! Reactor-zone fixture: the readiness loop may not unwind on a malformed
//! peer. Never compiled — scanned by `tests/xtask_lint.rs`, which asserts
//! rule codes and exact lines.

pub fn poll_once(events: &[u8]) -> u8 {
    let first = events[0];
    let token = events.first().unwrap();
    first + token
}
