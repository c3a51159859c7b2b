//! Counting global allocator: the source of every `*_allocs` metric.
//!
//! Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by
//! the *calling thread*. The counter is thread-local on purpose: a
//! process-wide atomic would bounce one cache line between the load
//! generator and the server threads and slow the very path being
//! measured, and the traced pipeline that reads the counter runs on one
//! thread anyway. Counts are exact and repeat exactly for a given seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and `Copy`: no lazy initialiser and no destructor,
    // so touching it from inside the allocator can never allocate.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call counter.
pub struct CountingAlloc;

#[inline]
fn bump() {
    // `try_with` instead of `with`: during thread teardown the slot may
    // be gone, and an allocator must not panic.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

include!("counting_alloc.inc");

/// Allocation calls made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOC_CALLS.try_with(Cell::get).unwrap_or(0)
}
