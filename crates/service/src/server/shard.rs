//! The reactor core ([`super::ServerBackend::Reactor`]): each shard is
//! one thread that accepts from its clone of the listener and scans the
//! non-blocking sockets it owns, holding per-connection state in a
//! [`ConnMachine`]. No readiness layer — see [`crate::reactor`].
//!
//! ## Park rule
//!
//! A shard parks after an idle *interval*, not after an idle pass: it
//! remembers the injected-clock micros of the last pass that accepted a
//! connection or moved a byte, re-scans (after a `yield_now`) while an
//! idle pass is less than [`SCAN_INTERVAL`] past that moment, and from
//! then on parks [`SCAN_INTERVAL`] per idle pass until something moves
//! again. A request/response caller's next request arrives tens of
//! microseconds after the reply was flushed, so it is met by a scan
//! rather than by the tail of a 500 µs sleep; a shard nobody has spoken
//! to for an interval costs what it always did. The price is CPU: while
//! requests keep arriving less than an interval apart the shard never
//! sleeps. `server.reactor.passes` and `server.reactor.parks` (registered
//! on reactor servers only) expose the duty cycle — DESIGN.md §5h.

use super::batch::{drive_buffered, read_buffered, ConnScratch};
use super::handle::ConnContext;
use crate::reactor::{ConnMachine, SCAN_INTERVAL};
use polygraph_obs::{Counter, Registry};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

/// One reactor connection slot: the owned non-blocking socket plus its
/// state machine and activity bookkeeping.
struct ConnSlot {
    stream: TcpStream,
    machine: ConnMachine,
    /// What the connection reuses from batch to batch (see
    /// [`ConnScratch`]).
    scratch: ConnScratch,
    /// Clock micros of the last read/write progress (or idle tick).
    last_activity: u64,
}

/// How a slot leaves (or stays in) the shard's connection list.
enum SlotFate {
    Keep,
    Closed,
    Errored,
}

/// The shard loops' own counters, shared by every shard of one server
/// and registered only when the server runs the reactor core — a
/// threaded server's snapshot (and the exposition golden) never sees
/// them. `parks / passes` over a `STATS` interval is the duty cycle: 1
/// on an idle server, falling toward 0 while requests keep arriving
/// less than [`SCAN_INTERVAL`] apart.
#[derive(Clone)]
pub(super) struct ShardCounters {
    /// `server.reactor.passes` — scans made (accept drain + every slot).
    passes: Arc<Counter>,
    /// `server.reactor.parks` — passes that ended in a
    /// [`SCAN_INTERVAL`] sleep.
    parks: Arc<Counter>,
}

impl ShardCounters {
    pub(super) fn register(registry: &Registry) -> Self {
        Self {
            passes: registry.counter("server.reactor.passes"),
            parks: registry.counter("server.reactor.parks"),
        }
    }
}

/// One reactor shard: accepts from its clone of the shared non-blocking
/// listener and serves every accepted connection on this single thread
/// through per-connection [`ConnMachine`]s. Each pass drains the
/// listener and drives every slot once. A pass that accepted nothing
/// and moved no byte re-scans after a `yield_now` while the last pass
/// that did is less than [`SCAN_INTERVAL`] old on the server's clock,
/// and parks for [`SCAN_INTERVAL`] otherwise (the module docs say why);
/// the stop flag is read at the top of every pass, so shutdown takes
/// one scan interval.
/// Counter semantics mirror the threaded backend exactly: idle
/// keep-alive ticks survive, stalled partial frames and stuck writes
/// error, slots reclaimed while serving count as reaped, and slots
/// closed by shutdown count only as closed.
pub(super) fn reactor_shard_loop(listener: TcpListener, ctx: ConnContext, counters: ShardCounters) {
    // The injected server clock: idle deadlines and the park window
    // never read a wall clock.
    let clock = Arc::clone(ctx.metrics.registry().clock());
    let mut conns: Vec<ConnSlot> = Vec::new();
    let timeout_us = ctx.read_timeout.as_micros().min(u64::MAX as u128) as u64;
    let scan_us = SCAN_INTERVAL.as_micros() as u64;
    // Clock micros of the last pass that accepted or moved a byte;
    // `None` once a whole scan interval has gone by without one.
    let mut last_progress: Option<u64> = None;
    'run: while !ctx.stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // Accept every pending connection. All shards share the
        // non-blocking listener, so `WouldBlock` may just mean another
        // shard got there first.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    ctx.metrics.connections_opened.inc();
                    let prepared = stream
                        .set_nonblocking(true)
                        .and_then(|()| stream.set_nodelay(true));
                    if prepared.is_err() {
                        ctx.metrics.connections_errored.inc();
                        continue;
                    }
                    ctx.metrics.connections_open.add(1);
                    conns.push(ConnSlot {
                        stream,
                        machine: ConnMachine::new(),
                        scratch: ConnScratch::default(),
                        last_activity: clock.now_micros(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break 'run,
            }
        }

        let now = clock.now_micros();
        conns.retain_mut(|slot| {
            let mut fate = drive_slot(slot, &ctx, now, &mut progressed);
            // Idle / stall sweep — the reactor mirror of the threaded
            // backend's read-timeout semantics: an idle keep-alive client
            // survives (and is counted); a stalled partial frame or a
            // write the peer will not drain fails the connection.
            if matches!(fate, SlotFate::Keep)
                && now.saturating_sub(slot.last_activity) >= timeout_us
            {
                if slot.machine.has_partial_input() || slot.machine.wants_write() {
                    fate = SlotFate::Errored;
                } else {
                    ctx.metrics.idle_timeouts.inc();
                    slot.last_activity = now;
                }
            }
            match fate {
                SlotFate::Keep => return true,
                SlotFate::Closed => ctx.metrics.connections_closed.inc(),
                SlotFate::Errored => ctx.metrics.connections_errored.inc(),
            }
            ctx.metrics.connections_open.add(-1);
            // Reclaimed while the shard kept serving — the reactor's
            // analogue of the threaded backend's worker reap.
            ctx.metrics.connections_reaped.inc();
            false
        });

        counters.passes.inc();
        if progressed {
            last_progress = Some(now);
        } else if last_progress.is_some_and(|at| now.saturating_sub(at) < scan_us) {
            // A peer spoke within the last interval: its next request is
            // more likely tens of microseconds away than 500.
            thread::yield_now();
        } else {
            last_progress = None;
            counters.parks.inc();
            thread::sleep(SCAN_INTERVAL);
        }
    }

    // Shutdown (or a fatal listener error): remaining connections close
    // cleanly, exactly like threaded workers observing the stop flag.
    // Not counted as reaped — `reaped` means reclaimed while the server
    // kept running.
    for _slot in conns {
        ctx.metrics.connections_closed.inc();
        ctx.metrics.connections_open.add(-1);
    }
}

/// Runs one scan's worth of work on a slot: non-blocking reads into the
/// state machine, the shared drive loop over whatever frames became
/// complete, and a flush of queued output. Sets `progressed` when a byte
/// moved in either direction.
fn drive_slot(slot: &mut ConnSlot, ctx: &ConnContext, now: u64, progressed: &mut bool) -> SlotFate {
    // Nothing is read while replies are still queued: a peer that
    // pipelines and never reads must fill its own socket and stall
    // (caught by the sweep), not grow the reply buffer without bound —
    // the threaded core's blocking `write_all` gives the same
    // back-pressure.
    if !slot.machine.saw_eof() && !slot.machine.close_requested() && !slot.machine.wants_write() {
        match read_buffered(&mut slot.stream, slot.machine.accumulator_mut(), ctx) {
            Ok((bytes, eof)) => {
                if bytes > 0 {
                    slot.last_activity = now;
                    *progressed = true;
                }
                if eof {
                    slot.machine.on_eof();
                }
            }
            Err(_) => return SlotFate::Errored,
        }
    }

    // Answer every complete frame now buffered, straight onto the slot's
    // reply buffer — the same drive loop, batch cycles and accounting as
    // the threaded backend.
    slot.machine
        .answer_with(|acc, out| drive_buffered(acc, &mut slot.scratch, ctx, out));

    // Flush whatever is queued; `WouldBlock` pauses until the next scan,
    // so a slow reader never blocks the shard.
    if slot.machine.wants_write() {
        let mut sink = &slot.stream;
        match slot.machine.flush_into(&mut sink) {
            Ok(progress) => {
                if progress.wrote > 0 {
                    slot.last_activity = now;
                    *progressed = true;
                }
            }
            Err(_) => {
                // A write failure after a close was requested matches the
                // threaded path's best-effort final flush: a clean close.
                return if slot.machine.close_requested() {
                    SlotFate::Closed
                } else {
                    SlotFate::Errored
                };
            }
        }
    }

    if slot.machine.should_close() {
        return SlotFate::Closed;
    }
    if slot.machine.saw_eof() && !slot.machine.wants_write() && slot.machine.frames_ready() == 0 {
        // Peer closed and everything answerable is answered — a clean
        // close even mid-partial-frame, matching the threaded `Ok(0)`.
        return SlotFate::Closed;
    }
    SlotFate::Keep
}
