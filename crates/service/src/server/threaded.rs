//! The thread-per-connection core ([`super::ServerBackend::Threaded`],
//! the default): an acceptor that spawns and reaps one worker per
//! socket, each worker alternating a blocking read, a non-blocking
//! drain, the shared drive loop over everything buffered and one
//! blocking write.

use super::batch::{drive_buffered, read_buffered, read_chunk, ConnScratch};
use super::handle::ConnContext;
use super::metrics::ServerMetrics;
use crate::framing::{FrameAccumulator, FrameStatus};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

pub(super) fn acceptor_loop(listener: TcpListener, ctx: ConnContext) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !ctx.stop.load(Ordering::SeqCst) {
        // Reap finished workers every iteration so a long-running server
        // holds handles only for live connections.
        reap_finished(&mut workers, &ctx.metrics);
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.metrics.connections_opened.inc();
                ctx.metrics.connections_open.add(1);
                let conn = ctx.clone();
                workers.push(thread::spawn(move || {
                    match serve_connection(stream, &conn) {
                        Ok(()) => conn.metrics.connections_closed.inc(),
                        Err(_) => conn.metrics.connections_errored.inc(),
                    }
                    conn.metrics.connections_open.add(-1);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    // Final joins at shutdown: workers observe the stop flag within one
    // read-timeout tick. These are not counted as reaps — `reaped` means
    // reclaimed while the server kept running.
    for w in workers {
        let _ = w.join();
    }
}

fn reap_finished(workers: &mut Vec<thread::JoinHandle<()>>, metrics: &ServerMetrics) {
    if workers.iter().all(|h| !h.is_finished()) {
        return;
    }
    let mut live = Vec::with_capacity(workers.len());
    for handle in workers.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
            metrics.connections_reaped.inc();
        } else {
            live.push(handle);
        }
    }
    *workers = live;
}

/// Whether a read error is the socket timeout firing (Unix reports
/// `WouldBlock` for `SO_RCVTIMEO`, Windows `TimedOut`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn serve_connection(mut stream: TcpStream, ctx: &ConnContext) -> io::Result<()> {
    stream.set_read_timeout(Some(ctx.read_timeout))?;
    // A peer that stops reading must not block shutdown forever either.
    stream.set_write_timeout(Some(ctx.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut acc = FrameAccumulator::new();
    let mut scratch = ConnScratch::default();
    // The connection's one reply buffer: refilled by every drive loop,
    // written once per loop, never reallocated once it has grown.
    let mut out = Vec::new();
    loop {
        // Blocking phase: wait until at least one complete frame (or an
        // oversize header) is buffered. Timeout ticks with an empty
        // buffer are keep-alive idleness, not failures; a timeout with a
        // stalled partial frame is.
        while acc.status() == FrameStatus::NeedMore {
            if ctx.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match read_chunk(&mut stream, &mut acc, ctx) {
                Ok(0) => return Ok(()), // peer closed at (or mid-) frame boundary
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {
                    if acc.is_empty() {
                        ctx.metrics.idle_timeouts.inc();
                        continue;
                    }
                    return Err(e); // partial frame stalled past the timeout
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if ctx.stop.load(Ordering::SeqCst) {
            return Ok(());
        }

        // Drain phase: pull in whatever else the client already pipelined,
        // without blocking, so the whole backlog is answered by one drive
        // loop and one write. (End-of-stream seen here is met again by
        // the next blocking read.)
        stream.set_nonblocking(true)?;
        let drained = read_buffered(&mut stream, &mut acc, ctx);
        stream.set_nonblocking(false)?;
        drained?;

        out.clear();
        if drive_buffered(&mut acc, &mut scratch, ctx, &mut out) {
            // Cannot resynchronise past an unread oversize body: flush the
            // answered frames best-effort, then close cleanly.
            let _ = stream.write_all(&out);
            return Ok(());
        }
        stream.write_all(&out)?;
    }
}

#[cfg(test)]
mod tests {
    use crate::proto::{Verdict, VerdictStatus};
    use crate::server::test_support::{frame_for, tiny_detector};
    use crate::server::{
        metric_names, start_risk_server, start_risk_server_with, RiskServerConfig,
    };
    use browser_engine::{UserAgent, Vendor};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn pipelined_frames_drain_in_batches() {
        // Write many frames before reading a single verdict: the server
        // should answer all of them, in order, using far fewer guard
        // acquisitions than frames.
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();

        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let total = 100usize;
        let mut wire = Vec::new();
        for i in 0..total {
            let frame = if i % 2 == 0 { &honest } else { &lying };
            wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        stream.write_all(&wire).unwrap();

        for i in 0..total {
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            let v = Verdict::decode(&buf).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed, "frame {i}");
            assert_eq!(v.flagged, i % 2 == 1, "verdicts must come back in order");
        }
        drop(stream);

        // Let the connection worker finish folding before reading stats.
        thread::sleep(Duration::from_millis(20));
        let stats = server.stats();
        assert_eq!(stats.assessed, total as u64);
        assert_eq!(stats.flagged, (total / 2) as u64);
        assert!(
            stats.batches >= 1 && stats.batches <= total as u64,
            "got {} batches",
            stats.batches
        );
        // The batch-size histogram reconciles with the counters exactly.
        let snap = server.snapshot();
        let h = snap.histograms.get(metric_names::BATCH_FRAMES).unwrap();
        assert_eq!(h.sum, stats.assessed);
        assert_eq!(h.count, stats.batches);
        assert!(stats.bytes_read as usize >= wire.len());
        assert!(stats.bytes_written as usize >= total * crate::proto::VERDICT_LEN);
        server.shutdown();
    }

    /// A server on the quantized fast path, with or without the verdict
    /// cache, must answer the exact same reply bytes — and charge the
    /// exact same counters — as the staged, uncached default, across
    /// honest, lying, malformed, bad-UA, and wrong-width traffic that
    /// repeats every frame eight times.
    #[test]
    fn quantized_server_answers_byte_identically() {
        const ROUNDS: usize = 8;
        let frames = [
            frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100)),
            frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100)),
            frame_for(vec![0, 0], UserAgent::new(Vendor::Firefox, 100)),
            vec![9, 9, 9], // undecodable → Malformed
            frame_for(vec![1, 2, 3, 4], UserAgent::new(Vendor::Chrome, 100)), // width → SchemaMismatch
            frame_for(vec![10, 10], UserAgent::new(Vendor::Firefox, 100)),
        ];
        let run = |quantized: bool, cache_capacity: usize| {
            let config = RiskServerConfig {
                quantized,
                cache_capacity,
                ..Default::default()
            };
            let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut replies = Vec::new();
            // Round one is answered before the repeats are sent, so a
            // cache has every cacheable verdict by then and the hit
            // count asserted below is exact.
            for rounds in [1, ROUNDS - 1] {
                let mut wire = Vec::new();
                for frame in frames.iter().cycle().take(rounds * frames.len()) {
                    wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
                    wire.extend_from_slice(frame);
                }
                stream.write_all(&wire).unwrap();
                let mut chunk = vec![0u8; rounds * frames.len() * crate::proto::VERDICT_LEN];
                stream.read_exact(&mut chunk).unwrap();
                replies.extend(chunk);
            }
            drop(stream);
            thread::sleep(Duration::from_millis(20));
            let stats = server.stats();
            server.shutdown();
            (replies, stats)
        };
        let (staged_bytes, staged_stats) = run(false, 0);
        for (quantized, cache_capacity) in [(true, 0), (false, 64), (true, 64)] {
            let context = format!("quantized {quantized}, cache capacity {cache_capacity}");
            let (bytes, stats) = run(quantized, cache_capacity);
            assert_eq!(
                bytes, staged_bytes,
                "[{context}] verdict streams must be byte-identical"
            );
            assert_eq!(stats.assessed, staged_stats.assessed, "[{context}]");
            assert_eq!(stats.flagged, staged_stats.flagged, "[{context}]");
            assert_eq!(stats.malformed, staged_stats.malformed, "[{context}]");
            // Four of the six frames are `Assessed`, and only those are
            // ever cached: every repeat of them is a hit.
            let cached_rounds = if cache_capacity > 0 { ROUNDS - 1 } else { 0 };
            assert_eq!(stats.cache_hits, 4 * cached_rounds as u64, "[{context}]");
        }
    }

    #[test]
    fn overload_backlog_is_shed_with_degraded() {
        // shed_limit 0: after each assessed batch, every frame still
        // queued is answered `Degraded` instead of waiting.
        let config = RiskServerConfig {
            shed_limit: 0,
            ..Default::default()
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();

        let honest = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        let lying = frame_for(vec![20, 20], UserAgent::new(Vendor::Chrome, 100));
        let total = 400usize;
        let mut wire = Vec::new();
        for i in 0..total {
            let frame = if i % 2 == 0 { &honest } else { &lying };
            wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        stream.write_all(&wire).unwrap();

        let mut assessed = 0usize;
        let mut degraded = 0usize;
        for i in 0..total {
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            let v = Verdict::decode(&buf).unwrap();
            match v.status {
                VerdictStatus::Assessed => {
                    // Responses stay in frame order, so an assessed
                    // frame's verdict is position-determined — shedding
                    // must never produce a garbage verdict.
                    assert_eq!(v.flagged, i % 2 == 1, "frame {i} out of order");
                    assessed += 1;
                }
                VerdictStatus::Degraded => {
                    assert!(!v.flagged);
                    degraded += 1;
                }
                other => panic!("frame {i}: unexpected status {other:?}"),
            }
        }
        assert_eq!(assessed + degraded, total);
        assert!(degraded > 0, "a 400-frame burst at shed_limit 0 must shed");
        assert!(assessed > 0, "each guard cycle still assesses a batch");

        drop(stream);
        thread::sleep(Duration::from_millis(20));
        let stats = server.stats();
        assert_eq!(stats.assessed as usize, assessed);
        assert_eq!(stats.shed as usize, degraded);
        assert_eq!(stats.malformed, 0);
        server.shutdown();
    }

    #[test]
    fn sequential_clients_never_shed() {
        let config = RiskServerConfig {
            shed_limit: 0,
            ..Default::default()
        };
        let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let frame = frame_for(vec![10, 10], UserAgent::new(Vendor::Chrome, 100));
        // Strictly request/response: there is never a queued backlog, so
        // even the most aggressive shed_limit degrades nothing.
        for _ in 0..10 {
            stream
                .write_all(&(frame.len() as u16).to_le_bytes())
                .unwrap();
            stream.write_all(&frame).unwrap();
            let mut buf = [0u8; crate::proto::VERDICT_LEN];
            stream.read_exact(&mut buf).unwrap();
            let v = Verdict::decode(&buf).unwrap();
            assert_eq!(v.status, VerdictStatus::Assessed);
        }
        drop(stream);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(server.stats().shed, 0);
        server.shutdown();
    }
}
