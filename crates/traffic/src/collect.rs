//! The fingerprint collection service: a framed TCP endpoint receiving the
//! ≤1 KB submissions of the deployed in-page script.
//!
//! FinOrg's constraint (§3) is an end-to-end budget — small payload, fast
//! service — so the service is deliberately minimal: length-prefixed
//! frames, strict validation at the parser boundary, one status byte back.
//! Fault injection (smoltcp-style `drop`/`corrupt` chances) lives in the
//! client so robustness tests can exercise the server's error paths.
//!
//! ```text
//! client                                server
//!   | -- u16 LE length, frame bytes --> |  decode, record
//!   | <------- 1 status byte ---------- |  0 = accepted, 1 = rejected
//! ```

use fingerprint::{decode_submission, encode_submission, Submission, MAX_SUBMISSION_BYTES};
use parking_lot::Mutex;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Status byte for an accepted submission.
pub const STATUS_ACCEPTED: u8 = 0;
/// Status byte for a rejected (malformed) submission.
pub const STATUS_REJECTED: u8 = 1;

/// Aggregate counters of a running collector.
#[derive(Debug, Default)]
pub struct CollectorStats {
    /// Submissions decoded and recorded.
    pub accepted: AtomicUsize,
    /// Frames rejected by the wire parser.
    pub rejected: AtomicUsize,
    /// Connections served.
    pub connections: AtomicUsize,
}

/// Handle to a running collection server. Dropping the handle without
/// calling [`CollectorHandle::shutdown`] leaves the acceptor thread
/// running until process exit; call `shutdown` for an orderly stop.
pub struct CollectorHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    submissions: Arc<Mutex<Vec<Submission>>>,
    stats: Arc<CollectorStats>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl CollectorHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of everything received so far.
    pub fn submissions(&self) -> Vec<Submission> {
        self.submissions.lock().clone()
    }

    /// Shared counters.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Stops accepting, joins the acceptor thread, and returns everything
    /// received.
    pub fn shutdown(mut self) -> Vec<Submission> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let subs = self.submissions.lock().clone();
        subs
    }
}

/// Starts a collection server on `addr` (use `127.0.0.1:0` for an
/// ephemeral port).
pub fn start_collector(addr: &str) -> io::Result<CollectorHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;

    let stop = Arc::new(AtomicBool::new(false));
    let submissions = Arc::new(Mutex::new(Vec::new()));
    let stats = Arc::new(CollectorStats::default());

    let acceptor = {
        let stop = Arc::clone(&stop);
        let submissions = Arc::clone(&submissions);
        let stats = Arc::clone(&stats);
        thread::spawn(move || {
            let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        let submissions = Arc::clone(&submissions);
                        let stats = Arc::clone(&stats);
                        workers.push(thread::spawn(move || {
                            let _ = serve_connection(stream, &submissions, &stats);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        })
    };

    Ok(CollectorHandle {
        addr: local,
        stop,
        submissions,
        stats,
        acceptor: Some(acceptor),
    })
}

fn serve_connection(
    mut stream: TcpStream,
    submissions: &Mutex<Vec<Submission>>,
    stats: &CollectorStats,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    // Frames are tiny and latency-bound: disable Nagle so the status byte
    // goes straight out.
    stream.set_nodelay(true)?;
    loop {
        let mut len_buf = [0u8; 2];
        match stream.read_exact(&mut len_buf) {
            Ok(()) => {}
            // Clean EOF between frames ends the connection.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        let len = u16::from_le_bytes(len_buf) as usize;
        if len > MAX_SUBMISSION_BYTES {
            // Oversized frame: reject and drop the connection — we cannot
            // resynchronise after refusing to read the body.
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = stream.write_all(&[STATUS_REJECTED]);
            return Ok(());
        }
        let mut frame = vec![0u8; len];
        stream.read_exact(&mut frame)?;
        match decode_submission(&frame) {
            Ok(sub) => {
                submissions.lock().push(sub);
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                stream.write_all(&[STATUS_ACCEPTED])?;
            }
            Err(_) => {
                stats.rejected.fetch_add(1, Ordering::Relaxed);
                stream.write_all(&[STATUS_REJECTED])?;
            }
        }
    }
}

/// Client-side fault injection, in the spirit of smoltcp's example
/// harnesses: each submission may be silently dropped or have one byte
/// corrupted before transmission.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability of dropping a submission entirely.
    pub drop_chance: f64,
    /// Probability of corrupting one byte of the frame.
    pub corrupt_chance: f64,
}

/// Outcome of one client submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Server acknowledged the submission.
    Accepted,
    /// Server rejected the frame (e.g. it was corrupted in flight).
    Rejected,
    /// The fault injector dropped the frame before transmission.
    Dropped,
}

/// A collection client: the stand-in for the in-page script's uploader.
pub struct CollectorClient {
    stream: TcpStream,
    faults: FaultConfig,
    rng: ChaCha8Rng,
}

impl CollectorClient {
    /// Connects to a collector.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            faults: FaultConfig::default(),
            rng: ChaCha8Rng::seed_from_u64(0),
        })
    }

    /// Enables fault injection with a deterministic seed.
    pub fn with_faults(mut self, faults: FaultConfig, seed: u64) -> Self {
        self.faults = faults;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self
    }

    /// Encodes, (maybe) mangles, sends one submission and awaits the
    /// status byte.
    pub fn submit(&mut self, sub: &Submission) -> io::Result<SubmitOutcome> {
        let mut bytes = encode_submission(sub)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        if self.rng.gen::<f64>() < self.faults.drop_chance {
            return Ok(SubmitOutcome::Dropped);
        }
        if self.rng.gen::<f64>() < self.faults.corrupt_chance {
            let idx = self.rng.gen_range(0..bytes.len());
            bytes[idx] ^= 0xA5;
        }
        let len = (bytes.len() as u16).to_le_bytes();
        self.stream.write_all(&len)?;
        self.stream.write_all(&bytes)?;
        let mut status = [0u8; 1];
        self.stream.read_exact(&mut status)?;
        Ok(if status[0] == STATUS_ACCEPTED {
            SubmitOutcome::Accepted
        } else {
            SubmitOutcome::Rejected
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::{BrowserInstance, UserAgent, Vendor};
    use fingerprint::FeatureSet;

    fn sample_submission(seed: u8) -> Submission {
        let fs = FeatureSet::table8();
        let ua = UserAgent::new(Vendor::Chrome, 110 + seed as u32 % 4);
        let b = BrowserInstance::genuine(ua);
        Submission {
            session_id: [seed; 16],
            user_agent: ua.to_ua_string(),
            values: fs.extract(&b).values().to_vec(),
        }
    }

    #[test]
    fn submissions_round_trip_through_the_service() {
        let server = start_collector("127.0.0.1:0").unwrap();
        let mut client = CollectorClient::connect(server.local_addr()).unwrap();
        for i in 0..10u8 {
            let outcome = client.submit(&sample_submission(i)).unwrap();
            assert_eq!(outcome, SubmitOutcome::Accepted);
        }
        drop(client);
        let received = server.shutdown();
        assert_eq!(received.len(), 10);
        assert_eq!(received[3].session_id, [3u8; 16]);
    }

    #[test]
    fn corrupted_frames_are_rejected_not_fatal() {
        let server = start_collector("127.0.0.1:0").unwrap();
        let mut client = CollectorClient::connect(server.local_addr())
            .unwrap()
            .with_faults(
                FaultConfig {
                    drop_chance: 0.0,
                    corrupt_chance: 1.0,
                },
                7,
            );
        let mut rejected = 0;
        for i in 0..20u8 {
            match client.submit(&sample_submission(i)) {
                Ok(SubmitOutcome::Rejected) => rejected += 1,
                // A corrupted length field can desynchronise the stream;
                // magic/UA corruption is cleanly rejected.
                Ok(SubmitOutcome::Accepted) | Ok(SubmitOutcome::Dropped) => {}
                Err(_) => break,
            }
        }
        assert!(
            rejected >= 10,
            "most corrupted frames must be rejected, got {rejected}"
        );
        let stats_rejected = server.stats().rejected.load(Ordering::Relaxed);
        assert!(stats_rejected >= rejected);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn dropped_frames_never_reach_the_server() {
        let server = start_collector("127.0.0.1:0").unwrap();
        let mut client = CollectorClient::connect(server.local_addr())
            .unwrap()
            .with_faults(
                FaultConfig {
                    drop_chance: 1.0,
                    corrupt_chance: 0.0,
                },
                7,
            );
        for i in 0..5u8 {
            assert_eq!(
                client.submit(&sample_submission(i)).unwrap(),
                SubmitOutcome::Dropped
            );
        }
        drop(client);
        let received = server.shutdown();
        assert!(received.is_empty());
    }

    #[test]
    fn multiple_concurrent_clients() {
        let server = start_collector("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                thread::spawn(move || {
                    let mut client = CollectorClient::connect(addr).unwrap();
                    for i in 0..25u8 {
                        let outcome = client.submit(&sample_submission(t * 25 + i)).unwrap();
                        assert_eq!(outcome, SubmitOutcome::Accepted);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let received = server.shutdown();
        assert_eq!(received.len(), 100);
        assert_eq!(server_distinct_ids(&received), 100);
    }

    fn server_distinct_ids(subs: &[Submission]) -> usize {
        let mut ids: Vec<[u8; 16]> = subs.iter().map(|s| s.session_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let server = start_collector("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Declare a 60 KB frame.
        raw.write_all(&(60_000u16).to_le_bytes()).unwrap();
        let mut status = [0u8; 1];
        raw.read_exact(&mut status).unwrap();
        assert_eq!(status[0], STATUS_REJECTED);
        drop(raw);
        server.shutdown();
    }

    #[test]
    fn stats_count_connections() {
        let server = start_collector("127.0.0.1:0").unwrap();
        let _a = CollectorClient::connect(server.local_addr()).unwrap();
        let _b = CollectorClient::connect(server.local_addr()).unwrap();
        // Give the acceptor a moment to pick both up.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 2);
        drop(_a);
        drop(_b);
        server.shutdown();
    }
}
