//! Client for the risk-assessment service.
//!
//! The verdict is one signal inside a risk-based authentication flow
//! (§1, §4): an unreachable or misbehaving risk server must degrade
//! gracefully, never stall a login. The client therefore owns the full
//! fault story on its side of the wire:
//!
//! * **Per-request deadlines** — every exchange runs under
//!   [`RiskClientConfig::request_timeout`] for both reads and writes.
//! * **Poisoning** — after *any* I/O or decode error the connection is
//!   discarded (`client.poisoned`). A timed-out request may still be
//!   answered later; reusing the stream would let those stale bytes
//!   misparse as the next verdict. A poisoned stream is never read again.
//! * **Retry with capped, jittered backoff** — failed exchanges retry up
//!   to [`RiskClientConfig::max_retries`] times on a fresh connection
//!   (`client.retries`, `client.reconnects`), sleeping an
//!   exponentially-growing, ChaCha-jittered interval between attempts so
//!   a fleet of clients does not stampede a recovering server. The jitter
//!   is seeded ([`RiskClientConfig::retry_seed`]) — chaos runs reproduce.
//! * **Accounted failures** — a request that exhausts its retries lands
//!   in `client.errors`, and its latency span is *cancelled*, so
//!   `client.round_trip_micros.count + client.errors ==
//!   client.requests` holds exactly.

use crate::proto::{
    decode_stats_response_header, Verdict, VerdictError, STATS_RESPONSE_HEADER_LEN, VERDICT_LEN,
};
use browser_engine::BrowserInstance;
use fingerprint::{
    encode_stats_request, encode_submission, FeatureSet, Submission, MAX_SUBMISSION_BYTES,
};
use polygraph_obs::{Counter, Histogram, Registry, Snapshot, Span};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Metric names the client records into its registry.
pub mod metric_names {
    /// Submit-to-verdict latency in µs, successful round trips only
    /// (histogram). `count + client.errors == client.requests`.
    pub const ROUND_TRIP_MICROS: &str = "client.round_trip_micros";
    /// Logical submission requests started (counter).
    pub const REQUESTS: &str = "client.requests";
    /// Submission requests that failed after exhausting retries (counter).
    pub const ERRORS: &str = "client.errors";
    /// Retry attempts across all request kinds (counter).
    pub const RETRIES: &str = "client.retries";
    /// Fresh connections established after the initial connect (counter).
    pub const RECONNECTS: &str = "client.reconnects";
    /// Streams discarded after an I/O or decode error (counter).
    pub const POISONED: &str = "client.poisoned";
    /// `STATS` snapshots fetched (counter).
    pub const STATS_FETCHES: &str = "client.stats_fetches";
    /// `STATS` fetches that failed after exhausting retries (counter).
    pub const STATS_ERRORS: &str = "client.stats_errors";
    /// Backoff sleeps actually taken, in µs (histogram). `count ==
    /// client.retries`; the recorded values pin the exponential schedule
    /// (and its reset-on-success) in tests without timing a sleep.
    pub const BACKOFF_MICROS: &str = "client.backoff_micros";
}

/// Resilience settings of a [`RiskClient`].
#[derive(Debug, Clone)]
pub struct RiskClientConfig {
    /// Per-request read *and* write deadline. A server that takes longer
    /// is treated as failed for this attempt; the stream is poisoned.
    pub request_timeout: Duration,
    /// Retries after the first attempt of each request. `0` disables
    /// retrying (a single failure is returned to the caller).
    pub max_retries: u32,
    /// First-retry backoff; doubles per further attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed of the ChaCha stream that jitters each backoff into
    /// `[backoff/2, backoff]` — deterministic per client.
    pub retry_seed: u64,
}

impl Default for RiskClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(5),
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            retry_seed: 0,
        }
    }
}

/// A connection to a risk server.
pub struct RiskClient {
    addr: SocketAddr,
    config: RiskClientConfig,
    /// `None` while poisoned/disconnected; the next attempt reconnects.
    stream: Option<TcpStream>,
    /// The request being exchanged exactly as it goes on the wire —
    /// length header, then payload — so an attempt is one `write_all`
    /// (one segment on the `TCP_NODELAY` socket, one server read) and a
    /// retry resends the same bytes. Reused across requests.
    request: Vec<u8>,
    rng: ChaCha8Rng,
    next_session: u64,
    /// Failed exchanges since the last success, across requests. This —
    /// not a per-request counter — scales the backoff, so a client
    /// hammering a dead node keeps escalating toward `backoff_cap` even
    /// with a small per-request retry budget; any successful exchange
    /// resets it so the next transient blip starts back at
    /// `backoff_base` instead of inheriting the old streak.
    consecutive_failures: u32,
    registry: Arc<Registry>,
    round_trip: Arc<Histogram>,
    backoff_taken: Arc<Histogram>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    poisoned: Arc<Counter>,
    stats_fetches: Arc<Counter>,
    stats_errors: Arc<Counter>,
}

/// Encodes a u16-LE frame header, rejecting lengths the framing cannot
/// carry. The cast bug this guards against: `len as u16` silently
/// truncates a >65535-byte frame (an adversarially long user-agent) into
/// a short header, desyncing every frame after it.
fn frame_header(len: usize) -> io::Result<[u8; 2]> {
    match u16::try_from(len) {
        Ok(n) if len <= MAX_SUBMISSION_BYTES => Ok(n.to_le_bytes()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame length {len} exceeds the {MAX_SUBMISSION_BYTES}-byte framing limit"),
        )),
    }
}

/// `d` in whole microseconds, saturating at `u64::MAX`.
fn saturating_micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

impl RiskClient {
    /// Connects to a risk server, recording round-trip latency into a
    /// private monotonic-clock registry (see [`RiskClient::registry`]).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, Arc::new(Registry::monotonic()))
    }

    /// [`RiskClient::connect`] recording into a shared (possibly
    /// deterministically-clocked) registry.
    pub fn connect_with(addr: SocketAddr, registry: Arc<Registry>) -> io::Result<Self> {
        Self::connect_with_config(addr, registry, RiskClientConfig::default())
    }

    /// [`RiskClient::connect_with`] with explicit resilience settings.
    pub fn connect_with_config(
        addr: SocketAddr,
        registry: Arc<Registry>,
        config: RiskClientConfig,
    ) -> io::Result<Self> {
        let stream = Self::open_stream(addr, &config)?;
        Ok(Self {
            addr,
            rng: ChaCha8Rng::seed_from_u64(config.retry_seed),
            config,
            stream: Some(stream),
            request: Vec::new(),
            next_session: 1,
            consecutive_failures: 0,
            round_trip: registry.histogram(metric_names::ROUND_TRIP_MICROS),
            backoff_taken: registry.histogram(metric_names::BACKOFF_MICROS),
            requests: registry.counter(metric_names::REQUESTS),
            errors: registry.counter(metric_names::ERRORS),
            retries: registry.counter(metric_names::RETRIES),
            reconnects: registry.counter(metric_names::RECONNECTS),
            poisoned: registry.counter(metric_names::POISONED),
            stats_fetches: registry.counter(metric_names::STATS_FETCHES),
            stats_errors: registry.counter(metric_names::STATS_ERRORS),
            registry,
        })
    }

    fn open_stream(addr: SocketAddr, config: &RiskClientConfig) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(config.request_timeout))?;
        stream.set_write_timeout(Some(config.request_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// The registry this client's latency metrics land in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Discards the current stream after an error. A timed-out request may
    /// still be answered later; reading those stale bytes as the next
    /// response would return a garbage verdict, so a stream that saw any
    /// error is never read again.
    fn poison(&mut self) {
        if self.stream.take().is_some() {
            self.poisoned.inc();
        }
    }

    /// Stages `payload` behind its length header in the reusable request
    /// buffer. Fails, sending nothing, on a payload the framing cannot
    /// carry.
    fn stage_request(&mut self, payload: &[u8]) -> io::Result<()> {
        let header = frame_header(payload.len())?;
        self.request.clear();
        self.request.extend_from_slice(&header);
        self.request.extend_from_slice(payload);
        Ok(())
    }

    /// Writes the staged request, header and payload in one `write_all`,
    /// on the current (or a fresh) stream, and hands back the stream to
    /// read the reply from.
    fn send_request(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = Self::open_stream(self.addr, &self.config)?;
            self.reconnects.inc();
            self.stream = Some(stream);
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        stream.write_all(&self.request)?;
        Ok(stream)
    }

    /// Sleeps the backoff for the current failure streak, recording the
    /// chosen interval into `client.backoff_micros` so tests can pin the
    /// schedule (including its reset-on-success) without timing a sleep.
    fn sleep_backoff(&mut self) {
        let delay = self.backoff(self.consecutive_failures);
        self.backoff_taken.record(saturating_micros(delay));
        thread::sleep(delay);
    }

    /// The jittered, capped exponential backoff before retry `attempt`
    /// (1-based): `base · 2^(attempt-1)` capped at `backoff_cap`, then
    /// jittered into `[d/2, d]` by the seeded ChaCha stream.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = saturating_micros(self.config.backoff_base);
        let cap = saturating_micros(self.config.backoff_cap);
        let shift = attempt.saturating_sub(1).min(20);
        let full = base.saturating_mul(1u64 << shift).min(cap.max(base));
        let half = full / 2;
        // `full - half + 1` is always ≥ 1, so the modulo cannot divide by
        // zero and the result lands in [half, full].
        let jittered = half + self.rng.next_u64() % (full - half + 1);
        Duration::from_micros(jittered)
    }

    /// Submits one prepared submission and awaits the verdict, retrying
    /// on a fresh connection (with backoff) after any I/O failure.
    pub fn assess_submission(&mut self, sub: &Submission) -> io::Result<Verdict> {
        let frame = encode_submission(sub)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.assess_encoded(&frame)
    }

    /// [`Self::assess_submission`] for a caller that already holds the
    /// encoded frame (the fleet client encodes once, to route).
    pub(crate) fn assess_encoded(&mut self, frame: &[u8]) -> io::Result<Verdict> {
        self.stage_request(frame)?;
        self.requests.inc();
        let result = self.with_retries(|client| {
            let span = Span::on(
                Arc::clone(&client.round_trip),
                Arc::clone(client.registry.clock()),
            );
            let verdict = client.try_verdict_exchange();
            // Only completed round trips belong in the latency
            // histogram; a failed attempt is counted, not timed.
            match verdict {
                Ok(_) => {
                    span.finish();
                }
                Err(_) => span.cancel(),
            }
            verdict
        });
        if result.is_err() {
            self.errors.inc();
        }
        result
    }

    /// Runs `exchange` on the staged request until it succeeds or the
    /// retry budget is spent — the fault discipline every request kind
    /// shares: a failed attempt poisons the stream and lengthens the
    /// streak, then retries on a fresh connection after its backoff.
    /// Which success and error counters it lands in is the caller's.
    fn with_retries<T>(
        &mut self,
        mut exchange: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match exchange(self) {
                Ok(reply) => {
                    // A success ends the failure streak: the next blip
                    // backs off from `backoff_base` again instead of
                    // inheriting this connection's old escalation.
                    self.consecutive_failures = 0;
                    return Ok(reply);
                }
                Err(e) => {
                    self.poison();
                    self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                    if attempt >= self.config.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries.inc();
                    self.sleep_backoff();
                }
            }
        }
    }

    /// One verdict exchange of the staged request on the current (or a
    /// fresh) stream. Any error leaves the stream in an unknown state —
    /// the caller must poison.
    fn try_verdict_exchange(&mut self) -> io::Result<Verdict> {
        let stream = self.send_request()?;
        let mut buf = [0u8; VERDICT_LEN];
        stream.read_exact(&mut buf)?;
        Verdict::decode(&buf)
            .map_err(|e: VerdictError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Convenience: probes a browser with `features`, ships the frame,
    /// returns the verdict — the in-page script plus uploader in one call.
    pub fn assess_browser(
        &mut self,
        features: &FeatureSet,
        browser: &BrowserInstance,
    ) -> io::Result<Verdict> {
        let mut session_id = [0u8; 16];
        for (dst, src) in session_id.iter_mut().zip(self.next_session.to_le_bytes()) {
            *dst = src;
        }
        self.next_session += 1;
        let sub = Submission {
            session_id,
            user_agent: browser.claimed_user_agent().to_ua_string(),
            values: features.extract(browser).values().to_vec(),
        };
        self.assess_submission(&sub)
    }

    /// Pulls the server's metrics snapshot over the wire (a `STATS`
    /// request frame, answered in order with a JSON snapshot), with the
    /// same poison-and-retry discipline as submissions.
    pub fn fetch_stats(&mut self) -> io::Result<Snapshot> {
        self.stage_request(&encode_stats_request())?;
        let result = self.with_retries(Self::try_stats_exchange);
        match result {
            Ok(_) => self.stats_fetches.inc(),
            Err(_) => self.stats_errors.inc(),
        }
        result
    }

    fn try_stats_exchange(&mut self) -> io::Result<Snapshot> {
        let stream = self.send_request()?;
        let mut resp_header = [0u8; STATS_RESPONSE_HEADER_LEN];
        stream.read_exact(&mut resp_header)?;
        let len = decode_stats_response_header(&resp_header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body)?;
        let json = String::from_utf8(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Snapshot::parse_json(&json)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable snapshot"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::VerdictStatus;
    use crate::server::start_risk_server;
    use crate::server::test_support::tiny_detector;
    use browser_engine::{UserAgent, Vendor};

    #[test]
    fn client_round_trips_submissions() {
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut client = RiskClient::connect(server.local_addr()).unwrap();
        let sub = Submission {
            session_id: [1u8; 16],
            user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
            values: vec![10, 10],
        };
        let v = client.assess_submission(&sub).unwrap();
        assert_eq!(v.status, VerdictStatus::Assessed);
        assert!(!v.flagged);

        // Multiple submissions over one connection.
        let lying = Submission {
            values: vec![0, 0],
            ..sub
        };
        let v = client.assess_submission(&lying).unwrap();
        assert!(v.flagged);

        // Every round trip landed in the client's latency histogram, and
        // the fault-path counters stayed at zero.
        let snap = client.registry().snapshot();
        let h = snap
            .histograms
            .get(metric_names::ROUND_TRIP_MICROS)
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(snap.counters.get(metric_names::REQUESTS), Some(&2));
        assert_eq!(snap.counters.get(metric_names::ERRORS), Some(&0));
        assert_eq!(snap.counters.get(metric_names::RETRIES), Some(&0));
        assert_eq!(snap.counters.get(metric_names::POISONED), Some(&0));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn session_ids_increment() {
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut client = RiskClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.next_session, 1);
        // assess_browser uses the full 28-feature schema against a 2-wide
        // model: schema mismatch is the expected verdict; the session
        // counter must still advance.
        let b = browser_engine::BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 100));
        let v = client.assess_browser(&FeatureSet::table8(), &b).unwrap();
        assert_eq!(v.status, VerdictStatus::SchemaMismatch);
        assert_eq!(client.next_session, 2);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn fetch_stats_round_trips_a_snapshot() {
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut client = RiskClient::connect(server.local_addr()).unwrap();
        let sub = Submission {
            session_id: [1u8; 16],
            user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
            values: vec![10, 10],
        };
        client.assess_submission(&sub).unwrap();
        let snap = client.fetch_stats().unwrap();
        assert_eq!(
            snap.counters.get(crate::server::metric_names::ASSESSED),
            Some(&1)
        );
        assert_eq!(
            snap.counters
                .get(crate::server::metric_names::STATS_REQUESTS),
            Some(&1)
        );
        drop(client);
        server.shutdown();
    }

    /// A request is one write: header and payload leave in one segment,
    /// so a peer polling its socket never sees the 2-byte header alone.
    /// The peer here polls a non-blocking socket — the reader most
    /// likely to catch a split — and logs the size of every read.
    #[test]
    fn every_request_reaches_the_peer_in_a_single_read() {
        use crate::proto::encode_stats_response;
        use std::net::TcpListener;

        const CALLS: usize = 200;
        let sub = Submission {
            session_id: [3u8; 16],
            user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
            values: vec![10, 10],
        };
        let frame_len = encode_submission(&sub).unwrap().len();
        let stats_len = encode_stats_request().len();
        let stats_body = Registry::monotonic().snapshot().render_json();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nonblocking(true).unwrap();
            let mut reads = Vec::new();
            let mut buf = [0u8; 4096];
            // Bytes of the current request still to come, and requests
            // answered so far.
            let (mut pending, mut answered) = (0usize, 0usize);
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => return reads,
                    Ok(n) => {
                        reads.push(n);
                        if pending == 0 {
                            pending = 2 + usize::from(u16::from_le_bytes([buf[0], buf[1]]));
                        }
                        pending -= n;
                        if pending == 0 {
                            answered += 1;
                            let reply = if answered <= CALLS {
                                Verdict::error(VerdictStatus::Degraded).encode().to_vec()
                            } else {
                                encode_stats_response(stats_body.as_bytes())
                            };
                            stream.write_all(&reply).unwrap();
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::yield_now(),
                    Err(e) => panic!("peer read failed: {e}"),
                }
            }
        });

        let mut client = RiskClient::connect(addr).unwrap();
        for _ in 0..CALLS {
            client.assess_submission(&sub).unwrap();
        }
        client.fetch_stats().unwrap();
        drop(client);

        let mut expected = vec![2 + frame_len; CALLS];
        expected.push(2 + stats_len);
        assert_eq!(peer.join().unwrap(), expected);
    }

    #[test]
    fn frame_header_rejects_untransmittable_lengths() {
        assert_eq!(frame_header(0).unwrap(), [0, 0]);
        assert_eq!(frame_header(3).unwrap(), [3, 0]);
        assert_eq!(
            frame_header(MAX_SUBMISSION_BYTES).unwrap(),
            (MAX_SUBMISSION_BYTES as u16).to_le_bytes()
        );
        // Over the submission budget: the server would kill the connection
        // on the oversize header, so the client refuses to send it.
        let e = frame_header(MAX_SUBMISSION_BYTES + 1).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        // Over u16: the old `len as u16` cast silently truncated this to
        // 4465, desyncing the stream. Now it is an input error.
        let e = frame_header(70_001).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let mut client = RiskClient::connect(server.local_addr()).unwrap();
        // Simulate a long failure streak inherited from a dead peer.
        client.consecutive_failures = 9;
        let sub = Submission {
            session_id: [2u8; 16],
            user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
            values: vec![10, 10],
        };
        client.assess_submission(&sub).unwrap();
        assert_eq!(
            client.consecutive_failures, 0,
            "a successful exchange must end the failure streak"
        );
        drop(client);
        server.shutdown();
    }

    #[test]
    fn backoff_is_capped_jittered_and_seeded() {
        let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
        let config = RiskClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            retry_seed: 7,
            ..Default::default()
        };
        let mut a = RiskClient::connect_with_config(
            server.local_addr(),
            Arc::new(Registry::monotonic()),
            config.clone(),
        )
        .unwrap();
        let mut b = RiskClient::connect_with_config(
            server.local_addr(),
            Arc::new(Registry::monotonic()),
            config,
        )
        .unwrap();
        for attempt in 1..=6u32 {
            let d_a = a.backoff(attempt);
            let full = Duration::from_millis((10 * (1 << (attempt - 1))).min(40));
            assert!(d_a >= full / 2 && d_a <= full, "attempt {attempt}: {d_a:?}");
            assert_eq!(d_a, b.backoff(attempt), "same seed, same jitter");
        }
        server.shutdown();
    }
}
