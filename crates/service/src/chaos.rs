//! polygraph-chaos: deterministic fault injection for the service stack.
//!
//! The paper deploys Browser Polygraph inside a risk-based authentication
//! path (§1, §4) where the fingerprint verdict is one signal among many —
//! an unreachable or desynced risk server must degrade gracefully, never
//! stall a login. This module provides the fault model that lets tests
//! *prove* that property instead of assuming it:
//!
//! * [`FaultConfig`] / [`FaultPlan`] — a seeded, ChaCha-driven description
//!   of which wire-layer faults to inject and how often. Every decision is
//!   a pure function of (seed, stream id, draw index), so a failing chaos
//!   run reproduces exactly from its seed.
//! * [`FaultSession`] — the per-direction decision stream a pump consults:
//!   given a chunk of bytes to forward, it plans the delivery as a
//!   sequence of [`DeliveryStep`]s (sends, pauses, an optional mid-chunk
//!   connection reset).
//! * [`ChaosProxy`] — a test-only TCP proxy that sits between a
//!   [`crate::RiskClient`] and a risk server and applies a [`FaultPlan`]
//!   to both directions independently: partial writes, split/merged
//!   frames, read stalls past the client deadline, mid-verdict resets,
//!   slow-loris byte drips, and delayed `STATS` responses.
//!
//! No wall-clock reads and no ambient RNG (`clippy.toml`, the vendored
//! `rand`), and the module sits in the panic-safety lint zone
//! (`lint.toml`): no `unwrap`/indexing on the pump path — a fault
//! injector that itself panics would mask the bug it was built to flush
//! out.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Which faults a [`FaultPlan`] injects and how often, as per-mille
/// probabilities drawn once per forwarded chunk. Classes are checked in a
/// fixed order (reset, stall, drip, split, delay) and at most one fires
/// per chunk, so the decision stream is stable under config edits that
/// leave earlier classes untouched.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Chance (‰) of closing the connection after forwarding only the
    /// first half of a chunk — the "mid-verdict reset".
    pub reset_per_mille: u16,
    /// Chance (‰) of holding a whole chunk for [`FaultConfig::stall`]
    /// before forwarding it — long enough to trip a peer's read deadline.
    pub stall_per_mille: u16,
    /// The stall duration. Point this past the client's request timeout to
    /// exercise the timeout-then-retry path.
    pub stall: Duration,
    /// Chance (‰) of slow-loris delivery: the chunk's first bytes are
    /// forwarded one at a time, [`FaultConfig::drip_step`] apart.
    pub drip_per_mille: u16,
    /// Pause between dripped bytes. Keep it under the receiver's read
    /// timeout: a drip is slow progress, not a stall.
    pub drip_step: Duration,
    /// Chance (‰) of splitting a chunk at a drawn boundary into two
    /// separate writes (a partial write / split frame).
    pub split_per_mille: u16,
    /// Chance (‰) of delaying a chunk by [`FaultConfig::delay`] before
    /// forwarding it whole — the "slow `STATS` response".
    pub delay_per_mille: u16,
    /// The plain-delay duration.
    pub delay: Duration,
}

/// How many leading bytes of a chunk a drip delivers one at a time before
/// the remainder goes out in one write. Bounds drip wall-time while still
/// crossing every interesting frame boundary (headers are 2–7 bytes).
const DRIP_PREFIX: usize = 16;

impl FaultConfig {
    /// A config that injects nothing — the proxy becomes a plain relay.
    pub fn none() -> Self {
        Self {
            reset_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::from_millis(0),
            drip_per_mille: 0,
            drip_step: Duration::from_millis(0),
            split_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::from_millis(0),
        }
    }

    /// Whether any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.reset_per_mille > 0
            || self.stall_per_mille > 0
            || self.drip_per_mille > 0
            || self.split_per_mille > 0
            || self.delay_per_mille > 0
    }
}

/// A seeded fault plan: one [`FaultConfig`] per proxy direction plus the
/// ChaCha seed every [`FaultSession`] derives from.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Faults applied to client→server traffic (submission frames).
    pub client_to_server: FaultConfig,
    /// Faults applied to server→client traffic (verdicts, `STATS`).
    pub server_to_client: FaultConfig,
}

impl FaultPlan {
    /// A plan applying `config` to both directions.
    pub fn symmetric(seed: u64, config: FaultConfig) -> Self {
        Self {
            seed,
            client_to_server: config.clone(),
            server_to_client: config,
        }
    }

    /// A plan with distinct per-direction configs.
    pub fn directional(
        seed: u64,
        client_to_server: FaultConfig,
        server_to_client: FaultConfig,
    ) -> Self {
        Self {
            seed,
            client_to_server,
            server_to_client,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The decision stream for one pump direction. `stream` must be unique
    /// per (connection, direction); the proxy uses `2·conn` for
    /// client→server and `2·conn + 1` for server→client, so every session
    /// draws from an independent ChaCha keystream of the same seed.
    pub fn session(&self, stream: u64, config: FaultConfig) -> FaultSession {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.set_stream(stream);
        FaultSession { rng, config }
    }
}

/// One step of a planned chunk delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStep {
    /// Sleep for the duration before the next send.
    Pause(Duration),
    /// Forward the next `n` bytes of the chunk.
    Send(usize),
}

/// How a chunk should be delivered: the steps in order, then optionally a
/// hard connection reset (remaining bytes are dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Delivery steps, consumed in order.
    pub steps: Vec<DeliveryStep>,
    /// Close both directions after the steps ran (bytes not covered by a
    /// [`DeliveryStep::Send`] are lost, as in a real connection reset).
    pub reset_after: bool,
}

impl ChunkPlan {
    fn clean(len: usize) -> Self {
        Self {
            steps: vec![DeliveryStep::Send(len)],
            reset_after: false,
        }
    }
}

/// The per-direction decision stream: a ChaCha keystream plus the config
/// saying which faults may fire.
#[derive(Debug)]
pub struct FaultSession {
    rng: ChaCha8Rng,
    config: FaultConfig,
}

impl FaultSession {
    /// Draws one per-mille roll. Always consumes exactly one RNG word so
    /// the decision stream stays aligned across runs.
    fn roll(&mut self, per_mille: u16) -> bool {
        let draw = self.rng.next_u32() % 1000;
        per_mille > 0 && draw < u32::from(per_mille)
    }

    /// Plans the delivery of an `len`-byte chunk. Classes are tried in a
    /// fixed order and at most one fires; every call consumes the same
    /// number of probability draws regardless of which (plus one extra
    /// draw for the boundary when a reset or split fires).
    pub fn plan_chunk(&mut self, len: usize) -> ChunkPlan {
        let reset = self.roll(self.config.reset_per_mille);
        let stall = self.roll(self.config.stall_per_mille);
        let drip = self.roll(self.config.drip_per_mille);
        let split = self.roll(self.config.split_per_mille);
        let delay = self.roll(self.config.delay_per_mille);
        if len == 0 {
            return ChunkPlan::clean(0);
        }
        if reset {
            // Forward only the first half, then cut the connection: the
            // peer sees a torn frame followed by EOF/reset.
            return ChunkPlan {
                steps: vec![DeliveryStep::Send(len / 2)],
                reset_after: true,
            };
        }
        if stall {
            return ChunkPlan {
                steps: vec![
                    DeliveryStep::Pause(self.config.stall),
                    DeliveryStep::Send(len),
                ],
                reset_after: false,
            };
        }
        if drip {
            let dripped = len.min(DRIP_PREFIX);
            let mut steps = Vec::with_capacity(dripped * 2 + 1);
            for _ in 0..dripped {
                steps.push(DeliveryStep::Pause(self.config.drip_step));
                steps.push(DeliveryStep::Send(1));
            }
            if len > dripped {
                steps.push(DeliveryStep::Send(len - dripped));
            }
            return ChunkPlan {
                steps,
                reset_after: false,
            };
        }
        if split && len >= 2 {
            // Boundary in 1..len so both halves are non-empty.
            let at = 1 + (self.rng.next_u32() as usize) % (len - 1);
            return ChunkPlan {
                steps: vec![
                    DeliveryStep::Send(at),
                    DeliveryStep::Pause(self.config.delay),
                    DeliveryStep::Send(len - at),
                ],
                reset_after: false,
            };
        }
        if delay {
            return ChunkPlan {
                steps: vec![
                    DeliveryStep::Pause(self.config.delay),
                    DeliveryStep::Send(len),
                ],
                reset_after: false,
            };
        }
        ChunkPlan::clean(len)
    }
}

/// Handle to a running chaos proxy. Dropping it without
/// [`ChaosProxy::shutdown`] leaves the threads to exit on their next
/// stop-flag poll.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    resets: Arc<AtomicU64>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// The proxy's listening address — point the client here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections the proxy has reset so far (both directions).
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::SeqCst)
    }

    /// Stops the acceptor and every pump, then joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// How often pumps poll the stop flag while idle; also the granularity at
/// which a shutdown interrupts a quiet connection.
const PUMP_POLL: Duration = Duration::from_millis(10);

/// Starts a chaos proxy on an ephemeral localhost port, relaying every
/// accepted connection to `upstream` with `plan`'s faults applied.
pub fn start_chaos_proxy(upstream: SocketAddr, plan: FaultPlan) -> io::Result<ChaosProxy> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let resets = Arc::new(AtomicU64::new(0));

    let acceptor = {
        let stop = Arc::clone(&stop);
        let resets = Arc::clone(&resets);
        thread::spawn(move || acceptor_loop(listener, upstream, plan, stop, resets))
    };

    Ok(ChaosProxy {
        addr,
        stop,
        resets,
        acceptor: Some(acceptor),
    })
}

fn acceptor_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    stop: Arc<AtomicBool>,
    resets: Arc<AtomicU64>,
) {
    let mut pumps: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut conn: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        pumps.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((downstream, _)) => {
                match TcpStream::connect(upstream) {
                    Ok(up) => {
                        spawn_pumps(&mut pumps, downstream, up, &plan, conn, &stop, &resets);
                    }
                    // Upstream down: the client sees an immediate close,
                    // which is itself a fault worth surviving.
                    Err(_) => drop(downstream),
                }
                conn += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for p in pumps {
        let _ = p.join();
    }
}

fn spawn_pumps(
    pumps: &mut Vec<thread::JoinHandle<()>>,
    downstream: TcpStream,
    upstream: TcpStream,
    plan: &FaultPlan,
    conn: u64,
    stop: &Arc<AtomicBool>,
    resets: &Arc<AtomicU64>,
) {
    let Ok(down_clone) = downstream.try_clone() else {
        return;
    };
    let Ok(up_clone) = upstream.try_clone() else {
        return;
    };
    let c2s = plan.session(conn * 2, plan.client_to_server.clone());
    let s2c = plan.session(conn * 2 + 1, plan.server_to_client.clone());
    {
        let stop = Arc::clone(stop);
        let resets = Arc::clone(resets);
        pumps.push(thread::spawn(move || {
            pump(downstream, up_clone, c2s, stop, resets)
        }));
    }
    {
        let stop = Arc::clone(stop);
        let resets = Arc::clone(resets);
        pumps.push(thread::spawn(move || {
            pump(upstream, down_clone, s2c, stop, resets)
        }));
    }
}

/// Forwards bytes from `src` to `dst`, applying the session's chunk plans.
/// Returns when either side closes, a planned reset fires, or the proxy
/// stops.
fn pump(
    src: TcpStream,
    mut dst: TcpStream,
    mut session: FaultSession,
    stop: Arc<AtomicBool>,
    resets: Arc<AtomicU64>,
) {
    let mut src = src;
    if src.set_read_timeout(Some(PUMP_POLL)).is_err() {
        return;
    }
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        let plan = session.plan_chunk(n);
        let mut offset = 0usize;
        let mut failed = false;
        for step in &plan.steps {
            match *step {
                DeliveryStep::Pause(d) => sleep_interruptibly(d, &stop),
                DeliveryStep::Send(len) => {
                    let Some(bytes) = chunk.get(offset..offset + len) else {
                        failed = true;
                        break;
                    };
                    if dst.write_all(bytes).is_err() {
                        failed = true;
                        break;
                    }
                    offset += len;
                }
            }
        }
        if plan.reset_after {
            resets.fetch_add(1, Ordering::SeqCst);
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            break;
        }
        if failed {
            break;
        }
    }
    // Propagate EOF so the peer's pump/reader unblocks promptly.
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Sleeps `total` in stop-flag-sized slices so shutdown is never blocked
/// behind a long planned stall.
fn sleep_interruptibly(total: Duration, stop: &AtomicBool) {
    let mut remaining = total;
    while !remaining.is_zero() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let slice = remaining.min(PUMP_POLL);
        thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_faults() -> FaultConfig {
        FaultConfig {
            reset_per_mille: 100,
            stall_per_mille: 100,
            stall: Duration::from_millis(50),
            drip_per_mille: 100,
            drip_step: Duration::from_millis(1),
            split_per_mille: 300,
            delay_per_mille: 300,
            delay: Duration::from_millis(2),
        }
    }

    #[test]
    fn plans_are_reproducible_from_the_seed() {
        let plan = FaultPlan::symmetric(42, all_faults());
        let mut a = plan.session(0, plan.client_to_server.clone());
        let mut b = plan.session(0, plan.client_to_server.clone());
        for len in [1usize, 8, 150, 4096, 3, 7, 1024] {
            assert_eq!(a.plan_chunk(len), b.plan_chunk(len));
        }
    }

    #[test]
    fn sessions_on_distinct_streams_diverge() {
        let plan = FaultPlan::symmetric(42, all_faults());
        let mut a = plan.session(0, plan.client_to_server.clone());
        let mut b = plan.session(1, plan.client_to_server.clone());
        let plans_a: Vec<ChunkPlan> = (0..64).map(|_| a.plan_chunk(256)).collect();
        let plans_b: Vec<ChunkPlan> = (0..64).map(|_| b.plan_chunk(256)).collect();
        assert_ne!(plans_a, plans_b, "independent keystreams must differ");
    }

    #[test]
    fn plans_cover_every_byte_or_reset() {
        let plan = FaultPlan::symmetric(7, all_faults());
        let mut s = plan.session(3, plan.client_to_server.clone());
        for len in 1usize..200 {
            let p = s.plan_chunk(len);
            let sent: usize = p
                .steps
                .iter()
                .map(|st| match st {
                    DeliveryStep::Send(n) => *n,
                    DeliveryStep::Pause(_) => 0,
                })
                .sum();
            if p.reset_after {
                assert!(sent <= len, "a reset may drop bytes, never invent them");
            } else {
                assert_eq!(sent, len, "non-reset plans must deliver every byte");
            }
        }
    }

    #[test]
    fn inactive_config_plans_clean_deliveries() {
        let plan = FaultPlan::symmetric(1, FaultConfig::none());
        assert!(!FaultConfig::none().is_active());
        assert!(all_faults().is_active());
        let mut s = plan.session(0, FaultConfig::none());
        for len in [0usize, 1, 4096] {
            assert_eq!(s.plan_chunk(len), ChunkPlan::clean(len));
        }
    }

    #[test]
    fn proxy_relays_transparently_with_no_faults() {
        // Echo upstream: whatever arrives goes straight back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            if let Ok((mut s, _)) = upstream.accept() {
                let mut buf = [0u8; 64];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    if s.write_all(buf.get(..n).unwrap_or_default()).is_err() {
                        break;
                    }
                }
            }
        });

        let proxy =
            start_chaos_proxy(upstream_addr, FaultPlan::symmetric(0, FaultConfig::none())).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        client.set_nodelay(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(b"polygraph").unwrap();
        let mut back = [0u8; 9];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"polygraph");
        assert_eq!(proxy.resets(), 0);
        drop(client);
        proxy.shutdown();
        let _ = echo.join();
    }
}
