//! Load generation over one TCP connection: the closed loop (capacity)
//! and the open loop (latency at a fixed offered rate). Every reply in
//! every phase is compared with the oracle bytes.

use crate::spec::{median, percentile, range, undisturbed};
use crate::world::World;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{Verdict, VerdictStatus, MAX_BATCH_PER_GUARD};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Windows the closed loop keeps in flight: 128 frames, under the
/// server's default `shed_limit` (256), so shedding cannot legitimately
/// occur in a closed-loop phase.
pub const PIPELINE_DEPTH: usize = 4;

/// Frames the open loop lets be outstanding on its connection. Arrivals
/// beyond it wait in the generator's own queue — still timed from their
/// intended send time — so a generator stall shows as latency and
/// lateness, never as a burst that trips shedding.
pub const OPEN_IN_FLIGHT: usize = PIPELINE_DEPTH * MAX_BATCH_PER_GUARD;

/// The offered rate of every open-loop phase, frames per second.
pub const OPEN_RATE_FPS: f64 = 20_000.0;

/// Reply accounting, kept per phase and summed into the run's result.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub sent: u64,
    pub matched: u64,
    pub mismatched: u64,
    pub degraded: u64,
    pub malformed: u64,
    pub missing: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.mismatched + self.degraded + self.malformed + self.missing
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.sent.max(1) as f64
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.matched += other.matched;
        self.mismatched += other.mismatched;
        self.degraded += other.degraded;
        self.malformed += other.malformed;
        self.missing += other.missing;
    }

    /// Classifies one reply against the oracle bytes of the frame it
    /// answers.
    pub fn check(&mut self, reply: &[u8], expected: &[u8; VERDICT_LEN]) {
        if reply == expected {
            self.matched += 1;
            return;
        }
        match Verdict::decode(reply).map(|v| v.status) {
            Ok(VerdictStatus::Degraded) => self.degraded += 1,
            Ok(VerdictStatus::Assessed) => self.mismatched += 1,
            _ => self.malformed += 1,
        }
    }
}

/// A cursor over the workload's cyclic frame-id sequence.
pub struct Cursor<'a> {
    sequence: &'a [u32],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(sequence: &'a [u32]) -> Self {
        Self { sequence, at: 0 }
    }

    pub fn next_id(&mut self) -> usize {
        let id = self.sequence[self.at];
        self.at = (self.at + 1) % self.sequence.len();
        id as usize
    }
}

pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the server under test");
    stream.set_nodelay(true).expect("set nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    stream
}

/// One closed-loop leg: `frames` frames in 32-frame windows, four windows
/// in flight. Returns the leg's wall time in seconds. A read error or
/// timeout charges every unanswered frame as missing and ends the leg.
pub fn closed_leg(
    stream: &mut TcpStream,
    world: &World,
    cursor: &mut Cursor<'_>,
    frames: usize,
    tally: &mut Tally,
) -> f64 {
    let windows = frames / MAX_BATCH_PER_GUARD;
    let mut ids: Vec<usize> = Vec::with_capacity(windows * MAX_BATCH_PER_GUARD);
    let mut wire = Vec::new();
    let mut replies = [0u8; MAX_BATCH_PER_GUARD * VERDICT_LEN];
    let mut write_window = |stream: &mut TcpStream, ids: &mut Vec<usize>| {
        wire.clear();
        for _ in 0..MAX_BATCH_PER_GUARD {
            let id = cursor.next_id();
            ids.push(id);
            wire.extend_from_slice(&world.frames[id]);
        }
        stream.write_all(&wire).is_ok()
    };
    let started = Instant::now();
    let mut written = 0;
    while written < windows.min(PIPELINE_DEPTH) && write_window(stream, &mut ids) {
        written += 1;
    }
    let mut answered = 0;
    for w in 0..windows {
        if w >= written || stream.read_exact(&mut replies).is_err() {
            break;
        }
        for (k, reply) in replies.chunks_exact(VERDICT_LEN).enumerate() {
            tally.check(reply, &world.oracle[ids[w * MAX_BATCH_PER_GUARD + k]]);
        }
        answered += MAX_BATCH_PER_GUARD;
        if written < windows && write_window(stream, &mut ids) {
            written += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    tally.sent += ids.len() as u64;
    tally.missing += (ids.len() - answered) as u64;
    elapsed
}

/// The result of a closed-loop phase.
pub struct ClosedPhase {
    /// Median leg, frames per second.
    pub median_fps: f64,
    /// The leg nine in ten are slower than: what an untraced run reports.
    pub undisturbed_fps: f64,
    /// Slowest and fastest leg, for the progress line.
    pub range_fps: (f64, f64),
    pub legs: usize,
}

/// Runs one warm-up leg and then `leg_frames`-frame legs until `budget`
/// has elapsed (at least five). Every leg is a fresh connection — one at
/// a time — so the legs cover the thread placements a connection can
/// get, not one.
pub fn closed_phase(
    addr: SocketAddr,
    world: &World,
    cursor: &mut Cursor<'_>,
    leg_frames: usize,
    budget: Duration,
    tally: &mut Tally,
) -> ClosedPhase {
    let started = Instant::now();
    closed_leg(&mut connect(addr), world, cursor, leg_frames, tally);
    let mut fps = Vec::new();
    while fps.len() < 5 || started.elapsed() < budget {
        let secs = closed_leg(&mut connect(addr), world, cursor, leg_frames, tally);
        fps.push(leg_frames as f64 / secs);
        if tally.missing > 0 {
            break;
        }
    }
    ClosedPhase {
        median_fps: median(&fps),
        undisturbed_fps: undisturbed(&fps),
        range_fps: range(&fps),
        legs: fps.len(),
    }
}

/// The result of an open-loop phase; latencies are from each frame's
/// *intended* send time, in microseconds.
pub struct OpenPhase {
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    /// How late the generator put frames on the wire, p99, microseconds.
    pub late_p99_us: f64,
    pub shed_share: f64,
}

/// Seeded Poisson arrivals at [`OPEN_RATE_FPS`] for `duration`, sent and
/// received by this one thread over one non-blocking connection.
pub fn open_phase(
    addr: SocketAddr,
    world: &World,
    cursor: &mut Cursor<'_>,
    duration: Duration,
    tally: &mut Tally,
) -> OpenPhase {
    // The arrival schedule, in ns from the phase start.
    let mut rng = ChaCha8Rng::seed_from_u64(world.seed ^ 0x0A11_71ED);
    let horizon_ns = duration.as_nanos() as f64;
    let mut schedule: Vec<u64> = Vec::new();
    let mut at_ns = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        at_ns += -(1.0 - u).ln() / OPEN_RATE_FPS * 1e9;
        if at_ns >= horizon_ns {
            break;
        }
        schedule.push(at_ns as u64);
    }
    let ids: Vec<usize> = schedule.iter().map(|_| cursor.next_id()).collect();
    let n = schedule.len();

    let mut stream = connect(addr);
    stream.set_nonblocking(true).expect("set nonblocking");
    let mut latency_us: Vec<f64> = Vec::with_capacity(n);
    let mut late_us: Vec<f64> = Vec::with_capacity(n);
    let mut out: Vec<u8> = Vec::new();
    let mut out_at = 0;
    let mut inbuf = [0u8; 4096];
    let mut in_len = 0;
    let (mut sent, mut received) = (0usize, 0usize);
    let before = *tally;
    let give_up = duration + Duration::from_secs(5);
    let started = Instant::now();
    while received < n {
        let elapsed = started.elapsed();
        if elapsed > give_up {
            break;
        }
        let now_ns = elapsed.as_nanos() as u64;
        while sent < n && schedule[sent] <= now_ns && sent - received < OPEN_IN_FLIGHT {
            out.extend_from_slice(&world.frames[ids[sent]]);
            late_us.push((now_ns - schedule[sent]) as f64 / 1e3);
            sent += 1;
        }
        if out_at < out.len() {
            match stream.write(&out[out_at..]) {
                Ok(k) => out_at += k,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => break,
            }
            if out_at == out.len() {
                out.clear();
                out_at = 0;
            }
        }
        if received == sent {
            std::hint::spin_loop();
            continue;
        }
        match stream.read(&mut inbuf[in_len..]) {
            Ok(0) => break,
            Ok(k) => {
                in_len += k;
                let done_ns = started.elapsed().as_nanos() as u64;
                let whole = in_len / VERDICT_LEN * VERDICT_LEN;
                for reply in inbuf[..whole].chunks_exact(VERDICT_LEN) {
                    tally.check(reply, &world.oracle[ids[received]]);
                    latency_us.push((done_ns - schedule[received]) as f64 / 1e3);
                    received += 1;
                }
                inbuf.copy_within(whole..in_len, 0);
                in_len -= whole;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => break,
        }
    }
    // Frames that were never sent (the connection died) or never
    // answered both count as missing: they missed any latency limit.
    tally.sent += n as u64;
    tally.missing += (n - received) as u64;
    latency_us.sort_by(f64::total_cmp);
    late_us.sort_by(f64::total_cmp);
    OpenPhase {
        p50_us: percentile(&latency_us, 0.50),
        p99_us: percentile(&latency_us, 0.99),
        p999_us: percentile(&latency_us, 0.999),
        late_p99_us: percentile(&late_us, 0.99),
        shed_share: (tally.degraded - before.degraded) as f64 / n.max(1) as f64,
    }
}
