//! `fleet_rpc`: one caller, one request outstanding, through
//! `FleetClient::assess_submission` to a 2-node reactor fleet — how a
//! login flow actually calls the service. The only workload on the
//! reactor core.

use crate::load::{Cursor, Tally};
use crate::spec::{median, percentile, range, Metrics};
use crate::trace::{timer_pair_ns, Tracer, NO_PARENT};
use crate::world::{payload, Mix, World, SEQUENCE_LEN};
use crate::{common_layer_metrics, serve, Report};
use fingerprint::{decode_submission, encode_submission, submission_cache_key, Submission};
use polygraph_service::fleet::metric_names::FAILOVERS;
use polygraph_service::{
    FleetClient, FleetConfig, RiskClient, RiskClientConfig, RiskFleet, RiskServerConfig,
    ServerBackend,
};
use std::path::Path;
use std::time::{Duration, Instant};

const NODES: usize = 2;

/// Untimed calls at the head of every leg: they open the per-node
/// connections and fill the fresh nodes' caches.
const WARM_CALLS: usize = 200;

pub struct Rig {
    fleet: RiskFleet,
    sequence: Vec<u32>,
    /// The repeat pool decoded back into what a caller holds.
    submissions: Vec<Submission>,
}

fn start_fleet(world: &World) -> RiskFleet {
    RiskFleet::start(
        &world.model,
        FleetConfig {
            nodes: NODES,
            node: RiskServerConfig {
                cache_shards: 4,
                cache_capacity: 2048,
                quantized: true,
                backend: ServerBackend::Reactor,
                reactor_shards: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("start the fleet under test")
}

/// The one caller: its place in the sequence and what it has seen.
struct Caller<'a> {
    submissions: &'a [Submission],
    world: &'a World,
    cursor: Cursor<'a>,
    /// Every call's latency, µs.
    latency_us: Vec<f64>,
    tally: Tally,
}

impl Caller<'_> {
    /// `calls` blocking RPCs; returns their wall time in seconds. With
    /// an enabled tracer, one span per call.
    fn call(&mut self, client: &mut FleetClient, calls: usize, tracer: &mut Tracer) -> f64 {
        let started = Instant::now();
        for call in 0..calls {
            let id = self.cursor.next_id();
            let span = tracer.open("service.fleet.rpc", NO_PARENT, call as u32);
            let sent = Instant::now();
            let reply = client.assess_submission(&self.submissions[id]);
            self.latency_us.push(sent.elapsed().as_secs_f64() * 1e6);
            tracer.close(span);
            self.tally.sent += 1;
            match reply {
                Ok(verdict) => self.tally.check(&verdict.encode(), &self.world.oracle[id]),
                Err(_) => self.tally.missing += 1,
            }
        }
        started.elapsed().as_secs_f64()
    }
}

/// What the legs of one run saw, summed over the fleets they ran on.
#[derive(Default)]
struct Legs {
    plain_secs: Vec<f64>,
    traced_secs: Vec<f64>,
    latency_us: Vec<f64>,
    tally: Tally,
    /// Some fleet's books did not balance.
    unbalanced: bool,
    cache_hits: u64,
    cache_lookups: u64,
    failovers: u64,
}

impl Rig {
    pub fn prepare(world: &World) -> Self {
        let submissions = world.frames[..world.scale.pool_sessions]
            .iter()
            .map(|f| decode_submission(payload(f)).expect("pool frame decodes"))
            .collect();
        Self {
            fleet: start_fleet(world),
            sequence: world.sequence(Mix::Repeat, SEQUENCE_LEN),
            submissions,
        }
    }

    pub fn shutdown(self) {
        self.fleet.shutdown();
    }

    /// Legs of `rpc_leg_calls` calls until `seconds` have elapsed (at
    /// least five); alternate legs are traced when `tracer` is enabled.
    ///
    /// Every leg after the first runs on a fresh fleet. Each reactor
    /// node sleeps 500 µs between scans, and how the two nodes' sleep
    /// cycles sit against each other is fixed when a fleet starts and
    /// decides whether a call waits a part or the whole of an interval:
    /// one fleet in ten runs a third slower for as long as it lives. The
    /// median over a run's fleets does not depend on that draw.
    fn run_legs(&mut self, world: &World, seconds: f64, tracer: &mut Tracer) -> Legs {
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let calls = world.scale.rpc_leg_calls;
        let mut caller = Caller {
            submissions: &self.submissions,
            world,
            cursor: Cursor::new(&self.sequence),
            latency_us: Vec::new(),
            tally: Tally::default(),
        };
        let mut legs = Legs::default();
        let mut off = Tracer::new(false, 0);
        let mut leg = 0;
        while leg < 5 || started.elapsed() < budget {
            if leg > 0 {
                std::mem::replace(&mut self.fleet, start_fleet(world)).shutdown();
            }
            let sent_before = caller.tally.sent;
            let mut client = FleetClient::connect(&self.fleet, RiskClientConfig::default());
            caller.call(&mut client, WARM_CALLS, &mut off);
            caller
                .latency_us
                .truncate(caller.latency_us.len() - WARM_CALLS);
            if tracer.is_enabled() && leg % 2 == 1 {
                legs.traced_secs
                    .push(caller.call(&mut client, calls, tracer));
            } else {
                legs.plain_secs
                    .push(caller.call(&mut client, calls, &mut off));
            }
            drop(client);

            // Close this fleet's books before it is replaced.
            let mut answered = 0;
            for node in 0..NODES {
                let stats = self.fleet.node_stats(node).expect("no node was killed");
                answered += serve::answered(&stats);
                legs.unbalanced |= !serve::cache_books_balance(&stats);
                legs.cache_hits += stats.cache_hits;
                legs.cache_lookups += stats.cache_hits + stats.cache_misses;
            }
            legs.unbalanced |= answered != caller.tally.sent - sent_before;
            legs.failovers += self.fleet.obs().counter(FAILOVERS).get();
            leg += 1;
        }
        legs.latency_us = caller.latency_us;
        legs.tally = caller.tally;
        legs
    }

    pub fn measure(&mut self, world: &World, seconds: f64) -> Report {
        let legs = self.run_legs(world, seconds, &mut Tracer::new(false, 0));
        let calls = world.scale.rpc_leg_calls as f64;
        let per_s: Vec<f64> = legs.plain_secs.iter().map(|s| calls / s).collect();
        let mut metrics = Metrics::default();
        metrics.set("throughput_per_s", median(&per_s));
        eprintln!(
            "rpc: {} legs, median {:.0} calls/s (slowest {:.0}, fastest {:.0})",
            per_s.len(),
            median(&per_s),
            range(&per_s).0,
            range(&per_s).1
        );
        Report {
            metrics,
            gated_ok: legs.tally.failed_share() <= crate::FAILED_SHARE_LIMIT,
            books_ok: !legs.unbalanced,
            tally: legs.tally,
        }
    }

    pub fn trace(&mut self, world: &World, seconds: f64, out_dir: &Path, name: &str) -> Report {
        let mut metrics = Metrics::default();
        let timer_ns = timer_pair_ns();
        let node = self.fleet.node(0).expect("no node was killed");
        common_layer_metrics(world, &node.registry(), timer_ns, &mut metrics);

        // Half the budget on RPC legs, alternately plain and traced.
        let calls = world.scale.rpc_leg_calls;
        let mut tracer = Tracer::new(true, 1 << 19);
        let mut legs = self.run_legs(world, seconds / 2.0, &mut tracer);
        legs.latency_us.sort_by(f64::total_cmp);
        metrics.set(
            "service.fleet.rpc_p50_us",
            percentile(&legs.latency_us, 0.50),
        );
        metrics.set(
            "service.fleet.rpc_p99_us",
            percentile(&legs.latency_us, 0.99),
        );
        metrics.set(
            "bench.trace_overhead_share",
            median(&legs.traced_secs) / median(&legs.plain_secs) - 1.0,
        );
        metrics.set(
            "service.fleet.hit_share",
            legs.cache_hits as f64 / legs.cache_lookups.max(1) as f64,
        );
        metrics.set("service.fleet.failovers", legs.failovers as f64);
        let (books_ok, mut tally) = (!legs.unbalanced, legs.tally);

        // The client's own stages, on the submissions the legs sent.
        let sample = &self.sequence[..calls * 4];
        let span = tracer.open("fingerprint.wire.encode", NO_PARENT, 0);
        let mut bytes = 0;
        for &id in sample {
            bytes += encode_submission(&self.submissions[id as usize])
                .expect("pool submission encodes")
                .len();
        }
        std::hint::black_box(bytes);
        tracer.close(span);
        metrics.set(
            "fingerprint.wire.encode_ns",
            tracer.duration_ns(span) / sample.len() as f64,
        );

        let keys: Vec<u64> = sample
            .iter()
            .map(|&id| submission_cache_key(payload(&world.frames[id as usize])).expect("keyed"))
            .collect();
        let router = self.fleet.router();
        let mut per_node = [0u64; NODES];
        let span = tracer.open("service.fleet.route", NO_PARENT, 0);
        for &key in &keys {
            per_node[router.route(key)] += 1;
        }
        tracer.close(span);
        metrics.set(
            "service.fleet.route_ns",
            tracer.duration_ns(span) / keys.len() as f64,
        );
        metrics.set(
            "service.fleet.node_share_max",
            *per_node.iter().max().expect("two nodes") as f64 / keys.len() as f64,
        );

        // The same calls against one threaded production-profile server
        // through the plain client: what the fleet layer adds.
        let single = serve::start_server(&world.model, serve::production_profile());
        let mut client = RiskClient::connect(single.local_addr()).expect("connect the client");
        let mut cursor = Cursor::new(&self.sequence);
        let mut rtt_us = Vec::new();
        let mut direct = Tally::default();
        let started = Instant::now();
        while rtt_us.len() < calls || started.elapsed().as_secs_f64() < seconds / 4.0 {
            let id = cursor.next_id();
            let sent = Instant::now();
            let reply = client.assess_submission(&self.submissions[id]);
            rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
            direct.sent += 1;
            match reply {
                Ok(verdict) => direct.check(&verdict.encode(), &world.oracle[id]),
                Err(_) => direct.missing += 1,
            }
        }
        drop(client);
        let books_ok = books_ok && serve::books_balance(&single.stats(), direct.sent);
        single.shutdown();
        rtt_us.sort_by(f64::total_cmp);
        metrics.set("service.client.rtt_p50_us", percentile(&rtt_us, 0.50));
        tally.add(&direct);

        let trace_path = out_dir.join(format!("trace-{name}.json"));
        tracer
            .write_json(&trace_path)
            .expect("write the trace file");
        eprintln!(
            "{} spans written to {}",
            tracer.spans.len(),
            trace_path.display()
        );

        metrics.set("bench.failed_share", tally.failed_share());
        metrics.set("bench.frames_checked", tally.sent as f64);
        Report {
            metrics,
            gated_ok: tally.failed_share() <= crate::FAILED_SHARE_LIMIT,
            books_ok,
            tally,
        }
    }
}
