//! Consistent-hash fleet of in-process risk servers with rolling model
//! rollout.
//!
//! One risk-server process does not reach the paper's deployment scale
//! (§1, §4: one signal inside a top financial institution's risk-based
//! authentication stack). This module shards the key space across N
//! independent nodes — each a full [`RiskServerHandle`] with its own
//! cache, shedding, and degradation machinery — and rolls new models
//! across them one stage at a time:
//!
//! * [`FleetRouter`] — a consistent-hash ring over
//!   [`fingerprint::submission_cache_key`]: each node owns
//!   `replicas_per_node` pseudo-random points on a `u64` circle, a key is
//!   served by the first point clockwise from its hash (finalised by a
//!   fixed 64-bit mix, so frames that differ only in their last bytes
//!   still spread), and killing a node reassigns *only that node's* key
//!   ranges (to each range's next distinct live node), leaving every
//!   other key's owner — and therefore every other node's verdict cache —
//!   untouched.
//! * [`RiskFleet`] — N in-process servers (either connection backend)
//!   sharing one on-disk [`ModelRegistry`]; each node keeps its own swap
//!   epoch ([`RiskServerHandle::cache_epoch`]) and serving-model version
//!   ([`RiskServerHandle::active_model_version`]).
//! * [`FleetClient`] — routes each submission to its ring owner and fails
//!   over along the ring's preference order when a node is dead or
//!   misbehaving, counting hops in `fleet.client.failovers`.
//! * [`RolloutController`] — promotes a registry-published model across
//!   the fleet canary → 50% → full. Before each node is swapped, the
//!   candidate is replayed against that node's *serving* model on a fixed
//!   sample; the per-node verdict-divergence counters
//!   (`fleet.rollout.compared.node<i>` / `fleet.rollout.diverged.node<i>`)
//!   gate the promotion — a divergence fraction above the configured
//!   budget blocks the rollout with the un-promoted nodes still serving
//!   the old model.
//!
//! All fleet-level metrics live in the fleet's own [`Registry`], never in
//! a node's: node registries keep their exact single-server exposition.

use crate::client::{RiskClient, RiskClientConfig};
use crate::orchestrator::over_budget;
use crate::proto::Verdict;
use crate::registry::ModelRegistry;
use crate::server::{start_risk_server_with, RiskServerConfig, RiskServerHandle, RiskServerStats};
use browser_engine::UserAgent;
use fingerprint::{encode_submission, fnv1a64, submission_cache_key, Submission};
use polygraph_core::detect::verdicts_agree;
use polygraph_core::{Detector, TrainedModel};
use polygraph_obs::{Counter, Registry};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// Metric names the fleet records into its own registry (see
/// [`RiskFleet::obs`]); node-local metrics stay in each node's registry.
pub mod metric_names {
    /// Submissions routed through a [`super::FleetClient`] (counter).
    pub const ROUTED: &str = "fleet.client.routed";
    /// Failover hops to the next ring node after the preferred node
    /// failed a whole client exchange, retries included (counter).
    pub const FAILOVERS: &str = "fleet.client.failovers";
    /// Submissions that failed on every live node (counter).
    pub const EXHAUSTED: &str = "fleet.client.exhausted";
    /// Highest rollout stage reached: 1 canary, 2 half, 3 full (gauge).
    pub const ROLLOUT_STAGE: &str = "fleet.rollout.stage";

    /// Sample verdicts compared on node `node` before its promotion.
    pub fn compared(node: usize) -> String {
        format!("fleet.rollout.compared.node{node}")
    }

    /// Compared verdicts that diverged (flagged or risk factor changed,
    /// or error-ness changed) on node `node`.
    pub fn diverged(node: usize) -> String {
        format!("fleet.rollout.diverged.node{node}")
    }

    /// Registry version node `node` was last promoted to (gauge).
    pub fn node_version(node: usize) -> String {
        format!("fleet.node{node}.model_version")
    }
}

/// The splitmix64 finaliser: a fixed bijective multiply-xorshift mix in
/// which every input bit reaches every output bit.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping `u64` keys to node indices.
///
/// Immutable once built: liveness is an argument
/// ([`FleetRouter::route_live`]), not ring state, so every client and
/// test sees the identical ring for a given `(nodes, replicas)` pair.
#[derive(Debug, Clone)]
pub struct FleetRouter {
    /// `(point, node)` sorted by point; a key is owned by the first
    /// point at or after its hash, wrapping at the top of the circle.
    ring: Vec<(u64, usize)>,
    nodes: usize,
}

impl FleetRouter {
    /// Builds the ring for `nodes` nodes with `replicas_per_node`
    /// virtual points each (both clamped to at least 1). Points are
    /// FNV-1a hashes of the `(node, replica)` pair — fully deterministic.
    pub fn new(nodes: usize, replicas_per_node: usize) -> Self {
        let nodes = nodes.max(1);
        let replicas = replicas_per_node.max(1);
        let mut ring = Vec::with_capacity(nodes.saturating_mul(replicas));
        for node in 0..nodes {
            for replica in 0..replicas {
                let tag = [(node as u64).to_le_bytes(), (replica as u64).to_le_bytes()].concat();
                ring.push((fnv1a64(&tag), node));
            }
        }
        ring.sort_unstable();
        // A 64-bit point collision between two nodes is astronomically
        // unlikely; keep the first deterministically if it ever happens.
        ring.dedup_by_key(|entry| entry.0);
        Self { ring, nodes }
    }

    /// Number of nodes the ring was built for.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Index of the first ring point at or after `key`'s place on the
    /// circle, wrapping. The place is the key finalised by [`mix64`]: a
    /// submission's cache key arrives already avalanched, but `route`
    /// takes any `u64`, and an unkeyable frame is routed by raw FNV-1a,
    /// whose high bits — what the ring orders by — barely move between
    /// frames that differ only at the end.
    fn ring_start(&self, key: u64) -> usize {
        let place = mix64(key);
        let len = self.ring.len().max(1);
        match self.ring.binary_search_by(|probe| probe.0.cmp(&place)) {
            Ok(i) => i,
            Err(i) => i % len,
        }
    }

    /// The node owning `key` (its preferred server, dead or alive).
    pub fn route(&self, key: u64) -> usize {
        self.ring
            .get(self.ring_start(key))
            .map(|&(_, node)| node)
            .unwrap_or(0)
    }

    /// Every node in failover order for `key`: the owner first, then
    /// each further *distinct* node in ring order. Killing the owner
    /// moves the key to `preference(key)[1]` — and keys owned by other
    /// nodes never move, which is the whole point of the ring.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        #[cfg(test)]
        tests::PREFERENCE_CALLS.with(|calls| calls.set(calls.get() + 1));
        let len = self.ring.len().max(1);
        let start = self.ring_start(key);
        let mut seen = vec![false; self.nodes];
        let mut out = Vec::with_capacity(self.nodes);
        for offset in 0..self.ring.len() {
            let Some(&(_, node)) = self.ring.get((start + offset) % len) else {
                continue;
            };
            if let Some(flag) = seen.get_mut(node) {
                if !*flag {
                    *flag = true;
                    out.push(node);
                }
            }
            if out.len() == self.nodes {
                break;
            }
        }
        out
    }

    /// The first live node in `key`'s preference order, or `None` when
    /// `live` marks every node dead.
    pub fn route_live(&self, key: u64, live: &[bool]) -> Option<usize> {
        self.preference(key)
            .into_iter()
            .find(|&node| live.get(node).copied().unwrap_or(false))
    }
}

/// Settings of a [`RiskFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Node count (clamped to at least 1).
    pub nodes: usize,
    /// Virtual ring points per node; more points smooth the key-range
    /// split at the cost of a larger (still tiny) ring.
    pub replicas_per_node: usize,
    /// Configuration applied to every node — backend, cache, shedding,
    /// clock. Nodes are identical by construction so the merged verdict
    /// stream cannot depend on which node answered.
    pub node: RiskServerConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            nodes: 2,
            replicas_per_node: 64,
            node: RiskServerConfig::default(),
        }
    }
}

/// N in-process risk servers behind one consistent-hash router.
pub struct RiskFleet {
    /// `None` marks a killed node; its ring ranges fail over.
    nodes: Vec<Option<RiskServerHandle>>,
    addrs: Vec<SocketAddr>,
    router: FleetRouter,
    obs: Arc<Registry>,
}

impl RiskFleet {
    /// Starts `config.nodes` servers on ephemeral loopback ports, every
    /// one serving `model` under an identical node config.
    pub fn start(model: &TrainedModel, config: FleetConfig) -> io::Result<Self> {
        let count = config.nodes.max(1);
        let router = FleetRouter::new(count, config.replicas_per_node);
        let obs = Arc::new(Registry::new(Arc::clone(&config.node.clock)));
        let mut nodes = Vec::with_capacity(count);
        let mut addrs = Vec::with_capacity(count);
        for _ in 0..count {
            let handle = start_risk_server_with(
                "127.0.0.1:0",
                Detector::new(model.clone()),
                config.node.clone(),
            )?;
            addrs.push(handle.local_addr());
            nodes.push(Some(handle));
        }
        Ok(Self {
            nodes,
            addrs,
            router,
            obs,
        })
    }

    /// Number of nodes the fleet was started with (killed ones included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The ring assigning keys to nodes.
    pub fn router(&self) -> &FleetRouter {
        &self.router
    }

    /// The fleet-level metrics registry (client routing counters,
    /// rollout divergence counters). Distinct from every node registry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Listening address of node `node` (even if it was killed since).
    pub fn addr(&self, node: usize) -> Option<SocketAddr> {
        self.addrs.get(node).copied()
    }

    /// Handle of node `node`, `None` when out of range or killed.
    pub fn node(&self, node: usize) -> Option<&RiskServerHandle> {
        self.nodes.get(node).and_then(Option::as_ref)
    }

    /// Liveness map, indexed by node.
    pub fn live(&self) -> Vec<bool> {
        self.nodes.iter().map(Option::is_some).collect()
    }

    /// Point-in-time counters of node `node`, `None` when killed.
    pub fn node_stats(&self, node: usize) -> Option<RiskServerStats> {
        self.node(node).map(RiskServerHandle::stats)
    }

    /// Kills node `node` (shutting its server down); returns whether a
    /// live node was actually killed. Its key ranges fail over to each
    /// range's next distinct live node on the ring; other keys keep
    /// their owner.
    pub fn kill_node(&mut self, node: usize) -> bool {
        match self.nodes.get_mut(node).and_then(Option::take) {
            Some(handle) => {
                handle.shutdown();
                true
            }
            None => false,
        }
    }

    /// Shuts down every remaining live node.
    pub fn shutdown(mut self) {
        for slot in &mut self.nodes {
            if let Some(handle) = slot.take() {
                handle.shutdown();
            }
        }
    }
}

/// A router-aware client: one lazily-connected [`RiskClient`] per node,
/// each submission sent to its ring owner with failover along the ring.
pub struct FleetClient {
    addrs: Vec<SocketAddr>,
    router: FleetRouter,
    config: RiskClientConfig,
    clients: Vec<Option<RiskClient>>,
    obs: Arc<Registry>,
    routed: Arc<Counter>,
    failovers: Arc<Counter>,
    exhausted: Arc<Counter>,
}

impl FleetClient {
    /// A client over `fleet`'s current node addresses, recording into
    /// the fleet's metrics registry.
    pub fn connect(fleet: &RiskFleet, config: RiskClientConfig) -> Self {
        Self::from_addrs(
            fleet.addrs.clone(),
            fleet.router.clone(),
            config,
            Arc::clone(&fleet.obs),
        )
    }

    /// A client over explicit node addresses — the seam chaos tests use
    /// to interpose a proxy in front of individual nodes. `addrs` must
    /// be indexed like the router's nodes.
    pub fn from_addrs(
        addrs: Vec<SocketAddr>,
        router: FleetRouter,
        config: RiskClientConfig,
        obs: Arc<Registry>,
    ) -> Self {
        let clients = (0..addrs.len()).map(|_| None).collect();
        Self {
            routed: obs.counter(metric_names::ROUTED),
            failovers: obs.counter(metric_names::FAILOVERS),
            exhausted: obs.counter(metric_names::EXHAUSTED),
            addrs,
            router,
            config,
            clients,
            obs,
        }
    }

    /// The registry this client's routing counters (and the per-node
    /// [`RiskClient`] metrics, aggregated fleet-wide) land in.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The ring this client routes with.
    pub fn router(&self) -> &FleetRouter {
        &self.router
    }

    fn client_for(&mut self, node: usize) -> io::Result<&mut RiskClient> {
        let addr = *self.addrs.get(node).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "node index out of range")
        })?;
        let slot = self.clients.get_mut(node).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "node index out of range")
        })?;
        if slot.is_none() {
            let mut config = self.config.clone();
            // Per-node jitter streams: a fleet client retrying against
            // two nodes must not sleep in lockstep on both.
            config.retry_seed = self
                .config
                .retry_seed
                .wrapping_add((node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            *slot = Some(RiskClient::connect_with_config(
                addr,
                Arc::clone(&self.obs),
                config,
            )?);
        }
        slot.as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "node client unavailable"))
    }

    /// One whole client exchange with `node` (its own retries included).
    /// A failure drops the node's client: a dead node must not keep a
    /// poisoned slot warm, and a revived one gets a fresh connection
    /// (and a fresh backoff slate).
    fn try_node(&mut self, node: usize, frame: &[u8]) -> io::Result<Verdict> {
        let result = self
            .client_for(node)
            .and_then(|client| client.assess_encoded(frame));
        if result.is_err() {
            if let Some(slot) = self.clients.get_mut(node) {
                *slot = None;
            }
        }
        result
    }

    /// Routes one submission to its ring owner; on a whole-exchange
    /// failure there (the per-node client's own retries exhausted, or
    /// the node unreachable) fails over to the next distinct node in
    /// ring order, and so on around the ring. Errors only when every
    /// node failed (`fleet.client.exhausted`).
    pub fn assess_submission(&mut self, sub: &Submission) -> io::Result<Verdict> {
        // Encoded once: the same bytes key the route and go on the wire.
        let frame = encode_submission(sub)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // The exact key the node-side verdict cache shards on; frames
        // too malformed to key still deserve a (malformed) verdict, so
        // they route by a hash of the whole frame.
        let key = submission_cache_key(&frame).unwrap_or_else(|| fnv1a64(&frame));
        self.routed.inc();
        let mut last_err = match self.try_node(self.router.route(key), &frame) {
            Ok(verdict) => return Ok(verdict),
            Err(e) => e,
        };
        // Only a failed owner pays for the rest of the preference order.
        for node in self.router.preference(key).into_iter().skip(1) {
            self.failovers.inc();
            match self.try_node(node, &frame) {
                Ok(verdict) => return Ok(verdict),
                Err(e) => last_err = e,
            }
        }
        self.exhausted.inc();
        Err(last_err)
    }
}

/// Rollout stages, in promotion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutStage {
    /// First node only.
    Canary,
    /// First half of the fleet (rounded up).
    Half,
    /// Every node.
    Full,
}

impl RolloutStage {
    /// Nodes that must be covered once this stage is promoted.
    fn target(self, nodes: usize) -> usize {
        match self {
            RolloutStage::Canary => 1,
            RolloutStage::Half => nodes.saturating_add(1) / 2,
            RolloutStage::Full => nodes,
        }
        .clamp(1, nodes.max(1))
    }

    fn gauge_value(self) -> i64 {
        match self {
            RolloutStage::Canary => 1,
            RolloutStage::Half => 2,
            RolloutStage::Full => 3,
        }
    }
}

/// What one [`RolloutController::advance`] call did.
#[derive(Debug)]
pub enum RolloutStep {
    /// The stage's nodes now serve the candidate.
    Promoted {
        /// Stage that was just completed.
        stage: RolloutStage,
        /// Nodes newly covered by this step (dead ones skipped over).
        nodes: Vec<usize>,
    },
    /// The divergence gate tripped; `node` (and everything after it)
    /// still serves its old model. Calling `advance` again re-checks.
    Blocked {
        /// Stage that was being promoted.
        stage: RolloutStage,
        /// First node whose divergence exceeded the budget.
        node: usize,
        /// Sample verdicts that diverged on that node.
        diverged: u64,
        /// Sample size compared.
        compared: u64,
    },
    /// Every node already serves the candidate.
    Complete,
}

/// Rolls the registry's latest published model across a fleet canary →
/// 50% → full, gating each node's promotion on candidate-vs-serving
/// verdict divergence over a fixed sample.
pub struct RolloutController {
    version: u64,
    model: TrainedModel,
    candidate: Detector,
    sample: Vec<(Vec<f64>, UserAgent)>,
    max_divergence: f64,
    covered: usize,
}

impl RolloutController {
    /// Loads the newest model from `registry` as the rollout candidate.
    ///
    /// `sample` is the fixed replay set divergence is measured on (raw
    /// feature rows plus the claimed user-agent — the same inputs
    /// [`Detector::assess`] takes); `max_divergence` is the largest
    /// tolerated `diverged / compared` fraction per node. An empty
    /// sample disables the gate (zero compared, zero diverged).
    pub fn new(
        registry: &ModelRegistry,
        sample: Vec<(Vec<f64>, UserAgent)>,
        max_divergence: f64,
    ) -> io::Result<Self> {
        let (version, model) = registry.load_latest_versioned()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no published model to roll out")
        })?;
        Ok(Self {
            version,
            candidate: Detector::new(model.clone()),
            model,
            sample,
            max_divergence,
            covered: 0,
        })
    }

    /// Registry version being rolled out.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Nodes covered so far (prefix of the node index space).
    pub fn covered_nodes(&self) -> usize {
        self.covered
    }

    /// The next stage `advance` would attempt, `None` once the fleet is
    /// fully covered.
    pub fn next_stage(&self, nodes: usize) -> Option<RolloutStage> {
        [RolloutStage::Canary, RolloutStage::Half, RolloutStage::Full]
            .into_iter()
            .find(|stage| self.covered < stage.target(nodes))
    }

    /// Attempts the next promotion stage on `fleet`.
    ///
    /// For each node the stage newly covers: measure divergence, record
    /// it (`fleet.rollout.compared.node<i>` / `.diverged.node<i>` in the
    /// fleet registry), and — if within budget — swap the node to the
    /// candidate via [`RiskServerHandle::publish_model_versioned`]
    /// (bumping that node's cache epoch). A node over budget blocks the
    /// rollout right there; a killed node is skipped (there is nothing
    /// to swap, and the rollout must be able to complete around a
    /// failure). Nodes beyond the stage target are untouched — a frame
    /// can never be answered by the candidate on a node the rollout has
    /// not reached.
    pub fn advance(&mut self, fleet: &RiskFleet) -> RolloutStep {
        let nodes = fleet.node_count();
        let Some(stage) = self.next_stage(nodes) else {
            return RolloutStep::Complete;
        };
        let target = stage.target(nodes);
        let mut promoted = Vec::new();
        for index in self.covered..target {
            if let Some(node) = fleet.node(index) {
                let (compared, diverged) = self.divergence_against(node);
                fleet
                    .obs()
                    .counter(&metric_names::compared(index))
                    .add(compared);
                fleet
                    .obs()
                    .counter(&metric_names::diverged(index))
                    .add(diverged);
                if over_budget(self.max_divergence, compared, diverged) {
                    return RolloutStep::Blocked {
                        stage,
                        node: index,
                        diverged,
                        compared,
                    };
                }
                node.publish_model_versioned(self.model.clone(), self.version);
                fleet
                    .obs()
                    .gauge(&metric_names::node_version(index))
                    .set(i64::try_from(self.version).unwrap_or(i64::MAX));
            }
            self.covered = index.saturating_add(1);
            promoted.push(index);
        }
        fleet
            .obs()
            .gauge(metric_names::ROLLOUT_STAGE)
            .set(stage.gauge_value());
        RolloutStep::Promoted {
            stage,
            nodes: promoted,
        }
    }

    /// `(compared, diverged)` of the candidate against `node`'s serving
    /// model over the fixed sample; divergence is the negation of
    /// [`verdicts_agree`].
    fn divergence_against(&self, node: &RiskServerHandle) -> (u64, u64) {
        let serving = Detector::new(node.serving_model());
        let diverged = self
            .sample
            .iter()
            .filter(|(values, claimed)| {
                !verdicts_agree(
                    &serving.assess(values, *claimed),
                    &self.candidate.assess(values, *claimed),
                )
            })
            .count();
        (self.sample.len() as u64, diverged as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::test_support::tiny_detector;
    use browser_engine::Vendor;
    use std::cell::Cell;

    thread_local! {
        /// [`FleetRouter::preference`] calls made on this thread — the
        /// only routing step that allocates.
        pub(super) static PREFERENCE_CALLS: Cell<usize> = const { Cell::new(0) };
    }

    /// With every node up a call routes with `route` alone — no
    /// preference order is built, so routing allocates nothing — and
    /// once a node is dead exactly its keys pay for one.
    #[test]
    fn preference_order_is_built_only_after_the_owner_fails() {
        let model = tiny_detector().model().clone();
        let mut fleet = RiskFleet::start(&model, FleetConfig::default()).unwrap();
        let config = RiskClientConfig {
            max_retries: 0,
            ..Default::default()
        };
        let mut client = FleetClient::connect(&fleet, config);
        let subs: Vec<Submission> = (0..64u8)
            .map(|i| Submission {
                session_id: [i; 16],
                user_agent: UserAgent::new(Vendor::Chrome, 60 + u32::from(i)).to_ua_string(),
                values: vec![10, 10],
            })
            .collect();

        let before = PREFERENCE_CALLS.with(Cell::get);
        for sub in &subs {
            client.assess_submission(sub).unwrap();
        }
        assert_eq!(PREFERENCE_CALLS.with(Cell::get), before);
        assert_eq!(fleet.obs().counter(metric_names::FAILOVERS).get(), 0);

        assert!(fleet.kill_node(1));
        for sub in &subs {
            client.assess_submission(sub).unwrap();
        }
        let failovers = fleet.obs().counter(metric_names::FAILOVERS).get();
        assert!(failovers > 0, "node 1 owned none of the 64 keys");
        assert_eq!(
            PREFERENCE_CALLS.with(Cell::get) - before,
            failovers as usize
        );
        assert_eq!(fleet.obs().counter(metric_names::ROUTED).get(), 128);
        assert_eq!(fleet.obs().counter(metric_names::EXHAUSTED).get(), 0);
        drop(client);
        fleet.shutdown();
    }

    #[test]
    fn ring_is_deterministic_and_covers_every_node() {
        let a = FleetRouter::new(4, 64);
        let b = FleetRouter::new(4, 64);
        let mut hit = [0usize; 4];
        for key in 0..4096u64 {
            let k = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let node = a.route(k);
            assert_eq!(node, b.route(k), "same inputs, same ring");
            hit[node] += 1;
        }
        for (node, &count) in hit.iter().enumerate() {
            assert!(count > 0, "node {node} owns no keys");
        }
    }

    #[test]
    fn preference_lists_every_node_exactly_once_owner_first() {
        let router = FleetRouter::new(5, 16);
        for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let pref = router.preference(key);
            assert_eq!(pref.len(), 5);
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            assert_eq!(*pref.first().unwrap(), router.route(key));
        }
    }

    #[test]
    fn killing_a_node_moves_only_its_keys() {
        let router = FleetRouter::new(4, 64);
        let all_live = vec![true; 4];
        let mut without_2 = all_live.clone();
        without_2[2] = false;
        for key in 0..4096u64 {
            let k = key.wrapping_mul(0x517C_C1B7_2722_0A95);
            let owner = router.route_live(k, &all_live).unwrap();
            let after = router.route_live(k, &without_2).unwrap();
            if owner == 2 {
                assert_ne!(after, 2, "dead node must not own keys");
                assert_eq!(
                    after,
                    *router
                        .preference(k)
                        .iter()
                        .find(|&&n| n != 2)
                        .unwrap_or(&owner),
                    "failover must follow ring preference order"
                );
            } else {
                assert_eq!(owner, after, "only the dead node's keys may move");
            }
        }
    }

    /// Key placement is part of the fleet's contract — two clients of
    /// one fleet must agree on every owner — so the mix is pinned. The
    /// third vector is splitmix64's published first output for seed 0.
    #[test]
    fn mix64_matches_its_reference_vectors() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161D_100B_05E5);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(u64::MAX), 0xB4D0_55FC_F2CB_BD7B);
    }

    /// The worst keys the ring is handed: raw FNV-1a over whole frames
    /// (how an unkeyable frame is routed, and what a caller of `route`
    /// may bring), where frames that differ only at the end get keys
    /// whose high bits — what a ring sorts by — barely differ. The ring
    /// must spread them anyway.
    #[test]
    fn keys_differing_only_in_trailing_bytes_reach_every_node() {
        const KEYS: usize = 90;
        let keys: Vec<u64> = (0..KEYS as u8)
            .map(|i| {
                let mut frame = [0x42u8; 64];
                frame[62] = i / 10;
                frame[63] = i % 10;
                fnv1a64(&frame)
            })
            .collect();
        for nodes in [2usize, 3] {
            let router = FleetRouter::new(nodes, 64);
            let mut owned = vec![0usize; nodes];
            for &key in &keys {
                owned[router.route(key)] += 1;
            }
            assert!(
                owned.iter().all(|&n| n >= KEYS / (2 * nodes)),
                "{nodes} nodes: keys per node {owned:?}"
            );
        }
    }

    #[test]
    fn single_node_ring_routes_everything_to_node_zero() {
        let router = FleetRouter::new(1, 8);
        for key in [0u64, 42, u64::MAX] {
            assert_eq!(router.route(key), 0);
            assert_eq!(router.preference(key), vec![0]);
        }
        assert_eq!(router.route_live(7, &[false]), None);
    }

    #[test]
    fn stage_targets_cover_canary_half_full() {
        assert_eq!(RolloutStage::Canary.target(4), 1);
        assert_eq!(RolloutStage::Half.target(4), 2);
        assert_eq!(RolloutStage::Half.target(5), 3);
        assert_eq!(RolloutStage::Full.target(4), 4);
        // A one-node fleet collapses every stage onto that node.
        assert_eq!(RolloutStage::Canary.target(1), 1);
        assert_eq!(RolloutStage::Half.target(1), 1);
        assert_eq!(RolloutStage::Full.target(1), 1);
    }
}
