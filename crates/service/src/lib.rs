//! # polygraph-service
//!
//! The deployment layer the paper describes around its model (Figure 1,
//! §6.5–6.6): the pieces that turn a [`polygraph_core::TrainedModel`]
//! into a continuously-running risk-based-authentication component.
//!
//! * [`proto`] — the verdict wire format: a session submits its ≤1 KB
//!   fingerprint frame and receives a compact assessment (flagged +
//!   `risk_factor`) the login flow can act on.
//! * [`framing`] — the panic-free u16-length-prefixed request framing
//!   shared by both server backends and their tests, including the
//!   resumable per-connection [`framing::FrameAccumulator`].
//! * [`reactor`] — the I/O-free per-connection state
//!   ([`reactor::ConnMachine`]: parse state, reply buffer, close flags)
//!   behind the reactor backend, and the interval its shard loop parks
//!   for. There is no readiness layer and no phase machine: a shard
//!   scans the non-blocking sockets it owns.
//! * [`server`] — the TCP risk service with a hot-swappable detector:
//!   retraining never drops a connection
//!   ([`RiskServerHandle::publish_model_versioned`] is the only way into
//!   the serving slot). Two interchangeable connection
//!   cores sit behind [`server::ServerBackend`] — thread-per-connection
//!   (default) and the multiplexed reactor — over one shared batch path,
//!   so verdict streams and counters are identical. Fully instrumented
//!   with a `polygraph-obs` registry, exposed over the wire via `STATS`
//!   frames. One file per responsibility under `server/`.
//! * [`client`] — the matching client.
//! * [`registry`] — a versioned on-disk model store (JSON), with atomic
//!   publish and latest-model lookup.
//! * [`orchestrator`] — the §6.6 loop: run drift checkpoints on fresh
//!   traffic, retrain when a release shifts, validate, shadow if a gate
//!   is configured, then publish → serve → prune.
//! * [`fleet`] — web-scale horizontal layer: a consistent-hash
//!   [`fleet::FleetRouter`] over N in-process risk servers, a
//!   router-aware failover client, and a [`fleet::RolloutController`]
//!   that promotes a registry-published model canary → 50% → full with
//!   per-node verdict-divergence gates.
//! * [`policy`] — mapping risk factors to authentication actions (allow /
//!   step-up / deny), the "risk-based authentication" integration point.
//! * [`chaos`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   and a test-only TCP proxy that tears frames, stalls reads past
//!   deadlines, drips bytes, and resets connections mid-verdict, so the
//!   client's poison/retry discipline and the server's degradation ladder
//!   are pinned by reproducible tests instead of assumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The deployment layer answers `Malformed`, it never unwinds: no unwrap,
// expect, panicking macro or indexing outside tests. `fingerprint::wire`,
// the decoder in front of it, denies the same lints.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod chaos;
pub mod client;
pub mod fleet;
pub mod framing;
pub mod orchestrator;
pub mod policy;
pub mod proto;
pub mod reactor;
pub mod registry;
pub mod server;

pub use chaos::{start_chaos_proxy, ChaosProxy, FaultConfig, FaultPlan};
pub use client::{RiskClient, RiskClientConfig};
pub use fleet::{
    FleetClient, FleetConfig, FleetRouter, RiskFleet, RolloutController, RolloutStage, RolloutStep,
};
pub use orchestrator::{
    Orchestrator, OrchestratorConfig, RetrainOutcome, ShadowConfig, SwapPolicy,
};
pub use policy::{AuthAction, RiskPolicy};
pub use proto::{Verdict, VerdictStatus};
pub use registry::ModelRegistry;
pub use server::{
    start_risk_server, start_risk_server_with, RiskServerConfig, RiskServerHandle, RiskServerStats,
    ServerBackend, MAX_BATCH_PER_GUARD,
};
