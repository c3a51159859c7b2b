//! The risk-assessment TCP service.
//!
//! Each connection streams length-prefixed fingerprint submission frames
//! (the same format the collection service accepts) and receives one
//! fixed-size [`crate::proto::Verdict`] per frame. What serves — the
//! detector, its registry version, the verdict-cache epoch and the shadow
//! candidate — is one immutable snapshot that a publish replaces whole,
//! so the [`crate::orchestrator`] can swap in a retrained model without
//! interrupting traffic — the paper's "ongoing system enhancements …
//! minimises delays during user interaction" property (§6.5).
//!
//! ## Layout
//!
//! One file per responsibility; everything public is re-exported here,
//! so callers name `server::…` and never a file:
//!
//! * `config` — [`RiskServerConfig`] and [`ServerBackend`].
//! * `metrics` — the [`metric_names`] catalogue, the resolved
//!   [`ServerMetrics`] handles and the [`RiskServerStats`] they read into.
//! * `cache` — the verdict cache with its counters.
//! * `serving` — the serving snapshot and the slot it is published
//!   through: `load` for readers, a serialised `publish` for writers. The
//!   only file that names a lock the serve path takes.
//! * `handle` — [`RiskServerHandle`] (versioned publish, shadow attach
//!   and detach, stats, shutdown) and [`start_risk_server_with`].
//! * `batch` — the path both cores share: the non-blocking read loop, the
//!   drive loop that answers everything buffered (`drive_buffered`: one
//!   assess–reply–shed cycle per ≤ 32-frame batch), the scratch a
//!   connection refills batch after batch (`ConnScratch`: session rows,
//!   reply list, user-agent memo), the shadow comparison, and
//!   [`assess_frame`]. A batch with misses loads the snapshot once and
//!   assesses holding no lock.
//! * `decode` — frame → session (into a row the caller reuses, with the
//!   per-connection user-agent memo) and assessment → wire verdict.
//! * `threaded` / `shard` — the two connection cores.
//!
//! ## Backends
//!
//! Two interchangeable connection cores sit behind
//! [`RiskServerConfig::backend`]:
//!
//! * [`ServerBackend::Threaded`] — one OS thread per connection (the
//!   original core, still the default).
//! * [`ServerBackend::Reactor`] — per-core acceptor shards, each one
//!   thread that scans the non-blocking sockets it accepted: a `read`
//!   per connection per pass into that connection's buffered state
//!   ([`crate::reactor::ConnMachine`]), parking for
//!   [`crate::reactor::SCAN_INTERVAL`] per idle pass only once a whole
//!   interval has gone by since it last accepted or moved a byte (until
//!   then it yields and re-scans, so a request/response caller is not
//!   answered from behind a sleep). No thread per idle connection. Its
//!   `server.reactor.passes` / `server.reactor.parks` counters, which
//!   only a reactor server registers, give the shards' duty cycle.
//!
//! Both backends fill the same [`crate::framing::FrameAccumulator`]
//! parse state through the same read loop, run the same private drive
//! loop (`drive_buffered`) over it and write the reply buffer it fills
//! once per drained backlog, so their verdict byte streams and counter
//! identities are exactly equal —
//! pinned by the backend-parametrized conformance suites
//! (`tests/common::for_each_backend`) and `tests/reactor_prop.rs`.
//!
//! ## Observability
//!
//! Every counter and latency measurement lives in a `polygraph-obs`
//! [`polygraph_obs::Registry`] (see [`metric_names`] for the full
//! catalogue). Clients can pull a snapshot over the wire with a `STATS`
//! request frame
//! ([`fingerprint::wire::encode_stats_request`]), answered in request
//! order with a JSON snapshot; in-process callers use
//! [`RiskServerHandle::snapshot`]. The registry's clock is injected
//! ([`RiskServerConfig::clock`]), so tests drive a deterministic
//! `TestClock` and production uses the monotonic wall clock.
//!
//! ## Connection lifecycle
//!
//! * Finished connection workers are reaped (joined and counted) on
//!   every acceptor iteration — a long-running server does not
//!   accumulate dead `JoinHandle`s.
//! * An idle keep-alive client that triggers the read timeout with *no
//!   partial frame buffered* stays connected (`server.idle_timeouts`
//!   counts the ticks); only a stalled partial frame fails the
//!   connection.
//! * Workers observe the server's stop flag each loop, so shutdown is
//!   bounded by roughly one read-timeout tick even with connected
//!   clients.
//!
//! ## Overload shedding
//!
//! A connection may pipeline more frames than the detector can assess
//! promptly. Instead of queueing unboundedly, each batch cycle assesses
//! up to [`MAX_BATCH_PER_GUARD`] frames and then answers any backlog
//! beyond [`RiskServerConfig::shed_limit`] immediately with
//! [`crate::proto::VerdictStatus::Degraded`] (`server.frames.shed`) —
//! the degradation ladder's "fast non-answer beats a slow answer" rung,
//! consumed by `RiskPolicy::on_unassessable`.

mod batch;
mod cache;
mod config;
mod decode;
mod handle;
mod metrics;
mod serving;
mod shard;
mod threaded;

pub use batch::{assess_frame, MAX_BATCH_PER_GUARD};
pub use config::{RiskServerConfig, ServerBackend};
pub use handle::{start_risk_server, start_risk_server_with, RiskServerHandle};
pub use metrics::{metric_names, RiskServerStats, ServerMetrics};

/// Fixtures shared by the unit tests of this module's files.
#[cfg(test)]
pub(crate) mod test_support {
    use browser_engine::{UserAgent, Vendor};
    use fingerprint::{encode_submission, FeatureSet, Submission};
    use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};

    pub(crate) fn tiny_detector() -> Detector {
        let mut set = TrainingSet::new(2);
        for (base, ua) in [
            (0.0, UserAgent::new(Vendor::Chrome, 60)),
            (10.0, UserAgent::new(Vendor::Chrome, 100)),
            (20.0, UserAgent::new(Vendor::Firefox, 100)),
        ] {
            for j in 0..40 {
                set.push(vec![base + (j % 2) as f64 * 0.1, base], ua)
                    .unwrap();
            }
        }
        let fs = FeatureSet::table8().subset(&[0, 1]);
        let config = TrainConfig {
            k: 3,
            n_components: 2,
            min_samples_for_majority: 1,
            ..Default::default()
        };
        Detector::new(TrainedModel::fit(fs, &set, config).unwrap())
    }

    pub(super) fn frame_for(values: Vec<u32>, ua: UserAgent) -> Vec<u8> {
        let sub = Submission {
            session_id: [9u8; 16],
            user_agent: ua.to_ua_string(),
            values,
        };
        encode_submission(&sub).unwrap()
    }
}
