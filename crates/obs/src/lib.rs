//! # polygraph-obs
//!
//! A dependency-free, deterministic observability layer for the Browser
//! Polygraph deployment pipeline (the paper's §6.5 operating story:
//! per-release accuracy, drift triggers, retraining latency — all of it
//! needs *inspectable per-stage measurements* to be trustworthy).
//!
//! Three pieces:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s (power-of-two microsecond buckets, so the exposition
//!   shape is platform-stable), plus lightweight [`Span`] timers.
//! * [`Clock`] — the injected time source. Production uses
//!   [`MonotonicClock`] (the library crates' one audited wall-clock
//!   read, an `#[expect]` against `clippy.toml`); tests use [`TestClock`] so every
//!   recorded duration — and therefore every snapshot byte — is exactly
//!   reproducible.
//! * [`Snapshot`] — a frozen, `BTreeMap`-ordered copy of the registry
//!   that renders to a stable text exposition and to JSON. The risk
//!   server ships it over the wire in answer to `STATS` frames.
//!
//! Naming scheme: `<subsystem>.<noun>[.<verb|unit>]`, lowercase
//! `[a-z0-9_.]`; durations end in `_micros`, e.g.
//! `server.assess.batch_micros`, `client.round_trip_micros`,
//! `orchestrator.retrain_micros`, `fit.kmeans_micros`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use metrics::{bucket_bound, bucket_index, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{Registry, Span};
pub use snapshot::{HistogramSnapshot, Snapshot};
