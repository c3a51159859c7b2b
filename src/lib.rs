//! # browser-polygraph
//!
//! A faithful, from-scratch Rust reproduction of **Browser Polygraph**
//! (Kalantari et al., IMC 2024): efficient deployment of coarse-grained
//! browser fingerprints for web-scale detection of fraud browsers.
//!
//! This facade crate re-exports the workspace's sub-crates:
//!
//! * [`ml`] — the from-scratch ML substrate (scaler, PCA, k-means,
//!   isolation forest, entropy/anonymity metrics).
//! * [`engine`] — the deterministic web-platform simulation (engines, eras,
//!   prototype shapes, configuration perturbations).
//! * [`fingerprint`] — probe sets, candidate generation, feature vectors
//!   and the ≤1 KB wire format.
//! * [`fraud`] — anti-detect ("fraud") browser simulators, categories 1–4.
//! * [`traffic`] — web-scale session generation with FinOrg-style risk
//!   tags, plus the framed TCP collection service.
//! * [`core`] — the Browser Polygraph pipeline itself: pre-processing,
//!   training, fraud detection with risk factors, drift detection.
//! * [`baselines`] — fine-grained fingerprinting baselines for the paper's
//!   comparisons.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use baselines;
pub use browser_engine as engine;
pub use fingerprint;
pub use fraud_browsers as fraud;
pub use polygraph_core as core;
pub use polygraph_ml as ml;
pub use polygraph_obs as obs;
pub use polygraph_service as service;
pub use traffic;
