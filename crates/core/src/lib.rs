//! # polygraph-core
//!
//! The Browser Polygraph pipeline (the paper's primary contribution):
//!
//! * [`dataset`] — training-set container pairing fingerprint vectors with
//!   the user-agents that produced them;
//! * [`mod@preprocess`] — the §6.3 data pre-processing funnel: drop
//!   single-valued candidates, drop configuration-sensitive candidates,
//!   rank the survivors by deviation, and land on the 28-feature set of
//!   Table 8;
//! * [`train`] — the §6.4 training pipeline: StandardScaler →
//!   Isolation-Forest outlier removal → PCA(7) → k-means(11), plus the
//!   semi-supervised cluster/user-agent table of Table 3;
//! * [`risk`] — Algorithm 1: the `risk_factor` of a session given its
//!   claimed user-agent and predicted cluster;
//! * [`detect`] — the §6.5 online fraud-detection path;
//! * [`drift`] — the §6.6 drift checkpoint that decides when retraining
//!   is needed, over a collected window, and [`drift_stream`] — the same
//!   checkpoint over a live stream. Both, the fit's vote and the sweeps
//!   read one count: sessions per (distinct row, claimed release);
//! * [`sampling`] — stratified sampling for oversized training sets
//!   (§8, "Scale of the database");
//! * [`sweeps`] — the Appendix-4 sensitivity analyses (Tables 10–12).
//!
//! Everything heavy happens offline ([`train`]); the online path
//! ([`detect::Detector::assess`]) is a scale + project + nearest-centroid
//! lookup — the property that lets the system answer within FinOrg's
//! latency budget (§3, §7.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod detect;
pub mod drift;
pub mod drift_stream;
pub mod error;
pub mod preprocess;
pub mod risk;
pub mod sampling;
pub mod sweeps;
mod tally;
pub mod train;

pub use dataset::TrainingSet;
pub use detect::{Assessment, Detector};
pub use drift::{DriftDecision, DriftObservation};
pub use drift_stream::DriftStream;
pub use error::PolygraphError;
pub use preprocess::{preprocess, PreprocessConfig, PreprocessReport};
pub use risk::{risk_factor, MAX_RISK};
pub use sampling::{stratified_sample, ReservoirWindow, StratifiedConfig};
pub use train::{fit_metric_names, refit_metric_names, ClusterTable, TrainConfig, TrainedModel};
