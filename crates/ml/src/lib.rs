//! # polygraph-ml
//!
//! A small, dependency-light machine-learning substrate written from scratch
//! for the Browser Polygraph reproduction. It provides exactly the blocks the
//! paper's pipeline needs:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix.
//! * [`RowGroups`] — a window's rows partitioned by bit-identical content,
//!   with each group's row count, so a pure per-row kernel runs once per
//!   distinct row and a sum over rows takes each distinct row once, times
//!   its count.
//! * [`StandardScaler`] — per-column zero-mean / unit-variance scaling
//!   (§6.4.1 of the paper).
//! * [`Pca`] — principal component analysis via a cyclic Jacobi
//!   eigendecomposition of the covariance matrix (§6.4.2).
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding, WCSS reporting
//!   and the elbow-method helpers of Figures 3 and 4 (§6.4.3).
//! * [`IsolationForest`] — outlier removal before training (§6.4.1).
//! * [`Agglomerative`] — the hierarchical alternative the paper passed
//!   over for efficiency, kept for measured comparison.
//! * [`metrics`] — the semi-supervised *majority-cluster accuracy* metric of
//!   Appendix-4, Formula 1.
//! * [`privacy`] — Shannon entropy, normalised entropy and anonymity-set
//!   analysis used in the paper's privacy evaluation (§7.4, Table 7,
//!   Figure 5).
//!
//! Everything is deterministic given a seed; no global RNG state is used.
//! Every kernel runs on the calling thread: a fit is offline work, done
//! once per drift event, and evaluates each distinct row once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod eigen;
pub mod error;
pub mod iforest;
pub mod kmeans;
pub mod matrix;
mod memo;
pub mod metrics;
pub mod pca;
pub mod privacy;
pub mod quant;
pub mod scaler;

pub use agglomerative::Agglomerative;
pub use error::MlError;
pub use iforest::IsolationForest;
pub use kmeans::minibatch::{MiniBatchConfig, MiniBatchKMeans};
pub use kmeans::{ElbowReport, KMeans};
pub use matrix::{DistinctRows, Matrix, RowGroups};
pub use pca::Pca;
pub use quant::{QuantModel, QuantScratch};
pub use scaler::StandardScaler;

/// Ignored. The name survives for three signatures the benchmark
/// package (`benchmark/`) compiles against —
/// [`MiniBatchKMeans::step_with_pool`] and `polygraph_core`'s
/// `TrainedModel::fit_observed` and `TrainedModel::refit_streaming` —
/// each of which takes it as `_pool` and runs on the calling thread like
/// every kernel here. ROADMAP item 2 removes it with those parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ThreadPool;

impl ThreadPool {
    /// The only value there is.
    pub fn serial() -> Self {
        Self
    }
}
