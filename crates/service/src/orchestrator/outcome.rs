//! What a checkpoint returns: [`RetrainOutcome`] and
//! [`OrchestratorError`].

use browser_engine::UserAgent;
use polygraph_core::{DriftObservation, PolygraphError};
use std::io;

/// What a checkpoint did.
#[derive(Debug)]
pub enum RetrainOutcome {
    /// No drift; the serving model stays.
    Stable {
        /// The per-release measurements of the checkpoint.
        observations: Vec<DriftObservation>,
    },
    /// Drift detected; a new model was trained, validated, published and
    /// swapped in.
    Retrained {
        /// The releases that triggered the retrain.
        triggers: Vec<UserAgent>,
        /// The registry version of the new model.
        version: u64,
        /// The new model's training accuracy.
        accuracy: f64,
    },
    /// Drift detected, but the candidate model failed validation; the old
    /// model keeps serving and the condition should be investigated.
    RetrainRejected {
        /// The releases that triggered the retrain attempt.
        triggers: Vec<UserAgent>,
        /// The rejected candidate's accuracy.
        accuracy: f64,
    },
    /// Drift detected but the retrain window itself was unusable (too
    /// few rows, width mismatch — a corrupt collection run). Instead of
    /// erroring out of the checkpoint, the orchestrator re-asserted the
    /// last-good model from the registry so the serving detector is in a
    /// known-published state, and reports the failure for investigation.
    Fallback {
        /// The releases that triggered the retrain attempt.
        triggers: Vec<UserAgent>,
        /// The registry version swapped back in, or `None` when the
        /// registry holds no loadable model (the in-memory detector then
        /// keeps serving unchanged).
        version: Option<u64>,
        /// The retrain error, stringified for the operator.
        error: String,
    },
    /// Drift detected and a candidate validated; instead of publishing,
    /// it was attached to the serve path as a shadow scorer and now
    /// rides live traffic.
    ShadowStarted {
        /// The releases that triggered the retrain.
        triggers: Vec<UserAgent>,
        /// The candidate's training accuracy.
        accuracy: f64,
    },
    /// A shadow candidate is in flight and this checkpoint did not yet
    /// decide its fate — either the window was too quiet
    /// ([`super::ShadowConfig::min_compared`]) or more clean checkpoints are
    /// still required.
    ShadowPending {
        /// Comparisons in this checkpoint's window.
        compared: u64,
        /// Divergences in this checkpoint's window.
        diverged: u64,
        /// Clean checkpoints accumulated so far.
        clean_checkpoints: usize,
    },
    /// The shadow candidate held its agreement for the configured number
    /// of checkpoints and was promoted: published versioned and (under
    /// [`super::SwapPolicy::PublishAndSwap`]) swapped into this server.
    ShadowPromoted {
        /// The registry version of the promoted model.
        version: u64,
        /// Clean checkpoints the candidate survived.
        checkpoints: usize,
    },
    /// The shadow candidate diverged past the gate and was discarded.
    /// Nothing was published; the serving model never changed.
    ShadowRejected {
        /// Comparisons in the rejecting checkpoint's window.
        compared: u64,
        /// Divergences in the rejecting checkpoint's window.
        diverged: u64,
    },
}

/// Errors from a checkpoint run.
#[derive(Debug)]
pub enum OrchestratorError {
    /// Pipeline error (drift measurement or training).
    Pipeline(PolygraphError),
    /// Registry I/O error.
    Registry(io::Error),
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestratorError::Pipeline(e) => write!(f, "pipeline: {e}"),
            OrchestratorError::Registry(e) => write!(f, "registry: {e}"),
        }
    }
}

impl std::error::Error for OrchestratorError {}

impl From<PolygraphError> for OrchestratorError {
    fn from(e: PolygraphError) -> Self {
        OrchestratorError::Pipeline(e)
    }
}
impl From<io::Error> for OrchestratorError {
    fn from(e: io::Error) -> Self {
        OrchestratorError::Registry(e)
    }
}
