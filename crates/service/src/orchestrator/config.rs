//! What an operator sets and reads: [`metric_names`], the swap policy,
//! the shadow gate's settings and [`OrchestratorConfig`].

use polygraph_core::TrainConfig;

/// Metric names the orchestrator records into the risk server's registry,
/// so one `STATS` snapshot covers serving *and* retraining.
pub mod metric_names {
    /// Drift checkpoints run (counter).
    pub const CHECKPOINTS: &str = "orchestrator.checkpoints";
    /// Per-release drift observations measured (counter).
    pub const DRIFT_EVALUATIONS: &str = "orchestrator.drift.evaluations";
    /// Checkpoints that retrained and swapped a new model in (counter).
    pub const RETRAINS: &str = "orchestrator.drift.retrains";
    /// Checkpoints whose candidate failed the accuracy bar (counter).
    pub const RETRAINS_REJECTED: &str = "orchestrator.drift.rejected";
    /// Retrain duration in µs, fit through swap — or through attach, for
    /// a candidate that starts shadowing (histogram). Recorded iff the
    /// checkpoint returns `Retrained` or `ShadowStarted`; cancelled on
    /// every other outcome and on `Err`.
    pub const RETRAIN_MICROS: &str = "orchestrator.retrain_micros";
    /// Models published to the on-disk registry (counter).
    pub const REGISTRY_PUBLISHES: &str = "orchestrator.registry.publishes";
    /// Checkpoints whose retrain *errored* (corrupt window) and fell back
    /// to the last-good registry model (counter).
    pub const FALLBACKS: &str = "orchestrator.drift.fallbacks";
    /// Sessions double-scored by a shadow candidate on the live serve
    /// path (counter; registered only once a shadow attaches).
    pub const SHADOW_COMPARED: &str = "orchestrator.shadow.compared";
    /// Double-scored sessions where the candidate's verdict disagreed
    /// with the serving verdict (counter).
    pub const SHADOW_DIVERGED: &str = "orchestrator.shadow.diverged";
    /// Candidates attached to the serve path as shadow scorers (counter).
    pub const SHADOW_STARTED: &str = "orchestrator.shadow.started";
    /// Shadow candidates discarded for diverging past the gate (counter).
    pub const SHADOW_REJECTED: &str = "orchestrator.shadow.rejected";
    /// Shadow candidates promoted to the registry (counter).
    pub const SHADOW_PROMOTED: &str = "orchestrator.shadow.promoted";
}

/// How a validated candidate model reaches serving detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwapPolicy {
    /// Publish to the registry *and* hot-swap this server immediately —
    /// the single-server §6.6 loop.
    #[default]
    PublishAndSwap,
    /// Publish to the registry only. Propagation to serving nodes is
    /// owned by a fleet [`crate::fleet::RolloutController`], which rolls
    /// the published version canary → 50% → full under its per-node
    /// divergence gate; the orchestrator must not swap behind its back.
    PublishOnly,
}

/// The shadow-deployment gate: how long and how cleanly a candidate
/// must ride the live serve path before it may be promoted.
///
/// The divergence gate here and the fleet rollout's per-node divergence
/// gate ([`crate::fleet::RolloutController`]) answer different questions:
/// this one decides whether a candidate *becomes a version at all*
/// (pre-publish, one server, live traffic); the fleet gate decides
/// whether an already-published version *keeps spreading* (post-publish,
/// per node, replayed probes). A candidate must pass both to reach a
/// whole fleet.
#[derive(Debug, Clone, Copy)]
pub struct ShadowConfig {
    /// Maximum tolerated divergence per checkpoint window, as a
    /// fraction of comparisons (`diverged <= max_divergence * compared`
    /// passes).
    pub max_divergence: f64,
    /// Consecutive clean checkpoints a candidate must survive before
    /// promotion.
    pub required_checkpoints: usize,
    /// Minimum comparisons a checkpoint window must contain to count at
    /// all — a quiet window is neither clean nor dirty, it just waits.
    pub min_compared: u64,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            max_divergence: 0.02,
            required_checkpoints: 2,
            min_compared: 1,
        }
    }
}

/// Orchestrator settings.
#[derive(Debug, Clone, Copy)]
pub struct OrchestratorConfig {
    /// Training configuration used for retrains.
    pub train: TrainConfig,
    /// Minimum majority-cluster accuracy a candidate model must reach on
    /// its own training window to be published (the §6.6 quality bar).
    pub min_accuracy: f64,
    /// How many registry versions to retain after a publish.
    pub keep_versions: usize,
    /// Whether a validated candidate is swapped into this server or only
    /// published for a fleet rollout to distribute.
    pub swap: SwapPolicy,
    /// Mini-batch epochs a streaming checkpoint's candidate absorbs in
    /// [`polygraph_core::TrainedModel::refit_streaming`] (used by
    /// [`super::Orchestrator::checkpoint_stream`] only).
    pub refit_epochs: usize,
    /// When set, validated candidates shadow the live serve path and
    /// must pass the divergence gate before publishing; when `None`,
    /// a validated candidate publishes immediately (the original §6.6
    /// loop). An adopted candidate ([`super::Orchestrator::adopt_shadow`])
    /// is judged either way — under the default gate when this is `None`.
    pub shadow: Option<ShadowConfig>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            min_accuracy: 0.98,
            keep_versions: 4,
            swap: SwapPolicy::PublishAndSwap,
            refit_epochs: 4,
            shadow: None,
        }
    }
}
