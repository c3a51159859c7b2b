//! The retraining orchestrator: §6.6 as a running loop.
//!
//! On each checkpoint the orchestrator feeds freshly collected traffic to
//! the drift detector. While releases cluster as expected, nothing
//! happens. When one shifts, it retrains on the fresh window, *validates*
//! the candidate model (a bad window must never replace a good model),
//! publishes it to the registry, and hot-swaps the serving detector.
//!
//! ## Shadow deployment
//!
//! With [`OrchestratorConfig::shadow`] set, a validated candidate is not
//! published immediately. It is attached to the live serve path as a
//! *shadow scorer* ([`RiskServerHandle::attach_shadow`]): every decoded
//! session is assessed by both the serving detector and the candidate,
//! the candidate's verdict is compared and discarded, and only the
//! `orchestrator.shadow.compared` / `orchestrator.shadow.diverged`
//! counters move. The candidate is promoted — published versioned and
//! (under [`SwapPolicy::PublishAndSwap`]) swapped in — only after its
//! divergence rate stayed under [`ShadowConfig::max_divergence`] for
//! [`ShadowConfig::required_checkpoints`] consecutive checkpoints;
//! otherwise it is discarded without ever touching the registry or the
//! serving slot. The decision itself is a pure function of the gate
//! settings, the clean streak and one window's two counters (`judge`,
//! beside the budget rule it shares with the fleet rollout gate); the
//! orchestrator reads the counters and applies the verdict. See
//! DESIGN.md §5l for the full state machine.
//!
//! ## Errors
//!
//! A checkpoint that returns `Err` leaves a state the next checkpoint
//! continues from. Promotion runs publish → serve → prune: a failed
//! publish changes nothing (a shadow candidate stays attached, its clean
//! streak intact, and the next clean checkpoint promotes it), and a
//! failed prune is reported only after the published model serves.
//!
//! ## Streaming checkpoints
//!
//! [`Orchestrator::checkpoint_stream`] runs the same loop against a
//! [`DriftStream`]: the drift decision is answered from the stream's
//! counters alone (a stable checkpoint never copies the reservoir), and
//! a drift-triggered retrain warm-starts from the serving model with
//! [`TrainedModel::refit_streaming`] — mini-batch k-means over the
//! reservoir window — instead of a full from-scratch fit.

use crate::registry::ModelRegistry;
use crate::server::RiskServerHandle;
use browser_engine::UserAgent;
use polygraph_core::{
    DriftDecision, DriftDetector, DriftObservation, DriftStream, PolygraphError, TrainConfig,
    TrainedModel, TrainingSet,
};
use polygraph_ml::ThreadPool;
use polygraph_obs::Span;
use std::io;

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
    /// Retrain duration in µs, from the start of the fit through the swap
    /// — or through the attach, for a candidate that starts shadowing
    /// (histogram). Recorded iff the checkpoint returns `Retrained` or
    /// `ShadowStarted`; cancelled on every other outcome and on `Err`, so
    /// `count == #Retrained + #ShadowStarted`.
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
    /// [`TrainedModel::refit_streaming`] (used by
    /// [`Orchestrator::checkpoint_stream`] only).
    pub refit_epochs: usize,
    /// When set, validated candidates shadow the live serve path and
    /// must pass the divergence gate before publishing; when `None`,
    /// a validated candidate publishes immediately (the original §6.6
    /// loop). A candidate handed in through
    /// [`Orchestrator::adopt_shadow`] is judged either way — under
    /// [`ShadowConfig::default`] when this is `None`.
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
    /// ([`ShadowConfig::min_compared`]) or more clean checkpoints are
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
    /// [`SwapPolicy::PublishAndSwap`]) swapped into this server.
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

/// A candidate model riding the serve path as a shadow, plus the gate
/// bookkeeping that decides its fate.
struct ShadowCandidate {
    /// The validated candidate, kept so promotion publishes exactly the
    /// model that was shadow-scored — no refit, no mutation.
    model: TrainedModel,
    /// Clean checkpoints survived so far.
    clean_checkpoints: usize,
    /// `orchestrator.shadow.compared` total when this window started.
    baseline_compared: u64,
    /// `orchestrator.shadow.diverged` total when this window started.
    baseline_diverged: u64,
}

/// Drives drift checkpoints against a serving risk server.
pub struct Orchestrator<'s> {
    server: &'s RiskServerHandle,
    registry: ModelRegistry,
    config: OrchestratorConfig,
    /// The shadow candidate in flight, if any. Present only between a
    /// `ShadowStarted` outcome and the matching `ShadowPromoted` /
    /// `ShadowRejected`.
    shadow: Option<ShadowCandidate>,
}

impl<'s> Orchestrator<'s> {
    /// Creates an orchestrator for `server`, persisting models in
    /// `registry`.
    pub fn new(
        server: &'s RiskServerHandle,
        registry: ModelRegistry,
        config: OrchestratorConfig,
    ) -> Self {
        Self {
            server,
            registry,
            config,
            shadow: None,
        }
    }

    /// The registry this orchestrator publishes to.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Whether a shadow candidate is currently riding the serve path.
    pub fn shadow_in_flight(&self) -> bool {
        self.shadow.is_some()
    }

    /// The model of the shadow candidate in flight, if any — so an
    /// operator (or a successor orchestrator, via
    /// [`Self::adopt_shadow`]) can persist it across a restart.
    pub fn shadow_candidate(&self) -> Option<&TrainedModel> {
        self.shadow.as_ref().map(|c| &c.model)
    }

    /// Adopts `model` as the shadow candidate in flight — restart
    /// recovery for an orchestrator that died (or was handed off) while
    /// a candidate was riding the serve path. The candidate is
    /// (re)attached to the server and the gate restarts from the current
    /// counter totals with zero clean checkpoints, so an adopted
    /// candidate earns the full [`ShadowConfig::required_checkpoints`]
    /// again rather than inheriting unverifiable progress. An adopted
    /// candidate is always judged: an orchestrator built without
    /// [`OrchestratorConfig::shadow`] applies [`ShadowConfig::default`].
    pub fn adopt_shadow(&mut self, model: TrainedModel) {
        // Baselines are read *before* attaching, so comparisons that
        // land between attach and the next checkpoint all count toward
        // the candidate's first window.
        let obs = self.server.registry();
        let baseline_compared = obs.counter(metric_names::SHADOW_COMPARED).get();
        let baseline_diverged = obs.counter(metric_names::SHADOW_DIVERGED).get();
        self.server.attach_shadow(model.clone());
        self.shadow = Some(ShadowCandidate {
            model,
            clean_checkpoints: 0,
            baseline_compared,
            baseline_diverged,
        });
    }

    /// Runs one checkpoint: measure `releases` over `fresh` traffic; on
    /// drift, retrain on `fresh`, validate, then publish-and-swap — or,
    /// with [`OrchestratorConfig::shadow`] set, attach the candidate as
    /// a shadow scorer and let later checkpoints decide its fate.
    pub fn checkpoint(
        &mut self,
        fresh: &TrainingSet,
        releases: &[UserAgent],
    ) -> Result<RetrainOutcome, OrchestratorError> {
        let obs = self.server.registry();
        obs.counter(metric_names::CHECKPOINTS).inc();

        // A shadow in flight owns the checkpoint: its agreement window
        // is judged before (instead of) looking for new drift, so one
        // candidate at a time rides the serve path.
        if let Some(outcome) = self.evaluate_shadow()? {
            return Ok(outcome);
        }

        // Measure against the *currently serving* model — a copy, so no
        // detector guard is held across `DriftDetector::checkpoint` (a
        // full re-clustering pass over the fresh window).
        let serving_model = self.server.serving_model();
        let (observations, decision) = {
            let monitor = DriftDetector::new(&serving_model);
            monitor.checkpoint(fresh, releases)?
        };
        obs.counter(metric_names::DRIFT_EVALUATIONS)
            .add(observations.len() as u64);

        let triggers = match decision {
            DriftDecision::Stable => return Ok(RetrainOutcome::Stable { observations }),
            DriftDecision::Retrain { triggers } => triggers,
        };

        // Retrain on the fresh window with the serving feature schema.
        // The fit records its per-phase timings (`fit.*`) into the
        // server's registry; this span wraps the whole fit-to-swap path.
        // Reuse the measured model's schema rather than re-reading the
        // slot: if a concurrent swap landed mid-checkpoint, retraining
        // against the schema that produced `decision` stays coherent.
        let retrain_span = obs.span(metric_names::RETRAIN_MICROS);
        let feature_set = serving_model.feature_set().clone();
        let fitted = TrainedModel::fit_observed(
            feature_set,
            fresh,
            self.config.train,
            &ThreadPool::serial(),
            &obs,
        );
        self.finish_retrain(retrain_span, fitted, triggers)
    }

    /// [`Self::checkpoint`] against a live [`DriftStream`]. The drift
    /// decision is answered from the stream's counters alone — a stable
    /// checkpoint never materializes the reservoir window (pinned by the
    /// no-allocation regression test) — and a drift-triggered retrain
    /// warm-starts from the serving model with
    /// [`TrainedModel::refit_streaming`] on the reservoir window, at
    /// mini-batch cost instead of a full from-scratch fit. Counters are
    /// reset whenever a retrain consumed the window (the candidate
    /// started shadowing or swapped in) and again at promotion, so the
    /// next window is measured against the model that now serves.
    pub fn checkpoint_stream(
        &mut self,
        stream: &mut DriftStream,
        releases: &[UserAgent],
    ) -> Result<RetrainOutcome, OrchestratorError> {
        let obs = self.server.registry();
        obs.counter(metric_names::CHECKPOINTS).inc();

        if let Some(outcome) = self.evaluate_shadow()? {
            if matches!(outcome, RetrainOutcome::ShadowPromoted { .. }) {
                stream.reset_counters();
            }
            return Ok(outcome);
        }

        let serving_model = self.server.serving_model();
        let (observations, decision) = stream.checkpoint(&serving_model, releases)?;
        obs.counter(metric_names::DRIFT_EVALUATIONS)
            .add(observations.len() as u64);

        let triggers = match decision {
            DriftDecision::Stable => return Ok(RetrainOutcome::Stable { observations }),
            DriftDecision::Retrain { triggers } => triggers,
        };

        // Drift fired: now — and only now — copy the reservoir out and
        // absorb it into a warm-started candidate.
        let retrain_span = obs.span(metric_names::RETRAIN_MICROS);
        let fitted = stream.training_window().and_then(|fresh| {
            serving_model.refit_streaming(&fresh, self.config.refit_epochs, &ThreadPool::serial())
        });
        let outcome = self.finish_retrain(retrain_span, fitted, triggers)?;
        if matches!(
            outcome,
            RetrainOutcome::Retrained { .. } | RetrainOutcome::ShadowStarted { .. }
        ) {
            stream.reset_counters();
        }
        Ok(outcome)
    }

    /// Judges the shadow candidate in flight, if any: reads this
    /// checkpoint's `(compared, diverged)` window off the shadow
    /// counters, lets [`gate::judge`] decide, and applies the verdict.
    /// `Ok(None)` means no shadow is in flight and the checkpoint should
    /// proceed to drift detection.
    ///
    /// Whether a candidate is judged depends on one being in flight, not
    /// on [`OrchestratorConfig::shadow`]: an orchestrator built without a
    /// gate that adopted a candidate judges it under the default gate,
    /// so nothing double-scores the serve path unjudged.
    fn evaluate_shadow(&mut self) -> Result<Option<RetrainOutcome>, OrchestratorError> {
        let Some(candidate) = self.shadow.as_ref() else {
            return Ok(None);
        };
        let cfg = self.config.shadow.unwrap_or_default();
        let obs = self.server.registry();
        let compared_total = obs.counter(metric_names::SHADOW_COMPARED).get();
        let diverged_total = obs.counter(metric_names::SHADOW_DIVERGED).get();
        let compared = compared_total.saturating_sub(candidate.baseline_compared);
        let diverged = diverged_total.saturating_sub(candidate.baseline_diverged);
        let clean_so_far = candidate.clean_checkpoints;
        let clean = clean_so_far + 1;

        let outcome = match gate::judge(cfg, clean_so_far, compared, diverged) {
            // A quiet window proves nothing either way: keep shadowing,
            // streak and baselines untouched.
            GateVerdict::Wait => RetrainOutcome::ShadowPending {
                compared,
                diverged,
                clean_checkpoints: clean_so_far,
            },
            GateVerdict::Clean => {
                // Re-arm the baselines, so the next window is judged on
                // its own and one noisy window cannot be amortised away.
                if let Some(c) = self.shadow.as_mut() {
                    c.clean_checkpoints = clean;
                    c.baseline_compared = compared_total;
                    c.baseline_diverged = diverged_total;
                }
                RetrainOutcome::ShadowPending {
                    compared,
                    diverged,
                    clean_checkpoints: clean,
                }
            }
            GateVerdict::Reject => {
                // Discard: detach so double-scoring stops, and never
                // touch the registry — a rejected candidate must leave no
                // trace beyond its counters.
                self.shadow = None;
                self.server.detach_shadow();
                obs.counter(metric_names::SHADOW_REJECTED).inc();
                RetrainOutcome::ShadowRejected { compared, diverged }
            }
            GateVerdict::Promote => {
                // Publish while the candidate is still in flight: a
                // registry failure returns here with it attached and its
                // streak intact, and the next clean checkpoint tries
                // again. Only a published candidate stops being one.
                let version = self.publish(&candidate.model)?;
                self.server.detach_shadow();
                obs.counter(metric_names::SHADOW_PROMOTED).inc();
                if let Some(promoted) = self.shadow.take() {
                    self.serve_and_prune(promoted.model, version)?;
                }
                RetrainOutcome::ShadowPromoted {
                    version,
                    checkpoints: clean,
                }
            }
        };
        Ok(Some(outcome))
    }

    /// Everything after the fit, for both checkpoint entry points: a
    /// fitted candidate is reviewed, an unusable window falls back to the
    /// last-good model, and the retrain span closes by the one rule
    /// [`metric_names::RETRAIN_MICROS`] documents.
    fn finish_retrain(
        &mut self,
        retrain_span: Span,
        fitted: Result<TrainedModel, PolygraphError>,
        triggers: Vec<UserAgent>,
    ) -> Result<RetrainOutcome, OrchestratorError> {
        let outcome = match fitted {
            Ok(candidate) => self.review_candidate(candidate, triggers),
            Err(err) => self.fall_back_to_last_good(triggers, err),
        };
        match outcome {
            Ok(RetrainOutcome::Retrained { .. } | RetrainOutcome::ShadowStarted { .. }) => {
                retrain_span.finish();
            }
            _ => retrain_span.cancel(),
        }
        outcome
    }

    /// Validates a freshly trained candidate and routes it: below the
    /// accuracy bar it is rejected outright; with a shadow gate
    /// configured it attaches to the serve path; otherwise it publishes
    /// and (per [`SwapPolicy`]) swaps immediately.
    fn review_candidate(
        &mut self,
        candidate: TrainedModel,
        triggers: Vec<UserAgent>,
    ) -> Result<RetrainOutcome, OrchestratorError> {
        let obs = self.server.registry();
        let accuracy = candidate.train_accuracy();
        if accuracy < self.config.min_accuracy {
            obs.counter(metric_names::RETRAINS_REJECTED).inc();
            return Ok(RetrainOutcome::RetrainRejected { triggers, accuracy });
        }

        if self.config.shadow.is_some() {
            self.adopt_shadow(candidate);
            obs.counter(metric_names::SHADOW_STARTED).inc();
            return Ok(RetrainOutcome::ShadowStarted { triggers, accuracy });
        }

        let version = self.publish(&candidate)?;
        self.serve_and_prune(candidate, version)?;
        Ok(RetrainOutcome::Retrained {
            triggers,
            version,
            accuracy,
        })
    }

    /// The promote step, behind a direct retrain and a shadow promotion
    /// alike, runs publish → serve → prune; this is its first third.
    /// `model` becomes the next registry version. An `Err` here has
    /// changed nothing: no version, no counter, no serving state.
    fn publish(&self, model: &TrainedModel) -> io::Result<u64> {
        let version = self.registry.publish(model)?;
        self.server
            .registry()
            .counter(metric_names::REGISTRY_PUBLISHES)
            .inc();
        Ok(version)
    }

    /// The rest of the promote step: serve the version [`Self::publish`]
    /// just wrote, then prune old ones. Pruning comes last so that its
    /// failure cannot leave a published version unserved — it surfaces
    /// as `Err` with the model already serving and the retrain charged.
    fn serve_and_prune(&self, model: TrainedModel, version: u64) -> io::Result<()> {
        self.serve_here(model, version);
        self.server.registry().counter(metric_names::RETRAINS).inc();
        self.registry.prune(self.config.keep_versions)?;
        Ok(())
    }

    /// Serves registry `version` on this orchestrator's server, tagged
    /// with that version so [`RiskServerHandle::active_model_version`]
    /// always names what serves — unless the policy is
    /// [`SwapPolicy::PublishOnly`]: the serving model then belongs to the
    /// fleet rollout, and a swap here would go behind its back.
    fn serve_here(&self, model: TrainedModel, version: u64) {
        if self.config.swap == SwapPolicy::PublishAndSwap {
            self.server.publish_model_versioned(model, version);
        }
    }

    /// A corrupt retrain window must not take the checkpoint loop down.
    /// Re-assert the last-good *published* model (which
    /// `load_latest_versioned` guarantees is intact) so serving state is
    /// reproducible from the registry, and surface the failure as an
    /// outcome, not an error.
    fn fall_back_to_last_good(
        &self,
        triggers: Vec<UserAgent>,
        err: PolygraphError,
    ) -> Result<RetrainOutcome, OrchestratorError> {
        let obs = self.server.registry();
        obs.counter(metric_names::FALLBACKS).inc();
        let latest = self.registry.load_latest_versioned()?;
        let version = latest.map(|(version, last_good)| {
            self.serve_here(last_good, version);
            version
        });
        Ok(RetrainOutcome::Fallback {
            triggers,
            version,
            error: err.to_string(),
        })
    }
}

/// The divergence gate as pure functions: no socket, no registry, no
/// clock. [`over_budget`] is the one budget rule both gates apply — the
/// shadow gate here and the fleet rollout's per-node gate
/// ([`crate::fleet::RolloutController::advance`]); [`judge`] is the
/// shadow gate's whole decision (DESIGN.md §5l's diagram), which
/// [`Orchestrator`] only reads counters for and applies.
mod gate {
    use super::ShadowConfig;

    /// Whether a window of `compared` verdict pairs, `diverged` of them
    /// disagreeing, exceeds a budget of `max_divergence` (a fraction of
    /// the comparisons). The boundary passes: exactly
    /// `max_divergence · compared` divergences are within budget. An
    /// empty window is within any budget, zero included.
    pub(crate) fn over_budget(max_divergence: f64, compared: u64, diverged: u64) -> bool {
        diverged as f64 > max_divergence * compared as f64
    }

    /// What one checkpoint's window means for a shadow candidate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum GateVerdict {
        /// Too few comparisons to count: the window is neither clean nor
        /// dirty, the streak neither advances nor resets.
        Wait,
        /// Within budget, and more clean checkpoints are still required.
        Clean,
        /// Over budget: the candidate is discarded.
        Reject,
        /// Within budget, and this window completes the required streak.
        Promote,
    }

    /// Judges a candidate with `clean_so_far` clean checkpoints behind
    /// it on a window of `compared` comparisons, `diverged` divergent.
    pub(super) fn judge(
        cfg: ShadowConfig,
        clean_so_far: usize,
        compared: u64,
        diverged: u64,
    ) -> GateVerdict {
        if compared < cfg.min_compared {
            GateVerdict::Wait
        } else if over_budget(cfg.max_divergence, compared, diverged) {
            GateVerdict::Reject
        } else if clean_so_far + 1 < cfg.required_checkpoints {
            GateVerdict::Clean
        } else {
            GateVerdict::Promote
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn budget_boundary_passes_and_one_more_divergence_does_not() {
            assert!(!over_budget(0.02, 100, 2));
            assert!(over_budget(0.02, 100, 3));
            // The rollout's corner cases go through the same rule: an
            // empty sample is within a zero budget, and a zero budget
            // tolerates agreement but not a single divergence.
            assert!(!over_budget(0.0, 0, 0));
            assert!(!over_budget(0.0, 40, 0));
            assert!(over_budget(0.0, 40, 1));
        }

        #[test]
        fn judge_follows_the_gate_table() {
            use GateVerdict::{Clean, Promote, Reject, Wait};
            let gate = |required_checkpoints, min_compared| ShadowConfig {
                max_divergence: 0.02,
                required_checkpoints,
                min_compared,
            };
            // (gate, clean streak so far, compared, diverged) → verdict
            let table = [
                // Exactly on budget is clean; one more divergence rejects,
                // whatever the streak.
                (gate(2, 1), 0, 100, 2, Clean),
                (gate(2, 1), 0, 100, 3, Reject),
                (gate(2, 1), 1, 100, 3, Reject),
                // The second clean window completes a streak of two.
                (gate(2, 1), 1, 100, 2, Promote),
                // A window under `min_compared` waits at any streak —
                // even an all-divergent one, even one clean window short
                // of promotion.
                (gate(2, 5), 0, 4, 4, Wait),
                (gate(2, 5), 1, 4, 0, Wait),
                (gate(2, 5), 1, 5, 0, Promote),
                // `min_compared: 0` counts an empty window as clean.
                (gate(2, 0), 0, 0, 0, Clean),
                (gate(2, 0), 1, 0, 0, Promote),
                // A one-checkpoint gate promotes on the first clean window.
                (gate(1, 1), 0, 10, 0, Promote),
                (gate(1, 1), 0, 0, 0, Wait),
            ];
            for (cfg, streak, compared, diverged, want) in table {
                assert_eq!(
                    judge(cfg, streak, compared, diverged),
                    want,
                    "{cfg:?} at streak {streak}: {diverged} of {compared}"
                );
            }
        }
    }
}
pub(crate) use gate::over_budget;
use gate::GateVerdict;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::start_risk_server;
    use browser_engine::Vendor;
    use fingerprint::FeatureSet;
    use polygraph_core::Detector;

    fn ua(vendor: Vendor, v: u32) -> UserAgent {
        UserAgent::new(vendor, v)
    }

    /// Era A at (0,0) for Chrome 100, era B at (10,10) for Chrome 110.
    fn training(base_a: f64) -> TrainingSet {
        let mut set = TrainingSet::new(2);
        for (base, u) in [
            (base_a, ua(Vendor::Chrome, 100)),
            (10.0, ua(Vendor::Chrome, 110)),
        ] {
            for j in 0..60 {
                set.push(vec![base + (j % 3) as f64 * 0.05, base], u)
                    .unwrap();
            }
        }
        set
    }

    /// The training eras plus Chrome 111 shipping with a shape back near
    /// era A: its sessions land in Chrome 100's cluster instead of its
    /// predecessor's — drift.
    fn drifting_window() -> TrainingSet {
        let mut fresh = training(0.0);
        for j in 0..80 {
            fresh
                .push(
                    vec![-0.5 + (j % 3) as f64 * 0.05, -0.5],
                    ua(Vendor::Chrome, 111),
                )
                .unwrap();
        }
        fresh
    }

    fn config() -> OrchestratorConfig {
        OrchestratorConfig {
            train: TrainConfig {
                k: 2,
                n_components: 2,
                min_samples_for_majority: 1,
                ..Default::default()
            },
            min_accuracy: 0.95,
            keep_versions: 2,
            swap: SwapPolicy::PublishAndSwap,
            refit_epochs: 4,
            shadow: None,
        }
    }

    fn temp_registry(tag: &str) -> ModelRegistry {
        let dir =
            std::env::temp_dir().join(format!("polygraph-orch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelRegistry::open(&dir).unwrap()
    }

    fn serving_model() -> TrainedModel {
        let fs = FeatureSet::table8().subset(&[0, 1]);
        TrainedModel::fit(fs, &training(0.0), config().train).unwrap()
    }

    #[test]
    fn stable_checkpoint_keeps_the_model() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut orch = Orchestrator::new(&server, temp_registry("stable"), config());
        // Chrome 111 ships with era-B features: stable.
        let mut fresh = training(0.0);
        for _ in 0..60 {
            fresh
                .push(vec![10.0, 10.0], ua(Vendor::Chrome, 111))
                .unwrap();
        }
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(outcome, RetrainOutcome::Stable { .. }));
        assert_eq!(server.stats().swaps, 0);
        assert_eq!(orch.registry().versions().unwrap(), Vec::<u64>::new());
        server.shutdown();
    }

    /// Regression for the POLY-L002 dogfooding fix: `checkpoint` must
    /// release the detector-slot read guard before the drift measurement
    /// runs (it clones the model out), so a writer — `swap_detector` —
    /// can take the slot while a measurement is in flight. Before the
    /// fix, the guard spanned the whole measurement and every
    /// `try_write` below would fail until the checkpoint finished.
    #[test]
    fn checkpoint_releases_the_detector_slot_before_measuring() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut orch = Orchestrator::new(&server, temp_registry("guard-scope"), config());
        // A large stable window: the measurement runs long enough for
        // the main thread to probe the slot, and Stable means no swap
        // interferes with the probe.
        let mut fresh = training(0.0);
        for j in 0..20_000 {
            fresh
                .push(
                    vec![10.0 + (j % 3) as f64 * 0.05, 10.0],
                    ua(Vendor::Chrome, 111),
                )
                .unwrap();
        }
        let checkpoints = server.registry().counter(metric_names::CHECKPOINTS);
        let done = AtomicBool::new(false);
        let acquired_mid_checkpoint = std::thread::scope(|scope| {
            scope.spawn(|| {
                let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
                assert!(matches!(outcome, RetrainOutcome::Stable { .. }));
                done.store(true, Ordering::SeqCst);
            });
            // Wait for the checkpoint to begin …
            while checkpoints.get() == 0 && !done.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // … then take a write lock on the slot mid-measurement.
            let slot = server.detector_slot();
            let mut acquired = false;
            while !done.load(Ordering::SeqCst) {
                if let Some(guard) = slot.try_write() {
                    drop(guard);
                    acquired = true;
                    break;
                }
                std::thread::yield_now();
            }
            acquired
        });
        assert!(
            acquired_mid_checkpoint,
            "a writer must be able to take the detector slot while a drift \
             measurement is running"
        );
        server.shutdown();
    }

    /// Under `SwapPolicy::PublishOnly` a drift-triggered retrain still
    /// validates and publishes, but the serving detector is left to the
    /// fleet rollout: zero swaps, version in the registry.
    #[test]
    fn publish_only_checkpoint_publishes_without_swapping() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let registry = temp_registry("publish-only");
        let mut orch = Orchestrator::new(
            &server,
            registry,
            OrchestratorConfig {
                swap: SwapPolicy::PublishOnly,
                ..config()
            },
        );
        let fresh = drifting_window();
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(
            outcome,
            RetrainOutcome::Retrained { version: 1, .. }
        ));
        assert_eq!(
            server.stats().swaps,
            0,
            "publish-only must not touch the serving detector"
        );
        assert_eq!(orch.registry().versions().unwrap(), vec![1]);
        server.shutdown();
    }

    #[test]
    fn drift_triggers_retrain_publish_and_swap() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let registry = temp_registry("retrain");
        let mut orch = Orchestrator::new(&server, registry, config());
        let fresh = drifting_window();
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        match outcome {
            RetrainOutcome::Retrained {
                triggers,
                version,
                accuracy,
            } => {
                assert_eq!(triggers, vec![ua(Vendor::Chrome, 111)]);
                assert_eq!(version, 1);
                assert!(accuracy > 0.95);
            }
            other => panic!("expected retrain, got {other:?}"),
        }
        assert_eq!(server.stats().swaps, 1);
        assert_eq!(
            server.active_model_version(),
            1,
            "a direct retrain swaps versioned, like a shadow promotion"
        );
        // The published model is loadable and knows the new release.
        let restored = orch.registry().load_latest().unwrap().expect("published");
        assert!(restored
            .cluster_table()
            .cluster_of(ua(Vendor::Chrome, 111))
            .is_some());
        // And the serving detector now accepts the new shape.
        let verdict = Detector::new(server.serving_model())
            .assess(&[-0.5, -0.5], ua(Vendor::Chrome, 111))
            .unwrap();
        assert!(!verdict.flagged, "after the swap the new shape is known");
        server.shutdown();
    }

    #[test]
    fn failed_validation_keeps_the_old_model() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut cfg = config();
        cfg.min_accuracy = 1.1; // impossible bar
        let mut orch = Orchestrator::new(&server, temp_registry("reject"), cfg);
        let fresh = drifting_window();
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(outcome, RetrainOutcome::RetrainRejected { .. }));
        assert_eq!(server.stats().swaps, 0);
        assert!(orch.registry().versions().unwrap().is_empty());
        server.shutdown();
    }

    /// Drift plus an unusable retrain window: `k` far exceeds the rows in
    /// the fresh set, so `fit_observed` errors after drift has already
    /// fired — the corrupt-collection-run scenario.
    fn drifting_but_unfittable() -> (TrainingSet, OrchestratorConfig) {
        let fresh = drifting_window();
        let mut cfg = config();
        cfg.train.k = 10_000;
        (fresh, cfg)
    }

    #[test]
    fn corrupt_window_falls_back_to_last_good_registry_model() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let registry = temp_registry("fallback");
        // Seed the registry with a known-good published model.
        let last_good = serving_model();
        registry.publish(&last_good).unwrap();
        let (fresh, cfg) = drifting_but_unfittable();
        let mut orch = Orchestrator::new(&server, registry, cfg);
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        match outcome {
            RetrainOutcome::Fallback {
                triggers,
                version,
                error,
            } => {
                assert_eq!(triggers, vec![ua(Vendor::Chrome, 111)]);
                assert_eq!(version, Some(1));
                assert!(error.contains("cannot support k="), "got: {error}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
        assert_eq!(server.stats().swaps, 1, "last-good model was re-asserted");
        assert_eq!(server.active_model_version(), 1);
        // The serving detector is the registry model, not a half-trained
        // candidate: known shapes still assess cleanly.
        let verdict = Detector::new(server.serving_model())
            .assess(&[0.0, 0.0], ua(Vendor::Chrome, 100))
            .unwrap();
        assert!(!verdict.flagged);
        server.shutdown();
    }

    #[test]
    fn fallback_with_empty_registry_keeps_serving_in_memory_model() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let (fresh, cfg) = drifting_but_unfittable();
        let mut orch = Orchestrator::new(&server, temp_registry("fallback-empty"), cfg);
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        match outcome {
            RetrainOutcome::Fallback { version, .. } => assert_eq!(version, None),
            other => panic!("expected fallback, got {other:?}"),
        }
        assert_eq!(server.stats().swaps, 0, "nothing to fall back to: no swap");
        server.shutdown();
    }

    /// `min_compared: 0` lets these unit tests drive the gate without
    /// live traffic: an empty window counts as clean.
    fn shadow_config() -> OrchestratorConfig {
        OrchestratorConfig {
            shadow: Some(ShadowConfig {
                max_divergence: 0.05,
                required_checkpoints: 2,
                min_compared: 0,
            }),
            ..config()
        }
    }

    #[test]
    fn shadow_gate_attaches_then_promotes_after_clean_checkpoints() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut orch = Orchestrator::new(&server, temp_registry("shadow-promote"), shadow_config());
        let fresh = drifting_window();

        // Drift: the candidate attaches as a shadow instead of publishing.
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));
        assert!(server.shadow_attached());
        assert!(orch.shadow_in_flight());
        assert_eq!(
            orch.registry().versions().unwrap(),
            Vec::<u64>::new(),
            "a shadowing candidate must not be in the registry"
        );
        assert_eq!(server.stats().swaps, 0);
        assert_eq!(server.active_model_version(), 0);

        // First clean checkpoint: still pending.
        let outcome = orch.checkpoint(&fresh, &[]).unwrap();
        assert!(matches!(
            outcome,
            RetrainOutcome::ShadowPending {
                clean_checkpoints: 1,
                ..
            }
        ));
        assert!(server.shadow_attached());

        // Second clean checkpoint: promoted — versioned publish + swap.
        let outcome = orch.checkpoint(&fresh, &[]).unwrap();
        match outcome {
            RetrainOutcome::ShadowPromoted {
                version,
                checkpoints,
            } => {
                assert_eq!(version, 1);
                assert_eq!(checkpoints, 2);
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        assert!(!server.shadow_attached());
        assert!(!orch.shadow_in_flight());
        assert_eq!(orch.registry().versions().unwrap(), vec![1]);
        assert_eq!(server.stats().swaps, 1);
        assert_eq!(server.active_model_version(), 1);
        server.shutdown();
    }

    #[test]
    fn diverging_shadow_is_rejected_without_publishing() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut cfg = shadow_config();
        cfg.shadow = Some(ShadowConfig {
            max_divergence: 0.05,
            required_checkpoints: 1,
            min_compared: 1,
        });
        let mut orch = Orchestrator::new(&server, temp_registry("shadow-reject"), cfg);
        let fresh = drifting_window();
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

        // Simulate a divergent traffic window by ticking the same
        // counters the serve path's shadow comparison ticks.
        let obs = server.registry();
        obs.counter(metric_names::SHADOW_COMPARED).add(100);
        obs.counter(metric_names::SHADOW_DIVERGED).add(50);

        let outcome = orch.checkpoint(&fresh, &[]).unwrap();
        match outcome {
            RetrainOutcome::ShadowRejected { compared, diverged } => {
                assert_eq!(compared, 100);
                assert_eq!(diverged, 50);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(!server.shadow_attached(), "rejected candidate detached");
        assert!(!orch.shadow_in_flight());
        assert_eq!(
            orch.registry().versions().unwrap(),
            Vec::<u64>::new(),
            "a rejected candidate must never be published"
        );
        assert_eq!(server.stats().swaps, 0);
        assert_eq!(obs.counter(metric_names::SHADOW_REJECTED).get(), 1);
        server.shutdown();
    }

    #[test]
    fn quiet_windows_keep_the_shadow_waiting() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut cfg = shadow_config();
        cfg.shadow = Some(ShadowConfig {
            min_compared: 5,
            ..ShadowConfig::default()
        });
        let mut orch = Orchestrator::new(&server, temp_registry("shadow-quiet"), cfg);
        let fresh = drifting_window();
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

        // No traffic at all: the gate neither advances nor rejects.
        for _ in 0..3 {
            let outcome = orch.checkpoint(&fresh, &[]).unwrap();
            assert!(matches!(
                outcome,
                RetrainOutcome::ShadowPending {
                    compared: 0,
                    clean_checkpoints: 0,
                    ..
                }
            ));
            assert!(server.shadow_attached());
        }
        server.shutdown();
    }

    /// Promotion publishes before it takes the candidate: a registry
    /// that cannot be written at the promoting checkpoint costs that
    /// checkpoint, not the candidate that passed its whole gate.
    #[test]
    fn failed_publish_at_promotion_keeps_the_candidate_in_flight() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut cfg = shadow_config();
        cfg.shadow = cfg.shadow.map(|gate| ShadowConfig {
            required_checkpoints: 1,
            ..gate
        });
        let registry = temp_registry("promote-unwritable");
        let dir = registry.dir().to_path_buf();
        let mut orch = Orchestrator::new(&server, registry, cfg);
        let fresh = drifting_window();
        let outcome = orch.checkpoint(&fresh, &[ua(Vendor::Chrome, 111)]).unwrap();
        assert!(matches!(outcome, RetrainOutcome::ShadowStarted { .. }));

        // The registry directory is replaced by a regular file: the
        // promoting checkpoint cannot publish.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let err = orch.checkpoint(&fresh, &[]).unwrap_err();
        assert!(matches!(err, OrchestratorError::Registry(_)), "got {err}");
        assert!(orch.shadow_in_flight());
        assert!(server.shadow_attached());
        assert!(orch.registry().versions().is_err());
        assert_eq!(server.stats().swaps, 0);
        assert_eq!(server.active_model_version(), 0);

        // Directory restored: the next clean checkpoint promotes it.
        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = orch.checkpoint(&fresh, &[]).unwrap();
        assert!(
            matches!(outcome, RetrainOutcome::ShadowPromoted { version: 1, .. }),
            "got {outcome:?}"
        );
        assert!(!orch.shadow_in_flight());
        assert!(!server.shadow_attached());
        assert_eq!(orch.registry().versions().unwrap(), vec![1]);
        assert_eq!(server.active_model_version(), 1);
        server.shutdown();
    }

    /// Pruning is the last third of the promote step: when it fails, the
    /// version just published already serves and the retrain is charged.
    #[test]
    fn failed_prune_is_reported_after_the_published_model_serves() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let registry = temp_registry("prune-fails");
        // A directory where version 1's file would be: listed as a
        // version, publishable past, but not removable as a file.
        std::fs::create_dir(registry.dir().join("model-v1.json")).unwrap();
        let mut orch = Orchestrator::new(
            &server,
            registry,
            OrchestratorConfig {
                keep_versions: 1,
                ..config()
            },
        );
        let err = orch
            .checkpoint(&drifting_window(), &[ua(Vendor::Chrome, 111)])
            .unwrap_err();
        assert!(matches!(err, OrchestratorError::Registry(_)), "got {err}");
        assert_eq!(server.stats().swaps, 1);
        assert_eq!(server.active_model_version(), 2);
        let obs = server.registry();
        assert_eq!(obs.counter(metric_names::REGISTRY_PUBLISHES).get(), 1);
        assert_eq!(obs.counter(metric_names::RETRAINS).get(), 1);
        server.shutdown();
    }

    /// Whether a checkpoint judges a shadow depends on one being in
    /// flight, not on the orchestrator having been built with a gate: an
    /// adopted candidate on `shadow: None` is judged under
    /// `ShadowConfig::default()` (two clean checkpoints, at least one
    /// comparison each), and a quiet window leaves its streak alone.
    #[test]
    fn adopted_candidate_is_judged_without_a_configured_gate() {
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving_model())).unwrap();
        let mut orch = Orchestrator::new(&server, temp_registry("adopt-ungated"), config());
        let fresh = drifting_window();
        orch.adopt_shadow(serving_model());
        assert!(server.shadow_attached());

        let obs = server.registry();
        let releases = [ua(Vendor::Chrome, 111)];
        let mut pending = |compared: u64, want_clean: usize| {
            obs.counter(metric_names::SHADOW_COMPARED).add(compared);
            let outcome = orch.checkpoint(&fresh, &releases).unwrap();
            match outcome {
                RetrainOutcome::ShadowPending {
                    compared: seen,
                    clean_checkpoints,
                    ..
                } => assert_eq!((seen, clean_checkpoints), (compared, want_clean)),
                other => panic!("expected a pending shadow, got {other:?}"),
            }
            assert!(server.shadow_attached());
        };
        pending(0, 0);
        pending(100, 1);
        pending(0, 1);
        obs.counter(metric_names::SHADOW_COMPARED).add(100);
        let outcome = orch.checkpoint(&fresh, &releases).unwrap();
        assert!(
            matches!(
                outcome,
                RetrainOutcome::ShadowPromoted {
                    version: 1,
                    checkpoints: 2
                }
            ),
            "got {outcome:?}"
        );
        assert!(!server.shadow_attached());
        assert!(!orch.shadow_in_flight());
        assert_eq!(server.stats().swaps, 1);
        assert_eq!(server.active_model_version(), 1);
        server.shutdown();
    }

    #[test]
    fn streaming_checkpoint_retrains_from_the_reservoir() {
        let serving = serving_model();
        let server = start_risk_server("127.0.0.1:0", Detector::new(serving.clone())).unwrap();
        let mut orch = Orchestrator::new(&server, temp_registry("stream"), config());
        let mut stream = DriftStream::new(512, 2, 7).unwrap();

        // Stable era: the training window plus Chrome 111 shipping with
        // era-B features — it lands in its predecessor's cluster.
        let stable = training(0.0);
        for (row, u) in stable.rows().iter().zip(stable.user_agents()) {
            stream.ingest(&serving, row, *u).unwrap();
        }
        for _ in 0..60 {
            stream
                .ingest(&serving, &[10.0, 10.0], ua(Vendor::Chrome, 111))
                .unwrap();
        }
        let outcome = orch
            .checkpoint_stream(&mut stream, &[ua(Vendor::Chrome, 111)])
            .unwrap();
        assert!(matches!(outcome, RetrainOutcome::Stable { .. }));
        assert_eq!(
            stream.window().materializations(),
            0,
            "a stable checkpoint must not copy the reservoir"
        );

        // Chrome 112 arrives with a drifted shape, back near era A.
        for j in 0..80 {
            stream
                .ingest(
                    &serving,
                    &[-0.5 + (j % 3) as f64 * 0.05, -0.5],
                    ua(Vendor::Chrome, 112),
                )
                .unwrap();
        }
        let outcome = orch
            .checkpoint_stream(&mut stream, &[ua(Vendor::Chrome, 112)])
            .unwrap();
        assert!(
            matches!(outcome, RetrainOutcome::Retrained { version: 1, .. }),
            "got {outcome:?}"
        );
        assert_eq!(server.stats().swaps, 1);
        assert_eq!(
            stream.window().materializations(),
            1,
            "exactly one reservoir copy, for the retrain itself"
        );
        assert_eq!(
            stream.accumulator().ingested(),
            0,
            "drift counters reset after the swap"
        );
        server.shutdown();
    }
}
