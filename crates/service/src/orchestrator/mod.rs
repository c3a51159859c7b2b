//! The retraining orchestrator: §6.6 as a running loop.
//!
//! On each checkpoint the orchestrator measures freshly collected traffic
//! with [`polygraph_core::drift::checkpoint`], which predicts each distinct
//! row of the window once. While releases cluster as expected, nothing
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
//! serving slot. The decision is a pure function (`gate::judge`); the
//! orchestrator reads the two counters and applies the verdict. See
//! DESIGN.md §5l for the full state machine.
//!
//! A checkpoint that returns `Err` leaves a state the next checkpoint
//! continues from: promotion runs publish → serve → prune, so a failed
//! publish changes nothing (a shadow candidate stays in flight with its
//! clean streak) and a failed prune is reported only after the published
//! model serves.
//!
//! ## Streaming checkpoints
//!
//! [`Orchestrator::checkpoint_stream`] runs the same loop against a
//! [`DriftStream`], whose checkpoint runs the same counting body over the
//! rows ingested since the last one: the drift decision is answered from
//! the stream's counters alone (a stable checkpoint never copies the
//! reservoir), and a drift-triggered retrain warm-starts from the serving
//! model with [`TrainedModel::refit_streaming`] — mini-batch k-means over
//! the reservoir window — instead of a full from-scratch fit.

use crate::registry::ModelRegistry;
use crate::server::RiskServerHandle;
use browser_engine::UserAgent;
use polygraph_core::{
    drift, DriftDecision, DriftStream, PolygraphError, TrainedModel, TrainingSet,
};
use polygraph_ml::ThreadPool;
use polygraph_obs::Span;
use std::io;

mod config;
mod gate;
mod outcome;
#[cfg(test)]
mod tests;

pub use config::{metric_names, OrchestratorConfig, ShadowConfig, SwapPolicy};
pub(crate) use gate::over_budget;
use gate::GateVerdict;
pub use outcome::{OrchestratorError, RetrainOutcome};

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
    /// again rather than inheriting unverifiable progress — under
    /// [`ShadowConfig::default`] on an orchestrator built without a gate.
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
        // detector guard is held across `drift::checkpoint` (a prediction
        // per distinct row of the fresh window).
        let serving_model = self.server.serving_model();
        let (observations, decision) = drift::checkpoint(&serving_model, fresh, releases)?;
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
        // absorb it into a warm-started candidate. The refit records its
        // stage timings (`retrain.stage.*`) into the server's registry.
        let retrain_span = obs.span(metric_names::RETRAIN_MICROS);
        let fitted = stream
            .training_window()
            .and_then(|fresh| serving_model.refit_observed(&fresh, self.config.refit_epochs, &obs));
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
    /// `Ok(None)` means no shadow is in flight — that, not
    /// [`OrchestratorConfig::shadow`] being set, is what decides — and
    /// the checkpoint should proceed to drift detection.
    fn evaluate_shadow(&mut self) -> Result<Option<RetrainOutcome>, OrchestratorError> {
        let Some(candidate) = self.shadow.as_mut() else {
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
                candidate.clean_checkpoints = clean;
                candidate.baseline_compared = compared_total;
                candidate.baseline_diverged = diverged_total;
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
                // From a copy: the candidate stays in flight until
                // `promote` has published it, so a registry failure here
                // costs this checkpoint, not the candidate.
                let model = candidate.model.clone();
                let version = self.promote(model)?;
                obs.counter(metric_names::SHADOW_PROMOTED).inc();
                RetrainOutcome::ShadowPromoted {
                    version,
                    checkpoints: clean,
                }
            }
        };
        Ok(Some(outcome))
    }

    /// Everything after the fit, for both entry points: review the
    /// candidate or fall back, then close the retrain span by the rule
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

        let version = self.promote(candidate)?;
        Ok(RetrainOutcome::Retrained {
            triggers,
            version,
            accuracy,
        })
    }

    /// The one promote step, behind a direct retrain and a shadow
    /// promotion alike: publish → serve → prune. The order is what makes
    /// an `Err` continuable: a failed publish has changed nothing (a
    /// shadow candidate is taken only once published), and a failed prune
    /// surfaces with the model already serving and the retrain charged.
    fn promote(&mut self, model: TrainedModel) -> io::Result<u64> {
        let obs = self.server.registry();
        let version = self.registry.publish(&model)?;
        obs.counter(metric_names::REGISTRY_PUBLISHES).inc();
        if self.shadow.take().is_some() {
            self.server.detach_shadow();
        }
        self.serve_here(model, version);
        obs.counter(metric_names::RETRAINS).inc();
        self.registry.prune(self.config.keep_versions)?;
        Ok(version)
    }

    /// Serves registry `version` on this orchestrator's server — unless
    /// the policy is [`SwapPolicy::PublishOnly`]: the serving model then
    /// belongs to the fleet rollout, and a swap here would go behind its
    /// back.
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
