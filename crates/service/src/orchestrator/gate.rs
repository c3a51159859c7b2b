//! The divergence gate as pure functions: no socket, no registry, no
//! clock. [`over_budget`] is the one budget rule both the shadow gate and
//! the fleet rollout's per-node gate apply; [`judge`] is the shadow
//! gate's whole decision (DESIGN.md §5l's diagram).

use super::ShadowConfig;

/// Whether `diverged` of `compared` verdict pairs exceed a budget of
/// `max_divergence` (a fraction of the comparisons). The boundary
/// passes, and an empty window is within any budget, zero included.
pub(crate) fn over_budget(max_divergence: f64, compared: u64, diverged: u64) -> bool {
    diverged as f64 > max_divergence * compared as f64
}

/// What one checkpoint's window means for a shadow candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum GateVerdict {
    /// Too few comparisons to count: the streak neither advances nor
    /// resets.
    Wait,
    /// Within budget, and more clean checkpoints are still required.
    Clean,
    /// Over budget: the candidate is discarded.
    Reject,
    /// Within budget, and this window completes the required streak.
    Promote,
}

/// Judges a candidate with `clean_so_far` clean checkpoints behind it
/// on a window of `compared` comparisons, `diverged` divergent.
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
