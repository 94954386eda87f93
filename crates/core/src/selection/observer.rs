//! The selection observer seam: per-iteration step events.
//!
//! Every selection algorithm (greedy, Naive, Dijkstra) commits exactly one
//! edge per iteration; the observer seam surfaces each commit as a
//! [`SelectionStep`] *while the run is still executing*. This is what makes
//! the solver *anytime* in practice: the paper's greedy loop (§6.1) never
//! looks at the remaining budget when picking an edge, so the step stream
//! at budget `k` is a prefix of the stream at any larger budget, and a
//! consumer may stop listening — or act on a partial selection — at any
//! point.
//!
//! Observers are deliberately passive: they receive shared references and
//! cannot steer the selection, so an observed run is bit-identical to an
//! unobserved one.

use flowmax_graph::EdgeId;

/// One committed edge of a selection run: the per-iteration event streamed
/// to [`SelectionObserver`]s and collected by
/// [`SolveRun::steps`](crate::session::SolveRun::steps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionStep {
    /// Iteration index (0-based); equals the number of edges selected
    /// before this step.
    pub iteration: usize,
    /// The edge committed in this iteration.
    pub edge: EdgeId,
    /// Marginal gain of this step: the change in the run's own cumulative
    /// flow estimate (can be slightly negative under sampling noise).
    pub gain: f64,
    /// Cumulative expected flow after this step, under the run's own
    /// estimates (the same quantity as `SelectionOutcome::flow_trace`).
    pub flow: f64,
    /// Candidates actually probed this iteration (excludes §6.4-suspended
    /// candidates).
    pub pool: usize,
    /// Probe evaluations charged to this iteration (memoized and analytic
    /// probes included; re-probes at several race budgets count each time).
    pub probes: u64,
    /// Candidates eliminated by confidence-interval pruning (§6.3) this
    /// iteration.
    pub ci_pruned: u64,
    /// Candidate probes skipped because the edge was suspended by delayed
    /// sampling (§6.4) this iteration.
    pub ds_skipped: u64,
    /// Component estimates served from the §6.2 memo this iteration
    /// (probe-time cache hits plus racing streams resumed from cache).
    /// Part of the cross-engine determinism contract: the incremental
    /// engine must reproduce the reference engine's hit sequence exactly.
    pub memo_hits: u64,
}

/// A passive listener for [`SelectionStep`] events.
///
/// Implemented for any `FnMut(&SelectionStep)` closure, so streaming
/// consumers can be written inline:
///
/// ```
/// use flowmax_core::{SelectionObserver, SelectionStep};
///
/// let mut seen = 0usize;
/// let mut observer = |step: &SelectionStep| seen = step.iteration + 1;
/// SelectionObserver::on_step(&mut observer, &SelectionStep {
///     iteration: 0,
///     edge: flowmax_graph::EdgeId(3),
///     gain: 1.0,
///     flow: 1.0,
///     pool: 1,
///     probes: 1,
///     ci_pruned: 0,
///     ds_skipped: 0,
///     memo_hits: 0,
/// });
/// assert_eq!(seen, 1);
/// ```
pub trait SelectionObserver {
    /// Called once per committed edge, immediately after the iteration's
    /// bookkeeping completes and before the next iteration begins.
    fn on_step(&mut self, step: &SelectionStep);
}

/// The do-nothing observer behind the unobserved entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl SelectionObserver for NoObserver {
    fn on_step(&mut self, _step: &SelectionStep) {}
}

impl<F: FnMut(&SelectionStep)> SelectionObserver for F {
    fn on_step(&mut self, step: &SelectionStep) {
        self(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(iteration: usize) -> SelectionStep {
        SelectionStep {
            iteration,
            edge: EdgeId(iteration as u32),
            gain: 1.5,
            flow: 1.5 * (iteration + 1) as f64,
            pool: 4,
            probes: 4,
            ci_pruned: 1,
            ds_skipped: 2,
            memo_hits: 0,
        }
    }

    #[test]
    fn closures_are_observers() {
        let mut flows = Vec::new();
        let mut obs = |s: &SelectionStep| flows.push(s.flow);
        for i in 0..3 {
            obs.on_step(&step(i));
        }
        assert_eq!(flows, vec![1.5, 3.0, 4.5]);
    }

    #[test]
    fn no_observer_is_a_no_op() {
        NoObserver.on_step(&step(0));
    }
}
