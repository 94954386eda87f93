//! Cooperative cancellation and deadlines for anytime runs.
//!
//! The greedy selection (§6.1) is an *anytime* algorithm: every budget-`j`
//! prefix of its selection is itself a valid budget-`j` solution. This
//! module gives callers principled ways to stop a run between iterations —
//! a flipped [`CancelToken`], an exhausted step budget, or an expired
//! wall-clock [`SoftDeadline`] — with the
//! serving contract intact: a stopped run's selection is **bit-identical
//! to the same-seed full run's prefix** of the same length, because the
//! stop check sits strictly between iterations and never changes what any
//! iteration computes.
//!
//! Library code uses step budgets ([`Deadline::steps`]) — no clock
//! involved, fully deterministic. Wall-clock deadlines
//! ([`Deadline::with_wall_clock`]) are sanctioned at the daemon boundary
//! only, where `deadline_ms=` requests arrive; they decide *how many*
//! steps commit, never what a step computes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::clock::SoftDeadline;

/// Why a controlled run stopped before exhausting its edge budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`Deadline`]'s step budget was exhausted.
    StepBudget,
    /// The [`Deadline`]'s wall-clock component expired.
    DeadlineExpired,
}

impl std::fmt::Display for StopCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopCause::Cancelled => write!(f, "cancelled"),
            StopCause::StepBudget => write!(f, "step budget exhausted"),
            StopCause::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// A shared flag that requests a run stop at its next iteration boundary.
///
/// Clones share the flag; any clone can cancel, from any thread. Checking
/// is a single relaxed-ordering atomic load — cheap enough for the greedy
/// loop to consult every iteration.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once any clone has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A per-run stopping rule: an optional step budget (deterministic,
/// library-grade) and an optional wall-clock line (daemon boundary only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Deadline {
    max_steps: Option<usize>,
    wall: Option<SoftDeadline>,
}

impl Deadline {
    /// No deadline: the run uses its full edge budget.
    pub fn none() -> Self {
        Deadline::default()
    }

    /// Stop after at most `max_steps` committed steps. Deterministic: the
    /// stopped selection is exactly `selection_at(max_steps)` of the full
    /// run.
    pub fn steps(max_steps: usize) -> Self {
        Deadline {
            max_steps: Some(max_steps),
            wall: None,
        }
    }

    /// Adds a wall-clock stop line (sanctioned at the daemon boundary;
    /// see [`crate::clock::SoftDeadline`]). The clock decides only how
    /// many steps commit — the committed prefix stays bit-identical to
    /// the same-seed full run.
    pub fn with_wall_clock(mut self, wall: SoftDeadline) -> Self {
        self.wall = Some(wall);
        self
    }

    /// The step budget, if any.
    pub fn max_steps(&self) -> Option<usize> {
        self.max_steps
    }

    /// True when this deadline can never stop a run.
    pub fn is_none(&self) -> bool {
        self.max_steps.is_none() && self.wall.is_none()
    }
}

/// Everything that can stop a controlled run, checked between iterations.
///
/// Every selection algorithm takes one; the default
/// ([`RunControl::unlimited`]) never stops a run.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    cancel: Option<CancelToken>,
    deadline: Deadline,
}

impl RunControl {
    /// A control that never stops the run.
    pub fn unlimited() -> Self {
        RunControl::default()
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// True when this control can never stop a run (the fast path: the
    /// greedy loop skips per-iteration checks entirely).
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none()
    }

    /// The stop decision taken *before* iteration `next_step` (0-based;
    /// equal to the number of steps already committed). Checks are ordered
    /// deterministic-first: cancellation, then the step budget, then the
    /// wall clock.
    pub fn should_stop(&self, next_step: usize) -> Option<StopCause> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopCause::Cancelled);
            }
        }
        if let Some(max) = self.deadline.max_steps {
            if next_step >= max {
                return Some(StopCause::StepBudget);
            }
        }
        if let Some(wall) = &self.deadline.wall {
            if wall.expired() {
                return Some(StopCause::DeadlineExpired);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_control_never_stops() {
        let control = RunControl::unlimited();
        assert!(control.is_unlimited());
        for step in [0, 1, 1_000_000] {
            assert_eq!(control.should_stop(step), None);
        }
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let control = RunControl::unlimited().with_cancel(token.clone());
        assert_eq!(control.should_stop(0), None);
        token.cancel();
        assert_eq!(control.should_stop(0), Some(StopCause::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn step_budget_stops_exactly_at_the_budget() {
        let control = RunControl::unlimited().with_deadline(Deadline::steps(3));
        assert_eq!(control.should_stop(2), None);
        assert_eq!(control.should_stop(3), Some(StopCause::StepBudget));
        assert_eq!(control.should_stop(4), Some(StopCause::StepBudget));
    }

    #[test]
    fn wall_clock_deadline_stops_once_expired() {
        let expired = Deadline::none().with_wall_clock(SoftDeadline::after(Duration::ZERO));
        let control = RunControl::unlimited().with_deadline(expired);
        assert_eq!(control.should_stop(0), Some(StopCause::DeadlineExpired));

        let generous =
            Deadline::steps(100).with_wall_clock(SoftDeadline::after(Duration::from_secs(3600)));
        let control = RunControl::unlimited().with_deadline(generous);
        assert_eq!(control.should_stop(0), None);
        assert_eq!(control.should_stop(100), Some(StopCause::StepBudget));
    }

    #[test]
    fn cancellation_outranks_the_step_budget() {
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::unlimited()
            .with_cancel(token)
            .with_deadline(Deadline::steps(0));
        assert_eq!(control.should_stop(5), Some(StopCause::Cancelled));
    }
}
