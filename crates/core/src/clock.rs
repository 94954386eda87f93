//! The sanctioned wall-clock reads of `flowmax-core`.
//!
//! Library code must not read the clock (lint rule L3): a timing read in a
//! decision path is how "same seed, different machine, different answer"
//! bugs are born. Two uses are legitimate, and both are funnelled through
//! this module so its suppression is the only L3 exemption in the crate:
//!
//! * **Observability** — reporting how long a solve took. Everything
//!   `monotonic_now` feeds ([`SolveRun::elapsed`](crate::session::SolveRun::elapsed),
//!   serve metrics) is a passenger of the result, never an input to
//!   selection, sampling, or replay.
//! * **Soft deadlines at the serving boundary** — a [`SoftDeadline`] lets
//!   the daemon stop a greedy run when its wall-clock budget expires. The
//!   clock only chooses *where the run stops*, between iterations; every
//!   committed step is bit-identical to the same-seed full run's prefix
//!   (the anytime property of the greedy selection), so degraded answers
//!   stay inside the determinism contract. Step-budget deadlines
//!   ([`crate::cancel::Deadline`]) need no clock at all and are preferred
//!   everywhere below the daemon boundary.

use std::time::{Duration, Instant};

/// Reads the monotonic clock for observability timing and soft deadlines.
///
/// Never branch on this value to pick *what* is computed in library code:
/// results must be a pure function of `(graph, query spec, seed)`, and the
/// determinism suite (bit-identity at every thread count) is
/// the oracle. Branching on *how far* an anytime run proceeds
/// ([`SoftDeadline`]) is the one sanctioned exception.
#[inline]
pub(crate) fn monotonic_now() -> Instant {
    // flowmax-lint: allow(L3, sanctioned observability clock: feeds SolveRun::elapsed, serving metrics and SoftDeadline stop points only — never what any step computes, only how many anytime steps run)
    Instant::now()
}

/// A wall-clock stop line for an anytime run, sanctioned at the daemon
/// boundary.
///
/// Expiry is checked between greedy iterations only: it decides how many
/// steps commit, never what any step computes, so a deadline-truncated
/// selection is bit-identical to the same-seed full run's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftDeadline {
    expires_at: Instant,
}

impl SoftDeadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        SoftDeadline {
            expires_at: monotonic_now() + budget,
        }
    }

    /// True once the wall clock has reached the deadline.
    pub fn expired(&self) -> bool {
        monotonic_now() >= self.expires_at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.expires_at.saturating_duration_since(monotonic_now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_deadline_expires_and_reports_remaining() {
        let generous = SoftDeadline::after(Duration::from_secs(3600));
        assert!(!generous.expired());
        assert!(generous.remaining() > Duration::from_secs(3000));

        let immediate = SoftDeadline::after(Duration::ZERO);
        assert!(immediate.expired());
        assert_eq!(immediate.remaining(), Duration::ZERO);
    }
}
