//! Delayed sampling (§6.4, the **DS** heuristic).
//!
//! An edge that yielded little information gain at high sampling cost is
//! unlikely to become the best candidate soon, so it is suspended for
//!
//! ```text
//! d(e') = ⌊ log_c( cost(e') / pot(e') ) ⌋
//! ```
//!
//! iterations, where `cost(e')` is the number of edges that must be sampled
//! to probe `e'`, `pot(e')` the fraction of information *gained* by `e'`
//! relative to the iteration's best edge, and `c > 1` the penalty parameter
//! (paper default `c = 2`; the paper's worked example — 1% gain, cost 10,
//! `d = log₂ 1000 = 9` — shows `pot` is the gain ratio, not the total-flow
//! ratio of the printed formula).

use std::collections::BTreeMap;

use flowmax_graph::EdgeId;

/// Tracks per-edge suspension counters for delayed sampling.
///
/// Keyed by a `BTreeMap`, not a `HashMap`: [`DelayTracker::tick`] and
/// [`DelayTracker::suspended_count`] iterate the map, and the determinism
/// contract (lint rule L1) requires every iterated collection in library
/// code to have a defined order.
#[derive(Debug, Clone)]
pub struct DelayTracker {
    /// Penalty parameter `c` (> 1).
    c: f64,
    delays: BTreeMap<EdgeId, u32>,
}

/// Suspensions are capped so a pathological ratio cannot freeze an edge out
/// of the whole run.
const MAX_DELAY: u32 = 64;

impl DelayTracker {
    /// Creates a tracker with penalty parameter `c` (values `<= 1` are
    /// clamped just above 1, where delays become enormous — the paper's
    /// `c = 1.01` stress setting).
    pub fn new(c: f64) -> Self {
        DelayTracker {
            c: c.max(1.000_001),
            delays: BTreeMap::new(),
        }
    }

    /// Whether `e` is currently suspended.
    pub fn is_suspended(&self, e: EdgeId) -> bool {
        self.delays.get(&e).is_some_and(|&d| d > 0)
    }

    /// Number of currently suspended edges.
    pub fn suspended_count(&self) -> usize {
        self.delays.values().filter(|&&d| d > 0).count()
    }

    /// Advances one greedy iteration: all suspensions tick down by one.
    pub fn tick(&mut self) {
        self.delays.retain(|_, d| {
            *d -= 1;
            *d > 0
        });
    }

    /// Records a probe outcome for a non-selected candidate: `gain` is the
    /// flow gained by the candidate, `best_gain` the gain of the selected
    /// edge, `cost` the number of edges sampled to probe the candidate.
    /// Under confidence-interval racing, a candidate the race eliminated is
    /// recorded too, with the gain it had when it was cut.
    ///
    /// Returns the suspension applied — `⌊log_c(cost/pot)⌋` iterations
    /// (capped at `MAX_DELAY`), or 0 when the candidate is not suspended.
    pub fn record(&mut self, e: EdgeId, gain: f64, best_gain: f64, cost: usize) -> u32 {
        if cost == 0 {
            return 0; // analytic probes are free: never suspend.
        }
        // pot(e') — clamp into (0, 1] so the logarithm is well defined even
        // for zero/negative measured gains (possible under sampling noise).
        let pot = if best_gain <= 0.0 {
            1.0
        } else {
            (gain / best_gain).clamp(1e-9, 1.0)
        };
        let ratio: f64 = cost as f64 / pot;
        if ratio <= 1.0 {
            return 0;
        }
        let d = ((ratio.ln() / self.c.ln()).floor() as u32).min(MAX_DELAY);
        if d > 0 {
            self.delays.insert(e, d);
        }
        d
    }

    /// Lifts a suspension (used when an edge gets selected regardless, e.g.
    /// after its component was re-estimated for free by memoization).
    pub fn lift(&mut self, e: EdgeId) {
        self.delays.remove(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_delay() {
        // 1% gain, cost 10, c = 2 → d = ⌊log₂ 1000⌋ = 9.
        let mut t = DelayTracker::new(2.0);
        assert_eq!(t.record(EdgeId(0), 0.01, 1.0, 10), 9);
        assert!(t.is_suspended(EdgeId(0)));
        // Tick 9 times → released.
        for i in 0..9 {
            assert!(t.is_suspended(EdgeId(0)), "still suspended at tick {i}");
            t.tick();
        }
        assert!(!t.is_suspended(EdgeId(0)));
    }

    #[test]
    fn zero_cost_probes_never_suspend() {
        let mut t = DelayTracker::new(2.0);
        t.record(EdgeId(1), 0.0001, 1.0, 0);
        assert!(!t.is_suspended(EdgeId(1)));
    }

    #[test]
    fn good_candidates_get_short_or_no_delay() {
        let mut t = DelayTracker::new(2.0);
        // Full-gain candidate with cost 1: ratio 1 → no delay.
        t.record(EdgeId(2), 1.0, 1.0, 1);
        assert!(!t.is_suspended(EdgeId(2)));
        // Full-gain candidate with cost 8: ratio 8 → d = 3.
        t.record(EdgeId(3), 1.0, 1.0, 8);
        assert!(t.is_suspended(EdgeId(3)));
        t.tick();
        t.tick();
        t.tick();
        assert!(!t.is_suspended(EdgeId(3)));
    }

    #[test]
    fn small_c_gives_huge_delays() {
        let mut t2 = DelayTracker::new(2.0);
        let mut t101 = DelayTracker::new(1.01);
        t2.record(EdgeId(0), 0.1, 1.0, 10);
        t101.record(EdgeId(0), 0.1, 1.0, 10);
        // log_1.01(100) ≈ 463 → clamped to MAX_DELAY; log_2(100) ≈ 6.
        assert!(t101.suspended_count() == 1 && t2.suspended_count() == 1);
        for _ in 0..7 {
            t2.tick();
            t101.tick();
        }
        assert!(!t2.is_suspended(EdgeId(0)));
        assert!(t101.is_suspended(EdgeId(0)), "c=1.01 suspends much longer");
    }

    #[test]
    fn negative_gain_treated_as_minimal_pot() {
        let mut t = DelayTracker::new(2.0);
        t.record(EdgeId(5), -0.5, 1.0, 4);
        assert!(
            t.is_suspended(EdgeId(5)),
            "noise-negative gains must be suspendable"
        );
    }

    #[test]
    fn lift_removes_suspension() {
        let mut t = DelayTracker::new(2.0);
        t.record(EdgeId(6), 0.01, 1.0, 10);
        t.lift(EdgeId(6));
        assert!(!t.is_suspended(EdgeId(6)));
    }

    #[test]
    fn zero_best_gain_means_no_suspension_from_ratio_one() {
        let mut t = DelayTracker::new(2.0);
        // best_gain = 0 → pot = 1 → ratio = cost.
        t.record(EdgeId(7), 0.0, 0.0, 2);
        assert!(t.is_suspended(EdgeId(7)));
        t.tick();
        assert!(!t.is_suspended(EdgeId(7)));
    }
}
