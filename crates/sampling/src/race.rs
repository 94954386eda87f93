//! Candidate racing (§6.3): geometric sample rounds with confidence-interval
//! elimination, run as whole-batch jobs on the parallel engine.
//!
//! The paper's CI heuristic races candidate edges against each other instead
//! of spending a fixed sample budget on every one: samples arrive in rounds
//! of geometrically growing size, and after each round any candidate whose
//! upper flow bound falls below another candidate's lower bound is
//! eliminated (Def. 10, with the ≥ 30-sample CLT floor of §6.3 enforced
//! before any elimination). This module contributes the two engine pieces:
//!
//! * [`CandidateRace`] — the deterministic round planner: cumulative
//!   per-round targets quantized to whole 64-world batches, elimination
//!   bookkeeping, and reallocation of eliminated candidates' unspent budget
//!   to the survivors of the final round;
//! * [`IncrementalComponent`] — a component estimate that *extends* across
//!   rounds: worlds `[drawn, target)` are appended to the running success
//!   counts, so a candidate surviving to budget `S` costs exactly `S`
//!   samples in total (re-probing from scratch would pay every cumulative
//!   budget again). Because world `i` always draws from
//!   `seq.rng(i)`, the estimate after any extension is bit-identical to a
//!   fresh full-budget run with the same stream — independent of round
//!   boundaries and thread counts.
//!
//! The planner is estimation-agnostic: callers probe candidates however they
//! like (component sampling, exact enumeration, flow-bound evaluation on an
//! F-tree) and feed `(lower, upper)` bounds back via
//! [`CandidateRace::complete_round`]. The selection layer drives it with
//! [`ParallelEstimator::extend_components`], which turns one round into a
//! single multi-candidate job running against each worker thread's warm
//! [`SamplingScratch`](crate::scratch::SamplingScratch) — the round's
//! batches reuse warm lane buffers and frontier worklists, and each
//! [`IncrementalComponent`] keeps its own success counters across rounds,
//! so a race's steady state draws worlds without per-batch allocation.

use std::sync::Arc;

use crate::batch::LANES;
use crate::component::{ComponentEstimate, ComponentGraph};
use crate::confidence::MIN_SAMPLES_FOR_CLT;
use crate::convergence::BatchSchedule;
use crate::parallel::{ParallelEstimator, WorldsRequest};
use crate::rng::SeedSequence;

/// Configuration of a candidate race.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceConfig {
    /// Per-candidate round schedule (`first`, `growth`, `budget`).
    pub schedule: BatchSchedule,
    /// Minimum samples a candidate must have before it may be eliminated
    /// (§6.3's CLT minimum; [`MIN_SAMPLES_FOR_CLT`]).
    pub clt_floor: u32,
    /// Round targets are rounded up to multiples of this quantum so every
    /// candidate draws whole 64-world batches ([`LANES`]); `1` disables
    /// quantization (useful for scalar-granularity tests).
    pub quantum: u32,
    /// Reallocation ceiling: a final-round survivor's budget never exceeds
    /// `boost_cap × schedule.budget`, however much the eliminated
    /// candidates left unspent.
    pub boost_cap: f64,
}

impl RaceConfig {
    /// The paper's race at per-candidate budget `budget` (`samplesize`),
    /// quantized to whole 64-world batches, with elimination legal from 30
    /// samples and a 2× reallocation ceiling.
    pub fn paper_default(budget: u32) -> Self {
        RaceConfig {
            schedule: BatchSchedule::paper_default(budget),
            clt_floor: MIN_SAMPLES_FOR_CLT,
            quantum: LANES,
            boost_cap: 2.0,
        }
    }

    fn quantum(&self) -> u32 {
        self.quantum.max(1)
    }

    fn quantize_up(&self, x: u32) -> u32 {
        let q = self.quantum();
        x.max(1).div_ceil(q).saturating_mul(q)
    }

    fn quantize_down(&self, x: u32) -> u32 {
        let q = self.quantum();
        (x / q).max(1).saturating_mul(q)
    }

    /// The quantized per-candidate budget (the cumulative target a
    /// candidate reaches when it survives every round without reallocation).
    pub fn budget_cap(&self) -> u32 {
        self.quantize_up(self.schedule.budget.max(1))
    }

    /// The race's cumulative round ladder: the schedule's
    /// [`cumulative_budgets`](BatchSchedule::cumulative_budgets), quantized
    /// to whole batches and deduplicated (strictly increasing, ending at
    /// [`budget_cap`](RaceConfig::budget_cap)).
    pub fn ladder(&self) -> Vec<u32> {
        let mut ladder: Vec<u32> = self
            .schedule
            .cumulative_budgets()
            .into_iter()
            .map(|c| self.quantize_up(c))
            .collect();
        ladder.push(self.budget_cap());
        ladder.dedup();
        ladder.retain(|&t| t <= self.budget_cap());
        if ladder.is_empty() {
            ladder.push(self.budget_cap());
        }
        ladder
    }

    /// The quantized reallocation ceiling.
    pub fn boost_ceiling(&self) -> u32 {
        let cap = self.budget_cap();
        let boosted = (cap as f64 * self.boost_cap.max(1.0)).floor() as u32;
        self.quantize_down(boosted.max(cap))
    }
}

/// Lifecycle of one candidate within a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneStatus {
    /// Still racing: receives samples in the next round.
    Racing,
    /// Eliminated after `round` (0-based): its upper flow bound fell below
    /// the round's best lower bound with at least `clt_floor` samples.
    Eliminated {
        /// Round after which the candidate was cut.
        round: u32,
    },
    /// Survived the final round; its estimate is at full (possibly
    /// reallocation-boosted) budget.
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct LaneState {
    status: LaneStatus,
    drawn: u32,
    lower: f64,
    upper: f64,
}

/// One round of work: every listed candidate must be brought to the
/// cumulative sample target before [`CandidateRace::complete_round`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// 0-based round index.
    pub round: u32,
    /// Cumulative per-candidate sample target of this round.
    pub target: u32,
    /// Whether this is the race's final round.
    pub is_final: bool,
    /// Indices of the candidates still racing.
    pub candidates: Vec<usize>,
}

/// Summary of a completed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Candidates eliminated by this round's bounds.
    pub eliminated: u32,
    /// Candidates still in the race (or finished, after the final round).
    pub survivors: u32,
}

/// The §6.3 race state machine over `n` candidates.
///
/// Drive it with [`next_round`](CandidateRace::next_round) /
/// [`complete_round`](CandidateRace::complete_round) until `next_round`
/// returns `None`. All decisions are pure functions of the reported bounds,
/// so a race is deterministic whenever its bound computations are — in
/// particular, thread-count invariant when driven by the batched engine.
#[derive(Debug, Clone)]
pub struct CandidateRace {
    config: RaceConfig,
    /// Cumulative round targets ([`RaceConfig::ladder`]); the final rung is
    /// replaced by the reallocated target when that round is planned.
    ladder: Vec<u32>,
    lanes: Vec<LaneState>,
    /// Best lower flow bound among candidates *outside* the race (analytic
    /// and exactly-enumerated probes); prunes racers on its own.
    external_lower: f64,
    round: u32,
    /// Cumulative target of the most recently planned round (0 before the
    /// first round).
    target: u32,
    pending_final: bool,
    done: bool,
}

impl CandidateRace {
    /// Starts a race over `n` candidates. `external_lower` is the best
    /// lower flow bound already established outside the race
    /// (`f64::NEG_INFINITY` when there is none).
    pub fn new(config: RaceConfig, n: usize, external_lower: f64) -> Self {
        CandidateRace {
            ladder: config.ladder(),
            config,
            lanes: vec![
                LaneState {
                    status: LaneStatus::Racing,
                    drawn: 0,
                    lower: f64::NEG_INFINITY,
                    upper: f64::INFINITY,
                };
                n
            ],
            external_lower,
            round: 0,
            target: 0,
            pending_final: false,
            done: false,
        }
    }

    /// Plans the next round, or `None` when the race is over (final round
    /// completed, or every candidate eliminated).
    pub fn next_round(&mut self) -> Option<RoundPlan> {
        if self.done {
            return None;
        }
        let candidates: Vec<usize> = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.status == LaneStatus::Racing)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            self.done = true;
            return None;
        }
        let pos = self.round as usize;
        debug_assert!(pos < self.ladder.len(), "race past its final round");
        let is_final = pos + 1 >= self.ladder.len();
        let next = if is_final {
            self.reallocated_final_target(&candidates)
        } else {
            self.ladder[pos]
        };
        self.target = next;
        self.pending_final = is_final;
        Some(RoundPlan {
            round: self.round,
            target: next,
            is_final,
            candidates,
        })
    }

    /// Final-round target with the eliminated candidates' unspent budget
    /// reallocated evenly to the survivors, subject to the boost ceiling.
    fn reallocated_final_target(&self, survivors: &[usize]) -> u32 {
        let cap = self.config.budget_cap();
        let envelope = self.lanes.len() as u64 * cap as u64;
        let spent: u64 = self.lanes.iter().map(|l| l.drawn as u64).sum();
        let share = (envelope.saturating_sub(spent) / survivors.len().max(1) as u64) as u32;
        let drawn = survivors.first().map(|&i| self.lanes[i].drawn).unwrap_or(0);
        self.config
            .quantize_down(drawn.saturating_add(share).max(cap))
            .clamp(cap, self.config.boost_ceiling())
    }

    /// Records the round's flow bounds — one `(candidate, lower, upper)`
    /// triple per planned candidate — and applies the elimination rule: a
    /// candidate with at least `clt_floor` samples whose upper bound is
    /// strictly below the round's best lower bound (including
    /// `external_lower`) leaves the race.
    ///
    /// # Panics
    ///
    /// Panics if a reported candidate was not part of the planned round.
    pub fn complete_round(&mut self, bounds: &[(usize, f64, f64)]) -> RoundOutcome {
        for &(i, lower, upper) in bounds {
            let lane = &mut self.lanes[i];
            assert_eq!(
                lane.status,
                LaneStatus::Racing,
                "bounds reported for a candidate that is not racing"
            );
            lane.drawn = self.target;
            lane.lower = lower;
            lane.upper = upper;
        }
        let best_lower = self
            .lanes
            .iter()
            .filter(|l| l.status == LaneStatus::Racing)
            .map(|l| l.lower)
            .fold(self.external_lower, f64::max);
        let mut eliminated = 0;
        let mut survivors = 0;
        for lane in &mut self.lanes {
            if lane.status != LaneStatus::Racing {
                continue;
            }
            // The CLT floor: bounds below `clt_floor` samples are not
            // trusted to eliminate (§6.3, last sentence).
            if lane.drawn >= self.config.clt_floor && lane.upper < best_lower {
                lane.status = LaneStatus::Eliminated { round: self.round };
                eliminated += 1;
            } else {
                if self.pending_final {
                    lane.status = LaneStatus::Finished;
                }
                survivors += 1;
            }
        }
        if self.pending_final || survivors == 0 {
            self.done = true;
        }
        self.round += 1;
        RoundOutcome {
            eliminated,
            survivors,
        }
    }

    /// Status of candidate `i`.
    pub fn status(&self, i: usize) -> LaneStatus {
        self.lanes[i].status
    }

    /// Whether the race has ended.
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Number of candidates that finished the race.
    pub fn finished_count(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.status == LaneStatus::Finished)
            .count()
    }

    /// Number of eliminated candidates.
    pub fn eliminated_count(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| matches!(l.status, LaneStatus::Eliminated { .. }))
            .count()
    }
}

/// A component reachability estimate that grows across race rounds.
///
/// Worlds are appended in whole 64-world batches; after extending to `S`
/// samples the estimate is bit-identical to a fresh
/// [`ComponentGraph::sample_reachability_batched`] run at `S` samples with
/// the same seed sequence (world `i` always draws from `seq.rng(i)`).
///
/// The snapshot is shared, not owned: a lane is created from the probe
/// plan's snapshot and hands the same allocation back to a later probe
/// that forms the same component.
#[derive(Debug, Clone)]
pub struct IncrementalComponent {
    snapshot: Arc<ComponentGraph>,
    seq: SeedSequence,
    successes: Vec<u32>,
    drawn: u32,
}

impl IncrementalComponent {
    /// Wraps a component snapshot with its dedicated seed stream; no worlds
    /// drawn yet.
    pub fn new(snapshot: Arc<ComponentGraph>, seq: SeedSequence) -> Self {
        let n = snapshot.vertex_count();
        IncrementalComponent {
            snapshot,
            seq,
            successes: vec![0; n],
            drawn: 0,
        }
    }

    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &Arc<ComponentGraph> {
        &self.snapshot
    }

    /// Worlds drawn so far.
    pub fn drawn(&self) -> u32 {
        self.drawn
    }

    /// The estimate over all drawn worlds.
    ///
    /// # Panics
    ///
    /// Panics before any worlds were drawn.
    pub fn estimate(&self) -> ComponentEstimate {
        ComponentEstimate::from_success_counts(self.successes.clone(), self.drawn)
    }
}

impl ParallelEstimator {
    /// Extends every lane to its cumulative target **as one job**: all
    /// lanes' outstanding batches are sharded across the worker pool
    /// together (see
    /// [`sample_component_worlds`](ParallelEstimator::sample_component_worlds)).
    /// Lanes whose target is already met draw nothing. Returns the number
    /// of newly drawn worlds, summed over all lanes.
    ///
    /// # Panics
    ///
    /// Panics if a lane would extend past a partial batch (its `drawn` is
    /// not a multiple of [`LANES`]) — quantized race targets never are.
    pub fn extend_components(&self, lanes: &mut [IncrementalComponent], targets: &[u32]) -> u64 {
        assert_eq!(lanes.len(), targets.len(), "one target per lane");
        let mut extended: Vec<usize> = Vec::new();
        let deltas = {
            let mut requests = Vec::new();
            for (i, (lane, &target)) in lanes.iter().zip(targets).enumerate() {
                if target <= lane.drawn {
                    continue;
                }
                assert!(
                    lane.drawn % LANES == 0,
                    "cannot extend past a partial batch"
                );
                extended.push(i);
                requests.push(WorldsRequest {
                    component: &lane.snapshot,
                    seq: lane.seq,
                    first_world: lane.drawn,
                    total_worlds: target,
                });
            }
            if requests.is_empty() {
                return 0;
            }
            self.sample_component_worlds(&requests)
        };
        let mut new_worlds = 0u64;
        for (&i, delta) in extended.iter().zip(deltas) {
            let lane = &mut lanes[i];
            new_worlds += (targets[i] - lane.drawn) as u64;
            for (s, d) in lane.successes.iter_mut().zip(delta) {
                *s += d;
            }
            lane.drawn = targets[i];
        }
        new_worlds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::wald_interval;
    use flowmax_graph::{GraphBuilder, Probability, VertexId, Weight};
    use rand::Rng;

    fn cfg(first: u32, growth: f64, budget: u32, quantum: u32) -> RaceConfig {
        RaceConfig {
            schedule: BatchSchedule {
                first,
                growth,
                budget,
            },
            clt_floor: MIN_SAMPLES_FOR_CLT,
            quantum,
            boost_cap: 2.0,
        }
    }

    #[test]
    fn paper_default_targets_are_whole_batches() {
        let mut race = CandidateRace::new(RaceConfig::paper_default(1000), 3, f64::NEG_INFINITY);
        let mut targets = Vec::new();
        while let Some(plan) = race.next_round() {
            targets.push(plan.target);
            let bounds: Vec<_> = plan.candidates.iter().map(|&i| (i, 0.0, 1.0)).collect();
            race.complete_round(&bounds);
        }
        assert!(targets.iter().all(|t| t % LANES == 0), "{targets:?}");
        assert!(
            targets.windows(2).all(|w| w[1] > w[0]),
            "targets must grow: {targets:?}"
        );
        assert_eq!(targets.first(), Some(&64), "first = 50 rounds up to 64");
        assert!(
            *targets.last().unwrap() >= 1000,
            "final target covers the paper budget"
        );
        assert_eq!(race.finished_count(), 3, "overlapping bounds never prune");
    }

    #[test]
    fn clear_separation_eliminates_losers_and_reallocates() {
        // 4 candidates, one clear winner: losers leave after round 1 and
        // the winner's final budget is boosted by their unspent samples.
        let mut race = CandidateRace::new(cfg(64, 2.0, 1024, 64), 4, f64::NEG_INFINITY);
        let plan = race.next_round().unwrap();
        assert_eq!(plan.target, 64);
        let bounds: Vec<_> = plan
            .candidates
            .iter()
            .map(|&i| if i == 2 { (i, 0.8, 0.9) } else { (i, 0.1, 0.2) })
            .collect();
        let out = race.complete_round(&bounds);
        assert_eq!(out.eliminated, 3);
        assert_eq!(out.survivors, 1);
        // The survivor keeps racing through the geometric rounds (the
        // external bound could still prune it) …
        let mut final_target = 0;
        while let Some(plan) = race.next_round() {
            assert_eq!(plan.candidates, vec![2]);
            if plan.is_final {
                final_target = plan.target;
            } else {
                assert!(plan.target < 1024);
            }
            race.complete_round(&[(2, 0.8, 0.9)]);
        }
        // … and its final budget absorbs the losers' unspent samples:
        // pool 4·1024 − (3·64 + 512) = 3392 ≫ cap, clamped to the 2× boost
        // ceiling.
        assert_eq!(final_target, 2048);
        assert!(race.is_complete());
        assert_eq!(race.status(2), LaneStatus::Finished);
        assert_eq!(race.eliminated_count(), 3);
        assert!(race.next_round().is_none());
    }

    #[test]
    fn clt_floor_blocks_early_elimination() {
        // Quantum 1 with first = 8: bounds separate immediately, but no
        // elimination may happen until 30 samples were drawn.
        let mut race = CandidateRace::new(cfg(8, 2.0, 512, 1), 2, f64::NEG_INFINITY);
        let mut floor_respected = true;
        let mut eliminated_at = None;
        while let Some(plan) = race.next_round() {
            let bounds: Vec<_> = plan
                .candidates
                .iter()
                .map(|&i| {
                    if i == 0 {
                        (i, 0.9, 0.95)
                    } else {
                        (i, 0.1, 0.2)
                    }
                })
                .collect();
            let out = race.complete_round(&bounds);
            if out.eliminated > 0 && eliminated_at.is_none() {
                eliminated_at = Some(plan.target);
                if plan.target < MIN_SAMPLES_FOR_CLT {
                    floor_respected = false;
                }
            }
        }
        assert!(floor_respected, "eliminated below the 30-sample CLT floor");
        let at = eliminated_at.expect("the hopeless candidate must be cut");
        assert!(
            (MIN_SAMPLES_FOR_CLT..=2 * MIN_SAMPLES_FOR_CLT).contains(&at),
            "elimination should come at the first legal round, got {at}"
        );
        assert_eq!(race.status(1), LaneStatus::Eliminated { round: 2 });
    }

    #[test]
    fn external_lower_bound_can_clear_the_field() {
        // An analytic candidate outside the race dominates everyone: the
        // race ends with no finishers.
        let mut race = CandidateRace::new(cfg(64, 2.0, 256, 64), 2, 10.0);
        let plan = race.next_round().unwrap();
        let bounds: Vec<_> = plan.candidates.iter().map(|&i| (i, 1.0, 2.0)).collect();
        let out = race.complete_round(&bounds);
        assert_eq!(out.eliminated, 2);
        assert_eq!(out.survivors, 0);
        assert!(race.next_round().is_none());
        assert_eq!(race.finished_count(), 0);
    }

    #[test]
    fn degenerate_growth_still_terminates() {
        let mut race = CandidateRace::new(cfg(10, 1.0, 100, 1), 1, f64::NEG_INFINITY);
        let mut rounds = 0;
        while let Some(plan) = race.next_round() {
            rounds += 1;
            assert!(rounds <= 200, "race must terminate");
            let bounds: Vec<_> = plan.candidates.iter().map(|&i| (i, 0.0, 1.0)).collect();
            race.complete_round(&bounds);
        }
        assert!(rounds > 1);
        assert_eq!(race.finished_count(), 1);
    }

    fn triangle() -> ComponentGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        let e0 = b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        let e2 = b.add_edge(VertexId(0), VertexId(2), p).unwrap();
        let g = b.build();
        ComponentGraph::build(&g, VertexId(0), &[e0, e1, e2])
    }

    #[test]
    fn incremental_extension_matches_fresh_full_budget_run() {
        let seq = SeedSequence::new(0xACE);
        let engine = ParallelEstimator::new(1);
        let mut lanes = vec![IncrementalComponent::new(Arc::new(triangle()), seq)];
        assert_eq!(engine.extend_components(&mut lanes, &[64]), 64);
        assert_eq!(engine.extend_components(&mut lanes, &[64]), 0, "no-op");
        assert_eq!(engine.extend_components(&mut lanes, &[192]), 128);
        let fresh = triangle().sample_reachability_batched(192, &seq, 1);
        assert_eq!(lanes[0].estimate(), fresh, "extension ≡ fresh run");
        assert_eq!(lanes[0].drawn(), 192);
    }

    #[test]
    fn multi_lane_extension_is_thread_invariant_and_per_lane_pure() {
        let seqs = [SeedSequence::new(1), SeedSequence::new(2)];
        let run = |threads: usize| {
            let engine = ParallelEstimator::new(threads);
            let mut lanes: Vec<_> = seqs
                .iter()
                .map(|&s| IncrementalComponent::new(Arc::new(triangle()), s))
                .collect();
            engine.extend_components(&mut lanes, &[128, 64]);
            engine.extend_components(&mut lanes, &[256, 320]);
            lanes.iter().map(|l| l.estimate()).collect::<Vec<_>>()
        };
        let base = run(1);
        assert_eq!(base, run(4));
        assert_eq!(base, run(8));
        // Each lane equals its solo full-budget run.
        assert_eq!(
            base[0],
            triangle().sample_reachability_batched(256, &seqs[0], 1)
        );
        assert_eq!(
            base[1],
            triangle().sample_reachability_batched(320, &seqs[1], 1)
        );
    }

    /// Satellite: empirical coverage of the elimination rule. Candidates
    /// are Bernoulli streams with known true flows; over many seeded race
    /// trials, the fraction of trials in which *any* eliminated candidate's
    /// true flow exceeds the winner's must stay near the significance
    /// level. With `α = 0.01` per Wald bound and a handful of candidates ×
    /// rounds, the union bound allows a small multiple of `α`; 5 % is far
    /// below what a broken rule produces (tens of percent) and far above
    /// the ~α rate a correct one does.
    #[test]
    fn elimination_rule_empirical_coverage() {
        let alpha = 0.01;
        let trials = 300u64;
        let n = 6usize;
        let seq = SeedSequence::new(0x5EED_2ACE);
        let mut bad_trials = 0u32;
        let mut total_eliminations = 0u64;
        for trial in 0..trials {
            let mut rng = seq.rng(trial);
            let truths: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mut race = CandidateRace::new(cfg(32, 2.0, 512, 1), n, f64::NEG_INFINITY);
            let mut successes = vec![0u32; n];
            let mut drawn = vec![0u32; n];
            while let Some(plan) = race.next_round() {
                let mut bounds = Vec::with_capacity(plan.candidates.len());
                for &i in &plan.candidates {
                    while drawn[i] < plan.target {
                        if rng.gen::<f64>() < truths[i] {
                            successes[i] += 1;
                        }
                        drawn[i] += 1;
                    }
                    let ci = wald_interval(successes[i], drawn[i], alpha);
                    bounds.push((i, ci.lower, ci.upper));
                }
                race.complete_round(&bounds);
            }
            let winner = (0..n)
                .filter(|&i| race.status(i) == LaneStatus::Finished)
                .max_by(|&a, &b| {
                    let pa = successes[a] as f64 / drawn[a] as f64;
                    let pb = successes[b] as f64 / drawn[b] as f64;
                    pa.partial_cmp(&pb).unwrap()
                })
                .expect("someone survives without an external bound");
            total_eliminations += race.eliminated_count() as u64;
            let mistake = (0..n).any(|i| {
                matches!(race.status(i), LaneStatus::Eliminated { .. })
                    && truths[i] > truths[winner]
            });
            if mistake {
                bad_trials += 1;
            }
        }
        assert!(
            total_eliminations >= trials * (n as u64) / 4,
            "the race must actually prune ({total_eliminations} eliminations)"
        );
        let rate = bad_trials as f64 / trials as f64;
        assert!(
            rate <= 0.05,
            "eliminated a truly-better candidate in {rate:.3} of trials (α = {alpha})"
        );
    }

    #[test]
    fn boost_ceiling_and_caps() {
        let c = RaceConfig::paper_default(1000);
        assert_eq!(c.budget_cap(), 1024);
        assert_eq!(c.boost_ceiling(), 2048);
        let tight = RaceConfig {
            boost_cap: 1.0,
            ..c
        };
        assert_eq!(tight.boost_ceiling(), 1024);
    }
}
