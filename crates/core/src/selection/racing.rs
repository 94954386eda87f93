//! The batched candidate-racing driver: §6.3's confidence-interval race
//! executed on the parallel sampling engine.
//!
//! One greedy iteration becomes one [`CandidateRace`]: every pool candidate
//! is [`probe_plan`](FTree::probe_plan)ned once (leaf probes resolve
//! analytically, small components enumerate exactly — both establish the
//! race's external lower bound), and the remaining sampled candidates race
//! in rounds. Each round extends every survivor's [`IncrementalComponent`]
//! to the round's whole-batch sample target **as a single multi-candidate
//! job** ([`ParallelEstimator::extend_components`]), re-scores the probes
//! at the grown estimates, and feeds the flow bounds back to the planner,
//! which eliminates dominated candidates (never below the 30-sample CLT
//! floor) and reallocates their unspent budget to the final round.
//!
//! # Determinism contract
//!
//! A candidate component's sample stream is seeded by its *fingerprint*
//! (articulation vertex + edge set) under the run's master seed — not by a
//! call counter — so its estimate at any budget is a pure function of
//! `(master seed, component identity, budget)`. Round targets are derived
//! only from reported bounds. Together with the engine's thread-invariant
//! batching, racing selections are **bit-identical at every thread count**,
//! and re-forming components resume their cached streams instead of
//! re-sampling (the §6.2 memoization, upgraded to incremental form).

use std::collections::HashMap;

use flowmax_graph::{EdgeId, ProbabilisticGraph};
use flowmax_sampling::{
    CandidateRace, IncrementalComponent, LaneStatus, ParallelEstimator, RaceConfig, SeedSequence,
};

use crate::estimator::EstimateProvider;
use crate::ftree::{CommitReplay, FTree, ProbeOutcome, ProbePlan, SampledProbe};
use crate::metrics::SelectionMetrics;
use crate::selection::greedy::{GreedyConfig, ProbeEngine, ProbeRecord};
use crate::selection::memo::MemoProvider;

/// Stream label separating racing seeds from the estimation-provider seeds
/// derived from the same master.
const RACE_STREAM: u64 = 0x7ACE;

/// Per-run state of the racing engine: the incremental per-component
/// estimates, keyed by component fingerprint.
#[derive(Debug)]
pub(crate) struct RaceDriver {
    lanes: HashMap<u64, IncrementalComponent>,
    engine: ParallelEstimator,
    seq: SeedSequence,
    memoize: bool,
}

struct Racer {
    edge: EdgeId,
    plan: Box<SampledProbe>,
    key: u64,
}

impl RaceDriver {
    pub fn new(config: &GreedyConfig) -> Self {
        RaceDriver {
            lanes: HashMap::new(),
            engine: ParallelEstimator::new(config.threads).with_lane_words(config.lane_words),
            seq: SeedSequence::new(SeedSequence::new(config.seed).child_seed(RACE_STREAM)),
            memoize: config.memoize,
        }
    }

    /// Runs one greedy iteration's probes as a race. Returns the analytic
    /// and exactly-enumerated probes plus every racing candidate that
    /// survived elimination; eliminated candidates are absent (they cannot
    /// win and are not recorded for delayed sampling).
    ///
    /// The tree is borrowed mutably because structural plans score by
    /// journalled apply → evaluate → rollback on it; every score leaves it
    /// bit-identical, so across the whole call the tree reads unmodified.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_candidates(
        &mut self,
        graph: &ProbabilisticGraph,
        tree: &mut FTree,
        pool: &[EdgeId],
        base_flow: f64,
        config: &GreedyConfig,
        memo: &mut MemoProvider,
        metrics: &mut SelectionMetrics,
    ) -> Vec<ProbeRecord> {
        if !self.memoize {
            // Without §6.2 memoization, estimates must not persist across
            // iterations; within one race, incremental reuse across rounds
            // is intrinsic to the engine, not a memo effect.
            self.lanes.clear();
        }
        let mut records: Vec<ProbeRecord> = Vec::with_capacity(pool.len());
        let mut racers: Vec<Racer> = Vec::new();
        for &e in pool {
            let plan = if config.probe_engine == ProbeEngine::CloneReference {
                tree.probe_plan_cloning(graph, e, base_flow)
            } else {
                tree.probe_plan(graph, e, base_flow)
            };
            match plan.expect("candidates are probeable") {
                ProbePlan::Analytic(outcome) => {
                    metrics.probes += 1;
                    metrics.analytic_probes += 1;
                    records.push(ProbeRecord {
                        edge: e,
                        outcome,
                        replay: None,
                    });
                }
                ProbePlan::Sampled(mut plan) => {
                    let snapshot = plan.snapshot();
                    if snapshot.uncertain_edge_count() <= config.exact_edge_cap {
                        // Exactly-enumerable components take the same
                        // memoized provider path as plain probing (the
                        // provider's exact branch neither draws samples nor
                        // advances its RNG call counter, so cache misses
                        // never perturb later sampled estimates).
                        let exact = memo.estimate(plan.snapshot());
                        metrics.probes += 1;
                        let (outcome, replay) = plan.score_keeping(
                            tree,
                            graph,
                            config.include_query,
                            config.alpha,
                            exact,
                        );
                        records.push(ProbeRecord {
                            edge: e,
                            outcome,
                            replay,
                        });
                        continue;
                    }
                    let key = snapshot.fingerprint();
                    racers.push(Racer { edge: e, plan, key });
                }
            }
        }
        if racers.is_empty() {
            return records;
        }

        let external_lower = records
            .iter()
            .map(|r| r.outcome.lower)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut race = CandidateRace::new(
            RaceConfig::paper_default(config.samples),
            racers.len(),
            external_lower,
        );
        let mut outcomes: Vec<Option<ProbeOutcome>> = vec![None; racers.len()];
        // Redo images captured by each racer's latest actual score. Rounds
        // that reuse a previous outcome (cached stream already at target)
        // keep the earlier replay: the lane's estimate is a pure function
        // of its drawn worlds, so the captured post-images still match what
        // the final round would produce.
        let mut replays: Vec<Option<CommitReplay>> = Vec::with_capacity(racers.len());
        replays.resize_with(racers.len(), || None);
        let mut scored_at: Vec<u32> = vec![0; racers.len()];
        while let Some(round) = race.next_round() {
            // Check out the round's lanes (creating missing ones on their
            // fingerprint-derived streams) and extend them in one job.
            let mut lane_buf: Vec<IncrementalComponent> =
                Vec::with_capacity(round.candidates.len());
            let mut targets: Vec<u32> = Vec::with_capacity(round.candidates.len());
            let mut before: Vec<u32> = Vec::with_capacity(round.candidates.len());
            for &i in &round.candidates {
                let racer = &racers[i];
                let lane = self.lanes.remove(&racer.key).unwrap_or_else(|| {
                    IncrementalComponent::new(
                        racer.plan.snapshot().clone(),
                        SeedSequence::new(self.seq.child_seed(racer.key)),
                    )
                });
                if self.memoize && round.round == 0 && lane.drawn() >= round.target {
                    // A cached stream from an earlier iteration already
                    // covers the opening budget: the §6.2 memo effect,
                    // counted once per race like a cache hit.
                    metrics.memo_hits += 1;
                }
                before.push(lane.drawn());
                targets.push(round.target);
                lane_buf.push(lane);
            }
            let new_worlds = self.engine.extend_components(&mut lane_buf, &targets);
            if new_worlds > 0 {
                metrics.samples_drawn += new_worlds;
                for (lane, &had) in lane_buf.iter().zip(&before) {
                    let grew = lane.drawn() - had;
                    if grew > 0 {
                        metrics.edge_samples_drawn +=
                            grew as u64 * lane.snapshot().edge_count() as u64;
                        metrics.components_sampled += 1;
                    }
                }
            }
            let mut bounds: Vec<(usize, f64, f64)> = Vec::with_capacity(round.candidates.len());
            for (&i, lane) in round.candidates.iter().zip(&lane_buf) {
                // Scoring is a pure function of the lane's estimate: a lane
                // whose cached stream already covered this round's target
                // keeps its previous bounds for free (the common case for
                // components unchanged since an earlier iteration).
                let outcome = match outcomes[i] {
                    Some(outcome) if scored_at[i] == lane.drawn() => outcome,
                    _ => {
                        let (outcome, replay) = racers[i].plan.score_keeping(
                            tree,
                            graph,
                            config.include_query,
                            config.alpha,
                            lane.estimate(),
                        );
                        metrics.probes += 1;
                        scored_at[i] = lane.drawn();
                        outcomes[i] = Some(outcome);
                        replays[i] = replay;
                        outcome
                    }
                };
                bounds.push((i, outcome.lower, outcome.upper));
            }
            for (lane, &i) in lane_buf.into_iter().zip(&round.candidates) {
                self.lanes.insert(racers[i].key, lane);
            }
            let summary = race.complete_round(&bounds);
            metrics.ci_pruned += summary.eliminated as u64;
        }

        for (i, racer) in racers.iter().enumerate() {
            if race.status(i) != LaneStatus::Finished {
                continue;
            }
            let outcome = outcomes[i].expect("finished candidates were scored");
            // Publish the finalist's full-budget estimate so the commit's
            // insert_edge reuses it instead of re-sampling.
            if let Some(lane) = self.lanes.get(&racer.key) {
                memo.store(racer.plan.snapshot(), lane.estimate());
            }
            records.push(ProbeRecord {
                edge: racer.edge,
                outcome,
                replay: replays[i].take(),
            });
        }
        records
    }
}
