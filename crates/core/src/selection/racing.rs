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
//! whose lanes grew, and feeds the flow bounds back to the planner, which
//! eliminates dominated candidates (never below the 30-sample CLT floor)
//! and reallocates their unspent budget to the final round.
//!
//! An eliminated candidate leaves the race, not the iteration: its record is
//! returned with its last score and marked `eliminated`, so the greedy never
//! selects it but §6.4's delayed sampling suspends it like any other probed,
//! non-selected candidate. CI and DS therefore compose — the race's worst
//! candidates are not planned again on the next iteration.
//!
//! A structural (case IIIb/IV) plan is a journalled insertion on the shared
//! tree, and every structural candidate costs exactly that one insertion
//! per iteration. The apply records the plan's score program: the scalars
//! of the flow sum that the candidate's estimate cannot change. When the
//! formed component's lane already covers round 0's target — a *warm*
//! lane, the common case once §6.2 memoization has seen the component — the
//! candidate is scored as soon as its plan is made. A cold candidate, and
//! any candidate in a later round, is re-scored by evaluating the program
//! on the lane's new estimate: nothing is inserted, built or classified
//! twice, and the tree is not touched. A warm lane whose snapshot has the
//! insertion's exact AV and edge sequence also hands the apply its
//! snapshot, vertex map and estimate before anything is built, so a warm
//! probe builds no snapshot either. The lanes are the only store: no
//! snapshot is kept that a lane does not hold. A finalist's estimate is
//! published to the §6.2 memo, so the greedy's commit of the winner reuses
//! it instead of sampling.
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
use std::sync::Arc;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{
    CandidateRace, ComponentEstimate, ComponentGraph, IncrementalComponent, LaneStatus,
    ParallelEstimator, RaceConfig, SeedSequence,
};

use crate::estimator::EstimateProvider;
use crate::ftree::{
    AtHand, FTree, Formed, InApplyScore, LocalMap, PlanMode, ProbeOutcome, ProbePlan, SampledProbe,
};
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
    lanes: HashMap<u64, Lane>,
    engine: ParallelEstimator,
    seq: SeedSequence,
    memoize: bool,
}

/// One component's incremental estimate, with the vertex map of its
/// snapshot so a probe that forms the component again is served both.
#[derive(Debug)]
struct Lane {
    component: IncrementalComponent,
    local: Arc<LocalMap>,
}

/// What a race's planning apply may already hold: the memoized exact
/// estimate of an exactly enumerable component, or a warm lane.
struct WarmLanes<'r> {
    lanes: &'r HashMap<u64, Lane>,
    /// Round 0's target: a lane holding that many worlds is warm.
    opening: u32,
    memo: &'r mut MemoProvider,
    exact_edge_cap: usize,
}

impl WarmLanes<'_> {
    fn warm(&self, fingerprint: u64) -> Option<&Lane> {
        self.lanes
            .get(&fingerprint)
            .filter(|lane| lane.component.drawn() >= self.opening)
    }
}

impl AtHand for WarmLanes<'_> {
    fn stored(&mut self, fingerprint: u64, av: VertexId, edges: &[EdgeId]) -> Option<Formed> {
        let lane = self.warm(fingerprint)?;
        let snapshot = lane.component.snapshot();
        if snapshot.articulation() != av || snapshot.global_edges() != edges {
            return None;
        }
        Some(Formed {
            snapshot: Arc::clone(snapshot),
            local: Arc::clone(&lane.local),
            estimate: lane.component.estimate(),
        })
    }

    fn estimate(&mut self, snapshot: &ComponentGraph) -> Option<ComponentEstimate> {
        // The exact branch neither draws samples nor advances the
        // provider's call counter (the same memoized path as plain
        // probing).
        if snapshot.exactly_enumerable(self.exact_edge_cap) {
            return Some(self.memo.estimate(snapshot));
        }
        self.warm(snapshot.fingerprint())
            .map(|lane| lane.component.estimate())
    }
}

struct Racer {
    edge: EdgeId,
    plan: Box<SampledProbe>,
    key: u64,
    /// The latest score and the lane size (worlds drawn) it was taken at.
    scored: Option<(ProbeOutcome, u32)>,
}

/// Cases IIIb/IV: the probes that run an insertion on the shared tree.
#[cfg(debug_assertions)]
fn is_structural(case: crate::ftree::InsertCase) -> bool {
    use crate::ftree::InsertCase;
    matches!(case, InsertCase::CycleInMono | InsertCase::CycleAcross)
}

impl RaceDriver {
    pub fn new(config: &GreedyConfig) -> Self {
        RaceDriver {
            lanes: HashMap::new(),
            engine: ParallelEstimator::new(config.threads),
            seq: SeedSequence::new(SeedSequence::new(config.seed).child_seed(RACE_STREAM)),
            memoize: config.memoize,
        }
    }

    /// Runs one greedy iteration's probes as a race. Returns one record per
    /// pool edge: the analytic and exactly-enumerated probes, every racing
    /// candidate that finished the race, and every eliminated one — marked
    /// `eliminated`, with the score it was cut at. An eliminated record
    /// cannot win, but delayed sampling records it.
    ///
    /// The tree is borrowed mutably because structural plans are made by a
    /// journalled apply → rollback on it, which leaves it bit-identical, so
    /// across the whole call the tree reads unmodified. Scores never touch
    /// it.
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
        let race_config = RaceConfig::paper_default(config.samples);
        // Round 0 targets the ladder's first rung: a lane already holding
        // that many worlds is warm, and its racer is scored as soon as its
        // plan is made.
        let opening = race_config.ladder()[0];
        let journal = config.probe_engine == ProbeEngine::Incremental;
        // Every structural plan inserts once (journalled apply, or the
        // reference engine's clone insert); a re-score evaluates the plan's
        // program and inserts nothing. Every sampled plan builds one
        // snapshot unless a warm lane served it; re-scores build none.
        #[cfg(debug_assertions)]
        let inserts_before = FTree::debug_structural_insert_count();
        #[cfg(debug_assertions)]
        let mut structural_applies = 0u64;
        #[cfg(debug_assertions)]
        let builds_before = FTree::debug_snapshot_build_count();
        #[cfg(debug_assertions)]
        let mut cold_plans = 0u64;
        let mut records: Vec<ProbeRecord> = Vec::with_capacity(pool.len());
        let mut racers: Vec<Racer> = Vec::new();
        for &e in pool {
            // A component's estimate is at hand without sampling when it is
            // exactly enumerable or its lane is warm.
            let mut at_hand = WarmLanes {
                lanes: &self.lanes,
                opening,
                memo,
                exact_edge_cap: config.exact_edge_cap,
            };
            let mode = if journal {
                PlanMode::Journal(Some(InApplyScore {
                    include_query: config.include_query,
                    alpha: config.alpha,
                    at_hand: &mut at_hand,
                }))
            } else {
                PlanMode::Cloning
            };
            let (plan, scored) = tree
                .probe_plan_with(graph, e, base_flow, mode)
                .expect("candidates are probeable");
            match plan {
                ProbePlan::Analytic(outcome) => {
                    metrics.probes += 1;
                    metrics.analytic_probes += 1;
                    records.push(ProbeRecord {
                        edge: e,
                        outcome,
                        eliminated: false,
                    });
                }
                ProbePlan::Sampled(mut plan) => {
                    #[cfg(debug_assertions)]
                    {
                        if is_structural(plan.case()) {
                            structural_applies += 1;
                        }
                        // A served plan shares its lane's snapshot.
                        let key = plan.snapshot().fingerprint();
                        if !self.lanes.get(&key).is_some_and(|lane| {
                            Arc::ptr_eq(lane.component.snapshot(), plan.shared_snapshot())
                        }) {
                            cold_plans += 1;
                        }
                    }
                    if plan.snapshot().exactly_enumerable(config.exact_edge_cap) {
                        // Structural exact candidates were scored with
                        // their planning apply; the rest score here.
                        let outcome = scored.unwrap_or_else(|| {
                            let exact = memo.estimate(plan.snapshot());
                            plan.score(tree, graph, config.include_query, config.alpha, exact)
                        });
                        metrics.probes += 1;
                        records.push(ProbeRecord {
                            edge: e,
                            outcome,
                            eliminated: false,
                        });
                        continue;
                    }
                    let key = plan.snapshot().fingerprint();
                    let scored = scored.map(|outcome| {
                        metrics.probes += 1;
                        (outcome, self.lanes[&key].component.drawn())
                    });
                    racers.push(Racer {
                        edge: e,
                        plan,
                        key,
                        scored,
                    });
                }
            }
        }

        let external_lower = records
            .iter()
            .map(|r| r.outcome.lower)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut race = CandidateRace::new(race_config, racers.len(), external_lower);
        while let Some(round) = race.next_round() {
            debug_assert!(round.round > 0 || round.target == opening);
            // Check out the round's lanes (creating missing ones on their
            // fingerprint-derived streams) and extend them in one job.
            let mut lane_buf: Vec<IncrementalComponent> =
                Vec::with_capacity(round.candidates.len());
            let mut local_buf: Vec<Arc<LocalMap>> = Vec::with_capacity(round.candidates.len());
            let mut targets: Vec<u32> = Vec::with_capacity(round.candidates.len());
            let mut before: Vec<u32> = Vec::with_capacity(round.candidates.len());
            for &i in &round.candidates {
                let racer = &racers[i];
                let Lane {
                    component: lane,
                    local,
                } = self.lanes.remove(&racer.key).unwrap_or_else(|| Lane {
                    component: IncrementalComponent::new(
                        Arc::clone(racer.plan.shared_snapshot()),
                        SeedSequence::new(self.seq.child_seed(racer.key)),
                    ),
                    local: racer.plan.local_map(),
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
                local_buf.push(local);
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
                let racer = &mut racers[i];
                // Scoring is a pure function of the lane's estimate: a lane
                // whose worlds did not grow since the racer's last score
                // keeps its bounds for free. A warm racer, scored with its
                // planning apply, is therefore not scored again.
                let outcome = match racer.scored {
                    Some((outcome, at)) if at == lane.drawn() => outcome,
                    _ => {
                        debug_assert!(
                            round.round > 0 || racer.scored.is_none(),
                            "a racer scored with its planning apply is re-scored only once its lane grows"
                        );
                        let outcome = racer.plan.score(
                            tree,
                            graph,
                            config.include_query,
                            config.alpha,
                            lane.estimate(),
                        );
                        metrics.probes += 1;
                        racer.scored = Some((outcome, lane.drawn()));
                        outcome
                    }
                };
                bounds.push((i, outcome.lower, outcome.upper));
            }
            for ((component, local), &i) in
                lane_buf.into_iter().zip(local_buf).zip(&round.candidates)
            {
                self.lanes.insert(racers[i].key, Lane { component, local });
            }
            let summary = race.complete_round(&bounds);
            metrics.ci_pruned += summary.eliminated as u64;
        }

        for (i, racer) in racers.into_iter().enumerate() {
            let (outcome, _) = racer.scored.expect("every racer is scored in round 0");
            // An eliminated racer cannot win, but its last score still feeds
            // delayed sampling.
            let eliminated = race.status(i) != LaneStatus::Finished;
            if !eliminated {
                // Publish the finalist's full-budget estimate so the
                // commit reuses it instead of re-sampling.
                if let Some(lane) = self.lanes.get(&racer.key) {
                    memo.store(racer.plan.snapshot(), lane.component.estimate());
                }
            }
            records.push(ProbeRecord {
                edge: racer.edge,
                outcome,
                eliminated,
            });
        }
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                FTree::debug_structural_insert_count() - inserts_before,
                structural_applies,
                "a race inserts once per structural plan and never per re-score"
            );
            debug_assert_eq!(
                FTree::debug_snapshot_build_count() - builds_before,
                cold_plans,
                "a race builds one snapshot per cold structural plan and per IIIa plan"
            );
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, SamplingProvider};
    #[cfg(debug_assertions)]
    use crate::ftree::InsertCase;
    use flowmax_graph::VertexId;

    /// A warm lane serves its snapshot only to an insertion with exactly
    /// its AV and edge sequence: the same edge set in another order has the
    /// same fingerprint, but its vertex order — which indexes the vertex
    /// map and the estimate — may differ, so it is built afresh.
    #[test]
    fn a_reordered_edge_sequence_is_never_served_a_lane() {
        let g = crate::ftree::goldens::figure3_graph();
        let av = VertexId(0);
        let edges = [EdgeId(0), EdgeId(1), EdgeId(2)];
        let snapshot = Arc::new(ComponentGraph::build(&g, av, &edges));
        let key = snapshot.fingerprint();
        let opening = RaceConfig::paper_default(1000).ladder()[0];
        let mut component = IncrementalComponent::new(Arc::clone(&snapshot), SeedSequence::new(1));
        ParallelEstimator::new(1)
            .extend_components(std::slice::from_mut(&mut component), &[opening]);
        let local = Arc::new(LocalMap::from_snapshot(snapshot.vertices()));
        let lanes = HashMap::from([(key, Lane { component, local })]);
        let inner = SamplingProvider::with_threads(EstimatorConfig::monte_carlo(1000), 1, 1);
        let mut memo = MemoProvider::new(inner, true);
        let mut at_hand = WarmLanes {
            lanes: &lanes,
            opening,
            memo: &mut memo,
            exact_edge_cap: 0,
        };
        let served = at_hand
            .stored(key, av, &edges)
            .expect("exact sequence hits");
        assert!(Arc::ptr_eq(&served.snapshot, &snapshot));
        assert!(Arc::ptr_eq(&served.local, &lanes[&key].local));
        for reordered in [
            [EdgeId(2), EdgeId(1), EdgeId(0)],
            [EdgeId(1), EdgeId(0), EdgeId(2)],
        ] {
            assert_eq!(ComponentGraph::fingerprint_of(av, &reordered), key);
            assert!(at_hand.stored(key, av, &reordered).is_none());
        }
        assert!(at_hand.stored(key, VertexId(1), &edges).is_none());
        assert!(at_hand.stored(key ^ 1, av, &edges).is_none());
    }

    /// A structural racer's whole race costs one insertion, its planning
    /// apply: a cold racer's per-round re-scores evaluate the plan's
    /// program, and a warm racer is scored with the apply itself. The
    /// warm score is bit-identical to the cold race's final one (same
    /// lane, same worlds).
    #[cfg(debug_assertions)]
    #[test]
    fn a_warm_structural_racer_costs_one_insertion() {
        let g = crate::ftree::goldens::figure3_graph();
        let config = GreedyConfig::ft(1, 5).with_memo().with_ci().with_threads(1);
        let estimator = EstimatorConfig {
            exact_edge_cap: 0,
            samples: config.samples,
        };
        let inner = SamplingProvider::with_threads(estimator, config.seed, 1);
        let mut memo = MemoProvider::new(inner, true);
        let mut tree = FTree::new(&g, VertexId(0));
        for e in 0..19 {
            tree.insert_edge(&g, EdgeId(e), &mut memo).unwrap();
        }
        tree.enable_flow_cache();
        let base = tree.flow_cached_total(&g, false);
        let mut driver = RaceDriver::new(&config);
        let mut metrics = SelectionMetrics::default();
        // Fig. 4's 14-15 splits a mono component; 11-15 crosses components.
        for (e, case) in [
            (EdgeId(21), InsertCase::CycleInMono),
            (EdgeId(22), InsertCase::CycleAcross),
        ] {
            let mut race = |tree: &mut FTree| {
                let before = FTree::debug_structural_insert_count();
                let builds_before = FTree::debug_snapshot_build_count();
                let records =
                    driver.probe_candidates(&g, tree, &[e], base, &config, &mut memo, &mut metrics);
                assert_eq!(records.len(), 1, "a lone racer finishes");
                let outcome = records[0].outcome;
                assert_eq!(outcome.case, case);
                (
                    FTree::debug_structural_insert_count() - before,
                    FTree::debug_snapshot_build_count() - builds_before,
                    outcome,
                )
            };
            let (cold, cold_builds, first) = race(&mut tree);
            let (warm, warm_builds, second) = race(&mut tree);
            assert_eq!(
                cold, 1,
                "a cold racer's re-scores evaluate a program, never insert"
            );
            assert_eq!(cold_builds, 1, "re-scores reuse the plan's snapshot");
            assert_eq!(warm, 1, "a warm racer is planned and scored by one apply");
            assert_eq!(warm_builds, 0, "a warm racer is served its lane's snapshot");
            assert_eq!(first.flow.to_bits(), second.flow.to_bits());
            assert_eq!(first.lower.to_bits(), second.lower.to_bits());
            assert_eq!(first.upper.to_bits(), second.upper.to_bits());
        }
        assert_eq!(metrics.memo_hits, 2, "each warm race counts one memo hit");
    }
}
