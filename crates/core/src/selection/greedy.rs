//! The greedy edge-selection algorithm (§6.1) with the M / CI / DS
//! heuristics (§6.2–6.4).
//!
//! Each iteration probes every candidate edge (Eq. 5), selects the flow
//! maximizer, and inserts it into the F-tree. The heuristics modify the
//! probing loop only:
//!
//! * **M** — probes and insertions share a memoizing estimate provider;
//! * **CI** — candidates whose components must be sampled race each other in
//!   rounds of growing sample budgets; a candidate whose upper flow bound
//!   falls below another's lower bound is pruned (with ≥ 30 samples, §6.3).
//!   The batched racing engine (`selection::racing`) runs each round as
//!   one multi-candidate job on the parallel sampler with incremental
//!   whole-batch estimates and budget reallocation;
//! * **DS** — probed-but-not-selected candidates are suspended for
//!   `⌊log_c(cost/pot)⌋` iterations (§6.4); suspended candidates never
//!   enter a race round. Under CI, the candidates the race eliminated count
//!   as probed: each is recorded with the score it was cut at.

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};

use crate::cancel::{RunControl, StopCause};
use crate::estimator::{EstimateProvider, EstimatorConfig, SamplingProvider};
use crate::ftree::{CommitReplay, FTree, InsertCase, ProbeOutcome, ProbePlan};
use crate::metrics::SelectionMetrics;
use crate::selection::candidates::CandidateSet;
use crate::selection::delayed::DelayTracker;
use crate::selection::memo::MemoProvider;
use crate::selection::observer::{SelectionObserver, SelectionStep};
use crate::selection::racing::RaceDriver;

/// Which engine probes candidates and commits the winners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeEngine {
    /// `O(touched)` iterations: probes answer `base + Δ(touched)` through
    /// the F-tree flow cache, structural probes score by journalled apply →
    /// rollback on the shared tree, and — under memoization — structural
    /// winners commit by replaying the probe's recorded mutations.
    #[default]
    Incremental,
    /// The test oracle: one full F-tree clone per structural probe,
    /// whole-forest flow re-aggregation, and `insert_edge` commits. Results
    /// are bit-identical to [`ProbeEngine::Incremental`], only slower; the
    /// differential suites pin the two against each other.
    CloneReference,
}

/// Configuration of a greedy selection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyConfig {
    /// Edge budget `k` (Def. 4).
    pub budget: usize,
    /// Monte-Carlo samples per component estimation (paper: 1000).
    pub samples: u32,
    /// Components with at most this many uncertain edges are enumerated
    /// exactly instead of sampled (0 = pure Monte-Carlo, the paper setting).
    pub exact_edge_cap: usize,
    /// Enable component memoization (§6.2).
    pub memoize: bool,
    /// Enable confidence-interval pruning (§6.3).
    pub confidence_pruning: bool,
    /// Enable delayed sampling (§6.4).
    pub delayed_sampling: bool,
    /// DS penalty parameter `c` (paper default 2).
    pub ds_penalty_c: f64,
    /// CI significance level `α` (paper default 0.01).
    pub alpha: f64,
    /// Whether `W(Q)` counts toward the flow.
    pub include_query: bool,
    /// Master seed for all sampling.
    pub seed: u64,
    /// Worker threads for component sampling (results do not depend on
    /// this; see `flowmax_sampling::ParallelEstimator`).
    pub threads: usize,
    /// The probe/commit engine (default: [`ProbeEngine::Incremental`]).
    /// Results are bit-identical under either engine.
    pub probe_engine: ProbeEngine,
}

impl GreedyConfig {
    /// The plain `FT` algorithm at the paper's defaults, with the
    /// `FLOWMAX_THREADS` worker count (default 1).
    pub fn ft(budget: usize, seed: u64) -> Self {
        GreedyConfig {
            budget,
            samples: 1000,
            exact_edge_cap: 0,
            memoize: false,
            confidence_pruning: false,
            delayed_sampling: false,
            ds_penalty_c: 2.0,
            alpha: 0.01,
            include_query: false,
            seed,
            threads: flowmax_sampling::default_threads(),
            probe_engine: ProbeEngine::Incremental,
        }
    }

    /// Selects the probe/commit engine (bit-identical results).
    pub fn with_probe_engine(mut self, probe_engine: ProbeEngine) -> Self {
        self.probe_engine = probe_engine;
        self
    }

    /// Overrides the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables memoization (`FT+M`).
    pub fn with_memo(mut self) -> Self {
        self.memoize = true;
        self
    }

    /// Enables confidence-interval pruning (`+CI`).
    pub fn with_ci(mut self) -> Self {
        self.confidence_pruning = true;
        self
    }

    /// Enables delayed sampling (`+DS`).
    pub fn with_ds(mut self) -> Self {
        self.delayed_sampling = true;
        self
    }
}

/// Result of a greedy selection run.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Selected edges, in selection order.
    pub selected: Vec<EdgeId>,
    /// Expected flow after each iteration (under the run's own estimates).
    pub flow_trace: Vec<f64>,
    /// Final expected flow (under the run's own estimates).
    pub final_flow: f64,
    /// Work counters.
    pub metrics: SelectionMetrics,
    /// Why the run stopped early, if it did. `None` means the run used its
    /// full edge budget (or ran out of candidates). When `Some`, the
    /// selection is bit-identical to the same-seed uncontrolled run's
    /// prefix of the same length — the anytime contract.
    pub stopped: Option<StopCause>,
}

pub(crate) struct ProbeRecord {
    pub(crate) edge: EdgeId,
    pub(crate) outcome: ProbeOutcome,
    /// The probe's captured redo images (incremental engine, structural
    /// journal probes only) — the winning record's replay commits the
    /// insertion without re-running it.
    pub(crate) replay: Option<CommitReplay>,
    /// Eliminated by the §6.3 race: never selected, but its last score
    /// (`outcome`) still feeds §6.4's delay.
    pub(crate) eliminated: bool,
}

/// Runs the greedy selection (§6.1) over `graph` from `query`, streaming
/// one [`SelectionStep`] per committed edge to `observer`. The observer is
/// passive: observed and unobserved runs are bit-identical. `control`'s
/// cancellation and deadlines are checked strictly *between* iterations,
/// so a stopped run's selection is the uncontrolled run's prefix, bit for
/// bit — [`SelectionOutcome::stopped`] records why it stopped.
pub fn greedy_select(
    graph: &ProbabilisticGraph,
    query: VertexId,
    config: &GreedyConfig,
    control: &RunControl,
    observer: &mut dyn SelectionObserver,
) -> SelectionOutcome {
    let estimator = EstimatorConfig {
        exact_edge_cap: config.exact_edge_cap,
        samples: config.samples,
    };
    let inner = SamplingProvider::with_threads(estimator, config.seed, config.threads);
    let mut provider = MemoProvider::new(inner, config.memoize);
    let mut tree = FTree::new(graph, query);
    // Cloned probe trees carry no flow cache, so only the incremental
    // engine enables it.
    let incremental = config.probe_engine == ProbeEngine::Incremental;
    if incremental {
        tree.enable_flow_cache();
    }
    let mut candidates = CandidateSet::new(graph, query);
    let mut delays = DelayTracker::new(config.ds_penalty_c);
    let mut racer = config.confidence_pruning.then(|| RaceDriver::new(config));
    let mut metrics = SelectionMetrics::default();
    let mut flow_trace = Vec::with_capacity(config.budget);
    let mut base_flow = 0.0;
    let mut stopped = None;

    for iter in 0..config.budget {
        // The stop check sits strictly between iterations: `iter` edges
        // are committed at this point, and stopping here yields exactly
        // that prefix — never a torn iteration.
        if !control.is_unlimited() {
            if let Some(cause) = control.should_stop(iter) {
                stopped = Some(cause);
                break;
            }
        }
        if candidates.is_empty() {
            break;
        }
        let probes_before = metrics.probes;
        let ci_pruned_before = metrics.ci_pruned;
        let memo_hits_before = metrics.memo_hits + provider.inner().metrics.memo_hits;
        // Gather the probe pool, honouring DS suspensions (§6.4: suspended
        // candidates never enter the round; if everything is suspended the
        // full pool is probed rather than stalling).
        let (pool, skipped) =
            candidates.probe_pool(|e| config.delayed_sampling && delays.is_suspended(e));
        metrics.ds_skipped += skipped;

        // The probe phase is clone-free by construction (journalled
        // apply/rollback); debug builds prove it with the thread-local
        // clone counter. The clone-based reference engine is the one
        // deliberate exception.
        #[cfg(debug_assertions)]
        let clones_before = FTree::debug_clone_count();
        #[cfg(debug_assertions)]
        let full_evals_before = FTree::debug_full_flow_eval_count();
        let mut records = if let Some(racer) = racer.as_mut() {
            racer.probe_candidates(
                graph,
                &mut tree,
                &pool,
                base_flow,
                config,
                &mut provider,
                &mut metrics,
            )
        } else {
            probe_all(
                graph,
                &mut tree,
                &pool,
                base_flow,
                config,
                &mut provider,
                &mut metrics,
            )
        };
        #[cfg(debug_assertions)]
        debug_assert!(
            !incremental || FTree::debug_clone_count() == clones_before,
            "the selection hot loop must not clone the F-tree"
        );
        let Some(best_idx) = best_record(&records) else {
            break;
        };
        let best_edge = records[best_idx].edge;
        let prev_flow = base_flow;
        let best_gain = records[best_idx].outcome.flow - prev_flow;
        let best_case = records[best_idx].outcome.case;

        // Commit. With memoization the insertion reuses the winning probe's
        // estimate; otherwise it re-samples (the paper's plain FT). The
        // incremental engine commits a memoized structural winner by
        // replaying its probe's recorded mutations — zero re-insertion work
        // — gated on the memo still holding the formed component's estimate
        // (it always does: the probe published it), so the metrics come out
        // identical to the reference engine's memo-hit re-insertion.
        // Everything else commits through the journalled apply, which hands
        // the touched slots to the flow cache.
        #[cfg(debug_assertions)]
        let structural_inserts_before = FTree::debug_structural_insert_count();
        let mut replay_slot = records[best_idx].replay.take();
        let mut committed_by_replay = false;
        if incremental && config.memoize {
            if let Some(replay) = replay_slot.as_ref() {
                debug_assert_eq!(replay.edge(), best_edge);
                if provider.lookup(replay.snapshot()).is_some() {
                    tree.commit_replay(replay_slot.take().expect("presence just checked"));
                    committed_by_replay = true;
                }
            }
        }
        if !committed_by_replay {
            if incremental {
                let (report, journal) = tree
                    .apply(graph, best_edge, &mut provider)
                    .expect("candidate edges are insertable");
                debug_assert_eq!(report.case, best_case);
                let touched: Vec<u32> = journal.touched_slot_ids().collect();
                // Dropping the journal keeps the insertion.
                drop(journal);
                tree.cache_mark_dirty(touched);
            } else {
                let report = tree
                    .insert_edge(graph, best_edge, &mut provider)
                    .expect("candidate edges are insertable");
                debug_assert_eq!(report.case, best_case);
            }
        }
        match best_case {
            InsertCase::LeafMono | InsertCase::LeafBi => metrics.insert_case_ii += 1,
            InsertCase::CycleInBi => metrics.insert_case_iiia += 1,
            InsertCase::CycleInMono => metrics.insert_case_iiib += 1,
            InsertCase::CycleAcross => metrics.insert_case_iv += 1,
        }
        candidates.remove(best_edge);
        delays.lift(best_edge);
        // A leaf attachment brings one new vertex whose incident edges
        // become candidates.
        let (a, b) = graph.endpoints(best_edge);
        for v in [a, b] {
            candidates.vertex_joined(graph, v, tree.selected_edges());
        }

        base_flow = if incremental {
            tree.flow_cached_total(graph, config.include_query)
        } else {
            tree.expected_flow(graph, config.include_query)
        };

        // Post-commit revalidation (the clone-counter pattern of the probe
        // phase, extended to the incremental state): the whole iteration
        // must have run zero whole-forest traversals and — for memoized
        // structural winners — zero re-insertions, and the cached base
        // flow and versioned candidate pool must match a from-scratch
        // recomputation bit for bit.
        #[cfg(debug_assertions)]
        if incremental {
            assert_eq!(
                FTree::debug_full_flow_eval_count(),
                full_evals_before,
                "incremental iterations must never fall back to whole-forest flow evaluation"
            );
            if config.memoize
                && matches!(best_case, InsertCase::CycleInMono | InsertCase::CycleAcross)
            {
                assert_eq!(
                    FTree::debug_structural_insert_count(),
                    structural_inserts_before,
                    "memoized structural winners must commit by replay, not re-insertion"
                );
            }
            assert_eq!(
                base_flow.to_bits(),
                tree.expected_flow(graph, config.include_query).to_bits(),
                "cached base flow diverged from the whole-forest reference"
            );
            candidates.debug_validate(graph, &tree);
        }

        flow_trace.push(base_flow);
        observer.on_step(&SelectionStep {
            iteration: iter,
            edge: best_edge,
            gain: base_flow - prev_flow,
            flow: base_flow,
            pool: pool.len(),
            probes: metrics.probes - probes_before,
            ci_pruned: metrics.ci_pruned - ci_pruned_before,
            ds_skipped: skipped,
            memo_hits: metrics.memo_hits + provider.inner().metrics.memo_hits - memo_hits_before,
        });

        if config.delayed_sampling {
            // Age existing suspensions *before* recording this iteration's:
            // a fresh `d(e') = ⌊log_c(cost/pot)⌋` must suspend the candidate
            // for the next d full iterations (the paper's worked example:
            // d = 9 ⇒ nine skipped probe rounds), not d − 1.
            delays.tick();
            for r in &records {
                if r.edge != best_edge {
                    delays.record(
                        r.edge,
                        r.outcome.flow - prev_flow,
                        best_gain,
                        r.outcome.sampling_cost_edges,
                    );
                }
            }
        }
    }

    metrics.absorb(&provider.inner().metrics);
    SelectionOutcome {
        selected: tree.selected_edges().iter().collect(),
        flow_trace,
        final_flow: base_flow,
        metrics,
        stopped,
    }
}

/// Index of the non-eliminated record with maximal flow (ties: lowest edge
/// id, for deterministic selection).
fn best_record(records: &[ProbeRecord]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in records.iter().enumerate().filter(|(_, r)| !r.eliminated) {
        match best {
            None => best = Some(i),
            Some(j) => {
                let rj = &records[j];
                if r.outcome.flow > rj.outcome.flow
                    || (r.outcome.flow == rj.outcome.flow && r.edge < rj.edge)
                {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// One probe through the engine the config selects: the journal-based
/// default, or the clone-based reference. Bit-identical outcomes either
/// way.
fn probe_once(
    tree: &mut FTree,
    graph: &ProbabilisticGraph,
    e: EdgeId,
    base_flow: f64,
    config: &GreedyConfig,
    provider: &mut MemoProvider,
) -> (ProbeOutcome, Option<CommitReplay>) {
    if config.probe_engine == ProbeEngine::CloneReference {
        let plan = tree
            .probe_plan_cloning(graph, e, base_flow)
            .expect("candidates are probeable");
        return match plan {
            ProbePlan::Analytic(outcome) => (outcome, None),
            ProbePlan::Sampled(mut sampled) => {
                let estimate = provider.estimate(sampled.snapshot());
                let outcome =
                    sampled.score(tree, graph, config.include_query, config.alpha, estimate);
                (outcome, None)
            }
        };
    }
    // Journal engine: the one-shot probe fuses plan + score into a single
    // journalled apply, capturing a structural probe's redo images.
    tree.probe_edge_keeping(
        graph,
        e,
        base_flow,
        config.include_query,
        config.alpha,
        provider,
    )
    .expect("candidates are probeable")
}

/// Plain probing: every pool edge probed once at the full sample budget.
fn probe_all(
    graph: &ProbabilisticGraph,
    tree: &mut FTree,
    pool: &[EdgeId],
    base_flow: f64,
    config: &GreedyConfig,
    provider: &mut MemoProvider,
    metrics: &mut SelectionMetrics,
) -> Vec<ProbeRecord> {
    let mut records = Vec::with_capacity(pool.len());
    for &e in pool {
        let (outcome, replay) = probe_once(tree, graph, e, base_flow, config, provider);
        metrics.probes += 1;
        if outcome.sampling_cost_edges == 0 {
            metrics.analytic_probes += 1;
        }
        records.push(ProbeRecord {
            edge: e,
            outcome,
            replay,
            eliminated: false,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::observer::{NoObserver, SelectionStep};
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn select(g: &ProbabilisticGraph, cfg: &GreedyConfig) -> SelectionOutcome {
        let control = RunControl::unlimited();
        greedy_select(g, VertexId(0), cfg, &control, &mut NoObserver)
    }

    /// Q(0) with two branches: a high-value branch (weight 10 at v1) and a
    /// low-value one (weight 1 at v2), plus a chord 1-2.
    fn small_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO); // Q
        b.add_vertex(Weight::new(10.0).unwrap());
        b.add_vertex(Weight::ONE);
        b.add_vertex(Weight::new(5.0).unwrap());
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap(); // e0
        b.add_edge(VertexId(0), VertexId(2), p(0.9)).unwrap(); // e1
        b.add_edge(VertexId(1), VertexId(2), p(0.9)).unwrap(); // e2
        b.add_edge(VertexId(2), VertexId(3), p(0.9)).unwrap(); // e3
        b.build()
    }

    #[test]
    fn greedy_picks_high_value_edge_first() {
        let g = small_graph();
        let out = select(&g, &GreedyConfig::ft(1, 1));
        assert_eq!(out.selected, vec![EdgeId(0)], "weight-10 branch first");
        assert!((out.final_flow - 9.0).abs() < 1e-9);
        assert_eq!(out.flow_trace.len(), 1);
    }

    #[test]
    fn budget_exhausts_or_candidates_do() {
        let g = small_graph();
        let out = select(&g, &GreedyConfig::ft(10, 1));
        assert_eq!(out.selected.len(), 4, "only 4 edges exist");
        assert_eq!(out.metrics.insertions(), 4);
    }

    #[test]
    fn flow_trace_is_monotone_under_exact_estimation() {
        let g = small_graph();
        let mut cfg = GreedyConfig::ft(4, 1);
        cfg.exact_edge_cap = 20;
        let out = select(&g, &cfg);
        for w in out.flow_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "adding edges never hurts: {:?}",
                out.flow_trace
            );
        }
    }

    #[test]
    fn memoization_reduces_sampling() {
        let g = small_graph();
        let base = select(&g, &GreedyConfig::ft(4, 1));
        let memo = select(&g, &GreedyConfig::ft(4, 1).with_memo());
        assert!(
            memo.metrics.memo_hits > 0,
            "commits should reuse probe estimates"
        );
        assert!(
            memo.metrics.components_sampled < base.metrics.components_sampled,
            "memoized run must sample fewer components ({} vs {})",
            memo.metrics.components_sampled,
            base.metrics.components_sampled
        );
        assert_eq!(memo.selected.len(), base.selected.len());
    }

    #[test]
    fn heuristic_stacks_produce_connected_selections() {
        let g = small_graph();
        let configs = [
            GreedyConfig::ft(4, 2),
            GreedyConfig::ft(4, 2).with_memo(),
            GreedyConfig::ft(4, 2).with_memo().with_ci(),
            GreedyConfig::ft(4, 2).with_memo().with_ds(),
            GreedyConfig::ft(4, 2).with_memo().with_ci().with_ds(),
        ];
        for cfg in configs {
            let out = select(&g, &cfg);
            assert!(!out.selected.is_empty());
            assert!(out.final_flow > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_graph();
        let cfg = GreedyConfig::ft(4, 7).with_memo().with_ci().with_ds();
        let a = select(&g, &cfg);
        let b = select(&g, &cfg);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.final_flow, b.final_flow);
    }

    fn record(edge: u32, flow: f64, eliminated: bool) -> ProbeRecord {
        ProbeRecord {
            edge: EdgeId(edge),
            outcome: ProbeOutcome {
                flow,
                lower: flow - 1.0,
                upper: flow + 1.0,
                case: InsertCase::CycleInMono,
                sampling_cost_edges: 3,
            },
            replay: None,
            eliminated,
        }
    }

    #[test]
    fn best_record_never_picks_an_eliminated_record() {
        // The eliminated record has the highest point flow (and the lowest
        // edge id on the tie), yet the best survivor wins.
        let records = [
            record(4, 9.0, false),
            record(1, 12.0, true),
            record(2, 10.0, false),
            record(0, 10.0, true),
        ];
        assert_eq!(best_record(&records), Some(2));
        assert_eq!(best_record(&records[1..2]), None);
    }

    /// Q(0)–1–2 and Q–3–4 on reliable edges, plus two weak chords: e4 (Q-2)
    /// closes a cycle through the heavy vertices 1 and 2, e5 (Q-4) only
    /// ever attaches vertex 4. Every candidate but e4 is a leaf probe
    /// (analytic, never suspended). The greedy selects e0, e1, then e2 at
    /// iteration 2, where e4 — the iteration's only sampled candidate —
    /// races alone against e2's exact flow and is eliminated.
    fn elimination_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO); // Q
        b.add_vertex(Weight::new(100.0).unwrap());
        b.add_vertex(Weight::new(100.0).unwrap());
        b.add_vertex(Weight::new(50.0).unwrap());
        b.add_vertex(Weight::ONE);
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p(0.9)).unwrap(); // e1
        b.add_edge(VertexId(0), VertexId(3), p(0.9)).unwrap(); // e2
        b.add_edge(VertexId(3), VertexId(4), p(0.9)).unwrap(); // e3
        b.add_edge(VertexId(0), VertexId(2), p(0.3)).unwrap(); // e4
        b.add_edge(VertexId(0), VertexId(4), p(0.3)).unwrap(); // e5
        b.build()
    }

    fn observed_steps(g: &ProbabilisticGraph, cfg: &GreedyConfig) -> Vec<SelectionStep> {
        let mut steps = Vec::new();
        let mut observer = |step: &SelectionStep| steps.push(*step);
        greedy_select(g, VertexId(0), cfg, &RunControl::unlimited(), &mut observer);
        steps
    }

    #[test]
    fn an_eliminated_racer_is_suspended_in_the_next_pool() {
        let g = elimination_graph();
        let cfg = GreedyConfig::ft(4, 3).with_memo().with_ci().with_ds();
        let steps = observed_steps(&g, &cfg);
        let picked: Vec<EdgeId> = steps.iter().map(|s| s.edge).collect();
        assert_eq!(picked[..3], [EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(steps[2].pool, 3, "e2, e4 and e5 are probed");
        assert_eq!(steps[2].ci_pruned, 1, "the race eliminates e4");
        // Candidates e3, e4 and e5 remain; e4 sits out the next iteration.
        assert_eq!(steps[3].ds_skipped, 1);
        assert_eq!(steps[3].pool, 2);
    }

    #[test]
    fn without_ds_an_eliminated_racer_is_probed_again() {
        let g = elimination_graph();
        let cfg = GreedyConfig::ft(4, 3).with_memo().with_ci();
        let steps = observed_steps(&g, &cfg);
        assert_eq!(steps[2].ci_pruned, 1, "the race eliminates e4");
        assert_eq!(steps[3].ds_skipped, 0);
        assert_eq!(steps[3].pool, 3, "e3, e4 and e5 are all probed");
        assert!(steps.iter().all(|s| s.ds_skipped == 0));
    }

    #[test]
    fn isolated_query_returns_empty() {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        b.add_edge(VertexId(1), VertexId(2), p(0.5)).unwrap();
        let g = b.build();
        let out = select(&g, &GreedyConfig::ft(3, 1));
        assert!(out.selected.is_empty());
        assert_eq!(out.final_flow, 0.0);
    }
}
