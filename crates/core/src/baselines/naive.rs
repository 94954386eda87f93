//! The *Naive* baseline (§7.2): greedy edge selection with whole-subgraph
//! Monte-Carlo flow estimation \[7\], \[22\] and no F-tree.
//!
//! Every probe samples the entire candidate subgraph `E_i ∪ {e}` (1000
//! worlds by default) — the cost and variance the F-tree exists to avoid.
//! Probes run on the bit-parallel [`ParallelEstimator`] engine: 512 worlds
//! per traversal, optionally sharded across threads, with each probe seeded
//! by its own probe counter so results are thread-count invariant.

use flowmax_graph::{EdgeId, EdgeSubset, ProbabilisticGraph, VertexId};
use flowmax_sampling::{default_threads, ParallelEstimator, SeedSequence};

use crate::cancel::RunControl;
use crate::metrics::SelectionMetrics;
use crate::selection::candidates::CandidateSet;
use crate::selection::greedy::SelectionOutcome;
use crate::selection::observer::{SelectionObserver, SelectionStep};

/// Configuration of the naive baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveConfig {
    /// Edge budget `k`.
    pub budget: usize,
    /// Monte-Carlo samples per probe (paper: 1000).
    pub samples: u32,
    /// Whether `W(Q)` counts toward the flow.
    pub include_query: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for probe sampling (results do not depend on this).
    pub threads: usize,
}

impl NaiveConfig {
    /// Paper defaults at a given budget, with the [`default_threads`]
    /// worker count (`FLOWMAX_THREADS` or 1).
    pub fn paper(budget: usize, seed: u64) -> Self {
        NaiveConfig {
            budget,
            samples: 1000,
            include_query: false,
            seed,
            threads: default_threads(),
        }
    }

    /// Overrides the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Runs the naive baseline, streaming one [`SelectionStep`] per committed
/// edge to the passive `observer`. `control` is checked between
/// iterations, as in [`greedy_select`](crate::selection::greedy::greedy_select).
pub fn naive_select(
    graph: &ProbabilisticGraph,
    query: VertexId,
    config: &NaiveConfig,
    control: &RunControl,
    observer: &mut dyn SelectionObserver,
) -> SelectionOutcome {
    let engine = ParallelEstimator::new(config.threads);
    // One child sequence per probe: probe `i` is a pure function of
    // `(seed, i)` no matter how many workers sample its batches.
    let probe_seq = SeedSequence::new(SeedSequence::new(config.seed).child_seed(0xBA5E));
    let mut probe_idx: u64 = 0;
    let mut selected = EdgeSubset::for_graph(graph);
    let mut selected_order = Vec::new();
    let mut candidates = CandidateSet::new(graph, query);
    let mut metrics = SelectionMetrics::default();
    let mut flow_trace = Vec::new();
    let mut final_flow = 0.0;
    let mut stopped = None;

    for iter in 0..config.budget {
        if let Some(cause) = control.should_stop(iter) {
            stopped = Some(cause);
            break;
        }
        let mut best: Option<(EdgeId, f64)> = None;
        let mut pool = 0usize;
        for e in candidates.to_vec() {
            pool += 1;
            // Probe: estimate the flow of E_i ∪ {e} by sampling the whole
            // candidate subgraph.
            selected.insert(e);
            let seq = SeedSequence::new(probe_seq.child_seed(probe_idx));
            probe_idx += 1;
            let est = engine.sample_reachability(graph, &selected, query, config.samples, &seq);
            let flow = est.flow(graph, query, config.include_query);
            selected.remove(e);
            metrics.probes += 1;
            metrics.samples_drawn += config.samples as u64;
            metrics.edge_samples_drawn += config.samples as u64 * (selected.len() + 1) as u64;
            match best {
                None => best = Some((e, flow)),
                Some((be, bf)) => {
                    if flow > bf || (flow == bf && e < be) {
                        best = Some((e, flow));
                    }
                }
            }
        }
        let Some((edge, flow)) = best else { break };
        selected.insert(edge);
        selected_order.push(edge);
        candidates.remove(edge);
        let (a, b) = graph.endpoints(edge);
        for v in [a, b] {
            candidates.vertex_joined(graph, v, &selected);
        }
        observer.on_step(&SelectionStep {
            iteration: iter,
            edge,
            gain: flow - final_flow,
            flow,
            pool,
            probes: pool as u64,
            ci_pruned: 0,
            ds_skipped: 0,
            memo_hits: 0,
        });
        final_flow = flow;
        flow_trace.push(flow);
    }

    SelectionOutcome {
        selected: selected_order,
        flow_trace,
        final_flow,
        metrics,
        stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::observer::NoObserver;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn select(g: &ProbabilisticGraph, config: &NaiveConfig) -> SelectionOutcome {
        let control = RunControl::unlimited();
        naive_select(g, VertexId(0), config, &control, &mut NoObserver)
    }

    fn small_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO);
        b.add_vertex(Weight::new(10.0).unwrap());
        b.add_vertex(Weight::ONE);
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p(0.9)).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p(0.9)).unwrap();
        b.build()
    }

    #[test]
    fn picks_high_value_branch_first() {
        let g = small_graph();
        let out = select(&g, &NaiveConfig::paper(1, 1));
        assert_eq!(out.selected, vec![EdgeId(0)]);
        // Sampled flow of a single 0.9 edge to weight 10 ≈ 9.
        assert!(
            (out.final_flow - 9.0).abs() < 0.8,
            "flow {}",
            out.final_flow
        );
    }

    #[test]
    fn exhausts_candidates() {
        let g = small_graph();
        let out = select(&g, &NaiveConfig::paper(10, 1));
        assert_eq!(out.selected.len(), 3);
        assert_eq!(out.flow_trace.len(), 3);
    }

    #[test]
    fn samples_account_for_whole_subgraph() {
        let g = small_graph();
        let out = select(&g, &NaiveConfig::paper(2, 1));
        // Iteration 1: 2 probes × 1000 samples; iteration 2: ≥ 2 probes.
        assert!(out.metrics.samples_drawn >= 4000);
        assert!(out.metrics.edge_samples_drawn > out.metrics.samples_drawn);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_graph();
        let a = select(&g, &NaiveConfig::paper(3, 9));
        let b = select(&g, &NaiveConfig::paper(3, 9));
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.final_flow, b.final_flow);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let g = small_graph();
        let base = select(&g, &NaiveConfig::paper(3, 9).with_threads(1));
        for threads in [2, 8] {
            let out = select(&g, &NaiveConfig::paper(3, 9).with_threads(threads));
            assert_eq!(base.selected, out.selected, "threads={threads}");
            assert_eq!(base.final_flow, out.final_flow, "threads={threads}");
            assert_eq!(base.flow_trace, out.flow_trace, "threads={threads}");
        }
    }
}
