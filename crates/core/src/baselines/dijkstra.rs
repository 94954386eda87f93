//! The *Dijkstra* baseline (§7.2): a maximum-probability spanning tree.
//!
//! Transforming `w(e) = −ln P(e)` and running Dijkstra from `Q` yields, in
//! settle order, a spanning tree maximizing each vertex's best-path
//! probability \[32\]. For budget `k`, the first `k` tree edges are selected.
//! The result is a tree, so its expected flow is computed *exactly* and
//! analytically (Theorem 2) — this baseline never samples, which is why it
//! is the fastest and least effective algorithm in the paper's evaluation.

use flowmax_graph::{EdgeId, ProbabilisticGraph, SpanningTree};

use crate::cancel::RunControl;
use crate::estimator::{EstimatorConfig, SamplingProvider};
use crate::ftree::FTree;
use crate::metrics::SelectionMetrics;
use crate::selection::greedy::SelectionOutcome;
use crate::selection::observer::{SelectionObserver, SelectionStep};

/// Runs the Dijkstra baseline: the first `budget` edges of `tree`, the
/// query vertex's maximum-probability spanning tree
/// ([`flowmax_graph::max_probability_spanning_tree_full`]; sessions cache
/// it), streaming one [`SelectionStep`] per edge. `control` is checked
/// between iterations, as in [`greedy_select`](crate::selection::greedy::greedy_select).
pub fn dijkstra_select(
    graph: &ProbabilisticGraph,
    tree: &SpanningTree,
    budget: usize,
    include_query: bool,
    control: &RunControl,
    observer: &mut dyn SelectionObserver,
) -> SelectionOutcome {
    let query = tree.source;
    let mut selected: Vec<EdgeId> = tree.first_edges(budget);

    // A spanning tree is mono-connected: the F-tree computes its flow
    // exactly with zero sampling. Settle order guarantees every insertion is
    // a leaf attachment.
    let mut ftree = FTree::new(graph, query);
    let mut provider = SamplingProvider::new(EstimatorConfig::exact(), 0);
    let mut flow_trace = Vec::with_capacity(selected.len());
    let mut prev_flow = 0.0;
    let mut stopped = None;
    for (iter, &e) in selected.iter().enumerate() {
        if let Some(cause) = control.should_stop(iter) {
            stopped = Some(cause);
            break;
        }
        ftree
            .insert_edge(graph, e, &mut provider)
            .expect("settle order inserts parents before children");
        let flow = ftree.expected_flow(graph, include_query);
        flow_trace.push(flow);
        observer.on_step(&SelectionStep {
            iteration: iter,
            edge: e,
            gain: flow - prev_flow,
            flow,
            pool: 1,
            probes: 0,
            ci_pruned: 0,
            ds_skipped: 0,
            memo_hits: 0,
        });
        prev_flow = flow;
    }
    selected.truncate(flow_trace.len());
    let final_flow = flow_trace.last().copied().unwrap_or(0.0);
    let metrics = SelectionMetrics {
        insert_case_ii: selected.len() as u64,
        ..Default::default()
    };
    SelectionOutcome {
        selected,
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
    use flowmax_graph::{
        exact_expected_flow, max_probability_spanning_tree_full, EdgeSubset, GraphBuilder,
        Probability, VertexId, Weight, DEFAULT_ENUMERATION_CAP,
    };

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn select(g: &ProbabilisticGraph, budget: usize, include_query: bool) -> SelectionOutcome {
        let tree = max_probability_spanning_tree_full(g, VertexId(0));
        let control = RunControl::unlimited();
        dijkstra_select(g, &tree, budget, include_query, &control, &mut NoObserver)
    }

    fn graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p(0.8)).unwrap(); // e1
        b.add_edge(VertexId(0), VertexId(2), p(0.3)).unwrap(); // e2
        b.add_edge(VertexId(2), VertexId(3), p(0.7)).unwrap(); // e3
        b.build()
    }

    #[test]
    fn selects_tree_edges_in_settle_order() {
        let g = graph();
        let out = select(&g, 3, false);
        // Best paths: 0-1 (0.9), then 1-2 (0.72 > 0.3 direct), then 2-3.
        assert_eq!(out.selected, vec![EdgeId(0), EdgeId(1), EdgeId(3)]);
    }

    #[test]
    fn flow_is_exact_for_the_tree() {
        let g = graph();
        let out = select(&g, 3, false);
        let subset = EdgeSubset::from_edges(g.edge_count(), out.selected.iter().copied());
        let exact =
            exact_expected_flow(&g, &subset, VertexId(0), false, DEFAULT_ENUMERATION_CAP).unwrap();
        assert!((out.final_flow - exact).abs() < 1e-12);
        assert_eq!(out.metrics.components_sampled, 0, "trees never sample");
    }

    #[test]
    fn budget_truncates() {
        let g = graph();
        let out = select(&g, 1, false);
        assert_eq!(out.selected, vec![EdgeId(0)]);
        assert!((out.final_flow - 0.9).abs() < 1e-12);
    }

    #[test]
    fn flow_trace_matches_length() {
        let g = graph();
        let out = select(&g, 2, false);
        assert_eq!(out.flow_trace.len(), 2);
        assert!(out.flow_trace[1] > out.flow_trace[0]);
    }
}
