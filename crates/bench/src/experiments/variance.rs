//! §7.3's variance claim: at equal sample counts, estimating each
//! bi-connected component independently (the F-tree) yields a lower-variance
//! total-flow estimate than sampling the whole subgraph at once (Naive),
//! because `Var(ΣX) = ΣVar(X) + 2ΣCov` and component independence removes
//! the covariance terms — while mono parts are computed exactly.

use flowmax_core::{
    greedy_select, EstimatorConfig, FTree, GreedyConfig, NoObserver, RunControl, SamplingProvider,
};
use flowmax_datasets::{suggest_query, PartitionedConfig};
use flowmax_graph::{EdgeId, EdgeSubset, ProbabilisticGraph, VertexId};
use flowmax_sampling::{sample_flow, SeedSequence};

use crate::report::{Cell, Report, Row};
use crate::runner::Scale;

/// Builds an F-tree over a fixed selection with the given sampling budget.
fn ftree_estimate(
    graph: &ProbabilisticGraph,
    query: VertexId,
    selection: &[EdgeId],
    samples: u32,
    seed: u64,
) -> f64 {
    let mut provider = SamplingProvider::new(EstimatorConfig::monte_carlo(samples), seed);
    let mut tree = FTree::new(graph, query);
    let mut remaining: Vec<EdgeId> = selection.to_vec();
    while !remaining.is_empty() {
        let pos = remaining.iter().position(|&e| {
            let (a, b) = graph.endpoints(e);
            tree.contains_vertex(a) || tree.contains_vertex(b)
        });
        let Some(pos) = pos else { break };
        let e = remaining.remove(pos);
        tree.insert_edge(graph, e, &mut provider).unwrap();
    }
    tree.expected_flow(graph, false)
}

fn std_dev(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
}

/// The variance comparison: columns report (std dev, |bias|) per estimator.
pub fn variance(scale: &Scale, seed: u64) -> Report {
    let n = scale.pick(2_000, 500);
    let g = PartitionedConfig::paper(n, 6).generate(seed);
    let q = suggest_query(&g);

    // A fixed selection with cycles: the FT+M greedy's own choice.
    let mut cfg = GreedyConfig::ft(scale.pick(120, 70), seed).with_memo();
    cfg.samples = 300;
    let selection = greedy_select(&g, q, &cfg, &RunControl::unlimited(), &mut NoObserver).selected;

    // Low-noise reference flow.
    let reference = {
        let mut provider = SamplingProvider::new(EstimatorConfig::hybrid(20, 50_000), seed ^ 1);
        let mut tree = FTree::new(&g, q);
        let mut remaining = selection.clone();
        while !remaining.is_empty() {
            let pos = remaining.iter().position(|&e| {
                let (a, b) = g.endpoints(e);
                tree.contains_vertex(a) || tree.contains_vertex(b)
            });
            let Some(pos) = pos else { break };
            let e = remaining.remove(pos);
            tree.insert_edge(&g, e, &mut provider).unwrap();
        }
        tree.expected_flow(&g, false)
    };

    let trials = 30;
    let subset = EdgeSubset::from_edges(g.edge_count(), selection.iter().copied());
    let seq = SeedSequence::new(seed ^ 0xFACE);
    let mut rows = Vec::new();
    for &s in &[50u32, 100, 200, 400, 800] {
        let naive: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = seq.rng(1_000 + t);
                sample_flow(&g, &subset, q, false, s, &mut rng).mean()
            })
            .collect();
        let ftree: Vec<f64> = (0..trials)
            .map(|t| ftree_estimate(&g, q, &selection, s, seq.child_seed(2_000 + t)))
            .collect();
        let bias = |vals: &[f64]| (vals.iter().sum::<f64>() / vals.len() as f64 - reference).abs();
        rows.push(Row {
            x: s.to_string(),
            cells: vec![
                Cell {
                    flow: std_dev(&naive),
                    millis: bias(&naive),
                },
                Cell {
                    flow: std_dev(&ftree),
                    millis: bias(&ftree),
                },
            ],
        });
    }

    Report {
        id: "variance".into(),
        title: "Estimator variance: whole-graph vs component-wise sampling (§7.3)".into(),
        x_label: "samples".into(),
        algorithms: vec!["whole-graph".into(), "f-tree".into()],
        rows,
        notes: vec![
            format!(
                "fixed {}-edge selection on partitioned |V|={n}; {trials} trials; \
                 reference flow {reference:.3}",
                selection.len()
            ),
            "columns: .flow = std dev across trials, .ms = |mean − reference| (bias)".into(),
            "paper expectation: the f-tree column is consistently smaller".into(),
        ],
    }
}
