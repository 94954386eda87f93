//! Criterion: expected-flow estimation — F-tree (component-wise, §5.3)
//! versus whole-graph Monte-Carlo (Naive, [7][22]) at equal sample counts,
//! plus the analytic re-evaluation path.

use criterion::{criterion_group, criterion_main, Criterion};
use flowmax_core::{
    greedy_select, EstimatorConfig, FTree, GreedyConfig, NoObserver, RunControl, SamplingProvider,
};
use flowmax_datasets::{suggest_query, PartitionedConfig};
use flowmax_graph::{EdgeId, EdgeSubset};
use flowmax_sampling::{sample_flow, SeedSequence};

fn bench_flow_estimation(c: &mut Criterion) {
    let graph = PartitionedConfig::paper(2000, 6).generate(11);
    let q = suggest_query(&graph);
    // A realistic selection (with cycles) chosen by the greedy itself.
    let mut cfg = GreedyConfig::ft(60, 5).with_memo();
    cfg.samples = 300;
    let selection =
        greedy_select(&graph, q, &cfg, &RunControl::unlimited(), &mut NoObserver).selected;
    let subset = EdgeSubset::from_edges(graph.edge_count(), selection.iter().copied());

    let mut group = c.benchmark_group("flow_estimation");
    group.sample_size(20);

    for samples in [200u32, 1000] {
        group.bench_function(format!("whole_graph_{samples}"), |b| {
            let mut rng = SeedSequence::new(1).rng(0);
            b.iter(|| sample_flow(&graph, &subset, q, false, samples, &mut rng).mean())
        });
        group.bench_function(format!("ftree_build_and_estimate_{samples}"), |b| {
            b.iter(|| {
                let mut provider = SamplingProvider::new(EstimatorConfig::monte_carlo(samples), 2);
                let mut tree = FTree::new(&graph, q);
                let mut remaining: Vec<EdgeId> = selection.clone();
                while !remaining.is_empty() {
                    let pos = remaining.iter().position(|&e| {
                        let (a, bb) = graph.endpoints(e);
                        tree.contains_vertex(a) || tree.contains_vertex(bb)
                    });
                    let Some(pos) = pos else { break };
                    let e = remaining.remove(pos);
                    tree.insert_edge(&graph, e, &mut provider).unwrap();
                }
                tree.expected_flow(&graph, false)
            })
        });
    }

    // Re-evaluating an already-built tree is the common path in the greedy
    // loop: pure analytic aggregation.
    let mut provider = SamplingProvider::new(EstimatorConfig::monte_carlo(1000), 3);
    let mut tree = FTree::new(&graph, q);
    let mut remaining = selection.clone();
    while !remaining.is_empty() {
        let pos = remaining.iter().position(|&e| {
            let (a, bb) = graph.endpoints(e);
            tree.contains_vertex(a) || tree.contains_vertex(bb)
        });
        let Some(pos) = pos else { break };
        let e = remaining.remove(pos);
        tree.insert_edge(&graph, e, &mut provider).unwrap();
    }
    group.bench_function("ftree_reevaluate_only", |b| {
        b.iter(|| tree.expected_flow(&graph, false))
    });

    group.finish();
}

criterion_group!(benches, bench_flow_estimation);
criterion_main!(benches);
