//! Criterion: ablations of the heuristics of §6.2–6.4 — memoization on/off,
//! exact vs sampled small components, CI race budgets, and the DS penalty
//! parameter.

use criterion::{criterion_group, criterion_main, Criterion};
use flowmax_core::{greedy_select, GreedyConfig, NoObserver, RunControl};
use flowmax_datasets::{suggest_query, PartitionedConfig};

fn bench_ablation(c: &mut Criterion) {
    let graph = PartitionedConfig::paper(1000, 6).generate(13);
    let q = suggest_query(&graph);
    let base = |seed| {
        let mut g = GreedyConfig::ft(25, seed);
        g.samples = 300;
        g
    };
    let select = |cfg: &GreedyConfig| {
        greedy_select(&graph, q, cfg, &RunControl::unlimited(), &mut NoObserver)
    };

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    group.bench_function("memo_off", |b| b.iter(|| select(&base(1)).final_flow));
    group.bench_function("memo_on", |b| {
        b.iter(|| select(&base(1).with_memo()).final_flow)
    });

    // Exact enumeration for small components instead of sampling them.
    group.bench_function("exact_small_components", |b| {
        b.iter(|| {
            let mut cfg = base(1).with_memo();
            cfg.exact_edge_cap = 12;
            select(&cfg).final_flow
        })
    });

    for c_param in [1.2f64, 2.0, 16.0] {
        group.bench_function(format!("ds_penalty_c_{c_param}"), |b| {
            b.iter(|| {
                let mut cfg = base(1).with_memo().with_ds();
                cfg.ds_penalty_c = c_param;
                select(&cfg).final_flow
            })
        });
    }

    group.bench_function("ci_race", |b| {
        b.iter(|| select(&base(1).with_memo().with_ci()).final_flow)
    });

    // The §2 alternative the paper rejected: analytic reliability bounds
    // instead of sampling. Fast — but the tests show the interval is too
    // loose to replace per-component estimation.
    {
        use flowmax_graph::{reliability_bounds, EdgeSubset};
        let selection = select(&base(1).with_memo()).selected;
        let subset = EdgeSubset::from_edges(graph.edge_count(), selection.iter().copied());
        group.bench_function("analytic_reliability_bounds", |b| {
            b.iter(|| reliability_bounds(&graph, &subset, q).lower.len())
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
