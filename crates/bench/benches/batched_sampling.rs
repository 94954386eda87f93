//! Criterion: scalar vs bit-parallel vs multi-threaded sampling.
//!
//! Measures the speedup of the bit-parallel engine: the same 1024-world
//! reachability estimation run (a) one world + one BFS at a time (the
//! scalar reference), and (b) 512 worlds per lane-BFS block, on 1, 2, 4
//! and 8 worker threads. All are statistically equivalent estimators; the
//! (b) runs are bit-identical to each other by the engine's thread-count
//! invariance.

use criterion::{criterion_group, criterion_main, Criterion};
use flowmax_datasets::{suggest_query, ErdosConfig};
use flowmax_graph::EdgeSubset;
use flowmax_sampling::{sample_reachability, ParallelEstimator, SeedSequence};

fn bench_batched_sampling(c: &mut Criterion) {
    let graph = ErdosConfig::paper(5_000, 8.0).generate(11);
    let query = suggest_query(&graph);
    let full = EdgeSubset::full(&graph);
    const SAMPLES: u32 = 1024;
    let seq = SeedSequence::new(7);

    let mut group = c.benchmark_group("batched_sampling");
    group.sample_size(10);

    group.bench_function("scalar_1024_worlds", |b| {
        b.iter(|| {
            let mut rng = seq.rng(0);
            sample_reachability(&graph, &full, query, SAMPLES, &mut rng).samples()
        })
    });

    for threads in [1usize, 2, 4, 8] {
        let engine = ParallelEstimator::new(threads);
        group.bench_function(format!("lanes512_threads{threads}_1024_worlds"), |b| {
            b.iter(|| {
                engine
                    .sample_reachability(&graph, &full, query, SAMPLES, &seq)
                    .samples()
            })
        });
    }

    // The component-local kernel the F-tree pays for on every probe.
    let small = ErdosConfig::paper(60, 4.0).generate(13);
    let edges: Vec<_> = small.edge_ids().collect();
    let comp_query = suggest_query(&small);
    let component = flowmax_sampling::ComponentGraph::build(&small, comp_query, &edges);
    group.bench_function("component_scalar_1024_worlds", |b| {
        b.iter(|| {
            let mut rng = seq.rng(1);
            component.sample_reachability(SAMPLES, &mut rng).samples()
        })
    });
    group.bench_function("component_lanes512_1024_worlds", |b| {
        b.iter(|| {
            component
                .sample_reachability_batched(SAMPLES, &seq, 1)
                .samples()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_batched_sampling);
criterion_main!(benches);
