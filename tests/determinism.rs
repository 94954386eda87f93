//! Reproducibility: every stochastic pipeline stage (generation, selection,
//! evaluation) is a pure function of its master seed — and, for the batched
//! engine, of the master seed *only*: thread counts never change results.

use flowmax::core::{Algorithm, Session};
use flowmax::datasets::{suggest_query, DatasetSpec, ErdosConfig, PartitionedConfig, WsnConfig};
use flowmax::graph::EdgeSubset;
use flowmax::sampling::{ParallelEstimator, SeedSequence};

#[test]
fn solver_runs_are_bitwise_reproducible() {
    let g = ErdosConfig::paper(150, 5.0).generate(21);
    let q = suggest_query(&g);
    let session = Session::new(&g).with_seed(77);
    for alg in Algorithm::all() {
        let run = || {
            session
                .query(q)
                .unwrap()
                .algorithm(alg)
                .budget(8)
                .samples(250)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.selected, b.selected, "{} selection differs", alg.name());
        assert_eq!(a.flow, b.flow, "{} evaluated flow differs", alg.name());
        assert_eq!(
            a.algorithm_flow,
            b.algorithm_flow,
            "{} internal flow differs",
            alg.name()
        );
    }
}

#[test]
fn different_seeds_change_sampled_algorithms() {
    let g = PartitionedConfig::paper(200, 6).generate(22);
    let q = suggest_query(&g);
    let session = Session::new(&g);
    let run = |seed: u64| {
        session
            .query(q)
            .unwrap()
            .algorithm(Algorithm::Ft)
            .budget(12)
            .samples(100) // noisy on purpose
            .seed(seed)
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(2);
    // Selections usually differ under heavy sampling noise; at minimum the
    // internal flow estimates must differ.
    assert!(
        a.selected != b.selected || a.algorithm_flow != b.algorithm_flow,
        "independent seeds produced identical runs"
    );
}

#[test]
fn generators_are_seed_stable_at_spec_level() {
    let specs = [
        DatasetSpec::Erdos(ErdosConfig::paper(100, 4.0)),
        DatasetSpec::Partitioned(PartitionedConfig::paper(120, 6)),
        DatasetSpec::Wsn(WsnConfig::paper(100, 0.1)),
    ];
    for spec in specs {
        let a = spec.build(5);
        let b = spec.build(5);
        assert_eq!(a.edge_count(), b.edge_count(), "{}", spec.name());
        for (id, e) in a.edges() {
            let e2 = b.edge(id);
            assert_eq!(e.endpoints(), e2.endpoints(), "{}", spec.name());
            assert_eq!(e.probability, e2.probability, "{}", spec.name());
        }
        for v in a.vertices() {
            assert_eq!(a.weight(v), b.weight(v), "{}", spec.name());
        }
    }
}

#[test]
fn parallel_estimator_is_thread_count_invariant() {
    let g = ErdosConfig::paper(300, 6.0).generate(31);
    let q = suggest_query(&g);
    let full = EdgeSubset::full(&g);
    let seq = SeedSequence::new(4242);
    // Budgets straddling the 64-world batch and the 512-world block: single
    // partial batch, one exact batch, partial tail, one exact block, a
    // block plus one world, many batches.
    for samples in [1u32, 64, 100, 512, 513, 1000] {
        let flow1 = ParallelEstimator::new(1).sample_flow(&g, &full, q, false, samples, &seq);
        let reach1 = ParallelEstimator::new(1).sample_reachability(&g, &full, q, samples, &seq);
        for threads in [2usize, 8] {
            let est = ParallelEstimator::new(threads);
            let flow_t = est.sample_flow(&g, &full, q, false, samples, &seq);
            let reach_t = est.sample_reachability(&g, &full, q, samples, &seq);
            // FlowEstimate comparison is bit-exact: mean, M2 and count.
            assert_eq!(flow1, flow_t, "flow, samples={samples} threads={threads}");
            assert_eq!(
                reach1, reach_t,
                "reach, samples={samples} threads={threads}"
            );
        }
    }
}

#[test]
fn solver_is_thread_count_invariant_for_naive_and_full_ft_stack() {
    let g = ErdosConfig::paper(150, 5.0).generate(77);
    let q = suggest_query(&g);
    for alg in [Algorithm::Naive, Algorithm::FtMCiDs] {
        let run = |threads: usize| {
            let session = Session::new(&g).with_threads(threads).with_seed(5);
            session
                .query(q)
                .unwrap()
                .algorithm(alg)
                .budget(6)
                .samples(200)
                .run()
                .unwrap()
        };
        let base = run(1);
        for threads in [2usize, 8] {
            let out = run(threads);
            assert_eq!(
                base.selected,
                out.selected,
                "{} selection differs at {threads} threads",
                alg.name()
            );
            assert_eq!(
                base.flow,
                out.flow,
                "{} evaluated flow differs at {threads} threads",
                alg.name()
            );
            assert_eq!(
                base.algorithm_flow,
                out.algorithm_flow,
                "{} internal flow differs at {threads} threads",
                alg.name()
            );
        }
    }
}

/// The persistent-pool serving contract (satellite of the worker-pool PR):
/// the same `QuerySpec` must be bit-identical (a) on a fresh pool, (b)
/// after 100 unrelated jobs have warmed every worker's scratch arenas with
/// different graph shapes and sizes, and (c) at thread counts 1 and 8.
/// Scratch contents and pool history must never leak into results.
#[test]
fn pool_reuse_and_warm_scratch_never_change_results() {
    let g = ErdosConfig::paper(150, 5.0).generate(91);
    let q = suggest_query(&g);
    let run = |threads: usize| {
        Session::new(&g)
            .with_threads(threads)
            .with_seed(13)
            .query(q)
            .unwrap()
            .algorithm(Algorithm::FtMCiDs)
            .budget(6)
            .samples(200)
            .run()
            .unwrap()
    };
    let fresh = run(8);

    // 100 unrelated warmup jobs against a differently-shaped graph, with
    // varying budgets/samples/seeds, so every pooled worker re-targets its
    // warm scratch repeatedly before the replay.
    let warm_graph = PartitionedConfig::paper(80, 5).generate(7);
    let wq = suggest_query(&warm_graph);
    let warm_session = Session::new(&warm_graph).with_threads(8).with_seed(99);
    let warmup: Vec<_> = (0..100)
        .map(|i| {
            warm_session
                .query(wq)
                .unwrap()
                .algorithm(Algorithm::FtM)
                .budget(1 + i % 4)
                .samples(64 + (i as u32 % 5) * 64)
                .seed(1000 + i as u64)
                .spec()
        })
        .collect();
    assert_eq!(warm_session.run_many(&warmup).unwrap().len(), 100);

    let warmed = run(8);
    assert_eq!(fresh.selected, warmed.selected, "warm pool changed results");
    assert_eq!(fresh.flow, warmed.flow);
    assert_eq!(fresh.algorithm_flow, warmed.algorithm_flow);

    let single = run(1);
    assert_eq!(fresh.selected, single.selected, "thread count leaked");
    assert_eq!(fresh.flow, single.flow);
    assert_eq!(fresh.algorithm_flow, single.algorithm_flow);
}

/// The serve layer inherits the replay contract: the same submission
/// against a [`flowmax::core::FlowServer`] is bit-identical whether the
/// graph was just loaded or has served (and coalesced) other queries.
#[test]
fn served_replay_is_bit_identical_under_load() {
    use flowmax::core::{FlowServer, QueryParams, ServeConfig};

    let g = ErdosConfig::paper(120, 5.0).generate(55);
    let q = suggest_query(&g);
    let server = FlowServer::new(ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    });
    let fp = server.load_graph(g.clone());
    let mut params = QueryParams::new(q, 5);
    params.samples = 200;
    let first = server.submit(fp, params).unwrap().wait().unwrap();

    // Unrelated load in between, including concurrent (coalescable) waves.
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            let mut other = QueryParams::new(q, 1 + i % 3);
            other.samples = 100;
            other.seed = Some(500 + i as u64);
            server.submit(fp, other).unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }

    let replay = server.submit(fp, params).unwrap().wait().unwrap();
    assert_eq!(first.selected, replay.selected, "replay diverged");
    assert_eq!(first.flow, replay.flow);
    assert_eq!(first.steps.len(), replay.steps.len());

    // And the served result equals a direct session run of the same spec.
    let direct = Session::new(&g)
        .with_seed(42)
        .query(q)
        .unwrap()
        .budget(5)
        .samples(200)
        .run()
        .unwrap();
    assert_eq!(first.selected, direct.selected);
    assert_eq!(first.flow, direct.flow);
}

#[test]
fn dijkstra_is_fully_deterministic_regardless_of_seed() {
    let g = PartitionedConfig::paper(150, 6).generate(23);
    let q = suggest_query(&g);
    let session = Session::new(&g);
    let dijkstra = |seed: u64| {
        session
            .query(q)
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(10)
            .seed(seed)
            .run()
            .unwrap()
    };
    let a = dijkstra(1);
    let b = dijkstra(999);
    assert_eq!(a.selected, b.selected, "spanning trees ignore the seed");
}
