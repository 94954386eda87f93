//! Failure injection: every user-facing error path across the crates, plus
//! robustness of the pipeline under degenerate inputs.

use flowmax::core::{
    exact_max_flow, greedy_select, Algorithm, CoreError, EstimatorConfig, FTree, GreedyConfig,
    NoObserver, RunControl, SamplingProvider, SelectionOutcome, Session,
};
use flowmax::graph::{
    exact_reachability, EdgeId, EdgeSubset, GraphBuilder, GraphError, ProbabilisticGraph,
    Probability, VertexId, Weight,
};
use std::io::Cursor;

fn p(v: f64) -> Probability {
    Probability::new(v).unwrap()
}

fn select(g: &ProbabilisticGraph, cfg: &GreedyConfig) -> SelectionOutcome {
    let control = RunControl::unlimited();
    greedy_select(g, VertexId(0), cfg, &control, &mut NoObserver)
}

#[test]
fn builder_rejects_all_invalid_inputs() {
    assert!(matches!(
        Probability::new(0.0),
        Err(GraphError::InvalidProbability(_))
    ));
    assert!(matches!(
        Probability::new(f64::NAN),
        Err(GraphError::InvalidProbability(_))
    ));
    assert!(matches!(
        Weight::new(-1.0),
        Err(GraphError::InvalidWeight(_))
    ));

    let mut b = GraphBuilder::new();
    let v = b.add_vertex(Weight::ONE);
    assert!(matches!(
        b.add_edge(v, v, p(0.5)),
        Err(GraphError::SelfLoop(_))
    ));
    assert!(matches!(
        b.add_edge(v, VertexId(100), p(0.5)),
        Err(GraphError::VertexOutOfBounds { .. })
    ));
}

#[test]
fn ftree_rejects_case_i_and_duplicates_without_corruption() {
    let mut b = GraphBuilder::new();
    b.add_vertices(4, Weight::ONE);
    b.add_edge(VertexId(0), VertexId(1), p(0.5)).unwrap();
    b.add_edge(VertexId(2), VertexId(3), p(0.5)).unwrap();
    let g = b.build();

    let mut tree = FTree::new(&g, VertexId(0));
    let mut provider = SamplingProvider::new(EstimatorConfig::exact(), 1);

    // Case I rejected, tree untouched.
    let err = tree.insert_edge(&g, EdgeId(1), &mut provider).unwrap_err();
    assert!(matches!(err, CoreError::DisconnectedEdge { .. }));
    assert_eq!(tree.edge_count(), 0);
    tree.validate(&g).unwrap();

    tree.insert_edge(&g, EdgeId(0), &mut provider).unwrap();
    let err = tree.insert_edge(&g, EdgeId(0), &mut provider).unwrap_err();
    assert_eq!(err, CoreError::EdgeAlreadySelected(EdgeId(0)));
    assert_eq!(tree.edge_count(), 1);
    tree.validate(&g).unwrap();
}

#[test]
fn solvers_handle_isolated_query_gracefully() {
    let mut b = GraphBuilder::new();
    b.add_vertices(3, Weight::ONE);
    b.add_edge(VertexId(1), VertexId(2), p(0.9)).unwrap();
    let g = b.build();
    let session = Session::new(&g).with_seed(1);
    for alg in Algorithm::all() {
        let r = session
            .query(VertexId(0))
            .unwrap()
            .algorithm(alg)
            .budget(5)
            .run()
            .unwrap();
        assert!(
            r.selected.is_empty(),
            "{}: selected from nothing",
            alg.name()
        );
        assert_eq!(r.flow, 0.0, "{}", alg.name());
    }
}

#[test]
fn solvers_handle_single_vertex_graph() {
    let mut b = GraphBuilder::new();
    b.add_vertex(Weight::new(7.0).unwrap());
    let g = b.build();
    let session = Session::new(&g).with_seed(1);
    let r = session
        .query(VertexId(0))
        .unwrap()
        .algorithm(Algorithm::FtM)
        .budget(3)
        .run()
        .unwrap();
    assert!(r.selected.is_empty());
    assert_eq!(r.flow, 0.0);
    let r = session
        .query(VertexId(0))
        .unwrap()
        .algorithm(Algorithm::Dijkstra)
        .budget(3)
        .include_query(true)
        .run()
        .unwrap();
    assert_eq!(r.flow, 7.0, "query's own weight with include_query");
}

#[test]
fn session_rejects_invalid_queries_with_typed_errors() {
    let mut b = GraphBuilder::new();
    b.add_vertices(2, Weight::ONE);
    b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
    let g = b.build();
    let session = Session::new(&g);

    let err = session.query(VertexId(5)).unwrap_err();
    assert!(matches!(
        err,
        CoreError::QueryOutOfBounds {
            query: VertexId(5),
            vertex_count: 2
        }
    ));
    assert!(err.to_string().contains("out of bounds"));

    let err = session.query(VertexId(0)).unwrap().run().unwrap_err();
    assert_eq!(err, CoreError::EmptyBudget);

    let err = session
        .query(VertexId(0))
        .unwrap()
        .budget(1)
        .samples(0)
        .run()
        .unwrap_err();
    assert_eq!(err, CoreError::ZeroSamples);

    let err = "FT+NOPE".parse::<Algorithm>().unwrap_err();
    assert_eq!(err, CoreError::UnknownAlgorithm("FT+NOPE".into()));
    assert_eq!("ft+m+ci+ds".parse::<Algorithm>(), Ok(Algorithm::FtMCiDs));
}

#[test]
fn zero_budget_is_a_no_op() {
    let mut b = GraphBuilder::new();
    b.add_vertices(2, Weight::ONE);
    b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
    let g = b.build();
    let out = select(&g, &GreedyConfig::ft(0, 1));
    assert!(out.selected.is_empty());
    assert_eq!(out.metrics.probes, 0);
}

#[test]
fn all_certain_edges_need_no_sampling_in_greedy_with_exact_cap() {
    // p = 1 everywhere: even cycles are deterministic; exact estimation via
    // hybrid cap must never fall back to sampling (0 uncertain edges).
    let mut b = GraphBuilder::new();
    b.add_vertices(4, Weight::ONE);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)] {
        b.add_edge(VertexId(u), VertexId(v), Probability::ONE)
            .unwrap();
    }
    let g = b.build();
    let mut cfg = GreedyConfig::ft(5, 1);
    cfg.exact_edge_cap = 4;
    let out = select(&g, &cfg);
    assert_eq!(out.metrics.components_sampled, 0);
    assert!(
        (out.final_flow - 3.0).abs() < 1e-12,
        "all three vertices certain"
    );
}

#[test]
fn exact_solver_enforces_limits() {
    let mut b = GraphBuilder::new();
    b.add_vertices(30, Weight::ONE);
    for i in 0..25u32 {
        b.add_edge(VertexId(i), VertexId(i + 1), p(0.5)).unwrap();
    }
    let g = b.build();
    assert!(exact_max_flow(&g, VertexId(0), 3, false).is_err());
}

#[test]
fn enumeration_cap_propagates() {
    let mut b = GraphBuilder::new();
    b.add_vertices(30, Weight::ONE);
    for i in 0..29u32 {
        b.add_edge(VertexId(i), VertexId(i + 1), p(0.5)).unwrap();
    }
    let g = b.build();
    let err = exact_reachability(&g, &EdgeSubset::full(&g), VertexId(0), 24).unwrap_err();
    assert!(matches!(err, GraphError::TooManyEdgesForEnumeration { .. }));
}

#[test]
fn graph_io_failures_are_typed() {
    use flowmax::graph::io::read_text;
    // Parse errors are pinned by line, the others by their whole value.
    let kind = |e: GraphError| match e {
        GraphError::Parse { line, .. } => format!("Parse@{line}"),
        e => format!("{e:?}"),
    };
    for (bad, expected) in [
        ("wrong header\n", "Parse@1"),
        ("flowmax-graph v1\nnot-numbers\n", "Parse@2"),
        ("flowmax-graph v1\n2 1\n1\nnope\n0 1 0.5\n", "Parse@4"),
        ("flowmax-graph v1\n2 1\n1\n1\n0 1\n", "Parse@5"),
        ("flowmax-graph v1\n2 1 extra\n1\n1\n0 1 0.5\n", "Parse@2"),
        ("flowmax-graph v1\n2 1\n1\n1\n0 1 0.5 junk\n", "Parse@5"),
        // A line after the last declared edge.
        (
            "flowmax-graph v1\n3 1\n1\n1\n1\n0 1 0.5\n1 2 0.5\n",
            "Parse@7",
        ),
        ("flowmax-graph v1\n2 1\n1\n1\n0 0 0.5\n", "SelfLoop(v0)"),
        ("flowmax-graph v1\n1 0\n-3\n", "InvalidWeight(-3.0)"),
        (
            "flowmax-graph v1\n2 1\n1\n1\n0 1 1.5\n",
            "InvalidProbability(1.5)",
        ),
        // Duplicates in both orientations, named as the later line wrote them.
        (
            "flowmax-graph v1\n2 2\n1\n1\n0 1 0.5\n0 1 0.5\n",
            "DuplicateEdge { a: v0, b: v1 }",
        ),
        (
            "flowmax-graph v1\n2 2\n1\n1\n0 1 0.5\n1 0 0.5\n",
            "DuplicateEdge { a: v1, b: v0 }",
        ),
    ] {
        let err = read_text(Cursor::new(bad)).unwrap_err();
        assert_eq!(kind(err), expected, "{bad:?}");
    }
}

#[test]
fn loader_failures_are_typed() {
    use flowmax::datasets::{load_edge_list, ProbabilityModel, WeightModel};
    let err = load_edge_list(
        Cursor::new("1 2\nthree four\n"),
        ProbabilityModel::Constant(0.5),
        WeightModel::unit(),
        0,
    )
    .unwrap_err();
    assert!(matches!(err, GraphError::Parse { line: 2, .. }));
}

#[test]
fn probe_never_mutates_even_on_error() {
    let mut b = GraphBuilder::new();
    b.add_vertices(4, Weight::ONE);
    b.add_edge(VertexId(0), VertexId(1), p(0.5)).unwrap();
    b.add_edge(VertexId(2), VertexId(3), p(0.5)).unwrap();
    let g = b.build();
    let mut tree = FTree::new(&g, VertexId(0));
    let mut provider = SamplingProvider::new(EstimatorConfig::exact(), 1);
    tree.insert_edge(&g, EdgeId(0), &mut provider).unwrap();
    let before = tree.expected_flow(&g, false);
    let _ = tree.probe_edge(&g, EdgeId(1), before, false, 0.01, &mut provider);
    assert_eq!(tree.edge_count(), 1);
    assert_eq!(tree.expected_flow(&g, false), before);
    tree.validate(&g).unwrap();
}

/// A worker panic mid-job must fail that job only (satellite of the
/// persistent-pool PR): the panic surfaces on the submitting thread — no
/// hang, no process abort — the pool's threads survive, and the very next
/// estimation through the same process-wide pool is bit-identical to one
/// from before the fault.
#[test]
fn worker_panic_fails_the_job_but_the_shared_pool_stays_serviceable() {
    use flowmax::datasets::{suggest_query, ErdosConfig};
    use flowmax::sampling::WorkerPool;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let g = ErdosConfig::paper(100, 5.0).generate(47);
    let q = suggest_query(&g);
    let solve = || {
        Session::new(&g)
            .with_threads(8)
            .with_seed(11)
            .query(q)
            .unwrap()
            .budget(4)
            .samples(150)
            .run()
            .unwrap()
    };
    let before = solve();

    // Kill jobs on the same shared pool the session just used, three times
    // over: each must fail loudly without taking a worker thread with it.
    let chunk_ranges = || (0..8usize).map(|j| j * 4..(j + 1) * 4).collect::<Vec<_>>();
    for round in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::global().run(chunk_ranges(), |j, range| {
                if j == 5 {
                    panic!("injected fault in round {round}");
                }
                range.sum::<usize>()
            })
        }));
        assert!(result.is_err(), "round {round}: injected panic vanished");
    }

    // Healthy jobs still run on the surviving workers...
    let sums = WorkerPool::global().run(chunk_ranges(), |_, range| range.sum::<usize>());
    assert_eq!(sums.len(), 8);
    // ...and a real estimation through the same pool is bit-identical to
    // the pre-fault run.
    let after = solve();
    assert_eq!(before.selected, after.selected);
    assert_eq!(before.flow, after.flow);
    assert_eq!(before.algorithm_flow, after.algorithm_flow);
}

/// Seeded chaos for the serving layer, compiled only under
/// `--features faults`: injected admission rejections, batch panics, dead
/// worker slots, overload storms, and expired deadlines. The invariants
/// under every fault: the dispatcher never dies, every ticket ends in
/// exactly one terminal event, and degraded answers are bit-identical to
/// the same-seed full run's prefix. Tests serialize on a gate because the
/// failpoint registry is process-global.
#[cfg(feature = "faults")]
mod chaos {
    use super::p;
    use flowmax::core::{CoreError, FlowServer, QueryParams, ServeConfig, ServeError, ServeEvent};
    use flowmax::graph::{GraphBuilder, ProbabilisticGraph, VertexId, Weight};
    use flowmax_faults::{self as faults, FailPlan};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    static GATE: Mutex<()> = Mutex::new(());

    /// Arms `plan` for the guard's lifetime, then disarms — even when the
    /// test body panics through it.
    struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

    fn arm(plan: FailPlan) -> Armed {
        let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        faults::install(plan);
        Armed(gate)
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            faults::clear();
        }
    }

    fn diamond() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(5, Weight::ONE);
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p(0.8)).unwrap();
        b.add_edge(VertexId(1), VertexId(3), p(0.7)).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p(0.6)).unwrap();
        b.add_edge(VertexId(3), VertexId(4), p(0.5)).unwrap();
        b.build()
    }

    fn params(vertex: u32, budget: usize) -> QueryParams {
        let mut params = QueryParams::new(VertexId(vertex), budget);
        params.samples = 200;
        params
    }

    /// An injected admission fault rejects exactly the scheduled arrival
    /// with a live retry hint; admissions before and after it sail through
    /// and complete.
    #[test]
    fn injected_admission_fault_rejects_one_arrival_and_recovers() {
        let _armed = arm(FailPlan::new(3).fail_key_nth("serve/admit", 1, &[0]));
        let server = FlowServer::new(ServeConfig::default());
        let fp = server.load_graph(diamond());

        let (first, _) = server
            .submit(fp, params(0, 2))
            .expect("admission 0 is clean");
        let rejected = server.submit(fp, params(1, 2));
        assert!(
            matches!(rejected, Err(ServeError::Overloaded { .. })),
            "admission 1 must hit the injected fault: {rejected:?}"
        );
        let (third, _) = server
            .submit(fp, params(2, 2))
            .expect("admission 2 is clean");

        first.wait().expect("unfaulted query completes");
        third
            .wait()
            .expect("the server keeps serving after the fault");
        assert_eq!(server.stats().rejected, 1);
        assert_eq!(server.stats().completed, 2);
    }

    /// A panic injected into the batch executor fails every ticket in that
    /// batch with a typed `WorkerPanicked` — and the dispatcher survives to
    /// run the next, bit-identical to an unfaulted run.
    #[test]
    fn injected_batch_panic_fails_the_batch_but_not_the_dispatcher() {
        let g = diamond();
        let reference = {
            let server = FlowServer::new(ServeConfig::default());
            let fp = server.load_graph(g.clone());
            server.submit(fp, params(0, 3)).unwrap().0.wait().unwrap()
        };

        let _armed = arm(FailPlan::new(9).fail_key_nth("serve/batch", 0, &[0]));
        let server = FlowServer::new(ServeConfig {
            start_paused: true,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(g);
        let (doomed_a, _) = server.submit(fp, params(0, 3)).unwrap();
        let (doomed_b, _) = server.submit(fp, params(0, 3)).unwrap();
        server.resume();
        for doomed in [doomed_a, doomed_b] {
            match doomed.wait() {
                Err(CoreError::WorkerPanicked(msg)) => {
                    assert!(
                        faults::is_fault_panic(&msg),
                        "expected the tagged fault panic, got: {msg}"
                    );
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }

        // Batch 0 is burnt; batch 1 is unfaulted and must match the
        // reference bit for bit.
        let after = server.submit(fp, params(0, 3)).unwrap().0.wait().unwrap();
        assert_eq!(after.selected, reference.selected);
        assert_eq!(after.flow, reference.flow);
        assert_eq!(server.stats().batches, 2);
    }

    // The dead-worker-slot-through-the-server chaos test lives in its own
    // binary (`tests/serve_pool_chaos.rs`): the `pool/worker` site fires
    // on the process-global WorkerPool, which other tests in *this*
    // binary use concurrently — arming it here would bleed faults into
    // their jobs.

    /// An overload storm against a tiny queue: rejections carry retry
    /// hints that scale with the live queue depth, every accepted ticket
    /// still reaches a terminal event, and nothing deadlocks.
    #[test]
    fn overload_storm_rejects_with_scaled_hints_and_drains_cleanly() {
        // No faults armed — the storm itself is the chaos — but hold the
        // gate so a concurrent armed test can't bleed into this server.
        let _armed = arm(FailPlan::new(0));
        let server = FlowServer::new(ServeConfig {
            queue_capacity: 3,
            coalesce_max: 2,
            retry_after: Duration::from_millis(5),
            start_paused: true,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(diamond());

        let mut accepted = Vec::new();
        let mut hints = Vec::new();
        for i in 0..50u32 {
            match server.submit(fp, params(i % 5, 1)) {
                Ok((ticket, _)) => accepted.push(ticket),
                Err(ServeError::Overloaded { retry_after }) => hints.push(retry_after),
                Err(other) => panic!("only Overloaded is expected here: {other:?}"),
            }
        }
        assert_eq!(accepted.len(), 3, "capacity admits exactly three");
        assert_eq!(hints.len(), 47);
        // A full queue of 3 with coalesce 2 needs two more batches:
        // ceil((3 + 1) / 2) = 2 base units.
        assert!(hints.iter().all(|&h| h == Duration::from_millis(10)));

        server.resume();
        for ticket in accepted {
            ticket.wait().expect("every accepted ticket must terminate");
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 47);
        assert_eq!(stats.queued, 0, "the storm drains completely");
    }

    /// Deadlines that expire while queued degrade instead of failing: the
    /// event stream ends in `Degraded`, and the committed prefix is
    /// bit-identical to the same-seed full run.
    #[test]
    fn expired_deadlines_degrade_to_exact_prefixes_under_load() {
        let _armed = arm(FailPlan::new(0));
        let server = FlowServer::new(ServeConfig {
            start_paused: true,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(diamond());

        let (full, _) = server.submit(fp, params(0, 3)).unwrap();
        let (doomed, _) = server.submit(fp, params(0, 3).with_deadline_ms(0)).unwrap();
        server.resume();

        let full = full.wait().expect("the undeadlined twin completes");
        let terminal;
        loop {
            match doomed.next_event().expect("stream must terminate") {
                ServeEvent::Step(_) => continue,
                other => {
                    terminal = Some(other);
                    break;
                }
            }
        }
        match terminal {
            Some(ServeEvent::Degraded {
                steps_done,
                budget,
                result,
            }) => {
                assert_eq!(budget, 3);
                assert_eq!(steps_done, result.selected.len());
                assert!(steps_done < budget, "a 0ms deadline cannot finish");
                assert_eq!(
                    result.selected,
                    full.selected[..steps_done],
                    "degraded answers are the full run's prefix, bit for bit"
                );
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }
}

#[test]
fn extreme_probabilities_are_handled() {
    // Mix of near-zero and certain probabilities must not under/overflow.
    let mut b = GraphBuilder::new();
    b.add_vertices(4, Weight::new(1000.0).unwrap());
    b.add_edge(VertexId(0), VertexId(1), p(1e-12)).unwrap();
    b.add_edge(VertexId(1), VertexId(2), Probability::ONE)
        .unwrap();
    b.add_edge(VertexId(2), VertexId(3), p(1e-12)).unwrap();
    let g = b.build();
    let mut cfg = GreedyConfig::ft(3, 1);
    cfg.exact_edge_cap = 10;
    let out = select(&g, &cfg);
    assert_eq!(out.selected.len(), 3);
    assert!(out.final_flow.is_finite());
    assert!(
        out.final_flow > 0.0 && out.final_flow < 1.0,
        "flow {}",
        out.final_flow
    );
}
