//! Chaos: a worker slot killed mid-batch underneath a `FlowServer`.
//!
//! This lives in its own test binary because the `pool/worker` failpoint
//! fires on the process-global `WorkerPool` — arming it inside a shared
//! binary would bleed injected deaths into unrelated tests' pool jobs.
//! Here the armed window owns the whole process.

#![cfg(feature = "faults")]

use flowmax::core::{CoreError, FlowServer, QueryParams, ServeConfig, ServeResult};
use flowmax::graph::{GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};
use flowmax::sampling::WorkerPool;
use flowmax_faults::{self as faults, FailPlan};

fn diamond() -> ProbabilisticGraph {
    let p = |v| Probability::new(v).unwrap();
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

/// Submits a coalesced pair against one server and waits for both. A
/// 2-query batch is the smallest that fans out over the pool (`run_jobs`
/// hands chunk 1 to worker slot 0; chunk 0 stays on the dispatcher).
fn coalesced_pair(
    server: &FlowServer,
    fp: u64,
) -> (
    Result<ServeResult, CoreError>,
    Result<ServeResult, CoreError>,
) {
    server.pause();
    let (a, _) = server.submit(fp, params(0, 3)).unwrap();
    let (b, _) = server.submit(fp, params(1, 3)).unwrap();
    server.resume();
    (a.wait(), b.wait())
}

/// A worker slot scheduled to die on its first task fails the in-flight
/// batch loudly; the pool respawns the slot, and the same server answers
/// the retry bit-identically to an unfaulted run.
#[test]
fn dead_worker_slot_mid_batch_is_respawned_and_the_retry_is_identical() {
    let g = diamond();
    let reference = {
        let server = FlowServer::new(ServeConfig {
            threads: 4,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(g.clone());
        let (a, b) = coalesced_pair(&server, fp);
        (a.unwrap(), b.unwrap())
    };

    let server = FlowServer::new(ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    });
    let fp = server.load_graph(g);

    // Kill slot 0 on the first task it receives after arming.
    faults::install(FailPlan::new(13).fail_key_nth("pool/worker", 0, &[0]));
    let (a, b) = coalesced_pair(&server, fp);
    faults::clear();
    for doomed in [a, b] {
        assert!(
            matches!(doomed, Err(CoreError::WorkerPanicked(_))),
            "the killed slot must fail the whole batch loudly: {doomed:?}"
        );
    }

    // The next dispatch discovers the dead slot, respawns it, and the
    // retry is bit-identical to the unfaulted reference — the dispatcher
    // and the pool both survived the fault.
    let (a, b) = coalesced_pair(&server, fp);
    let (a, b) = (a.expect("retry a"), b.expect("retry b"));
    assert_eq!(a.selected, reference.0.selected);
    assert_eq!(a.flow, reference.0.flow);
    assert_eq!(b.selected, reference.1.selected);
    assert_eq!(b.flow, reference.1.flow);
    assert!(
        WorkerPool::global().restarts() >= 1,
        "the dead slot must have been respawned"
    );
}
