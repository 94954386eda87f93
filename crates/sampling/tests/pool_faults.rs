//! Chaos tests for the worker pool's fault sites and the worker-slot
//! respawn path. Compiled only with `--features faults`; every test arms
//! the process-global registry, so they serialize on a gate and this file
//! stays a dedicated test binary (lib unit tests never see an armed plan).

#![cfg(feature = "faults")]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use flowmax_faults::{self as faults, FailPlan};
use flowmax_sampling::WorkerPool;

static GATE: Mutex<()> = Mutex::new(());

/// Arms `plan` for the duration of the returned guard, then disarms —
/// even when the test body panics through it.
struct Armed(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

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

fn ranges(chunks: usize, per: usize) -> Vec<Range<usize>> {
    (0..chunks).map(|j| j * per..(j + 1) * per).collect()
}

#[test]
fn dispatch_fault_fails_the_job_before_any_task_is_sent() {
    let _armed = arm(FailPlan::new(5).fail_key_nth("pool/dispatch", 2, &[0]));
    let pool = WorkerPool::new(3);
    let result = catch_unwind(AssertUnwindSafe(|| pool.run(ranges(4, 1), |j, _| j)));
    let payload = result.expect_err("the dispatch fault must surface");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        faults::is_fault_panic(&message),
        "expected a tagged fault panic, got: {message}"
    );
    // Nothing was dispatched, so the pool is untouched and the next job
    // runs normally.
    let out = pool.run(ranges(4, 1), |j, _| j);
    assert_eq!(out, vec![0, 1, 2, 3]);
    assert_eq!(pool.restarts(), 0);
}

#[test]
fn dead_worker_slot_is_respawned_and_serves_later_jobs() {
    // Kill slot 1 (which runs chunk 2) on the first task it receives.
    let _armed = arm(FailPlan::new(7).fail_key_nth("pool/worker", 1, &[0]));
    let pool = WorkerPool::new(3);

    let result = catch_unwind(AssertUnwindSafe(|| pool.run(ranges(4, 1), |j, _| j)));
    let payload = result.expect_err("the lost chunk must fail the job");
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        message.contains("died before running its chunk"),
        "expected the synthesized lost-chunk panic, got: {message}"
    );

    // The next dispatch to the dead slot discovers the disconnect,
    // respawns the thread, and the job completes bit-identically to a
    // healthy pool.
    let out = pool.run(ranges(4, 1), |j, _| j + 10);
    assert_eq!(out, vec![10, 11, 12, 13]);
    assert_eq!(pool.restarts(), 1, "exactly one slot respawn");
    assert_eq!(pool.width(), 3, "width unchanged by the respawn");

    // And it stays serviceable across further jobs without respawning
    // again (the nth schedule targeted only the slot's first arrival).
    for round in 0..3 {
        let out = pool.run(ranges(4, 2), move |j, _| j * 100 + round);
        assert_eq!(out.len(), 4);
    }
    assert_eq!(pool.restarts(), 1);
}

#[test]
fn join_fault_surfaces_after_all_chunks_reported() {
    let _armed = arm(FailPlan::new(9).fail_nth("pool/join", &[0]));
    let pool = WorkerPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| pool.run(ranges(3, 1), |j, _| j)));
    assert!(result.is_err());
    // All workers had already reported when the join fault fired, so the
    // pool is fully consistent afterwards.
    let out = pool.run(ranges(3, 1), |j, _| j);
    assert_eq!(out, vec![0, 1, 2]);
    assert_eq!(pool.restarts(), 0);
}

#[test]
fn sampling_batch_fault_is_contained_like_a_real_batch_crash() {
    use flowmax_graph::{EdgeSubset, GraphBuilder, Probability, VertexId, Weight};
    use flowmax_sampling::{ParallelEstimator, SeedSequence};

    // A 40-vertex ring with chords, every edge p=0.5, sampled over 2048
    // worlds: four 512-world blocks.
    let mut b = GraphBuilder::new();
    b.add_vertices(40, Weight::ONE);
    let half = Probability::new(0.5).expect("0.5 is a probability");
    for v in 0..40u32 {
        b.add_edge(VertexId(v), VertexId((v + 1) % 40), half)
            .expect("ring edge");
        if v % 3 == 0 {
            b.add_edge(VertexId(v), VertexId((v + 7) % 40), half)
                .expect("chord edge");
        }
    }
    let graph = b.build();
    let active = EdgeSubset::full(&graph);
    let query = VertexId(3);
    let seq = SeedSequence::new(42);

    // Baseline estimate with no faults armed.
    {
        let _quiet = arm(FailPlan::new(0));
        let est = ParallelEstimator::new(2);
        let clean = est.sample_reachability(&graph, &active, query, 2048, &seq);

        // Fault the second sampled block: the injected panic unwinds
        // through the pool's task containment and fails the estimation.
        faults::install(FailPlan::new(3).fail_key_nth("sampling/batch", 1, &[0]));
        let result = catch_unwind(AssertUnwindSafe(|| {
            est.sample_reachability(&graph, &active, query, 2048, &seq)
        }));
        assert!(result.is_err(), "the faulted batch must fail the job");

        // Disarmed, the same estimation replays bit-identically.
        faults::clear();
        let replay = est.sample_reachability(&graph, &active, query, 2048, &seq);
        assert_eq!(clean, replay);
    }
}
