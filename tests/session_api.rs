//! The session API's contract tests: the anytime prefix property (one run
//! at budget `K` answers every budget `≤ K` exactly as independent runs
//! would), `run_many` bit-identity at every thread count, and streaming
//! step events.

use std::io::Write;

use flowmax::core::{
    Algorithm, CancelToken, RunControl, SelectionStep, Session, SolveRun, StopCause,
};
use flowmax::datasets::{suggest_query, ErdosConfig, PartitionedConfig};
use flowmax::graph::{ProbabilisticGraph, VertexId};

fn erdos(seed: u64) -> ProbabilisticGraph {
    ErdosConfig::paper(120, 5.0).generate(seed)
}

/// Runs `algorithm` at `budget` in a fresh session (same seed every time).
fn run_at(
    g: &ProbabilisticGraph,
    q: VertexId,
    algorithm: Algorithm,
    budget: usize,
    exact_cap: usize,
) -> SolveRun<'_> {
    Session::new(g)
        .with_seed(9)
        .query(q)
        .unwrap()
        .algorithm(algorithm)
        .budget(budget)
        .samples(200)
        .exact_edge_cap(exact_cap)
        .run()
        .unwrap()
}

/// The anytime prefix property, for both noise-free (exact component
/// estimation) and sampled configs: the selection at budget `k` is a
/// prefix of the selection at budget `k + 1`, and `flow_at(j)` of the
/// budget-`K` run is bit-identical to the `flow` of an independent run at
/// budget `j`, for every `j ≤ K`.
#[test]
fn anytime_prefix_property_across_budgets() {
    let g = erdos(31);
    let q = suggest_query(&g);
    let k = 6;
    for (algorithm, exact_cap) in [
        (Algorithm::FtM, 24),    // deterministic: exact component estimates
        (Algorithm::FtM, 0),     // paper setting: pure Monte-Carlo
        (Algorithm::FtMCiDs, 0), // full heuristic stack, racing engine
        (Algorithm::Dijkstra, 0),
        (Algorithm::Naive, 0),
    ] {
        let full = run_at(&g, q, algorithm, k, exact_cap);
        assert_eq!(full.selected.len(), k, "{algorithm:?} cap={exact_cap}");
        for j in 1..=k {
            let partial = run_at(&g, q, algorithm, j, exact_cap);
            assert_eq!(
                partial.selected,
                full.selection_at(j),
                "{algorithm:?} cap={exact_cap}: budget-{j} selection is not a prefix"
            );
            assert_eq!(
                partial.flow,
                full.flow_at(j),
                "{algorithm:?} cap={exact_cap}: flow_at({j}) differs from an independent run"
            );
        }
        // flow_at is monotone in budget under exact evaluation-free noise
        // margins: larger prefixes never lose flow (tiny slack for the
        // sampled evaluator's per-prefix re-estimation).
        for j in 1..k {
            assert!(
                full.flow_at(j + 1) >= full.flow_at(j) - 0.05 * full.flow.abs().max(1.0),
                "{algorithm:?}: flow_at collapsed between budgets {j} and {}",
                j + 1
            );
        }
    }
}

/// One step per selected edge, streamed in commit order, with cumulative
/// flows matching the run's own final estimate.
#[test]
fn steps_stream_in_commit_order_with_consistent_flows() {
    let g = erdos(33);
    let q = suggest_query(&g);
    let session = Session::new(&g).with_seed(5);
    let mut streamed: Vec<SelectionStep> = Vec::new();
    let run = session
        .query(q)
        .unwrap()
        .algorithm(Algorithm::FtMCiDs)
        .budget(8)
        .samples(200)
        .run_with(&mut |s: &SelectionStep| streamed.push(*s))
        .unwrap();
    assert_eq!(streamed.len(), run.selected.len());
    assert_eq!(run.steps, streamed);
    let mut gain_sum = 0.0;
    for (i, step) in run.steps.iter().enumerate() {
        assert_eq!(step.iteration, i);
        assert_eq!(step.edge, run.selected[i]);
        assert!(step.pool >= 1);
        gain_sum += step.gain;
    }
    let last = run.steps.last().unwrap();
    assert_eq!(last.flow, run.algorithm_flow);
    assert!(
        (gain_sum - run.algorithm_flow).abs() < 1e-6 * run.algorithm_flow.abs().max(1.0),
        "marginal gains must telescope to the final flow ({gain_sum} vs {})",
        run.algorithm_flow
    );
    // An unobserved run is bit-identical and carries the same steps.
    let silent = session
        .query(q)
        .unwrap()
        .algorithm(Algorithm::FtMCiDs)
        .budget(8)
        .samples(200)
        .run()
        .unwrap();
    assert_eq!(silent.selected, run.selected);
    assert_eq!(silent.steps, run.steps);
    assert_eq!(silent.flow, run.flow);
}

/// `run_many` over repeated queries is bit-identical to per-query runs at
/// every thread count (the acceptance criterion for the batch mode).
#[test]
fn run_many_is_bit_identical_to_solo_runs_at_every_thread_count() {
    let g = PartitionedConfig::paper(150, 6).generate(13);
    let q = suggest_query(&g);
    // Reference: solo runs, single-threaded.
    let reference = Session::new(&g).with_threads(1).with_seed(21);
    let solo: Vec<_> = [Algorithm::FtMCiDs, Algorithm::FtM, Algorithm::FtMCiDs]
        .iter()
        .map(|&alg| {
            reference
                .query(q)
                .unwrap()
                .algorithm(alg)
                .budget(5)
                .samples(150)
                .run()
                .unwrap()
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let session = Session::new(&g).with_threads(threads).with_seed(21);
        let specs: Vec<_> = [Algorithm::FtMCiDs, Algorithm::FtM, Algorithm::FtMCiDs]
            .iter()
            .map(|&alg| {
                session
                    .query(q)
                    .unwrap()
                    .algorithm(alg)
                    .budget(5)
                    .samples(150)
                    .spec()
            })
            .collect();
        let runs = session.run_many(&specs, &|_, _| {}).unwrap();
        assert_eq!(runs.len(), solo.len());
        for (i, (batch, reference)) in runs.iter().zip(&solo).enumerate() {
            assert_eq!(batch.selected, reference.selected, "threads={threads} #{i}");
            assert_eq!(batch.flow, reference.flow, "threads={threads} #{i}");
            assert_eq!(
                batch.algorithm_flow, reference.algorithm_flow,
                "threads={threads} #{i}"
            );
            assert_eq!(batch.steps, reference.steps, "threads={threads} #{i}");
        }
        // Repeated identical specs agree with each other bit for bit.
        assert_eq!(runs[0].selected, runs[2].selected, "threads={threads}");
        assert_eq!(runs[0].flow, runs[2].flow, "threads={threads}");
    }
}

/// `flowmax solve --trace` cancels the run when a step's line cannot be
/// written (a closed stdout); Naive checks the token between iterations
/// too, so a run whose first write fails stops after that one step.
#[test]
fn write_error_cancel_stops_a_naive_run_after_one_step() {
    let g = erdos(33);
    let q = suggest_query(&g);
    let cancel = CancelToken::new();
    let mut closed: &mut [u8] = &mut []; // every write fails
    let run = Session::new(&g)
        .with_seed(5)
        .query(q)
        .unwrap()
        .algorithm(Algorithm::Naive)
        .budget(20)
        .samples(100)
        .control(RunControl::unlimited().with_cancel(cancel.clone()))
        .run_with(&mut |step: &SelectionStep| {
            if writeln!(closed, "iter {}: edge {}", step.iteration, step.edge).is_err() {
                cancel.cancel();
            }
        })
        .unwrap();
    assert_eq!(run.stopped, Some(StopCause::Cancelled));
    assert_eq!(run.selected.len(), 1);
}

/// Satellite of the persistent-pool PR, at the session-API level: batches
/// must be bit-identical on a fresh process-wide pool, after the pool and
/// every worker's warm scratch arenas served 100 unrelated jobs, and at
/// thread counts 1 vs 8.
#[test]
fn warm_pool_and_thread_count_never_leak_into_run_many() {
    let g = erdos(41);
    let q = suggest_query(&g);
    let batch = |threads: usize| {
        let session = Session::new(&g).with_threads(threads).with_seed(17);
        let specs: Vec<_> = (1..=4)
            .map(|budget| {
                session
                    .query(q)
                    .unwrap()
                    .algorithm(Algorithm::FtMCiDs)
                    .budget(budget)
                    .samples(150)
                    .spec()
            })
            .collect();
        session
            .run_many(&specs, &|_, _| {})
            .unwrap()
            .into_iter()
            .map(|r| (r.selected.clone(), r.flow, r.algorithm_flow))
            .collect::<Vec<_>>()
    };
    let fresh = batch(8);

    // 100 unrelated jobs on a differently-shaped graph cycle the shared
    // pool's workers through foreign scratch shapes before the replay.
    let other = PartitionedConfig::paper(90, 5).generate(3);
    let oq = suggest_query(&other);
    let warm = Session::new(&other).with_threads(8).with_seed(77);
    let warmup: Vec<_> = (0..100)
        .map(|i| {
            warm.query(oq)
                .unwrap()
                .budget(1 + i % 3)
                .samples(80)
                .seed(i as u64)
                .spec()
        })
        .collect();
    assert_eq!(warm.run_many(&warmup, &|_, _| {}).unwrap().len(), 100);

    assert_eq!(batch(8), fresh, "warm pool changed run_many results");
    assert_eq!(batch(1), fresh, "thread count leaked into results");
}
