//! Property tests for the degraded-answer contract: a run stopped early —
//! by a step-budget deadline or a cancellation token — must return a
//! selection bit-identical to the same-seed uncancelled run's prefix
//! (`selection_at(j)`), at every thread count, for the greedy stacks and
//! both §7.2 baselines. Degradation moves the stop point; it never changes
//! what was selected up to it.

use flowmax::core::{Algorithm, CancelToken, Deadline, RunControl, Session, StopCause};
use flowmax::datasets::{suggest_query, ErdosConfig};
use flowmax::graph::ProbabilisticGraph;
use proptest::prelude::*;

const BUDGET: usize = 6;

fn graph(seed: u64) -> ProbabilisticGraph {
    ErdosConfig::paper(60, 4.0).generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Deadline::steps(j)` yields exactly `selection_at(j)` of the
    /// uncontrolled same-seed run — at every thread count, all compared
    /// against a single-threaded reference.
    #[test]
    fn step_budget_stop_is_bit_identical_to_the_full_runs_prefix(
        (graph_seed, session_seed, j, threads_idx)
            in (0u64..200, 0u64..200, 0usize..=BUDGET, 0usize..3)
    ) {
        let g = graph(graph_seed);
        let q = suggest_query(&g);
        for algorithm in [Algorithm::FtMCiDs, Algorithm::Naive, Algorithm::Dijkstra] {
            let reference = Session::new(&g).with_seed(session_seed).with_threads(1);
            let full = reference
                .query(q).unwrap()
                .algorithm(algorithm)
                .budget(BUDGET)
                .samples(200)
                .run()
                .unwrap();
            prop_assert!(full.stopped.is_none());

            let threads = [1usize, 2, 8][threads_idx];
            let session = Session::new(&g)
                .with_seed(session_seed)
                .with_threads(threads);
            let control = RunControl::unlimited().with_deadline(Deadline::steps(j));
            let degraded = session
                .query(q).unwrap()
                .algorithm(algorithm)
                .budget(BUDGET)
                .samples(200)
                .control(control)
                .run()
                .unwrap();

            let expected_len = j.min(full.selected.len());
            prop_assert_eq!(
                degraded.selected.as_slice(),
                full.selection_at(expected_len),
                "threads={} j={}", threads, j
            );
            if j < full.selected.len() {
                prop_assert_eq!(degraded.stopped, Some(StopCause::StepBudget));
                prop_assert_eq!(
                    degraded.flow.to_bits(),
                    full.flow_at(j).to_bits(),
                    "degraded flow must be the prefix oracle's, bit for bit"
                );
            } else {
                // The budget ran out before the deadline did: a full answer.
                prop_assert!(degraded.stopped.is_none());
                prop_assert_eq!(degraded.flow.to_bits(), full.flow.to_bits());
            }
        }
    }

    /// Cancelling from the step observer at iteration `j` stops the run
    /// right after that commit: the selection is `selection_at(j + 1)` of
    /// the uncancelled run, bit for bit, at every thread count.
    #[test]
    fn cancelling_at_iteration_j_keeps_the_committed_prefix(
        (graph_seed, session_seed, j, threads_idx)
            in (0u64..200, 0u64..200, 0usize..BUDGET, 0usize..3)
    ) {
        let g = graph(graph_seed);
        let q = suggest_query(&g);
        for algorithm in [Algorithm::FtM, Algorithm::Naive, Algorithm::Dijkstra] {
            let reference = Session::new(&g).with_seed(session_seed).with_threads(1);
            let full = reference
                .query(q).unwrap()
                .algorithm(algorithm)
                .budget(BUDGET)
                .samples(200)
                .run()
                .unwrap();

            let threads = [1usize, 2, 8][threads_idx];
            let session = Session::new(&g).with_seed(session_seed).with_threads(threads);
            let token = CancelToken::new();
            let control = RunControl::unlimited().with_cancel(token.clone());
            let trigger = token.clone();
            let cancelled = session
                .query(q).unwrap()
                .algorithm(algorithm)
                .budget(BUDGET)
                .samples(200)
                .control(control)
                .run_with(&mut |step: &flowmax::core::SelectionStep| {
                    if step.iteration == j {
                        trigger.cancel();
                    }
                })
                .unwrap();

            // The cancel lands during iteration j's commit callback, so the
            // run keeps exactly j + 1 edges (or everything, if it finished
            // before reaching iteration j).
            let expected_len = (j + 1).min(full.selected.len());
            prop_assert_eq!(
                cancelled.selected.as_slice(),
                full.selection_at(expected_len),
                "threads={} j={}", threads, j
            );
            if expected_len < full.selected.len() {
                prop_assert_eq!(cancelled.stopped, Some(StopCause::Cancelled));
            }
        }
    }

    /// A token cancelled before submission stops the run at step zero:
    /// an empty — but valid, and deterministic — degraded answer.
    #[test]
    fn pre_cancelled_runs_return_an_empty_prefix(
        (graph_seed, session_seed) in (0u64..200, 0u64..200)
    ) {
        let g = graph(graph_seed);
        let q = suggest_query(&g);
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::unlimited().with_cancel(token);
        let run = Session::new(&g)
            .with_seed(session_seed)
            .query(q).unwrap()
            .algorithm(Algorithm::FtMCiDs)
            .budget(BUDGET)
            .samples(200)
            .control(control)
            .run()
            .unwrap();
        prop_assert!(run.selected.is_empty());
        prop_assert_eq!(run.stopped, Some(StopCause::Cancelled));
    }
}
