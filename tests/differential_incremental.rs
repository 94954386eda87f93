//! Differential pinning of the incremental greedy engine (the `O(touched)`
//! iteration) against its oracle over random graphs, budgets and seeds.
//!
//! Two engines run every selection:
//!
//! * **incremental** — `base + Δ(touched)` flow accounting, journalled
//!   `apply` commits, the versioned candidate bitmap (the default);
//! * **clone reference** — `ProbeEngine::CloneReference`: one F-tree
//!   clone per structural probe, full-tree flow re-aggregation and
//!   `insert_edge` commits.
//!
//! Both must agree **bit for bit** — same selections, same per-step flows,
//! same per-step memoization-hit counts — under every heuristic stack and
//! at 1 and 8 sampling threads. Any divergence in the touched-set flow
//! delta, the journalled commit, or the bitmap-maintained probe pool shows up
//! here as a first-divergence step report.

use flowmax::core::{greedy_select, GreedyConfig, ProbeEngine, RunControl, SelectionStep};
use flowmax::graph::{GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};
use proptest::prelude::*;

/// A random small uncertain graph: a spanning tree over `n` vertices plus
/// `extra` chords (the same shape the journal proptests exercise).
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    tree_parents: Vec<usize>,
    chords: Vec<(usize, usize)>,
    probs: Vec<f64>,
    weights: Vec<u8>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (3usize..9).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0usize..n, n - 1).prop_map(move |raw| {
            raw.iter()
                .enumerate()
                .map(|(i, &r)| r % (i + 1))
                .collect::<Vec<_>>()
        });
        let chords = proptest::collection::vec((0usize..n, 0usize..n), 0..5);
        let max_edges = (n - 1) + 5;
        let probs = proptest::collection::vec(0.05f64..=1.0, max_edges);
        let weights = proptest::collection::vec(0u8..10, n);
        (Just(n), tree, chords, probs, weights).prop_map(
            |(n, tree_parents, chords, probs, weights)| GraphSpec {
                n,
                tree_parents,
                chords,
                probs,
                weights,
            },
        )
    })
}

fn build(spec: &GraphSpec) -> ProbabilisticGraph {
    let mut b = GraphBuilder::new();
    for i in 0..spec.n {
        b.add_vertex(Weight::new(spec.weights[i] as f64).unwrap());
    }
    let mut pi = 0usize;
    let mut prob = || {
        let p = spec.probs[pi % spec.probs.len()];
        pi += 1;
        Probability::new(p).unwrap()
    };
    for (i, &parent) in spec.tree_parents.iter().enumerate() {
        b.add_edge(
            VertexId::from_index(i + 1),
            VertexId::from_index(parent),
            prob(),
        )
        .unwrap();
    }
    for &(u, v) in &spec.chords {
        let (u, v) = (u % spec.n, v % spec.n);
        if u != v && !b.has_edge(VertexId::from_index(u), VertexId::from_index(v)) {
            b.add_edge(VertexId::from_index(u), VertexId::from_index(v), prob())
                .unwrap();
        }
    }
    b.build()
}

/// The full observable trace of one selection: everything the engines must
/// agree on, captured per committed step so a mismatch names its step.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// Committed edge ids, in commit order.
    selected: Vec<u32>,
    /// Per-step cumulative flow, as exact bits.
    flow_bits: Vec<u64>,
    /// Per-step §6.2 memoization hits (probe cache hits + resumed racing
    /// streams) — a commit must take its memo hit exactly where the
    /// reference engine's `insert_edge` does.
    memo_hits: Vec<u64>,
    /// Per-step probe evaluations.
    probes: Vec<u64>,
    /// The selection's own final flow estimate, as exact bits.
    final_bits: u64,
}

fn trace(graph: &ProbabilisticGraph, config: &GreedyConfig) -> Trace {
    let mut steps: Vec<SelectionStep> = Vec::new();
    let outcome = greedy_select(
        graph,
        VertexId(0),
        config,
        &RunControl::unlimited(),
        &mut |s: &SelectionStep| steps.push(*s),
    );
    Trace {
        selected: steps.iter().map(|s| s.edge.0).collect(),
        flow_bits: steps.iter().map(|s| s.flow.to_bits()).collect(),
        memo_hits: steps.iter().map(|s| s.memo_hits).collect(),
        probes: steps.iter().map(|s| s.probes).collect(),
        final_bits: outcome.final_flow.to_bits(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline differential property: for every heuristic stack and
    /// both thread counts, the incremental engine's full trace (selections,
    /// per-step flow bits, per-step memo hits, probe counts) is identical
    /// to the clone reference's.
    #[test]
    fn engines_agree_bit_for_bit(
        (spec, budget, seed) in (graph_spec(), 1usize..7, 0u64..1_000_000)
    ) {
        let g = build(&spec);
        let stacks = [
            GreedyConfig::ft(budget, 48),
            GreedyConfig::ft(budget, 48).with_memo(),
            GreedyConfig::ft(budget, 48).with_memo().with_ci(),
            GreedyConfig::ft(budget, 48).with_memo().with_ds(),
            GreedyConfig::ft(budget, 48).with_memo().with_ci().with_ds(),
        ];
        for stack in stacks {
            for threads in [1usize, 8] {
                let base = GreedyConfig { seed, threads, ..stack };
                let incremental = trace(&g, &base);
                let reference =
                    trace(&g, &base.with_probe_engine(ProbeEngine::CloneReference));
                prop_assert_eq!(
                    &incremental, &reference,
                    "incremental diverged from clone-reference (threads={})",
                    threads
                );
            }
        }
    }

    /// Thread invariance of the incremental engine on its own: the trace at
    /// 8 sampling threads is bit-identical to the single-threaded one
    /// (commits must not perturb the racing seed streams).
    #[test]
    fn incremental_traces_are_thread_invariant(
        (spec, budget, seed) in (graph_spec(), 1usize..7, 0u64..1_000_000)
    ) {
        let g = build(&spec);
        let base = GreedyConfig::ft(budget, 64).with_memo().with_ci().with_ds();
        let solo = trace(&g, &GreedyConfig { seed, threads: 1, ..base });
        let wide = trace(&g, &GreedyConfig { seed, threads: 8, ..base });
        prop_assert_eq!(solo, wide);
    }
}
