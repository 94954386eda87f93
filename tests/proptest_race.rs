//! Property tests for the batched candidate-racing engine (§6.3 + §6.4):
//! on random small graphs, the racing greedy — confidence-interval pruning,
//! delayed sampling, Monte-Carlo estimates — must pick an edge whose *true*
//! (exact-enumeration) flow is within the race's confidence tolerance of
//! the unpruned exhaustive greedy pick, and the pick must be bit-identical
//! at every thread count.

use flowmax::core::{
    evaluate_selection, greedy_select, EstimatorConfig, GreedyConfig, NoObserver, RunControl,
    SelectionOutcome,
};
use flowmax::graph::{GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};
use flowmax::sampling::z_for_alpha;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SmallGraph {
    n: usize,
    tree_parents: Vec<usize>,
    chords: Vec<(usize, usize)>,
    probs: Vec<f64>,
    weights: Vec<f64>,
    seed: u64,
}

fn small_graph() -> impl Strategy<Value = SmallGraph> {
    (4usize..9).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0usize..n, n - 1).prop_map(move |raw| {
            raw.iter()
                .enumerate()
                .map(|(i, &r)| r % (i + 1))
                .collect::<Vec<_>>()
        });
        let chords = proptest::collection::vec((0usize..n, 0usize..n), 1..5);
        let probs = proptest::collection::vec(0.1f64..=0.95, (n - 1) + 5);
        let weights = proptest::collection::vec(0.5f64..10.0, n);
        let seed = 0u64..1_000;
        (Just(n), tree, chords, probs, weights, seed).prop_map(
            |(n, tree_parents, chords, probs, weights, seed)| SmallGraph {
                n,
                tree_parents,
                chords,
                probs,
                weights,
                seed,
            },
        )
    })
}

fn build(spec: &SmallGraph) -> ProbabilisticGraph {
    let mut b = GraphBuilder::new();
    b.add_vertex(Weight::ZERO); // the query vertex
    for w in &spec.weights[1..] {
        b.add_vertex(Weight::new(*w).unwrap());
    }
    let mut pi = 0;
    let mut next_prob = || {
        let p = spec.probs[pi % spec.probs.len()];
        pi += 1;
        Probability::new(p).unwrap()
    };
    for (i, &parent) in spec.tree_parents.iter().enumerate() {
        b.add_edge(
            VertexId::from_index(i + 1),
            VertexId::from_index(parent),
            next_prob(),
        )
        .unwrap();
    }
    for &(u, v) in &spec.chords {
        let (u, v) = (u % spec.n, v % spec.n);
        if u != v && !b.has_edge(VertexId::from_index(u), VertexId::from_index(v)) {
            b.add_edge(
                VertexId::from_index(u),
                VertexId::from_index(v),
                next_prob(),
            )
            .unwrap();
        }
    }
    b.build()
}

/// True expected flow of a selection, by exact enumeration (small graphs
/// never exceed the cap).
fn exact_flow(g: &ProbabilisticGraph, selection: &[flowmax::graph::EdgeId]) -> f64 {
    evaluate_selection(
        g,
        VertexId(0),
        selection,
        EstimatorConfig::exact(),
        false,
        0,
        1,
    )
}

fn select(g: &ProbabilisticGraph, cfg: &GreedyConfig) -> SelectionOutcome {
    let control = RunControl::unlimited();
    greedy_select(g, VertexId(0), cfg, &control, &mut NoObserver)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The racing pick is never worse than the exhaustive pick by more than
    /// the race's own confidence tolerance, and is thread-count invariant.
    #[test]
    fn racing_pick_within_ci_tolerance_of_exhaustive(spec in small_graph()) {
        let g = build(&spec);
        // The unpruned, exhaustive baseline: every candidate probed with
        // exact enumeration — the noise-free greedy pick.
        let mut exhaustive_cfg = GreedyConfig::ft(1, spec.seed);
        exhaustive_cfg.exact_edge_cap = 24;
        let exhaustive = select(&g, &exhaustive_cfg);
        if exhaustive.selected.is_empty() {
            // The query vertex is isolated; nothing to compare.
            return;
        }

        // The racing greedy: CI pruning + delayed sampling on Monte-Carlo
        // estimates (the full FT+M+CI+DS stack).
        let mut racing_cfg = GreedyConfig::ft(1, spec.seed).with_memo().with_ci().with_ds();
        racing_cfg.samples = 500; // racing quantizes up to ≥ 512-world finals
        let racing = select(&g, &racing_cfg.with_threads(1));
        prop_assert_eq!(racing.selected.len(), 1);

        // Bit-identical selection at every thread count.
        for threads in [2usize, 8] {
            let t = select(&g, &racing_cfg.with_threads(threads));
            prop_assert_eq!(&t.selected, &racing.selected, "threads = {}", threads);
            prop_assert_eq!(t.final_flow, racing.final_flow, "threads = {}", threads);
        }

        // CI tolerance: a surviving estimate has ≥ 512 worlds, so each
        // vertex's reach is within z·½/√512 of truth at 1 − α; summed over
        // the graph's weight and doubled for the two compared estimates.
        let total_weight: f64 = g.total_weight();
        let tol = 2.0 * z_for_alpha(0.01) * 0.5 / (512f64).sqrt() * total_weight + 1e-9;
        let racing_flow = exact_flow(&g, &racing.selected);
        let exhaustive_flow = exact_flow(&g, &exhaustive.selected);
        prop_assert!(
            racing_flow >= exhaustive_flow - tol,
            "racing pick {:?} (true flow {}) trails exhaustive pick {:?} (true flow {}) beyond tol {}",
            racing.selected, racing_flow, exhaustive.selected, exhaustive_flow, tol
        );
    }
}
