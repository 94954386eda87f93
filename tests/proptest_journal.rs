//! Property-based tests of the F-tree undo journal: `apply` → `rollback`
//! must restore the tree **bit-identically** (structure, cached estimates,
//! local-id maps, arena/free-list layout, version numbers) over random
//! graphs and insertion orders, and the journal-based probe engine must
//! score every candidate exactly like the pinned clone-based reference.

use flowmax::core::{
    greedy_select, EstimateProvider, EstimatorConfig, FTree, GreedyConfig, NoObserver, ProbeEngine,
    ProbePlan, RunControl, SamplingProvider,
};
use flowmax::graph::{EdgeId, GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};
use proptest::prelude::*;

/// A random small uncertain graph: a spanning tree over `n` vertices plus
/// `extra` chords, with arbitrary probabilities and small integer weights
/// (the same shape `proptest_ftree` exercises).
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    tree_parents: Vec<usize>,
    chords: Vec<(usize, usize)>,
    probs: Vec<f64>,
    weights: Vec<u8>,
    order_seed: Vec<usize>,
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
        let order = proptest::collection::vec(0usize..64, max_edges);
        (Just(n), tree, chords, probs, weights, order).prop_map(
            |(n, tree_parents, chords, probs, weights, order_seed)| GraphSpec {
                n,
                tree_parents,
                chords,
                probs,
                weights,
                order_seed,
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
    let prob = |pi: &mut usize| {
        let p = spec.probs[*pi % spec.probs.len()];
        *pi += 1;
        Probability::new(p).unwrap()
    };
    for (i, &parent) in spec.tree_parents.iter().enumerate() {
        let child = i + 1;
        b.add_edge(
            VertexId::from_index(child),
            VertexId::from_index(parent),
            prob(&mut pi),
        )
        .unwrap();
    }
    for &(u, v) in &spec.chords {
        let (u, v) = (u % spec.n, v % spec.n);
        if u != v && !b.has_edge(VertexId::from_index(u), VertexId::from_index(v)) {
            b.add_edge(
                VertexId::from_index(u),
                VertexId::from_index(v),
                prob(&mut pi),
            )
            .unwrap();
        }
    }
    b.build()
}

/// Insertable candidates of `tree`: unselected edges with at least one
/// endpoint connected to `Q`.
fn candidates(g: &ProbabilisticGraph, tree: &FTree) -> Vec<EdgeId> {
    g.edge_ids()
        .filter(|&e| {
            if tree.selected_edges().contains(e) {
                return false;
            }
            let (a, b) = g.endpoints(e);
            tree.contains_vertex(a) || tree.contains_vertex(b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline journal property: at every step of a random insertion
    /// sequence, applying **any** insertable candidate and rolling it back
    /// leaves the tree exactly equal (estimates, versions, arena layout and
    /// free-list order included) — and still passing the full invariant
    /// checker.
    #[test]
    fn apply_rollback_restores_exactly(spec in graph_spec()) {
        let g = build(&spec);
        let query = VertexId(0);
        let mut tree = FTree::new(&g, query);
        let mut provider = SamplingProvider::new(EstimatorConfig::exact(), 0);
        let mut step = 0usize;
        loop {
            for e in candidates(&g, &tree) {
                let before = tree.clone();
                let (_, journal) = tree.apply(&g, e, &mut provider).unwrap();
                prop_assert!(tree.selected_edges().contains(e));
                tree.rollback(journal);
                prop_assert!(tree == before,
                    "rollback of {e:?} did not restore the tree exactly");
                tree.validate(&g).expect("restored tree must stay valid");
            }
            let cands = candidates(&g, &tree);
            if cands.is_empty() {
                break;
            }
            let pick = spec.order_seed[step % spec.order_seed.len()] % cands.len();
            step += 1;
            tree.insert_edge(&g, cands[pick], &mut provider).unwrap();
        }
    }

    /// Journal-based probe plans score **identically** to the pinned
    /// clone-based reference, edge for edge: same flow, same bounds, same
    /// case, same sampling cost — under both exact and Monte-Carlo
    /// estimates (paired providers on the same seed keep the sample
    /// streams aligned between the two engines).
    #[test]
    fn journal_probe_scores_equal_clone_probe_scores(spec in graph_spec()) {
        let g = build(&spec);
        let query = VertexId(0);
        for mc in [false, true] {
            let config = if mc {
                EstimatorConfig::monte_carlo(128)
            } else {
                EstimatorConfig::exact()
            };
            let mut grow = SamplingProvider::new(config, 0);
            let mut journal_provider = SamplingProvider::new(config, 9);
            let mut clone_provider = SamplingProvider::new(config, 9);
            let mut tree = FTree::new(&g, query);
            let mut step = 0usize;
            loop {
                let base = tree.expected_flow(&g, false);
                for e in candidates(&g, &tree) {
                    let journal_outcome =
                        match tree.probe_plan(&g, e, base).unwrap() {
                            ProbePlan::Analytic(outcome) => outcome,
                            ProbePlan::Sampled(mut plan) => {
                                let est = journal_provider.estimate(plan.snapshot());
                                plan.score(&mut tree, &g, false, 0.01, est)
                            }
                        };
                    let clone_outcome =
                        match tree.probe_plan_cloning(&g, e, base).unwrap() {
                            ProbePlan::Analytic(outcome) => outcome,
                            ProbePlan::Sampled(mut plan) => {
                                let est = clone_provider.estimate(plan.snapshot());
                                plan.score(&mut tree, &g, false, 0.01, est)
                            }
                        };
                    prop_assert_eq!(journal_outcome.case, clone_outcome.case, "case of {:?}", e);
                    prop_assert_eq!(
                        journal_outcome.sampling_cost_edges,
                        clone_outcome.sampling_cost_edges
                    );
                    // Bit-identical, not approximately equal: both engines
                    // must evaluate the same structure under the same
                    // estimate.
                    prop_assert_eq!(journal_outcome.flow.to_bits(), clone_outcome.flow.to_bits(),
                        "flow of {:?}: {} vs {}", e, journal_outcome.flow, clone_outcome.flow);
                    prop_assert_eq!(journal_outcome.lower.to_bits(), clone_outcome.lower.to_bits());
                    prop_assert_eq!(journal_outcome.upper.to_bits(), clone_outcome.upper.to_bits());
                    // Probing must leave the tree's flow untouched.
                    prop_assert_eq!(tree.expected_flow(&g, false).to_bits(), base.to_bits());
                }
                let cands = candidates(&g, &tree);
                if cands.is_empty() {
                    break;
                }
                let pick = spec.order_seed[step % spec.order_seed.len()] % cands.len();
                step += 1;
                tree.insert_edge(&g, cands[pick], &mut grow).unwrap();
            }
        }
    }

    /// End to end: greedy selections with the default engine are
    /// bit-identical to the clone-based reference engine across the
    /// heuristic stacks (the clone path *is* the pre-journal code, so this
    /// pins the whole selection behaviour to it).
    #[test]
    fn selections_are_bit_identical_to_the_cloning_reference(spec in graph_spec()) {
        let g = build(&spec);
        let query = VertexId(0);
        let configs = [
            GreedyConfig::ft(6, 11),
            GreedyConfig::ft(6, 11).with_memo(),
            GreedyConfig::ft(6, 11).with_memo().with_ci(),
            GreedyConfig::ft(6, 11).with_memo().with_ci().with_ds(),
        ];
        for cfg in configs {
            let unlimited = RunControl::unlimited();
            let journal_run = greedy_select(&g, query, &cfg, &unlimited, &mut NoObserver);
            let clone_run = greedy_select(
                &g,
                query,
                &cfg.with_probe_engine(ProbeEngine::CloneReference),
                &unlimited,
                &mut NoObserver,
            );
            prop_assert_eq!(&journal_run.selected, &clone_run.selected);
            prop_assert_eq!(journal_run.final_flow.to_bits(), clone_run.final_flow.to_bits());
            prop_assert_eq!(&journal_run.flow_trace, &clone_run.flow_trace);
        }
    }
}
