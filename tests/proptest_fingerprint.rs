//! Property-based pinning of the commutative component fingerprint.
//!
//! [`ComponentGraph::fingerprint`] replaced a sort-based identity key with
//! a commutative running hash (articulation term + an order-independent sum
//! of salted edge terms) so the §6.2 memo and the racing engine's
//! per-component seed streams get O(1) keys. These tests pin it to the
//! sort-based reference's *equivalence classes*: over a corpus of
//! components collected from random apply/rollback/commit interleavings,
//! two snapshots hash equal **iff** their `(articulation, sorted edge set)`
//! keys are equal — i.e. the hash is order-independent and collision-free
//! on everything the engine actually produces. The fingerprint is a pure
//! function of the component (no RNG, no thread state), so equal classes
//! here imply the memo/seed keys are identical at any `FLOWMAX_THREADS`;
//! the differential harness separately re-checks the end-to-end traces at
//! 1 and 8 threads. The build-free `ComponentGraph::fingerprint_of` is
//! pinned to the built snapshots' fingerprint under any edge order.

use std::collections::HashMap;

use flowmax::core::{EstimatorConfig, FTree, ProbePlan, SamplingProvider};
use flowmax::graph::{EdgeId, GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};
use flowmax::sampling::ComponentGraph;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    tree_parents: Vec<usize>,
    chords: Vec<(usize, usize)>,
    probs: Vec<f64>,
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
        let chords = proptest::collection::vec((0usize..n, 0usize..n), 0..6);
        let max_edges = (n - 1) + 6;
        let probs = proptest::collection::vec(0.05f64..=1.0, max_edges);
        let order = proptest::collection::vec(0usize..64, max_edges);
        (Just(n), tree, chords, probs, order).prop_map(
            |(n, tree_parents, chords, probs, order_seed)| GraphSpec {
                n,
                tree_parents,
                chords,
                probs,
                order_seed,
            },
        )
    })
}

fn build(spec: &GraphSpec) -> ProbabilisticGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..spec.n {
        b.add_vertex(Weight::ONE);
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

/// The sort-based reference identity the commutative hash replaced.
fn sort_key(snapshot: &ComponentGraph) -> (u32, Vec<EdgeId>) {
    let mut edges = snapshot.global_edges().to_vec();
    edges.sort_unstable();
    (snapshot.articulation().0, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ComponentGraph::fingerprint_of` — the key a structural probe looks
    /// a warm lane up by before it builds anything — equals the built
    /// snapshot's fingerprint under any order of the edges: a random
    /// shuffle, and every rotation of it.
    #[test]
    fn fingerprint_of_equals_the_built_snapshots(
        (spec, av, take, shuffle) in (
            graph_spec(),
            0usize..64,
            1usize..16,
            proptest::collection::vec(0usize..64, 16),
        )
    ) {
        let g = build(&spec);
        let mut edges: Vec<EdgeId> = g.edge_ids().take(take).collect();
        for i in (1..edges.len()).rev() {
            edges.swap(i, shuffle[i] % (i + 1));
        }
        let av = VertexId::from_index(av % spec.n);
        let built = ComponentGraph::build(&g, av, &edges).fingerprint();
        for _ in 0..edges.len() {
            prop_assert_eq!(ComponentGraph::fingerprint_of(av, &edges), built);
            edges.rotate_left(1);
        }
    }

    /// Corpus property: across every component snapshot produced by random
    /// apply/rollback/commit interleavings, the commutative fingerprint
    /// induces exactly the sort-based key's equivalence classes — equal
    /// keys hash equal (order-independence), distinct keys hash distinct
    /// (collision-free on the corpus). Each snapshot is also rebuilt with
    /// its edge list reversed and rotated, which must not move it out of
    /// its class.
    #[test]
    fn fingerprint_matches_sort_based_equivalence_classes(spec in graph_spec()) {
        let g = build(&spec);
        let mut tree = FTree::new(&g, VertexId(0));
        let mut provider = SamplingProvider::new(EstimatorConfig::exact(), 0);
        let mut corpus: HashMap<(u32, Vec<EdgeId>), u64> = HashMap::new();
        let mut by_hash: HashMap<u64, (u32, Vec<EdgeId>)> = HashMap::new();
        let mut step = 0usize;
        let mut record = |snapshot: &ComponentGraph, step: usize| {
            let key = sort_key(snapshot);
            let fp = snapshot.fingerprint();
            // Same key → same hash, across however the edge list is ordered.
            if let Some(&seen) = corpus.get(&key) {
                prop_assert_eq!(seen, fp, "one component, two fingerprints: {:?}", key);
            }
            // Distinct keys → distinct hashes (no collisions on the corpus).
            if let Some(other) = by_hash.get(&fp) {
                prop_assert_eq!(other, &key, "fingerprint collision at {:#x}", fp);
            }
            // Order-independence, explicitly: reversed and rotated edge
            // orders rebuild to the same fingerprint.
            let mut permuted = snapshot.global_edges().to_vec();
            permuted.reverse();
            if !permuted.is_empty() {
                let mid = step % permuted.len();
                permuted.rotate_left(mid);
            }
            let rebuilt = ComponentGraph::build(&g, snapshot.articulation(), &permuted);
            prop_assert_eq!(rebuilt.fingerprint(), fp, "edge order changed the fingerprint");
            corpus.insert(key.clone(), fp);
            by_hash.insert(fp, key);
        };
        loop {
            // Probe every candidate (apply → snapshot → rollback), then
            // commit one — the same interleaving the greedy engines drive.
            for e in candidates(&g, &tree) {
                let base = tree.expected_flow(&g, false);
                if let ProbePlan::Sampled(plan) = tree.probe_plan(&g, e, base).unwrap() {
                    record(plan.snapshot(), step);
                }
            }
            let cands = candidates(&g, &tree);
            if cands.is_empty() {
                break;
            }
            let pick = spec.order_seed[step % spec.order_seed.len()] % cands.len();
            step += 1;
            tree.insert_edge(&g, cands[pick], &mut provider).unwrap();
            // Committed components join the corpus too.
            let committed: Vec<(VertexId, Vec<EdgeId>)> = tree
                .components()
                .map(|c| (c.articulation, c.edges().collect()))
                .collect();
            for (articulation, edges) in committed {
                if !edges.is_empty() {
                    record(&ComponentGraph::build(&g, articulation, &edges), step);
                }
            }
        }
        // The walk must have exercised more than a trivial corpus.
        prop_assert!(!corpus.is_empty());
    }
}
