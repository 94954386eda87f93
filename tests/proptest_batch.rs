//! Property tests pinning the bit-parallel sampling engine to the scalar
//! reference: for random graphs, lane `w` of a [`WorldBatch`] must be the
//! *exact* world a scalar `sample_world` draws from the same seed-sequence
//! child, and the lane-BFS must agree with a scalar BFS world-for-world.
//!
//! Every property runs at the engine's lane width ([`LANE_WORDS`] lane
//! words — 512 worlds per block): the lane/seed contract says lane `w` of a
//! block draws from child stream `first_label + w`, so the scalar reference
//! pins every lane of every word.

use flowmax::graph::{
    Bfs, EdgeId, EdgeSubset, GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight,
};
use flowmax::sampling::{
    block_worlds, sample_world, EdgeCoin, LaneBfs, SeedSequence, WorldBatch, LANE_WORDS,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SmallGraph {
    n: usize,
    tree_parents: Vec<usize>,
    chords: Vec<(usize, usize)>,
    probs: Vec<f64>,
    seed: u64,
}

fn small_graph() -> impl Strategy<Value = SmallGraph> {
    (3usize..10).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0usize..n, n - 1).prop_map(move |raw| {
            raw.iter()
                .enumerate()
                .map(|(i, &r)| r % (i + 1))
                .collect::<Vec<_>>()
        });
        let chords = proptest::collection::vec((0usize..n, 0usize..n), 0..5);
        // Include certain edges (p = 1) so the draw-free fast path is
        // exercised alongside fractional coins.
        let probs = proptest::collection::vec(0.02f64..=1.0, (n - 1) + 5);
        let seed = 0u64..1_000;
        (Just(n), tree, chords, probs, seed).prop_map(|(n, tree_parents, chords, probs, seed)| {
            SmallGraph {
                n,
                tree_parents,
                chords,
                probs,
                seed,
            }
        })
    })
}

fn build(spec: &SmallGraph) -> ProbabilisticGraph {
    let mut b = GraphBuilder::new();
    b.add_vertices(spec.n, Weight::ONE);
    let mut pi = 0;
    let next_prob = |pi: &mut usize| {
        // Snap near-one draws to exactly 1.0 so certain edges occur often.
        let raw = spec.probs[*pi % spec.probs.len()];
        *pi += 1;
        let p = if raw > 0.9 { 1.0 } else { raw };
        Probability::new(p).unwrap()
    };
    for (i, &parent) in spec.tree_parents.iter().enumerate() {
        b.add_edge(
            VertexId::from_index(i + 1),
            VertexId::from_index(parent),
            next_prob(&mut pi),
        )
        .unwrap();
    }
    for &(u, v) in &spec.chords {
        let (u, v) = (u % spec.n, v % spec.n);
        if u != v && !b.has_edge(VertexId::from_index(u), VertexId::from_index(v)) {
            b.add_edge(
                VertexId::from_index(u),
                VertexId::from_index(v),
                next_prob(&mut pi),
            )
            .unwrap();
        }
    }
    b.build()
}

/// Domain under test: every edge, or a proper subset (every other edge) to
/// exercise the domain restriction.
fn domains(g: &ProbabilisticGraph) -> Vec<EdgeSubset> {
    let full = EdgeSubset::full(g);
    let half = EdgeSubset::from_edges(g.edge_count(), g.edge_ids().filter(|e| e.index() % 2 == 0));
    vec![full, half]
}

/// Worlds per block.
const WORLDS: u32 = block_worlds::<LANE_WORDS>();

/// Lane `w` of a batch is bit-identical to the scalar world drawn from
/// child stream `first_label + w`.
fn batch_lanes_equal_scalar_worlds_at(spec: &SmallGraph) {
    let g = build(spec);
    let seq = SeedSequence::new(spec.seed);
    for (d, domain) in domains(&g).into_iter().enumerate() {
        let first_label = d as u64 * WORLDS as u64;
        let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, first_label, WORLDS);
        let mut scalar = EdgeSubset::for_graph(&g);
        let mut extracted = EdgeSubset::for_graph(&g);
        for lane in 0..WORLDS {
            let mut rng = seq.rng(first_label + lane as u64);
            sample_world(&g, &domain, &mut rng, &mut scalar);
            batch.world(lane, &mut extracted);
            prop_assert_eq!(&scalar, &extracted, "domain {} lane {}", d, lane);
            // Sampled worlds never leave their domain.
            prop_assert!(extracted.iter().all(|e| domain.contains(e)));
        }
    }
}

/// The lane-parallel reachability kernel agrees world-for-world with
/// `64 * LANE_WORDS` scalar `sample_world` + BFS runs seeded from the same
/// children.
fn lane_bfs_equals_scalar_bfs_at(spec: &SmallGraph) {
    let g = build(spec);
    let seq = SeedSequence::new(spec.seed ^ 0xBEEF);
    let query = VertexId(0);
    for domain in domains(&g) {
        let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 0, WORLDS);
        let mut lane_bfs = LaneBfs::<LANE_WORDS>::new(g.vertex_count());
        lane_bfs.run_graph(&g, query, &batch);
        let mut world = EdgeSubset::for_graph(&g);
        let mut bfs = Bfs::new(g.vertex_count());
        for lane in 0..WORLDS {
            let mut rng = seq.rng(lane as u64);
            sample_world(&g, &domain, &mut rng, &mut world);
            bfs.reachable(&g, &world, query);
            let (word, bit) = (lane as usize / 64, lane % 64);
            for v in g.vertices() {
                prop_assert_eq!(
                    bfs.was_visited(v),
                    lane_bfs.reached_mask(v.index())[word] >> bit & 1 == 1,
                    "lane {} vertex {}",
                    lane,
                    v.index()
                );
            }
        }
    }
}

/// Partial blocks (fewer than `64 * LANE_WORDS` lanes) match the scalar
/// reference on exactly the active lanes and keep inactive bits clear.
fn partial_batches_match_scalar_prefix_at(spec: &SmallGraph, lanes: u32) {
    let g = build(spec);
    let domain = EdgeSubset::full(&g);
    let seq = SeedSequence::new(spec.seed ^ 0xA11CE);
    let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 0, lanes);
    prop_assert_eq!(batch.lanes(), lanes);
    let active = batch.active_mask();
    for e in g.edge_ids() {
        let mask = batch.edge_mask(e);
        for k in 0..LANE_WORDS {
            prop_assert_eq!(mask[k] & !active[k], 0, "word {}", k);
        }
    }
    let mut scalar = EdgeSubset::for_graph(&g);
    let mut extracted = EdgeSubset::for_graph(&g);
    for lane in 0..lanes {
        let mut rng = seq.rng(lane as u64);
        sample_world(&g, &domain, &mut rng, &mut scalar);
        batch.world(lane, &mut extracted);
        prop_assert_eq!(&scalar, &extracted, "lane {}", lane);
    }
}

/// A sequence of denser graphs (up to ~40 vertices, many chords, so lane
/// bits reach vertices over several paths and re-queue them) for one
/// reused [`LaneBfs`].
fn graph_sequence() -> impl Strategy<Value = Vec<(SmallGraph, u32)>> {
    let dense = (2usize..41).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0usize..n, n - 1).prop_map(move |raw| {
            raw.iter()
                .enumerate()
                .map(|(i, &r)| r % (i + 1))
                .collect::<Vec<_>>()
        });
        let chords = proptest::collection::vec((0usize..n, 0usize..n), 0..3 * n);
        let probs = proptest::collection::vec(0.02f64..=1.0, 4 * n);
        let seed = 0u64..1_000;
        (Just(n), tree, chords, probs, seed).prop_map(|(n, tree_parents, chords, probs, seed)| {
            SmallGraph {
                n,
                tree_parents,
                chords,
                probs,
                seed,
            }
        })
    });
    proptest::collection::vec((dense, 1u32..=WORLDS), 3..7)
}

/// One [`LaneBfs`] serves consecutive graphs of different sizes, so
/// `prepare` both grows and shrinks it and every run starts from the
/// previous run's touched list and ring: each lane still matches a scalar
/// BFS of that lane's world, and inactive lanes reach nothing.
fn reused_lane_bfs_matches_scalar_bfs_at(graphs: &[(SmallGraph, u32)]) {
    let mut lane_bfs = LaneBfs::<LANE_WORDS>::new(0);
    for (i, (spec, lanes)) in graphs.iter().enumerate() {
        let g = build(spec);
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(spec.seed ^ 0x5EED);
        let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 0, *lanes);
        let query = VertexId::from_index(spec.seed as usize % spec.n);
        lane_bfs.prepare(g.vertex_count());
        // Run twice from different sources: the second run resets from
        // the first run's touched list, not from `prepare`.
        for source in [VertexId(0), query] {
            lane_bfs.run_graph(&g, source, &batch);
            prop_assert_eq!(lane_bfs.reached().len(), g.vertex_count());
            let mut world = EdgeSubset::for_graph(&g);
            let mut bfs = Bfs::new(g.vertex_count());
            for lane in 0..WORLDS {
                let (word, bit) = (lane as usize / 64, lane % 64);
                if lane >= *lanes {
                    for v in g.vertices() {
                        prop_assert_eq!(lane_bfs.reached_mask(v.index())[word] >> bit & 1, 0);
                    }
                    continue;
                }
                batch.world(lane, &mut world);
                bfs.reachable(&g, &world, source);
                for v in g.vertices() {
                    prop_assert_eq!(
                        bfs.was_visited(v),
                        lane_bfs.reached_mask(v.index())[word] >> bit & 1 == 1,
                        "graph {} (n {}) source {} lane {} vertex {}",
                        i,
                        spec.n,
                        source.index(),
                        lane,
                        v.index()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lane `w` of the batch is bit-identical to the scalar world drawn
    /// from child stream `first_label + w`.
    #[test]
    fn batch_lanes_equal_scalar_worlds(spec in small_graph()) {
        batch_lanes_equal_scalar_worlds_at(&spec);
    }

    /// The lane-parallel reachability kernel agrees world-for-world with
    /// scalar `sample_world` + BFS runs.
    #[test]
    fn lane_bfs_equals_scalar_bfs_per_world(spec in small_graph()) {
        lane_bfs_equals_scalar_bfs_at(&spec);
    }

    /// Partial blocks (fewer lanes than the block holds) match the scalar
    /// reference on exactly the active lanes and keep inactive bits clear,
    /// covering mid-word and mid-block cuts.
    #[test]
    fn partial_batches_match_scalar_prefix((spec, lanes) in (small_graph(), 1u32..512)) {
        partial_batches_match_scalar_prefix_at(&spec, lanes);
    }

    /// One lane BFS scratch reused across graphs of growing and shrinking
    /// size, full and partial blocks, agrees lane for lane with scalar BFS.
    #[test]
    fn reused_lane_bfs_matches_scalar_bfs(graphs in graph_sequence()) {
        reused_lane_bfs_matches_scalar_bfs_at(&graphs);
    }
}

/// Deterministic (non-proptest) regression: a batch over a domain with a
/// certain edge in front must line up with the scalar stream and with
/// `EdgeCoin::flip_one`, proving the engines share the draw-free fast path.
#[test]
fn certain_edges_keep_engines_aligned() {
    let mut b = GraphBuilder::new();
    b.add_vertices(4, Weight::ONE);
    b.add_edge(VertexId(0), VertexId(1), Probability::ONE)
        .unwrap();
    b.add_edge(VertexId(1), VertexId(2), Probability::new(0.5).unwrap())
        .unwrap();
    b.add_edge(VertexId(2), VertexId(3), Probability::new(0.5).unwrap())
        .unwrap();
    let g = b.build();
    let domain = EdgeSubset::full(&g);
    let seq = SeedSequence::new(2024);
    let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 0, WORLDS);
    assert_eq!(
        batch.edge_mask(EdgeId(0)),
        [!0u64; LANE_WORDS],
        "certain edge in every lane"
    );
    let mut scalar = EdgeSubset::for_graph(&g);
    let mut extracted = EdgeSubset::for_graph(&g);
    for lane in 0..WORLDS {
        let mut rng = seq.rng(lane as u64);
        sample_world(&g, &domain, &mut rng, &mut scalar);
        batch.world(lane, &mut extracted);
        assert_eq!(scalar, extracted, "lane {lane}");

        let (word, bit) = (lane as usize / 64, lane % 64);
        let mut rng = seq.rng(lane as u64);
        for e in g.edge_ids() {
            let coin = EdgeCoin::classify(g.probability(e).value());
            assert_eq!(
                batch.edge_mask(e)[word] >> bit & 1 == 1,
                coin.flip_one(&mut rng),
                "lane {lane}, edge {e:?}"
            );
        }
    }
}
