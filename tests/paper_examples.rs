//! Integration tests reproducing the paper's worked examples:
//! the Fig. 1 trade-off, the Fig. 3 F-tree decomposition (Example 2), the
//! four edge-insertion walkthroughs of §5.5 (Fig. 4 cases a–d), the §6.4
//! delayed-sampling example (1 % gain, cost 10, c = 2 → d = 9), and a small
//! §6.3 confidence-interval race — the latter two end-to-end through the
//! public solver API.

use flowmax::core::{
    dijkstra_select, evaluate_selection, exact_max_flow, Algorithm, ComponentRef, EstimatorConfig,
    FTree, InsertCase, NoObserver, RunControl, SamplingProvider, Session,
};
use flowmax::graph::{
    exact_expected_flow, max_probability_spanning_tree_full, EdgeId, EdgeSubset, GraphBuilder,
    ProbabilisticGraph, Probability, VertexId, Weight, DEFAULT_ENUMERATION_CAP,
};

fn p(v: f64) -> Probability {
    Probability::new(v).unwrap()
}

/// Builds the Fig. 3(a) graph (+ the spare vertex 17 used by Fig. 4(a)):
/// vertices Q=0, 1..16 with weight = id, all probabilities 0.5, 19 edges
/// arranged into components A–F per Example 2.
///
/// Edge ids (by insertion order):
///  A: Q-3 (e0), Q-6 (e1), 3-1 (e2), 6-2 (e3)
///  B: 3-4 (e4), 4-5 (e5), 5-3 (e6)
///  C: 6-7 (e7), 7-8 (e8), 8-9 (e9), 9-6 (e10)
///  D: 9-10 (e11), 10-11 (e12), 11-9 (e13)
///  E: 9-13 (e14), 13-14 (e15), 13-15 (e16), 15-16 (e17)
///  F: 11-12 (e18)
/// Spare edges for Fig. 4: 7-17 (e19), 6-8 (e20), 14-15 (e21), 11-15 (e22).
fn figure3_graph() -> ProbabilisticGraph {
    let mut b = GraphBuilder::new();
    b.add_vertex(Weight::ZERO); // Q
    for w in 1..=17 {
        b.add_vertex(Weight::new(w as f64).unwrap());
    }
    let half = p(0.5);
    let edges: [(u32, u32); 23] = [
        (0, 3),
        (0, 6),
        (3, 1),
        (6, 2),
        (3, 4),
        (4, 5),
        (5, 3),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 6),
        (9, 10),
        (10, 11),
        (11, 9),
        (9, 13),
        (13, 14),
        (13, 15),
        (15, 16),
        (11, 12),
        // Fig. 4 insertion candidates:
        (7, 17),
        (6, 8),
        (14, 15),
        (11, 15),
    ];
    for (x, y) in edges {
        b.add_edge(VertexId(x), VertexId(y), half).unwrap();
    }
    b.build()
}

fn base_tree(g: &ProbabilisticGraph) -> (FTree, SamplingProvider) {
    let mut tree = FTree::new(g, VertexId(0));
    let mut provider = SamplingProvider::new(EstimatorConfig::exact(), 1);
    for e in 0..19u32 {
        tree.insert_edge(g, EdgeId(e), &mut provider).unwrap();
    }
    tree.validate(g).unwrap();
    (tree, provider)
}

fn find_component<'a, 't>(
    comps: &'a [ComponentRef<'t>],
    members: &[u32],
) -> Option<&'a ComponentRef<'t>> {
    let want: Vec<VertexId> = members.iter().map(|&v| VertexId(v)).collect();
    comps.iter().find(|c| c.members().eq(want.iter().copied()))
}

#[test]
fn figure3_ftree_has_the_papers_component_structure() {
    let g = figure3_graph();
    let (tree, _) = base_tree(&g);
    let comps: Vec<ComponentRef> = tree.components().collect();
    assert_eq!(comps.len(), 6, "components A–F");

    // A = ({1,2,3,6}, Q), mono, root.
    let a = find_component(&comps, &[1, 2, 3, 6]).expect("component A");
    assert!(!a.is_bi());
    assert_eq!(a.articulation, VertexId(0));
    assert_eq!(a.parent, None);

    // B = ({4,5}, 3), bi, child of A.
    let b = find_component(&comps, &[4, 5]).expect("component B");
    assert!(b.is_bi());
    assert_eq!(b.articulation, VertexId(3));
    assert_eq!(b.parent, Some(a.id));
    assert_eq!(b.edge_count(), 3, "2^3 worlds, Example 2");

    // C = ({7,8,9}, 6), bi, child of A.
    let c = find_component(&comps, &[7, 8, 9]).expect("component C");
    assert!(c.is_bi());
    assert_eq!(c.articulation, VertexId(6));
    assert_eq!(c.parent, Some(a.id));
    assert_eq!(c.edge_count(), 4, "2^4 worlds, Example 2");

    // D = ({10,11}, 9), bi, child of C.
    let d = find_component(&comps, &[10, 11]).expect("component D");
    assert!(d.is_bi());
    assert_eq!(d.articulation, VertexId(9));
    assert_eq!(d.parent, Some(c.id));
    assert_eq!(d.edge_count(), 3, "2^3 worlds, Example 2");

    // E = ({13,14,15,16}, 9), mono, child of C.
    let e = find_component(&comps, &[13, 14, 15, 16]).expect("component E");
    assert!(!e.is_bi());
    assert_eq!(e.articulation, VertexId(9));
    assert_eq!(e.parent, Some(c.id));

    // F = ({12}, 11), mono, child of D.
    let f = find_component(&comps, &[12]).expect("component F");
    assert!(!f.is_bi());
    assert_eq!(f.articulation, VertexId(11));
    assert_eq!(f.parent, Some(d.id));
}

#[test]
fn figure3_flow_equals_exact_enumeration() {
    let g = figure3_graph();
    let (tree, _) = base_tree(&g);
    let ftree_flow = tree.expected_flow(&g, false);
    let exact = exact_expected_flow(
        &g,
        tree.selected_edges(),
        VertexId(0),
        false,
        DEFAULT_ENUMERATION_CAP,
    )
    .unwrap();
    assert!(
        (ftree_flow - exact).abs() < 1e-9,
        "Example 2 decomposition must be exact: {ftree_flow} vs {exact}"
    );
}

#[test]
fn figure4a_new_leaf_on_bi_component() {
    // Insert a = (7, 17): Case IIb — new mono G = ({17}, 7) child of C.
    let g = figure3_graph();
    let (mut tree, mut provider) = base_tree(&g);
    let r = tree.insert_edge(&g, EdgeId(19), &mut provider).unwrap();
    assert_eq!(r.case, InsertCase::LeafBi);
    tree.validate(&g).unwrap();
    let comps: Vec<ComponentRef> = tree.components().collect();
    let gcomp = find_component(&comps, &[17]).expect("component G");
    assert!(!gcomp.is_bi());
    assert_eq!(gcomp.articulation, VertexId(7));
    let c = find_component(&comps, &[7, 8, 9]).expect("component C");
    assert_eq!(gcomp.parent, Some(c.id));
}

#[test]
fn figure4b_cycle_inside_bi_component() {
    // Insert b = (6, 8): Case IIIa — C re-estimated, structure unchanged.
    let g = figure3_graph();
    let (mut tree, mut provider) = base_tree(&g);
    let reach_8_before = tree.reach_to_query(VertexId(8));
    let r = tree.insert_edge(&g, EdgeId(20), &mut provider).unwrap();
    assert_eq!(r.case, InsertCase::CycleInBi);
    tree.validate(&g).unwrap();
    assert_eq!(tree.components().count(), 6, "no structural change");
    let comps: Vec<ComponentRef> = tree.components().collect();
    let c = find_component(&comps, &[7, 8, 9]).expect("component C");
    assert_eq!(c.edge_count(), 5);
    assert!(
        tree.reach_to_query(VertexId(8)) > reach_8_before,
        "paper: nodes 7, 8, 9 gain probability from edge b"
    );
}

#[test]
fn figure4c_cycle_inside_mono_component_splits() {
    // Insert c = (14, 15): Case IIIb — E splits into E' = ({13}, 9),
    // G = ({14,15}, 13) bi, H = ({16}, 15) mono.
    let g = figure3_graph();
    let (mut tree, mut provider) = base_tree(&g);
    let r = tree.insert_edge(&g, EdgeId(21), &mut provider).unwrap();
    assert_eq!(r.case, InsertCase::CycleInMono);
    tree.validate(&g).unwrap();
    let comps: Vec<ComponentRef> = tree.components().collect();
    assert_eq!(comps.len(), 8);

    let e_rest = find_component(&comps, &[13]).expect("shrunken E");
    assert!(!e_rest.is_bi());
    assert_eq!(e_rest.articulation, VertexId(9));

    let gcomp = find_component(&comps, &[14, 15]).expect("new bi G");
    assert!(gcomp.is_bi());
    assert_eq!(gcomp.articulation, VertexId(13));
    assert_eq!(gcomp.parent, Some(e_rest.id));
    assert_eq!(gcomp.edge_count(), 3, "13-14, 13-15, 14-15");

    let h = find_component(&comps, &[16]).expect("orphan H");
    assert!(!h.is_bi());
    assert_eq!(h.articulation, VertexId(15), "paper: 16 regrouped under 15");
    assert_eq!(h.parent, Some(gcomp.id));

    // Flow must still match exact enumeration (20 edges: still enumerable).
    let exact = exact_expected_flow(
        &g,
        tree.selected_edges(),
        VertexId(0),
        false,
        DEFAULT_ENUMERATION_CAP,
    )
    .unwrap();
    assert!((tree.expected_flow(&g, false) - exact).abs() < 1e-9);
}

#[test]
fn figure4d_cross_component_cycle() {
    // Insert d = (11, 15): Case IV — D absorbed, path 15-13 carved out of E,
    // meeting trivially at vertex 9 in C: ⃝ = ({10,11,13,15}, 9), with
    // G = ({14}, 13), H = ({16}, 15) and F = ({12}, 11) hanging off ⃝.
    let g = figure3_graph();
    let (mut tree, mut provider) = base_tree(&g);
    let r = tree.insert_edge(&g, EdgeId(22), &mut provider).unwrap();
    assert_eq!(r.case, InsertCase::CycleAcross);
    tree.validate(&g).unwrap();
    let comps: Vec<ComponentRef> = tree.components().collect();

    let ring = find_component(&comps, &[10, 11, 13, 15]).expect("component ⃝");
    assert!(ring.is_bi());
    assert_eq!(ring.articulation, VertexId(9));
    // ⃝'s edges: D's three + 9-13 + 13-15 + the new 11-15 = 6.
    assert_eq!(ring.edge_count(), 6);
    let c = find_component(&comps, &[7, 8, 9]).expect("component C");
    assert_eq!(ring.parent, Some(c.id));

    let gcomp = find_component(&comps, &[14]).expect("orphan G = ({14}, 13)");
    assert_eq!(gcomp.articulation, VertexId(13));
    assert_eq!(gcomp.parent, Some(ring.id));

    let h = find_component(&comps, &[16]).expect("orphan H = ({16}, 15)");
    assert_eq!(h.articulation, VertexId(15));
    assert_eq!(h.parent, Some(ring.id));

    let f = find_component(&comps, &[12]).expect("component F keeps AV 11");
    assert_eq!(f.articulation, VertexId(11));
    assert_eq!(f.parent, Some(ring.id), "F now reports to ⃝");

    let exact = exact_expected_flow(
        &g,
        tree.selected_edges(),
        VertexId(0),
        false,
        DEFAULT_ENUMERATION_CAP,
    )
    .unwrap();
    assert!((tree.expected_flow(&g, false) - exact).abs() < 1e-9);
}

/// §6.4's worked delay example, end-to-end through the solver: a candidate
/// with ~1 % of the best gain and sampling cost 10 must be suspended for
/// exactly `d = ⌊log₂(10 / 0.01…)⌋ = 9` iterations of the `FT+M+DS` run.
///
/// Construction: a 9-edge chain of weight-1000 vertices (selected first),
/// twelve weight-100 leaves at `Q` (gain 50 each, the per-iteration best
/// after the chain), and a low-probability chord `Q–r9` that closes a
/// 10-edge cycle with a gain of ~0.66 — i.e. `pot ≈ 1.3 %`, inside the
/// `d = 9` window `10/pot ∈ [2⁹, 2¹⁰)`.
#[test]
fn section_6_4_delay_example_through_the_solver() {
    let chord_p = 0.00025;
    let mut b = GraphBuilder::new();
    b.add_vertex(Weight::ZERO); // Q
    for _ in 0..9 {
        b.add_vertex(Weight::new(1000.0).unwrap()); // chain r1..r9
    }
    for _ in 0..12 {
        b.add_vertex(Weight::new(100.0).unwrap()); // leaves h1..h12
    }
    let chain_p = p(0.9);
    for k in 0..9u32 {
        b.add_edge(VertexId(k), VertexId(k + 1), chain_p).unwrap(); // e0..e8
    }
    for h in 10..22u32 {
        b.add_edge(VertexId(0), VertexId(h), p(0.5)).unwrap(); // e9..e20
    }
    let chord = b.add_edge(VertexId(0), VertexId(9), p(chord_p)).unwrap(); // e21
    let g = b.build();

    // Sanity of the construction (exact arithmetic): the chord's gain over
    // the selected chain against the best candidate's gain of 50 must land
    // in the window that makes d = 9.
    let chain: Vec<EdgeId> = (0..9).map(EdgeId).collect();
    let mut with_chord = chain.clone();
    with_chord.push(chord);
    let eval = EstimatorConfig::exact();
    let gain = evaluate_selection(&g, VertexId(0), &with_chord, eval, false, 0, 1)
        - evaluate_selection(&g, VertexId(0), &chain, eval, false, 0, 1);
    let pot = gain / 50.0;
    let ratio = 10.0 / pot;
    assert!(
        (512.0..1024.0).contains(&ratio),
        "construction must give d = 9: cost/pot = {ratio}"
    );

    // End-to-end: 9 chain picks, then the chord is probed once (cost 10),
    // suspended for 9 iterations, and the remaining budget selects leaves.
    let session = Session::new(&g).with_seed(4);
    let r = session
        .query(VertexId(0))
        .unwrap()
        .algorithm(Algorithm::FtMDs)
        .budget(19)
        .exact_edge_cap(24) // exact component estimates: the gain is exact
        .run()
        .unwrap();
    assert_eq!(r.selected.len(), 19);
    assert_eq!(&r.selected[..9], &chain[..], "chain first");
    assert!(
        !r.selected.contains(&chord),
        "the suspended chord must never be selected"
    );
    assert_eq!(
        r.metrics.ds_skipped, 9,
        "d = 9: the chord sits out exactly nine probe rounds"
    );
}

/// A small §6.3 race end-to-end through the solver: closing the triangle's
/// last edge is raced against an analytically-probed leaf whose gain
/// dominates, so the racing engine prunes it after the first 64-world round
/// — and the selection matches the unpruned `FT+M` run.
#[test]
fn section_6_3_race_prunes_dominated_cycle_candidate() {
    let mut b = GraphBuilder::new();
    b.add_vertex(Weight::ZERO); // Q
    b.add_vertex(Weight::new(50.0).unwrap()); // b
    b.add_vertex(Weight::new(50.0).unwrap()); // c
    b.add_vertex(Weight::new(40.0).unwrap()); // a
    b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap(); // e0 Q-b
    b.add_edge(VertexId(1), VertexId(2), p(0.9)).unwrap(); // e1 b-c (cycle)
    b.add_edge(VertexId(2), VertexId(0), p(0.9)).unwrap(); // e2 c-Q
    b.add_edge(VertexId(0), VertexId(3), p(0.5)).unwrap(); // e3 Q-a
    let g = b.build();

    // Paper defaults: pure Monte-Carlo estimation, so the cycle candidate
    // e1 (true gain ≈ 8.1) really races and loses to e3 (gain 20).
    let session = Session::new(&g).with_seed(7);
    let run = |alg| {
        session
            .query(VertexId(0))
            .unwrap()
            .algorithm(alg)
            .budget(3)
            .run()
            .unwrap()
    };
    let raced = run(Algorithm::FtMCi);
    assert_eq!(
        raced.selected,
        vec![EdgeId(0), EdgeId(2), EdgeId(3)],
        "commit order by gain; the dominated cycle edge must not be selected"
    );
    assert_eq!(
        raced.metrics.ci_pruned, 1,
        "the cycle candidate is eliminated by the race"
    );

    // The unpruned FT+M run spends the full budget on e1 and still agrees.
    let unpruned = run(Algorithm::FtM);
    assert_eq!(unpruned.selected, raced.selected);
    assert_eq!(unpruned.metrics.ci_pruned, 0);
    assert!(
        raced.metrics.samples_drawn < unpruned.metrics.samples_drawn,
        "racing must sample less than the fixed budget ({} vs {})",
        raced.metrics.samples_drawn,
        unpruned.metrics.samples_drawn
    );
}

/// The Fig. 1 trade-off, on the probability multiset from the paper's
/// `Pr(g1)` computation: a good 5-edge selection beats the 6-edge spanning
/// tree while the full 10-edge activation remains the (costly) maximum.
#[test]
fn figure1_tradeoff_shape() {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..7).map(|_| b.add_vertex(Weight::ONE)).collect();
    let (q, a, bb, c, d, e, f) = (vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6]);
    b.add_edge(q, a, p(0.6)).unwrap();
    b.add_edge(q, bb, p(0.5)).unwrap();
    b.add_edge(a, c, p(0.8)).unwrap();
    b.add_edge(bb, c, p(0.5)).unwrap();
    b.add_edge(a, bb, p(0.4)).unwrap();
    b.add_edge(c, d, p(0.4)).unwrap();
    b.add_edge(bb, d, p(0.4)).unwrap();
    b.add_edge(d, e, p(0.3)).unwrap();
    b.add_edge(q, e, p(0.1)).unwrap();
    b.add_edge(e, f, p(0.1)).unwrap();
    let g = b.build();

    let all = EdgeSubset::full(&g);
    let flow_all = exact_expected_flow(&g, &all, q, false, DEFAULT_ENUMERATION_CAP).unwrap();
    let tree = max_probability_spanning_tree_full(&g, q);
    let control = RunControl::unlimited();
    let dj = dijkstra_select(&g, &tree, usize::MAX, false, &control, &mut NoObserver);
    let opt5 = exact_max_flow(&g, q, 5, false).unwrap();

    assert_eq!(
        dj.selected.len(),
        6,
        "spanning tree reaches all 6 non-Q vertices"
    );
    assert!(
        opt5.flow > dj.final_flow,
        "5-edge optimum ({}) must dominate the 6-edge tree ({})",
        opt5.flow,
        dj.final_flow
    );
    assert!(flow_all > opt5.flow, "full activation is the flow maximum");
}
