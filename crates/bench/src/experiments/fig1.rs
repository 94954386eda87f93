//! Fig. 1 — the motivating running example: full activation vs Dijkstra
//! spanning tree vs the optimal five-edge selection.
//!
//! The figure's exact wiring is not printed in the paper; we use a 7-vertex,
//! 10-edge graph carrying the probability multiset visible in the paper's
//! `Pr(g1)` computation (Eq. 1 example) and reproduce the *dominance shape*:
//! `flow(all 10) > flow(best 5) > flow(Dijkstra tree with 6 edges)`.

use flowmax_core::{dijkstra_select, exact_max_flow, NoObserver, RunControl};
use flowmax_graph::{
    exact_expected_flow, max_probability_spanning_tree_full, EdgeSubset, GraphBuilder,
    ProbabilisticGraph, Probability, VertexId, Weight, DEFAULT_ENUMERATION_CAP,
};

use crate::report::{Cell, Report, Row};
use crate::runner::Scale;

/// Builds the Fig.-1-shaped graph (unit weights).
pub fn figure1_graph() -> ProbabilisticGraph {
    let p = |v| Probability::new(v).unwrap();
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
    b.build()
}

/// Reproduces the three Fig. 1 rows by exact computation.
pub fn fig1(_scale: &Scale, _seed: u64) -> Report {
    let g = figure1_graph();
    let q = VertexId(0);

    let all = EdgeSubset::full(&g);
    let flow_all = exact_expected_flow(&g, &all, q, false, DEFAULT_ENUMERATION_CAP).unwrap();
    let tree = max_probability_spanning_tree_full(&g, q);
    let control = RunControl::unlimited();
    let dj = dijkstra_select(&g, &tree, usize::MAX, false, &control, &mut NoObserver);
    let opt5 = exact_max_flow(&g, q, 5, false).unwrap();

    let rows = vec![
        Row {
            x: format!("all ({} edges)", g.edge_count()),
            cells: vec![Cell {
                flow: flow_all,
                millis: 0.0,
            }],
        },
        Row {
            x: format!("Dijkstra ({} edges)", dj.selected.len()),
            cells: vec![Cell {
                flow: dj.final_flow,
                millis: 0.0,
            }],
        },
        Row {
            x: "optimal 5 edges".into(),
            cells: vec![Cell {
                flow: opt5.flow,
                millis: 0.0,
            }],
        },
    ];
    Report {
        id: "fig1".into(),
        title: "Running example: budgeted selection dominates the spanning tree".into(),
        x_label: "selection".into(),
        algorithms: vec!["exact".into()],
        rows,
        notes: vec![
            "paper values: ≈2.51 (all), 1.59 (6-edge Dijkstra), ≈2.02 (best 5)".into(),
            "the figure's wiring is not in the text; shape reproduced on the same \
             probability multiset"
                .into(),
        ],
    }
}
