//! Exact possible-world enumeration.
//!
//! Computing reachability probabilities is #P-hard in general (§3, \[5\]), but
//! for graphs (or F-tree components) with few uncertain edges the full
//! `2^|E_{<1}|` world space can be enumerated exactly. This module is the
//! ground truth used by tests, by the `Exact` component estimator, and by the
//! Fig. 1 running-example reproduction (whose flow values 2.51 / 1.59 / 2.02
//! the paper states without derivation).

use crate::error::GraphError;
use crate::graph::ProbabilisticGraph;
use crate::ids::{EdgeId, VertexId};
use crate::subgraph::EdgeSubset;
use crate::traversal::Bfs;

/// Default cap on the number of uncertain edges enumerated exactly
/// (`2^24 ≈ 16.7M` worlds is the most a test or small component should pay).
pub const DEFAULT_ENUMERATION_CAP: usize = 24;

/// Exact per-vertex reachability probabilities from `source` in the subgraph
/// restricted to `domain` edges.
///
/// Edges with `P(e) = 1` are not enumerated (they exist in every world), so
/// the cost is `O(2^u · BFS)` where `u` is the number of *uncertain* edges in
/// the domain.
///
/// Returns a vector indexed by vertex id with `Pr[source ↔ v]`
/// (`result[source] == 1`).
///
/// # Errors
///
/// [`GraphError::TooManyEdgesForEnumeration`] if the domain has more than
/// `cap` uncertain edges.
pub fn exact_reachability(
    graph: &ProbabilisticGraph,
    domain: &EdgeSubset,
    source: VertexId,
    cap: usize,
) -> Result<Vec<f64>, GraphError> {
    let certain: Vec<EdgeId> = domain
        .iter()
        .filter(|&e| graph.probability(e).is_certain())
        .collect();
    let uncertain: Vec<EdgeId> = domain
        .iter()
        .filter(|&e| !graph.probability(e).is_certain())
        .collect();
    if uncertain.len() > cap {
        return Err(GraphError::TooManyEdgesForEnumeration {
            edges: uncertain.len(),
            max: cap,
        });
    }

    let mut reach = vec![0.0f64; graph.vertex_count()];
    let mut bfs = Bfs::new(graph.vertex_count());
    let mut world = EdgeSubset::new(graph.edge_count());
    let n_worlds: u64 = 1u64 << uncertain.len();

    for mask in 0..n_worlds {
        world.clear();
        for e in &certain {
            world.insert(*e);
        }
        let mut prob = 1.0;
        for (bit, &e) in uncertain.iter().enumerate() {
            let p = graph.probability(e).value();
            if mask >> bit & 1 == 1 {
                world.insert(e);
                prob *= p;
            } else {
                prob *= 1.0 - p;
            }
        }
        bfs.run(
            graph,
            source,
            |e| world.contains(e),
            |v| {
                reach[v.index()] += prob;
            },
        );
    }
    Ok(reach)
}

/// Exact expected information flow `E(flow(Q, G'))` (Def. 3) of the subgraph
/// restricted to `domain`, by full world enumeration.
///
/// `include_query` selects whether `W(Q)` itself is counted (the paper's
/// worked examples exclude it).
pub fn exact_expected_flow(
    graph: &ProbabilisticGraph,
    domain: &EdgeSubset,
    query: VertexId,
    include_query: bool,
    cap: usize,
) -> Result<f64, GraphError> {
    let reach = exact_reachability(graph, domain, query, cap)?;
    let mut flow = 0.0;
    for v in graph.vertices() {
        if v == query && !include_query {
            continue;
        }
        flow += reach[v.index()] * graph.weight(v).value();
    }
    Ok(flow)
}

/// Exact probability that `source` and `target` are connected in the
/// subgraph restricted to `domain` (two-terminal reliability, Def. 2).
pub fn exact_two_terminal(
    graph: &ProbabilisticGraph,
    domain: &EdgeSubset,
    source: VertexId,
    target: VertexId,
    cap: usize,
) -> Result<f64, GraphError> {
    Ok(exact_reachability(graph, domain, source, cap)?[target.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::probability::Probability;
    use crate::weight::Weight;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// Q --0.5-- A --0.5-- B, unit weights.
    fn chain() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        let q = b.add_vertex(Weight::ONE);
        let a = b.add_vertex(Weight::ONE);
        let bb = b.add_vertex(Weight::ONE);
        b.add_edge(q, a, p(0.5)).unwrap();
        b.add_edge(a, bb, p(0.5)).unwrap();
        b.build()
    }

    #[test]
    fn chain_reachability() {
        let g = chain();
        let r = exact_reachability(
            &g,
            &EdgeSubset::full(&g),
            VertexId(0),
            DEFAULT_ENUMERATION_CAP,
        )
        .unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!((r[1] - 0.5).abs() < 1e-12);
        assert!((r[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn chain_flow_excludes_query_by_default_semantics() {
        let g = chain();
        let f = exact_expected_flow(
            &g,
            &EdgeSubset::full(&g),
            VertexId(0),
            false,
            DEFAULT_ENUMERATION_CAP,
        )
        .unwrap();
        assert!((f - 0.75).abs() < 1e-12);
        let f_incl = exact_expected_flow(
            &g,
            &EdgeSubset::full(&g),
            VertexId(0),
            true,
            DEFAULT_ENUMERATION_CAP,
        )
        .unwrap();
        assert!((f_incl - 1.75).abs() < 1e-12);
    }

    #[test]
    fn triangle_two_terminal_matches_inclusion_exclusion() {
        // Q-A (0.5), A-B (0.5), Q-B (0.5): Pr[Q↔B] = p_QB + (1-p_QB)·p_QA·p_AB
        let mut b = GraphBuilder::new();
        let q = b.add_vertex(Weight::ONE);
        let a = b.add_vertex(Weight::ONE);
        let v = b.add_vertex(Weight::ONE);
        b.add_edge(q, a, p(0.5)).unwrap();
        b.add_edge(a, v, p(0.5)).unwrap();
        b.add_edge(q, v, p(0.5)).unwrap();
        let g = b.build();
        let r = exact_two_terminal(
            &g,
            &EdgeSubset::full(&g),
            VertexId(0),
            VertexId(2),
            DEFAULT_ENUMERATION_CAP,
        )
        .unwrap();
        let expected = 0.5 + 0.5 * 0.25;
        assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
    }

    #[test]
    fn certain_edges_are_not_enumerated() {
        // 30 certain edges would blow a 2^30 enumeration if counted.
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..31).map(|_| b.add_vertex(Weight::ONE)).collect();
        for i in 0..30 {
            b.add_edge(vs[i], vs[i + 1], Probability::ONE).unwrap();
        }
        let g = b.build();
        let r = exact_reachability(
            &g,
            &EdgeSubset::full(&g),
            VertexId(0),
            DEFAULT_ENUMERATION_CAP,
        )
        .unwrap();
        assert!(r.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cap_is_enforced() {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..10).map(|_| b.add_vertex(Weight::ONE)).collect();
        for i in 0..9 {
            b.add_edge(vs[i], vs[i + 1], p(0.5)).unwrap();
        }
        let g = b.build();
        let err = exact_reachability(&g, &EdgeSubset::full(&g), VertexId(0), 4).unwrap_err();
        assert!(matches!(
            err,
            GraphError::TooManyEdgesForEnumeration { edges: 9, max: 4 }
        ));
    }

    #[test]
    fn restricted_domain_disconnects() {
        let g = chain();
        let domain = EdgeSubset::from_edges(g.edge_count(), [EdgeId(0)]);
        let r = exact_reachability(&g, &domain, VertexId(0), DEFAULT_ENUMERATION_CAP).unwrap();
        assert!((r[1] - 0.5).abs() < 1e-12);
        assert_eq!(r[2], 0.0, "edge outside domain never exists");
    }

    #[test]
    fn reachability_is_symmetric_in_undirected_graphs() {
        let g = chain();
        let full = EdgeSubset::full(&g);
        let from_q = exact_reachability(&g, &full, VertexId(0), DEFAULT_ENUMERATION_CAP).unwrap();
        let from_b = exact_reachability(&g, &full, VertexId(2), DEFAULT_ENUMERATION_CAP).unwrap();
        assert!((from_q[2] - from_b[0]).abs() < 1e-12);
    }
}
