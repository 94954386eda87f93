//! Mutable construction of [`ProbabilisticGraph`]s.

use std::collections::HashSet;

use crate::error::GraphError;
use crate::graph::{Edge, ProbabilisticGraph};
use crate::ids::{EdgeId, VertexId};
use crate::probability::Probability;
use crate::weight::Weight;

/// Incremental builder for a [`ProbabilisticGraph`].
///
/// The builder validates the simple-graph invariants (no self-loops, no
/// duplicate undirected edges) and normalizes edge endpoints so that
/// `source < target`. `build` is `O(|V| + |E|)` and produces the immutable
/// CSR representation.
///
/// # Example
///
/// ```
/// use flowmax_graph::{GraphBuilder, Probability, Weight};
///
/// let mut b = GraphBuilder::new();
/// let q = b.add_vertex(Weight::ONE);
/// let v = b.add_vertex(Weight::new(5.0).unwrap());
/// b.add_edge(q, v, Probability::new(0.8).unwrap()).unwrap();
/// let g = b.build();
/// assert_eq!(g.vertex_count(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    weights: Vec<Weight>,
    edges: Vec<Edge>,
    seen: HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-allocated capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            weights: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            seen: HashSet::with_capacity(edges),
        }
    }

    /// Adds a vertex with the given information weight and returns its id.
    pub fn add_vertex(&mut self, weight: Weight) -> VertexId {
        let id = VertexId::from_index(self.weights.len());
        self.weights.push(weight);
        id
    }

    /// Adds `n` vertices all carrying `weight`; returns the id of the first.
    ///
    /// Ids are assigned contiguously, so the added vertices are
    /// `first..first + n`.
    pub fn add_vertices(&mut self, n: usize, weight: Weight) -> VertexId {
        let first = VertexId::from_index(self.weights.len());
        self.weights.extend(std::iter::repeat_n(weight, n));
        first
    }

    /// Adds an undirected probabilistic edge.
    ///
    /// # Errors
    ///
    /// * [`GraphError::SelfLoop`] if `a == b`;
    /// * [`GraphError::VertexOutOfBounds`] if an endpoint was never added;
    /// * [`GraphError::DuplicateEdge`] if the pair was already connected.
    pub fn add_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        probability: Probability,
    ) -> Result<EdgeId, GraphError> {
        let edge = checked_edge(a, b, probability, self.weights.len())?;
        if !self.seen.insert((edge.source.0, edge.target.0)) {
            return Err(GraphError::DuplicateEdge { a, b });
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(edge);
        Ok(id)
    }

    /// Returns `true` if the undirected pair `(a, b)` already has an edge.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.seen.contains(&(a.0.min(b.0), a.0.max(b.0)))
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph, building the CSR adjacency.
    pub fn build(self) -> ProbabilisticGraph {
        ProbabilisticGraph::from_parts(self.weights, self.edges)
    }
}

/// The edge `a`–`b` of a graph with `vertex_count` vertices, endpoints in
/// ascending order, after the per-edge rules every constructor applies: no
/// self-loop, both endpoints exist (checked in that order, `a` first). The
/// probability rule is the [`Probability`] type itself. Duplicates are the
/// caller's to find: [`GraphBuilder`] keeps a set, `io::read_text` scans
/// the built adjacency once.
pub(crate) fn checked_edge(
    a: VertexId,
    b: VertexId,
    probability: Probability,
    vertex_count: usize,
) -> Result<Edge, GraphError> {
    if a == b {
        return Err(GraphError::SelfLoop(a));
    }
    for v in [a, b] {
        if v.index() >= vertex_count {
            return Err(GraphError::VertexOutOfBounds {
                vertex: v,
                vertex_count,
            });
        }
    }
    Ok(Edge {
        source: a.min(b),
        target: a.max(b),
        probability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex(Weight::ONE);
        assert_eq!(b.add_edge(v, v, p(0.5)), Err(GraphError::SelfLoop(v)));
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex(Weight::ONE);
        let err = b.add_edge(v, VertexId(5), p(0.5)).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { .. }));
    }

    #[test]
    fn rejects_duplicate_in_either_orientation() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(Weight::ONE);
        let c = b.add_vertex(Weight::ONE);
        b.add_edge(a, c, p(0.5)).unwrap();
        assert!(matches!(
            b.add_edge(c, a, p(0.9)),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(b.has_edge(a, c));
        assert!(b.has_edge(c, a));
    }

    #[test]
    fn normalizes_endpoint_order() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(Weight::ONE);
        let c = b.add_vertex(Weight::ONE);
        b.add_edge(c, a, p(0.5)).unwrap();
        let g = b.build();
        let (s, t) = g.endpoints(EdgeId(0));
        assert!(s < t);
    }

    #[test]
    fn add_vertices_bulk() {
        let mut b = GraphBuilder::new();
        let first = b.add_vertices(10, Weight::new(2.0).unwrap());
        assert_eq!(first, VertexId(0));
        assert_eq!(b.vertex_count(), 10);
        let second = b.add_vertices(5, Weight::ONE);
        assert_eq!(second, VertexId(10));
        let g = b.build();
        assert_eq!(g.weight(VertexId(3)).value(), 2.0);
        assert_eq!(g.weight(VertexId(12)).value(), 1.0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(4, 4);
        let a = b.add_vertex(Weight::ONE);
        let c = b.add_vertex(Weight::ONE);
        b.add_edge(a, c, p(1.0)).unwrap();
        assert_eq!(b.edge_count(), 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }
}
