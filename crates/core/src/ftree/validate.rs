//! F-tree invariant checking.
//!
//! [`FTree::validate`] cross-checks the incrementally maintained structure
//! against first principles, including the *static* Hopcroft–Tarjan
//! decomposition of the selected subgraph: every bi component of the F-tree
//! must be exactly one cyclic block, and every mono parent edge exactly one
//! bridge. Tests (unit, integration and property-based) call this after
//! every mutation sequence.

use std::collections::{BTreeMap, BTreeSet};

use flowmax_graph::{biconnected_components, Bfs, EdgeId, ProbabilisticGraph, VertexId};

use super::{ComponentId, FTree, Kind};

impl FTree {
    /// Exhaustively checks structural invariants; returns a description of
    /// the first violation found.
    ///
    /// Intended for tests and debugging — cost is `O(|V| + |E|)` plus a full
    /// static biconnected decomposition.
    pub fn validate(&self, graph: &ProbabilisticGraph) -> Result<(), String> {
        self.check_assignments()?;
        self.check_tree_shape()?;
        self.check_mono_invariants(graph)?;
        self.check_bi_invariants(graph)?;
        self.check_edge_partition(graph)?;
        self.check_against_static_decomposition(graph)?;
        self.check_connectivity(graph)?;
        Ok(())
    }

    fn check_assignments(&self) -> Result<(), String> {
        if self.assignment[self.query.index()].is_some() {
            return Err("query vertex must not be assigned to a component".into());
        }
        // Every assignment points at a live component that lists the vertex.
        for (i, assigned) in self.assignment.iter().enumerate() {
            let Some(cid) = assigned else { continue };
            let Some(comp) = self.arena.get(cid.index()).and_then(|c| c.as_ref()) else {
                return Err(format!("vertex {i} assigned to dead component {cid:?}"));
            };
            let v = VertexId::from_index(i);
            let listed = match &comp.kind {
                Kind::Mono { members } => members.contains_key(&v),
                Kind::Bi { local, .. } => local.contains_key(&v),
            };
            if !listed {
                return Err(format!("vertex {i} assigned to {cid:?} but not a member"));
            }
        }
        // Every member is assigned back to its component.
        for cid in self.component_ids() {
            let comp = self.comp(cid);
            let vertices: Vec<VertexId> = match &comp.kind {
                Kind::Mono { members } => members.keys().copied().collect(),
                Kind::Bi { local, .. } => local.keys().copied().collect(),
            };
            for v in vertices {
                if self.assignment[v.index()] != Some(cid) {
                    return Err(format!("member {v:?} of {cid:?} has wrong assignment"));
                }
            }
        }
        Ok(())
    }

    fn check_tree_shape(&self) -> Result<(), String> {
        for &root in &self.roots {
            let comp = self.comp(root);
            if comp.articulation != self.query {
                return Err(format!("root {root:?} AV {:?} != query", comp.articulation));
            }
            if comp.parent.is_some() {
                return Err(format!("root {root:?} has a parent"));
            }
        }
        let mut seen_children: BTreeSet<ComponentId> = BTreeSet::new();
        for cid in self.component_ids() {
            let comp = self.comp(cid);
            match comp.parent {
                None => {
                    if !self.roots.contains(&cid) {
                        return Err(format!("{cid:?} parentless but not a root"));
                    }
                }
                Some(p) => {
                    if self.owner(comp.articulation) != Some(p) {
                        return Err(format!(
                            "{cid:?} AV {:?} not owned by parent {p:?}",
                            comp.articulation
                        ));
                    }
                    if !self.comp(p).children.contains(&cid) {
                        return Err(format!("{cid:?} missing from parent {p:?} child list"));
                    }
                }
            }
            for &child in &comp.children {
                if !seen_children.insert(child) {
                    return Err(format!("{child:?} listed as child twice"));
                }
                if self.comp(child).parent != Some(cid) {
                    return Err(format!("{child:?} child of {cid:?} but parent differs"));
                }
            }
            // AV must not be a member of its own component.
            let av = comp.articulation;
            let av_inside = match &comp.kind {
                Kind::Mono { members } => members.contains_key(&av),
                Kind::Bi { local, .. } => local.contains_key(&av),
            };
            if av_inside {
                return Err(format!("{cid:?} contains its own AV {av:?}"));
            }
        }
        Ok(())
    }

    fn check_mono_invariants(&self, graph: &ProbabilisticGraph) -> Result<(), String> {
        for cid in self.component_ids() {
            let comp = self.comp(cid);
            let Kind::Mono { members } = &comp.kind else {
                continue;
            };
            let av = comp.articulation;
            for (&v, m) in members.iter() {
                // Parent edge must be selected and connect v to its parent.
                if !self.selected.contains(m.parent_edge) {
                    return Err(format!("mono member {v:?} parent edge not selected"));
                }
                let (a, b) = graph.endpoints(m.parent_edge);
                if !((a == v && b == m.parent) || (b == v && a == m.parent)) {
                    return Err(format!("mono member {v:?} parent edge endpoints wrong"));
                }
                let p = graph.probability(m.parent_edge).value();
                if (p - m.edge_prob).abs() > 1e-15 {
                    return Err(format!("mono member {v:?} cached edge_prob stale"));
                }
                // Parent chain must reach the AV with consistent reach/depth.
                let (mut reach, mut depth, mut cur) = (m.edge_prob, 1u32, m.parent);
                let mut guard = 0;
                while cur != av {
                    let Some(pm) = members.get(&cur) else {
                        return Err(format!(
                            "mono member {v:?} chain leaves component at {cur:?}"
                        ));
                    };
                    reach *= pm.edge_prob;
                    depth += 1;
                    cur = pm.parent;
                    guard += 1;
                    if guard > members.len() {
                        return Err(format!("mono member {v:?} chain has a cycle"));
                    }
                }
                if (reach - m.reach).abs() > 1e-12 {
                    return Err(format!(
                        "mono member {v:?} reach {} != recomputed {reach}",
                        m.reach
                    ));
                }
                if depth != m.depth {
                    return Err(format!(
                        "mono member {v:?} depth {} != recomputed {depth}",
                        m.depth
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_bi_invariants(&self, graph: &ProbabilisticGraph) -> Result<(), String> {
        for cid in self.component_ids() {
            let comp = self.comp(cid);
            let Kind::Bi {
                edges,
                snapshot,
                estimate,
                local,
                ..
            } = &comp.kind
            else {
                continue;
            };
            let av = comp.articulation;
            if snapshot.articulation() != av {
                return Err(format!("{cid:?} snapshot AV mismatch"));
            }
            let mut edge_set = BTreeSet::new();
            for &e in edges.iter() {
                if !self.selected.contains(e) {
                    return Err(format!("{cid:?} contains unselected edge {e:?}"));
                }
                if !edge_set.insert(e) {
                    return Err(format!("{cid:?} lists edge {e:?} twice"));
                }
            }
            if edges.len() < 2 {
                return Err(format!("{cid:?} is bi-connected with < 2 edges"));
            }
            // Snapshot covers exactly {AV} ∪ members.
            let snap_set: BTreeSet<VertexId> = snapshot.vertices().iter().copied().collect();
            let mut expect: BTreeSet<VertexId> = local.keys().copied().collect();
            expect.insert(av);
            if snap_set != expect {
                return Err(format!("{cid:?} snapshot vertices != members ∪ AV"));
            }
            if estimate.reach_all().len() != snapshot.vertex_count() {
                return Err(format!("{cid:?} estimate length mismatch"));
            }
            if (estimate.reach(0) - 1.0).abs() > 1e-12 {
                return Err(format!("{cid:?} AV reach must be 1"));
            }
            for &(v, l) in local.iter() {
                if snapshot.vertices().get(l as usize) != Some(&v) {
                    return Err(format!("{cid:?} local index of {v:?} stale"));
                }
                let r = estimate.reach(l as usize);
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("{cid:?} member {v:?} reach {r} out of range"));
                }
            }
            let _ = graph;
        }
        Ok(())
    }

    /// Every selected edge appears in exactly one place: one mono member's
    /// parent edge, or one bi component's edge list.
    fn check_edge_partition(&self, _graph: &ProbabilisticGraph) -> Result<(), String> {
        let mut holder: BTreeMap<EdgeId, ComponentId> = BTreeMap::new();
        for cid in self.component_ids() {
            let comp = self.comp(cid);
            let edges: Vec<EdgeId> = match &comp.kind {
                Kind::Mono { members } => members.values().map(|m| m.parent_edge).collect(),
                Kind::Bi { edges, .. } => edges.to_vec(),
            };
            for e in edges {
                if let Some(prev) = holder.insert(e, cid) {
                    return Err(format!("edge {e:?} held by both {prev:?} and {cid:?}"));
                }
            }
        }
        for e in self.selected.iter() {
            if !holder.contains_key(&e) {
                return Err(format!("selected edge {e:?} not held by any component"));
            }
        }
        if holder.len() != self.selected.len() {
            return Err("components hold edges that are not selected".into());
        }
        Ok(())
    }

    /// The incremental decomposition must match the static Hopcroft–Tarjan
    /// one: bi components ↔ cyclic blocks, mono parent edges ↔ bridges.
    fn check_against_static_decomposition(&self, graph: &ProbabilisticGraph) -> Result<(), String> {
        let deco = biconnected_components(graph, &self.selected);
        let mut static_cyclic: Vec<BTreeSet<EdgeId>> = deco
            .blocks
            .iter()
            .filter(|b| b.len() >= 2)
            .map(|b| b.iter().copied().collect())
            .collect();
        let mut static_bridges: BTreeSet<EdgeId> = deco
            .blocks
            .iter()
            .filter(|b| b.len() == 1)
            .map(|b| b[0])
            .collect();

        for cid in self.component_ids() {
            let comp = self.comp(cid);
            match &comp.kind {
                Kind::Bi { edges, .. } => {
                    let set: BTreeSet<EdgeId> = edges.iter().copied().collect();
                    let Some(pos) = static_cyclic.iter().position(|b| *b == set) else {
                        return Err(format!(
                            "bi component {cid:?} does not match any static cyclic block"
                        ));
                    };
                    static_cyclic.swap_remove(pos);
                }
                Kind::Mono { members } => {
                    for m in members.values() {
                        if !static_bridges.remove(&m.parent_edge) {
                            return Err(format!(
                                "mono edge {:?} is not a static bridge",
                                m.parent_edge
                            ));
                        }
                    }
                }
            }
        }
        if !static_cyclic.is_empty() {
            return Err(format!(
                "{} static cyclic blocks unmatched",
                static_cyclic.len()
            ));
        }
        if !static_bridges.is_empty() {
            return Err(format!("{} static bridges unmatched", static_bridges.len()));
        }
        Ok(())
    }

    /// Every assigned vertex must actually reach `Q` in the selected
    /// subgraph, and vice versa.
    fn check_connectivity(&self, graph: &ProbabilisticGraph) -> Result<(), String> {
        let mut bfs = Bfs::new(graph.vertex_count());
        let mut reached = vec![false; graph.vertex_count()];
        bfs.run(
            graph,
            self.query,
            |e| self.selected.contains(e),
            |v| {
                reached[v.index()] = true;
            },
        );
        for v in graph.vertices() {
            let in_tree = self.contains_vertex(v);
            if in_tree != reached[v.index()] {
                return Err(format!(
                    "vertex {v:?}: in_tree={in_tree} but BFS-reachable={}",
                    reached[v.index()]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, SamplingProvider};
    use flowmax_graph::{GraphBuilder, Probability, Weight};
    use std::sync::Arc;

    #[test]
    fn validate_passes_through_mixed_insertions() {
        // Two nested cycles plus tails, exercising all insert cases.
        let mut b = GraphBuilder::new();
        b.add_vertices(8, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        let edges = [
            (0u32, 1u32),
            (1, 2),
            (2, 3),
            (3, 0), // outer square
            (1, 3), // diagonal
            (2, 4), // tail
            (4, 5),
            (5, 6),
            (6, 4), // triangle on the tail
            (6, 7), // tail of the triangle
        ];
        for &(u, v) in &edges {
            b.add_edge(VertexId(u), VertexId(v), p).unwrap();
        }
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = SamplingProvider::new(EstimatorConfig::exact(), 1);
        for e in 0..edges.len() {
            t.insert_edge(&g, EdgeId(e as u32), &mut pr).unwrap();
            t.validate(&g)
                .unwrap_or_else(|err| panic!("after edge {e}: {err}"));
        }
        assert_eq!(t.bi_component_count(), 2);
    }

    #[test]
    fn validate_detects_corruption() {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = SamplingProvider::new(EstimatorConfig::exact(), 1);
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        t.validate(&g).unwrap();
        // Corrupt a cached reach value.
        for slot in t.arena.iter_mut().flatten() {
            if let Kind::Mono { members } = &mut slot.kind {
                if let Some(m) = Arc::make_mut(members).values_mut().next() {
                    m.reach = 0.123;
                }
            }
        }
        assert!(t.validate(&g).is_err(), "stale reach must be caught");
    }
}
