//! Edge insertion into the F-tree: cases I–IV of §5.4/§5.5.
//!
//! Case I (both endpoints new) is rejected — candidate generation keeps the
//! selection connected to `Q` (§5.4). Case II attaches a new leaf. Case III
//! closes a cycle inside one component. Case IV closes a cycle across
//! components; it subsumes Case IIIb (same mono component = a cross-case with
//! empty chains), so both share one generic cycle builder:
//!
//! 1. walk both endpoints' component chains up to the lowest common ancestor
//!    component, absorbing bi-components whole (IVb) and carving the unique
//!    AV-ward paths out of mono components (IVc, the `splitTree` operation);
//! 2. meet at the LCA (IVa): either a trivial meeting vertex, a merge with a
//!    bi-connected LCA, or a `splitTree` inside a mono LCA;
//! 3. assemble the collected vertices/edges into one new bi-connected
//!    component, re-parent the inherited children and orphan groups, and
//!    estimate its reachability function.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph, LocalIdScratch};

use super::{Component, ComponentId, FTree, Kind, LocalMap, MonoMember};
use crate::error::CoreError;
use crate::estimator::EstimateProvider;

/// Which structural case an insertion took (§5.4 nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertCase {
    /// Case IIa: new leaf attached to a mono-connected component (or to `Q`).
    LeafMono,
    /// Case IIb: new leaf attached to a bi-connected component.
    LeafBi,
    /// Case IIIa: new edge inside an existing bi-connected component.
    CycleInBi,
    /// Case IIIb: new cycle inside a mono-connected component (`splitTree`).
    CycleInMono,
    /// Case IV: new cycle across components.
    CycleAcross,
}

/// Outcome of an insertion, consumed by metrics and the selection heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// The structural case taken.
    pub case: InsertCase,
    /// The bi-connected component that was created or re-estimated, if any.
    pub component: Option<ComponentId>,
    /// Number of edges in that component — the sampling cost `cost(e)` of
    /// the delayed-sampling heuristic (§6.4); 0 for leaf attachments.
    pub sampled_edge_count: usize,
}

/// A bi component's snapshot, vertex map and estimate, as an insertion
/// stores them.
pub(crate) struct Formed {
    pub(crate) snapshot: Arc<ComponentGraph>,
    pub(crate) local: Arc<LocalMap>,
    pub(crate) estimate: ComponentEstimate,
}

impl Formed {
    /// Builds the snapshot of `(av, edges)` and its vertex map, and
    /// estimates it with `estimate`.
    pub(crate) fn build(
        graph: &ProbabilisticGraph,
        av: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
        estimate: impl FnOnce(&ComponentGraph) -> ComponentEstimate,
    ) -> Formed {
        let snapshot = FTree::build_snapshot(graph, av, edges, scratch);
        let estimate = estimate(&snapshot);
        let local = LocalMap::from_snapshot(snapshot.vertices());
        Formed {
            snapshot: Arc::new(snapshot),
            local: Arc::new(local),
            estimate,
        }
    }
}

/// Where an insertion gets the bi component it forms (cases IIIb/IV) or
/// grows (case IIIa): asked at most once per insertion, with the
/// component's articulation vertex and edge sequence.
pub(crate) trait ComponentSource {
    fn form(
        &mut self,
        graph: &ProbabilisticGraph,
        av: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
    ) -> Formed;
}

/// The source behind [`FTree::insert_edge`]: build the snapshot, let the
/// provider estimate it.
pub(crate) struct Estimated<'p>(pub(crate) &'p mut dyn EstimateProvider);

impl ComponentSource for Estimated<'_> {
    fn form(
        &mut self,
        graph: &ProbabilisticGraph,
        av: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
    ) -> Formed {
        Formed::build(graph, av, edges, scratch, |s| self.0.estimate(s))
    }
}

impl FTree {
    /// Inserts a selected edge, updating the component structure
    /// (§5.4 cases II–IV). `provider` supplies reachability estimates for
    /// any bi-connected component that forms or changes.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EdgeAlreadySelected`] on repeat insertion;
    /// * [`CoreError::DisconnectedEdge`] if neither endpoint is connected to
    ///   `Q` (the excluded Case I).
    pub fn insert_edge(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        provider: &mut dyn EstimateProvider,
    ) -> Result<InsertReport, CoreError> {
        self.insert_edge_from(graph, e, &mut Estimated(provider))
    }

    /// [`FTree::insert_edge`] with the formed or grown bi component taken
    /// from `source`.
    pub(crate) fn insert_edge_from(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        source: &mut dyn ComponentSource,
    ) -> Result<InsertReport, CoreError> {
        // A direct insertion bypasses the journal, so an enabled flow cache
        // would silently go stale; incremental commits go through
        // `apply` + `cache_mark_dirty` instead.
        debug_assert!(
            self.recorder.is_some() || self.flow_cache.is_none(),
            "direct insert_edge would stale the enabled flow cache"
        );
        if self.selected.contains(e) {
            return Err(CoreError::EdgeAlreadySelected(e));
        }
        let (a, b) = graph.endpoints(e);
        match (self.contains_vertex(a), self.contains_vertex(b)) {
            (false, false) => Err(CoreError::DisconnectedEdge {
                edge: e,
                endpoints: (a, b),
            }),
            (true, false) => {
                self.selected.insert(e);
                Ok(self.attach_leaf(graph, a, b, e))
            }
            (false, true) => {
                self.selected.insert(e);
                Ok(self.attach_leaf(graph, b, a, e))
            }
            (true, true) => {
                self.selected.insert(e);
                Ok(self.close_cycle(graph, a, b, e, source))
            }
        }
    }

    /// Case II: `leaf` is new, `anchor` is in the tree.
    fn attach_leaf(
        &mut self,
        graph: &ProbabilisticGraph,
        anchor: VertexId,
        leaf: VertexId,
        e: EdgeId,
    ) -> InsertReport {
        let p = graph.probability(e).value();
        match self.owner(anchor) {
            None => {
                // anchor is Q: attach to (or create) the mono root component.
                debug_assert_eq!(anchor, self.query);
                let existing = self.roots.iter().copied().find(|&c| !self.comp(c).is_bi());
                let cid = existing.unwrap_or_else(|| {
                    let c = Component {
                        articulation: anchor,
                        parent: None,
                        children: Vec::new(),
                        kind: Kind::Mono {
                            members: Arc::default(),
                        },
                    };
                    let id = self.alloc(c);
                    self.roots.push(id);
                    id
                });
                self.add_mono_member(cid, leaf, anchor, e, p);
                InsertReport {
                    case: InsertCase::LeafMono,
                    component: None,
                    sampled_edge_count: 0,
                }
            }
            Some(cid) if !self.comp(cid).is_bi() => {
                // Case IIa: dead end extends the mono component.
                self.add_mono_member(cid, leaf, anchor, e, p);
                InsertReport {
                    case: InsertCase::LeafMono,
                    component: None,
                    sampled_edge_count: 0,
                }
            }
            Some(cid) => {
                // Case IIb: new mono component hanging off the bi component.
                let mut members = BTreeMap::new();
                members.insert(
                    leaf,
                    MonoMember {
                        parent: anchor,
                        parent_edge: e,
                        edge_prob: p,
                        reach: p,
                        depth: 1,
                    },
                );
                let c = Component {
                    articulation: anchor,
                    parent: Some(cid),
                    children: Vec::new(),
                    kind: Kind::Mono {
                        members: Arc::new(members),
                    },
                };
                let id = self.alloc(c);
                self.comp_mut(cid).children.push(id);
                self.set_assignment(leaf, Some(id));
                InsertReport {
                    case: InsertCase::LeafBi,
                    component: None,
                    sampled_edge_count: 0,
                }
            }
        }
    }

    /// Adds `leaf` to mono component `cid`, hanging off member (or AV)
    /// `anchor`.
    fn add_mono_member(
        &mut self,
        cid: ComponentId,
        leaf: VertexId,
        anchor: VertexId,
        e: EdgeId,
        p: f64,
    ) {
        let comp = self.comp(cid);
        let (anchor_reach, anchor_depth) = if anchor == comp.articulation {
            (1.0, 0)
        } else {
            let Kind::Mono { members } = &comp.kind else {
                unreachable!()
            };
            let m = members
                .get(&anchor)
                .expect("anchor is a member of the mono component");
            (m.reach, m.depth)
        };
        let Kind::Mono { members } = &mut self.comp_mut(cid).kind else {
            unreachable!()
        };
        Arc::make_mut(members).insert(
            leaf,
            MonoMember {
                parent: anchor,
                parent_edge: e,
                edge_prob: p,
                reach: anchor_reach * p,
                depth: anchor_depth + 1,
            },
        );
        self.set_assignment(leaf, Some(cid));
    }

    /// Case III/IV dispatch: both endpoints are already in the tree.
    fn close_cycle(
        &mut self,
        graph: &ProbabilisticGraph,
        a: VertexId,
        b: VertexId,
        e: EdgeId,
        source: &mut dyn ComponentSource,
    ) -> InsertReport {
        let ca = self.owner(a);
        let cb = self.owner(b);
        // Case IIIa: the cycle stays inside one bi component. This covers
        // both endpoints being members, and one endpoint being the
        // component's articulation vertex (which the parent owns).
        if let Some(cid) = self.same_bi_component(a, b, ca, cb) {
            let Kind::Bi { edges, .. } = &mut self.comp_mut(cid).kind else {
                unreachable!()
            };
            Arc::make_mut(edges).push(e);
            let n = edges.len();
            self.refresh_bi(graph, cid, source);
            return InsertReport {
                case: InsertCase::CycleInBi,
                component: Some(cid),
                sampled_edge_count: n,
            };
        }
        if ca.is_some() && ca == cb {
            // Case IIIb: splitTree inside one mono component — handled by
            // the generic builder below (empty chains, mono LCA).
            return self.build_cycle(graph, a, b, e, source, InsertCase::CycleInMono);
        }
        self.build_cycle(graph, a, b, e, source, InsertCase::CycleAcross)
    }

    /// Detects Case IIIa: both endpoints lie within one bi component's
    /// vertex set (members ∪ articulation vertex).
    fn same_bi_component(
        &self,
        a: VertexId,
        b: VertexId,
        ca: Option<ComponentId>,
        cb: Option<ComponentId>,
    ) -> Option<ComponentId> {
        if let (Some(x), Some(y)) = (ca, cb) {
            if x == y {
                return self.comp(x).is_bi().then_some(x);
            }
        }
        // One endpoint may be the AV of the other's bi component.
        for (owner, other_vertex) in [(ca, b), (cb, a)] {
            if let Some(cid) = owner {
                if self.comp(cid).is_bi() && self.comp(cid).articulation == other_vertex {
                    return Some(cid);
                }
            }
        }
        None
    }

    /// The generic cycle builder shared by cases IIIb and IV.
    fn build_cycle(
        &mut self,
        graph: &ProbabilisticGraph,
        a: VertexId,
        b: VertexId,
        e: EdgeId,
        source: &mut dyn ComponentSource,
        case: InsertCase,
    ) -> InsertReport {
        #[cfg(debug_assertions)]
        FTree::note_structural_insert();
        let ca = self.owner(a);
        let cb = self.owner(b);
        let lca = self.lca_component(ca, cb);

        let mut members: Vec<VertexId> = Vec::new();
        let mut edges: Vec<EdgeId> = vec![e];
        let mut inherited: Vec<ComponentId> = Vec::new();

        let x = self.absorb_chain(graph, a, ca, lca, &mut members, &mut edges, &mut inherited);
        let y = self.absorb_chain(graph, b, cb, lca, &mut members, &mut edges, &mut inherited);

        // Case IVa: meet at the lowest common ancestor component.
        let (av, parent) = match lca {
            None => {
                // Virtual root: both chains terminate at Q.
                debug_assert!(x == self.query && y == self.query);
                (self.query, None)
            }
            Some(cid) => {
                if x == y {
                    // Trivial meeting cycle (the paper's "(9)" example).
                    (x, Some(cid))
                } else if self.comp(cid).is_bi() {
                    // The big cycle connects two vertices of a bi LCA
                    // transitively: the LCA merges into the new component.
                    let av = self.comp(cid).articulation;
                    let parent = self.comp(cid).parent;
                    self.detach_from_parent(cid);
                    self.absorb_bi(cid, &mut members, &mut edges, &mut inherited);
                    (av, parent)
                } else {
                    // splitTree between the two entry vertices of a mono LCA.
                    let v_lca = self.mono_lca(cid, x, y);
                    let mut removed = Vec::new();
                    self.move_mono_path(cid, x, v_lca, &mut members, &mut edges, &mut removed);
                    self.move_mono_path(cid, y, v_lca, &mut members, &mut edges, &mut removed);
                    self.regroup_after_removal(graph, cid, &removed, &mut inherited);
                    let comp = self.comp(cid);
                    if v_lca == comp.articulation {
                        let parent = comp.parent;
                        if comp.member_count() == 0 {
                            debug_assert!(comp.children.is_empty());
                            self.detach_from_parent(cid);
                            self.dealloc(cid);
                        }
                        (v_lca, parent)
                    } else {
                        (v_lca, Some(cid))
                    }
                }
            }
        };

        let n_edges = edges.len();
        let bc = self.finish_cycle_component(graph, av, parent, members, edges, inherited, source);
        InsertReport {
            case,
            component: Some(bc),
            sampled_edge_count: n_edges,
        }
    }

    /// Lowest common ancestor of two components in the F-tree
    /// (`None` = the virtual root at `Q`). Allocation-free: the deeper
    /// chain is lifted to the other's depth, then both climb in step.
    fn lca_component(
        &self,
        mut a: Option<ComponentId>,
        mut b: Option<ComponentId>,
    ) -> Option<ComponentId> {
        let depth = |mut c: Option<ComponentId>| {
            let mut d = 0usize;
            while let Some(cid) = c {
                d += 1;
                c = self.comp(cid).parent;
            }
            d
        };
        let up = |c: Option<ComponentId>| c.and_then(|cid| self.comp(cid).parent);
        let (mut da, mut db) = (depth(a), depth(b));
        while da > db {
            a = up(a);
            da -= 1;
        }
        while db > da {
            b = up(b);
            db -= 1;
        }
        while a != b {
            a = up(a);
            b = up(b);
        }
        a
    }

    /// Walks a chain of components from `start`'s component up to (exclusive)
    /// `stop`, absorbing everything on the cycle's path into the new
    /// component being built. Returns the vertex at which the chain enters
    /// `stop` (or `Q` if `stop` is the virtual root).
    #[allow(clippy::too_many_arguments)]
    fn absorb_chain(
        &mut self,
        graph: &ProbabilisticGraph,
        start: VertexId,
        start_comp: Option<ComponentId>,
        stop: Option<ComponentId>,
        members: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        inherited: &mut Vec<ComponentId>,
    ) -> VertexId {
        let mut entry = start;
        let mut cur = start_comp;
        while cur != stop {
            let cid = cur.expect("a chain can only end at the virtual root when stop is None");
            let av = self.comp(cid).articulation;
            let next = self.comp(cid).parent;
            if self.comp(cid).is_bi() {
                // Case IVb: the bi component is absorbed whole.
                self.detach_from_parent(cid);
                self.absorb_bi(cid, members, edges, inherited);
            } else {
                // Case IVc: only the entry→AV path joins the cycle.
                let mut removed = Vec::new();
                self.move_mono_path(cid, entry, av, members, edges, &mut removed);
                self.regroup_after_removal(graph, cid, &removed, inherited);
                if self.comp(cid).member_count() == 0 {
                    debug_assert!(self.comp(cid).children.is_empty());
                    self.detach_from_parent(cid);
                    self.dealloc(cid);
                }
            }
            entry = av;
            cur = next;
        }
        entry
    }

    /// Dissolves bi component `cid` into the cycle being built. The caller
    /// must already have detached it from its parent.
    fn absorb_bi(
        &mut self,
        cid: ComponentId,
        members: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        inherited: &mut Vec<ComponentId>,
    ) {
        let comp = self.take_component(cid);
        let Kind::Bi {
            edges: bi_edges,
            local,
            ..
        } = comp.kind
        else {
            panic!("absorb_bi on a mono component");
        };
        for &(v, _) in local.iter() {
            self.set_assignment(v, None); // reassigned to the new BC later
            members.push(v);
        }
        edges.extend(bi_edges.iter().copied());
        inherited.extend(comp.children);
    }

    /// Lowest common ancestor of two members within a mono component's
    /// internal tree (the AV acts as root with depth 0).
    fn mono_lca(&self, cid: ComponentId, x: VertexId, y: VertexId) -> VertexId {
        let comp = self.comp(cid);
        let av = comp.articulation;
        let Kind::Mono { members } = &comp.kind else {
            panic!("mono_lca on bi component")
        };
        let depth = |v: VertexId| if v == av { 0 } else { members[&v].depth };
        let up = |v: VertexId| members[&v].parent;
        let (mut px, mut py) = (x, y);
        while depth(px) > depth(py) {
            px = up(px);
        }
        while depth(py) > depth(px) {
            py = up(py);
        }
        while px != py {
            px = up(px);
            py = up(py);
        }
        px
    }

    /// Moves the path `from → stop_vertex` (excluding `stop_vertex`) out of
    /// mono component `cid` into the cycle being built: the vertices join
    /// `members`, their parent edges join `edges`.
    fn move_mono_path(
        &mut self,
        cid: ComponentId,
        from: VertexId,
        stop_vertex: VertexId,
        members: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        removed: &mut Vec<VertexId>,
    ) {
        let Kind::Mono { members: mm } = &mut self.comp_mut(cid).kind else {
            panic!("move_mono_path on bi component")
        };
        let mm = Arc::make_mut(mm);
        let mut v = from;
        while v != stop_vertex {
            let m = mm
                .remove(&v)
                .expect("path vertex is a member of the mono component");
            members.push(v);
            edges.push(m.parent_edge);
            removed.push(v);
            v = m.parent;
        }
        for &v in removed.iter() {
            self.set_assignment(v, None); // reassigned to the new BC later
        }
    }

    /// After removing `removed` vertices from mono component `cid`: collects
    /// orphans (remaining members whose AV-ward path crossed a removed
    /// vertex) into new mono components anchored at the first removed vertex
    /// on their path (§5.4 case IIIb step iii), and re-parents the children
    /// of `cid` whose AV moved.
    ///
    /// Orphans are found by walking down from each removed vertex through
    /// its graph neighbours — `u` is a child of `v` iff `u`'s parent hop is
    /// `v` over the connecting edge — stopping at removed vertices, which
    /// anchor their own groups. The cost is the orphans' degrees, not the
    /// component's size. Each group is sorted ascending, and groups split off
    /// in ascending anchor order.
    ///
    /// Newly created orphan components and children that must hang off the
    /// new bi component are appended to `inherited`.
    fn regroup_after_removal(
        &mut self,
        graph: &ProbabilisticGraph,
        cid: ComponentId,
        removed: &[VertexId],
        inherited: &mut Vec<ComponentId>,
    ) {
        if removed.is_empty() {
            return;
        }
        let removed_set: BTreeSet<VertexId> = removed.iter().copied().collect();

        let mut groups: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
        {
            let Kind::Mono { members } = &self.comp(cid).kind else {
                unreachable!()
            };
            let mut stack: Vec<VertexId> = Vec::new();
            for &anchor in &removed_set {
                let mut group = Vec::new();
                stack.push(anchor);
                while let Some(v) = stack.pop() {
                    for (u, e) in graph.neighbors(v) {
                        // Removed vertices left `members`, so a walk never
                        // descends past one.
                        if members
                            .get(&u)
                            .is_some_and(|m| m.parent == v && m.parent_edge == e)
                        {
                            group.push(u);
                            stack.push(u);
                        }
                    }
                }
                if !group.is_empty() {
                    group.sort_unstable();
                    groups.push((anchor, group));
                }
            }
        }

        // Split each group off into a new mono component, recomputing
        // reach/depth relative to the new AV.
        for (anchor, group) in groups {
            let mut taken: BTreeMap<VertexId, MonoMember> = BTreeMap::new();
            {
                let Kind::Mono { members } = &mut self.comp_mut(cid).kind else {
                    unreachable!()
                };
                let members = Arc::make_mut(members);
                for &v in &group {
                    let m = members.remove(&v).expect("orphan is a member");
                    taken.insert(v, m);
                }
            }
            recompute_mono_tree(&mut taken, anchor);
            let oc = Component {
                articulation: anchor,
                parent: None, // fixed up when attached to the new BC
                children: Vec::new(),
                kind: Kind::Mono {
                    members: Arc::new(taken),
                },
            };
            let oid = self.alloc(oc);
            for &v in &group {
                self.set_assignment(v, Some(oid));
            }
            inherited.push(oid);
        }

        // Re-parent children of `cid` whose AV left the component.
        let children: Vec<ComponentId> = self.comp(cid).children.clone();
        for child in children {
            let cav = self.comp(child).articulation;
            if removed_set.contains(&cav) {
                // AV joins the new BC: the child hangs off it.
                self.detach_from_parent(child);
                inherited.push(child);
            } else if let Some(owner) = self.owner(cav) {
                if owner != cid {
                    // AV moved into an orphan group: reattach there.
                    self.detach_from_parent(child);
                    self.comp_mut(child).parent = Some(owner);
                    self.comp_mut(owner).children.push(child);
                }
            }
        }
    }

    /// Assembles the collected cycle into a new bi-connected component —
    /// its snapshot, vertex map and estimate come from `source` — and
    /// wires up assignments, parent and inherited children.
    #[allow(clippy::too_many_arguments)]
    fn finish_cycle_component(
        &mut self,
        graph: &ProbabilisticGraph,
        av: VertexId,
        parent: Option<ComponentId>,
        members: Vec<VertexId>,
        edges: Vec<EdgeId>,
        inherited: Vec<ComponentId>,
        source: &mut dyn ComponentSource,
    ) -> ComponentId {
        debug_assert!(
            !members.contains(&av),
            "AV is never a member of its component"
        );
        debug_assert_eq!(
            members.iter().collect::<BTreeSet<_>>().len(),
            members.len(),
            "cycle members must be unique"
        );
        let mut scratch = std::mem::take(&mut self.local_scratch);
        let Formed {
            snapshot,
            local,
            estimate,
        } = source.form(graph, av, &edges, &mut scratch);
        self.local_scratch = scratch;
        debug_assert_eq!(
            local.len(),
            members.len(),
            "snapshot vertices must equal members"
        );
        let version = self.next_version();
        let bc = self.alloc(Component {
            articulation: av,
            parent: None,
            children: Vec::new(),
            kind: Kind::Bi {
                edges: Arc::new(edges),
                snapshot,
                estimate: Arc::new(estimate),
                local,
                version,
            },
        });
        for &v in &members {
            self.set_assignment(v, Some(bc));
        }
        for child in inherited {
            self.comp_mut(child).parent = Some(bc);
            self.comp_mut(bc).children.push(child);
        }
        self.attach_to_parent(bc, parent);
        bc
    }
}

/// Recomputes `reach` and `depth` for a detached mono-member group whose new
/// AV is `anchor`. Parent pointers within the group are unchanged; members
/// adjacent to `anchor` reset to depth 1.
fn recompute_mono_tree(members: &mut BTreeMap<VertexId, MonoMember>, anchor: VertexId) {
    let keys: Vec<VertexId> = members.keys().copied().collect();
    let mut fixed: BTreeSet<VertexId> = BTreeSet::new();
    let mut stack: Vec<VertexId> = Vec::new();
    for v in keys {
        if fixed.contains(&v) {
            continue;
        }
        stack.push(v);
        while let Some(&top) = stack.last() {
            let parent = members[&top].parent;
            if parent == anchor {
                let m = members.get_mut(&top).expect("member");
                m.reach = m.edge_prob;
                m.depth = 1;
                fixed.insert(top);
                stack.pop();
            } else if fixed.contains(&parent) {
                let (p_reach, p_depth) = {
                    let pm = &members[&parent];
                    (pm.reach, pm.depth)
                };
                let m = members.get_mut(&top).expect("member");
                m.reach = p_reach * m.edge_prob;
                m.depth = p_depth + 1;
                fixed.insert(top);
                stack.pop();
            } else {
                stack.push(parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, SamplingProvider};
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn exact_provider() -> SamplingProvider {
        SamplingProvider::new(EstimatorConfig::exact(), 42)
    }

    /// Path Q(0)-1-2 plus chord 0-2 and tail 2-3.
    fn diamond_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e2
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e3
        b.build()
    }

    #[test]
    fn case_i_rejected() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        // Edge 2-3 touches neither Q nor any inserted vertex.
        let err = t.insert_edge(&g, EdgeId(3), &mut pr).unwrap_err();
        assert!(matches!(err, CoreError::DisconnectedEdge { .. }));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        let err = t.insert_edge(&g, EdgeId(0), &mut pr).unwrap_err();
        assert_eq!(err, CoreError::EdgeAlreadySelected(EdgeId(0)));
    }

    #[test]
    fn leaf_attachments_build_mono_root() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        let r = t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::LeafMono);
        let r = t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::LeafMono);
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.bi_component_count(), 0);
        assert!((t.reach_to_query(VertexId(2)) - 0.25).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn chord_triggers_split_tree() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        // Chord 0-2: cycle Q-1-2-Q. Endpoint 0 is Q (virtual root), so this
        // runs the cross-component path meeting at the virtual root.
        let r = t.insert_edge(&g, EdgeId(2), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleAcross);
        assert_eq!(r.sampled_edge_count, 3);
        assert_eq!(t.bi_component_count(), 1);
        // Exact triangle probability: 0.5 + 0.5·0.25 = 0.625.
        assert!((t.reach_to_query(VertexId(1)) - 0.625).abs() < 1e-12);
        assert!((t.reach_to_query(VertexId(2)) - 0.625).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn leaf_on_bi_component_becomes_child_mono() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in [0, 1, 2] {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let r = t.insert_edge(&g, EdgeId(3), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::LeafBi);
        assert_eq!(t.component_count(), 2);
        // v3 reach = reach(2) · 0.5 = 0.3125.
        assert!((t.reach_to_query(VertexId(3)) - 0.3125).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn cycle_in_mono_splits_and_orphans() {
        // Q(0)-1, 1-2, 2-3, 1-4 (orphan side), then chord 2-... build:
        // tree: Q-1-2-3 and 1-4; cycle edge 3-1 creates BC {2,3} AV=1;
        // vertex 4 stays mono under 1.
        let mut b = GraphBuilder::new();
        b.add_vertices(5, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e2
        b.add_edge(VertexId(1), VertexId(4), p).unwrap(); // e3
        b.add_edge(VertexId(3), VertexId(1), p).unwrap(); // e4 (chord)
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in [0, 1, 2, 3] {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let r = t.insert_edge(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleInMono);
        assert_eq!(t.bi_component_count(), 1);
        // Mono root {1, 4}, BC {2, 3} with AV 1.
        assert!((t.reach_to_query(VertexId(4)) - 0.25).abs() < 1e-12);
        // Triangle-as-cycle 1-2-3-1: reach(2 ↔ 1) = 0.625; times reach(1) 0.5.
        assert!((t.reach_to_query(VertexId(2)) - 0.3125).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn cycle_in_bi_reestimates_in_place() {
        // Square Q-1-2-3-Q, then diagonal 1-3 inside the bi component.
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p).unwrap();
        b.add_edge(VertexId(3), VertexId(0), p).unwrap();
        b.add_edge(VertexId(1), VertexId(3), p).unwrap();
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in [0, 1, 2, 3] {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        assert_eq!(t.bi_component_count(), 1);
        let before = t.reach_to_query(VertexId(2));
        let r = t.insert_edge(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleInBi);
        assert_eq!(t.bi_component_count(), 1);
        assert_eq!(t.component_count(), 1);
        let after = t.reach_to_query(VertexId(2));
        assert!(after > before, "extra path must increase reachability");
        t.validate(&g).unwrap();
    }

    #[test]
    fn cross_component_cycle_absorbs_bi_chain() {
        // Build: triangle Q-1-2 (BC1), tail 2-3 (mono), triangle 3-4-5 via
        // edges (3-4),(4-5),(5-3) => BC2 under mono; then edge 5-Q closes a
        // giant cycle absorbing everything.
        let mut b = GraphBuilder::new();
        b.add_vertices(6, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e2 → BC1
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e3 tail
        b.add_edge(VertexId(3), VertexId(4), p).unwrap(); // e4
        b.add_edge(VertexId(4), VertexId(5), p).unwrap(); // e5
        b.add_edge(VertexId(5), VertexId(3), p).unwrap(); // e6 → BC2
        b.add_edge(VertexId(5), VertexId(0), p).unwrap(); // e7 giant cycle
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in 0..7 {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        assert_eq!(t.bi_component_count(), 2);
        let r = t.insert_edge(&g, EdgeId(7), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleAcross);
        // Everything collapses into one bi component rooted at Q.
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.bi_component_count(), 1);
        assert_eq!(r.sampled_edge_count, 8);
        t.validate(&g).unwrap();
    }

    #[test]
    fn recompute_mono_tree_fixes_reach_and_depth() {
        // Chain anchor <- a <- b with probs 0.5, 0.25.
        let anchor = VertexId(7);
        let a = VertexId(8);
        let b = VertexId(9);
        let mut members = BTreeMap::new();
        members.insert(
            a,
            MonoMember {
                parent: anchor,
                parent_edge: EdgeId(0),
                edge_prob: 0.5,
                reach: 0.1,
                depth: 9,
            },
        );
        members.insert(
            b,
            MonoMember {
                parent: a,
                parent_edge: EdgeId(1),
                edge_prob: 0.25,
                reach: 0.2,
                depth: 9,
            },
        );
        recompute_mono_tree(&mut members, anchor);
        assert_eq!(members[&a].reach, 0.5);
        assert_eq!(members[&a].depth, 1);
        assert_eq!(members[&b].reach, 0.125);
        assert_eq!(members[&b].depth, 2);
    }

    /// The orphan golden: chord 4-1 carves the path 4→3→2 out of the mono
    /// tree Q-1-2-3-4 whose removed vertices carry nested orphans (5 with
    /// its child 6 under 2), a removed child (3 under 2, 4 under 3) and
    /// plain orphans (7 under 3, 8 under 4). Each removed vertex anchors
    /// its own group, groups split off in ascending anchor order, and every
    /// orphan's reach and depth restart at its anchor.
    #[test]
    fn split_tree_regroups_nested_orphans_under_their_nearest_removed_vertex() {
        let mut b = GraphBuilder::new();
        b.add_vertices(9, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        for (x, y) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (2, 5),
            (5, 6),
            (3, 7),
            (4, 8),
            (4, 1),
        ] {
            b.add_edge(VertexId(x), VertexId(y), p).unwrap();
        }
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in 0..8 {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let root = t.owner(VertexId(1)).unwrap();
        let r = t.insert_edge(&g, EdgeId(8), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleInMono);
        let bc = r.component.unwrap();
        let group = |v: u32| t.owner(VertexId(v)).unwrap();
        let members = |cid: ComponentId| -> Vec<(u32, f64, u32)> {
            let Kind::Mono { members } = &t.comp(cid).kind else {
                panic!("orphan groups are mono")
            };
            members
                .iter()
                .map(|(v, m)| (v.0, m.reach, m.depth))
                .collect()
        };
        let (o2, o3, o4) = (group(5), group(7), group(8));
        assert_eq!(group(6), o2);
        assert_eq!(members(o2), [(5, 0.5, 1), (6, 0.25, 2)]);
        assert_eq!(members(o3), [(7, 0.5, 1)]);
        assert_eq!(members(o4), [(8, 0.5, 1)]);
        assert_eq!(members(root), [(1, 0.5, 1)]);
        for (cid, av) in [(o2, 2), (o3, 3), (o4, 4)] {
            assert_eq!(t.comp(cid).articulation, VertexId(av));
            assert_eq!(t.comp(cid).parent, Some(bc));
        }
        assert!(o2 < o3 && o3 < o4 && o4 < bc, "groups allocate by anchor");
        assert_eq!(t.comp(bc).children, [o2, o3, o4]);
        assert_eq!(t.comp(bc).parent, Some(root));
        for v in 2..=4 {
            assert_eq!(t.owner(VertexId(v)), Some(bc));
        }
        t.validate(&g).unwrap();
    }
}
