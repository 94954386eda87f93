//! The F-tree (Flow tree) of §5.3 — the paper's central data structure.
//!
//! An F-tree organizes the *selected* subgraph into components, each owning a
//! set of vertices and an **articulation vertex** (AV) that all information
//! from the component must flow through on its way to the query vertex `Q`:
//!
//! * **mono-connected components** are tree-shaped: every member has a unique
//!   path to the AV, so its reachability is an exact product of edge
//!   probabilities (Lemma 2 / Theorem 2) — no sampling;
//! * **bi-connected components** contain cycles: member reachability toward
//!   the AV is estimated (Monte-Carlo per Lemma 1, or exactly for small
//!   components via the pluggable
//!   [`EstimateProvider`](crate::estimator::EstimateProvider)).
//!
//! Components form a forest rooted at `Q`: a component's AV is always owned
//! by its parent component (or is `Q` itself for roots), so expected flow
//! aggregates multiplicatively down the tree (independence across components
//! is guaranteed because an articulation vertex separates edge-disjoint
//! subgraphs).
//!
//! Submodules: `insert` implements the edge-insertion cases I–IV of §5.4,
//! `flow` the expected-flow computation, and `validate` an invariant
//! checker used heavily by tests.

mod flow;
mod insert;
mod journal;
mod validate;

pub(crate) use flow::{AtHand, InApplyScore, PlanMode};
pub use flow::{ProbeOutcome, ProbePlan, SampledProbe};
pub(crate) use insert::{ComponentSource, Estimated, Formed};
pub use insert::{InsertCase, InsertReport};
pub use journal::Journal;

use std::collections::BTreeMap;
use std::sync::Arc;

use flowmax_graph::{EdgeId, EdgeSubset, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph, LocalIdScratch};

/// Identifier of a component within an [`FTree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

/// Borrowed read-only view of one component (Def. 9), as yielded by
/// [`FTree::components`].
///
/// Nothing is copied out of the tree: children are a borrowed slice and
/// members/edges are iterators over the component's own storage (the
/// historical `ComponentView` cloned all three per component per call).
#[derive(Debug, Clone, Copy)]
pub struct ComponentRef<'t> {
    /// Component id.
    pub id: ComponentId,
    /// The articulation vertex all member flow passes through.
    pub articulation: VertexId,
    /// Parent component (`None` iff the AV is `Q`).
    pub parent: Option<ComponentId>,
    /// Child components.
    pub children: &'t [ComponentId],
    kind: &'t Kind,
}

impl<'t> ComponentRef<'t> {
    /// `true` for bi-connected (sampled) components.
    pub fn is_bi(&self) -> bool {
        matches!(self.kind, Kind::Bi { .. })
    }

    /// Member vertices in ascending order (the AV is not a member).
    pub fn members(&self) -> impl Iterator<Item = VertexId> + 't {
        match self.kind {
            Kind::Mono { members } => MemberIter::Mono(members.keys()),
            Kind::Bi { local, .. } => MemberIter::Bi(local.iter()),
        }
    }

    /// Number of member vertices.
    pub fn member_count(&self) -> usize {
        match self.kind {
            Kind::Mono { members } => members.len(),
            Kind::Bi { local, .. } => local.len(),
        }
    }

    /// For bi components: the component's edges (insertion order); for
    /// mono components: each member's parent edge (member order).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + 't {
        match self.kind {
            Kind::Mono { members } => EdgeIter::Mono(members.values()),
            Kind::Bi { edges, .. } => EdgeIter::Bi(edges.iter()),
        }
    }

    /// Number of edges held by the component.
    pub fn edge_count(&self) -> usize {
        match self.kind {
            Kind::Mono { members } => members.len(),
            Kind::Bi { edges, .. } => edges.len(),
        }
    }
}

/// Borrowing member iterator behind [`ComponentRef::members`] (the two
/// component flavours key their members in maps of different value types).
enum MemberIter<'t> {
    Mono(std::collections::btree_map::Keys<'t, VertexId, MonoMember>),
    Bi(std::slice::Iter<'t, (VertexId, u32)>),
}

impl Iterator for MemberIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        match self {
            MemberIter::Mono(it) => it.next().copied(),
            MemberIter::Bi(it) => it.next().map(|&(v, _)| v),
        }
    }
}

/// Borrowing edge iterator behind [`ComponentRef::edges`].
enum EdgeIter<'t> {
    Mono(std::collections::btree_map::Values<'t, VertexId, MonoMember>),
    Bi(std::slice::Iter<'t, EdgeId>),
}

impl Iterator for EdgeIter<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        match self {
            EdgeIter::Mono(it) => it.next().map(|m| m.parent_edge),
            EdgeIter::Bi(it) => it.next().copied(),
        }
    }
}

impl ComponentId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-member bookkeeping inside a mono-connected component: the member's
/// unique within-component path toward the AV, one hop at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MonoMember {
    /// Next hop toward the articulation vertex (may be the AV itself).
    pub parent: VertexId,
    /// The edge connecting this member to `parent`.
    pub parent_edge: EdgeId,
    /// Probability of `parent_edge` (cached to avoid graph lookups).
    pub edge_prob: f64,
    /// Product of edge probabilities along the path to the AV (Lemma 2).
    pub reach: f64,
    /// Hop count to the AV (`1` for direct AV neighbours); used for
    /// within-component lowest-common-ancestor computations.
    pub depth: u32,
}

/// Sorted vertex → local-index map for bi components.
///
/// Rebuilt wholesale on every structural change — including every
/// structural *probe* — so construction cost is on the greedy hot path. A
/// sorted `Vec` costs one allocation per rebuild (the `BTreeMap` it
/// replaced allocated a node per member), looks up by branch-light binary
/// search, and iterates in the same ascending vertex order, keeping flow
/// accumulation — hence results — bit-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LocalMap(Vec<(VertexId, u32)>);

impl LocalMap {
    /// Builds the map from a snapshot's vertex list (index 0 is the AV,
    /// which is not a member).
    pub(crate) fn from_snapshot(vertices: &[VertexId]) -> Self {
        let mut pairs: Vec<(VertexId, u32)> = vertices
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &v)| (v, i as u32))
            .collect();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        LocalMap(pairs)
    }

    #[inline]
    fn position(&self, v: VertexId) -> Option<usize> {
        self.0.binary_search_by_key(&v, |&(w, _)| w).ok()
    }

    #[inline]
    pub(crate) fn contains_key(&self, v: &VertexId) -> bool {
        self.position(*v).is_some()
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Member vertices in ascending order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &VertexId> + '_ {
        self.0.iter().map(|(v, _)| v)
    }

    /// `(vertex, local index)` pairs in ascending vertex order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (VertexId, u32)> {
        self.0.iter()
    }
}

impl std::ops::Index<&VertexId> for LocalMap {
    type Output = u32;

    #[inline]
    fn index(&self, v: &VertexId) -> &u32 {
        let i = self
            .position(*v)
            .expect("vertex is a member of this bi component");
        &self.0[i].1
    }
}

/// The two component flavours of Def. 9.
///
/// Both flavours keep their payloads behind `Arc`s, so the undo journal's
/// first-touch slot image of a component — taken on every structural probe
/// for each component the insertion merely re-parents or re-links — costs
/// reference-count bumps and a copy of the child list, never a deep copy
/// of members, edges, snapshot or estimate. A payload the insertion does
/// change is copied on write (`Arc::make_mut`) or replaced wholesale.
#[allow(clippy::large_enum_variant)] // Bi is the hot, common variant; boxing
// it would add an indirection to every flow evaluation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kind {
    /// Tree-shaped: exact analytic flow (Theorem 2).
    Mono {
        /// Members keyed by vertex; `BTreeMap` keeps every iteration
        /// deterministic (sampling order, hence results, are seed-stable).
        /// Mutated through `Arc::make_mut`: copied only when a journal
        /// image still shares it.
        members: Arc<BTreeMap<VertexId, MonoMember>>,
    },
    /// Cyclic: estimated flow (Lemma 1 or exact enumeration).
    ///
    /// The snapshot, estimate and local map are replaced wholesale on every
    /// structural change; the edge list is appended to through
    /// `Arc::make_mut` (case IIIa).
    Bi {
        /// The component's edge set (insertion order).
        edges: Arc<Vec<EdgeId>>,
        /// Compact snapshot used for (re-)estimation.
        snapshot: Arc<ComponentGraph>,
        /// `BC.P(v)`: reachability of each snapshot vertex toward the AV.
        estimate: Arc<ComponentEstimate>,
        /// Vertex → local index into `snapshot`/`estimate`.
        local: Arc<LocalMap>,
        /// Bumped on every structural change; consumed by memoization.
        version: u64,
    },
}

/// One component of the F-tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Component {
    /// The articulation vertex all member flow must pass through.
    pub articulation: VertexId,
    /// Owning component of `articulation` (`None` iff `articulation == Q`).
    pub parent: Option<ComponentId>,
    /// Components whose AV is owned by this component.
    pub children: Vec<ComponentId>,
    /// Mono or bi-connected payload.
    pub kind: Kind,
}

impl Component {
    /// Number of member vertices (the AV is not a member).
    pub(crate) fn member_count(&self) -> usize {
        match &self.kind {
            Kind::Mono { members } => members.len(),
            Kind::Bi { local, .. } => local.len(),
        }
    }

    /// Whether the component is bi-connected.
    pub(crate) fn is_bi(&self) -> bool {
        matches!(self.kind, Kind::Bi { .. })
    }
}

/// The F-tree over a fixed probabilistic graph (§5.3, Def. 9).
///
/// The tree holds only vertex/edge *ids*; every operation takes the graph it
/// was created for. Structural probes (cases IIIb/IV) are evaluated without
/// lasting mutation via the undo journal ([`FTree::apply`] /
/// [`FTree::rollback`], see [`journal`](self)): the candidate is inserted in
/// place, scored, and rolled back bit-identically — no per-probe clone.
#[derive(Debug)]
pub struct FTree {
    query: VertexId,
    /// Component arena; `None` slots are free-listed.
    arena: Vec<Option<Component>>,
    free: Vec<u32>,
    /// Per-vertex owning component (`None`: not in the tree / is `Q`).
    assignment: Vec<Option<ComponentId>>,
    /// Components whose AV is `Q`.
    roots: Vec<ComponentId>,
    /// All edges inserted so far.
    selected: EdgeSubset,
    /// Monotone counter feeding `Kind::Bi::version`.
    version_counter: u64,
    /// Reusable global-vertex → local-id map for component snapshot builds
    /// (allocated once per tree, epoch-reset; replaces the per-snapshot
    /// hash map).
    local_scratch: LocalIdScratch,
    /// Active undo journal of an in-flight [`FTree::apply`] (`None` in
    /// steady state).
    recorder: Option<Box<journal::Recorder>>,
    /// Incremental per-component flow aggregation (`None` unless the
    /// incremental selection engine enabled it). Pure working memory:
    /// excluded from equality, reset on clone.
    flow_cache: Option<Box<flow::FlowCache>>,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Clones performed by this thread — the probe paths are asserted
    /// clone-free against it in debug builds (thread-local so concurrent
    /// tests and worker pools never alias each other's counts).
    static FTREE_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Whole-forest flow traversals performed by this thread. The
    /// incremental selection loop asserts one full greedy iteration bumps
    /// this by zero: probes and commits must aggregate `O(touched)` through
    /// the flow cache, never re-walk the whole tree.
    static FULL_FLOW_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Structural (case IIIb/IV) insertion executions by this thread.
    /// `RaceDriver` asserts one per structural plan and none per re-score.
    static STRUCTURAL_INSERTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Component snapshots built by this thread's F-trees. A warm
    /// structural probe is served its lane's snapshot and builds none; the
    /// race driver asserts builds equal its cold plans.
    static SNAPSHOT_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Clone for FTree {
    /// Deep-copies the tree (used by tests, and by the pinned clone-based
    /// probe reference). Debug builds count clones per thread so the
    /// selection hot loop can assert it performs none; see
    /// [`FTree::debug_clone_count`].
    fn clone(&self) -> Self {
        #[cfg(debug_assertions)]
        FTREE_CLONES.with(|c| c.set(c.get() + 1));
        debug_assert!(self.recorder.is_none(), "cannot clone mid-apply");
        FTree {
            query: self.query,
            arena: self.arena.clone(),
            free: self.free.clone(),
            assignment: self.assignment.clone(),
            roots: self.roots.clone(),
            selected: self.selected.clone(),
            version_counter: self.version_counter,
            // The scratch is per-tree working memory, not state: the clone
            // starts with an empty one that grows on first use.
            local_scratch: LocalIdScratch::default(),
            recorder: None,
            // Cached flow aggregation is working memory too; a clone that
            // wants incremental flow re-enables the cache itself.
            flow_cache: None,
        }
    }
}

impl PartialEq for FTree {
    /// Structural equality over everything that defines the tree's
    /// behaviour: components (estimates and versions included), vertex
    /// assignments, arena layout, free-list order, roots, selected edges
    /// and the version counter. Working memory (the snapshot scratch, an
    /// in-flight journal) is excluded. Used by the apply/rollback
    /// restoration tests.
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query
            && self.arena == other.arena
            && self.free == other.free
            && self.assignment == other.assignment
            && self.roots == other.roots
            && self.selected == other.selected
            && self.version_counter == other.version_counter
    }
}

impl FTree {
    /// Creates the trivial F-tree `(∅, Q)` for `graph`.
    pub fn new(graph: &ProbabilisticGraph, query: VertexId) -> Self {
        assert!(
            query.index() < graph.vertex_count(),
            "query vertex out of bounds"
        );
        FTree {
            query,
            arena: Vec::new(),
            free: Vec::new(),
            assignment: vec![None; graph.vertex_count()],
            roots: Vec::new(),
            selected: EdgeSubset::for_graph(graph),
            version_counter: 0,
            local_scratch: LocalIdScratch::new(graph.vertex_count()),
            recorder: None,
            flow_cache: None,
        }
    }

    /// Number of [`FTree`] clones this thread has performed (debug builds
    /// only). The greedy loop asserts its probe phase leaves this counter
    /// untouched — the journal made candidate probing clone-free.
    #[cfg(debug_assertions)]
    pub fn debug_clone_count() -> u64 {
        FTREE_CLONES.with(|c| c.get())
    }

    /// Number of whole-forest flow traversals this thread has performed
    /// (debug builds only). The incremental selection loop asserts a full
    /// greedy iteration leaves this untouched: all of its flow evaluations
    /// must run through the `O(touched)` cache instead.
    #[cfg(debug_assertions)]
    pub fn debug_full_flow_eval_count() -> u64 {
        FULL_FLOW_EVALS.with(|c| c.get())
    }

    #[cfg(debug_assertions)]
    pub(crate) fn note_full_flow_eval() {
        FULL_FLOW_EVALS.with(|c| c.set(c.get() + 1));
    }

    /// Number of structural (case IIIb/IV) insertion executions this
    /// thread has performed (debug builds only; probes and commits both
    /// count). `RaceDriver` asserts a race inserts once per structural
    /// plan and never per re-score.
    #[cfg(debug_assertions)]
    pub fn debug_structural_insert_count() -> u64 {
        STRUCTURAL_INSERTS.with(|c| c.get())
    }

    #[cfg(debug_assertions)]
    pub(crate) fn note_structural_insert() {
        STRUCTURAL_INSERTS.with(|c| c.set(c.get() + 1));
    }

    /// Number of component snapshots this thread's F-trees have built
    /// (debug builds only): one per cycle insertion whose component was
    /// not served ready-made, and one per case-IIIa probe plan. The race
    /// driver asserts a warm structural probe builds none.
    #[cfg(debug_assertions)]
    pub fn debug_snapshot_build_count() -> u64 {
        SNAPSHOT_BUILDS.with(|c| c.get())
    }

    /// Builds the snapshot of `(av, edges)` — the one place the F-tree
    /// builds component snapshots, so the debug counter sees every build.
    pub(crate) fn build_snapshot(
        graph: &ProbabilisticGraph,
        av: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
    ) -> ComponentGraph {
        #[cfg(debug_assertions)]
        SNAPSHOT_BUILDS.with(|c| c.set(c.get() + 1));
        ComponentGraph::build_with(graph, av, edges, scratch)
    }

    /// The query vertex `Q`.
    pub fn query(&self) -> VertexId {
        self.query
    }

    /// Edges inserted so far.
    pub fn selected_edges(&self) -> &EdgeSubset {
        &self.selected
    }

    /// Number of selected edges.
    pub fn edge_count(&self) -> usize {
        self.selected.len()
    }

    /// Whether `v` is connected to the query through selected edges
    /// (i.e. is `Q` itself or a member of some component).
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v == self.query || self.assignment[v.index()].is_some()
    }

    /// Number of vertices in the tree, including `Q`.
    pub fn vertex_count(&self) -> usize {
        1 + self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Number of live components.
    pub fn component_count(&self) -> usize {
        self.arena.iter().filter(|c| c.is_some()).count()
    }

    /// Number of live bi-connected components.
    pub fn bi_component_count(&self) -> usize {
        self.arena.iter().flatten().filter(|c| c.is_bi()).count()
    }

    /// The component owning `v`, or `None` for `Q` and unconnected vertices.
    pub(crate) fn owner(&self, v: VertexId) -> Option<ComponentId> {
        self.assignment[v.index()]
    }

    pub(crate) fn comp(&self, cid: ComponentId) -> &Component {
        self.arena[cid.index()].as_ref().expect("live component")
    }

    /// Mutable access to a live component. This is the single gateway for
    /// in-place component mutation, so an active [`FTree::apply`] journal
    /// snapshots the slot here (first touch only) before handing it out.
    pub(crate) fn comp_mut(&mut self, cid: ComponentId) -> &mut Component {
        self.record_slot_touch(cid.0);
        self.arena[cid.index()].as_mut().expect("live component")
    }

    pub(crate) fn alloc(&mut self, component: Component) -> ComponentId {
        if let Some(slot) = self.free.pop() {
            self.record_alloc(slot);
            self.arena[slot as usize] = Some(component);
            ComponentId(slot)
        } else {
            let slot = self.arena.len() as u32;
            self.record_alloc(slot);
            self.arena.push(Some(component));
            ComponentId(slot)
        }
    }

    /// Frees a component slot. The caller is responsible for having detached
    /// it from parents/children/assignments.
    pub(crate) fn dealloc(&mut self, cid: ComponentId) {
        self.record_slot_touch(cid.0);
        debug_assert!(self.arena[cid.index()].is_some());
        self.arena[cid.index()] = None;
        self.free.push(cid.0);
    }

    /// Detaches `cid` from its parent's child list (or from the roots).
    pub(crate) fn detach_from_parent(&mut self, cid: ComponentId) {
        let parent = self.comp(cid).parent;
        let list = match parent {
            Some(p) => &mut self.comp_mut(p).children,
            None => &mut self.roots,
        };
        if let Some(pos) = list.iter().position(|&c| c == cid) {
            list.swap_remove(pos);
        }
    }

    /// Attaches `cid` under `parent` (`None` = root), updating both sides.
    pub(crate) fn attach_to_parent(&mut self, cid: ComponentId, parent: Option<ComponentId>) {
        self.comp_mut(cid).parent = parent;
        match parent {
            Some(p) => self.comp_mut(p).children.push(cid),
            None => self.roots.push(cid),
        }
    }

    pub(crate) fn next_version(&mut self) -> u64 {
        self.version_counter += 1;
        self.version_counter
    }

    /// Reachability of `v` toward the AV *within* component `cid`
    /// (`1` for the AV itself).
    pub(crate) fn reach_in(&self, cid: ComponentId, v: VertexId) -> f64 {
        let comp = self.comp(cid);
        if v == comp.articulation {
            return 1.0;
        }
        match &comp.kind {
            Kind::Mono { members } => members.get(&v).expect("member of mono component").reach,
            Kind::Bi {
                estimate, local, ..
            } => estimate.reach(local[&v] as usize),
        }
    }

    /// Probability that `v` reaches the query vertex through the selected
    /// subgraph, under the tree's current component estimates
    /// (`Π` of per-component reaches along the path to the root).
    pub fn reach_to_query(&self, v: VertexId) -> f64 {
        if v == self.query {
            return 1.0;
        }
        let Some(mut cid) = self.owner(v) else {
            return 0.0;
        };
        let mut vertex = v;
        let mut prob = 1.0;
        loop {
            prob *= self.reach_in(cid, vertex);
            let comp = self.comp(cid);
            vertex = comp.articulation;
            match comp.parent {
                Some(p) => cid = p,
                None => return prob,
            }
        }
    }

    /// Version of the bi-connected component owning both endpoints of a
    /// would-be Case IIIa insertion (used by memoization to detect staleness).
    pub fn bi_component_version(&self, v: VertexId) -> Option<(ComponentId, u64)> {
        let cid = self.owner(v)?;
        match &self.comp(cid).kind {
            Kind::Bi { version, .. } => Some((cid, *version)),
            Kind::Mono { .. } => None,
        }
    }

    /// Iterates live component ids (deterministic order).
    pub(crate) fn component_ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.arena
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| ComponentId(i as u32))
    }

    /// Borrowed read-only views of all live components, in deterministic
    /// order (for inspection, reporting and structure tests). Nothing is
    /// cloned — members, edges and children are served straight out of the
    /// tree's own storage.
    pub fn components(&self) -> impl Iterator<Item = ComponentRef<'_>> + '_ {
        self.component_ids().map(|cid| {
            let comp = self.comp(cid);
            ComponentRef {
                id: cid,
                articulation: comp.articulation,
                parent: comp.parent,
                children: &comp.children,
                kind: &comp.kind,
            }
        })
    }

    /// The component owning `v` (`None` for `Q` and unconnected vertices).
    pub fn component_of(&self, v: VertexId) -> Option<ComponentId> {
        self.owner(v)
    }

    /// Replaces a bi component's snapshot, vertex map and estimate after
    /// its edge set changed, taking them from `source`.
    pub(crate) fn refresh_bi(
        &mut self,
        graph: &ProbabilisticGraph,
        cid: ComponentId,
        source: &mut dyn ComponentSource,
    ) {
        let version = self.next_version();
        // Detach the snapshot scratch so the component can be borrowed
        // mutably alongside it (the scratch is pure working memory).
        let mut scratch = std::mem::take(&mut self.local_scratch);
        let comp = self.comp_mut(cid);
        let av = comp.articulation;
        let Kind::Bi {
            edges,
            snapshot,
            estimate,
            local,
            version: v,
        } = &mut comp.kind
        else {
            panic!("refresh_bi on a mono component");
        };
        let formed = source.form(graph, av, edges.as_slice(), &mut scratch);
        *snapshot = formed.snapshot;
        *estimate = Arc::new(formed.estimate);
        *local = formed.local;
        *v = version;
        self.local_scratch = scratch;
    }

    /// Replaces a bi component's reachability estimate in place (structure
    /// and snapshot unchanged) — used where estimates arrive after the
    /// insertion: the final evaluation's deferred estimates, and the
    /// clone-based reference engine's structural probes.
    pub(crate) fn set_bi_estimate(&mut self, cid: ComponentId, new_estimate: ComponentEstimate) {
        let Kind::Bi { estimate, .. } = &mut self.comp_mut(cid).kind else {
            panic!("set_bi_estimate on a mono component");
        };
        *estimate = Arc::new(new_estimate);
    }
}

/// Shared golden fixture for the incremental-flow unit tests: the paper's
/// Fig. 3(a) graph plus the four Fig. 4 insertion candidates — every
/// structural insertion case (leaf-on-mono/bi, cycle-in-bi, `splitTree`,
/// cross-component cycle) occurs while inserting its first 19 edges in id
/// order and probing the rest.
#[cfg(test)]
pub(crate) mod goldens {
    use flowmax_graph::{GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};

    /// Vertices Q=0, 1..17 with weight = id, all probabilities 0.5.
    /// Edges e0–e18 form components A–F of Example 2; e19–e22 are the
    /// Fig. 4 candidates (7-17, 6-8, 14-15, 11-15).
    pub(crate) fn figure3_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO); // Q
        for w in 1..=17 {
            b.add_vertex(Weight::new(w as f64).unwrap());
        }
        let half = Probability::new(0.5).unwrap();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn tiny_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        b.add_edge(VertexId(0), VertexId(1), Probability::new(0.5).unwrap())
            .unwrap();
        b.add_edge(VertexId(1), VertexId(2), Probability::new(0.5).unwrap())
            .unwrap();
        b.build()
    }

    #[test]
    fn trivial_tree_contains_only_query() {
        let g = tiny_graph();
        let t = FTree::new(&g, VertexId(0));
        assert_eq!(t.query(), VertexId(0));
        assert!(t.contains_vertex(VertexId(0)));
        assert!(!t.contains_vertex(VertexId(1)));
        assert_eq!(t.vertex_count(), 1);
        assert_eq!(t.component_count(), 0);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.reach_to_query(VertexId(0)), 1.0);
        assert_eq!(t.reach_to_query(VertexId(2)), 0.0);
    }

    #[test]
    fn arena_alloc_dealloc_reuses_slots() {
        let g = tiny_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let c = Component {
            articulation: VertexId(0),
            parent: None,
            children: Vec::new(),
            kind: Kind::Mono {
                members: Arc::default(),
            },
        };
        let id1 = t.alloc(c.clone());
        t.dealloc(id1);
        let id2 = t.alloc(c);
        assert_eq!(id1, id2, "free list must recycle slots");
    }

    #[test]
    #[should_panic(expected = "query vertex out of bounds")]
    fn query_must_exist() {
        let g = tiny_graph();
        FTree::new(&g, VertexId(9));
    }
}
