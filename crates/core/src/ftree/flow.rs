//! Expected-flow evaluation over the F-tree, and non-mutating edge probes.
//!
//! Because an articulation vertex separates its component from the rest of
//! the selected subgraph, `Pr[v ↔ Q] = Pr[v ↔ AV | component] · Pr[AV ↔ Q]`
//! with independent factors; flow therefore aggregates bottom-up per
//! component (Theorem 2 + Lemma 1): a component's **subtree flow** is its
//! members' `reach · weight` sum plus each child subtree's flow scaled by
//! the child AV's within-component reach, and the total is the sum over the
//! root components. The per-component form is what makes flow *incremental*:
//! [`FlowCache`] keeps every component's member sum and subtree flow, so a
//! probe or commit that touches `k` components re-aggregates only those `k`
//! and their ancestors — bit-identical to a fresh whole-forest traversal,
//! which survives as the pinned reference (and is debug-counted, so the
//! selection loop can assert it never runs one mid-iteration).
//!
//! Probing (`probe_edge`) evaluates the flow a candidate insertion *would*
//! yield, at minimal cost per structural case:
//!
//! * **Case II** (leaf): an analytic delta `w · p · reach(anchor → Q)` — no
//!   sampling, no copy. With the flow cache enabled the anchor's reach is
//!   memoized: each drain restamps the subtrees of the components a commit
//!   touched, and a memo stored under its owner's current stamp is served
//!   in `O(1)` instead of walking the anchor's chain to `Q`;
//! * **Case IIIa** (cycle in a bi component): only that component is
//!   re-estimated; flow is evaluated with the fresh estimate *overriding* the
//!   stored one — no tree mutation;
//! * **Cases IIIb/IV** (structural): the probe applies the insertion to the
//!   *shared* tree through the undo journal ([`FTree::apply`]), evaluates,
//!   and rolls back bit-identically ([`FTree::rollback`]) — `O(touched
//!   components)` per probe instead of the historical whole-tree clone.
//!   One helper runs that apply for every caller. Before the apply builds
//!   the formed component, it offers the component's fingerprint, AV and
//!   edge sequence to a warm race lane that may already hold it, and takes
//!   that snapshot, vertex map and estimate instead of building; otherwise
//!   it builds and offers the new snapshot for an estimate (a provider, the
//!   exact memo). Either way it scores inside the same apply when an
//!   estimate is at hand. The rollback captures the applied state's images
//!   into the plan, so a re-score at a new estimate swaps those images in
//!   and out again instead of re-running the insertion: a structural probe
//!   pays exactly one insertion however often it is scored, and a warm one
//!   builds nothing. The clone-based path survives only as the pinned
//!   reference ([`FTree::probe_plan_cloning`]) that benchmarks and
//!   equivalence tests compare against.

use std::sync::Arc;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph, LocalIdScratch};

use super::{
    CommitReplay, ComponentId, ComponentSource, Estimated, FTree, Formed, InsertCase, Journal,
    Kind, LocalMap,
};
use crate::error::CoreError;
use crate::estimator::EstimateProvider;

/// Per-component flow memo backing the incremental selection engine.
///
/// `entries[slot]` caches two accumulator values for the component living
/// in arena `slot`: `member_sum` (the flow accumulator right after the
/// member loop) and `sub` (after also adding child subtrees — the
/// component's full subtree flow). Caching the *intermediate* member sum is
/// what keeps incremental evaluation bit-identical to a fresh traversal: an
/// ancestor of a touched component resumes accumulation from `member_sum`
/// and replays only the child additions, reproducing the exact operation
/// sequence [`FTree::expected_flow`] would perform.
///
/// The cache is pure working memory: excluded from tree equality, dropped
/// on clone, and consulted only by the `*_cached` evaluators below.
#[derive(Debug, Default)]
pub(crate) struct FlowCache {
    /// Cached accumulators per arena slot (`None`: free or never drained).
    entries: Vec<Option<CacheEntry>>,
    /// Slots whose members or estimates changed since the last drain
    /// ([`FTree::flow_cached_total`]); ancestors are implied.
    dirty: Vec<u32>,
    /// Epoch marks: a slot takes part in the current evaluation iff
    /// `mark[slot] >> 1 == epoch`. The low bit distinguishes member-dirty
    /// (re-sum members) from ancestor-dirty (members intact, only child
    /// contributions must be replayed).
    mark: Vec<u64>,
    epoch: u64,
    /// Traversal scratch reused across evaluations.
    stack: Vec<(u32, bool)>,
    /// Per-slot triple-lane scratch for probe overlays (never the
    /// committed state — probes must not pollute `entries`).
    overlay: Vec<(f64, f64, f64)>,
    /// Seed-slot scratch reused across evaluations.
    seeds: Vec<u32>,
    /// Per arena slot: the stamp of the last drain that saw the slot or an
    /// ancestor change (0: never stamped). A vertex's reach to `Q` depends
    /// only on its owner and the owner's ancestors, so it is still valid
    /// while its owner keeps the stamp it was computed under.
    stamp: Vec<u32>,
    /// The stamp the latest drain handed out.
    last_stamp: u32,
    /// Per vertex, grown up to the largest anchor probed: the
    /// `reach_to_query` a leaf probe computed, and its owner's stamp at the
    /// time (two vectors keep an entry at 12 bytes).
    reach_stamp: Vec<u32>,
    reach: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    /// Flow accumulator after summing `reach · weight` over members.
    member_sum: f64,
    /// Accumulator after also adding each child's subtree flow scaled by
    /// its AV reach: the component's subtree flow.
    sub: f64,
}

impl FlowCache {
    #[inline]
    fn marked(&self, slot: usize) -> bool {
        self.mark[slot] >> 1 == self.epoch
    }

    #[inline]
    fn member_dirty(&self, slot: usize) -> bool {
        self.mark[slot] & 1 == 1
    }
}

/// Sorted `(vertex, snapshot index)` lookup for an IIIa override snapshot,
/// built once per evaluation so member lookups cost `O(log m)` instead of
/// a linear scan of the snapshot's vertex list per member.
fn override_order(snapshot: &ComponentGraph) -> Vec<(VertexId, u32)> {
    let mut order: Vec<(VertexId, u32)> = snapshot
        .vertices()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    order.sort_unstable_by_key(|&(v, _)| v);
    order
}

#[inline]
fn override_position(order: &[(VertexId, u32)], v: VertexId) -> usize {
    let at = order
        .binary_search_by_key(&v, |&(w, _)| w)
        .expect("override snapshot covers the component's vertices");
    order[at].1 as usize
}

/// Opens a new evaluation epoch: every live seed slot is marked
/// member-dirty, then each seed's parent chain is marked ancestor-dirty,
/// stopping at the first already-marked ancestor (its chain is complete).
/// Because all seeds are member-marked before any chain walk starts, the
/// marked set is closed under parents when this returns. Dead or
/// out-of-range seeds are skipped.
fn mark_touched(tree: &FTree, cache: &mut FlowCache, seeds: &[u32]) {
    cache.epoch += 1;
    let epoch = cache.epoch;
    if cache.mark.len() < tree.arena.len() {
        cache.mark.resize(tree.arena.len(), 0);
    }
    for &slot in seeds {
        let idx = slot as usize;
        if idx < tree.arena.len() && tree.arena[idx].is_some() {
            cache.mark[idx] = (epoch << 1) | 1;
        }
    }
    for &slot in seeds {
        let idx = slot as usize;
        if idx >= tree.arena.len() || tree.arena[idx].is_none() {
            continue;
        }
        let mut up = tree.comp(ComponentId(slot)).parent;
        while let Some(p) = up {
            if cache.mark[p.index()] >> 1 == epoch {
                break;
            }
            cache.mark[p.index()] = epoch << 1;
            up = tree.comp(p).parent;
        }
    }
}

/// Gives every live seed's subtree a fresh stamp, invalidating the memoized
/// reach of each vertex those components own. Every change to a component
/// goes through `comp_mut`, `alloc` or `set_assignment`, so its slot is a
/// seed; its descendants inherit the change through their AVs' reach.
fn restamp_subtrees(tree: &FTree, cache: &mut FlowCache, seeds: &[u32]) {
    cache.last_stamp = cache
        .last_stamp
        .checked_add(1)
        .expect("fewer than 2^32 drains per tree");
    let stamp = cache.last_stamp;
    if cache.stamp.len() < tree.arena.len() {
        cache.stamp.resize(tree.arena.len(), 0);
    }
    let mut stack = std::mem::take(&mut cache.stack);
    stack.clear();
    for &slot in seeds {
        if (slot as usize) < tree.arena.len() && tree.arena[slot as usize].is_some() {
            stack.push((slot, false));
        }
        while let Some((slot, _)) = stack.pop() {
            // A slot already stamped had its whole subtree stamped with it.
            if cache.stamp[slot as usize] == stamp {
                continue;
            }
            cache.stamp[slot as usize] = stamp;
            for &ch in &tree.comp(ComponentId(slot)).children {
                stack.push((ch.0, false));
            }
        }
    }
    cache.stack = stack;
}

/// Recomputes the cached accumulators of every marked component, children
/// before parents — the committed-state drain behind
/// [`FTree::flow_cached_total`]. Member-dirty (or never-cached) slots
/// re-sum their members; ancestor-dirty slots resume from their cached
/// member sum and replay only the child additions.
fn drain_marked(tree: &FTree, cache: &mut FlowCache, graph: &ProbabilisticGraph) {
    let mut stack = std::mem::take(&mut cache.stack);
    stack.clear();
    for &r in &tree.roots {
        if cache.marked(r.index()) {
            stack.push((r.0, false));
        }
    }
    while let Some((slot, exit)) = stack.pop() {
        let cid = ComponentId(slot);
        let comp = tree.comp(cid);
        if !exit {
            stack.push((slot, true));
            for &ch in &comp.children {
                if cache.marked(ch.index()) {
                    stack.push((ch.0, false));
                }
            }
            continue;
        }
        let idx = slot as usize;
        let member_sum = if cache.member_dirty(idx) || cache.entries[idx].is_none() {
            let mut acc = 0.0;
            match &comp.kind {
                Kind::Mono { members } => {
                    for &v in members.keys() {
                        acc += tree.reach_in(cid, v) * graph.weight(v).value();
                    }
                }
                Kind::Bi { local, .. } => {
                    for &v in local.keys() {
                        acc += tree.reach_in(cid, v) * graph.weight(v).value();
                    }
                }
            }
            acc
        } else {
            cache.entries[idx]
                .expect("entry presence just checked")
                .member_sum
        };
        let mut sub = member_sum;
        for &ch in &comp.children {
            let child_sub = cache.entries[ch.index()]
                .expect("children drain before their parent; clean children are cached")
                .sub;
            sub += tree.reach_in(cid, tree.comp(ch).articulation) * child_sub;
        }
        cache.entries[idx] = Some(CacheEntry { member_sum, sub });
    }
    cache.stack = stack;
}

/// Triple-lane `O(touched)` evaluation for probes: marked subtrees are
/// re-aggregated bottom-up into the overlay scratch (the committed
/// `entries` are never written), unmarked subtrees contribute their cached
/// subtree flow to all three lanes — valid because an unmarked component's
/// three lanes are identical (the bounded component and every journal
/// touch are marked). Returns `(point, lower, upper)` totals.
fn overlay_flow_triple(
    tree: &FTree,
    cache: &mut FlowCache,
    graph: &ProbabilisticGraph,
    include_query: bool,
    reach3: &dyn Fn(ComponentId, VertexId) -> (f64, f64, f64),
) -> (f64, f64, f64) {
    if cache.overlay.len() < tree.arena.len() {
        cache.overlay.resize(tree.arena.len(), (0.0, 0.0, 0.0));
    }
    let mut stack = std::mem::take(&mut cache.stack);
    stack.clear();
    for &r in &tree.roots {
        if cache.marked(r.index()) {
            stack.push((r.0, false));
        }
    }
    while let Some((slot, exit)) = stack.pop() {
        let cid = ComponentId(slot);
        let comp = tree.comp(cid);
        if !exit {
            stack.push((slot, true));
            for &ch in &comp.children {
                if cache.marked(ch.index()) {
                    stack.push((ch.0, false));
                }
            }
            continue;
        }
        let idx = slot as usize;
        let (mut a0, mut a1, mut a2) = if cache.member_dirty(idx) {
            let (mut a0, mut a1, mut a2) = (0.0, 0.0, 0.0);
            let mut add = |v: VertexId| {
                let (r0, r1, r2) = reach3(cid, v);
                let w = graph.weight(v).value();
                a0 += r0 * w;
                a1 += r1 * w;
                a2 += r2 * w;
            };
            match &comp.kind {
                Kind::Mono { members } => {
                    for &v in members.keys() {
                        add(v);
                    }
                }
                Kind::Bi { local, .. } => {
                    for &v in local.keys() {
                        add(v);
                    }
                }
            }
            (a0, a1, a2)
        } else {
            // Ancestor-dirty: members and their reaches are untouched, so
            // the cached single-lane member sum is bit-identical to what
            // each lane would recompute.
            let ms = cache
                .entries
                .get(idx)
                .copied()
                .flatten()
                .expect("ancestor-dirty component has a cache entry")
                .member_sum;
            (ms, ms, ms)
        };
        for &ch in &comp.children {
            let (s0, s1, s2) = if cache.marked(ch.index()) {
                cache.overlay[ch.index()]
            } else {
                let s = cache
                    .entries
                    .get(ch.index())
                    .copied()
                    .flatten()
                    .expect("clean child has a cache entry")
                    .sub;
                (s, s, s)
            };
            let (r0, r1, r2) = reach3(cid, tree.comp(ch).articulation);
            a0 += r0 * s0;
            a1 += r1 * s1;
            a2 += r2 * s2;
        }
        cache.overlay[idx] = (a0, a1, a2);
    }
    cache.stack = stack;
    let base = if include_query {
        graph.weight(tree.query).value()
    } else {
        0.0
    };
    let (mut t0, mut t1, mut t2) = (base, base, base);
    for &r in &tree.roots {
        let (s0, s1, s2) = if cache.marked(r.index()) {
            cache.overlay[r.index()]
        } else {
            let s = cache
                .entries
                .get(r.index())
                .copied()
                .flatten()
                .expect("clean root has a cache entry")
                .sub;
            (s, s, s)
        };
        t0 += s0;
        t1 += s1;
        t2 += s2;
    }
    (t0, t1, t2)
}

/// Result of probing a candidate edge without committing it (§6.1 Eq. 5).
#[derive(Debug, Clone, Copy)]
pub struct ProbeOutcome {
    /// Expected flow of the tree *with* the candidate inserted.
    pub flow: f64,
    /// Candidate-specific lower flow bound (`== flow` for analytic probes).
    pub lower: f64,
    /// Candidate-specific upper flow bound (`== flow` for analytic probes).
    pub upper: f64,
    /// The structural case the insertion would take.
    pub case: InsertCase,
    /// `cost(e)` of §6.4: edges that had to be sampled to answer the probe.
    pub sampling_cost_edges: usize,
}

/// A probe split into its deterministic part and its deferred estimation —
/// the shape the §6.3 racing engine needs: the structural classification
/// (leaf deltas, component snapshots) happens **once**, and the probe is
/// then [`score`](SampledProbe::score)d repeatedly as its component
/// estimate grows across race rounds.
#[derive(Debug)]
pub enum ProbePlan {
    /// Fully analytic (leaf) probe: the outcome is already exact.
    Analytic(ProbeOutcome),
    /// The probe needs exactly one component estimate before it can be
    /// scored (boxed to keep the analytic arm small).
    Sampled(Box<SampledProbe>),
}

/// The deferred half of a sampled probe: which component must be estimated,
/// and how to turn an estimate into a flow score.
///
/// A journal-based structural plan keeps the redo images its planning apply
/// captured. Scoring swaps them into the shared tree as a journalled
/// insertion, sets the estimate, evaluates and swaps them out again — no
/// insertion runs. The plan is therefore only valid while the tree it was
/// created from is unchanged (the invariant every selection iteration
/// already maintains).
#[derive(Debug)]
pub struct SampledProbe {
    snapshot: Arc<ComponentGraph>,
    cost_edges: usize,
    kind: SampledKind,
}

#[derive(Debug)]
enum SampledKind {
    /// Case IIIa: re-estimate one existing bi component; flow is evaluated
    /// on the *original* tree with the estimate overriding the stored one.
    InBi { cid: ComponentId },
    /// Cases IIIb/IV, journal-based (the default): the applied state's
    /// images (`None` once a probe record took them for its commit) and
    /// the formed component's vertex map.
    Structural {
        case: InsertCase,
        local: Arc<LocalMap>,
        images: Option<CommitReplay>,
    },
    /// Cases IIIb/IV, the pinned clone-based reference: the probe's tree
    /// clone with the candidate inserted and the estimate still pending.
    /// Kept selectable so benchmarks and tests can compare engines (boxed:
    /// the journal variants carry no tree).
    StructuralCloned {
        tree: Box<FTree>,
        cid: ComponentId,
        case: InsertCase,
    },
}

impl SampledProbe {
    /// The component snapshot that must be estimated (candidate edge
    /// included).
    pub fn snapshot(&self) -> &ComponentGraph {
        &self.snapshot
    }

    /// The shared handle of [`snapshot`](Self::snapshot): a race lane
    /// created for this plan keeps the same allocation.
    pub(crate) fn shared_snapshot(&self) -> &Arc<ComponentGraph> {
        &self.snapshot
    }

    /// The snapshot's vertex → local-index map: the formed component's own
    /// for a journal structural plan, built here for the others.
    pub(crate) fn local_map(&self) -> Arc<LocalMap> {
        match &self.kind {
            SampledKind::Structural { local, .. } => Arc::clone(local),
            _ => Arc::new(LocalMap::from_snapshot(self.snapshot.vertices())),
        }
    }

    /// `cost(e)` of §6.4: the number of edges the estimate must sample.
    pub fn sampling_cost_edges(&self) -> usize {
        self.cost_edges
    }

    /// The structural case the insertion would take.
    pub fn case(&self) -> InsertCase {
        match &self.kind {
            SampledKind::InBi { .. } => InsertCase::CycleInBi,
            SampledKind::Structural { case, .. } => *case,
            SampledKind::StructuralCloned { case, .. } => *case,
        }
    }

    /// The redo images of a journal structural plan, holding the estimate
    /// of its latest score: the selection loop commits the candidate by
    /// replaying them instead of re-running the insertion. `None` for
    /// other plans, and after the first call.
    pub(crate) fn take_replay(&mut self) -> Option<CommitReplay> {
        match &mut self.kind {
            SampledKind::Structural { images, .. } => images.take(),
            _ => None,
        }
    }

    /// Scores the probe under `estimate`: the flow the tree would have with
    /// the candidate inserted, plus the candidate-specific `1 − α` bounds.
    ///
    /// Callable repeatedly — racing rounds re-score with growing-budget
    /// estimates; only the latest call's estimate is retained. `tree` must
    /// be the tree the plan was created from, **unchanged since** — a
    /// journal-based structural score swaps the plan's images into it and
    /// out again before returning, so the tree reads unmodified afterwards.
    pub fn score(
        &mut self,
        tree: &mut FTree,
        graph: &ProbabilisticGraph,
        include_query: bool,
        alpha: f64,
        estimate: ComponentEstimate,
    ) -> ProbeOutcome {
        let (flow, lower, upper) = match &mut self.kind {
            SampledKind::InBi { cid } => {
                if tree.flow_cache_enabled() {
                    tree.flow_with_override_bounds_cached(
                        graph,
                        include_query,
                        *cid,
                        &self.snapshot,
                        &estimate,
                        alpha,
                    )
                } else {
                    tree.flow_with_override_bounds(
                        graph,
                        include_query,
                        *cid,
                        &self.snapshot,
                        &estimate,
                        alpha,
                    )
                }
            }
            SampledKind::Structural { images, .. } => {
                // The images are the applied state: swapping them in
                // reproduces the planning apply's tree and touched slots,
                // so the evaluation is the one a re-apply would run.
                let replay = images
                    .take()
                    .expect("a structural plan keeps its images until its record takes them");
                let (cid, journal) = tree.swap_in(replay);
                tree.set_bi_estimate(cid, estimate);
                let bounds = tree.applied_flow_bounds(graph, include_query, cid, alpha, &journal);
                *images = Some(tree.rollback_capturing(journal, cid));
                bounds
            }
            SampledKind::StructuralCloned {
                tree: clone, cid, ..
            } => {
                clone.set_bi_estimate(*cid, estimate);
                clone.flow_with_bounds(graph, include_query, *cid, alpha)
            }
        };
        ProbeOutcome {
            flow,
            lower,
            upper,
            case: self.case(),
            sampling_cost_edges: self.cost_edges,
        }
    }
}

/// What a structural probe's scorer may already hold for the component
/// the probe's apply forms.
pub(crate) trait AtHand {
    /// The ready-made snapshot, vertex map and estimate of the component
    /// with articulation vertex `av` and edge sequence `edges`, asked
    /// before anything is built; `fingerprint` is
    /// [`ComponentGraph::fingerprint_of`] of the two. A fingerprint match
    /// alone is not enough: the vertex map and the estimate's indices
    /// follow the edge order, so the served snapshot must have exactly this
    /// AV and edge sequence.
    fn stored(&mut self, fingerprint: u64, av: VertexId, edges: &[EdgeId]) -> Option<Formed>;

    /// An estimate for a snapshot the apply had to build, if one is at
    /// hand.
    fn estimate(&mut self, snapshot: &ComponentGraph) -> Option<ComponentEstimate>;
}

/// A provider estimates every snapshot and stores none.
impl AtHand for Estimated<'_> {
    fn stored(&mut self, _: u64, _: VertexId, _: &[EdgeId]) -> Option<Formed> {
        None
    }

    fn estimate(&mut self, snapshot: &ComponentGraph) -> Option<ComponentEstimate> {
        Some(self.0.estimate(snapshot))
    }
}

/// The component source of a structural probe's apply: the scorer's
/// ready-made component when it has one, otherwise a freshly built
/// snapshot with a placeholder estimate (the probe estimates it after the
/// apply, or not at all).
#[derive(Default)]
struct ProbeSource<'s> {
    at_hand: Option<&'s mut dyn AtHand>,
    /// Whether the scorer served the component (its estimate is final).
    served: bool,
}

impl ComponentSource for ProbeSource<'_> {
    fn form(
        &mut self,
        graph: &ProbabilisticGraph,
        av: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
    ) -> Formed {
        if let Some(at_hand) = self.at_hand.as_deref_mut() {
            let fingerprint = ComponentGraph::fingerprint_of(av, edges);
            if let Some(formed) = at_hand.stored(fingerprint, av, edges) {
                debug_assert!(
                    formed.snapshot.articulation() == av && formed.snapshot.global_edges() == edges,
                    "a stored component is served only for its exact AV and edge sequence"
                );
                self.served = true;
                return formed;
            }
        }
        Formed::build(graph, av, edges, scratch, |s| {
            ComponentEstimate::placeholder(s.vertex_count())
        })
    }
}

/// Scoring inside a structural probe's own apply: `at_hand` is offered the
/// formed component before it is built, then its built snapshot, and when
/// either answers the candidate is scored before the rollback instead of
/// by swapping the plan's images back in later.
pub(crate) struct InApplyScore<'a> {
    pub(crate) include_query: bool,
    pub(crate) alpha: f64,
    pub(crate) at_hand: &'a mut dyn AtHand,
}

/// How [`FTree::probe_plan_with`] answers a structural candidate.
pub(crate) enum PlanMode<'a> {
    /// Insert into a tree clone (the pinned reference engine).
    Cloning,
    /// Journalled apply → rollback on the shared tree, scoring inside that
    /// apply when the [`InApplyScore`] answers.
    Journal(Option<InApplyScore<'a>>),
}

/// A probe score plus its redo images (journal structural probes only).
pub(crate) type Scored = (ProbeOutcome, Option<CommitReplay>);

impl FTree {
    /// The expected information flow `E(flow(Q, G_selected))` under the
    /// tree's current component estimates (Def. 3 / Eq. 2), by one
    /// whole-forest traversal — the pinned reference the incremental
    /// `FTree::flow_cached_total` (crate-internal) is held bit-identical
    /// to.
    pub fn expected_flow(&self, graph: &ProbabilisticGraph, include_query: bool) -> f64 {
        self.flow_forest(graph, include_query, &|c, v| self.reach_in(c, v))
    }

    /// Lower/upper expected-flow bounds obtained by evaluating component
    /// `cid` at its per-vertex confidence bounds (every other component at
    /// its point estimate) — the candidate-specific uncertainty of §6.3.
    ///
    /// This two-pass form is the pinned reference for the fused
    /// `FTree::flow_with_bounds` (crate-internal), which computes the
    /// point estimate and
    /// both bounds in one traversal; the `fused_bounds_match_reference`
    /// test holds them bit-identical.
    pub fn flow_bounds_for_component(
        &self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        cid: ComponentId,
        alpha: f64,
    ) -> (f64, f64) {
        let bound = |upper: bool| {
            self.flow_forest(graph, include_query, &|c, v| {
                let comp = self.comp(c);
                if v == comp.articulation {
                    return 1.0;
                }
                if c != cid {
                    return self.reach_in(c, v);
                }
                match &comp.kind {
                    Kind::Mono { members } => members[&v].reach,
                    Kind::Bi {
                        estimate, local, ..
                    } => {
                        let ci = estimate.interval(local[&v] as usize, alpha);
                        if upper {
                            ci.upper
                        } else {
                            ci.lower
                        }
                    }
                }
            })
        };
        (bound(false), bound(true))
    }

    /// `(point, lower, upper)` expected flow in **one** traversal, with
    /// component `cid` evaluated at its point estimate and its `1 − α`
    /// confidence bounds (every other component at its point estimate).
    ///
    /// Bit-identical to running [`FTree::expected_flow`] plus
    /// [`FTree::flow_bounds_for_component`] — the traversal order is purely
    /// structural, the three accumulators are independent, and the interval
    /// is a pure function of the stored counts — but three times cheaper:
    /// this is what every sampled probe pays per score, thousands of times
    /// per greedy iteration.
    pub(crate) fn flow_with_bounds(
        &self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        cid: ComponentId,
        alpha: f64,
    ) -> (f64, f64, f64) {
        self.flow_forest_triple(graph, include_query, &|c, v| {
            let comp = self.comp(c);
            if v == comp.articulation {
                return (1.0, 1.0, 1.0);
            }
            if c != cid {
                let r = self.reach_in(c, v);
                return (r, r, r);
            }
            match &comp.kind {
                Kind::Mono { members } => {
                    let r = members[&v].reach;
                    (r, r, r)
                }
                Kind::Bi {
                    estimate, local, ..
                } => {
                    let l = local[&v] as usize;
                    let ci = estimate.interval(l, alpha);
                    (estimate.reach(l), ci.lower, ci.upper)
                }
            }
        })
    }

    /// The IIIa-probe counterpart of [`FTree::flow_with_bounds`]: component
    /// `cid`'s stored estimate is overridden by `(snapshot, estimate)` and
    /// evaluated at its point and `1 − α` bounds, in one traversal.
    fn flow_with_override_bounds(
        &self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        cid: ComponentId,
        snapshot: &ComponentGraph,
        estimate: &ComponentEstimate,
        alpha: f64,
    ) -> (f64, f64, f64) {
        let order = override_order(snapshot);
        self.flow_forest_triple(graph, include_query, &|c, v| {
            let comp = self.comp(c);
            if v == comp.articulation {
                return (1.0, 1.0, 1.0);
            }
            if c != cid {
                let r = self.reach_in(c, v);
                return (r, r, r);
            }
            let local = override_position(&order, v);
            let ci = estimate.interval(local, alpha);
            (estimate.reach(local), ci.lower, ci.upper)
        })
    }

    /// One bottom-up whole-forest traversal computing total expected flow,
    /// with per-vertex within-component reach supplied by `reach`.
    /// Children complete before their parent; a parent accumulates members
    /// first (ascending member order), then child subtree flows scaled by
    /// each child AV's reach (child-list order) — the canonical operation
    /// sequence every evaluator in this module shares, which is what makes
    /// cached, overlay and fresh results bitwise comparable.
    ///
    /// Debug builds count every call ([`FTree::debug_full_flow_eval_count`])
    /// so the incremental selection loop can assert it never falls back to
    /// a whole-forest walk mid-iteration.
    fn flow_forest(
        &self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        reach: &dyn Fn(ComponentId, VertexId) -> f64,
    ) -> f64 {
        #[cfg(debug_assertions)]
        FTree::note_full_flow_eval();
        let mut sub = vec![0.0f64; self.arena.len()];
        let mut stack: Vec<(u32, bool)> = self.roots.iter().map(|&r| (r.0, false)).collect();
        while let Some((slot, exit)) = stack.pop() {
            let cid = ComponentId(slot);
            let comp = self.comp(cid);
            if !exit {
                stack.push((slot, true));
                for &ch in &comp.children {
                    stack.push((ch.0, false));
                }
                continue;
            }
            let mut acc = 0.0;
            match &comp.kind {
                Kind::Mono { members } => {
                    for &v in members.keys() {
                        acc += reach(cid, v) * graph.weight(v).value();
                    }
                }
                Kind::Bi { local, .. } => {
                    for &v in local.keys() {
                        acc += reach(cid, v) * graph.weight(v).value();
                    }
                }
            }
            for &ch in &comp.children {
                acc += reach(cid, self.comp(ch).articulation) * sub[ch.index()];
            }
            sub[slot as usize] = acc;
        }
        let mut total = if include_query {
            graph.weight(self.query).value()
        } else {
            0.0
        };
        for &r in &self.roots {
            total += sub[r.index()];
        }
        total
    }

    /// The three-accumulator form of [`FTree::flow_forest`]: `reach3` yields
    /// `(point, lower, upper)` reach per vertex, and each lane sees exactly
    /// the operation sequence its solo traversal would, so the results are
    /// bit-identical to three separate passes.
    fn flow_forest_triple(
        &self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        reach3: &dyn Fn(ComponentId, VertexId) -> (f64, f64, f64),
    ) -> (f64, f64, f64) {
        #[cfg(debug_assertions)]
        FTree::note_full_flow_eval();
        let mut sub = vec![(0.0f64, 0.0f64, 0.0f64); self.arena.len()];
        let mut stack: Vec<(u32, bool)> = self.roots.iter().map(|&r| (r.0, false)).collect();
        while let Some((slot, exit)) = stack.pop() {
            let cid = ComponentId(slot);
            let comp = self.comp(cid);
            if !exit {
                stack.push((slot, true));
                for &ch in &comp.children {
                    stack.push((ch.0, false));
                }
                continue;
            }
            let (mut a0, mut a1, mut a2) = (0.0, 0.0, 0.0);
            let mut add_member = |v: VertexId| {
                let (r0, r1, r2) = reach3(cid, v);
                let w = graph.weight(v).value();
                a0 += r0 * w;
                a1 += r1 * w;
                a2 += r2 * w;
            };
            match &comp.kind {
                Kind::Mono { members } => {
                    for &v in members.keys() {
                        add_member(v);
                    }
                }
                Kind::Bi { local, .. } => {
                    for &v in local.keys() {
                        add_member(v);
                    }
                }
            }
            for &ch in &comp.children {
                let (s0, s1, s2) = sub[ch.index()];
                let (r0, r1, r2) = reach3(cid, self.comp(ch).articulation);
                a0 += r0 * s0;
                a1 += r1 * s1;
                a2 += r2 * s2;
            }
            sub[slot as usize] = (a0, a1, a2);
        }
        let base = if include_query {
            graph.weight(self.query).value()
        } else {
            0.0
        };
        let (mut t0, mut t1, mut t2) = (base, base, base);
        for &r in &self.roots {
            let (s0, s1, s2) = sub[r.index()];
            t0 += s0;
            t1 += s1;
            t2 += s2;
        }
        (t0, t1, t2)
    }

    /// Switches this tree to incremental flow accounting: every live slot
    /// is queued dirty so the first [`FTree::flow_cached_total`] populates
    /// the cache, and subsequent commits keep it fresh via
    /// [`FTree::cache_mark_dirty`]. Probes evaluate `O(touched)` through
    /// the overlay scratch without ever writing committed entries.
    pub(crate) fn enable_flow_cache(&mut self) {
        let mut cache = Box::<FlowCache>::default();
        cache.dirty.extend(self.component_ids().map(|c| c.0));
        self.flow_cache = Some(cache);
    }

    /// Whether incremental flow accounting is enabled.
    pub(crate) fn flow_cache_enabled(&self) -> bool {
        self.flow_cache.is_some()
    }

    /// Queues arena slots whose members or estimates changed, for
    /// re-aggregation at the next [`FTree::flow_cached_total`]. No-op
    /// without an enabled cache; ancestors are implied (the drain marks
    /// them itself); dead slots are tolerated (their entries are cleared).
    pub(crate) fn cache_mark_dirty(&mut self, slots: impl IntoIterator<Item = u32>) {
        if let Some(cache) = self.flow_cache.as_deref_mut() {
            cache.dirty.extend(slots);
        }
    }

    /// The incremental counterpart of [`FTree::expected_flow`]: drains the
    /// dirty-slot queue by re-aggregating exactly the dirty components and
    /// their ancestors, then sums the cached root subtree flows —
    /// bit-identical to a fresh whole-forest traversal without performing
    /// one.
    pub(crate) fn flow_cached_total(
        &mut self,
        graph: &ProbabilisticGraph,
        include_query: bool,
    ) -> f64 {
        let mut cache = self.flow_cache.take().expect("flow cache enabled");
        {
            let tree = &*self;
            if cache.entries.len() < tree.arena.len() {
                cache.entries.resize(tree.arena.len(), None);
            }
            let mut seeds = std::mem::take(&mut cache.seeds);
            seeds.clear();
            seeds.append(&mut cache.dirty);
            for &slot in &seeds {
                let idx = slot as usize;
                if (idx >= tree.arena.len() || tree.arena[idx].is_none())
                    && idx < cache.entries.len()
                {
                    cache.entries[idx] = None;
                }
            }
            mark_touched(tree, &mut cache, &seeds);
            drain_marked(tree, &mut cache, graph);
            restamp_subtrees(tree, &mut cache, &seeds);
            cache.seeds = seeds;
        }
        let mut total = if include_query {
            graph.weight(self.query).value()
        } else {
            0.0
        };
        for &r in &self.roots {
            total += cache.entries[r.index()]
                .expect("live roots are cached after a drain")
                .sub;
        }
        self.flow_cache = Some(cache);
        total
    }

    /// [`FTree::reach_to_query`] of a leaf probe's anchor, memoized in the
    /// flow cache: served while the anchor's owner keeps the stamp the value
    /// was stored under, computed and stored otherwise. Without a flow
    /// cache it is the plain walk. Debug builds check every hit against a
    /// fresh walk, bit for bit.
    fn anchor_reach(&mut self, anchor: VertexId) -> f64 {
        if let Some(hit) = self.memoized_reach(anchor) {
            debug_assert_eq!(
                hit.to_bits(),
                self.reach_to_query(anchor).to_bits(),
                "memoized reach of {anchor:?} is stale"
            );
            return hit;
        }
        let reach = self.reach_to_query(anchor);
        if let (Some(owner), Some(cache)) = (self.owner(anchor), self.flow_cache.as_deref_mut()) {
            let at = anchor.index();
            if cache.reach.len() <= at {
                cache.reach.resize(at + 1, 0.0);
                cache.reach_stamp.resize(at + 1, 0);
            }
            cache.reach[at] = reach;
            cache.reach_stamp[at] = cache.stamp.get(owner.index()).copied().unwrap_or(0);
        }
        reach
    }

    /// The memoized reach of `v`, if its owner still has the (nonzero)
    /// stamp it was stored under; `None` without a flow cache.
    pub(crate) fn memoized_reach(&self, v: VertexId) -> Option<f64> {
        let cache = self.flow_cache.as_deref()?;
        let stamp = *cache.stamp.get(self.owner(v)?.index())?;
        (stamp != 0 && cache.reach_stamp.get(v.index()) == Some(&stamp))
            .then(|| cache.reach[v.index()])
    }

    /// The incremental counterpart of [`FTree::flow_with_bounds`], for
    /// structural probes evaluated while their journalled apply is still in
    /// place: only the journal's touched components and their ancestors are
    /// re-aggregated, triple-lane, into the overlay scratch — committed
    /// entries are never written. Bit-identical to the fresh traversal.
    pub(crate) fn flow_with_bounds_cached(
        &mut self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        cid: ComponentId,
        alpha: f64,
        journal: &Journal,
    ) -> (f64, f64, f64) {
        let mut cache = self.flow_cache.take().expect("flow cache enabled");
        debug_assert!(
            cache.dirty.is_empty(),
            "probe evaluation requires a drained flow cache"
        );
        let mut seeds = std::mem::take(&mut cache.seeds);
        seeds.clear();
        seeds.extend(journal.touched_slot_ids());
        let result = {
            let tree = &*self;
            mark_touched(tree, &mut cache, &seeds);
            overlay_flow_triple(tree, &mut cache, graph, include_query, &|c, v| {
                let comp = tree.comp(c);
                if v == comp.articulation {
                    return (1.0, 1.0, 1.0);
                }
                if c != cid {
                    let r = tree.reach_in(c, v);
                    return (r, r, r);
                }
                match &comp.kind {
                    Kind::Mono { members } => {
                        let r = members[&v].reach;
                        (r, r, r)
                    }
                    Kind::Bi {
                        estimate, local, ..
                    } => {
                        let l = local[&v] as usize;
                        let ci = estimate.interval(l, alpha);
                        (estimate.reach(l), ci.lower, ci.upper)
                    }
                }
            })
        };
        cache.seeds = seeds;
        self.flow_cache = Some(cache);
        result
    }

    /// The incremental counterpart of [`FTree::flow_with_override_bounds`]
    /// (IIIa probes): only component `cid` — evaluated under the override
    /// estimate — and its ancestors are re-aggregated. The tree itself is
    /// untouched, so no journal is involved.
    fn flow_with_override_bounds_cached(
        &mut self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        cid: ComponentId,
        snapshot: &ComponentGraph,
        estimate: &ComponentEstimate,
        alpha: f64,
    ) -> (f64, f64, f64) {
        let mut cache = self.flow_cache.take().expect("flow cache enabled");
        debug_assert!(
            cache.dirty.is_empty(),
            "probe evaluation requires a drained flow cache"
        );
        let mut seeds = std::mem::take(&mut cache.seeds);
        seeds.clear();
        seeds.push(cid.0);
        let order = override_order(snapshot);
        let result = {
            let tree = &*self;
            mark_touched(tree, &mut cache, &seeds);
            overlay_flow_triple(tree, &mut cache, graph, include_query, &|c, v| {
                let comp = tree.comp(c);
                if v == comp.articulation {
                    return (1.0, 1.0, 1.0);
                }
                if c != cid {
                    let r = tree.reach_in(c, v);
                    return (r, r, r);
                }
                let local = override_position(&order, v);
                let ci = estimate.interval(local, alpha);
                (estimate.reach(local), ci.lower, ci.upper)
            })
        };
        cache.seeds = seeds;
        self.flow_cache = Some(cache);
        result
    }

    /// Evaluates the flow the tree would have after inserting `e`, without
    /// committing the insertion (Eq. 5's probe).
    ///
    /// `base_flow` must be `self.expected_flow(graph, include_query)` — the
    /// caller computes it once per iteration and shares it across probes.
    /// The tree reads unmodified afterwards; structural candidates are
    /// evaluated with **one** journalled apply — the formed component's
    /// snapshot is estimated and scored while the insertion is still
    /// applied, then rolled back — never by cloning. The racing engine's
    /// warm candidates take the same single apply through
    /// [`FTree::probe_plan`]'s crate-internal form.
    ///
    /// Returns candidate-specific confidence bounds alongside the point
    /// estimate: exact for analytic (leaf) probes, interval-derived for
    /// probes that sampled a component.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_edge(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
        include_query: bool,
        alpha: f64,
        provider: &mut dyn EstimateProvider,
    ) -> Result<ProbeOutcome, CoreError> {
        self.probe_edge_keeping(graph, e, base_flow, include_query, alpha, provider)
            .map(|(outcome, _replay)| outcome)
    }

    /// [`probe_edge`](FTree::probe_edge), additionally returning the
    /// [`CommitReplay`] of a structural probe: the selection loop can then
    /// commit the winning candidate by replaying its probe's recorded
    /// mutations instead of re-running the insertion.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_edge_keeping(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
        include_query: bool,
        alpha: f64,
        provider: &mut dyn EstimateProvider,
    ) -> Result<Scored, CoreError> {
        let mut at_hand = Estimated(provider);
        let score = InApplyScore {
            include_query,
            alpha,
            at_hand: &mut at_hand,
        };
        let (plan, scored) =
            self.probe_plan_with(graph, e, base_flow, PlanMode::Journal(Some(score)))?;
        match plan {
            ProbePlan::Analytic(outcome) => Ok((outcome, None)),
            ProbePlan::Sampled(mut sampled) => {
                let outcome = match scored {
                    Some(outcome) => outcome,
                    None => {
                        let estimate = at_hand.0.estimate(sampled.snapshot());
                        sampled.score(self, graph, include_query, alpha, estimate)
                    }
                };
                Ok((outcome, sampled.take_replay()))
            }
        }
    }

    /// Classifies candidate `e` (validating the probe preconditions); see
    /// [`ProbeClass`]. Every probe entry point goes through this.
    fn classify_candidate(
        &self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
    ) -> Result<ProbeClass, CoreError> {
        if self.selected.contains(e) {
            return Err(CoreError::EdgeAlreadySelected(e));
        }
        let (a, b) = graph.endpoints(e);
        let (a_in, b_in) = (self.contains_vertex(a), self.contains_vertex(b));
        match (a_in, b_in) {
            (false, false) => Err(CoreError::DisconnectedEdge {
                edge: e,
                endpoints: (a, b),
            }),
            (true, false) => Ok(ProbeClass::Leaf { anchor: a, leaf: b }),
            (false, true) => Ok(ProbeClass::Leaf { anchor: b, leaf: a }),
            (true, true) => {
                if let (Some(x), Some(y)) = (self.owner(a), self.owner(b)) {
                    if x == y && self.comp(x).is_bi() {
                        return Ok(ProbeClass::InBi { cid: x });
                    }
                }
                Ok(ProbeClass::Structural)
            }
        }
    }

    /// The deterministic half of [`FTree::probe_edge`]: classifies the
    /// candidate, resolves leaf probes analytically, and packages sampled
    /// probes (IIIa and structural) with the one component snapshot they
    /// need — without drawing a single sample. The racing engine builds one
    /// plan per candidate and re-[`score`](SampledProbe::score)s it as the
    /// candidate's estimate grows across rounds.
    ///
    /// Structural candidates are classified by a journalled apply +
    /// rollback on this tree (hence `&mut self`); the returned plan holds
    /// only the candidate edge and its component snapshot, and stays valid
    /// while the tree is unchanged — one selection iteration.
    ///
    /// `base_flow` must be `self.expected_flow(graph, include_query)`.
    pub fn probe_plan(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
    ) -> Result<ProbePlan, CoreError> {
        self.probe_plan_with(graph, e, base_flow, PlanMode::Journal(None))
            .map(|(plan, _)| plan)
    }

    /// The pinned clone-based reference form of [`FTree::probe_plan`]: the
    /// pre-journal engine, kept as the oracle the equivalence tests compare
    /// the journal engine against edge-for-edge. Structural plans carry a
    /// full tree clone, exactly as before.
    pub fn probe_plan_cloning(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
    ) -> Result<ProbePlan, CoreError> {
        self.probe_plan_with(graph, e, base_flow, PlanMode::Cloning)
            .map(|(plan, _)| plan)
    }

    /// [`FTree::probe_plan`] under an explicit [`PlanMode`]. In journal
    /// mode with an [`InApplyScore`], a structural candidate whose estimate
    /// the scorer already holds is also scored inside its planning apply,
    /// and that score is returned beside the plan (which can still
    /// re-score it later).
    pub(crate) fn probe_plan_with(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
        mode: PlanMode<'_>,
    ) -> Result<(ProbePlan, Option<ProbeOutcome>), CoreError> {
        match self.classify_candidate(graph, e)? {
            ProbeClass::Leaf { anchor, leaf } => {
                let p = graph.probability(e).value();
                let delta = graph.weight(leaf).value() * p * self.anchor_reach(anchor);
                let flow = base_flow + delta;
                let case = match self.owner(anchor) {
                    Some(cid) if self.comp(cid).is_bi() => InsertCase::LeafBi,
                    _ => InsertCase::LeafMono,
                };
                let outcome = ProbeOutcome {
                    flow,
                    lower: flow,
                    upper: flow,
                    case,
                    sampling_cost_edges: 0,
                };
                Ok((ProbePlan::Analytic(outcome), None))
            }
            ProbeClass::InBi { cid } => {
                // IIIa probe: only this component is re-estimated.
                let Kind::Bi { edges, .. } = &self.comp(cid).kind else {
                    unreachable!()
                };
                let mut probe_edges = edges.to_vec();
                probe_edges.push(e);
                let av = self.comp(cid).articulation;
                let snapshot =
                    FTree::build_snapshot(graph, av, &probe_edges, &mut self.local_scratch);
                let plan = SampledProbe {
                    snapshot: Arc::new(snapshot),
                    cost_edges: probe_edges.len(),
                    kind: SampledKind::InBi { cid },
                };
                Ok((ProbePlan::Sampled(Box::new(plan)), None))
            }
            ProbeClass::Structural => match mode {
                PlanMode::Cloning => {
                    // Pinned reference: clone and insert now, estimate later.
                    let mut clone = self.clone();
                    let report = clone
                        .insert_edge_from(graph, e, &mut ProbeSource::default())
                        .expect("probe preconditions were just checked");
                    let cid = report
                        .component
                        .expect("cycle insertions always produce a bi component");
                    let Kind::Bi { snapshot, .. } = &clone.comp(cid).kind else {
                        unreachable!("cycle insertions always produce a bi component")
                    };
                    let plan = SampledProbe {
                        snapshot: Arc::clone(snapshot),
                        cost_edges: report.sampled_edge_count,
                        kind: SampledKind::StructuralCloned {
                            tree: Box::new(clone),
                            cid,
                            case: report.case,
                        },
                    };
                    Ok((ProbePlan::Sampled(Box::new(plan)), None))
                }
                PlanMode::Journal(score) => {
                    let (plan, scored) = self.probe_structural(graph, e, score);
                    Ok((ProbePlan::Sampled(Box::new(plan)), scored))
                }
            },
        }
    }

    /// The one journalled structural probe (cases IIIb/IV) behind every
    /// journal-engine entry point: applies `e` to the shared tree, taking
    /// the formed component ready-made from `score` when it holds one and
    /// otherwise building it with the estimate deferred and offering the
    /// new snapshot to `score`. When an estimate is at hand, the candidate
    /// is scored while the insertion is still in place. The rollback then
    /// restores the tree bit-identically and captures the applied state's
    /// images into the returned plan, so a later
    /// [`SampledProbe::score`] re-scores at a new estimate by swapping them
    /// back in, and a commit replays them.
    fn probe_structural(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        mut score: Option<InApplyScore<'_>>,
    ) -> (SampledProbe, Option<ProbeOutcome>) {
        let mut source = ProbeSource {
            at_hand: score.as_mut().map(|s| &mut *s.at_hand as &mut dyn AtHand),
            served: false,
        };
        let (report, journal) = self
            .apply_from(graph, e, &mut source)
            .expect("probe preconditions were just checked");
        let served = source.served;
        let cid = report
            .component
            .expect("cycle insertions always produce a bi component");
        let Kind::Bi {
            snapshot, local, ..
        } = &self.comp(cid).kind
        else {
            unreachable!("cycle insertions always produce a bi component")
        };
        let (snapshot, local) = (Arc::clone(snapshot), Arc::clone(local));
        let mut outcome = None;
        if let Some(InApplyScore {
            include_query,
            alpha,
            at_hand,
        }) = score
        {
            let estimated = served
                || at_hand
                    .estimate(&snapshot)
                    .map(|estimate| self.set_bi_estimate(cid, estimate))
                    .is_some();
            if estimated {
                let (flow, lower, upper) =
                    self.applied_flow_bounds(graph, include_query, cid, alpha, &journal);
                outcome = Some(ProbeOutcome {
                    flow,
                    lower,
                    upper,
                    case: report.case,
                    sampling_cost_edges: report.sampled_edge_count,
                });
            }
        }
        let images = self.rollback_capturing(journal, cid);
        let plan = SampledProbe {
            snapshot,
            cost_edges: report.sampled_edge_count,
            kind: SampledKind::Structural {
                case: report.case,
                local,
                images: Some(images),
            },
        };
        (plan, outcome)
    }

    /// `(point, lower, upper)` flow of the tree while a journalled
    /// insertion forming bi component `cid` is in place:
    /// `O(touched)` through the flow cache when it is enabled, one
    /// whole-forest traversal otherwise.
    fn applied_flow_bounds(
        &mut self,
        graph: &ProbabilisticGraph,
        include_query: bool,
        cid: ComponentId,
        alpha: f64,
        journal: &Journal,
    ) -> (f64, f64, f64) {
        if self.flow_cache_enabled() {
            self.flow_with_bounds_cached(graph, include_query, cid, alpha, journal)
        } else {
            self.flow_with_bounds(graph, include_query, cid, alpha)
        }
    }
}

/// How a candidate probe is answered — the **single** classification every
/// probe entry point goes through.
enum ProbeClass {
    /// Case II: `leaf` is outside the tree, `anchor` inside — analytic.
    Leaf { anchor: VertexId, leaf: VertexId },
    /// Case IIIa inside bi component `cid` — override-scored, no mutation.
    InBi { cid: ComponentId },
    /// Cases IIIb/IV (plus the AV-adjacent IIIa probes routed the same
    /// way): a mutating insertion, probed through the journal or a clone.
    Structural,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, SamplingProvider};
    use flowmax_graph::{
        exact_expected_flow, GraphBuilder, Probability, Weight, DEFAULT_ENUMERATION_CAP,
    };

    fn exact_provider() -> SamplingProvider {
        SamplingProvider::new(EstimatorConfig::exact(), 7)
    }

    /// Q(0)-1 (0.8), 1-2 (0.5), 2-0 (0.4), 2-3 (0.9), weights = id.
    fn graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        for w in 0..4 {
            b.add_vertex(Weight::new(w as f64).unwrap());
        }
        b.add_edge(VertexId(0), VertexId(1), Probability::new(0.8).unwrap())
            .unwrap();
        b.add_edge(VertexId(1), VertexId(2), Probability::new(0.5).unwrap())
            .unwrap();
        b.add_edge(VertexId(2), VertexId(0), Probability::new(0.4).unwrap())
            .unwrap();
        b.add_edge(VertexId(2), VertexId(3), Probability::new(0.9).unwrap())
            .unwrap();
        b.build()
    }

    #[test]
    fn flow_matches_exact_enumeration_with_exact_estimator() {
        let g = graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in 0..4 {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let ftree_flow = t.expected_flow(&g, false);
        let exact = exact_expected_flow(
            &g,
            t.selected_edges(),
            VertexId(0),
            false,
            DEFAULT_ENUMERATION_CAP,
        )
        .unwrap();
        assert!(
            (ftree_flow - exact).abs() < 1e-9,
            "decomposition must be exact: {ftree_flow} vs {exact}"
        );
    }

    #[test]
    fn include_query_adds_its_weight() {
        let g = graph();
        let mut t = FTree::new(&g, VertexId(2));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(3), &mut pr).unwrap();
        let without = t.expected_flow(&g, false);
        let with = t.expected_flow(&g, true);
        assert!(
            (with - without - 2.0).abs() < 1e-12,
            "W(Q)=2 must be the difference"
        );
    }

    #[test]
    fn leaf_probe_equals_commit() {
        let g = graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        let base = t.expected_flow(&g, false);
        let probe = t
            .probe_edge(&g, EdgeId(3), base, false, 0.01, &mut pr)
            .unwrap();
        assert_eq!(probe.case, InsertCase::LeafMono);
        assert_eq!(probe.sampling_cost_edges, 0);
        assert_eq!(probe.lower, probe.flow);
        let mut t2 = t.clone();
        t2.insert_edge(&g, EdgeId(3), &mut pr).unwrap();
        let committed = t2.expected_flow(&g, false);
        assert!((probe.flow - committed).abs() < 1e-12);
    }

    #[test]
    fn structural_probe_equals_commit_with_exact_estimates() {
        let g = graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        let base = t.expected_flow(&g, false);
        let probe = t
            .probe_edge(&g, EdgeId(2), base, false, 0.01, &mut pr)
            .unwrap();
        assert_eq!(probe.case, InsertCase::CycleAcross);
        assert!(probe.sampling_cost_edges > 0);
        let mut t2 = t.clone();
        t2.insert_edge(&g, EdgeId(2), &mut pr).unwrap();
        let committed = t2.expected_flow(&g, false);
        assert!((probe.flow - committed).abs() < 1e-12);
        // Probe must not have mutated the original.
        assert!((t.expected_flow(&g, false) - base).abs() < 1e-12);
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn iiia_probe_uses_override_without_mutation() {
        // Square + diagonal: insert square, probe diagonal.
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
        for e in 0..4 {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let base = t.expected_flow(&g, false);
        let probe = t
            .probe_edge(&g, EdgeId(4), base, false, 0.01, &mut pr)
            .unwrap();
        assert_eq!(probe.case, InsertCase::CycleInBi);
        assert!(probe.flow > base, "diagonal adds paths");
        let mut t2 = t.clone();
        t2.insert_edge(&g, EdgeId(4), &mut pr).unwrap();
        assert!((probe.flow - t2.expected_flow(&g, false)).abs() < 1e-12);
        assert_eq!(t.edge_count(), 4, "probe must not commit");
    }

    #[test]
    fn fused_bounds_match_reference() {
        // The one-pass flow_with_bounds must equal expected_flow plus the
        // two-pass flow_bounds_for_component bit for bit, on a tree with a
        // genuinely sampled (non-degenerate) component.
        let g = graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut mc = SamplingProvider::new(EstimatorConfig::monte_carlo(300), 9);
        for e in 0..4 {
            t.insert_edge(&g, EdgeId(e), &mut mc).unwrap();
        }
        let cid = t.component_of(VertexId(1)).expect("cycle component");
        for include_query in [false, true] {
            let (flow, lo, hi) = t.flow_with_bounds(&g, include_query, cid, 0.01);
            assert_eq!(flow.to_bits(), t.expected_flow(&g, include_query).to_bits());
            let (rlo, rhi) = t.flow_bounds_for_component(&g, include_query, cid, 0.01);
            assert_eq!(lo.to_bits(), rlo.to_bits());
            assert_eq!(hi.to_bits(), rhi.to_bits());
            assert!(lo < hi, "sampled component must have bound width");
        }
    }

    #[test]
    fn bounds_bracket_point_estimate_for_sampled_probes() {
        let g = graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut mc = SamplingProvider::new(EstimatorConfig::monte_carlo(200), 3);
        t.insert_edge(&g, EdgeId(0), &mut mc).unwrap();
        t.insert_edge(&g, EdgeId(1), &mut mc).unwrap();
        let base = t.expected_flow(&g, false);
        let probe = t
            .probe_edge(&g, EdgeId(2), base, false, 0.01, &mut mc)
            .unwrap();
        assert!(probe.lower <= probe.flow && probe.flow <= probe.upper);
        assert!(
            probe.upper - probe.lower > 0.0,
            "sampled probe must have width"
        );
    }

    #[test]
    fn probe_rejects_bad_edges() {
        let g = graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        assert!(matches!(
            t.probe_edge(&g, EdgeId(0), 0.0, false, 0.01, &mut pr),
            Err(CoreError::EdgeAlreadySelected(_))
        ));
        assert!(matches!(
            t.probe_edge(&g, EdgeId(3), 0.0, false, 0.01, &mut pr),
            Err(CoreError::DisconnectedEdge { .. })
        ));
    }

    #[test]
    fn empty_tree_flow_is_query_weight_only() {
        let g = graph();
        let t = FTree::new(&g, VertexId(3));
        assert_eq!(t.expected_flow(&g, false), 0.0);
        assert_eq!(t.expected_flow(&g, true), 3.0);
    }

    /// Insertable candidates: unselected edges touching a tree vertex.
    fn insertable(g: &ProbabilisticGraph, tree: &FTree) -> Vec<EdgeId> {
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

    /// The Δ(touched) golden: growing the Fig. 3 tree edge by edge through
    /// the incremental commit path (apply → keep → mark touched), the
    /// cached flow total and every candidate probe — leaf, in-bi,
    /// `splitTree` and cross-component alike — are **bit-identical** to a
    /// reference tree maintained by `insert_edge` with whole-forest
    /// traversals, at every single step.
    #[test]
    fn figure3_walk_cached_flow_and_probes_match_full_traversal() {
        let g = crate::ftree::goldens::figure3_graph();
        let mut pr = exact_provider();
        let mut cached = FTree::new(&g, VertexId(0));
        cached.enable_flow_cache();
        let mut reference = FTree::new(&g, VertexId(0));
        for e in 0..19u32 {
            let total = cached.flow_cached_total(&g, false);
            assert_eq!(
                total.to_bits(),
                reference.expected_flow(&g, false).to_bits(),
                "cached total diverged before inserting e{e}"
            );
            for cand in insertable(&g, &cached) {
                let mut pa = exact_provider();
                let mut pb = exact_provider();
                let a = cached
                    .probe_edge(&g, cand, total, false, 0.01, &mut pa)
                    .unwrap();
                let b = reference
                    .probe_edge(&g, cand, total, false, 0.01, &mut pb)
                    .unwrap();
                assert_eq!(a.case, b.case, "case of {cand:?} before e{e}");
                assert_eq!(
                    a.flow.to_bits(),
                    b.flow.to_bits(),
                    "overlay flow of {cand:?} before e{e}: {} vs {}",
                    a.flow,
                    b.flow
                );
                assert_eq!(a.lower.to_bits(), b.lower.to_bits());
                assert_eq!(a.upper.to_bits(), b.upper.to_bits());
            }
            // Commit: the incremental path keeps the applied journal's
            // mutations and marks its touched set; the reference re-runs
            // a plain insertion.
            let (_, journal) = cached.apply(&g, EdgeId(e), &mut pr).unwrap();
            let touched: Vec<u32> = journal.touched_slot_ids().collect();
            drop(journal);
            cached.cache_mark_dirty(touched);
            reference.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
            assert_eq!(cached, reference, "trees diverged after e{e}");
        }
        let total = cached.flow_cached_total(&g, false);
        assert_eq!(
            total.to_bits(),
            reference.expected_flow(&g, false).to_bits()
        );
    }

    /// The dirty-state regression: mutating a component estimate *without*
    /// marking it leaves the cache stale, and the revalidation the greedy
    /// loop runs after every commit (cached bits == full-traversal bits)
    /// must catch it. This is the safety net that makes every invalidation
    /// bug a loud debug failure instead of a silent wrong answer.
    #[test]
    #[should_panic(expected = "stale cache must be caught")]
    fn unmarked_mutation_fails_the_commit_revalidation() {
        let g = crate::ftree::goldens::figure3_graph();
        let mut pr = exact_provider();
        let mut tree = FTree::new(&g, VertexId(0));
        tree.enable_flow_cache();
        for e in 0..19u32 {
            let (_, journal) = tree.apply(&g, EdgeId(e), &mut pr).unwrap();
            let touched: Vec<u32> = journal.touched_slot_ids().collect();
            drop(journal);
            tree.cache_mark_dirty(touched);
        }
        let _ = tree.flow_cached_total(&g, false);
        // Dirty a bi-component's estimate across rounds without marking it.
        let bi = tree
            .components()
            .find(|c| c.is_bi())
            .map(|c| c.id)
            .expect("figure 3 has bi components");
        let members = match &tree.comp(bi).kind {
            Kind::Bi { local, .. } => local.len(),
            Kind::Mono { .. } => unreachable!(),
        };
        tree.set_bi_estimate(bi, ComponentEstimate::placeholder(members + 1));
        assert_eq!(
            tree.flow_cached_total(&g, false).to_bits(),
            tree.expected_flow(&g, false).to_bits(),
            "stale cache must be caught"
        );
    }

    /// Commits `e` the way the incremental greedy does (journalled apply,
    /// touched slots queued) and drains the flow cache.
    fn commit(tree: &mut FTree, g: &ProbabilisticGraph, e: EdgeId) -> InsertCase {
        let (report, journal) = tree.apply(g, e, &mut exact_provider()).unwrap();
        let touched: Vec<u32> = journal.touched_slot_ids().collect();
        drop(journal);
        tree.cache_mark_dirty(touched);
        tree.flow_cached_total(g, false);
        report.case
    }

    /// Q(0) with triangle 0-1-2 (bi B1), tail 2-3 (mono M1), triangle
    /// 3-4-5 (bi B2 under M1), tail 5-6 (mono M3 under B2); e8 = 6-7 is a
    /// leaf candidate at anchor 6, and e9 = 0-3 closes a case-IV cycle
    /// that absorbs B1 and M1 and re-parents B2, leaving M3's slot
    /// untouched while the reach of its vertices changes.
    fn nested_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(8, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        for (x, y) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
            (6, 7),
            (0, 3),
        ] {
            b.add_edge(VertexId(x), VertexId(y), p).unwrap();
        }
        b.build()
    }

    /// A case-IV commit above a leaf probe's anchor changes the anchor's
    /// reach without touching the anchor's own component; the next leaf
    /// probe must see the new reach, bit for bit.
    #[test]
    fn a_commit_above_the_anchor_invalidates_its_memoized_reach() {
        let g = nested_graph();
        let (anchor, leaf) = (VertexId(6), EdgeId(8));
        let mut tree = FTree::new(&g, VertexId(0));
        tree.enable_flow_cache();
        for e in 0..8 {
            commit(&mut tree, &g, EdgeId(e));
        }
        let owner = tree.owner(anchor).unwrap();
        let leaf_probe = |tree: &mut FTree| {
            let base = tree.flow_cached_total(&g, false);
            let outcome = tree
                .probe_edge(&g, leaf, base, false, 0.01, &mut exact_provider())
                .unwrap();
            let expected = base + 1.0 * 0.5 * tree.reach_to_query(anchor);
            assert_eq!(outcome.flow.to_bits(), expected.to_bits());
        };
        leaf_probe(&mut tree);
        let before = tree.reach_to_query(anchor);
        assert_eq!(tree.memoized_reach(anchor), Some(before));
        assert_eq!(commit(&mut tree, &g, EdgeId(9)), InsertCase::CycleAcross);
        assert_eq!(
            tree.owner(anchor),
            Some(owner),
            "the anchor keeps its owner"
        );
        assert_ne!(
            tree.reach_to_query(anchor),
            before,
            "the anchor's reach moved"
        );
        assert_eq!(tree.memoized_reach(anchor), None, "the memo is invalidated");
        leaf_probe(&mut tree);
        assert_eq!(
            tree.memoized_reach(anchor).map(f64::to_bits),
            Some(tree.reach_to_query(anchor).to_bits())
        );
    }

    /// Scoring a journal structural plan swaps its images in and out: two
    /// scores at two estimates insert nothing, leave the tree equal to a
    /// clone taken before the plan, and equal the clone-based reference's
    /// scores bit for bit.
    #[test]
    fn structural_scores_swap_images_without_inserting() {
        use crate::estimator::EstimateProvider;
        let g = crate::ftree::goldens::figure3_graph();
        let mut tree = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in 0..19 {
            tree.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let mut reference = tree.clone();
        tree.enable_flow_cache();
        let base = tree.flow_cached_total(&g, false);
        for e in [EdgeId(21), EdgeId(22)] {
            let before = tree.clone();
            let ProbePlan::Sampled(mut plan) = tree.probe_plan(&g, e, base).unwrap() else {
                panic!("a structural candidate is sampled");
            };
            let ProbePlan::Sampled(mut cloned) = reference.probe_plan_cloning(&g, e, base).unwrap()
            else {
                panic!("a structural candidate is sampled");
            };
            let estimates = [64, 512].map(|samples| {
                SamplingProvider::new(EstimatorConfig::monte_carlo(samples), 5)
                    .estimate(plan.snapshot())
            });
            #[cfg(debug_assertions)]
            let inserts = FTree::debug_structural_insert_count();
            let mut flows = Vec::new();
            for estimate in estimates {
                let a = plan.score(&mut tree, &g, false, 0.01, estimate.clone());
                let b = cloned.score(&mut reference, &g, false, 0.01, estimate);
                assert_eq!(a.case, b.case);
                assert_eq!(a.flow.to_bits(), b.flow.to_bits());
                assert_eq!(a.lower.to_bits(), b.lower.to_bits());
                assert_eq!(a.upper.to_bits(), b.upper.to_bits());
                assert!(tree == before, "a score leaves the tree as it found it");
                flows.push(a.flow);
            }
            #[cfg(debug_assertions)]
            assert_eq!(FTree::debug_structural_insert_count(), inserts);
            assert_ne!(flows[0], flows[1], "the two estimates differ");
            assert!(plan.take_replay().is_some(), "the plan keeps its images");
        }
    }

    mod memo_props {
        use super::*;
        use proptest::prelude::*;

        /// A spanning tree over `n` vertices (vertex `i + 1` hangs off
        /// `parents[i] % (i + 1)`) plus chords, with random probabilities.
        fn build(
            n: usize,
            parents: &[usize],
            chords: &[(usize, usize)],
            probs: &[f64],
        ) -> ProbabilisticGraph {
            let mut b = GraphBuilder::new();
            b.add_vertices(n, Weight::ONE);
            let pairs = parents
                .iter()
                .enumerate()
                .map(|(i, &r)| (i + 1, r % (i + 1)))
                .chain(chords.iter().map(|&(u, v)| (u % n, v % n)));
            for (k, (u, v)) in pairs.enumerate() {
                let (u, v) = (VertexId::from_index(u), VertexId::from_index(v));
                if u != v && !b.has_edge(u, v) {
                    let p = Probability::new(probs[k % probs.len()]).unwrap();
                    b.add_edge(u, v, p).unwrap();
                }
            }
            b.build()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After every commit of a random order — structural winners by
            /// replay, the rest by journalled apply, as the greedy commits
            /// them — every tree vertex's memoized reach that is still
            /// served equals a fresh walk to `Q`, bit for bit.
            #[test]
            fn a_served_memo_always_equals_a_fresh_walk(
                (n, parents, chords, probs, order) in (
                    3usize..9,
                    proptest::collection::vec(0usize..64, 8),
                    proptest::collection::vec((0usize..9, 0usize..9), 0..6),
                    proptest::collection::vec(0.05f64..=1.0, 14),
                    proptest::collection::vec(0usize..64, 14),
                )
            ) {
                let g = build(n, &parents[..n - 1], &chords, &probs);
                let mut tree = FTree::new(&g, VertexId(0));
                tree.enable_flow_cache();
                let mut pr = exact_provider();
                for pick in order {
                    let base = tree.flow_cached_total(&g, false);
                    let in_tree: Vec<VertexId> =
                        g.vertices().filter(|&v| tree.contains_vertex(v)).collect();
                    for &v in &in_tree {
                        tree.anchor_reach(v);
                    }
                    let cands = insertable(&g, &tree);
                    if cands.is_empty() {
                        break;
                    }
                    let e = cands[pick % cands.len()];
                    let (_, replay) = tree
                        .probe_edge_keeping(&g, e, base, false, 0.01, &mut pr)
                        .unwrap();
                    match replay {
                        Some(replay) => tree.commit_replay(replay),
                        None => {
                            let (_, journal) = tree.apply(&g, e, &mut pr).unwrap();
                            let touched: Vec<u32> = journal.touched_slot_ids().collect();
                            drop(journal);
                            tree.cache_mark_dirty(touched);
                        }
                    }
                    tree.flow_cached_total(&g, false);
                    for &v in &in_tree {
                        if let Some(memo) = tree.memoized_reach(v) {
                            prop_assert_eq!(
                                memo.to_bits(),
                                tree.reach_to_query(v).to_bits(),
                                "stale memo of {:?} after committing {:?}", v, e
                            );
                        }
                    }
                }
            }
        }
    }
}
