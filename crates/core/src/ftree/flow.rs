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
//! * **Case II** (leaf): an `O(depth)` analytic delta — no sampling, no copy;
//! * **Case IIIa** (cycle in a bi component): only that component is
//!   re-estimated; flow is evaluated with the fresh estimate *overriding* the
//!   stored one — no tree mutation;
//! * **Cases IIIb/IV** (structural): the probe applies the insertion to the
//!   *shared* tree through the undo journal ([`FTree::apply`]), evaluates,
//!   and rolls back bit-identically ([`FTree::rollback`]) — `O(touched
//!   components)` per probe instead of the historical whole-tree clone.
//!   The clone-based path survives only as the pinned reference
//!   ([`FTree::probe_plan_cloning`]) that benchmarks and equivalence tests
//!   compare against.

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph};

use super::{CommitReplay, ComponentId, FTree, InsertCase, Journal, Kind};
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
/// Journal-based structural plans hold only the candidate edge — scoring
/// re-applies it to the shared tree via the undo journal and rolls back.
/// The plan is therefore only valid while the tree it was created from is
/// unchanged (the invariant every selection iteration already maintains).
#[derive(Debug)]
pub struct SampledProbe {
    snapshot: ComponentGraph,
    cost_edges: usize,
    kind: SampledKind,
}

#[derive(Debug)]
enum SampledKind {
    /// Case IIIa: re-estimate one existing bi component; flow is evaluated
    /// on the *original* tree with the estimate overriding the stored one.
    InBi { cid: ComponentId },
    /// Cases IIIb/IV, journal-based (the default): scoring applies the
    /// candidate to the shared tree, evaluates, and rolls back — no clone.
    Structural { edge: EdgeId, case: InsertCase },
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

    /// Scores the probe under `estimate`: the flow the tree would have with
    /// the candidate inserted, plus the candidate-specific `1 − α` bounds.
    ///
    /// Callable repeatedly — racing rounds re-score with growing-budget
    /// estimates; only the latest call's estimate is retained. `tree` must
    /// be the tree the plan was created from, **unchanged since** — a
    /// journal-based structural score applies the candidate to it and rolls
    /// back before returning, so the tree reads unmodified afterwards.
    pub fn score(
        &mut self,
        tree: &mut FTree,
        graph: &ProbabilisticGraph,
        include_query: bool,
        alpha: f64,
        estimate: ComponentEstimate,
    ) -> ProbeOutcome {
        self.score_keeping(tree, graph, include_query, alpha, estimate)
            .0
    }

    /// [`score`](Self::score), additionally capturing a [`CommitReplay`]
    /// when the tree's incremental flow cache is enabled and the probe is a
    /// journal-based structural one: the rollback records the applied
    /// state's images on the way out, so the selection loop can commit this
    /// candidate later by replaying the recorded mutations instead of
    /// re-running the insertion.
    pub(crate) fn score_keeping(
        &mut self,
        tree: &mut FTree,
        graph: &ProbabilisticGraph,
        include_query: bool,
        alpha: f64,
        estimate: ComponentEstimate,
    ) -> (ProbeOutcome, Option<CommitReplay>) {
        match &mut self.kind {
            SampledKind::InBi { cid } => {
                let (flow, lower, upper) = if tree.flow_cache_enabled() {
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
                };
                (
                    ProbeOutcome {
                        flow,
                        lower,
                        upper,
                        case: InsertCase::CycleInBi,
                        sampling_cost_edges: self.cost_edges,
                    },
                    None,
                )
            }
            SampledKind::Structural { edge, case } => {
                // Apply → evaluate → rollback on the shared tree. The
                // supplied provider hands the insertion its estimate
                // directly, so no sampling and no tree clone happens here.
                let mut supplied = SuppliedProvider {
                    estimate: Some(estimate),
                };
                let (report, journal) = tree
                    .apply(graph, *edge, &mut supplied)
                    .expect("plan stays applicable while the tree is unchanged");
                let cid = report
                    .component
                    .expect("cycle insertions always produce a bi component");
                let (flow, lower, upper) = if tree.flow_cache_enabled() {
                    tree.flow_with_bounds_cached(graph, include_query, cid, alpha, &journal)
                } else {
                    tree.flow_with_bounds(graph, include_query, cid, alpha)
                };
                let replay = if tree.flow_cache_enabled() {
                    Some(tree.rollback_capturing(journal, cid))
                } else {
                    tree.rollback(journal);
                    None
                };
                (
                    ProbeOutcome {
                        flow,
                        lower,
                        upper,
                        case: *case,
                        sampling_cost_edges: self.cost_edges,
                    },
                    replay,
                )
            }
            SampledKind::StructuralCloned {
                tree: clone,
                cid,
                case,
            } => {
                clone.set_bi_estimate(*cid, estimate);
                let (flow, lower, upper) =
                    clone.flow_with_bounds(graph, include_query, *cid, alpha);
                (
                    ProbeOutcome {
                        flow,
                        lower,
                        upper,
                        case: *case,
                        sampling_cost_edges: self.cost_edges,
                    },
                    None,
                )
            }
        }
    }
}

/// Captures the single component snapshot a structural probe insertion
/// estimates, returning a placeholder so the estimate can be supplied
/// later.
#[derive(Default)]
struct CaptureProvider {
    snapshot: Option<ComponentGraph>,
}

impl EstimateProvider for CaptureProvider {
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate {
        assert!(
            self.snapshot.is_none(),
            "a structural probe estimates exactly one component"
        );
        self.snapshot = Some(snapshot.clone());
        ComponentEstimate::placeholder(snapshot.vertex_count())
    }
}

/// Defers estimation without copying the snapshot: the fused
/// [`FTree::probe_edge`] path estimates the applied component's own
/// snapshot afterwards, so nothing needs capturing.
struct PlaceholderProvider;

impl EstimateProvider for PlaceholderProvider {
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate {
        ComponentEstimate::placeholder(snapshot.vertex_count())
    }
}

/// Hands a pre-computed estimate to the single component a structural
/// probe's re-apply forms (the score-time counterpart of
/// [`CaptureProvider`]).
struct SuppliedProvider {
    estimate: Option<ComponentEstimate>,
}

impl EstimateProvider for SuppliedProvider {
    fn estimate(&mut self, _snapshot: &ComponentGraph) -> ComponentEstimate {
        self.estimate
            .take()
            .expect("a structural probe estimates exactly one component")
    }
}

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
    /// evaluated with **one** journalled apply — the captured component
    /// snapshot is estimated and scored while the insertion is still
    /// applied, then rolled back — never by cloning. (The split
    /// [`FTree::probe_plan`] + [`SampledProbe::score`] form, which the
    /// racing engine needs, pays the apply twice; one-shot probes fuse it.)
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

    /// [`probe_edge`](FTree::probe_edge), additionally capturing a
    /// [`CommitReplay`] when the incremental flow cache is enabled and the
    /// probe is structural: the selection loop can then commit the winning
    /// candidate by replaying its probe's recorded mutations instead of
    /// re-running the insertion.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_edge_keeping(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
        include_query: bool,
        alpha: f64,
        provider: &mut dyn EstimateProvider,
    ) -> Result<(ProbeOutcome, Option<CommitReplay>), CoreError> {
        if matches!(self.classify_candidate(graph, e)?, ProbeClass::Structural) {
            // Fused structural probe: apply once, estimate the new
            // component's own snapshot in place, score, roll back — no
            // snapshot copy, no clone.
            let (report, journal) = self
                .apply(graph, e, &mut PlaceholderProvider)
                .expect("probe preconditions were just checked");
            let cid = report
                .component
                .expect("cycle insertions always produce a bi component");
            let estimate = {
                let Kind::Bi { snapshot, .. } = &self.comp(cid).kind else {
                    unreachable!("cycle insertions always produce a bi component")
                };
                provider.estimate(snapshot)
            };
            self.set_bi_estimate(cid, estimate);
            let (flow, lower, upper) = if self.flow_cache_enabled() {
                self.flow_with_bounds_cached(graph, include_query, cid, alpha, &journal)
            } else {
                self.flow_with_bounds(graph, include_query, cid, alpha)
            };
            let replay = if self.flow_cache_enabled() {
                Some(self.rollback_capturing(journal, cid))
            } else {
                self.rollback(journal);
                None
            };
            return Ok((
                ProbeOutcome {
                    flow,
                    lower,
                    upper,
                    case: report.case,
                    sampling_cost_edges: report.sampled_edge_count,
                },
                replay,
            ));
        }
        match self.probe_plan(graph, e, base_flow)? {
            ProbePlan::Analytic(outcome) => Ok((outcome, None)),
            ProbePlan::Sampled(mut sampled) => {
                let estimate = provider.estimate(sampled.snapshot());
                Ok(sampled.score_keeping(self, graph, include_query, alpha, estimate))
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
        self.probe_plan_impl(graph, e, base_flow, false)
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
        self.probe_plan_impl(graph, e, base_flow, true)
    }

    fn probe_plan_impl(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        base_flow: f64,
        cloning: bool,
    ) -> Result<ProbePlan, CoreError> {
        match self.classify_candidate(graph, e)? {
            ProbeClass::Leaf { anchor, leaf } => {
                let p = graph.probability(e).value();
                let delta = graph.weight(leaf).value() * p * self.reach_to_query(anchor);
                let flow = base_flow + delta;
                let case = match self.owner(anchor) {
                    Some(cid) if self.comp(cid).is_bi() => InsertCase::LeafBi,
                    _ => InsertCase::LeafMono,
                };
                Ok(ProbePlan::Analytic(ProbeOutcome {
                    flow,
                    lower: flow,
                    upper: flow,
                    case,
                    sampling_cost_edges: 0,
                }))
            }
            ProbeClass::InBi { cid } => {
                // IIIa probe: only this component is re-estimated.
                let Kind::Bi { edges, .. } = &self.comp(cid).kind else {
                    unreachable!()
                };
                let mut probe_edges = edges.clone();
                probe_edges.push(e);
                let av = self.comp(cid).articulation;
                let mut scratch = std::mem::take(&mut self.local_scratch);
                let snapshot = ComponentGraph::build_with(graph, av, &probe_edges, &mut scratch);
                self.local_scratch = scratch;
                Ok(ProbePlan::Sampled(Box::new(SampledProbe {
                    snapshot,
                    cost_edges: probe_edges.len(),
                    kind: SampledKind::InBi { cid },
                })))
            }
            ProbeClass::Structural if cloning => {
                // Pinned reference: clone and insert now, estimate later.
                let mut clone = self.clone();
                let mut capture = CaptureProvider::default();
                let report = clone
                    .insert_edge(graph, e, &mut capture)
                    .expect("probe preconditions were just checked");
                let cid = report
                    .component
                    .expect("cycle insertions always produce a bi component");
                let snapshot = capture
                    .snapshot
                    .expect("cycle insertions estimate their new component");
                Ok(ProbePlan::Sampled(Box::new(SampledProbe {
                    snapshot,
                    cost_edges: report.sampled_edge_count,
                    kind: SampledKind::StructuralCloned {
                        tree: Box::new(clone),
                        cid,
                        case: report.case,
                    },
                })))
            }
            ProbeClass::Structural => {
                // Structural probe: journalled apply on the shared tree
                // captures the would-be component's snapshot, then rolls
                // back — no clone, cost proportional to the touched slots.
                let mut capture = CaptureProvider::default();
                let (report, journal) = self
                    .apply(graph, e, &mut capture)
                    .expect("probe preconditions were just checked");
                self.rollback(journal);
                let snapshot = capture
                    .snapshot
                    .expect("cycle insertions estimate their new component");
                Ok(ProbePlan::Sampled(Box::new(SampledProbe {
                    snapshot,
                    cost_edges: report.sampled_edge_count,
                    kind: SampledKind::Structural {
                        edge: e,
                        case: report.case,
                    },
                })))
            }
        }
    }
}

/// How a candidate probe is answered — the **single** classification shared
/// by the plan engines and the fused [`FTree::probe_edge`] path, so the two
/// can never drift apart.
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

    /// Manual timing probe (not a correctness test): run with
    /// `cargo test --release -p flowmax-core -- --ignored probe_timing --nocapture`.
    #[test]
    #[ignore]
    fn probe_timing_breakdown() {
        use crate::selection::MemoProvider;
        use std::time::Instant;
        let links = 100usize;
        let mut b = GraphBuilder::new();
        let diamond = Probability::new(0.99).unwrap();
        let chordp = Probability::new(0.05).unwrap();
        let h0 = b.add_vertex(Weight::ONE);
        let mut hub = h0;
        let mut prev_a: Option<VertexId> = None;
        let mut chords = Vec::new();
        let mut count = 0u32;
        for _ in 0..links {
            let a = b.add_vertex(Weight::ONE);
            let bb = b.add_vertex(Weight::ONE);
            let next = b.add_vertex(Weight::ONE);
            b.add_edge(hub, a, diamond).unwrap();
            b.add_edge(hub, bb, diamond).unwrap();
            b.add_edge(a, next, diamond).unwrap();
            b.add_edge(bb, next, diamond).unwrap();
            count += 4;
            if let Some(pa) = prev_a {
                b.add_edge(pa, a, chordp).unwrap();
                chords.push(EdgeId(count));
                count += 1;
            }
            prev_a = Some(a);
            hub = next;
        }
        let g = b.build();
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(1000), 13);
        let mut provider = MemoProvider::new(inner, true);
        let mut tree = FTree::new(&g, VertexId(0));
        for e in g.edge_ids() {
            if g.probability(e).value() > 0.5 {
                tree.insert_edge(&g, e, &mut provider).unwrap();
            }
        }
        let base = tree.expected_flow(&g, false);
        let reps = 2000usize;
        // Warm the memo for every chord's merged shape first.
        for &e in &chords {
            let _ = tree.probe_edge(&g, e, base, false, 0.05, &mut provider);
        }

        let t = Instant::now();
        for i in 0..reps {
            let e = chords[i % chords.len()];
            let (_r, j) = tree.apply(&g, e, &mut provider).unwrap();
            tree.rollback(j);
        }
        println!(
            "apply+memo+rollback      : {:8.2} us",
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        );

        let t = Instant::now();
        for i in 0..reps {
            let e = chords[i % chords.len()];
            let _ = tree
                .probe_edge(&g, e, base, false, 0.05, &mut provider)
                .unwrap();
        }
        println!(
            "journal fused probe      : {:8.2} us",
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        );

        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += tree.expected_flow(&g, false);
        }
        println!(
            "single-lane traversal    : {:8.2} us ({acc:.0})",
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        );

        let t = Instant::now();
        let cid = tree.component_ids().next().unwrap();
        let mut acc = 0.0;
        for _ in 0..reps {
            let (p, _, _) = tree.flow_with_bounds(&g, false, cid, 0.05);
            acc += p;
        }
        println!(
            "triple-lane traversal    : {:8.2} us ({acc:.0})",
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        );

        tree.enable_flow_cache();
        let cached = tree.flow_cached_total(&g, false);
        assert_eq!(cached.to_bits(), base.to_bits());
        let t = Instant::now();
        for i in 0..reps {
            let e = chords[i % chords.len()];
            let _ = tree
                .probe_edge(&g, e, cached, false, 0.05, &mut provider)
                .unwrap();
        }
        println!(
            "incremental fused probe  : {:8.2} us",
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        );

        let t = Instant::now();
        for i in 0..reps {
            let e = chords[i % chords.len()];
            let (_r, j) = tree.apply(&g, e, &mut provider).unwrap();
            let cid = _r.component.unwrap();
            let _ = tree.rollback_capturing(j, cid);
        }
        println!(
            "apply+memo+capture       : {:8.2} us",
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        );
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
}
