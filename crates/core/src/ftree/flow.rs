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
//!   *shared* tree through the undo journal ([`FTree::apply`]) and rolls
//!   back bit-identically ([`FTree::rollback`]) — `O(touched components)`
//!   per probe instead of the historical whole-tree clone. One helper runs
//!   that apply for every caller. Before the apply builds the formed
//!   component, it offers the component's fingerprint, AV and edge sequence
//!   to a warm race lane that may already hold it, and takes that snapshot,
//!   vertex map and estimate instead of building; otherwise it builds and
//!   offers the new snapshot for an estimate (a provider, the exact memo).
//!   The rollback captures the applied state's images into the plan, so a
//!   commit replays them instead of re-running the insertion.
//!
//! Both sampled cases are scored by a [`ScoreProgram`] recorded when the
//! plan is made (in the applied state, for a structural plan): a new
//! estimate changes only the re-estimated component's own accumulator and
//! one addition per ancestor on its path to `Q`, so a score — the first, or
//! any race re-score — evaluates that program on the estimate and never
//! reads or mutates the tree. A structural probe therefore pays exactly one
//! insertion however often it is scored, and a warm one builds nothing.
//! The clone-based path and the whole-forest scorers survive only as the
//! pinned reference ([`FTree::probe_plan_cloning`]) that benchmarks and
//! equivalence tests compare against.

use std::sync::Arc;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph, LocalIdScratch};

use super::{
    CommitReplay, ComponentId, ComponentSource, Estimated, FTree, Formed, InsertCase, Kind,
    LocalMap,
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
/// on clone, and consulted only by the drain and by score-program
/// recording.
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
    /// Per-slot subtree-flow scratch for score-program recording (never
    /// the committed state — probes must not pollute `entries`).
    sub: Vec<f64>,
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

/// `Σ reach · weight` over `cid`'s members in member order: the accumulator
/// every evaluator starts a component from.
fn member_flow(tree: &FTree, graph: &ProbabilisticGraph, cid: ComponentId) -> f64 {
    let mut acc = 0.0;
    match &tree.comp(cid).kind {
        Kind::Mono { members } => {
            for (&v, member) in members.iter() {
                acc += member.reach * graph.weight(v).value();
            }
        }
        Kind::Bi {
            estimate, local, ..
        } => {
            for &(v, l) in local.iter() {
                acc += estimate.reach(l as usize) * graph.weight(v).value();
            }
        }
    }
    acc
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
            member_flow(tree, graph, cid)
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

/// What a sampled probe's score needs that its estimate cannot change,
/// recorded once when the plan is made.
///
/// Flow is a bottom-up sum over components (Theorem 2 + Lemma 1), so a new
/// estimate for the re-estimated component `c` changes `c`'s own
/// accumulator and, through it, one addition per ancestor on `c`'s path to
/// `Q`; everything off that path is a scalar the program records.
/// [`ScoreProgram::eval`] runs the floating-point operations the
/// whole-forest triple traversal runs for `c`, its ancestors and the
/// roots, in the same order on the same operands, so its `(point, lower,
/// upper)` flows are bit-identical to that traversal's.
#[derive(Debug)]
struct ScoreProgram {
    /// `c`'s accumulator terms, each added as `reach · factor`: its members
    /// in member order as `(index into the estimate, weight)`, then its
    /// children in child order as `(index of the child's AV, child subtree
    /// flow)`.
    terms: Vec<(u32, f64)>,
    /// `c`'s ancestors, innermost first.
    ancestors: Vec<AncestorStep>,
    /// What is added after the path's value, in order: each ancestor's
    /// products `reach · subtree flow` of the children after its path
    /// child, then the subtree flows of the roots after the path's root.
    tail: Vec<f64>,
    /// The sum of the roots before the one on `c`'s path, started from `0`
    /// and from `W(Q)` (indexed by `include_query`).
    prefix: [f64; 2],
}

/// One ancestor's share of a [`ScoreProgram`].
#[derive(Debug, Clone, Copy)]
struct AncestorStep {
    /// The ancestor's accumulator before its path child is added.
    pre: f64,
    /// The path child's AV reach within the ancestor.
    reach: f64,
    /// How many entries of [`ScoreProgram::tail`] follow the path child.
    later: u32,
}

impl ScoreProgram {
    /// `(point, lower, upper)` flow with `c` at `estimate`'s point
    /// estimate and its `1 − α` bounds.
    fn eval(
        &self,
        estimate: &ComponentEstimate,
        alpha: f64,
        include_query: bool,
    ) -> (f64, f64, f64) {
        let reach3 = |l: u32| {
            let ci = estimate.interval(l as usize, alpha);
            [estimate.reach(l as usize), ci.lower, ci.upper]
        };
        let mut acc = [0.0f64; 3];
        for &(l, x) in &self.terms {
            for (a, r) in acc.iter_mut().zip(reach3(l)) {
                *a += r * x;
            }
        }
        let mut tail = self.tail.iter();
        for step in &self.ancestors {
            for a in &mut acc {
                *a = step.pre + step.reach * *a;
            }
            for &p in tail.by_ref().take(step.later as usize) {
                for a in &mut acc {
                    *a += p;
                }
            }
        }
        let mut total = [self.prefix[include_query as usize]; 3];
        for (t, a) in total.iter_mut().zip(acc) {
            *t += a;
        }
        for &s in tail {
            for t in &mut total {
                *t += s;
            }
        }
        (total[0], total[1], total[2])
    }
}

/// The scalar flows a [`ScoreProgram`] records for components off the
/// re-estimated component's path. With a flow cache, an unmarked component
/// is served its cached subtree flow, a marked one is re-aggregated into
/// the `sub` scratch, and an ancestor-dirty one resumes from its cached
/// member sum — the drain's rules, one lane. Without a cache, every
/// component is re-aggregated.
struct Aggregator<'a> {
    tree: &'a FTree,
    graph: &'a ProbabilisticGraph,
    cache: Option<&'a FlowCache>,
    sub: &'a mut Vec<f64>,
    stack: &'a mut Vec<(u32, bool)>,
}

impl Aggregator<'_> {
    /// Whether `c` must be re-aggregated rather than served from the cache.
    fn stale(&self, c: ComponentId) -> bool {
        self.cache.is_none_or(|k| k.marked(c.index()))
    }

    fn cached_sub(&self, c: ComponentId) -> f64 {
        self.cache
            .and_then(|k| k.entries.get(c.index()).copied().flatten())
            .expect("a clean component has a cache entry")
            .sub
    }

    /// The accumulator after `c`'s member loop.
    fn member_sum(&self, c: ComponentId) -> f64 {
        let cached = self
            .cache
            .filter(|k| !k.member_dirty(c.index()))
            .and_then(|k| k.entries.get(c.index()).copied().flatten());
        match cached {
            Some(entry) => entry.member_sum,
            None => member_flow(self.tree, self.graph, c),
        }
    }

    /// The subtree flow of `root`, a component off the path.
    fn subtree(&mut self, root: ComponentId) -> f64 {
        if !self.stale(root) {
            return self.cached_sub(root);
        }
        let tree = self.tree;
        self.stack.clear();
        self.stack.push((root.0, false));
        while let Some((slot, exit)) = self.stack.pop() {
            let cid = ComponentId(slot);
            let comp = tree.comp(cid);
            if !exit {
                self.stack.push((slot, true));
                for &ch in &comp.children {
                    if self.stale(ch) {
                        self.stack.push((ch.0, false));
                    }
                }
                continue;
            }
            let mut acc = self.member_sum(cid);
            for &ch in &comp.children {
                let s = if self.stale(ch) {
                    self.sub[ch.index()]
                } else {
                    self.cached_sub(ch)
                };
                acc += tree.reach_in(cid, tree.comp(ch).articulation) * s;
            }
            self.sub[slot as usize] = acc;
        }
        self.sub[root.index()]
    }

    /// Records the program of bi component `cid`, whose members and child
    /// AVs index the estimate through `local`.
    fn program(&mut self, cid: ComponentId, local: &LocalMap) -> ScoreProgram {
        let (tree, graph) = (self.tree, self.graph);
        let comp = tree.comp(cid);
        let mut terms = Vec::with_capacity(local.len() + comp.children.len());
        terms.extend(local.iter().map(|&(v, l)| (l, graph.weight(v).value())));
        for &ch in &comp.children {
            terms.push((local[&tree.comp(ch).articulation], self.subtree(ch)));
        }
        let mut ancestors = Vec::new();
        let mut tail = Vec::new();
        let (mut below, mut up) = (cid, comp.parent);
        while let Some(a) = up {
            let node = tree.comp(a);
            let mut pre = self.member_sum(a);
            let mut rest = node.children.iter();
            for &ch in rest.by_ref() {
                if ch == below {
                    break;
                }
                pre += tree.reach_in(a, tree.comp(ch).articulation) * self.subtree(ch);
            }
            let before = tail.len();
            for &ch in rest {
                tail.push(tree.reach_in(a, tree.comp(ch).articulation) * self.subtree(ch));
            }
            ancestors.push(AncestorStep {
                pre,
                reach: tree.reach_in(a, tree.comp(below).articulation),
                later: (tail.len() - before) as u32,
            });
            below = a;
            up = node.parent;
        }
        let mut prefix = [0.0, graph.weight(tree.query).value()];
        let mut roots = tree.roots.iter();
        for &r in roots.by_ref() {
            if r == below {
                break;
            }
            let s = self.subtree(r);
            for p in &mut prefix {
                *p += s;
            }
        }
        for &r in roots {
            tail.push(self.subtree(r));
        }
        ScoreProgram {
            terms,
            ancestors,
            tail,
            prefix,
        }
    }
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
/// A journal-engine plan holds the score program recorded when it was
/// made, and a structural one also the redo images its planning apply
/// captured. Scoring evaluates the program and touches no tree; the plan
/// keeps the latest estimate for its images. The plan is only valid while
/// the tree it was created from is unchanged (the invariant every
/// selection iteration already maintains).
#[derive(Debug)]
pub struct SampledProbe {
    snapshot: Arc<ComponentGraph>,
    cost_edges: usize,
    case: InsertCase,
    kind: SampledKind,
}

#[allow(clippy::large_enum_variant)] // The plan is boxed already, and the
// small variants serve only the reference engine.
#[derive(Debug)]
enum SampledKind {
    /// The journal engine (cases IIIa, IIIb and IV): the recorded program,
    /// the snapshot's vertex map, and for a structural plan the applied
    /// state's images (`None` once a probe record took them for its
    /// commit) with the estimate of the latest score, which they lack.
    Recorded {
        program: ScoreProgram,
        local: Arc<LocalMap>,
        images: Option<CommitReplay>,
        latest: Option<ComponentEstimate>,
    },
    /// Case IIIa, the pinned reference: a whole-forest traversal of the
    /// original tree with the estimate overriding the stored one.
    InBiReference { cid: ComponentId },
    /// Cases IIIb/IV, the pinned clone-based reference: the probe's tree
    /// clone with the candidate inserted and the estimate still pending
    /// (boxed: the other variants carry no tree).
    StructuralCloned { tree: Box<FTree>, cid: ComponentId },
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

    /// The snapshot's vertex → local-index map: the one a journal-engine
    /// plan recorded its program with, built here for the others.
    pub(crate) fn local_map(&self) -> Arc<LocalMap> {
        match &self.kind {
            SampledKind::Recorded { local, .. } => Arc::clone(local),
            _ => Arc::new(LocalMap::from_snapshot(self.snapshot.vertices())),
        }
    }

    /// `cost(e)` of §6.4: the number of edges the estimate must sample.
    pub fn sampling_cost_edges(&self) -> usize {
        self.cost_edges
    }

    /// The structural case the insertion would take.
    pub fn case(&self) -> InsertCase {
        self.case
    }

    /// The redo images of a journal structural plan, holding the estimate
    /// of its latest score: the selection loop commits the candidate by
    /// replaying them instead of re-running the insertion. `None` for
    /// other plans, and after the first call.
    pub(crate) fn take_replay(&mut self) -> Option<CommitReplay> {
        let SampledKind::Recorded { images, latest, .. } = &mut self.kind else {
            return None;
        };
        let mut replay = images.take()?;
        if let Some(estimate) = latest.take() {
            replay.set_estimate(estimate);
        }
        Some(replay)
    }

    /// Scores the probe under `estimate`: the flow the tree would have with
    /// the candidate inserted, plus the candidate-specific `1 − α` bounds.
    ///
    /// Callable repeatedly — racing rounds re-score with growing-budget
    /// estimates; only the latest call's estimate is retained. `tree` must
    /// be the tree the plan was created from, **unchanged since**; only a
    /// reference-engine case-IIIa plan reads it, and no plan writes it.
    pub fn score(
        &mut self,
        tree: &FTree,
        graph: &ProbabilisticGraph,
        include_query: bool,
        alpha: f64,
        estimate: ComponentEstimate,
    ) -> ProbeOutcome {
        let (flow, lower, upper) = match &mut self.kind {
            SampledKind::Recorded {
                program,
                images,
                latest,
                ..
            } => {
                let bounds = program.eval(&estimate, alpha, include_query);
                if images.is_some() {
                    *latest = Some(estimate);
                }
                bounds
            }
            SampledKind::InBiReference { cid } => tree.flow_with_override_bounds(
                graph,
                include_query,
                *cid,
                &self.snapshot,
                &estimate,
                alpha,
            ),
            SampledKind::StructuralCloned { tree: clone, cid } => {
                clone.set_bi_estimate(*cid, estimate);
                clone.flow_with_bounds(graph, include_query, *cid, alpha)
            }
        };
        ProbeOutcome {
            flow,
            lower,
            upper,
            case: self.case,
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

/// Scoring with a structural probe's own apply: `at_hand` is offered the
/// formed component before it is built, then its built snapshot, and when
/// either answers the candidate is scored as soon as its program is
/// recorded, instead of by a later [`SampledProbe::score`].
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
    /// is a pure function of the stored counts — but three times cheaper.
    /// This is how the clone-based reference engine scores a structural
    /// probe, and what a [`ScoreProgram`] is held bit-identical to.
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
        let order = LocalMap::from_snapshot(snapshot.vertices());
        self.flow_forest_triple(graph, include_query, &|c, v| {
            let comp = self.comp(c);
            if v == comp.articulation {
                return (1.0, 1.0, 1.0);
            }
            if c != cid {
                let r = self.reach_in(c, v);
                return (r, r, r);
            }
            let local = order[&v] as usize;
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
    /// cached, recorded and fresh results bitwise comparable.
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
    /// [`FTree::cache_mark_dirty`]. Probes record their score programs
    /// `O(touched)` from it without ever writing committed entries.
    pub(crate) fn enable_flow_cache(&mut self) {
        let mut cache = Box::<FlowCache>::default();
        cache.dirty.extend(self.component_ids().map(|c| c.0));
        self.flow_cache = Some(cache);
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
                let kind = if matches!(mode, PlanMode::Cloning) {
                    SampledKind::InBiReference { cid }
                } else {
                    let local = Arc::new(LocalMap::from_snapshot(snapshot.vertices()));
                    SampledKind::Recorded {
                        program: self.record_program(graph, cid, &local, [cid.0].into_iter()),
                        local,
                        images: None,
                        latest: None,
                    }
                };
                let plan = SampledProbe {
                    snapshot: Arc::new(snapshot),
                    cost_edges: probe_edges.len(),
                    case: InsertCase::CycleInBi,
                    kind,
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
                        case: report.case,
                        kind: SampledKind::StructuralCloned {
                            tree: Box::new(clone),
                            cid,
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
    /// otherwise building it with the estimate deferred. The plan's
    /// [`ScoreProgram`] is recorded in the applied state; the rollback then
    /// restores the tree bit-identically and captures the applied state's
    /// images into the returned plan, for a commit to replay. When `score`
    /// served the component, or holds an estimate for the new snapshot, the
    /// candidate is scored here as well.
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
            snapshot,
            local,
            estimate,
            ..
        } = &self.comp(cid).kind
        else {
            unreachable!("cycle insertions always produce a bi component")
        };
        let (snapshot, local) = (Arc::clone(snapshot), Arc::clone(local));
        let served = served.then(|| Arc::clone(estimate));
        let program = self.record_program(graph, cid, &local, journal.touched_slot_ids());
        let images = self.rollback_capturing(journal, cid);
        let mut latest = None;
        let outcome = score.and_then(
            |InApplyScore {
                 include_query,
                 alpha,
                 at_hand,
             }| {
                let (flow, lower, upper) = match served {
                    Some(estimate) => program.eval(&estimate, alpha, include_query),
                    None => {
                        let estimate = at_hand.estimate(&snapshot)?;
                        let bounds = program.eval(&estimate, alpha, include_query);
                        latest = Some(estimate);
                        bounds
                    }
                };
                Some(ProbeOutcome {
                    flow,
                    lower,
                    upper,
                    case: report.case,
                    sampling_cost_edges: report.sampled_edge_count,
                })
            },
        );
        let plan = SampledProbe {
            snapshot,
            cost_edges: report.sampled_edge_count,
            case: report.case,
            kind: SampledKind::Recorded {
                program,
                local,
                images: Some(images),
                latest,
            },
        };
        (plan, outcome)
    }

    /// Records the [`ScoreProgram`] of bi component `cid`, whose members
    /// and child AVs index the estimate through `local`: the component's
    /// own map in a structural probe's applied state, the probe snapshot's
    /// for a case-IIIa plan. `seeds` are the slots whose members changed
    /// since the flow cache's last drain (the journal's touched slots, or
    /// `cid` alone); the program is then recorded `O(touched)` from the
    /// cache. Without a cache, it is one whole-forest traversal.
    fn record_program(
        &mut self,
        graph: &ProbabilisticGraph,
        cid: ComponentId,
        local: &LocalMap,
        seeds: impl Iterator<Item = u32>,
    ) -> ScoreProgram {
        let mut cache = self.flow_cache.take();
        let (mut sub, mut stack) = match cache.as_deref_mut() {
            Some(k) => {
                debug_assert!(
                    k.dirty.is_empty(),
                    "probe evaluation requires a drained flow cache"
                );
                let mut marks = std::mem::take(&mut k.seeds);
                marks.clear();
                marks.extend(seeds);
                mark_touched(self, k, &marks);
                k.seeds = marks;
                (std::mem::take(&mut k.sub), std::mem::take(&mut k.stack))
            }
            None => {
                #[cfg(debug_assertions)]
                FTree::note_full_flow_eval();
                (Vec::new(), Vec::new())
            }
        };
        if sub.len() < self.arena.len() {
            sub.resize(self.arena.len(), 0.0);
        }
        let program = Aggregator {
            tree: self,
            graph,
            cache: cache.as_deref(),
            sub: &mut sub,
            stack: &mut stack,
        }
        .program(cid, local);
        if let Some(k) = cache.as_deref_mut() {
            k.sub = sub;
            k.stack = stack;
        }
        self.flow_cache = cache;
        program
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
                    "probe flow of {cand:?} before e{e}: {} vs {}",
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

    /// Scoring a journal structural plan evaluates its recorded program:
    /// two scores at two estimates insert nothing, leave the tree equal to
    /// a clone taken before the plan, and equal the clone-based reference's
    /// scores bit for bit. The images the plan hands out carry the last
    /// score's estimate, so their replay equals the reference's insertion.
    #[test]
    fn structural_scores_evaluate_the_program_without_inserting() {
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
                let a = plan.score(&tree, &g, false, 0.01, estimate.clone());
                let b = cloned.score(&reference, &g, false, 0.01, estimate);
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
            let replay = plan.take_replay().expect("the plan keeps its images");
            let SampledKind::StructuralCloned { tree: inserted, .. } = &cloned.kind else {
                panic!("the reference plan holds its inserted clone");
            };
            let mut committed = before.clone();
            committed.commit_replay(replay);
            assert!(
                committed == **inserted,
                "the replay commits the last score's estimate"
            );
        }
    }

    mod memo_props {
        use super::*;
        use proptest::prelude::*;

        /// A spanning tree over `n` vertices (vertex `i + 1` hangs off
        /// `parents[i] % (i + 1)`) plus chords, with random probabilities.
        pub(super) fn build(
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

    mod rescore_props {
        use super::memo_props::build;
        use super::*;
        use crate::estimator::EstimateProvider;
        use proptest::prelude::*;

        /// Answers every estimate with one fixed estimate.
        struct Fixed(ComponentEstimate);

        impl EstimateProvider for Fixed {
            fn estimate(&mut self, _: &ComponentGraph) -> ComponentEstimate {
                self.0.clone()
            }
        }

        /// A sampled estimate of `snapshot` over `samples` worlds, with
        /// success counts drawn from `draws`.
        fn sampled(snapshot: &ComponentGraph, samples: u32, draws: &[u32]) -> ComponentEstimate {
            let successes = (0..snapshot.vertex_count())
                .map(|i| {
                    if i == 0 {
                        samples
                    } else {
                        draws[i % draws.len()] % (samples + 1)
                    }
                })
                .collect();
            ComponentEstimate::from_success_counts(successes, samples)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Over random graphs and commit orders, every journal plan of
            /// case IIIa, IIIb or IV scores bit-identically to the
            /// clone-based reference at three estimates (exact and two
            /// sampled), every score leaves the tree as it was, and a
            /// structural plan's replay after its re-scores commits the
            /// tree `insert_edge` builds with the last estimate.
            #[test]
            fn rescores_match_the_reference_and_replay_the_last_estimate(
                (n, parents, chords, probs, order, draws) in (
                    3usize..9,
                    proptest::collection::vec(0usize..64, 8),
                    proptest::collection::vec((0usize..9, 0usize..9), 0..6),
                    proptest::collection::vec(0.05f64..=1.0, 14),
                    proptest::collection::vec(0usize..64, 14),
                    proptest::collection::vec(0u32..1000, 2..9),
                )
            ) {
                let g = build(n, &parents[..n - 1], &chords, &probs);
                let mut tree = FTree::new(&g, VertexId(0));
                tree.enable_flow_cache();
                for pick in order {
                    let base = tree.flow_cached_total(&g, false);
                    let cands = insertable(&g, &tree);
                    if cands.is_empty() {
                        break;
                    }
                    for &e in &cands {
                        let before = tree.clone();
                        let ProbePlan::Sampled(mut plan) = tree.probe_plan(&g, e, base).unwrap()
                        else {
                            continue;
                        };
                        let ProbePlan::Sampled(mut reference) =
                            tree.probe_plan_cloning(&g, e, base).unwrap()
                        else {
                            panic!("both engines classify {e:?} alike");
                        };
                        let snapshot = plan.snapshot();
                        let estimates = [
                            snapshot.exact_reachability(DEFAULT_ENUMERATION_CAP).unwrap(),
                            sampled(snapshot, 64, &draws),
                            sampled(snapshot, 1000, &draws[1..]),
                        ];
                        let last = estimates[2].clone();
                        for estimate in estimates {
                            let a = plan.score(&tree, &g, false, 0.01, estimate.clone());
                            let b = reference.score(&tree, &g, false, 0.01, estimate);
                            prop_assert_eq!(a.case, b.case);
                            prop_assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "flow of {:?}", e);
                            prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits());
                            prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits());
                            prop_assert!(tree == before, "scoring {:?} changed the tree", e);
                        }
                        match plan.take_replay() {
                            Some(replay) => {
                                let mut replayed = before.clone();
                                replayed.commit_replay(replay);
                                let mut inserted = before.clone();
                                inserted.insert_edge(&g, e, &mut Fixed(last)).unwrap();
                                prop_assert!(replayed == inserted, "replay of {:?}", e);
                            }
                            None => prop_assert_eq!(plan.case(), InsertCase::CycleInBi),
                        }
                    }
                    commit(&mut tree, &g, cands[pick % cands.len()]);
                }
            }
        }
    }
}
