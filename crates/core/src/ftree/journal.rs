//! The F-tree undo journal: clone-free structural mutation.
//!
//! Structural candidate probes (cases IIIb/IV of §5.4) need to know the
//! flow the tree *would* have after an insertion. The historical
//! implementation cloned the entire tree per candidate — `O(|tree|)` per
//! probe, the dominant cost of structure-heavy greedy iterations. The
//! journal replaces that with mutate-in-place + undo:
//!
//! * [`FTree::apply`] runs a real insertion while recording every arena
//!   mutation it performs — component slot writes (first-touch snapshots),
//!   allocations and frees, vertex re-assignments, the root list, the
//!   free list and the version counter;
//! * [`FTree::rollback`] replays the journal, restoring the tree
//!   **bit-identically**: structure, cached estimates, local-id maps,
//!   arena slot order, free-list order and version numbers all come back
//!   exactly, so a later commit of any edge produces the same tree (and
//!   the same component versions) as if the probe had never happened.
//!
//! Cost is proportional to the components the insertion actually touches —
//! for typical probes a handful of slots — instead of the whole tree.
//! Dropping a journal commits the applied insertion (nothing to undo), so
//! a selection loop can keep the winning candidate's insertion without
//! re-running it.
//!
//! Recording hooks live on the low-level mutators ([`FTree::comp_mut`],
//! `alloc`, `dealloc`, `set_assignment`, `take_component`), so every
//! insertion path — leaf attachment, `splitTree`, chain absorption — is
//! journalled without case-specific code.

use std::sync::Arc;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph};

use super::{Component, ComponentId, ComponentSource, Estimated, FTree, InsertReport, Kind};
use crate::error::CoreError;
use crate::estimator::EstimateProvider;

/// The undo record of one [`FTree::apply`] — consume it with
/// [`FTree::rollback`] to restore the pre-apply tree bit-identically, or
/// drop it to keep the insertion.
#[derive(Debug)]
pub struct Journal {
    /// The edge the apply inserted (removed again on rollback).
    edge: EdgeId,
    /// Arena length before the apply; slots at or beyond it are truncated.
    arena_len: usize,
    /// Free-list snapshot (order matters: `alloc` pops it, so restoring
    /// the exact order keeps later slot assignment deterministic).
    free: Vec<u32>,
    /// Root-list snapshot.
    roots: Vec<ComponentId>,
    /// Version counter before the apply.
    version_counter: u64,
    /// First-touch snapshots of every arena slot the apply wrote.
    slots: Vec<(u32, Option<Component>)>,
    /// Every vertex-assignment write `(vertex, previous owner)`, replayed
    /// in reverse on rollback.
    assignments: Vec<(VertexId, Option<ComponentId>)>,
}

impl Journal {
    /// The edge whose insertion this journal records.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// Number of arena slots the insertion touched (the probe's structural
    /// cost — what a clone-based probe would have paid per *tree* slot).
    pub fn touched_slots(&self) -> usize {
        self.slots.len()
    }

    /// The arena slot ids the insertion touched (first-touch order) — the
    /// seed set for `O(touched)` incremental flow evaluation.
    pub(crate) fn touched_slot_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().map(|&(s, _)| s)
    }
}

/// The *redo* record of one probed insertion: the post-apply images
/// [`FTree::rollback_capturing`] collects on the way out. The selection
/// loop commits a winning structural candidate by handing this back to
/// [`FTree::commit_replay`], which re-applies the recorded mutations —
/// estimates included — without re-running `insert_edge` (and therefore
/// without re-estimating or re-sampling anything). A structural probe plan
/// keeps its replay while its recorded score program re-scores it, and
/// writes the estimate of its latest score into the formed component's
/// image ([`CommitReplay::set_estimate`]) before handing it out.
///
/// A replay is only valid on the exact tree state it was captured from;
/// `commit_replay` debug-asserts the version counter and arena length to
/// catch misuse.
#[derive(Debug)]
pub(crate) struct CommitReplay {
    /// The candidate edge the probe applied.
    edge: EdgeId,
    /// The bi component the insertion formed.
    component: ComponentId,
    /// Tree state fingerprints at capture time (pre-apply side).
    pre_version_counter: u64,
    pre_arena_len: usize,
    /// Post-apply images: arena length, free list, roots, version counter,
    /// touched slots and vertex assignments as the applied tree had them.
    arena_len: usize,
    free: Vec<u32>,
    roots: Vec<ComponentId>,
    version_counter: u64,
    slots: Vec<(u32, Option<Component>)>,
    assignments: Vec<(VertexId, Option<ComponentId>)>,
}

impl CommitReplay {
    /// The edge the replay would insert.
    pub(crate) fn edge(&self) -> EdgeId {
        self.edge
    }

    /// The component snapshot of the bi component the insertion forms, as
    /// it will exist after the replay. A memoized estimate for this
    /// snapshot is what licenses a replay-based commit (the reference
    /// engine's re-insertion would hit the memo rather than sample).
    pub(crate) fn snapshot(&self) -> &ComponentGraph {
        let (_, post) = self
            .slots
            .iter()
            .find(|&&(s, _)| s == self.component.0)
            .expect("replay records the formed component's slot");
        let comp = post
            .as_ref()
            .expect("the formed component is live in the post-image");
        let Kind::Bi { snapshot, .. } = &comp.kind else {
            panic!("structural insertions form a bi component")
        };
        snapshot
    }

    /// Replaces the formed component's estimate in its image: the replay
    /// then commits the estimate a plan's latest score used.
    pub(crate) fn set_estimate(&mut self, estimate: ComponentEstimate) {
        let component = self.component.0;
        let image = self
            .slots
            .iter_mut()
            .find_map(|(s, post)| (*s == component).then_some(post.as_mut()))
            .flatten()
            .expect("replay records the formed component's live image");
        let Kind::Bi {
            estimate: stored, ..
        } = &mut image.kind
        else {
            panic!("structural insertions form a bi component")
        };
        *stored = Arc::new(estimate);
    }
}

/// The in-flight recording state during an [`FTree::apply`]. Stored on the
/// tree so the low-level mutators can record without threading a parameter
/// through every insertion helper.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    arena_len: usize,
    free: Vec<u32>,
    roots: Vec<ComponentId>,
    version_counter: u64,
    slots: Vec<(u32, Option<Component>)>,
    assignments: Vec<(VertexId, Option<ComponentId>)>,
}

impl Recorder {
    fn begin(tree: &FTree) -> Recorder {
        Recorder {
            arena_len: tree.arena.len(),
            free: tree.free.clone(),
            roots: tree.roots.clone(),
            version_counter: tree.version_counter,
            slots: Vec::new(),
            assignments: Vec::new(),
        }
    }

    /// Whether `slot` already has a first-touch snapshot.
    fn touched(&self, slot: u32) -> bool {
        self.slots.iter().any(|&(s, _)| s == slot)
    }
}

impl FTree {
    /// Inserts `e` exactly like [`FTree::insert_edge`], additionally
    /// returning a [`Journal`] that [`FTree::rollback`] can consume to
    /// restore the tree bit-identically. Dropping the journal keeps the
    /// insertion.
    ///
    /// # Errors
    ///
    /// The same as [`FTree::insert_edge`]; on error the tree is untouched
    /// (both error cases are detected before any mutation).
    pub fn apply(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        provider: &mut dyn EstimateProvider,
    ) -> Result<(InsertReport, Journal), CoreError> {
        self.apply_from(graph, e, &mut Estimated(provider))
    }

    /// [`FTree::apply`] with the formed or grown bi component taken from
    /// `source`.
    pub(crate) fn apply_from(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        source: &mut dyn ComponentSource,
    ) -> Result<(InsertReport, Journal), CoreError> {
        debug_assert!(self.recorder.is_none(), "apply calls must not nest");
        self.recorder = Some(Box::new(Recorder::begin(self)));
        let result = self.insert_edge_from(graph, e, source);
        let rec = *self.recorder.take().expect("recorder installed above");
        match result {
            Ok(report) => Ok((
                report,
                Journal {
                    edge: e,
                    arena_len: rec.arena_len,
                    free: rec.free,
                    roots: rec.roots,
                    version_counter: rec.version_counter,
                    slots: rec.slots,
                    assignments: rec.assignments,
                },
            )),
            Err(err) => {
                debug_assert!(
                    rec.slots.is_empty() && rec.assignments.is_empty(),
                    "insert_edge rejects invalid edges before mutating"
                );
                Err(err)
            }
        }
    }

    /// Undoes the insertion recorded by `journal`, restoring the tree to
    /// its exact pre-[`apply`](FTree::apply) state — structure, member
    /// maps, snapshots, estimates, versions, arena layout and free-list
    /// order included.
    ///
    /// Journals must be rolled back in reverse apply order; the common
    /// probe pattern (apply → score → rollback, one candidate at a time)
    /// satisfies this trivially.
    pub fn rollback(&mut self, journal: Journal) {
        debug_assert!(self.recorder.is_none(), "cannot rollback mid-apply");
        let removed = self.selected.remove(journal.edge);
        debug_assert!(removed, "journalled edge must still be selected");
        // Assignment writes are replayed newest-first so a vertex that
        // moved twice (e.g. absorbed then re-assigned) lands on its
        // original owner.
        for (v, owner) in journal.assignments.into_iter().rev() {
            self.assignment[v.index()] = owner;
        }
        // First-touch slot snapshots restore in any order (each slot
        // appears once); slots past the old arena length are dropped by
        // the truncate below.
        for (slot, saved) in journal.slots {
            if (slot as usize) < journal.arena_len {
                self.arena[slot as usize] = saved;
            }
        }
        self.arena.truncate(journal.arena_len);
        self.free = journal.free;
        self.roots = journal.roots;
        self.version_counter = journal.version_counter;
    }

    /// [`rollback`](FTree::rollback) that captures the applied state's
    /// images on the way out, as a [`CommitReplay`] for `component` (the bi
    /// component the insertion formed). Restoration is bit-identical to a
    /// plain rollback; the only extra cost is moving the post-images out of
    /// the arena instead of overwriting them, linear in the journal.
    pub(crate) fn rollback_capturing(
        &mut self,
        journal: Journal,
        component: ComponentId,
    ) -> CommitReplay {
        debug_assert!(self.recorder.is_none(), "cannot rollback mid-apply");
        let removed = self.selected.remove(journal.edge);
        debug_assert!(removed, "journalled edge must still be selected");
        let Journal {
            edge,
            arena_len,
            free,
            roots,
            version_counter,
            slots,
            assignments,
        } = journal;
        let post_arena_len = self.arena.len();
        let post_free = std::mem::replace(&mut self.free, free);
        let post_roots = std::mem::replace(&mut self.roots, roots);
        let post_version_counter = self.version_counter;
        self.version_counter = version_counter;
        // Post-assignment of a vertex = its current value. A vertex written
        // twice (absorbed, then re-assigned) is captured twice with the same
        // final owner, which `commit_replay` writes idempotently.
        let post_assignments: Vec<(VertexId, Option<ComponentId>)> = assignments
            .iter()
            .map(|&(v, _)| (v, self.assignment[v.index()]))
            .collect();
        for (v, owner) in assignments.into_iter().rev() {
            self.assignment[v.index()] = owner;
        }
        let mut post_slots: Vec<(u32, Option<Component>)> = Vec::with_capacity(slots.len());
        for (slot, saved) in slots {
            let idx = slot as usize;
            let post = if idx < arena_len {
                std::mem::replace(&mut self.arena[idx], saved)
            } else {
                self.arena[idx].take()
            };
            post_slots.push((slot, post));
        }
        self.arena.truncate(arena_len);
        CommitReplay {
            edge,
            component,
            pre_version_counter: version_counter,
            pre_arena_len: arena_len,
            arena_len: post_arena_len,
            free: post_free,
            roots: post_roots,
            version_counter: post_version_counter,
            slots: post_slots,
            assignments: post_assignments,
        }
    }

    /// Commits a probed insertion by re-applying its captured post-images —
    /// the `O(touched)` commit path of the incremental engine. The tree
    /// ends bit-identical to re-running `insert_edge` with the same
    /// estimates, but nothing is re-classified, re-built or re-sampled; the
    /// touched slots are queued on the flow cache for the next drain.
    pub(crate) fn commit_replay(&mut self, replay: CommitReplay) {
        debug_assert!(self.recorder.is_none(), "cannot commit mid-apply");
        debug_assert_eq!(
            self.version_counter, replay.pre_version_counter,
            "replay requires the exact tree it was captured from"
        );
        debug_assert_eq!(
            self.arena.len(),
            replay.pre_arena_len,
            "replay requires the exact tree it was captured from"
        );
        let CommitReplay {
            edge,
            component: _,
            pre_version_counter: _,
            pre_arena_len: _,
            arena_len,
            free,
            roots,
            version_counter,
            slots,
            assignments,
        } = replay;
        if self.arena.len() < arena_len {
            self.arena.resize_with(arena_len, || None);
        }
        let touched: Vec<u32> = slots.iter().map(|&(s, _)| s).collect();
        for (slot, post) in slots {
            self.arena[slot as usize] = post;
        }
        for (v, owner) in assignments {
            self.assignment[v.index()] = owner;
        }
        self.free = free;
        self.roots = roots;
        self.version_counter = version_counter;
        let inserted = self.selected.insert(edge);
        debug_assert!(inserted, "replayed edge must not already be selected");
        self.cache_mark_dirty(touched);
    }

    /// Records the first-touch snapshot of `slot` if an apply is running.
    /// Every mutation of an existing component must pass through here (the
    /// [`FTree::comp_mut`] accessor does it for all of them).
    #[inline]
    pub(crate) fn record_slot_touch(&mut self, slot: u32) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        if rec.touched(slot) {
            return;
        }
        let saved = self.arena[slot as usize].clone();
        rec.slots.push((slot, saved));
    }

    /// Records an allocation into `slot` (its prior state is `None`: a
    /// free-listed hole or a fresh push past the old arena end).
    #[inline]
    pub(crate) fn record_alloc(&mut self, slot: u32) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        if !rec.touched(slot) {
            rec.slots.push((slot, None));
        }
    }

    /// The single write path for vertex ownership, journalled.
    #[inline]
    pub(crate) fn set_assignment(&mut self, v: VertexId, owner: Option<ComponentId>) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.assignments.push((v, self.assignment[v.index()]));
        }
        self.assignment[v.index()] = owner;
    }

    /// Moves a live component out of the arena (freeing its slot), with
    /// journalling — the take-variant of [`FTree::dealloc`] used when the
    /// caller consumes the component (chain absorption).
    pub(crate) fn take_component(&mut self, cid: ComponentId) -> Component {
        self.record_slot_touch(cid.0);
        let comp = self.arena[cid.index()].take().expect("live component");
        self.free.push(cid.0);
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, SamplingProvider};
    use crate::ftree::InsertCase;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn provider() -> SamplingProvider {
        SamplingProvider::new(EstimatorConfig::exact(), 3)
    }

    /// Diamond + tail: Q(0)-1, 1-2, 0-2 (cycle), 2-3 (tail), 1-3 (chord).
    fn graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p).unwrap();
        b.add_edge(VertexId(1), VertexId(3), p).unwrap();
        b.build()
    }

    #[test]
    fn apply_rollback_restores_every_case() {
        let g = graph();
        let mut pr = provider();
        // Grow the tree edge by edge; before each commit, apply + rollback
        // every remaining insertable edge and demand exact equality.
        let mut tree = FTree::new(&g, VertexId(0));
        for commit in 0..g.edge_count() as u32 {
            for e in g.edge_ids() {
                if tree.selected_edges().contains(e) {
                    continue;
                }
                let (a, b) = g.endpoints(e);
                if !tree.contains_vertex(a) && !tree.contains_vertex(b) {
                    continue;
                }
                let before = tree.clone();
                let (report, journal) = tree.apply(&g, e, &mut pr).unwrap();
                assert_eq!(journal.edge(), e);
                assert!(tree.selected_edges().contains(e));
                let _ = report;
                tree.rollback(journal);
                assert_eq!(tree, before, "rollback must restore bit-identically");
                tree.validate(&g).unwrap();
            }
            tree.insert_edge(&g, EdgeId(commit), &mut pr).unwrap();
            tree.validate(&g).unwrap();
        }
    }

    #[test]
    fn dropped_journal_commits_the_insertion() {
        let g = graph();
        let mut pr = provider();
        let mut tree = FTree::new(&g, VertexId(0));
        let (_, journal) = tree.apply(&g, EdgeId(0), &mut pr).unwrap();
        drop(journal);
        assert_eq!(tree.edge_count(), 1);
        tree.validate(&g).unwrap();
        // And the tree equals a plain insert_edge build.
        let mut direct = FTree::new(&g, VertexId(0));
        direct.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        assert_eq!(tree, direct);
    }

    #[test]
    fn apply_errors_leave_tree_untouched() {
        let g = graph();
        let mut pr = provider();
        let mut tree = FTree::new(&g, VertexId(0));
        tree.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        let before = tree.clone();
        assert!(matches!(
            tree.apply(&g, EdgeId(0), &mut pr),
            Err(CoreError::EdgeAlreadySelected(_))
        ));
        assert!(matches!(
            tree.apply(&g, EdgeId(3), &mut pr),
            Err(CoreError::DisconnectedEdge { .. })
        ));
        assert_eq!(tree, before);
    }

    #[test]
    fn rollback_restores_free_list_order_for_deterministic_allocs() {
        // Build a tree whose insertion deallocates components (case IV
        // absorbing a chain), roll back, and check that committing the
        // same edge afterwards produces the identical arena layout.
        let g = graph();
        let mut pr = provider();
        let mut tree = FTree::new(&g, VertexId(0));
        for e in [0u32, 1, 3] {
            tree.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let mut reference = tree.clone();
        let (_, journal) = tree.apply(&g, EdgeId(2), &mut pr).unwrap();
        tree.rollback(journal);
        tree.insert_edge(&g, EdgeId(2), &mut pr).unwrap();
        reference.insert_edge(&g, EdgeId(2), &mut pr).unwrap();
        assert_eq!(tree, reference, "probe must not perturb the commit");
    }

    /// A case-IV insertion absorbing a bi component writes its vertices
    /// twice: cleared on absorption, then assigned to the new component.
    /// The redo capture keeps every write (no dedup); replaying them lands
    /// each vertex on its final owner, exactly as `insert_edge` does.
    #[test]
    fn replay_of_doubly_written_vertices_equals_insert_edge() {
        let g = graph();
        let mut pr = provider();
        let mut tree = FTree::new(&g, VertexId(0));
        for e in [0u32, 1, 2, 3] {
            tree.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let mut reference = tree.clone();
        // Chord 1-3 closes a cycle across the bi {1, 2} and its mono child {3}.
        let (report, journal) = tree.apply(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(report.case, InsertCase::CycleAcross);
        let writes = |log: &[(VertexId, Option<ComponentId>)], v: u32| {
            log.iter().filter(|&&(w, _)| w == VertexId(v)).count()
        };
        for v in 1..=3 {
            assert_eq!(
                writes(&journal.assignments, v),
                2,
                "v{v} absorbed, then re-assigned"
            );
        }
        let replay = tree.rollback_capturing(journal, report.component.unwrap());
        for v in 1..=3 {
            assert_eq!(
                writes(&replay.assignments, v),
                2,
                "the capture keeps both writes"
            );
        }
        tree.commit_replay(replay);
        reference.insert_edge(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(tree, reference);
        tree.validate(&g).unwrap();
    }

    /// An apply that only re-parents a mono component journals it by
    /// sharing its member map (a reference-count bump, not a deep copy),
    /// and the rollback still restores the tree exactly.
    #[test]
    fn reparenting_image_shares_the_mono_member_map() {
        // Q(0)-1-2 triangle with tail 2-3, leaf 0-4, then chord 4-1.
        let mut b = GraphBuilder::new();
        b.add_vertices(5, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (0, 4), (4, 1)] {
            b.add_edge(VertexId(x), VertexId(y), p).unwrap();
        }
        let g = b.build();
        let mut pr = provider();
        let mut tree = FTree::new(&g, VertexId(0));
        for e in 0..5u32 {
            tree.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let child = tree.component_of(VertexId(3)).unwrap();
        let before = tree.clone();
        let (report, journal) = tree.apply(&g, EdgeId(5), &mut pr).unwrap();
        assert_eq!(report.case, InsertCase::CycleAcross);
        assert_eq!(
            tree.comp(child).parent,
            report.component,
            "the mono child hangs off the merged bi component"
        );
        let (_, image) = journal
            .slots
            .iter()
            .find(|&&(slot, _)| slot == child.0)
            .expect("re-parenting touches the child's slot");
        let (
            Some(Component {
                kind: Kind::Mono { members: saved },
                ..
            }),
            Kind::Mono { members: live },
        ) = (image, &tree.comp(child).kind)
        else {
            panic!("the child stays mono");
        };
        assert!(
            std::sync::Arc::ptr_eq(saved, live),
            "the image must share the member map"
        );
        tree.rollback(journal);
        assert_eq!(tree, before);
        tree.validate(&g).unwrap();
    }

    /// The replay-commit golden: walking the Fig. 3 graph, every structural
    /// insertion is committed by **replaying its probe's captured journal**
    /// (apply → `rollback_capturing` → `commit_replay`) and must leave the
    /// tree `PartialEq`-identical to a reference built by `insert_edge` —
    /// including arena layout, free-list order, version counters and the
    /// cached estimates the rollback re-captured.
    #[test]
    fn commit_replay_equals_insert_edge_built_tree() {
        let g = crate::ftree::goldens::figure3_graph();
        let mut pr = provider();
        let mut replayed = FTree::new(&g, VertexId(0));
        let mut reference = FTree::new(&g, VertexId(0));
        let mut structural_commits = 0usize;
        for e in 0..19u32 {
            let e = EdgeId(e);
            let (report, journal) = replayed.apply(&g, e, &mut pr).unwrap();
            let structural = matches!(
                report.case,
                InsertCase::CycleInMono | InsertCase::CycleAcross
            );
            if structural {
                // The probe path: capture the journal's post-image while
                // rolling back, then commit by writing it back.
                let cid = report.component.expect("structural cases touch a bi");
                let replay = replayed.rollback_capturing(journal, cid);
                assert_eq!(replay.edge(), e);
                assert!(replay.snapshot().edge_count() > 0);
                replayed.commit_replay(replay);
                structural_commits += 1;
            } else {
                // Leaf/in-bi commits keep the applied journal directly.
                drop(journal);
            }
            reference.insert_edge(&g, e, &mut pr).unwrap();
            assert_eq!(replayed, reference, "trees diverged after {e:?}");
            replayed.validate(&g).unwrap();
            assert_eq!(
                replayed.expected_flow(&g, false).to_bits(),
                reference.expected_flow(&g, false).to_bits()
            );
        }
        assert!(
            structural_commits >= 2,
            "the figure 3 walk must exercise replay commits"
        );
    }
}
