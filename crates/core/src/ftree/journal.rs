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

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};

use super::{Component, ComponentId, ComponentSource, Estimated, FTree, InsertReport};
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
    use crate::ftree::{InsertCase, Kind};
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
    /// The rollback replays the writes newest-first, so each vertex lands
    /// on its original owner; a later commit through `apply` then builds
    /// exactly the tree `insert_edge` does.
    #[test]
    fn rollback_of_doubly_written_vertices_restores_their_owners() {
        let g = graph();
        let mut pr = provider();
        let mut tree = FTree::new(&g, VertexId(0));
        for e in [0u32, 1, 2, 3] {
            tree.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let before = tree.clone();
        // Chord 1-3 closes a cycle across the bi {1, 2} and its mono child {3}.
        let (report, journal) = tree.apply(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(report.case, InsertCase::CycleAcross);
        for v in 1..=3 {
            let writes = journal
                .assignments
                .iter()
                .filter(|&&(w, _)| w == VertexId(v))
                .count();
            assert_eq!(writes, 2, "v{v} absorbed, then re-assigned");
        }
        tree.rollback(journal);
        assert_eq!(tree, before, "rollback must restore bit-identically");
        let (_, journal) = tree.apply(&g, EdgeId(4), &mut pr).unwrap();
        drop(journal);
        let mut reference = before;
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
}
