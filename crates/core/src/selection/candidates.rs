//! Candidate edge maintenance for the greedy loop (§6.1).
//!
//! `candList` contains every edge of the graph that touches the connected
//! selection (so inserting it keeps the subgraph connected to `Q`) and has
//! not been selected yet. It grows as new vertices join the tree.
//!
//! The set is maintained incrementally as a sorted vector paired with a
//! membership bitmap: `contains` is one bit test, insertion and removal are
//! a binary search plus a shift, and the per-round probe pool reads the
//! already-sorted vector instead of rebuilding an ordered set. A version
//! counter increments on every mutation; together with
//! `CandidateSet::debug_validate` (debug builds only) it lets the
//! incremental selection loop
//! assert after every commit that the maintained list still equals a fresh
//! enumeration from the tree.

use flowmax_graph::{EdgeId, EdgeSubset, ProbabilisticGraph, VertexId};

#[cfg(debug_assertions)]
use crate::ftree::FTree;

/// The candidate list of §6.1, kept in deterministic (sorted) order.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidates in ascending edge-id order.
    sorted: Vec<EdgeId>,
    /// One bit per graph edge: set iff the edge is a candidate.
    bitmap: Vec<u64>,
    /// Incremented on every successful insert or remove.
    version: u64,
}

impl CandidateSet {
    /// Initializes candidates with the query vertex's incident edges.
    pub fn new(graph: &ProbabilisticGraph, query: VertexId) -> Self {
        let words = graph.edge_count().div_ceil(64);
        let mut s = CandidateSet {
            sorted: Vec::new(),
            bitmap: vec![0; words],
            version: 0,
        };
        let selected = EdgeSubset::for_graph(graph);
        s.vertex_joined(graph, query, &selected);
        s
    }

    fn bit(e: EdgeId) -> (usize, u64) {
        ((e.0 / 64) as usize, 1u64 << (e.0 % 64))
    }

    /// Number of current candidates.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no candidate remains.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mutation count: bumped by every successful insert or remove, so a
    /// consumer holding a pool snapshot can detect staleness in O(1).
    pub fn version(&self) -> u64 {
        self.version
    }

    fn insert(&mut self, e: EdgeId) -> bool {
        let (w, m) = Self::bit(e);
        if self.bitmap[w] & m != 0 {
            return false;
        }
        self.bitmap[w] |= m;
        let pos = self
            .sorted
            .binary_search(&e)
            .expect_err("bitmap said absent");
        self.sorted.insert(pos, e);
        self.version += 1;
        true
    }

    /// Registers that `v` joined the tree: all its incident, unselected,
    /// not-yet-listed edges become candidates.
    pub fn vertex_joined(
        &mut self,
        graph: &ProbabilisticGraph,
        v: VertexId,
        selected: &EdgeSubset,
    ) {
        for (_, e) in graph.neighbors(v) {
            if !selected.contains(e) {
                self.insert(e);
            }
        }
    }

    /// Removes a candidate (because it was selected).
    pub fn remove(&mut self, e: EdgeId) -> bool {
        let (w, m) = Self::bit(e);
        if self.bitmap.get(w).is_none_or(|&word| word & m == 0) {
            return false;
        }
        self.bitmap[w] &= !m;
        let pos = self
            .sorted
            .binary_search(&e)
            .expect("bitmap and sorted list agree");
        self.sorted.remove(pos);
        self.version += 1;
        true
    }

    /// Whether `e` is currently a candidate (one bit test).
    pub fn contains(&self, e: EdgeId) -> bool {
        let (w, m) = Self::bit(e);
        self.bitmap.get(w).is_some_and(|&word| word & m != 0)
    }

    /// Iterates candidates in ascending edge-id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.sorted.iter().copied()
    }

    /// Snapshot of the candidates as a vector.
    pub fn to_vec(&self) -> Vec<EdgeId> {
        self.sorted.clone()
    }

    /// The probe pool of one greedy iteration: all candidates except those
    /// `suspended` (§6.4 — delayed candidates never enter the round).
    /// Returns the pool in ascending edge-id order plus the number of
    /// candidates skipped. When *every* candidate is suspended the full
    /// list is returned instead (skipped = 0), so the loop never stalls.
    pub fn probe_pool(&self, suspended: impl Fn(EdgeId) -> bool) -> (Vec<EdgeId>, u64) {
        let mut pool = Vec::with_capacity(self.len());
        let mut skipped = 0u64;
        for e in self.iter() {
            if suspended(e) {
                skipped += 1;
            } else {
                pool.push(e);
            }
        }
        if pool.is_empty() && !self.is_empty() {
            (self.to_vec(), 0)
        } else {
            (pool, skipped)
        }
    }

    /// Cross-checks the incrementally maintained state against a fresh
    /// enumeration from the tree (debug builds only): the sorted vector
    /// must be strictly ascending, agree bit-for-bit with the bitmap, and
    /// equal the set of unselected graph edges touching a tree vertex.
    /// The incremental greedy loop calls this after every commit.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_validate(&self, graph: &ProbabilisticGraph, tree: &FTree) {
        debug_assert!(
            self.sorted.windows(2).all(|w| w[0] < w[1]),
            "candidate list must be strictly ascending"
        );
        let mut expected_bits = vec![0u64; self.bitmap.len()];
        for &e in &self.sorted {
            let (w, m) = Self::bit(e);
            expected_bits[w] |= m;
        }
        debug_assert_eq!(
            expected_bits, self.bitmap,
            "candidate bitmap out of sync with sorted list"
        );
        let selected = tree.selected_edges();
        let expected: Vec<EdgeId> = graph
            .edges()
            .map(|(e, edge)| (e, edge.endpoints()))
            .filter(|&(e, (a, b))| {
                !selected.contains(e) && (tree.contains_vertex(a) || tree.contains_vertex(b))
            })
            .map(|(e, _)| e)
            .collect();
        debug_assert_eq!(
            expected, self.sorted,
            "candidate list out of sync with tree membership"
        );
    }

    /// Test-only corruption hook: flips `e`'s bitmap bit without touching
    /// the sorted vector, so the next [`debug_validate`] must fire. Used by
    /// the dirty-state regression test to prove the revalidation is live.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn debug_poison(&mut self, e: EdgeId) {
        let (w, m) = Self::bit(e);
        self.bitmap[w] ^= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    /// Star: Q(0) joined to 1, 2; 1 joined to 3.
    fn graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(1), VertexId(3), p).unwrap(); // e2
        b.build()
    }

    #[test]
    fn starts_with_query_incident_edges() {
        let g = graph();
        let c = CandidateSet::new(&g, VertexId(0));
        assert_eq!(c.to_vec(), vec![EdgeId(0), EdgeId(1)]);
        assert!(!c.is_empty());
    }

    #[test]
    fn grows_when_vertices_join() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let mut selected = EdgeSubset::for_graph(&g);
        selected.insert(EdgeId(0));
        c.remove(EdgeId(0));
        c.vertex_joined(&g, VertexId(1), &selected);
        assert_eq!(c.to_vec(), vec![EdgeId(1), EdgeId(2)]);
        assert!(c.contains(EdgeId(2)));
    }

    #[test]
    fn selected_edges_never_reappear() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let mut selected = EdgeSubset::for_graph(&g);
        selected.insert(EdgeId(0));
        selected.insert(EdgeId(2));
        c.remove(EdgeId(0));
        c.vertex_joined(&g, VertexId(1), &selected);
        assert!(!c.contains(EdgeId(0)));
        assert!(!c.contains(EdgeId(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_pool_honours_suspensions_with_fallback() {
        let g = graph();
        let c = CandidateSet::new(&g, VertexId(0));
        let (pool, skipped) = c.probe_pool(|_| false);
        assert_eq!(pool, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(skipped, 0);
        let (pool, skipped) = c.probe_pool(|e| e == EdgeId(0));
        assert_eq!(pool, vec![EdgeId(1)]);
        assert_eq!(skipped, 1);
        // Everything suspended: fall back to the full pool, nothing counts
        // as skipped (every candidate is probed after all).
        let (pool, skipped) = c.probe_pool(|_| true);
        assert_eq!(pool, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn isolated_query_yields_empty_set() {
        let mut b = GraphBuilder::new();
        b.add_vertices(2, Weight::ONE);
        let g = b.build();
        let c = CandidateSet::new(&g, VertexId(0));
        assert!(c.is_empty());
    }

    #[test]
    fn version_counts_every_mutation() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let v0 = c.version();
        assert_eq!(v0, 2, "two initial inserts");
        assert!(c.remove(EdgeId(0)));
        assert_eq!(c.version(), v0 + 1);
        assert!(!c.remove(EdgeId(0)), "double remove is a no-op");
        assert_eq!(c.version(), v0 + 1, "no-ops do not bump the version");
        let selected = EdgeSubset::for_graph(&g);
        c.vertex_joined(&g, VertexId(1), &selected);
        // Edge 0 re-listed + edge 2 new; edge 1 was already present.
        assert_eq!(c.version(), v0 + 3);
        assert_eq!(c.to_vec(), vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn bitmap_tracks_membership_out_of_range_safe() {
        let g = graph();
        let c = CandidateSet::new(&g, VertexId(0));
        assert!(c.contains(EdgeId(0)));
        assert!(!c.contains(EdgeId(2)));
        // Out-of-range ids are simply absent, not a panic.
        assert!(!c.contains(EdgeId(1_000)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "candidate bitmap out of sync")]
    fn poisoned_bitmap_fails_validation() {
        use crate::ftree::FTree;
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let tree = FTree::new(&g, VertexId(0));
        c.debug_validate(&g, &tree);
        c.debug_poison(EdgeId(2));
        c.debug_validate(&g, &tree);
    }
}
