//! Component memoization (§6.2, the **M** heuristic).
//!
//! During each greedy iteration many candidate probes (re-)estimate
//! bi-connected components. [`MemoProvider`] caches estimates keyed by the
//! component's identity — articulation vertex + exact edge set (+ the sample
//! budget, so confidence-interval races at different budgets do not alias).
//! If a component re-forms unchanged in a later probe or insertion, the
//! cached reachability function is reused and no sampling happens. Staleness
//! is automatic: any change to the component changes its edge set and
//! therefore its key.
//!
//! The key ignores edge order, but an estimate is indexed by its snapshot's
//! vertex order, which follows the edge order: serving an entry to a
//! same-set snapshot with another vertex order would misplace every
//! vertex's reach. Each entry keeps a hash of its snapshot's vertex order,
//! and debug builds assert that every hit matches it.

use std::collections::HashMap;

use flowmax_sampling::{splitmix64, ComponentEstimate, ComponentGraph};

use crate::estimator::{EstimateProvider, EstimatorConfig, SamplingProvider};

/// A memoizing wrapper around [`SamplingProvider`].
#[derive(Debug)]
pub struct MemoProvider {
    inner: SamplingProvider,
    cache: HashMap<u64, Entry>,
    enabled: bool,
}

#[derive(Debug)]
struct Entry {
    estimate: ComponentEstimate,
    /// [`vertex_order`] of the snapshot the estimate was stored for.
    order: u64,
}

impl Entry {
    fn new(snapshot: &ComponentGraph, estimate: ComponentEstimate) -> Self {
        Entry {
            estimate,
            order: vertex_order(snapshot),
        }
    }

    /// The stored estimate, for a snapshot whose key matched.
    fn serve(&self, snapshot: &ComponentGraph) -> &ComponentEstimate {
        debug_assert_eq!(
            self.order,
            vertex_order(snapshot),
            "a memo hit must index its estimate in the stored vertex order"
        );
        &self.estimate
    }
}

/// An order-sensitive hash of a snapshot's vertex sequence.
fn vertex_order(snapshot: &ComponentGraph) -> u64 {
    snapshot
        .vertices()
        .iter()
        .fold(0, |h, v| splitmix64(h ^ v.0 as u64))
}

impl MemoProvider {
    /// Wraps a sampling provider; when `enabled` is false the wrapper is a
    /// transparent pass-through (the plain `FT` algorithm).
    pub fn new(inner: SamplingProvider, enabled: bool) -> Self {
        MemoProvider {
            inner,
            cache: HashMap::new(),
            enabled,
        }
    }

    /// The wrapped provider (for metrics extraction).
    pub fn inner(&self) -> &SamplingProvider {
        &self.inner
    }

    /// Mutable access to the wrapped provider (e.g. to adjust the sample
    /// budget during confidence-interval races).
    pub fn inner_mut(&mut self) -> &mut SamplingProvider {
        &mut self.inner
    }

    /// Number of live cache entries.
    pub fn cached_components(&self) -> usize {
        self.cache.len()
    }

    fn fingerprint(&self, snapshot: &ComponentGraph) -> u64 {
        // The sample budget is part of the key so that low-budget racing
        // estimates are never served where a full-budget one is expected.
        // (Estimates *stored* under a key may carry more samples than the
        // key's budget — see [`MemoProvider::store`] — never fewer.)
        let cfg: EstimatorConfig = self.inner.config();
        let h = splitmix64(snapshot.fingerprint() ^ cfg.samples as u64);
        splitmix64(h ^ cfg.exact_edge_cap as u64)
    }

    /// Publishes an externally computed estimate into the cache under the
    /// current configuration's key, so later probes and insertions of the
    /// same component reuse it without sampling. The racing engine stores
    /// its finalists here: their estimates hold *at least* the configured
    /// budget (racing budgets are whole-batch quantized and may be
    /// reallocation-boosted), so serving them where a full-budget estimate
    /// is expected only reduces variance.
    ///
    /// A no-op when memoization is disabled.
    pub fn store(&mut self, snapshot: &ComponentGraph, estimate: ComponentEstimate) {
        if !self.enabled {
            return;
        }
        let key = self.fingerprint(snapshot);
        self.cache.insert(key, Entry::new(snapshot, estimate));
    }
}

impl EstimateProvider for MemoProvider {
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate {
        if !self.enabled {
            return self.inner.estimate(snapshot);
        }
        let key = self.fingerprint(snapshot);
        if let Some(cached) = self.cache.get(&key) {
            self.inner.metrics.memo_hits += 1;
            return cached.serve(snapshot).clone();
        }
        let est = self.inner.estimate(snapshot);
        self.cache.insert(key, Entry::new(snapshot, est.clone()));
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{EdgeId, GraphBuilder, Probability, VertexId, Weight};

    fn snapshot(extra_edge: bool) -> ComponentGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        let e0 = b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        let e2 = b.add_edge(VertexId(0), VertexId(2), p).unwrap();
        let e3 = b.add_edge(VertexId(1), VertexId(3), p).unwrap();
        let _ = e3;
        let g = b.build();
        let edges: Vec<EdgeId> = if extra_edge {
            vec![e0, e1, e2, e3]
        } else {
            vec![e0, e1, e2]
        };
        ComponentGraph::build(&g, VertexId(0), &edges)
    }

    #[test]
    fn repeat_estimates_hit_the_cache() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(200), 1);
        let mut memo = MemoProvider::new(inner, true);
        let s = snapshot(false);
        let a = memo.estimate(&s);
        let b = memo.estimate(&s);
        assert_eq!(memo.inner().metrics.memo_hits, 1);
        assert_eq!(a.reach_all(), b.reach_all());
        assert_eq!(
            memo.inner().metrics.components_sampled,
            1,
            "sampled only once"
        );
    }

    #[test]
    fn different_edge_sets_do_not_alias() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        memo.estimate(&snapshot(false));
        memo.estimate(&snapshot(true));
        assert_eq!(memo.inner().metrics.memo_hits, 0);
        assert_eq!(memo.inner().metrics.components_sampled, 2);
        assert_eq!(memo.cached_components(), 2);
    }

    #[test]
    fn different_sample_budgets_do_not_alias() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        memo.estimate(&snapshot(false));
        memo.inner_mut().set_samples(400);
        memo.estimate(&snapshot(false));
        assert_eq!(
            memo.inner().metrics.memo_hits,
            0,
            "different budgets must be distinct keys"
        );
    }

    #[test]
    fn disabled_wrapper_is_transparent() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, false);
        let s = snapshot(false);
        memo.estimate(&s);
        memo.estimate(&s);
        assert_eq!(memo.inner().metrics.memo_hits, 0);
        assert_eq!(
            memo.inner().metrics.components_sampled,
            2,
            "resampled both times"
        );
    }

    #[test]
    fn stored_estimates_are_served_to_later_probes() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        let s = snapshot(false);
        // An externally computed (e.g. racing) estimate at a larger budget.
        let external = SamplingProvider::new(EstimatorConfig::monte_carlo(256), 9).estimate(&s);
        memo.store(&s, external.clone());
        let served = memo.estimate(&s);
        assert_eq!(
            memo.inner().metrics.memo_hits,
            1,
            "the stored estimate must be served"
        );
        assert_eq!(served.reach_all(), external.reach_all());
        assert_eq!(
            memo.inner().metrics.components_sampled,
            0,
            "no sampling through the memoized provider"
        );
        // Disabled wrapper: store is a no-op.
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut off = MemoProvider::new(inner, false);
        off.store(&s, external);
        assert_eq!(off.cached_components(), 0);
    }

    /// The same edge set in another order keys the same entry, but its
    /// vertex order differs; debug builds refuse to serve it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stored vertex order")]
    fn a_hit_in_another_vertex_order_is_caught() {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        let e0 = b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        let e2 = b.add_edge(VertexId(0), VertexId(2), p).unwrap();
        let g = b.build();
        let stored = ComponentGraph::build(&g, VertexId(0), &[e0, e1, e2]);
        let reordered = ComponentGraph::build(&g, VertexId(0), &[e2, e1, e0]);
        assert_eq!(stored.fingerprint(), reordered.fingerprint());
        assert_ne!(stored.vertices(), reordered.vertices());
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        memo.estimate(&stored);
        memo.estimate(&reordered);
    }
}
