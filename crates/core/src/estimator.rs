//! Pluggable per-component reachability estimation.
//!
//! The F-tree needs `BC.P(v)` — the probability each vertex of a
//! bi-connected component reaches its articulation vertex — whenever a
//! component (re)forms. The paper uses Monte-Carlo sampling with a fixed
//! `samplesize` (§5.3). We generalize behind [`EstimateProvider`] so that
//!
//! * the selection layer can inject **memoization** (§6.2) without the tree
//!   knowing about it,
//! * tests can force **exact enumeration** (components are small) and verify
//!   the decomposition against whole-graph ground truth bit-for-bit, and
//! * experiments can use a **hybrid** low-variance evaluator.

use flowmax_sampling::{
    default_threads, ComponentEstimate, ComponentGraph, ParallelEstimator, SeedSequence,
};

use crate::metrics::SelectionMetrics;

/// How component reachability functions are computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Components with at most this many *uncertain* edges are enumerated
    /// exactly; `0` disables exact evaluation entirely (the paper's setting).
    pub exact_edge_cap: usize,
    /// Monte-Carlo samples for components above the cap (paper: 1000).
    pub samples: u32,
}

impl EstimatorConfig {
    /// The paper's pure Monte-Carlo estimator (§7.2: 1000 samples).
    pub fn monte_carlo(samples: u32) -> Self {
        EstimatorConfig {
            exact_edge_cap: 0,
            samples,
        }
    }

    /// Exact enumeration up to `cap` uncertain edges, sampling beyond.
    pub fn hybrid(cap: usize, samples: u32) -> Self {
        EstimatorConfig {
            exact_edge_cap: cap,
            samples,
        }
    }

    /// Exact-only estimation for tests (falls back to sampling above the
    /// hard enumeration cap of 24 edges, which tests should never reach).
    pub fn exact() -> Self {
        EstimatorConfig {
            exact_edge_cap: 24,
            samples: 1000,
        }
    }
}

/// A source of component reachability estimates.
///
/// Implementations may sample, enumerate, memoize, or replay recorded
/// estimates; the F-tree only requires that [`ComponentEstimate::reach`] is
/// indexed consistently with `snapshot.vertices()`.
pub trait EstimateProvider {
    /// Produces the reachability function for a component snapshot.
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate;
}

/// The default provider: exact enumeration below the configured cap,
/// bit-parallel Monte-Carlo sampling otherwise, with full metrics
/// accounting.
///
/// Each `estimate` call derives an independent seed-sequence child from the
/// provider's master seed and a call counter, then hands the batched
/// [`ParallelEstimator`] engine the component. Results are therefore a pure
/// function of `(seed, call index)` — identical for every worker-thread
/// count.
#[derive(Debug)]
pub struct SamplingProvider {
    config: EstimatorConfig,
    seq: SeedSequence,
    calls: u64,
    engine: ParallelEstimator,
    /// Counters describing the work performed.
    pub metrics: SelectionMetrics,
}

impl SamplingProvider {
    /// Creates a provider with a deterministic seed stream and the
    /// [`default_threads`] worker count (`FLOWMAX_THREADS` or 1).
    pub fn new(config: EstimatorConfig, seed: u64) -> Self {
        Self::with_threads(config, seed, default_threads())
    }

    /// Creates a provider with an explicit worker count and the ambient
    /// `FLOWMAX_LANES` lane width.
    pub fn with_threads(config: EstimatorConfig, seed: u64, threads: usize) -> Self {
        Self::with_parallelism(
            config,
            seed,
            threads,
            flowmax_sampling::default_lane_words(),
        )
    }

    /// Creates a provider with explicit worker count and lane width
    /// (64-world lane words per BFS block; supported widths 1, 4, 8).
    /// Results never depend on either — only wall-clock time does.
    pub fn with_parallelism(
        config: EstimatorConfig,
        seed: u64,
        threads: usize,
        lane_words: usize,
    ) -> Self {
        SamplingProvider {
            config,
            seq: SeedSequence::new(SeedSequence::new(seed).child_seed(0xC0FFEE)),
            calls: 0,
            engine: ParallelEstimator::new(threads).with_lane_words(lane_words),
            metrics: SelectionMetrics::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> EstimatorConfig {
        self.config
    }

    /// The worker count used for sampled components.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Adjusts the Monte-Carlo sample budget for later estimates.
    pub fn set_samples(&mut self, samples: u32) {
        self.config.samples = samples;
    }
}

impl EstimateProvider for SamplingProvider {
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate {
        if snapshot.uncertain_edge_count() <= self.config.exact_edge_cap {
            if let Some(exact) = snapshot.exact_reachability(self.config.exact_edge_cap) {
                self.metrics.components_enumerated += 1;
                return exact;
            }
        }
        self.metrics.components_sampled += 1;
        self.metrics.samples_drawn += self.config.samples as u64;
        self.metrics.edge_samples_drawn +=
            self.config.samples as u64 * snapshot.edge_count() as u64;
        let call_seq = SeedSequence::new(self.seq.child_seed(self.calls));
        self.calls += 1;
        self.engine
            .sample_component(snapshot, self.config.samples, &call_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, VertexId, Weight};

    fn triangle_snapshot() -> ComponentGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        let e0 = b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        let e2 = b.add_edge(VertexId(0), VertexId(2), p).unwrap();
        let g = b.build();
        ComponentGraph::build(&g, VertexId(0), &[e0, e1, e2])
    }

    #[test]
    fn monte_carlo_config_never_enumerates() {
        let mut p = SamplingProvider::new(EstimatorConfig::monte_carlo(500), 1);
        let est = p.estimate(&triangle_snapshot());
        assert!(!est.is_exact());
        assert_eq!(p.metrics.components_sampled, 1);
        assert_eq!(p.metrics.components_enumerated, 0);
        assert_eq!(p.metrics.samples_drawn, 500);
        assert_eq!(p.metrics.edge_samples_drawn, 1500);
    }

    #[test]
    fn exact_config_enumerates_small_components() {
        let mut p = SamplingProvider::new(EstimatorConfig::exact(), 1);
        let est = p.estimate(&triangle_snapshot());
        assert!(est.is_exact());
        assert!((est.reach(1) - 0.625).abs() < 1e-12);
        assert_eq!(p.metrics.components_enumerated, 1);
        assert_eq!(p.metrics.components_sampled, 0);
    }

    #[test]
    fn hybrid_splits_by_size() {
        let mut p = SamplingProvider::new(EstimatorConfig::hybrid(2, 100), 1);
        // Triangle has 3 uncertain edges > cap 2 → sampled.
        let est = p.estimate(&triangle_snapshot());
        assert!(!est.is_exact());
    }

    #[test]
    fn provider_is_thread_count_invariant() {
        let snap = triangle_snapshot();
        let run = |threads| {
            let mut p =
                SamplingProvider::with_threads(EstimatorConfig::monte_carlo(300), 5, threads);
            // Two calls: per-call child seeds must line up across runs too.
            (p.estimate(&snap), p.estimate(&snap))
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
        assert!(SamplingProvider::new(EstimatorConfig::exact(), 1).threads() >= 1);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let snap = triangle_snapshot();
        let run = |seed| {
            let mut p = SamplingProvider::new(EstimatorConfig::monte_carlo(200), seed);
            let est = p.estimate(&snap);
            (est.reach(1), est.reach(2))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
