//! The algorithm roster (§7.2) and the shared uniform final-flow
//! evaluator.
//!
//! The paper compares algorithms by the expected flow of their *selected
//! subgraphs*. Since each algorithm estimates flow with different noise
//! during selection, every run re-evaluates its final selection with one
//! shared high-fidelity evaluator (exact for small components, heavily
//! sampled otherwise) so reported flows are comparable. Queries run through
//! the session API ([`crate::session::Session`]).

use std::sync::{Arc, Weak};

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::{ComponentEstimate, ComponentGraph, LocalIdScratch};

use crate::error::CoreError;
use crate::estimator::{EstimatorConfig, SamplingProvider};
use crate::ftree::{ComponentSource, FTree, Formed};

/// The algorithms evaluated in §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Whole-graph sampling greedy, no F-tree \[7\], \[22\].
    Naive,
    /// Maximum-probability spanning tree (first `k` edges).
    Dijkstra,
    /// F-tree greedy (§5.3).
    Ft,
    /// F-tree + memoization (§6.2).
    FtM,
    /// F-tree + memoization + confidence intervals (§6.3).
    FtMCi,
    /// F-tree + memoization + delayed sampling (§6.4).
    FtMDs,
    /// All heuristics combined.
    FtMCiDs,
}

impl Algorithm {
    /// All algorithms in the paper's presentation order.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::Naive,
            Algorithm::Dijkstra,
            Algorithm::Ft,
            Algorithm::FtM,
            Algorithm::FtMCi,
            Algorithm::FtMDs,
            Algorithm::FtMCiDs,
        ]
    }

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Naive => "Naive",
            Algorithm::Dijkstra => "Dijkstra",
            Algorithm::Ft => "FT",
            Algorithm::FtM => "FT+M",
            Algorithm::FtMCi => "FT+M+CI",
            Algorithm::FtMDs => "FT+M+DS",
            Algorithm::FtMCiDs => "FT+M+CI+DS",
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = CoreError;

    /// Parses the paper's display name (case-insensitive).
    fn from_str(s: &str) -> Result<Algorithm, CoreError> {
        Ok(match s.to_ascii_uppercase().as_str() {
            "NAIVE" => Algorithm::Naive,
            "DIJKSTRA" => Algorithm::Dijkstra,
            "FT" => Algorithm::Ft,
            "FT+M" => Algorithm::FtM,
            "FT+M+CI" => Algorithm::FtMCi,
            "FT+M+DS" => Algorithm::FtMDs,
            "FT+M+CI+DS" => Algorithm::FtMCiDs,
            _ => return Err(CoreError::UnknownAlgorithm(s.to_string())),
        })
    }
}

/// Evaluates the expected flow of an arbitrary edge selection by building an
/// F-tree with the given estimator. Edges are inserted in connectivity
/// order; edges never connected to `Q` contribute nothing and are skipped.
///
/// Estimation is deferred: only the bi components that survive to the
/// finished tree are estimated, once each. An intermediate component that
/// a later insertion absorbs or grows is never estimated, yet the result
/// is bit-identical to estimating every component as it forms: each
/// formation that would be sampled claims the provider's next call index
/// at insertion time, exactly as the eager call would, and a surviving
/// component is sampled on the claim of its last (re)formation.
///
/// `threads` is the sampling worker count (results are identical for
/// every thread count; only wall-clock time changes) — pass
/// [`flowmax_sampling::default_threads`] for the `FLOWMAX_THREADS` count.
pub fn evaluate_selection(
    graph: &ProbabilisticGraph,
    query: VertexId,
    edges: &[EdgeId],
    estimator: EstimatorConfig,
    include_query: bool,
    seed: u64,
    threads: usize,
) -> f64 {
    let mut deferred = Deferred {
        provider: SamplingProvider::with_threads(estimator, seed, threads),
        formed: Vec::new(),
    };
    let mut tree = FTree::new(graph, query);
    let mut remaining: Vec<EdgeId> = edges.to_vec();
    loop {
        let mut progressed = false;
        remaining.retain(|&e| {
            let (a, b) = graph.endpoints(e);
            if tree.contains_vertex(a) || tree.contains_vertex(b) {
                tree.insert_edge_from(graph, e, &mut deferred)
                    .expect("connected, unselected edge");
                progressed = true;
                false
            } else {
                true
            }
        });
        if remaining.is_empty() || !progressed {
            break;
        }
    }
    // A snapshot still alive belongs to a surviving component: absorbed
    // and re-formed components dropped theirs.
    for (snapshot, claim) in deferred.formed {
        let Some(snapshot) = snapshot.upgrade() else {
            continue;
        };
        let cid = tree
            .component_of(snapshot.vertices()[1])
            .expect("a surviving component owns its members");
        let estimate = deferred.provider.estimate_at(&snapshot, claim);
        tree.set_bi_estimate(cid, estimate);
    }
    tree.expected_flow(graph, include_query)
}

/// The component source of [`evaluate_selection`]: builds each formed
/// component with a placeholder estimate, claims the call index its eager
/// estimate would have used, and remembers both.
struct Deferred {
    provider: SamplingProvider,
    /// Every formation in insertion order, with its claim.
    formed: Vec<(Weak<ComponentGraph>, Option<u64>)>,
}

impl ComponentSource for Deferred {
    fn form(
        &mut self,
        graph: &ProbabilisticGraph,
        av: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
    ) -> Formed {
        let formed = Formed::build(graph, av, edges, scratch, |s| {
            ComponentEstimate::placeholder(s.vertex_count())
        });
        let claim = self.provider.claim(&formed.snapshot);
        self.formed.push((Arc::downgrade(&formed.snapshot), claim));
        formed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::InsertCase;
    use crate::metrics::SelectionMetrics;
    use crate::session::{Session, SolveRun, EVAL_SEED_TAG};
    use flowmax_graph::{GraphBuilder, Probability, Weight};
    use flowmax_sampling::default_threads;

    /// The eager reference [`evaluate_selection`] is held to: the same
    /// connectivity-order insertion loop, every component estimated by the
    /// provider as it forms. Returns the flow, the insertion cases and the
    /// provider's counters.
    fn eager_evaluation(
        graph: &ProbabilisticGraph,
        query: VertexId,
        edges: &[EdgeId],
        estimator: EstimatorConfig,
        include_query: bool,
        seed: u64,
        threads: usize,
    ) -> (f64, Vec<InsertCase>, SelectionMetrics) {
        let mut provider = SamplingProvider::with_threads(estimator, seed, threads);
        let mut tree = FTree::new(graph, query);
        let mut cases = Vec::new();
        let mut remaining: Vec<EdgeId> = edges.to_vec();
        loop {
            let mut progressed = false;
            remaining.retain(|&e| {
                let (a, b) = graph.endpoints(e);
                if tree.contains_vertex(a) || tree.contains_vertex(b) {
                    let report = tree.insert_edge(graph, e, &mut provider).unwrap();
                    cases.push(report.case);
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if remaining.is_empty() || !progressed {
                break;
            }
        }
        let flow = tree.expected_flow(graph, include_query);
        (flow, cases, provider.metrics)
    }

    /// A `w × h` grid rooted at vertex 0 with varied probabilities (every
    /// seventh edge certain), so a cap of 4 uncertain edges enumerates
    /// single squares exactly and samples the merged ones.
    fn grid(w: usize, h: usize) -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        for v in 0..w * h {
            b.add_vertex(Weight::new(1.0 + (v % 3) as f64).unwrap());
        }
        let mut i = 0usize;
        let mut edge = |b: &mut GraphBuilder, u: usize, v: usize| {
            let prob = if i % 7 == 6 {
                1.0
            } else {
                0.3 + 0.06 * ((i * 37) % 11) as f64
            };
            i += 1;
            b.add_edge(VertexId::from_index(u), VertexId::from_index(v), p(prob))
                .unwrap();
        };
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    edge(&mut b, v, v + 1);
                }
                if y + 1 < h {
                    edge(&mut b, v, v + w);
                }
            }
        }
        b.build()
    }

    fn assert_lazy_matches_eager(
        g: &ProbabilisticGraph,
        edges: &[EdgeId],
        estimator: EstimatorConfig,
        seed: u64,
    ) -> (Vec<InsertCase>, SelectionMetrics) {
        let (eager, cases, metrics) =
            eager_evaluation(g, VertexId(0), edges, estimator, false, seed, 1);
        for threads in [1, 8] {
            let lazy = evaluate_selection(g, VertexId(0), edges, estimator, false, seed, threads);
            assert_eq!(
                lazy.to_bits(),
                eager.to_bits(),
                "{threads} threads: lazy {lazy} vs eager {eager}"
            );
        }
        (cases, metrics)
    }

    #[test]
    fn lazy_evaluation_matches_eager_on_mixed_exact_and_sampled_components() {
        let g = grid(4, 5);
        let cfg = EstimatorConfig::hybrid(4, 256);
        let ascending: Vec<EdgeId> = g.edge_ids().collect();
        let descending: Vec<EdgeId> = ascending.iter().rev().copied().collect();
        let mut enumerated = 0;
        let mut sampled = 0;
        for (seed, edges) in [(3, &ascending), (4, &descending)] {
            for len in [6, 11, 17, edges.len()] {
                let (_, metrics) = assert_lazy_matches_eager(&g, &edges[..len], cfg, seed);
                enumerated += metrics.components_enumerated;
                sampled += metrics.components_sampled;
            }
        }
        assert!(enumerated > 0, "some components must enumerate exactly");
        assert!(sampled > 0, "some components must be sampled");
    }

    /// Cycle A (Q-1-2-3-4-Q) forms and is sampled, cycle B (2-5-6-7-8-2)
    /// forms under it, then chord 1-3 grows A through case IIIa: A must be
    /// sampled on the claim of that last formation (call 2), not its first
    /// (call 0), and B on call 1.
    #[test]
    fn a_component_grown_after_it_forms_uses_its_last_claim() {
        let mut b = GraphBuilder::new();
        b.add_vertices(9, Weight::ONE);
        let ring = |b: &mut GraphBuilder, vs: &[u32], prob: f64| {
            for (i, &u) in vs.iter().enumerate() {
                let v = vs[(i + 1) % vs.len()];
                b.add_edge(VertexId(u), VertexId(v), p(prob)).unwrap();
            }
        };
        ring(&mut b, &[0, 1, 2, 3, 4], 0.6);
        ring(&mut b, &[2, 5, 6, 7, 8], 0.7);
        b.add_edge(VertexId(1), VertexId(3), p(0.5)).unwrap();
        let g = b.build();
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let (cases, metrics) =
            assert_lazy_matches_eager(&g, &edges, EstimatorConfig::monte_carlo(300), 11);
        assert_eq!(cases.last(), Some(&InsertCase::CycleInBi));
        assert_eq!(metrics.components_sampled, 3, "A, B, then A again");
    }

    /// Every prefix `flow_at` evaluates is bit-identical to the eager
    /// reference on the same prefix, at 1 and 8 threads.
    #[test]
    fn flow_at_prefixes_match_the_eager_reference() {
        let g = grid(5, 5);
        let cfg = EstimatorConfig::hybrid(4, 256);
        let mut sampled = 0;
        for threads in [1, 8] {
            let run = Session::new(&g)
                .with_threads(threads)
                .with_evaluation(cfg)
                .query(VertexId(0))
                .unwrap()
                .algorithm(Algorithm::FtMCiDs)
                .budget(16)
                .samples(128)
                .seed(5)
                .run()
                .unwrap();
            for budget in 0..=run.selected.len() {
                let mut prefix = run.selection_at(budget).to_vec();
                prefix.sort_unstable();
                let (eager, _, metrics) = eager_evaluation(
                    &g,
                    VertexId(0),
                    &prefix,
                    cfg,
                    false,
                    5 ^ EVAL_SEED_TAG,
                    threads,
                );
                assert_eq!(
                    run.flow_at(budget).to_bits(),
                    eager.to_bits(),
                    "{threads} threads, budget {budget}"
                );
                sampled += metrics.components_sampled;
            }
        }
        assert!(sampled > 0, "some prefix must sample a component");
    }

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// A graph where greedy flow ranking is unambiguous.
    fn graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO); // Q
        for w in [5.0, 3.0, 8.0, 1.0] {
            b.add_vertex(Weight::new(w).unwrap());
        }
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p(0.8)).unwrap();
        b.add_edge(VertexId(1), VertexId(3), p(0.7)).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p(0.6)).unwrap();
        b.add_edge(VertexId(3), VertexId(4), p(0.5)).unwrap();
        b.build()
    }

    fn run(g: &ProbabilisticGraph, algorithm: Algorithm, budget: usize) -> SolveRun<'_> {
        Session::new(g)
            .with_seed(1)
            .query(VertexId(0))
            .unwrap()
            .algorithm(algorithm)
            .budget(budget)
            .run()
            .unwrap()
    }

    #[test]
    fn all_algorithms_run_and_respect_budget() {
        let g = graph();
        for alg in Algorithm::all() {
            let r = run(&g, alg, 3);
            assert!(r.selected.len() <= 3, "{} overspent", alg.name());
            assert!(r.flow > 0.0, "{} found no flow", alg.name());
            assert!(r.flow <= g.total_weight() + 1e-9);
        }
    }

    #[test]
    fn ft_beats_or_matches_dijkstra_here() {
        let g = graph();
        let ft = run(&g, Algorithm::FtM, 3);
        let dj = run(&g, Algorithm::Dijkstra, 3);
        assert!(
            ft.flow >= dj.flow - 1e-9,
            "FT {} vs Dijkstra {}",
            ft.flow,
            dj.flow
        );
    }

    #[test]
    fn uniform_evaluation_is_deterministic() {
        let g = graph();
        let edges = vec![EdgeId(0), EdgeId(1), EdgeId(2)];
        let cfg = EstimatorConfig::hybrid(16, 500);
        let a = evaluate_selection(&g, VertexId(0), &edges, cfg, false, 3, default_threads());
        let b = evaluate_selection(&g, VertexId(0), &edges, cfg, false, 3, default_threads());
        assert_eq!(a, b);
    }

    #[test]
    fn evaluation_skips_disconnected_edges() {
        let g = graph();
        // Edge 4 (3-4) alone is not connected to Q: zero flow.
        let flow = evaluate_selection(
            &g,
            VertexId(0),
            &[EdgeId(4)],
            EstimatorConfig::exact(),
            false,
            0,
            default_threads(),
        );
        assert_eq!(flow, 0.0);
        // Out-of-order insertion still works: 3-4 first, then the path.
        let flow = evaluate_selection(
            &g,
            VertexId(0),
            &[EdgeId(4), EdgeId(2), EdgeId(0)],
            EstimatorConfig::exact(),
            false,
            0,
            default_threads(),
        );
        assert!((flow - (0.9 * 5.0 + 0.63 * 8.0 + 0.315 * 1.0)).abs() < 1e-9);
    }

    #[test]
    fn algorithm_names_roundtrip() {
        for alg in Algorithm::all() {
            assert_eq!(alg.name().parse::<Algorithm>().ok(), Some(alg));
        }
        assert_eq!("nonsense".parse::<Algorithm>().ok(), None);
    }

    #[test]
    fn elapsed_and_metrics_populated() {
        let g = graph();
        let r = run(&g, Algorithm::Ft, 3);
        assert!(r.metrics.probes > 0);
        assert!(r.elapsed.as_nanos() > 0);
    }
}
