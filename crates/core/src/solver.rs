//! The algorithm roster (§7.2) and the shared uniform final-flow
//! evaluator.
//!
//! The paper compares algorithms by the expected flow of their *selected
//! subgraphs*. Since each algorithm estimates flow with different noise
//! during selection, every run re-evaluates its final selection with one
//! shared high-fidelity evaluator (exact for small components, heavily
//! sampled otherwise) so reported flows are comparable. Queries run through
//! the session API ([`crate::session::Session`]).

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};

use crate::error::CoreError;
use crate::estimator::{EstimatorConfig, SamplingProvider};
use crate::ftree::FTree;

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
    let mut provider = SamplingProvider::with_threads(estimator, seed, threads);
    let mut tree = FTree::new(graph, query);
    let mut remaining: Vec<EdgeId> = edges.to_vec();
    loop {
        let mut progressed = false;
        remaining.retain(|&e| {
            let (a, b) = graph.endpoints(e);
            if tree.contains_vertex(a) || tree.contains_vertex(b) {
                tree.insert_edge(graph, e, &mut provider)
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
    tree.expected_flow(graph, include_query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SolveRun};
    use flowmax_graph::{GraphBuilder, Probability, Weight};
    use flowmax_sampling::default_threads;

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
