//! Shared machinery for the figure experiments: scales, algorithm roster,
//! and the per-workload timing loop.

use flowmax_core::{Algorithm, Session};
use flowmax_datasets::suggest_query;
use flowmax_graph::ProbabilisticGraph;

use crate::report::Cell;

/// Experiment scale: the paper's parameters, or a laptop-friendly reduction
/// (each experiment's [`Scale::pick`] calls give both sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `true` = the paper's full sizes (slow); `false` = reduced defaults.
    pub paper: bool,
}

impl Scale {
    /// Reduced (default) scale.
    pub fn reduced() -> Self {
        Scale { paper: false }
    }

    /// Paper-sized scale.
    pub fn paper_scale() -> Self {
        Scale { paper: true }
    }

    /// Picks the paper value or the reduced value.
    pub fn pick<T>(&self, paper: T, reduced: T) -> T {
        if self.paper {
            paper
        } else {
            reduced
        }
    }
}

/// Run configuration shared by the sweep experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Edge budget `k`.
    pub budget: usize,
    /// Component samples for FT variants (paper: 1000).
    pub samples: u32,
    /// Samples for the Naive baseline (reduced so sweeps finish; the full
    /// paper setting is 1000).
    pub naive_samples: u32,
    /// Master seed.
    pub seed: u64,
}

/// The paper's seven algorithms (§7.2), in presentation order.
pub fn roster() -> Vec<Algorithm> {
    Algorithm::all().to_vec()
}

/// Runs every algorithm on one workload and returns a table row's cells.
///
/// All runs share one [`Session`], so per-graph state (e.g. the Dijkstra
/// baseline's spanning tree) is computed once per workload.
pub fn run_workload(
    graph: &ProbabilisticGraph,
    algorithms: &[Algorithm],
    cfg: &RunConfig,
) -> Vec<Cell> {
    let query = suggest_query(graph);
    let session = Session::new(graph).with_seed(cfg.seed);
    algorithms
        .iter()
        .map(|&alg| {
            let samples = if alg == Algorithm::Naive {
                cfg.naive_samples
            } else {
                cfg.samples
            };
            let r = session
                .query(query)
                .expect("suggest_query returns a graph vertex")
                .algorithm(alg)
                .budget(cfg.budget)
                .samples(samples)
                .run()
                .expect("experiment budgets and samples are positive");
            Cell {
                flow: r.flow,
                millis: r.elapsed.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Display names for a roster.
pub fn names(algorithms: &[Algorithm]) -> Vec<String> {
    algorithms.iter().map(|a| a.name().to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_datasets::ErdosConfig;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::paper_scale().pick(10, 2), 10);
        assert_eq!(Scale::reduced().pick(10, 2), 2);
    }

    #[test]
    fn run_workload_produces_one_cell_per_algorithm() {
        let g = ErdosConfig::paper(60, 4.0).generate(1);
        let algs = [Algorithm::Dijkstra, Algorithm::FtM];
        let cells = run_workload(
            &g,
            &algs,
            &RunConfig {
                budget: 5,
                samples: 100,
                naive_samples: 50,
                seed: 3,
            },
        );
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.flow >= 0.0 && c.millis >= 0.0));
    }

    #[test]
    fn roster_matches_paper() {
        let names = names(&roster());
        assert_eq!(
            names,
            vec![
                "Naive",
                "Dijkstra",
                "FT",
                "FT+M",
                "FT+M+CI",
                "FT+M+DS",
                "FT+M+CI+DS"
            ]
        );
    }
}
