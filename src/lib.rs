//! # flowmax
//!
//! A from-scratch Rust reproduction of
//!
//! > C. Frey, A. Züfle, T. Emrich, M. Renz —
//! > *"Efficient Information Flow Maximization in Probabilistic Graphs"*,
//! > IEEE TKDE 30(5), 2018 (ICDE'18 extended abstract).
//!
//! Given an uncertain graph (independent edge-existence probabilities,
//! per-vertex information weights), a query vertex `Q` and an edge budget
//! `k`, `flowmax` selects the `k`-edge subgraph that (near-)maximizes the
//! expected total weight of vertices connected to `Q` — using the paper's
//! **F-tree** decomposition to compute flow analytically on tree-like parts
//! and by component-local Monte-Carlo sampling on cyclic parts.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — probabilistic-graph substrate (possible worlds, exact
//!   enumeration, biconnected components, spanning trees);
//! * [`sampling`] — Monte-Carlo estimators and confidence intervals;
//! * [`datasets`] — every workload of the paper's evaluation (§7.1);
//! * [`core`] — the F-tree, the greedy selection with M/CI/DS heuristics,
//!   and the Naive/Dijkstra baselines.
//!
//! ## Quick start
//!
//! A [`core::Session`] owns the per-graph state (worker configuration,
//! seeds, the shared evaluator, per-graph caches) and serves any number of
//! queries
//! through a typed builder:
//!
//! ```
//! use flowmax::prelude::*;
//!
//! // Build a small uncertain graph.
//! let mut b = GraphBuilder::new();
//! let q = b.add_vertex(Weight::ZERO);
//! let a = b.add_vertex(Weight::new(5.0).unwrap());
//! let c = b.add_vertex(Weight::new(3.0).unwrap());
//! b.add_edge(q, a, Probability::new(0.8).unwrap()).unwrap();
//! b.add_edge(a, c, Probability::new(0.5).unwrap()).unwrap();
//! b.add_edge(q, c, Probability::new(0.4).unwrap()).unwrap();
//! let graph = b.build();
//!
//! // Select the best 2 edges for query q with the FT+M algorithm.
//! let session = Session::new(&graph).with_seed(42);
//! let run = session.query(q)?.algorithm(Algorithm::FtM).budget(2).run()?;
//! assert_eq!(run.selected.len(), 2);
//! assert!(run.flow > 4.0);
//! // One run answers every budget ≤ 2 (the anytime property).
//! assert!(run.flow_at(1) <= run.flow + 1e-9);
//! # Ok::<(), flowmax::core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use flowmax_core as core;
pub use flowmax_datasets as datasets;
pub use flowmax_graph as graph;
pub use flowmax_sampling as sampling;

/// One-stop imports for typical users.
pub mod prelude {
    pub use flowmax_core::{
        evaluate_selection, exact_max_flow, greedy_select, Algorithm, CancelToken, EstimatorConfig,
        FTree, FlowServer, GreedyConfig, NoObserver, QueryBuilder, QueryParams, QuerySpec,
        RunControl, SamplingProvider, SelectionObserver, SelectionStep, ServeConfig, ServeEvent,
        Session, SessionState, SolveRun,
    };
    pub use flowmax_datasets::{suggest_query, DatasetSpec};
    pub use flowmax_graph::{
        EdgeId, EdgeSubset, GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight,
    };
    pub use flowmax_sampling::{ParallelEstimator, SeedSequence};
}
