//! # flowmax-core
//!
//! The paper's primary contribution: the **F-tree** decomposition (§5), the
//! budgeted greedy edge selection with its heuristics (§6), the evaluation
//! baselines (§7.2), and a brute-force optimum oracle for tiny instances.
//!
//! The entry point is the [`Session`] API: one session per graph, any
//! number of queries through its typed builder, `Result`-based errors, and
//! anytime results ([`SolveRun`]) that stream per-iteration
//! [`SelectionStep`] events and answer every budget `≤ k` from one run.
//!
//! Quick start:
//!
//! ```
//! use flowmax_core::{Algorithm, CoreError, Session};
//! use flowmax_graph::{GraphBuilder, Probability, Weight};
//!
//! let mut b = GraphBuilder::new();
//! let q = b.add_vertex(Weight::ZERO);
//! let v = b.add_vertex(Weight::new(5.0).unwrap());
//! b.add_edge(q, v, Probability::new(0.8).unwrap()).unwrap();
//! let graph = b.build();
//!
//! let session = Session::new(&graph).with_seed(42);
//! let run = session.query(q)?.algorithm(Algorithm::FtM).budget(1).run()?;
//! assert!((run.flow - 4.0).abs() < 1e-9);
//! assert_eq!(run.steps.len(), 1); // one SelectionStep per selected edge
//! # Ok::<(), CoreError>(())
//! ```
//!
//! ## Serving
//!
//! For long-lived processes answering query streams, the [`serve`] module
//! wraps sessions in a daemon-grade front-end, [`FlowServer`]: graphs stay
//! **resident** (keyed by [`ProbabilisticGraph::fingerprint`], LRU-bounded
//! by [`ServeConfig::max_resident_graphs`]) together with their per-graph
//! [`SessionState`] (the bounded spanning-tree cache), so repeat queries
//! hit warm caches instead of rebuilding them. Admission is **bounded**:
//! at most [`ServeConfig::queue_capacity`] queries queue, and an overfull
//! queue rejects with [`ServeError::Overloaded`] carrying a retry-after
//! hint, instead of buffering without limit. Queued queries against the
//! same graph **coalesce** (up to [`ServeConfig::coalesce_max`]) into one
//! [`Session::run_many_with`] batch over the persistent worker pool, and
//! every query's [`Ticket`] streams anytime [`ServeEvent::Step`] events
//! while the batch runs. The serving contract is **deterministic replay**:
//! a result is a pure function of (graph fingerprint, [`QueryParams`],
//! seed) — any queue state, any coalescing, any thread count — so
//! resubmitting a query reproduces its selection and flows bit for bit. A
//! worker panic fails only the affected batch (with
//! [`CoreError::WorkerPanicked`]); the dispatcher and the pool stay
//! serviceable. The `flowmax-serve` binary exposes exactly this over a TCP
//! line protocol (see its `--help`).
//!
//! [`ProbabilisticGraph::fingerprint`]: flowmax_graph::ProbabilisticGraph::fingerprint

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cancel;
pub mod clock;
pub mod error;
pub mod estimator;
pub mod exact;
pub mod ftree;
pub mod metrics;
pub mod selection;
pub mod serve;
pub mod session;
pub mod solver;

pub use baselines::{dijkstra_select, dijkstra_select_from_tree, naive_select, NaiveConfig};
pub use cancel::{CancelToken, Deadline, RunControl, StopCause};
pub use clock::SoftDeadline;
pub use error::CoreError;
pub use estimator::{EstimateProvider, EstimatorConfig, SamplingProvider};
pub use exact::{exact_max_flow, ExactSolution, MAX_BRUTE_FORCE_EDGES};
pub use ftree::{
    ComponentId, ComponentRef, FTree, InsertCase, InsertReport, Journal, ProbeOutcome, ProbePlan,
    SampledProbe,
};
pub use metrics::SelectionMetrics;
pub use selection::{
    greedy_select, greedy_select_controlled, greedy_select_observed, CandidateSet, DelayTracker,
    GreedyConfig, MemoProvider, NoObserver, ProbeEngine, SelectionObserver, SelectionOutcome,
    SelectionStep,
};
pub use serve::{
    FlowServer, QueryParams, ServeConfig, ServeError, ServeEvent, ServeResult, ServeStats, Ticket,
};
pub use session::{
    QueryBuilder, QuerySpec, Session, SessionState, SolveRun, DEFAULT_SPANNING_CACHE_CAPACITY,
};
pub use solver::{evaluate_selection, evaluate_selection_with_threads, Algorithm};
