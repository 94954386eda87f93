//! The session-based solver API: reusable multi-query sessions, streaming
//! selection, and `Result`-based errors.
//!
//! The paper's greedy selection (§6.1) is *anytime*: no iteration ever
//! looks at the remaining budget, so the selection order at budget `k` is a
//! valid answer for every budget `≤ k`. A [`Session`] exploits that — and
//! the fact that per-graph state (the sampling worker configuration, seed
//! derivation, the evaluation estimator, the Dijkstra baseline's spanning
//! trees) is independent of any single query — to serve many queries and
//! budgets from one set of shared state:
//!
//! * [`Session::query`] starts a typed builder; [`QueryBuilder::run`]
//!   executes one query and returns a [`SolveRun`];
//! * [`QueryBuilder::run_with`] additionally **streams** one
//!   [`SelectionStep`] per committed edge while the run executes, and
//!   [`QueryBuilder::control`] lets a [`RunControl`] (cancellation token,
//!   deadline) stop any algorithm between iterations;
//! * [`SolveRun::flow_at`] evaluates any prefix of the selection, so one
//!   run at budget `K` answers every budget `≤ K` exactly as `K`
//!   independent runs would;
//! * [`Session::run_many`] shards a batch of independent queries across
//!   the configured worker threads — the multi-user serving mode.
//!
//! Every entry point returns `Result<_, CoreError>` instead of panicking
//! on invalid input.
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
//! assert_eq!(run.selected.len(), 1);
//! assert!((run.flow - 4.0).abs() < 1e-9);
//! # Ok::<(), CoreError>(())
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use flowmax_graph::{
    max_probability_spanning_tree_full, EdgeId, ProbabilisticGraph, SpanningTree, VertexId,
    DEFAULT_ENUMERATION_CAP,
};
use flowmax_sampling::ParallelEstimator;

use crate::baselines::{dijkstra_select, naive_select, NaiveConfig};
use crate::cancel::{RunControl, StopCause};
use crate::error::CoreError;
use crate::estimator::EstimatorConfig;
use crate::metrics::SelectionMetrics;
use crate::selection::greedy::{greedy_select, GreedyConfig, ProbeEngine};
use crate::selection::observer::{NoObserver, SelectionObserver, SelectionStep};
use crate::solver::{evaluate_selection, Algorithm};

/// Seed-stream tag separating the shared evaluator's randomness from the
/// selection's.
pub(crate) const EVAL_SEED_TAG: u64 = 0xE7A1;

/// Default bound of the per-graph spanning-tree cache: plenty for a few hot
/// Dijkstra roots, small enough that a daemon serving arbitrary query
/// vertices can never leak (each tree is O(V)).
pub const DEFAULT_SPANNING_CACHE_CAPACITY: usize = 32;

/// A bounded LRU of Dijkstra spanning trees keyed by root vertex.
/// Most-recently-used entries live at the back of the deque; capacity is
/// at least 1. Linear scans are fine: the capacity is tens, not millions,
/// and each hit already amortizes an O(E log V) Dijkstra run.
#[derive(Debug)]
struct TreeLru {
    capacity: usize,
    entries: VecDeque<(VertexId, Arc<SpanningTree>)>,
}

impl TreeLru {
    fn new(capacity: usize) -> Self {
        TreeLru {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    fn get_or_insert_with(
        &mut self,
        key: VertexId,
        make: impl FnOnce() -> Arc<SpanningTree>,
    ) -> Arc<SpanningTree> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let hit = self.entries.remove(pos).expect("position came from iter");
            self.entries.push_back(hit);
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back((key, make()));
        }
        self.entries.back().expect("just pushed").1.clone()
    }
}

/// The shareable per-graph half of a [`Session`]: today, the bounded
/// spanning-tree cache behind the Dijkstra baseline.
///
/// Sessions are cheap, short-lived views (`Session<'g>` borrows its
/// graph); a long-lived server instead keeps one `Arc<SessionState>` per
/// resident graph and hands it to every session over that graph via
/// [`Session::with_state`], so warm state survives individual sessions.
/// **A state must only ever be shared between sessions over the same
/// graph** — trees are keyed by root vertex alone.
///
/// The cache is bounded (LRU, default
/// [`DEFAULT_SPANNING_CACHE_CAPACITY`]), so a daemon serving arbitrary
/// query vertices cannot leak, and lock poisoning is recovered via
/// [`PoisonError::into_inner`] instead of panicking: a tree is either
/// fully inserted or absent, so the cache is valid after any panic and
/// one crashed query cannot take the whole session (or server) down.
#[derive(Debug)]
pub struct SessionState {
    spanning_trees: Mutex<TreeLru>,
}

impl SessionState {
    /// A fresh state with the default spanning-tree cache capacity.
    pub fn new() -> Self {
        SessionState::with_capacity(DEFAULT_SPANNING_CACHE_CAPACITY)
    }

    /// A fresh state whose spanning-tree cache holds at most `capacity`
    /// trees (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SessionState {
            spanning_trees: Mutex::new(TreeLru::new(capacity)),
        }
    }

    /// Trees currently cached (for stats endpoints and tests).
    pub fn cached_trees(&self) -> usize {
        self.lock_trees().entries.len()
    }

    fn lock_trees(&self) -> std::sync::MutexGuard<'_, TreeLru> {
        // A panicked query thread poisons the mutex but never leaves the
        // LRU half-updated (insertions happen via a completed
        // `get_or_insert_with`), so recovering the guard is sound.
        self.spanning_trees
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState::new()
    }
}

/// A reusable multi-query solver session over one probabilistic graph.
///
/// The session owns everything that is per-graph rather than per-query:
/// the worker-thread count for Monte-Carlo sampling, the master seed that
/// queries derive their seeds from, the shared high-fidelity evaluation
/// estimator, and a cache of Dijkstra spanning trees keyed by query
/// vertex. Queries are configured through [`Session::query`]'s typed
/// builder and executed with [`QueryBuilder::run`] /
/// [`Session::run_many`].
///
/// Results never depend on the worker count or on whether queries run
/// solo or batched — only wall-clock time does.
#[derive(Debug)]
pub struct Session<'g> {
    graph: &'g ProbabilisticGraph,
    threads: usize,
    seed: u64,
    evaluation: EstimatorConfig,
    state: Arc<SessionState>,
}

impl<'g> Session<'g> {
    /// A session over `graph` with the paper's defaults: master seed 42,
    /// the hybrid evaluation estimator, and the `FLOWMAX_THREADS` worker
    /// count (default 1).
    pub fn new(graph: &'g ProbabilisticGraph) -> Self {
        Session {
            graph,
            threads: flowmax_sampling::default_threads(),
            seed: 42,
            evaluation: EstimatorConfig::hybrid(16, 3000),
            state: Arc::new(SessionState::new()),
        }
    }

    /// Sets the worker-thread count for Monte-Carlo sampling. A request of
    /// 0 is invalid and clamped to 1 with a one-time process-wide stderr
    /// warning — the same story as `FLOWMAX_THREADS` parsing and the CLI's
    /// `--threads`. Changing this never changes results, only wall-clock
    /// time — every sampling engine in the workspace is thread-count
    /// invariant.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = flowmax_sampling::clamp_threads(threads, "Session::with_threads");
        self
    }

    /// Kept for perfbench, which names the lane width it measures: accepts
    /// only [`flowmax_sampling::LANE_WORDS`] and panics on any other width.
    pub fn with_lane_words(self, lane_words: usize) -> Self {
        assert_eq!(
            lane_words,
            flowmax_sampling::LANE_WORDS,
            "the lane width is fixed"
        );
        self
    }

    /// Shares per-graph state (the bounded spanning-tree cache) with this
    /// session — the serving path, where sessions are short-lived views
    /// over a resident graph and its long-lived [`SessionState`]. The
    /// state **must** belong to this session's graph.
    pub fn with_state(mut self, state: Arc<SessionState>) -> Self {
        self.state = state;
        self
    }

    /// Replaces the session's state with a fresh one whose spanning-tree
    /// cache holds at most `capacity` trees (clamped to at least 1).
    pub fn with_spanning_cache_capacity(mut self, capacity: usize) -> Self {
        self.state = Arc::new(SessionState::with_capacity(capacity));
        self
    }

    /// The session's shareable per-graph state.
    pub fn state(&self) -> &Arc<SessionState> {
        &self.state
    }

    /// Sets the master seed that queries default to.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shared high-fidelity estimator used to evaluate every
    /// final selection (and [`SolveRun::flow_at`] prefixes) uniformly
    /// across algorithms.
    pub fn with_evaluation(mut self, evaluation: EstimatorConfig) -> Self {
        self.evaluation = evaluation;
        self
    }

    /// The graph this session serves.
    pub fn graph(&self) -> &'g ProbabilisticGraph {
        self.graph
    }

    /// The sampling worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared evaluation estimator.
    pub fn evaluation(&self) -> EstimatorConfig {
        self.evaluation
    }

    /// Starts a query builder for query vertex `query`, at the paper's
    /// defaults (`FT+M+CI+DS`, 1000 samples, α = 0.01, c = 2, the
    /// session's master seed). The budget starts at 0 and **must** be set
    /// with [`QueryBuilder::budget`] before running.
    ///
    /// # Errors
    ///
    /// [`CoreError::QueryOutOfBounds`] if `query` is not a vertex of the
    /// session's graph.
    pub fn query(&self, query: VertexId) -> Result<QueryBuilder<'_, 'g>, CoreError> {
        if query.index() >= self.graph.vertex_count() {
            return Err(CoreError::QueryOutOfBounds {
                query,
                vertex_count: self.graph.vertex_count(),
            });
        }
        Ok(QueryBuilder {
            session: self,
            spec: QuerySpec {
                vertex: query,
                algorithm: Algorithm::FtMCiDs,
                budget: 0,
                samples: 1000,
                exact_edge_cap: 0,
                alpha: 0.01,
                ds_penalty_c: 2.0,
                include_query: false,
                seed: self.seed,
                control: RunControl::unlimited(),
            },
        })
    }

    /// Runs a batch of independent queries, sharding them across the
    /// session's worker threads, and returns one [`SolveRun`] per spec in
    /// input order. `on_step` receives `(spec index, step)` for every
    /// committed edge of every query, as it commits — the serving daemon
    /// streams anytime partial selections to each client this way while
    /// the batch executes. Pass `&|_, _| {}` to stream nothing.
    ///
    /// Each query is bit-identical to running it solo through
    /// [`QueryBuilder::run`], at any thread count: when the batch is
    /// sharded, each query samples single-threaded on its worker, and
    /// every estimator in the workspace is thread-count invariant. Each
    /// spec carries its own [`RunControl`] (set with
    /// [`QueryBuilder::control`]); a stopped query reports its cause in
    /// [`SolveRun::stopped`], and its selection is the same-seed
    /// uncontrolled run's prefix of the same length, bit for bit.
    ///
    /// Steps of one spec arrive in commit order; steps of different specs
    /// interleave arbitrarily (they execute concurrently), so `on_step`
    /// must be `Sync` and demultiplex by the spec index.
    ///
    /// # Errors
    ///
    /// Validates every spec up front (budget ≥ 1, samples ≥ 1, query in
    /// bounds, exact-enumeration caps at most [`DEFAULT_ENUMERATION_CAP`])
    /// and returns the first violation before any work runs.
    ///
    /// ```
    /// use flowmax_core::{Algorithm, CoreError, Session};
    /// use flowmax_graph::{GraphBuilder, Probability, VertexId, Weight};
    ///
    /// let mut b = GraphBuilder::new();
    /// b.add_vertex(Weight::ZERO);
    /// for w in [5.0, 3.0, 8.0] {
    ///     b.add_vertex(Weight::new(w).unwrap());
    /// }
    /// let p = |v| Probability::new(v).unwrap();
    /// b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
    /// b.add_edge(VertexId(1), VertexId(2), p(0.7)).unwrap();
    /// b.add_edge(VertexId(0), VertexId(3), p(0.6)).unwrap();
    /// b.add_edge(VertexId(2), VertexId(3), p(0.5)).unwrap();
    /// let graph = b.build();
    ///
    /// // Multi-user serving: several queries, one shared session.
    /// let session = Session::new(&graph);
    /// let specs = vec![
    ///     session.query(VertexId(0))?.budget(2).samples(200).spec(),
    ///     session.query(VertexId(2))?.budget(3).samples(200).spec(),
    ///     session.query(VertexId(0))?.budget(2).samples(200).spec(),
    /// ];
    /// let runs = session.run_many(&specs, &|_, _| {})?;
    /// assert_eq!(runs.len(), 3);
    ///
    /// // Batched runs are bit-identical to solo runs of the same spec.
    /// let solo = session.query(VertexId(0))?.budget(2).samples(200).run()?;
    /// assert_eq!(runs[0].selected, solo.selected);
    /// assert_eq!(runs[0].flow, solo.flow);
    /// // Repeated queries are bit-identical to each other.
    /// assert_eq!(runs[0].selected, runs[2].selected);
    /// assert_eq!(runs[0].flow, runs[2].flow);
    /// # Ok::<(), CoreError>(())
    /// ```
    pub fn run_many(
        &self,
        specs: &[QuerySpec],
        on_step: &(dyn Fn(usize, &SelectionStep) + Sync),
    ) -> Result<Vec<SolveRun<'g>>, CoreError> {
        for spec in specs {
            self.validate(spec)?;
        }
        if specs.len() <= 1 || self.threads <= 1 {
            return Ok(specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    self.execute(
                        spec,
                        self.threads,
                        &mut IndexedForward { index: i, on_step },
                    )
                })
                .collect());
        }
        let pool = ParallelEstimator::new(self.threads);
        let mut runs = pool.run_jobs(specs.len(), |i| {
            // Workers run whole queries, so each query samples on one
            // thread; thread-count invariance makes this bit-identical to
            // a solo multi-threaded run.
            self.execute(&specs[i], 1, &mut IndexedForward { index: i, on_step })
        });
        for run in &mut runs {
            // The batch is done: later prefix evaluations (`flow_at`) run
            // solo, so give them the session's full worker count (results
            // are identical at any count, only wall-clock time changes).
            run.threads = self.threads;
        }
        Ok(runs)
    }

    fn validate(&self, spec: &QuerySpec) -> Result<(), CoreError> {
        if spec.vertex.index() >= self.graph.vertex_count() {
            return Err(CoreError::QueryOutOfBounds {
                query: spec.vertex,
                vertex_count: self.graph.vertex_count(),
            });
        }
        if spec.budget == 0 {
            return Err(CoreError::EmptyBudget);
        }
        if spec.samples == 0 {
            return Err(CoreError::ZeroSamples);
        }
        for cap in [spec.exact_edge_cap, self.evaluation.exact_edge_cap] {
            if cap > DEFAULT_ENUMERATION_CAP {
                return Err(CoreError::ExactEdgeCapTooLarge {
                    cap,
                    max: DEFAULT_ENUMERATION_CAP,
                });
            }
        }
        Ok(())
    }

    /// The cached maximum-probability spanning tree rooted at `query`
    /// (computed on first use; reused by every later Dijkstra query until
    /// LRU-evicted — see [`SessionState`]).
    fn spanning_tree(&self, query: VertexId) -> Arc<SpanningTree> {
        self.state.lock_trees().get_or_insert_with(query, || {
            Arc::new(max_probability_spanning_tree_full(self.graph, query))
        })
    }

    /// Runs one (validated) spec under its own [`RunControl`].
    pub(crate) fn execute(
        &self,
        spec: &QuerySpec,
        threads: usize,
        observer: &mut dyn SelectionObserver,
    ) -> SolveRun<'g> {
        let mut collector = StepCollector {
            steps: Vec::new(),
            forward: observer,
        };
        let start = crate::clock::monotonic_now();
        let outcome = match spec.algorithm {
            Algorithm::Naive => naive_select(
                self.graph,
                spec.vertex,
                &NaiveConfig {
                    budget: spec.budget,
                    samples: spec.samples,
                    include_query: spec.include_query,
                    seed: spec.seed,
                    threads,
                },
                &spec.control,
                &mut collector,
            ),
            Algorithm::Dijkstra => dijkstra_select(
                self.graph,
                &self.spanning_tree(spec.vertex),
                spec.budget,
                spec.include_query,
                &spec.control,
                &mut collector,
            ),
            _ => greedy_select(
                self.graph,
                spec.vertex,
                &spec.greedy_config(threads),
                &spec.control,
                &mut collector,
            ),
        };
        let elapsed = start.elapsed();
        let eval_seed = spec.seed ^ EVAL_SEED_TAG;
        // Evaluate the selection in the algorithm's own output order
        // (ascending edge ids for the F-tree algorithms, commit order for
        // the baselines): the insertion order fixes the evaluator's RNG
        // call sequence, and `flow_at` mirrors it for prefixes.
        let flow = evaluate_selection(
            self.graph,
            spec.vertex,
            &outcome.selected,
            self.evaluation,
            spec.include_query,
            eval_seed,
            threads,
        );
        // The public selection is the *commit order* (one edge per step);
        // it is the same edge set as `outcome.selected`.
        let selected: Vec<EdgeId> = collector.steps.iter().map(|s| s.edge).collect();
        debug_assert_eq!(selected.len(), outcome.selected.len());
        SolveRun {
            graph: self.graph,
            evaluation: self.evaluation,
            include_query: spec.include_query,
            eval_seed,
            threads,
            query: spec.vertex,
            algorithm: spec.algorithm,
            selected,
            steps: collector.steps,
            flow,
            algorithm_flow: outcome.final_flow,
            elapsed,
            metrics: outcome.metrics,
            stopped: outcome.stopped,
        }
    }
}

/// Adapts a shared `(spec index, step)` callback to the per-query
/// [`SelectionObserver`] seam, for [`Session::run_many`].
struct IndexedForward<'a> {
    index: usize,
    on_step: &'a (dyn Fn(usize, &SelectionStep) + Sync),
}

impl SelectionObserver for IndexedForward<'_> {
    fn on_step(&mut self, step: &SelectionStep) {
        (self.on_step)(self.index, step);
    }
}

/// Collects the step stream for [`SolveRun::steps`] while forwarding each
/// event to the caller's observer.
struct StepCollector<'a> {
    steps: Vec<SelectionStep>,
    forward: &'a mut dyn SelectionObserver,
}

impl SelectionObserver for StepCollector<'_> {
    fn on_step(&mut self, step: &SelectionStep) {
        self.steps.push(*step);
        self.forward.on_step(step);
    }
}

/// A fully resolved query plan: the output of [`Session::query`]'s builder
/// and the input of [`Session::run_many`].
///
/// Specs are plain values, so a serving loop can build them once and replay
/// them; construct them through the builder so the query vertex is
/// validated against the session's graph. A spec carries its
/// [`RunControl`], and clones share its cancellation token.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub(crate) vertex: VertexId,
    pub(crate) algorithm: Algorithm,
    pub(crate) budget: usize,
    pub(crate) samples: u32,
    pub(crate) exact_edge_cap: usize,
    pub(crate) alpha: f64,
    pub(crate) ds_penalty_c: f64,
    pub(crate) include_query: bool,
    pub(crate) seed: u64,
    pub(crate) control: RunControl,
}

impl QuerySpec {
    /// The query vertex.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The edge budget `k`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The single conversion path from a query spec to the greedy
    /// selection's configuration: both structs are handled exhaustively
    /// (no `..` on either side), so adding a knob to one of them is a
    /// compile error here instead of a silently missing field.
    pub(crate) fn greedy_config(&self, threads: usize) -> GreedyConfig {
        let QuerySpec {
            vertex: _,
            algorithm,
            budget,
            samples,
            exact_edge_cap,
            alpha,
            ds_penalty_c,
            include_query,
            seed,
            control: _,
        } = *self;
        let (memoize, confidence_pruning, delayed_sampling) = match algorithm {
            Algorithm::Naive | Algorithm::Dijkstra | Algorithm::Ft => (false, false, false),
            Algorithm::FtM => (true, false, false),
            Algorithm::FtMCi => (true, true, false),
            Algorithm::FtMDs => (true, false, true),
            Algorithm::FtMCiDs => (true, true, true),
        };
        GreedyConfig {
            budget,
            samples,
            exact_edge_cap,
            memoize,
            confidence_pruning,
            delayed_sampling,
            ds_penalty_c,
            alpha,
            include_query,
            seed,
            threads,
            probe_engine: ProbeEngine::Incremental,
        }
    }
}

/// A typed, chainable configuration builder for one query, created by
/// [`Session::query`]. Finish with [`run`](QueryBuilder::run),
/// [`run_with`](QueryBuilder::run_with) for streaming, or
/// [`spec`](QueryBuilder::spec) to extract the plan for
/// [`Session::run_many`].
#[derive(Debug, Clone)]
pub struct QueryBuilder<'s, 'g> {
    session: &'s Session<'g>,
    spec: QuerySpec,
}

impl<'s, 'g> QueryBuilder<'s, 'g> {
    /// Selects the algorithm (default: the paper's headline
    /// `FT+M+CI+DS`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.spec.algorithm = algorithm;
        self
    }

    /// Sets the edge budget `k` (required; `run` rejects 0).
    pub fn budget(mut self, budget: usize) -> Self {
        self.spec.budget = budget;
        self
    }

    /// Sets the Monte-Carlo samples per component estimation (paper:
    /// 1000).
    pub fn samples(mut self, samples: u32) -> Self {
        self.spec.samples = samples;
        self
    }

    /// Components with at most this many uncertain edges are enumerated
    /// exactly during selection instead of sampled (0 = pure Monte-Carlo,
    /// the paper's setting). `run` rejects a cap above
    /// [`DEFAULT_ENUMERATION_CAP`].
    pub fn exact_edge_cap(mut self, cap: usize) -> Self {
        self.spec.exact_edge_cap = cap;
        self
    }

    /// Sets the CI significance level `α` (paper: 0.01).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.spec.alpha = alpha;
        self
    }

    /// Sets the delayed-sampling penalty `c` (paper: 2).
    pub fn ds_penalty_c(mut self, c: f64) -> Self {
        self.spec.ds_penalty_c = c;
        self
    }

    /// Whether `W(Q)` counts toward the flow (default: no).
    pub fn include_query(mut self, include: bool) -> Self {
        self.spec.include_query = include;
        self
    }

    /// Overrides the session's master seed for this query.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the run control: a cancellation token and/or deadline
    /// (default: [`RunControl::unlimited`]). Every algorithm checks it
    /// between iterations: a stopped run reports its cause in
    /// [`SolveRun::stopped`] and its selection is bit-identical to the
    /// same-seed uncontrolled run's prefix of the same length.
    pub fn control(mut self, control: RunControl) -> Self {
        self.spec.control = control;
        self
    }

    /// Extracts the validated query plan, e.g. for [`Session::run_many`].
    pub fn spec(self) -> QuerySpec {
        self.spec
    }

    /// Runs the query.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyBudget`] if no budget was set (or it is 0);
    /// [`CoreError::ZeroSamples`] if the sample budget is 0;
    /// [`CoreError::ExactEdgeCapTooLarge`] if the query's or the session's
    /// evaluation exact-enumeration cap exceeds [`DEFAULT_ENUMERATION_CAP`].
    pub fn run(self) -> Result<SolveRun<'g>, CoreError> {
        self.run_with(&mut NoObserver)
    }

    /// Runs the query, streaming one [`SelectionStep`] per committed edge
    /// to `observer` while the selection executes. Closures observe too:
    ///
    /// ```no_run
    /// # use flowmax_core::{Algorithm, CoreError, SelectionStep, Session};
    /// # use flowmax_graph::{GraphBuilder, VertexId, Weight};
    /// # let graph = { let mut b = GraphBuilder::new(); b.add_vertex(Weight::ZERO); b.build() };
    /// # let session = Session::new(&graph);
    /// let run = session
    ///     .query(VertexId(0))?
    ///     .budget(8)
    ///     .run_with(&mut |step: &SelectionStep| {
    ///         println!("picked {} (flow {:.3})", step.edge, step.flow);
    ///     })?;
    /// # Ok::<(), CoreError>(())
    /// ```
    pub fn run_with(self, observer: &mut dyn SelectionObserver) -> Result<SolveRun<'g>, CoreError> {
        self.session.validate(&self.spec)?;
        Ok(self
            .session
            .execute(&self.spec, self.session.threads, observer))
    }
}

/// The result of one session query: the full anytime record of a
/// selection run, not just its endpoint.
///
/// Besides the selection and its flow, a run keeps the per-iteration
/// [`steps`](SolveRun::steps) stream and can evaluate any prefix of its
/// selection with [`flow_at`](SolveRun::flow_at) — one run at budget `K`
/// answers every budget `≤ K` exactly as independent runs would.
#[derive(Debug, Clone)]
pub struct SolveRun<'g> {
    graph: &'g ProbabilisticGraph,
    evaluation: EstimatorConfig,
    include_query: bool,
    eval_seed: u64,
    threads: usize,
    /// The query vertex.
    pub query: VertexId,
    /// The algorithm that produced the run.
    pub algorithm: Algorithm,
    /// Selected edges in commit (selection) order — `selected[i]` is the
    /// edge of `steps[i]`.
    pub selected: Vec<EdgeId>,
    /// One step per committed edge, in commit order.
    pub steps: Vec<SelectionStep>,
    /// Flow of the full selection under the session's shared
    /// high-fidelity evaluator.
    pub flow: f64,
    /// Flow as estimated by the algorithm itself during selection.
    pub algorithm_flow: f64,
    /// Wall-clock time of the selection (excludes final evaluation).
    pub elapsed: Duration,
    /// Work counters from the selection.
    pub metrics: SelectionMetrics,
    /// Why the run stopped early, if it did. `None` means the run used
    /// its full edge budget (or exhausted the candidate pool). `Some`
    /// means a [`RunControl`] stopped it between iterations — the
    /// selection is then bit-identical to the same-seed uncontrolled
    /// run's prefix of the same length.
    pub stopped: Option<StopCause>,
}

impl SolveRun<'_> {
    /// The selection truncated to `budget` edges — exactly the selection
    /// an independent run of the same spec at that budget would produce
    /// (the anytime prefix property).
    pub fn selection_at(&self, budget: usize) -> &[EdgeId] {
        &self.selected[..budget.min(self.selected.len())]
    }

    /// Evaluates the first `budget` selected edges with the session's
    /// shared evaluator — bit-identical to the `flow` of an independent
    /// run of the same spec at budget `budget`.
    pub fn flow_at(&self, budget: usize) -> f64 {
        if budget >= self.selected.len() {
            return self.flow;
        }
        // An independent run at this budget would hand the evaluator its
        // own output order: ascending edge ids for the F-tree algorithms
        // (their selection is an `EdgeSubset`), commit order for the
        // baselines. Mirror that exactly so the sampled evaluation draws
        // the same estimates bit for bit.
        let mut prefix = self.selection_at(budget).to_vec();
        if !matches!(self.algorithm, Algorithm::Naive | Algorithm::Dijkstra) {
            prefix.sort_unstable();
        }
        evaluate_selection(
            self.graph,
            self.query,
            &prefix,
            self.evaluation,
            self.include_query,
            self.eval_seed,
            self.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// The solver-test graph: unambiguous greedy ranking.
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

    #[test]
    fn builder_validates_inputs() {
        let g = graph();
        let session = Session::new(&g);
        assert!(matches!(
            session.query(VertexId(99)),
            Err(CoreError::QueryOutOfBounds { .. })
        ));
        let no_budget = session.query(VertexId(0)).unwrap().run();
        assert!(matches!(no_budget, Err(CoreError::EmptyBudget)));
        let no_samples = session
            .query(VertexId(0))
            .unwrap()
            .budget(2)
            .samples(0)
            .run();
        assert!(matches!(no_samples, Err(CoreError::ZeroSamples)));
    }

    /// Exact-enumeration caps above 24 are rejected before any work runs,
    /// whether on the query or on the session's evaluation estimator.
    #[test]
    fn caps_past_the_enumeration_cap_are_rejected() {
        let g = graph();
        let session = Session::new(&g);
        let query = || session.query(VertexId(0)).unwrap().budget(2).samples(50);
        let too_large = Err(CoreError::ExactEdgeCapTooLarge { cap: 25, max: 24 });
        assert_eq!(query().exact_edge_cap(25).run().map(|r| r.flow), too_large);
        assert!(query().exact_edge_cap(24).run().is_ok());
        let evaluated = Session::new(&g).with_evaluation(EstimatorConfig::hybrid(25, 100));
        let run = evaluated.query(VertexId(0)).unwrap().budget(2).run();
        assert_eq!(run.map(|r| r.flow), too_large);
    }

    #[test]
    fn run_streams_one_step_per_selected_edge() {
        let g = graph();
        let session = Session::new(&g).with_seed(7);
        let mut streamed = Vec::new();
        let run = session
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::FtM)
            .budget(3)
            .run_with(&mut |s: &SelectionStep| streamed.push(s.edge))
            .unwrap();
        assert_eq!(run.steps.len(), run.selected.len());
        assert_eq!(streamed, run.selected);
        for (i, step) in run.steps.iter().enumerate() {
            assert_eq!(step.iteration, i);
            assert_eq!(step.edge, run.selected[i]);
        }
        // The cumulative flow of the last step is the run's own estimate.
        assert_eq!(run.steps.last().unwrap().flow, run.algorithm_flow);
    }

    #[test]
    fn flow_at_full_budget_is_the_final_flow() {
        let g = graph();
        let session = Session::new(&g).with_seed(3);
        let run = session
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::FtMCiDs)
            .budget(4)
            .run()
            .unwrap();
        assert_eq!(run.flow_at(run.selected.len()), run.flow);
        assert_eq!(run.flow_at(usize::MAX), run.flow);
        assert_eq!(run.flow_at(0), 0.0);
        assert_eq!(run.selection_at(2), &run.selected[..2]);
    }

    #[test]
    fn dijkstra_spanning_tree_is_cached_across_queries() {
        let g = graph();
        let session = Session::new(&g);
        let a = session
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(2)
            .run()
            .unwrap();
        assert_eq!(session.state().cached_trees(), 1);
        let b = session
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(4)
            .run()
            .unwrap();
        assert_eq!(session.state().cached_trees(), 1);
        // Anytime property across budgets on the cached tree.
        assert_eq!(a.selected, b.selection_at(2));
    }

    #[test]
    fn spanning_tree_cache_is_bounded_lru() {
        let g = graph();
        let session = Session::new(&g).with_spanning_cache_capacity(2);
        for v in [0u32, 1, 2, 3, 4] {
            session
                .query(VertexId(v))
                .unwrap()
                .algorithm(Algorithm::Dijkstra)
                .budget(1)
                .run()
                .unwrap();
            assert!(
                session.state().cached_trees() <= 2,
                "cache exceeded its bound after root {v}"
            );
        }
        // Re-querying the most recent roots must not grow the cache.
        for v in [3u32, 4, 3, 4] {
            session
                .query(VertexId(v))
                .unwrap()
                .algorithm(Algorithm::Dijkstra)
                .budget(1)
                .run()
                .unwrap();
        }
        assert_eq!(session.state().cached_trees(), 2);
        // An evicted root recomputes the same tree: selections agree with
        // a fresh session's.
        let evicted = session
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(2)
            .run()
            .unwrap();
        let fresh = Session::new(&g)
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(2)
            .run()
            .unwrap();
        assert_eq!(evicted.selected, fresh.selected);
    }

    #[test]
    fn spanning_tree_cache_recovers_from_poison() {
        let g = graph();
        let session = Session::new(&g);
        session
            .query(VertexId(0))
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(1)
            .run()
            .unwrap();
        // Poison the cache mutex: panic while holding the lock on another
        // thread, as a crashing query thread would.
        let state = session.state();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = state.spanning_trees.lock().unwrap();
                panic!("query thread dies while holding the cache lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(state.spanning_trees.lock().is_err(), "mutex is poisoned");
        // The session keeps serving: the cached tree is still readable and
        // new roots still insert.
        assert_eq!(session.state().cached_trees(), 1);
        let run = session
            .query(VertexId(2))
            .unwrap()
            .algorithm(Algorithm::Dijkstra)
            .budget(2)
            .run()
            .unwrap();
        assert_eq!(run.selected.len(), 2);
        assert_eq!(session.state().cached_trees(), 2);
    }

    #[test]
    fn run_many_with_streams_indexed_steps() {
        let g = graph();
        for threads in [1usize, 4] {
            let session = Session::new(&g).with_threads(threads).with_seed(9);
            let specs = vec![
                session
                    .query(VertexId(0))
                    .unwrap()
                    .algorithm(Algorithm::FtM)
                    .budget(2)
                    .spec(),
                session
                    .query(VertexId(3))
                    .unwrap()
                    .algorithm(Algorithm::FtM)
                    .budget(3)
                    .spec(),
            ];
            let streamed: Mutex<Vec<Vec<SelectionStep>>> = Mutex::new(vec![Vec::new(); 2]);
            let runs = session
                .run_many(&specs, &|i, step| streamed.lock().unwrap()[i].push(*step))
                .unwrap();
            let streamed = streamed.into_inner().unwrap();
            for (run, got) in runs.iter().zip(&streamed) {
                assert_eq!(run.steps.len(), got.len(), "threads={threads}");
                for (a, b) in run.steps.iter().zip(got) {
                    assert_eq!(a.edge, b.edge);
                    assert_eq!(a.iteration, b.iteration);
                }
            }
        }
    }

    #[test]
    fn run_many_matches_solo_runs_in_order() {
        let g = graph();
        for threads in [1usize, 2, 8] {
            let session = Session::new(&g).with_threads(threads).with_seed(11);
            let specs = vec![
                session
                    .query(VertexId(0))
                    .unwrap()
                    .algorithm(Algorithm::FtM)
                    .budget(2)
                    .spec(),
                session
                    .query(VertexId(3))
                    .unwrap()
                    .algorithm(Algorithm::FtMCiDs)
                    .budget(3)
                    .spec(),
                session
                    .query(VertexId(0))
                    .unwrap()
                    .algorithm(Algorithm::Naive)
                    .budget(2)
                    .samples(100)
                    .spec(),
            ];
            let runs = session.run_many(&specs, &|_, _| {}).unwrap();
            assert_eq!(runs.len(), specs.len());
            for (spec, run) in specs.iter().zip(&runs) {
                let solo = QueryBuilder {
                    session: &session,
                    spec: spec.clone(),
                }
                .run()
                .unwrap();
                assert_eq!(solo.selected, run.selected, "threads={threads}");
                assert_eq!(solo.flow, run.flow, "threads={threads}");
                assert_eq!(solo.algorithm_flow, run.algorithm_flow);
            }
        }
    }

    #[test]
    fn run_many_validates_before_running() {
        let g = graph();
        let session = Session::new(&g);
        let good = session.query(VertexId(0)).unwrap().budget(1).spec();
        let bad = session.query(VertexId(0)).unwrap().spec(); // budget 0
        assert!(matches!(
            session.run_many(&[good, bad], &|_, _| {}),
            Err(CoreError::EmptyBudget)
        ));
        assert!(session.run_many(&[], &|_, _| {}).unwrap().is_empty());
    }
}
