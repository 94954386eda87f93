//! The serving layer behind the `flowmax-serve` daemon: resident graphs,
//! admission control, query coalescing, and streamed anytime results —
//! all testable in-process, no sockets involved.
//!
//! A [`FlowServer`] answers the paper's workload shape — many
//! flow-maximization queries against a few hot graphs — from one process
//! that outlives every query:
//!
//! * **Graph residency.** [`FlowServer::load_graph`] keys each graph by its
//!   content [`fingerprint`](flowmax_graph::ProbabilisticGraph::fingerprint)
//!   and keeps the most recently used `max_resident_graphs` resident, each
//!   with its warm per-graph [`SessionState`] (the bounded spanning-tree
//!   cache). Reloading a resident graph is a cache hit, not a rebuild.
//! * **Admission control.** [`FlowServer::submit`] enqueues into a bounded
//!   queue. A full queue rejects immediately with
//!   [`ServeError::Overloaded`] and a retry-after hint — backpressure, not
//!   unbounded buffering.
//! * **Coalescing.** The dispatcher drains up to `coalesce_max` queued
//!   queries against the same graph into one
//!   [`Session::run_many`] batch, so concurrent clients share one
//!   session and the worker pool sees one large job instead of many small
//!   ones. Batching never changes results: a batched query is bit-identical
//!   to a solo run of the same spec.
//! * **Streaming.** Each submission returns a [`Ticket`] that yields
//!   [`ServeEvent::Step`] per committed edge while the query runs (the
//!   greedy selection is anytime, so every prefix is a valid answer), then
//!   [`ServeEvent::Done`] or [`ServeEvent::Failed`].
//! * **Deadlines & cancellation.** A query may carry a wall-clock budget
//!   ([`QueryParams::deadline_ms`], measured from admission) and every
//!   [`FlowServer::submit`] returns a [`CancelToken`] beside its ticket.
//!   Both stop the run, whatever its algorithm, *between* iterations;
//!   the ticket then ends with
//!   [`ServeEvent::Degraded`] whose committed prefix is bit-identical to
//!   the same-seed full run's prefix — graceful degradation, not a
//!   corrupted answer.
//! * **Deterministic replay.** The serving contract: a query is a pure
//!   function of `(graph fingerprint, QueryParams, seed)`. Replaying the
//!   same submission — any time, any queue state, any coalescing, any
//!   thread count — returns a bit-identical selection and flow. A worker
//!   panicking mid-query fails that query with
//!   [`CoreError::WorkerPanicked`]; the pool and the server stay up.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};

use crate::cancel::{CancelToken, Deadline, RunControl};
use crate::clock::SoftDeadline;
use crate::error::{panic_message, CoreError};
use crate::selection::observer::SelectionStep;
use crate::session::{Session, SessionState};
use crate::solver::Algorithm;

/// Configuration of a [`FlowServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Sampling worker threads per executing batch (0 is clamped to 1
    /// with the process-wide warning, like everywhere else).
    pub threads: usize,
    /// Graphs kept resident (LRU beyond this; at least 1).
    pub max_resident_graphs: usize,
    /// Bounded admission queue capacity (at least 1). A submit against a
    /// full queue is rejected with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum queries coalesced into one batch (at least 1).
    pub coalesce_max: usize,
    /// Base retry hint handed back with [`ServeError::Overloaded`]. The
    /// live hint scales with queue depth (see
    /// [`FlowServer::retry_after_hint`]): at the lightest overload it is
    /// exactly this value, and it grows with the number of batches the
    /// backlog needs, capped at 32× the base.
    pub retry_after: Duration,
    /// Server-default master seed for queries that don't pin one.
    pub seed: u64,
    /// Start with the dispatcher paused (queries queue but don't run until
    /// [`FlowServer::resume`]) — for tests and drain-then-start rollouts.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: flowmax_sampling::default_threads(),
            max_resident_graphs: 4,
            queue_capacity: 64,
            coalesce_max: 16,
            retry_after: Duration::from_millis(50),
            seed: 42,
            start_paused: false,
        }
    }
}

/// One query as a client states it: everything needed to replay the result
/// bit for bit, independent of server load, queue state, or coalescing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryParams {
    /// The query vertex `Q`.
    pub vertex: VertexId,
    /// The selection algorithm (default: the paper's `FT+M+CI+DS`).
    pub algorithm: Algorithm,
    /// The edge budget `k` (must be ≥ 1).
    pub budget: usize,
    /// Monte-Carlo samples per component estimation (must be ≥ 1).
    pub samples: u32,
    /// Master seed override; `None` uses the server's configured seed.
    pub seed: Option<u64>,
    /// Wall-clock budget in milliseconds, measured from admission. An
    /// expired deadline stops the greedy run between iterations and the
    /// ticket ends with [`ServeEvent::Degraded`] instead of `Done` — the
    /// degraded selection is bit-identical to the same-seed full run's
    /// prefix (the anytime property). `None` means no deadline. The
    /// deadline never affects *what* any committed step computes, so it is
    /// outside the replay key: `(fingerprint, params minus deadline,
    /// seed)` still determines every committed step bit for bit.
    pub deadline_ms: Option<u64>,
}

impl QueryParams {
    /// Params at the paper's defaults for `vertex` and `budget`.
    pub fn new(vertex: VertexId, budget: usize) -> Self {
        QueryParams {
            vertex,
            algorithm: Algorithm::FtMCiDs,
            budget,
            samples: 1000,
            seed: None,
            deadline_ms: None,
        }
    }

    /// Sets a wall-clock deadline in milliseconds (from admission).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// Submission-time errors (execution-time failures arrive as
/// [`ServeEvent::Failed`] on the ticket instead).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is full; retry after the hinted backoff.
    Overloaded {
        /// Suggested client backoff before resubmitting.
        retry_after: Duration,
    },
    /// No resident graph has this fingerprint (never loaded, or evicted).
    UnknownGraph(u64),
    /// The query is invalid against the target graph (bad vertex, zero
    /// budget or samples, …) — rejected before queueing.
    Invalid(CoreError),
    /// The server is shutting down and no longer admits queries.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after } => write!(
                f,
                "admission queue full; retry after {} ms",
                retry_after.as_millis()
            ),
            ServeError::UnknownGraph(fp) => {
                write!(f, "no resident graph with fingerprint {fp:016x}")
            }
            ServeError::Invalid(e) => write!(f, "invalid query: {e}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A streamed serving event, in arrival order on a [`Ticket`]: zero or
/// more `Step`s (one per committed edge, an anytime partial answer), then
/// exactly one `Done` or `Failed`.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// One committed edge of the running selection.
    Step(SelectionStep),
    /// The query finished; the full result.
    Done(ServeResult),
    /// The query was stopped early — its deadline expired or its
    /// [`CancelToken`] fired — and this is the graceful degradation: the
    /// `steps_done` committed edges are **bit-identical to the first
    /// `steps_done` edges of the same-seed full run** (the greedy
    /// selection's anytime property), so the partial result is a correct
    /// budget-`steps_done` answer, not a corrupted budget-`budget` one.
    Degraded {
        /// Edges committed before the stop (= `result.selected.len()`).
        steps_done: usize,
        /// The edge budget the query asked for.
        budget: usize,
        /// The degraded (prefix) result, evaluated like any full result.
        result: ServeResult,
    },
    /// The query failed. The server and its worker pool remain up.
    Failed(CoreError),
}

/// The owned result of one served query (no borrow of the graph, so it
/// outlives residency and can cross the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Fingerprint of the graph the query ran against.
    pub fingerprint: u64,
    /// The query parameters as executed (seed resolved).
    pub params: QueryParams,
    /// Selected edges in commit order.
    pub selected: Vec<EdgeId>,
    /// One step per committed edge, in commit order.
    pub steps: Vec<SelectionStep>,
    /// Flow of the full selection under the shared evaluator.
    pub flow: f64,
    /// Flow as estimated by the algorithm during selection.
    pub algorithm_flow: f64,
}

/// The client half of one submission: an iterator of [`ServeEvent`]s.
#[derive(Debug)]
pub struct Ticket {
    events: Receiver<ServeEvent>,
}

impl Ticket {
    /// The next event, blocking; `None` once the stream is finished (after
    /// `Done`/`Failed`, or if the server was dropped mid-query).
    pub fn next_event(&self) -> Option<ServeEvent> {
        self.events.recv().ok()
    }

    /// Drains the stream to completion and returns the final result,
    /// discarding intermediate steps (they are also in
    /// [`ServeResult::steps`]). A [`ServeEvent::Degraded`] stream returns
    /// its prefix result `Ok` too — a degraded answer is a valid
    /// smaller-budget answer; consume events one by one with
    /// [`next_event`](Ticket::next_event) to distinguish the two.
    pub fn wait(self) -> Result<ServeResult, CoreError> {
        loop {
            match self.next_event() {
                Some(ServeEvent::Step(_)) => continue,
                Some(ServeEvent::Done(result)) => return Ok(result),
                Some(ServeEvent::Degraded { result, .. }) => return Ok(result),
                Some(ServeEvent::Failed(err)) => return Err(err),
                None => {
                    return Err(CoreError::WorkerPanicked(
                        "server dropped before the query finished".into(),
                    ))
                }
            }
        }
    }
}

/// A resident graph: the graph plus its long-lived per-graph session state
/// (warm spanning-tree cache shared by every query against it).
#[derive(Debug)]
struct ResidentGraph {
    fingerprint: u64,
    graph: ProbabilisticGraph,
    state: Arc<SessionState>,
}

/// One admitted, not-yet-executed query, with the control (cancellation
/// token, deadline clock already running since admission) that can stop it.
struct Pending {
    graph: Arc<ResidentGraph>,
    params: QueryParams,
    control: RunControl,
    tx: Sender<ServeEvent>,
}

/// Queue + lifecycle flags, guarded by one mutex with a condvar.
struct QueueState {
    pending: VecDeque<Pending>,
    paused: bool,
    shutdown: bool,
}

/// Counters for `STATS` endpoints and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Graphs currently resident.
    pub resident_graphs: usize,
    /// Queries currently queued (admitted, not yet dispatched).
    pub queued: usize,
    /// Queries completed (successfully or failed) since start.
    pub completed: u64,
    /// Submissions rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Batches dispatched (each covering ≥ 1 coalesced queries).
    pub batches: u64,
}

struct Inner {
    config: ServeConfig,
    /// Most-recently-used resident graph at the back.
    graphs: Mutex<VecDeque<Arc<ResidentGraph>>>,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    completed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    /// Monotone admission-attempt sequence; keys the `serve/admit` fault
    /// site so injected admission failures are deterministic per plan.
    admissions: AtomicU64,
}

impl Inner {
    /// All serve locks recover from poisoning: the protected structures
    /// are only ever mutated through completed push/pop/remove operations,
    /// so they are valid after any panic and one dead query must not take
    /// the daemon down.
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_graphs(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<ResidentGraph>>> {
        self.graphs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The in-process serving engine. See the [module docs](self) for the
/// contract; `src/bin/serve.rs` wraps this in a line-protocol TCP daemon.
pub struct FlowServer {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for FlowServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowServer")
            .field("config", &self.inner.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FlowServer {
    /// Starts a server (and its dispatcher thread) with `config`.
    pub fn new(mut config: ServeConfig) -> Self {
        config.threads = flowmax_sampling::clamp_threads(config.threads, "FlowServer");
        config.max_resident_graphs = config.max_resident_graphs.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        config.coalesce_max = config.coalesce_max.max(1);
        let inner = Arc::new(Inner {
            config,
            graphs: Mutex::new(VecDeque::new()),
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                paused: config.start_paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            // flowmax-lint: allow(L2, the dispatcher is the serialization point of the admission queue — one long-lived control thread whose batch order is defined by arrival order, while all sampling parallelism stays on the audited WorkerPool; replies replay deterministically by the serving contract)
            std::thread::Builder::new()
                .name("flowmax-serve-dispatch".into())
                .spawn(move || dispatch_loop(&inner))
                // flowmax-lint: allow(L7, startup-fatal by design: a server that cannot spawn its dispatcher must not come up half-alive, and no request exists yet to degrade for)
                .expect("spawning the dispatcher thread")
        };
        FlowServer {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Gracefully shuts the server down: stops admitting new queries
    /// (submits now fail with [`ServeError::ShuttingDown`]), lets the
    /// dispatcher finish the batch it is currently executing, fails every
    /// admitted-but-unstarted query with a terminal
    /// [`ServeEvent::Failed`]\([`CoreError::ShuttingDown`]\) — no ticket
    /// ends as a silent stream end — and joins the dispatcher thread.
    /// Idempotent: repeated calls, concurrent calls, and the eventual drop
    /// are no-ops after the first.
    pub fn shutdown(&self) {
        let drained: Vec<Pending> = {
            let mut queue = self.inner.lock_queue();
            queue.shutdown = true;
            queue.pending.drain(..).collect()
        };
        self.inner.work_ready.notify_all();
        for pending in drained {
            let _ = pending.tx.send(ServeEvent::Failed(CoreError::ShuttingDown));
        }
        let handle = self
            .dispatcher
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// The server's (normalized) configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Makes `graph` resident and returns its fingerprint — the handle
    /// clients submit queries against. Loading an already-resident graph
    /// just refreshes its LRU position (the warm session state survives);
    /// loading beyond `max_resident_graphs` evicts the least recently used
    /// graph. Queries already queued against an evicted graph still run —
    /// they hold their own reference.
    pub fn load_graph(&self, graph: ProbabilisticGraph) -> u64 {
        let fingerprint = graph.fingerprint();
        let mut graphs = self.inner.lock_graphs();
        if let Some(pos) = graphs.iter().position(|g| g.fingerprint == fingerprint) {
            if let Some(hit) = graphs.remove(pos) {
                graphs.push_back(hit);
            }
        } else {
            if graphs.len() == self.inner.config.max_resident_graphs {
                graphs.pop_front();
            }
            graphs.push_back(Arc::new(ResidentGraph {
                fingerprint,
                graph,
                state: Arc::new(SessionState::new()),
            }));
        }
        fingerprint
    }

    /// The resident graph for a fingerprint, refreshing its LRU position.
    fn resident(&self, fingerprint: u64) -> Option<Arc<ResidentGraph>> {
        let mut graphs = self.inner.lock_graphs();
        let pos = graphs.iter().position(|g| g.fingerprint == fingerprint)?;
        let hit = graphs.remove(pos)?;
        graphs.push_back(Arc::clone(&hit));
        Some(hit)
    }

    /// Admits one query against the resident graph `fingerprint` and
    /// returns its streaming [`Ticket`] with the query's [`CancelToken`].
    /// Cancelling (from any thread, at any time) stops the query at its
    /// next iteration boundary; the ticket then ends with
    /// [`ServeEvent::Degraded`] carrying the committed prefix —
    /// bit-identical to the same-seed full run's prefix.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownGraph`] for a non-resident fingerprint,
    /// [`ServeError::Invalid`] for params the target graph rejects, and
    /// [`ServeError::Overloaded`] (with a retry hint) when the bounded
    /// queue is full — the backpressure contract: the server never buffers
    /// unboundedly and never blocks the submitting client.
    pub fn submit(
        &self,
        fingerprint: u64,
        params: QueryParams,
    ) -> Result<(Ticket, CancelToken), ServeError> {
        let admission = self.inner.admissions.fetch_add(1, Ordering::Relaxed);
        let graph = self
            .resident(fingerprint)
            .ok_or(ServeError::UnknownGraph(fingerprint))?;
        if params.budget == 0 {
            return Err(ServeError::Invalid(CoreError::EmptyBudget));
        }
        if params.samples == 0 {
            return Err(ServeError::Invalid(CoreError::ZeroSamples));
        }
        if params.vertex.index() >= graph.graph.vertex_count() {
            return Err(ServeError::Invalid(CoreError::QueryOutOfBounds {
                query: params.vertex,
                vertex_count: graph.graph.vertex_count(),
            }));
        }
        let cancel = CancelToken::new();
        let mut deadline = Deadline::none();
        if let Some(ms) = params.deadline_ms {
            // The clock starts at admission: queue wait counts against the
            // budget, as a serving deadline must.
            deadline = deadline.with_wall_clock(SoftDeadline::after(Duration::from_millis(ms)));
        }
        let control = RunControl::unlimited()
            .with_cancel(cancel.clone())
            .with_deadline(deadline);
        let (tx, rx) = channel();
        {
            let mut queue = self.inner.lock_queue();
            if queue.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let overloaded = queue.pending.len() >= self.inner.config.queue_capacity
                || flowmax_faults::should_fail_keyed("serve/admit", admission);
            if overloaded {
                let queued = queue.pending.len();
                drop(queue);
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    retry_after: self.retry_after_hint(queued),
                });
            }
            queue.pending.push_back(Pending {
                graph,
                params,
                control,
                tx,
            });
        }
        self.inner.work_ready.notify_one();
        Ok((Ticket { events: rx }, cancel))
    }

    /// The live retry-after hint for a queue currently `queued` deep: the
    /// configured base scaled by how many coalesced batches the backlog
    /// needs (`ceil((queued + 1) / coalesce_max)`), capped at 32× the
    /// base. Deterministic — a pure function of the queue depth and the
    /// configuration, no clocks or rates involved — so the wire format is
    /// regression-testable.
    pub fn retry_after_hint(&self, queued: usize) -> Duration {
        let coalesce = self.inner.config.coalesce_max;
        let batches_needed = (queued / coalesce + 1).min(32) as u32;
        self.inner.config.retry_after * batches_needed
    }

    /// Resumes a paused dispatcher (see [`ServeConfig::start_paused`]).
    pub fn resume(&self) {
        self.inner.lock_queue().paused = false;
        self.inner.work_ready.notify_all();
    }

    /// Pauses the dispatcher: queries keep queueing (and the queue keeps
    /// rejecting past capacity) but none start executing.
    pub fn pause(&self) {
        self.inner.lock_queue().paused = true;
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            resident_graphs: self.inner.lock_graphs().len(),
            queued: self.inner.lock_queue().pending.len(),
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
        }
    }
}

impl Drop for FlowServer {
    /// Dropping the server is a [graceful shutdown](FlowServer::shutdown):
    /// the executing batch finishes, every admitted-but-unstarted query
    /// fails with a terminal [`CoreError::ShuttingDown`] event, and the
    /// dispatcher thread is joined.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher: waits for admitted work, coalesces queued queries
/// against the same graph into one batch, and executes it on a session
/// over that graph's resident state.
fn dispatch_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut queue = inner.lock_queue();
            loop {
                if queue.shutdown {
                    return;
                }
                if !queue.paused && !queue.pending.is_empty() {
                    break;
                }
                queue = inner
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let Some(first) = queue.pending.pop_front() else {
                continue; // unreachable: the wait loop saw a non-empty queue
            };
            let mut batch = vec![first];
            // Coalesce: pull every queued query against the same graph (in
            // admission order) into this batch, up to the configured cap.
            let mut i = 0;
            while i < queue.pending.len() && batch.len() < inner.config.coalesce_max {
                if queue.pending[i].graph.fingerprint == batch[0].graph.fingerprint {
                    match queue.pending.remove(i) {
                        Some(same) => batch.push(same),
                        None => i += 1, // unreachable: i < len
                    }
                } else {
                    i += 1;
                }
            }
            batch
        };
        execute_batch(inner, &batch);
    }
}

/// Runs one coalesced batch and streams every event to its tickets.
/// Panics anywhere in execution are contained here: the affected batch
/// fails with [`CoreError::WorkerPanicked`], the dispatcher and the worker
/// pool live on.
fn execute_batch(inner: &Inner, batch: &[Pending]) {
    let resident = &batch[0].graph;
    let session = Session::new(&resident.graph)
        .with_threads(inner.config.threads)
        .with_seed(inner.config.seed)
        .with_state(Arc::clone(&resident.state));
    // The vertex was validated at submit, but a request path never panics
    // on a should-be-impossible state: a failure here fails this batch
    // with terminal events and the dispatcher lives on.
    let specs: Result<Vec<_>, CoreError> = batch
        .iter()
        .map(|p| {
            let seed = p.params.seed.unwrap_or(inner.config.seed);
            session.query(p.params.vertex).map(|builder| {
                builder
                    .algorithm(p.params.algorithm)
                    .budget(p.params.budget)
                    .samples(p.params.samples)
                    .seed(seed)
                    .control(p.control.clone())
                    .spec()
            })
        })
        .collect();
    let specs = match specs {
        Ok(specs) => specs,
        Err(err) => {
            inner.batches.fetch_add(1, Ordering::Relaxed);
            inner
                .completed
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            for pending in batch {
                let _ = pending.tx.send(ServeEvent::Failed(err.clone()));
            }
            return;
        }
    };
    let batch_seq = inner.batches.load(Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        flowmax_faults::failpoint_keyed("serve/batch", batch_seq);
        session.run_many(&specs, &|i, step| {
            // A disconnected client (dropped Ticket) is not an error; the
            // query still runs for the batch's other members.
            let _ = batch[i].tx.send(ServeEvent::Step(*step));
        })
    }));
    // Count the batch and its completions *before* the terminal events go
    // out, so a client that has just received its `Done` observes both in
    // the stats.
    inner.batches.fetch_add(1, Ordering::Relaxed);
    inner
        .completed
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    match outcome {
        Ok(Ok(runs)) => {
            for (pending, run) in batch.iter().zip(runs) {
                let mut params = pending.params;
                params.seed = Some(params.seed.unwrap_or(inner.config.seed));
                let result = ServeResult {
                    fingerprint: pending.graph.fingerprint,
                    params,
                    selected: run.selected.clone(),
                    steps: run.steps.clone(),
                    flow: run.flow,
                    algorithm_flow: run.algorithm_flow,
                };
                let event = if run.stopped.is_some() {
                    ServeEvent::Degraded {
                        steps_done: result.selected.len(),
                        budget: pending.params.budget,
                        result,
                    }
                } else {
                    ServeEvent::Done(result)
                };
                let _ = pending.tx.send(event);
            }
        }
        Ok(Err(err)) => {
            for pending in batch {
                let _ = pending.tx.send(ServeEvent::Failed(err.clone()));
            }
        }
        Err(payload) => {
            let err = CoreError::WorkerPanicked(panic_message(payload.as_ref()));
            for pending in batch {
                let _ = pending.tx.send(ServeEvent::Failed(err.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn graph(scale: f64) -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO);
        for w in [5.0, 3.0, 8.0, 1.0] {
            b.add_vertex(Weight::new(w * scale).unwrap());
        }
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p(0.8)).unwrap();
        b.add_edge(VertexId(1), VertexId(3), p(0.7)).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p(0.6)).unwrap();
        b.add_edge(VertexId(3), VertexId(4), p(0.5)).unwrap();
        b.build()
    }

    fn quick_params(vertex: u32, budget: usize) -> QueryParams {
        let mut params = QueryParams::new(VertexId(vertex), budget);
        params.samples = 200;
        params
    }

    #[test]
    fn served_queries_match_direct_sessions_bit_for_bit() {
        let g = graph(1.0);
        let server = FlowServer::new(ServeConfig::default());
        let fp = server.load_graph(g.clone());
        let (ticket, _) = server.submit(fp, quick_params(0, 3)).unwrap();
        let result = ticket.wait().unwrap();

        let session = Session::new(&g).with_seed(42);
        let direct = session
            .query(VertexId(0))
            .unwrap()
            .budget(3)
            .samples(200)
            .run()
            .unwrap();
        assert_eq!(result.selected, direct.selected);
        assert_eq!(result.flow, direct.flow);
        assert_eq!(result.algorithm_flow, direct.algorithm_flow);
        assert_eq!(result.steps.len(), direct.steps.len());
    }

    #[test]
    fn replaying_a_submission_is_bit_identical() {
        let server = FlowServer::new(ServeConfig::default());
        let fp = server.load_graph(graph(1.0));
        let a = server
            .submit(fp, quick_params(2, 3))
            .unwrap()
            .0
            .wait()
            .unwrap();
        // Interleave unrelated load before the replay.
        for _ in 0..5 {
            server
                .submit(fp, quick_params(1, 2))
                .unwrap()
                .0
                .wait()
                .unwrap();
        }
        let b = server
            .submit(fp, quick_params(2, 3))
            .unwrap()
            .0
            .wait()
            .unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.flow, b.flow);
        assert_eq!(a.steps.len(), b.steps.len());
    }

    #[test]
    fn tickets_stream_steps_then_done() {
        let server = FlowServer::new(ServeConfig::default());
        let fp = server.load_graph(graph(1.0));
        let (ticket, _) = server.submit(fp, quick_params(0, 3)).unwrap();
        let mut steps = Vec::new();
        let result = loop {
            match ticket.next_event().expect("stream ends with Done") {
                ServeEvent::Step(s) => steps.push(s),
                ServeEvent::Done(r) => break r,
                ServeEvent::Degraded { .. } => panic!("no deadline was set"),
                ServeEvent::Failed(e) => panic!("query failed: {e}"),
            }
        };
        assert_eq!(steps.len(), result.steps.len());
        for (streamed, kept) in steps.iter().zip(&result.steps) {
            assert_eq!(streamed.edge, kept.edge);
            assert_eq!(streamed.iteration, kept.iteration);
        }
        assert!(ticket.next_event().is_none(), "stream is finished");
    }

    #[test]
    fn bounded_queue_rejects_with_retry_after() {
        let server = FlowServer::new(ServeConfig {
            queue_capacity: 2,
            start_paused: true,
            retry_after: Duration::from_millis(7),
            ..ServeConfig::default()
        });
        let fp = server.load_graph(graph(1.0));
        let (t1, _) = server.submit(fp, quick_params(0, 1)).unwrap();
        let (t2, _) = server.submit(fp, quick_params(1, 1)).unwrap();
        let rejected = server.submit(fp, quick_params(2, 1));
        assert_eq!(
            rejected.unwrap_err(),
            ServeError::Overloaded {
                retry_after: Duration::from_millis(7)
            }
        );
        assert_eq!(server.stats().rejected, 1);
        assert_eq!(server.stats().queued, 2);
        // Draining the queue reopens admission.
        server.resume();
        t1.wait().unwrap();
        t2.wait().unwrap();
        server
            .submit(fp, quick_params(2, 1))
            .unwrap()
            .0
            .wait()
            .unwrap();
        assert_eq!(server.stats().completed, 3);
    }

    #[test]
    fn queued_queries_against_one_graph_coalesce_into_batches() {
        let server = FlowServer::new(ServeConfig {
            start_paused: true,
            threads: 2,
            ..ServeConfig::default()
        });
        let fp_a = server.load_graph(graph(1.0));
        let fp_b = server.load_graph(graph(2.0));
        let tickets: Vec<_> = (0..4)
            .map(|i| server.submit(fp_a, quick_params(i % 3, 2)).unwrap().0)
            .collect();
        let (other, _) = server.submit(fp_b, quick_params(0, 2)).unwrap();
        server.resume();
        let resident = server_graph(&server, fp_a).unwrap();
        let solo = Session::new(&resident.graph).with_seed(42);
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().unwrap();
            let want = solo
                .query(VertexId((i % 3) as u32))
                .unwrap()
                .budget(2)
                .samples(200)
                .run()
                .unwrap();
            assert_eq!(got.selected, want.selected, "query {i}");
            assert_eq!(got.flow, want.flow, "query {i}");
        }
        other.wait().unwrap();
        let stats = server.stats();
        assert_eq!(stats.completed, 5);
        assert!(
            stats.batches < 5,
            "same-graph queries must coalesce (got {} batches for 5 queries)",
            stats.batches
        );
    }

    /// Test helper: peeks a resident graph without going through submit.
    fn server_graph(server: &FlowServer, fp: u64) -> Option<Arc<ResidentGraph>> {
        server.resident(fp)
    }

    #[test]
    fn resident_graphs_are_lru_bounded() {
        let server = FlowServer::new(ServeConfig {
            max_resident_graphs: 2,
            ..ServeConfig::default()
        });
        let fp1 = server.load_graph(graph(1.0));
        let fp2 = server.load_graph(graph(2.0));
        assert_eq!(server.stats().resident_graphs, 2);
        // Touch fp1 so fp2 is the eviction victim.
        server.load_graph(graph(1.0));
        let fp3 = server.load_graph(graph(3.0));
        assert_eq!(server.stats().resident_graphs, 2);
        assert!(matches!(
            server.submit(fp2, quick_params(0, 1)),
            Err(ServeError::UnknownGraph(_))
        ));
        server
            .submit(fp1, quick_params(0, 1))
            .unwrap()
            .0
            .wait()
            .unwrap();
        server
            .submit(fp3, quick_params(0, 1))
            .unwrap()
            .0
            .wait()
            .unwrap();
    }

    #[test]
    fn invalid_submissions_are_rejected_before_queueing() {
        let server = FlowServer::new(ServeConfig::default());
        let fp = server.load_graph(graph(1.0));
        assert!(matches!(
            server.submit(fp, quick_params(0, 0)),
            Err(ServeError::Invalid(CoreError::EmptyBudget))
        ));
        let mut no_samples = quick_params(0, 1);
        no_samples.samples = 0;
        assert!(matches!(
            server.submit(fp, no_samples),
            Err(ServeError::Invalid(CoreError::ZeroSamples))
        ));
        assert!(matches!(
            server.submit(fp, quick_params(99, 1)),
            Err(ServeError::Invalid(CoreError::QueryOutOfBounds { .. }))
        ));
        assert!(matches!(
            server.submit(0xDEAD_BEEF, quick_params(0, 1)),
            Err(ServeError::UnknownGraph(0xDEAD_BEEF))
        ));
        assert_eq!(server.stats().queued, 0);
    }

    #[test]
    fn expired_deadline_degrades_to_a_bit_identical_prefix() {
        let g = graph(1.0);
        let server = FlowServer::new(ServeConfig::default());
        let fp = server.load_graph(g.clone());
        // A zero deadline is already expired at dispatch: the run stops
        // before any iteration and degrades to the empty prefix.
        let (ticket, _) = server
            .submit(fp, quick_params(0, 3).with_deadline_ms(0))
            .unwrap();
        let event = loop {
            match ticket.next_event().expect("stream ends with a terminal") {
                ServeEvent::Step(_) => continue,
                terminal => break terminal,
            }
        };
        let ServeEvent::Degraded {
            steps_done,
            budget,
            result,
        } = event
        else {
            panic!("expected Degraded, got {event:?}");
        };
        assert_eq!(budget, 3);
        assert_eq!(steps_done, result.selected.len());

        // The degraded selection is the same-seed full run's prefix.
        let full = server
            .submit(fp, quick_params(0, 3))
            .unwrap()
            .0
            .wait()
            .unwrap();
        assert_eq!(result.selected, full.selected[..steps_done]);
    }

    #[test]
    fn cancelled_query_degrades_instead_of_failing() {
        let server = FlowServer::new(ServeConfig {
            start_paused: true,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(graph(1.0));
        let (ticket, cancel) = server.submit(fp, quick_params(0, 3)).unwrap();
        // Cancel while the query is still queued: it stops at iteration 0.
        cancel.cancel();
        server.resume();
        let event = loop {
            match ticket.next_event().expect("stream ends with a terminal") {
                ServeEvent::Step(_) => continue,
                terminal => break terminal,
            }
        };
        match event {
            ServeEvent::Degraded {
                steps_done, budget, ..
            } => {
                assert_eq!(steps_done, 0);
                assert_eq!(budget, 3);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn retry_after_scales_with_queue_depth_and_clamps() {
        let server = FlowServer::new(ServeConfig {
            retry_after: Duration::from_millis(10),
            coalesce_max: 4,
            ..ServeConfig::default()
        });
        // One batch drains up to 4 queries: depths 0..=3 keep the base.
        assert_eq!(server.retry_after_hint(0), Duration::from_millis(10));
        assert_eq!(server.retry_after_hint(3), Duration::from_millis(10));
        // Deeper backlogs need more batches.
        assert_eq!(server.retry_after_hint(4), Duration::from_millis(20));
        assert_eq!(server.retry_after_hint(9), Duration::from_millis(30));
        // Clamped at 32× base no matter the depth.
        assert_eq!(server.retry_after_hint(100_000), Duration::from_millis(320));
    }

    #[test]
    fn dropping_the_server_finishes_cleanly() {
        let server = FlowServer::new(ServeConfig {
            start_paused: true,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(graph(1.0));
        let (ticket, _) = server.submit(fp, quick_params(0, 2)).unwrap();
        drop(server); // paused: the query never ran
        assert!(matches!(ticket.wait(), Err(CoreError::ShuttingDown)));
    }

    #[test]
    fn shutdown_fails_pending_queries_with_a_terminal_event() {
        let server = FlowServer::new(ServeConfig {
            start_paused: true,
            ..ServeConfig::default()
        });
        let fp = server.load_graph(graph(1.0));
        let (t1, _) = server.submit(fp, quick_params(0, 2)).unwrap();
        let (t2, _) = server.submit(fp, quick_params(1, 2)).unwrap();
        server.shutdown();
        for ticket in [t1, t2] {
            assert!(matches!(
                ticket.next_event(),
                Some(ServeEvent::Failed(CoreError::ShuttingDown))
            ));
            assert!(ticket.next_event().is_none(), "Failed is terminal");
        }
        // Shutdown is idempotent and new submissions are refused.
        server.shutdown();
        assert!(matches!(
            server.submit(fp, quick_params(0, 1)),
            Err(ServeError::ShuttingDown)
        ));
    }
}
