//! Multi-threaded, thread-count-invariant Monte-Carlo estimation.
//!
//! [`ParallelEstimator`] splits a sample budget into batches of
//! [`LANES`] worlds, evaluates them with the
//! bit-parallel kernel of [`crate::batch`], and shards the work across the
//! persistent [`WorkerPool`]. Batch `b` draws lane
//! `w`'s coins from the seed-sequence child `b * LANES + w`, so each batch
//! is a pure function of `(seed sequence, batch index)` — which worker
//! computes it is irrelevant. Each BFS pass resolves a block of
//! [`LANE_WORDS`] consecutive batches at once; the per-world streams do not
//! depend on the grouping. Per-vertex success counts merge by integer
//! addition (order-free) and per-64-world flow moments merge in ascending
//! batch order — blocks are split back into their per-batch moment groups
//! before merging — so results are **bit-identical for every thread
//! count**, as locked down by `tests/determinism.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use flowmax_graph::{EdgeSubset, ProbabilisticGraph, VertexId};

use crate::batch::{
    block_ones, block_worlds, lanes_in_batch, LaneBfs, WorldBatch, LANES, LANE_WORDS,
};
use crate::component::{ComponentEstimate, ComponentGraph};
use crate::estimate::FlowEstimate;
use crate::pool::WorkerPool;
use crate::reachability::ReachabilityEstimate;
use crate::rng::SeedSequence;
use crate::scratch::with_thread_scratch;

/// Invalid worker-count requests observed so far (zero or unparseable, from
/// any origin). The first one is echoed to stderr; all are counted, so
/// tests — and operators debugging a mysteriously serial server — can see
/// that requests were clamped without scraping stderr.
static INVALID_THREAD_REQUESTS: AtomicU64 = AtomicU64::new(0);

/// How many invalid thread-count requests have been clamped to 1 so far in
/// this process (see [`clamp_threads`] and `FLOWMAX_THREADS` parsing).
pub fn invalid_thread_requests() -> u64 {
    INVALID_THREAD_REQUESTS.load(Ordering::Relaxed)
}

/// Records one invalid worker-count request: warns on stderr the first
/// time (once per process, not once per job — a daemon misconfigured with
/// `FLOWMAX_THREADS=eight` would otherwise spam every query), counts every
/// time, and returns the clamped value 1.
fn note_invalid_threads(origin: &str, detail: &str) -> usize {
    if INVALID_THREAD_REQUESTS.fetch_add(1, Ordering::Relaxed) == 0 {
        // flowmax-lint: allow(L6, sanctioned warn-once clamp helper: one stderr line per process for a misconfigured thread count; results are unaffected)
        eprintln!(
            "flowmax: warning: invalid worker-thread count from {origin} ({detail}); \
             clamping to 1 (sequential) — results are unaffected, only wall-clock time"
        );
    }
    1
}

/// The single clamping story for explicit thread-count requests, shared by
/// [`ParallelEstimator`] call sites, `Session::with_threads`, and the CLI's
/// `--threads`: a request of `0` is invalid (there is no zero-thread
/// estimator), warned about once per process on stderr, and clamped to 1.
/// Positive requests pass through unchanged.
pub fn clamp_threads(requested: usize, origin: &str) -> usize {
    if requested == 0 {
        note_invalid_threads(origin, "0 worker threads requested")
    } else {
        requested
    }
}

/// Parses a thread-count override, as read from `FLOWMAX_THREADS`.
///
/// Unset or blank means 1 (fully sequential). Anything else must be a
/// positive integer: zero or unparseable values (`FLOWMAX_THREADS=eight`)
/// are clamped to 1 with a one-time stderr warning instead of silently
/// serializing a production server — the same story as [`clamp_threads`].
fn parse_threads(var: Option<String>) -> usize {
    let Some(raw) = var else { return 1 };
    let raw = raw.trim();
    if raw.is_empty() {
        return 1;
    }
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        Ok(_) => note_invalid_threads("FLOWMAX_THREADS", "0 requests no workers at all"),
        Err(_) => note_invalid_threads("FLOWMAX_THREADS", &format!("unparseable value {raw:?}")),
    }
}

/// The default worker count: the `FLOWMAX_THREADS` environment variable
/// when set to a positive integer, otherwise 1 (fully sequential).
///
/// Results never depend on this value — only wall-clock time does — so CI
/// runs the whole test suite under several settings.
pub fn default_threads() -> usize {
    // flowmax-lint: allow(L3, sanctioned FLOWMAX_THREADS entry point: the value only sets wall-clock parallelism, which the determinism suite proves never changes results)
    parse_threads(std::env::var("FLOWMAX_THREADS").ok())
}

/// Runs `work` over `0..num_blocks` split into at most `threads`
/// contiguous chunks, returning the per-chunk results in chunk order.
///
/// With one chunk the work runs on the calling thread (no spawn overhead);
/// otherwise chunk 0 runs on the caller and each further chunk on a pinned
/// worker of the process-global persistent [`WorkerPool`]. `work` receives
/// its worker index (the chunk's position) and the block range. Chunk
/// boundaries affect only *who* computes a block, never what the block
/// contains.
pub(crate) fn parallel_chunks<T, F>(num_blocks: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    let workers = threads.max(1).min(num_blocks.max(1));
    if workers <= 1 {
        return vec![work(0, 0..num_blocks)];
    }
    let base = num_blocks / workers;
    let extra = num_blocks % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for t in 0..workers {
        let len = base + usize::from(t < extra);
        ranges.push(start..start + len);
        start += len;
    }
    WorkerPool::global().run(ranges, work)
}

/// Work-size floor for sharding: an extra worker must have at least this
/// many edge-coin draws (edges × worlds) to amortize its dispatch/report
/// round-trip through the persistent pool (single-digit microseconds per
/// chunk — far below the old per-job scoped spawn, but still not free).
const MIN_COINS_PER_WORKER: u64 = 1 << 16;

/// Caps the worker count by the job's size so that small jobs — like the
/// F-tree's per-component probes or the Naive baseline's few-edge domains —
/// run on the calling thread even when more workers are configured.
/// Results never depend on this, only wall-clock time does.
fn effective_workers(threads: usize, samples: u32, work_edges: usize) -> usize {
    workers_for_coins(threads, samples as u64 * work_edges.max(1) as u64)
}

/// The coin-count form of [`effective_workers`], for jobs — like the racing
/// engine's multi-candidate rounds — whose total work is summed over many
/// components and may not fit the `samples × edges` shape.
fn workers_for_coins(threads: usize, coins: u64) -> usize {
    let by_work = usize::try_from(coins / MIN_COINS_PER_WORKER)
        .unwrap_or(usize::MAX)
        .max(1);
    threads.max(1).min(by_work)
}

/// Active lanes of the block whose first batch is `first_batch`, under a
/// `samples`-world budget: the sum of [`lanes_in_batch`] over the block's
/// [`LANE_WORDS`] batches (0 at or past the boundary).
fn block_lanes(samples: u32, first_batch: usize) -> u32 {
    let drawn = (first_batch as u64) * LANES as u64;
    (samples as u64)
        .saturating_sub(drawn)
        .min(block_worlds::<LANE_WORDS>() as u64) as u32
}

/// Size and shape of one batched estimation job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchJob {
    /// Vertices of the (sub)graph being traversed.
    pub vertex_count: usize,
    /// Edges actually sampled per world (the active domain size) — the
    /// per-batch work estimate the worker heuristic is based on, which for
    /// sparse domains may be far below the graph's edge capacity (the
    /// sampled mask buffer sizes itself during each fill).
    pub work_edges: usize,
    /// BFS source, as a vertex index.
    pub source: usize,
    /// Total worlds to draw.
    pub samples: u32,
    /// Configured worker-count ceiling.
    pub threads: usize,
}

/// The shared batch driver behind every batched estimator: draws
/// `job.samples` worlds in blocks of [`LANE_WORDS`] consecutive
/// [`LANES`]-world batches (the block starting at batch `b` fills with
/// first lane label `b·LANES`, the seed-per-batch contract), resolves each
/// block with one lane-BFS from `job.source`, and folds every block into a
/// per-chunk accumulator via `per_batch(acc, bfs, first_batch)`. Per-chunk
/// accumulators are returned in ascending block order.
///
/// `fill` samples one block into the thread's warm
/// [`WorldBatch`] scratch; `neighbors` yields
/// `(vertex index, edge index)` adjacency. Each chunk runs against its
/// thread's persistent [`with_thread_scratch`] arenas, so steady-state
/// estimation allocates nothing per batch. Reachability counting, flow
/// aggregation, and the component-local sampler are all thin wrappers, so
/// the batching/label/merge contract lives in exactly one place.
pub(crate) fn map_batches<A, F, N, I, P>(
    job: BatchJob,
    fill: F,
    neighbors: N,
    per_batch: P,
) -> Vec<A>
where
    A: Default + Send,
    F: Fn(&mut WorldBatch, u64, u32) + Sync,
    N: Fn(usize) -> I + Sync,
    I: Iterator<Item = (usize, usize)>,
    P: Fn(&mut A, &LaneBfs, usize) + Sync,
{
    assert!(job.samples > 0, "need at least one sample");
    let num_batches = job.samples.div_ceil(LANES) as usize;
    let num_blocks = num_batches.div_ceil(LANE_WORDS);
    let workers = effective_workers(job.threads, job.samples, job.work_edges);
    parallel_chunks(num_blocks, workers, |_worker, range| {
        with_thread_scratch(|scratch| {
            let mut acc = A::default();
            scratch.bfs.prepare(job.vertex_count);
            for g in range {
                // Fault site: one keyed arrival per sampled block. An
                // injected panic here is caught by the pool's task
                // containment and re-raised on the submitter, exactly like
                // a real batch-loop crash.
                flowmax_faults::failpoint_keyed("sampling/batch", g as u64);
                let first_batch = g * LANE_WORDS;
                let lanes = block_lanes(job.samples, first_batch);
                fill(&mut scratch.batch, first_batch as u64 * LANES as u64, lanes);
                scratch.bfs.run(
                    job.source,
                    scratch.batch.active_mask(),
                    scratch.batch.masks(),
                    &neighbors,
                );
                per_batch(&mut acc, &scratch.bfs, first_batch);
            }
            acc
        })
    })
}

/// Per-vertex success counts over `job.samples` worlds: the reachability
/// specialization of [`map_batches`], shared by the graph-level
/// [`ParallelEstimator`] and the component-local
/// [`crate::component::ComponentGraph::sample_reachability_batched`].
pub(crate) fn batched_success_counts<F, N, I>(job: BatchJob, fill: F, neighbors: N) -> Vec<u32>
where
    F: Fn(&mut WorldBatch, u64, u32) + Sync,
    N: Fn(usize) -> I + Sync,
    I: Iterator<Item = (usize, usize)>,
{
    let chunks = map_batches(
        job,
        fill,
        neighbors,
        |acc: &mut Vec<u32>, bfs, _first_batch| {
            if acc.is_empty() {
                acc.resize(job.vertex_count, 0);
            }
            for (s, mask) in acc.iter_mut().zip(bfs.reached()) {
                *s += block_ones(mask);
            }
        },
    );
    // Success counts are integers, so summing chunks is exact and
    // order-free — but we still fold in chunk order for clarity.
    let mut successes = vec![0u32; job.vertex_count];
    for chunk in chunks {
        for (total, part) in successes.iter_mut().zip(chunk) {
            *total += part;
        }
    }
    successes
}

/// A batched, multi-threaded drop-in for the scalar estimators of
/// [`crate::reachability`] and [`crate::component`].
///
/// Construction is free: the estimator is just a worker-count ceiling.
/// Execution runs on the process-global persistent
/// [`WorkerPool`], and every thread — pool worker
/// or submitter — keeps one warm
/// [`SamplingScratch`](crate::scratch::SamplingScratch) for life (see
/// [`with_thread_scratch`]), so steady-state estimation performs zero heap
/// allocation per batch and pays no thread spawn/join per job. The
/// configured count is an upper bound: jobs too small to amortize even a
/// pool dispatch — e.g. the F-tree's per-component probes — run on the
/// calling thread against its own warm scratch, so `threads > 1` never
/// makes an estimation slower. Results never depend on the scratch or the
/// worker count — only wall-clock time does.
#[derive(Debug, Clone)]
pub struct ParallelEstimator {
    threads: usize,
}

impl ParallelEstimator {
    /// An estimator using `threads` workers (clamped to at least 1, with
    /// the process-wide one-time warning of [`clamp_threads`] on 0).
    pub fn new(threads: usize) -> Self {
        ParallelEstimator {
            threads: clamp_threads(threads, "ParallelEstimator::new"),
        }
    }

    /// An estimator using [`default_threads`].
    pub fn from_env() -> Self {
        ParallelEstimator::new(default_threads())
    }

    /// Kept for perfbench, which names the lane width it measures: accepts
    /// only [`LANE_WORDS`] and panics on any other width.
    pub fn with_lane_words(self, lane_words: usize) -> Self {
        assert_eq!(lane_words, LANE_WORDS, "the lane width is fixed");
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `jobs` independent jobs on the worker pool and returns their
    /// results in job order: job `i` is `run(i)`.
    ///
    /// This is the coarse-grained counterpart of the batched estimators —
    /// instead of sharding one estimation's sample batches, it shards whole
    /// independent work items (e.g. a multi-query solver session's queries)
    /// across the same pool. Jobs are split into contiguous chunks, so
    /// which worker runs a job never changes *what* the job computes; as
    /// everywhere in this crate, the thread count affects only wall-clock
    /// time, provided `run` is itself a pure function of the job index.
    pub fn run_jobs<T, F>(&self, jobs: usize, run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        parallel_chunks(jobs, self.threads, |_worker, range| {
            range.map(&run).collect::<Vec<T>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Batched equivalent of [`crate::reachability::sample_reachability`]:
    /// per-vertex reachability counts from `query` over `samples` worlds of
    /// the `active` subgraph.
    ///
    /// World `i` draws its coins from `seq.rng(i)`; the result is a pure
    /// function of `(seq, samples)`, independent of the thread count.
    pub fn sample_reachability(
        &self,
        graph: &ProbabilisticGraph,
        active: &EdgeSubset,
        query: VertexId,
        samples: u32,
        seq: &SeedSequence,
    ) -> ReachabilityEstimate {
        let job = BatchJob {
            vertex_count: graph.vertex_count(),
            work_edges: active.len(),
            source: query.index(),
            samples,
            threads: self.threads,
        };
        let successes = batched_success_counts(
            job,
            |batch, first_label, lanes| batch.sample_into(graph, active, seq, first_label, lanes),
            |u| {
                graph
                    .neighbors(VertexId::from_index(u))
                    .map(|(v, e)| (v.index(), e.index()))
            },
        );
        ReachabilityEstimate::from_parts(successes, samples)
    }

    /// Batched equivalent of [`crate::reachability::sample_flow`]: the
    /// per-world flow aggregate over `samples` worlds.
    ///
    /// Per-64-world moments are merged in ascending batch order (Chan et
    /// al.) — blocks are split back into their per-batch moment groups
    /// first — so the floating-point result is bit-identical for every
    /// thread count.
    pub fn sample_flow(
        &self,
        graph: &ProbabilisticGraph,
        active: &EdgeSubset,
        query: VertexId,
        include_query: bool,
        samples: u32,
        seq: &SeedSequence,
    ) -> FlowEstimate {
        let job = BatchJob {
            vertex_count: graph.vertex_count(),
            work_edges: active.len(),
            source: query.index(),
            samples,
            threads: self.threads,
        };
        let chunks = map_batches(
            job,
            |batch, first_label, lanes| batch.sample_into(graph, active, seq, first_label, lanes),
            |u| {
                graph
                    .neighbors(VertexId::from_index(u))
                    .map(|(v, e)| (v.index(), e.index()))
            },
            |estimates: &mut Vec<FlowEstimate>, bfs, first_batch| {
                // Accumulate per-lane flows word by word, then emit one
                // moment group per 64-world batch of the block, in batch
                // order.
                let mut flows = [[0.0f64; LANES as usize]; LANE_WORDS];
                for v in graph.vertices() {
                    if v == query && !include_query {
                        continue;
                    }
                    let w = graph.weight(v).value();
                    if w == 0.0 {
                        continue;
                    }
                    let block = bfs.reached_mask(v.index());
                    for (k, flows_k) in flows.iter_mut().enumerate() {
                        let mut mask = block[k];
                        while mask != 0 {
                            flows_k[mask.trailing_zeros() as usize] += w;
                            mask &= mask - 1;
                        }
                    }
                }
                for (k, flows_k) in flows.iter().enumerate() {
                    let lanes = lanes_in_batch(samples, first_batch + k);
                    if lanes == 0 {
                        break;
                    }
                    let mut est = FlowEstimate::new();
                    for &flow in flows_k.iter().take(lanes as usize) {
                        est.push(flow);
                    }
                    estimates.push(est);
                }
            },
        );
        let mut total = FlowEstimate::new();
        for est in chunks.into_iter().flatten() {
            total = total.merge(&est);
        }
        total
    }

    /// Batched equivalent of [`ComponentGraph::sample_reachability`]:
    /// `Pr[v ↔ AV]` counts for every local vertex of a component, computed
    /// against the estimator's pooled scratch (world `i` draws from
    /// `seq.rng(i)`; bit-identical at every thread count).
    ///
    /// This is the selection loop's hottest entry point — one call per
    /// probed component — so it reuses the warm scratch of whichever
    /// worker slot serves it instead of allocating batch/BFS buffers.
    pub fn sample_component(
        &self,
        component: &ComponentGraph,
        samples: u32,
        seq: &SeedSequence,
    ) -> ComponentEstimate {
        let job = BatchJob {
            vertex_count: component.vertex_count(),
            work_edges: component.edge_count(),
            source: 0,
            samples,
            threads: self.threads,
        };
        let successes = batched_success_counts(
            job,
            |batch, first_label, lanes| component.fill_batch(batch, seq, first_label, lanes),
            |u| component.local_neighbors(u),
        );
        ComponentEstimate::from_success_counts(successes, samples)
    }

    /// Draws worlds `[first_world, total_worlds)` for **many components as
    /// one job**: every `(component, lane block)` pair becomes one work
    /// unit, and all units are sharded across the worker pool together.
    ///
    /// Returns one per-vertex success-count delta per request, covering
    /// exactly the requested world range. Because world `i` of request `r`
    /// always draws from `r.seq.rng(i)` and counts merge by integer
    /// addition, the result is a pure function of each request alone —
    /// bit-identical for every thread count, and to per-component calls.
    ///
    /// This is where the racing engine's speedup over per-candidate
    /// estimation comes from: individual component probes are far too small
    /// to amortize worker spawn/join (see `effective_workers`) and run
    /// sequentially, but the union of all surviving candidates' batches in
    /// a round is large enough to keep every worker busy.
    pub fn sample_component_worlds(&self, requests: &[WorldsRequest<'_>]) -> Vec<Vec<u32>> {
        // Flatten: global unit index → (request, lane block). A request's
        // blocks group `LANE_WORDS` consecutive batches starting at its own
        // `first_world` boundary — world labels are unaffected by the
        // grouping, so the counts match per-component calls exactly.
        // Requests are laid out contiguously so each chunk touches few
        // distinct components.
        let mut unit_request: Vec<u32> = Vec::new();
        let mut unit_first_batch: Vec<u32> = Vec::new();
        let mut coins = 0u64;
        for (r, req) in requests.iter().enumerate() {
            assert!(
                req.first_world % LANES == 0,
                "extension must start on a whole-batch boundary"
            );
            assert!(
                req.total_worlds > req.first_world,
                "request must draw at least one world"
            );
            coins += (req.total_worlds - req.first_world) as u64
                * req.component.edge_count().max(1) as u64;
            let first_batch = req.first_world / LANES;
            let last_batch = (req.total_worlds - 1) / LANES;
            let mut b = first_batch;
            while b <= last_batch {
                unit_request.push(r as u32);
                unit_first_batch.push(b);
                b += LANE_WORDS as u32;
            }
        }
        let workers = workers_for_coins(self.threads, coins);
        let chunks = parallel_chunks(unit_request.len(), workers, |_worker, range| {
            with_thread_scratch(|scratch| {
                let mut acc: Vec<Option<Vec<u32>>> = vec![None; requests.len()];
                let mut owner: Option<u32> = None;
                for u in range {
                    let r = unit_request[u];
                    let req = &requests[r as usize];
                    let first_batch = unit_first_batch[u] as usize;
                    // Units of one request are contiguous, so the warm
                    // scratch is re-targeted only at request boundaries (and
                    // even then the buffers are reused, not reallocated).
                    if owner != Some(r) {
                        owner = Some(r);
                        scratch.bfs.prepare(req.component.vertex_count());
                    }
                    let lanes = block_lanes(req.total_worlds, first_batch);
                    req.component.fill_batch(
                        &mut scratch.batch,
                        &req.seq,
                        first_batch as u64 * LANES as u64,
                        lanes,
                    );
                    scratch
                        .bfs
                        .run(0, scratch.batch.active_mask(), scratch.batch.masks(), |u| {
                            req.component.local_neighbors(u)
                        });
                    let counts = acc[r as usize]
                        .get_or_insert_with(|| vec![0u32; req.component.vertex_count()]);
                    for (s, mask) in counts.iter_mut().zip(scratch.bfs.reached()) {
                        *s += block_ones(mask);
                    }
                }
                acc
            })
        });
        // Success counts are integers: summing per-request partials across
        // chunks is exact and order-free.
        let mut out: Vec<Vec<u32>> = requests
            .iter()
            .map(|req| vec![0u32; req.component.vertex_count()])
            .collect();
        for chunk in chunks {
            for (total, part) in out.iter_mut().zip(chunk) {
                if let Some(part) = part {
                    for (t, p) in total.iter_mut().zip(part) {
                        *t += p;
                    }
                }
            }
        }
        out
    }
}

/// One component's share of a [`ParallelEstimator::sample_component_worlds`]
/// job: draw worlds `[first_world, total_worlds)`, lane/seed contract as in
/// [`crate::batch`] (world `i` draws from `seq.rng(i)`).
///
/// `first_world` must be a multiple of [`LANES`] — extensions always resume
/// on a whole-batch boundary; `total_worlds` may be arbitrary (the final
/// batch is partial).
#[derive(Debug, Clone, Copy)]
pub struct WorldsRequest<'a> {
    /// The component to sample.
    pub component: &'a ComponentGraph,
    /// Seed stream of the component (shared across all its extensions).
    pub seq: SeedSequence,
    /// First world to draw (inclusive, multiple of [`LANES`]).
    pub first_world: u32,
    /// Total worlds of the target estimate (exclusive end of the range).
    pub total_worlds: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::{sample_flow, sample_reachability};
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// Small cyclic graph: Q(0)-1 (0.5), 1-2 (0.5), Q-2 (0.5), 2-3 (0.8).
    fn cyclic() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::new(2.0).unwrap());
        b.add_edge(VertexId(0), VertexId(1), p(0.5)).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p(0.5)).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p(0.5)).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p(0.8)).unwrap();
        b.build()
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let g = cyclic();
        let active = EdgeSubset::full(&g);
        let seq = SeedSequence::new(404);
        for samples in [1, 63, 64, 65, 511, 512, 513, 1000] {
            let reach1 = ParallelEstimator::new(1).sample_reachability(
                &g,
                &active,
                VertexId(0),
                samples,
                &seq,
            );
            let flow1 = ParallelEstimator::new(1).sample_flow(
                &g,
                &active,
                VertexId(0),
                false,
                samples,
                &seq,
            );
            for threads in [2, 3, 8] {
                let est = ParallelEstimator::new(threads);
                let reach_t = est.sample_reachability(&g, &active, VertexId(0), samples, &seq);
                let flow_t = est.sample_flow(&g, &active, VertexId(0), false, samples, &seq);
                assert_eq!(reach1, reach_t, "samples={samples} threads={threads}");
                assert_eq!(flow1, flow_t, "samples={samples} threads={threads}");
            }
        }
    }

    #[test]
    fn batched_estimates_agree_with_scalar_statistics() {
        let g = cyclic();
        let active = EdgeSubset::full(&g);
        let seq = SeedSequence::new(17);
        let n = 20_000;
        let batched =
            ParallelEstimator::new(4).sample_reachability(&g, &active, VertexId(0), n, &seq);
        let mut rng = seq.rng(0);
        let scalar = sample_reachability(&g, &active, VertexId(0), n, &mut rng);
        for v in g.vertices() {
            assert!(
                (batched.probability(v) - scalar.probability(v)).abs() < 0.02,
                "vertex {v}: {} vs {}",
                batched.probability(v),
                scalar.probability(v)
            );
        }
        let bf = ParallelEstimator::new(4).sample_flow(&g, &active, VertexId(0), false, n, &seq);
        let mut rng = seq.rng(1);
        let sf = sample_flow(&g, &active, VertexId(0), false, n, &mut rng);
        assert!(
            (bf.mean() - sf.mean()).abs() < 0.1,
            "{} vs {}",
            bf.mean(),
            sf.mean()
        );
        assert_eq!(bf.samples(), n as u64);
    }

    #[test]
    fn query_always_reached_and_samples_counted() {
        let g = cyclic();
        let active = EdgeSubset::full(&g);
        let seq = SeedSequence::new(2);
        let est =
            ParallelEstimator::new(8).sample_reachability(&g, &active, VertexId(0), 130, &seq);
        assert_eq!(est.samples(), 130);
        assert_eq!(est.probability(VertexId(0)), 1.0);
        assert_eq!(est.successes(VertexId(0)), 130);
    }

    #[test]
    fn lane_labels_match_scalar_child_streams() {
        // Batch 0 lane 0 must be the scalar world of child stream 0, so a
        // 64-sample batched run and a scalar run share their first world.
        let g = cyclic();
        let active = EdgeSubset::full(&g);
        let seq = SeedSequence::new(33);
        let est = ParallelEstimator::new(1).sample_reachability(&g, &active, VertexId(0), 1, &seq);
        let mut rng = seq.rng(0);
        let scalar = sample_reachability(&g, &active, VertexId(0), 1, &mut rng);
        for v in g.vertices() {
            assert_eq!(est.successes(v), scalar.successes(v), "vertex {v}");
        }
    }

    /// The whole parse/clamp matrix lives in one test function so its
    /// counter-delta assertions can't race other tests (the invalid-request
    /// counter is process-global).
    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        // Valid values, and the silent unset/blank defaults, never touch
        // the invalid counter.
        let before = invalid_thread_requests();
        assert_eq!(parse_threads(None), 1);
        assert_eq!(parse_threads(Some("8".into())), 8);
        assert_eq!(parse_threads(Some(" 2 ".into())), 2);
        assert_eq!(parse_threads(Some(String::new())), 1);
        assert_eq!(parse_threads(Some("   ".into())), 1);
        assert_eq!(clamp_threads(1, "test"), 1);
        assert_eq!(clamp_threads(64, "test"), 64);
        assert_eq!(invalid_thread_requests(), before);

        // Zero and unparseable values clamp to 1 *and* are counted, so a
        // misconfigured daemon is observable rather than silently serial.
        assert_eq!(parse_threads(Some("0".into())), 1);
        assert_eq!(parse_threads(Some("-3".into())), 1);
        assert_eq!(parse_threads(Some("lots".into())), 1);
        assert_eq!(parse_threads(Some("eight".into())), 1);
        assert_eq!(clamp_threads(0, "test"), 1);
        assert_eq!(ParallelEstimator::new(0).threads(), 1);
        assert_eq!(invalid_thread_requests(), before + 6);
    }

    #[test]
    fn small_jobs_stay_on_the_calling_thread() {
        // 4 edges × 1000 samples is far below the per-worker floor.
        assert_eq!(effective_workers(8, 1000, 4), 1);
        // Big jobs use the configured count…
        assert_eq!(effective_workers(8, 4096, 20_000), 8);
        // …scaled down when only some workers can be kept busy.
        let mid = effective_workers(8, 128, 1024);
        assert!((1..=8).contains(&mid));
        // Degenerate inputs stay sane.
        assert_eq!(effective_workers(0, 1, 0), 1);
    }

    #[test]
    fn block_lanes_cover_the_budget_without_panicking() {
        // Blocks probing past the end of the budget see 0 lanes — the
        // boundary the old `lanes_in_batch` assert used to panic on.
        assert_eq!(block_lanes(512, 0), 512);
        assert_eq!(block_lanes(512, 8), 0);
        assert_eq!(block_lanes(600, 8), 88);
        assert_eq!(block_lanes(1000, 0), 512);
        assert_eq!(block_lanes(1, 0), 1);
        assert_eq!(block_lanes(64, 1), 0);
        assert_eq!(block_lanes(65, 1), 1);
    }

    #[test]
    fn run_jobs_preserves_job_order_at_every_thread_count() {
        let compute = |i: usize| i * i;
        let expected: Vec<usize> = (0..23).map(compute).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ParallelEstimator::new(threads).run_jobs(23, compute);
            assert_eq!(got, expected, "threads={threads}");
        }
        let empty = ParallelEstimator::new(4).run_jobs(0, compute);
        assert!(empty.is_empty());
    }

    #[test]
    fn chunking_covers_every_batch_exactly_once() {
        for (batches, threads) in [(1, 8), (7, 2), (16, 3), (16, 16), (5, 1)] {
            let chunks = parallel_chunks(batches, threads, |_w, r| r.collect::<Vec<_>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..batches).collect::<Vec<_>>());
        }
    }
}
