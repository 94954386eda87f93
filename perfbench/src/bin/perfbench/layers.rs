//! Per-layer measurements for the traced run. Each is taken from outside
//! its layer by timing calls into the layer's public functions: the F-tree
//! through `FTree::insert_edge` / `FTree::probe_edge` behind a timing
//! `EstimateProvider`, the sampling kernel through `WorldBatch` and
//! `LaneBfs`, the parallel engine through
//! `ParallelEstimator::sample_component_worlds`, the pool through
//! `WorkerPool::run`, and the graph layer through its spanning tree.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use flowmax::core::{EstimateProvider, EstimatorConfig, FTree, SamplingProvider, SelectionMetrics};
use flowmax::graph::{
    max_probability_spanning_tree, EdgeId, EdgeSubset, GraphBuilder, ProbabilisticGraph, VertexId,
    Weight,
};
use flowmax::sampling::{
    ComponentEstimate, ComponentGraph, LaneBfs, ParallelEstimator, SeedSequence, WorkerPool,
    WorldBatch, WorldsRequest,
};

use crate::report::{median, Metric};
use crate::trace::Tracer;

/// The solve whose layers are measured.
pub struct Subject<'a> {
    pub graph: &'a ProbabilisticGraph,
    pub query: VertexId,
    /// The committed selection, in commit order.
    pub selected: &'a [EdgeId],
    pub samples: u32,
    pub threads: usize,
    pub lanes: usize,
    pub seed: u64,
}

/// F-tree probes timed at each checkpoint of the replay.
const PROBES_PER_CHECKPOINT: usize = 32;
/// Replay checkpoints, as fractions of the selection.
const CHECKPOINTS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// Timed repetitions of the parallel-engine and spanning-tree calls.
const REPS: usize = 5;
/// Empty pool jobs timed for the round trip.
const POOL_JOBS: usize = 2000;
/// Component snapshots kept for the kernel and parallel measurements.
const MAX_SNAPSHOTS: usize = 400;

/// The selection layer's counters, from one solve's `SolveRun.metrics`
/// and the spans between its `SelectionObserver::on_step` callbacks.
pub fn selection_metrics(m: &SelectionMetrics, selected: usize, iter_ms: &[f64]) -> Vec<Metric> {
    let probes = m.probes as f64;
    let ratio = |x: u64| if probes > 0.0 { x as f64 / probes } else { 0.0 };
    let total: f64 = iter_ms.iter().sum();
    let tail_from = iter_ms.len() - iter_ms.len() / 10;
    let last_decile: f64 = iter_ms[tail_from..].iter().sum();
    vec![
        Metric::new(
            "selection.probes",
            "count",
            probes,
            1,
            "SolveRun.metrics.probes",
        ),
        Metric::new(
            "selection.edge_samples",
            "count",
            m.edge_samples_drawn as f64,
            1,
            "component edges x worlds sampled",
        ),
        Metric::new(
            "selection.probes_per_edge",
            "count",
            probes / selected.max(1) as f64,
            1,
            "probes per committed edge",
        ),
        Metric::new(
            "selection.memo_hit_ratio",
            "ratio",
            ratio(m.memo_hits),
            1,
            "memo_hits / probes",
        ),
        Metric::new(
            "selection.ci_prune_ratio",
            "ratio",
            ratio(m.ci_pruned),
            1,
            "ci_pruned / probes",
        ),
        Metric::new(
            "selection.ds_skipped",
            "count",
            m.ds_skipped as f64,
            1,
            "probes skipped by delayed sampling",
        ),
        Metric::new(
            "selection.iter_ms_p50",
            "ms",
            median(iter_ms),
            iter_ms.len(),
            "median greedy iteration, between on_step callbacks",
        ),
        Metric::new(
            "selection.last_decile_share",
            "ratio",
            if total > 0.0 {
                last_decile / total
            } else {
                0.0
            },
            iter_ms.len(),
            "share of selection time in the last tenth of iterations",
        ),
    ]
}

/// Wraps the library's sampling provider, timing every estimate and
/// keeping the component snapshots it is asked about.
struct TimedProvider {
    inner: SamplingProvider,
    calls: Vec<(Instant, Instant)>,
    snapshots: Vec<ComponentGraph>,
}

impl EstimateProvider for TimedProvider {
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate {
        let start = Instant::now();
        let estimate = self.inner.estimate(snapshot);
        self.calls.push((start, Instant::now()));
        if self.snapshots.len() < MAX_SNAPSHOTS && snapshot.edge_count() >= 2 {
            self.snapshots.push(snapshot.clone());
        }
        estimate
    }
}

/// Median time of a maximum-probability spanning tree from each of
/// `roots` (the `Dijkstra` baseline's first step, which the serving layer
/// caches per query vertex).
pub fn spanning(graph: &ProbabilisticGraph, roots: &[VertexId], tracer: &mut Tracer) -> Metric {
    let full = EdgeSubset::full(graph);
    let mut times = Vec::new();
    for rep in 0..REPS {
        for &root in roots {
            let start = Instant::now();
            black_box(max_probability_spanning_tree(graph, &full, root));
            let end = Instant::now();
            tracer.record("graph.spanning", start, end, None, rep as u64);
            times.push((end - start).as_secs_f64() * 1e3);
        }
    }
    Metric::new(
        "graph.spanning_ms",
        "ms",
        median(&times),
        times.len(),
        "median max_probability_spanning_tree",
    )
}

/// Measures the ftree, kernel, parallel and pool layers on one solve.
pub fn measure(s: &Subject<'_>, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();

    // ftree: replay the committed selection through insert_edge, with the
    // estimation time separated out by the timing provider.
    let mut provider = TimedProvider {
        inner: SamplingProvider::with_parallelism(
            EstimatorConfig::monte_carlo(s.samples),
            s.seed,
            s.threads,
            s.lanes,
        ),
        calls: Vec::new(),
        snapshots: Vec::new(),
    };
    let mut tree = FTree::new(s.graph, s.query);
    let mut insert_self_s = 0.0;
    let mut estimate_s = 0.0;
    let mut estimates = 0usize;
    let mut probe_s = Vec::new();
    let checkpoints: Vec<usize> = CHECKPOINTS
        .iter()
        .map(|f| ((s.selected.len() as f64 * f).ceil() as usize).max(1))
        .collect();
    for (i, &e) in s.selected.iter().enumerate() {
        let before = provider.calls.len();
        let start = Instant::now();
        tree.insert_edge(s.graph, e, &mut provider)
            .map_err(|err| format!("replaying edge {e}: {err}"))?;
        let end = Instant::now();
        let parent = tracer.record("ftree.insert", start, end, None, i as u64);
        let mut inner = 0.0;
        for &(a, b) in &provider.calls[before..] {
            tracer.record("ftree.estimate", a, b, parent, i as u64);
            inner += (b - a).as_secs_f64();
        }
        estimates += provider.calls.len() - before;
        estimate_s += inner;
        insert_self_s += (end - start).as_secs_f64() - inner;
        if checkpoints.contains(&(i + 1)) {
            probe_s.extend(probe_frontier(
                s,
                &mut tree,
                &mut provider,
                tracer,
                i as u64,
            )?);
        }
    }
    let inserts = s.selected.len().max(1) as f64;
    metrics.push(Metric::new(
        "ftree.insert_us",
        "us",
        insert_self_s / inserts * 1e6,
        s.selected.len(),
        "mean FTree::insert_edge self time, estimation excluded",
    ));
    metrics.push(Metric::new(
        "ftree.estimate_us",
        "us",
        if estimates > 0 {
            estimate_s / estimates as f64 * 1e6
        } else {
            0.0
        },
        estimates,
        "mean component estimate during the replay",
    ));
    metrics.push(Metric::new(
        "ftree.probe_us",
        "us",
        median(&probe_s) * 1e6,
        probe_s.len(),
        "median FTree::probe_edge over frontier samples at 4 checkpoints",
    ));

    let snapshots = std::mem::take(&mut provider.snapshots);
    metrics.extend(kernel(s, &snapshots, tracer)?);
    metrics.extend(parallel(s, &snapshots, tracer));
    metrics.push(pool(tracer));
    Ok(metrics)
}

/// Times `FTree::probe_edge` on an evenly spread sample of the current
/// candidate frontier (unselected edges touching the tree).
fn probe_frontier(
    s: &Subject<'_>,
    tree: &mut FTree,
    provider: &mut TimedProvider,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Vec<f64>, String> {
    let selected = tree.selected_edges().clone();
    let mut frontier: Vec<EdgeId> = s
        .graph
        .edge_ids()
        .filter(|&e| {
            let (a, b) = s.graph.endpoints(e);
            !selected.contains(e) && (tree.contains_vertex(a) || tree.contains_vertex(b))
        })
        .collect();
    let stride = (frontier.len() / PROBES_PER_CHECKPOINT).max(1);
    frontier = frontier.into_iter().step_by(stride).collect();
    frontier.truncate(PROBES_PER_CHECKPOINT);
    let base = tree.expected_flow(s.graph, false);
    let mut times = Vec::new();
    for e in frontier {
        let start = Instant::now();
        tree.probe_edge(s.graph, e, base, false, 0.01, provider)
            .map_err(|err| format!("probing edge {e}: {err}"))?;
        let end = Instant::now();
        tracer.record("ftree.probe", start, end, None, request);
        times.push((end - start).as_secs_f64());
    }
    Ok(times)
}

/// A component snapshot as a stand-alone graph, articulation first.
fn local_graph(
    graph: &ProbabilisticGraph,
    c: &ComponentGraph,
) -> Result<(ProbabilisticGraph, VertexId), String> {
    let mut index = BTreeMap::new();
    let mut b = GraphBuilder::new();
    for (i, &v) in c.vertices().iter().enumerate() {
        index.insert(v, VertexId(i as u32));
        b.add_vertex(Weight::ONE);
    }
    for &e in c.global_edges() {
        let (x, y) = graph.endpoints(e);
        let (Some(&lx), Some(&ly)) = (index.get(&x), index.get(&y)) else {
            return Err(format!("snapshot edge {e} leaves its component"));
        };
        b.add_edge(lx, ly, graph.probability(e))
            .map_err(|err| format!("snapshot edge {e}: {err}"))?;
    }
    let source = index
        .get(&c.articulation())
        .copied()
        .ok_or("snapshot without its articulation vertex")?;
    Ok((b.build(), source))
}

/// Coin generation and lane BFS at width 8, per edge x world, on the
/// snapshots the F-tree replay estimated.
fn kernel(
    s: &Subject<'_>,
    snapshots: &[ComponentGraph],
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    const WORLDS: u32 = 512;
    let seq = SeedSequence::new(s.seed);
    let blocks = s.samples.div_ceil(WORLDS).max(1);
    let (mut coin_s, mut bfs_s, mut edge_worlds) = (0.0, 0.0, 0.0);
    for (i, c) in snapshots.iter().enumerate() {
        let (local, source) = local_graph(s.graph, c)?;
        let all = EdgeSubset::full(&local);
        let mut batch = WorldBatch::<8>::new(local.edge_count());
        let mut bfs = LaneBfs::<8>::new(local.vertex_count());
        for block in 0..blocks {
            let t0 = Instant::now();
            batch.sample_into(&local, &all, &seq, u64::from(block * WORLDS), WORLDS);
            let t1 = Instant::now();
            bfs.run_graph(&local, source, &batch);
            black_box(bfs.reached());
            let t2 = Instant::now();
            tracer.record("kernel.coin", t0, t1, None, i as u64);
            tracer.record("kernel.bfs", t1, t2, None, i as u64);
            coin_s += (t1 - t0).as_secs_f64();
            bfs_s += (t2 - t1).as_secs_f64();
            edge_worlds += local.edge_count() as f64 * f64::from(WORLDS);
        }
    }
    let per = |t: f64| {
        if edge_worlds > 0.0 {
            t / edge_worlds * 1e9
        } else {
            0.0
        }
    };
    let n = snapshots.len() * blocks as usize;
    Ok(vec![
        Metric::new(
            "kernel.coin_ns",
            "ns",
            per(coin_s),
            n,
            "WorldBatch::<8>::sample_into per edge x world",
        ),
        Metric::new(
            "kernel.bfs_ns",
            "ns",
            per(bfs_s),
            n,
            "LaneBfs::<8> per edge x world",
        ),
    ])
}

/// The multi-component sampling job at 1 and 2 threads.
fn parallel(s: &Subject<'_>, snapshots: &[ComponentGraph], tracer: &mut Tracer) -> Vec<Metric> {
    let requests: Vec<WorldsRequest<'_>> = snapshots
        .iter()
        .enumerate()
        .map(|(i, c)| WorldsRequest {
            component: c,
            seq: SeedSequence::new(s.seed ^ i as u64),
            first_world: 0,
            total_worlds: s.samples,
        })
        .collect();
    let mut median_s = [0.0f64; 2];
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        let engine = ParallelEstimator::new(threads).with_lane_words(s.lanes);
        black_box(engine.sample_component_worlds(&requests));
        let mut times = Vec::new();
        for rep in 0..REPS {
            let start = Instant::now();
            black_box(engine.sample_component_worlds(&requests));
            let end = Instant::now();
            tracer.record("parallel.sample", start, end, None, rep as u64);
            times.push((end - start).as_secs_f64());
        }
        median_s[slot] = median(&times);
    }
    let worlds = requests.len() as f64 * f64::from(s.samples);
    vec![
        Metric::new(
            "parallel.worlds_per_s",
            "1/s",
            if median_s[1] > 0.0 {
                worlds / median_s[1]
            } else {
                0.0
            },
            REPS,
            "sample_component_worlds at 2 threads over the replay's snapshots",
        ),
        Metric::new(
            "parallel.speedup_t2",
            "ratio",
            if median_s[1] > 0.0 {
                median_s[0] / median_s[1]
            } else {
                0.0
            },
            REPS,
            "median time at 1 thread / at 2 threads",
        ),
    ]
}

/// An empty job over two ranges at pool width 2.
fn pool(tracer: &mut Tracer) -> Metric {
    let pool = WorkerPool::global();
    black_box(pool.run(vec![0..1, 1..2], |j, r| j + r.start));
    let mut times = Vec::with_capacity(POOL_JOBS);
    for i in 0..POOL_JOBS {
        let start = Instant::now();
        black_box(pool.run(vec![0..1, 1..2], |j, r| j + r.start));
        let end = Instant::now();
        tracer.record("pool.run", start, end, None, i as u64);
        times.push((end - start).as_secs_f64() * 1e6);
    }
    Metric::new(
        "pool.roundtrip_us",
        "us",
        median(&times),
        times.len(),
        "median WorkerPool::run of an empty two-range job",
    )
}
