//! The `solve_*` workloads: what `flowmax solve` does, minus argument
//! parsing and printing — `read_text` → `Session::new` → `query().run()` —
//! repeated on one pinned instance.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use flowmax::core::{Algorithm, SelectionMetrics, SelectionStep, Session};
use flowmax::datasets::{RoadConfig, WsnConfig};
use flowmax::graph::{io as gio, EdgeId, ProbabilisticGraph, VertexId};

use crate::host;
use crate::layers::{self, Subject};
use crate::report::{median, Metric, Outcome};
use crate::serve;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub enum Family {
    Wsn { vertices: usize, epsilon: f64 },
    Road { width: usize, height: usize },
}

/// One `solve_*` workload.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    pub family: Family,
    pub budget: usize,
    pub samples: u32,
    pub threads: usize,
    pub lanes: usize,
}

/// Generator seed of the graph and master seed of the solver. The solve
/// instances are pinned: the greedy's work is chaotic in its input (on the
/// road grid one solve took 0.46–12 s across generator seeds, and
/// 0.6–1.5 s across Monte-Carlo seeds on one graph), so a seed-varied
/// instance would measure the input rather than the code.
pub const INSTANCE_SEED: u64 = 42;
/// A rep is clean when the hypervisor stole at most this share of the CPU
/// time the guest wanted while it ran. Steal marks a busy host: on the
/// 2-vCPU VM the benchmark was tuned on, a set of runs at 3–13 % steal
/// solved 30 % slower than sets at under 2 %, in CPU time as well as wall
/// time, so the slowdown is the neighbours' load on the shared cores and
/// steal is its visible sign. Timings are medians over clean reps only.
pub const CLEAN_STEAL: f64 = 0.03;
/// Reps a run's timings summarise at least. A run makes this many reps
/// whatever `--seconds` says, and goes on past `--seconds`, by up to
/// [`EXTRA_S`], until this many are clean; if they are not, the timings
/// take the this-many least-stolen reps instead.
pub const MIN_CLEAN: usize = 10;
/// Seconds a run may go on past `--seconds` to collect clean reps: enough
/// for a few more reps, small enough that a busy host cannot stretch the
/// benchmark's total time by much.
const EXTRA_S: f64 = 10.0;
/// The validity gate: when even the [`MIN_CLEAN`] least-stolen reps lost
/// more than this share to steal, the host was too busy to measure and
/// the run fails rather than report a slow time.
pub const MAX_STEAL: f64 = 0.10;
/// Untraced/traced rep pairs of a traced run.
const TRACE_PAIRS: usize = 2;

pub fn spec(workload: &str, smoke: bool) -> Option<SolveSpec> {
    let (family, budget, threads) = match (workload, smoke) {
        // Dense geometric graph: the selection grows large bi-connected
        // components, so component sampling and its dispatch over two
        // threads dominate.
        ("solve_wsn", false) => (
            Family::Wsn {
                vertices: 20_000,
                epsilon: 0.022,
            },
            150,
            2,
        ),
        ("solve_wsn", true) => (
            Family::Wsn {
                vertices: 400,
                epsilon: 0.12,
            },
            12,
            2,
        ),
        // Road grid: locality gives many small components, so F-tree
        // probe/insert work and evaluation weigh more; one thread skips the
        // pool entirely (the control for pool and parallel changes). At
        // k=2000 one solve of the pinned instance takes ~4 s, too few reps
        // per run for a steady median; k=1500 takes ~0.9 s.
        ("solve_road", false) => (
            Family::Road {
                width: 300,
                height: 300,
            },
            1500,
            1,
        ),
        ("solve_road", true) => (
            Family::Road {
                width: 15,
                height: 15,
            },
            40,
            1,
        ),
        _ => return None,
    };
    Some(SolveSpec {
        family,
        budget,
        samples: 1000,
        threads,
        lanes: 8,
    })
}

/// Writes the workload's graph (`graph.txt`) and query vertex
/// (`query.txt`) into `dir`: the pinned instance, whatever the run's seed.
pub fn generate(spec: &SolveSpec, dir: &Path) -> Result<(), String> {
    let graph = match spec.family {
        Family::Wsn { vertices, epsilon } => {
            WsnConfig::paper(vertices, epsilon)
                .generate(INSTANCE_SEED)
                .graph
        }
        Family::Road { width, height } => {
            RoadConfig::paper(width, height)
                .generate(INSTANCE_SEED)
                .graph
        }
    };
    write_graph(&graph, &dir.join("graph.txt"))?;
    let query = 0u32;
    std::fs::write(dir.join("query.txt"), format!("{query}\n"))
        .map_err(|e| format!("cannot write query: {e}"))
}

pub fn write_graph(graph: &ProbabilisticGraph, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    gio::write_text(graph, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn read_graph(path: &Path) -> Result<ProbabilisticGraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    gio::read_text(BufReader::new(file))
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// What one solve produced and how long its parts took.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Steal share while the rep ran, as [`host::StealMeter`] measures it.
    pub steal: f64,
    pub read_s: f64,
    pub new_s: f64,
    pub solve_s: f64,
    pub cpu_s: f64,
    /// Run wall time minus `SolveRun.elapsed`: the final evaluation.
    pub eval_s: f64,
    /// Time from the run's start (or the previous step) to each step.
    pub step_ms: Vec<f64>,
    pub selected: Vec<EdgeId>,
    pub flow: f64,
    pub metrics: SelectionMetrics,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.read_s + self.new_s
    }
}

/// One solve from the file, as `flowmax solve` runs it.
pub fn solve_rep(
    file: &Path,
    query: VertexId,
    spec: &SolveSpec,
    seed: u64,
    algorithm: Algorithm,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Rep, String> {
    let steal = host::StealMeter::start()?;
    let t0 = Instant::now();
    let graph = read_graph(file)?;
    let t1 = Instant::now();
    let session = Session::new(&graph)
        .with_threads(spec.threads)
        .with_lane_words(spec.lanes)
        .with_seed(seed);
    let t2 = Instant::now();
    let mut stamps: Vec<Instant> = Vec::with_capacity(spec.budget);
    let builder = session
        .query(query)
        .map_err(|e| e.to_string())?
        .algorithm(algorithm)
        .budget(spec.budget)
        .samples(spec.samples);
    let cpu0 = host::own_cpu_s()?;
    let start = Instant::now();
    let run = builder
        .run_with(&mut |_: &SelectionStep| stamps.push(Instant::now()))
        .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let cpu1 = host::own_cpu_s()?;
    let steal = steal.share()?;
    let solve_s = (end - start).as_secs_f64();
    let eval_s = (solve_s - run.elapsed.as_secs_f64()).max(0.0);

    tracer.record("graph.read_text", t0, t1, None, request);
    tracer.record("session.new", t1, t2, None, request);
    let root = tracer.record("session.run", start, end, None, request);
    let mut prev = start;
    let mut step_ms = Vec::with_capacity(stamps.len());
    for &stamp in &stamps {
        tracer.record("selection.iter", prev, stamp, root, request);
        step_ms.push((stamp - prev).as_secs_f64() * 1e3);
        prev = stamp;
    }
    if tracer.enabled() {
        tracer.record("session.eval", start + run.elapsed, end, root, request);
    }
    Ok(Rep {
        steal,
        read_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        solve_s,
        cpu_s: cpu1 - cpu0,
        eval_s,
        step_ms,
        selected: run.selected,
        flow: run.flow,
        metrics: run.metrics,
    })
}

/// The output gate for one rep: the same selection and the same flow,
/// bit for bit, as the reference rep.
pub fn same_result(reference: &Rep, rep: &Rep) -> Result<(), String> {
    if rep.selected != reference.selected {
        let at = rep
            .selected
            .iter()
            .zip(&reference.selected)
            .position(|(a, b)| a != b)
            .unwrap_or(rep.selected.len().min(reference.selected.len()));
        return Err(format!(
            "selection differs from the reference at step {at} ({} vs {} edges)",
            rep.selected.len(),
            reference.selected.len()
        ));
    }
    if rep.flow.to_bits() != reference.flow.to_bits() {
        return Err(format!(
            "flow {} differs from the reference flow {}",
            rep.flow, reference.flow
        ));
    }
    Ok(())
}

/// The quality gate: the greedy selection must reach at least the
/// `Dijkstra` baseline's flow at the same budget.
pub fn beats_baseline(greedy_flow: f64, dijkstra_flow: f64) -> Result<(), String> {
    if greedy_flow >= dijkstra_flow {
        Ok(())
    } else {
        Err(format!(
            "FT+M+CI+DS flow {greedy_flow} is below the Dijkstra baseline's {dijkstra_flow}"
        ))
    }
}

pub fn run(
    spec: &SolveSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    root: &Path,
    smoke: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let file = dir.join("graph.txt");
    let query = read_query(dir)?;
    let mut out = Outcome::default();
    out.facts.push(("query".into(), query.to_string()));
    if tracer.enabled() {
        let suite = layer_suite(&file, query, spec, INSTANCE_SEED, tracer)?;
        out.attempted += suite.attempted;
        for f in suite.failures {
            out.fail(f);
        }
        out.metrics.extend(suite.metrics);
        let graph = read_graph(&file)?;
        out.push(layers::spanning(&graph, &[query], tracer));
        drop(graph);
        let probe = serve::probe_graph(root, &file, spec.threads, spec.lanes, seed, smoke, tracer)?;
        out.attempted += probe.attempted;
        out.failed += probe.failed;
        out.failures.extend(probe.failures);
        out.metrics.extend(probe.metrics);
        out.push(Metric::new(
            "trace.overhead_share",
            "ratio",
            suite.overhead,
            2 * TRACE_PAIRS,
            "median traced solve / median untraced solve - 1",
        ));
        return Ok(out);
    }

    let mut off = Tracer::new(false);
    // An untimed warm-up solve at a tenth of the budget starts the worker
    // pool, warms its thread-local scratch and pulls the file into the page
    // cache.
    let warm = SolveSpec {
        budget: (spec.budget / 10).max(1),
        ..*spec
    };
    solve_rep(
        &file,
        query,
        &warm,
        INSTANCE_SEED,
        Algorithm::FtMCiDs,
        &mut off,
        0,
    )?;
    let begin = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let elapsed = begin.elapsed().as_secs_f64();
        let clean = reps.iter().filter(|r| r.steal <= CLEAN_STEAL).count();
        let more = reps.len() < MIN_CLEAN
            || elapsed < seconds
            || (clean < MIN_CLEAN && elapsed < seconds + EXTRA_S);
        if !more {
            break;
        }
        out.attempted += 1;
        let i = reps.len() + 1;
        let rep = solve_rep(
            &file,
            query,
            spec,
            INSTANCE_SEED,
            Algorithm::FtMCiDs,
            &mut off,
            i as u64,
        )?;
        if let Some(first) = reps.first() {
            if let Err(why) = same_result(first, &rep) {
                out.fail(format!("rep {i}: {why}"));
            }
        }
        reps.push(rep);
    }
    let reference = &reps[0];
    let peak_rss_mb = host::peak_rss_mib(None)?;

    let baseline = solve_rep(
        &file,
        query,
        spec,
        INSTANCE_SEED,
        Algorithm::Dijkstra,
        &mut off,
        0,
    )?;
    out.attempted += 1;
    if let Err(why) = beats_baseline(reference.flow, baseline.flow) {
        out.fail(why);
    }
    out.facts
        .push(("dijkstra_flow".into(), baseline.flow.to_string()));

    let per_rep = |f: fn(&Rep) -> f64| {
        let listed: Vec<String> = reps.iter().map(|r| format!("{:.4}", f(r))).collect();
        listed.join(" ")
    };
    out.facts
        .push(("solve_s_per_rep".into(), per_rep(|r| r.solve_s)));
    out.facts
        .push(("cpu_s_per_rep".into(), per_rep(|r| r.cpu_s)));
    out.facts
        .push(("setup_s_per_rep".into(), per_rep(Rep::setup_s)));
    out.facts
        .push(("steal_per_rep".into(), per_rep(|r| r.steal)));
    let timed = match clean_reps(&reps) {
        Ok((clean, limit)) => {
            let text = format!("{} of {} (steal <= {limit:.4})", clean.len(), reps.len());
            out.facts.push(("clean_reps".into(), text));
            clean
        }
        Err(why) => {
            out.fail(why);
            reps.iter().collect()
        }
    };
    let n = timed.len();
    let col = |f: fn(&Rep) -> f64| median(&timed.iter().map(|r| f(r)).collect::<Vec<f64>>());
    out.push(Metric::new(
        "setup_s",
        "s",
        col(Rep::setup_s),
        n,
        "median read_text + Session::new over clean reps",
    ));
    out.push(Metric::new(
        "solve_s",
        "s",
        col(|r| r.solve_s),
        n,
        "median query().run() over clean reps: selection + final evaluation",
    ));
    out.push(Metric::new(
        "cpu_s",
        "s",
        col(|r| r.cpu_s),
        n,
        "median CPU time of all threads per solve over clean reps",
    ));
    out.push(Metric::new(
        "peak_rss_mb",
        "MiB",
        peak_rss_mb,
        1,
        "VmHWM of the bench process (inputs generated in a child)",
    ));
    out.push(Metric::new(
        "flow",
        "weight",
        reference.flow,
        1,
        "SolveRun.flow, identical on every rep",
    ));
    Ok(out)
}

/// The reps a run's timings summarise, with the steal limit they meet:
/// every rep with steal at most [`CLEAN_STEAL`], or, when fewer than
/// [`MIN_CLEAN`] are, the [`MIN_CLEAN`] least-stolen reps. The validity
/// gate fails the run when those lost more than [`MAX_STEAL`].
pub fn clean_reps(reps: &[Rep]) -> Result<(Vec<&Rep>, f64), String> {
    let mut steals: Vec<f64> = reps.iter().map(|r| r.steal).collect();
    steals.sort_by(f64::total_cmp);
    let Some(&nth) = steals.get(MIN_CLEAN - 1) else {
        return Err(format!(
            "too few reps to time: {} (need {MIN_CLEAN})",
            reps.len()
        ));
    };
    if nth > MAX_STEAL {
        return Err(format!(
            "host too busy to measure: only {} of {} reps ran with steal <= {MAX_STEAL} \
             (need {MIN_CLEAN})",
            steals.iter().filter(|&&s| s <= MAX_STEAL).count(),
            reps.len()
        ));
    }
    let limit = nth.max(CLEAN_STEAL);
    Ok((reps.iter().filter(|r| r.steal <= limit).collect(), limit))
}

fn read_query(dir: &Path) -> Result<VertexId, String> {
    let text = std::fs::read_to_string(dir.join("query.txt"))
        .map_err(|e| format!("cannot read query: {e}"))?;
    let id = text
        .trim()
        .parse()
        .map_err(|_| format!("bad query file {text:?}"))?;
    Ok(VertexId(id))
}

/// The in-process layers of one solve, as a traced run measures them.
pub struct Suite {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Median traced solve / median untraced solve - 1.
    pub overhead: f64,
}

/// Solves `file` untraced and traced in turn (gated bit for bit against a
/// warm-up reference), then measures the graph, session, selection,
/// ftree, kernel, parallel and pool layers on that solve.
pub fn layer_suite(
    file: &Path,
    query: VertexId,
    spec: &SolveSpec,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Suite, String> {
    let mut off = Tracer::new(false);
    let reference = solve_rep(file, query, spec, seed, Algorithm::FtMCiDs, &mut off, 0)?;
    let mut failures = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 1..=2 * TRACE_PAIRS {
        let t = if i % 2 == 0 { &mut *tracer } else { &mut off };
        let rep = solve_rep(file, query, spec, seed, Algorithm::FtMCiDs, t, i as u64)?;
        if let Err(why) = same_result(&reference, &rep) {
            failures.push(format!("traced-run rep {i}: {why}"));
        }
        if i % 2 == 0 {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let over = |f: fn(&Rep) -> f64| median(&all.iter().map(|r| f(r)).collect::<Vec<_>>());
    let file_mb = std::fs::metadata(file)
        .map_err(|e| format!("cannot stat {}: {e}", file.display()))?
        .len() as f64
        / 1048576.0;
    let mut metrics = vec![
        Metric::new(
            "graph.read_text_mb_s",
            "MiB/s",
            file_mb / over(|r| r.read_s),
            all.len(),
            "graph file size / median read_text",
        ),
        Metric::new(
            "session.new_ms",
            "ms",
            over(|r| r.new_s * 1e3),
            all.len(),
            "median Session::new",
        ),
        Metric::new(
            "session.eval_ms",
            "ms",
            over(|r| r.eval_s * 1e3),
            all.len(),
            "median run wall time minus SolveRun.elapsed",
        ),
    ];
    let iter_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    metrics.extend(layers::selection_metrics(
        &reference.metrics,
        reference.selected.len(),
        &iter_ms,
    ));
    let graph = read_graph(file)?;
    let subject = Subject {
        graph: &graph,
        query,
        selected: &reference.selected,
        samples: spec.samples,
        threads: spec.threads,
        lanes: spec.lanes,
        seed,
    };
    metrics.extend(layers::measure(&subject, tracer)?);
    let solve = |reps: &[Rep]| median(&reps.iter().map(|r| r.solve_s).collect::<Vec<_>>());
    Ok(Suite {
        metrics,
        attempted: 1 + 2 * TRACE_PAIRS as u64,
        failures,
        overhead: solve(&traced) / solve(&plain) - 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(selected: &[u32], flow: f64) -> Rep {
        Rep {
            steal: 0.0,
            read_s: 0.0,
            new_s: 0.0,
            solve_s: 0.0,
            cpu_s: 0.0,
            eval_s: 0.0,
            step_ms: Vec::new(),
            selected: selected.iter().map(|&e| EdgeId(e)).collect(),
            flow,
            metrics: SelectionMetrics::default(),
        }
    }

    #[test]
    fn the_rep_gate_fires_on_a_flipped_edge_id_or_flow_bit() {
        let reference = rep(&[4, 9, 2], 12.5);
        assert!(same_result(&reference, &rep(&[4, 9, 2], 12.5)).is_ok());
        let err = same_result(&reference, &rep(&[4, 8, 2], 12.5)).unwrap_err();
        assert!(err.contains("step 1"), "{err}");
        assert!(same_result(&reference, &rep(&[4, 9], 12.5)).is_err());
        let nudged = f64::from_bits(12.5f64.to_bits() + 1);
        assert!(same_result(&reference, &rep(&[4, 9, 2], nudged)).is_err());
    }

    #[test]
    fn the_validity_gate_times_only_clean_reps_and_wants_enough() {
        let with_steal = |steal: f64| Rep {
            steal,
            ..rep(&[1], 1.0)
        };
        let reps = |steals: &[f64]| -> Vec<Rep> { steals.iter().map(|&s| with_steal(s)).collect() };
        // Twelve clean reps of fourteen: the clean ones are timed.
        let many = reps(&[
            0.0, 0.06, 0.025, 0.3, 0.01, 0.0, 0.02, 0.015, 0.001, 0.03, 0.0, 0.0, 0.02, 0.0,
        ]);
        let (timed, limit) = clean_reps(&many).unwrap();
        assert_eq!((timed.len(), limit), (12, CLEAN_STEAL));
        // Three clean reps: the ten least-stolen are timed.
        let few = reps(&[
            0.0, 0.06, 0.05, 0.3, 0.01, 0.07, 0.04, 0.09, 0.08, 0.03, 0.2, 0.05,
        ]);
        let (timed, limit) = clean_reps(&few).unwrap();
        assert_eq!((timed.len(), limit), (MIN_CLEAN, 0.09));
        // Fewer than ten reps within the limit, or fewer than ten reps: the
        // run fails.
        let busy = reps(&[
            0.0, 0.16, 0.05, 0.3, 0.01, 0.07, 0.04, 0.12, 0.08, 0.03, 0.2, 0.5,
        ]);
        let err = clean_reps(&busy).unwrap_err();
        assert!(err.contains("only 7 of 12 reps"), "{err}");
        assert!(clean_reps(&many[..9]).is_err());
    }

    #[test]
    fn the_quality_gate_wants_at_least_the_dijkstra_flow() {
        assert!(beats_baseline(949.5, 617.5).is_ok());
        assert!(beats_baseline(617.5, 617.5).is_ok());
        assert!(beats_baseline(22.0, 22.84).is_err());
    }

    #[test]
    fn a_smoke_solve_repeats_bit_for_bit() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("unit-solve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = spec("solve_road", true).unwrap();
        generate(&spec, &dir).unwrap();
        let file = dir.join("graph.txt");
        let mut off = Tracer::new(false);
        let q = read_query(&dir).unwrap();
        let a = solve_rep(
            &file,
            q,
            &spec,
            INSTANCE_SEED,
            Algorithm::FtMCiDs,
            &mut off,
            0,
        )
        .unwrap();
        let b = solve_rep(
            &file,
            q,
            &spec,
            INSTANCE_SEED,
            Algorithm::FtMCiDs,
            &mut off,
            1,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(a.selected.len(), spec.budget);
        assert!(same_result(&a, &b).is_ok());
        assert_eq!(a.step_ms.len(), spec.budget);
    }
}
