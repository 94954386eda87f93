//! `flowmax` command-line interface.
//!
//! ```text
//! flowmax solve  --graph g.txt --query 0 --budget 20 [--algorithm FT+M]
//!                [--samples 1000] [--seed 42] [--threads 8]
//!                [--include-query] [--trace] [--dot out.dot]
//! flowmax stats  --graph g.txt
//! flowmax exact  --graph g.txt --query 0 --budget 5
//! flowmax generate --dataset erdos --vertices 1000 --degree 6 [--seed 42] > g.txt
//! flowmax generate --dataset wsn --vertices 1000 --epsilon 0.07 > w.txt
//! ```
//!
//! Graphs use the `flowmax-graph v1` text format (see `flowmax::graph::io`);
//! `generate` writes one to stdout so the commands compose. Unknown options
//! are rejected (not silently ignored), and `solve` streams per-iteration
//! selection steps with `--trace`. A reader that closes stdout early (say
//! `| head -1`) ends the command cleanly.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

use flowmax::core::{exact_max_flow, Algorithm, CancelToken, RunControl, SelectionStep, Session};
use flowmax::datasets::{
    CollaborationConfig, ErdosConfig, PartitionedConfig, PreferentialConfig, RoadConfig,
    SocialCircleConfig, WsnConfig,
};
use flowmax::graph::{io as gio, EdgeSubset, GraphStats, ProbabilisticGraph, VertexId};

/// Why a command failed: a message for the user, or a failed write to
/// stdout (a closed pipe is not an error; see `main`).
enum CliError {
    Message(String),
    Stdout(io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Message(msg)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Stdout(e)
    }
}

struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `--name value` pairs and bare `--name` flags against a
    /// command's allowlists. Anything not listed is an error — a typo like
    /// `--bugdet 5` must fail loudly instead of silently running with the
    /// default budget.
    fn parse(
        raw: &[String],
        allowed_values: &[&str],
        allowed_flags: &[&str],
    ) -> Result<Args, String> {
        let mut values = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?} (options start with --)"));
            };
            if allowed_flags.contains(&name) {
                flags.push(name.to_string());
            } else if allowed_values.contains(&name) {
                let Some(value) = raw.get(i + 1) else {
                    return Err(format!("option --{name} requires a value"));
                };
                values.push((name.to_string(), value.clone()));
                i += 1;
            } else {
                let mut known: Vec<String> = allowed_values
                    .iter()
                    .chain(allowed_flags)
                    .map(|n| format!("--{n}"))
                    .collect();
                known.sort();
                return Err(format!(
                    "unknown option --{name} (expected one of: {})",
                    known.join(", ")
                ));
            }
            i += 1;
        }
        Ok(Args { values, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    fn parse_opt<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn load_graph(path: &str) -> Result<ProbabilisticGraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    gio::read_text(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let graph = load_graph(args.require("graph")?)?;
    writeln!(out, "{}", GraphStats::compute(&graph))?;
    Ok(())
}

fn cmd_solve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let graph = load_graph(args.require("graph")?)?;
    let query = VertexId(args.parse_opt("query", 0u32)?);
    let budget: usize = args.parse_opt("budget", 10)?;
    if budget == 0 {
        return Err(CliError::Message(
            "--budget must be at least 1 (k edges to select)".to_string(),
        ));
    }
    let algorithm: Algorithm = args
        .get("algorithm")
        .unwrap_or("FT+M")
        .parse()
        .map_err(|e: flowmax::core::CoreError| e.to_string())?;
    // `--threads 0` is clamped to 1 with the shared one-time warning — the
    // same story as `FLOWMAX_THREADS` and `Session::with_threads`.
    let threads: usize = args.parse_opt("threads", flowmax::sampling::default_threads())?;
    let threads = flowmax::sampling::clamp_threads(threads, "--threads");

    // Worker threads shard the batched sampling engine; results are
    // identical at any thread count, only wall-clock time changes.
    let session = Session::new(&graph)
        .with_threads(threads)
        .with_seed(args.parse_opt("seed", 42u64)?);
    let builder = session
        .query(query)
        .map_err(|e| e.to_string())?
        .algorithm(algorithm)
        .budget(budget)
        .samples(args.parse_opt("samples", 1000u32)?)
        .include_query(args.has_flag("include-query"));
    let result = if args.has_flag("trace") {
        // Stream each committed edge as the greedy loop runs — the anytime
        // view: the first k lines are the answer for budget k. A failed
        // write cancels the run at the next iteration boundary.
        let cancel = CancelToken::new();
        let mut write_error = None;
        let run = builder
            .control(RunControl::unlimited().with_cancel(cancel.clone()))
            .run_with(&mut |step: &SelectionStep| {
                let (a, b) = graph.endpoints(step.edge);
                if let Err(e) = writeln!(
                    out,
                    "iter {:>3}: edge {} ({} -- {})  gain {:+.4}  flow {:.4}  pool {}",
                    step.iteration, step.edge, a, b, step.gain, step.flow, step.pool
                ) {
                    write_error = Some(e);
                    cancel.cancel();
                }
            });
        if let Some(e) = write_error {
            return Err(e.into());
        }
        run
    } else {
        builder.run()
    }
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "algorithm={} budget={} selected={} flow={:.6} time={:.3?}",
        algorithm.name(),
        budget,
        result.selected.len(),
        result.flow,
        result.elapsed
    )?;
    for &e in &result.selected {
        let (a, b) = graph.endpoints(e);
        writeln!(out, "  edge {e}: {a} -- {b} (p={})", graph.probability(e))?;
    }
    if let Some(dot_path) = args.get("dot") {
        let subset = EdgeSubset::from_edges(graph.edge_count(), result.selected.iter().copied());
        let f = File::create(dot_path).map_err(|e| format!("cannot create {dot_path}: {e}"))?;
        let mut w = BufWriter::new(f);
        gio::write_dot(&graph, Some(&subset), &mut w)
            .and_then(|_| w.flush())
            .map_err(|e| format!("cannot write {dot_path}: {e}"))?;
        writeln!(out, "wrote DOT with highlighted selection to {dot_path}")?;
    }
    Ok(())
}

fn cmd_exact(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let graph = load_graph(args.require("graph")?)?;
    let query = VertexId(args.parse_opt("query", 0u32)?);
    let budget: usize = args.parse_opt("budget", 5)?;
    let sol = exact_max_flow(&graph, query, budget, args.has_flag("include-query"))
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "exact optimum: flow={:.6} edges={:?} ({} subsets evaluated)",
        sol.flow,
        sol.edges.iter().map(|e| e.0).collect::<Vec<_>>(),
        sol.subsets_evaluated
    )?;
    Ok(())
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = args.require("dataset")?;
    let seed: u64 = args.parse_opt("seed", 42)?;
    let vertices: usize = args.parse_opt("vertices", 1000)?;
    let graph = match dataset {
        "erdos" => ErdosConfig::paper(vertices, args.parse_opt("degree", 6.0)?).generate(seed),
        "partitioned" => {
            PartitionedConfig::paper(vertices, args.parse_opt("degree", 6)?).generate(seed)
        }
        "wsn" => {
            WsnConfig::paper(vertices, args.parse_opt("epsilon", 0.07)?)
                .generate(seed)
                .graph
        }
        "road" => {
            let side = (vertices as f64).sqrt().ceil() as usize;
            RoadConfig::paper(side.max(2), side.max(2))
                .generate(seed)
                .graph
        }
        "social-circle" => SocialCircleConfig::paper().generate(seed),
        "collaboration" => CollaborationConfig::paper_scaled(vertices).generate(seed),
        "preferential" => PreferentialConfig::paper_scaled(vertices).generate(seed),
        other => {
            return Err(format!(
                "unknown dataset {other:?} (erdos, partitioned, wsn, road, social-circle, \
                 collaboration, preferential)"
            )
            .into())
        }
    };
    let mut out = BufWriter::new(out);
    gio::write_text(&graph, &mut out)?;
    out.flush()?;
    Ok(())
}

const USAGE: &str = "\
flowmax — budgeted information-flow maximization in probabilistic graphs

USAGE:
  flowmax solve    --graph <file> [--query N] [--budget K] [--algorithm NAME]
                   [--samples N] [--seed N] [--threads N]
                   [--include-query] [--trace] [--dot <file>]
  flowmax exact    --graph <file> [--query N] [--budget K] [--include-query]
  flowmax stats    --graph <file>
  flowmax generate --dataset <name> [--vertices N] [--degree D] [--seed N]
                   [--epsilon E]

Algorithms: Naive, Dijkstra, FT, FT+M, FT+M+CI, FT+M+DS, FT+M+CI+DS
Datasets:   erdos, partitioned, wsn, road, social-circle, collaboration, preferential
            (--epsilon is the wsn connection radius, default 0.07)
";

/// Per-command option allowlists: `(value options, flag options)`.
fn allowed_options(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    match command {
        "solve" => Some((
            &[
                "graph",
                "query",
                "budget",
                "algorithm",
                "samples",
                "seed",
                "threads",
                "dot",
            ],
            &["include-query", "trace"],
        )),
        "exact" => Some((&["graph", "query", "budget"], &["include-query"])),
        "stats" => Some((&["graph"], &[])),
        "generate" => Some((&["dataset", "seed", "vertices", "degree", "epsilon"], &[])),
        _ => None,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let result = match command.as_str() {
        "help" | "--help" | "-h" => write!(out, "{USAGE}").map_err(CliError::from),
        cmd => match allowed_options(cmd) {
            None => Err(format!("unknown command {cmd:?}\n{USAGE}").into()),
            Some((values, flags)) => match Args::parse(&raw[1..], values, flags) {
                Err(msg) => Err(msg.into()),
                Ok(args) => match cmd {
                    "solve" => cmd_solve(&args, &mut out),
                    "exact" => cmd_exact(&args, &mut out),
                    "stats" => cmd_stats(&args, &mut out),
                    "generate" => cmd_generate(&args, &mut out),
                    _ => unreachable!("allowed_options covers exactly the commands"),
                },
            },
        },
    };
    // Output still buffered in the line writer is flushed here, so a late
    // write error is reported like any other.
    let result = result.and_then(|()| out.flush().map_err(CliError::from));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`flowmax solve ... | head -1`): nothing
        // left to say and no one to say it to.
        Err(CliError::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CliError::Stdout(e)) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Message(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
