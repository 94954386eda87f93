//! `perfbench` — flowmax's benchmark.
//!
//! ```text
//! perfbench --workload <solve_wsn|solve_road|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Generates the workload's inputs from the seed (in a child process, so
//! the measured process's peak memory is its own), runs the workload
//! against flowmax's public surface, checks every output, and prints each
//! metric with its unit and sample count, the host/build fingerprint, and
//! — as the last line — one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! is the separate traced run that reports the per-layer metrics, layer
//! self times and the tracing overhead, and writes its spans to
//! `perfbench/work/`. `--smoke` shrinks every input for the self-tests.
//!
//! Exit status: 0 when every output gate passed, 1 when a gate failed
//! (the result line then says `"correct": false`), 2 on an error before a
//! result exists.

mod host;
mod layers;
mod report;
mod serve;
mod solve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{Metric, Outcome};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["solve_wsn", "solve_road", "serve_mixed"];

/// Layers whose self time a traced run reports, named after modules.
const LAYERS: [&str; 10] = [
    "graph",
    "session",
    "selection",
    "ftree",
    "kernel",
    "parallel",
    "pool",
    "serve",
    "daemon",
    "gen",
];

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// `gen` mode: write the inputs into this directory and exit.
    gen_dir: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (gen, raw) = match raw.first().map(String::as_str) {
        Some("gen") => (true, &raw[1..]),
        _ => (false, raw),
    };
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        gen_dir: None,
    };
    let mut seen_seed = false;
    let mut i = 0;
    while i < raw.len() {
        let name = raw[i].as_str();
        if name == "--smoke" {
            args.smoke = true;
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("option {name} requires a value"))?;
        let bad = || format!("invalid value for {name}: {value:?}");
        match name {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad())?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--dir" if gen => args.gen_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    if gen && args.gen_dir.is_none() {
        return Err("gen requires --dir".into());
    }
    Ok(args)
}

/// The repository checkout: the parent of this package's directory.
fn repo_root() -> Result<PathBuf, String> {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest
        .parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no parent", manifest.display()))
}

/// Writes the workload's input graphs into `dir`.
fn generate(args: &Args, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    match solve::spec(&args.workload, args.smoke) {
        Some(spec) => solve::generate(&spec, dir),
        None => serve::generate(&serve::spec(args.smoke), dir),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = repo_root()?;
    let work = root.join("perfbench").join("work");
    let dir = work.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    // Build the daemon before anything is timed, so a fresh checkout pays
    // every build in its first run whichever workload that is.
    serve::daemon_binary(&root)?;

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let mut gen = Command::new(exe);
    gen.arg("gen")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(&dir);
    if args.smoke {
        gen.arg("--smoke");
    }
    let status = gen
        .status()
        .map_err(|e| format!("cannot run the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generation failed ({status})"));
    }

    let steal = host::StealMeter::start()?;
    let mut tracer = Tracer::new(args.trace);
    let outcome = match solve::spec(&args.workload, args.smoke) {
        Some(spec) => solve::run(
            &spec,
            args.seed,
            args.seconds,
            &dir,
            &root,
            args.smoke,
            &mut tracer,
        ),
        None => serve::run(
            &serve::spec(args.smoke),
            args.seed,
            args.seconds,
            &dir,
            &root,
            &mut tracer,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome?;

    let (threads, lanes) = match solve::spec(&args.workload, args.smoke) {
        Some(spec) => (spec.threads, spec.lanes),
        None => {
            let spec = serve::spec(args.smoke);
            (spec.threads, spec.lanes)
        }
    };
    let mut facts = vec![
        ("seed".to_string(), args.seed.to_string()),
        ("smoke".to_string(), args.smoke.to_string()),
    ];
    facts.extend(host::fingerprint(&root, threads, lanes));
    facts.push(("steal_share".into(), steal.share()?.to_string()));
    facts.append(&mut outcome.facts);
    outcome.facts = facts;

    if args.trace {
        let self_ms = tracer.self_ms_by_layer();
        for layer in LAYERS {
            outcome.push(Metric::new(
                &format!("{layer}.self_ms"),
                "ms",
                self_ms.get(layer).copied().unwrap_or(0.0),
                tracer
                    .spans()
                    .iter()
                    .filter(|s| trace::layer_of(s.name) == layer)
                    .count(),
                "summed span time minus child-span time",
            ));
        }
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer.write(&path)?;
        outcome
            .facts
            .push(("trace_file".into(), path.display().to_string()));
    }
    outcome.gate_finite();
    Ok(outcome)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.gen_dir {
        return match generate(&args, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run(&args) {
        Ok(outcome) => {
            for line in outcome.report_lines(&args.workload) {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "solve_road",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "solve_road");
        assert_eq!(a.seed, 7);
        assert!(a.trace && !a.smoke && a.gen_dir.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "solve_wsn"][..],
            &["--workload", "solve_wsn", "--seed", "1", "--trace", "2"][..],
            &["--workload", "solve_wsn", "--seed", "1", "--dir", "x"][..],
            &["gen", "--workload", "solve_wsn", "--seed", "1"][..],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
