//! The `serve_mixed` workload: a seeded request mix driven into a spawned
//! `flowmax-serve` daemon over TCP by the benchmark's own load generator,
//! closed-loop and then open-loop, with every answer checked against an
//! in-process `Session` replay.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flowmax::core::{Algorithm, Session};
use flowmax::datasets::{ErdosConfig, PreferentialConfig, WsnConfig};
use flowmax::graph::{ProbabilisticGraph, VertexId};

use crate::host;
use crate::report::{median, quantile, tail, Metric, Outcome};
use crate::solve::{self, read_graph, write_graph, INSTANCE_SEED};
use crate::trace::Tracer;

/// The daemon's master seed; the generator pins every query's seed anyway.
const DAEMON_SEED: u64 = 42;
/// Daemon start-ups (spawn → LISTENING → initial LOADs) per run; the
/// median is `setup_s`. One start-up is ~0.1 s, most of it parsing the
/// large graph, and varies by a quarter from one to the next.
const SETUP_REPS: usize = 11;
/// Generator connections: at most `nproc`, 2 on the 2-vCPU VM the
/// workload was sized on.
const CONNECTIONS: usize = 2;
/// STATS round trips timed on the idle daemon.
const STATS_CALLS: usize = 200;
/// Distinct solve requests replayed in-process (a seeded sample).
const REPLAYS: usize = 120;

/// A generated graph.
#[derive(Debug, Clone, Copy)]
enum Gen {
    Erdos { vertices: usize, degree: f64 },
    Preferential { vertices: usize },
    Wsn { vertices: usize, epsilon: f64 },
}

impl Gen {
    fn build(self, seed: u64) -> ProbabilisticGraph {
        match self {
            Gen::Erdos { vertices, degree } => ErdosConfig::paper(vertices, degree).generate(seed),
            Gen::Preferential { vertices } => {
                PreferentialConfig::paper_scaled(vertices).generate(seed)
            }
            Gen::Wsn { vertices, epsilon } => {
                WsnConfig::paper(vertices, epsilon).generate(seed).graph
            }
        }
    }

    fn vertices(self) -> usize {
        match self {
            Gen::Erdos { vertices, .. }
            | Gen::Preferential { vertices }
            | Gen::Wsn { vertices, .. } => vertices,
        }
    }
}

/// The traffic mix and its scale.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Small graphs for the bulk of `FT+M+CI+DS` solves.
    small: Vec<Gen>,
    /// The mid-size geometric graph.
    wsn: Gen,
    /// The large graph the `Dijkstra` queries run on.
    big: Gen,
    /// Graphs only ever LOADed during the phases (writes beside reads).
    churn: Vec<Gen>,
    /// Closed-loop requests in phase 1.
    phase1: usize,
    /// Phase 2 arrival rate (requests per second), fixed here once; phase 2
    /// lasts the run's `--seconds`.
    rate: f64,
    /// Hot `Dijkstra` query vertices.
    hot: usize,
    /// The daemon's `--threads` and `--lanes`.
    pub threads: usize,
    pub lanes: usize,
}

pub fn spec(smoke: bool) -> MixSpec {
    if smoke {
        return MixSpec {
            small: vec![
                Gen::Erdos {
                    vertices: 60,
                    degree: 5.0,
                },
                Gen::Preferential { vertices: 60 },
            ],
            wsn: Gen::Wsn {
                vertices: 150,
                epsilon: 0.15,
            },
            big: Gen::Erdos {
                vertices: 1000,
                degree: 4.0,
            },
            churn: vec![Gen::Erdos {
                vertices: 100,
                degree: 4.0,
            }],
            phase1: 60,
            rate: 40.0,
            hot: 3,
            threads: 1,
            lanes: 8,
        };
    }
    MixSpec {
        small: vec![
            Gen::Erdos {
                vertices: 1000,
                degree: 6.0,
            },
            Gen::Erdos {
                vertices: 1000,
                degree: 6.0,
            },
            Gen::Preferential { vertices: 1000 },
            Gen::Preferential { vertices: 1000 },
        ],
        wsn: Gen::Wsn {
            vertices: 2000,
            epsilon: 0.04,
        },
        big: Gen::Erdos {
            vertices: 50_000,
            degree: 4.0,
        },
        churn: vec![
            Gen::Erdos {
                vertices: 2000,
                degree: 4.0,
            };
            3
        ],
        phase1: 1200,
        // About 0.4 of phase 1's throughput on a 2-vCPU AVX-512 Xeon VM (~120
        // requests/s), low enough that queueing does not dominate the
        // median; fixed here, never derived from a run.
        rate: 50.0,
        hot: 8,
        threads: 1,
        lanes: 8,
    }
}

impl MixSpec {
    /// Graphs SOLVEs run against, in file order: small…, wsn, big.
    fn queried(&self) -> Vec<Gen> {
        let mut all = self.small.clone();
        all.push(self.wsn);
        all.push(self.big);
        all
    }

    fn max_graphs(&self) -> usize {
        self.queried().len() + self.churn.len()
    }
}

fn graph_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("graph{i}.txt"))
}

fn churn_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("churn{i}.txt"))
}

/// Writes every graph of the mix into `dir`. The graphs are pinned like
/// the solve instances; the run's seed drives the request mix.
pub fn generate(spec: &MixSpec, dir: &Path) -> Result<(), String> {
    for (i, g) in spec.queried().into_iter().enumerate() {
        write_graph(
            &g.build(mix_seed(INSTANCE_SEED, i as u64)),
            &graph_file(dir, i),
        )?;
    }
    for (i, g) in spec.churn.iter().enumerate() {
        let seed = mix_seed(INSTANCE_SEED, 100 + i as u64);
        write_graph(&g.build(seed), &churn_file(dir, i))?;
    }
    Ok(())
}

fn mix_seed(seed: u64, label: u64) -> u64 {
    flowmax::sampling::splitmix64(seed ^ flowmax::sampling::splitmix64(label))
}

/// The generator's own seeded stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        flowmax::sampling::splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One request of the mix.
#[derive(Debug, Clone)]
struct Req {
    line: String,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    Load {
        bytes: u64,
    },
    Solve {
        graph: usize,
        vertex: u32,
        algorithm: Algorithm,
        budget: usize,
        samples: u32,
        seed: u64,
        stream: bool,
    },
}

impl Req {
    /// The SOLVE line for `kind` (a [`Kind::Solve`]) on graph `fp`.
    fn solve(fp: u64, kind: Kind) -> Req {
        let Kind::Solve {
            vertex,
            algorithm,
            budget,
            samples,
            seed,
            stream,
            ..
        } = kind
        else {
            unreachable!("Req::solve takes a Kind::Solve");
        };
        let mut line = format!(
            "SOLVE {fp:016x} query={vertex} budget={budget} algorithm={} samples={samples} \
             seed={seed}",
            algorithm.name()
        );
        if stream {
            line.push_str(" stream");
        }
        Req { line, kind }
    }

    /// The request without its delivery options: equal keys must get
    /// byte-identical answers (deterministic replay).
    fn replay_key(&self) -> Option<String> {
        match self.kind {
            Kind::Solve { .. } => Some(self.line.trim_end_matches(" stream").to_string()),
            Kind::Load { .. } => None,
        }
    }
}

/// The seeded request mix: ~65 % `FT+M+CI+DS` on small graphs (k 40–100),
/// ~15 % on the geometric graph (k 10–30), ~15 % `Dijkstra` k=30 on the
/// large graph (80 % from a few hot query vertices), ~5 % LOADs of the
/// rotating churn graphs. One in twenty `FT+M+CI+DS` solves streams.
fn mix(spec: &MixSpec, fps: &[u64], churn: &[(PathBuf, u64)], rng: &mut Rng, n: usize) -> Vec<Req> {
    let queried = spec.queried();
    let wsn = spec.small.len();
    let big = wsn + 1;
    let mut hot_rng = Rng(fps[big]);
    let hot: Vec<u32> = (0..spec.hot)
        .map(|_| hot_rng.below(spec.big.vertices()) as u32)
        .collect();
    let mut reqs = Vec::with_capacity(n);
    let mut next_churn = rng.below(churn.len());
    for _ in 0..n {
        let r = rng.unit();
        let req = if r < 0.05 {
            let (path, bytes) = &churn[next_churn % churn.len()];
            next_churn += 1;
            Req {
                line: format!("LOAD {}", path.display()),
                kind: Kind::Load { bytes: *bytes },
            }
        } else if r < 0.85 {
            let (graph, budget) = if r < 0.70 {
                (rng.below(wsn), 40 + rng.below(61))
            } else {
                (wsn, 10 + rng.below(21))
            };
            let vertex = rng.below(queried[graph].vertices()) as u32;
            let seed = 1 + rng.below(4) as u64;
            let stream = rng.unit() < 0.05;
            Req::solve(
                fps[graph],
                Kind::Solve {
                    graph,
                    vertex,
                    algorithm: Algorithm::FtMCiDs,
                    budget,
                    samples: 1000,
                    seed,
                    stream,
                },
            )
        } else {
            let vertex = if rng.unit() < 0.8 {
                hot[rng.below(hot.len())]
            } else {
                rng.below(spec.big.vertices()) as u32
            };
            Req::solve(
                fps[big],
                Kind::Solve {
                    graph: big,
                    vertex,
                    algorithm: Algorithm::Dijkstra,
                    budget: 30,
                    samples: 1000,
                    seed: 1,
                    stream: false,
                },
            )
        };
        reqs.push(req);
    }
    reqs
}

/// Builds `flowmax-serve` from the checkout (a no-op when it is fresh) and
/// returns its path.
pub fn daemon_binary(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| OsString::from("cargo"));
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet", "--bin", "flowmax-serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building flowmax-serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("flowmax-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no daemon binary at {}", bin.display()))
    }
}

/// A running daemon. Dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    port: u16,
    pid: u32,
}

impl Daemon {
    fn spawn(bin: &Path, threads: usize, lanes: usize, max_graphs: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0", "--seed", &DAEMON_SEED.to_string()])
            .args([
                "--threads",
                &threads.to_string(),
                "--lanes",
                &lanes.to_string(),
            ])
            .args(["--max-graphs", &max_graphs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut daemon = Daemon {
            child,
            _stdout: BufReader::new(stdout),
            port: 0,
            pid,
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon handshake: {e}"))?;
        daemon.port = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unexpected daemon handshake {line:?}"))?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.port)
    }

    /// `SHUTDOWN`, then waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let bye = conn.call("SHUTDOWN")?.last;
        if bye != "OK BYE" {
            return Err(format!("SHUTDOWN answered {bye:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A final answer line and the `STEP` lines streamed before it.
struct Reply {
    last: String,
    steps: usize,
    first_step: Option<Instant>,
}

impl Conn {
    fn open(port: u16) -> Result<Self, String> {
        let stream = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("sending {line:?}: {e}"))
    }

    fn receive(&mut self) -> Result<Reply, String> {
        let mut steps = 0;
        let mut first_step = None;
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|e| format!("reading a reply: {e}"))?;
            if n == 0 {
                return Err("the daemon closed the connection".into());
            }
            let line = buf.trim_end();
            if line.starts_with("STEP ") {
                steps += 1;
                first_step.get_or_insert_with(Instant::now);
                continue;
            }
            return Ok(Reply {
                last: line.to_string(),
                steps,
                first_step,
            });
        }
    }

    fn call(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        self.receive()
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
struct Record {
    idx: usize,
    /// When a connection became free and took the request.
    picked: Instant,
    /// The intended send time (open loop only).
    due: Option<Instant>,
    sent: Instant,
    first_step: Option<Instant>,
    done: Instant,
    steps: usize,
    reply: String,
}

impl Record {
    /// Latency as the user sees it: from the intended send time in the
    /// open loop, from the send in the closed loop.
    fn latency_s(&self) -> f64 {
        (self.done - self.due.unwrap_or(self.sent)).as_secs_f64()
    }

    /// How late the generator sent while a connection was free.
    fn lag_s(&self) -> f64 {
        let ready = self.due.map_or(self.picked, |d| d.max(self.picked));
        self.sent.saturating_duration_since(ready).as_secs_f64()
    }
}

/// Drives `reqs` over `CONNECTIONS` connections: closed-loop when
/// `schedule` is `None`, otherwise each request is due at its offset from
/// the phase start, and a request waits for the next free connection.
fn drive(port: u16, reqs: &[Req], schedule: Option<&[Duration]>) -> Result<Vec<Record>, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let worker = || -> Result<Vec<Record>, String> {
        let mut conn = Conn::open(port)?;
        let mut out = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::SeqCst);
            let Some(req) = reqs.get(idx) else {
                break;
            };
            let picked = Instant::now();
            let due = schedule.map(|s| start + s[idx]);
            if let Some(due) = due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let sent = Instant::now();
            let reply = conn.call(&req.line)?;
            out.push(Record {
                idx,
                picked,
                due,
                sent,
                first_step: reply.first_step,
                done: Instant::now(),
                steps: reply.steps,
                reply: reply.last,
            });
        }
        conn.call("QUIT")?;
        Ok(out)
    };
    // flowmax-lint: allow(L2, the load generator's client connections run outside the library; each drives its own socket and shares only an atomic request index)
    let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a generator connection panicked".into()))
            })
            .collect()
    });
    let mut records = Vec::with_capacity(reqs.len());
    for r in results {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.idx);
    Ok(records)
}

/// Parsed `OK STATS` counters.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    completed: u64,
    rejected: u64,
    batches: u64,
}

fn stats(conn: &mut Conn) -> Result<Stats, String> {
    let line = conn.call("STATS")?.last;
    let field = |key: &str| -> Result<u64, String> {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
            .ok_or_else(|| format!("no {key} in {line:?}"))
    };
    Ok(Stats {
        completed: field("completed")?,
        rejected: field("rejected")?,
        batches: field("batches")?,
    })
}

/// LOADs `path`; returns the fingerprint and the round trip in seconds.
fn load(conn: &mut Conn, path: &Path) -> Result<(u64, f64), String> {
    let start = Instant::now();
    let reply = conn.call(&format!("LOAD {}", path.display()))?.last;
    let rtt = start.elapsed().as_secs_f64();
    let fp = reply
        .strip_prefix("OK LOADED ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|fp| u64::from_str_radix(fp, 16).ok())
        .ok_or_else(|| format!("LOAD {} answered {reply:?}", path.display()))?;
    Ok((fp, rtt))
}

/// The expected answer line for a solve, from an in-process session.
fn replay_line(session: &Session<'_>, kind: &Kind) -> Result<String, String> {
    let Kind::Solve {
        vertex,
        algorithm,
        budget,
        samples,
        seed,
        ..
    } = *kind
    else {
        return Err("only solves replay".into());
    };
    let run = session
        .query(VertexId(vertex))
        .map_err(|e| e.to_string())?
        .algorithm(algorithm)
        .budget(budget)
        .samples(samples)
        .seed(seed)
        .run()
        .map_err(|e| e.to_string())?;
    let edges: Vec<String> = run.selected.iter().map(|e| e.to_string()).collect();
    Ok(format!(
        "OK RESULT flow={} algorithm_flow={} seed={seed} edges={}",
        run.flow,
        run.algorithm_flow,
        edges.join(",")
    ))
}

/// The output gates over every answer of a run: each request answered
/// `OK`, streamed solves streamed one `STEP` per selected edge, equal
/// replay keys got byte-identical answers, and a seeded sample of
/// distinct solves matches an in-process `Session` replay. Returns how
/// many operations failed, with reasons.
fn check_answers(
    reqs: &[Req],
    records: &[Record],
    graphs: &[ProbabilisticGraph],
    threads: usize,
    lanes: usize,
    replays: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut by_key: BTreeMap<String, (usize, &str)> = BTreeMap::new();
    for rec in records {
        let req = &reqs[rec.idx];
        match &req.kind {
            Kind::Load { .. } => {
                if !rec.reply.starts_with("OK LOADED ") {
                    failures.push(format!("{:?} answered {:?}", req.line, rec.reply));
                }
            }
            Kind::Solve { stream, .. } => {
                if !rec.reply.starts_with("OK RESULT ") {
                    failures.push(format!("{:?} answered {:?}", req.line, rec.reply));
                    continue;
                }
                let edges = rec
                    .reply
                    .split_once("edges=")
                    .map_or(0, |(_, e)| e.split(',').filter(|t| !t.is_empty()).count());
                let expected_steps = if *stream { edges } else { 0 };
                if rec.steps != expected_steps {
                    failures.push(format!(
                        "{:?} streamed {} STEP lines for {edges} edges",
                        req.line, rec.steps
                    ));
                }
                let key = req.replay_key().unwrap_or_default();
                match by_key.get(&key) {
                    Some((_, first)) if *first != rec.reply => failures.push(format!(
                        "{key:?} answered differently on replay: {first:?} vs {:?}",
                        rec.reply
                    )),
                    Some(_) => {}
                    None => {
                        by_key.insert(key, (rec.idx, &rec.reply));
                    }
                }
            }
        }
    }
    // The seeded sample: every `stride`-th distinct key in key order.
    let stride = by_key.len().div_ceil(replays.max(1)).max(1);
    let mut sessions: BTreeMap<usize, Session<'_>> = BTreeMap::new();
    for (key, (idx, answer)) in by_key.iter().step_by(stride) {
        let Kind::Solve { graph, .. } = reqs[*idx].kind else {
            continue;
        };
        let session = sessions.entry(graph).or_insert_with(|| {
            Session::new(&graphs[graph])
                .with_threads(threads)
                .with_lane_words(lanes)
                .with_seed(DAEMON_SEED)
        });
        match replay_line(session, &reqs[*idx].kind) {
            Ok(expected) if expected == *answer => {}
            Ok(expected) => failures.push(format!(
                "{key:?} answered {answer:?}, in-process replay gives {expected:?}"
            )),
            Err(e) => failures.push(format!("replaying {key:?}: {e}")),
        }
    }
    failures
}

fn flow_of(reply: &str) -> Option<f64> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix("flow=")?.parse().ok())
}

/// A started daemon with its set-up time and each initial LOAD's
/// `(fingerprint, round trip in seconds)`.
struct Started {
    daemon: Daemon,
    setup_s: f64,
    loads: Vec<(u64, f64)>,
}

/// Starts a daemon and LOADs `files`.
fn start(bin: &Path, spec: &MixSpec, files: &[PathBuf]) -> Result<Started, String> {
    let begin = Instant::now();
    let daemon = Daemon::spawn(bin, spec.threads, spec.lanes, spec.max_graphs())?;
    let mut conn = daemon.connect()?;
    let loads = files
        .iter()
        .map(|f| load(&mut conn, f))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = begin.elapsed().as_secs_f64();
    conn.call("QUIT")?;
    Ok(Started {
        daemon,
        setup_s,
        loads,
    })
}

pub fn run(
    spec: &MixSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    root: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let traced = tracer.enabled();
    let bin = daemon_binary(root)?;
    let files: Vec<PathBuf> = (0..spec.queried().len())
        .map(|i| graph_file(dir, i))
        .collect();
    let churn: Vec<(PathBuf, u64)> = (0..spec.churn.len())
        .map(|i| {
            let path = churn_file(dir, i);
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            (path, bytes)
        })
        .collect();
    let mut out = Outcome::default();

    // Set-up, several times; the last daemon serves the phases.
    let mut setups = Vec::new();
    let mut load_ms_per_mb = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let Started {
            daemon,
            setup_s,
            loads,
        } = start(&bin, spec, &files)?;
        setups.push(setup_s);
        for ((_, rtt), file) in loads.iter().zip(&files) {
            let mb = std::fs::metadata(file).map(|m| m.len()).unwrap_or(1) as f64 / 1048576.0;
            load_ms_per_mb.push(rtt * 1e3 / mb);
        }
        if rep + 1 < SETUP_REPS {
            daemon.shutdown()?;
        } else {
            kept = Some((daemon, loads));
        }
    }
    let Some((daemon, loads)) = kept else {
        return Err("no daemon started".into());
    };
    let fps: Vec<u64> = loads.iter().map(|(fp, _)| *fp).collect();
    let listed: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    out.facts.push(("setup_s_per_rep".into(), listed.join(" ")));

    // In-process copies for the replay gate.
    let mut graphs = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let g = read_graph(file)?;
        if g.fingerprint() != fps[i] {
            out.fail(format!(
                "LOAD of {} answered fingerprint {:016x}, in-process {:016x}",
                file.display(),
                fps[i],
                g.fingerprint()
            ));
        }
        graphs.push(g);
    }
    out.attempted += (SETUP_REPS * files.len()) as u64;

    // The request population is pinned like the graphs, so every run does
    // the same work; the run's seed shuffles the order the connections send
    // it in and draws the open-loop arrival times.
    let mut population = Rng(mix_seed(INSTANCE_SEED, 7));
    let mut phase1 = mix(spec, &fps, &churn, &mut population, spec.phase1);
    let n2 = ((spec.rate * seconds).round() as usize).max(1);
    let mut phase2 = mix(spec, &fps, &churn, &mut population, n2);
    let mut rng = Rng(mix_seed(seed, 7));
    shuffle(&mut phase1, &mut rng);
    shuffle(&mut phase2, &mut rng);
    let mut schedule = Vec::with_capacity(n2);
    let mut at = 0.0f64;
    for _ in 0..n2 {
        at += -(1.0 - rng.unit()).ln() / spec.rate;
        schedule.push(Duration::from_secs_f64(at));
    }

    let mut conn = daemon.connect()?;
    let mut stats_us = Vec::new();
    if traced {
        for i in 0..STATS_CALLS {
            let start = Instant::now();
            stats(&mut conn)?;
            let end = Instant::now();
            tracer.record("daemon.stats", start, end, None, i as u64);
            stats_us.push((end - start).as_secs_f64() * 1e6);
        }
    }
    let before = stats(&mut conn)?;

    let cpu0 = host::process_cpu_s(daemon.pid)?;
    let begin1 = Instant::now();
    let rec1 = drive(daemon.port, &phase1, None)?;
    let wall1 = begin1.elapsed().as_secs_f64();
    let cpu1 = host::process_cpu_s(daemon.pid)?;
    let mut overhead = None;
    if traced {
        // The same closed loop again with spans recorded: the tracing
        // overhead is the difference.
        let begin = Instant::now();
        let rec = drive(daemon.port, &phase1, None)?;
        let wall = begin.elapsed().as_secs_f64();
        record_spans(tracer, &rec, 0);
        out.attempted += rec.len() as u64;
        for f in check_answers(&phase1, &rec, &graphs, 1, spec.lanes, 0) {
            out.fail(f);
        }
        overhead = Some(wall / wall1 - 1.0);
    }
    let rec2 = drive(daemon.port, &phase2, Some(&schedule))?;
    record_spans(tracer, &rec2, spec.phase1 as u64);
    let after = stats(&mut conn)?;
    let peak_rss_mb = host::peak_rss_mib(Some(daemon.pid))?;
    conn.call("QUIT")?;
    drop(conn);
    daemon.shutdown()?;

    out.attempted += (rec1.len() + rec2.len()) as u64;
    let all_reqs: Vec<Req> = phase1.iter().chain(&phase2).cloned().collect();
    let all_recs: Vec<Record> = rec1
        .iter()
        .cloned()
        .chain(rec2.iter().map(|r| Record {
            idx: r.idx + spec.phase1,
            ..r.clone()
        }))
        .collect();
    for f in check_answers(&all_reqs, &all_recs, &graphs, 1, spec.lanes, REPLAYS) {
        out.fail(f);
    }
    out.facts
        .push(("phase2_rate_per_s".into(), spec.rate.to_string()));

    let solve1: Vec<&Record> = rec1
        .iter()
        .filter(|r| matches!(phase1[r.idx].kind, Kind::Solve { .. }))
        .collect();
    if !traced {
        let rtts: Vec<f64> = solve1.iter().map(|r| r.latency_s()).collect();
        let flows: Vec<f64> = solve1.iter().filter_map(|r| flow_of(&r.reply)).collect();
        let lat2: Vec<f64> = rec2.iter().map(|r| r.latency_s() * 1e3).collect();
        let (tail_p, tail_v) = tail(&lat2);
        out.push(Metric::new(
            "setup_s",
            "s",
            median(&setups),
            setups.len(),
            "median daemon spawn -> LISTENING -> initial LOADs",
        ));
        out.push(Metric::new(
            "solve_s",
            "s",
            median(&rtts),
            rtts.len(),
            "median phase-1 SOLVE round trip (closed loop, 2 connections)",
        ));
        out.push(Metric::new(
            "cpu_s",
            "s",
            cpu1 - cpu0,
            1,
            "daemon CPU time over phase 1",
        ));
        out.push(Metric::new(
            "peak_rss_mb",
            "MiB",
            peak_rss_mb,
            1,
            "VmHWM of the daemon",
        ));
        out.push(Metric::new(
            "flow",
            "weight",
            flows.iter().sum::<f64>() / flows.len().max(1) as f64,
            flows.len(),
            "mean flow of the phase-1 OK RESULTs",
        ));
        out.push(Metric::new(
            "qps",
            "1/s",
            spec.phase1 as f64 / wall1,
            spec.phase1,
            "phase-1 requests per second, closed loop over 2 connections",
        ));
        out.push(Metric::new(
            "latency_p50_ms",
            "ms",
            median(&lat2),
            lat2.len(),
            &format!(
                "phase-2 median from intended send, Poisson {} req/s",
                spec.rate
            ),
        ));
        out.push(Metric::new(
            "latency_tail_ms",
            "ms",
            tail_v,
            lat2.len(),
            &format!("phase-2 p{tail_p} from intended send"),
        ));
        return Ok(out);
    }

    // Traced run: the serving layers, then the in-process layers on the
    // geometric graph with a solve shaped like the mix's.
    // SOLVEs sent: both phases plus the traced repeat of phase 1.
    let solves = all_recs
        .iter()
        .filter(|r| matches!(all_reqs[r.idx].kind, Kind::Solve { .. }))
        .count()
        + solve1.len();
    for r in &all_recs {
        if let Kind::Load { bytes } = all_reqs[r.idx].kind {
            load_ms_per_mb.push((r.done - r.sent).as_secs_f64() * 1e3 / (bytes as f64 / 1048576.0));
        }
    }
    out.metrics.extend(serve_layer_metrics(
        &before,
        &after,
        solves,
        &all_recs,
        &stats_us,
        &load_ms_per_mb,
        &rec2,
    ));
    let wsn = spec.small.len();
    let big = wsn + 1;
    let hot: Vec<VertexId> = phase1
        .iter()
        .filter_map(|r| match r.kind {
            Kind::Solve { graph, vertex, .. } if graph == big => Some(VertexId(vertex)),
            _ => None,
        })
        .take(4)
        .collect();
    out.push(crate::layers::spanning(&graphs[big], &hot, tracer));
    let probe_spec = solve::SolveSpec {
        family: solve::Family::Wsn {
            vertices: spec.wsn.vertices(),
            epsilon: 0.04,
        },
        budget: 15,
        samples: 1000,
        threads: spec.threads,
        lanes: spec.lanes,
    };
    let suite = solve::layer_suite(&files[wsn], VertexId(0), &probe_spec, seed, tracer)?;
    out.metrics.extend(suite.metrics);
    out.attempted += suite.attempted;
    for f in suite.failures {
        out.fail(f);
    }
    out.push(Metric::new(
        "trace.overhead_share",
        "ratio",
        overhead.unwrap_or(0.0),
        2,
        "traced / untraced phase-1 wall time - 1",
    ));
    Ok(out)
}

/// Spans for wire requests: the generator's view of the request, the
/// daemon round trip inside it, and the streamed part inside that.
fn record_spans(tracer: &mut Tracer, records: &[Record], offset: u64) {
    for r in records {
        let id = offset + r.idx as u64;
        let begin = r.due.map_or(r.picked, |d| d.min(r.sent));
        let root = tracer.record("gen.request", begin, r.done, None, id);
        let call = tracer.record("daemon.roundtrip", r.sent, r.done, root, id);
        if let Some(first) = r.first_step {
            tracer.record("serve.stream", first, r.done, call, id);
        }
    }
}

fn serve_layer_metrics(
    before: &Stats,
    after: &Stats,
    solves: usize,
    records: &[Record],
    stats_us: &[f64],
    load_ms_per_mb: &[f64],
    open_loop: &[Record],
) -> Vec<Metric> {
    let completed = after.completed.saturating_sub(before.completed) as f64;
    let batches = after.batches.saturating_sub(before.batches).max(1) as f64;
    let rejected = after.rejected.saturating_sub(before.rejected) as f64;
    let first_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| Some((r.first_step? - r.sent).as_secs_f64() * 1e3))
        .collect();
    let lag_ms: Vec<f64> = open_loop.iter().map(|r| r.lag_s() * 1e3).collect();
    vec![
        Metric::new(
            "serve.batch_size",
            "count",
            completed / batches,
            batches as usize,
            "STATS completed / batches over the phases",
        ),
        Metric::new(
            "serve.first_step_ms",
            "ms",
            median(&first_ms),
            first_ms.len(),
            "median send -> first STEP of streamed SOLVEs",
        ),
        Metric::new(
            "serve.rejected_ratio",
            "ratio",
            rejected / solves.max(1) as f64,
            solves,
            "STATS rejected / SOLVEs sent",
        ),
        Metric::new(
            "daemon.stats_rtt_us",
            "us",
            median(stats_us),
            stats_us.len(),
            "median STATS round trip on the idle daemon",
        ),
        Metric::new(
            "daemon.load_ms_per_mb",
            "ms/MiB",
            median(load_ms_per_mb),
            load_ms_per_mb.len(),
            "median LOAD round trip per MiB of graph file",
        ),
        Metric::new(
            "gen.lag_p99_ms",
            "ms",
            quantile(&lag_ms, 0.99),
            lag_ms.len(),
            "p99 of how late the generator sent while a connection was free",
        ),
    ]
}

/// Serve-side layers for a `solve_*` traced run: the workload's own graph
/// LOADed into a fresh daemon, STATS round trips, then short closed- and
/// open-loop runs of small streamed SOLVEs on it, all gated like the mix.
pub fn probe_graph(
    root: &Path,
    file: &Path,
    threads: usize,
    lanes: usize,
    seed: u64,
    smoke: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    const BUDGET: usize = 5;
    const SAMPLES: u32 = 200;
    const RATE: f64 = 20.0;
    let per_phase = if smoke { 6 } else { 40 };
    let bin = daemon_binary(root)?;
    let daemon = Daemon::spawn(&bin, threads, lanes, 1)?;
    let mut conn = daemon.connect()?;
    let (fp, rtt) = load(&mut conn, file)?;
    let mb = std::fs::metadata(file).map(|m| m.len()).unwrap_or(0) as f64 / 1048576.0;
    let graph = read_graph(file)?;
    let mut out = Outcome::default();
    out.attempted += 1;
    if graph.fingerprint() != fp {
        out.fail(format!(
            "LOAD answered fingerprint {fp:016x}, in-process {:016x}",
            graph.fingerprint()
        ));
    }
    let mut stats_us = Vec::with_capacity(STATS_CALLS);
    for i in 0..STATS_CALLS {
        let start = Instant::now();
        stats(&mut conn)?;
        let end = Instant::now();
        tracer.record("daemon.stats", start, end, None, i as u64);
        stats_us.push((end - start).as_secs_f64() * 1e6);
    }
    let before = stats(&mut conn)?;
    let mut rng = Rng(mix_seed(seed, 11));
    let reqs: Vec<Req> = (0..2 * per_phase)
        .map(|_| {
            let vertex = rng.below(graph.vertex_count()) as u32;
            let seed = 1 + rng.below(4) as u64;
            Req::solve(
                fp,
                Kind::Solve {
                    graph: 0,
                    vertex,
                    algorithm: Algorithm::FtMCiDs,
                    budget: BUDGET,
                    samples: SAMPLES,
                    seed,
                    stream: true,
                },
            )
        })
        .collect();
    let mut schedule = Vec::with_capacity(per_phase);
    let mut at = 0.0f64;
    for _ in 0..per_phase {
        at += -(1.0 - rng.unit()).ln() / RATE;
        schedule.push(Duration::from_secs_f64(at));
    }
    let closed = drive(daemon.port, &reqs[..per_phase], None)?;
    let open = drive(daemon.port, &reqs[per_phase..], Some(&schedule))?;
    let after = stats(&mut conn)?;
    conn.call("QUIT")?;
    drop(conn);
    daemon.shutdown()?;
    let records: Vec<Record> = closed
        .iter()
        .cloned()
        .chain(open.iter().map(|r| Record {
            idx: r.idx + per_phase,
            ..r.clone()
        }))
        .collect();
    record_spans(tracer, &records, 0);
    out.attempted += records.len() as u64;
    for f in check_answers(
        &reqs,
        &records,
        std::slice::from_ref(&graph),
        threads,
        lanes,
        8,
    ) {
        out.fail(f);
    }
    out.metrics = serve_layer_metrics(
        &before,
        &after,
        reqs.len(),
        &records,
        &stats_us,
        &[rtt * 1e3 / mb],
        &open,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ProbabilisticGraph {
        ErdosConfig::paper(40, 4.0).generate(5)
    }

    fn small_solve(
        g: &ProbabilisticGraph,
        vertex: u32,
        budget: usize,
        seed: u64,
        stream: bool,
    ) -> Req {
        Req::solve(
            g.fingerprint(),
            Kind::Solve {
                graph: 0,
                vertex,
                algorithm: Algorithm::FtMCiDs,
                budget,
                samples: 200,
                seed,
                stream,
            },
        )
    }

    fn record(idx: usize, reply: &str, steps: usize) -> Record {
        let now = Instant::now();
        Record {
            idx,
            picked: now,
            due: None,
            sent: now,
            first_step: None,
            done: now,
            steps,
            reply: reply.to_string(),
        }
    }

    fn answer(g: &ProbabilisticGraph, req: &Req) -> String {
        let session = Session::new(g)
            .with_threads(1)
            .with_lane_words(8)
            .with_seed(DAEMON_SEED);
        replay_line(&session, &req.kind).unwrap()
    }

    #[test]
    fn replay_gate_fires_on_a_flipped_edge_id() {
        let g = graph();
        let req = small_solve(&g, 0, 5, 1, false);
        let good = answer(&g, &req);
        let graphs = vec![g];
        let reqs = vec![req];
        assert!(check_answers(&reqs, &[record(0, &good, 0)], &graphs, 1, 8, 10).is_empty());

        let (head, edges) = good.split_once("edges=").unwrap();
        let mut ids: Vec<u32> = edges.split(',').map(|e| e.parse().unwrap()).collect();
        ids[0] ^= 1;
        let listed: Vec<String> = ids.iter().map(u32::to_string).collect();
        let bad = format!("{head}edges={}", listed.join(","));
        let failures = check_answers(&reqs, &[record(0, &bad, 0)], &graphs, 1, 8, 10);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn equal_requests_must_answer_identically() {
        let g = graph();
        let req = small_solve(&g, 3, 4, 2, false);
        let good = answer(&g, &req);
        let other = good.replace("flow=", "flow=1");
        let reqs = vec![req.clone(), req];
        let recs = [record(0, &good, 0), record(1, &other, 0)];
        // Replaying nothing in-process: the replay-key gate alone fires.
        assert_eq!(check_answers(&reqs, &recs, &[g], 1, 8, 0).len(), 1);
    }

    #[test]
    fn streams_errors_and_loads_are_gated() {
        let g = graph();
        let solve = small_solve(&g, 1, 3, 1, true);
        let good = answer(&g, &solve);
        let load = Req {
            line: "LOAD x".into(),
            kind: Kind::Load { bytes: 1 },
        };
        let graphs = [g];
        let reqs = vec![solve, load];
        let ok = [
            record(0, &good, 3),
            record(1, "OK LOADED 00 vertices=1 edges=0", 0),
        ];
        assert!(check_answers(&reqs, &ok, &graphs, 1, 8, 10).is_empty());
        let short_stream = [record(0, &good, 2), record(1, "ERR cannot open x", 0)];
        assert_eq!(
            check_answers(&reqs, &short_stream, &graphs, 1, 8, 10).len(),
            2
        );
    }

    #[test]
    fn the_mix_never_targets_churn_graphs_and_evicts_nothing() {
        let spec = spec(false);
        assert!(spec.max_graphs() >= spec.queried().len() + spec.churn.len());
        let fps: Vec<u64> = (0..spec.queried().len() as u64).collect();
        let churn = vec![(PathBuf::from("c0"), 1), (PathBuf::from("c1"), 1)];
        let reqs = mix(&spec, &fps, &churn, &mut Rng(9), 2000);
        let loads = reqs
            .iter()
            .filter(|r| matches!(r.kind, Kind::Load { .. }))
            .count();
        assert!(loads > 0 && loads < 200, "{loads} LOADs");
        assert!(reqs.iter().all(|r| match r.kind {
            Kind::Solve { graph, .. } => graph < spec.queried().len(),
            Kind::Load { .. } => r.line.starts_with("LOAD c"),
        }));
    }
}
