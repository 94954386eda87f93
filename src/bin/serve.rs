//! `flowmax-serve` — the long-lived query-serving daemon.
//!
//! A thin line-protocol TCP front-end over [`flowmax::core::FlowServer`]:
//! every serving decision (graph residency, admission control, coalescing,
//! streaming, deterministic replay, graceful shutdown) lives in the
//! library, so this binary only parses lines and relays events. See
//! `flowmax-serve --help` and the README's "Serving" section for the
//! protocol.
//!
//! Shutdown is orderly, never a silent hang-up: `SHUTDOWN` stops
//! admission, drains the executing batch, fails every admitted-but-
//! unstarted query, and hands every other open connection a terminal
//! `ERR SHUTDOWN server stopping` line before the process exits.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use flowmax::core::{
    Algorithm, CancelToken, CoreError, FlowServer, QueryParams, ServeConfig, ServeError,
    ServeEvent, ServeResult,
};
use flowmax::graph::{io as gio, VertexId};

/// Longest accepted request line, in bytes. Anything longer is drained to
/// its newline and answered with `ERR LINE TOO LONG` — the daemon never
/// buffers an attacker-sized line and never desynchronizes the protocol.
const MAX_LINE_BYTES: usize = 64 * 1024;

const USAGE: &str = "\
flowmax-serve — long-lived flow-maximization query daemon

USAGE:
    flowmax-serve [OPTIONS]

OPTIONS:
    --port <N>            TCP port to listen on (default 7878; 0 picks an
                          ephemeral port). The daemon prints `LISTENING <port>`
                          on stdout once it accepts connections.
    --threads <N>         Sampling worker threads per executing batch
                          (default: FLOWMAX_THREADS or 1; 0 is clamped to 1
                          with a warning).
    --lanes <N>           Accepted for compatibility: the only value is 8,
                          the fixed sampling lane width (512 worlds per BFS
                          pass); any other value is an error.
    --max-graphs <N>      Graphs kept resident, LRU beyond that (default 4).
    --queue-capacity <N>  Bounded admission queue; a full queue rejects with
                          `ERR OVERLOADED retry_after_ms=<hint>` (default 64).
    --coalesce-max <N>    Queued queries against the same graph coalesced
                          into one batch (default 16).
    --retry-after-ms <N>  Base backoff hint attached to overload rejections
                          (default 50). The live hint scales with queue
                          depth, capped at 32× the base.
    --seed <N>            Server-default master seed for queries that don't
                          pin one (default 42).
    --idle-timeout-ms <N> Close a connection after this long without a
                          complete request line, with a terminal
                          `ERR TIMEOUT ...` (default 300000; 0 disables).
    --fault-plan <SPEC>   Arm the deterministic fault-injection substrate
                          with a plan (`site[@key]=always|nth:..|rate:..`,
                          `;`-separated), seeded by --seed. Requires a
                          build with `--features faults`; errors otherwise.
    --start-paused        Admit queries without executing them until a
                          `RESUME` command arrives — for drain tests and
                          staged rollouts.
    --help                Print this help.

PROTOCOL (one command per line, at most 65536 bytes per line — longer
lines are drained and answered with `ERR LINE TOO LONG ...`):
    LOAD <path>
        Parse a `flowmax-graph v1` text file and make it resident. The path
        is everything after the first space up to the end of the line, so
        paths containing spaces need no quoting.
        -> OK LOADED <fingerprint> vertices=<n> edges=<m>
    SOLVE <fingerprint> query=<v> budget=<k> [algorithm=<name>]
          [samples=<n>] [seed=<n>] [deadline_ms=<n>] [ticket=<name>]
          [stream]
        Run one query. With `stream`, one `STEP <iter> <edge> <gain> <flow>`
        line per committed edge arrives while the query runs (anytime
        partial answers), then the final line either way:
        -> OK RESULT flow=<f> algorithm_flow=<f> seed=<n> edges=<e1,e2,...>
        With `deadline_ms=`, a query whose wall-clock budget expires stops
        between iterations and degrades gracefully instead of failing:
        -> OK DEGRADED steps_done=<j> budget=<k> flow=<f> algorithm_flow=<f>
           seed=<n> edges=<e1,...,ej>
        where the j selected edges are bit-identical to the first j edges
        of the same-seed full run. With `ticket=<name>`, the query is
        cancellable under that name (unique among in-flight queries) via
        CANCEL from any connection; a cancelled query also answers
        `OK DEGRADED ...`.
    CANCEL <name>
        Cancel the in-flight SOLVE registered as ticket=<name> (from any
        connection). The cancelled query stops at its next iteration
        boundary and its own connection receives `OK DEGRADED ...`.
        -> OK CANCELLED <name>
    STATS
        -> OK STATS resident=<n> queued=<n> completed=<n> rejected=<n> batches=<n>
    RESUME
        -> OK RESUMED (starts a `--start-paused` dispatcher; idempotent)
    QUIT
        -> OK BYE (closes this connection; the daemon keeps serving)
    SHUTDOWN
        -> OK BYE, then the daemon stops: no new queries are admitted, the
        executing batch drains, admitted-but-unstarted queries fail with
        `ERR SHUTDOWN server stopping`, every other open connection gets
        that same terminal line, and the process exits.
    STATS, RESUME, QUIT, and SHUTDOWN take no arguments; trailing tokens
    are a protocol error (`ERR ...`), not silently ignored.

DETERMINISTIC REPLAY:
    A query's result is a pure function of (graph fingerprint, query
    parameters, seed). Replaying the same SOLVE line — any queue state,
    any coalescing, any thread count — returns a bit-identical selection
    and flow. Deadlines and cancellation only move the stop point between
    iterations; they never change what a committed step computes.
";

struct Options {
    port: u16,
    config: ServeConfig,
    idle_timeout: Option<Duration>,
    fault_plan: Option<String>,
}

fn parse_options(raw: &[String]) -> Result<Options, String> {
    let mut port = 7878u16;
    let mut config = ServeConfig::default();
    let mut idle_timeout_ms: u64 = 300_000;
    let mut fault_plan = None;
    let mut i = 0;
    while i < raw.len() {
        let name = raw[i].as_str();
        if name == "--help" {
            return Err(String::new()); // caller prints usage
        }
        if name == "--start-paused" {
            config.start_paused = true;
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("option {name} requires a value"))?;
        let bad = |what: &str| format!("invalid value for {what}: {value:?}");
        match name {
            "--port" => port = value.parse().map_err(|_| bad("--port"))?,
            "--threads" => config.threads = value.parse().map_err(|_| bad("--threads"))?,
            // The lane width is the crate constant; the option stays
            // because perfbench passes it.
            "--lanes" => {
                if value.parse() != Ok(flowmax::sampling::LANE_WORDS) {
                    return Err(bad("--lanes"));
                }
            }
            "--max-graphs" => {
                config.max_resident_graphs = value.parse().map_err(|_| bad("--max-graphs"))?
            }
            "--queue-capacity" => {
                config.queue_capacity = value.parse().map_err(|_| bad("--queue-capacity"))?
            }
            "--coalesce-max" => {
                config.coalesce_max = value.parse().map_err(|_| bad("--coalesce-max"))?
            }
            "--retry-after-ms" => {
                let ms: u64 = value.parse().map_err(|_| bad("--retry-after-ms"))?;
                config.retry_after = Duration::from_millis(ms);
            }
            "--seed" => config.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--idle-timeout-ms" => {
                idle_timeout_ms = value.parse().map_err(|_| bad("--idle-timeout-ms"))?
            }
            "--fault-plan" => fault_plan = Some(value.clone()),
            other => return Err(format!("unknown option {other} (see --help)")),
        }
        i += 2;
    }
    if fault_plan.is_some() && !cfg!(feature = "faults") {
        return Err(
            "--fault-plan requires a binary built with --features faults (this one was not)".into(),
        );
    }
    Ok(Options {
        port,
        config,
        idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
        fault_plan,
    })
}

/// The daemon's shared state: the serving engine plus everything the
/// graceful shutdown needs to reach every blocked thread — the listening
/// port (to wake the accept loop) and one cloned handle per open
/// connection (to unblock its reader).
struct Daemon {
    server: FlowServer,
    port: u16,
    idle_timeout: Option<Duration>,
    shutting_down: AtomicBool,
    next_conn: AtomicU64,
    connections: Mutex<HashMap<u64, TcpStream>>,
    /// In-flight cancellable queries by ticket name (`SOLVE ... ticket=`),
    /// daemon-wide so CANCEL works from any connection.
    tickets: Mutex<HashMap<String, CancelToken>>,
}

impl Daemon {
    fn lock_connections(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tickets(&self) -> std::sync::MutexGuard<'_, HashMap<String, CancelToken>> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tracks a connection for shutdown wake-up; returns its registry key.
    fn register(&self, stream: &TcpStream) -> std::io::Result<u64> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let handle = stream.try_clone()?;
        self.lock_connections().insert(id, handle);
        Ok(id)
    }

    fn deregister(&self, id: u64) {
        self.lock_connections().remove(&id);
    }

    /// The orderly stop, idempotent. Ordering matters: mark the flag first
    /// (so readers waking from EOF know why), drain the serving engine
    /// (in-flight batch completes, queued queries fail with terminal
    /// events), then unblock every reader and the accept loop.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.server.shutdown();
        for stream in self.lock_connections().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Self-connect to wake the blocking accept; the accept loop sees
        // the flag and breaks.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&raw) {
        Ok(options) => options,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("flowmax-serve: {msg}");
            eprintln!("run `flowmax-serve --help` for usage");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(("127.0.0.1", options.port)) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("flowmax-serve: cannot bind 127.0.0.1:{}: {e}", options.port);
            return ExitCode::FAILURE;
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(0);
    if let Some(spec) = &options.fault_plan {
        match flowmax_faults::FailPlan::parse(spec, options.config.seed) {
            Ok(plan) => flowmax_faults::install(plan),
            Err(e) => {
                eprintln!("flowmax-serve: invalid --fault-plan: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let daemon = Arc::new(Daemon {
        server: FlowServer::new(options.config),
        port,
        idle_timeout: options.idle_timeout,
        shutting_down: AtomicBool::new(false),
        next_conn: AtomicU64::new(0),
        connections: Mutex::new(HashMap::new()),
        tickets: Mutex::new(HashMap::new()),
    });
    // The scripted-client handshake: clients (and CI) read this line to
    // learn the ephemeral port.
    println!("LISTENING {port}");
    let _ = std::io::stdout().flush();
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                if daemon.shutting_down.load(Ordering::SeqCst) {
                    // Late arrival (or the shutdown wake-up connection):
                    // answer with the terminal line instead of raw EOF.
                    let mut writer = BufWriter::new(stream);
                    let _ = writeln!(writer, "ERR SHUTDOWN server stopping");
                    let _ = writer.flush();
                    break;
                }
                let daemon = Arc::clone(&daemon);
                // flowmax-lint: allow(L2, per-connection protocol handler threads: replies are serialized per connection and every solve runs on the audited WorkerPool, so connection scheduling cannot reorder any computation)
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_client(&daemon, stream);
                }));
            }
            Err(e) => eprintln!("flowmax-serve: accept failed: {e}"),
        }
    }
    // Every handler either already saw the shutdown flag or wakes from its
    // closed read half; join so all terminal lines flush before exit.
    for handler in handlers {
        let _ = handler.join();
    }
    ExitCode::SUCCESS
}

/// Serves one connection until QUIT/SHUTDOWN/EOF, keeping it registered
/// for shutdown wake-up while it lives. Protocol errors answer with an
/// `ERR` line and keep the connection alive.
fn handle_client(daemon: &Daemon, stream: TcpStream) -> std::io::Result<()> {
    let id = daemon.register(&stream)?;
    let result = serve_connection(daemon, id, stream);
    daemon.deregister(id);
    result
}

/// One bounded read of a request line: everything `read_line` does, plus a
/// length cap and timeout awareness.
enum LineRead {
    /// A complete line (newline stripped) within the cap.
    Line,
    /// The peer closed (or the daemon shut our read half).
    Eof,
    /// The line exceeded the cap. It has been drained through its newline
    /// (or to EOF), so the connection is still protocol-synchronized.
    TooLong,
    /// The read timeout elapsed without a complete line.
    TimedOut,
}

/// Reads one `\n`-terminated line of at most `max` bytes into `line`
/// (newline stripped, lossy UTF-8). Oversized lines are consumed to their
/// newline but never buffered beyond one [`BufReader`] block, so a 10 MB
/// garbage line costs a fixed-size buffer, not 10 MB.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    max: usize,
) -> std::io::Result<LineRead> {
    line.clear();
    let mut taken: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(LineRead::TimedOut)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF. A truncated trailing line still gets processed (like
            // `read_line`); an oversized one still reports TooLong.
            return Ok(if overflow {
                LineRead::TooLong
            } else if taken.is_empty() {
                LineRead::Eof
            } else {
                *line = String::from_utf8_lossy(&taken).into_owned();
                LineRead::Line
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let end = newline.map_or(available.len(), |pos| pos + 1);
        if !overflow && taken.len() + end > max + 1 {
            // +1: the newline itself does not count against the cap.
            overflow = true;
            taken.clear();
        }
        if !overflow {
            taken.extend_from_slice(&available[..end]);
        }
        reader.consume(end);
        if newline.is_some() {
            return Ok(if overflow {
                LineRead::TooLong
            } else {
                while taken.last() == Some(&b'\n') || taken.last() == Some(&b'\r') {
                    taken.pop();
                }
                *line = String::from_utf8_lossy(&taken).into_owned();
                LineRead::Line
            });
        }
    }
}

fn serve_connection(daemon: &Daemon, conn_id: u64, stream: TcpStream) -> std::io::Result<()> {
    // The `daemon/conn` failpoint models a connection handler dying right
    // after accept: the client still gets a terminal line, never raw EOF.
    if flowmax_faults::should_fail_keyed("daemon/conn", conn_id) {
        let mut writer = BufWriter::new(stream);
        let _ = writeln!(writer, "ERR FAULT injected");
        let _ = writer.flush();
        return Ok(());
    }
    // The timeout only governs waiting for request lines: replies are
    // written by this same thread, and a SOLVE blocks on its ticket, not
    // on the socket.
    stream.set_read_timeout(daemon.idle_timeout)?;
    // Every reply line is flushed as soon as it is complete; without
    // NODELAY, Nagle's algorithm holds each streamed `STEP` back until the
    // client's delayed ACK for the previous segment arrives.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        match read_bounded_line(&mut reader, &mut line, MAX_LINE_BYTES)? {
            LineRead::Line => {}
            LineRead::Eof => {
                // EOF: the client hung up — unless the daemon closed our
                // read half to shut down, in which case the protocol owes
                // the client a terminal line, not silence.
                if daemon.shutting_down.load(Ordering::SeqCst) {
                    let _ = writeln!(writer, "ERR SHUTDOWN server stopping");
                    let _ = writer.flush();
                }
                return Ok(());
            }
            LineRead::TooLong => {
                writeln!(writer, "ERR LINE TOO LONG max_bytes={MAX_LINE_BYTES}")?;
                writer.flush()?;
                continue;
            }
            LineRead::TimedOut => {
                let ms = daemon.idle_timeout.map_or(0, |d| d.as_millis());
                let _ = writeln!(writer, "ERR TIMEOUT idle for {ms} ms; closing");
                let _ = writer.flush();
                return Ok(());
            }
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.trim().is_empty() {
            continue; // blank line
        }
        // Split off the command word only; LOAD needs the raw remainder
        // because paths may contain spaces.
        let (command, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((command, rest)) => (command, rest.trim()),
            None => (trimmed, ""),
        };
        let reply_end = match command {
            "QUIT" => match no_args("QUIT", rest) {
                Ok(()) => {
                    writeln!(writer, "OK BYE")?;
                    writer.flush()?;
                    return Ok(());
                }
                Err(e) => Err(e),
            },
            "SHUTDOWN" => match no_args("SHUTDOWN", rest) {
                Ok(()) => {
                    // Acknowledge first: this client's goodbye must not
                    // wait for the drain it is causing.
                    writeln!(writer, "OK BYE")?;
                    writer.flush()?;
                    daemon.begin_shutdown();
                    return Ok(());
                }
                Err(e) => Err(e),
            },
            "LOAD" => cmd_load(rest, &daemon.server),
            "SOLVE" => cmd_solve(rest, daemon, &mut writer)?,
            "CANCEL" => cmd_cancel(rest, daemon),
            "STATS" => no_args("STATS", rest).map(|()| {
                let s = daemon.server.stats();
                format!(
                    "OK STATS resident={} queued={} completed={} rejected={} batches={}",
                    s.resident_graphs, s.queued, s.completed, s.rejected, s.batches
                )
            }),
            "RESUME" => no_args("RESUME", rest).map(|()| {
                daemon.server.resume();
                "OK RESUMED".to_string()
            }),
            other => Err(format!(
                "unknown command {other:?} (LOAD, SOLVE, CANCEL, STATS, RESUME, QUIT, SHUTDOWN)"
            )),
        };
        match reply_end {
            Ok(ok) => writeln!(writer, "{ok}")?,
            Err(err) => writeln!(writer, "ERR {err}")?,
        }
        writer.flush()?;
    }
}

/// Rejects trailing tokens on argument-less commands: `STATS now` is a
/// client bug the server must surface, not silently ignore.
fn no_args(command: &str, rest: &str) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("{command} takes no arguments (got {rest:?})"))
    }
}

fn cmd_load(path: &str, server: &FlowServer) -> Result<String, String> {
    if path.is_empty() {
        return Err("LOAD requires a path".into());
    }
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let graph =
        gio::read_text(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let vertices = graph.vertex_count();
    let edges = graph.edge_count();
    let fingerprint = server.load_graph(graph);
    Ok(format!(
        "OK LOADED {fingerprint:016x} vertices={vertices} edges={edges}"
    ))
}

/// Parses and runs one SOLVE command, writing STEP lines inline when
/// streaming was requested. Returns the final reply line.
fn cmd_solve(
    rest: &str,
    daemon: &Daemon,
    writer: &mut impl Write,
) -> std::io::Result<Result<String, String>> {
    let parsed = (|| -> Result<(u64, QueryParams, bool, Option<String>), String> {
        let mut tokens = rest.split_whitespace();
        let fp_text = tokens.next().ok_or("SOLVE requires a graph fingerprint")?;
        let fingerprint = u64::from_str_radix(fp_text, 16)
            .map_err(|_| format!("invalid fingerprint {fp_text:?} (16 hex digits)"))?;
        let mut params = QueryParams::new(VertexId(0), 0);
        let mut stream = false;
        let mut saw_query = false;
        let mut ticket_name = None;
        for token in tokens {
            if token == "stream" {
                stream = true;
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
            let bad = || format!("invalid value for {key}: {value:?}");
            match key {
                "query" => {
                    params.vertex = VertexId(value.parse().map_err(|_| bad())?);
                    saw_query = true;
                }
                "budget" => params.budget = value.parse().map_err(|_| bad())?,
                "samples" => params.samples = value.parse().map_err(|_| bad())?,
                "seed" => params.seed = Some(value.parse().map_err(|_| bad())?),
                "deadline_ms" => params.deadline_ms = Some(value.parse().map_err(|_| bad())?),
                "ticket" => {
                    if value.is_empty() {
                        return Err(bad());
                    }
                    ticket_name = Some(value.to_string());
                }
                "algorithm" => {
                    params.algorithm = value.parse::<Algorithm>().map_err(|e| e.to_string())?
                }
                other => return Err(format!("unknown SOLVE key {other:?}")),
            }
        }
        if !saw_query {
            return Err("SOLVE requires query=<vertex>".into());
        }
        Ok((fingerprint, params, stream, ticket_name))
    })();
    let (fingerprint, params, stream, ticket_name) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => return Ok(Err(msg)),
    };
    let (ticket, cancel) = match daemon.server.submit_cancellable(fingerprint, params) {
        Ok(admitted) => admitted,
        Err(ServeError::Overloaded { retry_after }) => {
            return Ok(Err(format!(
                "OVERLOADED retry_after_ms={}",
                retry_after.as_millis()
            )))
        }
        Err(ServeError::ShuttingDown) => return Ok(Err("SHUTDOWN server stopping".into())),
        Err(e) => return Ok(Err(e.to_string())),
    };
    // Register the cancel handle under its ticket name for the query's
    // lifetime; the guard deregisters on every exit path.
    let _registration = match ticket_name {
        Some(name) => {
            let mut tickets = daemon.lock_tickets();
            if tickets.contains_key(&name) {
                drop(tickets);
                cancel.cancel(); // don't leave an unreachable query running
                return Ok(Err(format!("ticket name {name:?} is already in flight")));
            }
            tickets.insert(name.clone(), cancel);
            drop(tickets);
            Some(TicketRegistration { daemon, name })
        }
        None => None,
    };
    loop {
        match ticket.next_event() {
            Some(ServeEvent::Step(step)) => {
                if stream {
                    // f64 Display is shortest-roundtrip, so equal lines
                    // mean bit-equal values — the replay oracle works on
                    // the text protocol itself.
                    writeln!(
                        writer,
                        "STEP {} {} {} {}",
                        step.iteration, step.edge, step.gain, step.flow
                    )?;
                    writer.flush()?;
                }
            }
            Some(ServeEvent::Done(result)) => return Ok(Ok(format_result("OK RESULT", &result))),
            Some(ServeEvent::Degraded {
                steps_done,
                budget,
                result,
            }) => {
                let prefix = format!("OK DEGRADED steps_done={steps_done} budget={budget}");
                return Ok(Ok(format_result(&prefix, &result)));
            }
            Some(ServeEvent::Failed(CoreError::ShuttingDown)) | None => {
                // The terminal line for queries the shutdown drained (the
                // stream only ends without a terminal event if the server
                // vanished, which is the same story for the client).
                return Ok(Err("SHUTDOWN server stopping".into()));
            }
            Some(ServeEvent::Failed(e)) => return Ok(Err(e.to_string())),
        }
    }
}

/// Removes a SOLVE's ticket name from the daemon registry when the query
/// finishes, however it finishes.
struct TicketRegistration<'a> {
    daemon: &'a Daemon,
    name: String,
}

impl Drop for TicketRegistration<'_> {
    fn drop(&mut self) {
        self.daemon.lock_tickets().remove(&self.name);
    }
}

fn cmd_cancel(rest: &str, daemon: &Daemon) -> Result<String, String> {
    if rest.is_empty() || rest.split_whitespace().count() != 1 {
        return Err("CANCEL takes exactly one ticket name".into());
    }
    match daemon.lock_tickets().get(rest) {
        Some(token) => {
            token.cancel();
            Ok(format!("OK CANCELLED {rest}"))
        }
        None => Err(format!(
            "unknown ticket {rest:?} (already finished, or never registered)"
        )),
    }
}

fn format_result(prefix: &str, result: &ServeResult) -> String {
    let edges: Vec<String> = result.selected.iter().map(|e| e.to_string()).collect();
    // A `None` seed is unreachable — the server resolves the seed before
    // replying — and defaults to 0 rather than panicking the handler.
    let seed = result.params.seed.unwrap_or_default();
    format!(
        "{prefix} flow={} algorithm_flow={} seed={} edges={}",
        result.flow,
        result.algorithm_flow,
        seed,
        edges.join(",")
    )
}
