//! End-to-end tests of the `flowmax-serve` binary over its TCP line
//! protocol: ephemeral-port startup handshake, LOAD/SOLVE/STATS, streamed
//! anytime steps, protocol-error recovery, the deterministic-replay
//! contract *on the wire* (f64 `Display` is shortest-roundtrip, so equal
//! RESULT lines mean bit-equal values), backpressure formatting, and the graceful SHUTDOWN contract: every open connection
//! gets a terminal line, never a raw EOF.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use flowmax::datasets::{suggest_query, ErdosConfig};
use flowmax::graph::{io as gio, ProbabilisticGraph, VertexId};

/// Kills the daemon if the test panics before the SHUTDOWN handshake.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `flowmax-serve --port 0 <extra_args>` and reads the
/// `LISTENING <port>` banner.
fn spawn_daemon(extra_args: &[&str]) -> (DaemonGuard, u16) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_flowmax-serve"));
    command
        .args(["--port", "0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = command.spawn().expect("spawn flowmax-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let guard = DaemonGuard(child);
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read LISTENING banner");
    let port: u16 = banner
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("banner carries the port");
    (guard, port)
}

/// Waits (bounded) for the daemon process to exit successfully.
fn wait_for_clean_exit(guard: &mut DaemonGuard) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match guard.0.try_wait().expect("poll daemon") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                return;
            }
            None if Instant::now() > deadline => panic!("daemon ignored SHUTDOWN"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Writes a small test graph under `dir` and returns its path and a good
/// query vertex.
fn write_graph(graph: &ProbabilisticGraph, dir: &Path, file_name: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create graph dir");
    let path = dir.join(file_name);
    let file = std::fs::File::create(&path).expect("create graph file");
    let mut w = std::io::BufWriter::new(file);
    gio::write_text(graph, &mut w)
        .and_then(|_| w.flush())
        .expect("write graph file");
    path
}

fn test_graph() -> (ProbabilisticGraph, VertexId) {
    let graph = ErdosConfig::paper(80, 5.0).generate(19);
    let query = suggest_query(&graph);
    (graph, query)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write command");
        self.writer.flush().expect("flush command");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(!line.is_empty(), "daemon hung up unexpectedly");
        line.trim_end().to_string()
    }

    /// Sends one command and collects `STEP` lines until the final
    /// `OK`/`ERR` reply: `(steps, final_reply)`.
    fn roundtrip(&mut self, line: &str) -> (Vec<String>, String) {
        self.send(line);
        let mut steps = Vec::new();
        loop {
            let reply = self.recv();
            if reply.starts_with("STEP ") {
                steps.push(reply);
            } else {
                return (steps, reply);
            }
        }
    }

    /// LOADs a graph file and returns the announced fingerprint.
    fn load(&mut self, path: &Path) -> String {
        let (_, loaded) = self.roundtrip(&format!("LOAD {}", path.display()));
        assert!(loaded.starts_with("OK LOADED "), "{loaded}");
        loaded
            .split_whitespace()
            .nth(2)
            .expect("fingerprint field")
            .to_string()
    }
}

#[test]
fn daemon_serves_the_line_protocol_end_to_end() {
    let (graph, query) = test_graph();
    let dir = std::env::temp_dir().join(format!("flowmax-serve-test-{}", std::process::id()));
    let path = write_graph(&graph, &dir, "graph.txt");

    let (mut guard, port) = spawn_daemon(&["--threads", "2", "--seed", "42"]);
    let mut client = Client::connect(port);

    // LOAD announces the fingerprint the SOLVE commands key on.
    let (_, loaded) = client.roundtrip(&format!("LOAD {}", path.display()));
    assert!(loaded.starts_with("OK LOADED "), "{loaded}");
    assert!(loaded.contains("vertices=80"), "{loaded}");
    let fp = loaded
        .split_whitespace()
        .nth(2)
        .expect("fingerprint field")
        .to_string();

    // A streamed solve: one STEP per committed edge, then the result.
    let solve = format!("SOLVE {fp} query={} budget=4 samples=200 seed=9", query.0);
    let (steps, result) = client.roundtrip(&format!("{solve} stream"));
    assert!(result.starts_with("OK RESULT flow="), "{result}");
    assert!(result.contains("seed=9"), "{result}");
    let edges = result
        .rsplit_once("edges=")
        .expect("edges field")
        .1
        .split(',')
        .count();
    assert_eq!(steps.len(), edges, "one STEP per selected edge");

    // The replay contract on the wire: the same SOLVE line (sans stream)
    // answers with a byte-identical RESULT line.
    let (no_steps, replay) = client.roundtrip(&solve);
    assert!(no_steps.is_empty(), "unrequested STEP lines");
    assert_eq!(replay, result, "replay diverged on the wire");

    // Protocol errors answer ERR and keep the connection serviceable.
    let (_, err) = client.roundtrip("FROBNICATE now");
    assert!(err.starts_with("ERR "), "{err}");
    let (_, err) = client.roundtrip(&format!("SOLVE {fp} budget=3"));
    assert!(err.contains("query="), "{err}");
    let (_, err) = client.roundtrip("SOLVE ffffffffffffffff query=0 budget=1");
    assert!(err.starts_with("ERR "), "{err}");
    // Unknown SOLVE keys are rejected, not silently dropped.
    let (_, err) = client.roundtrip(&format!("SOLVE {fp} query=0 budget=1 frobnicate=9"));
    assert!(err.contains("unknown SOLVE key"), "{err}");
    // Malformed fingerprints (non-hex) are a parse error.
    let (_, err) = client.roundtrip("SOLVE zz@@ query=0 budget=1");
    assert!(err.contains("invalid fingerprint"), "{err}");

    // RESUME is idempotent (this daemon never paused).
    let (_, resumed) = client.roundtrip("RESUME");
    assert_eq!(resumed, "OK RESUMED");

    let (_, stats) = client.roundtrip("STATS");
    assert!(stats.starts_with("OK STATS resident=1 "), "{stats}");
    assert!(stats.contains("completed=2"), "{stats}");
    assert!(stats.contains("rejected=0"), "{stats}");

    // A second connection sees the same resident graph.
    let mut second = Client::connect(port);
    let (_, replay2) = second.roundtrip(&solve);
    assert_eq!(replay2, result, "second connection diverged");
    let (_, bye) = second.roundtrip("QUIT");
    assert_eq!(bye, "OK BYE");

    // SHUTDOWN stops the whole daemon.
    let (_, bye) = client.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    wait_for_clean_exit(&mut guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// LOAD treats everything after the command word as the path, so graph
/// files living under directories with spaces load fine — and the
/// argument-less commands reject trailing garbage instead of silently
/// ignoring it (a truncated-parse regression in both directions).
#[test]
fn load_accepts_spaced_paths_and_bare_commands_reject_garbage() {
    let (graph, query) = test_graph();
    let dir = std::env::temp_dir().join(format!("flowmax serve spaced {}", std::process::id()));
    let path = write_graph(&graph, &dir, "my graph file.txt");

    let (mut guard, port) = spawn_daemon(&["--threads", "1"]);
    let mut client = Client::connect(port);

    // The spaced path loads; the old first-token parse would have tried
    // to open ".../flowmax" and failed.
    let fp = client.load(&path);
    let (_, result) = client.roundtrip(&format!(
        "SOLVE {fp} query={} budget=2 samples=100 seed=3",
        query.0
    ));
    assert!(result.starts_with("OK RESULT flow="), "{result}");

    // A missing path is still an error.
    let (_, err) = client.roundtrip("LOAD");
    assert!(err.contains("requires a path"), "{err}");

    // Trailing tokens on argument-less commands are protocol errors, and
    // the connection stays serviceable afterwards.
    for command in ["STATS", "RESUME", "QUIT", "SHUTDOWN"] {
        let (_, err) = client.roundtrip(&format!("{command} now please"));
        assert!(
            err.starts_with("ERR ") && err.contains("takes no arguments"),
            "{command}: {err}"
        );
    }
    let (_, stats) = client.roundtrip("STATS");
    assert!(stats.starts_with("OK STATS "), "{stats}");

    let (_, bye) = client.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    wait_for_clean_exit(&mut guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--lanes` survives only as a compatibility option: the daemon starts
/// with the one lane width it samples at, and refuses to start with any
/// other value, naming the option.
#[test]
fn lanes_option_accepts_only_the_fixed_width() {
    let (mut guard, port) = spawn_daemon(&["--threads", "1", "--lanes", "8"]);
    let mut client = Client::connect(port);
    let (_, bye) = client.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    wait_for_clean_exit(&mut guard);

    for lanes in ["1", "4", "16", "wide"] {
        let output = Command::new(env!("CARGO_BIN_EXE_flowmax-serve"))
            .args(["--port", "0", "--lanes", lanes])
            .output()
            .expect("run flowmax-serve");
        assert!(!output.status.success(), "--lanes {lanes} must be refused");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("invalid value for --lanes: \"{lanes}\"")),
            "--lanes {lanes}: {stderr}"
        );
    }
}

/// An oversized request line — 10 MB of garbage without a newline — is
/// drained and answered with the exact `ERR LINE TOO LONG` line, and the
/// same connection keeps serving afterwards: the bounded reader resyncs on
/// the newline instead of buffering the flood or hanging up.
#[test]
fn oversized_request_line_is_rejected_and_the_connection_survives() {
    let (mut guard, port) = spawn_daemon(&["--threads", "1"]);
    let mut client = Client::connect(port);

    let garbage = vec![b'x'; 10 * 1024 * 1024];
    client.writer.write_all(&garbage).expect("write flood");
    client.writer.write_all(b"\n").expect("terminate flood");
    client.writer.flush().expect("flush flood");
    assert_eq!(client.recv(), "ERR LINE TOO LONG max_bytes=65536");

    // The protocol is resynchronized: normal commands still work.
    let (_, stats) = client.roundtrip("STATS");
    assert!(stats.starts_with("OK STATS "), "{stats}");

    // A line exactly at a sane size still parses (it's an unknown command,
    // not a length rejection).
    let (_, err) = client.roundtrip(&"y".repeat(1000));
    assert!(err.starts_with("ERR unknown command"), "{err}");

    let (_, bye) = client.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    wait_for_clean_exit(&mut guard);
}

/// Deadlines and cancellation on the wire: an expired `deadline_ms=`
/// answers `OK DEGRADED` with the step count it kept, `CANCEL <ticket>`
/// degrades the in-flight SOLVE from another connection, unknown tickets
/// are typed errors, and a generous deadline leaves the RESULT line
/// byte-identical to the undeadlined replay (deadlines sit outside the
/// replay key).
#[test]
fn deadline_and_cancel_verbs_degrade_queries_on_the_wire() {
    let (graph, query) = test_graph();
    let dir = std::env::temp_dir().join(format!("flowmax-serve-deadline-{}", std::process::id()));
    let path = write_graph(&graph, &dir, "graph.txt");

    let (mut guard, port) = spawn_daemon(&["--threads", "1", "--start-paused"]);
    let mut control = Client::connect(port);
    let fp = control.load(&path);

    // Connection A queues a query whose deadline is already dead on
    // arrival; connection B queues one registered under a ticket name.
    let mut doomed = Client::connect(port);
    doomed.send(&format!(
        "SOLVE {fp} query={} budget=3 samples=100 deadline_ms=0",
        query.0
    ));
    let mut ticketed = Client::connect(port);
    ticketed.send(&format!(
        "SOLVE {fp} query={} budget=3 samples=100 ticket=job1",
        query.0
    ));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = control.roundtrip("STATS");
        if stats.contains("queued=2") {
            break;
        }
        assert!(Instant::now() < deadline, "queries never queued: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Cancel the ticketed query from a *different* connection; a name
    // that was never registered is a typed error.
    let (_, cancelled) = control.roundtrip("CANCEL job1");
    assert_eq!(cancelled, "OK CANCELLED job1");
    let (_, err) = control.roundtrip("CANCEL nope");
    assert!(err.starts_with("ERR unknown ticket"), "{err}");

    // Both degrade at step zero: the deadline was dead on admission, the
    // cancel landed before the dispatcher ran the batch.
    let (_, resumed) = control.roundtrip("RESUME");
    assert_eq!(resumed, "OK RESUMED");
    let degraded = doomed.recv();
    assert!(
        degraded.starts_with("OK DEGRADED steps_done=0 budget=3 "),
        "{degraded}"
    );
    let degraded = ticketed.recv();
    assert!(
        degraded.starts_with("OK DEGRADED steps_done=0 budget=3 "),
        "{degraded}"
    );

    // The completed query's registration is gone: its name is free again
    // for CANCEL to reject.
    let (_, err) = control.roundtrip("CANCEL job1");
    assert!(err.starts_with("ERR unknown ticket"), "{err}");

    // A deadline generous enough to never fire answers byte-identically
    // to the undeadlined solve: the deadline moved nothing.
    let solve = format!("SOLVE {fp} query={} budget=3 samples=100 seed=5", query.0);
    let (_, plain) = control.roundtrip(&solve);
    assert!(plain.starts_with("OK RESULT flow="), "{plain}");
    let (_, relaxed) = control.roundtrip(&format!("{solve} deadline_ms=60000"));
    assert_eq!(relaxed, plain, "an unfired deadline changed the wire bytes");

    let (_, bye) = control.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    wait_for_clean_exit(&mut guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dynamic backoff hint on the wire: with the queue four deep and
/// coalescing two per batch, a rejected SOLVE carries `ceil((4 + 1) / 2)`
/// base units — `retry_after_ms=15` — not the flat base hint.
#[test]
fn overload_hints_scale_with_queue_depth_on_the_wire() {
    let (graph, query) = test_graph();
    let dir = std::env::temp_dir().join(format!("flowmax-serve-backoff-{}", std::process::id()));
    let path = write_graph(&graph, &dir, "graph.txt");

    let (mut guard, port) = spawn_daemon(&[
        "--threads",
        "1",
        "--queue-capacity",
        "4",
        "--coalesce-max",
        "2",
        "--retry-after-ms",
        "5",
        "--start-paused",
    ]);
    let mut control = Client::connect(port);
    let fp = control.load(&path);

    // Four connections fill the paused queue.
    let mut queued = Vec::new();
    for i in 0..4 {
        let mut client = Client::connect(port);
        client.send(&format!(
            "SOLVE {fp} query={} budget=1 samples=100 seed={i}",
            query.0
        ));
        queued.push(client);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = control.roundtrip("STATS");
        if stats.contains("queued=4") {
            break;
        }
        assert!(Instant::now() < deadline, "queue never filled: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut bounced = Client::connect(port);
    let (_, err) = bounced.roundtrip(&format!("SOLVE {fp} query={} budget=1", query.0));
    assert_eq!(err, "ERR OVERLOADED retry_after_ms=15");

    // Shutdown drains the queue: every queued connection gets a terminal
    // line, never a raw EOF.
    let (_, bye) = bounced.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    for client in &mut queued {
        assert_eq!(client.recv(), "ERR SHUTDOWN server stopping");
    }
    wait_for_clean_exit(&mut guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--fault-plan` on a binary built with `--features faults`: the armed
/// `daemon/conn` site answers the scheduled connection with a terminal
/// `ERR FAULT injected` line (never a raw EOF) and leaves every other
/// connection untouched.
#[cfg(feature = "faults")]
#[test]
fn fault_plan_injects_connection_faults_with_terminal_lines() {
    let (mut guard, port) =
        spawn_daemon(&["--threads", "1", "--fault-plan", "daemon/conn@1=always"]);

    // Connection 0 is clean.
    let mut first = Client::connect(port);
    let (_, stats) = first.roundtrip("STATS");
    assert!(stats.starts_with("OK STATS "), "{stats}");

    // Connection 1 is the scheduled casualty: one terminal line, then EOF.
    let mut faulted = Client::connect(port);
    assert_eq!(faulted.recv(), "ERR FAULT injected");
    let mut line = String::new();
    let n = faulted
        .reader
        .read_line(&mut line)
        .expect("read after fault");
    assert_eq!(
        n, 0,
        "the faulted connection closes after its terminal line"
    );

    // Connection 2 is clean again; the daemon took no damage.
    let mut second = Client::connect(port);
    let (_, stats) = second.roundtrip("STATS");
    assert!(stats.starts_with("OK STATS "), "{stats}");
    let (_, bye) = second.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    wait_for_clean_exit(&mut guard);
}

/// `--fault-plan` on a binary built *without* the faults feature must
/// refuse to start: a plan that silently no-ops would be a lie.
#[cfg(not(feature = "faults"))]
#[test]
fn fault_plan_without_the_feature_refuses_to_start() {
    let output = Command::new(env!("CARGO_BIN_EXE_flowmax-serve"))
        .args(["--port", "0", "--fault-plan", "daemon/conn@0=always"])
        .output()
        .expect("run flowmax-serve");
    assert!(!output.status.success(), "the daemon must refuse the plan");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--features faults"),
        "stderr must say why: {stderr}"
    );
}

/// Backpressure formatting and the graceful-shutdown contract: a paused
/// daemon with a one-slot queue rejects the second SOLVE with the exact
/// `ERR OVERLOADED retry_after_ms=<hint>` line, and SHUTDOWN hands every
/// open connection a terminal `ERR SHUTDOWN server stopping` line — the
/// queued query, the idle connection, late arrivals — never a raw EOF.
#[test]
fn overload_formatting_and_shutdown_terminal_lines() {
    let (graph, query) = test_graph();
    let dir = std::env::temp_dir().join(format!("flowmax-serve-shutdown-{}", std::process::id()));
    let path = write_graph(&graph, &dir, "graph.txt");

    let (mut guard, port) = spawn_daemon(&[
        "--threads",
        "1",
        "--queue-capacity",
        "1",
        "--retry-after-ms",
        "7",
        "--start-paused",
    ]);
    let mut loader = Client::connect(port);
    let fp = loader.load(&path);

    // Connection A fills the one-slot queue; paused, so it never runs.
    let mut queued = Client::connect(port);
    queued.send(&format!(
        "SOLVE {fp} query={} budget=2 samples=100",
        query.0
    ));
    // Wait until A's query is admitted before probing the full queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = loader.roundtrip("STATS");
        if stats.contains("queued=1") {
            break;
        }
        assert!(Instant::now() < deadline, "query never queued: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Connection B bounces off the full queue with the exact hint format.
    let mut bounced = Client::connect(port);
    let (_, err) = bounced.roundtrip(&format!("SOLVE {fp} query={} budget=1", query.0));
    assert_eq!(err, "ERR OVERLOADED retry_after_ms=7");

    // SHUTDOWN from B: B gets its goodbye, A's queued query drains with
    // the terminal line, and the idle loader connection is told too.
    let (_, bye) = bounced.roundtrip("SHUTDOWN");
    assert_eq!(bye, "OK BYE");
    assert_eq!(queued.recv(), "ERR SHUTDOWN server stopping");
    assert_eq!(loader.recv(), "ERR SHUTDOWN server stopping");
    wait_for_clean_exit(&mut guard);
    let _ = std::fs::remove_dir_all(&dir);
}
