//! End-to-end pipeline smoke tests: every dataset spec through the full
//! solver stack at test-friendly scales.

use flowmax::core::{Algorithm, Session};
use flowmax::datasets::{
    suggest_query, CollaborationConfig, DatasetSpec, ErdosConfig, PartitionedConfig,
    PreferentialConfig, RoadConfig, SocialCircleConfig, WeightModel, WsnConfig,
};

fn specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec::Erdos(ErdosConfig::paper(200, 5.0)),
        DatasetSpec::Partitioned(PartitionedConfig::paper(200, 6)),
        DatasetSpec::Wsn(WsnConfig::paper(200, 0.09)),
        DatasetSpec::Road(RoadConfig::paper(12, 12)),
        DatasetSpec::SocialCircle(SocialCircleConfig {
            vertices: 80,
            edges: 500,
            close_friends_per_user: 6,
            weights: WeightModel::paper_default(),
        }),
        DatasetSpec::Collaboration(CollaborationConfig::paper_scaled(300)),
        DatasetSpec::Preferential(PreferentialConfig::paper_scaled(300)),
    ]
}

#[test]
fn every_workload_solves_with_the_full_heuristic_stack() {
    for spec in specs() {
        let g = spec.build(42);
        let q = suggest_query(&g);
        let session = Session::new(&g).with_seed(7);
        let r = session
            .query(q)
            .unwrap()
            .algorithm(Algorithm::FtMCiDs)
            .budget(15)
            .samples(300)
            .run()
            .unwrap();
        assert!(!r.selected.is_empty(), "{}: nothing selected", spec.name());
        assert!(r.selected.len() <= 15, "{}: budget violated", spec.name());
        assert!(r.flow > 0.0, "{}: zero flow", spec.name());
        assert!(
            r.flow <= g.total_weight() + 1e-6,
            "{}: flow exceeds total weight",
            spec.name()
        );
    }
}

#[test]
fn selections_are_connected_to_the_query() {
    use flowmax::graph::{Bfs, EdgeSubset};
    for spec in specs() {
        let g = spec.build(43);
        let q = suggest_query(&g);
        let session = Session::new(&g).with_seed(8);
        let r = session
            .query(q)
            .unwrap()
            .algorithm(Algorithm::FtM)
            .budget(12)
            .samples(200)
            .run()
            .unwrap();
        let subset = EdgeSubset::from_edges(g.edge_count(), r.selected.iter().copied());
        let mut bfs = Bfs::new(g.vertex_count());
        let mut edge_touched = 0usize;
        bfs.run(&g, q, |e| subset.contains(e), |_| {});
        for &e in &r.selected {
            let (a, b) = g.endpoints(e);
            if bfs.was_visited(a) && bfs.was_visited(b) {
                edge_touched += 1;
            }
        }
        assert_eq!(
            edge_touched,
            r.selected.len(),
            "{}: greedy must keep the selection connected",
            spec.name()
        );
    }
}

#[test]
fn locality_keeps_selection_near_query() {
    // Paper Fig. 5(a): under locality, only a local neighbourhood matters.
    let wsn = WsnConfig::paper(500, 0.08).generate(9);
    let g = &wsn.graph;
    let q = suggest_query(g);
    let (qx, qy) = wsn.positions[q.index()];
    let session = Session::new(g).with_seed(10);
    let r = session
        .query(q)
        .unwrap()
        .algorithm(Algorithm::FtM)
        .budget(20)
        .samples(200)
        .run()
        .unwrap();
    for &e in &r.selected {
        let (a, b) = g.endpoints(e);
        for v in [a, b] {
            let (x, y) = wsn.positions[v.index()];
            let d = ((x - qx).powi(2) + (y - qy).powi(2)).sqrt();
            assert!(
                d < 0.5,
                "selected vertex {v:?} at distance {d} — selection should stay local"
            );
        }
    }
}

#[test]
fn evaluation_flow_tracks_algorithm_flow() {
    // The solver's uniform evaluator should be within sampling noise of the
    // algorithm's own final estimate.
    let g = ErdosConfig::paper(200, 5.0).generate(11);
    let q = suggest_query(&g);
    let session = Session::new(&g).with_seed(12);
    let r = session
        .query(q)
        .unwrap()
        .algorithm(Algorithm::FtM)
        .budget(15)
        .run()
        .unwrap();
    let rel = (r.flow - r.algorithm_flow).abs() / r.flow.max(1e-9);
    assert!(
        rel < 0.15,
        "uniform evaluation {} vs algorithm estimate {} (rel {rel})",
        r.flow,
        r.algorithm_flow
    );
}

/// `flowmax solve --trace | head -1`: the reader closes stdout after the
/// first step, and the CLI must end cleanly instead of panicking on the
/// broken pipe.
#[test]
fn cli_exits_cleanly_when_stdout_closes_early() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("flowmax-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.txt");
    let graph = ErdosConfig::paper(2000, 6.0).generate(5);
    let mut file = std::fs::File::create(&path).unwrap();
    flowmax::graph::io::write_text(&graph, &mut file).unwrap();
    drop(file);

    let mut child = Command::new(env!("CARGO_BIN_EXE_flowmax"))
        .args(["solve", "--graph"])
        .arg(&path)
        .args(["--budget", "300", "--samples", "100", "--trace"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader is dropped here: the pipe's read end closes.
    let output = child.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert!(first.starts_with("iter   0:"), "first line: {first:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        output.status.success(),
        "status {:?}, stderr: {stderr}",
        output.status
    );
}

/// The lane width is not a CLI option: `solve --lanes` is rejected like
/// any other unknown option, while the same solve without it runs.
#[test]
fn cli_solve_rejects_the_lanes_option() {
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("flowmax-cli-lanes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.txt");
    let graph = ErdosConfig::paper(50, 4.0).generate(3);
    let mut file = std::fs::File::create(&path).unwrap();
    flowmax::graph::io::write_text(&graph, &mut file).unwrap();
    drop(file);

    let solve = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_flowmax"))
            .args(["solve", "--graph"])
            .arg(&path)
            .args(["--budget", "2", "--samples", "64"])
            .args(extra)
            .output()
            .unwrap()
    };
    let plain = solve(&[]);
    let with_lanes = solve(&["--lanes", "8"]);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        plain.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&plain.stderr)
    );
    assert!(!with_lanes.status.success(), "--lanes must be refused");
    let stderr = String::from_utf8_lossy(&with_lanes.stderr);
    assert!(
        stderr.contains("unknown option --lanes"),
        "stderr: {stderr}"
    );
}
