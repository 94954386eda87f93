//! Fig. 9 — the four "real world" workloads, rebuilt with the documented
//! substitute generators (`flowmax-datasets` README): San Joaquin road network,
//! Facebook social circle, DBLP collaboration, YouTube friendships.

use flowmax_core::Algorithm;
use flowmax_datasets::{CollaborationConfig, PreferentialConfig, RoadConfig, SocialCircleConfig};
use flowmax_graph::ProbabilisticGraph;

use crate::report::{Report, Row};
use crate::runner::{names, roster, run_workload, RunConfig, Scale};

#[allow(clippy::too_many_arguments)]
fn budget_sweep(
    id: &str,
    title: &str,
    graph: &ProbabilisticGraph,
    budgets: &[usize],
    algorithms: &[Algorithm],
    scale: &Scale,
    seed: u64,
    notes: Vec<String>,
) -> Report {
    let rows = budgets
        .iter()
        .map(|&k| {
            let cfg = RunConfig {
                budget: k,
                samples: scale.pick(1000, 500),
                naive_samples: scale.pick(1000, 100),
                seed,
            };
            Row {
                x: k.to_string(),
                cells: run_workload(graph, algorithms, &cfg),
            }
        })
        .collect();
    Report {
        id: id.into(),
        title: title.into(),
        x_label: "k".into(),
        algorithms: names(algorithms),
        rows,
        notes,
    }
}

/// Fig. 9(a): road network (San Joaquin substitute; locality).
pub fn fig9a(scale: &Scale, seed: u64) -> Report {
    let (w, h) = scale.pick((135, 135), (40, 40));
    let road = RoadConfig::paper(w, h).generate(seed);
    let budgets: Vec<usize> = scale.pick(vec![50, 100, 150, 200, 250], vec![20, 40, 80, 120]);
    budget_sweep(
        "fig9a",
        "San Joaquin road network (synthetic substitute)",
        &road.graph,
        &budgets,
        &roster(),
        scale,
        seed,
        vec![
            format!("{}×{} jittered grid, p = exp(−0.001·dist_m)", w, h),
            "paper expectation: FT variants dominate; heuristics all help under locality".into(),
        ],
    )
}

/// Fig. 9(b): Facebook social circle substitute (dense, no locality).
pub fn fig9b(scale: &Scale, seed: u64) -> Report {
    // The real dataset is small; both scales use the paper's 535/10k shape.
    let g = SocialCircleConfig::paper().generate(seed);
    let budgets: Vec<usize> = scale.pick(vec![25, 50, 100, 150, 200], vec![15, 30, 60, 90]);
    budget_sweep(
        "fig9b",
        "Facebook social circle (synthetic substitute)",
        &g,
        &budgets,
        &roster(),
        scale,
        seed,
        vec![
            "535 users, 10k edges; 10 close friends/user at p ∈ [0.5,1]".into(),
            "paper expectation: Dijkstra's flow loss is most significant here".into(),
        ],
    )
}

/// Fig. 9(c): DBLP collaboration substitute (sparse cliques, no locality).
pub fn fig9c(scale: &Scale, seed: u64) -> Report {
    let authors = scale.pick(317_080, 20_000);
    let g = CollaborationConfig::paper_scaled(authors).generate(seed);
    let budgets: Vec<usize> = scale.pick(vec![50, 100, 150, 200, 250], vec![20, 40, 80]);
    // Naive is excluded at this size even in the paper-shaped run: its cost
    // is the experiment's point, measured separately at small scale.
    let algorithms: Vec<Algorithm> = roster()
        .into_iter()
        .filter(|a| *a != Algorithm::Naive)
        .collect();
    budget_sweep(
        "fig9c",
        "DBLP collaboration network (synthetic substitute)",
        &g,
        &budgets,
        &algorithms,
        scale,
        seed,
        vec![
            format!("{authors} authors, clique-per-paper generator"),
            "Naive omitted at this scale (see fig5b for its cost curve)".into(),
            "paper expectation: Dijkstra loses potential flow as k grows".into(),
        ],
    )
}

/// Fig. 9(d): YouTube friendship substitute (sparse, heavy-tailed).
pub fn fig9d(scale: &Scale, seed: u64) -> Report {
    let n = scale.pick(1_134_890, 50_000);
    let g = PreferentialConfig::paper_scaled(n).generate(seed);
    let budgets: Vec<usize> = scale.pick(vec![50, 100, 150, 200, 250], vec![20, 40, 80]);
    let algorithms: Vec<Algorithm> = roster()
        .into_iter()
        .filter(|a| *a != Algorithm::Naive)
        .collect();
    budget_sweep(
        "fig9d",
        "YouTube friendship network (synthetic substitute)",
        &g,
        &budgets,
        &algorithms,
        scale,
        seed,
        vec![
            format!("{n} vertices, preferential attachment m = 3"),
            "Naive omitted at this scale (paper reports it ~10^3 s here)".into(),
            "paper expectation: heuristics give little extra speedup; no flow loss".into(),
        ],
    )
}
