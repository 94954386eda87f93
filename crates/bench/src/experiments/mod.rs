//! The experiment registry: every table/figure of the paper's §7 mapped to a
//! runnable function (the crate README lists the index).

pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod param_c;
pub mod variance;

use crate::report::Report;
use crate::runner::Scale;

/// A named experiment: id, description, and runner.
pub struct Experiment {
    /// Stable id used on the command line and in CSV filenames.
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runner producing the figure's series.
    pub run: fn(&Scale, u64) -> Report,
}

/// All experiments, in the paper's order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            description: "running example: all edges vs Dijkstra tree vs optimal 5 edges",
            run: fig1::fig1,
        },
        Experiment {
            id: "fig5a",
            description: "graph size sweep, locality (partitioned)",
            run: fig5::fig5a,
        },
        Experiment {
            id: "fig5b",
            description: "graph size sweep, no locality (Erdős–Rényi)",
            run: fig5::fig5b,
        },
        Experiment {
            id: "fig6a",
            description: "density sweep, locality (partitioned)",
            run: fig6::fig6a,
        },
        Experiment {
            id: "fig6b",
            description: "density sweep, no locality (Erdős–Rényi)",
            run: fig6::fig6b,
        },
        Experiment {
            id: "fig7a",
            description: "budget sweep, locality",
            run: fig7::fig7a,
        },
        Experiment {
            id: "fig7b",
            description: "budget sweep, no locality",
            run: fig7::fig7b,
        },
        Experiment {
            id: "fig8a",
            description: "WSN ε = 0.05",
            run: fig8::fig8a,
        },
        Experiment {
            id: "fig8b",
            description: "WSN ε = 0.07",
            run: fig8::fig8b,
        },
        Experiment {
            id: "fig9a",
            description: "road network (San Joaquin substitute)",
            run: fig9::fig9a,
        },
        Experiment {
            id: "fig9b",
            description: "social circle (Facebook substitute)",
            run: fig9::fig9b,
        },
        Experiment {
            id: "fig9c",
            description: "collaboration network (DBLP substitute)",
            run: fig9::fig9c,
        },
        Experiment {
            id: "fig9d",
            description: "friendship network (YouTube substitute)",
            run: fig9::fig9d,
        },
        Experiment {
            id: "param-c",
            description: "delayed-sampling penalty parameter study (§7.3)",
            run: param_c::param_c,
        },
        Experiment {
            id: "variance",
            description: "whole-graph vs component-wise estimator variance (§7.3)",
            run: variance::variance,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 15, "all paper figures covered");
    }

    #[test]
    fn fig1_runs_and_shows_dominance() {
        let report = fig1::fig1(&Scale::reduced(), 0);
        assert_eq!(report.rows.len(), 3);
        let all = report.rows[0].cells[0].flow;
        let dijkstra = report.rows[1].cells[0].flow;
        let opt5 = report.rows[2].cells[0].flow;
        assert!(all > opt5 && opt5 > dijkstra);
    }
}
