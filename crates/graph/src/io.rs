//! Plain-text serialization of probabilistic graphs.
//!
//! Format (`flowmax-graph v1`):
//!
//! ```text
//! # optional comment lines anywhere
//! flowmax-graph v1
//! <vertex_count> <edge_count>
//! <weight of vertex 0>
//! ...
//! <u> <v> <probability>       (one line per edge)
//! ```
//!
//! The format is deliberately trivial so experiment outputs can be inspected
//! and graphs diffed; SNAP-style edge-list ingestion with synthesized
//! probabilities lives in `flowmax-datasets`.

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::ProbabilisticGraph;
use crate::ids::VertexId;
use crate::probability::Probability;
use crate::weight::Weight;

const HEADER: &str = "flowmax-graph v1";

/// Most vertices (and, separately, edges) [`read_text`] pre-allocates for
/// from the header's counts. The counts are untrusted: a 40-byte file can
/// declare 10¹⁸ edges, so larger graphs grow their buffers as lines
/// actually arrive.
const MAX_PREALLOCATION: usize = 1 << 20;

/// Parses one whitespace-separated field of line `line`.
fn parse_field<T>(tok: Option<&str>, line: usize, what: &str) -> Result<T, GraphError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    tok.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?
    .parse()
    .map_err(|e| GraphError::Parse {
        line,
        message: format!("bad {what}: {e}"),
    })
}

/// Writes `graph` in the `flowmax-graph v1` text format.
pub fn write_text<W: Write>(graph: &ProbabilisticGraph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "{HEADER}")?;
    writeln!(out, "{} {}", graph.vertex_count(), graph.edge_count())?;
    for v in graph.vertices() {
        writeln!(out, "{}", graph.weight(v).value())?;
    }
    for (_, e) in graph.edges() {
        writeln!(out, "{} {} {}", e.source, e.target, e.probability.value())?;
    }
    Ok(())
}

/// Reads a graph in the `flowmax-graph v1` text format.
pub fn read_text<R: BufRead>(input: R) -> Result<ProbabilisticGraph, GraphError> {
    let mut lines = input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| match l {
            Ok(s) => {
                let t = s.trim();
                !t.is_empty() && !t.starts_with('#')
            }
            Err(_) => true,
        });

    let mut next_line = |what: &str| -> Result<(usize, String), GraphError> {
        match lines.next() {
            Some((n, Ok(s))) => Ok((n, s.trim().to_string())),
            Some((n, Err(e))) => Err(GraphError::Parse {
                line: n,
                message: e.to_string(),
            }),
            None => Err(GraphError::Parse {
                line: 0,
                message: format!("unexpected EOF, expected {what}"),
            }),
        }
    };

    let (n, header) = next_line("header")?;
    if header != HEADER {
        return Err(GraphError::Parse {
            line: n,
            message: format!("bad header {header:?}"),
        });
    }

    let (n, counts) = next_line("counts")?;
    let mut it = counts.split_whitespace();
    let vertex_count: usize = parse_field(it.next(), n, "vertex count")?;
    let edge_count: usize = parse_field(it.next(), n, "edge count")?;

    let mut builder = GraphBuilder::with_capacity(
        vertex_count.min(MAX_PREALLOCATION),
        edge_count.min(MAX_PREALLOCATION),
    );
    for _ in 0..vertex_count {
        let (ln, s) = next_line("vertex weight")?;
        let w: f64 = s.parse().map_err(|e| GraphError::Parse {
            line: ln,
            message: format!("bad weight: {e}"),
        })?;
        builder.add_vertex(Weight::new(w)?);
    }
    for _ in 0..edge_count {
        let (ln, s) = next_line("edge")?;
        let mut it = s.split_whitespace();
        // Vertex ids are `u32`: a wider endpoint is a parse error, not a
        // silently truncated id.
        let u: u32 = parse_field(it.next(), ln, "edge source")?;
        let v: u32 = parse_field(it.next(), ln, "edge target")?;
        let p: f64 = it
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: ln,
                message: "missing probability".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: ln,
                message: format!("bad probability: {e}"),
            })?;
        builder.add_edge(VertexId(u), VertexId(v), Probability::new(p)?)?;
    }
    Ok(builder.build())
}

/// Writes `graph` in Graphviz DOT format for visualization. Vertices are
/// labelled `id (weight)`, edges with their probability; edges in
/// `highlight` (e.g. a selected subgraph) are drawn bold red.
pub fn write_dot<W: Write>(
    graph: &ProbabilisticGraph,
    highlight: Option<&crate::subgraph::EdgeSubset>,
    mut out: W,
) -> std::io::Result<()> {
    writeln!(out, "graph flowmax {{")?;
    writeln!(out, "  node [shape=circle fontsize=10];")?;
    for v in graph.vertices() {
        writeln!(
            out,
            "  v{} [label=\"{} ({})\"];",
            v.0,
            v.0,
            graph.weight(v).value()
        )?;
    }
    for (id, e) in graph.edges() {
        let style = match highlight {
            Some(set) if set.contains(id) => " color=red penwidth=2.0",
            _ => "",
        };
        writeln!(
            out,
            "  v{} -- v{} [label=\"{:.2}\"{}];",
            e.source.0,
            e.target.0,
            e.probability.value(),
            style
        )?;
    }
    writeln!(out, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Weight::new(1.5).unwrap());
        let v1 = b.add_vertex(Weight::new(2.0).unwrap());
        let v2 = b.add_vertex(Weight::ZERO);
        b.add_edge(v0, v1, Probability::new(0.25).unwrap()).unwrap();
        b.add_edge(v1, v2, Probability::ONE).unwrap();
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(Cursor::new(buf)).unwrap();
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.vertices() {
            assert_eq!(g2.weight(v), g.weight(v));
        }
        for (id, e) in g.edges() {
            let e2 = g2.edge(id);
            assert_eq!(e2.endpoints(), e.endpoints());
            assert_eq!(e2.probability, e.probability);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\nflowmax-graph v1\n\n2 1\n# weights\n1\n1\n0 1 0.5\n";
        let g = read_text(Cursor::new(text)).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_text(Cursor::new("not-a-graph\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn rejects_truncated_input() {
        let text = "flowmax-graph v1\n2 1\n1\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn rejects_invalid_probability_in_file() {
        let text = "flowmax-graph v1\n2 1\n1\n1\n0 1 1.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability(_)));
    }

    #[test]
    fn rejects_malformed_edge_line() {
        let text = "flowmax-graph v1\n2 1\n1\n1\n0 1\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        // 2³² + 1 would truncate to vertex 1 if narrowed unchecked.
        let text = "flowmax-graph v1\n2 1\n1\n1\n4294967297 0 0.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 5, .. }), "{err:?}");
        let text = "flowmax-graph v1\n2 1\n1\n1\n0 4294967297 0.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 5, .. }), "{err:?}");
    }

    #[test]
    fn hostile_header_counts_fail_without_allocating() {
        for text in [
            "flowmax-graph v1\n1 4000000000000000000\n1\n",
            "flowmax-graph v1\n1 10000000000000\n1\n",
            "flowmax-graph v1\n4000000000000000000 0\n1\n",
        ] {
            let err = read_text(Cursor::new(text)).unwrap_err();
            assert!(matches!(err, GraphError::Parse { .. }), "{err:?}");
        }
    }

    #[test]
    fn dot_export_mentions_all_elements() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_dot(&g, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("graph flowmax {"));
        assert!(text.contains("v0 -- v1"));
        assert!(text.contains("0.25"));
        assert!(text.trim_end().ends_with('}'));
        assert!(!text.contains("color=red"));
    }

    #[test]
    fn dot_export_highlights_selection() {
        use crate::subgraph::EdgeSubset;
        let g = sample_graph();
        let mut sel = EdgeSubset::for_graph(&g);
        sel.insert(crate::ids::EdgeId(1));
        let mut buf = Vec::new();
        write_dot(&g, Some(&sel), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("color=red").count(), 1);
    }
}
