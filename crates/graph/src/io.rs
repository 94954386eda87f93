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
//!
//! [`read_text`] streams: it reads one line at a time into a reused buffer,
//! so beyond the graph itself it holds at most one line of the file. Lines
//! are trimmed of Unicode whitespace; blank lines and `#` comments are
//! skipped. A counts or edge line with a token after its last field is a
//! parse error. Duplicate edges are found after the CSR adjacency is built,
//! in one pass over it, and reported as the first one in file order, ahead
//! of any later error — the same error an in-order check would give.

use std::io::{BufRead, Write};
use std::str::SplitWhitespace;

use crate::builder::checked_edge;
use crate::error::GraphError;
use crate::graph::{Edge, ProbabilisticGraph};
use crate::ids::{EdgeId, VertexId};
use crate::probability::Probability;
use crate::weight::Weight;

const HEADER: &str = "flowmax-graph v1";

/// Most vertices (and, separately, edges) [`read_text`] pre-allocates for
/// from the header's counts. The counts are untrusted: a 40-byte file can
/// declare 10¹⁸ edges, so larger graphs grow their buffers as lines
/// actually arrive.
const MAX_PREALLOCATION: usize = 1 << 20;

/// A [`GraphError::Parse`] at `line`. Cold, so that the field parsers on
/// the per-line path stay small enough to inline.
#[cold]
#[inline(never)]
fn parse_error(line: usize, message: std::fmt::Arguments<'_>) -> GraphError {
    GraphError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Parses one whitespace-separated field of line `line`.
#[inline(always)]
fn parse_field<T>(tok: Option<&str>, line: usize, what: &str) -> Result<T, GraphError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match tok.map(str::parse) {
        Some(Ok(value)) => Ok(value),
        Some(Err(e)) => Err(parse_error(line, format_args!("bad {what}: {e}"))),
        None => Err(parse_error(line, format_args!("missing {what}"))),
    }
}

/// Fails if line `line` has a token left after its `last` field.
fn end_of_line(mut rest: SplitWhitespace<'_>, line: usize, last: &str) -> Result<(), GraphError> {
    match rest.next() {
        None => Ok(()),
        Some(tok) => Err(parse_error(
            line,
            format_args!("unexpected {tok:?} after the {last}"),
        )),
    }
}

/// The lines of a graph file, read one at a time into a reused buffer.
struct Lines<R> {
    input: R,
    buf: Vec<u8>,
    /// 1-based number of the line in `buf`.
    line: usize,
}

impl<R: BufRead> Lines<R> {
    /// Hands the next line that is neither blank nor a comment, trimmed,
    /// with its number to `parse`. `what` names it in the EOF error.
    fn parse<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(usize, &str) -> Result<T, GraphError>,
    ) -> Result<T, GraphError> {
        loop {
            self.buf.clear();
            self.line += 1;
            let read = self.input.read_until(b'\n', &mut self.buf);
            let text = match read {
                Ok(0) => {
                    return Err(parse_error(
                        0,
                        format_args!("unexpected EOF, expected {what}"),
                    ))
                }
                Ok(_) => std::str::from_utf8(&self.buf).map_err(|_| {
                    // `BufRead::read_line`'s wording for the same fault.
                    parse_error(
                        self.line,
                        format_args!("stream did not contain valid UTF-8"),
                    )
                })?,
                Err(e) => return Err(parse_error(self.line, format_args!("{e}"))),
            };
            let text = text.trim();
            if !text.is_empty() && !text.starts_with('#') {
                return parse(self.line, text);
            }
        }
    }
}

/// Parses edge line `line`: `<u> <v> <probability>`.
fn parse_edge(line: usize, text: &str) -> Result<(VertexId, VertexId, f64), GraphError> {
    let mut it = text.split_whitespace();
    // Vertex ids are `u32`: a wider endpoint is a parse error, not a
    // silently truncated id.
    let u: u32 = parse_field(it.next(), line, "edge source")?;
    let v: u32 = parse_field(it.next(), line, "edge target")?;
    let p: f64 = parse_field(it.next(), line, "probability")?;
    end_of_line(it, line, "probability")?;
    Ok((VertexId(u), VertexId(v), p))
}

/// The first duplicate edge of `graph` in edge-id order: the smallest id
/// whose endpoint pair an earlier edge already has.
///
/// Each vertex's adjacency lists its edges in ascending id order, so of two
/// entries for the same neighbour the second is the later edge. One marker
/// per vertex remembers which vertex's list last saw it; only neighbours
/// above the vertex are looked at, so each edge is visited once.
fn first_duplicate(graph: &ProbabilisticGraph) -> Option<EdgeId> {
    let mut seen_by = vec![u32::MAX; graph.vertex_count()];
    let mut first: Option<EdgeId> = None;
    for v in graph.vertices() {
        for &(w, id) in graph.neighbor_slice(v) {
            if w > v {
                let mark = &mut seen_by[w.index()];
                if *mark == v.0 && first.is_none_or(|f| id < f) {
                    first = Some(id);
                }
                *mark = v.0;
            }
        }
    }
    first
}

/// Builds the graph from validated edges and fails with the first
/// duplicate in file order if there is one. `flipped` has bit `i` set when
/// edge `i` was written with its larger endpoint first.
fn build_without_duplicates(
    weights: Vec<Weight>,
    edges: Vec<Edge>,
    flipped: &[u64],
) -> Result<ProbabilisticGraph, GraphError> {
    let graph = ProbabilisticGraph::from_parts(weights, edges);
    match first_duplicate(&graph) {
        None => Ok(graph),
        Some(id) => {
            let e = graph.edge(id);
            let (a, b) = if flipped[id.index() / 64] >> (id.index() % 64) & 1 == 1 {
                (e.target, e.source)
            } else {
                (e.source, e.target)
            };
            Err(GraphError::DuplicateEdge { a, b })
        }
    }
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
///
/// Errors are those of the first faulty line in file order, where a
/// duplicate edge is a fault of its second line.
pub fn read_text<R: BufRead>(input: R) -> Result<ProbabilisticGraph, GraphError> {
    let mut lines = Lines {
        input,
        buf: Vec::new(),
        line: 0,
    };
    lines.parse("header", |n, header| {
        if header == HEADER {
            Ok(())
        } else {
            Err(parse_error(n, format_args!("bad header {header:?}")))
        }
    })?;
    let (vertex_count, edge_count) = lines.parse("counts", |n, counts| {
        let mut it = counts.split_whitespace();
        let vertex_count: usize = parse_field(it.next(), n, "vertex count")?;
        let edge_count: usize = parse_field(it.next(), n, "edge count")?;
        end_of_line(it, n, "edge count")?;
        Ok((vertex_count, edge_count))
    })?;

    let mut weights = Vec::with_capacity(vertex_count.min(MAX_PREALLOCATION));
    for _ in 0..vertex_count {
        let w: f64 = lines.parse("vertex weight", |n, s| {
            s.parse()
                .map_err(|e| parse_error(n, format_args!("bad weight: {e}")))
        })?;
        weights.push(Weight::new(w)?);
    }
    let mut edges = Vec::with_capacity(edge_count.min(MAX_PREALLOCATION));
    let mut flipped: Vec<u64> = Vec::new();
    for i in 0..edge_count {
        let edge = lines.parse("edge", parse_edge).and_then(|(u, v, p)| {
            let edge = checked_edge(u, v, Probability::new(p)?, weights.len())?;
            Ok((edge, u > v))
        });
        match edge {
            Ok((edge, flip)) => {
                if i % 64 == 0 {
                    flipped.push(0);
                }
                flipped[i / 64] |= u64::from(flip) << (i % 64);
                edges.push(edge);
            }
            // A duplicate among the edges before this line comes first.
            Err(err) => {
                return Err(build_without_duplicates(weights, edges, &flipped)
                    .err()
                    .unwrap_or(err))
            }
        }
    }
    build_without_duplicates(weights, edges, &flipped)
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
    use crate::builder::GraphBuilder;
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
    fn rejects_trailing_tokens() {
        let err =
            read_text(Cursor::new("flowmax-graph v1\n2 1 extra\n1\n1\n0 1 0.5\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
        let err =
            read_text(Cursor::new("flowmax-graph v1\n2 1\n1\n1\n0 1 0.5 junk\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 5, .. }), "{err:?}");
        // Weight lines already took the whole line as one number.
        let err = read_text(Cursor::new("flowmax-graph v1\n2 1\n7 8\n1\n0 1 0.5\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err:?}");
        // Trailing whitespace, CRLF endings and Unicode spaces are not tokens.
        let text = "flowmax-graph v1\r\n2 1 \t\r\n1\r\n1\r\n0\u{a0}1 0.5\u{3000}\r\n";
        assert_eq!(read_text(Cursor::new(text)).unwrap().edge_count(), 1);
    }

    #[test]
    fn rejects_duplicates_in_file_order() {
        // The later copy is reported, with its endpoints as written.
        let text = "flowmax-graph v1\n3 3\n1\n1\n1\n0 1 0.5\n1 2 0.5\n1 0 0.25\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        let dup = GraphError::DuplicateEdge {
            a: VertexId(1),
            b: VertexId(0),
        };
        assert_eq!(err, dup);
        // Of two duplicated pairs, the one whose second copy comes first.
        let text = "flowmax-graph v1\n3 4\n1\n1\n1\n1 2 0.5\n0 1 0.5\n0 1 0.5\n2 1 0.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdge {
                a: VertexId(0),
                b: VertexId(1),
            }
        );
        // A duplicate before a bad line wins; a bad line before it wins.
        let text = "flowmax-graph v1\n3 4\n1\n1\n1\n0 1 0.5\n1 0 0.5\n2 2 0.5\n";
        assert_eq!(read_text(Cursor::new(text)).unwrap_err(), dup);
        let text = "flowmax-graph v1\n3 4\n1\n1\n1\n0 1 0.5\n2 2 0.5\n1 0 0.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(VertexId(2)));
        // Truncation after a duplicate still reports the duplicate.
        let text = "flowmax-graph v1\n3 9\n1\n1\n1\n0 1 0.5\n1 0 0.5\n";
        assert_eq!(read_text(Cursor::new(text)).unwrap_err(), dup);
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
