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
//! [`read_text`] parses the caller's `BufRead` in place, one `fill_buf`
//! chunk at a time: a line that lies whole in the chunk is parsed where it
//! lies, and only a line that runs past the chunk's end is copied, into one
//! reused carry buffer. So beyond the graph it holds the reader's buffer and
//! at most one line of the file. Every line must be UTF-8, comments
//! included; only a line with a byte above 0x7F needs the check.
//!
//! Tokens are split at whitespace as `char::is_whitespace` defines it: in
//! ASCII that is space, `\t`, VT, FF and `\r` (`\n` ends the line), beyond
//! it every Unicode space such as NBSP or U+3000. Blank lines and lines
//! whose first token starts with `#` are skipped, but still counted in line
//! numbers. A counts or edge line with a token after its last field is a
//! parse error, and so is any line after the last declared edge that is
//! neither blank nor a comment. Duplicate edges are found after the CSR
//! adjacency is built, in one pass over it, and reported as the first one
//! in file order, ahead of any later error — the same error an in-order
//! check would give.

use std::io::{BufRead, ErrorKind, Write};

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

/// Byte class of a token byte.
const TOKEN: u8 = 0;
/// Byte class of ASCII whitespace.
const SPACE: u8 = 1;
/// Byte class of the bytes above 0x7F, which start or continue a
/// non-ASCII char that may be whitespace.
const WIDE: u8 = 2;

/// The class of every byte. `SPACE` is exactly the set of ASCII bytes
/// `char::is_whitespace` accepts, VT included, which
/// `u8::is_ascii_whitespace` leaves out.
const CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    let mut i = 0;
    let spaces = [b' ', b'\t', b'\n', 0x0b, 0x0c, b'\r'];
    while i < spaces.len() {
        class[spaces[i] as usize] = SPACE;
        i += 1;
    }
    class
};

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

/// The width of the char `rest` starts with, if that char is whitespace.
/// `rest` starts with a byte above 0x7F.
#[cold]
#[inline(never)]
fn wide_space(rest: &[u8]) -> Option<usize> {
    let head = &rest[..rest.len().min(4)];
    let c = head.utf8_chunks().next()?.valid().chars().next()?;
    c.is_whitespace().then_some(c.len_utf8())
}

/// The index of the first `\n` in `bytes`, found a word at a time.
fn newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let (words, rest) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        // Zero bytes of `x` are `\n`s; the lowest flag is exact.
        let x = u64::from_le_bytes(*word) ^ (ONES * u64::from(b'\n'));
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = rest.iter().position(|&b| b == b'\n')?;
    Some(words.len() * 8 + tail)
}

/// A cursor over one line, without its `\n`, that splits it into tokens at
/// whitespace.
struct Tokens<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// 1-based number of the line.
    line: usize,
}

impl<'a> Tokens<'a> {
    /// Moves past the whitespace at the cursor.
    #[inline(always)]
    fn skip_space(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += match CLASS[usize::from(b)] {
                TOKEN => return,
                SPACE => 1,
                _ => match wide_space(&self.bytes[self.pos..]) {
                    Some(width) => width,
                    None => return,
                },
            };
        }
    }

    /// Whether only whitespace is left of the line.
    #[inline(always)]
    fn at_end(&mut self) -> bool {
        self.skip_space();
        self.pos == self.bytes.len()
    }

    /// The next token: empty if only whitespace is left.
    #[inline(always)]
    fn token(&mut self) -> &'a [u8] {
        self.skip_space();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match CLASS[usize::from(b)] {
                TOKEN => {}
                SPACE => break,
                _ if wide_space(&self.bytes[self.pos..]).is_some() => break,
                _ => {}
            }
            self.pos += 1;
        }
        &self.bytes[start..self.pos]
    }

    /// [`parse_field`] on `tok`, a token of this line; empty means the
    /// field is missing. The line is UTF-8, so `tok` converts losslessly.
    #[cold]
    #[inline(never)]
    fn field<T>(&self, tok: &[u8], what: &str) -> Result<T, GraphError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let tok = String::from_utf8_lossy(tok);
        parse_field((!tok.is_empty()).then_some(&*tok), self.line, what)
    }

    /// The next token as a `what`.
    fn parse<T>(&mut self, what: &str) -> Result<T, GraphError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let tok = self.token();
        self.field(tok, what)
    }

    /// The next token as a vertex id, read as decimal digits. Anything
    /// else — a `+`, a wide char after the digits, an overflow, no digit at
    /// all — goes to [`Self::field`], so the ids accepted and the errors
    /// given are exactly those of `u32::from_str`.
    #[inline(always)]
    fn vertex(&mut self, what: &str) -> Result<u32, GraphError> {
        self.skip_space();
        let start = self.pos;
        let mut id: u32 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            match id
                .checked_mul(10)
                .and_then(|x| x.checked_add(u32::from(digit)))
            {
                Some(x) => id = x,
                None => break,
            }
            self.pos += 1;
        }
        let ended = self
            .bytes
            .get(self.pos)
            .is_none_or(|&b| CLASS[usize::from(b)] == SPACE);
        if self.pos > start && ended {
            return Ok(id);
        }
        self.pos = start;
        self.parse(what)
    }

    /// The next token as a `what`, by `f64::from_str`.
    #[inline(always)]
    fn number(&mut self, what: &str) -> Result<f64, GraphError> {
        let tok = self.token();
        match std::str::from_utf8(tok).map(str::parse) {
            Ok(Ok(x)) => Ok(x),
            _ => self.field(tok, what),
        }
    }

    /// Fails if a token is left after the `last` field.
    #[inline(always)]
    fn end(&mut self, last: &str) -> Result<(), GraphError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.unexpected(last))
        }
    }

    /// The error for the token at the cursor, which comes after the `last`
    /// thing the line or the file may hold.
    #[cold]
    #[inline(never)]
    fn unexpected(&mut self, last: &str) -> GraphError {
        let tok = String::from_utf8_lossy(self.token());
        parse_error(
            self.line,
            format_args!("unexpected {tok:?} after the {last}"),
        )
    }

    /// The whole line, trimmed, as it reads in error messages.
    #[cold]
    fn text(&self) -> String {
        String::from_utf8_lossy(self.bytes).trim().to_string()
    }
}

/// The reader's buffered bytes, refilled if empty: empty only at the end of
/// the input. A read error fails line `line`; `Interrupted` is retried, as
/// `BufRead::read_until` retries it.
fn fill<R: BufRead>(input: &mut R, line: usize) -> Result<&[u8], GraphError> {
    loop {
        match input.fill_buf() {
            Ok([]) => return Ok(&[]),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(parse_error(line, format_args!("{e}"))),
        }
    }
    // The buffer holds bytes now, so this returns them without reading.
    input
        .fill_buf()
        .map_err(|e| parse_error(line, format_args!("{e}")))
}

/// Parses line `line`, its bytes without the `\n`, with `parse`: `None` if
/// it is blank or a comment.
fn parse_line<T>(
    bytes: &[u8],
    line: usize,
    parse: &mut impl FnMut(Tokens<'_>) -> Result<T, GraphError>,
) -> Result<Option<T>, GraphError> {
    if !bytes.is_ascii() && std::str::from_utf8(bytes).is_err() {
        // `BufRead::read_line`'s wording for the same fault.
        return Err(parse_error(
            line,
            format_args!("stream did not contain valid UTF-8"),
        ));
    }
    let mut tokens = Tokens {
        bytes,
        pos: 0,
        line,
    };
    tokens.skip_space();
    match bytes.get(tokens.pos) {
        None | Some(b'#') => Ok(None),
        Some(_) => parse(tokens).map(Some),
    }
}

/// The lines of a graph file, parsed where they lie in the reader's buffer.
struct Lines<R> {
    input: R,
    /// The last line that ran past the end of the reader's buffer,
    /// gathered whole without its `\n`.
    carry: Vec<u8>,
    /// 1-based number of the last line read.
    line: usize,
}

impl<R: BufRead> Lines<R> {
    /// Hands the next line that is neither blank nor a comment to `parse`,
    /// as tokens at its first one; `None` at the end of the input.
    fn next<T>(
        &mut self,
        mut parse: impl FnMut(Tokens<'_>) -> Result<T, GraphError>,
    ) -> Result<Option<T>, GraphError> {
        loop {
            self.line += 1;
            let chunk = fill(&mut self.input, self.line)?;
            if chunk.is_empty() {
                return Ok(None);
            }
            let parsed = match newline(chunk) {
                Some(end) => {
                    let parsed = parse_line(&chunk[..end], self.line, &mut parse);
                    self.input.consume(end + 1);
                    parsed
                }
                None => {
                    self.carry_line()?;
                    parse_line(&self.carry, self.line, &mut parse)
                }
            };
            if let Some(parsed) = parsed.transpose() {
                return parsed.map(Some);
            }
        }
    }

    /// [`Self::next`], where the end of the input is an error naming the
    /// `what` that was expected.
    fn parse<T>(
        &mut self,
        what: &str,
        parse: impl FnMut(Tokens<'_>) -> Result<T, GraphError>,
    ) -> Result<T, GraphError> {
        match self.next(parse)? {
            Some(value) => Ok(value),
            None => Err(parse_error(
                0,
                format_args!("unexpected EOF, expected {what}"),
            )),
        }
    }

    /// Moves the line that starts in the reader's buffer and runs past its
    /// end into `carry`, reading on to the line's `\n` or the end of the
    /// input.
    #[inline(never)]
    fn carry_line(&mut self) -> Result<(), GraphError> {
        self.carry.clear();
        loop {
            let chunk = fill(&mut self.input, self.line)?;
            if chunk.is_empty() {
                return Ok(());
            }
            if let Some(end) = newline(chunk) {
                self.carry.extend_from_slice(&chunk[..end]);
                self.input.consume(end + 1);
                return Ok(());
            }
            self.carry.extend_from_slice(chunk);
            let used = chunk.len();
            self.input.consume(used);
        }
    }
}

/// Parses an edge line: `<u> <v> <probability>`.
fn parse_edge(mut tokens: Tokens<'_>) -> Result<(VertexId, VertexId, f64), GraphError> {
    // Vertex ids are `u32`: a wider endpoint is a parse error, not a
    // silently truncated id.
    let u = tokens.vertex("edge source")?;
    let v = tokens.vertex("edge target")?;
    let p = tokens.number("probability")?;
    tokens.end("probability")?;
    Ok((VertexId(u), VertexId(v), p))
}

/// Reads `edge_count` edge lines into `edges`, setting bit `i` of `flipped`
/// when edge `i` was written with its larger endpoint first, and then the
/// rest of the file, which may hold only blank and comment lines.
fn read_edges<R: BufRead>(
    lines: &mut Lines<R>,
    edge_count: usize,
    vertex_count: usize,
    edges: &mut Vec<Edge>,
    flipped: &mut Vec<u64>,
) -> Result<(), GraphError> {
    for i in 0..edge_count {
        let (u, v, p) = lines.parse("edge", parse_edge)?;
        edges.push(checked_edge(u, v, Probability::new(p)?, vertex_count)?);
        if i % 64 == 0 {
            flipped.push(0);
        }
        flipped[i / 64] |= u64::from(u > v) << (i % 64);
    }
    lines
        .next(|mut tokens| Err::<(), _>(tokens.unexpected("last declared edge")))
        .map(drop)
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
        carry: Vec::new(),
        line: 0,
    };
    lines.parse("header", |mut tokens| {
        let rest = &tokens.bytes[tokens.pos..];
        if rest.starts_with(HEADER.as_bytes()) {
            tokens.pos += HEADER.len();
            if tokens.at_end() {
                return Ok(());
            }
        }
        let header = tokens.text();
        Err(parse_error(
            tokens.line,
            format_args!("bad header {header:?}"),
        ))
    })?;
    let (vertex_count, edge_count) = lines.parse("counts", |mut tokens| {
        let vertex_count: usize = tokens.parse("vertex count")?;
        let edge_count: usize = tokens.parse("edge count")?;
        tokens.end("edge count")?;
        Ok((vertex_count, edge_count))
    })?;

    let mut weights = Vec::with_capacity(vertex_count.min(MAX_PREALLOCATION));
    for _ in 0..vertex_count {
        // The whole line is one number: the weight.
        let w = lines.parse("vertex weight", |mut tokens| {
            let w = tokens.number("weight");
            match w {
                Ok(w) if tokens.at_end() => Ok(w),
                _ => parse_field(Some(&tokens.text()), tokens.line, "weight"),
            }
        })?;
        weights.push(Weight::new(w)?);
    }
    let mut edges = Vec::with_capacity(edge_count.min(MAX_PREALLOCATION));
    let mut flipped: Vec<u64> = Vec::new();
    let read = read_edges(
        &mut lines,
        edge_count,
        weights.len(),
        &mut edges,
        &mut flipped,
    );
    // A duplicate among the edges before a faulty line comes first.
    let built = build_without_duplicates(weights, edges, &flipped);
    match read {
        Ok(()) => built,
        Err(err) => Err(built.err().unwrap_or(err)),
    }
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
        // Nor may a line follow the last declared edge, but for blank and
        // comment lines, with or without a last `\n`.
        let text = "flowmax-graph v1\n3 1\n1\n1\n1\n0 1 0.5\n1 2 0.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 7, .. }), "{err:?}");
        let text = "flowmax-graph v1\n1 0\n1\n\n# the end\n\t\n2\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 7, .. }), "{err:?}");
        let text = "flowmax-graph v1\n2 1\n1\n1\n0 1 0.5\n\n# the end\n \u{a0}";
        assert_eq!(read_text(Cursor::new(text)).unwrap().edge_count(), 1);
        // A duplicate before the stray line is the first fault.
        let text = "flowmax-graph v1\n2 2\n1\n1\n0 1 0.5\n1 0 0.5\n0 1 0.5\n";
        let err = read_text(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }), "{err:?}");
    }

    #[test]
    fn ascii_spaces_are_those_of_char_is_whitespace() {
        for b in 0..0x80u8 {
            let space = CLASS[usize::from(b)] == SPACE;
            assert_eq!(space, char::from(b).is_whitespace(), "byte {b:#04x}");
        }
        assert!(CLASS[0x80..].iter().all(|&class| class == WIDE));
    }

    #[test]
    fn newlines_are_found_at_every_offset() {
        for len in 0..40 {
            for at in 0..=len {
                let mut bytes = vec![b'x'; len];
                if at < len {
                    bytes[at] = b'\n';
                    bytes[len - 1] = b'\n';
                }
                let expected = bytes.iter().position(|&b| b == b'\n');
                assert_eq!(newline(&bytes), expected, "len {len}, at {at}");
            }
        }
        // Bytes that differ from `\n` by one bit are not line ends.
        let near: Vec<u8> = (0..8).map(|bit| b'\n' ^ (1 << bit)).collect();
        assert_eq!(newline(&near), None);
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
