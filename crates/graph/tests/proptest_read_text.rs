//! Differential property tests of [`read_text`] against
//! [`reference_read_text`], a copy of the reader as it was before it
//! streamed: it read through `BufRead::lines`, checked each edge against a
//! hash set of the pairs before it, ignored tokens after the last field of
//! a counts or edge line, and stopped reading after the last declared edge.
//!
//! * On `write_text` round trips of random graphs both readers return the
//!   written graph: the same weights and edges bit for bit, the same CSR
//!   slices and the same fingerprint.
//! * On mutated texts (dropped, duplicated, swapped and reoriented lines,
//!   byte flips including non-UTF-8 bytes, CRLF endings, comments and blank
//!   lines, Unicode whitespace, duplicate edges in either orientation
//!   followed by a bad line, hostile header counts, extra tokens) both
//!   return equal `Result`s, with two exceptions: where the reference
//!   ignored a trailing token, or stopped reading before a line after the
//!   last declared edge that is neither blank nor a comment, `read_text`
//!   fails with a parse error at that line.
//! * Every text reads the same through `BufReader`s of 1, 2, 3, 7 and 64
//!   bytes as through a `Cursor`, which hands it over whole, so lines
//!   split across chunks are pinned too.

use std::io::{BufRead, BufReader, Cursor};

use flowmax_graph::io::{read_text, write_text};
use flowmax_graph::{GraphBuilder, GraphError, ProbabilisticGraph, Probability, VertexId, Weight};
use proptest::prelude::*;

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

/// The line-at-a-time, hash-set reader `read_text` replaced, unchanged
/// except that it also returns the first line whose content it ignored: a
/// token after the last field of a counts or edge line, or a line after the
/// last declared edge that is neither blank nor a comment.
fn reference_read_text<R: BufRead>(
    input: R,
) -> (Result<ProbabilisticGraph, GraphError>, Option<usize>) {
    let mut ignored = None;
    let result = (|| {
        let mut lines =
            input
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
        if header != "flowmax-graph v1" {
            return Err(GraphError::Parse {
                line: n,
                message: format!("bad header {header:?}"),
            });
        }

        let (n, counts) = next_line("counts")?;
        let mut it = counts.split_whitespace();
        let vertex_count: usize = parse_field(it.next(), n, "vertex count")?;
        let edge_count: usize = parse_field(it.next(), n, "edge count")?;
        if it.next().is_some() {
            ignored.get_or_insert(n);
        }

        let mut builder =
            GraphBuilder::with_capacity(vertex_count.min(1 << 20), edge_count.min(1 << 20));
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
            if it.next().is_some() {
                ignored.get_or_insert(ln);
            }
            builder.add_edge(VertexId(u), VertexId(v), Probability::new(p)?)?;
        }
        if let Some((n, _)) = lines.next() {
            ignored.get_or_insert(n);
        }
        Ok(builder.build())
    })();
    (result, ignored)
}

/// Everything a loaded graph is, as comparable bits.
#[derive(Debug, PartialEq)]
struct Loaded {
    weights: Vec<u64>,
    edges: Vec<(u32, u32, u64)>,
    adjacency: Vec<Vec<(u32, u32)>>,
    fingerprint: u64,
}

fn loaded(graph: &ProbabilisticGraph) -> Loaded {
    Loaded {
        weights: graph
            .vertices()
            .map(|v| graph.weight(v).value().to_bits())
            .collect(),
        edges: graph
            .edges()
            .map(|(_, e)| (e.source.0, e.target.0, e.probability.value().to_bits()))
            .collect(),
        adjacency: graph
            .vertices()
            .map(|v| {
                graph
                    .neighbor_slice(v)
                    .iter()
                    .map(|&(w, id)| (w.0, id.0))
                    .collect()
            })
            .collect(),
        fingerprint: graph.fingerprint(),
    }
}

/// `read_text` of `text` through a `Cursor`, after checking that reading
/// it in chunks of 1, 2, 3, 7 and 64 bytes gives the same result.
fn new_result(text: &[u8]) -> Result<Loaded, GraphError> {
    let whole = read_text(Cursor::new(text)).map(|g| loaded(&g));
    for capacity in [1, 2, 3, 7, 64] {
        let chunked = read_text(BufReader::with_capacity(capacity, text)).map(|g| loaded(&g));
        assert_eq!(
            chunked,
            whole,
            "in chunks of {capacity} bytes: {:?}",
            String::from_utf8_lossy(text)
        );
    }
    whole
}

fn reference_result(text: &[u8]) -> (Result<Loaded, GraphError>, Option<usize>) {
    let (result, ignored) = reference_read_text(Cursor::new(text));
    (result.map(|g| loaded(&g)), ignored)
}

#[derive(Debug, Clone)]
struct GraphSpec {
    weights: Vec<(u8, f64)>,
    edges: Vec<(usize, usize, u8, f64)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        proptest::collection::vec((0u8..6, 0.0f64..=1.0), 0..14),
        proptest::collection::vec((0usize..14, 0usize..14, 0u8..7, 0.0f64..=1.0), 0..30),
    )
        .prop_map(|(weights, edges)| GraphSpec { weights, edges })
}

/// Builds the spec's graph: awkward weights and probabilities (zero, huge,
/// subnormal, one, values without a short decimal form) among random ones.
fn build(spec: &GraphSpec) -> ProbabilisticGraph {
    let mut b = GraphBuilder::new();
    for &(choice, x) in &spec.weights {
        let w = match choice {
            0 => 0.0,
            1 => 1.0,
            2 => 1e300,
            3 => 0.1 + 0.2,
            _ => x * 1000.0,
        };
        b.add_vertex(Weight::new(w).unwrap());
    }
    let n = spec.weights.len();
    for &(a, c, choice, x) in &spec.edges {
        if n < 2 {
            break;
        }
        let (a, c) = (VertexId((a % n) as u32), VertexId((c % n) as u32));
        if a == c || b.has_edge(a, c) {
            continue;
        }
        let p = match choice {
            0 => 1.0,
            1 => 0.5,
            2 => 5e-324,
            3 => f64::MIN_POSITIVE,
            4 => 0.1 + 0.2,
            _ => x.max(1e-9),
        };
        b.add_edge(a, c, Probability::new(p).unwrap()).unwrap();
    }
    b.build()
}

fn text_lines(graph: &ProbabilisticGraph) -> Vec<Vec<u8>> {
    let mut text = Vec::new();
    write_text(graph, &mut text).unwrap();
    text.split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect()
}

/// Unicode whitespace `str::trim` and `split_whitespace` both honour.
const SPACES: [&str; 6] = ["\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\u{b}", "\u{c}"];

const FILLERS: [&str; 6] = ["\n", "# comment\n", "   #x\n", "\t\r\n", "\u{a0}\n", "#\n"];

const BAD_LINES: [&[u8]; 6] = [
    b"x y z\n",
    b"0 0 0.5\n",
    b"0 1 2.0\n",
    b"5000000000 1 0.5\n",
    b"0 1\n",
    b"0 1 \xff\n",
];

const HOSTILE_COUNTS: [&str; 6] = [
    "1 4000000000000000000\n",
    "18446744073709551615 1\n",
    "4000000000 0\n",
    "0 18446744073709551616\n",
    "-1 2\n",
    "3 99999999999\n",
];

/// Line numbers (0-based) of the weight and edge lines of an unmutated
/// text.
fn edge_lines(lines: &[Vec<u8>]) -> std::ops::Range<usize> {
    let counts = String::from_utf8_lossy(&lines[1]);
    let vertices: usize = counts.split_whitespace().next().unwrap().parse().unwrap();
    2 + vertices..lines.len()
}

/// Inserts, into an unmutated text, a copy of one edge (in either
/// orientation, with another probability) after the original and a bad line
/// after the copy, and raises the header's edge count so both are read.
fn insert_duplicate(lines: &mut Vec<Vec<u8>>, pick: usize, gap: usize, flip: bool, bad: usize) {
    let edges = edge_lines(lines);
    if edges.is_empty() {
        return;
    }
    let original = edges.start + pick % edges.len();
    let line = String::from_utf8(lines[original].clone()).unwrap();
    let mut fields = line.split_whitespace();
    let (u, v) = (fields.next().unwrap(), fields.next().unwrap());
    let copy = if flip {
        format!("{v} {u} 0.75\n")
    } else {
        format!("{u} {v} 0.75\n")
    };
    let at = original + 1 + gap % (edges.end - original);
    lines.insert(at, copy.into_bytes());
    let bad_at = at + 1 + gap % (edges.end + 1 - at);
    lines.insert(bad_at, BAD_LINES[bad % BAD_LINES.len()].to_vec());
    let counts = String::from_utf8(lines[1].clone()).unwrap();
    let mut fields = counts.split_whitespace();
    let (n, m): (usize, usize) = (
        fields.next().unwrap().parse().unwrap(),
        fields.next().unwrap().parse().unwrap(),
    );
    lines[1] = format!("{n} {}\n", m + 2).into_bytes();
}

/// Applies mutation `kind` at the line and byte positions `i`, `j`.
fn mutate(lines: &mut Vec<Vec<u8>>, kind: u8, i: usize, j: usize, byte: u8) {
    if lines.is_empty() {
        return;
    }
    let li = i % lines.len();
    match kind {
        0 => {
            lines.remove(li);
        }
        1 => {
            let copy = lines[li].clone();
            lines.insert(j % (lines.len() + 1), copy);
        }
        2 => {
            let lj = j % lines.len();
            lines.swap(li, lj);
        }
        3 => {
            let line = &mut lines[li];
            if !line.is_empty() {
                let at = j % line.len();
                line[at] = byte;
            }
        }
        4 => {
            for line in lines.iter_mut().skip(li) {
                if line.last() == Some(&b'\n') {
                    line.insert(line.len() - 1, b'\r');
                }
            }
        }
        5 => lines.insert(li, FILLERS[j % FILLERS.len()].as_bytes().to_vec()),
        6 => {
            let space = SPACES[byte as usize % SPACES.len()].as_bytes();
            let line = &mut lines[li];
            let at = j % (line.len() + 1);
            // Replace a space with it where there is one, else insert it.
            if line.get(at) == Some(&b' ') {
                line.splice(at..=at, space.iter().copied());
            } else {
                line.splice(at..at, space.iter().copied());
            }
        }
        7 => {
            let counts = 1 % lines.len();
            lines[counts] = HOSTILE_COUNTS[j % HOSTILE_COUNTS.len()].as_bytes().to_vec();
        }
        8 => {
            let text = String::from_utf8_lossy(&lines[li]).into_owned();
            let fields: Vec<&str> = text.split_whitespace().collect();
            if let [u, v, p] = fields[..] {
                lines[li] = format!("{v} {u} {p}\n").into_bytes();
            }
        }
        _ => {
            let line = &mut lines[li];
            let end = line.len() - usize::from(line.last() == Some(&b'\n'));
            line.splice(end..end, *b" 7");
        }
    }
}

/// The differential rule: equal results, except that content the reference
/// ignored is a parse error at its line.
fn assert_agrees(text: &[u8]) {
    let (expected, ignored) = reference_result(text);
    let got = new_result(text);
    match ignored {
        Some(line) => assert!(
            matches!(got, Err(GraphError::Parse { line: l, .. }) if l == line),
            "ignored content on line {line} of {:?}: got {got:?}",
            String::from_utf8_lossy(text)
        ),
        None => assert_eq!(got, expected, "on {:?}", String::from_utf8_lossy(text)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn round_trips_load_the_written_graph_bit_for_bit(spec in graph_spec()) {
        let graph = build(&spec);
        let text: Vec<u8> = text_lines(&graph).concat();
        let (reference, ignored) = reference_result(&text);
        prop_assert_eq!(ignored, None);
        prop_assert_eq!(&new_result(&text), &Ok(loaded(&graph)));
        prop_assert_eq!(new_result(&text), reference);
    }

    #[test]
    fn mutated_texts_fail_like_the_reference(
        case in (
            graph_spec(),
            (0usize..64, 0usize..64, any_bool(), 0usize..64),
            proptest::collection::vec((0u8..10, 0usize..1024, 0usize..1024, 0u8..=255), 0..4),
        )
    ) {
        let (spec, (pick, gap, flip, bad), mutations) = case;
        let mut lines = text_lines(&build(&spec));
        // Half the cases carry a duplicate edge and a later bad line.
        if flip || pick % 2 == 0 {
            insert_duplicate(&mut lines, pick, gap, flip, bad);
        }
        for &(kind, i, j, byte) in &mutations {
            mutate(&mut lines, kind, i, j, byte);
        }
        assert_agrees(&lines.concat());
    }

    #[test]
    fn a_trailing_token_fails_at_its_line(
        case in (graph_spec(), 0usize..64, 0usize..SPACES.len())
    ) {
        let (spec, pick, space) = case;
        let mut lines = text_lines(&build(&spec));
        let edges = edge_lines(&lines);
        // The counts line, or one of the edge lines.
        let at = if edges.is_empty() || pick % 3 == 0 {
            1
        } else {
            edges.start + pick % edges.len()
        };
        let end = lines[at].len() - 1;
        let token = format!("{}junk", SPACES[space]);
        lines[at].splice(end..end, token.bytes());
        let text = lines.concat();
        let (reference, ignored) = reference_result(&text);
        prop_assert!(reference.is_ok());
        prop_assert_eq!(ignored, Some(at + 1));
        prop_assert!(matches!(new_result(&text), Err(GraphError::Parse { line, .. }) if line == at + 1));
    }
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

#[test]
fn invalid_utf8_and_io_errors_name_the_line_like_the_reference() {
    for text in [
        &b"flowmax-graph v1\n2 1\n1\n\xc3\x28\n0 1 0.5\n"[..],
        b"flowmax-graph v1\n# \xff comment\n2 1\n1\n1\n0 1 0.5\n",
        b"\xef\xbb\xbfflowmax-graph v1\n1 0\n1\n",
        b"flowmax-graph v1\n2 1\n1\n1\n0 1 0.5",
        b"flowmax-graph v1\n2 1\n1\n1\n0 1 0.5\r",
        // A line after the last declared edge, then one after a comment.
        b"flowmax-graph v1\n3 1\n1\n1\n1\n0 1 0.5\n1 2 0.5\n",
        b"flowmax-graph v1\n2 0\n1\n1\n\n# done\n \x0b\n0 1 0.5\n",
        b"flowmax-graph v1\n2 1\n1\n1\n0 1 0.5\n# \xff\n",
    ] {
        assert_agrees(text);
    }

    // Every class of whitespace `char::is_whitespace` accepts: VT and FF
    // (which `u8::is_ascii_whitespace` leaves out, the former), a lone
    // `\r` inside a line, NEL, NBSP and U+3000.
    for s in ["\u{b}", "\u{c}", "\r", "\u{85}", "\u{a0}", "\u{3000}"] {
        // As padding on the header, counts, weight and edge lines, and as
        // the separator of the counts and edge lines.
        let padded = format!(
            "{s}flowmax-graph v1{s}\n{s}3{s}{s}2{s}\n{s}1{s}\n2.5\n{s}{s}0.5{s}\n\
             {s}0{s}1{s}0.25{s}\n2{s}{s}1{s}1e-3{s}\n"
        );
        assert_agrees(padded.as_bytes());
        let graph = new_result(padded.as_bytes()).unwrap();
        assert_eq!(
            graph.edges,
            [(0, 1, 0.25f64.to_bits()), (1, 2, 1e-3f64.to_bits())]
        );
        // Inside the header or a weight it splits what must be one token;
        // on an edge line it ends the line early or starts a trailing one.
        for text in [
            format!("flowmax-graph{s}v1\n1 0\n1\n"),
            format!("flowmax-graph v1\n2 1\n1{s}5\n1\n0 1 0.5\n"),
            format!("flowmax-graph v1\n2 1\n1\n1\n0 1{s}\n"),
            format!("flowmax-graph v1\n2 1\n1\n1\n0 1 0.5{s}7\n"),
            format!("flowmax-graph v1\n2{s}1{s}7\n1\n1\n0 1 0.5\n"),
        ] {
            assert_agrees(text.as_bytes());
            assert!(new_result(text.as_bytes()).is_err(), "{text:?}");
        }
    }

    /// Fails every read after the first `ok` bytes.
    struct Failing<'a> {
        data: &'a [u8],
        ok: usize,
    }
    impl std::io::Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk on fire"));
            }
            let n = buf.len().min(self.ok).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.ok -= n;
            Ok(n)
        }
    }
    let data = b"flowmax-graph v1\n3 2\n1\n1\n1\n0 1 0.5\n1 0 0.5\n";
    for ok in 0..data.len() {
        let reader = || std::io::BufReader::with_capacity(4, Failing { data, ok });
        let expected = reference_read_text(reader()).0.map(|g| loaded(&g));
        assert_eq!(
            read_text(reader()).map(|g| loaded(&g)),
            expected,
            "after {ok} bytes"
        );
    }
}
