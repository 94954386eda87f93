//! Error types for F-tree maintenance and edge selection.

use std::fmt;

use flowmax_graph::{EdgeId, VertexId};

/// Errors raised by F-tree operations and the selection algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The edge was already inserted into the F-tree.
    EdgeAlreadySelected(EdgeId),
    /// Neither endpoint of the edge is connected to the query vertex —
    /// the paper's Case I, which its candidate generation rules out (§5.4).
    DisconnectedEdge {
        /// The rejected edge.
        edge: EdgeId,
        /// Its endpoints, both outside the F-tree.
        endpoints: (VertexId, VertexId),
    },
    /// The requested budget is zero.
    EmptyBudget,
    /// The query vertex has no incident edges; no flow can ever be gained.
    IsolatedQuery(VertexId),
    /// The query vertex does not exist in the session's graph.
    QueryOutOfBounds {
        /// The rejected query vertex.
        query: VertexId,
        /// Number of vertices in the graph (valid ids are `0..count`).
        vertex_count: usize,
    },
    /// The Monte-Carlo sample budget is zero; every sampled estimate would
    /// be undefined.
    ZeroSamples,
    /// The algorithm name did not match any of the paper's seven algorithms
    /// (see [`Algorithm`](crate::solver::Algorithm)'s `FromStr`).
    UnknownAlgorithm(String),
    /// A worker thread panicked while executing the query. The panic was
    /// contained: the worker pool and the serving process stay up, only
    /// this query fails. The payload is the panic message when it was a
    /// string, or a placeholder otherwise.
    WorkerPanicked(String),
    /// The server shut down before this query could run. Admitted but
    /// never-executed queries fail with this terminal error instead of a
    /// silent stream end, so clients can distinguish an orderly shutdown
    /// from a crash.
    ShuttingDown,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EdgeAlreadySelected(e) => {
                write!(f, "edge {e:?} is already part of the F-tree")
            }
            CoreError::DisconnectedEdge {
                edge,
                endpoints: (a, b),
            } => write!(
                f,
                "edge {edge:?} = ({a:?}, {b:?}) has no endpoint connected to the query \
                 vertex (Case I is excluded by candidate generation)"
            ),
            CoreError::EmptyBudget => write!(f, "edge budget k must be positive"),
            CoreError::IsolatedQuery(q) => {
                write!(f, "query vertex {q:?} has no incident edges")
            }
            CoreError::QueryOutOfBounds {
                query,
                vertex_count,
            } => write!(
                f,
                "query vertex {query:?} is out of bounds for a graph with {vertex_count} vertices"
            ),
            CoreError::ZeroSamples => {
                write!(f, "the Monte-Carlo sample budget must be at least 1")
            }
            CoreError::UnknownAlgorithm(name) => write!(
                f,
                "unknown algorithm {name:?} (expected one of Naive, Dijkstra, FT, FT+M, \
                 FT+M+CI, FT+M+DS, FT+M+CI+DS)"
            ),
            CoreError::WorkerPanicked(msg) => write!(
                f,
                "a worker thread panicked while executing the query ({msg}); \
                 the pool stays serviceable, only this query failed"
            ),
            CoreError::ShuttingDown => {
                write!(f, "the server shut down before the query could run")
            }
        }
    }
}

/// Extracts a human-readable message from a caught panic payload, for
/// [`CoreError::WorkerPanicked`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_ids() {
        let e = CoreError::EdgeAlreadySelected(EdgeId(3));
        assert!(e.to_string().contains("e3"));
        let e = CoreError::DisconnectedEdge {
            edge: EdgeId(1),
            endpoints: (VertexId(4), VertexId(5)),
        };
        assert!(e.to_string().contains("v4"));
        assert!(CoreError::EmptyBudget.to_string().contains("budget"));
        let e = CoreError::QueryOutOfBounds {
            query: VertexId(9),
            vertex_count: 4,
        };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains('4'));
        assert!(CoreError::ZeroSamples.to_string().contains("sample"));
        let e = CoreError::UnknownAlgorithm("FT+X".into());
        assert!(e.to_string().contains("FT+X"));
        assert!(e.to_string().contains("FT+M+CI+DS"));
        let e = CoreError::WorkerPanicked("index out of bounds".into());
        assert!(e.to_string().contains("index out of bounds"));
        assert!(e.to_string().contains("serviceable"));
    }

    #[test]
    fn panic_messages_extract_strings() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("ow")), "ow");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
