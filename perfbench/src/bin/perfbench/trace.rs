//! The traced run's span store: spans recorded in memory around calls into
//! each layer, per-layer self time, and a writer that runs when the run
//! ends. Span names are `<layer>.<operation>`; the layer is the module the
//! call enters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in the store.
    pub parent: Option<usize>,
    /// The request (solve rep, wire request, replayed edge …) the span
    /// belongs to; spans of one request share it.
    pub request: u64,
}

/// In-memory span store. A disabled tracer records nothing, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its index (`None` when
    /// disabled), for use as a later span's parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// part of it that its child spans cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(span.start), c.end.min(span.end))
                })
                .filter(|(s, e)| s < e)
                .collect();
            covered.sort();
            let mut covered_s = 0.0;
            let mut cursor = span.start;
            for (s, e) in covered {
                let s = s.max(cursor);
                if e > s {
                    covered_s += (e - s).as_secs_f64();
                    cursor = e;
                }
            }
            let own = (span.end - span.start).as_secs_f64() - covered_s;
            *by_layer.entry(layer_of(span.name)).or_insert(0.0) += own.max(0.0) * 1e3;
        }
        by_layer
    }

    /// Writes every span as one JSON object per line (times in
    /// microseconds since the tracer was created).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": {}}}",
                json_string(s.name),
                us(s.start),
                us(s.end),
                s.request
            );
        }
        fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = t.record("session.run", ms(0), ms(100), None, 1);
        // Two overlapping children cover [10, 60) = 50 ms.
        t.record("selection.iter", ms(10), ms(40), root, 1);
        t.record("selection.iter", ms(30), ms(60), root, 1);
        let by_layer = t.self_ms_by_layer();
        assert!((by_layer["session"] - 50.0).abs() < 1e-6);
        assert!((by_layer["selection"] - 60.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("graph.read_text", now, now, None, 0), None);
        assert!(t.spans().is_empty());
    }
}
