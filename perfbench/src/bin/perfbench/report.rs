//! Order statistics and the result a run prints: every metric with its
//! unit and sample count, the host fingerprint, and — as the last line of
//! standard output — the one-line JSON result.

use std::fmt::Write as _;

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentiles considered for a tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder that has at least ten samples
/// beyond it, with its value: `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = TAIL_LADDER
        .into_iter()
        .find(|p| (n * (1.0 - p / 100.0)).floor() >= 10.0)
        .unwrap_or(50.0);
    (p, quantile(values, p / 100.0))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: usize,
    /// What the value is on this workload (statistic, percentile, source).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize, note: &str) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.to_string(),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed operation or gate.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Host and build fingerprint, plus run facts such as the steal share.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// The last output gate: a metric that is NaN or infinite came from an
    /// empty or broken measurement, so it fails the run.
    pub fn gate_finite(&mut self) {
        let broken: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is {} (broken measurement)", m.name, m.value))
            .collect();
        for why in broken {
            self.fail(why);
        }
    }

    /// The human-readable report lines printed before the result line.
    pub fn report_lines(&self, workload: &str) -> Vec<String> {
        let mut lines = vec![format!("workload {workload}")];
        for (key, value) in &self.facts {
            lines.push(format!("fact {key} = {value}"));
        }
        for m in &self.metrics {
            lines.push(format!(
                "metric {} = {} {} (n={}; {})",
                m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        for f in &self.failures {
            lines.push(format!("FAILED {f}"));
        }
        lines.push(format!(
            "operations attempted={} failed={}",
            self.attempted, self.failed
        ));
        lines
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite number has no JSON form; the placeholder keeps the
            // line valid, and `gate_finite` has failed the run.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form (Rust's `Display` never uses exponent notation).
fn json_number(v: f64) -> String {
    let text = v.to_string();
    if text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

/// Quotes `text` as a JSON string.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1900).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.5);
        assert_eq!(tail(&v[..15]).0, 50.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.push(Metric::new("solve_s", "s", 1.25, 3, "median"));
        o.push(Metric::new("flow", "weight", 3.0, 1, "exact"));
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"flow\": {\"value\": 3.0, \"unit\": \"weight\"}}}"
        );
        o.fail("mismatch".into());
        assert!(o
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn a_non_finite_metric_fails_the_run() {
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        o.push(Metric::new("solve_s", "s", 1.25, 3, "median"));
        o.gate_finite();
        assert!(o.correct());
        o.push(Metric::new(
            "daemon.load_ms_per_mb",
            "ms/MiB",
            f64::NAN,
            1,
            "ratio",
        ));
        o.push(Metric::new("qps", "1/s", f64::INFINITY, 1, "ratio"));
        o.gate_finite();
        assert!(!o.correct());
        assert_eq!(o.failed, 2);
        assert!(o
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 2"));
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
