//! The seven contract rules, plus the inline-suppression machinery.
//!
//! Every rule protects a piece of the project's determinism / unsafety
//! contract (see `crates/lint/README.md` for the full mapping):
//!
//! * **L1** — no iteration over `HashMap`/`HashSet` in `graph`, `sampling`
//!   or `core` library code: hash order is nondeterministic, so every
//!   iterated collection must be a `BTreeMap`/`BTreeSet` or sorted `Vec`.
//! * **L2** — no `std::thread::{spawn, scope, Builder}` outside the
//!   audited `crates/sampling/src/pool.rs` worker pool.
//! * **L3** — no `Instant::now` / `SystemTime::now` / environment reads in
//!   library crates; the sanctioned clamp/warn/clock helpers carry
//!   explicit suppressions, benches and binaries are exempt.
//! * **L4** — `unsafe` only in files listed in `crates/lint/allow_unsafe.toml`,
//!   always under a `// SAFETY:` comment; crates without an allowlist
//!   entry must `#![forbid(unsafe_code)]` at their root.
//! * **L5** — no float comparison/arithmetic inside the bit-parallel
//!   sampling kernel (`crates/sampling/src/batch.rs`): coins are integer
//!   thresholds, classified once at the `crate::coin` boundary.
//! * **L6** — no `println!`/`eprintln!`/`dbg!` in library code.
//! * **L7** — no `.unwrap()` / `.expect()` in the serving request paths
//!   (`crates/core/src/serve.rs`, the graph loader `crates/graph/src/io.rs`
//!   that parses every client-supplied `LOAD` file, and `src/bin/**`): one
//!   bad request must degrade to an `ERR` line or a failed ticket, never
//!   take a connection handler or the dispatcher down with a panic.
//!
//! A violating line can be excused with
//! `// flowmax-lint: allow(LN, reason)` on the same line or on the
//! comment lines directly above it; suppressions without a reason are
//! themselves violations, and every honored suppression is counted and
//! reported.

use crate::config::Allowlist;
use crate::lexer::{split_lines, test_mask, Line};

/// Identifier of a contract rule (or of the suppression-syntax check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Hash-ordered iteration in deterministic library code.
    L1,
    /// Thread creation outside the audited worker pool.
    L2,
    /// Clock / environment reads in library crates.
    L3,
    /// Unaudited `unsafe` (allowlist + `// SAFETY:` + crate-root attr).
    L4,
    /// Float math inside the bit-parallel sampling kernel.
    L5,
    /// Stdout/stderr printing in library code.
    L6,
    /// `.unwrap()` / `.expect()` in serving request-path code.
    L7,
    /// A malformed `flowmax-lint:` suppression comment.
    Suppression,
}

impl RuleId {
    /// The short code used in reports and suppression comments.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::L1 => "L1",
            RuleId::L2 => "L2",
            RuleId::L3 => "L3",
            RuleId::L4 => "L4",
            RuleId::L5 => "L5",
            RuleId::L6 => "L6",
            RuleId::L7 => "L7",
            RuleId::Suppression => "lint",
        }
    }

    fn from_code(code: &str) -> Option<RuleId> {
        match code {
            "L1" => Some(RuleId::L1),
            "L2" => Some(RuleId::L2),
            "L3" => Some(RuleId::L3),
            "L4" => Some(RuleId::L4),
            "L5" => Some(RuleId::L5),
            "L6" => Some(RuleId::L6),
            "L7" => Some(RuleId::L7),
            _ => None,
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One honored inline suppression.
#[derive(Debug, Clone)]
pub struct SuppressionUse {
    /// The suppressed rule.
    pub rule: RuleId,
    /// Workspace-relative file path of the suppressed finding.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The reason given in the suppression comment.
    pub reason: String,
}

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived suppression.
    pub findings: Vec<Finding>,
    /// Suppressions that excused a finding.
    pub suppressed: Vec<SuppressionUse>,
    /// Declared suppressions that excused nothing (reported as warnings —
    /// they indicate a fixed violation whose excuse should be deleted).
    pub unused: Vec<(RuleId, usize)>,
    /// Lines containing an `unsafe` token (for allowlist staleness checks).
    pub unsafe_lines: usize,
}

/// How a file participates in the rule set, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — full rule set.
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/**`) — exempt from L3/L6.
    Bin,
    /// Integration tests (`tests/**`) — runtime-contract rules off.
    Test,
    /// Bench code (`crates/bench/**`, `benches/**`) — runtime rules off.
    Bench,
    /// Examples — runtime rules off.
    Example,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileKind::Test
    } else if rel.starts_with("crates/bench/") || rel.contains("/benches/") {
        FileKind::Bench
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileKind::Example
    } else if rel.starts_with("src/bin/")
        || rel.contains("/src/bin/")
        || rel.ends_with("src/main.rs")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// The crate a workspace-relative path belongs to (`root` for the facade).
pub fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("root")
    } else {
        "root"
    }
}

/// The one module allowed to create threads.
const THREAD_SANCTUARY: &str = "crates/sampling/src/pool.rs";
/// The bit-parallel kernel file protected by L5.
const KERNEL_FILE: &str = "crates/sampling/src/batch.rs";
/// Crates whose library code must not iterate hash-ordered collections.
const L1_CRATES: [&str; 3] = ["graph", "sampling", "core"];

const L2_PATTERNS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];
const L3_PATTERNS: [&str; 5] = [
    "Instant::now",
    "SystemTime::now",
    "env::var",
    "env::var_os",
    "env::vars",
];
const L6_PATTERNS: [&str; 5] = ["println!", "eprintln!", "print!", "eprint!", "dbg!"];
/// The serving request paths protected by L7 alongside every `src/bin/`
/// file: the serving front-end, and the graph loader every `LOAD` runs.
const L7_FILES: [&str; 2] = ["crates/core/src/serve.rs", "crates/graph/src/io.rs"];
/// The trailing `(` keeps `unwrap_or`, `unwrap_or_else`, and `expect_err`
/// out of scope — those are graceful-handling idioms, not panics.
const L7_PATTERNS: [&str; 2] = [".unwrap(", ".expect("];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Lints one file's source text. `rel` decides which rules apply (see
/// [`classify`]); `allowlist` backs the L4 checks. Workspace-level L4
/// checks (crate-root attributes, allowlist staleness) live in
/// [`crate::lint_workspace`].
pub fn lint_source(rel: &str, source: &str, allowlist: &Allowlist) -> FileReport {
    let lines = split_lines(source);
    let tests = test_mask(&lines);
    let kind = classify(rel);
    let krate = crate_of(rel);

    let (suppressions, mut findings) = collect_suppressions(rel, &lines);
    let mut raw: Vec<Finding> = Vec::new();
    let mut report = FileReport::default();

    let l1_applies = kind == FileKind::Lib && L1_CRATES.contains(&krate);
    let l2_applies = matches!(kind, FileKind::Lib | FileKind::Bin) && rel != THREAD_SANCTUARY;
    let l3_applies = kind == FileKind::Lib;
    let l5_applies = rel == KERNEL_FILE;
    let l6_applies = kind == FileKind::Lib;
    let l7_applies = L7_FILES.contains(&rel) || kind == FileKind::Bin;

    let hash_idents = if l1_applies {
        collect_hash_idents(&lines, &tests)
    } else {
        Vec::new()
    };

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();

        // L4 sees everything, including test regions.
        if find_token(code, "unsafe").is_some() {
            report.unsafe_lines += 1;
            if !allowlist.contains(rel) {
                raw.push(Finding {
                    rule: RuleId::L4,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`unsafe` in a file not listed in crates/lint/allow_unsafe.toml \
                         ({rel}); audited unsafety must be allowlisted with a reason"
                    ),
                });
            }
            if !has_safety_comment(&lines, idx) {
                raw.push(Finding {
                    rule: RuleId::L4,
                    file: rel.to_string(),
                    line: lineno,
                    message: "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
                });
            }
        }

        if tests[idx] {
            continue;
        }

        if l1_applies {
            for name in &hash_idents {
                if let Some(message) = hash_iteration_on_line(code, name) {
                    raw.push(Finding {
                        rule: RuleId::L1,
                        file: rel.to_string(),
                        line: lineno,
                        message,
                    });
                }
            }
        }
        if l2_applies {
            for pat in L2_PATTERNS {
                if find_token(code, pat).is_some() {
                    raw.push(Finding {
                        rule: RuleId::L2,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{pat}` outside {THREAD_SANCTUARY}: all parallelism must go \
                             through the audited WorkerPool"
                        ),
                    });
                }
            }
        }
        if l3_applies {
            for pat in L3_PATTERNS {
                if find_token(code, pat).is_some() {
                    raw.push(Finding {
                        rule: RuleId::L3,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{pat}` in library code: clock/environment reads are reserved \
                             for the sanctioned clamp/warn/clock helpers"
                        ),
                    });
                }
            }
        }
        if l5_applies {
            let float_type = ["f64", "f32"]
                .into_iter()
                .find(|t| find_token(code, t).is_some());
            if let Some(t) = float_type {
                raw.push(Finding {
                    rule: RuleId::L5,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`{t}` inside the bit-parallel kernel: coins are integer thresholds \
                         (classify floats at the crate::coin boundary)"
                    ),
                });
            } else if has_float_literal(code) {
                raw.push(Finding {
                    rule: RuleId::L5,
                    file: rel.to_string(),
                    line: lineno,
                    message: "float literal inside the bit-parallel kernel: coins are integer \
                              thresholds (classify floats at the crate::coin boundary)"
                        .to_string(),
                });
            }
        }
        if l6_applies {
            for pat in L6_PATTERNS {
                if find_token(code, pat).is_some() {
                    raw.push(Finding {
                        rule: RuleId::L6,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{pat}` in library code: report through return values or metrics, \
                             not process-global streams"
                        ),
                    });
                }
            }
        }
        if l7_applies {
            for pat in L7_PATTERNS {
                if code.contains(pat) {
                    let method = &pat[1..pat.len() - 1];
                    raw.push(Finding {
                        rule: RuleId::L7,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`.{method}()` in a serving request path: one bad request must \
                             degrade to an ERR line or a failed ticket, not panic the \
                             handler (match on the Result, or suppress with a reason if \
                             the failure is startup-fatal by design)"
                        ),
                    });
                }
            }
        }
    }

    // Apply suppressions.
    let mut used: Vec<usize> = Vec::new();
    for finding in raw {
        let idx = finding.line - 1;
        match suppression_for(&lines, &suppressions, idx, finding.rule) {
            Some(sup_idx) => {
                used.push(sup_idx);
                let sup = &suppressions[sup_idx];
                report.suppressed.push(SuppressionUse {
                    rule: finding.rule,
                    file: finding.file,
                    line: finding.line,
                    reason: sup.reason.clone(),
                });
            }
            None => findings.push(finding),
        }
    }
    for (idx, sup) in suppressions.iter().enumerate() {
        if !used.contains(&idx) {
            report.unused.push((sup.rule, sup.line + 1));
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    report.findings = findings;
    report
}

/// A parsed `// flowmax-lint: allow(LN, reason)` directive.
#[derive(Debug)]
struct Suppression {
    rule: RuleId,
    reason: String,
    /// 0-based line the comment sits on.
    line: usize,
}

/// Extracts suppression directives; malformed ones become findings.
fn collect_suppressions(rel: &str, lines: &[Line]) -> (Vec<Suppression>, Vec<Finding>) {
    const MARKER: &str = "flowmax-lint:";
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Only a comment that *is* a directive counts — prose that merely
        // mentions the syntax (docs, this file) must not parse. Strip the
        // comment markers (`//`, `///`, `//!`) and leading space, then
        // demand the marker up front.
        let body = line.comment.trim_start_matches(['/', '!']).trim_start();
        let Some(directive) = body.strip_prefix(MARKER).map(str::trim) else {
            continue;
        };
        let malformed = |what: &str| Finding {
            rule: RuleId::Suppression,
            file: rel.to_string(),
            line: idx + 1,
            message: format!(
                "malformed suppression ({what}); expected \
                 `// flowmax-lint: allow(LN, reason)`"
            ),
        };
        let Some(body) = directive
            .strip_prefix("allow(")
            .and_then(|rest| rest.rfind(')').map(|end| &rest[..end]))
        else {
            findings.push(malformed("missing `allow(..)`"));
            continue;
        };
        let Some((code, reason)) = body.split_once(',') else {
            findings.push(malformed("missing a reason after the rule id"));
            continue;
        };
        let Some(rule) = RuleId::from_code(code.trim()) else {
            findings.push(malformed("unknown rule id"));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            findings.push(malformed("empty reason"));
            continue;
        }
        sups.push(Suppression {
            rule,
            reason: reason.to_string(),
            line: idx,
        });
    }
    (sups, findings)
}

/// Finds a suppression covering `line_idx` for `rule`: on the same line,
/// or on the run of comment-only lines directly above it.
fn suppression_for(
    lines: &[Line],
    sups: &[Suppression],
    line_idx: usize,
    rule: RuleId,
) -> Option<usize> {
    let matches_at = |at: usize| sups.iter().position(|s| s.line == at && s.rule == rule);
    if let Some(found) = matches_at(line_idx) {
        return Some(found);
    }
    let mut idx = line_idx;
    while idx > 0 && lines[idx - 1].is_comment_only() {
        idx -= 1;
        if let Some(found) = matches_at(idx) {
            return Some(found);
        }
    }
    None
}

/// True when an `unsafe` at `line_idx` is covered by a `// SAFETY:`
/// comment — on the same line or within the 25 lines above it (attributes
/// and the unsafe expression itself may sit between the comment and the
/// keyword).
fn has_safety_comment(lines: &[Line], line_idx: usize) -> bool {
    let start = line_idx.saturating_sub(25);
    lines[start..=line_idx]
        .iter()
        .any(|l| l.comment.contains("SAFETY:"))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `pat` in `code` with identifier boundaries on both sides, so
/// `unsafe` never matches `unsafe_code` and `print!` never matches inside
/// `println!`.
pub(crate) fn find_token(code: &str, pat: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let abs = start + pos;
        let before_ok = code[..abs]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = code[abs + pat.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(abs);
        }
        start = abs + pat.len().max(1);
    }
    None
}

/// Splits code into identifier and single-character punctuation tokens
/// (`::` kept whole), dropping whitespace.
fn tokens(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if is_ident_char(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else if c == ':' && chars.get(i + 1) == Some(&':') {
            out.push("::".to_string());
            i += 2;
        } else {
            out.push(c.to_string());
            i += 1;
        }
    }
    out
}

/// Names of local variables / fields declared with a `HashMap`/`HashSet`
/// type in non-test code: `name: [path::]HashMap<..>` declarations and
/// `let [mut] name = HashMap::new()`-style bindings.
fn collect_hash_idents(lines: &[Line], tests: &[bool]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if tests[idx] {
            continue;
        }
        let toks = tokens(&line.code);
        for (k, tok) in toks.iter().enumerate() {
            if tok != "HashMap" && tok != "HashSet" {
                continue;
            }
            // Walk back over a `std::collections::` path prefix, then over
            // `&` / `mut` in reference types.
            let mut j = k;
            while j >= 2 && toks[j - 1] == "::" {
                j -= 2;
            }
            while j >= 1 && matches!(toks[j - 1].as_str(), "&" | "mut") {
                j -= 1;
            }
            let name = if j >= 2 && toks[j - 1] == ":" {
                // `name: HashMap<..>` (field, param, or typed let).
                Some(toks[j - 2].clone())
            } else if j >= 2 && toks[j - 1] == "=" && toks.iter().any(|t| t == "let") {
                // `let [mut] name = HashMap::new()`.
                Some(toks[j - 2].clone())
            } else {
                None
            };
            if let Some(name) = name {
                if name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && !names.contains(&name)
                {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// If `code` iterates the hash-typed identifier `name`, describes how.
fn hash_iteration_on_line(code: &str, name: &str) -> Option<String> {
    let toks = tokens(code);
    for (k, tok) in toks.iter().enumerate() {
        if tok != name {
            continue;
        }
        if toks.get(k + 1).is_some_and(|t| t == ".") {
            if let Some(method) = toks.get(k + 2) {
                if ITER_METHODS.contains(&method.as_str()) {
                    return Some(format!(
                        "`{name}.{method}()` iterates a hash-ordered collection; use a \
                         BTreeMap/BTreeSet or a sorted Vec so iteration order is defined"
                    ));
                }
            }
        }
        // `for x in [&[mut]] name ..` — direct loop over the collection.
        let mut j = k;
        while j > 0 && matches!(toks[j - 1].as_str(), "&" | "mut" | ".") {
            if toks[j - 1] == "." {
                // `something.name` — walk through to the field owner.
                j -= 1;
                if j == 0 {
                    break;
                }
            }
            j -= 1;
        }
        if j > 0 && toks[j - 1] == "in" && toks.contains(&"for".to_string()) {
            return Some(format!(
                "`for .. in {name}` iterates a hash-ordered collection; use a \
                 BTreeMap/BTreeSet or a sorted Vec so iteration order is defined"
            ));
        }
    }
    None
}

/// True when `code` contains a float literal (`1.0`, `9_007.25`) — tuple
/// field chains (`x.0`, `pair.0.1`) and ranges (`0..10`) excluded.
fn has_float_literal(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for i in 1..chars.len().saturating_sub(1) {
        if chars[i] != '.' || !chars[i - 1].is_ascii_digit() || !chars[i + 1].is_ascii_digit() {
            continue;
        }
        // Walk back over the integer part (digits and `_` separators).
        let mut j = i - 1;
        while j > 0 && (chars[j - 1].is_ascii_digit() || chars[j - 1] == '_') {
            j -= 1;
        }
        let boundary_ok = j == 0 || (!is_ident_char(chars[j - 1]) && chars[j - 1] != '.');
        if boundary_ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(find_token("unsafe {", "unsafe").is_some());
        assert!(find_token("#![forbid(unsafe_code)]", "unsafe").is_none());
        assert!(find_token("eprintln!(\"x\")", "print!").is_none());
        assert!(find_token("std::thread::spawn(f)", "thread::spawn").is_some());
    }

    #[test]
    fn float_literal_detection() {
        assert!(has_float_literal("let x = 1.5;"));
        assert!(has_float_literal("const T: f64 = 9_007_199.0;"));
        assert!(!has_float_literal("let y = pair.0;"));
        assert!(!has_float_literal("for i in 0..10 {"));
        assert!(!has_float_literal("let z = x.0.1;"));
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/session.rs"), FileKind::Lib);
        assert_eq!(classify("src/bin/serve.rs"), FileKind::Bin);
        assert_eq!(classify("src/main.rs"), FileKind::Bin);
        assert_eq!(classify("tests/determinism.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileKind::Bench);
        assert_eq!(crate_of("crates/graph/src/lib.rs"), "graph");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }
}
