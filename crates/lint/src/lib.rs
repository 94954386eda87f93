//! `flowmax-lint` — the workspace's determinism & unsafety contract,
//! machine-checked.
//!
//! The whole value of this reproduction rests on one promise: results are
//! **bit-identical at every thread count**, and deterministic
//! replay is the serving contract. That promise is enforced dynamically by
//! the determinism/differential test suites — but nothing in `rustc` stops
//! the next change from introducing a `HashMap` iteration, a stray thread,
//! or an unaudited `unsafe` block that silently breaks it. This crate is
//! the static half of the enforcement: a dependency-free analysis pass
//! (`cargo run -p flowmax-lint`) that walks every first-party `.rs` file
//! and checks rules **L1–L7** (see [`rules`] and `crates/lint/README.md`).
//!
//! Design constraints: the offline build has no `syn`/`regex`, so the pass
//! is a hand-rolled lexer ([`lexer`]) plus token-level rules — fast,
//! deterministic (files are walked in sorted order), and self-tested
//! against fixtures under `tests/fixtures/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::{AllowEntry, Allowlist};
pub use rules::{classify, crate_of, lint_source, FileKind, Finding, RuleId, SuppressionUse};

/// Workspace-relative path of the allowlist consumed by rule L4.
pub const ALLOWLIST_PATH: &str = "crates/lint/allow_unsafe.toml";

/// Aggregated result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Violations that survived suppression, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Honored inline suppressions, for the summary report.
    pub suppressed: Vec<SuppressionUse>,
    /// Declared suppressions that excused nothing: `(rule, file, line)`.
    pub unused: Vec<(RuleId, String, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl WorkspaceReport {
    /// True when the workspace passes the gate.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Directories never walked: third-party stand-ins, build output, VCS
/// metadata — and the lint's own deliberately-violating fixtures.
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "vendor" | "target" | ".git") || rel == "crates/lint/tests/fixtures"
}

/// Collects every first-party `.rs` file under `root`, workspace-relative
/// with `/` separators, in sorted (deterministic) order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths stay under root")
                .to_string_lossy()
                .replace('\\', "/");
            if path.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(path);
                }
            } else if rel.ends_with(".rs") {
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the workspace rooted at `root`: every first-party file through
/// [`lint_source`], plus the workspace-level L4 checks (crate-root
/// `#![forbid/deny(unsafe_code)]` attributes and allowlist staleness).
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();

    let allowlist = match fs::read_to_string(root.join(ALLOWLIST_PATH)) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(list) => list,
            Err(message) => {
                report.findings.push(Finding {
                    rule: RuleId::L4,
                    file: ALLOWLIST_PATH.to_string(),
                    line: 1,
                    message,
                });
                Allowlist::empty()
            }
        },
        Err(err) => {
            report.findings.push(Finding {
                rule: RuleId::L4,
                file: ALLOWLIST_PATH.to_string(),
                line: 1,
                message: format!("cannot read the unsafe allowlist: {err}"),
            });
            Allowlist::empty()
        }
    };

    let files = workspace_files(root)?;
    let mut unsafe_free: Vec<String> = allowlist.entries.iter().map(|e| e.file.clone()).collect();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let file_report = lint_source(rel, &source, &allowlist);
        if file_report.unsafe_lines > 0 {
            unsafe_free.retain(|f| f != rel);
        }
        report.findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
        report.unused.extend(
            file_report
                .unused
                .into_iter()
                .map(|(rule, line)| (rule, rel.clone(), line)),
        );
    }
    report.files_scanned = files.len();

    // Stale allowlist entries: files that vanished or no longer need the
    // exemption must be de-listed, or the audit trail rots.
    for entry in &allowlist.entries {
        if !files.contains(&entry.file) {
            report.findings.push(Finding {
                rule: RuleId::L4,
                file: ALLOWLIST_PATH.to_string(),
                line: entry.line,
                message: format!(
                    "stale allowlist entry: {} is not a workspace source file",
                    entry.file
                ),
            });
        } else if unsafe_free.contains(&entry.file) {
            report.findings.push(Finding {
                rule: RuleId::L4,
                file: ALLOWLIST_PATH.to_string(),
                line: entry.line,
                message: format!(
                    "stale allowlist entry: {} no longer contains `unsafe` — delete the entry \
                     and add `#![forbid(unsafe_code)]` to its crate root",
                    entry.file
                ),
            });
        }
    }

    report
        .findings
        .extend(check_crate_roots(root, &files, &allowlist));
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// L4's crate-root leg: every first-party crate must pin its unsafety
/// stance at the root — `#![forbid(unsafe_code)]` when it has no
/// allowlisted files, at least `#![deny(unsafe_code)]` (with audited
/// per-site `#[allow]`s) when it does.
fn check_crate_roots(root: &Path, files: &[String], allowlist: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    let roots: Vec<String> = files
        .iter()
        .filter(|rel| {
            *rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
        })
        .cloned()
        .collect();
    for lib_rs in roots {
        let krate = crate_of(&lib_rs).to_string();
        let has_entries = allowlist.entries.iter().any(|e| crate_of(&e.file) == krate);
        let Ok(source) = fs::read_to_string(root.join(&lib_rs)) else {
            continue;
        };
        let mut forbids = false;
        let mut denies = false;
        for line in lexer::split_lines(&source) {
            let squashed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
            forbids |= squashed.contains("#![forbid(unsafe_code)]");
            denies |= squashed.contains("#![deny(unsafe_code)]");
        }
        if has_entries {
            if !forbids && !denies {
                findings.push(Finding {
                    rule: RuleId::L4,
                    file: lib_rs,
                    line: 1,
                    message: format!(
                        "crate `{krate}` has allowlisted unsafe files but its root does not \
                         `#![deny(unsafe_code)]`; deny at the root and `#[allow]` only at the \
                         audited sites"
                    ),
                });
            }
        } else if !forbids {
            findings.push(Finding {
                rule: RuleId::L4,
                file: lib_rs,
                line: 1,
                message: format!(
                    "crate `{krate}` is unsafe-free but does not lock that in with \
                     `#![forbid(unsafe_code)]` at its root"
                ),
            });
        }
    }
    findings
}
