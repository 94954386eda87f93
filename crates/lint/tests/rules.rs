//! Fixture-driven self-tests: every rule L1–L7 must fire on a violating
//! snippet, honor the allowlist, honor reasoned inline suppressions, and
//! report suppression counts — plus a self-run proving the real workspace
//! is clean (the same check CI gates on).

use std::path::{Path, PathBuf};

use flowmax_lint::{lint_source, lint_workspace, Allowlist, RuleId};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn rules_fired(rel: &str, source: &str, allowlist: &Allowlist) -> Vec<RuleId> {
    lint_source(rel, source, allowlist)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn l1_fires_on_hash_iteration_and_spares_keyed_access() {
    let src = fixture("l1_hash_iteration.rs");
    let report = lint_source("crates/core/src/fixture.rs", &src, &Allowlist::empty());
    let l1: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::L1)
        .collect();
    assert_eq!(l1.len(), 3, "retain, values, and the for-loop: {l1:?}");
    assert!(l1.iter().any(|f| f.message.contains("retain")));
    assert!(l1.iter().any(|f| f.message.contains("values")));
    assert!(l1.iter().any(|f| f.message.contains("for .. in")));
}

#[test]
fn l1_is_scoped_to_the_deterministic_crates() {
    let src = fixture("l1_hash_iteration.rs");
    // datasets is outside L1's scope; so is bench.
    assert!(rules_fired("crates/datasets/src/fixture.rs", &src, &Allowlist::empty()).is_empty());
    assert!(rules_fired("crates/bench/src/fixture.rs", &src, &Allowlist::empty()).is_empty());
    // graph and sampling are inside.
    assert!(!rules_fired("crates/graph/src/fixture.rs", &src, &Allowlist::empty()).is_empty());
    assert!(!rules_fired("crates/sampling/src/fixture.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn l2_fires_on_every_spawn_form_except_in_the_pool() {
    let src = fixture("l2_thread_spawn.rs");
    let fired = rules_fired("crates/graph/src/fixture.rs", &src, &Allowlist::empty());
    assert_eq!(fired.len(), 3, "spawn, scope, Builder: {fired:?}");
    assert!(fired.iter().all(|&r| r == RuleId::L2));
    // The audited pool is the one sanctuary.
    assert!(rules_fired("crates/sampling/src/pool.rs", &src, &Allowlist::empty()).is_empty());
    // Binaries are NOT exempt from L2 (they are from L3/L6).
    assert!(!rules_fired("src/bin/fixture.rs", &src, &Allowlist::empty()).is_empty());
    // Integration tests may thread.
    assert!(rules_fired("tests/fixture.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn l3_fires_on_clock_and_env_reads_in_library_code_only() {
    let src = fixture("l3_time_env.rs");
    let fired = rules_fired("crates/sampling/src/fixture.rs", &src, &Allowlist::empty());
    assert_eq!(fired.len(), 3, "Instant, SystemTime, env::var: {fired:?}");
    assert!(fired.iter().all(|&r| r == RuleId::L3));
    // Benches and binaries time and configure freely.
    assert!(rules_fired("crates/bench/src/fixture.rs", &src, &Allowlist::empty()).is_empty());
    assert!(rules_fired("src/main.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn l4_demands_allowlist_and_safety_comment() {
    let bare = fixture("l4_unsafe_bare.rs");
    let audited = fixture("l4_unsafe_audited.rs");
    let rel = "crates/core/src/fixture.rs";

    // Unlisted + uncommented: both legs fire.
    let report = lint_source(rel, &bare, &Allowlist::empty());
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.rule == RuleId::L4));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("allow_unsafe.toml")));
    assert!(report.findings.iter().any(|f| f.message.contains("SAFETY")));

    // Allowlisted but still uncommented: the SAFETY leg keeps firing.
    let allowlist = Allowlist::parse(&format!(
        "[[allow]]\nfile = \"{rel}\"\nreason = \"fixture\"\n"
    ))
    .unwrap();
    let fired = rules_fired(rel, &bare, &allowlist);
    assert_eq!(fired, vec![RuleId::L4]);

    // Allowlisted and audited: clean. L4 sees test regions too, so the
    // same content under tests/ is equally policed.
    assert!(rules_fired(rel, &audited, &allowlist).is_empty());
    let in_tests = lint_source("tests/fixture.rs", &bare, &Allowlist::empty());
    assert!(
        in_tests.findings.iter().any(|f| f.rule == RuleId::L4),
        "unsafe in test code is still audited"
    );
}

#[test]
fn l5_fires_on_float_math_in_the_kernel_file_only() {
    let src = fixture("l5_float_kernel.rs");
    let report = lint_source("crates/sampling/src/batch.rs", &src, &Allowlist::empty());
    let l5: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::L5)
        .collect();
    assert_eq!(l5.len(), 2, "the f64 signature and the 0.5 literal: {l5:?}");
    // The same content anywhere else is not the kernel's business.
    assert!(rules_fired("crates/sampling/src/coin.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn l6_fires_on_printing_from_library_code() {
    let src = fixture("l6_println.rs");
    let fired = rules_fired("crates/datasets/src/fixture.rs", &src, &Allowlist::empty());
    assert_eq!(fired.len(), 3, "println, eprintln, dbg: {fired:?}");
    assert!(fired.iter().all(|&r| r == RuleId::L6));
    // Binaries own their stdout.
    assert!(rules_fired("src/bin/fixture.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn l7_fires_on_unwrap_in_serving_request_paths_only() {
    let src = fixture("l7_unwrap.rs");
    let report = lint_source("src/bin/fixture.rs", &src, &Allowlist::empty());
    let l7: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::L7)
        .collect();
    assert_eq!(l7.len(), 2, "the bare unwrap and the expect: {l7:?}");
    assert!(l7.iter().any(|f| f.message.contains(".unwrap()")));
    assert!(l7.iter().any(|f| f.message.contains(".expect()")));
    // The reasoned suppression on the startup-fatal expect is honored.
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, RuleId::L7);
    // The serving front-end in core is policed the same way.
    assert!(
        rules_fired("crates/core/src/serve.rs", &src, &Allowlist::empty()).contains(&RuleId::L7)
    );
    // Everything else may unwrap: library code, benches, tests.
    assert!(rules_fired("crates/core/src/session.rs", &src, &Allowlist::empty()).is_empty());
    assert!(rules_fired("crates/bench/src/fixture.rs", &src, &Allowlist::empty()).is_empty());
    assert!(rules_fired("tests/fixture.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn l7_fires_on_unwrap_in_the_graph_loader() {
    let src = fixture("l7_loader.rs");
    let report = lint_source("crates/graph/src/io.rs", &src, &Allowlist::empty());
    let lines: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::L7)
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, [5, 10], "the try_into unwrap and the expect");
    // The rest of the graph crate is library code, which may unwrap.
    assert!(rules_fired("crates/graph/src/builder.rs", &src, &Allowlist::empty()).is_empty());
}

#[test]
fn reasoned_suppressions_are_honored_and_counted() {
    let src = fixture("suppressed.rs");
    let report = lint_source("crates/sampling/src/fixture.rs", &src, &Allowlist::empty());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let mut suppressed: Vec<RuleId> = report.suppressed.iter().map(|s| s.rule).collect();
    suppressed.sort();
    assert_eq!(suppressed, vec![RuleId::L2, RuleId::L3, RuleId::L6]);
    assert!(report.unused.is_empty());
    assert!(
        report.suppressed.iter().all(|s| !s.reason.is_empty()),
        "reasons are recorded for the report"
    );
}

#[test]
fn malformed_suppressions_are_violations_and_do_not_excuse() {
    let src = fixture("malformed_suppression.rs");
    let report = lint_source("crates/core/src/fixture.rs", &src, &Allowlist::empty());
    let malformed = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::Suppression)
        .count();
    let printed = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::L6)
        .count();
    assert_eq!(malformed, 3, "{:?}", report.findings);
    assert_eq!(printed, 3, "broken excuses excuse nothing");
}

#[test]
fn unused_suppressions_are_reported() {
    let src = fixture("unused_suppression.rs");
    let report = lint_source("crates/core/src/fixture.rs", &src, &Allowlist::empty());
    assert!(report.findings.is_empty());
    assert_eq!(report.unused.len(), 1);
    assert_eq!(report.unused[0].0, RuleId::L6);
}

#[test]
fn cfg_test_regions_are_exempt_from_runtime_rules() {
    let src = fixture("test_module_exempt.rs");
    let report = lint_source("crates/core/src/fixture.rs", &src, &Allowlist::empty());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// The gate itself: the real workspace must lint clean. This is the same
/// check CI runs via `cargo run -p flowmax-lint`, wired into `cargo test`
/// so a violating change cannot land even without the CI job.
#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let report = lint_workspace(&root).expect("workspace must be scannable");
    assert!(
        report.is_clean(),
        "flowmax-lint found violations:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The sanctioned helpers keep their audited excuses: the pool's L2
    // sanctuary plus inline suppressions for the env/warn/clock/boundary
    // helpers. If this count drifts, re-audit.
    assert!(
        !report.suppressed.is_empty(),
        "the sanctioned helpers are expected to carry suppressions"
    );
    assert!(
        report.unused.is_empty(),
        "stale suppressions must be deleted: {:?}",
        report.unused
    );
}
