//! Fixture-driven rule tests plus the workspace self-check.
//!
//! Each `lint_fixtures/*_bad.rs` file must trigger exactly its rule with a
//! rule-named diagnostic carrying a real file:line; each `*_ok.rs` twin
//! must pass clean. The final test runs the full linter over the real
//! workspace with the checked-in `lint.toml` — the linter lints the repo
//! that ships it.

use nsql_lint::config::Config;
use nsql_lint::rules::{self, Diagnostic};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A config equivalent to the repo's lint.toml for fixture purposes.
fn fixture_config() -> Config {
    Config::parse(
        r#"
[wall_clock]
banned = ["Instant", "SystemTime", "thread_rng"]
allow = ["crates/bench/src/wall_clock.rs"]

[protocol_enums]
names = ["DpRequest", "DpReply", "FsError", "BusError"]

[result_discard]
crates = ["fixtures"]

[ratchet]
"fixtures" = 0
"#,
    )
    .expect("fixture config parses")
}

/// Lint one fixture under a fake non-test path (fixtures model product
/// code, so they must not be exempted by test-path rules).
fn lint_fixture(name: &str) -> (Vec<Diagnostic>, u64) {
    lint_fixture_as(name, &format!("fixtures/{name}"))
}

/// Lint one fixture as if it were the workspace file `rel`.
fn lint_fixture_as(name: &str, rel: &str) -> (Vec<Diagnostic>, u64) {
    let src = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture readable");
    let report = rules::lint_source(&fixture_config(), rel, &src);
    (report.diags, report.panic_count)
}

#[test]
fn wall_clock_bad_names_the_rule_and_line() {
    let (diags, _) = lint_fixture("wall_clock_bad.rs");
    let hit = diags
        .iter()
        .find(|d| d.rule == "wall-clock")
        .expect("wall_clock_bad.rs must trip wall-clock");
    assert_eq!(hit.file, "fixtures/wall_clock_bad.rs");
    assert!(hit.line >= 2, "diagnostic carries a real line: {hit}");
    assert!(hit.to_string().contains("wall_clock_bad.rs"));
}

#[test]
fn wall_clock_ok_is_clean() {
    let (diags, _) = lint_fixture("wall_clock_ok.rs");
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn panic_bad_counts_three_sites() {
    let (_, count) = lint_fixture("panic_bad.rs");
    assert_eq!(count, 3, "unwrap + expect + panic!");
}

#[test]
fn panic_ok_counts_zero() {
    let (_, count) = lint_fixture("panic_ok.rs");
    assert_eq!(count, 0, "cfg(test) regions are exempt");
}

#[test]
fn wildcard_bad_names_the_rule_and_line() {
    let (diags, _) = lint_fixture("wildcard_bad.rs");
    let hit = diags
        .iter()
        .find(|d| d.rule == "wildcard-match")
        .expect("wildcard_bad.rs must trip wildcard-match");
    assert!(hit.line > 0);
    assert!(hit.msg.contains("DpReply"), "names the enum: {}", hit.msg);
}

#[test]
fn wildcard_ok_is_clean() {
    let (diags, _) = lint_fixture("wildcard_ok.rs");
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

/// A verb outside `protocol.rs` and a dotted name outside `crates/sim`
/// are each flagged at their line, naming the accessor to use.
#[test]
fn label_bad_names_the_rule_and_line() {
    let (diags, _) = lint_fixture("label_bad.rs");
    let hits: Vec<(usize, &str)> = diags
        .iter()
        .filter(|d| d.rule == "trace-label")
        .map(|d| (d.line, d.msg.as_str()))
        .collect();
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert_eq!(hits[0].0, 5);
    assert!(hits[0].1.contains("`GET^NEXT`") && hits[0].1.contains("DpRequest::name"));
    assert_eq!(hits[1].0, 9);
    assert!(hits[1].1.contains("`msgs.recv`") && hits[1].1.contains("Ctr::name"));
    // The dotted name is at home in the telemetry crate; the verb is not.
    let (diags, _) = lint_fixture_as("label_bad.rs", "crates/sim/src/measure.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].msg.contains("GET^NEXT"), "{}", diags[0]);
}

/// The verbs are clean where they are declared and flagged anywhere else.
#[test]
fn label_ok_is_clean() {
    let (diags, _) = lint_fixture_as("label_ok.rs", "crates/dp/src/protocol.rs");
    assert!(diags.is_empty(), "unexpected: {diags:?}");
    let (diags, _) = lint_fixture("label_ok.rs");
    assert_eq!(diags.len(), 2, "two verbs outside protocol.rs: {diags:?}");
}

#[test]
fn write_path_bad_names_the_rule_and_both_lines() {
    let (diags, _) = lint_fixture("write_path_bad.rs");
    let lines: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == "one-write-path")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![5, 6], "{diags:?}");
}

#[test]
fn write_path_ok_is_clean() {
    let (diags, _) = lint_fixture("write_path_ok.rs");
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn discard_bad_counts_both_shapes() {
    let src = std::fs::read_to_string(fixture_dir().join("discard_bad.rs")).expect("fixture");
    let report = rules::lint_source(&fixture_config(), "fixtures/discard_bad.rs", &src);
    assert_eq!(report.discard_count, 2, "let _ = … plus bare .ok();");
    let sites = rules::discard_sites(&src);
    assert_eq!(sites.len(), 2);
    assert!(sites.iter().any(|(_, w)| w == "let _ ="), "{sites:?}");
    assert!(sites.iter().any(|(_, w)| w == ".ok();"), "{sites:?}");
}

#[test]
fn discard_ok_counts_zero() {
    let src = std::fs::read_to_string(fixture_dir().join("discard_ok.rs")).expect("fixture");
    let report = rules::lint_source(&fixture_config(), "fixtures/discard_ok.rs", &src);
    assert_eq!(report.discard_count, 0, "{:?}", rules::discard_sites(&src));
}

#[test]
fn ratchet_flags_fixture_over_zero_ceiling() {
    let cfg = fixture_config();
    let mut counts = std::collections::BTreeMap::new();
    counts.insert("fixtures/panic_bad.rs".to_string(), 3u64);
    let (diags, actual) = rules::enforce_ratchet(&cfg, &counts);
    assert_eq!(actual.get("fixtures"), Some(&3));
    assert!(
        diags.iter().any(|d| d.rule == "panic-ratchet"),
        "over-ceiling bucket must be flagged: {diags:?}"
    );
}

/// The linter runs clean on the workspace that ships it, with the real
/// checked-in lint.toml.
#[test]
fn workspace_self_check_is_clean() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml present");
    let cfg = Config::parse(&text).expect("lint.toml parses");
    let report = nsql_lint::check_workspace(&root, &cfg).expect("workspace scan");
    assert!(
        report.diags.is_empty(),
        "workspace must lint clean:\n{}",
        report
            .diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files > 50, "scanned the real tree");
    // The hard-zero buckets really are zero.
    for bucket in [
        "crates/msg",
        "crates/dp/src/protocol.rs",
        "crates/fs/src/sqlapi.rs",
    ] {
        assert_eq!(
            report.bucket_counts.get(bucket),
            Some(&0),
            "{bucket} must be panic-free"
        );
    }
    // The implicit-zero discard surfaces really discard nothing: fs and
    // lock have no [result_discard] baseline, so any new silent discard
    // there fails the scan above — and their counts are zero today.
    for (file, &n) in &report.discard_counts {
        if file.starts_with("crates/fs/") || file.starts_with("crates/lock/") {
            assert_eq!(n, 0, "{file} must not silently discard Results");
        }
    }
}
