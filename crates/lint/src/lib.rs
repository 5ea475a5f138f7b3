#![warn(missing_docs)]
//! `nsql-lint` — the repo's invariant linter, and the exhaustive explorers
//! of its FS-DP recovery protocol and its lock plane.
//!
//! The paper's argument rests on protocol discipline between the File
//! System and the Disk Process. Repo-wide invariants protect it:
//! virtual-time-only determinism, typed errors on the FS-DP hot path,
//! exhaustive handling of protocol variants, and no silently dropped
//! `Result`s on the wire. `nsql-lint check` enforces them statically over
//! every crate (see [`rules`]). The other two commands run the shipped
//! stack — a fresh [`nsql_core::Cluster`] per run, nothing re-implemented:
//! `nsql-lint check-protocol` drives it through every bounded schedule of
//! injected faults and checks the sync-ID / reply-cache / backoff /
//! takeover protocol end to end (see [`model`]); `nsql-lint check-locks`
//! drives its lock manager, Disk Process and TMF through every
//! interleaving of a few scripted clients and checks the lock / deadlock /
//! doom / retry / admission protocol (see [`lockmodel`]). Ratchet ceilings
//! live in the checked-in `lint.toml` ([`config`]) so panic counts can only
//! go down — and coverage floors so explored schedules can only go up.
//!
//! No third-party dependency: the linter must run in the offline CI
//! container that builds the rest of the workspace.

pub mod config;
pub mod lexer;
pub mod lockmodel;
pub mod model;
pub mod rules;
mod stack;

use config::Config;
use rules::{Diagnostic, FileReport};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// An invariant an explorer found broken, with the schedule of `A`ctions
/// that reproduces it.
#[derive(Debug, Clone)]
pub struct Violation<A> {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
    /// The schedule to replay.
    pub schedule: Vec<A>,
}

/// A broken invariant: its name and what went wrong.
type Broke = (&'static str, String);

/// Directories never scanned: build output, VCS, and the linter's own
/// deliberately-violating fixture tree.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "lint_fixtures", "node_modules"];

/// Result of a full workspace scan.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All rule violations, sorted by file and line.
    pub diags: Vec<Diagnostic>,
    /// Non-test panic sites (`unwrap`, `expect`, `panic!`, `unreachable!`,
    /// `todo!`, `unimplemented!`) per file.
    pub file_counts: BTreeMap<String, u64>,
    /// Summed counts per ratchet bucket.
    pub bucket_counts: BTreeMap<String, u64>,
    /// Silent `Result` discard count per wire-protocol file.
    pub discard_counts: BTreeMap<String, u64>,
    /// Summed discard counts per `[result_discard]` bucket.
    pub discard_buckets: BTreeMap<String, u64>,
    /// Files scanned.
    pub files: usize,
}

/// Collect every `.rs` file under `root`, workspace-relative, sorted.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root` against `cfg`.
pub fn check_workspace(root: &Path, cfg: &Config) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    let mut enums = BTreeSet::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let FileReport {
            diags,
            panic_count,
            discard_count,
            enums: declared,
        } = rules::lint_source(cfg, &rel, &src);
        report.diags.extend(diags);
        enums.extend(declared);
        if !rules::is_test_path(&rel) {
            if rules::is_discard_path(cfg, &rel) {
                report.discard_counts.insert(rel.clone(), discard_count);
            }
            report.file_counts.insert(rel, panic_count);
        }
        report.files += 1;
    }
    report
        .diags
        .extend(rules::stale_protocol_enums(cfg, &enums));
    let (ratchet_diags, buckets) = rules::enforce_ratchet(cfg, &report.file_counts);
    report.diags.extend(ratchet_diags);
    report.bucket_counts = buckets;
    let (discard_diags, discard_buckets) =
        rules::enforce_discard_ratchet(cfg, &report.discard_counts);
    report.diags.extend(discard_diags);
    report.discard_buckets = discard_buckets;
    report
        .diags
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// For zero-ratchet buckets that are over their ceiling, list each
/// offending site with file:line so the diagnostic is actionable.
pub fn zero_ratchet_sites(root: &Path, cfg: &Config, report: &WorkspaceReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (bucket, &ceiling) in &cfg.ratchet {
        let Some(&actual) = report.bucket_counts.get(bucket) else {
            continue;
        };
        if actual <= ceiling {
            continue;
        }
        for (file, &n) in &report.file_counts {
            if n == 0 || !(file == bucket || file.starts_with(&format!("{bucket}/"))) {
                continue;
            }
            if let Ok(src) = std::fs::read_to_string(root.join(file)) {
                for (line, what) in rules::panic_sites(&src) {
                    out.push(Diagnostic {
                        rule: "panic-ratchet",
                        file: file.clone(),
                        line,
                        msg: format!("{what} counted against over-ceiling bucket `{bucket}`"),
                    });
                }
            }
        }
    }
    out
}

/// For `[result_discard]` buckets over their ceiling (or uncovered files
/// over the implicit zero), list each offending site with file:line.
pub fn discard_ratchet_sites(
    root: &Path,
    cfg: &Config,
    report: &WorkspaceReport,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (file, &n) in &report.discard_counts {
        if n == 0 {
            continue;
        }
        let over = match cfg
            .result_discard_ratchet
            .iter()
            .find(|(k, _)| file == *k || file.starts_with(&format!("{k}/")))
        {
            // A covered bucket lists sites only when the bucket overflows.
            Some((bucket, &ceiling)) => {
                report.discard_buckets.get(bucket).copied().unwrap_or(0) > ceiling
            }
            // No baseline: every site is over the implicit zero.
            None => true,
        };
        if !over {
            continue;
        }
        if let Ok(src) = std::fs::read_to_string(root.join(file)) {
            for (line, what) in rules::discard_sites(&src) {
                out.push(Diagnostic {
                    rule: "result-discard",
                    file: file.clone(),
                    line,
                    msg: format!("`{what}` counted against an over-ceiling discard budget"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_fixture_and_target_dirs() {
        let dir = std::env::temp_dir().join(format!("nsql_lint_walk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::create_dir_all(dir.join("target/debug")).unwrap();
        std::fs::create_dir_all(dir.join("tests/lint_fixtures")).unwrap();
        std::fs::write(dir.join("src/lib.rs"), "fn a() {}").unwrap();
        std::fs::write(dir.join("target/debug/gen.rs"), "fn b() {}").unwrap();
        std::fs::write(dir.join("tests/lint_fixtures/bad.rs"), "fn c() {}").unwrap();
        let files = collect_rs_files(&dir).unwrap();
        let rels: Vec<String> = files
            .iter()
            .map(|p| p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(rels, vec!["src/lib.rs"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `[protocol_enums]` name is live only while a non-test enum of that
    /// name exists; one declared in a test module does not count.
    #[test]
    fn a_protocol_enum_no_code_declares_is_an_error() {
        let dir = std::env::temp_dir().join(format!("nsql_lint_enums_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        let src = "pub enum DpRequest { Read }\n\
                   #[cfg(test)]\nmod tests { enum Retired { Gone } }\n";
        std::fs::write(dir.join("src/lib.rs"), src).unwrap();
        let cfg = Config {
            protocol_enums: vec!["DpRequest".into(), "Retired".into()],
            ratchet: BTreeMap::from([("src".into(), 0)]),
            ..Config::default()
        };
        let report = check_workspace(&dir, &cfg).unwrap();
        let msgs: Vec<String> = report.diags.iter().map(|d| d.to_string()).collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].starts_with("lint.toml: [wildcard-match]"),
            "{msgs:?}"
        );
        assert!(msgs[0].contains("`Retired`"), "{msgs:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
